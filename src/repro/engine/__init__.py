"""Batched scenario-sweep engine.

The paper's claims are statements about *families* of scenarios — sweeps
over priors, evidence volumes, leg dependence, discount factors.  This
package turns such families into declarative objects and executes them
fast:

* :class:`ScenarioSpec` / :class:`SweepSpec` — a named pipeline plus a
  parameter grid, dict/YAML round-trippable;
* :func:`lower` / :class:`ExecutionPlan` — the staged architecture's IR:
  parameter planes, chunk layout and per-chunk seed derivation, lazy in
  the scenario count; :class:`PlanWindow` — the scenario ranges a run
  executes (:mod:`~repro.engine.plan`);
* :func:`run_sweep` — grid expansion and execution on the vectorised
  or serial backend, collected in memory;
* :func:`run_sweep_streaming` — the same execution core, chunk by chunk
  through pluggable sinks (:class:`JsonlSink`, :class:`CsvSink`,
  :class:`MemorySink`) in constant memory — the million-scenario path;
  each chunk reaches the sinks as one column :class:`Batch`;
* ``shards=k`` on either — the engine's one parallel path: the run's
  window split across worker processes with strictly ordered merge and
  worker-death retry (:mod:`~repro.engine.coordinator`);
* ``delta=True`` on :func:`run_sweep_streaming` with a
  :class:`repro.store.TileSink` — the engine's one way not to
  recompute: only the tiles whose inputs changed execute, and a killed
  run is finished the same way;
* :class:`ResultSet` — ordered results with table / CSV export;
* :mod:`~repro.engine.pipelines` — the registry mapping pipeline names to
  the library's analysis entry points (thirteen pipelines: survival
  updates, SIL classification, growth-model SIL fits, elicitation
  pooling and calibration, ALARP/ACARP, standards mappings, the
  conservatism audit, BBN queries, panel simulation, and whole-case
  confidence through the compiled case engine), each declaring its
  configuration parameters and its output :class:`Column` schema, plus
  the batch dispatch layer (:func:`register_batch_kernel`) that routes
  ``run_batch`` to a vectorised kernel once per configuration group —
  every shipped pipeline has one, so whole sweeps run as array passes
  end to end;
* :func:`load_sweeps` — single- or multi-sweep YAML/JSON spec files.

Quickstart::

    from repro.engine import SweepSpec, run_sweep

    sweep = SweepSpec(
        pipeline="survival_update",
        base={"mode": 0.003, "sigma": 0.9, "bound": 1e-2},
        grid={"demands": [0, 10, 100, 1000, 10000]},
    )
    print(run_sweep(sweep).to_table())
"""

from . import kernels
from .kernels import survival_sweep_columns
from .pipelines import (
    Column,
    Pipeline,
    available_pipelines,
    get_pipeline,
    register,
    register_batch_kernel,
)
from .plan import Chunk, ExecutionPlan, PlanWindow, lower
from .results import Batch, ResultSet, ScenarioResult
from .sinks import CsvSink, JsonlSink, MemorySink, ResultSink
from .spec import ScenarioSpec, SweepSpec, canonical_key, load_sweeps
from .stream import BACKENDS, run_sweep, run_sweep_streaming, stream_results

__all__ = [
    "kernels",
    "BACKENDS",
    "run_sweep",
    "run_sweep_streaming",
    "stream_results",
    "Chunk",
    "ExecutionPlan",
    "PlanWindow",
    "lower",
    "ResultSink",
    "MemorySink",
    "JsonlSink",
    "CsvSink",
    "survival_sweep_columns",
    "Column",
    "Pipeline",
    "available_pipelines",
    "get_pipeline",
    "register",
    "register_batch_kernel",
    "Batch",
    "ResultSet",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepSpec",
    "canonical_key",
    "load_sweeps",
]
