"""Sweep execution: the collecting front door.

:func:`run_sweep` is the engine's front door for in-memory sweeps: lower
the spec to an :class:`~repro.engine.plan.ExecutionPlan`, drive it
through the streaming core (:mod:`repro.engine.stream`) into a
:class:`~repro.engine.sinks.MemorySink`, and wrap everything in a
:class:`ResultSet` in the original scenario order.  It is deliberately a
thin wrapper: **one** execution core serves both this collecting API and
:func:`~repro.engine.run_sweep_streaming`, so the two are identical row
for row — the collecting path is just the stream with an in-memory sink.

Backends
--------

A backend says how each process runs its chunks:

``auto``
    ``vectorized`` when the pipeline has a batch kernel, else ``serial``.
``vectorized``
    The pipeline's NumPy batch kernel, chunk by chunk.
``serial``
    A plain loop over the scalar pipeline — the reference the others
    must match.

``shards=k`` spreads a sweep over ``k`` worker processes
(:mod:`repro.engine.coordinator`), each running its share of the
scenarios on the chosen backend; the rows come back in order and
bit-identical.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

from .cache import ResultCache
from .results import ResultSet
from .sinks import MemorySink
from .spec import ScenarioSpec, SweepSpec
from .stream import BACKENDS, run_sweep_streaming

__all__ = ["run_sweep", "BACKENDS"]

SweepLike = Union[SweepSpec, Sequence[ScenarioSpec]]


def run_sweep(
    sweep: SweepLike,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    shards: Optional[int] = None,
) -> ResultSet:
    """Expand and execute a sweep; results keep the expansion order.

    ``sweep`` is a :class:`SweepSpec` or an explicit sequence of
    :class:`ScenarioSpec` (which must share one pipeline).  Scenarios
    whose key is already in ``cache`` are not re-executed; fresh results
    are memoised before returning.  ``shards=k`` runs the sweep in ``k``
    worker processes (the cache then needs a ``path``).  This is the
    collecting wrapper over :func:`~repro.engine.run_sweep_streaming` —
    for sweeps too large to hold in memory, use the streaming API with a
    file sink instead.
    """
    started = time.perf_counter()
    if not isinstance(sweep, SweepSpec):
        # lower() refuses an empty scenario list: it has no pipeline.
        sweep = list(sweep)
        if not sweep:
            return ResultSet([], {
                "backend": backend,
                "n_scenarios": 0,
                "elapsed_s": time.perf_counter() - started,
            })
    sink = MemorySink()
    meta = run_sweep_streaming(
        sweep,
        backend=backend,
        chunk_size=chunk_size,
        cache=cache,
        sinks=(sink,),
        shards=shards,
    )
    meta["elapsed_s"] = time.perf_counter() - started
    return sink.result_set(meta)
