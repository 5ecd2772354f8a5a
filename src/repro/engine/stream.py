"""Streaming sweep execution: plans run chunk-by-chunk in constant memory.

:func:`run_sweep_streaming` is the engine's one executor loop:
collected, streamed, stored, sharded and delta runs all pass through
it, and :func:`run_sweep` is that loop with a
:class:`~repro.engine.sinks.MemorySink`, wrapped in a
:class:`~repro.engine.results.ResultSet`.  It lowers the sweep to an
:class:`~repro.engine.plan.ExecutionPlan` and walks a
:class:`~repro.engine.plan.PlanWindow` of it **chunk by chunk**: each
chunk becomes a :class:`~repro.engine.results.Batch` — parameter planes
gathered from the axes plus directly-addressed child seeds — run one
configuration group at a time into the declared value columns, pushed
through the registered :mod:`~repro.engine.sinks`, and dropped.  Peak
memory is set by the chunk size — not the scenario count — so
million-scenario sweeps run in the same footprint as thousand-scenario
ones.

Backends say how a process runs its chunks: ``serial`` loops the scalar
pipeline (the reference), ``vectorized`` runs each chunk through the
pipeline's batch kernel, and ``auto`` picks ``vectorized`` whenever
there is one.  More cores come from ``shards=k`` alone: the
:mod:`~repro.engine.coordinator` runs the window in ``k`` worker
processes on the same backend and hands their chunks back to this loop
in scenario order.  Because per-scenario seeds are pure functions of
the master seed and the scenario index
(:func:`repro.numerics.spawn_seeds_range`), every backend, chunk layout
and shard count produces bit-for-bit identical rows for a given spec.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compilecache import compile_seconds
from ..errors import DomainError
from ..telemetry import metrics, tracer
from .plan import ExecutionPlan, PlanWindow, lower
from .results import Batch, ResultSet
from .sinks import MemorySink, ResultSink
from .spec import SweepSpec

__all__ = ["run_sweep", "run_sweep_streaming", "stream_results",
           "BACKENDS"]

# Run-level counters; see README's telemetry reference table.
_M_ROWS = metrics.counter("engine.rows")
_M_CHUNKS = metrics.counter("engine.chunks")

BACKENDS = ("auto", "vectorized", "serial")

ProgressFn = Callable[[int, int, int, int], None]


def _resolve_backend(
    sweep,
    backend: str,
    chunk_size: Optional[int] = None,
) -> Tuple[PlanWindow, str, str]:
    """Lower ``sweep`` for ``backend``: (window, effective backend, meta
    label).  Every executor settles its backend and chunk layout here.

    ``sweep`` may already be a plan (its layout is kept) or a window of
    one; anything else runs whole.  ``auto`` runs ``vectorized`` when
    the pipeline has a batch kernel, else ``serial``.  An unset
    ``chunk_size`` is :data:`~repro.engine.plan.DEFAULT_CHUNK_SIZE`.
    """
    if backend not in BACKENDS:
        raise DomainError(
            f"backend must be one of {', '.join(BACKENDS)}, got {backend!r}"
        )
    if isinstance(sweep, PlanWindow):
        window = sweep
        lower(window.plan, chunk_size)  # refuses a conflicting layout
    else:
        window = lower(sweep, chunk_size).window()
    pipeline = window.plan.pipeline
    if backend == "auto":
        effective = "vectorized" if pipeline.supports_batch else "serial"
        return window, effective, f"auto->{effective}"
    if backend == "vectorized" and not pipeline.supports_batch:
        raise DomainError(
            f"pipeline {window.plan.pipeline_name!r} has no vectorised "
            f"kernel; use backend='serial'"
        )
    return window, backend, backend


def _execute(plan: ExecutionPlan, batch: Batch, scalar: bool) -> None:
    """Fill ``batch``'s value columns, one configuration group at a
    time."""
    batch.values = {
        column.name: np.full(len(batch), 0 if column.nodata is None
                             else column.nodata, dtype=column.dtype)
        for column in plan.columns
    }
    for config, columns, rows, planes, seeds in plan.groups(batch):
        values = plan.pipeline.run_batch(config, planes, seeds, scalar)
        for column in columns:
            batch.values[column.name][rows] = values[column.name]


def stream_results(plan, backend: str = "auto"):
    """Yield each chunk's executed :class:`~repro.engine.results.Batch`,
    lazily (iterating a batch gives its ``ScenarioResult`` rows).

    ``plan`` is an :class:`~repro.engine.plan.ExecutionPlan` or a
    :class:`~repro.engine.plan.PlanWindow` of one; chunks are the
    window's, yielded strictly in scenario order.  This is what
    :func:`run_sweep_streaming` runs in-process and what each shard
    worker runs on its part of the window.

    An ``Exception`` raised while a chunk is resolved or run is raised
    again as ``DomainError("pipeline 'NAME', scenarios [START, STOP):
    Type: msg")``, chained from the original; what the caller does with
    a yielded chunk (sink writes) is not wrapped.
    """
    window, effective, _label = _resolve_backend(plan, backend)
    plan = window.plan
    for chunk in window.chunks():
        with tracer.span("stream.chunk", index=chunk.index,
                         backend=effective) as span:
            try:
                batch = plan.batch(chunk)
                _execute(plan, batch, effective == "serial")
            except Exception as exc:
                raise DomainError(
                    f"pipeline {plan.pipeline_name!r}, scenarios "
                    f"[{chunk.start}, {chunk.stop}): "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            span.set(n=len(batch))
        yield batch


def run_sweep_streaming(
    sweep,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    sinks: Sequence[ResultSink] = (),
    progress: Optional[ProgressFn] = None,
    shards: Optional[int] = None,
    max_retries: int = 2,
    delta: bool = False,
) -> Dict[str, Any]:
    """Execute a sweep chunk-by-chunk, writing results through ``sinks``.

    ``sweep`` is a :class:`~repro.engine.spec.SweepSpec`, an explicit
    scenario sequence, an already-lowered
    :class:`~repro.engine.plan.ExecutionPlan`, or a
    :class:`~repro.engine.plan.PlanWindow` of one (sinks are then opened
    with the window instead of the plan).  Each finished chunk is
    written to every sink in scenario order and then released, so peak
    memory is independent of the scenario count.  ``progress`` (if
    given) is called after each chunk as ``progress(done_chunks,
    n_chunks, done_scenarios, n_scenarios)``, counted over the window.

    ``shards=k`` runs the window in ``k`` worker *processes*
    (:mod:`~repro.engine.coordinator`): each runs a near-equal share of
    the scenarios on ``backend``, and their chunks reach the sinks here,
    whole and in order — bit-identical output.  ``max_retries`` bounds
    worker-death respawns per shard.

    ``delta=True`` hands the sweep to
    :func:`repro.store.delta.run_sweep_delta`: ``sinks`` must be
    exactly one :class:`~repro.store.TileSink`, and only the tiles
    whose content fingerprints are absent from the store's manifest —
    or, after a killed run, from its journal of committed tiles — are
    executed (as one window, through this loop, on ``shards`` too);
    the finished store is bit-identical to a full run.

    Returns the run's meta summary: pipeline, backend, the plan's
    scenario/chunk counts, rows written, elapsed seconds, and a
    ``stage_timings`` breakdown: seconds spent lowering the plan
    (``plan_s``), inside compile-cache factories (``compile_s``, the
    process-wide
    :func:`repro.compilecache.compile_seconds` delta — not visible
    across shard workers), pulling executed chunks (``execute_s``) and
    writing sinks (``sink_s``).  Sharded runs add ``shards`` and
    ``retries``.  The stream reproduces :func:`repro.engine.run_sweep`
    exactly — same rows, same order, same seeds — for every backend,
    chunk size and shard count.
    """
    if delta:
        # Imported lazily: repro.store builds on this module.
        from ..store.delta import run_sweep_delta

        return run_sweep_delta(
            sweep,
            backend=backend,
            chunk_size=chunk_size,
            sinks=sinks,
            progress=progress,
            shards=shards,
            max_retries=max_retries,
        )
    started = time.perf_counter()
    compile_before = compile_seconds()
    window, effective, label = _resolve_backend(sweep, backend, chunk_size)
    plan = window.plan
    sinks = tuple(sinks)
    if shards is None:
        chunks = stream_results(window, effective)
    else:
        from .coordinator import ShardedChunks

        chunks = ShardedChunks(window, shards, effective, max_retries)
        label = f"shards({shards}):{effective}"
    plan_elapsed = time.perf_counter() - started
    meta: Dict[str, Any] = {
        "pipeline": plan.pipeline_name,
        "backend": label,
        "n_scenarios": plan.n_scenarios,
        "n_chunks": plan.n_chunks,
        "chunk_size": plan.chunk_size,
    }
    rows = chunks_done = 0
    execute_elapsed = sink_elapsed = 0.0
    opened: List[ResultSink] = []
    target = window if isinstance(sweep, PlanWindow) else plan
    stream = iter(chunks)
    with tracer.span("sweep.stream", pipeline=plan.pipeline_name,
                     backend=label, n_scenarios=window.n_scenarios,
                     n_chunks=window.n_chunks,
                     chunk_size=plan.chunk_size) as root_span:
        try:
            # Open inside the guard: if a later sink's open() fails, the
            # earlier sinks' handles are still closed on the way out.
            for sink in sinks:
                sink.open(target)
                opened.append(sink)
            while True:
                stage_start = time.perf_counter()
                try:
                    batch = next(stream)
                except StopIteration:
                    execute_elapsed += time.perf_counter() - stage_start
                    break
                execute_elapsed += time.perf_counter() - stage_start
                stage_start = time.perf_counter()
                for sink in sinks:
                    sink.write(batch)
                sink_elapsed += time.perf_counter() - stage_start
                rows += len(batch)
                chunks_done += 1
                if progress is not None:
                    progress(chunks_done, window.n_chunks, rows,
                             window.n_scenarios)
        finally:
            stream.close()  # stops any shard workers still running
            stage_start = time.perf_counter()
            for sink in opened:
                sink.close()
            sink_elapsed += time.perf_counter() - stage_start
        _M_ROWS.add(rows)
        _M_CHUNKS.add(chunks_done)
        root_span.set(rows=rows)
    if shards is not None:
        meta["shards"] = shards
        meta["retries"] = chunks.retries
    meta["rows"] = rows
    meta["elapsed_s"] = time.perf_counter() - started
    meta["stage_timings"] = {
        "plan_s": plan_elapsed,
        "compile_s": compile_seconds() - compile_before,
        "execute_s": execute_elapsed,
        "sink_s": sink_elapsed,
    }
    return meta


def run_sweep(
    sweep,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    shards: Optional[int] = None,
) -> ResultSet:
    """Expand and execute a sweep; results keep the expansion order.

    ``sweep`` is a :class:`~repro.engine.spec.SweepSpec` or an explicit
    sequence of :class:`~repro.engine.spec.ScenarioSpec` (which must
    share one pipeline).  ``shards=k`` runs the sweep in ``k`` worker
    processes.  The rows are collected in memory — for sweeps too large
    for that, use :func:`run_sweep_streaming` with a file sink, and to
    rerun a sweep without recomputing it, a
    :class:`~repro.store.TileSink` with ``delta=True``.
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
    meta = run_sweep_streaming(sweep, backend=backend, chunk_size=chunk_size,
                               sinks=(sink,), shards=shards)
    meta["elapsed_s"] = time.perf_counter() - started
    return sink.result_set(meta)
