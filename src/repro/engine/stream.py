"""Streaming sweep execution: plans run chunk-by-chunk in constant memory.

:func:`run_sweep_streaming` is the engine's one executor loop:
collected (:func:`repro.engine.run_sweep`), streamed, stored, sharded
and delta runs all pass through it.  It lowers the sweep to an
:class:`~repro.engine.plan.ExecutionPlan` and walks a
:class:`~repro.engine.plan.PlanWindow` of it **chunk by chunk**: each
chunk's scenarios are reconstructed lazily (mixed-radix grid decode +
directly-addressed child seeds), satisfied from the result cache where
possible, executed, pushed through the registered
:mod:`~repro.engine.sinks`, and dropped.  Peak memory is set by the
chunk size — not the scenario count — so million-scenario sweeps run
in the same footprint as thousand-scenario ones.

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

from ..compilecache import compile_seconds
from ..errors import DomainError
from ..telemetry import metrics, tracer
from .cache import ResultCache
from .plan import ExecutionPlan, PlanWindow, lower
from .results import ScenarioResult
from .sinks import JsonlSink, ResultSink
from .spec import ScenarioSpec

__all__ = ["run_sweep_streaming", "stream_results", "BACKENDS"]

# Run-level counters; see README's telemetry reference table.
_M_ROWS = metrics.counter("engine.rows")
_M_CHUNKS = metrics.counter("engine.chunks")
_M_CACHE_HITS = metrics.counter("engine.cache_hits")
_M_CACHE_MISSES = metrics.counter("engine.cache_misses")

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


class _ChunkWork:
    """One chunk's cache split: hits ready, misses to execute."""

    __slots__ = ("scenarios", "keys", "hits", "pending", "items")

    def __init__(self, plan: ExecutionPlan, scenarios: List[ScenarioSpec],
                 cache: Optional[ResultCache]):
        self.scenarios = scenarios
        self.keys: Dict[int, str] = {}
        self.hits: Dict[int, Dict[str, Any]] = {}
        self.pending: List[int] = []
        if cache is None:
            self.pending = list(range(len(scenarios)))
        else:
            for position, scenario in enumerate(scenarios):
                if plan.cacheable(scenario):
                    key = plan.cache_key(scenario)
                    self.keys[position] = key
                    values = cache.get(key)
                    if values is not None:
                        self.hits[position] = values
                        continue
                self.pending.append(position)
        self.items = plan.chunk_items(
            [scenarios[position] for position in self.pending]
        )

    def merge(self, values: Sequence[Dict[str, Any]],
              cache: Optional[ResultCache]) -> List[ScenarioResult]:
        """Interleave fresh values with cache hits, memoising the fresh."""
        results: List[Optional[ScenarioResult]] = [None] * len(self.scenarios)
        for position, hit in self.hits.items():
            results[position] = ScenarioResult(
                self.scenarios[position], hit, from_cache=True
            )
        for position, value in zip(self.pending, values):
            results[position] = ScenarioResult(
                self.scenarios[position], value
            )
            if cache is not None and position in self.keys:
                cache.put(self.keys[position], value)
        return results  # type: ignore[return-value]


def stream_results(
    plan,
    backend: str = "auto",
    cache: Optional[ResultCache] = None,
):
    """Yield each chunk's ordered :class:`ScenarioResult` rows, lazily.

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
    pipeline = plan.pipeline
    for chunk in window.chunks():
        with tracer.span("stream.chunk", index=chunk.index,
                         backend=effective) as span:
            try:
                work = _ChunkWork(plan, plan.chunk_scenarios(chunk), cache)
                if effective == "serial":
                    values = [
                        pipeline.run(params, seed)
                        for params, seed in work.items
                    ]
                else:
                    values = (
                        pipeline.run_batch(work.items) if work.items else []
                    )
                merged = work.merge(values, cache)
            except Exception as exc:
                raise DomainError(
                    f"pipeline {plan.pipeline_name!r}, scenarios "
                    f"[{chunk.start}, {chunk.stop}): "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            span.set(n=len(work.scenarios), cache_hits=len(work.hits))
        yield merged


def run_sweep_streaming(
    sweep,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    cache: Optional[ResultCache] = None,
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
    worker-death respawns per shard.  A result cache is shared with the
    workers through its disk log, so it needs a ``path``.

    ``delta=True`` hands the sweep to
    :func:`repro.store.delta.run_sweep_delta`: ``sinks`` must be
    exactly one :class:`~repro.store.TileSink`, and only the tiles
    whose content fingerprints are absent from the store's manifest —
    or, after a killed run, from its journal of committed tiles — are
    executed (as one window, through this loop, on ``shards`` too);
    the finished store is bit-identical to a full run.

    Returns the run's meta summary: pipeline, backend, the plan's
    scenario/chunk counts, cache hit/miss totals, rows written, elapsed
    seconds, and a ``stage_timings`` breakdown: seconds spent lowering
    the plan (``plan_s``), inside compile-cache factories
    (``compile_s``, the process-wide
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
            cache=cache,
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
    text = False
    if shards is None:
        chunks = (
            (results, len(results),
             sum(1 for result in results if result.from_cache))
            for results in stream_results(window, effective, cache)
        )
    else:
        from .coordinator import ShardedChunks

        # All-JSONL runs ship the workers' encoded text, not rows.
        text = bool(sinks) and all(
            isinstance(sink, JsonlSink) for sink in sinks
        )
        chunks = ShardedChunks(window, shards, effective, cache, text,
                               max_retries)
        label = f"shards({shards}):{effective}"
    plan_elapsed = time.perf_counter() - started
    meta: Dict[str, Any] = {
        "pipeline": plan.pipeline_name,
        "backend": label,
        "n_scenarios": plan.n_scenarios,
        "n_chunks": plan.n_chunks,
        "chunk_size": plan.chunk_size,
    }
    hits = rows = chunks_done = 0
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
                    payload, n_rows, chunk_hits = next(stream)
                except StopIteration:
                    execute_elapsed += time.perf_counter() - stage_start
                    break
                execute_elapsed += time.perf_counter() - stage_start
                stage_start = time.perf_counter()
                for sink in sinks:
                    if text:
                        sink.write_encoded(payload, n_rows)
                    else:
                        sink.write(payload)
                sink_elapsed += time.perf_counter() - stage_start
                rows += n_rows
                hits += chunk_hits
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
        _M_CACHE_HITS.add(hits)
        _M_CACHE_MISSES.add(rows - hits)
        root_span.set(rows=rows, cache_hits=hits, cache_misses=rows - hits)
    if shards is not None:
        meta["shards"] = shards
        meta["retries"] = chunks.retries
    meta["cache_hits"] = hits
    meta["cache_misses"] = rows - hits
    meta["rows"] = rows
    meta["elapsed_s"] = time.perf_counter() - started
    meta["stage_timings"] = {
        "plan_s": plan_elapsed,
        "compile_s": compile_seconds() - compile_before,
        "execute_s": execute_elapsed,
        "sink_s": sink_elapsed,
    }
    return meta
