"""Streaming sweep execution: plans run chunk-by-chunk in constant memory.

:func:`run_sweep_streaming` is the engine's scale path.  Where
:func:`repro.engine.run_sweep` materialises every scenario and every
result, the streaming executor lowers the sweep to an
:class:`~repro.engine.plan.ExecutionPlan` and walks it **chunk by
chunk**: each chunk's scenarios are reconstructed lazily (mixed-radix
grid decode + directly-addressed child seeds), satisfied from the result
cache where possible, executed on the chosen backend, pushed through the
registered :mod:`~repro.engine.sinks`, and dropped.  Peak memory is set
by the chunk size and the in-flight window — not the scenario count — so
million-scenario sweeps run in the same footprint as thousand-scenario
ones.

Backends mirror :func:`run_sweep`: ``serial`` loops the scalar pipeline
(the reference), ``vectorized`` runs each chunk through the pipeline's
batch kernel, and ``thread``/``process`` keep a bounded window of chunks
in flight in a pool — workers that finish early immediately pull the
next submitted chunk (work stealing), while emission stays strictly in
scenario order.  Because per-scenario seeds are pure functions of the
master seed and the scenario index (:func:`repro.numerics.spawn_seeds_range`),
every backend and every chunk layout produces bit-for-bit identical rows
for a given spec.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..compilecache import compile_seconds
from ..errors import DomainError
from ..telemetry import metrics, tracer
from .cache import ResultCache
from .plan import DEFAULT_CHUNK_SIZE, ExecutionPlan, lower
from .results import ScenarioResult
from .sinks import ResultSink
from .spec import ScenarioSpec, SweepSpec

__all__ = ["run_sweep_streaming", "stream_results", "BACKENDS"]

# Run-level counters/gauges; see README's telemetry reference table.
_M_ROWS = metrics.counter("engine.rows")
_M_CHUNKS = metrics.counter("engine.chunks")
_M_CACHE_HITS = metrics.counter("engine.cache_hits")
_M_CACHE_MISSES = metrics.counter("engine.cache_misses")
_M_STEALS = metrics.counter("engine.work_steals")
_M_QUEUE_DEPTH = metrics.gauge("engine.queue_depth")

BACKENDS = ("auto", "vectorized", "serial", "thread", "process")

#: Chunks per pool worker when a pooled backend picks the chunk size:
#: finished workers steal the next submitted chunk instead of idling
#: behind a slow sibling.
_CHUNKS_PER_WORKER = 4

ProgressFn = Callable[[int, int, int, int], None]


def _execute_chunk(pipeline_name: str, items) -> List[Dict[str, Any]]:
    """Run one chunk's items; module-level so process pools can pickle
    it by reference."""
    from .pipelines import get_pipeline

    return get_pipeline(pipeline_name).run_batch(items)


def _resolve_backend(
    sweep,
    backend: str,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> Tuple[ExecutionPlan, str, str]:
    """Lower ``sweep`` for ``backend``: (plan, effective backend, meta
    label).  Every executor settles its backend, worker count and chunk
    layout here.

    ``auto`` runs ``vectorized`` when the pipeline has a batch kernel,
    else ``serial``.  An unset ``chunk_size`` is
    :data:`~repro.engine.plan.DEFAULT_CHUNK_SIZE`, except that pooled
    backends split the sweep into ``_CHUNKS_PER_WORKER`` chunks per
    worker when those come out smaller.  An already-lowered plan keeps
    its own layout.
    """
    if backend not in BACKENDS:
        raise DomainError(
            f"backend must be one of {', '.join(BACKENDS)}, got {backend!r}"
        )
    if max_workers is not None and max_workers < 1:
        raise DomainError(
            f"max_workers must be at least 1, got {max_workers}"
        )
    if (chunk_size is None and backend in ("thread", "process")
            and not isinstance(sweep, ExecutionPlan)):
        if not isinstance(sweep, SweepSpec):
            sweep = tuple(sweep)
        n = sweep.n_scenarios() if isinstance(sweep, SweepSpec) else len(sweep)
        chunks = _CHUNKS_PER_WORKER * (max_workers or os.cpu_count() or 1)
        chunk_size = max(1, min(DEFAULT_CHUNK_SIZE, -(-n // chunks)))
    plan = lower(sweep, chunk_size)
    if backend == "auto":
        effective = (
            "vectorized" if plan.pipeline.supports_batch else "serial"
        )
        return plan, effective, f"auto->{effective}"
    if backend == "vectorized" and not plan.pipeline.supports_batch:
        raise DomainError(
            f"pipeline {plan.pipeline_name!r} has no vectorised kernel; "
            f"use backend='serial', 'thread' or 'process'"
        )
    return plan, backend, backend


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
    plan: ExecutionPlan,
    backend: str = "auto",
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
):
    """Yield each chunk's ordered :class:`ScenarioResult` rows, lazily.

    The generator driving both :func:`run_sweep_streaming` and
    :func:`repro.engine.run_sweep`.  ``backend`` must already name a
    concrete backend or ``auto`` (resolved here).  Chunks are yielded
    strictly in scenario order; with pooled backends a bounded window of
    chunks runs ahead of the emission point, so memory stays constant
    while workers steal whatever is submitted.
    """
    plan, effective, _label = _resolve_backend(plan, backend, max_workers)
    if plan.n_scenarios == 0:
        return
    if effective in ("serial", "vectorized"):
        pipeline = plan.pipeline
        for chunk in plan.chunks():
            with tracer.span("stream.chunk", index=chunk.index,
                             backend=effective) as span:
                work = _ChunkWork(plan, plan.chunk_scenarios(chunk), cache)
                if effective == "serial":
                    values = [
                        pipeline.run(params, seed)
                        for params, seed in work.items
                    ]
                else:
                    values = (
                        pipeline.run_batch(work.items)
                        if work.items else []
                    )
                span.set(n=len(work.scenarios),
                         cache_hits=len(work.hits))
                merged = work.merge(values, cache)
            yield merged
        return

    pool_cls = (
        ThreadPoolExecutor if effective == "thread" else ProcessPoolExecutor
    )
    with pool_cls(max_workers=max_workers) as pool:
        workers = getattr(pool, "_max_workers", None) or 1
        # Several chunks per worker in flight: finished workers steal
        # the next submitted chunk instead of idling behind a slow
        # sibling, and the reorder buffer stays bounded by the window.
        window = max(2, workers * 4)
        n_chunks = plan.n_chunks
        in_flight: Dict[int, Tuple[Any, _ChunkWork]] = {}
        next_submit = 0
        # Work-steal accounting: a chunk that completes before every
        # lower-indexed chunk has completed was executed out of turn by
        # a worker that would otherwise have idled.  The done-callbacks
        # fire on pool threads, hence the lock.
        steal_state = {"expected": 0, "steals": 0}
        early_done: set = set()
        steal_lock = threading.Lock()

        def _completed(index: int) -> None:
            with steal_lock:
                if index == steal_state["expected"]:
                    steal_state["expected"] += 1
                    while steal_state["expected"] in early_done:
                        early_done.discard(steal_state["expected"])
                        steal_state["expected"] += 1
                else:
                    early_done.add(index)
                    steal_state["steals"] += 1
                    _M_STEALS.add()

        def submit_up_to(limit: int) -> None:
            nonlocal next_submit
            while next_submit < n_chunks and len(in_flight) < limit:
                chunk = plan.chunk(next_submit)
                work = _ChunkWork(plan, plan.chunk_scenarios(chunk), cache)
                future = pool.submit(
                    _execute_chunk, plan.pipeline_name, work.items
                )
                future.add_done_callback(
                    lambda _f, index=next_submit: _completed(index)
                )
                in_flight[next_submit] = (future, work)
                next_submit += 1

        try:
            for emit_index in range(n_chunks):
                submit_up_to(window)
                _M_QUEUE_DEPTH.set(len(in_flight))
                with tracer.span("stream.chunk", index=emit_index,
                                 backend=effective,
                                 queue_depth=len(in_flight),
                                 window=window) as span:
                    future, work = in_flight.pop(emit_index)
                    values = future.result()
                    span.set(n=len(work.scenarios),
                             cache_hits=len(work.hits),
                             steals=steal_state["steals"])
                    merged = work.merge(values, cache)
                yield merged
        finally:
            # Only reachable with futures in flight when a chunk raised
            # or the consumer abandoned the stream; don't let the
            # remaining chunks run on.
            for future, _work in in_flight.values():
                future.cancel()


def run_sweep_streaming(
    sweep,
    backend: str = "auto",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    sinks: Sequence[ResultSink] = (),
    progress: Optional[ProgressFn] = None,
    shards: Optional[int] = None,
    resume: bool = False,
    manifest_path: Optional[str] = None,
    max_retries: int = 2,
    delta: bool = False,
) -> Dict[str, Any]:
    """Execute a sweep chunk-by-chunk, writing results through ``sinks``.

    ``sweep`` is a :class:`~repro.engine.spec.SweepSpec`, an explicit
    scenario sequence, or an already-lowered
    :class:`~repro.engine.plan.ExecutionPlan`.  Each finished chunk is
    written to every sink in scenario order and then released, so peak
    memory is independent of the scenario count.  ``progress`` (if
    given) is called after each chunk as ``progress(done_chunks,
    n_chunks, done_scenarios, n_scenarios)``.

    ``shards=k`` (or ``resume=True``) hands the sweep to the
    :mod:`~repro.engine.coordinator`: the plan is split into ``k``
    disjoint chunk ranges run in worker *processes*, merged through the
    same sinks in the same order — bit-identical output, and (with a
    path-backed :class:`JsonlSink`) checkpointed so a killed sweep
    resumes mid-stream via ``resume=True``.  ``max_retries`` bounds
    worker-death respawns per shard.

    ``delta=True`` hands the sweep to
    :func:`repro.store.delta.run_sweep_delta`: ``sinks`` must be
    exactly one :class:`~repro.store.TileSink`, and only the tiles
    whose content fingerprints are absent from the store's manifest
    are executed — the finished store is bit-identical to a full run.

    Returns the run's meta summary: pipeline, backend, scenario/chunk
    counts, cache hit/miss totals, rows written, elapsed seconds, and a
    ``stage_timings`` breakdown: seconds spent lowering the plan
    (``plan_s``), inside compile-cache factories (``compile_s``, the
    process-wide :func:`repro.compilecache.compile_seconds` delta — not
    visible across *process*-pool or shard workers), pulling executed
    chunks from the backend (``execute_s``) and writing sinks
    (``sink_s``).  The stream reproduces
    :func:`repro.engine.run_sweep` exactly — same rows, same order,
    same seeds — for every backend, chunk size and shard count.
    """
    if delta:
        if shards is not None or resume:
            raise DomainError(
                "delta sweeps run single-process (skipped tiles make "
                "sharding moot); drop shards/resume"
            )
        # Imported lazily: repro.store builds on this module.
        from ..store.delta import run_sweep_delta

        return run_sweep_delta(
            sweep,
            backend=backend,
            max_workers=max_workers,
            chunk_size=chunk_size,
            cache=cache,
            sinks=sinks,
            progress=progress,
        )
    if shards is not None or resume:
        from .coordinator import run_sweep_sharded

        return run_sweep_sharded(
            sweep,
            shards=shards if shards is not None else 1,
            backend=backend,
            chunk_size=chunk_size,
            cache=cache,
            sinks=sinks,
            progress=progress,
            resume=resume,
            manifest_path=manifest_path,
            max_retries=max_retries,
        )
    started = time.perf_counter()
    compile_before = compile_seconds()
    plan, _effective, label = _resolve_backend(
        sweep, backend, max_workers, chunk_size
    )
    plan_elapsed = time.perf_counter() - started
    meta: Dict[str, Any] = {
        "pipeline": plan.pipeline_name,
        "backend": label,
        "n_scenarios": plan.n_scenarios,
        "n_chunks": plan.n_chunks,
        "chunk_size": plan.chunk_size,
    }
    hits = misses = rows = chunks_done = 0
    execute_elapsed = sink_elapsed = 0.0
    opened: List[ResultSink] = []
    with tracer.span("sweep.stream", pipeline=plan.pipeline_name,
                     backend=label, n_scenarios=plan.n_scenarios,
                     n_chunks=plan.n_chunks,
                     chunk_size=plan.chunk_size) as root_span:
        try:
            # Open inside the guard: if a later sink's open() fails, the
            # earlier sinks' handles are still closed on the way out.
            for sink in sinks:
                sink.open(plan)
                opened.append(sink)
            stream = stream_results(
                plan, backend=backend, max_workers=max_workers, cache=cache
            )
            while True:
                stage_start = time.perf_counter()
                try:
                    chunk_results = next(stream)
                except StopIteration:
                    execute_elapsed += time.perf_counter() - stage_start
                    break
                execute_elapsed += time.perf_counter() - stage_start
                stage_start = time.perf_counter()
                for sink in sinks:
                    sink.write(chunk_results)
                sink_elapsed += time.perf_counter() - stage_start
                rows += len(chunk_results)
                chunks_done += 1
                chunk_hits = sum(1 for r in chunk_results if r.from_cache)
                hits += chunk_hits
                misses += len(chunk_results) - chunk_hits
                if progress is not None:
                    progress(chunks_done, plan.n_chunks, rows,
                             plan.n_scenarios)
        finally:
            stage_start = time.perf_counter()
            for sink in opened:
                sink.close()
            sink_elapsed += time.perf_counter() - stage_start
        _M_ROWS.add(rows)
        _M_CHUNKS.add(chunks_done)
        _M_CACHE_HITS.add(hits)
        _M_CACHE_MISSES.add(misses)
        root_span.set(rows=rows, cache_hits=hits, cache_misses=misses)
    meta["cache_hits"] = hits
    meta["cache_misses"] = misses
    meta["rows"] = rows
    meta["elapsed_s"] = time.perf_counter() - started
    meta["stage_timings"] = {
        "plan_s": plan_elapsed,
        "compile_s": compile_seconds() - compile_before,
        "execute_s": execute_elapsed,
        "sink_s": sink_elapsed,
    }
    return meta
