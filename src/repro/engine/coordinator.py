"""Sharded sweep execution across worker processes.

The streaming executor's plans already address any chunk
deterministically — scenario ``i`` is a pure function of the spec
(mixed-radix grid decode) and its seed is the directly-addressed
``i``-th child of the master seed — so distribution is coordination,
not re-derivation.  This module adds that coordination with nothing
beyond the stdlib:

* :func:`run_sweep_sharded` splits a plan into ``k`` disjoint chunk
  ranges (:meth:`~repro.engine.plan.ExecutionPlan.shard`), runs each in
  its own worker **process**, and merges the workers' chunks through
  the ordinary sinks in strict scenario order — output is bit-for-bit
  the single-process stream, just produced in parallel.  Sinks are
  opened with the *whole* plan, so order-sensitive sinks like
  :class:`repro.store.TileSink` work unchanged: shards spill rows, the
  coordinator cuts them into tiles at merge time.
* Worker death (OOM kill, segfault, ``kill -9``) is detected by
  liveness polling and answered with bounded retry: a fresh worker is
  assigned the dead one's *remaining* chunk range.  Pipeline errors,
  by contrast, propagate immediately — they are deterministic and
  would fail again.

A killed *coordinator* is recovered through the tile store: a
:class:`~repro.store.TileSink` journals every tile it commits, and a
``delta=True`` run against the store executes only the tiles that had
not committed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from ..compilecache import compile_seconds
from ..errors import DomainError
from ..telemetry import metrics, tracer
from .cache import ResultCache
from .plan import ExecutionPlan
from .sinks import JsonlSink, ResultSink

__all__ = ["run_sweep_sharded"]

_M_CHUNKS = metrics.counter("coordinator.chunks")
_M_ROWS = metrics.counter("coordinator.rows")
_M_RETRIES = metrics.counter("coordinator.retries")

#: Seconds between liveness checks while waiting on a worker's queue.
_POLL_S = 0.1


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _shard_worker(plan: ExecutionPlan, start_chunk: int, stop_chunk: int,
                  backend: str, cache_path: Optional[str], part_path: str,
                  out_queue, text_mode: bool) -> None:
    """Run chunks ``[start_chunk, stop_chunk)``, spilling them to disk.

    Each finished chunk's payload — pre-encoded JSONL text in
    ``text_mode`` (so the coordinator appends it verbatim instead of
    re-serialising every row), the raw ``ScenarioResult`` rows
    otherwise — is pickled to ``part_path`` and *flushed* before a tiny
    ``("chunk", absolute_index, n_rows, cache_hits)`` message is
    queued, so every announced chunk is readable.  The disk spill is
    what lets every shard run at full speed while the coordinator
    drains shards in order: backpressure would serialise the sweep,
    and unbounded queues would buffer it in memory.  Ends with
    ``("done", total_rows)``; failures put ``("error", message)``; an
    abrupt death puts nothing, which the coordinator detects by
    liveness polling.
    """
    try:
        from .stream import stream_results

        shard = plan.shard_chunks(start_chunk, stop_chunk)
        cache = ResultCache(path=cache_path) if cache_path else None
        total = 0
        with open(part_path, "wb") as part:
            results_stream = stream_results(
                shard, backend=backend, cache=cache
            )
            for chunk, results in zip(shard.chunks(), results_stream):
                hits = sum(1 for result in results if result.from_cache)
                payload = (
                    JsonlSink.encode(results) if text_mode else results
                )
                pickle.dump(payload, part,
                            protocol=pickle.HIGHEST_PROTOCOL)
                part.flush()
                out_queue.put(("chunk", chunk.index, len(results), hits))
                total += len(results)
        out_queue.put(("done", total))
    except BaseException as exc:  # noqa: BLE001 — surfaced by coordinator
        try:
            out_queue.put(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


class _ShardState:
    """One shard's live bookkeeping inside the coordinator."""

    __slots__ = ("index", "start", "stop", "next_chunk", "process",
                 "queue", "part_path", "part_handle", "retries", "rows",
                 "hits")

    def __init__(self, index: int, start: int, stop: int, part_path: str):
        self.index = index
        self.start = start
        self.stop = stop
        self.next_chunk = start
        self.process = None
        self.queue = None
        self.part_path = part_path
        self.part_handle = None
        self.retries = 0
        self.rows = 0
        self.hits = 0


# --------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------- #


def run_sweep_sharded(
    sweep,
    shards: int = 1,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    sinks: Sequence[ResultSink] = (),
    progress=None,
    max_retries: int = 2,
    mp_context: Optional[str] = None,
) -> Dict[str, Any]:
    """Execute a sweep across ``shards`` worker processes.

    The sharded counterpart of
    :func:`~repro.engine.stream.run_sweep_streaming` (which delegates
    here when called with ``shards=``): same sweep inputs, same sinks,
    same ordered output, same meta summary shape.  Each shard runs its
    chunk range through the ordinary streaming executor in a child
    process; the coordinator drains the shards in order, so rows hit
    the sinks exactly as a single-process run would write them.
    ``max_retries`` bounds how many times a *dying* worker (not a
    failing pipeline) is replaced before the sweep errors out.
    """
    started = time.perf_counter()
    compile_before = compile_seconds()
    if shards < 1:
        raise DomainError(f"shards must be positive, got {shards}")
    if max_retries < 0:
        raise DomainError("max_retries must be >= 0")

    from .stream import _resolve_backend

    # Workers are the parallelism; inside each one, pooled backends
    # would only oversubscribe, so they run as the pipeline's fastest
    # in-process backend (what ``auto`` picks).
    plan, worker_backend, _ = _resolve_backend(
        sweep, "auto" if backend in ("thread", "process") else backend,
        chunk_size=chunk_size,
    )
    plan_elapsed = time.perf_counter() - started
    label = f"shards({shards}):{worker_backend}"

    sinks = tuple(sinks)
    text_mode = bool(sinks) and all(
        isinstance(sink, JsonlSink) for sink in sinks
    )
    n_chunks = plan.n_chunks
    spill_dir = tempfile.mkdtemp(prefix="repro-shards-")
    states = []
    for index in range(shards):
        shard = plan.shard(index, shards)
        states.append(_ShardState(
            index, shard.start_chunk, shard.stop_chunk,
            os.path.join(spill_dir, f"shard-{index}.part"),
        ))

    cache_path = cache.path if cache is not None else None
    context = multiprocessing.get_context(mp_context)

    def spawn(state: _ShardState) -> None:
        """(Re)start ``state``'s worker over its remaining chunks."""
        state.queue = context.Queue()
        if state.part_handle is not None:
            state.part_handle.close()
        # Pre-create the spill file so the read handle can open before
        # the worker's "wb" open truncates it in place (same inode).
        with open(state.part_path, "ab"):
            pass
        state.part_handle = open(state.part_path, "rb")
        state.process = context.Process(
            target=_shard_worker,
            args=(plan, state.next_chunk, state.stop, worker_backend,
                  cache_path, state.part_path, state.queue, text_mode),
            daemon=True,
            name=f"repro-shard-{state.index}",
        )
        state.process.start()

    meta: Dict[str, Any] = {
        "pipeline": plan.pipeline_name,
        "backend": label,
        "n_scenarios": plan.n_scenarios,
        "n_chunks": n_chunks,
        "chunk_size": plan.chunk_size,
        "shards": shards,
    }
    rows = hits = chunks_done = retries_total = 0
    execute_elapsed = sink_elapsed = 0.0
    opened: List[ResultSink] = []
    try:
        with tracer.span("sweep.sharded", pipeline=plan.pipeline_name,
                         backend=label, shards=shards,
                         n_scenarios=plan.n_scenarios,
                         n_chunks=n_chunks) as root_span:
            for sink in sinks:
                sink.open(plan)
                opened.append(sink)
            for state in states:
                if state.next_chunk < state.stop:
                    spawn(state)
            for state in states:
                with tracer.span("coordinator.shard", shard=state.index,
                                 start_chunk=state.start,
                                 stop_chunk=state.stop) as shard_span:
                    while state.next_chunk < state.stop:
                        wait_start = time.perf_counter()
                        message = None
                        try:
                            message = state.queue.get(timeout=_POLL_S)
                        except queue_module.Empty:
                            pass
                        except (EOFError, OSError):
                            pass  # feeder pipe died with the worker
                        execute_elapsed += (
                            time.perf_counter() - wait_start
                        )
                        if message is None:
                            if (state.process is not None
                                    and not state.process.is_alive()):
                                # Dead producer, drained queue: replace
                                # it for the remaining chunk range.
                                state.retries += 1
                                retries_total += 1
                                _M_RETRIES.add()
                                if state.retries > max_retries:
                                    raise DomainError(
                                        f"shard {state.index} worker died "
                                        f"{state.retries} times (exit code "
                                        f"{state.process.exitcode}) before "
                                        f"chunk {state.next_chunk}; giving "
                                        f"up after {max_retries} retries"
                                    )
                                spawn(state)
                            continue
                        kind = message[0]
                        if kind == "error":
                            raise DomainError(
                                f"shard {state.index} failed: {message[1]}"
                            )
                        if kind == "done":
                            if state.next_chunk < state.stop:
                                # A worker that says done with chunks
                                # missing lost messages: treat as death.
                                state.process.join(timeout=5)
                                continue
                            break
                        _, index, n_rows, chunk_hits = message
                        if index < state.next_chunk:
                            continue  # duplicate after a respawn race
                        if index != state.next_chunk:
                            raise DomainError(
                                f"shard {state.index} emitted chunk "
                                f"{index}, expected {state.next_chunk} — "
                                f"ordered-merge invariant broken"
                            )
                        # The worker flushed this chunk's frame before
                        # announcing it, so the read cannot hit EOF.
                        payload = pickle.load(state.part_handle)
                        write_start = time.perf_counter()
                        for sink in sinks:
                            if text_mode:
                                sink.write_encoded(payload, n_rows)
                            else:
                                sink.write(payload)
                        sink_elapsed += time.perf_counter() - write_start
                        state.next_chunk += 1
                        state.rows += n_rows
                        state.hits += chunk_hits
                        rows += n_rows
                        hits += chunk_hits
                        chunks_done += 1
                        _M_CHUNKS.add()
                        _M_ROWS.add(n_rows)
                        if progress is not None:
                            progress(chunks_done, n_chunks, rows,
                                     plan.n_scenarios)
                    shard_span.set(rows=state.rows, retries=state.retries,
                                   cache_hits=state.hits)
                if state.process is not None:
                    state.process.join(timeout=5)
            root_span.set(rows=rows, retries=retries_total,
                          cache_hits=hits)
    finally:
        for state in states:
            process = state.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=5)
            if state.queue is not None:
                state.queue.cancel_join_thread()
                state.queue.close()
            if state.part_handle is not None:
                state.part_handle.close()
        shutil.rmtree(spill_dir, ignore_errors=True)
        for sink in opened:
            sink.close()

    meta["cache_hits"] = hits
    meta["cache_misses"] = rows - hits
    meta["rows"] = rows
    meta["retries"] = retries_total
    meta["elapsed_s"] = time.perf_counter() - started
    meta["stage_timings"] = {
        "plan_s": plan_elapsed,
        # Compile work happens inside the worker processes; the
        # parent-side delta only sees its own (plan fingerprint) work.
        "compile_s": compile_seconds() - compile_before,
        "execute_s": execute_elapsed,
        "sink_s": sink_elapsed,
    }
    return meta
