"""Sharded sweep execution across worker processes.

Shard workers are the engine's one way to use more than one core.  A
plan window addresses every scenario deterministically — scenario ``i``
is a pure function of the spec (mixed-radix grid decode) and its seed
is the directly-addressed ``i``-th child of the master seed — so
distribution is coordination, not re-derivation.  This module adds that
coordination with nothing beyond the stdlib:

* ``run_sweep_streaming(shards=k)`` splits the run's window into ``k``
  parts of near-equal scenario counts
  (:meth:`~repro.engine.plan.PlanWindow.split`) and runs each in
  its own worker **process** through the ordinary in-process executor:
  the worker runs its chunks and spills each one's value columns to
  disk as pickled arrays.  :class:`ShardedChunks` hands the chunks back
  to the executor loop in strict scenario order as
  :class:`~repro.engine.results.Batch` es — whole, the pieces of a
  chunk a shard boundary cut in two concatenated, and parameter planes
  and seeds gathered from the parent's plan — so the sinks, which live
  in the parent, see the caller's plan and chunk layout and write every
  row and tile exactly as a single-process run would.
* Worker death (OOM kill, segfault, ``kill -9``) is detected by
  liveness polling and answered with bounded retry: a fresh worker is
  assigned the dead one's *remaining* scenarios.  Pipeline errors, by
  contrast, propagate immediately — they are deterministic and would
  fail again — with the worker's executor text, which names the
  pipeline and the failing chunk's scenarios.

Workers only ever write their spill files, so a killed coordinator
leaves nothing behind that could keep writing into its outputs.  It is
recovered through the tile store: a :class:`~repro.store.TileSink`
journals every tile it commits, and a ``delta=True`` run — sharded
too, if asked — executes only the tiles that had not committed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import shutil
import tempfile
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import DomainError
from ..telemetry import metrics
from .cache import ResultCache
from .plan import PlanWindow
from .results import Batch

__all__ = ["ShardedChunks", "check_sharding"]

_M_RETRIES = metrics.counter("coordinator.retries")

#: Seconds between liveness checks while waiting on a worker's queue.
_POLL_S = 0.1


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _shard_worker(window: PlanWindow, backend: str,
                  cache_path: Optional[str], part_path: str,
                  out_queue) -> None:
    """Run ``window``, spilling each finished chunk to ``part_path``.

    Each chunk's columns — the batch's ``(values, from_cache)`` arrays —
    are pickled to ``part_path`` and *flushed* before a tiny ``("chunk",
    start, n_rows)`` message is queued, so every announced chunk is
    readable.  The disk spill is what lets every shard run at full speed
    while the parent drains shards in order: backpressure would
    serialise the sweep, and unbounded queues would buffer it in
    memory.  Ends with ``("done", total_rows)``; failures put
    ``("error", message)`` — a pipeline failure's message is the one
    :func:`~repro.engine.stream.stream_results` raised, naming the
    pipeline and scenarios; an abrupt death puts nothing, which the
    parent detects by liveness polling.
    """
    done = 0
    try:
        from .stream import stream_results

        cache = ResultCache(path=cache_path) if cache_path else None
        with open(part_path, "wb") as part:
            for batch in stream_results(window, backend=backend,
                                        cache=cache):
                pickle.dump((batch.values, batch.from_cache), part,
                            protocol=pickle.HIGHEST_PROTOCOL)
                part.flush()
                out_queue.put(("chunk", batch.start, len(batch)))
                done += len(batch)
        out_queue.put(("done", done))
    except BaseException as exc:  # noqa: BLE001 — surfaced by the parent
        message = (str(exc) if isinstance(exc, DomainError)
                   else f"{type(exc).__name__}: {exc}")
        try:
            out_queue.put(("error", message))
        except Exception:
            pass


class _ShardState:
    """One shard's live bookkeeping in the parent."""

    __slots__ = ("index", "window", "done", "process", "queue",
                 "part_path", "part_handle", "retries")

    def __init__(self, index: int, window: PlanWindow, part_path: str):
        self.index = index
        self.window = window
        self.done = 0
        self.process = None
        self.queue = None
        self.part_path = part_path
        self.part_handle = None
        self.retries = 0


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


def check_sharding(shards: int, max_retries: int,
                   cache: Optional[ResultCache]) -> None:
    """Refuse a shard setup that cannot run, before anything starts."""
    if shards < 1:
        raise DomainError(f"shards must be positive, got {shards}")
    if max_retries < 0:
        raise DomainError("max_retries must be >= 0")
    if cache is not None and cache.path is None:
        raise DomainError(
            "shard workers share the result cache through its disk "
            "log, and this cache has none: pass ResultCache(path=...) "
            "or run without a cache"
        )


class ShardedChunks:
    """A window's chunks computed by ``shards`` worker processes.

    Iterating starts the workers and yields each chunk of ``window`` as
    an executed :class:`~repro.engine.results.Batch`, in scenario order,
    and stops them on exit, however the iteration ends.
    :attr:`retries` counts respawned workers.  Workers open ``cache``
    from its disk log, so a cache must have a ``path``.
    """

    def __init__(self, window: PlanWindow, shards: int, backend: str,
                 cache: Optional[ResultCache], max_retries: int):
        check_sharding(shards, max_retries, cache)
        self._window = window
        self._shards = shards
        self._backend = backend
        self._cache_path = cache.path if cache is not None else None
        self._max_retries = max_retries
        self.retries = 0

    def _spawn(self, state: _ShardState) -> None:
        """(Re)start ``state``'s worker over its remaining scenarios."""
        state.queue = multiprocessing.Queue()
        if state.part_handle is not None:
            state.part_handle.close()
        # Pre-create the spill file so the read handle can open before
        # the worker's "wb" open truncates it in place (same inode).
        with open(state.part_path, "ab"):
            pass
        state.part_handle = open(state.part_path, "rb")
        remaining = state.window.take(state.done, state.window.n_scenarios)
        state.process = multiprocessing.Process(
            target=_shard_worker,
            args=(remaining, self._backend, self._cache_path,
                  state.part_path, state.queue),
            daemon=True,
            name=f"repro-shard-{state.index}",
        )
        state.process.start()

    def _next_chunk(
        self, state: _ShardState
    ) -> Optional[Tuple[int, int]]:
        """The worker's next ``(start, n_rows)``, or None after a poll
        interval (respawning a dead worker)."""
        try:
            message = state.queue.get(timeout=_POLL_S)
        except (queue_module.Empty, EOFError, OSError):
            # Nothing yet, or the feeder pipe died with the worker.
            if not state.process.is_alive():
                state.retries += 1
                self.retries += 1
                _M_RETRIES.add()
                if state.retries > self._max_retries:
                    raise DomainError(
                        f"shard {state.index} worker died {state.retries} "
                        f"times (exit code {state.process.exitcode}) with "
                        f"{state.window.n_scenarios - state.done} "
                        f"scenarios left; giving up after "
                        f"{self._max_retries} retries"
                    )
                self._spawn(state)
            return None
        if message[0] == "error":
            raise DomainError(f"shard {state.index} failed: {message[1]}")
        if message[0] == "done":
            # "done" with scenarios missing means lost messages: wait
            # for the exit, then the next poll respawns the worker.
            state.process.join(timeout=5)
            return None
        return message[1:]

    def __iter__(self) -> Iterator[Batch]:
        window = self._window
        if not window.n_scenarios:
            return
        spill_dir = tempfile.mkdtemp(prefix="repro-shards-")
        states = [
            _ShardState(index, part,
                        os.path.join(spill_dir, f"shard-{index}.part"))
            for index, part in enumerate(window.split(self._shards))
        ]
        try:
            for state in states:
                if state.window.n_scenarios:
                    self._spawn(state)
            # Workers cut their chunks at shard boundaries too; pieces
            # are joined back into the window's own chunks here.
            plan = window.plan
            chunks = window.chunks()
            chunk = next(chunks)
            pieces, filled = [], 0
            for state in states:
                while state.done < state.window.n_scenarios:
                    message = self._next_chunk(state)
                    if message is None:
                        continue
                    start, n_rows = message
                    if (start != chunk.start + filled
                            or filled + n_rows > len(chunk)):
                        raise DomainError(
                            f"shard {state.index} sent scenarios "
                            f"[{start}, {start + n_rows}), expected "
                            f"{chunk.start + filled} — ordered-merge "
                            f"invariant broken"
                        )
                    # The worker flushed this chunk's frame before
                    # announcing it, so the read cannot hit EOF.
                    pieces.append(pickle.load(state.part_handle))
                    state.done += n_rows
                    filled += n_rows
                    if filled == len(chunk):
                        batch = plan.batch(chunk)
                        values, from_cache = zip(*pieces)
                        batch.values = {
                            name: np.concatenate([piece[name]
                                                  for piece in values])
                            for name in values[0]
                        }
                        batch.from_cache = np.concatenate(from_cache)
                        yield batch
                        pieces, filled = [], 0
                        chunk = next(chunks, None)
                if state.process is not None:
                    state.process.join(timeout=5)
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
