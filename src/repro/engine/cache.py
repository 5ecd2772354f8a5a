"""Keyed result cache for scenario sweeps.

Sweeps are repetitive by construction — refinement reruns share most of
their grid with the original, interactive sessions re-evaluate the same
anchors, and panel simulations are pure functions of their seed.  The
:class:`ResultCache` memoises finished scenario values under the spec's
canonical content hash (:meth:`repro.engine.spec.ScenarioSpec.key`), so a
repeated scenario costs a dict lookup instead of a kernel evaluation.

:class:`ResultCache` is the sweep-facing face of the unified
:class:`repro.compilecache.ContentCache` core: thread-safe,
LRU-bounded so long-running services cannot grow it without limit, and
— with ``path=`` — **disk-persistent**: every stored result is appended
to a JSONL log that is replayed on construction, so a cache built in
one process serves hits in the next.  That log is also how shard
worker processes share a cache, so sharded runs need a ``path``.
Stale replays are impossible by construction: cache keys are content
hashes (:meth:`~repro.engine.plan.ExecutionPlan.cache_key` appends the
hash of every referenced file, read once when the plan is lowered), so
editing a spec or a case file changes the next run's keys and the old
entry is simply never asked for again.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..compilecache import ContentCache

__all__ = ["ResultCache"]


class ResultCache(ContentCache):
    """An LRU map from scenario keys to result-value dicts.

    With ``path`` set, results persist to a JSONL log and survive
    process restarts (see :mod:`repro.compilecache` for the format and
    :meth:`~repro.compilecache.ContentCache.compact` for log hygiene).
    """

    def __init__(self, maxsize: int = 100_000,
                 path: Optional[str] = None):
        # The shared "engine.results" instrument name: every ResultCache
        # instance feeds the same telemetry counters, like a region.
        super().__init__(maxsize=maxsize, path=path, name="engine.results")

    def get(self, key: str,
            default: Any = None) -> Optional[Dict[str, Any]]:
        """The cached values for ``key``, or ``default`` (counts hit/miss).

        Returns a copy, so callers mutating the result dict cannot
        corrupt the cached entry.
        """
        values = super().get(key)
        if values is None:
            return default
        return dict(values)

    def put(self, key: str, values: Dict[str, Any]) -> None:
        """Store a copy of ``values``, evicting the LRU entry if full."""
        super().put(key, dict(values))
