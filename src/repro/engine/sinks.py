"""Pluggable result sinks for streaming sweep execution.

:func:`repro.engine.run_sweep_streaming` pushes finished scenarios to
sinks **chunk by chunk, in scenario order**, so a sweep's memory
footprint is the in-flight chunks — never the whole result set.  A sink
sees three calls:

* :meth:`ResultSink.open` — once, with the :class:`ExecutionPlan` about
  to run;
* :meth:`ResultSink.write` — once per chunk, with that chunk's
  :class:`~repro.engine.results.ScenarioResult` rows in order;
* :meth:`ResultSink.close` — once, after the last chunk (also on error,
  so file handles never leak).

Shipped sinks:

=============== ====================================================== ========
sink            writes                                                 memory
=============== ====================================================== ========
:class:`MemorySink` an in-memory :class:`ResultSet` (what ``run_sweep``    O(sweep)
                returns)
:class:`JsonlSink`  one JSON object per scenario (params + seed +          O(chunk)
                values), appended line by line
:class:`CsvSink`    CSV with a header from the first chunk's columns       O(chunk)
=============== ====================================================== ========

File sinks accept a path (opened and truncated at
:meth:`~ResultSink.open`, closed at :meth:`~ResultSink.close`) or any
open text handle (left open — the caller owns it).  Both file sinks
flush per chunk, so a killed sweep's file holds every chunk written
before the one in flight.  Crash recovery belongs to
:class:`repro.store.TileSink` (columnar NumPy tiles + manifest, the
delta-sweep substrate): it lives in :mod:`repro.store`, plugs into the
same protocol, and a ``delta=True`` run finishes a killed one.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, List, Optional, Sequence

from ..errors import DomainError
from ..telemetry import metrics
from .results import ResultSet, ScenarioResult

__all__ = ["ResultSink", "MemorySink", "JsonlSink", "CsvSink"]

_M_SINK_ROWS = metrics.counter("sink.rows")
_M_SINK_BYTES = metrics.counter("sink.bytes")


class ResultSink:
    """Interface streamed results are written through."""

    def open(self, plan) -> None:
        """Called once before the first chunk with the execution plan."""

    def write(self, results: Sequence[ScenarioResult]) -> None:
        """Called once per chunk, rows in scenario order."""
        raise NotImplementedError

    def close(self) -> None:
        """Called once after the last chunk (and on error)."""


class MemorySink(ResultSink):
    """Collect every row in memory; back-end of :func:`run_sweep`."""

    def __init__(self):
        self._results: List[ScenarioResult] = []

    def write(self, results: Sequence[ScenarioResult]) -> None:
        self._results.extend(results)
        _M_SINK_ROWS.add(len(results))

    @property
    def results(self) -> List[ScenarioResult]:
        return self._results

    def result_set(self, meta: Optional[Dict[str, Any]] = None) -> ResultSet:
        """The collected rows as a :class:`ResultSet`."""
        return ResultSet(self._results, dict(meta or {}))


class _CountingWriter:
    """Wrap a text handle, counting the UTF-8 bytes pushed through it."""

    __slots__ = ("_handle", "n_bytes")

    def __init__(self, handle):
        self._handle = handle
        self.n_bytes = 0

    def write(self, text: str) -> int:
        # json.dumps/csv output is almost always pure ASCII, where the
        # character count *is* the byte count — only re-encode otherwise.
        count = len(text) if text.isascii() else len(text.encode("utf-8"))
        self.n_bytes += count
        _M_SINK_BYTES.add(count)
        return self._handle.write(text)

    def flush(self) -> None:
        flush = getattr(self._handle, "flush", None)
        if flush is not None:
            flush()


class _FileSink(ResultSink):
    """Shared path-or-handle plumbing for the file-writing sinks."""

    def __init__(self, path_or_handle):
        if path_or_handle is None:
            raise DomainError(f"{type(self).__name__} needs a path or handle")
        self._target = path_or_handle
        self._handle = None
        self._raw_handle = None
        self._owns_handle = False
        self.n_rows = 0
        self._final_bytes = 0

    @property
    def path(self) -> Optional[str]:
        """The sink's file path, or None when wrapping an open handle."""
        if hasattr(self._target, "write"):
            return None
        return str(self._target)

    @property
    def n_bytes(self) -> int:
        """UTF-8 bytes written so far (final total after ``close``)."""
        if self._handle is not None:
            return self._handle.n_bytes
        return self._final_bytes

    def open(self, plan) -> None:
        if hasattr(self._target, "write"):
            self._raw_handle = self._target
            self._owns_handle = False
        else:
            try:
                self._raw_handle = open(
                    self._target, "w", encoding="utf-8", newline=""
                )
            except OSError as exc:
                raise DomainError(
                    f"cannot open {self._target} for writing: {exc}"
                ) from exc
            self._owns_handle = True
        self._handle = _CountingWriter(self._raw_handle)

    def flush(self) -> None:
        """Push buffered output to the OS (so a killed process loses at
        most the chunk being written, never flushed ones)."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._final_bytes = self._handle.n_bytes
        if self._raw_handle is not None and self._owns_handle:
            self._raw_handle.close()
        self._handle = None
        self._raw_handle = None


class JsonlSink(_FileSink):
    """One JSON object per scenario: parameters, seed and result values.

    Rows appear in scenario order, one per line, **flushed after every
    chunk** — so a killed sweep's output ends at a chunk boundary plus
    at most one torn line.  The natural format for out-of-core
    post-processing (``jq``, pandas ``read_json(lines=True)``, another
    sweep's warm start).  The encoding is deterministic (sorted specs,
    compact separators), so sharded runs reproduce a single-process
    run byte for byte.
    """

    @staticmethod
    def encode(results: Sequence[ScenarioResult]) -> str:
        """The exact text :meth:`write` would emit for ``results``.

        Module-side encoding lets shard workers serialise their own
        chunks; the coordinator then appends the text verbatim.
        """
        if not results:
            return ""
        lines = []
        for result in results:
            row: Dict[str, Any] = dict(result.spec.params)
            if result.spec.seed is not None:
                row["seed"] = result.spec.seed
            row.update(result.values)
            lines.append(json.dumps(row, separators=(",", ":"),
                                    default=str))
        return "\n".join(lines) + "\n"

    def write(self, results: Sequence[ScenarioResult]) -> None:
        self.write_encoded(self.encode(results), len(results))

    def write_encoded(self, text: str, n_rows: int) -> None:
        """Append pre-encoded JSONL ``text`` covering ``n_rows`` rows."""
        if text:
            self._handle.write(text)
        self.flush()
        self.n_rows += n_rows
        _M_SINK_ROWS.add(n_rows)


class CsvSink(_FileSink):
    """Streaming CSV: header from the first chunk, rows as they arrive.

    A streamed CSV cannot rewrite its header, so the column layout is
    fixed by the first chunk (parameters first, then value columns).  A
    later row introducing a column outside that set would otherwise be
    silently truncated, so it raises instead — sweeps whose rows are
    genuinely heterogeneous (e.g. gridding over case files with
    different node sets) belong in :class:`JsonlSink`.  Rows *missing* a
    header column write it empty, matching ``ResultSet.to_csv``.

    Like :class:`JsonlSink`, every chunk is **flushed** when written,
    so a killed sweep's file ends at a chunk boundary plus at most one
    torn row.
    """

    def __init__(self, path_or_handle):
        super().__init__(path_or_handle)
        self._writer = None
        self._columns = None

    def open(self, plan) -> None:
        super().open(plan)
        self._writer = None
        self._columns = None

    def write(self, results: Sequence[ScenarioResult]) -> None:
        if self._writer is None:
            self._columns = frozenset(
                columns := list(ResultSet(list(results)).columns())
            )
            self._writer = csv.DictWriter(
                self._handle, fieldnames=columns, restval=""
            )
            self._writer.writeheader()
        for result in results:
            record = result.record()
            extra = set(record) - self._columns
            if extra:
                raise DomainError(
                    f"row {self.n_rows} adds columns not in the streamed "
                    f"CSV header: {', '.join(sorted(extra))}; use a "
                    f"JSONL sink for heterogeneous sweeps"
                )
            self._writer.writerow(record)
            self.n_rows += 1
        self.flush()
        _M_SINK_ROWS.add(len(results))
