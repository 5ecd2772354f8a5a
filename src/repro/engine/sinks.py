"""Pluggable result sinks for streaming sweep execution.

:func:`repro.engine.run_sweep_streaming` pushes finished scenarios to
sinks **chunk by chunk, in scenario order**, so a sweep's memory
footprint is the in-flight chunks — never the whole result set.  A sink
sees three calls:

* :meth:`ResultSink.open` — once, with the :class:`ExecutionPlan` about
  to run (or a :class:`PlanWindow` of it), which already knows the
  rows' parameter names and declared value columns;
* :meth:`ResultSink.write` — once per chunk, with that chunk's
  :class:`~repro.engine.results.Batch`: its parameter planes, seeds and
  declared value columns as arrays, rows in scenario order (a sink that
  wants rows iterates the batch, which yields
  :class:`~repro.engine.results.ScenarioResult` s);
* :meth:`ResultSink.close` — once, after the last chunk (also on error,
  so file handles never leak).

Shipped sinks:

=============== ====================================================== ========
sink            writes                                                 memory
=============== ====================================================== ========
:class:`MemorySink` an in-memory :class:`ResultSet` (what ``run_sweep``    O(sweep)
                returns); the only shipped sink that builds rows
:class:`JsonlSink`  one JSON object per scenario (params + seed +          O(chunk)
                values), formatted column by column
:class:`CsvSink`    CSV with a header from the plan: parameters, then      O(chunk)
                every configuration group's declared columns
=============== ====================================================== ========

File sinks accept a path (opened and truncated at
:meth:`~ResultSink.open`, closed at :meth:`~ResultSink.close`) or any
open text handle (left open — the caller owns it).  Both file sinks
format each column of a batch once and flush per chunk, so a killed
sweep's file holds every chunk written before the one in flight; their
bytes equal encoding each row on its own (``json.dumps`` with compact
separators, the ``csv`` module).  Crash recovery belongs to
:class:`repro.store.TileSink` (columnar NumPy tiles + manifest, the
delta-sweep substrate): it lives in :mod:`repro.store`, plugs into the
same protocol, and a ``delta=True`` run finishes a killed one.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import DomainError
from ..telemetry import metrics
from .plan import PlanWindow
from .results import Batch, ResultSet, ScenarioResult, csv_text

__all__ = ["ResultSink", "MemorySink", "JsonlSink", "CsvSink"]

_M_SINK_ROWS = metrics.counter("sink.rows")
_M_SINK_BYTES = metrics.counter("sink.bytes")


class ResultSink:
    """Interface streamed results are written through."""

    def open(self, plan) -> None:
        """Called once before the first chunk with the execution plan."""

    def write(self, batch: Batch) -> None:
        """Called once per chunk, rows in scenario order."""
        raise NotImplementedError

    def close(self) -> None:
        """Called once after the last chunk (and on error)."""


class MemorySink(ResultSink):
    """Collect every row in memory; back-end of :func:`run_sweep`."""

    def __init__(self):
        self._results: List[ScenarioResult] = []

    def write(self, batch: Batch) -> None:
        self._results.extend(batch)
        _M_SINK_ROWS.add(len(batch))

    @property
    def results(self) -> List[ScenarioResult]:
        return self._results

    def result_set(self, meta: Optional[Dict[str, Any]] = None) -> ResultSet:
        """The collected rows as a :class:`ResultSet`."""
        return ResultSet(self._results, dict(meta or {}))


class _FileSink(ResultSink):
    """Shared path-or-handle plumbing for the file-writing sinks."""

    def __init__(self, path_or_handle):
        if path_or_handle is None:
            raise DomainError(f"{type(self).__name__} needs a path or handle")
        self._target = path_or_handle
        self._handle = None
        self._owns_handle = False
        self.n_rows = 0
        #: UTF-8 bytes written since :meth:`open`.
        self.n_bytes = 0

    @property
    def path(self) -> Optional[str]:
        """The sink's file path, or None when wrapping an open handle."""
        if hasattr(self._target, "write"):
            return None
        return str(self._target)

    def open(self, plan) -> None:
        self.n_bytes = 0
        if hasattr(self._target, "write"):
            self._handle, self._owns_handle = self._target, False
            return
        try:
            self._handle = open(self._target, "w", encoding="utf-8",
                                newline="")
        except OSError as exc:
            raise DomainError(
                f"cannot open {self._target} for writing: {exc}"
            ) from exc
        self._owns_handle = True

    def _write(self, text: str, n_rows: int) -> None:
        """Append ``text`` holding ``n_rows`` rows and flush it, so a
        killed process loses at most the chunk being written."""
        self._handle.write(text)
        # Almost always ASCII, where characters *are* bytes.
        count = len(text) if text.isascii() else len(text.encode("utf-8"))
        self.n_bytes += count
        _M_SINK_BYTES.add(count)
        flush = getattr(self._handle, "flush", None)
        if flush is not None:
            flush()
        self.n_rows += n_rows
        _M_SINK_ROWS.add(n_rows)

    def close(self) -> None:
        if self._handle is not None and self._owns_handle:
            self._handle.close()
        self._handle = None


def _json(array: np.ndarray, nodata: Any = None) -> List[str]:
    """A column's values as ``json.dumps`` spells them, nodata as
    ``null``; each distinct value is spelt once."""
    if array.dtype.kind not in "fi":
        spelt: Dict[tuple, str] = {}
        return [spelt.get((type(value), value))
                or spelt.setdefault((type(value), value),
                                    json.dumps(value, default=str))
                for value in array.tolist()]
    # Distinct bit patterns, so that -0.0 stays apart from 0.0.
    bits, inverse = np.unique(array.view(f"i{array.itemsize}"),
                              return_inverse=True)
    values = bits.view(array.dtype)
    words = list(map(repr, values.tolist()))
    for index in np.flatnonzero(~np.isfinite(values)).tolist():
        words[index] = json.dumps(values[index].item())  # NaN, Infinity
    if nodata is not None:
        missing = values != values if nodata != nodata else values == nodata
        for index in np.flatnonzero(missing).tolist():
            words[index] = "null"
    return np.array(words, dtype=object)[inverse].tolist()


class JsonlSink(_FileSink):
    """One JSON object per scenario: parameters, seed and result values.

    Rows appear in scenario order, one per line, **flushed after every
    chunk** — so a killed sweep's output ends at a chunk boundary plus
    at most one torn line.  The natural format for out-of-core
    post-processing (``jq``, pandas ``read_json(lines=True)``, another
    sweep's warm start).  Each line is ``json.dumps(row, separators=(",",
    ":"), default=str)`` of the row's own parameters, its ``seed`` when
    set, then its values — built column by column through one template
    per row layout, so sharded runs reproduce a single-process run byte
    for byte.
    """

    def write(self, batch: Batch) -> None:
        lines = [""] * len(batch)
        for part in batch.parts:
            fields = {name: _json(batch.params[name][part.rows])
                      for name in part.params}
            if part.seeded:
                fields["seed"] = _json(batch.seeds[part.rows])
            for column in part.columns:
                fields[column.name] = _json(
                    batch.values[column.name][part.rows], column.nodata
                )
            template = "{{%s}}\n" % ",".join(
                json.dumps(name).replace("{", "{{").replace("}", "}}")
                + ":{}" for name in fields
            )
            for position, line in zip(batch.positions(part),
                                      map(template.format, *fields.values())):
                lines[position] = line
        self._write("".join(lines), len(batch))


class CsvSink(_FileSink):
    """Streaming CSV with its header taken from the plan at :meth:`open`.

    The header lists the rows' parameters, then the union of the
    configuration groups' declared value columns in first-appearance
    order — exactly what ``ResultSet.to_csv`` writes for the same
    sweep, even when groups declare different columns (case files with
    different goals, say); a row without one of the columns writes it
    empty.

    Like :class:`JsonlSink`, every chunk is **flushed** when written,
    so a killed sweep's file ends at a chunk boundary plus at most one
    torn row.
    """

    def open(self, plan) -> None:
        if isinstance(plan, PlanWindow):
            plan = plan.plan
        params = plan.param_names
        self._header = [*params, *(column.name for column in plan.columns
                                   if column.name not in params)]
        super().open(plan)
        self._write(csv_text([self._header]), 0)

    def write(self, batch: Batch) -> None:
        rows: List[Any] = [None] * len(batch)
        for part in batch.parts:
            positions = batch.positions(part)
            values = {column.name: column.to_rows(
                batch.values[column.name][part.rows]
            ) for column in part.columns}
            fields = [
                values[name] if name in values
                else batch.params[name][part.rows].tolist()
                if name in part.params else [""] * len(positions)
                for name in self._header
            ]
            for position, row in zip(positions, zip(*fields)):
                rows[position] = row
        self._write(csv_text(rows), len(batch))
