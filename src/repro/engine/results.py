"""Result containers for scenario sweeps.

The executor hands sinks one :class:`Batch` per chunk: parameter
planes, seeds and declared value columns.  Rows exist only where a user
asks for them: a batch gives one :class:`ScenarioResult` per scenario —
the spec that ran plus its ``{column: value}`` dict — through
:func:`rows_of`, and :func:`repro.engine.run_sweep` collects them in a
:class:`ResultSet`, which offers tabular access: column extraction as
NumPy arrays, rendering through :func:`repro.viz.format_records`, and
CSV export.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..errors import DomainError
from .spec import ScenarioSpec

__all__ = ["Batch", "Part", "ScenarioResult", "ResultSet", "rows_of"]


def csv_text(rows) -> str:
    """``rows`` (sequences of values) as CSV text, as the ``csv`` module
    writes them."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def rows_of(columns: Mapping[str, Sequence[Any]],
            n: int) -> List[Dict[str, Any]]:
    """``n`` row dicts from equal-length columns of Python values, keys
    in column order: the one column-to-row adapter."""
    if not columns:
        return [{} for _ in range(n)]
    names = tuple(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


class Part(NamedTuple):
    """Rows of a :class:`Batch` sharing one layout: ``rows`` (a slice
    or positions), their configuration ``group``, the ``params`` they
    bind (in their own order), whether they are ``seeded``, and the
    group's declared value ``columns``."""

    rows: Union[slice, np.ndarray]
    group: int
    params: Tuple[str, ...]
    seeded: bool
    columns: Tuple[Any, ...]


class Batch:
    """One chunk of a plan in columns: what the executor hands sinks.

    ``params`` maps each parameter to its plane of the scenarios' own
    values (``tolist()`` gives them back exactly), ``seeds`` is the
    seed plane, ``parts`` the row layouts and ``values`` every value
    column of the plan in its declared dtype (nodata where a row has
    none).  The rows are the plan's scenarios ``[start, stop)``;
    iterating a batch gives them as :class:`ScenarioResult` s.
    """

    def __init__(self, pipeline: str, start: int, stop: int,
                 params: Dict[str, np.ndarray], seeds: np.ndarray,
                 parts: List[Part]):
        self.pipeline, self.start, self.stop = pipeline, start, stop
        self.params, self.seeds, self.parts = params, seeds, parts
        self.values: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self) -> Iterator["ScenarioResult"]:
        return iter(self.results())

    def positions(self, part: Part) -> List[int]:
        return np.arange(len(self))[part.rows].tolist()

    def _rows(self, columns_of) -> List[Dict[str, Any]]:
        """Rows, in batch order, of each part's ``columns_of(part)``."""
        rows: List[Dict[str, Any]] = [{}] * len(self)
        for part in self.parts:
            positions = self.positions(part)
            for position, row in zip(positions, rows_of(columns_of(part),
                                                        len(positions))):
                rows[position] = row
        return rows

    def specs(self) -> List[ScenarioSpec]:
        """The rows' scenarios."""
        params = self._rows(lambda part: {
            name: self.params[name][part.rows].tolist()
            for name in part.params
        })
        return [ScenarioSpec(self.pipeline, bound, seed=seed)
                for bound, seed in zip(params, self.seeds.tolist())]

    def results(self) -> List["ScenarioResult"]:
        """The rows as :class:`ScenarioResult` s."""
        values = self._rows(lambda part: {
            column.name: column.to_rows(self.values[column.name][part.rows])
            for column in part.columns
        })
        return [ScenarioResult(spec, row)
                for spec, row in zip(self.specs(), values)]


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's spec and the values its pipeline produced."""

    spec: ScenarioSpec
    values: Mapping[str, Any]

    def record(self) -> Dict[str, Any]:
        """Parameters and values merged into one flat row."""
        return {**dict(self.spec.params), **dict(self.values)}


@dataclass(frozen=True)
class ResultSet:
    """An ordered collection of scenario results with tabular export."""

    results: Sequence[ScenarioResult]
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> ScenarioResult:
        return self.results[index]

    # ------------------------------------------------------------------ #
    # Columnar access
    # ------------------------------------------------------------------ #

    def columns(self) -> List[str]:
        """Union of parameter and value names, parameters first."""
        params = dict.fromkeys(
            name for result in self.results for name in result.spec.params
        )
        values = dict.fromkeys(
            name for result in self.results for name in result.values
            if name not in params
        )
        return [*params, *values]

    def records(self) -> List[Dict[str, Any]]:
        return [result.record() for result in self.results]

    def values(self, column: str) -> np.ndarray:
        """One column across the sweep as a float array."""
        rows = self.records()
        if not rows:
            return np.empty(0, dtype=float)
        if not any(column in row for row in rows):
            raise DomainError(
                f"unknown column {column!r}; available: "
                f"{', '.join(self.columns())}"
            )
        # A missing or None cell reads as NaN, which best() skips.
        return np.asarray(
            [np.nan if row.get(column) is None else float(row[column])
             for row in rows],
            dtype=float,
        )

    def best(self, column: str, maximise: bool = True) -> ScenarioResult:
        """The scenario extremising a value column."""
        if not self.results:
            raise DomainError("cannot take the best of an empty result set")
        series = self.values(column)
        index = int(np.nanargmax(series) if maximise else np.nanargmin(series))
        return self.results[index]

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_table(self, columns: Optional[Sequence[str]] = None,
                 limit: Optional[int] = None) -> str:
        """Render as an aligned text table (see :mod:`repro.viz.tables`)."""
        from ..viz import format_records

        if not self.results:
            return "(empty sweep: 0 scenarios)"
        records = self.records()
        if limit is not None:
            records = records[: max(limit, 0)]
        return format_records(records, columns=columns or self.columns())

    def to_csv(self, path_or_buffer=None) -> Optional[str]:
        """Write CSV; returns the text when no path/buffer is given."""
        columns = self.columns()
        text = csv_text([columns, *([record.get(name, "") for name in columns]
                                    for record in self.records())])
        if path_or_buffer is None:
            return text
        if hasattr(path_or_buffer, "write"):
            path_or_buffer.write(text)
            return None
        with open(path_or_buffer, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return None

    def summary(self) -> str:
        """One-line account of the run for logs and the CLI."""
        meta = dict(self.meta)
        bits = [f"{len(self.results)} scenarios"]
        if "pipeline" in meta:
            bits.append(f"pipeline={meta['pipeline']}")
        if "backend" in meta:
            bits.append(f"backend={meta['backend']}")
        if "elapsed_s" in meta:
            bits.append(f"{meta['elapsed_s']:.3f}s")
        return ", ".join(bits)
