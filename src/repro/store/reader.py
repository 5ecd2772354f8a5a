"""Tile store reader: slice queries without re-running anything.

:class:`TileStore` opens a finished store directory and answers
"confidence vs sigma at fixed demands"-style questions straight from
the tiles: :meth:`~TileStore.slice` fixes any subset of axes to exact
grid values, intersects the fixed coordinates against the tile layout,
loads only the intersecting blobs, and assembles output arrays shaped
to the remaining axes.  No :class:`~repro.engine.plan.ExecutionPlan`
chunk is ever executed — the P13 gate verifies the engine's chunk
counter stays flat across a query.

Columns come back in the dtype their pipeline declared; where a row
held ``None`` the arrays hold the column's declared nodata value, and
:meth:`StoreSlice.records` maps it back to ``None``.

Decoded blobs are memoised in the ``"store.tiles"`` compile-cache
region keyed by their content hash, so repeated queries against the
same store (a plotting session, a service endpoint) hit memory, not
disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..compilecache import region
from ..engine.pipelines import Column
from ..engine.results import rows_of
from ..errors import DomainError
from ..telemetry import metrics, tracer
from .format import (
    TILES_DIR,
    decode_blob,
    nodata_of,
    read_manifest,
    tile_dirname,
)

__all__ = ["TileStore", "StoreSlice"]

_M_TILES_READ = metrics.counter("store.tiles_read")
_M_BYTES_READ = metrics.counter("store.bytes_read")


@dataclass
class StoreSlice:
    """One slice query's result: remaining axes plus column arrays
    (``nodata``: each column's declared nodata value, or None)."""

    axes: List[Tuple[str, List[Any]]]
    fixed: Dict[str, Any]
    data: Dict[str, np.ndarray] = field(default_factory=dict)
    nodata: Dict[str, Any] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(values) for _name, values in self.axes)

    @property
    def columns(self) -> List[str]:
        return list(self.data)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.data[name]
        except KeyError:
            raise DomainError(
                f"slice has no column {name!r}; available: "
                f"{sorted(self.data)}"
            ) from None

    def records(self) -> Iterator[Dict[str, Any]]:
        """Rows (params + values) in scenario order, nodata as ``None``:
        the values the sweep's rows carried."""
        n = (int(np.prod(self.shape)) if self.axes or not self.data
             else next(iter(self.data.values())).size)
        index = np.arange(n)
        columns: Dict[str, List[Any]] = {
            name: [value] * n for name, value in self.fixed.items()
        }
        stride = n
        for name, values in self.axes:
            stride //= len(values)
            columns[name] = np.fromiter(
                values, dtype=object, count=len(values)
            )[index // stride % len(values)].tolist()
        for name, arr in self.data.items():
            columns[name] = Column(name, str(arr.dtype),
                                   self.nodata.get(name)).to_rows(
                arr.reshape(-1))
        return iter(rows_of(columns, n))


class TileStore:
    """Read-only view over a finished tile store directory."""

    def __init__(self, path: str, manifest: Dict[str, Any]):
        self._path = str(path)
        self._manifest = manifest
        self._axes: List[Tuple[str, List[Any]]] = [
            (name, list(values)) for name, values in manifest["axes"]
        ]
        self._columns: Dict[str, str] = {
            meta["name"]: meta["dtype"] for meta in manifest["columns"]
        }
        self._nodata: Dict[str, Any] = {
            meta["name"]: nodata_of(meta) for meta in manifest["columns"]
        }
        self._layout = manifest["layout"]
        self._tiles: List[Dict[str, Any]] = manifest["tiles"]
        self._cache = region("store.tiles", maxsize=256)

    @classmethod
    def open(cls, path: str) -> "TileStore":
        """Open ``path``; raises :class:`DomainError` if it is not a
        complete store (interrupted runs leave no manifest)."""
        return cls(path, read_manifest(path))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def path(self) -> str:
        return self._path

    @property
    def axes(self) -> List[Tuple[str, List[Any]]]:
        return [(name, list(values)) for name, values in self._axes]

    @property
    def axis_names(self) -> List[str]:
        return [name for name, _values in self._axes]

    @property
    def columns(self) -> Dict[str, str]:
        """Column name -> declared dtype string."""
        return dict(self._columns)

    @property
    def n_scenarios(self) -> int:
        return self._manifest["n_scenarios"]

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        return tuple(self._layout["grid_shape"])

    @property
    def tile_shape(self) -> Tuple[int, ...]:
        return tuple(self._layout["tile_shape"])

    @property
    def n_tiles(self) -> int:
        return len(self._tiles)

    @property
    def plan_fingerprint(self) -> str:
        return self._manifest["plan_fingerprint"]

    @property
    def store_fingerprint(self) -> str:
        return self._manifest["store_fingerprint"]

    @property
    def pipeline(self) -> str:
        return self._manifest["pipeline"]

    @property
    def manifest(self) -> Dict[str, Any]:
        return self._manifest

    def stats(self) -> Dict[str, Any]:
        """Aggregate store statistics (what the CLI ``store stats`` prints)."""
        per_column: Dict[str, int] = {name: 0 for name in self._columns}
        total = 0
        for record in self._tiles:
            for name, col in record["columns"].items():
                per_column[name] = per_column.get(name, 0) + col["bytes"]
                total += col["bytes"]
        return {
            "path": self._path,
            "pipeline": self.pipeline,
            "n_scenarios": self.n_scenarios,
            "n_tiles": self.n_tiles,
            "grid_shape": list(self.grid_shape),
            "tile_shape": list(self.tile_shape),
            "axes": [[name, len(values)] for name, values in self._axes],
            "columns": {
                name: {"dtype": dtype, "bytes": per_column.get(name, 0)}
                for name, dtype in self._columns.items()
            },
            "bytes": total,
            "plan_fingerprint": self.plan_fingerprint,
            "store_fingerprint": self.store_fingerprint,
        }

    # ------------------------------------------------------------------ #
    # Blob access
    # ------------------------------------------------------------------ #

    def _load(self, record: Dict[str, Any], name: str) -> np.ndarray:
        col = record["columns"][name]
        cached = self._cache.get(col["sha256"])
        if cached is not None:
            return cached
        path = os.path.join(
            self._path, TILES_DIR, tile_dirname(record["index"]),
            col["file"],
        )
        try:
            arr = decode_blob(path)
        except (OSError, ValueError) as exc:
            raise DomainError(
                f"tile blob {path!r} unreadable ({exc}); the store may "
                f"have been interrupted — re-run the sweep"
            ) from None
        _M_TILES_READ.add()
        _M_BYTES_READ.add(col["bytes"])
        self._cache.put(col["sha256"], arr)
        return arr

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _axis_index(self, name: str) -> int:
        for i, (axis, _values) in enumerate(self._axes):
            if axis == name:
                return i
        raise DomainError(
            f"store has no axis {name!r}; axes: {self.axis_names}"
        )

    def _value_index(self, axis: int, value: Any) -> int:
        name, values = self._axes[axis]
        for i, candidate in enumerate(values):
            if candidate == value or (
                isinstance(candidate, (int, float))
                and isinstance(value, (int, float))
                and float(candidate) == float(value)
            ):
                return i
        preview = values if len(values) <= 8 else (
            values[:8] + ["..."]
        )
        raise DomainError(
            f"axis {name!r} has no value {value!r}; values: {preview}"
        )

    def slice(
        self,
        columns: Optional[Sequence[str]] = None,
        **fixed: Any,
    ) -> StoreSlice:
        """Columns over the sub-grid where each ``fixed`` axis equals
        the given grid value; remaining axes keep store order."""
        if columns is None:
            names = list(self._columns)
        else:
            names = list(columns)
            unknown = sorted(set(names) - set(self._columns))
            if unknown:
                raise DomainError(
                    f"unknown columns {unknown}; store has "
                    f"{sorted(self._columns)}"
                )
        if fixed and not self._axes:
            raise DomainError(
                "this store has no parameter axes to fix (explicit "
                "scenario sweep); call slice() without axis arguments"
            )
        pinned: Dict[int, int] = {}
        for axis_name, value in fixed.items():
            axis = self._axis_index(axis_name)
            pinned[axis] = self._value_index(axis, value)
        free = [i for i in range(len(self._axes)) if i not in pinned]
        out_axes = [
            (self._axes[i][0], list(self._axes[i][1])) for i in free
        ]
        out_shape = tuple(len(self._axes[i][1]) for i in free)
        if not self._axes:
            out_shape = (self.n_scenarios,)
        data = {
            name: np.empty(out_shape, dtype=np.dtype(self._columns[name]))
            for name in names
        }
        with tracer.span("store.slice") as span:
            hits = 0
            for record in self._tiles:
                offsets = record["offsets"] or [record["start"]]
                shape = record["shape"] or [record["rows"]]
                skip = False
                for axis, value_index in pinned.items():
                    if not (offsets[axis] <= value_index
                            < offsets[axis] + shape[axis]):
                        skip = True
                        break
                if skip:
                    continue
                hits += 1
                indexer = tuple(
                    (pinned[axis] - offsets[axis]) if axis in pinned
                    else slice(None)
                    for axis in range(len(offsets))
                )
                placer = tuple(
                    slice(offsets[i], offsets[i] + shape[i]) for i in free
                ) if self._axes else (
                    slice(record["start"], record["stop"]),
                )
                for name in names:
                    arr = self._load(record, name).reshape(shape)
                    data[name][placer] = arr[indexer]
            span.set(tiles=hits, columns=len(names))
        return StoreSlice(
            axes=out_axes,
            fixed=dict(fixed),
            data=data,
            nodata={name: self._nodata[name] for name in names},
        )

    def column(self, name: str) -> np.ndarray:
        """One column over the whole grid (shaped to the grid)."""
        return self.slice(columns=[name]).data[name]
