"""Tile store writer: the ``TileWriter`` core and the ``TileSink``.

:class:`TileWriter` owns the on-disk store during one run — it encodes
tiles to ``.npy`` blobs named by their content (each distinct blob
written once per run), journals each tile as it commits, accounts
bytes, and finalises the manifest (removing the journal and pruning
every blob no record of the new generation references).  Its columns
are the plan's declared schema
(:attr:`~repro.engine.plan.ExecutionPlan.column_sets`): every tile
stores each column in its declared dtype with ``None`` as the declared
nodata value, and the manifest records both.  A plan whose
configuration groups declare different column sets is refused before
the writer touches the directory.  A run killed before
:meth:`TileWriter.finalise` leaves no manifest, so readers refuse the
directory, but its journal names every committed tile, so
``delta=True`` finishes the run.  Both entry points share the writer:

* :class:`TileSink` adapts it to the streaming executor's
  :class:`~repro.engine.sinks.ResultSink` protocol, cutting tiles as
  slices of the ordered batches' value columns, with at most one tile's
  rows held over between chunks.  Sinks live in the executor's process
  (shard workers only compute columns), so sharded sweeps write tile
  stores unchanged.
* the delta executor (:mod:`repro.store.delta`) starts a generation
  with :meth:`TileSink.begin`, adopts the previous generation's
  matching tile records through the writer (no blob is copied or
  renamed), and runs the remaining tiles as a window through the
  ordinary executor into the same sink.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Set, Union

import numpy as np

from ..errors import DomainError
from ..engine.plan import ExecutionPlan, PlanWindow
from ..engine.results import Batch
from ..engine.sinks import ResultSink
from ..telemetry import metrics, tracer
from .format import (
    MANIFEST_NAME,
    STORE_FORMAT,
    STORE_VERSION,
    TILES_DIR,
    append_journal,
    blob_path,
    column_record,
    encode_blob,
    journal_path,
    write_atomic,
    write_manifest,
)
from .layout import Tile, TileLayout

__all__ = ["TileSink", "TileWriter"]

_M_TILES_WRITTEN = metrics.counter("store.tiles_written")
_M_TILES_SKIPPED = metrics.counter("store.tiles_skipped")
_M_TILES_MOVED = metrics.counter("store.tiles_moved")
_M_ROWS_WRITTEN = metrics.counter("store.rows_written")
_M_BYTES_WRITTEN = metrics.counter("store.bytes_written")
_M_BYTES_REUSED = metrics.counter("store.bytes_reused")


class TileWriter:
    """Writes one store generation: tiles in, manifest out.

    The journal starts empty; each tile's record is appended once its
    blobs are in place (:meth:`write_tile` does so itself; callers of
    :meth:`reuse_tile` pass its records to
    :func:`~repro.store.format.append_journal`).  Every blob this
    generation holds — written by :meth:`write_tile` or adopted by
    :meth:`reuse_tile` — is written at most once per run.
    """

    def __init__(self, path: str, layout: TileLayout):
        self._path = str(path)
        self._layout = layout
        self._plan = layout.plan
        schemas = {tuple(sorted(schema, key=lambda column: column.name))
                   for schema in self._plan.column_sets}
        if len(schemas) > 1:
            sets = [{column.name for column in schema} for schema in schemas]
            differ = sorted(set.union(*sets) - set.intersection(*sets))
            raise DomainError(
                f"cannot write a tile store at {self._path!r}: the sweep's "
                f"configuration groups declare different value columns "
                f"({', '.join(differ)}); split the sweep, or stream it to "
                f"JSONL or CSV"
            )
        self._columns = next(iter(schemas), ())
        self._records: Dict[int, Dict[str, Any]] = {}
        # sha256 of every blob in place for this generation.
        self._blobs: Set[str] = set()
        self.tiles_written = 0
        self.tiles_skipped = 0
        self.tiles_moved = 0
        self.rows_written = 0
        self.bytes_written = 0
        self.bytes_reused = 0
        try:
            os.makedirs(os.path.join(self._path, TILES_DIR), exist_ok=True)
            open(journal_path(self._path), "w").close()
        except OSError as exc:
            raise DomainError(
                f"cannot write a tile store at {self._path!r}: {exc}"
            ) from None

    @property
    def path(self) -> str:
        return self._path

    @property
    def layout(self) -> TileLayout:
        return self._layout

    # ------------------------------------------------------------------ #
    # Tile ingestion
    # ------------------------------------------------------------------ #

    def write_tile(
        self, tile: Tile, values: Dict[str, np.ndarray]
    ) -> Dict[str, Any]:
        """Encode and persist one executed tile from its value columns
        (declared dtypes, nodata in place); returns its record."""
        n_rows = len(next(iter(values.values()), ()))
        if n_rows != tile.n_scenarios:
            raise DomainError(
                f"tile {tile.index} expects {tile.n_scenarios} rows, "
                f"got {n_rows}"
            )
        columns: Dict[str, Any] = {}
        with tracer.span("store.write_tile") as span:
            for column in self._columns:
                name = column.name
                arr = np.ascontiguousarray(values[name], dtype=column.dtype)
                if not self._layout.linear:
                    arr = arr.reshape(tile.shape)
                data, sha = encode_blob(arr)
                if sha not in self._blobs:
                    path = blob_path(self._path, sha)
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    write_atomic(path, data)
                    self._blobs.add(sha)
                    self.bytes_written += len(data)
                    _M_BYTES_WRITTEN.add(len(data))
                columns[name] = {
                    "dtype": str(arr.dtype),
                    "bytes": len(data),
                    "sha256": sha,
                }
            span.set(tile=tile.index, rows=n_rows)
        record = self._record(tile, self._layout.fingerprint(tile), columns)
        self._records[tile.index] = record
        append_journal(self._path, [record])
        self.tiles_written += 1
        self.rows_written += n_rows
        _M_TILES_WRITTEN.add()
        _M_ROWS_WRITTEN.add(n_rows)
        return record

    def reuse_tile(
        self, tile: Tile, fingerprint: str, old_record: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Adopt a previous generation's record of ``fingerprint`` for
        ``tile``: ``skipped`` when it was stored at the same index,
        ``moved`` when at another (e.g. after an axis grew).  Either way
        no file is written: the record's blobs are named by content, so
        the new record points at the same files.

        Returns the new record, or raises :class:`DomainError` if the
        old record's columns or dtypes differ from the declared schema,
        or a blob is missing or its size disagrees with the old record
        — callers treat that as "execute the tile instead" (which
        rewrites the blob).  The record is not journaled: pass it to
        :func:`~repro.store.format.append_journal`.
        """
        declared = {column.name: column.dtype for column in self._columns}
        if {name: col["dtype"] for name, col in
                old_record["columns"].items()} != declared:
            raise DomainError(
                f"tile {tile.index} was stored with other columns or "
                f"dtypes than the pipeline declares; re-executing"
            )
        columns: Dict[str, Any] = {}
        for name in declared:
            old_col = old_record["columns"][name]
            path = blob_path(self._path, old_col["sha256"])
            try:
                size = os.path.getsize(path)
            except OSError:
                raise DomainError(
                    f"tile blob {path!r} disappeared; re-executing"
                ) from None
            if size != old_col["bytes"]:
                raise DomainError(
                    f"tile blob {path!r} is {size} bytes, manifest "
                    f"recorded {old_col['bytes']}; re-executing"
                )
            columns[name] = {key: old_col[key]
                             for key in ("dtype", "bytes", "sha256")}
        record = self._record(tile, fingerprint, columns)
        self._records[tile.index] = record
        self._blobs.update(col["sha256"] for col in columns.values())
        reused = sum(col["bytes"] for col in columns.values())
        self.bytes_reused += reused
        _M_BYTES_REUSED.add(reused)
        if old_record["index"] == tile.index:
            self.tiles_skipped += 1
            _M_TILES_SKIPPED.add()
        else:
            self.tiles_moved += 1
            _M_TILES_MOVED.add()
        return record

    def _record(
        self, tile: Tile, fingerprint: str, columns: Dict[str, Any]
    ) -> Dict[str, Any]:
        return {
            "index": tile.index,
            "offsets": list(tile.offsets),
            "shape": list(tile.shape),
            "start": tile.start,
            "stop": tile.stop,
            "rows": tile.n_scenarios,
            "fingerprint": fingerprint,
            "columns": columns,
        }

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #

    def finalise(self) -> Dict[str, Any]:
        """Write the manifest, remove the journal, prune unreferenced
        blobs.

        Requires every tile of the layout to have been written or
        reused; a partial store never gets a manifest (readers refuse
        directories without one, so torn runs fail loudly).
        """
        layout = self._layout
        missing = [
            index for index in range(layout.n_tiles)
            if index not in self._records
        ]
        if missing:
            raise DomainError(
                f"store at {self._path!r} is missing "
                f"{len(missing)}/{layout.n_tiles} tiles "
                f"(first: {missing[:5]}); refusing to write a manifest"
            )
        plan = self._plan
        records = [self._records[index] for index in range(layout.n_tiles)]
        column_meta = [column_record(column) for column in self._columns]
        store_fp = hashlib.sha256(
            "".join(record["fingerprint"] for record in records)
            .encode("utf-8")
        ).hexdigest()
        manifest: Dict[str, Any] = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "pipeline": plan.pipeline_name,
            "base": dict(plan._base),
            "axes": [
                [name, list(values)] for name, values in plan.axis_items
            ],
            "master_seed": plan.master_seed,
            "n_scenarios": plan.n_scenarios,
            "plan_fingerprint": plan.fingerprint(),
            "store_fingerprint": store_fp,
            "layout": layout.describe(),
            "columns": column_meta,
            "tiles": records,
        }
        with tracer.span("store.finalise") as span:
            write_manifest(self._path, manifest)
            os.remove(journal_path(self._path))
            self._prune(records)
            span.set(tiles=len(records), bytes=self.bytes_written)
        return manifest

    def _prune(self, records: List[Dict[str, Any]]) -> None:
        """Best-effort removal of every file under ``tiles/`` that no
        record references (older generations, older store versions,
        torn temp files), and of the directories that leaves empty."""
        keep = {blob_path(self._path, col["sha256"])
                for record in records for col in record["columns"].values()}
        tiles_root = os.path.join(self._path, TILES_DIR)
        for root, _dirs, files in os.walk(tiles_root, topdown=False):
            for name in files:
                path = os.path.join(root, name)
                if path not in keep:
                    try:
                        os.remove(path)
                    except OSError:
                        pass
            if root != tiles_root:
                try:
                    os.rmdir(root)
                except OSError:
                    pass


class TileSink(ResultSink):
    """A :class:`~repro.engine.sinks.ResultSink` writing a tile store.

    ``path`` is the store directory (created if needed; a previous
    manifest there is replaced only when this run completes).  The
    plan's configuration groups must declare one column set: anything
    else is refused before the directory is touched.  Tile
    granularity comes from ``tile_scenarios`` (a target scenario count
    per tile, default ``16384``) or an explicit ``tile_shape`` (per-axis
    block sizes in pivot form — see :mod:`repro.store.layout`).

    Batches arrive in scenario order (the executor guarantees it,
    sharded or not); each tile is a slice of their value columns, so the
    sink holds at most one tile plus one chunk of values in memory
    before flushing blobs to disk.  The manifest is written by
    :meth:`close` only after the final tile — an interrupted run leaves
    blobs and a journal of its committed tiles but no manifest: readers
    refuse it, a ``delta=True`` run executes only the uncommitted
    tiles, and a full run starts afresh.
    """

    def __init__(
        self,
        path: str,
        tile_scenarios: Optional[int] = None,
        tile_shape: Optional[Union[Sequence[int], Dict[str, int]]] = None,
    ):
        self._path = str(path)
        self._tile_scenarios = tile_scenarios
        self._tile_shape = tile_shape
        self._writer: Optional[TileWriter] = None
        self._layout: Optional[TileLayout] = None
        self._begun: Optional[ExecutionPlan] = None
        self._tiles: deque = deque()
        # Value columns of rows not yet in a tile.
        self._held: Optional[Dict[str, np.ndarray]] = None
        self._manifest: Optional[Dict[str, Any]] = None

    @property
    def path(self) -> str:
        return self._path

    @property
    def tile_scenarios(self) -> Optional[int]:
        return self._tile_scenarios

    @property
    def tile_shape(self):
        return self._tile_shape

    @property
    def writer(self) -> Optional[TileWriter]:
        return self._writer

    @property
    def manifest(self) -> Optional[Dict[str, Any]]:
        """The manifest written by :meth:`close` (None if incomplete)."""
        return self._manifest

    def begin(self, plan: ExecutionPlan) -> TileWriter:
        """Start a new store generation of ``plan``; returns its writer.

        Opening the sink with a whole plan does this.  A delta calls it
        first, reuses the previous generation's tiles through the
        writer, and then opens the sink with the window of the tiles
        left to execute, which continues this generation.
        """
        self._layout = TileLayout(
            plan,
            tile_scenarios=self._tile_scenarios,
            tile_shape=self._tile_shape,
        )
        self._writer = TileWriter(self._path, self._layout)
        self._manifest = None
        self._begun = plan
        # A stale manifest must not survive into a half-written store.
        try:
            os.remove(os.path.join(self._path, MANIFEST_NAME))
        except OSError:
            pass
        return self._writer

    def open(self, plan) -> None:
        window = plan if isinstance(plan, PlanWindow) else plan.window()
        if self._begun is not window.plan:
            if window.n_scenarios != window.plan.n_scenarios:
                raise DomainError(
                    "TileSink needs the whole plan: a window only "
                    "continues the store generation begin() started "
                    "for its plan"
                )
            self.begin(window.plan)
        self._begun = None
        self._tiles = deque(self._window_tiles(window))
        self._held = None

    def _window_tiles(self, window: PlanWindow) -> List[Tile]:
        """The tiles ``window`` covers, in order; its ranges must be
        made of whole tiles."""
        assert self._layout is not None
        tiles = [
            tile for tile in self._layout.tiles()
            if any(start <= tile.start and tile.stop <= stop
                   for start, stop in window.ranges)
        ]
        if sum(tile.n_scenarios for tile in tiles) != window.n_scenarios:
            raise DomainError(
                f"window {list(window.ranges)} does not consist of whole "
                f"tiles of this store's layout"
            )
        return tiles

    def write(self, batch: Batch) -> None:
        if self._writer is None:
            raise DomainError("TileSink.write() before open()")
        values, n_rows = batch.values, len(batch)
        if self._held is not None:
            values = {name: np.concatenate([self._held[name], column])
                      for name, column in values.items()}
            n_rows += len(next(iter(self._held.values())))
        start = 0
        while self._tiles and n_rows - start >= self._tiles[0].n_scenarios:
            # Popped once written: after a failed write, close() sees
            # the tile pending and writes no manifest.
            stop = start + self._tiles[0].n_scenarios
            self._writer.write_tile(self._tiles[0], {
                name: column[start:stop] for name, column in values.items()
            })
            self._tiles.popleft()
            start = stop
        self._held = ({name: column[start:]
                       for name, column in values.items()}
                      if start < n_rows else None)

    def close(self) -> None:
        if (self._writer is not None and self._manifest is None
                and not self._tiles and self._held is None):
            self._manifest = self._writer.finalise()
