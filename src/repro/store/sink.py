"""Tile store writer: the ``TileWriter`` core and the ``TileSink``.

:class:`TileWriter` owns the on-disk store during one run — it encodes
tiles to ``.npy`` blobs, accounts bytes, and finalises the manifest
(pruning any blobs a previous store version left behind).  Both entry
points share it:

* :class:`TileSink` adapts it to the streaming executor's
  :class:`~repro.engine.sinks.ResultSink` protocol, cutting tiles off
  the ordered row stream with a bounded buffer.  The coordinator opens
  sinks with the *whole* plan (shards spill, the coordinator merges in
  order), so sharded sweeps write tile stores unchanged.
* the delta executor (:mod:`repro.store.delta`) drives a writer
  directly, mixing freshly executed tiles with blobs reused from the
  previous store generation.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import DomainError
from ..engine.plan import ExecutionPlan, PlanShard
from ..engine.results import ScenarioResult
from ..engine.sinks import ResultSink
from ..telemetry import metrics, tracer
from .format import (
    MANIFEST_NAME,
    STORE_FORMAT,
    STORE_VERSION,
    TILES_DIR,
    column_array,
    column_filenames,
    encode_blob,
    tile_dirname,
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
    """Writes one store generation: tiles in, manifest out."""

    def __init__(self, path: str, layout: TileLayout):
        self._path = str(path)
        self._layout = layout
        self._plan = layout.plan
        self._columns: Optional[List[str]] = None
        self._files: Dict[str, str] = {}
        self._records: Dict[int, Dict[str, Any]] = {}
        self.tiles_written = 0
        self.tiles_skipped = 0
        self.tiles_moved = 0
        self.rows_written = 0
        self.bytes_written = 0
        self.bytes_reused = 0
        os.makedirs(os.path.join(self._path, TILES_DIR), exist_ok=True)

    @property
    def path(self) -> str:
        return self._path

    @property
    def layout(self) -> TileLayout:
        return self._layout

    def tile_dir(self, index: int) -> str:
        return os.path.join(self._path, TILES_DIR, tile_dirname(index))

    # ------------------------------------------------------------------ #
    # Column bookkeeping
    # ------------------------------------------------------------------ #

    def _bind_columns(self, names: Sequence[str]) -> None:
        ordered = sorted(names)
        if self._columns is None:
            self._columns = ordered
            self._files = column_filenames(ordered)
        elif ordered != self._columns:
            raise DomainError(
                f"tile store columns changed mid-run: expected "
                f"{self._columns}, got {ordered}; all tiles of a store "
                f"must share one column set (delete the store directory "
                f"if the pipeline's outputs changed)"
            )

    # ------------------------------------------------------------------ #
    # Tile ingestion
    # ------------------------------------------------------------------ #

    def write_tile(
        self,
        tile: Tile,
        rows: Sequence[ScenarioResult],
        fingerprint: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Encode and persist one executed tile; returns its record."""
        if len(rows) != tile.n_scenarios:
            raise DomainError(
                f"tile {tile.index} expects {tile.n_scenarios} rows, "
                f"got {len(rows)}"
            )
        if fingerprint is None:
            fingerprint = self._layout.fingerprint(tile)
        self._bind_columns(list(rows[0].values))
        assert self._columns is not None
        tile_dir = self.tile_dir(tile.index)
        os.makedirs(tile_dir, exist_ok=True)
        columns: Dict[str, Any] = {}
        with tracer.span("store.write_tile") as span:
            for name in self._columns:
                try:
                    values = [row.values[name] for row in rows]
                except KeyError:
                    raise DomainError(
                        f"tile {tile.index} row is missing column "
                        f"{name!r}; all rows of a store must share one "
                        f"column set"
                    ) from None
                arr = column_array(name, values)
                if not self._layout.linear:
                    arr = arr.reshape(tile.shape)
                data, sha = encode_blob(arr)
                filename = self._files[name]
                write_atomic(os.path.join(tile_dir, filename), data)
                columns[name] = {
                    "file": filename,
                    "dtype": str(arr.dtype),
                    "bytes": len(data),
                    "sha256": sha,
                }
                self.bytes_written += len(data)
                _M_BYTES_WRITTEN.add(len(data))
            span.set(tile=tile.index, rows=len(rows))
        record = self._record(tile, fingerprint, columns)
        self._records[tile.index] = record
        self.tiles_written += 1
        self.rows_written += len(rows)
        _M_TILES_WRITTEN.add()
        _M_ROWS_WRITTEN.add(len(rows))
        return record

    def reuse_tile(
        self,
        tile: Tile,
        fingerprint: str,
        old_record: Dict[str, Any],
        source_dir: str,
        staged: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """Adopt a previous generation's blobs for ``tile``.

        When the old blobs already sit in this tile's directory the
        adoption is free (``skipped``); otherwise they are renamed into
        place (``moved`` — the fingerprint matched at a different tile
        index, e.g. after an axis grew).  Moves must pass ``staged``:
        per-column paths of temp files the caller copied and
        content-verified *before* any destination write (a move's
        destination directory can be a later move's source, and staging
        through files keeps peak memory independent of how many tiles
        move).  Each staged file is consumed (renamed away) on use.
        Returns the new record, or raises :class:`DomainError` if a
        blob is missing or its size disagrees with the old record —
        callers treat that as "execute the tile instead".
        """
        self._bind_columns(list(old_record["columns"]))
        assert self._columns is not None
        tile_dir = self.tile_dir(tile.index)
        in_place = os.path.realpath(source_dir) == os.path.realpath(tile_dir)
        columns: Dict[str, Any] = {}
        reused = 0
        for name in self._columns:
            old_col = old_record["columns"][name]
            filename = self._files[name]
            if in_place:
                if old_col["file"] != filename:
                    raise DomainError(
                        f"tile {tile.index} blob naming changed "
                        f"({old_col['file']!r} -> {filename!r}); "
                        f"re-executing"
                    )
                src = os.path.join(source_dir, old_col["file"])
                try:
                    size = os.path.getsize(src)
                except OSError:
                    raise DomainError(
                        f"tile blob {src!r} disappeared; re-executing"
                    ) from None
                if size != old_col["bytes"]:
                    raise DomainError(
                        f"tile blob {src!r} is {size} bytes, manifest "
                        f"recorded {old_col['bytes']}; re-executing"
                    )
            else:
                src = (staged or {}).get(name)
                try:
                    size = -1 if src is None else os.path.getsize(src)
                except OSError:
                    size = -1
                if size != old_col["bytes"]:
                    raise DomainError(
                        f"tile {tile.index} move is missing verified "
                        f"staged bytes for column {name!r}; re-executing"
                    )
                os.makedirs(tile_dir, exist_ok=True)
                os.replace(src, os.path.join(tile_dir, filename))
            columns[name] = {
                "file": filename,
                "dtype": old_col["dtype"],
                "bytes": old_col["bytes"],
                "sha256": old_col["sha256"],
            }
            reused += old_col["bytes"]
        record = self._record(tile, fingerprint, columns)
        self._records[tile.index] = record
        self.bytes_reused += reused
        _M_BYTES_REUSED.add(reused)
        if in_place:
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
        """Write the manifest and prune unreferenced blobs.

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
        columns = self._columns or []
        # Global column dtypes: promote across the per-tile dtypes so
        # readers can allocate one output array per column.
        column_meta = []
        for name in columns:
            dtypes = {record["columns"][name]["dtype"]
                      for record in records}
            try:
                promoted = (
                    str(np.result_type(*sorted(dtypes))) if dtypes
                    else "float64"
                )
            except TypeError:
                raise DomainError(
                    f"column {name!r} mixes incompatible dtypes across "
                    f"tiles ({sorted(dtypes)}); use a JSONL or CSV sink "
                    f"for free-form rows"
                ) from None
            column_meta.append({
                "name": name,
                "dtype": promoted,
                "file": self._files[name],
            })
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
            self._prune(records)
            span.set(tiles=len(records), bytes=self.bytes_written)
        return manifest

    def _prune(self, records: List[Dict[str, Any]]) -> None:
        """Remove blobs/dirs no record references (old generations)."""
        expected: Dict[str, set] = {}
        for record in records:
            dirname = tile_dirname(record["index"])
            expected.setdefault(dirname, set()).update(
                col["file"] for col in record["columns"].values()
            )
        tiles_root = os.path.join(self._path, TILES_DIR)
        try:
            entries = sorted(os.listdir(tiles_root))
        except OSError:
            return
        for entry in entries:
            entry_path = os.path.join(tiles_root, entry)
            if entry not in expected:
                shutil.rmtree(entry_path, ignore_errors=True)
                continue
            keep = expected[entry]
            try:
                files = os.listdir(entry_path)
            except OSError:
                continue
            for filename in files:
                if filename not in keep:
                    try:
                        os.remove(os.path.join(entry_path, filename))
                    except OSError:
                        pass


class TileSink(ResultSink):
    """A :class:`~repro.engine.sinks.ResultSink` writing a tile store.

    ``path`` is the store directory (created if needed; a previous
    manifest there is replaced only when this run completes).  Tile
    granularity comes from ``tile_scenarios`` (a target scenario count
    per tile, default ``16384``) or an explicit ``tile_shape`` (per-axis
    block sizes in pivot form — see :mod:`repro.store.layout`).

    Rows arrive in scenario order (the executor and the coordinator
    both guarantee it), so the sink holds at most one tile plus one
    chunk of rows in memory before flushing blobs to disk.  The
    manifest is written by :meth:`close` only after the final tile —
    an interrupted run leaves blobs but no manifest, which readers and
    delta runs treat as "no store here".
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
        self._buffer: List[ScenarioResult] = []
        self._buffer_start = 0
        self._next_tile = 0
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

    def open(self, plan: ExecutionPlan) -> None:
        if isinstance(plan, PlanShard):
            raise DomainError(
                "TileSink needs the whole plan, not a shard; sharded "
                "runs already open sinks with the parent plan via the "
                "coordinator (run_sweep_streaming(shards=...))"
            )
        self._layout = TileLayout(
            plan,
            tile_scenarios=self._tile_scenarios,
            tile_shape=self._tile_shape,
        )
        self._writer = TileWriter(self._path, self._layout)
        self._buffer = []
        self._buffer_start = 0
        self._next_tile = 0
        self._manifest = None
        # A stale manifest must not survive into a half-written store.
        try:
            os.remove(os.path.join(self._path, MANIFEST_NAME))
        except OSError:
            pass

    def write(self, results: Sequence[ScenarioResult]) -> None:
        if self._writer is None or self._layout is None:
            raise DomainError("TileSink.write() before open()")
        self._buffer.extend(results)
        end = self._buffer_start + len(self._buffer)
        while self._next_tile < self._layout.n_tiles:
            tile = self._layout.tile(self._next_tile)
            if tile.stop > end:
                break
            lo = tile.start - self._buffer_start
            hi = tile.stop - self._buffer_start
            self._writer.write_tile(tile, self._buffer[lo:hi])
            del self._buffer[:hi]
            self._buffer_start = tile.stop
            self._next_tile += 1

    def close(self) -> None:
        if self._writer is None or self._layout is None:
            return
        if self._next_tile == self._layout.n_tiles and not self._buffer:
            self._manifest = self._writer.finalise()

    def adopt(self, writer: TileWriter, manifest: Dict[str, Any]) -> None:
        """Adopt a finished store written by an external driver.

        The delta executor drives a :class:`TileWriter` directly (it
        never routes rows through :meth:`write`); after finalising it
        hands the writer and manifest back here so :attr:`writer` and
        :attr:`manifest` report the completed store on the delta path
        exactly as they do after a full :meth:`open`/:meth:`close` run.
        """
        self._writer = writer
        self._layout = writer.layout
        self._buffer = []
        self._buffer_start = writer.layout.plan.n_scenarios
        self._next_tile = writer.layout.n_tiles
        self._manifest = manifest
