"""Delta-sweep execution: only compute the tiles whose inputs changed.

:func:`run_sweep_delta` re-runs a sweep **against an existing tile
store**.  It lowers the sweep, tiles the new plan, and diffs each
tile's content fingerprint (:meth:`ExecutionPlan.region_fingerprint`:
spec + axis windows + seed window + referenced-file content) against
the store's manifest:

* **skipped** — the tile at the same index has the same fingerprint;
  its blobs are adopted with zero I/O beyond a size check;
* **moved** — the fingerprint exists elsewhere in the old store (an
  axis grew or values shifted position); the blobs are staged through
  temp files on the store's filesystem (hash-verified as they stream,
  memory bounded however many tiles move) and renamed into the new
  index;
* **executed** — everything else runs through the ordinary streaming
  machinery (:func:`repro.engine.stream.stream_results`) as an
  explicit-scenario sub-plan carrying the parent's absolute seeds.

Because reused blobs were themselves produced by a run of a
fingerprint-identical region, and executed tiles run the same kernels
on the same scenarios with the same seeds, the finished store is
**bit-identical to a from-scratch run by construction** — the P13 gate
compares the two directories file by file.

Unseeded *non-deterministic* sweeps are rejected: their rows are not a
function of the fingerprint, so "skip what matched" would silently
change results.  Seeded sweeps of any pipeline are fine (the seed
window is part of the fingerprint).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compilecache import compile_seconds
from ..errors import DomainError
from ..telemetry import tracer
from ..engine.cache import ResultCache
from ..engine.plan import Chunk, lower
from ..engine.sinks import ResultSink
from ..engine.stream import (
    ProgressFn,
    _resolve_backend,
    run_sweep_streaming,
    stream_results,
)
from .format import TILES_DIR, manifest_path, read_manifest, tile_dirname
from .layout import Tile, TileLayout
from .sink import TileSink, TileWriter

__all__ = ["run_sweep_delta"]


def _delta_meta(meta: Dict[str, Any], writer: TileWriter,
                n_tiles: int) -> Dict[str, Any]:
    meta["delta"] = True
    meta["tiles_total"] = n_tiles
    meta["tiles_executed"] = writer.tiles_written
    meta["tiles_skipped"] = writer.tiles_skipped
    meta["tiles_moved"] = writer.tiles_moved
    meta["rows_executed"] = writer.rows_written
    meta["bytes_written"] = writer.bytes_written
    meta["bytes_reused"] = writer.bytes_reused
    return meta


#: Staging directory for moved tiles, inside the store (same
#: filesystem, so staged files rename into tile directories atomically).
STAGE_DIR = ".delta-stage"

_COPY_BLOCK = 1 << 20


def _stage_move_sources(
    store_path: str,
    moves: List[Tuple[Tile, str, Dict[str, Any]]],
    stage_dir: str,
) -> Dict[int, Dict[str, str]]:
    """Stage every moved tile's source blobs to disk *before* any write.

    Destination directories are keyed by tile index, and a moved
    tile's destination can be another moved tile's source (axes
    shifting positions permute indices) — so all sources must be
    secured before the first destination write.  Each blob is streamed
    (bounded memory, however many tiles move) into a per-destination
    temp file under ``stage_dir``, content-verified by sha256 as it is
    copied, and fsynced; :meth:`TileWriter.reuse_tile` later renames it
    into place.  A blob that fails verification drops its tile from
    the result, demoting it to "execute".
    """
    staged: Dict[int, Dict[str, str]] = {}
    for tile, _fp, old_record in moves:
        source_dir = os.path.join(
            store_path, TILES_DIR, tile_dirname(old_record["index"])
        )
        files: Dict[str, str] = {}
        for name, col in old_record["columns"].items():
            src = os.path.join(source_dir, col["file"])
            dst = os.path.join(
                stage_dir, f"{tile.index:06d}.{col['file']}"
            )
            digest = hashlib.sha256()
            try:
                with open(src, "rb") as reader, open(dst, "wb") as writer:
                    while True:
                        block = reader.read(_COPY_BLOCK)
                        if not block:
                            break
                        digest.update(block)
                        writer.write(block)
                    writer.flush()
                    os.fsync(writer.fileno())
            except OSError:
                files = {}
                break
            if digest.hexdigest() != col["sha256"]:
                files = {}
                break
            files[name] = dst
        if files:
            staged[tile.index] = files
    return staged


def run_sweep_delta(
    sweep,
    backend: str = "auto",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    sinks: Sequence[ResultSink] = (),
    progress: Optional[ProgressFn] = None,
) -> Dict[str, Any]:
    """Incrementally (re-)materialise a sweep's tile store.

    ``sinks`` must be exactly one :class:`~repro.store.sink.TileSink`
    — delta semantics are defined by the store's manifest, and row
    sinks would have to re-emit every row anyway (use a full run for
    those).  With no manifest at the sink's path this degrades to an
    ordinary full streaming run.  An existing manifest is *consumed*
    (removed from disk) as soon as it is read, before any blob is
    touched: a delta killed mid-run therefore reads as "no store
    here", never as a readable mix of old and new generations.
    Returns the streaming meta dict extended with
    ``delta``/``tiles_*``/``bytes_*`` accounting.
    """
    sinks = tuple(sinks)
    if len(sinks) != 1 or not isinstance(sinks[0], TileSink):
        raise DomainError(
            "delta sweeps write tile stores: pass exactly one TileSink "
            "(row sinks re-emit every row and gain nothing from deltas)"
        )
    sink = sinks[0]

    started = time.perf_counter()
    compile_before = compile_seconds()
    plan, _effective, label = _resolve_backend(
        sweep, backend, max_workers, chunk_size
    )
    plan_elapsed = time.perf_counter() - started
    if not plan.pipeline.deterministic and plan.master_seed is None:
        raise DomainError(
            f"pipeline {plan.pipeline_name!r} is stochastic and the "
            f"sweep has no seed: rows are not reproducible, so a delta "
            f"run cannot guarantee bit-identity with a full run; set a "
            f"sweep seed or run without delta"
        )

    layout = TileLayout(
        plan,
        tile_scenarios=sink.tile_scenarios,
        tile_shape=sink.tile_shape,
    )
    try:
        old = read_manifest(sink.path)
    except DomainError:
        old = None
    if old is None:
        meta = run_sweep_streaming(
            plan, backend=backend, max_workers=max_workers,
            cache=cache, sinks=(sink,), progress=progress,
        )
        writer = sink.writer
        assert writer is not None
        return _delta_meta(meta, writer, layout.n_tiles)

    meta: Dict[str, Any] = {
        "pipeline": plan.pipeline_name,
        "backend": label,
        "n_scenarios": plan.n_scenarios,
        "n_chunks": plan.n_chunks,
        "chunk_size": plan.chunk_size,
    }
    # The old manifest is in memory now; remove it from disk before any
    # blob is touched.  A delta killed mid-run must read as "no store
    # here" (like an interrupted full run) — were the manifest left in
    # place, readers would silently serve a mix of generations, and a
    # later delta would stamp the old hashes onto the new bytes.
    try:
        os.remove(manifest_path(sink.path))
    except OSError:
        pass
    writer = TileWriter(sink.path, layout)

    old_by_index: Dict[int, Dict[str, Any]] = {
        record["index"]: record for record in old.get("tiles", [])
    }
    old_by_fp: Dict[str, Dict[str, Any]] = {}
    for record in old.get("tiles", []):
        old_by_fp.setdefault(record["fingerprint"], record)

    execute_elapsed = sink_elapsed = 0.0
    hits = misses = 0
    with tracer.span("sweep.delta", pipeline=plan.pipeline_name,
                     backend=label, n_scenarios=plan.n_scenarios,
                     n_tiles=layout.n_tiles) as root_span:
        # Triage every tile before touching the store: moved-tile
        # sources must be buffered before any destination write can
        # clobber them.
        skipped: List[Tuple[Tile, str, Dict[str, Any]]] = []
        moved: List[Tuple[Tile, str, Dict[str, Any]]] = []
        pending: List[Tuple[Tile, str]] = []
        for tile in layout.tiles():
            fp = layout.fingerprint(tile)
            record = old_by_index.get(tile.index)
            if record is not None and record["fingerprint"] == fp:
                skipped.append((tile, fp, record))
                continue
            record = old_by_fp.get(fp)
            if record is not None:
                moved.append((tile, fp, record))
            else:
                pending.append((tile, fp))

        stage_dir = os.path.join(sink.path, STAGE_DIR)
        shutil.rmtree(stage_dir, ignore_errors=True)  # a crashed delta's
        if moved:
            os.makedirs(stage_dir, exist_ok=True)
        try:
            move_staged = _stage_move_sources(sink.path, moved, stage_dir)
            for tile, fp, record in moved:
                staged = move_staged.get(tile.index)
                if staged is None:
                    pending.append((tile, fp))
                    continue
                source_dir = os.path.join(
                    sink.path, TILES_DIR, tile_dirname(record["index"])
                )
                try:
                    writer.reuse_tile(tile, fp, record, source_dir,
                                      staged=staged)
                except DomainError:
                    pending.append((tile, fp))
        finally:
            shutil.rmtree(stage_dir, ignore_errors=True)
        for tile, fp, record in skipped:
            source_dir = writer.tile_dir(tile.index)
            try:
                writer.reuse_tile(tile, fp, record, source_dir)
            except DomainError:
                pending.append((tile, fp))

        pending.sort(key=lambda item: item[0].index)
        done_tiles = layout.n_tiles - len(pending)
        done_rows = sum(
            record["rows"]
            for records in (skipped, moved)
            for _tile, _fp, record in records
        )
        if progress is not None and layout.n_tiles:
            progress(done_tiles, layout.n_tiles, done_rows,
                     plan.n_scenarios)
        for tile, fp in pending:
            stage_start = time.perf_counter()
            scenarios = plan.chunk_scenarios(
                Chunk(-1, tile.start, tile.stop)
            )
            sub_plan = lower(
                scenarios,
                chunk_size=min(plan.chunk_size, max(1, tile.n_scenarios)),
            )
            rows = []
            for chunk_results in stream_results(
                sub_plan, backend=backend, max_workers=max_workers,
                cache=cache,
            ):
                rows.extend(chunk_results)
            chunk_hits = sum(1 for row in rows if row.from_cache)
            hits += chunk_hits
            misses += len(rows) - chunk_hits
            execute_elapsed += time.perf_counter() - stage_start
            stage_start = time.perf_counter()
            writer.write_tile(tile, rows, fingerprint=fp)
            sink_elapsed += time.perf_counter() - stage_start
            done_tiles += 1
            done_rows += len(rows)
            if progress is not None:
                progress(done_tiles, layout.n_tiles, done_rows,
                         plan.n_scenarios)

        stage_start = time.perf_counter()
        manifest = writer.finalise()
        sink.adopt(writer, manifest)
        sink_elapsed += time.perf_counter() - stage_start
        root_span.set(tiles_executed=writer.tiles_written,
                      tiles_skipped=writer.tiles_skipped,
                      tiles_moved=writer.tiles_moved,
                      bytes_reused=writer.bytes_reused)

    meta["cache_hits"] = hits
    meta["cache_misses"] = misses
    meta["rows"] = plan.n_scenarios
    meta["elapsed_s"] = time.perf_counter() - started
    meta["stage_timings"] = {
        "plan_s": plan_elapsed,
        "compile_s": compile_seconds() - compile_before,
        "execute_s": execute_elapsed,
        "sink_s": sink_elapsed,
    }
    return _delta_meta(meta, writer, layout.n_tiles)
