"""Delta-sweep execution: only compute the tiles whose inputs changed.

:func:`run_sweep_delta` re-runs a sweep **against an existing tile
store** — a finished one (its manifest), or a killed run's partial one
(its journal of committed tiles).  It lowers the sweep, tiles the new
plan, and diffs each tile's content fingerprint
(:meth:`ExecutionPlan.region_fingerprint`: spec + axis windows + seed
window + referenced-file content) against those records:

* **skipped** — the tile at the same index has the same fingerprint;
  its blobs are adopted with zero I/O beyond a size check;
* **moved** — the fingerprint exists elsewhere in the old store (an
  axis grew or values shifted position); the blobs are staged through
  temp files on the store's filesystem (hash-verified as they stream,
  memory bounded however many tiles move) and renamed into the new
  index;
* **executed** — everything else runs as one
  :class:`~repro.engine.plan.PlanWindow` of the plan through the
  ordinary executor (:func:`repro.engine.stream.run_sweep_streaming`),
  in this process or across ``shards``, into the same
  :class:`~repro.store.TileSink`.

Because reused blobs were themselves produced by a run of a
fingerprint-identical region, and executed tiles run the same kernels
on the same scenarios with the same seeds, the finished store is
**bit-identical to a from-scratch run by construction** — the P13 gate
compares the two directories file by file.  The same triage finishes a
killed run (full, sharded or itself a delta): its committed tiles are
skipped and only the rest execute.

Unseeded *non-deterministic* sweeps are rejected: their rows are not a
function of the fingerprint, so "skip what matched" would silently
change results.  Seeded sweeps of any pipeline are fine (the seed
window is part of the fingerprint).  A store written in another
:data:`~repro.store.format.STORE_VERSION` offers no previous
generation, so every tile executes — the delta rebuilds it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import DomainError
from ..telemetry import tracer
from ..engine.cache import ResultCache
from ..engine.coordinator import check_sharding
from ..engine.sinks import ResultSink
from ..engine.stream import ProgressFn, _resolve_backend, run_sweep_streaming
from .format import (
    TILES_DIR,
    append_journal,
    read_journal,
    read_manifest,
    tile_dirname,
)
from .layout import Tile
from .sink import TileSink, TileWriter

__all__ = ["run_sweep_delta"]


def _previous_generation(store_path: str) -> List[Dict[str, Any]]:
    """Tile records a delta may reuse: the manifest's, else the journal
    of a killed run (its committed tiles), else none."""
    try:
        return read_manifest(store_path).get("tiles", [])
    except DomainError:
        pass
    try:
        return read_journal(store_path)
    except DomainError:
        return []


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


def _reuse(writer: TileWriter,
           old_records: List[Dict[str, Any]]) -> List[Tile]:
    """Adopt every tile of ``writer``'s layout that the previous
    generation's ``old_records`` still hold (skipped in place or moved),
    journal them, and return the tiles left to execute, in order."""
    layout = writer.layout
    old_by_index: Dict[int, Dict[str, Any]] = {
        record["index"]: record for record in old_records
    }
    old_by_fp: Dict[str, Dict[str, Any]] = {}
    for record in old_records:
        old_by_fp.setdefault(record["fingerprint"], record)
    # Triage every tile before touching the store: moved-tile sources
    # must be buffered before any destination write can clobber them.
    skipped: List[Tuple[Tile, str, Dict[str, Any]]] = []
    moved: List[Tuple[Tile, str, Dict[str, Any]]] = []
    pending: List[Tile] = []
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
            pending.append(tile)

    stage_dir = os.path.join(writer.path, STAGE_DIR)
    shutil.rmtree(stage_dir, ignore_errors=True)  # a crashed delta's
    if moved:
        os.makedirs(stage_dir, exist_ok=True)
    reused: List[Dict[str, Any]] = []
    try:
        move_staged = _stage_move_sources(writer.path, moved, stage_dir)
        for tile, fp, record in moved:
            staged = move_staged.get(tile.index)
            if staged is None:
                pending.append(tile)
                continue
            source_dir = os.path.join(
                writer.path, TILES_DIR, tile_dirname(record["index"])
            )
            try:
                reused.append(writer.reuse_tile(
                    tile, fp, record, source_dir, staged=staged
                ))
            except DomainError:
                pending.append(tile)
    finally:
        shutil.rmtree(stage_dir, ignore_errors=True)
    for tile, fp, record in skipped:
        try:
            reused.append(writer.reuse_tile(
                tile, fp, record, writer.tile_dir(tile.index)
            ))
        except DomainError:
            pending.append(tile)
    # Every reused tile's blobs are in place now: one journal batch.
    # The pending run appends to this journal, so a delta killed
    # mid-run is finished by the next one.
    append_journal(writer.path, reused)
    return sorted(pending, key=lambda tile: tile.index)


def run_sweep_delta(
    sweep,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    sinks: Sequence[ResultSink] = (),
    progress: Optional[ProgressFn] = None,
    shards: Optional[int] = None,
    max_retries: int = 2,
) -> Dict[str, Any]:
    """Incrementally (re-)materialise a sweep's tile store.

    ``sinks`` must be exactly one :class:`~repro.store.sink.TileSink`
    — delta semantics are defined by the store's tile records, and row
    sinks would have to re-emit every row anyway (use a full run for
    those).  The previous generation is the manifest at the sink's
    path or, without one, the journal a killed run left; with neither
    every tile executes.  Both are *consumed* (the manifest removed,
    the journal restarted) as soon as they are read, before any blob is
    touched: a delta killed mid-run is never readable as a mix of
    generations, and its own journal lets the next delta finish it.

    The tiles left to execute run as one window through
    :func:`~repro.engine.stream.run_sweep_streaming` — with ``shards``,
    across worker processes — and ``progress`` counts that window's
    chunks; with nothing left, no executor runs.  Returns that run's
    meta dict with ``rows`` set to the whole sweep's count and
    ``delta``/``tiles_*``/``rows_executed``/``bytes_*`` accounting.
    """
    sinks = tuple(sinks)
    if len(sinks) != 1 or not isinstance(sinks[0], TileSink):
        raise DomainError(
            "delta sweeps write tile stores: pass exactly one TileSink "
            "(row sinks re-emit every row and gain nothing from deltas)"
        )
    sink = sinks[0]

    # Everything that can refuse the run does so before the store is
    # touched.
    started = time.perf_counter()
    plan = _resolve_backend(sweep, backend, chunk_size)[0].plan
    if shards is not None:
        check_sharding(shards, max_retries, cache)
    if not plan.pipeline.deterministic and plan.master_seed is None:
        raise DomainError(
            f"pipeline {plan.pipeline_name!r} is stochastic and the "
            f"sweep has no seed: rows are not reproducible, so a delta "
            f"run cannot guarantee bit-identity with a full run; set a "
            f"sweep seed or run without delta"
        )
    with tracer.span("sweep.delta", pipeline=plan.pipeline_name,
                     n_scenarios=plan.n_scenarios) as span:
        # Read the old records first: begin() removes the manifest and
        # restarts the journal before any blob is touched.  Were the
        # manifest left in place, readers would silently serve a mix of
        # generations, and a later delta would stamp the old hashes onto
        # the new bytes.
        old_records = _previous_generation(sink.path)
        writer = sink.begin(plan)
        pending = _reuse(writer, old_records)
        meta = run_sweep_streaming(
            plan.window([(tile.start, tile.stop) for tile in pending]),
            backend=backend,
            cache=cache,
            sinks=(sink,),
            progress=progress,
            shards=shards,
            max_retries=max_retries,
        )
        span.set(tiles_executed=writer.tiles_written,
                 tiles_skipped=writer.tiles_skipped,
                 tiles_moved=writer.tiles_moved,
                 bytes_reused=writer.bytes_reused)
    meta.update(
        rows=plan.n_scenarios,
        elapsed_s=time.perf_counter() - started,
        delta=True,
        tiles_total=writer.layout.n_tiles,
        tiles_executed=writer.tiles_written,
        tiles_skipped=writer.tiles_skipped,
        tiles_moved=writer.tiles_moved,
        rows_executed=writer.rows_written,
        bytes_written=writer.bytes_written,
        bytes_reused=writer.bytes_reused,
    )
    return meta
