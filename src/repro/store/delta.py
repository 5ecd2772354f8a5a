"""Delta-sweep execution: only compute the tiles whose inputs changed.

:func:`run_sweep_delta` re-runs a sweep **against an existing tile
store** — a finished one (its manifest), or a killed run's partial one
(its journal of committed tiles).  It lowers the sweep, tiles the new
plan, and diffs each tile's content fingerprint
(:meth:`ExecutionPlan.region_fingerprint`: spec + axis windows + seed
window + referenced-file content) against those records:

* **skipped** — the tile at the same index has the same fingerprint;
* **moved** — the fingerprint exists elsewhere in the old store (an
  axis grew or values shifted position);
* **executed** — everything else runs as one
  :class:`~repro.engine.plan.PlanWindow` of the plan through the
  ordinary executor (:func:`repro.engine.stream.run_sweep_streaming`),
  in this process or across ``shards``, into the same
  :class:`~repro.store.TileSink`.

Blobs are named by their content (:func:`~repro.store.format.blob_path`),
so a skipped and a moved tile are the same thing: the old record, under
the new index, pointing at the same files — zero I/O beyond a size
check per blob.  No write of this run can replace a blob another record
needs, so the triage needs no ordering.

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

import time
from typing import Any, Dict, List, Optional, Sequence

from ..errors import DomainError
from ..telemetry import tracer
from ..engine.coordinator import check_sharding
from ..engine.sinks import ResultSink
from ..engine.stream import ProgressFn, _resolve_backend, run_sweep_streaming
from .format import append_journal, read_journal, read_manifest
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
    reused: List[Dict[str, Any]] = []
    pending: List[Tile] = []
    for tile in layout.tiles():
        fp = layout.fingerprint(tile)
        record = old_by_index.get(tile.index)
        if record is None or record["fingerprint"] != fp:
            record = old_by_fp.get(fp)
        if record is None:
            pending.append(tile)
            continue
        try:
            reused.append(writer.reuse_tile(tile, fp, record))
        except DomainError:
            pending.append(tile)
    # Every reused tile's blobs are in place: one journal batch.  The
    # pending run appends to this journal, so a delta killed mid-run is
    # finished by the next one.
    append_journal(writer.path, reused)
    return pending


def run_sweep_delta(
    sweep,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
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
        check_sharding(shards, max_retries)
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
