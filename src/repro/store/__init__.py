"""repro.store: a tiled columnar result store plus delta-sweeps.

Sweep output lands in parameter-plane-aligned NumPy tiles — one
``.npy`` blob per value column per tile, in the dtype (and with the
nodata value for ``None``) the pipeline declares, named by its sha256
so equal blobs are stored once — and a JSON manifest carrying the plan
fingerprint, the column schema and each tile's blob hashes
(:mod:`~repro.store.format`, :mod:`~repro.store.layout`).  Write one
with :class:`TileSink` (an ordinary streaming/coordinator sink), read
it back with :class:`TileStore` slice queries, and re-run sweeps
incrementally with ``run_sweep_streaming(delta=True)`` /
:func:`run_sweep_delta` — unchanged tiles are adopted by content
fingerprint instead of recomputed (a manifest record, no file copied),
and the result is bit-identical to a from-scratch run.  The same delta
finishes a run that was killed mid-write: the store's journal names the
tiles it had committed.
"""

from .delta import run_sweep_delta
from .layout import DEFAULT_TILE_SCENARIOS, Tile, TileLayout, default_tile_shape
from .reader import StoreSlice, TileStore
from .sink import TileSink, TileWriter

__all__ = [
    "DEFAULT_TILE_SCENARIOS",
    "StoreSlice",
    "Tile",
    "TileLayout",
    "TileSink",
    "TileStore",
    "TileWriter",
    "default_tile_shape",
    "run_sweep_delta",
]
