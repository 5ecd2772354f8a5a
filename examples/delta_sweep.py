"""Delta sweeps — only compute the tiles whose inputs changed.

A :class:`repro.store.TileSink` materialises a sweep as a **tiled
columnar store**: parameter-plane-aligned NumPy tiles, one ``.npy``
blob per result column per tile, plus a JSON manifest carrying a
content fingerprint for every tile (scenario spec + axis windows +
seed window + referenced-file content).  Those fingerprints make
re-runs incremental: ``run_sweep_streaming(..., delta=True)`` diffs
the new plan against the manifest and executes only the tiles whose
fingerprint has no match — everything else is adopted (same index) or
copied (fingerprint found elsewhere, e.g. after an axis grew).  The
finished store is bit-identical to a from-scratch run.

This example walks the workflow:

1. **materialise** — stream a whole-case sweep into a tile store;
2. **no-op delta** — re-run unchanged: every tile skips;
3. **grow an axis** — add grid values: old tiles *move*, new ones run;
4. **edit an input file** — change the case file the sweep references:
   every fingerprint changes, so everything honestly re-executes;
5. **query** — slice the finished store without executing anything.

Run with::

    PYTHONPATH=src python examples/delta_sweep.py

The CLI equivalent::

    PYTHONPATH=src python -m repro.cli sweep \
        --spec examples/sweep_spec.yaml --store family_store
    PYTHONPATH=src python -m repro.cli sweep \
        --spec examples/sweep_spec.yaml --store family_store \
        --delta
    PYTHONPATH=src python -m repro.cli store stats family_store
    PYTHONPATH=src python -m repro.cli store query family_store \
        --fix sigma=0.9 --columns confidence
"""

import pathlib
import shutil
import tempfile

from repro.engine import SweepSpec, run_sweep_streaming
from repro.store import TileSink, TileStore

workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro_delta_"))
store_path = str(workdir / "confidence_store")

# The sweep references an input file; its *content* is folded into
# every tile fingerprint, so edits to it invalidate the store even
# though the sweep spec itself is unchanged.  Work on a private copy.
case_file = str(workdir / "case_confidence.yaml")
shutil.copy(pathlib.Path(__file__).parent / "case_confidence.yaml",
            case_file)


def sweep_over(p_trues):
    return SweepSpec(
        pipeline="case_confidence",
        base={"case_file": case_file},
        grid={
            "A1.p_true": p_trues,
            "S1.dependence": [round(0.02 * i, 2) for i in range(50)],
        },
    )


def report(label, meta):
    print(f"{label}: {meta['tiles_executed']}/{meta['tiles_total']} tiles "
          f"executed ({meta['tiles_skipped']} skipped, "
          f"{meta['tiles_moved']} moved), {meta['rows_executed']} rows "
          f"computed, {meta['bytes_reused']} bytes reused, "
          f"{meta['elapsed_s']:.3f}s")


# 1. Materialise: 20 x 50 = 1,000 scenarios, 20 tiles of 50 (one tile
#    per A1.p_true value, spanning the whole S1.dependence axis).
p_trues = [round(0.5 + 0.01 * i, 2) for i in range(20)]
meta = run_sweep_streaming(
    sweep_over(p_trues),
    sinks=(TileSink(store_path, tile_scenarios=50),), delta=True,
)
report("initial run", meta)

# 2. No-op delta: nothing changed, nothing executes.
meta = run_sweep_streaming(
    sweep_over(p_trues),
    sinks=(TileSink(store_path, tile_scenarios=50),), delta=True,
)
report("unchanged   ", meta)

# 3. Prepend an axis value: every old tile's data is still valid but
#    now lives at the next index over.  The fingerprints match at the
#    shifted positions, so the blobs are *moved* (hash-verified copy,
#    zero kernel work) and only the genuinely new tile executes.
meta = run_sweep_streaming(
    sweep_over([0.49] + p_trues),
    sinks=(TileSink(store_path, tile_scenarios=50),), delta=True,
)
report("axis grown  ", meta)

# 4. Edit the referenced case file: assumption A2's probability moves,
#    so every tile's fingerprint changes (file *content* is folded in)
#    and the whole store honestly recomputes.
text = pathlib.Path(case_file).read_text(encoding="utf-8")
pathlib.Path(case_file).write_text(
    text.replace("probability_true: 0.90", "probability_true: 0.85"),
    encoding="utf-8")
meta = run_sweep_streaming(
    sweep_over([0.49] + p_trues),
    sinks=(TileSink(store_path, tile_scenarios=50),), delta=True,
)
report("file edited ", meta)

# 5. Query the finished store: slicing reads tiles, never kernels.
store = TileStore.open(store_path)
print(f"\nstore: {store.n_scenarios} scenarios, grid "
      f"{store.grid_shape} in {store.n_tiles} tiles, "
      f"columns {store.columns}")
sl = store.slice(columns=["top_confidence"], **{"A1.p_true": 0.6})
print(f"slice A1.p_true=0.6: top_confidence over {sl.shape} "
      f"S1.dependence values, "
      f"min {sl.column('top_confidence').min():.4f}, "
      f"max {sl.column('top_confidence').max():.4f}")
