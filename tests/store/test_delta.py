"""Tests for delta-sweep execution (:mod:`repro.store.delta`).

The delta executor's one promise: the finished store is bit-identical
to a from-scratch run, no matter how the sweep changed — while doing
only the work the fingerprints say is new.  Each test edits a sweep a
different way and checks both halves of the promise.
"""

import os
import pathlib
import shutil

import pytest

from repro.engine import JsonlSink, SweepSpec, run_sweep_streaming
from repro.errors import DomainError
from repro.store import TileSink, TileStore, run_sweep_delta

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

BASE_SIGMAS = [0.7, 0.9, 1.1, 1.3]
BASE_CONFS = [0.6, 0.75, 0.9]


def sweep_over(sigmas=BASE_SIGMAS, confs=BASE_CONFS, seed=None):
    return SweepSpec(
        pipeline="sil_classification",
        base={"mode": 0.003},
        grid={"sigma": sigmas, "required_confidence": confs},
        seed=seed,
    )


def store_bytes(path):
    """Every file in the store, path -> bytes (manifest included)."""
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, path)
            with open(full, "rb") as handle:
                out[rel] = handle.read()
    return out


def delta_run(path, sweep, tile_scenarios=4):
    return run_sweep_streaming(
        sweep, sinks=(TileSink(path, tile_scenarios=tile_scenarios),),
        delta=True,
    )


def scratch_store(tmp_path, sweep, tile_scenarios=4, name="scratch"):
    path = str(tmp_path / name)
    run_sweep_streaming(
        sweep, sinks=(TileSink(path, tile_scenarios=tile_scenarios),),
    )
    return path


class TestDeltaTriage:
    def test_first_run_degrades_to_full(self, tmp_path):
        path = str(tmp_path / "store")
        meta = delta_run(path, sweep_over())
        assert meta["delta"] is True
        assert meta["tiles_executed"] == meta["tiles_total"] == 3
        assert meta["tiles_skipped"] == meta["tiles_moved"] == 0
        TileStore.open(path)

    def test_noop_rerun_skips_everything(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        before = store_bytes(path)
        meta = delta_run(path, sweep_over())
        assert meta["tiles_executed"] == 0
        assert meta["tiles_skipped"] == 3
        assert meta["rows_executed"] == 0
        assert meta["bytes_reused"] > 0
        assert store_bytes(path) == before

    def test_one_axis_edit_executes_one_tile(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        edited = sweep_over(confs=[0.6, 0.8, 0.9])
        meta = delta_run(path, edited)
        # required_confidence is the pivot axis (tiles of (1, 4)):
        # only the tile holding the edited value re-executes.
        assert meta["tiles_executed"] == 1
        assert meta["tiles_skipped"] == 2
        scratch = scratch_store(tmp_path, edited)
        assert store_bytes(path) == store_bytes(scratch)

    def test_prepended_axis_value_moves_tiles(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        grown = sweep_over(confs=[0.5] + BASE_CONFS)
        meta = delta_run(path, grown)
        assert meta["tiles_executed"] == 1
        assert meta["tiles_moved"] == 3
        assert meta["tiles_skipped"] == 0
        scratch = scratch_store(tmp_path, grown)
        assert store_bytes(path) == store_bytes(scratch)

    def test_shrunk_axis_prunes_stale_tiles(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        shrunk = sweep_over(confs=BASE_CONFS[:2])
        meta = delta_run(path, shrunk)
        assert meta["tiles_total"] == 2
        assert meta["tiles_executed"] == 0
        assert meta["tiles_skipped"] == 2
        scratch = scratch_store(tmp_path, shrunk)
        assert store_bytes(path) == store_bytes(scratch)

    def test_seeded_sweep_invalidates_on_position_shift(self, tmp_path):
        # Seeds are a function of absolute grid position, so growing an
        # axis shifts every seed window: nothing may be reused silently.
        path = str(tmp_path / "store")
        delta_run(path, sweep_over(seed=42))
        grown = sweep_over(confs=[0.5] + BASE_CONFS, seed=42)
        meta = delta_run(path, grown)
        assert meta["tiles_executed"] == meta["tiles_total"] == 4
        scratch = scratch_store(tmp_path, grown)
        assert store_bytes(path) == store_bytes(scratch)

    def test_seed_change_invalidates_everything(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over(seed=1))
        meta = delta_run(path, sweep_over(seed=2))
        assert meta["tiles_executed"] == meta["tiles_total"]


class TestDeltaFileContent:
    def test_case_file_edit_invalidates_every_tile(self, tmp_path):
        case_file = str(tmp_path / "case.yaml")
        shutil.copy(EXAMPLES / "case_confidence.yaml", case_file)

        def sweep():
            return SweepSpec(
                pipeline="case_confidence",
                base={"case_file": case_file},
                grid={
                    "A1.p_true": [0.8, 0.9],
                    "S1.dependence": [0.1, 0.2, 0.3],
                },
            )

        path = str(tmp_path / "store")
        delta_run(path, sweep(), tile_scenarios=3)
        meta = delta_run(path, sweep(), tile_scenarios=3)
        assert meta["tiles_executed"] == 0

        text = pathlib.Path(case_file).read_text(encoding="utf-8")
        pathlib.Path(case_file).write_text(
            text.replace("probability_true: 0.90",
                         "probability_true: 0.85"),
            encoding="utf-8",
        )
        meta = delta_run(path, sweep(), tile_scenarios=3)
        assert meta["tiles_executed"] == meta["tiles_total"] == 2
        scratch = scratch_store(tmp_path, sweep(), tile_scenarios=3)
        assert store_bytes(path) == store_bytes(scratch)


class TestDeltaContentAxis:
    """``case_file`` swept as a grid axis, landing *inside* tiles: an
    edit to any of the referenced files must re-execute the tiles that
    cover it — the stale-skip bug a first-scenario-only anchor had."""

    def _files(self, tmp_path):
        files = []
        for i, conf in enumerate(("0.97", "0.96")):
            path = str(tmp_path / f"case_{i}.yaml")
            shutil.copy(EXAMPLES / "case_confidence.yaml", path)
            text = pathlib.Path(path).read_text(encoding="utf-8")
            pathlib.Path(path).write_text(
                text.replace("confidence: 0.97", f"confidence: {conf}"),
                encoding="utf-8",
            )
            files.append(path)
        return files

    def _sweep(self, files):
        return SweepSpec(
            pipeline="case_confidence",
            base={},
            grid={"A1.p_true": [0.8, 0.9], "case_file": files},
        )

    def test_non_first_file_edit_reexecutes_covering_tiles(self, tmp_path):
        files = self._files(tmp_path)
        path = str(tmp_path / "store")
        # Axes sort to (A1.p_true, case_file): tiles of 2 scenarios are
        # (1, 2) blocks, each covering BOTH case files.
        delta_run(path, self._sweep(files), tile_scenarios=2)
        meta = delta_run(path, self._sweep(files), tile_scenarios=2)
        assert meta["tiles_skipped"] == meta["tiles_total"] == 2

        edited = pathlib.Path(files[1])
        edited.write_text(
            edited.read_text(encoding="utf-8")
            .replace("confidence: 0.96", "confidence: 0.95"),
            encoding="utf-8",
        )
        meta = delta_run(path, self._sweep(files), tile_scenarios=2)
        assert meta["tiles_executed"] == meta["tiles_total"] == 2
        scratch = scratch_store(tmp_path, self._sweep(files),
                                tile_scenarios=2)
        assert store_bytes(path) == store_bytes(scratch)


class TestDeltaCrashSafety:
    def test_killed_delta_leaves_no_manifest(self, tmp_path, monkeypatch):
        # The old manifest must be consumed before any blob write: a
        # delta dying mid-run is never readable as a mix of generations.
        from repro.store.sink import TileWriter

        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        edited = sweep_over(confs=[0.6, 0.8, 0.9])

        def explode(self, *args, **kwargs):
            raise RuntimeError("killed mid-delta")

        with monkeypatch.context() as patch:
            patch.setattr(TileWriter, "write_tile", explode)
            with pytest.raises(RuntimeError, match="killed mid-delta"):
                delta_run(path, edited)
        assert not os.path.exists(os.path.join(path, "manifest.json"))
        with pytest.raises(DomainError, match="not a tile store"):
            import repro.store as store_mod
            store_mod.TileStore.open(path)

        # Recovery: the killed delta journaled the two tiles it reused
        # before it died, so only the edited tile executes.
        meta = delta_run(path, edited)
        assert meta["tiles_skipped"] == 2
        assert meta["tiles_executed"] == 1
        scratch = scratch_store(tmp_path, edited)
        assert store_bytes(path) == store_bytes(scratch)

    def test_move_staging_dir_cleaned_up(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        grown = sweep_over(confs=[0.5] + BASE_CONFS)
        meta = delta_run(path, grown)
        assert meta["tiles_moved"] == 3
        assert not os.path.exists(os.path.join(path, ".delta-stage"))
        scratch = scratch_store(tmp_path, grown)
        assert store_bytes(path) == store_bytes(scratch)

    def test_delta_populates_sink_manifest(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        sink = TileSink(path, tile_scenarios=4)
        run_sweep_delta(sweep_over(), sinks=(sink,))
        assert sink.manifest is not None
        assert sink.manifest["n_scenarios"] == 12
        assert sink.writer is not None
        assert sink.writer.tiles_skipped == 3


class TestDeltaShards:
    """Pending tiles run as one window through the ordinary executor,
    across shard worker processes when asked."""

    def test_delta_runs_across_shards(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        edited = sweep_over(confs=[0.6, 0.8, 0.9])
        meta = run_sweep_streaming(
            edited, sinks=(TileSink(path, tile_scenarios=4),),
            delta=True, shards=2,
        )
        assert (meta["tiles_executed"], meta["tiles_skipped"]) == (1, 2)
        assert meta["shards"] == 2 and meta["rows"] == 12
        scratch = scratch_store(tmp_path, edited)
        assert store_bytes(path) == store_bytes(scratch)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_killed_run_is_finished_across_shards(self, tmp_path,
                                                  monkeypatch, shards):
        from repro.store.sink import TileWriter

        # 12 scenarios in six tiles of 2; the run dies after four.
        path = str(tmp_path / "store")
        original = TileWriter.write_tile
        written = []

        def dying_write_tile(self, *args, **kwargs):
            if len(written) == 4:
                raise RuntimeError("killed")
            written.append(original(self, *args, **kwargs))
            return written[-1]

        with monkeypatch.context() as patch:
            patch.setattr(TileWriter, "write_tile", dying_write_tile)
            with pytest.raises(RuntimeError, match="killed"):
                run_sweep_streaming(
                    sweep_over(), sinks=(TileSink(path, tile_scenarios=2),),
                    shards=2,
                )
        meta = run_sweep_streaming(
            sweep_over(), sinks=(TileSink(path, tile_scenarios=2),),
            delta=True, shards=shards,
        )
        assert (meta["tiles_executed"], meta["tiles_skipped"]) == (2, 4)
        assert meta["rows_executed"] == 4
        assert meta["tiles_total"] == 6 and meta["rows"] == 12
        scratch = scratch_store(tmp_path, sweep_over(), tile_scenarios=2)
        assert store_bytes(path) == store_bytes(scratch)

    def test_nothing_pending_starts_no_executor_run(self, tmp_path,
                                                    monkeypatch):
        from repro.engine import get_pipeline
        from repro.engine.coordinator import ShardedChunks

        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        before = store_bytes(path)

        def refuse(*args, **kwargs):
            raise AssertionError("executed with nothing pending")

        pipeline = get_pipeline("sil_classification")
        monkeypatch.setattr(ShardedChunks, "_spawn", refuse)
        monkeypatch.setattr(pipeline, "run_batch", refuse)
        monkeypatch.setattr(pipeline, "run", refuse)
        for shards in (None, 2):
            meta = run_sweep_streaming(
                sweep_over(), sinks=(TileSink(path, tile_scenarios=4),),
                delta=True, shards=shards,
            )
            assert meta["tiles_skipped"] == 3
            assert meta["tiles_executed"] == meta["rows_executed"] == 0
            assert store_bytes(path) == before

    def test_bad_shard_count_leaves_the_store_untouched(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        before = store_bytes(path)
        with pytest.raises(DomainError, match="shards must be positive"):
            run_sweep_streaming(
                sweep_over(), sinks=(TileSink(path, tile_scenarios=4),),
                delta=True, shards=0,
            )
        assert store_bytes(path) == before


class TestDeltaGuards:
    def test_requires_exactly_one_tile_sink(self, tmp_path):
        with pytest.raises(DomainError, match="exactly one TileSink"):
            run_sweep_delta(sweep_over(), sinks=())
        with pytest.raises(DomainError, match="exactly one TileSink"):
            run_sweep_delta(
                sweep_over(),
                sinks=(JsonlSink(str(tmp_path / "rows.jsonl")),),
            )

    def test_streaming_delta_flag_needs_tile_sink(self, tmp_path):
        with pytest.raises(DomainError, match="TileSink"):
            run_sweep_streaming(
                sweep_over(),
                sinks=(JsonlSink(str(tmp_path / "rows.jsonl")),),
                delta=True,
            )

    def test_unseeded_stochastic_pipeline_rejected(self, tmp_path):
        sweep = SweepSpec(
            pipeline="bbn_query",
            base={"n_samples": 50, "prior": 0.6,
                  "leg1_validity": 0.9, "leg1_sensitivity": 0.95,
                  "leg1_specificity": 0.9, "leg2_validity": 0.88,
                  "leg2_sensitivity": 0.9, "leg2_specificity": 0.85},
            grid={"dependence": [0.1, 0.2]},
        )
        sink = TileSink(str(tmp_path / "store"))
        with pytest.raises(DomainError, match="stochastic"):
            run_sweep_delta(sweep, sinks=(sink,))

    def test_interrupted_store_treated_as_absent(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        os.remove(os.path.join(path, "manifest.json"))
        meta = delta_run(path, sweep_over())
        # No manifest -> full run, then the store is whole again.
        assert meta["tiles_executed"] == meta["tiles_total"]
        TileStore.open(path)

    def test_corrupted_blob_reexecutes_instead_of_reusing(self, tmp_path):
        path = str(tmp_path / "store")
        delta_run(path, sweep_over())
        # Truncate one blob: its size check fails, so the skipped tile
        # demotes to execute and the store self-heals.
        blob = next(
            os.path.join(root, name)
            for root, _dirs, files in os.walk(os.path.join(path, "tiles"))
            for name in files
        )
        with open(blob, "wb") as handle:
            handle.write(b"torn")
        meta = delta_run(path, sweep_over())
        assert meta["tiles_executed"] == 1
        assert meta["tiles_skipped"] == 2
        scratch = scratch_store(tmp_path, sweep_over())
        assert store_bytes(path) == store_bytes(scratch)
