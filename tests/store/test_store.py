"""Integration tests for the tile store sink and reader.

The store's contract: a streamed sweep materialises as per-column
``.npy`` tiles plus a deterministic manifest; reading it back — whole
columns or axis-pinned slices — reproduces exactly what a collecting
run computes, without executing a single plan chunk.
"""

import json
import os

import numpy as np
import pytest

from repro.engine import (
    JsonlSink,
    ScenarioSpec,
    SweepSpec,
    lower,
    run_sweep,
    run_sweep_sharded,
    run_sweep_streaming,
)
from repro.errors import DomainError
from repro.store import TileSink, TileStore
from repro.telemetry import disable_metrics, enable_metrics, metrics

SWEEP = SweepSpec(
    pipeline="sil_classification",
    base={"mode": 0.003},
    grid={
        "sigma": [0.7, 0.9, 1.1, 1.3],
        "required_confidence": [0.6, 0.75, 0.9],
    },
)


def materialise(tmp_path, sweep=SWEEP, **sink_kwargs):
    path = str(tmp_path / "store")
    sink = TileSink(path, **sink_kwargs)
    meta = run_sweep_streaming(sweep, sinks=(sink,))
    return path, sink, meta


class TestTileSink:
    def test_store_matches_collected_run(self, tmp_path):
        path, sink, _meta = materialise(tmp_path, tile_scenarios=4)
        store = TileStore.open(path)
        expected = run_sweep(SWEEP)
        rows = list(store.slice().records())
        assert len(rows) == len(expected.results)
        for row, result in zip(rows, expected.results):
            for name, value in result.values.items():
                got = row[name]
                if isinstance(value, float):
                    assert got == pytest.approx(value, abs=0, rel=0)
                else:
                    assert got == value

    def test_tiles_flush_while_streaming(self, tmp_path):
        # chunk 5 vs tile 4: tile boundaries never align with chunk
        # boundaries, so the sink's buffer logic is exercised.
        path = str(tmp_path / "store")
        sink = TileSink(path, tile_scenarios=4)
        run_sweep_streaming(SWEEP, sinks=(sink,), chunk_size=5)
        store = TileStore.open(path)
        assert store.n_tiles == 3
        assert store.n_scenarios == 12

    def test_manifest_is_deterministic(self, tmp_path):
        path_a, _s, _m = materialise(tmp_path / "a", tile_scenarios=4)
        path_b, _s, _m = materialise(tmp_path / "b", tile_scenarios=4)
        bytes_a = open(os.path.join(path_a, "manifest.json"), "rb").read()
        bytes_b = open(os.path.join(path_b, "manifest.json"), "rb").read()
        assert bytes_a == bytes_b
        for tile_dir in sorted(os.listdir(os.path.join(path_a, "tiles"))):
            for blob in sorted(os.listdir(
                    os.path.join(path_a, "tiles", tile_dir))):
                a = open(os.path.join(path_a, "tiles", tile_dir, blob),
                         "rb").read()
                b = open(os.path.join(path_b, "tiles", tile_dir, blob),
                         "rb").read()
                assert a == b, (tile_dir, blob)

    def test_sharded_run_writes_identical_store(self, tmp_path):
        path_one, _s, _m = materialise(tmp_path / "one", tile_scenarios=4)
        path_shard = str(tmp_path / "sharded" / "store")
        run_sweep_sharded(
            SWEEP, shards=2,
            sinks=(TileSink(path_shard, tile_scenarios=4),),
        )
        manifest_one = json.load(
            open(os.path.join(path_one, "manifest.json")))
        manifest_shard = json.load(
            open(os.path.join(path_shard, "manifest.json")))
        assert manifest_one == manifest_shard

    def test_store_path_that_is_a_file_is_refused(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("not a directory")
        with pytest.raises(DomainError, match="cannot write a tile store"):
            run_sweep_streaming(SWEEP, sinks=(TileSink(str(path)),))
        assert path.read_text() == "not a directory"

    def test_shard_plan_rejected_directly(self, tmp_path):
        plan = lower(SWEEP, chunk_size=4)
        sink = TileSink(str(tmp_path / "store"))
        with pytest.raises(DomainError, match="whole plan"):
            sink.open(plan.shard(0, 2))

    def test_interrupted_run_leaves_no_manifest(self, tmp_path):
        path = str(tmp_path / "store")
        sink = TileSink(path, tile_scenarios=4)
        plan = lower(SWEEP, chunk_size=4)
        sink.open(plan)
        results = []
        from repro.engine.stream import stream_results
        for chunk in stream_results(plan):
            results.extend(chunk)
        sink.write(results[:8])   # 2 of 3 tiles
        sink.close()
        assert not os.path.exists(os.path.join(path, "manifest.json"))
        assert sink.manifest is None
        with pytest.raises(DomainError, match="no manifest"):
            TileStore.open(path)

    def test_reopen_clears_stale_manifest(self, tmp_path):
        path, sink, _meta = materialise(tmp_path, tile_scenarios=4)
        plan = lower(SWEEP)
        sink.open(plan)   # new generation begins: manifest must go
        assert not os.path.exists(os.path.join(path, "manifest.json"))

    def test_mixed_column_sets_rejected(self, tmp_path):
        from repro.engine.results import ScenarioResult
        from repro.store import TileLayout, TileWriter

        scenarios = [
            ScenarioSpec(pipeline="survival_update",
                         params={"mode": 0.003, "sigma": 0.9,
                                 "demands": 10 * i, "bound": 1e-2})
            for i in range(2)
        ]
        plan = lower(scenarios)
        layout = TileLayout(plan, tile_scenarios=1)
        writer = TileWriter(str(tmp_path / "store"), layout)
        tiles = list(layout.tiles())
        writer.write_tile(tiles[0], [
            ScenarioResult(spec=scenarios[0], values={"a": 1.0}),
        ])
        with pytest.raises(DomainError, match="column"):
            writer.write_tile(tiles[1], [
                ScenarioResult(spec=scenarios[1], values={"b": 2.0}),
            ])

    def test_linear_store_from_explicit_scenarios(self, tmp_path):
        scenarios = [
            ScenarioSpec(pipeline="survival_update",
                         params={"mode": 0.003, "sigma": 0.9,
                                 "demands": 10 * i, "bound": 1e-2})
            for i in range(7)
        ]
        path = str(tmp_path / "store")
        run_sweep_streaming(
            scenarios, sinks=(TileSink(path, tile_scenarios=3),))
        store = TileStore.open(path)
        assert store.n_tiles == 3
        assert store.axes == []
        expected = run_sweep(scenarios)
        got = store.column("confidence")
        assert got.shape == (7,)
        for i, result in enumerate(expected.results):
            assert got[i] == result.values["confidence"]


class TestTileStoreReader:
    def test_slice_pins_axes_and_keeps_grid_order(self, tmp_path):
        path, _s, _m = materialise(tmp_path, tile_scenarios=3)
        store = TileStore.open(path)
        # Axes sorted: required_confidence (3) then sigma (4).
        assert store.axis_names == ["required_confidence", "sigma"]
        assert store.grid_shape == (3, 4)
        sl = store.slice(columns=["granted_level"],
                         required_confidence=0.75)
        assert sl.shape == (4,)
        assert sl.fixed == {"required_confidence": 0.75}
        expected = run_sweep(SWEEP)
        wanted = [
            r.values["granted_level"] for r in expected.results
            if r.spec.params["required_confidence"] == 0.75
        ]
        assert list(sl.column("granted_level")) == wanted

    def test_full_column_is_grid_shaped(self, tmp_path):
        path, _s, _m = materialise(tmp_path, tile_scenarios=3)
        store = TileStore.open(path)
        arr = store.column("sil2_confidence")
        assert arr.shape == (3, 4)
        expected = run_sweep(SWEEP)
        flat = arr.reshape(-1)
        for i, result in enumerate(expected.results):
            assert flat[i] == result.values["sil2_confidence"]

    def test_pin_every_axis_yields_scalar_cell(self, tmp_path):
        path, _s, _m = materialise(tmp_path, tile_scenarios=3)
        store = TileStore.open(path)
        sl = store.slice(required_confidence=0.9, sigma=1.1)
        assert sl.shape == ()
        rows = list(sl.records())
        assert len(rows) == 1
        assert rows[0]["sigma"] == 1.1

    def test_slice_executes_zero_chunks(self, tmp_path):
        path, _s, _m = materialise(tmp_path, tile_scenarios=3)
        enable_metrics(reset=True)
        try:
            store = TileStore.open(path)
            store.slice(columns=["granted_level"], sigma=0.9)
            snapshot = metrics.snapshot()
            assert snapshot.get("engine.chunks", {}).get("value", 0) == 0
            assert snapshot["store.tiles_read"]["value"] > 0
        finally:
            disable_metrics()

    def test_unknown_axis_value_and_column_errors(self, tmp_path):
        path, _s, _m = materialise(tmp_path, tile_scenarios=3)
        store = TileStore.open(path)
        with pytest.raises(DomainError, match="no axis"):
            store.slice(nope=1)
        with pytest.raises(DomainError, match="no value"):
            store.slice(sigma=0.8)
        with pytest.raises(DomainError, match="unknown columns"):
            store.slice(columns=["nope"])

    def test_dtypes_are_per_column(self, tmp_path):
        path, _s, _m = materialise(tmp_path, tile_scenarios=3)
        store = TileStore.open(path)
        columns = store.columns
        assert columns["sil2_confidence"] == "float64"
        assert columns["granted_level"] == "int64"
        assert store.column("granted_level").dtype == np.dtype("int64")

    def test_open_rejects_non_store_directory(self, tmp_path):
        with pytest.raises(DomainError, match="no manifest"):
            TileStore.open(str(tmp_path))

    def test_stats_totals_match_blob_sizes(self, tmp_path):
        path, _s, _m = materialise(tmp_path, tile_scenarios=3)
        store = TileStore.open(path)
        stats = store.stats()
        on_disk = 0
        tiles_root = os.path.join(path, "tiles")
        for tile_dir in os.listdir(tiles_root):
            for blob in os.listdir(os.path.join(tiles_root, tile_dir)):
                on_disk += os.path.getsize(
                    os.path.join(tiles_root, tile_dir, blob))
        assert stats["bytes"] == on_disk
        assert sum(c["bytes"] for c in stats["columns"].values()) == on_disk


class TestRowSinkParity:
    def test_tile_sink_coexists_with_jsonl(self, tmp_path):
        path = str(tmp_path / "store")
        rows_path = tmp_path / "rows.jsonl"
        run_sweep_streaming(
            SWEEP,
            sinks=(JsonlSink(str(rows_path)), TileSink(path)),
        )
        store = TileStore.open(path)
        lines = rows_path.read_text().strip().splitlines()
        assert len(lines) == store.n_scenarios == 12
