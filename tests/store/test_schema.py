"""The store's declared column schema (store version 2).

Every tile stores each column in the dtype its pipeline declares, with
``None`` as the declared nodata value, and the manifest records both:
a granted SIL is int64 in every tile, and a slice gives back ``2`` and
``None`` where the rows held them.  Stores written in another version
are refused by readers, and ``delta=True`` rebuilds them from scratch.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.engine import SweepSpec, run_sweep, run_sweep_streaming
from repro.errors import DomainError
from repro.store import TileSink, TileStore
from repro.store.format import STORE_VERSION

#: Tile 0 grants SIL 2, 2, 2, 1; tile 1 grants 1 and then no SIL at all.
SWEEP = SweepSpec(
    pipeline="sil_classification",
    base={"mode": 0.003},
    grid={"sigma": [0.3, 0.5, 0.7, 0.9, 1.1, 2.0, 2.5, 3.0]},
)


def store_bytes(path):
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                out[os.path.relpath(full, path)] = handle.read()
    return out


def write(path, **kwargs):
    return run_sweep_streaming(
        SWEEP, sinks=(TileSink(path, tile_scenarios=4),), **kwargs
    )


def manifest_of(path):
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as f:
        return json.load(f)


class TestDeclaredDtypes:
    def test_levels_are_int64_in_every_tile_and_the_manifest(self, tmp_path):
        path = str(tmp_path / "store")
        write(path)
        manifest = manifest_of(path)
        assert manifest["version"] == STORE_VERSION == 2
        columns = {meta["name"]: meta for meta in manifest["columns"]}
        for name in ("granted_level", "mean_level"):
            assert columns[name]["dtype"] == "int64"
            assert columns[name]["nodata"] == "-1"
            for record in manifest["tiles"]:
                assert record["columns"][name]["dtype"] == "int64"
                blob = np.load(os.path.join(
                    path, "tiles", f"{record['index']:06d}",
                    record["columns"][name]["file"],
                ))
                assert blob.dtype == np.int64
        assert columns["mode_value"]["nodata"] is None

    def test_slice_records_give_back_ints_and_none(self, tmp_path):
        path = str(tmp_path / "store")
        write(path)
        rows = run_sweep(SWEEP)
        records = list(TileStore.open(path).slice().records())
        for name in ("granted_level", "mean_level"):
            got = [record[name] for record in records]
            assert got == [row.values[name] for row in rows]
            assert all(value is None or type(value) is int for value in got)
        assert [record["granted_level"] for record in records] == [
            2, 2, 2, 1, 1, None, None, None
        ]

    def test_slice_data_holds_the_nodata_value(self, tmp_path):
        path = str(tmp_path / "store")
        write(path)
        granted = TileStore.open(path).column("granted_level")
        assert granted.dtype == np.int64
        assert granted.tolist() == [2, 2, 2, 1, 1, -1, -1, -1]


class TestStoreVersion:
    def _downgrade(self, path):
        manifest = manifest_of(path)
        manifest["version"] = 1
        with open(os.path.join(path, "manifest.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=1)

    def test_version_one_store_is_refused(self, tmp_path, capsys):
        path = str(tmp_path / "store")
        write(path)
        self._downgrade(path)
        with pytest.raises(DomainError) as excinfo:
            TileStore.open(path)
        message = str(excinfo.value)
        assert "version 1" in message and "version 2" in message
        assert "delta=True" in message and "--delta" in message
        assert main(["store", "stats", path]) == 2
        assert "version 1" in capsys.readouterr().err

    def test_delta_rebuilds_a_version_one_store(self, tmp_path):
        path, scratch = str(tmp_path / "store"), str(tmp_path / "scratch")
        write(path)
        self._downgrade(path)
        meta = write(path, delta=True)
        assert meta["tiles_executed"] == meta["tiles_total"] == 2
        assert meta["tiles_skipped"] == meta["tiles_moved"] == 0
        write(scratch)
        assert store_bytes(path) == store_bytes(scratch)
