"""The store's declared column schema (since store version 2).

Every tile stores each column in the dtype its pipeline declares, with
``None`` as the declared nodata value, and the manifest records both:
a granted SIL is int64 in every tile, and a slice gives back ``2`` and
``None`` where the rows held them.  Stores written in another version
are refused by readers, and ``delta=True`` rebuilds them from scratch.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.engine import SweepSpec, run_sweep, run_sweep_streaming
from repro.errors import DomainError
from repro.store import TileSink, TileStore
from repro.store.format import STORE_VERSION, blob_path

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
        assert manifest["version"] == STORE_VERSION == 3
        columns = {meta["name"]: meta for meta in manifest["columns"]}
        for name in ("granted_level", "mean_level"):
            assert columns[name]["dtype"] == "int64"
            assert columns[name]["nodata"] == "-1"
            for record in manifest["tiles"]:
                assert record["columns"][name]["dtype"] == "int64"
                blob = np.load(blob_path(
                    path, record["columns"][name]["sha256"]
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


def dump_manifest(path, manifest):
    with open(os.path.join(path, "manifest.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=1)


class TestStoreVersion:
    def _downgrade(self, path):
        manifest = manifest_of(path)
        manifest["version"] = 1
        dump_manifest(path, manifest)

    def _as_version_two(self, path):
        """Lay the store out as version 2 wrote it: one directory per
        tile, one blob per column named after it in a ``file`` key."""
        manifest = manifest_of(path)
        v2_tiles = os.path.join(path, "v2-tiles")
        for meta in manifest["columns"]:
            meta["file"] = f"{meta['name']}.npy"
        for record in manifest["tiles"]:
            tile_dir = os.path.join(v2_tiles, f"{record['index']:06d}")
            os.makedirs(tile_dir)
            for name, col in record["columns"].items():
                col["file"] = f"{name}.npy"
                shutil.copy(blob_path(path, col["sha256"]),
                            os.path.join(tile_dir, col["file"]))
        shutil.rmtree(os.path.join(path, "tiles"))
        os.rename(v2_tiles, os.path.join(path, "tiles"))
        manifest["version"] = 2
        dump_manifest(path, manifest)

    def test_version_one_store_is_refused(self, tmp_path, capsys):
        path = str(tmp_path / "store")
        write(path)
        self._downgrade(path)
        with pytest.raises(DomainError) as excinfo:
            TileStore.open(path)
        message = str(excinfo.value)
        assert "version 1" in message and "version 3" in message
        assert "delta=True" in message and "--delta" in message
        assert main(["store", "stats", path]) == 2
        assert "version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [1, 2],
                             ids=["version-1", "version-2"])
    def test_delta_rebuilds_an_older_store(self, tmp_path, version):
        path, scratch = str(tmp_path / "store"), str(tmp_path / "scratch")
        write(path)
        if version == 1:
            self._downgrade(path)
        else:
            self._as_version_two(path)
            assert os.listdir(os.path.join(path, "tiles", "000000"))
        with pytest.raises(DomainError) as excinfo:
            TileStore.open(path)
        message = str(excinfo.value)
        assert f"version {version}" in message and "version 3" in message
        meta = write(path, delta=True)
        assert meta["tiles_executed"] == meta["tiles_total"] == 2
        assert meta["tiles_skipped"] == meta["tiles_moved"] == 0
        assert not os.path.exists(os.path.join(path, "tiles", "000000"))
        write(scratch)
        assert store_bytes(path) == store_bytes(scratch)
