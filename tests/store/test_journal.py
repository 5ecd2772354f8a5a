"""Tests for the tile store's journal: a killed run is a partial store.

While a run writes, ``journal.jsonl`` names every tile whose blobs are
in place.  A run stopped after k of n tiles therefore leaves no
manifest (readers refuse it) but a journal of k records, and
``delta=True`` finishes it by executing only the n − k uncommitted
tiles — into a store byte-identical to an uninterrupted one.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.engine import SweepSpec, run_sweep_streaming
from repro.errors import DomainError
from repro.store import TileSink, TileStore, TileWriter
from repro.store.format import read_journal


def sweep_over(sigmas=(0.7, 0.9, 1.1, 1.3), seed=None):
    return SweepSpec(
        pipeline="sil_classification",
        base={"mode": 0.003},
        grid={"sigma": list(sigmas),
              "required_confidence": [0.6, 0.75, 0.9]},
        seed=seed,
    )


SWEEP = sweep_over()
TILE = 2          # 12 scenarios in tiles of 2
N_TILES = 6

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


class Killed(Exception):
    """Stands in for the process dying inside a tile write."""


def store_bytes(path):
    """Every file in the store, relative path -> bytes."""
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                out[os.path.relpath(full, path)] = handle.read()
    return out


def run(path, sweep=SWEEP, **kwargs):
    return run_sweep_streaming(
        sweep, sinks=(TileSink(path, tile_scenarios=TILE),), **kwargs
    )


def run_killed(monkeypatch, path, k, sweep=SWEEP, **kwargs):
    """Run into ``path``, dying once ``k`` tiles have committed."""
    original = TileWriter.write_tile
    written = []

    def write_tile(self, *args, **kw):
        if len(written) == k:
            raise Killed
        written.append(original(self, *args, **kw))
        return written[-1]

    with monkeypatch.context() as patch:
        patch.setattr(TileWriter, "write_tile", write_tile)
        with pytest.raises(Killed):
            run(path, sweep, **kwargs)


@pytest.fixture
def reference(tmp_path):
    path = str(tmp_path / "reference")
    run(path)
    return store_bytes(path)


KILLS = [pytest.param({}, id="single"),
         pytest.param({"shards": 2, "chunk_size": 2}, id="shards2")]


class TestKilledRun:
    @pytest.mark.parametrize("kwargs", KILLS)
    def test_leaves_a_journal_but_no_manifest(self, tmp_path, monkeypatch,
                                              kwargs):
        path = str(tmp_path / "store")
        run_killed(monkeypatch, path, 4, **kwargs)
        assert not os.path.exists(os.path.join(path, "manifest.json"))
        with pytest.raises(DomainError, match="not a tile store"):
            TileStore.open(path)
        assert [r["index"] for r in read_journal(path)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("kwargs", KILLS)
    def test_delta_executes_only_uncommitted_tiles(
        self, tmp_path, monkeypatch, reference, kwargs
    ):
        path = str(tmp_path / "store")
        run_killed(monkeypatch, path, 4, **kwargs)
        meta = run(path, delta=True)
        assert meta["tiles_skipped"] == 4
        assert meta["tiles_executed"] == N_TILES - 4
        assert meta["tiles_moved"] == 0
        assert store_bytes(path) == reference

    def test_delta_finishes_a_killed_delta(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store")
        run(path, sweep_over(seed=1))
        # A new seed invalidates every tile, so the delta executes all
        # six; it dies after committing four of them.
        reseeded = sweep_over(seed=2)
        run_killed(monkeypatch, path, 4, reseeded, delta=True)
        with pytest.raises(DomainError, match="not a tile store"):
            TileStore.open(path)
        assert len(read_journal(path)) == 4
        meta = run(path, reseeded, delta=True)
        assert meta["tiles_skipped"] == 4
        assert meta["tiles_executed"] == N_TILES - 4
        scratch = str(tmp_path / "scratch")
        run(scratch, reseeded)
        assert store_bytes(path) == store_bytes(scratch)

    def test_torn_last_line_reexecutes_only_that_tile(
        self, tmp_path, monkeypatch, reference
    ):
        path = str(tmp_path / "store")
        run_killed(monkeypatch, path, 4)
        journal = os.path.join(path, "journal.jsonl")
        with open(journal, "rb+") as handle:
            handle.truncate(os.path.getsize(journal) - 30)
        assert len(read_journal(path)) == 3
        meta = run(path, delta=True)
        assert meta["tiles_skipped"] == 3
        assert meta["tiles_executed"] == N_TILES - 3
        assert store_bytes(path) == reference

    def test_full_run_over_a_partial_store_starts_afresh(
        self, tmp_path, monkeypatch, reference
    ):
        path = str(tmp_path / "store")
        run_killed(monkeypatch, path, 4)
        # A full run restarts the journal: killed after one tile, it
        # leaves one committed tile, not the first run's four.
        run_killed(monkeypatch, path, 1)
        assert len(read_journal(path)) == 1
        sink = TileSink(path, tile_scenarios=TILE)
        run_sweep_streaming(SWEEP, sinks=(sink,))
        assert sink.writer.tiles_written == N_TILES
        assert store_bytes(path) == reference

    def test_hard_kill_is_finished_by_delta(self, tmp_path, reference):
        # The process dies without unwinding (no finally, no close)
        # while executing scenario 6, after tiles 0-2 committed.
        path = str(tmp_path / "store")
        script = (
            "import os\n"
            "from repro.engine import SweepSpec, get_pipeline, "
            "run_sweep_streaming\n"
            "from repro.store import TileSink\n"
            "pipeline = get_pipeline('sil_classification')\n"
            "original = pipeline.run_batch\n"
            "def run_batch(items):\n"
            "    params = items[0][0]\n"
            "    if (params['sigma'], params['required_confidence']) "
            "== (1.1, 0.75):\n"
            "        os._exit(9)\n"
            "    return original(items)\n"
            "pipeline.run_batch = run_batch\n"
            f"run_sweep_streaming(SweepSpec.from_dict({SWEEP.to_dict()!r}),"
            f" sinks=(TileSink({path!r}, tile_scenarios={TILE}),),"
            " chunk_size=1)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 9, done.stderr
        assert not os.path.exists(os.path.join(path, "manifest.json"))
        assert len(read_journal(path)) == 3
        meta = run(path, delta=True)
        assert meta["tiles_skipped"] == 3
        assert meta["tiles_executed"] == N_TILES - 3
        assert store_bytes(path) == reference


class TestFinishedStore:
    @pytest.mark.parametrize("how", ["full", "sharded", "delta",
                                     "finished-after-kill"])
    def test_holds_only_manifest_and_blobs(self, tmp_path, monkeypatch,
                                           how):
        path = str(tmp_path / "store")
        if how == "full":
            run(path)
        elif how == "sharded":
            run(path, shards=2, chunk_size=2)
        elif how == "delta":
            run(path)
            run(path, sweep_over(sigmas=(0.7, 0.9, 1.1, 1.4)), delta=True)
        else:
            run_killed(monkeypatch, path, 3)
            run(path, delta=True)
        files = sorted(name.replace(os.sep, "/")
                       for name in store_bytes(path))
        assert files[0] == "manifest.json"
        assert files[1:] and all(
            re.fullmatch(r"tiles/\d{6}/[^/]+\.npy", name)
            for name in files[1:]
        ), files


class TestReadJournal:
    def test_missing_journal_has_no_records(self, tmp_path):
        assert read_journal(str(tmp_path)) == []

    def test_only_newline_terminated_lines_count(self, tmp_path):
        (tmp_path / "journal.jsonl").write_text(
            '{"index": 0}\n{"index": 1}\n{"ind'
        )
        assert read_journal(str(tmp_path)) == [{"index": 0}, {"index": 1}]

    def test_corrupt_complete_line_is_refused(self, tmp_path):
        (tmp_path / "journal.jsonl").write_text('{"index": 0}\nnot json\n')
        with pytest.raises(DomainError, match="corrupt"):
            read_journal(str(tmp_path))
