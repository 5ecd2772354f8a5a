"""Tests for plan windows, shards and the multi-process sweep coordinator.

The load-bearing guarantees:

* **Shard invariant** — ``concat(plan.window().split(k)) == plan`` for
  *any* k: same scenarios, same seeds, same absolute chunk indices.
  Checked exhaustively on fixed plans and by hypothesis on random
  layouts (in-process: no worker is spawned inside a hypothesis loop).
* **Bit-identical distribution** — a k-shard multi-process run writes
  byte-for-byte the single-process output, for collected, JSONL, CSV
  and tile-store runs, deterministic and sampling pipelines, grid and
  explicit scenario lists, and sweeps with fewer chunks than shards.
* **Crash tolerance** — a worker that dies mid-shard is replaced
  (bounded retry) with no lost or duplicated rows.  Pipeline *errors*
  propagate immediately, naming the pipeline and the failing chunk's
  scenarios.  (A killed coordinator is finished through the tile
  store's journal; see ``tests/store/test_journal.py``.)
"""

import hashlib
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Column,
    CsvSink,
    JsonlSink,
    MemorySink,
    Pipeline,
    PlanWindow,
    SweepSpec,
    lower,
    register,
    run_sweep,
    run_sweep_streaming,
    stream_results,
)
from repro.errors import DomainError
from repro.store import TileSink

SURVIVAL_SWEEP = SweepSpec(
    pipeline="survival_update",
    base={"mode": 0.003, "bound": 1e-2, "points_per_decade": 30},
    grid={"sigma": [0.7, 0.9, 1.1], "demands": [0, 10, 100, 1000]},
)

PANEL_SWEEP = SweepSpec(
    pipeline="panel_run",
    grid={"n_doubters": [0, 1, 2, 3, 4], "pool": ["linear", "log"]},
    seed=42,
)


class _CrashOncePipeline(Pipeline):
    """Dies hard (``os._exit``) the first time it sees ``crash_at``.

    A flag file arms the crash: the first worker process to execute the
    marked scenario removes the flag and exits without cleanup —
    indistinguishable from an OOM kill — so the respawned worker runs
    the same scenario to completion.  Workers inherit this in-process
    registration through the default ``fork`` start method.
    """

    name = "test_crash_once"
    defaults = {"i": 0, "crash_at": -1, "flag": ""}

    def run(self, params, seed=None):
        merged = self.resolve(params)
        if merged["i"] == merged["crash_at"] and merged["flag"]:
            try:
                os.remove(merged["flag"])
            except FileNotFoundError:
                pass  # already crashed once; run normally
            else:
                os._exit(9)
        return {"doubled": float(merged["i"]) * 2.0}

    def columns(self, config):
        return (Column("doubled"),)


class _AlwaysCrashPipeline(Pipeline):
    """Dies hard every time it sees ``crash_at`` — exhausts retries."""

    name = "test_always_crash"
    defaults = {"i": 0, "crash_at": -1}

    def run(self, params, seed=None):
        merged = self.resolve(params)
        if merged["i"] == merged["crash_at"]:
            os._exit(9)
        return {"doubled": float(merged["i"]) * 2.0}

    def columns(self, config):
        return (Column("doubled"),)


class _BoomPipeline(Pipeline):
    """Raises a deterministic pipeline error at one scenario."""

    name = "test_boom"
    defaults = {"i": 0, "boom_at": -1}

    def run(self, params, seed=None):
        merged = self.resolve(params)
        if merged["i"] == merged["boom_at"]:
            raise ValueError("boom from worker")
        return {"doubled": float(merged["i"]) * 2.0}

    def columns(self, config):
        return (Column("doubled"),)


class _MarkPipeline(Pipeline):
    """Deterministic rows; each executing process touches a file named
    after its pid in ``marks``, so tests can see which processes ran."""

    name = "test_shard_mark"
    defaults = {"i": 0, "marks": ""}

    def run(self, params, seed=None):
        merged = self.resolve(params)
        if merged["marks"]:
            open(os.path.join(merged["marks"], str(os.getpid())), "a").close()
        return {"doubled": float(merged["i"]) * 2.0}

    def columns(self, config):
        return (Column("doubled"),)


register(_CrashOncePipeline())
register(_AlwaysCrashPipeline())
register(_BoomPipeline())
register(_MarkPipeline())


def _demands_sweep(n):
    """A survival sweep of ``n`` scenarios (one chunk each at size 1)."""
    return SweepSpec(
        pipeline="survival_update",
        base={"mode": 0.003, "sigma": 0.9, "bound": 1e-2},
        grid={"demands": list(range(n))},
    )


def _file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _reference_file(sweep, path, chunk_size=None):
    run_sweep_streaming(
        sweep, sinks=(JsonlSink(str(path)),), chunk_size=chunk_size
    )
    return _file_hash(path)


def _shards(plan, count):
    """The ``count`` shard windows of the whole plan."""
    return plan.window().split(count)


def _window_scenarios(plan, window):
    return [s for c in window.chunks() for s in plan.batch(c).specs()]


class TestShardRanges:
    """Shard ranges come from ``PlanWindow.split``; the partition cases
    live in ``TestPlanShard``."""

    def test_invalid_count_rejected(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        with pytest.raises(DomainError):
            _shards(plan, 0)
        with pytest.raises(DomainError):
            _shards(plan, -2)


class TestPlanShard:
    """Plan shards: the windows ``plan.window().split(k)`` a sharded run
    hands its workers."""

    def test_concat_of_shards_is_the_whole_plan(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        whole = [(s.params, s.seed) for c in plan.chunks()
                 for s in plan.batch(c).specs()]
        for k in (1, 2, 3, 4, 7):
            sharded = []
            for shard in _shards(plan, k):
                assert shard.plan is plan
                sharded.extend((s.params, s.seed)
                               for s in _window_scenarios(plan, shard))
            assert sharded == whole, f"k={k}"

    def test_shard_chunks_keep_absolute_indices(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)  # chunks 0,1,2
        shard = _shards(plan, 2)[1]                 # scenarios [6, 12)
        assert shard.ranges == ((6, 12),)
        # Pieces of the plan's chunks, cut at the shard boundary, with
        # the plan's chunk indices.
        assert list(shard.chunks()) == [
            type(plan.chunk(1))(1, 6, 10), plan.chunk(2),
        ]
        for chunk in shard.chunks():
            whole = plan.chunk(chunk.index)
            assert whole.start <= chunk.start < chunk.stop <= whole.stop

    def test_shards_split_chunks_contiguously(self):
        plan = lower(_demands_sweep(10), chunk_size=1)
        assert [
            shard.ranges for shard in _shards(plan, 3)
        ] == [((0, 3),), ((3, 6),), ((6, 10),)]

    def test_more_shards_than_chunks_still_fill_every_shard(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=6)  # 2 chunks
        shards = _shards(plan, 5)
        assert [shard.n_scenarios for shard in shards] == [2, 2, 3, 2, 3]
        assert shards[0].ranges[0][0] == 0
        assert shards[-1].ranges[-1][1] == 12

    @given(
        n_scenarios=st.integers(min_value=1, max_value=500),
        count=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_shards_partition_near_equally(self, n_scenarios,
                                                    count):
        plan = lower(_demands_sweep(n_scenarios), chunk_size=7)
        shards = _shards(plan, count)
        covered = [r for shard in shards for r in shard.ranges]
        assert covered[0][0] == 0 and covered[-1][1] == n_scenarios
        for left, right in zip(covered, covered[1:]):
            assert left[1] == right[0]
        widths = [shard.n_scenarios for shard in shards]
        assert max(widths) - min(widths) <= 1

    def test_seeded_shards_carry_the_absolute_seed_window(self):
        plan = lower(PANEL_SWEEP, chunk_size=3)
        whole_seeds = [s.seed for c in plan.chunks()
                       for s in plan.batch(c).specs()]
        sharded = [s.seed for shard in _shards(plan, 3)
                   for s in _window_scenarios(plan, shard)]
        assert sharded == whole_seeds

    def test_invalid_sharding_rejected(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        with pytest.raises(DomainError):
            _shards(plan, 0)
        with pytest.raises(DomainError):
            plan.window([(4, 2)])           # backwards
        with pytest.raises(DomainError):
            plan.window([(0, 5), (3, 8)])   # overlapping
        with pytest.raises(DomainError):
            plan.window([(10, 13)])         # past the plan
        with pytest.raises(DomainError):
            plan.window().take(3, 13)

    def test_shard_counts(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)  # 12 scenarios
        shard = _shards(plan, 3)[2]
        assert isinstance(shard, PlanWindow)
        assert shard.n_scenarios == 4 and shard.n_chunks == 2
        assert len(list(shard.chunks())) == shard.n_chunks
        total = sum(s.n_scenarios for s in _shards(plan, 3))
        assert total == plan.n_scenarios

    @given(
        n_sigmas=st.integers(min_value=1, max_value=5),
        n_demands=st.integers(min_value=1, max_value=6),
        chunk_size=st.integers(min_value=1, max_value=10),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_any_sharding_is_bit_identical(
        self, n_sigmas, n_demands, chunk_size, k
    ):
        sweep = SweepSpec(
            pipeline="panel_run",
            grid={
                "n_doubters": list(range(n_sigmas)),
                "n_experts": [5 + i for i in range(n_demands)],
            },
            seed=2007,
        )
        plan = lower(sweep, chunk_size=chunk_size)
        whole = [
            (r.spec.params, r.spec.seed, r.values)
            for chunk_rows in stream_results(plan, backend="vectorized")
            for r in chunk_rows
        ]
        sharded = [
            (r.spec.params, r.spec.seed, r.values)
            for shard in _shards(plan, k)
            for chunk_rows in stream_results(shard, backend="vectorized")
            for r in chunk_rows
        ]
        assert sharded == whole

    def test_plan_pickles_and_reresolves_pipeline(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        shard = _shards(plan, 2)[1]
        clone = pickle.loads(pickle.dumps(shard))
        assert clone.plan.pipeline_name == "survival_update"
        assert clone.plan.pipeline is not None
        assert list(clone.chunks()) == list(shard.chunks())


class TestPlanWindow:
    def test_ranges_merge_and_empty_ranges_drop(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        window = plan.window([(0, 2), (2, 4), (4, 4), (8, 12)])
        assert window.ranges == ((0, 4), (8, 12))
        assert window.n_scenarios == 8

    def test_take_counts_positions_along_the_window(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        window = plan.window([(1, 3), (6, 11)])     # 7 scenarios
        assert window.take(1, 5).ranges == ((2, 3), (6, 9))
        assert window.take(0, 7).ranges == window.ranges
        assert window.take(3, 3).n_scenarios == 0

    def test_split_of_a_multi_range_window_concatenates(self):
        plan = lower(PANEL_SWEEP, chunk_size=3)
        window = plan.window([(0, 2), (5, 9)])
        pieces = window.split(3)
        assert [s.seed for p in pieces
                for s in _window_scenarios(plan, p)] == [
            s.seed for s in _window_scenarios(plan, window)
        ]

    def test_stream_of_a_window_is_its_slice_of_the_plan(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        whole = [r.values for rows in stream_results(plan) for r in rows]
        window = plan.window([(3, 7), (9, 12)])
        assert [len(rows) for rows in stream_results(window)] == [2, 2,
                                                                  1, 2]
        assert [r.values for rows in stream_results(window)
                for r in rows] == whole[3:7] + whole[9:12]


class TestFingerprint:
    def test_stable_and_sensitive(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        again = lower(SURVIVAL_SWEEP, chunk_size=5)
        assert plan.fingerprint() == again.fingerprint()
        assert plan.fingerprint() != lower(
            SURVIVAL_SWEEP, chunk_size=4
        ).fingerprint()
        reseeded = SweepSpec(
            pipeline=SURVIVAL_SWEEP.pipeline,
            base=dict(SURVIVAL_SWEEP.base),
            grid={k: list(v) for k, v in SURVIVAL_SWEEP.grid.items()},
            seed=99,
        )
        assert plan.fingerprint() != lower(
            reseeded, chunk_size=5
        ).fingerprint()


class TestShardedRuns:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_sharded_jsonl_is_byte_identical(self, tmp_path, shards):
        reference = _reference_file(
            SURVIVAL_SWEEP, tmp_path / "ref.jsonl", chunk_size=2
        )
        out = tmp_path / "out.jsonl"
        meta = run_sweep_streaming(
            SURVIVAL_SWEEP, shards=shards, chunk_size=2,
            sinks=(JsonlSink(str(out)),),
        )
        assert _file_hash(out) == reference
        assert meta["rows"] == 12
        assert meta["shards"] == shards
        assert meta["retries"] == 0
        assert meta["backend"].startswith(f"shards({shards}):")
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "ref.jsonl"]

    def test_sampling_pipeline_bit_identical_across_processes(
        self, tmp_path
    ):
        reference = _reference_file(
            PANEL_SWEEP, tmp_path / "ref.jsonl", chunk_size=3
        )
        out = tmp_path / "out.jsonl"
        run_sweep_streaming(
            PANEL_SWEEP, shards=3, chunk_size=3,
            sinks=(JsonlSink(str(out)),),
        )
        assert _file_hash(out) == reference

    def test_memory_sink_round_trips_results(self):
        sink = MemorySink()
        meta = run_sweep_streaming(
            SURVIVAL_SWEEP, shards=2, chunk_size=4, sinks=(sink,)
        )
        reference = MemorySink()
        run_sweep_streaming(
            SURVIVAL_SWEEP, sinks=(reference,), chunk_size=4
        )
        assert meta["rows"] == 12
        assert [
            (dict(r.spec.params), r.spec.seed, dict(r.values))
            for r in sink.results
        ] == [
            (dict(r.spec.params), r.spec.seed, dict(r.values))
            for r in reference.results
        ]

    def test_streaming_facade_delegates(self, tmp_path):
        out = tmp_path / "out.jsonl"
        meta = run_sweep_streaming(
            SURVIVAL_SWEEP, shards=2, chunk_size=4,
            sinks=(JsonlSink(str(out)),),
        )
        assert meta["shards"] == 2
        assert meta["backend"].startswith("shards(2):")

    def test_progress_reaches_the_end(self, tmp_path):
        calls = []
        run_sweep_streaming(
            SURVIVAL_SWEEP, shards=2, chunk_size=5,
            sinks=(JsonlSink(str(tmp_path / "o.jsonl")),),
            progress=lambda *args: calls.append(args),
        )
        assert calls[-1] == (3, 3, 12, 12)
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(DomainError):
            run_sweep_streaming(SURVIVAL_SWEEP, shards=0)

    def test_max_workers_rejected_with_shards(self):
        # One worker process per shard, and no other pool: there is no
        # worker count to pass.
        with pytest.raises(TypeError, match="max_workers"):
            run_sweep_streaming(
                SURVIVAL_SWEEP, shards=2, max_workers=7,
                sinks=(MemorySink(),),
            )


def _store_bytes(path):
    """Every file in a tile store, relative path -> bytes."""
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                out[os.path.relpath(full, path)] = handle.read()
    return out


def _outputs(workdir, sweep, shards=None):
    """Collected rows plus JSONL, CSV and tile-store bytes of one sweep
    (three runs: collected, JSONL alone — the encoded-text path — and
    CSV with a store)."""
    os.makedirs(workdir)
    collected = run_sweep(sweep, shards=shards)
    run_sweep_streaming(
        sweep, sinks=(JsonlSink(os.path.join(workdir, "rows.jsonl")),),
        shards=shards,
    )
    store = os.path.join(workdir, "store")
    run_sweep_streaming(
        sweep,
        sinks=(CsvSink(os.path.join(workdir, "rows.csv")),
               TileSink(store, tile_scenarios=4)),
        shards=shards,
    )
    with open(os.path.join(workdir, "rows.jsonl"), "rb") as handle:
        jsonl = handle.read()
    with open(os.path.join(workdir, "rows.csv"), "rb") as handle:
        csv_bytes = handle.read()
    return (
        [(r.spec.params, r.spec.seed, r.values) for r in collected],
        jsonl, csv_bytes, _store_bytes(store),
    )


SEEDED_BBN = SweepSpec(
    pipeline="bbn_query",
    base={"prior": 0.6, "n_samples": 200, "leg1_sensitivity": 0.95,
          "leg1_specificity": 0.9, "leg2_validity": 0.88,
          "leg2_sensitivity": 0.9, "leg2_specificity": 0.85},
    grid={"dependence": [0.0, 0.2, 0.4], "leg1_validity": [0.8, 0.9]},
    seed=7,
)

BIT_IDENTITY_SWEEPS = {
    "deterministic-grid": SURVIVAL_SWEEP,
    "seeded-grid": SEEDED_BBN,
    "seeded-explicit": list(SEEDED_BBN.expand())[::-1],
    # int64 SIL levels with None (no level granted) in two groups.
    "levels-with-none": SweepSpec(
        pipeline="sil_classification", base={"mode": 0.003},
        grid={"sigma": [0.2, 0.9, 2.0, 3.0],
              "scheme": ["low_demand", "high_demand"]},
    ),
    # String columns, NaN nodata and None levels.
    "strings-and-nan": SweepSpec(
        pipeline="do178b_map", base={"mode": 1e-8, "sigma": 1.0},
        grid={"dal": ["A", "B", "C", "D", "E"]},
    ),
}


class TestShardedBitIdentity:
    """Every shard count reproduces single-process ``vectorized`` output
    byte for byte.  These sweeps are one default chunk, fewer chunks
    than shards: the shards split its scenarios."""

    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_SWEEPS))
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_every_output_matches_single_process(self, tmp_path, name,
                                                 shards):
        sweep = BIT_IDENTITY_SWEEPS[name]
        reference = _outputs(str(tmp_path / "single"), sweep)
        assert _outputs(str(tmp_path / "sharded"), sweep,
                        shards=shards) == reference

    def test_fewer_chunks_than_shards_uses_every_worker(self, tmp_path):
        marks = tmp_path / "marks"
        marks.mkdir()
        sweep = SweepSpec(pipeline="test_shard_mark",
                          base={"marks": str(marks)},
                          grid={"i": list(range(9))})
        assert lower(sweep).n_chunks == 1
        reference = run_sweep(SweepSpec(pipeline="test_shard_mark",
                                        grid={"i": list(range(9))}))
        result = run_sweep(sweep, shards=3)
        assert [r.values for r in result] == [r.values for r in reference]
        assert result.meta["n_chunks"] == 1
        pids = set(os.listdir(marks))
        assert len(pids) == 3 and str(os.getpid()) not in pids

    def test_split_chunk_reaches_sinks_whole(self, tmp_path):
        # 12 scenarios in chunks of 5 over 2 shards: the boundary at 6
        # cuts chunk 1, which still reaches every sink as one write.
        class Recorder(MemorySink):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, results):
                self.writes.append(len(results))
                super().write(results)

        sink = Recorder()
        run_sweep_streaming(SURVIVAL_SWEEP, sinks=(sink,), chunk_size=5,
                            shards=2)
        assert sink.writes == [5, 5, 2]


class TestWorkerDeath:
    def _sweep(self, flag, crash_at=7):
        return SweepSpec(
            pipeline="test_crash_once",
            base={"crash_at": crash_at, "flag": str(flag)},
            grid={"i": list(range(12))},
        )

    def test_dead_worker_is_replaced_and_output_is_complete(
        self, tmp_path
    ):
        # Reference uses the *same* params (identical JSONL bytes) but
        # runs before the flag file exists, so nothing crashes here.
        flag = tmp_path / "armed"
        reference = _reference_file(
            self._sweep(flag), tmp_path / "ref.jsonl", chunk_size=2
        )
        flag.write_text("armed")
        out = tmp_path / "out.jsonl"
        meta = run_sweep_streaming(
            self._sweep(flag), shards=2, chunk_size=2,
            sinks=(JsonlSink(str(out)),),
        )
        assert meta["retries"] == 1
        assert meta["rows"] == 12
        assert _file_hash(out) == reference

    def test_retry_budget_exhausts_with_a_clear_error(self):
        # No flag-file guard: every respawned worker dies again at the
        # same scenario, so the bounded retry must give up loudly.
        sweep = SweepSpec(
            pipeline="test_always_crash", base={"crash_at": 5},
            grid={"i": list(range(8))},
        )
        with pytest.raises(DomainError) as excinfo:
            run_sweep_streaming(
                sweep, shards=1, chunk_size=2,
                sinks=(MemorySink(),), max_retries=1,
            )
        assert "died" in str(excinfo.value)
        assert "giving up" in str(excinfo.value)

    def test_pipeline_error_propagates_without_retry(self):
        sweep = SweepSpec(
            pipeline="test_boom", base={"boom_at": 3},
            grid={"i": list(range(8))},
        )
        with pytest.raises(DomainError) as excinfo:
            run_sweep_streaming(
                sweep, shards=2, chunk_size=2, sinks=(MemorySink(),)
            )
        assert "boom from worker" in str(excinfo.value)

    def test_pipeline_error_names_pipeline_and_chunk(self):
        # Scenario 5 fails: shard 1 runs [4, 8) in chunks [4, 6), [6, 8).
        sweep = SweepSpec(
            pipeline="test_boom", base={"boom_at": 5},
            grid={"i": list(range(8))},
        )
        with pytest.raises(DomainError) as excinfo:
            run_sweep(sweep, shards=2, chunk_size=2)
        assert str(excinfo.value) == (
            "shard 1 failed: pipeline 'test_boom', scenarios [4, 6): "
            "ValueError: boom from worker"
        )
