"""Tests for plan sharding and the multi-process sweep coordinator.

The load-bearing guarantees:

* **Shard invariant** — ``concat(plan.shard(i, k) for i in 0..k) ==
  plan`` for *any* k: same scenarios, same seeds, same absolute chunk
  indices.  Checked exhaustively on fixed plans and by hypothesis on
  random layouts.
* **Bit-identical distribution** — a k-shard multi-process run writes
  byte-for-byte the single-process JSONL stream, for deterministic and
  sampling pipelines alike.
* **Crash tolerance** — a worker that dies mid-shard is replaced
  (bounded retry) with no lost or duplicated rows.  Pipeline *errors*
  propagate immediately.  (A killed coordinator is finished through
  the tile store's journal; see ``tests/store/test_journal.py``.)
"""

import hashlib
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    JsonlSink,
    MemorySink,
    Pipeline,
    SweepSpec,
    lower,
    register,
    run_sweep_sharded,
    run_sweep_streaming,
    stream_results,
)
from repro.engine.plan import PlanShard
from repro.errors import DomainError

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


class _AlwaysCrashPipeline(Pipeline):
    """Dies hard every time it sees ``crash_at`` — exhausts retries."""

    name = "test_always_crash"
    defaults = {"i": 0, "crash_at": -1}

    def run(self, params, seed=None):
        merged = self.resolve(params)
        if merged["i"] == merged["crash_at"]:
            os._exit(9)
        return {"doubled": float(merged["i"]) * 2.0}


class _BoomPipeline(Pipeline):
    """Raises a deterministic pipeline error at one scenario."""

    name = "test_boom"
    defaults = {"i": 0, "boom_at": -1}

    def run(self, params, seed=None):
        merged = self.resolve(params)
        if merged["i"] == merged["boom_at"]:
            raise ValueError("boom from worker")
        return {"doubled": float(merged["i"]) * 2.0}


register(_CrashOncePipeline())
register(_AlwaysCrashPipeline())
register(_BoomPipeline())


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


class TestShardRanges:
    """Shard chunk ranges come from ``ExecutionPlan.shard``; the
    partition cases live in ``TestPlanShard``."""

    def test_invalid_count_rejected(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        with pytest.raises(DomainError):
            plan.shard(0, 0)
        with pytest.raises(DomainError):
            plan.shard(0, -2)


class TestPlanShard:
    def test_concat_of_shards_is_the_whole_plan(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        for k in (1, 2, 3, 4, 7):
            scenarios = []
            seeds = []
            for i in range(k):
                shard = plan.shard(i, k)
                assert shard.parent_fingerprint == plan.fingerprint()
                for chunk in shard.chunks():
                    scenarios.extend(
                        s.params for s in plan.chunk_scenarios(chunk)
                    )
                    seeds.extend(
                        s.seed for s in plan.chunk_scenarios(chunk)
                    )
            whole = [s.params for c in plan.chunks()
                     for s in plan.chunk_scenarios(c)]
            whole_seeds = [s.seed for c in plan.chunks()
                          for s in plan.chunk_scenarios(c)]
            assert scenarios == whole, f"k={k}"
            assert seeds == whole_seeds, f"k={k}"

    def test_shard_chunks_keep_absolute_indices(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)  # chunks 0,1,2
        shard = plan.shard(1, 2)
        absolute = [chunk.index for chunk in shard.chunks()]
        assert absolute == list(range(shard.start_chunk, shard.stop_chunk))
        assert all(index >= shard.start_chunk for index in absolute)
        # The shard's view of a chunk is the parent's chunk, verbatim.
        for chunk in shard.chunks():
            assert chunk == plan.chunk(chunk.index)

    def test_shards_split_chunks_contiguously(self):
        plan = lower(_demands_sweep(10), chunk_size=1)
        assert [
            (shard.start_chunk, shard.stop_chunk)
            for shard in (plan.shard(i, 3) for i in range(3))
        ] == [(0, 3), (3, 6), (6, 10)]

    def test_more_shards_than_chunks_gives_empty_shards(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=6)  # 2 chunks
        shards = [plan.shard(i, 5) for i in range(5)]
        assert sorted(shard.n_chunks for shard in shards) == [0, 0, 0, 1, 1]
        assert shards[0].start_chunk == 0 and shards[-1].stop_chunk == 2

    @given(
        n_chunks=st.integers(min_value=1, max_value=500),
        count=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_shards_partition_near_equally(self, n_chunks, count):
        plan = lower(_demands_sweep(n_chunks), chunk_size=1)
        shards = [plan.shard(i, count) for i in range(count)]
        assert shards[0].start_chunk == 0
        assert shards[-1].stop_chunk == n_chunks
        for left, right in zip(shards, shards[1:]):
            assert left.stop_chunk == right.start_chunk
        widths = [shard.n_chunks for shard in shards]
        assert max(widths) - min(widths) <= 1

    def test_seeded_shards_carry_the_absolute_seed_window(self):
        plan = lower(PANEL_SWEEP, chunk_size=3)
        whole_seeds = [s.seed for c in plan.chunks()
                       for s in plan.chunk_scenarios(c)]
        sharded = [s.seed for i in range(3)
                   for c in plan.shard(i, 3).chunks()
                   for s in plan.chunk_scenarios(c)]
        assert sharded == whole_seeds

    def test_invalid_sharding_rejected(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        with pytest.raises(DomainError):
            plan.shard(0, 0)
        with pytest.raises(DomainError):
            plan.shard(3, 3)
        with pytest.raises(DomainError):
            plan.shard(-1, 2)
        with pytest.raises(DomainError):
            plan.shard(0, 2).shard(0, 2)  # no shards of shards

    def test_shard_counts(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)  # 12 scenarios
        shard = plan.shard(2, 3)
        assert isinstance(shard, PlanShard)
        assert shard.n_chunks == shard.stop_chunk - shard.start_chunk
        assert shard.n_scenarios == shard.stop - shard.start
        total = sum(plan.shard(i, 3).n_scenarios for i in range(3))
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
            for i in range(k)
            for chunk_rows in stream_results(
                plan.shard(i, k), backend="vectorized"
            )
            for r in chunk_rows
        ]
        assert sharded == whole

    def test_plan_pickles_and_reresolves_pipeline(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        clone = pickle.loads(pickle.dumps(plan.shard(1, 2)))
        assert clone.pipeline_name == "survival_update"
        assert clone.pipeline is not None
        assert [c.index for c in clone.chunks()] == [
            c.index for c in plan.shard(1, 2).chunks()
        ]


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
        meta = run_sweep_sharded(
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
        run_sweep_sharded(
            PANEL_SWEEP, shards=3, chunk_size=3,
            sinks=(JsonlSink(str(out)),),
        )
        assert _file_hash(out) == reference

    def test_memory_sink_round_trips_results(self):
        sink = MemorySink()
        meta = run_sweep_sharded(
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
        run_sweep_sharded(
            SURVIVAL_SWEEP, shards=2, chunk_size=5,
            sinks=(JsonlSink(str(tmp_path / "o.jsonl")),),
            progress=lambda *args: calls.append(args),
        )
        assert calls[-1] == (3, 3, 12, 12)
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(DomainError):
            run_sweep_sharded(SURVIVAL_SWEEP, shards=0)

    def test_max_workers_rejected_with_shards(self):
        # One worker process per shard: a worker count would be
        # silently dropped, so it is refused.
        with pytest.raises(DomainError, match="max_workers"):
            run_sweep_streaming(
                SURVIVAL_SWEEP, shards=2, max_workers=7,
                sinks=(MemorySink(),),
            )


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
        meta = run_sweep_sharded(
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
            run_sweep_sharded(
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
            run_sweep_sharded(
                sweep, shards=2, chunk_size=2, sinks=(MemorySink(),)
            )
        assert "boom from worker" in str(excinfo.value)
