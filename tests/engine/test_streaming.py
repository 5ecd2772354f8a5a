"""Tests for the streaming executor, sinks and out-of-core behaviour.

The load-bearing guarantees:

* **Equivalence** — ``run_sweep_streaming`` reproduces ``run_sweep``
  row for row (values *and* order) for every backend and chunk layout,
  checked exhaustively on fixed sweeps and by hypothesis on random ones.
* **Bit-for-bit RNG** — stochastic pipelines (``bbn_query``,
  ``panel_run``) give byte-identical rows for a given master seed no
  matter how the sweep is chunked, sharded or backed.
* **Constant memory** — a 100k-scenario sweep streams to disk under a
  hard tracemalloc ceiling, and peak memory does not scale with the
  scenario count.
"""

import csv
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CsvSink,
    JsonlSink,
    MemorySink,
    ResultCache,
    SweepSpec,
    lower,
    run_sweep,
    run_sweep_streaming,
    stream_results,
)
from repro.errors import DomainError

SURVIVAL_SWEEP = SweepSpec(
    pipeline="survival_update",
    base={"mode": 0.003, "bound": 1e-2, "points_per_decade": 60},
    grid={"sigma": [0.7, 0.9, 1.1], "demands": [0, 10, 100, 1000]},
)

BBN_BASE = {
    "prior": 0.6, "n_samples": 300,
    "leg1_validity": 0.9, "leg1_sensitivity": 0.95,
    "leg1_specificity": 0.9, "leg2_validity": 0.88,
    "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
}


def _rows(sweep, **kwargs):
    sink = MemorySink()
    meta = run_sweep_streaming(sweep, sinks=(sink,), **kwargs)
    return [
        (dict(r.spec.params), r.spec.seed, dict(r.values))
        for r in sink.results
    ], meta


def _reference_rows(sweep, backend="auto"):
    return [
        (dict(r.spec.params), r.spec.seed, dict(r.values))
        for r in run_sweep(sweep, backend=backend)
    ]


class TestStreamedEqualsCollected:
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "sharded"])
    @pytest.mark.parametrize("chunk_size", [1, 5, 12, 100])
    def test_every_backend_and_chunk_layout(self, backend, chunk_size):
        # "sharded": the default backend in two worker processes.
        execution = (
            {"shards": 2} if backend == "sharded" else {"backend": backend}
        )
        reference = _reference_rows(SURVIVAL_SWEEP)
        streamed, meta = _rows(
            SURVIVAL_SWEEP, chunk_size=chunk_size, **execution
        )
        assert streamed == reference
        assert meta["rows"] == 12
        assert meta["n_chunks"] == -(-12 // chunk_size)

    def test_sharded_run(self):
        small = SweepSpec(
            pipeline="survival_update",
            base={"mode": 0.003, "sigma": 0.9, "points_per_decade": 60},
            grid={"demands": [0, 100, 1000]},
        )
        streamed, _meta = _rows(small, chunk_size=2, shards=2)
        assert streamed == _reference_rows(small, backend="serial")

    def test_prelowered_plan_accepted(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=4)
        streamed, meta = _rows(plan)
        assert streamed == _reference_rows(SURVIVAL_SWEEP)
        assert meta["chunk_size"] == 4

    def test_stream_results_generator_is_lazy_and_ordered(self):
        plan = lower(SURVIVAL_SWEEP, chunk_size=5)
        seen = []
        for chunk_rows in stream_results(plan):
            seen.append(len(chunk_rows))
        assert seen == [5, 5, 2]

    def test_empty_sweep_streams_nothing(self):
        sweep = SweepSpec(pipeline="survival_update",
                          base={"mode": 0.003, "sigma": 0.9},
                          grid={"demands": []})
        streamed, meta = _rows(sweep)
        assert streamed == []
        assert meta["rows"] == 0 and meta["n_chunks"] == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(DomainError):
            run_sweep_streaming(SURVIVAL_SWEEP, backend="gpu")

    def test_one_default_chunk_rule_for_both_entry_points(self):
        from repro.engine.plan import DEFAULT_CHUNK_SIZE
        from repro.engine.stream import _resolve_backend

        # Every backend and every shard count: DEFAULT_CHUNK_SIZE, so
        # sweeps up to that size run as one chunk (shards split its
        # scenarios, not the layout).
        for execution in ({"backend": "vectorized"}, {"backend": "serial"},
                          {"shards": 2}):
            collected = run_sweep(SURVIVAL_SWEEP, **execution).meta
            _streamed, meta = _rows(SURVIVAL_SWEEP, **execution)
            assert (collected["chunk_size"] == meta["chunk_size"]
                    == DEFAULT_CHUNK_SIZE)
        big = SweepSpec(pipeline="survival_update",
                        base={**SURVIVAL_SWEEP.base, "sigma": 0.9},
                        grid={"demands": list(range(100_000))})
        window, _effective, _label = _resolve_backend(big, "vectorized")
        assert window.plan.chunk_size == DEFAULT_CHUNK_SIZE

    @given(
        sigmas=st.lists(
            st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
            min_size=1, max_size=4, unique=True,
        ),
        demands=st.lists(
            st.integers(min_value=0, max_value=5000),
            min_size=1, max_size=4, unique=True,
        ),
        chunk_size=st.integers(min_value=1, max_value=20),
        backend=st.sampled_from(["serial", "vectorized"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_specs_agree(self, sigmas, demands,
                                         chunk_size, backend):
        sweep = SweepSpec(
            pipeline="survival_update",
            base={"mode": 0.003, "bound": 1e-2, "points_per_decade": 30},
            grid={"sigma": sigmas, "demands": demands},
        )
        streamed, _meta = _rows(
            sweep, backend=backend, chunk_size=chunk_size
        )
        assert streamed == _reference_rows(sweep)


class TestBitForBitRng:
    """Satellite: per-chunk RNG threading.  Seeds are pure functions of
    (master seed, scenario index), so streamed, sharded and single-pass
    runs of sampling pipelines agree byte for byte."""

    BBN_SWEEP = SweepSpec(
        pipeline="bbn_query", base=BBN_BASE,
        grid={"dependence": [0.0, 0.15, 0.3, 0.45, 0.6]},
        seed=2007,
    )
    PANEL_SWEEP = SweepSpec(
        pipeline="panel_run",
        grid={"n_doubters": [0, 2, 4], "pool": ["linear", "log"]},
        seed=42,
    )

    @pytest.mark.parametrize("sweep_name", ["BBN_SWEEP", "PANEL_SWEEP"])
    def test_identical_rows_for_every_execution_shape(self, sweep_name):
        sweep = getattr(self, sweep_name)
        reference = _reference_rows(sweep, backend="serial")
        executions = [
            dict(backend="vectorized", chunk_size=100),
            dict(backend="vectorized", chunk_size=1),
            dict(backend="vectorized", chunk_size=4),
            dict(backend="serial", chunk_size=3),
            dict(chunk_size=2, shards=3),
        ]
        for kwargs in executions:
            streamed, _meta = _rows(sweep, **kwargs)
            assert streamed == reference, kwargs

    def test_sharded_halves_equal_the_whole(self):
        # Executing the two halves of the plan as separate processes /
        # shards must give the same rows as one pass: chunk seeds are
        # addressed by absolute scenario index, not per-run state.
        plan = lower(self.BBN_SWEEP, chunk_size=2)
        whole = [
            (r.spec.seed, dict(r.values))
            for chunk_rows in stream_results(plan, backend="vectorized")
            for r in chunk_rows
        ]
        sharded = []
        for chunk in plan.chunks():
            scenarios = plan.batch(chunk).specs()
            shard = run_sweep(scenarios, backend="vectorized")
            sharded.extend((r.spec.seed, dict(r.values)) for r in shard)
        assert sharded == whole


class TestSinks:
    def test_jsonl_rows_match_result_set(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        meta = run_sweep_streaming(
            SURVIVAL_SWEEP, sinks=(JsonlSink(str(path)),), chunk_size=5
        )
        lines = [json.loads(line)
                 for line in path.read_text().strip().splitlines()]
        reference = run_sweep(SURVIVAL_SWEEP)
        assert len(lines) == len(reference) == meta["rows"]
        for line, result in zip(lines, reference):
            for key, value in result.spec.params.items():
                assert line[key] == value
            for key, value in result.values.items():
                assert line[key] == pytest.approx(value, abs=0)

    def test_jsonl_includes_seeds_when_present(self, tmp_path):
        sweep = SweepSpec(pipeline="panel_run",
                          grid={"n_doubters": [0, 3]}, seed=11)
        path = tmp_path / "rows.jsonl"
        run_sweep_streaming(sweep, sinks=(JsonlSink(str(path)),))
        lines = [json.loads(line)
                 for line in path.read_text().strip().splitlines()]
        expected = [s.seed for s in sweep.expand()]
        assert [line["seed"] for line in lines] == expected

    def test_csv_matches_result_set_export(self, tmp_path):
        path = tmp_path / "rows.csv"
        run_sweep_streaming(
            SURVIVAL_SWEEP, sinks=(CsvSink(str(path)),), chunk_size=5
        )
        with open(path, newline="") as handle:
            streamed = list(csv.DictReader(handle))
        collected = run_sweep(SURVIVAL_SWEEP)
        assert len(streamed) == len(collected)
        reference_csv = collected.to_csv()
        reference = list(csv.DictReader(io.StringIO(reference_csv)))
        assert streamed == reference

    def test_handle_sinks_left_open(self):
        buffer = io.StringIO()
        run_sweep_streaming(SURVIVAL_SWEEP, sinks=(JsonlSink(buffer),))
        assert not buffer.closed
        assert len(buffer.getvalue().strip().splitlines()) == 12

    def test_multiple_sinks_fed_identically(self, tmp_path):
        memory = MemorySink()
        jsonl = JsonlSink(str(tmp_path / "rows.jsonl"))
        run_sweep_streaming(SURVIVAL_SWEEP, sinks=(memory, jsonl),
                            chunk_size=4)
        assert len(memory.results) == 12
        assert jsonl.n_rows == 12

    def test_unwritable_sink_path_reports_domain_error(self, tmp_path):
        with pytest.raises(DomainError):
            run_sweep_streaming(
                SURVIVAL_SWEEP,
                sinks=(JsonlSink(str(tmp_path / "no" / "such" / "dir.jsonl")),),
            )

    def test_failing_sink_open_closes_earlier_sinks(self, tmp_path):
        closed = []

        class _Recording(MemorySink):
            def close(self):
                closed.append(True)

        good = _Recording()
        bad = JsonlSink(str(tmp_path / "no" / "such" / "dir.jsonl"))
        with pytest.raises(DomainError):
            run_sweep_streaming(SURVIVAL_SWEEP, sinks=(good, bad))
        assert closed == [True]

    def test_csv_sink_writes_missing_columns_empty(self, tmp_path):
        # The header is the union of the configuration groups' declared
        # columns: JM rows leave the LV fit columns empty and back.
        sweep = SweepSpec(pipeline="sil_from_growth",
                          grid={"model": ["jm", "lv"]}, seed=4)
        path = tmp_path / "rows.csv"
        run_sweep_streaming(sweep, chunk_size=1, sinks=(CsvSink(str(path)),))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["alpha_hat"] == "" and rows[0]["n_faults_hat"] != ""
        assert rows[1]["n_faults_hat"] == "" and rows[1]["alpha_hat"] != ""

    def test_csv_sink_flushes_per_chunk(self, tmp_path):
        # Crash-tolerance parity with JsonlSink: rows must be on disk
        # at every chunk boundary, not buffered until close().
        plan = lower(SweepSpec(pipeline="survival_update",
                               base={"mode": 0.003, "sigma": 0.9},
                               grid={"demands": [0, 10]}), chunk_size=1)
        path = tmp_path / "rows.csv"
        sink = CsvSink(str(path))
        sink.open(plan)
        try:
            sink.write(next(stream_results(plan)))
            mid_run = path.read_text()
        finally:
            sink.close()
        lines = mid_run.strip().splitlines()
        assert lines[0] == ("mode,sigma,demands,mean,median,posterior_mode,"
                            "confidence")
        assert len(lines) == 2 and lines[1].startswith("0.003,0.9,0,")

    def test_progress_counters(self):
        calls = []
        run_sweep_streaming(
            SURVIVAL_SWEEP, chunk_size=5, sinks=(MemorySink(),),
            progress=lambda *args: calls.append(args),
        )
        assert calls == [(1, 3, 5, 12), (2, 3, 10, 12), (3, 3, 12, 12)]


class TestStreamingCache:
    def test_cache_hits_skip_execution_and_match(self):
        cache = ResultCache()
        first, meta_first = _rows(SURVIVAL_SWEEP, cache=cache)
        assert meta_first["cache_misses"] == 12
        second, meta_second = _rows(SURVIVAL_SWEEP, cache=cache,
                                    chunk_size=5)
        assert meta_second["cache_hits"] == 12
        assert meta_second["cache_misses"] == 0
        assert second == first

    def test_disk_cache_survives_process_restart(self, tmp_path):
        # Same log path, fresh ResultCache instances: the second "run"
        # (a new process in production) replays the log and serves hits.
        path = str(tmp_path / "results.jsonl")
        _first, meta_first = _rows(
            SURVIVAL_SWEEP, cache=ResultCache(path=path)
        )
        assert meta_first["cache_misses"] == 12
        second, meta_second = _rows(
            SURVIVAL_SWEEP, cache=ResultCache(path=path)
        )
        assert meta_second["cache_hits"] == 12
        assert second == _rows(SURVIVAL_SWEEP)[0]

    def test_disk_cache_invalidates_on_case_file_edit(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        import os
        import pathlib

        from repro.arguments import load_case

        case_file = str(
            pathlib.Path(__file__).resolve().parents[2]
            / "examples" / "case_confidence.yaml"
        )
        source = load_case(case_file).to_dict()
        case_path = tmp_path / "case.yaml"
        case_path.write_text(yaml.safe_dump(source))
        sweep = SweepSpec(
            pipeline="case_confidence",
            base={"case_file": str(case_path)},
            grid={"S1.dependence": [0.0, 0.5]},
        )
        log = str(tmp_path / "cache.jsonl")
        _rows1, meta1 = _rows(sweep, cache=ResultCache(path=log))
        assert meta1["cache_misses"] == 2
        _rows2, meta2 = _rows(sweep, cache=ResultCache(path=log))
        assert meta2["cache_hits"] == 2

        # Edit the case: the content hash folded into the key changes,
        # so the persisted entries are never replayed.
        edited = dict(source)
        edited["quantify"] = {
            **edited["quantify"],
            "Sn3": {"model": "fixed", "confidence": 0.5},
        }
        case_path.write_text(yaml.safe_dump(edited))
        os.utime(case_path, (os.path.getmtime(case_path) + 2,) * 2)
        _rows3, meta3 = _rows(sweep, cache=ResultCache(path=log))
        assert meta3["cache_misses"] == 2


class TestOutOfCore:
    """Satellite: the 100k-scenario sweep under a hard memory ceiling."""

    def _sweep(self, n_demands):
        return SweepSpec(
            pipeline="survival_update",
            base={"mode": 0.003, "bound": 1e-2, "points_per_decade": 10},
            grid={
                "sigma": [round(0.5 + 0.015 * i, 3) for i in range(100)],
                "demands": list(range(n_demands)),
            },
        )

    def _peak_streaming(self, sweep, path):
        sink = JsonlSink(str(path))
        tracemalloc.start()
        tracemalloc.reset_peak()
        meta = run_sweep_streaming(sweep, sinks=(sink,), chunk_size=4096)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return meta, peak

    def test_100k_scenarios_stream_under_a_hard_memory_ceiling(
        self, tmp_path
    ):
        sweep = self._sweep(1000)  # 100 sigmas x 1000 demands
        assert sweep.n_scenarios() == 100_000
        meta, peak = self._peak_streaming(sweep, tmp_path / "big.jsonl")
        assert meta["rows"] == 100_000
        # Hard ceiling: far below what materialising 100k ScenarioResult
        # rows needs (run_sweep on this sweep allocates hundreds of MB),
        # and independent of the scenario count (see the scaling test).
        assert peak < 64 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
        # The rows really are all there, in order.
        with open(tmp_path / "big.jsonl") as handle:
            count = sum(1 for _line in handle)
        assert count == 100_000

    def test_peak_memory_is_independent_of_scenario_count(self, tmp_path):
        _meta_small, peak_small = self._peak_streaming(
            self._sweep(60), tmp_path / "small.jsonl"
        )
        _meta_large, peak_large = self._peak_streaming(
            self._sweep(300), tmp_path / "large.jsonl"
        )
        # 5x the scenarios must not cost 5x the memory; allow slack for
        # allocator noise but reject anything resembling linear growth.
        assert peak_large < max(1.5 * peak_small, peak_small + 8e6), (
            f"peak grew {peak_small / 1e6:.1f} MB -> "
            f"{peak_large / 1e6:.1f} MB"
        )
