"""Tests for sweep execution, caching behaviour and result sets."""

import numpy as np
import pytest

from repro.engine import (
    BACKENDS,
    Column,
    Pipeline,
    ResultCache,
    ScenarioSpec,
    SweepSpec,
    available_pipelines,
    get_pipeline,
    register,
    run_sweep,
    run_sweep_streaming,
)
from repro.errors import DomainError

SURVIVAL_SWEEP = SweepSpec(
    pipeline="survival_update",
    base={"mode": 0.003, "bound": 1e-2, "points_per_decade": 60},
    grid={"sigma": [0.7, 0.9, 1.1], "demands": [0, 10, 100, 1000]},
)

TWO_LEG_BASE = {
    "prior": 0.6,
    "leg1_validity": 0.9, "leg1_sensitivity": 0.95, "leg1_specificity": 0.9,
    "leg2_validity": 0.88, "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
}


class _UnbatchedPipeline(Pipeline):
    """A pipeline that (deliberately) has no registered batch kernel —
    every shipped pipeline has one, so the serial fallback paths need a
    synthetic stand-in."""

    name = "executor_test_unbatched"
    defaults = {"x": 1.0}

    def columns(self, config):
        return (Column("doubled"),)

    def run(self, params, seed=None):
        merged = self.resolve(params)
        return {"doubled": 2.0 * merged["x"]}


register(_UnbatchedPipeline())

UNBATCHED_SWEEP = SweepSpec(
    pipeline="executor_test_unbatched", grid={"x": [0.0, 1.0]}
)

CASE_FILE_FOR_CACHE = str(
    __import__("pathlib").Path(__file__).resolve().parents[2]
    / "examples" / "case_confidence.yaml"
)


def _values_list(result_set):
    return [dict(r.values) for r in result_set]


class TestBackendsAgree:
    def test_vectorized_matches_serial_exactly(self):
        serial = run_sweep(SURVIVAL_SWEEP, backend="serial")
        vectorized = run_sweep(SURVIVAL_SWEEP, backend="vectorized")
        assert len(serial) == len(vectorized) == 12
        for a, b in zip(serial, vectorized):
            assert a.spec == b.spec
            for column, value in a.values.items():
                assert b.values[column] == pytest.approx(value, abs=1e-12)

    def test_sharded_run_matches_serial(self):
        small = SweepSpec(
            pipeline="survival_update",
            base={"mode": 0.003, "sigma": 0.9, "points_per_decade": 60},
            grid={"demands": [0, 100]},
        )
        serial = _values_list(run_sweep(small, backend="serial"))
        sharded = run_sweep(small, shards=2)
        assert _values_list(sharded) == serial
        assert sharded.meta["backend"] == "shards(2):vectorized"

    def test_auto_prefers_vectorized_kernel(self):
        result = run_sweep(SURVIVAL_SWEEP)
        assert result.meta["backend"] == "auto->vectorized"
        result = run_sweep(UNBATCHED_SWEEP)
        assert result.meta["backend"] == "auto->serial"

    def test_all_shipped_pipelines_support_batch(self):
        # The registry invariant since the compiled-case PR: every
        # shipped pipeline dispatches to a vectorised kernel.
        shipped = [
            name for name in available_pipelines()
            if not name.startswith(("executor_test_", "test_"))
        ]
        assert shipped and all(
            get_pipeline(name).supports_batch for name in shipped
        )

    def test_vectorized_rejected_without_batch_kernel(self):
        with pytest.raises(DomainError):
            run_sweep(UNBATCHED_SWEEP, backend="vectorized")

    def test_unknown_backend_rejected(self):
        with pytest.raises(DomainError):
            run_sweep(SURVIVAL_SWEEP, backend="gpu")

    @pytest.mark.parametrize("shards", [0, -1])
    def test_shards_below_one_rejected(self, shards):
        with pytest.raises(DomainError, match="shards must be positive"):
            run_sweep(SURVIVAL_SWEEP, shards=shards)
        with pytest.raises(DomainError, match="shards must be positive"):
            run_sweep_streaming(SURVIVAL_SWEEP, shards=shards)

    def test_pools_are_gone(self):
        assert BACKENDS == ("auto", "vectorized", "serial")
        for backend in ("thread", "process"):
            with pytest.raises(DomainError, match="backend must be one of"):
                run_sweep(SURVIVAL_SWEEP, backend=backend)


class TestCachingBehaviour:
    def test_second_run_is_all_hits_and_identical(self):
        cache = ResultCache()
        first = run_sweep(SURVIVAL_SWEEP, cache=cache)
        assert first.meta["cache_hits"] == 0
        assert first.meta["cache_misses"] == 12
        second = run_sweep(SURVIVAL_SWEEP, cache=cache)
        assert second.meta["cache_hits"] == 12
        assert second.meta["cache_misses"] == 0
        assert _values_list(second) == _values_list(first)
        assert all(r.from_cache for r in second)

    def test_partial_overlap_only_runs_new_scenarios(self):
        cache = ResultCache()
        run_sweep(SURVIVAL_SWEEP, cache=cache)
        wider = SweepSpec(
            pipeline=SURVIVAL_SWEEP.pipeline,
            base=dict(SURVIVAL_SWEEP.base),
            grid={"sigma": [0.7, 0.9, 1.1], "demands": [0, 10, 100, 1000, 10000]},
        )
        result = run_sweep(wider, cache=cache)
        assert result.meta["cache_hits"] == 12
        assert result.meta["cache_misses"] == 3

    def test_cached_values_match_fresh_run(self):
        cache = ResultCache()
        fresh = run_sweep(SURVIVAL_SWEEP, backend="serial")
        run_sweep(SURVIVAL_SWEEP, backend="vectorized", cache=cache)
        cached = run_sweep(SURVIVAL_SWEEP, backend="serial", cache=cache)
        assert _values_list(cached) == pytest.approx(
            _values_list(fresh)
        ) or _values_list(cached) == _values_list(fresh)

    def test_single_scenario_sweep_uses_cache(self):
        cache = ResultCache()
        spec = ScenarioSpec(
            "survival_update",
            {"mode": 0.003, "sigma": 0.9, "points_per_decade": 60},
        )
        first = run_sweep([spec], cache=cache)[0]
        second = run_sweep([spec], cache=cache)[0]
        assert not first.from_cache
        assert second.from_cache
        assert dict(second.values) == dict(first.values)


class TestStochasticPipelines:
    def test_panel_sweep_reproducible_via_master_seed(self):
        sweep = SweepSpec(pipeline="panel_run",
                          grid={"n_doubters": [0, 3]}, seed=99)
        first = _values_list(run_sweep(sweep))
        second = _values_list(run_sweep(sweep))
        assert first == second

    def test_different_master_seeds_differ(self):
        grid = {"n_doubters": [3]}
        a = _values_list(run_sweep(
            SweepSpec(pipeline="panel_run", grid=grid, seed=1)))
        b = _values_list(run_sweep(
            SweepSpec(pipeline="panel_run", grid=grid, seed=2)))
        assert a != b

    def test_unseeded_stochastic_scenarios_bypass_the_cache(self):
        base = {
            "prior": 0.6, "dependence": 0.3, "n_samples": 200,
            "leg1_validity": 0.9, "leg1_sensitivity": 0.95,
            "leg1_specificity": 0.9, "leg2_validity": 0.88,
            "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
        }
        cache = ResultCache()
        spec = ScenarioSpec("bbn_query", base)  # no seed: fresh entropy
        first = run_sweep([spec], cache=cache)[0]
        second = run_sweep([spec], cache=cache)[0]
        assert not first.from_cache and not second.from_cache
        assert len(cache) == 0
        # With a seed the run is reproducible, so caching is back on.
        seeded = ScenarioSpec("bbn_query", base, seed=3)
        run_sweep([seeded], cache=cache)
        assert run_sweep([seeded], cache=cache)[0].from_cache

    def test_bbn_query_reproducible(self):
        base = {
            "prior": 0.6, "dependence": 0.3, "n_samples": 500,
            "leg1_validity": 0.9, "leg1_sensitivity": 0.95,
            "leg1_specificity": 0.9, "leg2_validity": 0.88,
            "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
        }
        spec = ScenarioSpec("bbn_query", base, seed=5)
        assert run_sweep([spec])[0].values == run_sweep([spec])[0].values

    def test_bbn_query_approximates_exact_two_leg(self):
        base = {
            "prior": 0.6, "dependence": 0.3,
            "leg1_validity": 0.9, "leg1_sensitivity": 0.95,
            "leg1_specificity": 0.9, "leg2_validity": 0.88,
            "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
        }
        exact = run_sweep(
            [ScenarioSpec("two_leg_posterior", base)])[0].values["both_legs"]
        approx = run_sweep(
            [ScenarioSpec("bbn_query", {**base, "n_samples": 20000}, seed=3)]
        )[0].values["p_claim"]
        assert approx == pytest.approx(exact, abs=0.05)


class TestSpecValidation:
    def test_unknown_pipeline(self):
        with pytest.raises(DomainError):
            run_sweep(SweepSpec(pipeline="nope", base={}))

    def test_unknown_parameter_rejected_before_execution(self):
        sweep = SweepSpec(pipeline="survival_update",
                          base={"mode": 0.003, "sigma": 0.9, "wat": 1})
        with pytest.raises(DomainError):
            run_sweep(sweep)

    def test_missing_required_parameter(self):
        with pytest.raises(DomainError):
            run_sweep(SweepSpec(pipeline="survival_update",
                                base={"sigma": 0.9}))

    def test_required_parameter_bound_to_none_rejected(self):
        # An empty YAML value parses to None; it must fail validation on
        # every backend, not crash inside a kernel.
        for backend in ("serial", "vectorized"):
            with pytest.raises(DomainError):
                run_sweep(
                    SweepSpec(pipeline="survival_update",
                              base={"mode": None, "sigma": 0.9}),
                    backend=backend,
                )

    def test_non_integer_demands_rejected_eagerly(self):
        with pytest.raises(DomainError):
            run_sweep(SweepSpec(pipeline="survival_update",
                                base={"mode": 0.003, "sigma": 0.9,
                                      "demands": 1.5}))

    def test_mixed_pipelines_rejected(self):
        specs = [
            ScenarioSpec("survival_update", {"mode": 0.003, "sigma": 0.9}),
            ScenarioSpec("sil_classification", {"mode": 0.003, "sigma": 0.9}),
        ]
        with pytest.raises(DomainError):
            run_sweep(specs)

    def test_registry_introspection(self):
        names = available_pipelines()
        assert "survival_update" in names
        assert get_pipeline("survival_update").supports_batch
        with pytest.raises(DomainError):
            get_pipeline("missing")

    def test_register_requires_name(self):
        with pytest.raises(DomainError):
            register(Pipeline())


SIL_SWEEP = SweepSpec(pipeline="sil_classification", base={"mode": 0.003},
                      grid={"sigma": [0.2, 0.9, 2.0, 3.0]})
DAL_SWEEP = SweepSpec(pipeline="do178b_map", base={"mode": 1e-8, "sigma": 1.0},
                      grid={"dal": ["A", "B", "C", "D", "E"]})


class TestResultSet:
    def test_empty_sweep(self):
        result = run_sweep(
            SweepSpec(pipeline="survival_update",
                      base={"mode": 0.003, "sigma": 0.9},
                      grid={"demands": []})
        )
        assert len(result) == 0
        assert result.to_table() == "(empty sweep: 0 scenarios)"
        assert result.to_csv() == "\r\n" or result.to_csv() == "\n"

    def test_columns_and_values(self):
        result = run_sweep(SURVIVAL_SWEEP)
        columns = result.columns()
        assert columns[:2] == ["mode", "bound"]
        assert "mean" in columns and "confidence" in columns
        means = result.values("mean")
        assert means.shape == (12,)
        assert np.all(means > 0)
        with pytest.raises(DomainError):
            result.values("nope")
        # None cells (no SIL granted, no guidance to meet) read as NaN.
        levels = run_sweep(SIL_SWEEP).values("granted_level")
        assert levels[:2].tolist() == [2.0, 1.0]
        assert np.isnan(levels[2:]).all()
        confidence = run_sweep(DAL_SWEEP).values("confidence_within_guidance")
        assert np.isnan(confidence[3:]).all() and not np.isnan(
            confidence[:3]).any()

    def test_more_evidence_raises_confidence(self):
        result = run_sweep(SURVIVAL_SWEEP)
        confidence = {
            (r.spec.params["sigma"], r.spec.params["demands"]):
                r.values["confidence"]
            for r in result
        }
        for sigma in (0.7, 0.9, 1.1):
            series = [confidence[(sigma, n)] for n in (0, 10, 100, 1000)]
            assert series == sorted(series)

    def test_best(self):
        result = run_sweep(SURVIVAL_SWEEP)
        best = result.best("confidence")
        assert best.values["confidence"] == pytest.approx(
            float(result.values("confidence").max()))
        worst = result.best("confidence", maximise=False)
        assert worst.values["confidence"] == pytest.approx(
            float(result.values("confidence").min()))
        # best() skips None cells.
        levels = run_sweep(SIL_SWEEP)
        assert [r.values["granted_level"] for r in levels] == [2, 1, None,
                                                               None]
        assert levels.best("granted_level") is levels[0]
        assert levels.best("granted_level", maximise=False) is levels[1]
        dals = run_sweep(DAL_SWEEP)
        assert dals.best("confidence_within_guidance") is dals[2]
        assert dals.best("confidence_within_guidance",
                         maximise=False) is dals[0]

    def test_to_table_and_csv(self, tmp_path):
        result = run_sweep(SURVIVAL_SWEEP)
        table = result.to_table(limit=3)
        assert "confidence" in table.splitlines()[0]
        assert len(table.splitlines()) == 5  # header + rule + 3 rows
        path = tmp_path / "sweep.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("mode,")

    def test_summary_mentions_cache_and_backend(self):
        cache = ResultCache()
        result = run_sweep(SURVIVAL_SWEEP, cache=cache)
        summary = result.summary()
        assert "12 scenarios" in summary
        assert "cache" in summary
        assert "survival_update" in summary


class TestCaseFileCacheInvalidation:
    def test_edited_case_file_invalidates_cached_results(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        from repro.arguments import load_case

        source = load_case(CASE_FILE_FOR_CACHE).to_dict()
        path = tmp_path / "case.yaml"
        path.write_text(yaml.safe_dump(source))
        sweep = SweepSpec(
            pipeline="case_confidence",
            base={"case_file": str(path)},
            grid={"S1.dependence": [0.0, 0.5]},
        )
        cache = ResultCache()
        first = run_sweep(sweep, cache=cache)
        assert first.meta["cache_misses"] == 2
        # Same file, same cache: pure hits.
        again = run_sweep(sweep, cache=cache)
        assert again.meta["cache_hits"] == 2

        # Edit the case on disk: the path-named spec is unchanged, but
        # cached results must NOT be replayed.
        edited = dict(source)
        edited["quantify"] = {
            **edited["quantify"],
            "Sn3": {"model": "fixed", "confidence": 0.5},
        }
        path.write_text(yaml.safe_dump(edited))
        import os
        os.utime(path, (os.path.getmtime(path) + 2,) * 2)
        fresh = run_sweep(sweep, cache=cache)
        assert fresh.meta["cache_misses"] == 2
        assert (
            fresh[0].values["top_confidence"]
            != first[0].values["top_confidence"]
        )
