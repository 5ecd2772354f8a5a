"""The batch dispatch layer and the batched pipelines.

Every registered batch kernel must reproduce its scalar pipeline to
1e-12 on random parameter draws (hypothesis; bit for bit for the seeded
``bbn_query`` sampler), every registered pipeline
must round-trip through a YAML sweep spec, and the dispatch layer must
fall back to the scalar loop when no kernel is registered.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Column,
    Pipeline,
    ScenarioSpec,
    SweepSpec,
    available_pipelines,
    get_pipeline,
    load_sweeps,
    register_batch_kernel,
    run_sweep,
)
from repro.engine.results import rows_of
from repro.errors import DomainError

TOL = 1e-12

CASE_FILE = str(
    pathlib.Path(__file__).resolve().parents[2]
    / "examples" / "case_confidence.yaml"
)

TWO_LEG = {
    "prior": 0.6,
    "leg1_validity": 0.9, "leg1_sensitivity": 0.95, "leg1_specificity": 0.9,
    "leg2_validity": 0.88, "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
}

#: One valid parameter binding per registered pipeline.  The YAML
#: round-trip test fails when a newly registered pipeline has no entry,
#: so new pipelines cannot land without spec-file coverage.
REPRESENTATIVE = {
    "survival_update": {"mode": 0.003, "sigma": 0.9, "demands": 100},
    "two_leg_posterior": dict(TWO_LEG),
    "bbn_query": {**TWO_LEG, "n_samples": 500},
    "sil_classification": {"mode": 0.003, "sigma": 0.9},
    "panel_run": {"n_experts": 6, "n_doubters": 2},
    "sil_from_growth": {"model": "jm", "n_observed": 12},
    "elicitation_pool": {"n_experts": 5, "n_doubters": 1},
    "expert_calibration": {"n_questions": 8},
    "alarp_decision": {"mode": 0.003, "sigma": 0.9},
    "iec61508_sil": {"mode": 0.003, "sigma": 0.9},
    "do178b_map": {"dal": "B"},
    "conservatism_audit": {"mode": 0.003, "sigma": 0.9},
    "case_confidence": {"case_file": CASE_FILE, "A1.p_true": 0.9},
}


def _shipped_pipelines():
    """Registered pipelines minus the synthetic ones tests register."""
    return [
        name for name in available_pipelines()
        if not name.startswith(("executor_test_", "test_"))
    ]


def batch_rows(pipeline, config, planes, seeds):
    """One group's ``run_batch`` columns as rows (the engine's adapter)."""
    columns = pipeline.run_batch(config, planes, seeds)
    return rows_of({name: values.tolist() for name, values in columns.items()},
                   len(seeds))


def assert_batch_matches_scalar(name, params_list, seeds=None, exact=False):
    """run_batch must agree with a run() loop: 1e-12 on floats (equality
    when ``exact``), equality on every other column (levels, regions,
    booleans, None)."""
    pipeline = get_pipeline(name)
    if seeds is None:
        seeds = [1000 + i for i in range(len(params_list))]
    items = [(pipeline.resolve(params), seed)
             for params, seed in zip(params_list, seeds)]
    scalar = [pipeline.run(params, seed) for params, seed in items]
    batch = [dict(result.values) for result in run_sweep(
        [ScenarioSpec(name, params, seed=seed)
         for params, seed in zip(params_list, seeds)],
        backend="vectorized",
    )]
    assert len(batch) == len(scalar)
    for scalar_row, batch_row in zip(scalar, batch):
        assert set(scalar_row) == set(batch_row)
        for column, value in scalar_row.items():
            got = batch_row[column]
            if isinstance(value, float) and isinstance(got, float):
                if np.isnan(value):
                    assert np.isnan(got), (column, value, got)
                elif exact or np.isinf(value):
                    assert got == value, (column, value, got)
                else:
                    assert abs(got - value) <= TOL, (column, value, got)
            else:
                assert got == value, (column, value, got)


modes_st = st.floats(min_value=1e-6, max_value=0.05)
sigmas_st = st.floats(min_value=0.3, max_value=1.6)
seeds_st = st.integers(min_value=0, max_value=2**31 - 1)


class TestBatchMatchesScalarRandomised:
    @given(mode=modes_st, sigma=sigmas_st,
           required=st.floats(min_value=0.55, max_value=0.99),
           scheme=st.sampled_from(["low_demand", "high_demand"]))
    @settings(max_examples=25, deadline=None)
    def test_sil_classification(self, mode, sigma, required, scheme):
        assert_batch_matches_scalar("sil_classification", [
            {"mode": mode, "sigma": sigma,
             "required_confidence": required, "scheme": scheme},
            {"mode": mode * 3.0, "sigma": sigma, "scheme": scheme},
        ])

    @given(model=st.sampled_from(["jm", "lv"]), seed=seeds_st,
           n_observed=st.integers(min_value=8, max_value=16),
           margin=st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=15, deadline=None)
    def test_sil_from_growth(self, model, seed, n_observed, margin):
        assert_batch_matches_scalar("sil_from_growth", [
            {"model": model, "n_observed": n_observed,
             "assumption_margin_decades": margin,
             "n_candidates": 40, "n_alpha": 4, "n_beta0": 4, "n_beta1": 3},
        ], seeds=[seed])

    @given(seed=seeds_st,
           n_experts=st.integers(min_value=2, max_value=8),
           weighting=st.sampled_from(["equal", "information"]))
    @settings(max_examples=15, deadline=None)
    def test_elicitation_pool(self, seed, n_experts, weighting):
        assert_batch_matches_scalar("elicitation_pool", [
            {"n_experts": n_experts, "n_doubters": n_experts // 2,
             "weighting": weighting},
            {"n_experts": n_experts, "n_doubters": 0,
             "weighting": weighting},
        ], seeds=[seed, seed + 1])

    @given(seed=seeds_st, sigma=sigmas_st,
           n_questions=st.integers(min_value=2, max_value=25))
    @settings(max_examples=15, deadline=None)
    def test_expert_calibration(self, seed, sigma, n_questions):
        assert_batch_matches_scalar("expert_calibration", [
            {"sigma": sigma, "n_questions": n_questions},
        ], seeds=[seed])

    @given(mode=modes_st, sigma=sigmas_st,
           required=st.floats(min_value=0.55, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    def test_alarp_decision(self, mode, sigma, required):
        assert_batch_matches_scalar("alarp_decision", [
            {"mode": mode, "sigma": sigma,
             "required_confidence": required},
            {"mode": mode, "sigma": sigma,
             "intolerable_above": 0.1, "acceptable_below": 1e-5},
        ])

    @given(mode=modes_st, sigma=sigmas_st,
           clause=st.sampled_from([
               "part2-7.4.7.4", "part2-7.4.7.9", "part2-tableB6-low",
               "part2-tableB6-high", "part7-tableD1-95", "part7-tableD1-99",
           ]))
    @settings(max_examples=25, deadline=None)
    def test_iec61508_sil(self, mode, sigma, clause):
        assert_batch_matches_scalar("iec61508_sil", [
            {"mode": mode, "sigma": sigma, "clause": clause},
            {"mode": mode, "sigma": sigma, "clause": clause,
             "scheme": "high_demand"},
        ])

    @given(dal=st.sampled_from(["A", "B", "C", "D", "E"]),
           mode=st.floats(min_value=1e-10, max_value=1e-4),
           sigma=sigmas_st)
    @settings(max_examples=25, deadline=None)
    def test_do178b_map(self, dal, mode, sigma):
        assert_batch_matches_scalar("do178b_map", [
            {"dal": dal},
            {"dal": dal, "mode": mode, "sigma": sigma},
        ])

    @given(mode=modes_st, sigma=sigmas_st,
           bound=st.floats(min_value=1e-4, max_value=0.5),
           beta=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_conservatism_audit(self, mode, sigma, bound, beta):
        assert_batch_matches_scalar("conservatism_audit", [
            {"mode": mode, "sigma": sigma,
             "belief_bound": bound, "beta": beta},
        ])

    @given(prior=st.floats(min_value=0.05, max_value=0.95),
           dependence=st.floats(min_value=0.0, max_value=1.0),
           validity=st.floats(min_value=0.3, max_value=1.0),
           sensitivity=st.floats(min_value=0.55, max_value=0.99),
           specificity=st.floats(min_value=0.55, max_value=0.99),
           noise=st.floats(min_value=0.2, max_value=0.8))
    @settings(max_examples=25, deadline=None)
    def test_two_leg_posterior(self, prior, dependence, validity,
                               sensitivity, specificity, noise):
        assert_batch_matches_scalar("two_leg_posterior", [
            {**TWO_LEG, "prior": prior, "dependence": dependence,
             "leg1_validity": validity, "leg1_noise": noise},
            {**TWO_LEG, "dependence": dependence,
             "leg2_sensitivity": sensitivity,
             "leg2_specificity": specificity},
        ])

    @given(seed=seeds_st,
           prior=st.floats(min_value=0.05, max_value=0.95),
           dependence=st.floats(min_value=0.0, max_value=1.0),
           n_samples=st.integers(min_value=50, max_value=400))
    @settings(max_examples=15, deadline=None)
    def test_bbn_query(self, seed, prior, dependence, n_samples):
        # The batched sampler reproduces the scalar one bit for bit.
        assert_batch_matches_scalar("bbn_query", [
            {**TWO_LEG, "prior": prior, "dependence": dependence,
             "n_samples": n_samples},
            {**TWO_LEG, "n_samples": n_samples},
            {**TWO_LEG, "n_samples": 2 * n_samples},
        ], seeds=[seed, seed + 1, seed + 2], exact=True)

    @given(seed=seeds_st,
           n_experts=st.integers(min_value=2, max_value=10),
           pool=st.sampled_from(["linear", "log"]))
    @settings(max_examples=10, deadline=None)
    def test_panel_run(self, seed, n_experts, pool):
        assert_batch_matches_scalar("panel_run", [
            {"n_experts": n_experts, "n_doubters": n_experts // 3,
             "pool": pool},
            {"n_experts": n_experts, "n_doubters": 0, "pool": pool},
        ], seeds=[seed, seed + 1])

    @given(p_true=st.floats(min_value=0.1, max_value=1.0),
           dependence=st.floats(min_value=0.0, max_value=1.0),
           mode=modes_st, sigma=sigmas_st)
    @settings(max_examples=15, deadline=None)
    def test_case_confidence(self, p_true, dependence, mode, sigma):
        assert_batch_matches_scalar("case_confidence", [
            {"case_file": CASE_FILE, "A1.p_true": p_true,
             "S1.dependence": dependence},
            {"case_file": CASE_FILE, "Sn1.mode": mode, "Sn1.sigma": sigma},
        ])


class TestBatchedSweepsThroughExecutor:
    def test_vectorized_matches_serial_for_every_batched_pipeline(self):
        sweeps = {
            "sil_classification": SweepSpec(
                pipeline="sil_classification", base={"sigma": 0.9},
                grid={"mode": [1e-4, 3e-3], "scheme":
                      ["low_demand", "high_demand"]},
            ),
            "sil_from_growth": SweepSpec(
                pipeline="sil_from_growth",
                base={"n_observed": 10, "n_candidates": 40,
                      "n_alpha": 4, "n_beta0": 4, "n_beta1": 3},
                grid={"model": ["jm", "lv"]},
                seed=2007,
            ),
            "elicitation_pool": SweepSpec(
                pipeline="elicitation_pool", base={"n_experts": 6},
                grid={"n_doubters": [0, 2],
                      "weighting": ["equal", "information"]},
                seed=2007,
            ),
            "expert_calibration": SweepSpec(
                pipeline="expert_calibration", base={"n_questions": 12},
                grid={"sigma": [0.5, 1.1]}, seed=2007,
            ),
            "alarp_decision": SweepSpec(
                pipeline="alarp_decision", base={"sigma": 0.9},
                grid={"mode": [1e-4, 3e-3, 0.02]},
            ),
            "iec61508_sil": SweepSpec(
                pipeline="iec61508_sil", base={"mode": 0.003, "sigma": 0.9},
                grid={"clause": ["part2-7.4.7.9", "part2-tableB6-high"]},
            ),
            "do178b_map": SweepSpec(
                pipeline="do178b_map", base={"mode": 1e-8, "sigma": 0.9},
                grid={"dal": ["A", "B", "C"]},
            ),
            "conservatism_audit": SweepSpec(
                pipeline="conservatism_audit",
                base={"mode": 0.003, "sigma": 0.9},
                grid={"beta": [0.0, 0.05, 0.5]},
            ),
            "two_leg_posterior": SweepSpec(
                pipeline="two_leg_posterior", base=TWO_LEG,
                grid={"dependence": [0.0, 0.5, 1.0]},
            ),
            "bbn_query": SweepSpec(
                pipeline="bbn_query", base={**TWO_LEG, "n_samples": 200},
                grid={"dependence": [0.0, 0.6]}, seed=2007,
            ),
            "panel_run": SweepSpec(
                pipeline="panel_run", base={"n_experts": 5},
                grid={"n_doubters": [0, 2]}, seed=2007,
            ),
            "case_confidence": SweepSpec(
                pipeline="case_confidence", base={"case_file": CASE_FILE},
                grid={"A1.p_true": [0.7, 1.0],
                      "S1.dependence": [0.0, 0.5]},
            ),
        }
        for name, sweep in sweeps.items():
            assert get_pipeline(name).supports_batch, name
            serial = run_sweep(sweep, backend="serial")
            vectorized = run_sweep(sweep, backend="vectorized")
            assert vectorized.meta["backend"] == "vectorized"
            for a, b in zip(serial, vectorized):
                assert set(a.values) == set(b.values), name
                for column, value in a.values.items():
                    got = b.values[column]
                    if name == "bbn_query":
                        # Seeded sampler rows are bit-for-bit.
                        assert got == value, (name, column)
                    elif isinstance(value, float) and not np.isnan(value):
                        assert abs(got - value) <= TOL, (name, column)
                    elif isinstance(value, float):
                        assert np.isnan(got), (name, column)
                    else:
                        assert got == value, (name, column)

    def test_every_batched_stochastic_pipeline_reproducible_by_seed(self):
        sweep = SweepSpec(
            pipeline="sil_from_growth",
            base={"n_observed": 10, "n_candidates": 40},
            grid={"per_fault_rate": [0.004, 0.008]},
            seed=77,
        )
        first = run_sweep(sweep, backend="vectorized")
        second = run_sweep(sweep, backend="vectorized")
        assert (
            [dict(r.values) for r in first]
            == [dict(r.values) for r in second]
        )


class TestDispatchLayer:
    def test_fallback_loops_when_no_kernel_registered(self):
        class Doubler(Pipeline):
            name = "test_doubler_pipeline"
            defaults = {"x": 1.0}

            def columns(self, config):
                return (Column("y"),)

            def run(self, params, seed=None):
                return {"y": 2.0 * self.resolve(params)["x"]}

        pipeline = Doubler()
        assert not pipeline.supports_batch
        out = batch_rows(pipeline, {}, {"x": np.array([2.0, 3.0])},
                         [None, None])
        assert out == [{"y": 4.0}, {"y": 6.0}]

    def test_registering_kernel_flips_supports_batch_and_dispatches(self):
        class Tripler(Pipeline):
            name = "test_tripler_pipeline"
            defaults = {"x": 1.0}

            def columns(self, config):
                return (Column("y"), Column("batched", "bool"))

            def run(self, params, seed=None):
                return {"y": 3.0 * self.resolve(params)["x"]}

        pipeline = Tripler()
        assert not pipeline.supports_batch

        from repro.engine.pipelines import _BATCH_KERNELS

        @register_batch_kernel("test_tripler_pipeline")
        def _kernel(config, planes, seeds):
            x = np.asarray(planes["x"])
            return {"y": 3.0 * x, "batched": np.ones(len(seeds), bool)}

        try:
            assert pipeline.supports_batch
            out = batch_rows(pipeline, {}, {"x": np.array([2.0])}, [None])
            assert out == [{"y": 6.0, "batched": True}]
        finally:
            del _BATCH_KERNELS["test_tripler_pipeline"]

    def test_register_batch_kernel_requires_name(self):
        with pytest.raises(DomainError):
            register_batch_kernel("")

    def test_resolve_reports_unknown_and_missing_sorted(self):
        class Fussy(Pipeline):
            name = "test_fussy_pipeline"
            defaults = {"zeta": None, "alpha": None, "mid": 1.0}
            required = ("zeta", "alpha")

            def run(self, params, seed=None):  # pragma: no cover
                return {}

        with pytest.raises(DomainError) as missing:
            Fussy().resolve({})
        assert "alpha, zeta" in str(missing.value)
        with pytest.raises(DomainError) as unknown:
            Fussy().resolve({"zzz": 1, "aaa": 2, "alpha": 1, "zeta": 1})
        assert "aaa, zzz" in str(unknown.value)


class TestEveryPipelineRoundTripsThroughYaml:
    @pytest.mark.parametrize("name", _shipped_pipelines())
    def test_yaml_round_trip(self, name, tmp_path):
        yaml = pytest.importorskip("yaml")
        assert name in REPRESENTATIVE, (
            f"add representative parameters for new pipeline {name!r}"
        )
        spec = SweepSpec(pipeline=name, base=REPRESENTATIVE[name], seed=7)
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(spec.to_dict()))
        loaded = load_sweeps(path)
        assert loaded == [spec]
        scenarios = loaded[0].expand()
        assert len(scenarios) == 1
        # The bound parameters must satisfy the pipeline's schema.
        get_pipeline(name).resolve(scenarios[0].params)

    def test_multi_sweep_file_drives_many_pipelines(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        payload = {"sweeps": [
            SweepSpec(pipeline=name, base=REPRESENTATIVE[name],
                      seed=3).to_dict()
            for name in ("survival_update", "sil_classification",
                         "alarp_decision")
        ]}
        path = tmp_path / "multi.yaml"
        path.write_text(yaml.safe_dump(payload))
        sweeps = load_sweeps(path)
        assert [s.pipeline for s in sweeps] == [
            "survival_update", "sil_classification", "alarp_decision"
        ]

    def test_top_level_name_defaults_entry_names(self, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(
            '{"name": "tour", "sweeps": ['
            '{"pipeline": "survival_update",'
            ' "base": {"mode": 0.003, "sigma": 0.9}},'
            '{"pipeline": "alarp_decision", "name": "own",'
            ' "base": {"mode": 0.003, "sigma": 0.9}}]}'
        )
        sweeps = load_sweeps(path)
        assert [s.name for s in sweeps] == ["tour", "own"]

    def test_multi_sweep_file_rejects_bad_shapes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sweeps": []}')
        with pytest.raises(DomainError):
            load_sweeps(path)
        path.write_text('{"sweeps": "nope"}')
        with pytest.raises(DomainError):
            load_sweeps(path)
        path.write_text('{"sweeps": [{"pipeline": "survival_update"}], '
                        '"extra": 1}')
        with pytest.raises(DomainError):
            load_sweeps(path)
        path.write_text('[1, 2]')
        with pytest.raises(DomainError):
            load_sweeps(path)


class TestPipelineValidation:
    def test_sil_from_growth_rejects_bad_model_and_margin(self):
        pipeline = get_pipeline("sil_from_growth")
        with pytest.raises(DomainError):
            pipeline.resolve({"model": "musa"})
        with pytest.raises(DomainError):
            pipeline.resolve({"assumption_margin_decades": -0.1})

    def test_elicitation_pool_rejects_full_doubter_panel(self):
        pipeline = get_pipeline("elicitation_pool")
        with pytest.raises(DomainError):
            pipeline.resolve({"n_experts": 3, "n_doubters": 3})
        with pytest.raises(DomainError):
            pipeline.resolve({"weighting": "cooke"})

    def test_do178b_map_requires_paired_judgement(self):
        pipeline = get_pipeline("do178b_map")
        with pytest.raises(DomainError):
            pipeline.resolve({"dal": "A", "mode": 1e-9})
        with pytest.raises(DomainError):
            pipeline.resolve({"dal": "Z"})

    def test_conservatism_audit_bounds_checked(self):
        pipeline = get_pipeline("conservatism_audit")
        with pytest.raises(DomainError):
            pipeline.resolve({"mode": 0.003, "sigma": 0.9, "beta": 1.5})
        with pytest.raises(DomainError):
            pipeline.resolve({"mode": 0.003, "sigma": 0.9,
                              "belief_bound": -0.2})
