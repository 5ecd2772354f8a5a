"""Unit tests for plan lowering (:mod:`repro.engine.plan`).

The plan is the contract between spec expansion and execution: lazy
scenario reconstruction must be *identical* to ``SweepSpec.expand()`` —
same parameters, same seeds, same order — for every chunk layout, or
streamed sweeps would silently diverge from collected ones.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Chunk,
    MemorySink,
    ScenarioSpec,
    SweepSpec,
    get_pipeline,
    lower,
    run_sweep,
    run_sweep_streaming,
)
from repro.engine.plan import DEFAULT_CHUNK_SIZE
from repro.errors import DomainError
from repro.numerics import spawn_seeds, spawn_seeds_range

SWEEP = SweepSpec(
    pipeline="survival_update",
    base={"mode": 0.003, "bound": 1e-2},
    grid={"sigma": [0.7, 0.9, 1.1], "demands": [0, 10, 100, 1000]},
    seed=2007,
)


class TestSeedRange:
    def test_range_matches_full_spawn(self):
        full = spawn_seeds(2007, 40)
        assert spawn_seeds_range(2007, 0, 40) == full
        assert spawn_seeds_range(2007, 13, 29) == full[13:29]
        assert spawn_seeds_range(2007, 39, 40) == full[39:]

    def test_none_master_gives_none_children(self):
        assert spawn_seeds_range(None, 5, 8) == [None, None, None]

    def test_invalid_range_rejected(self):
        with pytest.raises(DomainError):
            spawn_seeds_range(1, -1, 2)
        with pytest.raises(DomainError):
            spawn_seeds_range(1, 5, 2)

    @given(
        master=st.integers(min_value=0, max_value=2**31),
        start=st.integers(min_value=0, max_value=200),
        width=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_any_slice_matches(self, master, start, width):
        stop = start + width
        assert (
            spawn_seeds_range(master, start, stop)
            == spawn_seeds(master, stop)[start:stop]
        )


class TestLowering:
    def test_layout_and_introspection(self):
        plan = lower(SWEEP, chunk_size=5)
        assert plan.pipeline_name == "survival_update"
        assert plan.n_scenarios == 12
        assert plan.chunk_size == 5
        assert plan.n_chunks == 3
        assert plan.axes == ("demands", "sigma")
        assert plan.master_seed == 2007
        chunks = list(plan.chunks())
        assert chunks == [Chunk(0, 0, 5), Chunk(1, 5, 10), Chunk(2, 10, 12)]
        assert [len(c) for c in chunks] == [5, 5, 2]
        assert "12 scenarios" in repr(plan)

    def test_default_chunk_size(self):
        assert lower(SWEEP).chunk_size == DEFAULT_CHUNK_SIZE

    def test_scenarios_match_expand_exactly(self):
        expanded = SWEEP.expand()
        plan = lower(SWEEP, chunk_size=5)
        for index, expected in enumerate(expanded):
            got = plan.scenario(index)
            assert got.params == expected.params
            assert got.seed == expected.seed
            assert got.pipeline == expected.pipeline
        # Chunked reconstruction concatenates to the same family.
        rebuilt = [
            scenario
            for chunk in plan.chunks()
            for scenario in plan.batch(chunk).specs()
        ]
        assert rebuilt == expanded

    @given(chunk_size=st.integers(min_value=1, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_every_chunk_layout_rebuilds_the_same_family(self, chunk_size):
        plan = lower(SWEEP, chunk_size=chunk_size)
        rebuilt = [
            scenario
            for chunk in plan.chunks()
            for scenario in plan.batch(chunk).specs()
        ]
        assert rebuilt == SWEEP.expand()

    def test_unseeded_sweep_has_none_seeds(self):
        sweep = SweepSpec(pipeline="survival_update",
                          base={"mode": 0.003, "sigma": 0.9},
                          grid={"demands": [0, 10]})
        plan = lower(sweep)
        assert [s.seed for s in plan.batch(plan.chunk(0)).specs()] == [
            None, None,
        ]

    def test_empty_grid_is_one_base_scenario(self):
        sweep = SweepSpec(pipeline="survival_update",
                          base={"mode": 0.003, "sigma": 0.9}, seed=7)
        plan = lower(sweep)
        assert plan.n_scenarios == 1
        assert plan.scenario(0) == sweep.expand()[0]

    def test_empty_axis_is_zero_scenarios(self):
        sweep = SweepSpec(pipeline="survival_update",
                          base={"mode": 0.003, "sigma": 0.9},
                          grid={"demands": []})
        plan = lower(sweep)
        assert plan.n_scenarios == 0
        assert plan.n_chunks == 0
        assert list(plan.chunks()) == []

    def test_chunk_planes_resolve_through_the_pipeline(self):
        plan = lower(SWEEP, chunk_size=4)
        batch = plan.batch(plan.chunk(0))
        scenarios = batch.specs()
        (_config, _columns, _rows, planes, seeds), = plan.groups(batch)
        items = [({name: values[i] for name, values in planes.items()},
                  seeds[i]) for i in range(len(seeds))]
        assert len(items) == 4
        params, seed = items[0]
        assert params["mode"] == 0.003           # base carried over
        assert params["points_per_decade"] == 400  # default filled in
        assert seed == scenarios[0].seed

    def test_resolution_errors_surface_at_lower(self):
        sweep = SweepSpec(pipeline="survival_update",
                          base={"mode": 0.003, "sigma": 0.9, "demands": 1.5})
        with pytest.raises(DomainError, match="demands must be an integer"):
            lower(sweep)

    def test_resolution_errors_surface_in_chunk_planes(self):
        # Scenario 0 and its one-axis neighbours are valid; the corner
        # joining both axes (3 doubters of 2 experts) is not.
        sweep = SweepSpec(pipeline="elicitation_pool",
                          grid={"n_experts": [5, 2], "n_doubters": [0, 3]})
        plan = lower(sweep)
        with pytest.raises(DomainError, match="doubter count"):
            plan.groups(plan.batch(plan.chunk(0)))

    def test_out_of_range_indices_rejected(self):
        plan = lower(SWEEP, chunk_size=5)
        with pytest.raises(DomainError):
            plan.scenario(12)
        with pytest.raises(DomainError):
            plan.chunk(3)

    def test_cache_keys_fold_through_the_pipeline(self):
        plan = lower(SWEEP)
        scenario = plan.scenario(0)
        assert plan.cache_key(scenario) == scenario.key()


CASE_FILE = str(pathlib.Path(__file__).resolve().parents[2]
                / "examples" / "case_confidence.yaml")


def _first_refused(pipeline, sweep):
    """The first scenario the scalar resolve refuses, and its message."""
    for index, scenario in enumerate(sweep.expand()):
        try:
            pipeline.resolve(scenario.params)
        except DomainError as exc:
            return index, str(exc)
    raise AssertionError("every scenario resolves")


class TestResolveOnce:
    def test_no_per_row_resolve_without_a_cache(self, monkeypatch):
        # At most one resolve per axis value plus one per configuration
        # group (32 + 32 + 1 here), however the sweep is chunked.
        pipeline = get_pipeline("case_confidence")
        calls = []
        resolve = pipeline.resolve

        def counted(*args, **kwargs):
            calls.append(args)
            return resolve(*args, **kwargs)

        monkeypatch.setattr(pipeline, "resolve", counted)
        sweep = SweepSpec(
            pipeline="case_confidence", base={"case_file": CASE_FILE},
            grid={"A1.p_true": [0.5 + 0.01 * i for i in range(32)],
                  "S1.dependence": [0.02 * i for i in range(32)]},
        )
        assert len(run_sweep(sweep, chunk_size=64)) == 1024
        assert len(calls) <= 32 + 32 + 1

    @pytest.mark.parametrize("grid", [
        # One failing corner, in the second configuration group.
        {"n_experts": [5, 2], "n_doubters": [0, 3]},
        {"sigma_low": [0.5, 1.0], "sigma_high": [1.2, 0.8]},
        # Both checks fail, on different rows of both groups.
        {"n_experts": [5, 2], "n_doubters": [0, 3],
         "sigma_low": [0.5, 1.0], "sigma_high": [1.2, 0.8]},
    ], ids=["doubters", "sigmas", "both"])
    @pytest.mark.parametrize("chunk_size", [1, None], ids=["chunk1", "default"])
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_checks_joining_axes_refuse_the_same_scenario(self, grid,
                                                           chunk_size,
                                                           backend):
        # Lowering checks each axis value; the corner where two valid
        # values clash is refused by its chunk, with resolve's message.
        sweep = SweepSpec(pipeline="elicitation_pool", grid=grid, seed=3)
        index, message = _first_refused(get_pipeline("elicitation_pool"),
                                         sweep)
        plan = lower(sweep, chunk_size=chunk_size)
        chunk = plan.chunk(index // plan.chunk_size)
        sink = MemorySink()
        with pytest.raises(DomainError) as excinfo:
            run_sweep_streaming(plan, backend=backend, sinks=(sink,))
        assert str(excinfo.value) == (
            f"pipeline 'elicitation_pool', scenarios [{chunk.start}, "
            f"{chunk.stop}): DomainError: {message}"
        )
        assert len(sink.results) == chunk.start

    def test_mode_and_sigma_bound_together_refused_at_lower(self):
        sweep = SweepSpec(pipeline="do178b_map",
                          grid={"dal": ["A", "B"], "mode": [1e-8, None],
                                "sigma": [1.0, None]})
        _index, message = _first_refused(get_pipeline("do178b_map"), sweep)
        with pytest.raises(DomainError) as excinfo:
            lower(sweep)
        assert str(excinfo.value) == message


class TestLoweringErrors:
    def test_unknown_pipeline_rejected(self):
        with pytest.raises(DomainError):
            lower(SweepSpec(pipeline="nope", base={}))

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(DomainError):
            lower(SWEEP, chunk_size=0)

    def test_mixed_pipelines_rejected(self):
        specs = [
            ScenarioSpec("survival_update", {"mode": 0.003, "sigma": 0.9}),
            ScenarioSpec("sil_classification", {"mode": 0.003, "sigma": 0.9}),
        ]
        with pytest.raises(DomainError):
            lower(specs)

    def test_non_scenario_entries_rejected(self):
        with pytest.raises(DomainError):
            lower([{"pipeline": "survival_update"}])

    def test_empty_scenario_list_rejected(self):
        with pytest.raises(DomainError):
            lower([])


class TestExplicitScenarioPlans:
    def test_explicit_list_preserved_verbatim(self):
        scenarios = [
            ScenarioSpec("survival_update",
                         {"mode": 0.003, "sigma": 0.9, "demands": d},
                         seed=d)
            for d in (0, 10, 100)
        ]
        plan = lower(scenarios, chunk_size=2)
        assert plan.n_scenarios == 3
        assert plan.scenario(1) is scenarios[1]
        assert plan.batch(plan.chunk(1)).specs() == scenarios[2:]

    def test_plan_chunk_size_conflict_detected(self):
        from repro.engine import run_sweep_streaming

        plan = lower(SWEEP, chunk_size=4)
        assert lower(plan) is plan and lower(plan, chunk_size=4) is plan
        with pytest.raises(DomainError):
            lower(plan, chunk_size=5)
        with pytest.raises(DomainError):
            run_sweep_streaming(plan, chunk_size=5)
