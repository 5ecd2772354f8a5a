"""Tests for the compiled inference layer (einsum VE, vectorized LW).

The compiled engine is checked three ways: against the brute-force
enumeration oracle on randomly generated networks (property tests over
random topologies, cardinalities 2-4 and random evidence sets), against
the retired pure-Python implementations it replaced (bit-for-bit for the
sampler, 1e-12 for the recursive evidence probability), and for the
compile-once/query-many contract (content-hash cache reuse across a
sweep).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arguments import (
    ArgumentLeg,
    build_two_leg_network,
    two_leg_cpt_planes,
)
from repro.bbn import (
    BayesianNetwork,
    CPT,
    CompiledNetwork,
    Variable,
    VariableElimination,
    clear_compile_cache,
    compile_cache_stats,
    compile_network,
    enumerate_query,
    likelihood_weighting,
)
from repro.bbn.oracles import (
    _LoopVariableElimination,
    _likelihood_weighting_loop,
)
from repro.errors import DomainError, StructureError


def random_network(rng: np.random.Generator, n_vars: int) -> BayesianNetwork:
    """A random DAG with per-variable cardinalities in 2..4."""
    variables = []
    net = BayesianNetwork()
    for i in range(n_vars):
        card = int(rng.integers(2, 5))
        var = Variable(f"X{i}", tuple(f"s{k}" for k in range(card)))
        n_parents = int(rng.integers(0, min(i, 2) + 1))
        parent_idx = (
            sorted(rng.choice(i, size=n_parents, replace=False).tolist())
            if n_parents else []
        )
        parents = [variables[j] for j in parent_idx]
        table = {}
        for combo in itertools.product(*(p.states for p in parents)):
            raw = rng.uniform(0.05, 1.0, size=card)
            table[combo] = (raw / raw.sum()).tolist()
        net.add(CPT(var, parents, table))
        variables.append(var)
    return net


def random_query(rng: np.random.Generator, net: BayesianNetwork):
    """A random (target, evidence) pair over distinct variables."""
    names = net.variable_names
    target = names[int(rng.integers(len(names)))]
    others = [n for n in names if n != target]
    n_evidence = int(rng.integers(0, len(others) + 1))
    evidence = {}
    for name in rng.choice(others, size=n_evidence, replace=False).tolist():
        states = net.variable(name).states
        evidence[name] = states[int(rng.integers(len(states)))]
    return target, evidence


class TestCompiledVariableElimination:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_enumeration_on_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 8)))
        target, evidence = random_query(rng, net)
        compiled = CompiledNetwork(net)
        posterior = compiled.query(target, evidence)
        oracle = enumerate_query(net, target, evidence)
        for state in net.variable(target).states:
            assert posterior[state] == pytest.approx(
                oracle[state], abs=1e-12
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_loop_engine(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 8)))
        target, evidence = random_query(rng, net)
        compiled = CompiledNetwork(net).query(target, evidence)
        loop = _LoopVariableElimination(net).query(target, evidence)
        for state in net.variable(target).states:
            assert compiled[state] == pytest.approx(loop[state], abs=1e-12)

    def test_explicit_order_matches_default(self, rng):
        net = random_network(rng, 6)
        compiled = CompiledNetwork(net)
        evidence = {"X5": net.variable("X5").states[0]}
        hidden = [n for n in net.variable_names
                  if n != "X0" and n not in evidence]
        default = compiled.query("X0", evidence)
        explicit = compiled.query("X0", evidence, order=list(reversed(hidden)))
        for state in net.variable("X0").states:
            assert default[state] == pytest.approx(explicit[state], abs=1e-12)

    def test_incomplete_order_rejected(self, rng):
        net = random_network(rng, 5)
        with pytest.raises(StructureError):
            CompiledNetwork(net).query("X0", order=["X1"])

    def test_unknown_target_and_state_errors(self, rng):
        net = random_network(rng, 3)
        compiled = CompiledNetwork(net)
        with pytest.raises(StructureError):
            compiled.query("nope")
        with pytest.raises(DomainError):
            compiled.query("X0", {"X1": "no-such-state"})

    def test_network_larger_than_einsum_label_limit(self):
        # einsum allows at most 52 distinct labels per contraction; labels
        # are remapped per call, so network size must not be capped by it.
        net = BayesianNetwork()
        prev = None
        for i in range(60):
            var = Variable.boolean(f"C{i}")
            if prev is None:
                net.add(CPT.boolean_root(var, 0.6))
            else:
                net.add(CPT(var, [prev], {
                    ("true",): [0.8, 0.2], ("false",): [0.3, 0.7],
                }))
            prev = var
        compiled = CompiledNetwork(net)
        posterior = compiled.query("C0", {"C59": "true"})
        oracle = _LoopVariableElimination(net).query("C0", {"C59": "true"})
        assert posterior["true"] == pytest.approx(oracle["true"], abs=1e-12)

    def test_engine_sees_variables_added_after_construction(self):
        a = Variable.boolean("a")
        b = Variable.boolean("b")
        net = BayesianNetwork()
        net.add(CPT.boolean_root(a, 0.3))
        engine = VariableElimination(net)
        assert engine.query("a")["true"] == pytest.approx(0.3)
        net.add(CPT(b, [a], {("true",): [0.9, 0.1], ("false",): [0.2, 0.8]}))
        posterior = engine.query("a", {"b": "true"})
        oracle = enumerate_query(net, "a", {"b": "true"})
        assert posterior["true"] == pytest.approx(oracle["true"], abs=1e-12)


class TestProbabilityOfEvidence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_one_pass_matches_recursive_chain(self, seed):
        """Regression: the old k-query recursion and the new single
        elimination pass agree to 1e-12 on random evidence sets."""
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 7)))
        _, evidence = random_query(rng, net)
        one_pass = CompiledNetwork(net).probability_of_evidence(evidence)
        recursive = _LoopVariableElimination(net).probability_of_evidence(
            evidence
        )
        assert one_pass == pytest.approx(recursive, abs=1e-12)

    def test_empty_evidence_is_one(self, rng):
        net = random_network(rng, 4)
        assert CompiledNetwork(net).probability_of_evidence({}) == 1.0

    def test_full_assignment_matches_chain_rule(self, rng):
        from repro.bbn import joint_probability

        net = random_network(rng, 5)
        assignment = {
            name: net.variable(name).states[0] for name in net.variable_names
        }
        assert CompiledNetwork(net).probability_of_evidence(
            assignment
        ) == pytest.approx(joint_probability(net, assignment), abs=1e-14)

    def test_public_engine_delegates(self, rng):
        net = random_network(rng, 5)
        evidence = {"X3": net.variable("X3").states[1]}
        assert VariableElimination(net).probability_of_evidence(
            evidence
        ) == pytest.approx(
            _LoopVariableElimination(net).probability_of_evidence(evidence),
            abs=1e-12,
        )


class TestVectorizedLikelihoodWeighting:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bitwise_matches_loop_under_shared_seed(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 7)))
        target, evidence = random_query(rng, net)
        vectorized = likelihood_weighting(
            net, target, evidence, n_samples=200,
            rng=np.random.default_rng(seed),
        )
        loop = _likelihood_weighting_loop(
            net, target, evidence, n_samples=200,
            rng=np.random.default_rng(seed),
        )
        assert vectorized == loop

    def test_deterministic_under_fixed_seed(self, rng):
        net = random_network(rng, 5)
        runs = [
            likelihood_weighting(net, "X0", {"X4": net.variable("X4").states[0]},
                                 n_samples=500, rng=np.random.default_rng(42))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_converges_to_exact_posterior(self, rng):
        net = random_network(rng, 6)
        target, evidence = "X1", {"X5": net.variable("X5").states[0]}
        approx = likelihood_weighting(
            net, target, evidence, n_samples=40_000, rng=rng
        )
        exact = enumerate_query(net, target, evidence)
        for state in net.variable(target).states:
            assert approx[state] == pytest.approx(exact[state], abs=0.02)


class TestCompileCache:
    def test_identical_content_networks_share_one_compilation(self, rng):
        clear_compile_cache()
        seed_net = random_network(np.random.default_rng(5), 5)
        twin_net = random_network(np.random.default_rng(5), 5)
        assert seed_net is not twin_net
        assert compile_network(seed_net) is compile_network(twin_net)
        stats = compile_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_sweep_reuses_one_compilation_per_network(self):
        """A seeded bbn_query sweep compiles the two-leg network once and
        reuses it for every remaining scenario."""
        from repro.engine import SweepSpec, run_sweep

        clear_compile_cache()
        sweep = SweepSpec(
            pipeline="bbn_query",
            base={
                "prior": 0.6, "dependence": 0.3,
                "leg1_validity": 0.9, "leg1_sensitivity": 0.95,
                "leg1_specificity": 0.9,
                "leg2_validity": 0.88, "leg2_sensitivity": 0.9,
                "leg2_specificity": 0.85,
            },
            # n_samples varies the sampler workload but not the network,
            # so all 12 scenarios must share one compilation.
            grid={"n_samples": [100 + 10 * i for i in range(12)]},
            seed=7,
        )
        results = run_sweep(sweep, backend="serial")
        assert len(results) == 12
        stats = compile_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 11


def _clone_with_values(net: BayesianNetwork, values_by_name) -> BayesianNetwork:
    """A structure-identical network with replaced CPT value arrays."""
    clone = BayesianNetwork()
    for name in net.topological_order():
        cpt = net.cpt(name)
        values = values_by_name[name]
        table = {}
        for combo in itertools.product(*(p.states for p in cpt.parents)):
            idx = tuple(
                p.index_of(state) for p, state in zip(cpt.parents, combo)
            )
            table[combo] = values[idx].tolist()
        clone.add(CPT(cpt.child, cpt.parents, table))
    return clone


def _random_planes(rng, net: BayesianNetwork, n_scenarios: int):
    """Per-scenario CPT planes (normalised along the child axis)."""
    planes = {}
    for name in net.topological_order():
        shape = net.cpt(name).values.shape
        raw = rng.uniform(0.05, 1.0, size=(n_scenarios,) + shape)
        planes[name] = raw / raw.sum(axis=-1, keepdims=True)
    return planes


class TestBatchedCptPlanes:
    """query_batch / probability_of_evidence_batch / LW batch: scenario
    ``s`` must reproduce the single-network query on a network carrying
    scenario ``s``'s CPT values (bit-for-bit for the sampler under a
    shared seed)."""

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_query_batch_matches_per_scenario_queries(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 7)))
        compiled = compile_network(net)
        target, evidence = random_query(rng, net)
        n_scenarios = 5
        planes = _random_planes(rng, net, n_scenarios)
        batch = compiled.query_batch(target, evidence, planes)
        states = net.variable(target).states
        for s in range(n_scenarios):
            scenario_net = _clone_with_values(
                net, {name: plane[s] for name, plane in planes.items()}
            )
            oracle = enumerate_query(scenario_net, target, evidence)
            for k, state in enumerate(states):
                assert abs(batch[s, k] - oracle[state]) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_probability_of_evidence_batch(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 6)))
        compiled = compile_network(net)
        _target, evidence = random_query(rng, net)
        if not evidence:
            evidence = {net.variable_names[0]:
                        net.variable(net.variable_names[0]).states[0]}
        n_scenarios = 4
        planes = _random_planes(rng, net, n_scenarios)
        batch = compiled.probability_of_evidence_batch(evidence, planes)
        for s in range(n_scenarios):
            scenario_net = _clone_with_values(
                net, {name: plane[s] for name, plane in planes.items()}
            )
            scalar = compile_network(scenario_net).probability_of_evidence(
                evidence
            )
            assert abs(batch[s] - scalar) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_likelihood_weighting_batch_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(3, 6)))
        compiled = compile_network(net)
        target, evidence = random_query(rng, net)
        n_scenarios = 3
        planes = _random_planes(rng, net, n_scenarios)
        batch = compiled.likelihood_weighting_batch(
            target, evidence, n_samples=256,
            rngs=[seed + s for s in range(n_scenarios)],
            cpt_planes=planes,
        )
        states = net.variable(target).states
        for s in range(n_scenarios):
            scenario_net = _clone_with_values(
                net, {name: plane[s] for name, plane in planes.items()}
            )
            scalar = compile_network(scenario_net).likelihood_weighting(
                target, evidence, n_samples=256, rng=seed + s
            )
            for k, state in enumerate(states):
                assert batch[s, k] == scalar[state]

    def test_partial_planes_reuse_compiled_tables(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, 5)
        compiled = compile_network(net)
        target, evidence = random_query(rng, net)
        name = net.topological_order()[0]
        planes = {
            name: np.stack([net.cpt(name).values] * 3)
        }
        batch = compiled.query_batch(target, evidence, planes)
        scalar = compiled.query(target, evidence)
        states = net.variable(target).states
        for s in range(3):
            for k, state in enumerate(states):
                assert abs(batch[s, k] - scalar[state]) <= 1e-12

    def test_clamped_target_returns_one_hot_rows(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 4)
        compiled = compile_network(net)
        name = net.variable_names[0]
        state = net.variable(name).states[0]
        planes = _random_planes(rng, net, 2)
        batch = compiled.query_batch(name, {name: state}, planes)
        assert batch.shape == (2, net.variable(name).cardinality)
        assert np.allclose(batch[:, 0], 1.0)

    def test_empty_planes_rejected(self):
        rng = np.random.default_rng(4)
        compiled = compile_network(random_network(rng, 3))
        with pytest.raises(DomainError):
            compiled.query_batch("X0", None, {})

    def test_wrong_plane_shape_rejected(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 3)
        compiled = compile_network(net)
        bad = np.ones((2, 99))
        with pytest.raises(StructureError):
            compiled.query_batch("X0", None, {"X1": bad})

    def test_mismatched_scenario_counts_rejected(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 3)
        compiled = compile_network(net)
        planes = _random_planes(rng, net, 3)
        first = net.topological_order()[0]
        planes[first] = planes[first][:2]
        with pytest.raises(StructureError):
            compiled.query_batch("X0", None, planes)

    def test_rng_count_must_match_scenarios(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 3)
        compiled = compile_network(net)
        planes = _random_planes(rng, net, 3)
        with pytest.raises(DomainError):
            compiled.likelihood_weighting_batch(
                "X0", None, n_samples=16, rngs=[1, 2], cpt_planes=planes
            )


def _assert_lw_batch_matches_scalar(net, target, evidence, planes,
                                    n_samples=300):
    """Row ``s`` of ``likelihood_weighting_batch`` equals the scalar
    sampler on scenario ``s``'s network under the same seed, bit for bit.
    Variables without a plane keep ``net``'s CPT values."""
    n_scenarios = len(next(iter(planes.values())))
    seeds = [31 + s for s in range(n_scenarios)]
    batch = compile_network(net).likelihood_weighting_batch(
        target, evidence, n_samples=n_samples, rngs=seeds, cpt_planes=planes,
    )
    states = net.variable(target).states
    for s, seed in enumerate(seeds):
        values = {name: net.cpt(name).values for name in net.variable_names}
        values.update({name: plane[s] for name, plane in planes.items()})
        scalar = compile_network(
            _clone_with_values(net, values)
        ).likelihood_weighting(target, evidence, n_samples=n_samples, rng=seed)
        assert batch[s].tolist() == [scalar[state] for state in states]
    return batch


def _two_leg_family():
    """The two-leg network and three scenarios' CPT planes for it."""
    leg = ArgumentLeg("leg", 0.9, 0.95, 0.9, 0.05)
    net = build_two_leg_network(0.6, leg, leg, 0.3)
    planes = two_leg_cpt_planes(
        [0.3, 0.6, 0.9], [0.2, 0.5, 0.8],
        0.9, 0.95, 0.9, 0.05, 0.85, 0.9, 0.8, 0.1,
    )
    return net, planes


BOTH_LEGS = {"evidence_leg1": "true", "evidence_leg2": "true"}


class TestLikelihoodWeightingBatchEdges:
    """Shapes of evidence and CPTs the random networks rarely draw, each
    checked bit for bit against per-scenario scalar sampler calls."""

    @pytest.mark.parametrize("clamped", [
        # The parent of both sampled assumptions_leg* variables; "false"
        # leaves them only the CPT rows' 0 entries to avoid.
        {"shared_underpinning": "true"},
        {"shared_underpinning": "false"},
        # The parent of another evidence variable (evidence_leg1).
        {"assumptions_leg1": "true"},
    ])
    def test_evidence_on_a_parent(self, clamped):
        net, planes = _two_leg_family()
        _assert_lw_batch_matches_scalar(
            net, "claim", {**BOTH_LEGS, **clamped}, planes
        )

    def test_clamped_target(self):
        net, planes = _two_leg_family()
        batch = _assert_lw_batch_matches_scalar(
            net, "claim", {"claim": "false", "evidence_leg1": "true"}, planes
        )
        assert (batch[:, 0] == 0.0).all()

    def test_every_variable_clamped_draws_no_uniforms(self):
        net, planes = _two_leg_family()
        evidence = {name: "true" for name in net.variable_names}
        _assert_lw_batch_matches_scalar(net, "claim", evidence, planes)
        generators = [np.random.default_rng(5) for _ in range(3)]
        compile_network(net).likelihood_weighting_batch(
            "claim", evidence, n_samples=50, rngs=generators,
            cpt_planes=planes,
        )
        untouched = np.random.default_rng(5).bit_generator.state
        assert all(g.bit_generator.state == untouched for g in generators)

    @pytest.mark.parametrize("target", ["claim", "assumptions_leg1"])
    def test_variables_with_parents_and_no_plane(self, target):
        net, planes = _two_leg_family()
        partial = {
            name: plane for name, plane in planes.items()
            if not name.startswith("assumptions_leg")
        }
        _assert_lw_batch_matches_scalar(net, target, BOTH_LEGS, partial)

    @pytest.mark.parametrize("target", ["x", "y"])
    def test_multistate_rows_with_zero_entries(self, target):
        x = Variable("x", ("a", "b", "c"))
        y = Variable("y", ("p", "q", "r", "s"))
        e = Variable.boolean("e")
        net = BayesianNetwork()
        net.add(CPT.root(x, [0.5, 0.0, 0.5]))
        net.add(CPT(y, [x], {
            ("a",): [0.0, 0.3, 0.7, 0.0],
            ("b",): [0.25, 0.25, 0.25, 0.25],
            ("c",): [0.4, 0.0, 0.0, 0.6],
        }))
        net.add(CPT(e, [y], {
            ("p",): [0.9, 0.1], ("q",): [0.2, 0.8],
            ("r",): [0.5, 0.5], ("s",): [0.7, 0.3],
        }))
        planes = {
            "x": np.array([[0.5, 0.0, 0.5], [0.2, 0.3, 0.5],
                           [0.0, 0.0, 1.0]]),
            "y": np.array([
                [[0.0, 0.3, 0.7, 0.0], [0.25] * 4, [0.4, 0.0, 0.0, 0.6]],
                [[0.0, 0.0, 0.0, 1.0], [0.1, 0.0, 0.9, 0.0], [0.25] * 4],
                [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0],
                 [0.0, 0.0, 0.2, 0.8]],
            ]),
        }
        _assert_lw_batch_matches_scalar(net, target, {"e": "true"}, planes)

    def test_zero_likelihood_scenario_raises(self):
        net, planes = _two_leg_family()
        # Scenario 1 can never show evidence_leg1 = "true".
        planes["evidence_leg1"][1, ..., 0] = 0.0
        planes["evidence_leg1"][1, ..., 1] = 1.0
        with pytest.raises(DomainError, match="zero weight"):
            compile_network(net).likelihood_weighting_batch(
                "claim", BOTH_LEGS, n_samples=100, rngs=[1, 2, 3],
                cpt_planes=planes,
            )
        values = {name: plane[1] for name, plane in planes.items()}
        with pytest.raises(DomainError, match="zero weight"):
            compile_network(
                _clone_with_values(net, values)
            ).likelihood_weighting("claim", BOTH_LEGS, n_samples=100, rng=2)
