"""Compiled case engine vs the recursive oracle on randomized DAGs.

The contract under test: for any valid quantified case and any
per-scenario parameter binding, :meth:`CompiledCase.evaluate_sweep`
reproduces the per-node recursion :meth:`QuantifiedCase.evaluate` to
1e-12 on every node — including shared subtrees, assumption discounts
and two-leg BBN fragments — and case specs round-trip through YAML
without changing either.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arguments import (
    ArgumentGraph,
    Assumption,
    BetaFactor1oo2,
    CompiledCase,
    FixedConfidence,
    Goal,
    IndependentProduct,
    LegEvidence,
    LognormalClaim,
    NoisySupport,
    QuantifiedCase,
    Solution,
    Strategy,
    TwoLegBBN,
    clear_case_caches,
    compile_case,
    load_case,
)
from repro.errors import DomainError

TOL = 1e-12


def random_case(rng: np.random.Generator) -> QuantifiedCase:
    """A random valid quantified DAG (depth <= 3, shared solutions)."""
    graph = ArgumentGraph()
    quantifications = {}
    counter = {"n": 0}
    solutions = []

    def fresh(prefix):
        counter["n"] += 1
        return f"{prefix}{counter['n']}"

    def add_assumption(target):
        if rng.random() < 0.4:
            identifier = fresh("A")
            graph.add_node(Assumption(
                identifier, "an assumption",
                probability_true=float(rng.uniform(0.5, 1.0)),
            ))
            graph.annotate(target, identifier)

    def add_leaf(parent):
        existing = {node.identifier for node in graph.supporters(parent)}
        reusable = [s for s in solutions if s not in existing]
        if reusable and rng.random() < 0.25:
            graph.add_support(parent, reusable[rng.integers(len(reusable))])
            return
        identifier = fresh("Sn")
        graph.add_node(Solution(identifier, "evidence"))
        kind = rng.integers(3)
        if kind == 0:
            quantifications[identifier] = FixedConfidence(
                float(rng.uniform(0.3, 1.0))
            )
        elif kind == 1:
            quantifications[identifier] = LognormalClaim(
                mode=float(rng.uniform(1e-4, 0.05)),
                sigma=float(rng.uniform(0.4, 1.5)),
                bound=float(rng.uniform(1e-3, 0.1)),
            )
        else:
            quantifications[identifier] = LegEvidence(
                prior=float(rng.uniform(0.2, 0.9)),
                validity=float(rng.uniform(0.5, 1.0)),
                sensitivity=float(rng.uniform(0.55, 0.99)),
                specificity=float(rng.uniform(0.55, 0.99)),
                noise=float(rng.uniform(0.2, 0.8)),
            )
        solutions.append(identifier)
        graph.add_support(parent, identifier)

    def populate(identifier, node_kind, depth):
        choice = rng.integers(4)
        if choice == 0:
            model, n_children = IndependentProduct(), int(rng.integers(1, 4))
        elif choice == 1:
            model = NoisySupport(weight=float(rng.uniform(0.5, 1.0)))
            n_children = int(rng.integers(1, 4))
        elif choice == 2:
            model, n_children = (
                BetaFactor1oo2(beta=float(rng.uniform(0.0, 1.0))), 2
            )
        else:
            model = TwoLegBBN(
                prior=float(rng.uniform(0.2, 0.9)),
                dependence=float(rng.uniform(0.0, 1.0)),
                sensitivity1=float(rng.uniform(0.55, 0.99)),
                specificity1=float(rng.uniform(0.55, 0.99)),
                noise1=float(rng.uniform(0.2, 0.8)),
                sensitivity2=float(rng.uniform(0.55, 0.99)),
                specificity2=float(rng.uniform(0.55, 0.99)),
                noise2=float(rng.uniform(0.2, 0.8)),
            )
            n_children = 2
        quantifications[identifier] = model
        for _ in range(n_children):
            # Goals may be decomposed by strategies or sub-goals;
            # strategies only by goals or solutions.
            if depth > 0 and rng.random() < 0.55:
                if node_kind == "goal" and rng.random() < 0.5:
                    child = fresh("S")
                    graph.add_node(Strategy(child, "a strategy"))
                    graph.add_support(identifier, child)
                    populate(child, "strategy", depth - 1)
                else:
                    child = fresh("G")
                    graph.add_node(Goal(child, "a subclaim"))
                    graph.add_support(identifier, child)
                    populate(child, "goal", depth - 1)
            else:
                add_leaf(identifier)
        add_assumption(identifier)

    root = fresh("G")
    graph.add_node(Goal(root, "top claim", claim_bound=1e-3))
    populate(root, "goal", depth=int(rng.integers(1, 4)))
    return QuantifiedCase(graph, quantifications)


def random_columns(case, rng, n_scenarios):
    """Random per-scenario overrides for a random subset of parameters."""
    defaults = case.parameter_defaults()
    names = sorted(defaults)
    chosen = [name for name in names if rng.random() < 0.5]
    columns = {}
    for name in chosen:
        if name.endswith((".p_true", ".confidence", ".validity",
                          ".dependence", ".beta", ".weight", ".noise",
                          ".noise1", ".noise2")):
            columns[name] = rng.uniform(0.05, 1.0, n_scenarios)
        elif name.endswith((".sensitivity", ".specificity",
                            ".sensitivity1", ".specificity1",
                            ".sensitivity2", ".specificity2", ".prior")):
            columns[name] = rng.uniform(0.3, 0.99, n_scenarios)
        elif name.endswith(".mode"):
            columns[name] = rng.uniform(1e-4, 0.05, n_scenarios)
        elif name.endswith(".sigma"):
            columns[name] = rng.uniform(0.4, 1.5, n_scenarios)
        elif name.endswith(".bound"):
            columns[name] = rng.uniform(1e-3, 0.1, n_scenarios)
        else:  # pragma: no cover - every parameter matches a suffix above
            columns[name] = rng.uniform(0.1, 0.9, n_scenarios)
    return columns


class TestCompiledMatchesOracle:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_compiled_sweep_matches_recursion(self, seed):
        rng = np.random.default_rng(seed)
        case = random_case(rng)
        compiled = CompiledCase(case)
        n_scenarios = 6
        columns = random_columns(case, rng, n_scenarios)
        sweep = compiled.evaluate_sweep(columns, n_scenarios)
        for scenario in range(n_scenarios):
            overrides = {
                name: float(values[scenario])
                for name, values in columns.items()
            }
            oracle = case.evaluate(overrides)
            for identifier, expected in oracle.items():
                got = sweep[identifier][scenario]
                assert abs(got - expected) <= TOL, (
                    seed, identifier, scenario, expected, got
                )

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_yaml_round_trip_preserves_case(self, seed):
        yaml = pytest.importorskip("yaml")
        rng = np.random.default_rng(seed)
        case = random_case(rng)
        clone = QuantifiedCase.from_dict(
            yaml.safe_load(yaml.safe_dump(case.to_dict()))
        )
        assert clone.content_hash() == case.content_hash()
        assert clone.parameter_defaults() == case.parameter_defaults()
        assert clone.evaluate() == case.evaluate()


class TestCompiledCaseBasics:
    def setup_method(self):
        self.rng = np.random.default_rng(20070629)
        self.case = random_case(self.rng)

    def test_defaults_sweep_matches_defaults_recursion(self):
        compiled = CompiledCase(self.case)
        sweep = compiled.evaluate_sweep(n_scenarios=3)
        oracle = self.case.evaluate()
        for identifier, expected in oracle.items():
            assert np.all(np.abs(sweep[identifier] - expected) <= TOL)

    def test_scalar_columns_broadcast(self):
        compiled = CompiledCase(self.case)
        name = sorted(compiled.parameter_defaults())[0]
        out = compiled.top_confidence_sweep(
            {name: compiled.parameter_defaults()[name]}, n_scenarios=4
        )
        assert out.shape == (4,)

    def test_unknown_column_rejected_sorted(self):
        compiled = CompiledCase(self.case)
        with pytest.raises(DomainError, match="AA.x, ZZ.y"):
            compiled.evaluate_sweep({"ZZ.y": 0.5, "AA.x": 0.5})

    def test_out_of_range_column_rejected(self):
        graph = ArgumentGraph()
        graph.add_node(Goal("G1", "claim"))
        graph.add_node(Solution("Sn1", "evidence"))
        graph.add_support("G1", "Sn1")
        case = QuantifiedCase(graph, {"Sn1": FixedConfidence(0.9)})
        compiled = CompiledCase(case)
        with pytest.raises(DomainError):
            compiled.evaluate_sweep(
                {"Sn1.confidence": np.array([0.5, 1.8])}, 2
            )


class TestCaches:
    def test_compile_case_memoises_by_content(self):
        clear_case_caches()
        rng = np.random.default_rng(7)
        case = random_case(rng)
        clone = QuantifiedCase.from_dict(case.to_dict())
        assert compile_case(case) is compile_case(clone)

    def test_load_case_caches_and_notices_edits(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        clear_case_caches()
        case = random_case(np.random.default_rng(11))
        path = tmp_path / "case.yaml"
        path.write_text(yaml.safe_dump(case.to_dict()))
        first = load_case(path)
        assert load_case(path) is first
        changed = case.to_dict()
        changed["name"] = "edited"
        path.write_text(yaml.safe_dump(changed))
        import os
        os.utime(path, (os.path.getmtime(path) + 2,) * 2)
        assert load_case(path).name == "edited"

    def test_load_case_missing_file_rejected(self):
        with pytest.raises(DomainError):
            load_case("/nonexistent/case.yaml")


class TestColumnValidation:
    def setup_method(self):
        self.case = QuantifiedCase.from_dict({
            "nodes": [
                {"id": "G1", "kind": "goal", "text": "top"},
                {"id": "Sn1", "kind": "solution", "text": "e"},
                {"id": "A1", "kind": "assumption", "text": "a",
                 "probability_true": 0.9},
            ],
            "support": [["G1", "Sn1"]],
            "annotations": [["G1", "A1"]],
            "quantify": {"Sn1": {"model": "fixed", "confidence": 0.8}},
        })

    def test_mismatched_column_lengths_rejected_with_name(self):
        compiled = CompiledCase(self.case)
        with pytest.raises(DomainError, match="A1.p_true"):
            compiled.evaluate_sweep({
                "Sn1.confidence": [0.7, 0.8],
                "A1.p_true": [0.9, 0.8, 0.7],
            })

    def test_out_of_range_assumption_column_rejected(self):
        compiled = CompiledCase(self.case)
        with pytest.raises(DomainError, match="A1.p_true"):
            compiled.evaluate_sweep({"A1.p_true": [0.9, 1.4]}, 2)


def per_node(compiled, *args, **kwargs):
    """``evaluate_sweep`` with fusion off: every group exceeds the cap."""
    with mock.patch("repro.arguments.compiled._FUSE_ELEMENT_CAP", 0):
        return compiled.evaluate_sweep(*args, **kwargs)


class TestFusedEvaluation:
    """Level-batched fused evaluation vs the per-node dispatch loop.

    ``evaluate_sweep`` groups sibling nodes that share an elementwise
    model into one whole-plane call; a zero element cap sends every
    group down the per-node loop.  The two must agree on every node for
    any valid case and any column binding.
    """

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fused_matches_per_node(self, seed):
        rng = np.random.default_rng(seed)
        case = random_case(rng)
        compiled = CompiledCase(case)
        n_scenarios = 5
        columns = random_columns(case, rng, n_scenarios)
        fused = compiled.evaluate_sweep(columns, n_scenarios)
        loop = per_node(compiled, columns, n_scenarios)
        assert set(fused) == set(loop)
        for identifier in fused:
            assert np.all(
                np.abs(fused[identifier] - loop[identifier]) <= TOL
            ), (seed, identifier)

    def test_fused_defaults_bitwise_identical(self):
        # The fused path concatenates planes and calls the same
        # elementwise kernels, so on a fixed case it is not just close
        # but bit-for-bit identical to the per-node loop.
        rng = np.random.default_rng(20070629)
        case = random_case(rng)
        compiled = CompiledCase(case)
        fused = compiled.evaluate_sweep(n_scenarios=8)
        loop = per_node(compiled, n_scenarios=8)
        for identifier in fused:
            assert np.array_equal(fused[identifier], loop[identifier])

    def test_fused_groups_respect_dependencies(self):
        from repro.arguments.compiled import _plan_fused_groups

        for seed in range(20):
            case = random_case(np.random.default_rng(seed))
            compiled = CompiledCase(case)
            groups = _plan_fused_groups(compiled._records)
            seen = set()
            for group in groups:
                for slot, record in group:
                    for child_slot in record.children:
                        assert child_slot in seen, seed
                for slot, _record in group:
                    seen.add(slot)
            assert len(seen) == len(compiled._records)

    def test_non_fusable_models_stay_singletons(self):
        from repro.arguments.compiled import _plan_fused_groups

        for seed in range(20):
            case = random_case(np.random.default_rng(seed + 100))
            compiled = CompiledCase(case)
            for group in _plan_fused_groups(compiled._records):
                if len(group) > 1:
                    for _slot, record in group:
                        assert record.model.fusable, seed
