"""Reference implementations the compiled engine is checked against.

Only tests and benchmarks import this module.  Both engines here are the
pure-Python originals that :mod:`repro.bbn.compiled` replaced:

* :class:`_LoopVariableElimination` — pairwise ``Factor.multiply``
  variable elimination and a recursive ``probability_of_evidence``; the
  regression oracle for the einsum engine and P6's pre-compilation
  baseline.
* :func:`_likelihood_weighting_loop` — the per-sample Python sampler.
  The compiled sampler consumes a shared seed's stream in the same order,
  so the two agree bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import DomainError, StructureError
from ..numerics import ensure_rng
from .cpt import Factor
from .network import BayesianNetwork


class _LoopVariableElimination:
    """The retired pure-Python engine: pairwise ``Factor.multiply`` VE and
    a per-evidence-variable recursive ``probability_of_evidence``.

    Kept (unexported) as the independent oracle for regression tests and
    as the pre-compilation baseline the P6 benchmark measures against.
    """

    def __init__(self, network: BayesianNetwork):
        self._network = network

    def query(
        self,
        target: str,
        evidence: Optional[Mapping[str, str]] = None,
        order: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """``P(target | evidence)`` as a state -> probability mapping."""
        evidence = dict(evidence or {})
        net = self._network
        target_var = net.variable(target)
        net.validate_evidence(evidence)
        if target in evidence:
            return {
                state: 1.0 if state == evidence[target] else 0.0
                for state in target_var.states
            }

        factors = self._reduced_factors(evidence)
        hidden = [
            name
            for name in net.variable_names
            if name != target and name not in evidence
        ]
        for name in self._elimination_order(hidden, factors, order):
            factors = self._eliminate(factors, name)
        # Multiply all remaining factors; non-scalar ones mention only the
        # target, scalars fold into a common weight that normalises away.
        product = None
        scalar_product = 1.0
        for factor in factors:
            if factor.is_scalar():
                scalar_product *= factor.scalar_value()
            else:
                product = factor if product is None else product.multiply(factor)
        if product is None:
            raise StructureError("target variable vanished during elimination")
        values = product.values * scalar_product
        total = values.sum()
        if total <= 0:
            raise DomainError(
                f"evidence {evidence} has zero probability under the network"
            )
        values = values / total
        return dict(zip(target_var.states, values.tolist()))

    def probability_of_evidence(self, evidence: Mapping[str, str]) -> float:
        """Marginal probability of an evidence assignment."""
        evidence = dict(evidence)
        if not evidence:
            return 1.0
        net = self._network
        net.validate_evidence(evidence)
        anchor = next(iter(evidence))
        remaining = {k: v for k, v in evidence.items() if k != anchor}
        posterior = self.query(anchor, remaining)
        prior_of_rest = self.probability_of_evidence(remaining)
        return posterior[evidence[anchor]] * prior_of_rest

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _reduced_factors(self, evidence: Mapping[str, str]) -> List[Factor]:
        factors = []
        for factor in self._network.factors():
            for name, state in evidence.items():
                if name in factor.names:
                    factor = factor.reduce(name, state)
            factors.append(factor)
        return factors

    @staticmethod
    def _elimination_order(
        hidden: List[str],
        factors: List[Factor],
        requested: Optional[Sequence[str]],
    ) -> List[str]:
        if requested is not None:
            missing = set(hidden) - set(requested)
            if missing:
                raise StructureError(
                    f"elimination order is missing hidden variables {missing}"
                )
            return [name for name in requested if name in hidden]
        # Min-degree greedy heuristic on the factor interaction graph.
        order = []
        remaining = set(hidden)
        scopes = [set(f.names) for f in factors if not f.is_scalar()]
        while remaining:
            def degree(name: str) -> int:
                neighbours = set()
                for scope in scopes:
                    if name in scope:
                        neighbours |= scope
                neighbours.discard(name)
                return len(neighbours)

            best = min(sorted(remaining), key=degree)
            order.append(best)
            remaining.discard(best)
            merged = set()
            kept = []
            for scope in scopes:
                if best in scope:
                    merged |= scope
                else:
                    kept.append(scope)
            merged.discard(best)
            if merged:
                kept.append(merged)
            scopes = kept
        return order

    @staticmethod
    def _eliminate(factors: List[Factor], name: str) -> List[Factor]:
        touching = [f for f in factors if name in f.names]
        rest = [f for f in factors if name not in f.names]
        if not touching:
            return rest
        product = touching[0]
        for factor in touching[1:]:
            product = product.multiply(factor)
        if product.names == (name,):
            # Marginalising the only variable yields a scalar.
            rest.append(Factor._scalar(product.total()))
            return rest
        rest.append(product.marginalise(name))
        return rest


def _likelihood_weighting_loop(
    network: BayesianNetwork,
    target: str,
    evidence: Optional[Mapping[str, str]] = None,
    n_samples: int = 10_000,
    rng: Union[None, int, np.random.Generator] = None,
) -> Dict[str, float]:
    """The retired per-sample Python loop (regression/benchmark oracle)."""
    if n_samples < 1:
        raise DomainError("n_samples must be positive")
    evidence = dict(evidence or {})
    network.validate_evidence(evidence)
    rng = ensure_rng(rng)

    target_var = network.variable(target)
    order = network.topological_order()
    totals = {state: 0.0 for state in target_var.states}
    total_weight = 0.0

    # Pre-fetch CPTs and state tuples to keep the sampling loop tight.
    cpts = {name: network.cpt(name) for name in order}

    for _ in range(n_samples):
        sample: Dict[str, str] = {}
        weight = 1.0
        for name in order:
            cpt = cpts[name]
            parent_states = tuple(sample[p.name] for p in cpt.parents)
            if name in evidence:
                state = evidence[name]
                weight *= cpt.probability(state, parent_states)
            else:
                states = cpt.child.states
                probs = [cpt.probability(s, parent_states) for s in states]
                state = states[rng.choice(len(states), p=probs)]
            sample[name] = state
        totals[sample[target]] += weight
        total_weight += weight

    if total_weight <= 0:
        raise DomainError(
            "all samples had zero weight; evidence may be impossible"
        )
    return {state: value / total_weight for state, value in totals.items()}
