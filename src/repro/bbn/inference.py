"""Exact inference: variable elimination and brute-force enumeration.

Variable elimination is the workhorse; enumeration exists as an
independent oracle for tests (and is fine for the small argument networks
this library builds).

:class:`VariableElimination` keeps its historical API but delegates to
the compiled einsum engine (:mod:`repro.bbn.compiled`): the network is
lowered once to integer codes and contiguous CPT arrays, and each
elimination step is a single :func:`numpy.einsum` contraction.  The
original pure-Python factor-loop engine lives in :mod:`repro.bbn.oracles`
as the regression oracle the compiled path is tested and benchmarked
against.
"""

from __future__ import annotations

import itertools
from typing import Dict, Mapping, Optional, Sequence

from ..errors import DomainError, StructureError
from .compiled import compile_network
from .network import BayesianNetwork

__all__ = ["VariableElimination", "enumerate_query", "joint_probability"]


class VariableElimination:
    """Exact posterior queries on a Bayesian network (compiled einsum VE)."""

    def __init__(self, network: BayesianNetwork):
        self._network = network
        self._compiled = None

    def _compile(self):
        # Recompile if the network grew since the last query; added nodes
        # are the only mutation BayesianNetwork allows.
        if (
            self._compiled is None
            or self._compiled.n_variables != len(self._network)
        ):
            self._compiled = compile_network(self._network)
        return self._compiled

    def query(
        self,
        target: str,
        evidence: Optional[Mapping[str, str]] = None,
        order: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """``P(target | evidence)`` as a state -> probability mapping."""
        return self._compile().query(target, evidence, order)

    def probability_of_evidence(self, evidence: Mapping[str, str]) -> float:
        """Marginal probability of an evidence assignment (one VE pass)."""
        return self._compile().probability_of_evidence(evidence)


def joint_probability(
    network: BayesianNetwork, assignment: Mapping[str, str]
) -> float:
    """Probability of a *complete* assignment (chain rule)."""
    if set(assignment) != set(network.variable_names):
        raise StructureError("assignment must cover every variable exactly")
    prob = 1.0
    for name in network.topological_order():
        cpt = network.cpt(name)
        parent_states = tuple(assignment[p.name] for p in cpt.parents)
        prob *= cpt.probability(assignment[name], parent_states)
    return prob


def enumerate_query(
    network: BayesianNetwork,
    target: str,
    evidence: Optional[Mapping[str, str]] = None,
) -> Dict[str, float]:
    """Brute-force posterior by full joint enumeration (test oracle)."""
    evidence = dict(evidence or {})
    network.validate_evidence(evidence)
    target_var = network.variable(target)
    if target in evidence:
        return {
            state: 1.0 if state == evidence[target] else 0.0
            for state in target_var.states
        }
    names = network.variable_names
    free = [n for n in names if n not in evidence]
    totals = {state: 0.0 for state in target_var.states}
    state_spaces = [network.variable(n).states for n in free]
    for combo in itertools.product(*state_spaces):
        assignment = dict(evidence)
        assignment.update(dict(zip(free, combo)))
        totals[assignment[target]] += joint_probability(network, assignment)
    z = sum(totals.values())
    if z <= 0:
        raise DomainError(f"evidence {evidence} has zero probability")
    return {state: value / z for state, value in totals.items()}
