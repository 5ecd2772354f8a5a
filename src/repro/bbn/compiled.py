"""Compiled inference: integer-coded networks, einsum VE, vectorized LW.

:class:`CompiledNetwork` lowers a :class:`~repro.bbn.network.BayesianNetwork`
once into flat numeric form — integer state codes, contiguous CPT ndarrays,
a cached topological order and per-node parent-stride tables — and then
answers queries without touching the name-keyed object layer again:

* **Variable elimination** contracts all factors touching an eliminated
  variable in a single :func:`numpy.einsum` call per elimination step
  (instead of pairwise ``Factor.multiply`` broadcasting), and
  :meth:`probability_of_evidence` eliminates *everything* in one pass
  instead of recursing one evidence variable at a time.  Elimination
  *orders* come from :mod:`repro.bbn.paths` — an opt-einsum-style
  contraction-path search (exhaustive DP on small hidden sets,
  FLOP/memory-scored greedy on wide graphs) memoised per network
  content hash in the ``"bbn.path"`` compile-cache region; the old
  min-degree heuristic survives there as the comparison baseline.
* **Likelihood weighting** forward-samples an ``(n_samples, n_vars)``
  state-code matrix column-by-column in topological order.  Categorical
  draws use the same inverse-CDF ``searchsorted`` construction as
  ``numpy.random.Generator.choice`` against one ``(n_samples, n_free)``
  uniform block, so the vectorized sampler reproduces the retired
  per-sample Python loop draw-for-draw under a shared seed.
* **CPT parameter planes** batch a *family* of networks that share one
  structure but differ in CPT values: :meth:`query_batch`,
  :meth:`probability_of_evidence_batch` and
  :meth:`likelihood_weighting_batch` take a ``{variable: (S, *cpt
  shape)}`` mapping of per-scenario CPT planes and answer all ``S``
  scenarios in one pass, threading a shared batch axis through the
  einsum contractions (or the forward sampler).  Variables without a
  plane reuse the compiled tables.  Scenario ``s`` reproduces the
  corresponding single-network query exactly.

Compilation is cheap but not free, so :func:`compile_network` memoises
compiled networks in the ``"bbn.network"`` region of the unified
:mod:`repro.compilecache`, keyed by
:meth:`BayesianNetwork.content_hash`: a sweep that rebuilds an
identical-content network per scenario compiles it once.

Scale note: einsum caps one contraction at 52 distinct variables
(labels are remapped per call, so total network size is unbounded); the
argument networks this library builds stay far below that.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..compilecache import region as cache_region
from ..errors import DomainError, StructureError
from ..numerics import ensure_rng
from ..telemetry import tracer
from .network import BayesianNetwork
from .paths import find_elimination_order
from .paths import min_degree_order as _min_degree_order  # noqa: F401  (kept
# as the benchmark/test comparison baseline under its historical name)

__all__ = [
    "CompiledNetwork",
    "compile_network",
    "compile_cache_stats",
    "clear_compile_cache",
]

#: A lowered factor: integer variable labels plus a dense value array.
_IntFactor = Tuple[Tuple[int, ...], np.ndarray]

#: A batched factor: labels, values and whether the values carry a
#: leading per-scenario batch axis.
_BatchFactor = Tuple[Tuple[int, ...], np.ndarray, bool]

#: numpy caps einsum at 32 operands; fold long factor lists in chunks.
_EINSUM_CHUNK = 8


class CompiledNetwork:
    """A :class:`BayesianNetwork` lowered to flat integer/ndarray form.

    Construction walks the network once; afterwards every query runs on
    integer codes and contiguous arrays.  Instances are immutable and safe
    to share across threads (each query builds its own factor lists).

    Use :func:`compile_network` rather than the constructor to get
    content-hash memoisation for free.
    """

    def __init__(self, network: BayesianNetwork):
        order = network.topological_order()
        self._names: Tuple[str, ...] = tuple(order)
        self._index: Dict[str, int] = {n: i for i, n in enumerate(order)}
        self._variables = tuple(network.variable(n) for n in order)
        self._cards = np.array(
            [v.cardinality for v in self._variables], dtype=np.int64
        )
        parents: List[np.ndarray] = []
        cpts: List[np.ndarray] = []
        cpt2d: List[np.ndarray] = []
        strides: List[np.ndarray] = []
        for i, name in enumerate(order):
            cpt = network.cpt(name)
            parent_idx = np.array(
                [self._index[p.name] for p in cpt.parents], dtype=np.int64
            )
            values = np.ascontiguousarray(cpt.values)
            parents.append(parent_idx)
            cpts.append(values)
            cpt2d.append(values.reshape(-1, self._cards[i]))
            # C-order strides over the parent axes, so a flat row index is
            # ``codes[parents] @ strides``.
            parent_cards = self._cards[parent_idx]
            stride = np.ones(len(parent_idx), dtype=np.int64)
            if len(parent_idx) > 1:
                stride[:-1] = np.cumprod(parent_cards[::-1])[::-1][1:]
            strides.append(stride)
        self._parents = tuple(parents)
        self._cpts = tuple(cpts)
        self._cpt2d = tuple(cpt2d)
        self._parent_strides = tuple(strides)
        # Keys the shared "bbn.path" region so structurally identical
        # networks reuse one contraction-path search.
        self._content_hash = network.content_hash()
        self._order_cache: Dict[
            Tuple[frozenset, frozenset], Tuple[int, ...]
        ] = {}
        self._codes_cache: Dict[
            Tuple[Tuple[str, str], ...], Dict[int, int]
        ] = {}
        self._order_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n_variables(self) -> int:
        return len(self._names)

    @property
    def variable_names(self) -> Tuple[str, ...]:
        """Variable names in the compiled (topological) order."""
        return self._names

    def __repr__(self) -> str:
        return f"CompiledNetwork({self.n_variables} variables)"

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(
        self,
        target: str,
        evidence: Optional[Mapping[str, str]] = None,
        order: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """``P(target | evidence)`` as a state -> probability mapping."""
        evidence = dict(evidence or {})
        target_idx = self._variable_index(target)
        target_var = self._variables[target_idx]
        codes = self._evidence_codes(evidence)
        if target_idx in codes:
            clamped = target_var.states[codes[target_idx]]
            return {
                state: 1.0 if state == clamped else 0.0
                for state in target_var.states
            }
        with tracer.span("bbn.query", target=target, n_evidence=len(codes)):
            factors = self._reduced_factors(codes)
            hidden = [
                i for i in range(self.n_variables)
                if i != target_idx and i not in codes
            ]
            for dim in self._elimination_order(hidden, factors, order, codes):
                factors = self._eliminate(factors, dim)
            if not any(target_idx in dims for dims, _ in factors):
                raise StructureError(
                    "target variable vanished during elimination"
                )
            values = _contract(factors, (target_idx,))
        total = float(values.sum())
        if total <= 0:
            raise DomainError(
                f"evidence {evidence} has zero probability under the network"
            )
        return dict(zip(target_var.states, (values / total).tolist()))

    def probability_of_evidence(self, evidence: Mapping[str, str]) -> float:
        """Marginal probability of an evidence assignment.

        One elimination pass over all non-evidence variables — a
        k-variable evidence set costs a single sweep, not k chained
        posterior queries.
        """
        evidence = dict(evidence)
        if not evidence:
            return 1.0
        codes = self._evidence_codes(evidence)
        with tracer.span("bbn.prob_evidence", n_evidence=len(codes)):
            factors = self._reduced_factors(codes)
            hidden = [i for i in range(self.n_variables) if i not in codes]
            for dim in self._elimination_order(hidden, factors, None, codes):
                factors = self._eliminate(factors, dim)
            # Everything is eliminated or reduced, so only scalars remain.
            return float(_contract(factors, ()))

    def likelihood_weighting(
        self,
        target: str,
        evidence: Optional[Mapping[str, str]] = None,
        n_samples: int = 10_000,
        rng: Union[None, int, np.random.Generator] = None,
    ) -> Dict[str, float]:
        """Approximate ``P(target | evidence)`` by likelihood weighting.

        Fully vectorized: one ``(n_samples, n_free)`` uniform block drives
        inverse-CDF categorical draws column-by-column in topological
        order, and evidence likelihoods accumulate as ``(n_samples,)``
        weight arrays.  The uniform block fills row-major, which is
        exactly the order the retired per-sample loop consumed entropy,
        so results are draw-for-draw identical under a shared seed.
        """
        if n_samples < 1:
            raise DomainError("n_samples must be positive")
        evidence = dict(evidence or {})
        target_idx = self._variable_index(target)
        codes = self._evidence_codes(evidence)
        rng = ensure_rng(rng)

        n = self.n_variables
        n_free = n - len(codes)
        with tracer.span("bbn.lw", target=target, n_samples=n_samples):
            with tracer.span("bbn.lw.forward", n_free=n_free):
                uniforms = rng.random((n_samples, n_free)) if n_free else None
                sample_codes = np.empty((n_samples, n), dtype=np.int64)
                weights = np.ones(n_samples)
                free_column = 0
                for i in range(n):
                    parent_idx = self._parents[i]
                    if len(parent_idx):
                        flat = (
                            sample_codes[:, parent_idx]
                            @ self._parent_strides[i]
                        )
                        rows = self._cpt2d[i][flat]
                    else:
                        rows = np.broadcast_to(
                            self._cpt2d[i][0], (n_samples, self._cards[i])
                        )
                    if i in codes:
                        weights = weights * rows[:, codes[i]]
                        sample_codes[:, i] = codes[i]
                    else:
                        # Generator.choice draws one uniform and searchsorts
                        # the normalised cumulative row from the right;
                        # reproduce that bit-for-bit so seeded streams match
                        # the scalar sampler.
                        cdf = np.cumsum(rows, axis=1)
                        cdf = cdf / cdf[:, -1:]
                        u = uniforms[:, free_column]
                        free_column += 1
                        sample_codes[:, i] = np.sum(cdf <= u[:, None], axis=1)

            with tracer.span("bbn.lw.reduce"):
                totals = np.bincount(
                    sample_codes[:, target_idx],
                    weights=weights,
                    minlength=self._cards[target_idx],
                )
                # bincount and cumsum both accumulate sequentially in sample
                # order, which keeps the result bit-identical to the retired
                # loop.
                total_weight = (
                    float(np.cumsum(weights)[-1]) if len(weights) else 0.0
                )
        if total_weight <= 0:
            raise DomainError(
                "all samples had zero weight; evidence may be impossible"
            )
        states = self._variables[target_idx].states
        return dict(zip(states, (totals / total_weight).tolist()))

    # ------------------------------------------------------------------ #
    # Batched queries over CPT parameter planes
    # ------------------------------------------------------------------ #

    def query_batch(
        self,
        target: str,
        evidence: Optional[Mapping[str, str]] = None,
        cpt_planes: Optional[Mapping[str, np.ndarray]] = None,
        order: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """``P(target | evidence)`` for ``S`` parameter scenarios at once.

        ``cpt_planes`` maps variable names to ``(S, *cpt shape)`` arrays
        of per-scenario CPT values; variables without a plane reuse the
        compiled tables.  Returns an ``(S, cardinality)`` array whose row
        ``s`` equals :meth:`query` on the network with scenario ``s``'s
        CPT values substituted.  The network *structure* (variables,
        states, parent sets) is shared across the batch — that is what
        makes one elimination pass serve every scenario.  ``order``
        overrides the searched elimination order, exactly as in
        :meth:`query`.
        """
        evidence = dict(evidence or {})
        planes, n_scenarios = self._check_planes(cpt_planes)
        target_idx = self._variable_index(target)
        target_var = self._variables[target_idx]
        codes = self._evidence_codes(evidence)
        if target_idx in codes:
            row = np.zeros(target_var.cardinality)
            row[codes[target_idx]] = 1.0
            return np.tile(row, (n_scenarios, 1))
        with tracer.span("bbn.query_batch", target=target,
                         n_scenarios=n_scenarios):
            factors = self._reduced_factors_batch(codes, planes)
            hidden = [
                i for i in range(self.n_variables)
                if i != target_idx and i not in codes
            ]
            scopes = [(dims, values) for dims, values, _ in factors]
            for dim in self._elimination_order(hidden, scopes, order, codes):
                factors = self._eliminate_batch(factors, dim)
            values = _contract_batch(factors, (target_idx,), n_scenarios)
        totals = values.sum(axis=1)
        if np.any(totals <= 0):
            raise DomainError(
                f"evidence {evidence} has zero probability under the "
                f"network for at least one scenario"
            )
        return values / totals[:, None]

    def probability_of_evidence_batch(
        self,
        evidence: Mapping[str, str],
        cpt_planes: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        """Marginal evidence probability per scenario — ``(S,)`` array.

        The batched counterpart of :meth:`probability_of_evidence`: one
        elimination pass with a shared batch axis answers all scenarios.
        """
        evidence = dict(evidence)
        planes, n_scenarios = self._check_planes(cpt_planes)
        if not evidence:
            return np.ones(n_scenarios)
        codes = self._evidence_codes(evidence)
        with tracer.span("bbn.prob_evidence_batch", n_evidence=len(codes),
                         n_scenarios=n_scenarios):
            factors = self._reduced_factors_batch(codes, planes)
            hidden = [i for i in range(self.n_variables) if i not in codes]
            scopes = [(dims, values) for dims, values, _ in factors]
            for dim in self._elimination_order(hidden, scopes, None, codes):
                factors = self._eliminate_batch(factors, dim)
            return _contract_batch(factors, (), n_scenarios)

    def likelihood_weighting_batch(
        self,
        target: str,
        evidence: Optional[Mapping[str, str]] = None,
        n_samples: int = 10_000,
        rngs: Optional[Sequence[Union[None, int, np.random.Generator]]] = None,
        cpt_planes: Optional[Mapping[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Likelihood weighting for ``S`` parameter scenarios in one pass.

        Each scenario keeps its *own* random stream: ``rngs[s]`` seeds
        the ``(n_samples, n_free)`` uniform block for scenario ``s``
        exactly as :meth:`likelihood_weighting` would, so row ``s`` of
        the returned ``(S, cardinality)`` array is bit-for-bit the
        single-scenario result under the same seed — while the forward
        sampling itself runs as ``(S, n_samples)`` array passes.
        """
        if n_samples < 1:
            raise DomainError("n_samples must be positive")
        evidence = dict(evidence or {})
        planes, n_scenarios = self._check_planes(cpt_planes)
        target_idx = self._variable_index(target)
        codes = self._evidence_codes(evidence)
        if rngs is None:
            rngs = [None] * n_scenarios
        if len(rngs) != n_scenarios:
            raise DomainError(
                f"need one rng per scenario: got {len(rngs)} rngs for "
                f"{n_scenarios} scenarios"
            )
        generators = [ensure_rng(rng) for rng in rngs]

        n = self.n_variables
        n_free = n - len(codes)
        with tracer.span("bbn.lw_batch", target=target, n_samples=n_samples,
                         n_scenarios=n_scenarios):
            with tracer.span("bbn.lw.forward", n_free=n_free):
                uniforms = None
                if n_free:
                    # Each scenario's draw fills its row of one
                    # preallocated block: peak extra memory is one
                    # scenario's draw, not a stacked copy of the block.
                    uniforms = np.empty((n_scenarios, n_samples, n_free))
                    for row, generator in enumerate(generators):
                        uniforms[row] = generator.random(
                            (n_samples, n_free)
                        )
                plane2d = {
                    i: plane.reshape(n_scenarios, -1, self._cards[i])
                    for i, plane in planes.items()
                }
                scenario_rows = np.arange(n_scenarios)[:, None]
                sample_codes = np.empty(
                    (n_scenarios, n_samples, n), dtype=np.int64
                )
                weights = np.ones((n_scenarios, n_samples))
                free_column = 0
                for i in range(n):
                    parent_idx = self._parents[i]
                    if len(parent_idx):
                        flat = (
                            sample_codes[:, :, parent_idx]
                            @ self._parent_strides[i]
                        )
                        if i in plane2d:
                            rows = plane2d[i][scenario_rows, flat]
                        else:
                            rows = self._cpt2d[i][flat]
                    else:
                        shape = (n_scenarios, n_samples, int(self._cards[i]))
                        if i in plane2d:
                            rows = np.broadcast_to(
                                plane2d[i][:, 0, None, :], shape
                            )
                        else:
                            rows = np.broadcast_to(self._cpt2d[i][0], shape)
                    if i in codes:
                        weights *= rows[:, :, codes[i]]
                        sample_codes[:, :, i] = codes[i]
                    else:
                        cdf = np.cumsum(rows, axis=2)
                        cdf = cdf / cdf[:, :, -1:]
                        u = uniforms[:, :, free_column]
                        free_column += 1
                        sample_codes[:, :, i] = np.sum(
                            cdf <= u[:, :, None], axis=2
                        )

            with tracer.span("bbn.lw.reduce"):
                card = int(self._cards[target_idx])
                flat_codes = (
                    sample_codes[:, :, target_idx]
                    + card * np.arange(n_scenarios)[:, None]
                )
                totals = np.bincount(
                    flat_codes.ravel(),
                    weights=weights.ravel(),
                    minlength=n_scenarios * card,
                ).reshape(n_scenarios, card)
                # cumsum accumulates in sample order, matching the scalar
                # path.
                total_weight = np.cumsum(weights, axis=1)[:, -1]
        if np.any(total_weight <= 0):
            raise DomainError(
                "all samples had zero weight for at least one scenario; "
                "evidence may be impossible"
            )
        return totals / total_weight[:, None]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_planes(
        self, cpt_planes: Optional[Mapping[str, np.ndarray]]
    ) -> Tuple[Dict[int, np.ndarray], int]:
        """Validate planes against the compiled CPT shapes; infer S."""
        if not cpt_planes:
            raise DomainError(
                "batched queries need at least one CPT parameter plane"
            )
        planes: Dict[int, np.ndarray] = {}
        n_scenarios: Optional[int] = None
        for name in sorted(cpt_planes):
            index = self._variable_index(name)
            plane = np.asarray(cpt_planes[name], dtype=float)
            expected = self._cpts[index].shape
            if plane.ndim != len(expected) + 1 or plane.shape[1:] != expected:
                raise StructureError(
                    f"plane for {name!r} must have shape (S,) + {expected}, "
                    f"got {plane.shape}"
                )
            if n_scenarios is None:
                n_scenarios = plane.shape[0]
            elif plane.shape[0] != n_scenarios:
                raise StructureError(
                    f"CPT planes disagree on scenario count: "
                    f"{plane.shape[0]} vs {n_scenarios}"
                )
            planes[index] = plane
        assert n_scenarios is not None
        return planes, n_scenarios

    def _reduced_factors_batch(
        self, codes: Mapping[int, int], planes: Mapping[int, np.ndarray]
    ) -> List[_BatchFactor]:
        factors: List[_BatchFactor] = []
        for i in range(self.n_variables):
            dims = tuple(self._parents[i]) + (i,)
            batched = i in planes
            values = planes[i] if batched else self._cpts[i]
            if any(d in codes for d in dims):
                indexer = tuple(
                    codes[d] if d in codes else slice(None) for d in dims
                )
                if batched:
                    indexer = (slice(None),) + indexer
                values = values[indexer]
                dims = tuple(d for d in dims if d not in codes)
            factors.append((dims, values, batched))
        return factors

    @staticmethod
    def _eliminate_batch(
        factors: List[_BatchFactor], dim: int
    ) -> List[_BatchFactor]:
        touching = [f for f in factors if dim in f[0]]
        rest = [f for f in factors if dim not in f[0]]
        if not touching:
            return rest
        out_dims: List[int] = []
        for dims, _, _ in touching:
            for d in dims:
                if d != dim and d not in out_dims:
                    out_dims.append(d)
        batched = any(b for _, _, b in touching)
        with tracer.span("bbn.eliminate", var=dim,
                         n_factors=len(touching), batched=batched):
            merged = _einsum_batch(touching, tuple(out_dims), batched)
        rest.append((tuple(out_dims), merged, batched))
        return rest

    def _variable_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            raise StructureError(f"network has no variable {name!r}")
        return index

    def _evidence_codes(self, evidence: Mapping[str, str]) -> Dict[int, int]:
        """Evidence name/state pairs lowered to index/code pairs.

        Sweeps re-query one compiled network with the same evidence
        thousands of times, so the lookup is memoised per assignment.
        The returned dict is shared — callers treat it as read-only.
        """
        key = tuple(sorted(evidence.items()))
        with self._order_lock:
            cached = self._codes_cache.get(key)
        if cached is not None:
            return cached
        codes: Dict[int, int] = {}
        for name, state in evidence.items():
            index = self._variable_index(name)
            codes[index] = self._variables[index].index_of(state)
        with self._order_lock:
            if len(self._codes_cache) < 256:
                self._codes_cache[key] = codes
        return codes

    def _reduced_factors(self, codes: Mapping[int, int]) -> List[_IntFactor]:
        factors: List[_IntFactor] = []
        for i in range(self.n_variables):
            dims = tuple(self._parents[i]) + (i,)
            values = self._cpts[i]
            if any(d in codes for d in dims):
                indexer = tuple(
                    codes[d] if d in codes else slice(None) for d in dims
                )
                values = values[indexer]
                dims = tuple(d for d in dims if d not in codes)
            factors.append((dims, values))
        return factors

    def _elimination_order(
        self,
        hidden: List[int],
        factors: List[_IntFactor],
        requested: Optional[Sequence[str]],
        codes: Mapping[int, int],
    ) -> Tuple[int, ...]:
        if requested is not None:
            hidden_names = {self._names[i] for i in hidden}
            missing = hidden_names - set(requested)
            if missing:
                raise StructureError(
                    f"elimination order is missing hidden variables {missing}"
                )
            hidden_set = set(hidden)
            return tuple(
                self._variable_index(name)
                for name in requested
                if self._index.get(name) in hidden_set
            )
        # Factor scopes depend only on which variables are clamped, so
        # searched orders are memoised per (hidden-set, evidence-set) on
        # the instance, and per content hash in the shared "bbn.path"
        # region — query-many workloads pay for the path search once,
        # and identical-content networks share results across compiles.
        cache_key = (frozenset(hidden), frozenset(codes))
        with self._order_lock:
            cached = self._order_cache.get(cache_key)
        if cached is not None:
            return cached
        scopes = [dims for dims, _ in factors]
        region_key = (
            f"{self._content_hash}|h:{sorted(hidden)}|e:{sorted(codes)}"
        )
        cards = {i: int(self._cards[i]) for i in range(self.n_variables)}
        result = _path_cache.get_or_create(
            region_key,
            lambda: find_elimination_order(hidden, scopes, cards),
        )
        order = result.order
        with self._order_lock:
            if len(self._order_cache) < 256:
                self._order_cache[cache_key] = order
        return order

    @staticmethod
    def _eliminate(factors: List[_IntFactor], dim: int) -> List[_IntFactor]:
        touching = [f for f in factors if dim in f[0]]
        rest = [f for f in factors if dim not in f[0]]
        if not touching:
            return rest
        out_dims: List[int] = []
        for dims, _ in touching:
            for d in dims:
                if d != dim and d not in out_dims:
                    out_dims.append(d)
        with tracer.span("bbn.eliminate", var=dim, n_factors=len(touching)):
            merged = _contract(touching, tuple(out_dims))
        rest.append((tuple(out_dims), merged))
        return rest


def _contract(factors: List[_IntFactor], out_dims: Tuple[int, ...]) -> np.ndarray:
    """Single-shot einsum product of ``factors`` marginalised to ``out_dims``."""
    if not factors:
        return np.ones(()) if not out_dims else np.ones(0)
    remaining = list(factors)
    while len(remaining) > _EINSUM_CHUNK:
        chunk, remaining = remaining[:_EINSUM_CHUNK], remaining[_EINSUM_CHUNK:]
        keep: List[int] = []
        for dims, _ in chunk:
            for d in dims:
                if d not in keep:
                    keep.append(d)
        remaining.insert(0, (tuple(keep), _einsum(chunk, tuple(keep))))
    return _einsum(remaining, out_dims)


@lru_cache(maxsize=4096)
def _einsum_script(
    dims_list: Tuple[Tuple[int, ...], ...], out_dims: Tuple[int, ...]
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """Variable-id → compact einsum-label remapping, memoised.

    einsum accepts at most 52 distinct indices, a cap that must bound
    one contraction's scope, not the whole network's variable count —
    so ids are remapped per scope signature.  Elimination steps repeat
    the same signatures on every query, hence the cache (tuples, which
    einsum accepts as sublists, so cached values are immutable).
    """
    labels: Dict[int, int] = {}
    for dims in dims_list:
        for d in dims:
            labels.setdefault(d, len(labels))
    return (
        tuple(tuple(labels[d] for d in dims) for dims in dims_list),
        tuple(labels[d] for d in out_dims),
    )


def _einsum(factors: List[_IntFactor], out_dims: Tuple[int, ...]) -> np.ndarray:
    scripts, out = _einsum_script(
        tuple(dims for dims, _ in factors), out_dims
    )
    operands: List[object] = []
    for (_, values), script in zip(factors, scripts):
        operands.append(values)
        operands.append(script)
    return np.einsum(*operands, out)


def _contract_batch(
    factors: List[_BatchFactor], out_dims: Tuple[int, ...], n_scenarios: int
) -> np.ndarray:
    """Batched :func:`_contract`: product marginalised to ``(S, *out)``.

    Factors whose values carry a leading batch axis share one einsum
    batch label; unbatched factors broadcast across it.  The result
    always carries the batch axis (broadcast when no factor did).
    """
    if not factors:
        shape = (n_scenarios,) + tuple(1 for _ in out_dims)
        return np.ones(shape) if not out_dims else np.ones((n_scenarios, 0))
    remaining = list(factors)
    while len(remaining) > _EINSUM_CHUNK:
        chunk, remaining = remaining[:_EINSUM_CHUNK], remaining[_EINSUM_CHUNK:]
        keep: List[int] = []
        for dims, _, _ in chunk:
            for d in dims:
                if d not in keep:
                    keep.append(d)
        batched = any(b for _, _, b in chunk)
        remaining.insert(
            0, (tuple(keep), _einsum_batch(chunk, tuple(keep), batched),
                batched)
        )
    batched = any(b for _, _, b in remaining)
    values = _einsum_batch(remaining, out_dims, batched)
    if not batched:
        values = np.broadcast_to(
            values, (n_scenarios,) + values.shape
        ).copy()
    return values


def _einsum_batch(
    factors: List[_BatchFactor], out_dims: Tuple[int, ...], out_batched: bool
) -> np.ndarray:
    """One einsum over mixed batched/unbatched factors.

    The batch axis gets its own compact label shared by every batched
    operand (and the output when ``out_batched``); unbatched operands
    simply omit it and broadcast.
    """
    scripts, out = _einsum_batch_script(
        tuple((dims, batched) for dims, _, batched in factors),
        out_dims,
        out_batched,
    )
    operands: List[object] = []
    for (_, values, _), script in zip(factors, scripts):
        operands.append(values)
        operands.append(script)
    return np.einsum(*operands, out)


@lru_cache(maxsize=4096)
def _einsum_batch_script(
    signature: Tuple[Tuple[Tuple[int, ...], bool], ...],
    out_dims: Tuple[int, ...],
    out_batched: bool,
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """Batched variant of :func:`_einsum_script` (adds the batch label)."""
    labels: Dict[int, int] = {}
    for dims, _ in signature:
        for d in dims:
            labels.setdefault(d, len(labels))
    batch_label = len(labels)
    scripts = tuple(
        ((batch_label,) if batched else ())
        + tuple(labels[d] for d in dims)
        for dims, batched in signature
    )
    out = tuple(labels[d] for d in out_dims)
    return scripts, ((batch_label,) + out if out_batched else out)


# ---------------------------------------------------------------------- #
# Compile cache — regions of the unified repro.compilecache
# ---------------------------------------------------------------------- #

_cache = cache_region("bbn.network", maxsize=512)

#: Elimination orders found by the contraction-path search, keyed by
#: network content hash + hidden/evidence sets.  Orders depend only on
#: structure, so identical-content networks share search results even
#: across separate compilations.
_path_cache = cache_region("bbn.path", maxsize=2048)


def compile_network(network: BayesianNetwork) -> CompiledNetwork:
    """Lower ``network`` to a :class:`CompiledNetwork`, memoised by content.

    The cache key is :meth:`BayesianNetwork.content_hash`, so sweeps that
    rebuild an identical network per scenario (the engine's ``bbn_query``
    pipeline, ``two_leg_posterior`` over repeated parameters) share one
    compilation.  The backing store is the ``"bbn.network"`` region of
    :mod:`repro.compilecache` — LRU-bounded, thread-safe, and counted
    by ``repro-case sweep --metrics``.
    """
    return _cache.get_or_create(
        network.content_hash(), lambda: CompiledNetwork(network)
    )


def compile_cache_stats() -> Dict[str, int]:
    """Entries/hits/misses of the shared network-compile cache region."""
    return _cache.stats()


def clear_compile_cache() -> None:
    """Drop all memoised compilations and reset the hit/miss counters."""
    _cache.clear()
