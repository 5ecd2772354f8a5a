"""Compiled case evaluation: whole safety cases, swept in one pass.

:class:`CompiledCase` lowers a validated :class:`QuantifiedCase` once
into flat, topologically ordered node records — per node: its model, its
supporter slots, its parameter addresses and its assumption discounts —
and then evaluates ``P(top goal)`` for ``S`` scenarios in a single
vectorized sweep: one ``(S,)`` confidence array per node, leaves first,
combination rules folding child arrays upward, two-leg BBN fragments
going through :meth:`repro.bbn.CompiledNetwork.query_batch` with batched
CPT parameter planes.  Row ``s`` of the sweep reproduces
:meth:`QuantifiedCase.evaluate` under scenario ``s``'s overrides to
1e-12 — the per-node recursion stays as the oracle, off the hot path.

Compilation is memoised by case content (:func:`compile_case`), and case
files load through a small mtime-keyed cache (:func:`load_case`) so a
sweep that names the same YAML file per scenario parses it once.  Both
are regions of the unified :mod:`repro.compilecache`.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..compilecache import region as cache_region
from ..errors import DomainError
from ..telemetry import tracer
from .nodes import Assumption
from .quantified import NodeModel, QuantifiedCase

__all__ = ["CompiledCase", "compile_case", "load_case", "clear_case_caches"]


class _NodeRecord:
    """One lowered node: model + child slots + parameter addresses."""

    __slots__ = ("identifier", "model", "children", "param_addresses",
                 "assumption_addresses")

    def __init__(
        self,
        identifier: str,
        model: NodeModel,
        children: List[int],
        param_addresses: Dict[str, str],
        assumption_addresses: List[str],
    ):
        self.identifier = identifier
        self.model = model
        self.children = children
        self.param_addresses = param_addresses
        self.assumption_addresses = assumption_addresses


#: Fused groups flatten ``G`` sibling nodes into one ``(G*S,)`` call;
#: past this many elements the flattened temporaries fall out of cache
#: and the parameter copies outweigh the saved Python dispatch
#: (measured crossover between 1.4e5 and 5.9e5 elements), so oversized
#: groups fall back to per-node calls, which stay cache-blocked.
_FUSE_ELEMENT_CAP = 1 << 18


def _plan_fused_groups(
    records: List[_NodeRecord],
) -> List[List[Tuple[int, _NodeRecord]]]:
    """Level-batch topo-ordered records into same-model groups.

    A node's *level* is its longest distance from the leaves, so every
    child of a level-``L`` node lives strictly below ``L`` and whole
    levels can evaluate plane-at-a-time.  Within a level, nodes sharing
    a fusable model type and supporter count form one group (evaluated
    as a single flattened ``evaluate_batch`` call); everything else
    stays a singleton group, preserving per-node dispatch.  Group order
    is deterministic: ascending level, then first slot.
    """
    levels: List[int] = []
    for record in records:
        level = (
            1 + max(levels[slot] for slot in record.children)
            if record.children else 0
        )
        levels.append(level)
    grouped: Dict[Tuple[int, type, int], List[Tuple[int, _NodeRecord]]] = {}
    for slot, record in enumerate(records):
        if record.model.fusable:
            key = (levels[slot], type(record.model), len(record.children))
        else:
            key = (levels[slot], type(record.model), -1 - slot)
        grouped.setdefault(key, []).append((slot, record))
    return [
        grouped[key]
        for key in sorted(grouped, key=lambda k: (k[0], grouped[k][0][0]))
    ]


class CompiledCase:
    """A :class:`QuantifiedCase` lowered to flat topo-ordered records.

    Use :func:`compile_case` rather than the constructor to get
    content-hash memoisation for free.
    """

    def __init__(self, case: QuantifiedCase):
        case.validate()
        self.case = case
        graph = case.graph
        self._defaults = case.parameter_defaults()
        self._root = graph.root_goal().identifier
        order = [
            identifier
            for identifier in reversed(graph.topological_order())
            if graph.node(identifier).kind in ("goal", "strategy", "solution")
        ]
        slots = {identifier: index for index, identifier in enumerate(order)}
        records: List[_NodeRecord] = []
        for identifier in order:
            model = case._model_for(identifier)
            if model is None:  # pragma: no cover - validate() forbids this
                raise DomainError(f"node {identifier!r} has no quantification")
            children = [
                slots[supporter.identifier]
                for supporter in graph.supporters(identifier)
            ]
            param_addresses = {
                name: f"{identifier}.{name}"
                for name in model.param_names()
            }
            assumption_addresses = [
                f"{annotation.identifier}.p_true"
                for annotation in graph.annotations(identifier)
                if isinstance(annotation, Assumption)
            ]
            records.append(_NodeRecord(
                identifier, model, children, param_addresses,
                assumption_addresses,
            ))
        self._records = records
        self._slots = slots
        self._assumption_addresses = case.assumption_addresses()
        self._fused_groups = _plan_fused_groups(records)
        self._plane_cache: Dict[int, Dict[str, np.ndarray]] = {}
        self._plane_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def root_id(self) -> str:
        return self._root

    @property
    def node_ids(self) -> Tuple[str, ...]:
        """Quantified node ids in evaluation (children-first) order."""
        return tuple(record.identifier for record in self._records)

    def parameter_defaults(self) -> Dict[str, float]:
        return dict(self._defaults)

    def __repr__(self) -> str:
        return f"CompiledCase({len(self._records)} nodes)"

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate_sweep(
        self,
        columns: Optional[Mapping[str, np.ndarray]] = None,
        n_scenarios: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Node id -> ``(S,)`` confidence array for ``S`` scenarios.

        ``columns`` maps parameter addresses (``"<node>.<name>"``) to
        per-scenario value arrays (scalars broadcast); unbound
        parameters take their defaults.  Column ``s`` of the result
        matches ``case.evaluate(overrides_s)`` to 1e-12.

        Sibling nodes sharing a fusable model type evaluate
        level-batched as one flattened call per group — same values (the
        models are elementwise over scenarios), a fraction of the Python
        dispatch.
        """
        columns = dict(columns or {})
        unknown = sorted(set(columns) - set(self._defaults))
        if unknown:
            raise DomainError(
                f"unknown case parameters: {', '.join(unknown)}"
            )
        if n_scenarios is None:
            n_scenarios = 1
            for values in columns.values():
                size = np.asarray(values).size
                if size > 1:
                    n_scenarios = size
                    break
        resolved = dict(self._default_planes(n_scenarios))
        for name in columns:
            values = np.asarray(columns[name], dtype=float)
            if values.size not in (1, n_scenarios):
                raise DomainError(
                    f"column {name!r} has {values.size} values for "
                    f"{n_scenarios} scenarios"
                )
            resolved[name] = np.broadcast_to(
                values.reshape(-1), (n_scenarios,)
            )
        for address in self._assumption_addresses:
            # Default planes were range-checked once when cached; only
            # overridden columns need the per-call sweep.
            if address not in columns:
                continue
            column = resolved[address]
            if np.any((column < 0) | (column > 1)):
                raise DomainError(
                    f"{address} must lie in [0, 1] for every scenario"
                )
        confidences: List[Optional[np.ndarray]] = (
            [None] * len(self._records)
        )
        out: Dict[str, np.ndarray] = {}
        with tracer.span("case.evaluate_sweep", n_scenarios=n_scenarios,
                         n_nodes=len(self._records)):
            for group in self._fused_groups:
                if (
                    len(group) > 1
                    and len(group) * n_scenarios <= _FUSE_ELEMENT_CAP
                ):
                    self._evaluate_group_fused(
                        group, resolved, confidences, out, n_scenarios,
                    )
                else:
                    for slot, record in group:
                        self._evaluate_node(
                            slot, record, resolved, confidences, out,
                            n_scenarios,
                        )
        return out

    def _default_planes(self, n_scenarios: int) -> Dict[str, np.ndarray]:
        """Broadcast default columns for ``S`` scenarios, cached.

        Defaults never change after compilation, so the per-address
        broadcast views (and the range check on assumption defaults)
        are paid once per distinct scenario count — sweeps re-enter
        with the same chunk size thousands of times.  The returned dict
        is shared; callers copy before overriding.
        """
        with self._plane_lock:
            cached = self._plane_cache.get(n_scenarios)
        if cached is not None:
            return cached
        planes = {
            name: np.broadcast_to(
                np.asarray(default, dtype=float).reshape(-1),
                (n_scenarios,),
            )
            for name, default in self._defaults.items()
        }
        for address in self._assumption_addresses:
            column = planes[address]
            if np.any((column < 0) | (column > 1)):
                raise DomainError(
                    f"{address} must lie in [0, 1] for every scenario"
                )
        with self._plane_lock:
            if len(self._plane_cache) >= 8:
                self._plane_cache.pop(next(iter(self._plane_cache)))
            self._plane_cache[n_scenarios] = planes
        return planes

    def _evaluate_node(
        self,
        slot: int,
        record: _NodeRecord,
        resolved: Mapping[str, np.ndarray],
        confidences: List[Optional[np.ndarray]],
        out: Dict[str, np.ndarray],
        n_scenarios: int,
    ) -> None:
        """Per-node dispatch: one ``evaluate_batch`` per record."""
        with tracer.span(
            "case.node", node=record.identifier,
            model=type(record.model).__name__,
        ):
            params = {
                name: resolved[address]
                for name, address in record.param_addresses.items()
            }
            record.model.validate_batch_params(params)
            children = (
                np.stack(
                    [confidences[child] for child in record.children]
                )
                if record.children
                else np.empty((0, n_scenarios))
            )
            confidence = record.model.evaluate_batch(params, children)
            confidence = np.broadcast_to(
                np.asarray(confidence, dtype=float), (n_scenarios,)
            )
            for address in record.assumption_addresses:
                confidence = confidence * resolved[address]
            confidences[slot] = confidence
            out[record.identifier] = confidence

    def _evaluate_group_fused(
        self,
        group: List[Tuple[int, _NodeRecord]],
        resolved: Mapping[str, np.ndarray],
        confidences: List[Optional[np.ndarray]],
        out: Dict[str, np.ndarray],
        n_scenarios: int,
    ) -> None:
        """One flattened ``evaluate_batch`` call for ``G`` sibling nodes.

        Parameter columns concatenate to ``(G*S,)`` and child planes to
        ``(k, G*S)``; the models in a fused group are elementwise over
        scenarios, so slicing the ``(G*S,)`` result back into per-node
        rows reproduces per-node dispatch bit-for-bit.
        """
        model = group[0][1].model
        n_children = len(group[0][1].children)
        with tracer.span(
            "case.fused_group", model=type(model).__name__,
            n_nodes=len(group), n_children=n_children,
        ):
            params = {
                name: np.concatenate([
                    resolved[record.param_addresses[name]]
                    for _, record in group
                ])
                for name in model.param_names()
            }
            model.validate_batch_params(params)
            flat = len(group) * n_scenarios
            children = (
                np.stack([
                    np.concatenate([
                        confidences[record.children[row]]
                        for _, record in group
                    ])
                    for row in range(n_children)
                ])
                if n_children
                else np.empty((0, flat))
            )
            plane = np.asarray(
                model.evaluate_batch(params, children), dtype=float
            )
            plane = np.broadcast_to(plane, (flat,)).reshape(
                len(group), n_scenarios
            )
            for row, (slot, record) in enumerate(group):
                confidence = plane[row]
                for address in record.assumption_addresses:
                    confidence = confidence * resolved[address]
                confidences[slot] = confidence
                out[record.identifier] = confidence

    def top_confidence_sweep(
        self,
        columns: Optional[Mapping[str, np.ndarray]] = None,
        n_scenarios: Optional[int] = None,
    ) -> np.ndarray:
        """``P(top goal)`` per scenario — the headline ``(S,)`` column."""
        return self.evaluate_sweep(columns, n_scenarios)[self._root]


# ---------------------------------------------------------------------- #
# Caches: regions of the unified repro.compilecache
# ---------------------------------------------------------------------- #

_compile_cache = cache_region("arguments.case", maxsize=128)
_file_cache = cache_region("arguments.case_file", maxsize=64)


def compile_case(case: QuantifiedCase) -> CompiledCase:
    """Lower ``case`` to a :class:`CompiledCase`, memoised by content.

    The key is :meth:`QuantifiedCase.content_hash` in the
    ``"arguments.case"`` region of :mod:`repro.compilecache`, so sweeps
    that rebuild an identical case per scenario share one lowering (the
    ``case_confidence`` pipeline relies on this).
    """
    return _compile_cache.get_or_create(
        case.content_hash(), lambda: CompiledCase(case)
    )


def load_case(path) -> QuantifiedCase:
    """Load a case file, cached by resolved path + (mtime, size, inode).

    A sweep reads each case file once, when its plan is lowered; the
    ``"arguments.case_file"`` cache region makes repeated loads a
    dictionary lookup while still noticing edits on disk.
    """
    resolved = os.path.abspath(str(path))
    try:
        stat = os.stat(resolved)
    except OSError as exc:
        raise DomainError(
            f"cannot read case file {path}: {exc}"
        ) from exc
    # Nanosecond mtime plus inode: a same-size rewrite inside one
    # coarse mtime tick must still invalidate the entry.
    state = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
    hit = _file_cache.get(resolved)
    if hit is not None and hit[0] == state:
        return hit[1]
    case = QuantifiedCase.from_file(resolved)
    _file_cache.put(resolved, (state, case))
    return case


def clear_case_caches() -> None:
    """Drop the compile and file caches (tests and long-lived servers)."""
    _compile_cache.clear()
    _file_cache.clear()
