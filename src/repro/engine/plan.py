"""Plan lowering: from a resolved sweep to a backend-agnostic IR.

The engine's execution stack is staged — **plan, compile, execute**:

1. :func:`lower` turns a :class:`~repro.engine.spec.SweepSpec` (or an
   explicit scenario list) into an :class:`ExecutionPlan`: the pipeline
   name, the **parameter planes** (sorted grid axes and their value
   lists over the shared base), the **chunk layout**, and the seed
   derivation rule.  Lowering also settles every static fact about the
   sweep before any sink opens:

   * the **snapshot** — each file a content parameter names (in the
     base, on an axis or in an explicit list) is loaded and
     content-hashed once; cache keys, fingerprints, resolution, the
     kernels and the scalar path all read it, so every row of a run
     sees one version of each file, in this process and in shard
     workers (the snapshot travels with the pickled plan);
   * **resolution** — every grid axis value is resolved once, in the
     scenario that differs from scenario 0 on that axis alone (a real
     scenario), and each combination of the configuration axes once;
     explicit scenarios are each resolved.  Unknown names, bad values
     and missing files fail here, and the resolved axis values become
     the kernels' parameter planes, so no grid row is resolved again.
     What ``resolve`` checks across two axes is re-checked per chunk
     (:meth:`Pipeline.invalid <repro.engine.pipelines.Pipeline.invalid>`);
   * the **configuration groups** and their declared value-column
     schemas (:attr:`column_sets`), which the sinks and the tile store
     read instead of guessing columns from rows.

   Unknown pipelines, mixed pipelines and invalid chunk sizes fail
   here too, so executors start from a well-formed IR.
2. The pipelines' batch kernels *compile* whatever they need (networks,
   cases, grids) through the unified :mod:`repro.compilecache`.
3. The executors (:func:`repro.engine.run_sweep` and
   :func:`repro.engine.run_sweep_streaming`) walk a
   :class:`PlanWindow` of the plan — all of it, one shard's part, or a
   delta's pending tiles — chunk by chunk.

The plan is deliberately **lazy**: nothing scales with the scenario
count except the arithmetic.  :meth:`ExecutionPlan.batch` decodes a
chunk's grid points as one NumPy gather of mixed-radix digits over the
axes into its parameter planes, and per-scenario seeds come from
:func:`repro.numerics.spawn_seeds_range`, which addresses the ``i``-th
spawned child of the master seed directly.  Both are pure functions of
the spec, so every chunk layout, shard assignment and backend
reconstructs *identical* scenarios — the foundation of the engine's
bit-for-bit reproducibility guarantee for stochastic sweeps.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import DomainError
from ..numerics import spawn_seeds_range
from ..telemetry import tracer
from .pipelines import Column, Pipeline, get_pipeline
from .results import Batch, Part
from .spec import ScenarioSpec, SweepSpec

__all__ = ["Chunk", "ExecutionPlan", "PlanWindow", "lower",
           "DEFAULT_CHUNK_SIZE"]

#: Default scenarios per chunk for streaming execution: large enough to
#: amortise per-chunk dispatch and keep vectorised kernels efficient,
#: small enough that a chunk's rows and intermediates stay comfortably
#: in cache/memory.
DEFAULT_CHUNK_SIZE = 8192

#: Hashed into every fingerprint payload.  Parameter planes are always
#: float64; the entry stays so that tile stores written when the dtype
#: was selectable keep matching.
_FINGERPRINT_DTYPE = "float64"

SweepLike = Union[SweepSpec, Sequence[ScenarioSpec]]


def _compact(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def _digest(payload: Dict[str, Any], **encoded: str) -> str:
    """sha256 of ``payload`` as sorted compact JSON; ``encoded`` holds
    top-level values already in that JSON (the same bytes, spliced)."""
    parts = {**{key: _compact(value) for key, value in payload.items()},
             **encoded}
    blob = "{%s}" % ",".join(f"{_compact(key)}:{parts[key]}"
                             for key in sorted(parts))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _as_plane(values: Sequence[Any]) -> np.ndarray:
    """Values as an array whose ``tolist()`` gives them back: float64,
    int64 or bool when all have that type, else object."""
    kinds = {type(value) for value in values}
    if len(kinds) == 1 and kinds <= {float, int, bool}:
        try:
            return np.array(values, dtype=kinds.pop())
        except OverflowError:  # ints beyond int64
            pass
    return np.fromiter(values, dtype=object, count=len(values))


@dataclass(frozen=True)
class Chunk:
    """One contiguous scenario range ``[start, stop)`` of a plan."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


class ExecutionPlan:
    """A lowered sweep: what to run, in what chunks, with which seeds.

    Instances are immutable and cheap regardless of scenario count; use
    :func:`lower` to build one.  The executor-facing surface is:

    * :attr:`pipeline` / :attr:`pipeline_name` — the resolved pipeline;
    * :attr:`n_scenarios`, :attr:`n_chunks`, :meth:`chunks` — the chunk
      layout; :meth:`window` — scenario ranges to run (a
      :class:`PlanWindow`);
    * :meth:`batch` — a chunk's parameter planes, seeds and row layout
      (a :class:`~repro.engine.results.Batch`);
    * :meth:`groups` — a batch's rows by configuration group, with
      their resolved parameter planes: what ``Pipeline.run_batch`` runs;
    * :meth:`scenario` — one scenario (identical to
      ``SweepSpec.expand()`` output);
    * :meth:`cache_key` — the result-cache key of one scenario, with the
      hash of every referenced file (loaded once, at lowering) folded in;
    * :attr:`param_names`, :attr:`column_sets`, :attr:`columns` — the
      rows' parameter names and the configuration groups' declared
      value columns.
    """

    def __init__(
        self,
        pipeline_name: str,
        *,
        base: Dict[str, Any],
        axes: Tuple[Tuple[str, Tuple[Any, ...]], ...],
        master_seed: Optional[int],
        n_scenarios: int,
        chunk_size: int,
        explicit: Optional[Tuple[ScenarioSpec, ...]] = None,
    ):
        self._pipeline_name = pipeline_name
        self._pipeline = get_pipeline(pipeline_name)
        self._base = dict(base)
        self._axes = axes
        self._master_seed = master_seed
        self._n = int(n_scenarios)
        self._chunk_size = int(chunk_size)
        self._explicit = explicit
        self._fingerprint: Optional[str] = None
        self._param_names = tuple(dict.fromkeys(
            [*base, *(name for name, _values in axes)] if explicit is None
            else (name for scenario in explicit for name in scenario.params)
        )) if self._n else ()
        # Mixed-radix place values: axis j's digit advances every
        # prod(sizes[j+1:]) scenarios (row-major, matching
        # itertools.product in SweepSpec.expand()).
        strides: List[int] = []
        place = 1
        for _name, values in reversed(axes):
            strides.append(place)
            place *= len(values)
        self._strides = tuple(reversed(strides))
        self._snapshot: Dict[Tuple[str, Any], Tuple[Any, str]] = {}
        # Configuration groups (config, declared columns, resolved
        # parameters of their first scenario) and row layouts (group,
        # bound names, seeded), the layout's index per configuration-axis
        # value combination (grid) or per scenario (explicit).
        self._groups: List[Tuple[Dict[str, Any], Tuple[Column, ...],
                                 Dict[str, Any]]] = []
        self._layouts: List[Tuple[int, Tuple[str, ...], bool]] = []
        self._layout_of = np.zeros((), dtype=np.int64)
        self._config_axes = tuple(name for name, _values in axes
                                  if name in self._pipeline.config)
        # Each parameter's values along its axis (or over the explicit
        # scenarios), as bound and as resolved.
        self._bound: Dict[str, np.ndarray] = {}
        self._resolved: Dict[str, np.ndarray] = {}
        # (axis, offset, length) -> the window's fingerprint JSON.
        self._windows: Dict[Tuple[str, int, int], str] = {}
        if self._n:
            self._settle()

    def _settle(self) -> None:
        """Load the snapshot, resolve every axis value (or explicit
        scenario) once, and collect the configuration groups and row
        layouts in first-appearance order."""
        pipeline = self._pipeline
        for name in pipeline.content_params:
            default = pipeline.defaults.get(name)
            if self._explicit is not None:
                values = [s.params.get(name, default) for s in self._explicit]
            else:
                values = dict(self._axes).get(
                    name, [self._base.get(name, default)]
                )
            for value in values:
                if value is not None and (name, value) not in self._snapshot:
                    self._snapshot[(name, value)] = pipeline.load(name, value)
        groups: Dict[tuple, int] = {}
        layouts: Dict[tuple, int] = {}

        def settle(params, names, seeded) -> Tuple[int, Dict[str, Any]]:
            resolved = pipeline.resolve(params, self._snapshot)
            key = tuple(resolved[name] for name in pipeline.config)
            if key not in groups:
                groups[key] = len(self._groups)
                config = dict(zip(pipeline.config, key))
                self._groups.append(
                    (config, tuple(pipeline.columns(config)), resolved)
                )
            return layouts.setdefault((groups[key], names, seeded),
                                      len(layouts)), resolved

        if self._explicit is not None:
            ids, resolved = zip(*(
                settle(s.params, tuple(s.params), s.seed is not None)
                for s in self._explicit
            ))
            self._layout_of = np.array(ids, dtype=np.int64)
            for name in dict.fromkeys(k for r in resolved for k in r):
                self._bound[name] = _as_plane(
                    [s.params.get(name) for s in self._explicit]
                )
                self._resolved[name] = _as_plane(
                    [r.get(name) for r in resolved]
                )
        else:
            first = dict(self._base)
            first.update((name, values[0]) for name, values in self._axes)
            axes = dict(self._axes)
            # Every configuration the grid takes (scenario 0's first) ...
            self._layout_of = np.empty(
                [len(axes[name]) for name in self._config_axes], np.int64
            )
            for digits in np.ndindex(*self._layout_of.shape):
                self._layout_of[digits] = settle({**first, **{
                    name: axes[name][digit]
                    for name, digit in zip(self._config_axes, digits)
                }}, self.param_names, self._master_seed is not None)[0]
            # ... then each axis value in the one-axis step off it.
            for name, values in self._axes:
                self._bound[name] = _as_plane(values)
                self._resolved[name] = _as_plane(
                    [self._groups[0][2][name]] + [
                        pipeline.resolve({**first, name: value},
                                         self._snapshot)[name]
                        for value in values[1:]
                    ]
                )
        self._layouts = list(layouts)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def pipeline_name(self) -> str:
        return self._pipeline_name

    @property
    def pipeline(self) -> Pipeline:
        return self._pipeline

    @property
    def n_scenarios(self) -> int:
        return self._n

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def n_chunks(self) -> int:
        return -(-self._n // self._chunk_size) if self._n else 0

    @property
    def axes(self) -> Tuple[str, ...]:
        """Grid axis names in expansion (sorted) order."""
        return tuple(name for name, _values in self._axes)

    @property
    def axis_items(self) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        """``(name, values)`` pairs in expansion (sorted) order."""
        return self._axes

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        """Per-axis value counts (empty for explicit/gridless plans)."""
        return tuple(len(values) for _name, values in self._axes)

    @property
    def master_seed(self) -> Optional[int]:
        return self._master_seed

    @property
    def param_names(self) -> Tuple[str, ...]:
        """The rows' parameter names in first-appearance order."""
        return self._param_names

    @property
    def column_sets(self) -> Tuple[Tuple[Column, ...], ...]:
        """The distinct value-column schemas the plan's configuration
        groups declare, in the order rows first reach them."""
        return tuple(dict.fromkeys(schema for _c, schema, _r in self._groups))

    @property
    def columns(self) -> Tuple[Column, ...]:
        """Every group's value columns, first appearance first."""
        union: Dict[str, Column] = {}
        for schema in self.column_sets:
            for column in schema:
                union.setdefault(column.name, column)
        return tuple(union.values())

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan({self._pipeline_name!r}, "
            f"{self._n} scenarios, {self.n_chunks} chunks of "
            f"<= {self._chunk_size})"
        )

    # ------------------------------------------------------------------ #
    # Chunk layout
    # ------------------------------------------------------------------ #

    def chunk(self, index: int) -> Chunk:
        if not 0 <= index < self.n_chunks:
            raise DomainError(
                f"chunk index {index} out of range [0, {self.n_chunks})"
            )
        start = index * self._chunk_size
        return Chunk(index, start, min(start + self._chunk_size, self._n))

    def chunks(self) -> Iterator[Chunk]:
        """The chunks in scenario order (lazy)."""
        for index in range(self.n_chunks):
            yield self.chunk(index)

    def window(
        self, ranges: Optional[Sequence[Tuple[int, int]]] = None
    ) -> "PlanWindow":
        """The scenario ranges ``[start, stop)`` given (ascending and
        disjoint) as a :class:`PlanWindow`; the whole plan by default."""
        return PlanWindow(self, ((0, self._n),) if ranges is None else ranges)

    # ------------------------------------------------------------------ #
    # Lazy scenario reconstruction
    # ------------------------------------------------------------------ #

    def scenario(self, index: int) -> ScenarioSpec:
        """The ``index``-th scenario, identical to ``expand()[index]``."""
        if not 0 <= index < self._n:
            raise DomainError(
                f"scenario index {index} out of range [0, {self._n})"
            )
        if self._explicit is not None:
            return self._explicit[index]
        return self.batch(Chunk(index // self._chunk_size, index,
                                index + 1)).specs()[0]

    def _digits(self, index: np.ndarray) -> Dict[str, np.ndarray]:
        """Where scenarios ``index`` sit in each parameter's planes."""
        if self._explicit is not None:
            return dict.fromkeys(self._resolved, index)
        return {name: index // stride % len(values)
                for (name, values), stride in zip(self._axes, self._strides)}

    def batch(self, chunk: Chunk) -> Batch:
        """``chunk``'s scenarios as a :class:`Batch` without values: the
        parameter planes gathered from the axes, seeds and layouts."""
        index = np.arange(chunk.start, chunk.stop)
        digits = self._digits(index)
        params = {
            name: (self._bound[name][digits[name]] if name in digits
                   else _as_plane([self._base[name]]).repeat(len(index)))
            for name in self.param_names
        }
        if self._explicit is not None:
            seeds = _as_plane(
                [s.seed for s in self._explicit[chunk.start:chunk.stop]]
            )
            layouts = self._layout_of[index]
        else:
            seeds = _as_plane(spawn_seeds_range(self._master_seed,
                                                chunk.start, chunk.stop))
            layouts = np.broadcast_to(self._layout_of[tuple(
                digits[name] for name in self._config_axes
            )], index.shape)
        ids = np.unique(layouts).tolist()
        parts = []
        for layout in ids:
            group, names, seeded = self._layouts[layout]
            parts.append(Part(
                slice(None) if len(ids) == 1
                else np.flatnonzero(layouts == layout),
                group, names, seeded, self._groups[group][1],
            ))
        return Batch(self._pipeline_name, chunk.start, chunk.stop, params,
                     seeds, parts)

    def groups(
        self, batch: Batch, rows: Optional[np.ndarray] = None
    ) -> List[Tuple[Dict[str, Any], Tuple[Column, ...], np.ndarray,
                    Dict[str, np.ndarray], List[Optional[int]]]]:
        """``batch``'s rows (all, or the positions ``rows``) by
        configuration group: ``(config, columns, positions, resolved
        parameter planes, seeds)``.  The planes gather the values
        resolved at lowering; when rows fail a check joining parameters
        (:meth:`Pipeline.invalid`), the first of them is resolved again
        to raise the pipeline's own error."""
        positions: Dict[int, List[int]] = {}
        for part in batch.parts:
            positions.setdefault(part.group, []).extend(batch.positions(part))
        out, first_bad = [], len(batch)
        for group, found in positions.items():
            found = np.sort(found)
            if rows is not None:
                found = found[np.isin(found, rows)]
            if not len(found):
                continue
            config, columns, resolved = self._groups[group]
            digits = self._digits(batch.start + found)
            planes = {
                name: (self._resolved[name][digits[name]] if name in digits
                       else _as_plane([value]).repeat(len(found)))
                for name, value in resolved.items()
            }
            bad = self._pipeline.invalid(planes)
            if bad is not None and bad.any():
                first_bad = min(first_bad, int(found[bad.argmax()]))
            out.append((config, columns, found, planes,
                        batch.seeds[found].tolist()))
        if first_bad < len(batch):
            self._pipeline.resolve(
                self.scenario(batch.start + first_bad).params, self._snapshot
            )
        return out

    # ------------------------------------------------------------------ #
    # Cache keys
    # ------------------------------------------------------------------ #

    def cache_key(self, scenario: ScenarioSpec) -> str:
        """The result-cache key of one scenario: its spec key, plus
        ``:<content hash>`` of each file it references (the snapshot's),
        so an edited file never replays stale results."""
        key = scenario.key()
        for name in self._pipeline.content_params:
            value = scenario.params.get(name,
                                        self._pipeline.defaults.get(name))
            if value is not None:
                key = f"{key}:{self._snapshot[(name, value)][1]}"
        return key

    def cacheable(self, scenario: ScenarioSpec) -> bool:
        """Whether rerunning ``scenario`` would reproduce its result:
        always for deterministic pipelines, otherwise only with a seed."""
        return self._pipeline.deterministic or scenario.seed is not None

    # ------------------------------------------------------------------ #
    # Content anchors (external state folded into fingerprints)
    # ------------------------------------------------------------------ #

    def _grid_anchor_keys(
        self, blocks: Sequence[Tuple[int, int]]
    ) -> List[str]:
        """Cache keys anchoring a grid region's referenced content.

        One key per combination the region takes of the
        content-referencing axes (row-major window order), so *every*
        referenced file inside the region is hashed — a single
        first-scenario anchor would miss edits to the other files when
        a content parameter (e.g. ``case_file``) is itself a grid axis.
        Degenerates to one first-scenario key when no content parameter
        varies inside the region.
        """
        first_index = sum(
            offset * stride
            for (offset, _length), stride in zip(blocks, self._strides)
        )
        content = self._pipeline.content_params
        varying = [
            (stride, length)
            for (name, _values), (_offset, length), stride in zip(
                self._axes, blocks, self._strides
            )
            if length > 1 and name in content
        ]
        if not varying:
            return [self.cache_key(self.scenario(first_index))]
        keys: List[str] = []
        for deltas in itertools.product(
            *(range(length) for _stride, length in varying)
        ):
            index = first_index + sum(
                delta * stride
                for delta, (stride, _length) in zip(deltas, varying)
            )
            keys.append(self.cache_key(self.scenario(index)))
        return keys

    def _range_anchor_keys(self, start: int, length: int) -> List[str]:
        """Content anchor keys for a scenario-range region (explicit or
        gridless plans): one per distinct content-parameter combination
        in the window, first occurrence first."""
        content = self._pipeline.content_params
        if self._explicit is None or not content or length == 1:
            return [self.cache_key(self.scenario(start))]
        keys: List[str] = []
        seen = set()
        for index in range(start, start + length):
            scenario = self._explicit[index]
            marker = json.dumps(
                [[name, scenario.params.get(name)] for name in content],
                sort_keys=True, default=str,
            )
            if marker in seen:
                continue
            seen.add(marker)
            keys.append(self.cache_key(scenario))
        return keys

    # ------------------------------------------------------------------ #
    # Identity and pickling
    # ------------------------------------------------------------------ #

    def fingerprint(self) -> str:
        """Content hash identifying the plan's full output stream.

        Folds everything the stream depends on: pipeline name, base
        parameters, axes, master seed, scenario count, chunk layout —
        plus content anchor keys (:meth:`cache_key`), so
        file-referencing pipelines hash the snapshot's *content* too
        (editing a case file changes the next lowering's fingerprint).
        One anchor per distinct value combination of the
        content-referencing parameters: sweeping ``case_file`` as a grid axis hashes every
        file, not just the first scenario's.  Tile store manifests
        record this hash as ``plan_fingerprint``.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        payload: Dict[str, Any] = {
            "pipeline": self._pipeline_name,
            "base": self._base,
            "axes": [[name, list(values)] for name, values in self._axes],
            "master_seed": self._master_seed,
            "n_scenarios": self._n,
            "chunk_size": self._chunk_size,
            "dtype": _FINGERPRINT_DTYPE,
            "explicit": (
                [scenario.key() for scenario in self._explicit]
                if self._explicit is not None else None
            ),
        }
        if self._n:
            if self._explicit is not None or not self._axes:
                anchors = self._range_anchor_keys(0, self._n)
            else:
                anchors = self._grid_anchor_keys(
                    [(0, len(values)) for _name, values in self._axes]
                )
            if len(anchors) == 1:
                payload["scenario0"] = anchors[0]
            else:
                payload["content_anchors"] = anchors
        self._fingerprint = _digest(payload)
        return self._fingerprint

    def region_fingerprint(
        self, blocks: Sequence[Tuple[int, int]]
    ) -> str:
        """Content hash of one axis-aligned region's output rows.

        ``blocks`` gives an ``(offset, length)`` window per grid axis
        (or a single window over scenario indices for explicit/gridless
        plans).  The hash folds exactly what the region's rows depend
        on — pipeline, base parameters, the *windowed* axis
        values, and content anchor keys: one cache key per distinct
        combination the region takes of the content-referencing
        parameters (file-referencing pipelines declare them via
        ``content_params``), so every referenced file
        inside the region is hashed even when the file path itself is a
        grid axis.  Seeded sweeps additionally fold the seed window:
        the full grid shape plus the region's offsets, because
        per-scenario seeds are a function of absolute grid position.
        Unseeded deterministic sweeps deliberately do *not* fold
        absolute position, so a region whose parameter values are
        unchanged keeps its fingerprint even when other axes grow or
        shrink around it — the content-addressing that lets
        delta-sweeps skip it.
        """
        payload: Dict[str, Any] = {
            "pipeline": self._pipeline_name,
            "base": self._base,
            "dtype": _FINGERPRINT_DTYPE,
        }
        encoded: Dict[str, str] = {}
        if self._explicit is not None or not self._axes:
            if len(blocks) != 1:
                raise DomainError(
                    f"plans without grid axes take one (start, length) "
                    f"scenario window, got {len(blocks)} blocks"
                )
            start, length = blocks[0]
            if not (0 <= start and length >= 1
                    and start + length <= self._n):
                raise DomainError(
                    f"scenario window ({start}, {length}) outside "
                    f"[0, {self._n})"
                )
            if self._explicit is not None:
                payload["scenarios"] = [
                    scenario.key()
                    for scenario in self._explicit[start:start + length]
                ]
            else:
                payload["window"] = [start, length]
            anchors = self._range_anchor_keys(start, length)
        else:
            if len(blocks) != len(self._axes):
                raise DomainError(
                    f"expected {len(self._axes)} (offset, length) blocks "
                    f"(one per axis), got {len(blocks)}"
                )
            windows = []
            for (name, values), (offset, length) in zip(
                self._axes, blocks
            ):
                if not (0 <= offset and length >= 1
                        and offset + length <= len(values)):
                    raise DomainError(
                        f"block ({offset}, {length}) outside axis "
                        f"{name!r} of length {len(values)}"
                    )
                # Encoded once per window: a layout's tiles share them.
                key = (name, offset, length)
                if key not in self._windows:
                    self._windows[key] = _compact(
                        [name, list(values[offset:offset + length])]
                    )
                windows.append(self._windows[key])
            encoded["axes"] = "[%s]" % ",".join(windows)
            if self._master_seed is not None:
                payload["seed_window"] = {
                    "master_seed": self._master_seed,
                    "grid_shape": list(self.grid_shape),
                    "offsets": [offset for offset, _length in blocks],
                }
            anchors = self._grid_anchor_keys(blocks)
        if len(anchors) == 1:
            payload["anchor"] = anchors[0]
        else:
            payload["anchors"] = anchors
        return _digest(payload, **encoded)

    def __getstate__(self) -> Dict[str, Any]:
        # The resolved Pipeline holds registry callables that may not
        # pickle; ship the name and re-resolve on the other side.  The
        # snapshot ships whole: workers read the parent's file versions.
        state = self.__dict__.copy()
        state["_pipeline"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._pipeline = get_pipeline(self._pipeline_name)


class PlanWindow:
    """Ascending, disjoint scenario ranges of one plan, run in order.

    Every executor runs a window: :meth:`ExecutionPlan.window` covers
    the whole plan, each shard worker runs one window of
    :meth:`split`, and a delta runs the window of its pending tiles.
    Indices stay **absolute** (the plan's), so a window's chunks decode
    the plan's scenarios, seeds and cache keys for those indices, and
    windows that concatenate to the plan reproduce its output stream
    bit for bit.  Adjacent ranges merge; empty ones drop out.
    """

    def __init__(self, plan: ExecutionPlan,
                 ranges: Sequence[Tuple[int, int]]):
        merged: List[Tuple[int, int]] = []
        floor = 0
        for start, stop in ranges:
            start, stop = int(start), int(stop)
            if not floor <= start <= stop <= plan.n_scenarios:
                raise DomainError(
                    f"window ranges must be ascending, disjoint and "
                    f"inside [0, {plan.n_scenarios}), got {list(ranges)}"
                )
            floor = stop
            if start == stop:
                continue
            if merged and merged[-1][1] == start:
                merged[-1] = (merged[-1][0], stop)
            else:
                merged.append((start, stop))
        self._plan = plan
        self._ranges = tuple(merged)

    @property
    def plan(self) -> ExecutionPlan:
        return self._plan

    @property
    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        return self._ranges

    @property
    def n_scenarios(self) -> int:
        return sum(stop - start for start, stop in self._ranges)

    @property
    def n_chunks(self) -> int:
        size = self._plan.chunk_size
        return sum((stop - 1) // size - start // size + 1
                   for start, stop in self._ranges)

    def chunks(self) -> Iterator[Chunk]:
        """The window's ranges cut at the plan's chunk boundaries, in
        scenario order; each piece keeps the index of its plan chunk."""
        size = self._plan.chunk_size
        for start, stop in self._ranges:
            while start < stop:
                index = start // size
                end = min(stop, (index + 1) * size)
                yield Chunk(index, start, end)
                start = end

    def take(self, lo: int, hi: int) -> "PlanWindow":
        """The window's scenarios at positions ``[lo, hi)`` (counted
        along the window) as a window of the same plan."""
        if not 0 <= lo <= hi <= self.n_scenarios:
            raise DomainError(
                f"positions [{lo}, {hi}) outside the window's "
                f"[0, {self.n_scenarios})"
            )
        ranges = []
        offset = 0
        for start, stop in self._ranges:
            first = max(lo - offset, 0)
            last = min(hi - offset, stop - start)
            if first < last:
                ranges.append((start + first, start + last))
            offset += stop - start
        return PlanWindow(self._plan, ranges)

    def split(self, count: int) -> List["PlanWindow"]:
        """``count`` consecutive windows of near-equal scenario counts
        that concatenate to this one (the shards of a sharded run).  A
        split does not follow chunk boundaries, so every shard gets
        work even when the window has fewer chunks than shards."""
        if count < 1:
            raise DomainError(f"shard count must be positive, got {count}")
        n = self.n_scenarios
        return [self.take(i * n // count, (i + 1) * n // count)
                for i in range(count)]

    def __repr__(self) -> str:
        return (
            f"PlanWindow({self._plan.pipeline_name!r}, "
            f"{self.n_scenarios} scenarios in {list(self._ranges)})"
        )


def lower(
    sweep: Union[SweepLike, ExecutionPlan],
    chunk_size: Optional[int] = None,
) -> ExecutionPlan:
    """Lower a sweep (or explicit scenario list) to an :class:`ExecutionPlan`.

    ``chunk_size`` defaults to :data:`DEFAULT_CHUNK_SIZE`; pass 1 for
    scenario-at-a-time streaming or a larger value to trade memory for
    kernel efficiency.  An already-lowered plan is returned unchanged,
    so executors accept either; a ``chunk_size`` that differs from the
    plan's layout is refused rather than ignored.  Spec-level errors
    (unknown pipeline, mixed pipelines, bad chunk size, unknown
    parameter names, bad values, unreadable referenced files) surface
    here, before execution.
    """
    if isinstance(sweep, ExecutionPlan):
        if chunk_size is not None and chunk_size != sweep.chunk_size:
            raise DomainError(
                "chunk_size conflicts with the already-lowered plan; "
                "re-lower the sweep instead"
            )
        return sweep
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    if chunk_size < 1:
        raise DomainError("chunk_size must be positive")
    with tracer.span("plan.lower") as span:
        if isinstance(sweep, SweepSpec):
            plan = ExecutionPlan(
                sweep.pipeline,
                base=dict(sweep.base),
                axes=tuple((name, tuple(sweep.grid[name]))
                           for name in sweep.axes),
                master_seed=sweep.seed,
                n_scenarios=sweep.n_scenarios(),
                chunk_size=chunk_size,
            )
        else:
            scenarios = tuple(sweep)
            if not all(isinstance(s, ScenarioSpec) for s in scenarios):
                raise DomainError(
                    "sweep must be a SweepSpec or a sequence of ScenarioSpec"
                )
            pipelines = {scenario.pipeline for scenario in scenarios}
            if len(pipelines) > 1:
                raise DomainError(f"a sweep must use a single pipeline, "
                                  f"got {sorted(pipelines)}")
            if not scenarios:
                raise DomainError(
                    "cannot lower an empty scenario list; pass a SweepSpec "
                    "for empty sweeps"
                )
            plan = ExecutionPlan(
                next(iter(pipelines)), base={}, axes=(), master_seed=None,
                n_scenarios=len(scenarios), chunk_size=chunk_size,
                explicit=scenarios,
            )
        span.set(pipeline=plan.pipeline_name, n_scenarios=plan.n_scenarios,
                 n_chunks=plan.n_chunks, chunk_size=plan.chunk_size)
        return plan
