"""Plan lowering: from a resolved sweep to a backend-agnostic IR.

The engine's execution stack is staged — **plan, compile, execute**:

1. :func:`lower` turns a :class:`~repro.engine.spec.SweepSpec` (or an
   explicit scenario list) into an :class:`ExecutionPlan`: the pipeline
   name, the **parameter planes** (sorted grid axes and their value
   lists over the shared base), the **chunk layout**, and the seed
   derivation rule.  Lowering validates everything that can fail
   without running a kernel — unknown pipelines, mixed pipelines,
   invalid chunk sizes — so executors start from a well-formed IR.
2. The pipelines' batch kernels *compile* whatever they need (networks,
   cases, grids) through the unified :mod:`repro.compilecache`.
3. The executors (:func:`repro.engine.run_sweep` and
   :func:`repro.engine.run_sweep_streaming`) walk the plan chunk by
   chunk on any backend.

The plan is deliberately **lazy**: nothing scales with the scenario
count except the arithmetic.  ``scenario(i)`` decodes the ``i``-th grid
point from mixed-radix arithmetic over the axes, and per-scenario seeds
come from :func:`repro.numerics.spawn_seeds_range`, which addresses the
``i``-th spawned child of the master seed directly.  Both are pure
functions of the spec, so every chunk layout, shard assignment and
backend reconstructs *identical* scenarios — the foundation of the
engine's bit-for-bit reproducibility guarantee for stochastic sweeps.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import DomainError
from ..numerics import spawn_seeds_range
from ..telemetry import tracer
from .pipelines import Pipeline, get_pipeline
from .spec import ScenarioSpec, SweepSpec

__all__ = ["Chunk", "ExecutionPlan", "PlanShard", "lower",
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
      layout;
    * :meth:`scenario`, :meth:`chunk_scenarios` — lazy scenario
      reconstruction (identical to ``SweepSpec.expand()`` output);
    * :meth:`chunk_items` — the resolved ``(params, seed)`` run items a
      chunk feeds to ``Pipeline.run_batch``;
    * :meth:`cache_key` — the result-cache key of one scenario, folded
      through the pipeline (file-referencing pipelines hash content).
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
        # Mixed-radix place values: axis j's digit advances every
        # prod(sizes[j+1:]) scenarios (row-major, matching
        # itertools.product in SweepSpec.expand()).
        strides: List[int] = []
        place = 1
        for _name, values in reversed(axes):
            strides.append(place)
            place *= len(values)
        self._strides = tuple(reversed(strides))

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

    # ------------------------------------------------------------------ #
    # Sharding
    # ------------------------------------------------------------------ #

    def shard(self, index: int, count: int) -> "PlanShard":
        """Shard ``index`` of ``count``: a disjoint chunk range sub-plan.

        The plan's chunks are split into ``count`` contiguous,
        near-equal ranges; shard ``i`` covers chunks
        ``[floor(i*C/count), floor((i+1)*C/count))``.  Because every
        shard keeps the parent's absolute scenario indices and seed
        derivation, ``concat(shard(0, k) .. shard(k-1, k))`` reproduces
        the whole plan's output stream bit for bit — by construction,
        not by convention.  Shards of a plan with fewer chunks than
        ``count`` may be empty.
        """
        if count < 1:
            raise DomainError(f"shard count must be positive, got {count}")
        if not 0 <= index < count:
            raise DomainError(
                f"shard index {index} out of range [0, {count})"
            )
        total = self.n_chunks
        start = (index * total) // count
        stop = ((index + 1) * total) // count
        return PlanShard(self, start, stop, index=index, count=count)

    def shard_chunks(self, start_chunk: int, stop_chunk: int) -> "PlanShard":
        """An arbitrary contiguous chunk range ``[start, stop)`` as a
        sub-plan (what the coordinator uses for retry)."""
        return PlanShard(self, start_chunk, stop_chunk)

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
        params = dict(self._base)
        for (name, values), stride in zip(self._axes, self._strides):
            params[name] = values[(index // stride) % len(values)]
        seed = spawn_seeds_range(self._master_seed, index, index + 1)[0]
        return ScenarioSpec(self._pipeline_name, params, seed=seed)

    def chunk_scenarios(self, chunk: Chunk) -> List[ScenarioSpec]:
        """All scenarios of ``chunk``, reconstructed lazily."""
        if self._explicit is not None:
            return list(self._explicit[chunk.start:chunk.stop])
        seeds = spawn_seeds_range(self._master_seed, chunk.start, chunk.stop)
        scenarios = []
        for offset, index in enumerate(range(chunk.start, chunk.stop)):
            params = dict(self._base)
            for (name, values), stride in zip(self._axes, self._strides):
                params[name] = values[(index // stride) % len(values)]
            scenarios.append(
                ScenarioSpec(self._pipeline_name, params,
                             seed=seeds[offset])
            )
        return scenarios

    def chunk_items(
        self, scenarios: Sequence[ScenarioSpec]
    ) -> List[Tuple[Dict[str, Any], Optional[int]]]:
        """Resolved ``(params, seed)`` run items for a chunk's scenarios.

        Resolution validates parameter names/values through the
        pipeline, so malformed scenarios fail here — before any pool or
        kernel sees them.
        """
        return [
            (self._pipeline.resolve(scenario.params), scenario.seed)
            for scenario in scenarios
        ]

    # ------------------------------------------------------------------ #
    # Cache keys
    # ------------------------------------------------------------------ #

    def cache_key(self, scenario: ScenarioSpec) -> str:
        """The result-cache key of one scenario (pipeline-folded)."""
        return self._pipeline.cache_key(scenario)

    def cacheable(self, scenario: ScenarioSpec) -> bool:
        """Whether rerunning ``scenario`` would reproduce its result:
        always for deterministic pipelines, otherwise only with a seed."""
        return self._pipeline.deterministic or scenario.seed is not None

    # ------------------------------------------------------------------ #
    # Content anchors (external state folded into fingerprints)
    # ------------------------------------------------------------------ #

    def _content_param_names(self) -> Optional[Tuple[str, ...]]:
        """Parameters whose values reference content outside the spec.

        ``()`` means none: the pipeline's ``cache_key`` is the default
        pure function of the spec, so axis windows already pin every
        input.  ``None`` means *unknown*: the pipeline overrides
        ``cache_key`` — its results depend on external state — without
        declaring :attr:`~repro.engine.pipelines.Pipeline.content_params`,
        so fingerprints must anchor every distinct scenario rather than
        guess which parameter carries the reference.
        """
        declared = tuple(
            getattr(self._pipeline, "content_params", ()) or ()
        )
        if declared:
            return declared
        if type(self._pipeline).cache_key is Pipeline.cache_key:
            return ()
        return None

    def _grid_anchor_keys(
        self, blocks: Sequence[Tuple[int, int]]
    ) -> List[str]:
        """Pipeline-folded cache keys anchoring a grid region's content.

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
        content = self._content_param_names()
        varying: List[Tuple[int, int]] = []
        if content != ():
            varying = [
                (stride, length)
                for (name, _values), (_offset, length), stride in zip(
                    self._axes, blocks, self._strides
                )
                if length > 1 and (content is None or name in content)
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
        content = self._content_param_names()
        if self._explicit is None or content == () or length == 1:
            return [self.cache_key(self.scenario(start))]
        keys: List[str] = []
        seen = set()
        for index in range(start, start + length):
            scenario = self._explicit[index]
            if content is None:
                marker = scenario.key()
            else:
                marker = json.dumps(
                    [[name, scenario.params.get(name)]
                     for name in content],
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
        plus pipeline-folded content anchor keys, so
        file-referencing pipelines hash the referenced *content* too
        (editing a case file changes the fingerprint).  One anchor per
        distinct value combination of the content-referencing
        parameters: sweeping ``case_file`` as a grid axis hashes every
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
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          default=str)
        self._fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self._fingerprint

    def region_fingerprint(
        self, blocks: Sequence[Tuple[int, int]]
    ) -> str:
        """Content hash of one axis-aligned region's output rows.

        ``blocks`` gives an ``(offset, length)`` window per grid axis
        (or a single window over scenario indices for explicit/gridless
        plans).  The hash folds exactly what the region's rows depend
        on — pipeline, base parameters, the *windowed* axis
        values, and pipeline-folded content anchor keys: one cache key
        per distinct combination the region takes of the
        content-referencing parameters (file-referencing pipelines
        declare them via ``content_params``), so every referenced file
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
            axes_payload = []
            for (name, values), (offset, length) in zip(
                self._axes, blocks
            ):
                if not (0 <= offset and length >= 1
                        and offset + length <= len(values)):
                    raise DomainError(
                        f"block ({offset}, {length}) outside axis "
                        f"{name!r} of length {len(values)}"
                    )
                axes_payload.append(
                    [name, list(values[offset:offset + length])]
                )
            payload["axes"] = axes_payload
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
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __getstate__(self) -> Dict[str, Any]:
        # The resolved Pipeline holds registry callables that may not
        # pickle; ship the name and re-resolve on the other side.
        state = self.__dict__.copy()
        state["_pipeline"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._pipeline = get_pipeline(self._pipeline_name)


class PlanShard(ExecutionPlan):
    """A contiguous chunk range of a parent plan, itself runnable.

    Chunk and scenario indices stay **absolute** (the parent's), so a
    shard's chunks carry their own ``spawn_seeds_range`` window: seeds,
    grid decode and cache keys are exactly what the parent would
    produce for those indices, on any backend.  :attr:`n_chunks` /
    :meth:`chunk` are re-based so executors can walk a shard like any
    plan; :attr:`parent_fingerprint` ties it back to the whole stream.
    """

    def __init__(self, parent: ExecutionPlan, start_chunk: int,
                 stop_chunk: int, index: Optional[int] = None,
                 count: Optional[int] = None):
        if isinstance(parent, PlanShard):
            raise DomainError(
                "cannot shard a shard; shard the parent plan instead"
            )
        if not 0 <= start_chunk <= stop_chunk <= parent.n_chunks:
            raise DomainError(
                f"shard chunk range [{start_chunk}, {stop_chunk}) outside "
                f"the plan's [0, {parent.n_chunks})"
            )
        super().__init__(
            parent.pipeline_name,
            base=parent._base,
            axes=parent._axes,
            master_seed=parent._master_seed,
            n_scenarios=parent._n,
            chunk_size=parent._chunk_size,
            explicit=parent._explicit,
        )
        self._start_chunk = int(start_chunk)
        self._stop_chunk = int(stop_chunk)
        self._shard_index = index
        self._shard_count = count
        self._parent_fingerprint = parent.fingerprint()

    @property
    def start_chunk(self) -> int:
        """First parent chunk index covered (inclusive)."""
        return self._start_chunk

    @property
    def stop_chunk(self) -> int:
        """Last parent chunk index covered (exclusive)."""
        return self._stop_chunk

    @property
    def shard_index(self) -> Optional[int]:
        return self._shard_index

    @property
    def shard_count(self) -> Optional[int]:
        return self._shard_count

    @property
    def parent_fingerprint(self) -> str:
        """The parent plan's :meth:`~ExecutionPlan.fingerprint`."""
        return self._parent_fingerprint

    @property
    def start(self) -> int:
        """First absolute scenario index covered (inclusive)."""
        return min(self._start_chunk * self._chunk_size, self._n)

    @property
    def stop(self) -> int:
        """Last absolute scenario index covered (exclusive)."""
        return min(self._stop_chunk * self._chunk_size, self._n)

    @property
    def n_scenarios(self) -> int:
        return self.stop - self.start

    @property
    def n_chunks(self) -> int:
        return self._stop_chunk - self._start_chunk

    def chunk(self, index: int) -> Chunk:
        """The shard's ``index``-th chunk, in parent coordinates."""
        if not 0 <= index < self.n_chunks:
            raise DomainError(
                f"chunk index {index} out of range [0, {self.n_chunks})"
            )
        absolute = self._start_chunk + index
        start = absolute * self._chunk_size
        return Chunk(absolute, start,
                     min(start + self._chunk_size, self._n))

    def __repr__(self) -> str:
        label = (
            f" (shard {self._shard_index}/{self._shard_count})"
            if self._shard_index is not None else ""
        )
        return (
            f"PlanShard({self._pipeline_name!r}, chunks "
            f"[{self._start_chunk}, {self._stop_chunk}), "
            f"{self.n_scenarios} scenarios{label})"
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
    (unknown pipeline, mixed pipelines, bad chunk size) surface here,
    before execution.
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
            axes = tuple(
                (name, tuple(sweep.grid[name])) for name in sweep.axes
            )
            plan = ExecutionPlan(
                sweep.pipeline,
                base=dict(sweep.base),
                axes=axes,
                master_seed=sweep.seed,
                n_scenarios=sweep.n_scenarios(),
                chunk_size=chunk_size,
            )
            span.set(pipeline=plan.pipeline_name,
                     n_scenarios=plan.n_scenarios,
                     n_chunks=plan.n_chunks,
                     chunk_size=plan.chunk_size)
            return plan
        scenarios = tuple(sweep)
        if not all(isinstance(s, ScenarioSpec) for s in scenarios):
            raise DomainError(
                "sweep must be a SweepSpec or a sequence of ScenarioSpec"
            )
        pipelines = {scenario.pipeline for scenario in scenarios}
        if len(pipelines) > 1:
            raise DomainError(
                f"a sweep must use a single pipeline, got {sorted(pipelines)}"
            )
        if not scenarios:
            raise DomainError(
                "cannot lower an empty scenario list; pass a SweepSpec for "
                "empty sweeps"
            )
        plan = ExecutionPlan(
            next(iter(pipelines)),
            base={},
            axes=(),
            master_seed=None,
            n_scenarios=len(scenarios),
            chunk_size=chunk_size,
            explicit=scenarios,
        )
        span.set(pipeline=plan.pipeline_name,
                 n_scenarios=plan.n_scenarios,
                 n_chunks=plan.n_chunks,
                 chunk_size=plan.chunk_size)
        return plan
