"""Tile layout: axis-aligned blocks of the parameter plane.

A :class:`TileLayout` partitions a plan's scenario grid into
**tiles** — axis-aligned hyper-rectangles chosen so that every tile is
*also* one contiguous global scenario range.  That double alignment is
what makes the store cheap in both directions:

* **writing** — the streaming executor emits rows in scenario order, so
  a sink can cut tiles off the stream with a bounded buffer and no
  scatter;
* **reading** — a slice query ("confidence vs sigma at fixed demands")
  intersects the fixed axes against tile offsets and touches only the
  blobs it needs.

The contiguity constraint pins the block shape to a **pivot** form:
there is an axis ``p`` such that earlier axes contribute one value per
tile, axis ``p`` contributes a run of values, and later axes are taken
whole.  (Row-major order then makes each tile the scenario range
``[start, start + prod(shape))``.)  :func:`default_tile_shape` picks
the pivot from a target scenario count per tile — the same
"tile_size" knob the datacube chunking configs expose.

Each tile knows its :meth:`~TileLayout.fingerprint` — the plan's
:meth:`~repro.engine.plan.ExecutionPlan.region_fingerprint` over the
tile's axis windows — which is what delta-sweeps diff to decide
whether a tile's bytes can be reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import DomainError
from ..engine.plan import ExecutionPlan

__all__ = ["Tile", "TileLayout", "default_tile_shape",
           "DEFAULT_TILE_SCENARIOS"]

#: Default target scenarios per tile.  Matches the chunk sizes the
#: executor favours for million-scenario sweeps: large enough that the
#: per-tile manifest/IO overhead is negligible, small enough that a
#: one-axis edit invalidates a small fraction of the store.
DEFAULT_TILE_SCENARIOS = 16384


@dataclass(frozen=True)
class Tile:
    """One tile: block coordinates plus its scenario range."""

    index: int
    offsets: Tuple[int, ...]
    shape: Tuple[int, ...]
    start: int
    stop: int

    @property
    def n_scenarios(self) -> int:
        return self.stop - self.start


def default_tile_shape(
    grid_shape: Sequence[int], tile_scenarios: int
) -> Tuple[int, ...]:
    """The pivot-form block shape closest to ``tile_scenarios`` per tile.

    Chooses the smallest pivot axis whose suffix (the product of later
    axis sizes) fits inside the target, then sizes the pivot's run to
    fill the remainder.  Examples (target 16384): ``(100, 10000)`` →
    ``(1, 10000)``; ``(4, 8, 512)`` → ``(1, 4, 512)``.
    """
    if tile_scenarios < 1:
        raise DomainError(
            f"tile_scenarios must be positive, got {tile_scenarios}"
        )
    shape = tuple(int(s) for s in grid_shape)
    if not shape:
        return ()
    n = len(shape)
    suffix = [1] * (n + 1)
    for k in reversed(range(n)):
        suffix[k] = shape[k] * suffix[k + 1]
    pivot = 0
    while suffix[pivot + 1] > tile_scenarios:
        pivot += 1
    blocks = [1] * n
    blocks[pivot] = max(
        1, min(shape[pivot], tile_scenarios // max(1, suffix[pivot + 1]))
    )
    for k in range(pivot + 1, n):
        blocks[k] = shape[k]
    return tuple(blocks)


def _validate_contiguous(
    grid_shape: Sequence[int], tile_shape: Sequence[int]
) -> None:
    """Reject block shapes whose tiles are not contiguous scenario runs."""
    n = len(grid_shape)
    if len(tile_shape) != n:
        raise DomainError(
            f"tile shape {tuple(tile_shape)} has {len(tile_shape)} axes, "
            f"grid has {n}"
        )
    for size, block in zip(grid_shape, tile_shape):
        if not 1 <= block <= size:
            raise DomainError(
                f"tile shape {tuple(tile_shape)} does not fit grid "
                f"{tuple(grid_shape)}: blocks must satisfy "
                f"1 <= block <= axis size"
            )
    k = 0
    while k < n and tile_shape[k] == 1:
        k += 1
    if k < n:
        k += 1  # the pivot axis may take any run length
    while k < n and tile_shape[k] == grid_shape[k]:
        k += 1
    if k < n:
        raise DomainError(
            f"tile shape {tuple(tile_shape)} is not contiguous in "
            f"scenario order for grid {tuple(grid_shape)}: blocks must "
            f"be 1 on leading axes, then one pivot run, then whole "
            f"trailing axes (e.g. {default_tile_shape(grid_shape, 16384)})"
        )


class TileLayout:
    """The tiling of one plan's scenario space.

    ``linear`` layouts (explicit scenario lists, gridless sweeps) tile
    the flat scenario range; ``grid`` layouts tile the parameter plane
    in pivot form.  Tiles enumerate in row-major block order, which —
    by the contiguity constraint — is also ascending scenario order.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        tile_scenarios: Optional[int] = None,
        tile_shape: Optional[Union[Sequence[int], Dict[str, int]]] = None,
    ):
        if tile_scenarios is not None and tile_shape is not None:
            raise DomainError(
                "pass tile_scenarios or tile_shape, not both"
            )
        self._plan = plan
        self._fingerprints: Dict[int, str] = {}
        self._grid_shape = plan.grid_shape
        self._linear = not self._grid_shape
        target = (DEFAULT_TILE_SCENARIOS if tile_scenarios is None
                  else int(tile_scenarios))
        if target < 1:
            raise DomainError(
                f"tile_scenarios must be positive, got {target}"
            )
        if self._linear:
            if tile_shape is not None:
                raise DomainError(
                    "this plan has no grid axes; size tiles with "
                    "tile_scenarios instead of tile_shape"
                )
            self._tile_shape: Tuple[int, ...] = (
                (min(target, plan.n_scenarios),)
                if plan.n_scenarios else (1,)
            )
            self._space: Tuple[int, ...] = (plan.n_scenarios,)
        else:
            if tile_shape is None:
                shape = default_tile_shape(self._grid_shape, target)
            elif isinstance(tile_shape, dict):
                names = plan.axes
                unknown = sorted(set(tile_shape) - set(names))
                if unknown:
                    raise DomainError(
                        f"tile_shape names unknown axes {unknown}; "
                        f"grid axes are {list(names)}"
                    )
                shape = tuple(
                    int(tile_shape.get(name, size))
                    for name, size in zip(names, self._grid_shape)
                )
            else:
                shape = tuple(int(b) for b in tile_shape)
            if plan.n_scenarios:
                _validate_contiguous(self._grid_shape, shape)
            self._tile_shape = shape
            self._space = self._grid_shape
        # Block-grid bookkeeping: how many tiles along each axis, and
        # the row-major strides over blocks and over scenarios.
        self._blocks_per_axis = tuple(
            -(-size // block)
            for size, block in zip(self._space, self._tile_shape)
        )
        n_tiles = 1
        for count in self._blocks_per_axis:
            n_tiles *= count
        self._n_tiles = n_tiles if plan.n_scenarios else 0
        strides: List[int] = []
        place = 1
        for size in reversed(self._space):
            strides.append(place)
            place *= size
        self._scenario_strides = tuple(reversed(strides))
        block_strides: List[int] = []
        place = 1
        for count in reversed(self._blocks_per_axis):
            block_strides.append(place)
            place *= count
        self._block_strides = tuple(reversed(block_strides))

    @property
    def plan(self) -> ExecutionPlan:
        return self._plan

    @property
    def linear(self) -> bool:
        return self._linear

    @property
    def tile_shape(self) -> Tuple[int, ...]:
        return self._tile_shape

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        """The tiled space: the plan's grid, or ``(n_scenarios,)``."""
        return self._space

    @property
    def n_tiles(self) -> int:
        return self._n_tiles

    def tile(self, index: int) -> Tile:
        if not 0 <= index < self._n_tiles:
            raise DomainError(
                f"tile index {index} out of range [0, {self._n_tiles})"
            )
        offsets = []
        shape = []
        start = 0
        for size, block, bstride, sstride in zip(
            self._space, self._tile_shape, self._block_strides,
            self._scenario_strides,
        ):
            coord = (index // bstride) % max(1, -(-size // block))
            offset = coord * block
            extent = min(block, size - offset)
            offsets.append(offset)
            shape.append(extent)
            start += offset * sstride
        stop = start
        n = 1
        for extent in shape:
            n *= extent
        stop = start + n
        return Tile(index, tuple(offsets), tuple(shape), start, stop)

    def tiles(self) -> Iterator[Tile]:
        """Tiles in block order == ascending scenario order."""
        for index in range(self._n_tiles):
            yield self.tile(index)

    def fingerprint(self, tile: Tile) -> str:
        """The plan's region fingerprint of ``tile`` (see
        :meth:`repro.engine.plan.ExecutionPlan.region_fingerprint`),
        computed once per tile: a delta's triage and the tile's write
        share it."""
        fingerprint = self._fingerprints.get(tile.index)
        if fingerprint is None:
            if self._linear:
                blocks: Tuple[Tuple[int, int], ...] = (
                    (tile.start, tile.n_scenarios),
                )
            else:
                blocks = tuple(zip(tile.offsets, tile.shape))
            fingerprint = self._plan.region_fingerprint(blocks)
            self._fingerprints[tile.index] = fingerprint
        return fingerprint

    def describe(self) -> Dict[str, Any]:
        """Manifest-facing summary of the layout."""
        return {
            "grid_shape": list(self._space),
            "tile_shape": list(self._tile_shape),
            "n_tiles": self._n_tiles,
            "linear": self._linear,
        }
