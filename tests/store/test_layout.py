"""Unit tests for tile layouts (:mod:`repro.store.layout`).

The layout is the store's load-bearing geometry: every tile must be an
axis-aligned block of the parameter plane *and* one contiguous global
scenario range, or the streaming sink would need to scatter rows and
slice queries would mis-place blocks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ScenarioSpec, SweepSpec, lower
from repro.errors import DomainError
from repro.store import DEFAULT_TILE_SCENARIOS, TileLayout, default_tile_shape

SWEEP = SweepSpec(
    pipeline="survival_update",
    base={"mode": 0.003, "bound": 1e-2},
    grid={"sigma": [0.7, 0.9, 1.1], "demands": [0, 10, 100, 1000]},
)


class TestDefaultTileShape:
    def test_picks_smallest_pivot_that_fits(self):
        assert default_tile_shape((100, 10000), 16384) == (1, 10000)
        assert default_tile_shape((4, 8, 512), 16384) == (4, 8, 512)
        assert default_tile_shape((40, 8, 512), 16384) == (4, 8, 512)
        assert default_tile_shape((40, 8, 512), 4096) == (1, 8, 512)
        assert default_tile_shape((3, 4), 5) == (1, 4)
        assert default_tile_shape((3, 4), 100) == (3, 4)
        assert default_tile_shape((3, 4), 1) == (1, 1)

    def test_empty_grid_and_bad_target(self):
        assert default_tile_shape((), 16384) == ()
        with pytest.raises(DomainError):
            default_tile_shape((3, 4), 0)

    @given(
        shape=st.lists(st.integers(min_value=1, max_value=20),
                       min_size=1, max_size=4),
        target=st.integers(min_value=1, max_value=4000),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_pivot_form_and_fit(self, shape, target):
        blocks = default_tile_shape(shape, target)
        # pivot form: leading 1s, one free run, trailing whole axes
        k = 0
        while k < len(blocks) and blocks[k] == 1:
            k += 1
        if k < len(blocks):
            k += 1
        assert all(blocks[i] == shape[i] for i in range(k, len(shape)))
        assert all(1 <= b <= s for b, s in zip(blocks, shape))
        # a tile never exceeds the target unless a single trailing
        # suffix already does (then the pivot run is clamped to 1)
        n = 1
        for b in blocks:
            n *= b
        suffix = 1
        for s in shape[1:]:
            suffix *= s
        assert n <= max(target, suffix)


class TestGridLayout:
    def test_tiles_are_contiguous_and_cover_in_order(self):
        # Axes are sorted by name, so the grid is (demands=4, sigma=3).
        plan = lower(SWEEP)
        layout = TileLayout(plan, tile_scenarios=3)
        assert layout.tile_shape == (1, 3)
        assert layout.n_tiles == 4
        expected_start = 0
        for tile in layout.tiles():
            assert tile.start == expected_start
            expected_start = tile.stop
        assert expected_start == plan.n_scenarios

    def test_explicit_tile_shape_by_dict(self):
        plan = lower(SWEEP)
        # Unnamed axes default to their full size (sigma -> 3 here).
        layout = TileLayout(plan, tile_shape={"demands": 2})
        assert layout.tile_shape == (2, 3)
        assert layout.n_tiles == 2

    def test_tile_shape_unknown_axis_rejected(self):
        plan = lower(SWEEP)
        with pytest.raises(DomainError, match="unknown axes"):
            TileLayout(plan, tile_shape={"nope": 2})

    def test_non_contiguous_shape_rejected_with_suggestion(self):
        plan = lower(SWEEP)
        # (3, 1) blocks interleave scenario indices: not contiguous.
        with pytest.raises(DomainError, match="not contiguous"):
            TileLayout(plan, tile_shape=(3, 1))
        with pytest.raises(DomainError, match="does not fit"):
            TileLayout(plan, tile_shape=(1, 9))

    def test_both_sizing_args_rejected(self):
        plan = lower(SWEEP)
        with pytest.raises(DomainError, match="not both"):
            TileLayout(plan, tile_scenarios=4, tile_shape=(1, 4))

    def test_partial_pivot_tile_is_truncated(self):
        sweep = SweepSpec(
            pipeline="survival_update",
            base={"mode": 0.003, "bound": 1e-2},
            grid={"sigma": [0.7, 0.9, 1.1], "demands": [0, 10, 100]},
        )
        plan = lower(sweep)
        layout = TileLayout(plan, tile_shape=(2, 3))
        tiles = list(layout.tiles())
        assert [t.shape for t in tiles] == [(2, 3), (1, 3)]
        assert [(t.start, t.stop) for t in tiles] == [(0, 6), (6, 9)]

    def test_default_target_is_the_module_constant(self):
        plan = lower(SWEEP)
        layout = TileLayout(plan)
        assert layout.n_tiles == 1
        assert DEFAULT_TILE_SCENARIOS == 16384


class TestLinearLayout:
    def _plan(self, n=7):
        scenarios = [
            ScenarioSpec(pipeline="survival_update",
                         params={"mode": 0.003, "sigma": 0.9,
                                 "demands": 10 * i})
            for i in range(n)
        ]
        return lower(scenarios)

    def test_flat_range_tiling(self):
        layout = TileLayout(self._plan(), tile_scenarios=3)
        assert layout.linear
        assert layout.tile_shape == (3,)
        assert [(t.start, t.stop) for t in layout.tiles()] == [
            (0, 3), (3, 6), (6, 7),
        ]

    def test_tile_shape_rejected_without_grid(self):
        with pytest.raises(DomainError, match="no grid axes"):
            TileLayout(self._plan(), tile_shape=(3,))

    def test_empty_plan_has_zero_tiles(self):
        plan = lower(SweepSpec(
            pipeline="survival_update",
            base={"mode": 0.003, "bound": 1e-2},
            grid={"sigma": []},
        ))
        assert TileLayout(plan, tile_scenarios=3).n_tiles == 0


class TestTileFingerprints:
    def test_distinct_per_tile_and_stable(self):
        plan = lower(SWEEP)
        layout = TileLayout(plan, tile_scenarios=4)
        prints = [layout.fingerprint(t) for t in layout.tiles()]
        assert len(set(prints)) == len(prints)
        again = TileLayout(lower(SWEEP), tile_scenarios=4)
        assert [again.fingerprint(t) for t in again.tiles()] == prints

    def test_linear_fingerprints_window_the_scenarios(self):
        scenarios = [
            ScenarioSpec(pipeline="survival_update",
                         params={"mode": 0.003, "sigma": 0.9,
                                 "demands": 10 * i})
            for i in range(6)
        ]
        layout = TileLayout(lower(scenarios), tile_scenarios=3)
        a, b = (layout.fingerprint(t) for t in layout.tiles())
        assert a != b
