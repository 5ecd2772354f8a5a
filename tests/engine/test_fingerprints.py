"""Property tests for plan and tile fingerprints.

Delta-sweeps reuse bytes whenever fingerprints match, so the
fingerprint must be exactly as strong as the guarantee: stable under
re-lowering and chunk-layout choices (or nothing would ever be
reused), and changed by anything that could change a row — axis
values, seeds, seed position, referenced file content.
"""

import pathlib
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import SweepSpec, lower
from repro.errors import DomainError
from repro.store import TileLayout

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def sweep_over(sigmas, demands, seed=None):
    return SweepSpec(
        pipeline="survival_update",
        base={"mode": 0.003, "bound": 1e-2},
        grid={"sigma": list(sigmas), "demands": list(demands)},
        seed=seed,
    )


axis_values = st.lists(
    st.integers(min_value=0, max_value=50).map(lambda i: round(0.5 + 0.01 * i, 2)),
    min_size=1, max_size=6, unique=True,
)


class TestRegionFingerprintProperties:
    @given(
        sigmas=axis_values,
        demands=st.lists(st.integers(min_value=0, max_value=10000),
                         min_size=1, max_size=6, unique=True),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
        chunk_a=st.integers(min_value=1, max_value=7),
        chunk_b=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_stable_under_relowering_and_chunking(
        self, sigmas, demands, seed, chunk_a, chunk_b
    ):
        sweep = sweep_over(sigmas, demands, seed=seed)
        plan_a = lower(sweep, chunk_size=chunk_a)
        plan_b = lower(sweep, chunk_size=chunk_b)
        blocks = tuple((0, 1) for _ in plan_a.axes)
        assert (plan_a.region_fingerprint(blocks)
                == plan_b.region_fingerprint(blocks))

    @given(
        sigmas=axis_values,
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
    )
    @settings(max_examples=30, deadline=None)
    def test_axis_value_edit_changes_only_its_tiles(self, sigmas, seed):
        demands = [0, 10, 100]
        plan = lower(sweep_over(sigmas, demands, seed=seed))
        edited_demands = [0, 10, 101]
        edited = lower(sweep_over(sigmas, edited_demands, seed=seed))
        # Axes sort to (demands, sigma): windows over demands.
        n_sig = len(sigmas)
        for offset in range(len(demands)):
            window = ((offset, 1), (0, n_sig))
            same = (plan.region_fingerprint(window)
                    == edited.region_fingerprint(window))
            assert same == (demands[offset] == edited_demands[offset])

    @given(seed_a=st.integers(min_value=0, max_value=2**31),
           seed_b=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_seed_is_fingerprinted(self, seed_a, seed_b):
        window = ((0, 1), (0, 2))
        fp_a = lower(sweep_over([0.7, 0.9], [0, 10], seed=seed_a)
                     ).region_fingerprint(window)
        fp_b = lower(sweep_over([0.7, 0.9], [0, 10], seed=seed_b)
                     ).region_fingerprint(window)
        assert (fp_a == fp_b) == (seed_a == seed_b)

    def test_seeded_windows_are_position_dependent(self):
        # Same parameter window, different absolute position: an
        # unseeded sweep keeps its fingerprint (content addressing),
        # a seeded one must not (seeds follow grid position).
        plan = lower(sweep_over([0.7, 0.9], [0, 10, 100]))
        grown = lower(sweep_over([0.7, 0.9], [5, 0, 10, 100]))
        window_old = ((0, 1), (0, 2))      # demands=0 row
        window_new = ((1, 1), (0, 2))      # same row, shifted by one
        assert (plan.region_fingerprint(window_old)
                == grown.region_fingerprint(window_new))
        seeded = lower(sweep_over([0.7, 0.9], [0, 10, 100], seed=9))
        seeded_grown = lower(sweep_over([0.7, 0.9], [5, 0, 10, 100],
                                        seed=9))
        assert (seeded.region_fingerprint(window_old)
                != seeded_grown.region_fingerprint(window_new))

    def test_base_is_fingerprinted(self):
        window = ((0, 1), (0, 2))
        fp = lower(sweep_over([0.7, 0.9], [0, 10])
                   ).region_fingerprint(window)
        other_base = SweepSpec(
            pipeline="survival_update",
            base={"mode": 0.004, "bound": 1e-2},
            grid={"sigma": [0.7, 0.9], "demands": [0, 10]},
        )
        assert lower(other_base).region_fingerprint(window) != fp

    def test_bad_windows_rejected(self):
        plan = lower(sweep_over([0.7, 0.9], [0, 10]))
        with pytest.raises(DomainError):
            plan.region_fingerprint(((0, 1),))          # one block short
        with pytest.raises(DomainError):
            plan.region_fingerprint(((0, 3), (0, 2)))   # outside axis
        with pytest.raises(DomainError):
            plan.region_fingerprint(((0, 1), (2, 1)))   # offset past end


class TestPinnedFingerprints:
    """Fingerprints are persisted: tile-store manifests and journals
    record each tile's region fingerprint, and manifests record the plan
    fingerprint.  Any change to the hashed payload turns every existing
    store's next ``--delta`` — including one finishing a killed run —
    into a full re-execution, so these hashes are fixed across versions.
    """

    UNSEEDED = sweep_over([0.7, 0.9], [0, 10, 100])
    SEEDED = sweep_over([0.7, 0.9], [0, 10, 100], seed=9)

    def test_plan_fingerprints(self):
        assert lower(self.UNSEEDED).fingerprint() == (
            "7503dfc98822723413eeeea73dbbb20e673db6e35b598824bb015e451edc6723"
        )
        assert lower(self.SEEDED).fingerprint() == (
            "d10a31fb5a68959dc102cf8f8e70a34ffcb6654d9d4f930c0d8a0cbeeaa8e6ee"
        )

    def test_region_fingerprints(self):
        assert lower(self.UNSEEDED).region_fingerprint(((0, 1), (0, 2))) == (
            "587f2e550ac1d5b58ed4bf6b25efa46184765f63073b57982c581a3da83a0cee"
        )
        assert lower(self.SEEDED).region_fingerprint(((1, 1), (0, 2))) == (
            "7d74777e3261b818c6ce7e6494487d352afaf290b12b8072c6f0a1b92176dfc4"
        )


def _edit_case_file(path, old, new):
    text = pathlib.Path(path).read_text(encoding="utf-8")
    assert old in text
    pathlib.Path(path).write_text(text.replace(old, new),
                                  encoding="utf-8")


class TestContentAxisFingerprint:
    """``case_file`` swept as a grid axis: every referenced file must be
    fingerprinted, not just the region's first scenario's (an edit to
    any *other* file would otherwise leave tiles stale)."""

    def _files(self, tmp_path):
        files = []
        for i, conf in enumerate(("0.97", "0.96")):
            path = str(tmp_path / f"case_{i}.yaml")
            shutil.copy(EXAMPLES / "case_confidence.yaml", path)
            _edit_case_file(path, "confidence: 0.97", f"confidence: {conf}")
            files.append(path)
        return files

    def _sweep(self, files):
        return SweepSpec(
            pipeline="case_confidence",
            base={},
            grid={"A1.p_true": [0.8, 0.9], "case_file": files},
        )

    def test_second_file_edit_changes_covering_region(self, tmp_path):
        files = self._files(tmp_path)
        # Axes sort to (A1.p_true, case_file): this window spans both
        # files at one p_true value — exactly one tile's shape when
        # case_file lands in the trailing axes.
        window = ((0, 1), (0, 2))
        before = lower(self._sweep(files)).region_fingerprint(window)
        assert lower(self._sweep(files)).region_fingerprint(window) == before
        _edit_case_file(files[1], "confidence: 0.96", "confidence: 0.95")
        after = lower(self._sweep(files)).region_fingerprint(window)
        assert after != before

    def test_second_file_edit_changes_plan_fingerprint(self, tmp_path):
        files = self._files(tmp_path)
        before = lower(self._sweep(files)).fingerprint()
        assert lower(self._sweep(files)).fingerprint() == before
        _edit_case_file(files[1], "confidence: 0.96", "confidence: 0.95")
        assert lower(self._sweep(files)).fingerprint() != before

    def test_single_file_windows_stay_distinct(self, tmp_path):
        files = self._files(tmp_path)
        plan = lower(self._sweep(files))
        # One file per window: fingerprints must tell the files apart.
        fp_a = plan.region_fingerprint(((0, 1), (0, 1)))
        fp_b = plan.region_fingerprint(((0, 1), (1, 1)))
        assert fp_a != fp_b


class TestFileContentFingerprint:
    def test_referenced_file_edit_changes_fingerprint(self, tmp_path):
        case_file = str(tmp_path / "case.yaml")
        shutil.copy(EXAMPLES / "case_confidence.yaml", case_file)
        sweep = SweepSpec(
            pipeline="case_confidence",
            base={"case_file": case_file},
            grid={"A1.p_true": [0.8, 0.9]},
        )
        window = ((0, 1),)
        before = lower(sweep).region_fingerprint(window)
        assert lower(sweep).region_fingerprint(window) == before
        text = pathlib.Path(case_file).read_text(encoding="utf-8")
        pathlib.Path(case_file).write_text(
            text.replace("probability_true: 0.90",
                         "probability_true: 0.85"),
            encoding="utf-8",
        )
        assert lower(sweep).region_fingerprint(window) != before


class TestTileFingerprintConsistency:
    @given(
        sigmas=axis_values,
        demands=st.lists(st.integers(min_value=0, max_value=10000),
                         min_size=1, max_size=6, unique=True),
        tile_scenarios=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_tile_fingerprints_agree_with_direct_windows(
        self, sigmas, demands, tile_scenarios
    ):
        plan = lower(sweep_over(sigmas, demands))
        layout = TileLayout(plan, tile_scenarios=tile_scenarios)
        prints = []
        for tile in layout.tiles():
            fp = layout.fingerprint(tile)
            direct = plan.region_fingerprint(
                tuple(zip(tile.offsets, tile.shape))
            )
            assert fp == direct
            prints.append(fp)
        # Distinct tiles never collide (they differ in axis windows or,
        # when seeded, offsets).
        assert len(set(prints)) == len(prints)

    def test_whole_grid_tile_matches_whole_plan_region(self):
        plan = lower(sweep_over([0.7, 0.9], [0, 10, 100]))
        layout = TileLayout(plan, tile_scenarios=plan.n_scenarios)
        assert layout.n_tiles == 1
        tile = layout.tile(0)
        whole = tuple((0, size) for size in plan.grid_shape)
        assert layout.fingerprint(tile) == plan.region_fingerprint(whole)
