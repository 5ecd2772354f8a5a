"""Tests for the benchmark's own code: seeded inputs, span arithmetic,
output checks and the metric names ``BENCHMARK.json`` declares."""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import checks, child, spans
from perfbench.workloads import (
    CaseDelta,
    CaseStoreSharded,
    CaseStream,
    StochasticKernels,
    lattice,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Tiny sizes so every workload runs end to end in well under a second.
TINY = {
    CaseStream: {"p_true": 2, "dependence": 16},
    StochasticKernels: {"bbn": (2, 2), "jm": (2, 4), "lv": (2, 3)},
    CaseStoreSharded: {"p_true": 2, "dependence": 16},
    CaseDelta: {"p_true": 4, "dependence": 8, "edits": 1},
}


@pytest.fixture(autouse=True)
def _in_checkout(monkeypatch):
    # Workloads name the case file relative to the checkout root.
    monkeypatch.chdir(ROOT)


def tiny(cls, seed, tmp_path):
    return cls(seed, str(tmp_path / cls.name), **TINY[cls])


def _grid_sizes(inputs):
    sweeps = inputs.get("sweeps") or [inputs["sweep"]]
    return [{name: len(values) for name, values in sweep["grid"].items()}
            for sweep in sweeps]


@pytest.mark.parametrize("cls", list(TINY))
def test_same_seed_same_inputs_other_seed_other_values(cls, tmp_path):
    first = cls(7, str(tmp_path)).inputs()
    assert cls(7, str(tmp_path)).inputs() == first
    other = cls(8, str(tmp_path)).inputs()
    assert other != first
    assert _grid_sizes(other) == _grid_sizes(first)


def test_delta_edits_are_seeded_and_off_the_axis(tmp_path):
    one, two = (CaseDelta(3, str(tmp_path)) for _ in range(2))
    for _ in range(20):
        edit = one._edited("edit")
        assert edit == two._edited("edit")
        value, changed, expected, p_true = edit
        axis = one.spec.grid["A1.p_true"]
        assert value not in axis and value in p_true
        assert (changed, expected) == (1, (1, len(axis) - 1, 0))
        one.spec = two.spec = type(one.spec)(
            pipeline=one.spec.pipeline, base=one.spec.base,
            grid={**one.spec.grid, "A1.p_true": p_true},
        )


def test_lattice_excludes_and_is_distinct():
    import random

    values = lattice(random.Random(1), 50, 0.5, 0.51, 4, exclude=[0.5001])
    assert len(set(values)) == 50 and 0.5001 not in values
    assert all(0.5 <= value < 0.51 for value in values)


def _recorder(intervals):
    """A recorder holding spans given as (name, start, end, parent)."""
    recorder = spans.SpanRecorder()
    recorder.spans = [list(span) for span in intervals]
    return recorder


def test_self_time_of_nested_spans():
    recorder = _recorder([
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("b", 6.0, 7.5, 3),
    ])
    out = spans.op_breakdown(recorder, 0)
    assert out["self:op"] == pytest.approx(3.0)
    assert out["self:a"] == pytest.approx(2.0)
    assert out["self:c"] == pytest.approx(2.5)
    assert out["self:b"] == pytest.approx(2.5)
    assert out["incl:b"] == pytest.approx(2.5)
    assert out["calls:b"] == 2
    assert sum(v for k, v in out.items() if k.startswith("self:")) == (
        pytest.approx(out["wall"]))


def test_self_time_counts_overlapping_children_once():
    recorder = _recorder([
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("a", 3.0, 6.0, 0),   # overlaps its sibling (another thread)
        ("a", 8.0, 12.0, 0),  # runs past its parent's end
    ])
    # Covered: [1, 6] and [8, 10].
    assert spans.self_times(recorder.spans, 0)["op"] == pytest.approx(3.0)


def test_inclusive_time_skips_nested_same_name():
    recorder = _recorder([
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),
        ("a", 2.0, 3.0, 1),
    ])
    assert spans.inclusive_times(recorder.spans, 0)["a"] == pytest.approx(5.0)


def test_instrumentation_wraps_restores_and_reports_absent(monkeypatch):
    module = types.ModuleType("pbfake")
    module.work = lambda x: x + 1

    class Thing:
        def method(self):
            return module.work(1)

        @staticmethod
        def static():
            return 3

    module.Thing = Thing
    alias = types.ModuleType("pbfake.alias")
    alias.work = module.work
    monkeypatch.setitem(sys.modules, "pbfake", module)
    monkeypatch.setitem(sys.modules, "pbfake.alias", alias)
    original = module.work
    recorder = spans.SpanRecorder()
    with spans.Instrumentation(
        recorder,
        span_targets=[("m", "pbfake", "Thing.method"),
                      ("s", "pbfake", "Thing.static"),
                      ("gone", "pbfake", "Thing.deleted"),
                      ("gone", "pbfake_missing", "anything")],
        count_targets=[("w", "pbfake", "work")],
        module_prefix="pbfake",
    ) as instrumentation:
        root = recorder.begin(spans.ROOT)
        assert Thing().method() == 2 and Thing.static() == 3
        assert alias.work(0) == 1
        recorder.end(root)
    assert instrumentation.absent == ["pbfake:Thing.deleted",
                                      "pbfake_missing:anything"]
    assert recorder.counts["w"] == 2
    assert [span[0] for span in recorder.spans] == ["op", "m", "s"]
    assert module.work is original and alias.work is original
    assert "method" in vars(Thing) and Thing.static() == 3


def _corrupt_jsonl_row(path, index):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    row = json.loads(lines[index])
    row["top_confidence"] += 1e-9
    lines[index] = json.dumps(row, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _corrupt_blob(store):
    tiles = os.path.join(store, "tiles")
    tile = os.path.join(tiles, sorted(os.listdir(tiles))[0])
    blob = os.path.join(tile, sorted(os.listdir(tile))[0])
    with open(blob, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 1]))


def test_corrupted_row_fails_the_check_and_raises_fail_ratio(tmp_path):
    workload = tiny(CaseStream, 1, tmp_path)
    workload.setup()
    result = workload.op()
    assert workload.check(result) == 0 and not workload.problems
    _corrupt_jsonl_row(workload.path, workload.sampled[0])
    assert workload.check(result) == 1
    assert f"row {workload.sampled[0]}" in workload.problems[0]

    class Corrupting(CaseStream):
        def op(self):
            result = super().op()
            _corrupt_jsonl_row(self.path, self.sampled[-1])
            return result

    bad = Corrupting(1, str(tmp_path / "bad"), **TINY[CaseStream])
    bad.setup()
    m = child.measure(bad, 0, trace=False)
    assert m.attempted == child.MIN_OPS and m.failed == m.attempted


def test_output_the_check_cannot_read_counts_as_failed(tmp_path):
    class NotRows(CaseStream):
        def op(self):
            result = super().op()
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write("[]\n" * checks.n_scenarios(self.spec))
            return result

    bad = NotRows(1, str(tmp_path), **TINY[CaseStream])
    bad.setup()
    m = child.measure(bad, 0, trace=False)
    assert m.attempted == child.MIN_OPS and m.failed == m.attempted
    assert len(m.errors) == m.attempted


def test_corrupted_tile_fails_the_sharded_store_check(tmp_path):
    workload = tiny(CaseStoreSharded, 1, tmp_path)
    workload.setup()
    good = workload.op()
    assert workload.check(good) == 0
    bad = workload.op()
    _corrupt_blob(bad.output)
    assert workload.check(bad) == 0  # compared after the timed runs
    assert workload.finish() == 1


def test_corrupted_tile_fails_the_delta_store_check(tmp_path):
    workload = tiny(CaseDelta, 2, tmp_path)
    workload.setup()
    result = workload.op()
    assert workload.check(result) == 0, workload.problems
    assert workload.finish() == 0
    shutil.rmtree(os.path.join(workload.workdir, "scratch"))
    _corrupt_blob(workload.store)
    assert workload.finish() == 1


@pytest.mark.parametrize("cls", list(TINY))
def test_metrics_cover_benchmark_json(cls, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        definition = json.load(f)
    workload = tiny(cls, 4, tmp_path)
    workload.setup()
    m = child.measure(workload, 0, trace=True)
    assert m.failed == 0, workload.problems + m.errors
    assert workload.finish() == 0, workload.problems
    layers = child.per_layer(workload, m, compile_s=0.1)
    assert set(layers) == {entry["name"] for entry in definition["per_layer"]}
    # The self-time layers and the root's self time add up to the wall.
    self_total = sum(layers[name] for name, _span in child.SELF_TIME_LAYERS)
    assert self_total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    e2e = child.end_to_end(m)
    assert set(e2e) | {"setup_s"} == {
        entry["name"] for entry in definition["end_to_end"]}
    assert all(value > 0 for value in e2e.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
