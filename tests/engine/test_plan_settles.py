"""What ``lower()`` settles before the first chunk, and named failures.

* **One snapshot.**  Each referenced case file is loaded once, at
  lowering: an edit between chunks changes no row, no store cell and
  no fingerprint of the running sweep — in-process or across shards —
  and the next ``delta=True`` run sees the edit and re-executes.
* **Validation before any sink opens.**  A misspelt parameter, a bad
  axis value or a missing case file fails at lowering, so an existing
  store (full run or delta) and an existing JSONL file are left byte
  for byte as they were.
* **Named failures.**  A scenario that fails in-process raises
  ``DomainError("pipeline 'NAME', scenarios [START, STOP): Type:
  msg")`` chained from the original; a sharded run reports the same
  text once, after ``shard N failed:``.
"""

import json
import os
import pathlib
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    Column,
    JsonlSink,
    Pipeline,
    ResultSink,
    SweepSpec,
    lower,
    register,
    register_batch_kernel,
    run_sweep,
    run_sweep_streaming,
)
from repro.errors import DomainError
from repro.store import TileLayout, TileSink, TileStore

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
P_TRUE = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85]


def directory_bytes(path):
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                out[os.path.relpath(full, path)] = handle.read()
    return out


def row_of(result):
    row = dict(result.spec.params)
    if result.spec.seed is not None:
        row["seed"] = result.spec.seed
    row.update(result.values)
    return row


class TestSnapshot:
    """8 scenarios, chunks of 2, tiles of 4; the case file is edited
    after the first chunk is written."""

    def _sweep(self, tmp_path):
        path = str(tmp_path / "case.yaml")
        shutil.copy(EXAMPLES / "case_confidence.yaml", path)
        return path, SweepSpec(pipeline="case_confidence",
                               base={"case_file": path},
                               grid={"A1.p_true": P_TRUE})

    @pytest.mark.parametrize("execution", [
        {"backend": "serial"}, {"backend": "vectorized"}, {"shards": 2},
    ], ids=["serial", "vectorized", "shards2"])
    def test_edit_mid_sweep_changes_nothing_of_the_run(self, tmp_path,
                                                       execution):
        case_file, sweep = self._sweep(tmp_path)
        before = run_sweep(sweep)
        plan = lower(sweep, chunk_size=2)
        layout = TileLayout(plan, tile_scenarios=4)
        tile_prints = [layout.fingerprint(tile) for tile in layout.tiles()]

        def edit_after_first_chunk(done_chunks, *_counts):
            if done_chunks == 1:
                text = pathlib.Path(case_file).read_text(encoding="utf-8")
                assert "probability_true: 0.90" in text
                pathlib.Path(case_file).write_text(
                    text.replace("probability_true: 0.90",
                                 "probability_true: 0.6"),
                    encoding="utf-8",
                )

        jsonl, store = tmp_path / "rows.jsonl", tmp_path / "store"
        run_sweep_streaming(
            sweep, chunk_size=2, progress=edit_after_first_chunk,
            sinks=(JsonlSink(str(jsonl)),
                   TileSink(str(store), tile_scenarios=4)),
            **execution,
        )
        assert run_sweep(sweep)[0].values != before[0].values  # edited
        with open(jsonl, encoding="utf-8") as handle:
            assert [json.loads(line) for line in handle] == [
                row_of(result) for result in before
            ]
        opened = TileStore.open(str(store))
        assert [
            {name: record[name] for name in before[0].values}
            for record in opened.slice().records()
        ] == [dict(result.values) for result in before]
        assert opened.plan_fingerprint == plan.fingerprint()
        assert [tile["fingerprint"] for tile in opened.manifest["tiles"]] \
            == tile_prints

        meta = run_sweep_streaming(
            sweep, chunk_size=2, delta=True,
            sinks=(TileSink(str(store), tile_scenarios=4),),
        )
        assert meta["tiles_executed"] == meta["tiles_total"] == 2

    def test_file_is_read_once_per_lowering(self, tmp_path, monkeypatch):
        import repro.arguments as arguments

        _case_file, sweep = self._sweep(tmp_path)
        calls = []
        load_case = arguments.load_case
        monkeypatch.setattr(arguments, "load_case",
                            lambda path: calls.append(path) or
                            load_case(path))
        plan = lower(sweep, chunk_size=2)
        assert len(calls) == 1
        run_sweep_streaming(plan, sinks=(JsonlSink(str(tmp_path / "o")),))
        plan.fingerprint()
        assert len(calls) == 1


#: Each fails at lowering; the valid GOOD sweep writes the outputs first.
BAD = {
    "misspelt-parameter": SweepSpec(
        pipeline="survival_update", base={"mode": 0.003, "sigma": 0.9},
        grid={"demand": [0, 10, 100, 1000]},
    ),
    "bad-axis-value": SweepSpec(
        pipeline="survival_update", base={"mode": 0.003, "sigma": 0.9},
        grid={"demands": [0, 10, 1.5, 1000]},
    ),
    "missing-case-file": SweepSpec(
        pipeline="case_confidence",
        base={"case_file": "no/such/case.yaml"},
        grid={"A1.p_true": [0.8, 0.9]},
    ),
}
GOOD = SweepSpec(pipeline="survival_update",
                 base={"mode": 0.003, "sigma": 0.9},
                 grid={"demands": [0, 10, 100, 1000]})


class _Spy(ResultSink):
    def __init__(self):
        self.opened = 0

    def open(self, plan):
        self.opened += 1

    def write(self, results):
        pass


class TestValidationBeforeSinks:
    @pytest.mark.parametrize("name", sorted(BAD))
    def test_existing_store_is_left_as_it_was(self, tmp_path, name):
        store = str(tmp_path / "store")
        run_sweep_streaming(GOOD, sinks=(TileSink(store, tile_scenarios=2),))
        before = directory_bytes(store)
        for delta in (False, True):
            spy = _Spy()
            sinks = (TileSink(store, tile_scenarios=2),)
            with pytest.raises(DomainError):
                run_sweep_streaming(BAD[name], delta=delta,
                                    sinks=sinks if delta else (spy,) + sinks)
            assert spy.opened == 0
            assert directory_bytes(store) == before
            assert TileStore.open(store).n_tiles == 2

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_existing_jsonl_is_left_as_it_was(self, tmp_path, name):
        out = tmp_path / "rows.jsonl"
        run_sweep_streaming(GOOD, sinks=(JsonlSink(str(out)),))
        before = out.read_bytes()
        spy = _Spy()
        with pytest.raises(DomainError):
            run_sweep_streaming(BAD[name],
                                sinks=(spy, JsonlSink(str(out))))
        assert spy.opened == 0
        assert out.read_bytes() == before

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_cli_exits_2_and_leaves_the_store(self, tmp_path, name, capsys):
        store = str(tmp_path / "store")
        run_sweep_streaming(GOOD, sinks=(TileSink(store),))
        before = directory_bytes(store)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(BAD[name].to_dict()), encoding="utf-8")
        for extra in ([], ["--delta"]):
            assert main(["sweep", "--spec", str(spec), "--store", store,
                         *extra]) == 2
            assert "error:" in capsys.readouterr().err
            assert directory_bytes(store) == before


class _FailAtPipeline(Pipeline):
    """Doubles ``i``; raises at scenario ``fail_at``."""

    name = "test_fail_at"
    defaults = {"i": 0, "fail_at": -1}

    def columns(self, config):
        return (Column("doubled"),)

    def run(self, params, seed=None):
        merged = self.resolve(params)
        if merged["i"] == merged["fail_at"]:
            raise ZeroDivisionError(f"cannot double scenario {merged['i']}")
        return {"doubled": 2.0 * merged["i"]}


register(_FailAtPipeline())


@register_batch_kernel("test_fail_at")
def _fail_at_batch(config, planes, seeds):
    for i, fail_at in zip(planes["i"].tolist(), planes["fail_at"].tolist()):
        if i == fail_at:
            raise ZeroDivisionError(f"cannot double scenario {i}")
    return {"doubled": 2.0 * np.asarray(planes["i"], float)}


class TestNamedFailures:
    SWEEP = SweepSpec(pipeline="test_fail_at", base={"fail_at": 5},
                      grid={"i": list(range(8))})

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_in_process_failure_names_pipeline_and_scenarios(self, backend):
        with pytest.raises(DomainError) as excinfo:
            run_sweep(self.SWEEP, backend=backend, chunk_size=2)
        assert str(excinfo.value) == (
            "pipeline 'test_fail_at', scenarios [4, 6): "
            "ZeroDivisionError: cannot double scenario 5"
        )
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    def test_sharded_failure_reports_the_same_text_once(self):
        # Shard 1 runs [4, 8) in chunks [4, 6), [6, 8).
        with pytest.raises(DomainError) as excinfo:
            run_sweep(self.SWEEP, shards=2, chunk_size=2)
        assert str(excinfo.value) == (
            "shard 1 failed: pipeline 'test_fail_at', scenarios [4, 6): "
            "ZeroDivisionError: cannot double scenario 5"
        )

    def test_sink_errors_are_not_wrapped(self, tmp_path):
        class Broken(ResultSink):
            def write(self, results):
                raise KeyError("sink")

        with pytest.raises(KeyError):
            run_sweep_streaming(GOOD, sinks=(Broken(),))
