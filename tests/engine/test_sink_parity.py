"""Sink parity: every output path gives back the rows a sweep computed.

For each of the 13 pipelines a fixed grid (a configuration axis where
the pipeline has one, a seed where it is stochastic, at least two
tiles), plus an explicit scenario list whose scenarios bind different
parameters, runs at ``chunk_size`` 1 and at the default, and

* JSONL bytes equal a per-row ``json.dumps`` of the collected rows
  (key order and float spelling included), ``CsvSink`` bytes equal
  ``ResultSet.to_csv()``, and JSONL rows and
  ``TileStore.slice().records()`` equal the collected rows;
* ints stay ints and ``None`` stays ``None`` — the store writes each
  column in its declared dtype with a declared nodata value, so a
  granted SIL comes back as ``2`` or ``None``, never ``2.0``/``nan``.

Sweeps whose configuration groups declare different columns (growth
models, case files with different goals) stream to JSONL and CSV
unchanged, and a tile store refuses them before touching its
directory.  The scalar ``Pipeline.run`` behind all of them returns
plain Python values.
"""

import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CsvSink,
    JsonlSink,
    ScenarioSpec,
    SweepSpec,
    get_pipeline,
    run_sweep,
    run_sweep_streaming,
)
from repro.errors import DomainError
from repro.store import TileSink, TileStore

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
CASE_FILE = str(EXAMPLES / "case_confidence.yaml")

LEGS = {
    "leg1_validity": 0.9, "leg1_sensitivity": 0.95, "leg1_specificity": 0.9,
    "leg2_validity": 0.88, "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
}

#: One fixed sweep per pipeline (two for the growth models) plus one
#: explicit scenario list, at most 24 scenarios each.
PARITY_SWEEPS = {
    "survival_update": SweepSpec(
        pipeline="survival_update",
        base={"mode": 0.003, "bound": 1e-2},
        grid={"sigma": [0.7, 1.3], "demands": [0, 10, 1000],
              "points_per_decade": [40, 60]},
    ),
    "two_leg_posterior": SweepSpec(
        pipeline="two_leg_posterior",
        base=LEGS,
        grid={"prior": [0.5, 0.7], "dependence": [0.0, 0.3, 0.6]},
    ),
    "bbn_query": SweepSpec(
        pipeline="bbn_query",
        base={**LEGS, "prior": 0.6},
        grid={"dependence": [0.1, 0.3, 0.5], "n_samples": [200, 400]},
        seed=11,
    ),
    "case_confidence": SweepSpec(
        pipeline="case_confidence",
        base={},
        # Two spellings of one file: two configuration groups, one
        # column set.
        grid={"case_file": [CASE_FILE,
                            str(EXAMPLES / ".." / "examples"
                                / "case_confidence.yaml")],
              "A1.p_true": [0.8, 0.9, 0.95], "S1.dependence": [0.1, 0.3]},
    ),
    "sil_classification": SweepSpec(
        pipeline="sil_classification",
        base={"mode": 0.003},
        grid={"sigma": [0.5, 0.9, 1.5, 2.5],
              "required_confidence": [0.6, 0.9],
              "scheme": ["low_demand", "high_demand"]},
    ),
    "panel_run": SweepSpec(
        pipeline="panel_run",
        grid={"n_experts": [8, 12], "n_doubters": [0, 3],
              "pool": ["linear", "log"]},
        seed=5,
    ),
    "sil_from_growth": SweepSpec(
        pipeline="sil_from_growth",
        base={"model": "jm", "n_candidates": 40},
        grid={"per_fault_rate": [0.004, 0.008, 0.012],
              "n_observed": [15, 25]},
        seed=3,
    ),
    "sil_from_growth_lv": SweepSpec(
        pipeline="sil_from_growth",
        base={"model": "lv", "n_alpha": 3, "n_beta0": 4, "n_beta1": 3},
        grid={"lv_alpha": [2.5, 4.0], "n_observed": [15, 25]},
        seed=8,
    ),
    "elicitation_pool": SweepSpec(
        pipeline="elicitation_pool",
        grid={"weighting": ["equal", "information"], "n_doubters": [0, 2],
              "bound": [1e-2, 1e-3]},
        seed=7,
    ),
    "expert_calibration": SweepSpec(
        pipeline="expert_calibration",
        grid={"n_questions": [20, 40], "sigma": [0.3, 0.9, 1.2]},
        seed=9,
    ),
    "alarp_decision": SweepSpec(
        pipeline="alarp_decision",
        grid={"mode": [1e-5, 1e-3, 3e-2], "sigma": [0.5, 1.5]},
    ),
    "iec61508_sil": SweepSpec(
        pipeline="iec61508_sil",
        base={"mode": 0.003},
        grid={"sigma": [0.5, 0.9, 2.5],
              "scheme": ["low_demand", "high_demand"]},
    ),
    "do178b_map": SweepSpec(
        pipeline="do178b_map",
        base={"mode": 1e-8, "sigma": 1.0},
        grid={"dal": ["A", "B", "C", "D", "E"]},
    ),
    "conservatism_audit": SweepSpec(
        pipeline="conservatism_audit",
        base={"mode": 0.003},
        grid={"beta": [0.0, 0.05, 0.5], "sigma": [0.5, 1.5]},
    ),
    # Scenarios binding different parameters, in different orders, with
    # and without seeds, in two interleaved configuration groups.
    "explicit_survival_update": [
        ScenarioSpec("survival_update", {"mode": 0.003, "sigma": 0.9}),
        ScenarioSpec("survival_update",
                     {"sigma": 1.2, "demands": 100, "mode": 0.001}, seed=4),
        ScenarioSpec("survival_update",
                     {"mode": 0.01, "sigma": 0.5, "bound": 1e-3,
                      "points_per_decade": 60}),
        ScenarioSpec("survival_update",
                     {"mode": 0.002, "sigma": 0.8, "demands": 10}, seed=9),
        ScenarioSpec("survival_update",
                     {"points_per_decade": 60, "mode": 0.005,
                      "sigma": 1.1}),
    ],
}


def add_goal(source, path):
    """A copy of the case file ``source`` with an extra goal ``G4``
    between ``G2`` and ``Sn1`` (a passthrough: values are unchanged,
    the column set gains ``conf_G4``)."""
    text = pathlib.Path(source).read_text(encoding="utf-8")
    edited = text.replace(
        "  - [G2, Sn1]\n", "  - [G2, G4]\n  - [G4, Sn1]\n"
    ).replace(
        "  - {id: Sn1,",
        '  - {id: G4, kind: goal, text: "campaign evidence sound"}\n'
        "  - {id: Sn1,",
    )
    assert edited.count("G4") == 3
    pathlib.Path(path).write_text(edited, encoding="utf-8")
    return str(path)


def mixed_sweeps(tmp_path):
    """Sweeps whose configuration groups declare different columns."""
    with_g4 = add_goal(CASE_FILE, tmp_path / "case_g4.yaml")

    def cases(files):
        return SweepSpec(pipeline="case_confidence",
                         grid={"case_file": files,
                               "A1.p_true": [0.8, 0.9]})

    return {
        "case_file[a,b]": cases([CASE_FILE, with_g4]),
        "case_file[b,a]": cases([with_g4, CASE_FILE]),
        "sil_from_growth[model]": SweepSpec(
            pipeline="sil_from_growth",
            base={"n_candidates": 40, "n_alpha": 3, "n_beta0": 4,
                  "n_beta1": 3},
            grid={"model": ["jm", "lv"], "per_fault_rate": [0.004, 0.008]},
            seed=2,
        ),
    }


def row_of(result):
    """A collected row as JSONL writes it: params, seed, values."""
    row = dict(result.spec.params)
    if result.spec.seed is not None:
        row["seed"] = result.spec.seed
    row.update(result.values)
    return row


def assert_same_rows(got, want):
    """Equal rows whose values also have equal types (ints stay ints,
    ``None`` stays ``None``, floats stay floats; NaN equals NaN)."""
    assert len(got) == len(want)
    for index, (row, expected) in enumerate(zip(got, want)):
        assert set(row) == set(expected), f"row {index} columns"
        for name, value in expected.items():
            assert type(row[name]) is type(value), f"row {index} {name}"
            assert row[name] == value or value != value, (
                f"row {index} {name}: {row[name]!r} != {value!r}"
            )


def jsonl_reference(collected):
    """The JSONL bytes of the collected rows, encoded row by row."""
    return "".join(
        json.dumps(row_of(r), separators=(",", ":"), default=str) + "\n"
        for r in collected
    ).encode("utf-8")


def jsonl_rows(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def directory_bytes(path):
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                out[os.path.relpath(full, path)] = handle.read()
    return out


@pytest.mark.parametrize("chunk_size", [1, None], ids=["chunk1", "default"])
@pytest.mark.parametrize("name", sorted(PARITY_SWEEPS))
def test_every_sink_gives_back_the_collected_rows(tmp_path, name,
                                                  chunk_size):
    sweep = PARITY_SWEEPS[name]
    collected = run_sweep(sweep, chunk_size=chunk_size)
    assert 2 <= len(collected) <= 24
    jsonl, csv_path = tmp_path / "rows.jsonl", tmp_path / "rows.csv"
    store = tmp_path / "store"
    tile_scenarios = -(-len(collected) // 3)
    run_sweep_streaming(
        sweep, chunk_size=chunk_size,
        sinks=(JsonlSink(str(jsonl)), CsvSink(str(csv_path)),
               TileSink(str(store), tile_scenarios=tile_scenarios)),
    )
    assert jsonl.read_bytes() == jsonl_reference(collected)
    assert_same_rows(jsonl_rows(jsonl), [row_of(r) for r in collected])
    assert csv_path.read_bytes() == collected.to_csv().encode("utf-8")
    opened = TileStore.open(str(store))
    assert opened.n_tiles >= 2
    axes = opened.axis_names
    assert_same_rows(
        list(opened.slice().records()),
        [{**{axis: r.spec.params[axis] for axis in axes}, **r.values}
         for r in collected],
    )


@pytest.mark.parametrize("name", sorted(PARITY_SWEEPS))
def test_scalar_run_returns_python_values(name):
    # The scalar oracle hands callers plain Python values, never NumPy
    # scalars, for every pipeline and configuration.
    sweep = PARITY_SWEEPS[name]
    scenarios = sweep.expand() if isinstance(sweep, SweepSpec) else sweep
    for scenario in scenarios:
        values = get_pipeline(scenario.pipeline).run(scenario.params,
                                                     seed=scenario.seed)
        wrong = {column: type(value).__name__
                 for column, value in values.items()
                 if type(value) not in (float, int, bool, str, type(None))}
        assert not wrong, (scenario.params, wrong)


@pytest.mark.parametrize("chunk_size", [1, 2, None],
                         ids=["chunk1", "chunk2", "default"])
@pytest.mark.parametrize("name", ["case_file[a,b]", "case_file[b,a]",
                                  "sil_from_growth[model]"])
def test_mixed_column_sweeps_stream_and_stores_refuse(tmp_path, name,
                                                      chunk_size):
    sweep = mixed_sweeps(tmp_path)[name]
    collected = run_sweep(sweep, chunk_size=chunk_size)
    jsonl, csv_path = tmp_path / "rows.jsonl", tmp_path / "rows.csv"
    run_sweep_streaming(sweep, chunk_size=chunk_size,
                        sinks=(JsonlSink(str(jsonl)),
                               CsvSink(str(csv_path))))
    assert jsonl.read_bytes() == jsonl_reference(collected)
    assert_same_rows(jsonl_rows(jsonl), [row_of(r) for r in collected])
    assert csv_path.read_bytes() == collected.to_csv().encode("utf-8")

    # Into a store: refused before the directory is touched, whether
    # it is new, holds a finished store, or is a delta target.
    store = tmp_path / "store"
    with pytest.raises(DomainError, match="different value columns"):
        run_sweep_streaming(sweep, chunk_size=chunk_size,
                            sinks=(TileSink(str(store)),))
    assert not store.exists()
    finished = PARITY_SWEEPS["survival_update"]
    run_sweep_streaming(finished, sinks=(TileSink(str(store)),))
    before = directory_bytes(store)
    for delta in (False, True):
        with pytest.raises(DomainError, match="different value columns"):
            run_sweep_streaming(sweep, chunk_size=chunk_size, delta=delta,
                                sinks=(TileSink(str(store)),))
        assert directory_bytes(store) == before


@given(floats=st.lists(st.floats(allow_nan=True, allow_infinity=True)
                       | st.sampled_from([0.0, -0.0, 0.1, 1e-300]),
                       min_size=1, max_size=40),
       ints=st.lists(st.integers(min_value=-3, max_value=2**40),
                     min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_column_spelling_is_json_dumps(floats, ints):
    # Each distinct value is spelt once and gathered: -0.0 stays apart
    # from 0.0, NaN and the infinities keep json's spelling, and a
    # declared nodata value reads as null.
    from repro.engine.sinks import _json

    assert _json(np.array(floats)) == [json.dumps(v) for v in floats]
    assert _json(np.array(floats), np.nan) == [
        "null" if v != v else json.dumps(v) for v in floats
    ]
    assert _json(np.array(ints), -1) == [
        "null" if v == -1 else json.dumps(v) for v in ints
    ]
