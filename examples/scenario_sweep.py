"""Scenario sweeps with ``repro.engine`` — from one scenario to a family.

The paper's claims are about *families* of scenarios; this example walks
the three steps the engine is built around:

1. one scenario, run declaratively;
2. a sweep over (sigma, demands), executed in a single vectorised pass;
3. tabular export — text table and CSV — plus the equivalent CLI call.

To rerun a family without recomputing it, write it to a tile store and
rerun with ``delta=True``: ``examples/delta_sweep.py`` walks that.

Run with::

    PYTHONPATH=src python examples/scenario_sweep.py

The same sweep is available to the command line as
``examples/sweep_spec.yaml``::

    PYTHONPATH=src python -m repro.cli sweep \
        --spec examples/sweep_spec.yaml --csv sweep.csv --limit 10
"""

from repro.engine import ScenarioSpec, SweepSpec, run_sweep

# ---------------------------------------------------------------- #
# 1. A single scenario: the paper's anchor judgement after 1,000
#    failure-free demands.
# ---------------------------------------------------------------- #
scenario = ScenarioSpec(
    pipeline="survival_update",
    params={"mode": 0.003, "sigma": 0.9, "demands": 1000, "bound": 1e-2},
)
single = run_sweep([scenario])[0]
print("single scenario:", {k: round(v, 6) for k, v in single.values.items()})

# ---------------------------------------------------------------- #
# 2. The same computation as a family: 4 spreads x 5 test volumes,
#    evaluated as one batched NumPy pass.
# ---------------------------------------------------------------- #
sweep = SweepSpec(
    pipeline="survival_update",
    base={"mode": 0.003, "bound": 1e-2},
    grid={
        "sigma": [0.7, 0.9, 1.1, 1.3],
        "demands": [0, 10, 100, 1000, 10000],
    },
)
results = run_sweep(sweep)
print("\n" + results.summary())

# ---------------------------------------------------------------- #
# 3. Tabular export.
# ---------------------------------------------------------------- #
print("\n" + results.to_table(
    columns=["sigma", "demands", "mean", "confidence"], limit=8))
print("...")

best = results.best("confidence")
print(
    f"\nbest confidence {best.values['confidence']:.4f} at "
    f"sigma={best.spec.params['sigma']}, demands={best.spec.params['demands']}"
)

csv_text = results.to_csv()
print(f"\nCSV export: {len(csv_text.splitlines()) - 1} rows "
      f"(results.to_csv('sweep.csv') writes a file)")
