"""Traced sweeps — watch the plan -> compile -> execute stack work.

The engine's hot paths carry permanent instrumentation
(:mod:`repro.telemetry`) that costs ~nothing while disabled and turns
every sweep into a measured system when enabled.  This example runs the
whole-case confidence sweep from ``examples/case_confidence.yaml`` three
ways:

1. **traced** — :func:`repro.telemetry.capture_trace` scopes a tracer
   around a streaming sweep and exports Chrome trace-event JSON (to a
   temp directory — the printed path); open it at
   https://ui.perfetto.dev (or ``chrome://tracing``) to see the
   plan/compile/execute/sink stages as nested timeline blocks;
2. **metered** — :func:`repro.telemetry.enable_metrics` collects
   process-wide counters that must agree exactly with the sweep's
   ``meta`` counters;
3. **summarised** — :func:`repro.telemetry.render_summary` aggregates
   the trace into a span tree and a self-time hotspot ranking, the same
   report as ``repro-case telemetry summary``.

The equivalent CLI one-liner::

    repro-case sweep --spec examples/sweep_spec.yaml \
        --out rows.jsonl --trace sweep.trace.json --metrics

Run with::

    PYTHONPATH=src python examples/traced_sweep.py
"""

import pathlib
import tempfile

from repro.engine import JsonlSink, SweepSpec, run_sweep_streaming
from repro.telemetry import (
    capture_trace,
    disable_metrics,
    enable_metrics,
    load_trace,
    metrics,
    render_summary,
)

HERE = pathlib.Path(__file__).parent
CASE_FILE = str(HERE / "case_confidence.yaml")


def build_sweep() -> SweepSpec:
    """A 10,000-scenario whole-case sweep over two dials."""
    return SweepSpec(
        pipeline="case_confidence",
        base={"case_file": CASE_FILE},
        grid={
            "A1.p_true": [round(0.5 + 0.005 * i, 3) for i in range(100)],
            "S1.dependence": [round(0.01 * i, 2) for i in range(100)],
        },
    )


def main() -> None:
    sweep = build_sweep()
    out_dir = pathlib.Path(tempfile.mkdtemp())
    rows_path = out_dir / "rows.jsonl"
    trace_path = out_dir / "traced_sweep.trace.json"

    # 1. + 2. Trace and meter one streaming run.
    enable_metrics(reset=True)
    with capture_trace() as trace:
        meta = run_sweep_streaming(
            sweep, sinks=(JsonlSink(str(rows_path)),), chunk_size=2048
        )
    disable_metrics()

    trace.write_chrome_trace(trace_path)
    print(f"{meta['rows']} rows streamed to {rows_path}")
    print(f"trace: {trace_path} ({len(trace)} spans) — "
          "open at https://ui.perfetto.dev")

    stages = meta["stage_timings"]
    print("\nstage breakdown (from meta['stage_timings']):")
    for stage in ("plan_s", "compile_s", "execute_s", "sink_s"):
        print(f"  {stage:<10} {stages[stage]:.4f}s")

    # The metrics registry and the sweep meta count the same events.
    snapshot = metrics.snapshot()
    print("\nmetrics vs meta (must agree exactly):")
    for metric, meta_key in (("engine.rows", "rows"),
                             ("engine.chunks", "n_chunks"),
                             ("engine.cache_misses", "cache_misses")):
        counted = snapshot[metric]["value"]
        expected = meta[meta_key]
        assert counted == expected, (metric, counted, expected)
        print(f"  {metric:<20} {counted:>8} == meta[{meta_key!r}]")

    # 3. Aggregate the exported trace back into a hotspot report.
    print("\n" + render_summary(load_trace(trace_path), top=8))


if __name__ == "__main__":
    main()
