"""Command-line interface: ``repro-case``.

Eleven subcommands cover the library's day-one uses:

* ``assess`` — classify a (mode, sigma) log-normal judgement into SILs
  and show the confidence/mean disagreement;
* ``conservative`` — the Section 3.4 design problem: what belief
  supports a claim;
* ``tests`` — how many failure-free demands reach a confidence target;
* ``growth`` — the Bishop-Bloomfield conservative growth bound;
* ``sweep`` — run batched scenario sweeps (:mod:`repro.engine`) from a
  YAML/JSON spec file (single- or multi-sweep) and tabulate or export
  the results; ``--out rows.jsonl`` and/or ``--store DIR`` stream the
  rows instead (constant memory, JSONL/CSV sinks or a tile store,
  ``--shards K`` worker processes, ``--progress`` chunk counters on
  stderr), and ``--cache`` keeps a disk-persistent result cache;
* ``cache`` — ``stats`` (with per-region hit rates and on-disk bytes)
  and ``clear`` (disk log and/or ``--regions`` for the in-process
  compile caches) for the unified caches (:mod:`repro.compilecache`);
* ``store`` — ``stats`` and ``query`` for tiled columnar result stores
  written with ``sweep --store DIR`` (:mod:`repro.store`);
  queries slice the stored tiles directly — nothing re-executes — and
  ``sweep --delta`` re-runs a sweep incrementally against a store (or
  finishes a killed ``sweep --store`` run, executing only the tiles it
  had not committed);
* ``telemetry`` — ``summary`` renders the span tree and self-time
  hotspots of a trace recorded with ``sweep --trace``
  (:mod:`repro.telemetry`);
* ``case`` — evaluate a quantified dependability case (YAML/JSON GSN
  nodes + confidence models): render the argument and report every
  node's confidence, with ``--set node.param=value`` overrides;
* ``validate`` — resolve and type-check a sweep or case spec file
  without executing it, listing *all* errors and exiting non-zero on
  any;
* ``pipelines`` — list every registered sweep pipeline with its batch /
  stochastic capabilities and parameters.

Examples::

    repro-case assess --mode 0.003 --sigma 0.9 --confidence 0.7
    repro-case conservative --claim 1e-3 --margin 1
    repro-case tests --mode 0.003 --sigma 0.9 --bound 1e-2 --target 0.95
    repro-case growth --faults 10 --exposure 1000
    repro-case sweep --spec examples/full_library_sweep.yaml --csv out.csv
    repro-case sweep --spec examples/sweep_spec.yaml \
        --out rows.jsonl --progress --cache results_cache.jsonl
    repro-case sweep --spec examples/sweep_spec.yaml \
        --out rows.jsonl --trace sweep.trace.json --metrics
    repro-case sweep --spec examples/sweep_spec.yaml \
        --store results_store --shards 4
    repro-case sweep --spec examples/sweep_spec.yaml \
        --store results_store --delta
    repro-case store stats results_store
    repro-case store query results_store --fix sigma=0.9 \
        --columns granted_level,sil2_confidence
    repro-case telemetry summary sweep.trace.json --top 5
    repro-case cache stats --path results_cache.jsonl
    repro-case cache clear --regions
    repro-case case --case examples/case_confidence.yaml --set A1.p_true=0.8
    repro-case validate --spec examples/full_library_sweep.yaml
    repro-case pipelines --verbose
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Mapping, Optional

from .core import AcarpTarget, ConfidenceProfile, design_for_claim
from .distributions import LogNormalJudgement
from .engine import (
    BACKENDS,
    CsvSink,
    JsonlSink,
    ResultCache,
    ResultSet,
    available_pipelines,
    get_pipeline,
    load_sweeps,
    run_sweep,
    run_sweep_streaming,
)
from .errors import ReproError
from .risk import plan_assurance
from .sil import assess
from .update import worst_case_intensity, worst_case_mtbf
from .viz import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-case",
        description="Quantitative confidence in dependability cases "
        "(Bloomfield, Littlewood & Wright, DSN 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser(
        "assess", help="classify a log-normal judgement into SILs"
    )
    p_assess.add_argument("--mode", type=float, required=True,
                          help="most-likely pfd (the judgement's peak)")
    p_assess.add_argument("--sigma", type=float, required=True,
                          help="spread of ln(pfd)")
    p_assess.add_argument("--confidence", type=float, default=0.70,
                          help="required one-sided confidence "
                          "(default 0.70, the IEC 61508 clause)")

    p_cons = sub.add_parser(
        "conservative",
        help="design the belief supporting a claim (Section 3.4)",
    )
    p_cons.add_argument("--claim", type=float, required=True,
                        help="claim bound y: P(failure) < y")
    p_cons.add_argument("--margin", type=float, default=1.0,
                        help="decades of margin for the belief bound "
                        "(default 1, the paper's Example 3)")
    p_cons.add_argument("--perfection", type=float, default=0.0,
                        help="probability mass on pfd = 0")

    p_tests = sub.add_parser(
        "tests", help="failure-free demands needed for a confidence target"
    )
    p_tests.add_argument("--mode", type=float, required=True)
    p_tests.add_argument("--sigma", type=float, required=True)
    p_tests.add_argument("--bound", type=float, required=True,
                         help="claim bound, e.g. 1e-2 for SIL 2")
    p_tests.add_argument("--target", type=float, required=True,
                         help="required confidence, e.g. 0.95")
    p_tests.add_argument("--cost-per-test", type=float, default=None,
                         help="optional cost per demand for the plan")

    p_growth = sub.add_parser(
        "growth", help="conservative growth bound N/(e t)"
    )
    p_growth.add_argument("--faults", type=int, required=True,
                          help="residual fault count N")
    p_growth.add_argument("--exposure", type=float, required=True,
                          help="failure-free exposure t (hours)")

    p_sweep = sub.add_parser(
        "sweep",
        help="run a batched scenario sweep from a YAML/JSON spec file",
    )
    p_sweep.add_argument("--spec", required=True,
                         help="path to the sweep spec (YAML or JSON)")
    p_sweep.add_argument("--backend", default="auto", choices=list(BACKENDS),
                         help="execution backend (default: auto — "
                         "vectorised when the pipeline supports it)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker count for thread/process backends")
    p_sweep.add_argument("--csv", default=None, metavar="PATH",
                         help="also export the collected results as CSV")
    p_sweep.add_argument("--limit", type=int, default=None,
                         help="print at most this many collected rows")
    p_sweep.add_argument("--out", default=None, metavar="PATH",
                         help="stream rows chunk-by-chunk in constant "
                         "memory to PATH (JSONL or CSV) instead of "
                         "collecting them: the million-scenario path")
    p_sweep.add_argument("--format", default=None,
                         choices=["jsonl", "csv"], dest="out_format",
                         help="streamed output format (default: from the "
                         "--out extension, else jsonl)")
    p_sweep.add_argument("--chunk-size", type=int, default=None,
                         dest="chunk_size", metavar="N",
                         help="scenarios per streamed chunk")
    p_sweep.add_argument("--shards", type=int, default=None, metavar="K",
                         help="split the streamed sweep across K worker "
                         "processes with strictly ordered merge — output "
                         "is bit-identical to a single-process run")
    p_sweep.add_argument("--store", default=None, metavar="DIR",
                         help="stream rows into a tiled columnar result "
                         "store (NumPy tiles + manifest) at DIR, "
                         "queryable with `repro-case store` and "
                         "re-runnable incrementally with --delta")
    p_sweep.add_argument("--delta", action="store_true",
                         help="incremental re-run against --store DIR: "
                         "tiles whose content fingerprints already exist "
                         "in the store are reused, only changed/missing "
                         "tiles execute (this also finishes a killed "
                         "--store run); the finished store is "
                         "bit-identical to a from-scratch run")
    p_sweep.add_argument("--tile-scenarios", type=int, default=None,
                         dest="tile_scenarios", metavar="N",
                         help="target scenarios per store tile "
                         "(default 16384); smaller tiles make deltas "
                         "finer-grained at more files")
    p_sweep.add_argument("--progress", action="store_true",
                         help="report per-chunk progress on stderr "
                         "(with throughput and ETA)")
    p_sweep.add_argument("--cache", default=None, metavar="PATH",
                         dest="cache_path",
                         help="disk-persistent result cache (JSONL log; "
                         "created if missing, reused across runs)")
    p_sweep.add_argument("--trace", default=None, metavar="PATH",
                         help="record a trace of the run: Chrome "
                         "trace-event JSON (open in chrome://tracing or "
                         "Perfetto), or one span per line if PATH ends "
                         "in .jsonl")
    p_sweep.add_argument("--metrics", action="store_true",
                         help="collect engine metrics during the run and "
                         "print them afterwards")

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear the unified caches",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats",
        help="entry/hit/miss counts for a disk result cache and the "
        "in-process compile-cache regions",
    )
    p_cache_stats.add_argument("--path", default=None, metavar="PATH",
                               help="disk result-cache log to inspect")
    p_cache_clear = cache_sub.add_parser(
        "clear", help="clear a disk result cache (truncates the log) "
        "and/or the in-process compile-cache regions"
    )
    p_cache_clear.add_argument("--path", default=None, metavar="PATH",
                               help="disk result-cache log to clear")
    p_cache_clear.add_argument("--regions", action="store_true",
                               help="also clear every in-process "
                               "compile-cache region")

    p_telemetry = sub.add_parser(
        "telemetry",
        help="inspect traces recorded with sweep --trace",
    )
    telemetry_sub = p_telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    p_telemetry_summary = telemetry_sub.add_parser(
        "summary",
        help="aggregated span tree and self-time hotspots from a trace "
        "file (Chrome trace JSON or JSONL)",
    )
    p_telemetry_summary.add_argument(
        "trace", metavar="TRACE",
        help="trace file written by sweep --trace",
    )
    p_telemetry_summary.add_argument(
        "--top", type=int, default=10,
        help="hotspot rows to show (default 10; 0 = all)",
    )
    p_telemetry_summary.add_argument(
        "--depth", type=int, default=None,
        help="limit the span tree to this nesting depth",
    )

    p_store = sub.add_parser(
        "store",
        help="inspect or query a tiled columnar result store written "
        "by sweep --store",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_store_stats = store_sub.add_parser(
        "stats",
        help="axes, columns, tile layout and on-disk bytes of a store",
    )
    p_store_stats.add_argument("path", metavar="DIR",
                               help="store directory (holds manifest.json)")
    p_store_query = store_sub.add_parser(
        "query",
        help="slice a store by fixing axes to grid values — answered "
        "from tiles, no scenario is re-executed",
    )
    p_store_query.add_argument("path", metavar="DIR",
                               help="store directory (holds manifest.json)")
    p_store_query.add_argument("--fix", action="append", default=[],
                               metavar="AXIS=VALUE",
                               help="fix one axis to a grid value "
                               "(repeatable), e.g. --fix S1.dependence=0.2")
    p_store_query.add_argument("--columns", default=None,
                               metavar="C1,C2,...",
                               help="comma-separated value columns "
                               "(default: all)")
    p_store_query.add_argument("--limit", type=int, default=20,
                               help="print at most this many rows "
                               "(default 20; 0 = all)")

    p_case = sub.add_parser(
        "case",
        help="evaluate a quantified dependability case from a YAML/JSON "
        "file",
    )
    p_case.add_argument("--case", required=True, metavar="PATH",
                        help="path to the case spec (nodes, support, "
                        "annotations, quantify)")
    p_case.add_argument("--set", action="append", default=[],
                        metavar="NODE.PARAM=VALUE", dest="overrides",
                        help="override a case parameter (repeatable), "
                        "e.g. --set A1.p_true=0.8")
    p_case.add_argument("--no-render", action="store_true",
                        help="skip the argument-graph rendering")

    p_validate = sub.add_parser(
        "validate",
        help="resolve and type-check a sweep or case spec without "
        "executing it",
    )
    p_validate.add_argument("--spec", required=True, metavar="PATH",
                            help="path to the sweep or case spec "
                            "(YAML or JSON)")

    p_pipelines = sub.add_parser(
        "pipelines",
        help="list the registered sweep pipelines and their capabilities",
    )
    p_pipelines.add_argument("--verbose", action="store_true",
                             help="also list each pipeline's parameters "
                             "(required ones marked *)")
    return parser


def _run_assess(args: argparse.Namespace) -> str:
    judgement = LogNormalJudgement.from_mode_sigma(args.mode, args.sigma)
    report = assess(judgement, required_confidence=args.confidence)
    profile = ConfidenceProfile(judgement)
    rows = [[f"SIL {level}", f"{confidence:.2%}"]
            for level, confidence in profile.band_confidences()]
    return (
        report.summary()
        + "\n\n"
        + format_table(["band or better", "confidence"], rows)
    )


def _run_conservative(args: argparse.Namespace) -> str:
    design = design_for_claim(
        args.claim, margin_decades=args.margin, perfection=args.perfection
    )
    return design.describe()


def _run_tests(args: argparse.Namespace) -> str:
    judgement = LogNormalJudgement.from_mode_sigma(args.mode, args.sigma)
    target = AcarpTarget(claim_bound=args.bound,
                         required_confidence=args.target)
    plan = plan_assurance(
        judgement, target,
        cost_per_test=args.cost_per_test if args.cost_per_test else 0.0,
    )
    return plan.describe()


def _run_growth(args: argparse.Namespace) -> str:
    intensity = worst_case_intensity(args.faults, args.exposure)
    mtbf = worst_case_mtbf(args.faults, args.exposure)
    return (
        f"worst-case failure intensity after {args.exposure:g} h with "
        f"{args.faults} residual faults: {intensity:.4g} /h "
        f"(MTBF >= {mtbf:.4g} h)"
    )


def _format_eta(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class _StreamProgress:
    """Per-chunk progress on stderr: counts, throughput, ETA.

    The ``chunk N/N (R/R scenarios)`` prefix is stable (scripts parse
    it); throughput and the remaining-time estimate are appended once a
    measurable amount of work has completed.
    """

    def __init__(self):
        import time

        self._clock = time.perf_counter
        self._start = self._clock()

    def __call__(self, done_chunks: int, n_chunks: int,
                 done_rows: int, n_rows: int) -> None:
        line = (
            f"chunk {done_chunks}/{n_chunks} "
            f"({done_rows}/{n_rows} scenarios)"
        )
        elapsed = self._clock() - self._start
        if elapsed > 0 and done_rows > 0:
            rate = done_rows / elapsed
            line += f", {rate:,.0f} rows/s"
            remaining = n_rows - done_rows
            if remaining > 0:
                line += f", eta {_format_eta(remaining / rate)}"
        print(line, file=sys.stderr, flush=True)


def _run_sweep_streaming(args: argparse.Namespace,
                         sweeps, cache) -> str:
    if len(sweeps) > 1:
        raise ReproError(
            "--out/--store stream one sweep per output; the spec defines "
            f"{len(sweeps)} — split it or drop --out/--store"
        )
    if args.delta:
        if args.store is None:
            raise ReproError("--delta needs --store DIR to diff against")
        if args.out is not None:
            raise ReproError(
                "--delta writes only the tile store (row sinks would "
                "re-emit every row); drop --out"
            )
        if args.shards is not None:
            raise ReproError(
                "--delta runs single-process (skipped tiles make "
                "sharding moot); drop --shards"
            )
    if args.tile_scenarios is not None and args.store is None:
        raise ReproError("--tile-scenarios only applies with --store")
    out_format = None
    sinks: List = []
    if args.out is not None:
        out_format = args.out_format
        if out_format is None:
            out_format = (
                "csv" if str(args.out).lower().endswith(".csv") else "jsonl"
            )
        sinks.append((CsvSink if out_format == "csv" else JsonlSink)(args.out))
    if args.store is not None:
        from .store import TileSink

        sinks.append(
            TileSink(args.store, tile_scenarios=args.tile_scenarios)
        )
    meta = run_sweep_streaming(
        sweeps[0],
        backend=args.backend,
        max_workers=args.workers,
        chunk_size=args.chunk_size,
        cache=cache,
        sinks=tuple(sinks),
        progress=_StreamProgress() if args.progress else None,
        shards=args.shards,
        delta=args.delta,
    )
    stages = meta.get("stage_timings", {})
    stage_line = ", ".join(
        f"{stage.removesuffix('_s')} {stages[stage]:.3f}s"
        for stage in ("plan_s", "compile_s", "execute_s", "sink_s")
        if stage in stages
    )
    retry_note = (
        f", {meta['retries']} worker retries" if meta.get("retries") else ""
    )
    delta_note = ""
    if meta.get("delta"):
        delta_note = (
            f", delta: {meta['tiles_executed']}/{meta['tiles_total']} "
            f"tiles executed ({meta['tiles_skipped']} skipped, "
            f"{meta['tiles_moved']} moved, {meta['rows_executed']} rows "
            f"computed, {meta['bytes_reused']} bytes reused)"
        )
    destinations = []
    if args.out is not None:
        destinations.append(f"{args.out} ({out_format})")
    if args.store is not None:
        destinations.append(f"store {args.store}")
    return (
        f"{meta['rows']} rows streamed to {' + '.join(destinations)}, "
        f"pipeline={meta['pipeline']}, backend={meta['backend']}, "
        f"{meta['n_chunks']} chunks of <= {meta['chunk_size']}"
        + retry_note + delta_note
        + f", cache {meta['cache_hits']} hit / {meta['cache_misses']} miss, "
        f"{meta['elapsed_s']:.3f}s"
        + (f"\nstages: {stage_line}" if stage_line else "")
    )


def _metrics_report() -> str:
    """Active metrics instruments as a table (zero-valued ones omitted)."""
    from .telemetry import metrics

    rows = []
    for name, snap in metrics.snapshot().items():
        if snap["type"] == "histogram":
            if snap["count"]:
                mean = snap["total"] / snap["count"]
                rows.append([
                    name, "histogram",
                    f"n={snap['count']} total={snap['total']:.6f}s "
                    f"mean={mean:.6f}s",
                ])
        elif snap["value"]:
            value = snap["value"]
            rows.append([
                name, snap["type"],
                f"{value:g}" if snap["type"] == "gauge" else f"{value}",
            ])
    if not rows:
        return "metrics: (no instrument recorded a value)"
    return "metrics:\n" + format_table(["metric", "type", "value"], rows)


def _run_sweep(args: argparse.Namespace) -> str:
    if args.limit is not None and args.limit < 0:
        raise ReproError(f"--limit must be non-negative, got {args.limit}")
    try:
        sweeps = load_sweeps(args.spec)
    except OSError as exc:
        raise ReproError(f"cannot read spec file {args.spec}: {exc}") from exc
    cache = (
        ResultCache(path=args.cache_path)
        if args.cache_path is not None else None
    )
    streamed = args.out is not None or args.store is not None
    if streamed:
        misplaced = (("--csv", args.csv is not None),
                     ("--limit", args.limit is not None))
        where = "to collected sweeps, not with --out or --store"
    else:
        misplaced = (("--format", args.out_format is not None),
                     ("--progress", args.progress),
                     ("--shards", args.shards is not None),
                     ("--delta", args.delta),
                     ("--tile-scenarios", args.tile_scenarios is not None))
        where = "with --out or --store"
    for name, given in misplaced:
        if given:
            raise ReproError(f"{name} only applies {where}")

    from .telemetry import capture_trace, disable_metrics, enable_metrics

    if args.metrics:
        enable_metrics(reset=True)
    try:
        if args.trace is not None:
            with capture_trace() as trace:
                report = (
                    _run_sweep_streaming(args, sweeps, cache)
                    if streamed else
                    _run_sweep_collect(args, sweeps, cache)
                )
            if str(args.trace).lower().endswith(".jsonl"):
                trace.write_jsonl(args.trace)
            else:
                trace.write_chrome_trace(args.trace)
            note = f"trace written to {args.trace} ({len(trace)} spans"
            if trace.dropped:
                note += f", {trace.dropped} dropped beyond the cap"
            note += "); inspect with `repro-case telemetry summary` or Perfetto"
            report += "\n" + note
        else:
            report = (
                _run_sweep_streaming(args, sweeps, cache)
                if streamed else
                _run_sweep_collect(args, sweeps, cache)
            )
    finally:
        if args.metrics:
            disable_metrics()
    if args.metrics:
        report += "\n" + _metrics_report()
    return report


def _run_sweep_collect(args: argparse.Namespace, sweeps, cache) -> str:
    lines: List[str] = []
    combined = []
    for index, spec in enumerate(sweeps):
        result = run_sweep(
            spec, backend=args.backend, max_workers=args.workers,
            chunk_size=args.chunk_size, cache=cache,
        )
        label = spec.name or spec.pipeline
        if len(sweeps) > 1:
            # Multi-pipeline CSVs need attribution columns: different
            # sweeps can share parameter names (mode, sigma, ...).
            from .engine import ScenarioResult

            combined.extend(
                ScenarioResult(
                    r.spec,
                    {"sweep": label, "pipeline": spec.pipeline, **r.values},
                    from_cache=r.from_cache,
                )
                for r in result.results
            )
            lines.append(f"--- sweep {index + 1}/{len(sweeps)}: {label} ---")
        else:
            combined.extend(result.results)
        lines.append(result.to_table(limit=args.limit))
        if args.limit is not None and len(result) > args.limit:
            lines.append(f"... ({len(result) - args.limit} more rows)")
        lines.append(result.summary())
    if args.csv:
        # One CSV across all sweeps; columns are the union, blank where a
        # pipeline does not produce them.
        try:
            ResultSet(combined).to_csv(args.csv)
        except OSError as exc:
            raise ReproError(
                f"cannot write csv to {args.csv}: {exc}"
            ) from exc
        lines.append(f"csv written to {args.csv}")
    return "\n".join(lines)


def _parse_overrides(items: List[str]) -> Dict[str, float]:
    overrides: Dict[str, float] = {}
    for item in items:
        name, separator, raw = item.partition("=")
        if not separator or not name:
            raise ReproError(
                f"--set expects NODE.PARAM=VALUE, got {item!r}"
            )
        try:
            overrides[name.strip()] = float(raw)
        except ValueError:
            raise ReproError(
                f"--set value for {name.strip()!r} must be a number, "
                f"got {raw!r}"
            ) from None
    return overrides


def _run_case(args: argparse.Namespace) -> str:
    from .arguments import load_case

    case = load_case(args.case)
    overrides = _parse_overrides(args.overrides)
    values = case.evaluate(overrides)
    root = case.graph.root_goal()
    lines: List[str] = []
    if not args.no_render:
        lines.append(case.graph.render())
        lines.append("")
    rows = [
        [identifier, case.graph.node(identifier).kind,
         f"{values[identifier]:.6f}"]
        for identifier in case.graph.topological_order()
        if identifier in values
    ]
    lines.append(format_table(["node", "kind", "confidence"], rows))
    top = values[root.identifier]
    lines.append("")
    lines.append(
        f"top-goal confidence P({root.identifier}) = {top:.6f} "
        f"(doubt {1.0 - top:.6f})"
    )
    if root.claim_bound is not None:
        lines.append(
            f"claim under argument: {root.text} (bound {root.claim_bound:g})"
        )
    return "\n".join(lines)


def _run_validate(args: argparse.Namespace) -> str:
    from .engine.spec import parse_spec_text, sweeps_from_data

    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(
            f"cannot read spec file {args.spec}: {exc}"
        ) from exc
    data = parse_spec_text(text, args.spec)
    errors: List[str] = []
    summary = ""
    if isinstance(data, Mapping) and "nodes" in data:
        from .arguments import QuantifiedCase

        try:
            case = QuantifiedCase.from_dict(data, validate=False)
        except ReproError as exc:
            errors.append(str(exc))
        else:
            errors.extend(case.validation_errors())
            if not errors:
                summary = (
                    f"case spec ok: {len(case.graph)} nodes, "
                    f"{len(case.parameter_defaults())} sweepable parameters"
                )
    else:
        sweeps = []
        try:
            sweeps = sweeps_from_data(data, args.spec)
        except ReproError as exc:
            errors.append(str(exc))
        n_scenarios = 0
        for index, sweep in enumerate(sweeps):
            label = sweep.name or f"sweep {index + 1} ({sweep.pipeline})"
            try:
                pipeline = get_pipeline(sweep.pipeline)
            except ReproError as exc:
                errors.append(f"{label}: {exc}")
                continue
            seen = set()
            for scenario in sweep.expand():
                n_scenarios += 1
                try:
                    pipeline.resolve(scenario.params)
                except ReproError as exc:
                    message = f"{label}: {exc}"
                    if message not in seen:
                        seen.add(message)
                        errors.append(message)
        summary = (
            f"spec ok: {len(sweeps)} sweep(s), {n_scenarios} scenario(s), "
            f"all parameters resolve"
        )
    if errors:
        listing = "\n".join(f"  - {error}" for error in errors)
        raise ReproError(
            f"{args.spec} failed validation "
            f"({len(errors)} error(s)):\n{listing}"
        )
    return summary


def _run_pipelines(args: argparse.Namespace) -> str:
    rows = []
    details: List[str] = []
    for name in available_pipelines():
        pipeline = get_pipeline(name)
        rows.append([
            name,
            "yes" if pipeline.supports_batch else "no",
            "yes" if not pipeline.deterministic else "no",
            len(pipeline.defaults),
        ])
        if args.verbose:
            params = ", ".join(
                f"{key}*" if key in pipeline.required else key
                for key in pipeline.defaults
            )
            details.append(f"{name}: {params}")
    table = format_table(
        ["pipeline", "batched", "stochastic", "n_params"], rows
    )
    if details:
        table += "\n\nparameters (* = required):\n" + "\n".join(details)
    return table


def _count_log_keys(path: str) -> int:
    """Distinct keys in a cache log, counted without building a cache.

    A bounded :class:`ResultCache` replay would cap the count at its
    ``maxsize``; a line scan reports the true entry count of any log.
    """
    import json

    keys = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "key" in entry:
                keys.add(str(entry["key"]))
    return len(keys)


def _run_cache(args: argparse.Namespace) -> str:
    import os

    from .compilecache import cache_stats

    if args.cache_command == "clear":
        if args.path is None and not args.regions:
            raise ReproError(
                "cache clear needs --path PATH and/or --regions"
            )
        lines: List[str] = []
        if args.path is not None:
            if not os.path.exists(args.path):
                raise ReproError(f"no cache log at {args.path}")
            entries = _count_log_keys(args.path)
            with open(args.path, "w", encoding="utf-8"):
                pass
            lines.append(
                f"cleared {entries} cached result(s) from {args.path}"
            )
        if args.regions:
            from .compilecache import clear_all_regions

            names = sorted(cache_stats())
            clear_all_regions()
            lines.append(
                "cleared in-process compile-cache region(s): "
                + (", ".join(names) if names else "(none created yet)")
            )
        return "\n".join(lines)

    lines = []
    if args.path is not None:
        if not os.path.exists(args.path):
            raise ReproError(f"no cache log at {args.path}")
        size = os.path.getsize(args.path)
        lines.append(
            f"disk result cache {args.path}: "
            f"{_count_log_keys(args.path)} entries, {size} bytes"
        )
        lines.append("")
    lines.append("in-process compile-cache regions:")
    stats = cache_stats()
    if not stats:
        lines.append("  (none created yet)")
    else:
        rows = []
        for name, region in stats.items():
            lookups = region["hits"] + region["misses"]
            rate = (
                f"{region['hits'] / lookups:.1%}" if lookups else "-"
            )
            rows.append([
                name, region["entries"], region["hits"],
                region["misses"], rate,
                # Persisted regions report their JSONL log's size;
                # memory-only ones have no on-disk footprint.
                str(region["bytes"]) if "bytes" in region else "-",
            ])
        lines.append(format_table(
            ["region", "entries", "hits", "misses", "hit rate",
             "disk bytes"], rows
        ))
    return "\n".join(lines)


def _parse_fix(items: List[str], store) -> Dict[str, object]:
    """``AXIS=VALUE`` pairs resolved against the store's grid values."""
    axes = dict(store.axes)
    fixed: Dict[str, object] = {}
    for item in items:
        name, separator, raw = item.partition("=")
        name = name.strip()
        if not separator or not name:
            raise ReproError(f"--fix expects AXIS=VALUE, got {item!r}")
        if name not in axes:
            raise ReproError(
                f"store has no axis {name!r}; axes: {store.axis_names}"
            )
        raw = raw.strip()
        value: object = raw
        for values in (axes[name],):
            # Prefer an exact textual match, then a numeric one, so
            # `--fix sigma=0.9` finds the float 0.9 on the grid.
            textual = next(
                (v for v in values if str(v) == raw), None
            )
            if textual is not None:
                value = textual
                break
            try:
                number = float(raw)
            except ValueError:
                break
            numeric = next(
                (v for v in values
                 if isinstance(v, (int, float)) and float(v) == number),
                None,
            )
            if numeric is not None:
                value = numeric
        fixed[name] = value
    return fixed


def _run_store(args: argparse.Namespace) -> str:
    from .errors import DomainError
    from .store import TileStore

    try:
        store = TileStore.open(args.path)
    except DomainError as exc:
        raise ReproError(str(exc)) from exc

    if args.store_command == "stats":
        stats = store.stats()
        lines = [
            f"tile store {stats['path']}: pipeline={stats['pipeline']}, "
            f"{stats['n_scenarios']} scenarios in {stats['n_tiles']} "
            f"tiles of shape {tuple(stats['tile_shape'])} over grid "
            f"{tuple(stats['grid_shape'])}, {stats['bytes']} bytes",
            f"plan fingerprint:  {stats['plan_fingerprint']}",
            f"store fingerprint: {stats['store_fingerprint']}",
        ]
        if stats["axes"]:
            lines.append("axes:")
            lines.append(format_table(
                ["axis", "values"],
                [[name, str(count)] for name, count in stats["axes"]],
            ))
        lines.append("columns:")
        lines.append(format_table(
            ["column", "dtype", "bytes"],
            [[name, meta["dtype"], str(meta["bytes"])]
             for name, meta in sorted(stats["columns"].items())],
        ))
        return "\n".join(lines)

    # query
    if args.limit is not None and args.limit < 0:
        raise ReproError(f"--limit must be non-negative, got {args.limit}")
    columns = None
    if args.columns is not None:
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
        if not columns:
            raise ReproError("--columns needs at least one column name")
    fixed = _parse_fix(args.fix, store)
    try:
        result = store.slice(columns=columns, **fixed)
    except DomainError as exc:
        raise ReproError(str(exc)) from exc
    records = list(result.records())
    limit = args.limit if args.limit else len(records)
    header = (
        [name for name in fixed]
        + [name for name, _values in result.axes]
        + result.columns
    )
    rows = [
        [str(record[column]) for column in header]
        for record in records[:limit]
    ]
    lines = [format_table(header, rows)] if rows else ["(empty slice)"]
    if len(records) > limit:
        lines.append(f"... ({len(records) - limit} more rows)")
    shape = " x ".join(str(s) for s in result.shape) or "scalar"
    lines.append(
        f"{len(records)} rows ({shape}) from {store.n_tiles}-tile store; "
        f"answered from tiles, 0 scenarios executed"
    )
    return "\n".join(lines)


def _run_telemetry(args: argparse.Namespace) -> str:
    from .telemetry import load_trace, render_summary

    if args.top is not None and args.top < 0:
        raise ReproError(f"--top must be non-negative, got {args.top}")
    if args.depth is not None and args.depth < 0:
        raise ReproError(f"--depth must be non-negative, got {args.depth}")
    spans = load_trace(args.trace)
    if not spans:
        return f"{args.trace}: trace contains no spans"
    return render_summary(spans, top=args.top, max_depth=args.depth)


_RUNNERS = {
    "assess": _run_assess,
    "conservative": _run_conservative,
    "tests": _run_tests,
    "growth": _run_growth,
    "sweep": _run_sweep,
    "case": _run_case,
    "validate": _run_validate,
    "pipelines": _run_pipelines,
    "cache": _run_cache,
    "store": _run_store,
    "telemetry": _run_telemetry,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(_RUNNERS[args.command](args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
