"""One benchmark process: set up a workload, report ready, measure.

``run.py`` starts this module as ``python3 -m perfbench.child`` in the
checkout root.  The process imports the engine from ``src/``, sets the
workload up, prints :data:`READY` (the parent times process start to
that line as one ``setup_s`` sample), then — with ``--trace 0`` — a
:data:`SETUP_FACTOR` line with the machine's speed right after set-up,
and then — unless ``--setup-only`` — runs timed operations for
``--seconds`` seconds and prints one JSON line with its measurements.

With ``--trace 1`` untraced and traced operations alternate: spans come
from the traced ones, end-to-end figures and ``trace.overhead_s`` from
comparing the two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

READY = "perfbench-ready"
SETUP_FACTOR = "perfbench-setup-factor"

#: Seconds the speed probe takes at the reference machine speed (about
#: its mean reading on the 2-core Xeon VM the workloads were sized on).
#: Times this benchmark reports are scaled by ``PROBE_REF_S / probe``
#: with the probe measured beside them: the shared machine's speed was
#: seen to swing by 1.8x over tens of seconds, for interpreter and NumPy
#: work alike, which no amount of repetition inside a 15-second run
#: averages out.  The raw wall times and the factors are kept in the
#: run record.
PROBE_REF_S = 0.008

#: Fewest operations a run takes a median over, whatever --seconds says.
MIN_OPS = 3

#: Layer metric -> span name whose self time it reports.  With
#: ``stream.self_s`` (the operation root's self time) these add up to
#: the traced wall.
SELF_TIME_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("plan.lower_s", "plan.lower"),
    ("plan.decode_s", "plan.decode"),
    ("numerics.seed_s", "numerics.seed"),
    ("plan.resolve_s", "plan.resolve"),
    ("plan.fingerprint_s", "plan.fingerprint"),
    ("pipelines.batch_self_s", "pipelines.run_batch"),
    ("arguments.evaluate_sweep_s", "arguments.evaluate_sweep"),
    ("bbn.query_batch_s", "bbn.query_batch"),
    ("bbn.lw_batch_s", "bbn.lw_batch"),
    ("kernels.growth_fit_s", "kernels.growth_fit"),
    ("sinks.encode_s", "sinks.encode"),
    ("sinks.write_s", "sinks.write"),
    ("store.write_tile_s", "store.write_tile"),
    ("store.finalise_s", "store.finalise"),
    ("store.reuse_s", "store.reuse"),
    ("store.delta_self_s", "store.delta"),
    ("store.open_s", "store.open"),
    ("store.slice_s", "store.slice"),
    ("coordinator.wait_s", "coordinator.wait"),
    ("coordinator.merge_s", "coordinator.merge"),
    ("stream.self_s", "op"),
)

KERNEL_SPANS = ("arguments.evaluate_sweep", "bbn.query_batch",
                "bbn.lw_batch", "kernels.growth_fit")


def _src_digest(root: str) -> str:
    digest = hashlib.sha256()
    base = os.path.join(root, "src")
    for folder, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), "r",
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def provenance(root: str, workload) -> Dict[str, Any]:
    import numpy

    from repro.engine import lower

    return {
        "commit": _commit(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "default_dtype": getattr(lower(_first_spec(workload)), "dtype",
                                 "float64"),
        "tuning_profile_active": _active_profile() is not None,
        "inputs": workload.inputs(),
    }


def _first_spec(workload):
    return getattr(workload, "spec", None) or workload.specs[0]


def _active_profile():
    """The installed tuning profile (None when there is none, or when
    the engine no longer has tuning)."""
    try:
        from repro.tuning.profile import active_profile
    except ImportError:
        return None
    return active_profile()


def _cache_lookups() -> Tuple[int, int]:
    from repro.compilecache import cache_stats

    stats = cache_stats().values()
    return (sum(s["hits"] for s in stats),
            sum(s["hits"] + s["misses"] for s in stats))


class SpeedProbe:
    """A fixed interpreter-loop plus NumPy computation timed as a
    reading of the machine's current speed.

    The reading is the mean of a few repeats: the shared machine was
    seen to flip between a fast and a slow state within seconds, and
    the mean weighs the two states as an operation spanning them does
    (it gave steadier scaled medians than the fastest repeat).
    """

    REPEATS = 6

    def __init__(self):
        import numpy

        self._numpy = numpy
        self._values = numpy.random.default_rng(0).standard_normal(100_000)

    def _once(self) -> float:
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(70_000):
            total += i
            table[i & 255] = total
        for _ in range(2):
            self._numpy.exp(self._numpy.sort(self._values))
        return time.perf_counter() - start

    def __call__(self) -> float:
        return statistics.fmean(self._once() for _ in range(self.REPEATS))


class Measurement:
    """The timed loop's raw observations."""

    def __init__(self):
        # (raw wall, result, speed factor): the factor is PROBE_REF_S
        # over the mean of the probe readings taken just before and just
        # after the operation, and turns its seconds into seconds at the
        # reference speed.
        self.untraced: List[Tuple[float, Any, float]] = []
        self.traced: List[Tuple[float, Any, Dict[str, float]]] = []
        self.spans: List[list] = []
        self.absent: List[str] = []
        # Compile-cache hits and lookups made inside traced operations
        # (the checks' oracle runs look the cache up too).
        self.cache_hits = 0
        self.cache_lookups = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []


def measure(workload, seconds: float, trace: bool) -> Measurement:
    from .spans import ROOT, Instrumentation, SpanRecorder, op_breakdown

    probe = SpeedProbe()
    out = Measurement()
    deadline = time.perf_counter() + seconds
    before = None
    n = 0
    while (n < (2 * MIN_OPS if trace else MIN_OPS)
           or time.perf_counter() < deadline):
        traced = trace and n % 2 == 1
        n += 1
        try:
            if traced:
                hits, lookups = _cache_lookups()
                recorder = SpanRecorder()
                with Instrumentation(recorder) as instrumentation:
                    root = recorder.begin(ROOT)
                    try:
                        result = workload.op()
                    finally:
                        recorder.end(root)
                hits_after, lookups_after = _cache_lookups()
                out.cache_hits += hits_after - hits
                out.cache_lookups += lookups_after - lookups
                breakdown = op_breakdown(recorder, root)
                for name, count in recorder.counts.items():
                    breakdown[f"count:{name}"] = count
                out.traced.append((breakdown["wall"], result, breakdown))
                out.spans.extend(recorder.spans)
                out.absent = instrumentation.absent
                before = None
            else:
                if before is None:
                    before = probe()
                start = time.perf_counter()
                result = workload.op()
                wall = time.perf_counter() - start
                after = probe()
                out.untraced.append(
                    (wall, result, 2 * PROBE_REF_S / (before + after)))
                before = after
        except Exception:  # noqa: BLE001 - reported as a failed operation
            out.attempted += 1
            out.failed += 1
            out.errors.append(traceback.format_exc())
            break
        out.attempted += result.operations
        try:
            out.failed += workload.check(result)
        except Exception:  # noqa: BLE001 - output the check cannot read
            out.failed += result.operations
            out.errors.append(traceback.format_exc())
        # Checked; keeping every run's rows would make peak memory grow
        # with the number of operations that fit in the run.
        result.output = None
    return out


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _scaled(m: Measurement, key: str) -> List[float]:
    """Speed-scaled ``key`` latencies of the untraced operations."""
    return [latency * factor for _wall, result, factor in m.untraced
            for latency in result.latencies.get(key, ())]


def end_to_end(m: Measurement) -> Dict[str, float]:
    from .workloads import peak_rss_mb

    wall = _median(wall * factor for wall, _result, factor in m.untraced)
    return {
        "wall_s": wall,
        "rows_per_s": m.untraced[0][1].rows / wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, m: Measurement, compile_s: float) -> Dict[str, float]:
    traced = [breakdown for _wall, _result, breakdown in m.traced]
    results = ([result for _wall, result, _factor in m.untraced]
               + [result for _wall, result, _b in m.traced])
    n = len(traced)

    def total(key: str) -> float:
        return sum(breakdown.get(key, 0.0) for breakdown in traced)

    def per_row(counter: str) -> float:
        rows = sum(result.rows_executed for _w, result, _b in m.traced)
        return total(f"count:{counter}") / rows if rows else 0.0

    def extras(key: str) -> List[float]:
        return [result.extras[key] for result in results
                if key in result.extras]

    metrics: Dict[str, float] = {
        name: total(f"self:{span}") / n for name, span in SELF_TIME_LAYERS
    }
    metrics["pipelines.run_batch_s"] = total("incl:pipelines.run_batch") / n
    metrics["pipelines.resolve_per_row"] = per_row("pipelines.resolve")
    metrics["arguments.load_case_per_row"] = per_row("arguments.load_case")
    wall = total("wall")
    metrics["kernels.share"] = sum(
        total(f"self:{span}") for span in KERNEL_SPANS) / wall
    metrics["stream.chunks"] = (
        total("calls:pipelines.run_batch")
        + sum(r.extras.get("worker_chunks", 0) for _w, r, _b in m.traced)
    ) / n
    jsonl = extras("jsonl_bytes")
    metrics["sinks.bytes_per_row"] = (
        sum(jsonl) / sum(r.rows for r in results if "jsonl_bytes" in r.extras)
        if jsonl else 0.0
    )

    delta_ops = sum(extras("delta_ops"))
    for key in ("tiles_executed", "tiles_skipped", "tiles_moved"):
        metrics[f"store.{key}"] = (
            sum(extras(key)) / delta_ops if delta_ops else 0.0
        )
    executed = sum(extras("tiles_executed"))
    metrics["store.exec_useful_ratio"] = (
        sum(extras("tiles_changed")) / executed if executed else 0.0
    )
    tile_bytes = extras("tile_bytes_per_row")
    metrics["store.bytes_per_row"] = (
        _median(tile_bytes) if tile_bytes
        else getattr(workload, "tile_bytes_per_row", 0.0)
    )
    slices = total("calls:store.slice")
    metrics["store.blobs_read_per_slice"] = (
        total("count:store.blob_decode") / slices if slices else 0.0
    )
    cpu = [r.extras["worker_cpu_s"] for _w, r, _f in m.untraced
           if "worker_cpu_s" in r.extras]
    metrics["coordinator.worker_cpu_s"] = _median(cpu)
    metrics["coordinator.retries"] = sum(extras("retries"))
    metrics["compilecache.compile_s"] = compile_s
    metrics["compilecache.hit_ratio"] = m.cache_hits / max(1, m.cache_lookups)
    metrics["trace.wall_s"] = wall / n
    metrics["trace.overhead_s"] = (
        _median(w for w, _r, _b in m.traced)
        - _median(w for w, _r, _f in m.untraced)
    )
    metrics["delta_s"] = _median(_scaled(m, "delta"))
    metrics["slice_ms"] = 1000.0 * _median(_scaled(m, "slice_round"))
    metrics["fail_ratio"] = m.failed / m.attempted if m.attempted else 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True,
                        help="where to write the full record")
    args = parser.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.compilecache import compile_seconds

    if _active_profile() is not None:
        print("perfbench: a tuning profile is active; autotuned chunk "
              "sizes and dtypes would make runs incomparable",
              file=sys.stderr)
        return 3
    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.setup()
        compile_s = compile_seconds()
        print(READY, flush=True)
        if not args.trace:
            # The parent scales this process's set-up time by the speed
            # the machine has right after it.
            print(SETUP_FACTOR, PROBE_REF_S / SpeedProbe()(), flush=True)
        if args.setup_only:
            return 0
        m = measure(workload, args.seconds, bool(args.trace))
        # Peak memory is read before the after-run checks, which build
        # reference stores of their own; fail_ratio after them.
        e2e = end_to_end(m) if m.untraced and not args.trace else {}
        if not m.errors:
            m.failed += workload.finish()
        if args.trace:
            metrics = per_layer(workload, m, compile_s) if m.traced else {}
        else:
            metrics = e2e
        result = {
            "correct": m.failed == 0 and not m.errors and bool(metrics),
            "attempted": max(1, m.attempted),
            "failed": m.failed,
            "metrics": metrics,
        }
        record = dict(
            result,
            walls={"untraced": [wall for wall, _r, _f in m.untraced],
                   "traced": [wall for wall, _r, _b in m.traced]},
            speed_factors=[factor for _w, _r, factor in m.untraced],
            problems=workload.problems[:20] + m.errors[:20],
            absent_targets=m.absent,
            provenance=provenance(root, workload),
            spans=m.spans,
        )
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        for problem in workload.problems[:5] + m.errors[:5]:
            print(f"perfbench: {problem}", file=sys.stderr)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
