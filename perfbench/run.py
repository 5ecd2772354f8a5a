"""Engine benchmark: one command runs a workload, checks its output and
prints every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload case_stream --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py`` for sizes and why each was
chosen): ``case_stream``, ``stochastic_kernels``, ``case_store_sharded``,
``case_delta``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics, timed by wrappers around the
engine's public functions in a run that alternates traced and untraced
operations.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human-readable
table goes to standard error and the full record (inputs, provenance,
spans) to ``.perfbench_out/``.

The work happens in child processes started here, so that ``setup_s``
is measured from process start: each untraced run starts
``SETUP_SAMPLES`` processes that import the engine, compile the case and
network and (for ``case_delta``) materialise the baseline store, and
reports the median time to the first timed call.  Children run with a
fixed ``PYTHONHASHSEED`` so string hashing is the same in every run, and
with ``TMPDIR`` inside ``.perfbench_out/``.

Reported times are scaled to a reference machine speed: a fixed probe
computation runs before and after every timed operation, and the
operation's seconds are multiplied by ``PROBE_REF_S`` over the mean of
the two readings; each process's set-up time is scaled by a probe
reading it takes right after set-up (see ``perfbench/child.py``).  The
raw seconds and the factors are kept in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.child import READY, SELF_TIME_LAYERS, SETUP_FACTOR  # noqa: E402

WORKLOADS = ("case_stream", "stochastic_kernels", "case_store_sharded",
             "case_delta")
SETUP_SAMPLES = 5
OUT_DIR = ".perfbench_out"
#: What the benchmark needs from the checkout besides its own files.
REQUIRED = ("src/repro/__init__.py", "examples/case_confidence.yaml",
            "BENCHMARK.json")
#: Wall-clock budget for the whole command, children included.
BUDGET_S = 170.0


def _kill_group(proc) -> None:
    """Kill a child and every process it started (shard workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, timeout: float):
    """Run ``perfbench.child`` to completion (killed after ``timeout``).

    Returns (seconds from start to its ready line or None, the other
    stdout lines, exit code).
    """
    # Temp files (the shard coordinator's spill files) stay inside the
    # checkout, like everything else the benchmark writes.
    tmp = os.path.join(ROOT, OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=tmp)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timer = threading.Timer(max(1.0, timeout), _kill_group, (proc,))
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == READY:
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        proc.stdout.close()
    return ready, lines, proc.returncode


def _setup_factor(lines):
    """The speed factor a child printed right after its set-up, or None."""
    for line in lines:
        fields = line.split()
        if len(fields) == 2 and fields[0] == SETUP_FACTOR:
            return float(fields[1])
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED
               if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"perfbench: not a repository checkout (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        definition = json.load(f)
    wanted = definition["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(out_dir, f"{stem}.json")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--record", record_path]

    def child(extra, name):
        remaining = BUDGET_S - (time.perf_counter() - started)
        ready, lines, code = run_child(
            common + ["--workdir", os.path.join(out_dir, f"work-{name}")]
            + extra, remaining,
        )
        if ready is None or code != 0 or not lines:
            print(f"perfbench: benchmark process failed (exit {code})",
                  file=sys.stderr)
            return None
        return ready, lines

    # (raw seconds from process start to the first timed call, speed
    # factor read right after it), one per process.
    setup = []
    if not args.trace:
        for sample in range(SETUP_SAMPLES - 1):
            done = child(["--setup-only"], f"setup{sample}")
            if done is None:
                return 1
            ready, lines = done
            setup.append((ready, _setup_factor(lines)))
    done = child(["--seconds", str(args.seconds),
                  "--trace", str(args.trace)], "run")
    if done is None:
        return 1
    ready, lines = done
    result = json.loads(lines[-1])
    measured = dict(result["metrics"])
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)
    if not args.trace:
        setup.append((ready, _setup_factor(lines)))
        if any(factor is None for _ready, factor in setup):
            print("perfbench: a set-up process gave no speed reading",
                  file=sys.stderr)
            return 1
        measured["setup_s"] = statistics.median(
            ready * factor for ready, factor in setup)
    absent = [m["name"] for m in wanted if m["name"] not in measured]
    if absent:
        print(f"perfbench: no value for {', '.join(absent)}",
              file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    record.update(metrics=metrics, setup_raw_s_and_factor=setup)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)

    # Self-time layers with their share of the traced wall.
    wall = measured.get("trace.wall_s")
    layers = {name for name, _span in SELF_TIME_LAYERS}
    for name, entry in metrics.items():
        share = (f"  {entry['value'] / wall:6.1%}"
                 if wall and name in layers else "")
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}{share}",
              file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
