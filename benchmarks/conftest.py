"""Shared helpers for the benchmark suite.

Each bench regenerates one of the paper's figures/tables (see DESIGN.md's
experiment index), checks its qualitative shape against the paper, and
writes the rendered series to ``benchmarks/results/<name>.txt`` so the
artefacts survive the run.  The ``benchmark`` fixture times the compute
kernel of each experiment.

Every run also appends one JSON line of per-test wall-clock timings to
``benchmarks/results/timings.jsonl`` (timestamp, provenance — git
commit, python/numpy versions, the VE path-finder default — and
seconds per test, plus any
plan/compile/execute/sink stage breakdowns recorded via the
``record_stage_timings`` fixture), so the performance trajectory of a
run is machine-readable.  The file is gitignored — CI uploads it as an
artifact (the nightly perf workflow with timing rounds enabled, and
every PR run) rather than committing a line per run;
``benchmarks/results/timings_baseline.jsonl`` holds the committed
reference snapshot.
"""

import json
import pathlib
import platform
import subprocess
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from repro.bbn.paths import DEFAULT_PATH_FINDER

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TIMINGS_PATH = RESULTS_DIR / "timings.jsonl"

_run_timings = {}
_run_stage_timings = {}


def _git_commit():
    """The checked-out commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    commit = out.stdout.strip()
    return commit or None


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record(results_dir):
    """Write a named result artefact and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===")
        print(text)

    return _record


@pytest.fixture
def rng():
    return np.random.default_rng(20070629)


@pytest.fixture
def benchmark(benchmark):
    """pytest-benchmark's fixture with untimed warmup always on.

    The first calls of a benchmarked kernel pay one-off costs the later
    rounds never see — compile-cache population, numpy buffer pools,
    lazy imports — which shows up as round-to-round jitter.  Forcing at
    least one untimed warmup round (the plugin's ``--benchmark-warmup``,
    which is off by default) removes that jitter for every bench without
    touching the timed rounds.
    """
    if not benchmark._warmup:
        benchmark._warmup = 1
    return benchmark


@pytest.fixture
def record_stage_timings(request):
    """Record a sweep's plan/compile/execute/sink stage breakdown.

    Call with a streaming ``meta`` dict (or any mapping with a
    ``stage_timings`` entry); the breakdown lands in the run's
    ``timings.jsonl`` line under ``stage_timings_s``, keyed by test id.
    """

    def _record(meta) -> None:
        stages = meta.get("stage_timings") if hasattr(meta, "get") else None
        if stages:
            _run_stage_timings[request.node.nodeid] = {
                name: round(float(value), 6)
                for name, value in stages.items()
            }

    return _record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    yield
    _run_timings[item.nodeid] = round(time.perf_counter() - start, 6)


def pytest_sessionfinish(session, exitstatus):
    if not _run_timings:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "exitstatus": int(exitstatus),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "path_finder": DEFAULT_PATH_FINDER,
        "timings_s": dict(sorted(_run_timings.items())),
    }
    if _run_stage_timings:
        entry["stage_timings_s"] = dict(sorted(_run_stage_timings.items()))
    with TIMINGS_PATH.open("a") as handle:
        handle.write(json.dumps(entry) + "\n")
