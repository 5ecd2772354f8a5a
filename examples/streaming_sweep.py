"""Streaming sweeps — million-scenario families in constant memory.

``run_sweep`` collects every result in memory; fine for thousands of
scenarios, fatal for millions.  The streaming executor runs the *same*
execution core chunk by chunk through pluggable sinks, so the working
set is one chunk no matter how large the sweep.  This example walks the
staged architecture:

1. **plan** — lower a sweep to its :class:`ExecutionPlan` IR and look at
   the chunk layout;
2. **execute** — stream 100,000 whole-case scenarios to a JSONL file
   with progress reporting, in constant memory;
3. **cache** — rerun against a disk-persistent :class:`ResultCache` and
   watch the second pass be pure cache hits.

Run with::

    PYTHONPATH=src python examples/streaming_sweep.py

The CLI equivalent::

    PYTHONPATH=src python -m repro.cli sweep \
        --spec examples/sweep_spec.yaml --out rows.jsonl \
        --progress --cache results_cache.jsonl
    PYTHONPATH=src python -m repro.cli cache stats --path results_cache.jsonl
"""

import pathlib
import sys
import tempfile

from repro.engine import (
    JsonlSink,
    ResultCache,
    SweepSpec,
    lower,
    run_sweep_streaming,
)

case_file = str(pathlib.Path(__file__).parent / "case_confidence.yaml")
workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro_stream_"))

# ---------------------------------------------------------------- #
# 1. Plan: 100 assumption confidences x 1,000 dependence values over
#    the example safety case = 100,000 scenarios, lowered to an IR
#    whose size is independent of the scenario count.
# ---------------------------------------------------------------- #
sweep = SweepSpec(
    pipeline="case_confidence",
    base={"case_file": case_file},
    grid={
        "A1.p_true": [round(0.5 + 0.005 * i, 3) for i in range(100)],
        "S1.dependence": [round(0.001 * i, 3) for i in range(1000)],
    },
)
plan = lower(sweep, chunk_size=16384)
print(f"plan: {plan!r}")
print(f"first chunk covers scenarios [{plan.chunk(0).start}, "
      f"{plan.chunk(0).stop})")

# ---------------------------------------------------------------- #
# 2. Execute: stream every scenario through a JSONL sink.  Peak
#    memory is one chunk; the rows land on disk as they finish.
# ---------------------------------------------------------------- #
rows_path = workdir / "case_rows.jsonl"
cache = ResultCache(path=str(workdir / "results_cache.jsonl"))


def progress(done_chunks, n_chunks, done_rows, n_rows):
    print(f"  chunk {done_chunks}/{n_chunks} "
          f"({done_rows}/{n_rows} scenarios)", file=sys.stderr)


meta = run_sweep_streaming(
    plan, sinks=(JsonlSink(str(rows_path)),), cache=cache,
    progress=progress,
)
print(f"streamed {meta['rows']} rows in {meta['elapsed_s']:.2f}s "
      f"({meta['n_chunks']} chunks) -> {rows_path}")

# ---------------------------------------------------------------- #
# 3. Cache: the same sweep again — every scenario is now a disk-backed
#    cache hit, and a *new* process reading the same cache path would
#    see the same hits (try rerunning this script with workdir fixed).
# ---------------------------------------------------------------- #
again = run_sweep_streaming(
    plan, sinks=(JsonlSink(str(workdir / "case_rows_2.jsonl")),),
    cache=cache,
)
print(f"rerun: cache {again['cache_hits']} hit / "
      f"{again['cache_misses']} miss in {again['elapsed_s']:.2f}s")
