"""Sharded sweeps — multi-process execution with crash-safe resume.

The streaming executor's plans address every chunk deterministically
(scenario ``i`` is mixed-radix grid arithmetic; its seed is the ``i``-th
spawned child of the master seed), so a sweep can be split across
worker processes and merged back in order with **bit-identical**
output.  This example walks the coordinator:

1. **shard** — split a plan into disjoint sub-plans and check the
   invariant ``concat(shards) == whole``;
2. **dispatch** — run the sweep across 4 worker processes with
   :func:`run_sweep_sharded` and compare bytes with the single-process
   stream;
3. **resume** — simulate a mid-sweep kill (torn output line, torn
   manifest record) and resume: completed chunks are skipped and the
   finished file is byte-identical to the uninterrupted run.

Run with::

    PYTHONPATH=src python examples/sharded_sweep.py

The CLI equivalent::

    PYTHONPATH=src python -m repro.cli sweep \
        --spec examples/sweep_spec.yaml --out rows.jsonl \
        --shards 4
    # ... killed?  Pick up where it stopped:
    PYTHONPATH=src python -m repro.cli sweep \
        --spec examples/sweep_spec.yaml --out rows.jsonl \
        --shards 4 --resume
"""

import hashlib
import pathlib
import tempfile

from repro.engine import (
    JsonlSink,
    SweepSpec,
    lower,
    run_sweep_sharded,
    run_sweep_streaming,
)

case_file = str(pathlib.Path(__file__).parent / "case_confidence.yaml")
workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro_shards_"))

sweep = SweepSpec(
    pipeline="case_confidence",
    base={"case_file": case_file},
    grid={
        "A1.p_true": [round(0.5 + 0.005 * i, 3) for i in range(40)],
        "S1.dependence": [round(0.002 * i, 3) for i in range(500)],
    },
)

# ---------------------------------------------------------------- #
# 1. Shard: k disjoint sub-plans over chunk ranges.  Each shard keeps
#    *absolute* chunk indices and seed windows, so concatenating the
#    shards reproduces the whole plan exactly.
# ---------------------------------------------------------------- #
plan = lower(sweep, chunk_size=1024)
shards = [plan.shard(i, 4) for i in range(4)]
for shard in shards:
    print(f"  {shard!r}")
assert sum(s.n_scenarios for s in shards) == plan.n_scenarios
assert [c.index for s in shards for c in s.chunks()] == [
    c.index for c in plan.chunks()
]

# ---------------------------------------------------------------- #
# 2. Dispatch: 4 worker processes, ordered merge, one JSONL output.
#    The bytes are identical to a single-process streaming run.
# ---------------------------------------------------------------- #
single_path = workdir / "single.jsonl"
sharded_path = workdir / "sharded.jsonl"

run_sweep_streaming(sweep, sinks=(JsonlSink(str(single_path)),),
                    chunk_size=1024)
meta = run_sweep_sharded(sweep, shards=4, chunk_size=1024,
                         sinks=(JsonlSink(str(sharded_path)),))
print(f"sharded: {meta['rows']} rows via {meta['backend']} "
      f"in {meta['elapsed_s']:.2f}s")

digest = hashlib.sha256(single_path.read_bytes()).hexdigest()
assert hashlib.sha256(sharded_path.read_bytes()).hexdigest() == digest
print("4-shard output is byte-identical to the single-process stream")

# ---------------------------------------------------------------- #
# 3. Resume: every flushed chunk was checkpointed in a manifest next
#    to the output (sharded.jsonl.manifest).  Tear both files the way
#    a kill -9 would, then resume: completed chunks are skipped and
#    the final bytes still match.
# ---------------------------------------------------------------- #
data = sharded_path.read_bytes()
sharded_path.write_bytes(data[: len(data) // 2 + 17])     # torn row
manifest = workdir / "sharded.jsonl.manifest"
manifest.write_bytes(manifest.read_bytes()[:-20])         # torn record

resumed = run_sweep_sharded(sweep, shards=4, chunk_size=1024,
                            sinks=(JsonlSink(str(sharded_path)),),
                            resume=True)
print(f"resumed: skipped {resumed['resumed_chunks']} chunks "
      f"({resumed['resumed_rows']} rows), re-ran {resumed['rows']}")
assert hashlib.sha256(sharded_path.read_bytes()).hexdigest() == digest
print("resumed output is byte-identical to an uninterrupted run")
