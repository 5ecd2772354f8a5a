"""Sharded sweeps — multi-process execution, and finishing a killed run.

The streaming executor's plans address every chunk deterministically
(scenario ``i`` is mixed-radix grid arithmetic; its seed is the ``i``-th
spawned child of the master seed), so a sweep can be split across
worker processes and merged back in order with **bit-identical**
output.  Shard worker processes are the engine's one parallel path.
This example walks the coordinator:

1. **shard** — split a plan's window into 4 windows of near-equal
   scenario counts and check the invariant ``concat(shards) == whole``;
2. **dispatch** — run the sweep across 4 worker processes with
   ``run_sweep_streaming(shards=4)`` and compare bytes with the
   single-process stream;
3. **recover** — kill a sharded run into a tile store part-way and
   finish it with ``delta=True, shards=4``: the tiles it committed are
   skipped, the rest run across the workers, and the finished store is
   byte-identical to an uninterrupted run.

Run with::

    PYTHONPATH=src python examples/sharded_sweep.py

The CLI equivalent::

    PYTHONPATH=src python -m repro.cli sweep \
        --spec examples/sweep_spec.yaml --store results_store \
        --shards 4
    # ... killed?  Finish it: only the uncommitted tiles execute.
    PYTHONPATH=src python -m repro.cli sweep \
        --spec examples/sweep_spec.yaml --store results_store --delta \
        --shards 4
"""

import hashlib
import os
import pathlib
import tempfile
from unittest import mock

from repro.engine import (
    JsonlSink,
    SweepSpec,
    lower,
    run_sweep_streaming,
)
from repro.store import TileSink, TileWriter

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
# 1. Shard: k windows of near-equal scenario counts.  Each keeps the
#    plan's *absolute* scenario indices, chunk grid and seed windows,
#    so concatenating the shards reproduces the whole plan exactly (a
#    chunk cut by a shard boundary is two pieces of the same chunk).
# ---------------------------------------------------------------- #
plan = lower(sweep, chunk_size=1024)
shards = plan.window().split(4)
for shard in shards:
    print(f"  {shard!r}")
assert sum(s.n_scenarios for s in shards) == plan.n_scenarios
pieces = [(c.start, c.stop) for s in shards for c in s.chunks()]
assert pieces[0][0] == 0 and pieces[-1][1] == plan.n_scenarios
assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))

# ---------------------------------------------------------------- #
# 2. Dispatch: 4 worker processes, ordered merge, one JSONL output.
#    The bytes are identical to a single-process streaming run.
# ---------------------------------------------------------------- #
single_path = workdir / "single.jsonl"
sharded_path = workdir / "sharded.jsonl"

run_sweep_streaming(sweep, sinks=(JsonlSink(str(single_path)),),
                    chunk_size=1024)
meta = run_sweep_streaming(sweep, shards=4, chunk_size=1024,
                           sinks=(JsonlSink(str(sharded_path)),))
print(f"sharded: {meta['rows']} rows via {meta['backend']} "
      f"in {meta['elapsed_s']:.2f}s")

digest = hashlib.sha256(single_path.read_bytes()).hexdigest()
assert hashlib.sha256(sharded_path.read_bytes()).hexdigest() == digest
print("4-shard output is byte-identical to the single-process stream")

# ---------------------------------------------------------------- #
# 3. Recover: a tile store journals every tile as it commits.  Kill a
#    sharded store run after 12 of its 20 tiles (the 13th tile write
#    fails here, a stand-in for kill -9): it leaves no manifest, so
#    readers refuse it, and delta=True executes only the 8 missing
#    tiles, across 4 shard workers again.  The finished store matches
#    an uninterrupted run.
# ---------------------------------------------------------------- #
def store_sink(path):
    return TileSink(str(path), tile_scenarios=1000)        # 20 tiles


def store_digest(path):
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            digest.update(os.path.relpath(full, path).encode())
            digest.update(pathlib.Path(full).read_bytes())
    return digest.hexdigest()


class Killed(Exception):
    pass


write_tile = TileWriter.write_tile


def dying_write_tile(writer, tile, *args, **kwargs):
    if tile.index == 12:
        raise Killed
    return write_tile(writer, tile, *args, **kwargs)


killed = workdir / "killed_store"
with mock.patch.object(TileWriter, "write_tile", dying_write_tile):
    try:
        run_sweep_streaming(sweep, shards=4, chunk_size=1024,
                            sinks=(store_sink(killed),))
    except Killed:
        pass
assert not (killed / "manifest.json").exists()
print("killed after 12 of 20 tiles: no manifest, journal of "
      f"{len((killed / 'journal.jsonl').read_text().splitlines())} tiles")

finished = run_sweep_streaming(sweep, chunk_size=1024, delta=True,
                               shards=4, sinks=(store_sink(killed),))
print(f"delta: skipped {finished['tiles_skipped']} committed tiles, "
      f"executed {finished['tiles_executed']} via {finished['backend']}")
assert (finished["tiles_skipped"], finished["tiles_executed"]) == (12, 8)

whole = workdir / "whole_store"
run_sweep_streaming(sweep, shards=4, chunk_size=1024,
                    sinks=(store_sink(whole),))
assert store_digest(killed) == store_digest(whole)
print("finished store is byte-identical to an uninterrupted 4-shard run")
