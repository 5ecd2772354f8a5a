"""The benchmark's seeded workloads.

Each workload turns the benchmark seed into the inputs the program
receives — ``SweepSpec`` grids, sweep master seeds, delta edits and slice
pins — so the same seed gives the same inputs and another seed gives
other values at the same sizes.  A workload prepares what a user has
before the first timed call (:meth:`Workload.setup`), runs one timed
operation at a time (:meth:`Workload.op`) and checks each operation's
output outside the timed region (:meth:`Workload.check`,
:meth:`Workload.finish`).

Grid values sit on fixed decimal lattices so the JSONL encoding cost
does not drift with the seed.  Sizes are chosen so one operation takes
about a second on a 2-core machine, which gives several operations per
run to take a median over.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.engine import (
    JsonlSink,
    SweepSpec,
    get_pipeline,
    run_sweep,
    run_sweep_streaming,
)
from repro.store import TileSink, TileStore

from . import checks

#: Relative on purpose: JSONL rows and store manifests embed the
#: ``case_file`` string, so an absolute path would make output digests
#: differ between two checkouts of the same code.
CASE_FILE = "examples/case_confidence.yaml"

#: Rows per sweep compared with the scalar oracle.
SAMPLED_ROWS = 8

#: ``case_store_sharded``'s shard count (capped at ``nproc``).
SHARDS = 2

#: ``case_delta``'s slices after each write: pinned to one tile, and
#: spanning every tile and column.
PINNED_SLICES = 2
SPANNING_SLICES = 1

#: The two-leg argument's leg parameters (the P6 network).
LEGS = {
    "leg1_validity": 0.9, "leg1_sensitivity": 0.95, "leg1_specificity": 0.9,
    "leg2_validity": 0.88, "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
}


def lattice(rng: random.Random, count: int, low: float, high: float,
            decimals: int, exclude: Sequence[float] = ()) -> List[float]:
    """``count`` distinct sorted values on the ``10**-decimals`` lattice
    in ``[low, high)``, none equal to a value in ``exclude``."""
    scale = 10 ** decimals
    taken = {round(value * scale) for value in exclude}
    picks: set = set()
    while len(picks) < count:
        point = rng.randrange(round(low * scale), round(high * scale))
        if point not in taken:
            picks.add(point)
    return [point / scale for point in sorted(picks)]


def case_spec(p_true: Sequence[float], dependence: Sequence[float]):
    """The P9-shaped whole-case sweep: ``A1.p_true`` x ``S1.dependence``."""
    return SweepSpec(
        pipeline="case_confidence",
        base={"case_file": CASE_FILE},
        grid={"A1.p_true": list(p_true), "S1.dependence": list(dependence)},
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest reaped
    child (shard workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class OpResult:
    """What one timed operation delivered, for checks and metrics."""

    rows: int                      # scenario rows delivered to the user
    operations: int                # user operations inside (sweeps, re-runs, slices)
    rows_executed: int = 0         # rows computed in this process
    output: Any = None             # what check() inspects
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: seeded inputs, setup, timed operation, checks."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.problems: List[str] = []

    def inputs(self) -> Dict[str, Any]:
        """The generated program inputs, JSON-ready."""
        raise NotImplementedError

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def op(self) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> int:
        """Failed operations among ``result``'s; messages go to
        :attr:`problems`."""
        return 0

    def finish(self) -> int:
        """Failed operations found by checks after the timed runs."""
        return 0

    def _fail(self, problems: Sequence[str]) -> int:
        self.problems.extend(problems)
        return 1 if problems else 0

    def _samples(self, spec) -> List[int]:
        n = checks.n_scenarios(spec)
        return sorted(self.rng.sample(range(n), min(n, SAMPLED_ROWS)))


def _warm_case() -> None:
    """Cold compile of the case (load, lower, first kernel call)."""
    run_sweep(case_spec([0.9], [0.1]))


class CaseStream(Workload):
    """The P9-shaped whole-case sweep streamed to JSONL in one process."""

    name = "case_stream"

    def __init__(self, seed: int, workdir: str, p_true: int = 32,
                 dependence: int = 1024):
        super().__init__(seed, workdir)
        self.spec = case_spec(
            lattice(self.rng, p_true, 0.5, 0.999, 4),
            lattice(self.rng, dependence, 0.0, 1.0, 5),
        )
        self.sampled = self._samples(self.spec)
        self.path = os.path.join(workdir, "rows.jsonl")
        self.digest: Optional[str] = None

    def inputs(self) -> Dict[str, Any]:
        return {"sweep": self.spec.to_dict(), "sampled_rows": self.sampled}

    def setup(self) -> None:
        super().setup()
        _warm_case()

    def op(self) -> OpResult:
        sink = JsonlSink(self.path)
        meta = run_sweep_streaming(self.spec, sinks=(sink,))
        return OpResult(rows=meta["rows"], operations=1,
                        rows_executed=meta["rows"],
                        extras={"jsonl_bytes": sink.n_bytes})

    def check(self, result: OpResult) -> int:
        pipeline = get_pipeline(self.spec.pipeline)
        problems = checks.check_jsonl(self.path, pipeline, self.spec,
                                      self.sampled)
        digest = checks.file_digest(self.path)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("JSONL output differs from the first run's")
        return self._fail(problems)


class StochasticKernels(Workload):
    """Seeded ``bbn_query`` (likelihood weighting) and ``sil_from_growth``
    (JM and LV grid fits) sweeps collected in memory by ``run_sweep``."""

    name = "stochastic_kernels"

    def __init__(self, seed: int, workdir: str, bbn=(10, 30), jm=(10, 200),
                 lv=(10, 100)):
        super().__init__(seed, workdir)
        rng = self.rng
        self.specs = [
            SweepSpec(
                pipeline="bbn_query",
                base={**LEGS, "n_samples": 4000},
                grid={"prior": lattice(rng, bbn[0], 0.3, 0.9, 3),
                      "dependence": lattice(rng, bbn[1], 0.0, 0.6, 3)},
                seed=rng.randrange(2**31),
            ),
            SweepSpec(
                pipeline="sil_from_growth",
                base={"model": "jm", "n_observed": 25},
                grid={"per_fault_rate": lattice(rng, jm[0], 0.002, 0.02, 4),
                      "assumption_margin_decades":
                          lattice(rng, jm[1], 0.0, 2.0, 3)},
                seed=rng.randrange(2**31),
            ),
            SweepSpec(
                pipeline="sil_from_growth",
                base={"model": "lv", "n_observed": 25},
                grid={"lv_alpha": lattice(rng, lv[0], 2.0, 5.0, 2),
                      "assumption_margin_decades":
                          lattice(rng, lv[1], 0.0, 2.0, 3)},
                seed=rng.randrange(2**31),
            ),
        ]
        self.sampled = [self._samples(spec) for spec in self.specs]
        self.digests: List[Optional[str]] = [None] * len(self.specs)

    def inputs(self) -> Dict[str, Any]:
        return {"sweeps": [spec.to_dict() for spec in self.specs],
                "sampled_rows": self.sampled}

    def setup(self) -> None:
        super().setup()
        for spec in self.specs:
            run_sweep(SweepSpec(
                pipeline=spec.pipeline, base=spec.base,
                grid={name: values[:1] for name, values in spec.grid.items()},
                seed=spec.seed,
            ))

    def op(self) -> OpResult:
        results = [run_sweep(spec) for spec in self.specs]
        rows = sum(len(result) for result in results)
        return OpResult(rows=rows, operations=len(results),
                        rows_executed=rows, output=results)

    def check(self, result: OpResult) -> int:
        failed = 0
        for position, (spec, rows) in enumerate(
            zip(self.specs, result.output)
        ):
            # Seeded likelihood weighting must match the scalar sampler
            # bit for bit; the growth fits to the oracle tolerance.
            problems = checks.check_result_set(
                rows, get_pipeline(spec.pipeline), spec,
                self.sampled[position], exact=spec.pipeline == "bbn_query",
            )
            digest = checks.rows_digest(rows)
            if self.digests[position] is None:
                self.digests[position] = digest
            elif digest != self.digests[position]:
                problems.append(f"{spec.pipeline} rows differ from the "
                                f"first run's")
            failed += self._fail(problems)
        return failed


class CaseStoreSharded(Workload):
    """The ``case_stream`` sweep shape materialised into a tile store by
    two shard worker processes (never more than ``nproc``)."""

    name = "case_store_sharded"

    def __init__(self, seed: int, workdir: str, p_true: int = 48,
                 dependence: int = 1024):
        super().__init__(seed, workdir)
        self.spec = case_spec(
            lattice(self.rng, p_true, 0.5, 0.999, 4),
            lattice(self.rng, dependence, 0.0, 1.0, 5),
        )
        self.tile_scenarios = dependence
        self.shards = max(1, min(SHARDS, os.cpu_count() or 1))
        self.cells = [
            {name: params[name] for name in self.spec.grid}
            for params in (checks.scenario_params(self.spec, index)
                           for index in self._samples(self.spec))
        ]
        self.runs = 0
        self.digests: List[str] = []

    def inputs(self) -> Dict[str, Any]:
        return {"sweep": self.spec.to_dict(), "shards": self.shards,
                "tile_scenarios": self.tile_scenarios}

    def setup(self) -> None:
        super().setup()
        _warm_case()

    def _store_path(self, run: int) -> str:
        return os.path.join(self.workdir, f"store-{run}")

    def op(self) -> OpResult:
        path = self._store_path(self.runs)
        self.runs += 1
        sink = TileSink(path, tile_scenarios=self.tile_scenarios)
        cpu_before = children_cpu_s()
        meta = run_sweep_streaming(self.spec, sinks=(sink,),
                                   shards=self.shards)
        cpu = children_cpu_s() - cpu_before
        return OpResult(
            rows=meta["rows"], operations=1, output=path,
            extras={
                "worker_cpu_s": cpu,
                "worker_chunks": meta["n_chunks"],
                "retries": meta.get("retries", 0),
                "tile_bytes_per_row":
                    sink.writer.bytes_written / max(1, meta["rows"]),
            },
        )

    def check(self, result: OpResult) -> int:
        # Compared with a single-process store in finish(); only the
        # digest is kept so the store itself can go.
        self.digests.append(checks.store_digest(result.output))
        shutil.rmtree(result.output, ignore_errors=True)
        return 0

    def finish(self) -> int:
        reference = os.path.join(self.workdir, "reference")
        run_sweep_streaming(
            self.spec,
            sinks=(TileSink(reference, tile_scenarios=self.tile_scenarios),),
        )
        want = checks.store_digest(reference)
        failed = sum(1 for digest in self.digests if digest != want)
        if failed:
            self.problems.append(
                f"{failed} sharded store(s) differ from the single-process "
                f"store"
            )
        store = TileStore.open(reference)
        values = [
            {name: float(array)
             for name, array in store.slice(**cell).data.items()}
            for cell in self.cells
        ]
        failed += self._fail(checks.check_cells(
            get_pipeline(self.spec.pipeline), self.spec, self.cells, values,
        ))
        return failed


class CaseDelta(Workload):
    """An edit-and-query session against a materialised tile store.

    One operation is a session: ``edits`` single-value ``A1.p_true``
    edits (each followed by a ``delta=True`` re-run), one rotation of the
    axis (every tile moves), one no-op re-run, and after every write a
    round of ``TileStore.open`` + ``slice`` queries — some pinned to one
    tile, some spanning every tile and column (more blobs than the
    reader's 256-entry cache holds).  Edit values are drawn off the
    current axis: a value already on it would turn the edit's execute
    into a move.
    """

    name = "case_delta"

    def __init__(self, seed: int, workdir: str, p_true: int = 100,
                 dependence: int = 512, edits: int = 3):
        super().__init__(seed, workdir)
        self.spec = case_spec(
            lattice(self.rng, p_true, 0.5, 0.999, 4),
            lattice(self.rng, dependence, 0.0, 1.0, 5),
        )
        self.tile_scenarios = dependence
        self.edits = edits
        self.session_rng = random.Random(f"{self.name}:{self.seed}:session")
        self.store = os.path.join(workdir, "store")
        self.tile_bytes_per_row = 0.0

    def inputs(self) -> Dict[str, Any]:
        return {"sweep": self.spec.to_dict(),
                "tile_scenarios": self.tile_scenarios,
                "session": {"edits": self.edits, "pinned": PINNED_SLICES,
                            "spanning": SPANNING_SLICES}}

    def setup(self) -> None:
        super().setup()
        _warm_case()
        sink = TileSink(self.store, tile_scenarios=self.tile_scenarios)
        meta = run_sweep_streaming(self.spec, sinks=(sink,))
        self.tile_bytes_per_row = sink.writer.bytes_written / meta["rows"]

    def _edited(self, kind: str):
        """(edited value or None, tiles the edit changes, expected
        (executed, skipped, moved) tile counts, the new ``A1.p_true``)."""
        p_true = list(self.spec.grid["A1.p_true"])
        n = len(p_true)
        if kind == "edit":
            position = self.session_rng.randrange(n)
            value = lattice(self.session_rng, 1, 0.5, 0.999, 5,
                            exclude=p_true)[0]
            p_true[position] = value
            return value, 1, (1, n - 1, 0), p_true
        if kind == "shift":
            return None, 0, (0, 0, n), p_true[1:] + p_true[:1]
        return None, 0, (0, n, 0), p_true

    def _pins(self, edited: Optional[float]) -> List[Dict[str, float]]:
        rng = self.session_rng
        p_true = self.spec.grid["A1.p_true"]
        dependence = self.spec.grid["S1.dependence"]
        pins = [{"A1.p_true": edited if edited is not None
                 else rng.choice(p_true)}]
        pins += [{"A1.p_true": rng.choice(p_true)}
                 for _ in range(PINNED_SLICES - 1)]
        pins += [{"S1.dependence": rng.choice(dependence)}
                 for _ in range(SPANNING_SLICES)]
        return pins

    def op(self) -> OpResult:
        clock = time.perf_counter
        deltas: List[float] = []
        rounds: List[float] = []
        records = []
        slices = []
        for kind in ("edit",) * self.edits + ("shift", "noop"):
            edited, changed, expected, p_true = self._edited(kind)
            self.spec = case_spec(p_true, self.spec.grid["S1.dependence"])
            start = clock()
            meta = run_sweep_streaming(
                self.spec,
                sinks=(TileSink(self.store,
                                tile_scenarios=self.tile_scenarios),),
                delta=True,
            )
            deltas.append(clock() - start)
            records.append((kind, changed, expected, meta))
            pins = self._pins(edited)
            start = clock()
            for pin in pins:
                slices.append((self.spec, pin,
                               TileStore.open(self.store).slice(**pin)))
            rounds.append((clock() - start) / len(pins))
        extras = {
            key: sum(meta[key] for _k, _c, _e, meta in records)
            for key in ("tiles_executed", "tiles_skipped", "tiles_moved")
        }
        extras["delta_ops"] = len(records)
        extras["tiles_changed"] = sum(c for _k, c, _e, _m in records)
        return OpResult(
            rows=checks.n_scenarios(self.spec) * len(records),
            operations=len(records) + len(slices),
            rows_executed=sum(meta["rows_executed"]
                              for _k, _c, _e, meta in records),
            output=(records, slices),
            latencies={"delta": deltas, "slice_round": rounds},
            extras=extras,
        )

    def check(self, result: OpResult) -> int:
        records, slices = result.output
        failed = 0
        for kind, _changed, expected, meta in records:
            got = (meta["tiles_executed"], meta["tiles_skipped"],
                   meta["tiles_moved"])
            problems = []
            if got != expected:
                problems.append(f"{kind}: tiles (executed, skipped, moved) "
                                f"{got}, expected {expected}")
            if meta["rows"] != checks.n_scenarios(self.spec):
                problems.append(f"{kind}: {meta['rows']} rows")
            failed += self._fail(problems)
        pipeline = get_pipeline(self.spec.pipeline)
        for spec, pin, sliced in slices:
            (free, values), = sliced.axes
            cells, got = [], []
            for position in sorted(self.rng.sample(range(len(values)), 2)):
                cells.append({**pin, free: values[position]})
                got.append({name: float(array[position])
                            for name, array in sliced.data.items()})
            failed += self._fail(checks.check_cells(pipeline, spec, cells,
                                                    got))
        return failed

    def finish(self) -> int:
        scratch = os.path.join(self.workdir, "scratch")
        run_sweep_streaming(
            self.spec,
            sinks=(TileSink(scratch, tile_scenarios=self.tile_scenarios),),
        )
        if checks.store_digest(scratch) != checks.store_digest(self.store):
            return self._fail(["store after the delta sessions differs "
                               "from a from-scratch store of the final "
                               "spec"])
        return 0


WORKLOADS = {
    cls.name: cls
    for cls in (CaseStream, StochasticKernels, CaseStoreSharded, CaseDelta)
}
