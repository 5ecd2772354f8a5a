"""P1-P13 — performance benches for the library's compute kernels.

Not paper artefacts: these time the engines the experiments lean on
(quadrature moments, grid Bayesian updates, exact BBN inference, panel
simulation, the batched sweep engine, compiled BBN inference, the
batched growth-model likelihood grids, the compiled whole-case engine,
the streaming executor at million-scenario scale, the cost of the
disabled telemetry instrumentation, the below-the-call-boundary
optimisations — contraction-path search and fused case kernels — the
sharded multi-process coordinator, and the tiled result store with
content-addressed delta-sweeps that also finish killed runs) so
performance regressions are visible.
"""

import hashlib
import itertools
import json
import os
import pathlib
import resource
import sys
import time
from unittest import mock

import numpy as np

from repro.arguments import (
    ArgumentGraph,
    ArgumentLeg,
    CompiledCase,
    Goal,
    LognormalClaim,
    NoisySupport,
    QuantifiedCase,
    Solution,
    build_two_leg_network,
    two_leg_posterior,
)
from repro.bbn import (
    BayesianNetwork,
    CPT,
    CompiledNetwork,
    Variable,
    compile_network,
    enumerate_query,
    likelihood_weighting,
)
from repro.bbn.inference import _LoopVariableElimination
from repro.bbn.paths import min_degree_order
from repro.bbn.sampling import _likelihood_weighting_loop
from repro.distributions import LogNormalJudgement
from repro.engine import (
    JsonlSink,
    SweepSpec,
    get_pipeline,
    lower,
    run_sweep,
    run_sweep_streaming,
)
from repro.experiment import run_panel
from repro.update import DemandEvidence, survival_update


def test_perf_quadrature_moments(benchmark):
    """P1: generic quadrature mean of a truncated judgement."""
    from repro.distributions import TruncatedJudgement

    dist = TruncatedJudgement(
        LogNormalJudgement.from_mean_mode(0.01, 0.003), upper=1.0
    )
    result = benchmark(dist.mean)
    assert 0.0 < result < 0.02


def test_perf_grid_posterior_update(benchmark):
    """P2: survival update on the default 400-points-per-decade grid."""
    prior = LogNormalJudgement.from_mean_mode(0.01, 0.003)
    evidence = DemandEvidence(demands=1000)

    posterior = benchmark(lambda: survival_update(prior, evidence))
    assert posterior.mean() < prior.mean()


def test_perf_bbn_two_leg_inference(benchmark):
    """P3: exact variable-elimination query on the two-leg network."""
    testing = ArgumentLeg("testing", 0.9, 0.95, 0.9)
    analysis = ArgumentLeg("analysis", 0.88, 0.9, 0.85)

    result = benchmark(
        lambda: two_leg_posterior(0.6, testing, analysis, dependence=0.3)
    )
    assert result.both_legs > result.single_leg


def test_perf_panel_simulation(benchmark):
    """P4: the full four-phase 12-expert panel with pooling."""
    result = benchmark(lambda: run_panel(seed=2007))
    assert result.n_experts == 12


def test_perf_sweep_engine_1k_scenarios(benchmark, record_stage_timings):
    """P5: a 1,000-scenario survival-update sweep through repro.engine.

    The vectorised backend must (a) reproduce the naive scalar loop to
    1e-12 and (b) beat it by at least 5x wall clock.
    """
    sweep = SweepSpec(
        pipeline="survival_update",
        base={"mode": 0.003, "bound": 1e-2, "points_per_decade": 40},
        grid={
            "sigma": [0.6, 0.75, 0.9, 1.05, 1.2, 1.35, 1.5, 1.65, 1.8, 1.95],
            "demands": [int(round(10 ** (0.04 * i))) for i in range(100)],
        },
    )
    scenarios = sweep.expand()
    assert len(scenarios) == 1000

    pipeline = get_pipeline("survival_update")
    run_sweep(sweep, backend="vectorized")  # warm both code paths once

    # Naive baseline: the scalar pipeline in a Python loop, timed once.
    start = time.perf_counter()
    naive = [pipeline.run(dict(s.params), s.seed) for s in scenarios]
    naive_elapsed = time.perf_counter() - start

    # Vectorised engine, timed the same way for the speedup assertion
    # (the benchmark fixture separately records rounds); best of three to
    # keep the ratio stable on noisy CI runners.
    vectorized_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        vectorized = run_sweep(sweep, backend="vectorized")
        vectorized_elapsed = min(vectorized_elapsed,
                                 time.perf_counter() - start)

    for scalar_values, result in zip(naive, vectorized):
        for column, value in scalar_values.items():
            assert abs(result.values[column] - value) <= 1e-12

    speedup = naive_elapsed / vectorized_elapsed
    assert speedup >= 5.0, (
        f"vectorised sweep only {speedup:.1f}x faster "
        f"({vectorized_elapsed:.3f}s vs naive {naive_elapsed:.3f}s)"
    )

    result_set = benchmark(lambda: run_sweep(sweep, backend="vectorized"))
    assert len(result_set) == 1000
    record_stage_timings(result_set.meta)


def test_perf_compiled_bbn_inference(benchmark):
    """P6: compiled BBN inference vs the pre-compilation Python engines.

    On the paper's two-leg argument network the compiled layer must beat
    the retired implementations by >=20x on 10k-sample likelihood
    weighting and >=3x on a batch of 100 repeated VE queries, while
    matching enumeration to 1e-12 (VE) and the loop sampler bit-for-bit
    under a shared seed (LW).
    """
    testing = ArgumentLeg("testing", 0.9, 0.95, 0.9)
    analysis = ArgumentLeg("analysis", 0.88, 0.9, 0.85)
    network = build_two_leg_network(0.6, testing, analysis, dependence=0.3)
    evidence = {"evidence_leg1": "true", "evidence_leg2": "true"}

    # Warm both paths (and the compile cache) once.
    loop_engine = _LoopVariableElimination(network)
    loop_engine.query("claim", evidence)
    compile_network(network).query("claim", evidence)

    # --- Variable elimination: 100 repeated queries.
    start = time.perf_counter()
    for _ in range(100):
        loop_engine.query("claim", evidence)
    loop_ve_elapsed = time.perf_counter() - start

    compiled_ve_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(100):
            # Includes the content-hash cache lookup, as sweep code pays it.
            compile_network(network).query("claim", evidence)
        compiled_ve_elapsed = min(compiled_ve_elapsed,
                                  time.perf_counter() - start)

    ve_speedup = loop_ve_elapsed / compiled_ve_elapsed
    assert ve_speedup >= 3.0, (
        f"compiled VE only {ve_speedup:.1f}x faster "
        f"({compiled_ve_elapsed:.3f}s vs loop {loop_ve_elapsed:.3f}s)"
    )

    posterior = compile_network(network).query("claim", evidence)
    oracle = enumerate_query(network, "claim", evidence)
    for state in ("true", "false"):
        assert abs(posterior[state] - oracle[state]) <= 1e-12

    # --- Likelihood weighting: 10k samples.
    start = time.perf_counter()
    loop_lw = _likelihood_weighting_loop(
        network, "claim", evidence, n_samples=10_000,
        rng=np.random.default_rng(2007),
    )
    loop_lw_elapsed = time.perf_counter() - start

    vectorized_lw_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        vectorized_lw = likelihood_weighting(
            network, "claim", evidence, n_samples=10_000,
            rng=np.random.default_rng(2007),
        )
        vectorized_lw_elapsed = min(vectorized_lw_elapsed,
                                    time.perf_counter() - start)

    assert vectorized_lw == loop_lw  # bit-for-bit under the shared seed
    lw_speedup = loop_lw_elapsed / vectorized_lw_elapsed
    assert lw_speedup >= 20.0, (
        f"vectorized LW only {lw_speedup:.1f}x faster "
        f"({vectorized_lw_elapsed:.3f}s vs loop {loop_lw_elapsed:.3f}s)"
    )

    result = benchmark(lambda: likelihood_weighting(
        network, "claim", evidence, n_samples=10_000,
        rng=np.random.default_rng(2007),
    ))
    assert result["true"] > 0.9


def test_perf_growth_model_sweep_1k_scenarios(benchmark):
    """P7: a 1,000-scenario growth-model SIL sweep through repro.engine.

    The batched Jelinski-Moranda likelihood-grid kernel must (a)
    reproduce the scalar per-item loop to 1e-12 on every column and (b)
    beat it by at least 5x wall clock.
    """
    sweep = SweepSpec(
        pipeline="sil_from_growth",
        base={"model": "jm", "n_observed": 25},
        grid={
            "per_fault_rate": [0.002 * k for k in range(1, 11)],
            "assumption_margin_decades": [
                round(0.01 * i, 2) for i in range(100)
            ],
        },
        seed=2007,
    )
    scenarios = sweep.expand()
    assert len(scenarios) == 1000

    pipeline = get_pipeline("sil_from_growth")
    run_sweep(sweep, backend="vectorized")  # warm both code paths once

    # Naive baseline: the scalar pipeline in a Python loop, timed once.
    start = time.perf_counter()
    naive = [pipeline.run(dict(s.params), s.seed) for s in scenarios]
    naive_elapsed = time.perf_counter() - start

    # Vectorised engine, best of three for a stable ratio on noisy CI.
    vectorized_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        vectorized = run_sweep(sweep, backend="vectorized")
        vectorized_elapsed = min(vectorized_elapsed,
                                 time.perf_counter() - start)

    for scalar_values, result in zip(naive, vectorized):
        for column, value in scalar_values.items():
            batched = result.values[column]
            if isinstance(value, float):
                assert abs(batched - value) <= 1e-12, (column, value, batched)
            else:
                assert batched == value, (column, value, batched)

    speedup = naive_elapsed / vectorized_elapsed
    assert speedup >= 5.0, (
        f"vectorised growth sweep only {speedup:.1f}x faster "
        f"({vectorized_elapsed:.3f}s vs naive {naive_elapsed:.3f}s)"
    )

    result_set = benchmark(lambda: run_sweep(sweep, backend="vectorized"))
    assert len(result_set) == 1000


def test_perf_streaming_million_scenario_case_sweep(
    benchmark, tmp_path, record_stage_timings
):
    """P9: a 1,000,000-scenario whole-case sweep through the streaming
    executor.

    The streaming executor must (a) complete the full million through a
    JSONL sink, (b) beat the scalar per-scenario loop by >=5x
    (per-scenario baseline measured on a 1k sample — the loop itself
    would take ~20 minutes at 1M), (c) keep peak RSS bounded — constant
    in the scenario count, far below what materialising a million
    ScenarioResult rows needs — and (d) reproduce ``run_sweep`` exactly
    on a spot-checked window.
    """
    case_file = str(
        pathlib.Path(__file__).resolve().parents[1]
        / "examples" / "case_confidence.yaml"
    )
    sweep = SweepSpec(
        pipeline="case_confidence",
        base={"case_file": case_file},
        grid={
            "A1.p_true": [round(0.5 + 0.005 * i, 3) for i in range(100)],
            "S1.dependence": [round(0.0001 * i, 5) for i in range(10000)],
        },
    )
    assert sweep.n_scenarios() == 1_000_000

    # Scalar baseline: the recursive per-scenario oracle on a 1k sample.
    pipeline = get_pipeline("case_confidence")
    sample_plan = lower(sweep, chunk_size=1000)
    sample = sample_plan.batch(sample_plan.chunk(0)).specs()
    run_sweep(sample[:10], backend="serial")  # warm caches once
    start = time.perf_counter()
    for scenario in sample:
        pipeline.run(dict(scenario.params), scenario.seed)
    scalar_per_scenario = (time.perf_counter() - start) / len(sample)

    out_path = tmp_path / "million.jsonl"
    start = time.perf_counter()
    meta = run_sweep_streaming(
        sweep, sinks=(JsonlSink(str(out_path)),), chunk_size=16384
    )
    elapsed = time.perf_counter() - start
    assert meta["rows"] == 1_000_000
    record_stage_timings(meta)
    streamed_per_scenario = elapsed / meta["rows"]

    speedup = scalar_per_scenario / streamed_per_scenario
    assert speedup >= 5.0, (
        f"streaming executor only {speedup:.1f}x faster per scenario "
        f"({streamed_per_scenario * 1e6:.1f}us vs scalar "
        f"{scalar_per_scenario * 1e6:.1f}us)"
    )

    # Peak RSS stays bounded: the streaming run holds chunks, not the
    # sweep (a materialised million-row ResultSet needs several GB).
    # ru_maxrss is KiB on Linux but bytes on macOS.
    raw_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb = raw_maxrss / (
        1024 * 1024 if sys.platform == "darwin" else 1024
    )
    assert peak_rss_mb < 1024, f"peak RSS {peak_rss_mb:.0f} MB"

    # Spot check: the first 200 streamed rows equal run_sweep exactly.
    with open(out_path) as handle:
        head = [json.loads(next(handle)) for _ in range(200)]
    window = run_sweep(sample[:200], backend="vectorized")
    for row, result in zip(head, window):
        for column, value in result.values.items():
            assert abs(row[column] - value) <= 1e-12, (column,)

    # Timing fixture rounds run at 100k scenarios to keep the nightly
    # tractable; the 1M gate above runs exactly once.
    rounds_sweep = SweepSpec(
        pipeline="case_confidence",
        base={"case_file": case_file},
        grid={
            "A1.p_true": [round(0.5 + 0.005 * i, 3) for i in range(100)],
            "S1.dependence": [round(0.001 * i, 4) for i in range(1000)],
        },
    )
    rounds_meta = benchmark(lambda: run_sweep_streaming(
        rounds_sweep,
        sinks=(JsonlSink(str(tmp_path / "rounds.jsonl")),),
        chunk_size=16384,
    ))
    assert rounds_meta["rows"] == 100_000


def test_perf_telemetry_disabled_overhead(benchmark):
    """P10: disabled telemetry must cost <=2% of the P5 sweep.

    Machine-relative, so it holds on any runner: count the spans one P5
    sweep emits (via a scoped capture), measure the unit cost of a no-op
    span and a disabled counter update in tight loops, and require the
    implied per-sweep instrumentation cost to stay within 2% of the
    sweep's measured wall time.
    """
    from repro.telemetry import capture_trace, metrics, tracer

    sweep = SweepSpec(
        pipeline="survival_update",
        base={"mode": 0.003, "bound": 1e-2, "points_per_decade": 40},
        grid={
            "sigma": [0.6, 0.75, 0.9, 1.05, 1.2, 1.35, 1.5, 1.65, 1.8, 1.95],
            "demands": [int(round(10 ** (0.04 * i))) for i in range(100)],
        },
    )
    run_sweep(sweep, backend="vectorized")  # warm caches and code paths

    with capture_trace() as trace:
        run_sweep(sweep, backend="vectorized")
    n_spans = len(trace) + trace.dropped
    assert n_spans > 0  # the sweep is instrumented

    assert not tracer.enabled and not metrics.enabled

    # Unit cost of one disabled span (attribute lookup + empty with).
    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        with tracer.span("overhead.probe"):
            pass
    span_unit = (time.perf_counter() - start) / reps

    # Unit cost of one disabled counter update.
    probe = metrics.counter("overhead.probe")
    start = time.perf_counter()
    for _ in range(reps):
        probe.add(1)
    counter_unit = (time.perf_counter() - start) / reps

    sweep_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run_sweep(sweep, backend="vectorized")
        sweep_elapsed = min(sweep_elapsed, time.perf_counter() - start)

    # Metric updates fire at most a handful of times per span site;
    # 4x the span count is a generous over-estimate of their number.
    overhead = n_spans * span_unit + 4 * n_spans * counter_unit
    assert overhead <= 0.02 * sweep_elapsed, (
        f"disabled telemetry implies {overhead * 1e6:.1f}us over "
        f"{n_spans} spans, >2% of the {sweep_elapsed * 1e3:.1f}ms sweep"
    )

    benchmark(lambda: run_sweep(sweep, backend="vectorized"))


def test_perf_compiled_case_sweep_1k_scenarios(benchmark):
    """P8: a 1,000-scenario whole-case sweep through CompiledCase.

    The compiled case engine must (a) reproduce the per-scenario
    recursive oracle (per-node recursion, exact VE for the two-leg BBN
    fragment) to 1e-12 on every column and (b) beat a loop over it by at
    least 5x wall clock.
    """
    case_file = str(
        pathlib.Path(__file__).resolve().parents[1]
        / "examples" / "case_confidence.yaml"
    )
    sweep = SweepSpec(
        pipeline="case_confidence",
        base={"case_file": case_file},
        grid={
            "A1.p_true": [round(0.5 + 0.05 * i, 2) for i in range(10)],
            "S1.dependence": [round(0.01 * i, 2) for i in range(100)],
        },
    )
    scenarios = sweep.expand()
    assert len(scenarios) == 1000

    pipeline = get_pipeline("case_confidence")
    run_sweep(sweep, backend="vectorized")  # warm both code paths once

    # Naive baseline: the recursive oracle in a Python loop, timed once.
    start = time.perf_counter()
    naive = [pipeline.run(dict(s.params), s.seed) for s in scenarios]
    naive_elapsed = time.perf_counter() - start

    # Compiled case engine, best of three for a stable ratio on noisy CI.
    vectorized_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        vectorized = run_sweep(sweep, backend="vectorized")
        vectorized_elapsed = min(vectorized_elapsed,
                                 time.perf_counter() - start)

    for scalar_values, result in zip(naive, vectorized):
        for column, value in scalar_values.items():
            assert abs(result.values[column] - value) <= 1e-12, (
                column, value, result.values[column]
            )

    speedup = naive_elapsed / vectorized_elapsed
    assert speedup >= 5.0, (
        f"compiled case sweep only {speedup:.1f}x faster "
        f"({vectorized_elapsed:.3f}s vs recursive {naive_elapsed:.3f}s)"
    )

    result_set = benchmark(lambda: run_sweep(sweep, backend="vectorized"))
    assert len(result_set) == 1000


def _wide_random_network(seed):
    """A wide mixed-cardinality random DAG (22 vars, cards 2-6)."""
    rng = np.random.default_rng(seed)
    variables = []
    net = BayesianNetwork()
    for i in range(22):
        card = int(rng.integers(2, 7))
        var = Variable(f"X{i}", tuple(f"s{k}" for k in range(card)))
        n_parents = int(rng.integers(0, min(i, 3) + 1))
        parent_idx = (
            sorted(rng.choice(i, size=n_parents, replace=False).tolist())
            if n_parents else []
        )
        parents = [variables[j] for j in parent_idx]
        table = {}
        for combo in itertools.product(*(p.states for p in parents)):
            raw = rng.uniform(0.05, 1.0, size=card)
            table[combo] = (raw / raw.sum()).tolist()
        net.add(CPT(var, parents, table))
        variables.append(var)
    return net


def _wide_synthetic_case():
    """A fusion-friendly case: 12 NoisySupport goals x 6 claims each."""
    graph = ArgumentGraph()
    quantifications = {}
    graph.add_node(Goal("G0", "top claim", claim_bound=1e-3))
    quantifications["G0"] = NoisySupport(weight=0.9)
    for g in range(12):
        goal = f"G{g + 1}"
        graph.add_node(Goal(goal, "subclaim"))
        graph.add_support("G0", goal)
        quantifications[goal] = NoisySupport(weight=0.85)
        for s in range(6):
            leaf = f"Sn{g}_{s}"
            graph.add_node(Solution(leaf, "evidence"))
            graph.add_support(goal, leaf)
            quantifications[leaf] = LognormalClaim(
                mode=0.003 + 0.0001 * s, sigma=0.9, bound=0.01,
            )
    return QuantifiedCase(graph, quantifications)


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_perf_path_search_and_fused_case(benchmark):
    """P11: the below-the-call-boundary optimisations hold their floors.

    (a) Path-searched elimination orders must beat explicit min-degree
    orders by >=1.5x aggregate wall clock on a fixed batch of wide
    mixed-cardinality random networks, timed through 512-scenario
    ``query_batch`` calls (and agree to 1e-12).  (b) Fused level-batched
    case evaluation must beat the per-node dispatch loop by >=1.3x on a
    wide synthetic case at 500 scenarios (and stay bit-identical); a
    zero fusion element cap forces the per-node loop.
    """
    # --- (a) contraction-path search vs min-degree, batched VE.
    networks = []
    for seed in range(16):
        compiled = CompiledNetwork(_wide_random_network(seed))
        names = compiled.variable_names
        target = names[-1]
        hidden = [i for i, name in enumerate(names) if name != target]
        scopes = [
            tuple(compiled._parents[i]) + (i,) for i in range(len(names))
        ]
        degree_names = [
            names[i] for i in min_degree_order(hidden, scopes)
        ]
        root = names[0]
        card = int(compiled._cards[0])
        raw = np.random.default_rng(1000 + seed).uniform(
            0.05, 1.0, size=(512, card)
        )
        plane = {root: raw / raw.sum(axis=1, keepdims=True)}
        searched = compiled.query_batch(target, cpt_planes=plane)
        degree = compiled.query_batch(
            target, cpt_planes=plane, order=degree_names
        )
        assert np.max(np.abs(searched - degree)) <= 1e-12, seed
        networks.append((compiled, target, plane, degree_names))

    searched_elapsed = _best_of(3, lambda: [
        compiled.query_batch(target, cpt_planes=plane)
        for compiled, target, plane, _ in networks
    ])
    degree_elapsed = _best_of(3, lambda: [
        compiled.query_batch(target, cpt_planes=plane, order=order)
        for compiled, target, plane, order in networks
    ])
    path_speedup = degree_elapsed / searched_elapsed
    assert path_speedup >= 1.5, (
        f"path-searched VE only {path_speedup:.2f}x over min-degree "
        f"({searched_elapsed:.3f}s vs {degree_elapsed:.3f}s aggregate)"
    )

    # --- (b) fused level-batched case evaluation vs per-node dispatch.
    compiled_case = CompiledCase(_wide_synthetic_case())
    fused = compiled_case.evaluate_sweep(n_scenarios=500)
    with mock.patch("repro.arguments.compiled._FUSE_ELEMENT_CAP", 0):
        loop = compiled_case.evaluate_sweep(n_scenarios=500)
        loop_elapsed = _best_of(5, lambda: compiled_case.evaluate_sweep(
            n_scenarios=500,
        ))
    for identifier in fused:
        assert np.array_equal(fused[identifier], loop[identifier]), (
            identifier
        )
    fused_elapsed = _best_of(5, lambda: compiled_case.evaluate_sweep(
        n_scenarios=500,
    ))
    fused_speedup = loop_elapsed / fused_elapsed
    assert fused_speedup >= 1.3, (
        f"fused case evaluation only {fused_speedup:.2f}x over per-node "
        f"({fused_elapsed * 1e3:.2f}ms vs {loop_elapsed * 1e3:.2f}ms)"
    )

    # Timing rounds: the headline tentpole — path-searched batched VE
    # across the whole network batch.
    benchmark(lambda: [
        compiled.query_batch(target, cpt_planes=plane)
        for compiled, target, plane, _ in networks
    ])


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def test_perf_sharded_sweep_coordinator(
    benchmark, tmp_path, record_stage_timings
):
    """P12: the multi-process coordinator at million-scenario scale.

    (a) A 4-shard run of the P9-shaped 1,000,000-scenario case sweep
    must write a JSONL file *bit-identical* to the single-process
    stream — distribution is pure coordination, never a numerics
    change.  (b) With >=4 CPUs available it must beat the
    single-process stream by >=2.5x wall clock (skipped on smaller
    runners, where the four workers just timeshare one core).  (c) A
    4-shard tile store run killed after 60 of its 100 tiles must be
    finished by ``delta=True``, which skips exactly the 60 committed
    tiles and executes the other 40, into a store byte-identical to an
    uninterrupted 4-shard store.
    """
    case_file = str(
        pathlib.Path(__file__).resolve().parents[1]
        / "examples" / "case_confidence.yaml"
    )
    sweep = SweepSpec(
        pipeline="case_confidence",
        base={"case_file": case_file},
        grid={
            "A1.p_true": [round(0.5 + 0.005 * i, 3) for i in range(100)],
            "S1.dependence": [round(0.0001 * i, 5) for i in range(10000)],
        },
    )
    assert sweep.n_scenarios() == 1_000_000

    # --- (a) bit-identical distribution, timed both ways.
    single_path = tmp_path / "single.jsonl"
    start = time.perf_counter()
    single_meta = run_sweep_streaming(
        sweep, sinks=(JsonlSink(str(single_path)),), chunk_size=16384
    )
    single_elapsed = time.perf_counter() - start
    assert single_meta["rows"] == 1_000_000
    single_hash = _sha256(single_path)

    sharded_path = tmp_path / "sharded.jsonl"
    start = time.perf_counter()
    sharded_meta = run_sweep_streaming(
        sweep, shards=4, chunk_size=16384,
        sinks=(JsonlSink(str(sharded_path)),),
    )
    sharded_elapsed = time.perf_counter() - start
    record_stage_timings(sharded_meta)
    assert sharded_meta["rows"] == 1_000_000
    assert sharded_meta["retries"] == 0
    assert _sha256(sharded_path) == single_hash, (
        "4-shard output differs from the single-process stream"
    )

    # --- (b) the speedup floor, where there are cores to win on.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if cpus >= 4:
        speedup = single_elapsed / sharded_elapsed
        assert speedup >= 2.5, (
            f"4-shard run only {speedup:.2f}x over single-process "
            f"({sharded_elapsed:.1f}s vs {single_elapsed:.1f}s) "
            f"on {cpus} CPUs"
        )

    # --- (c) kill a sharded store run mid-stream, finish it by delta.
    from repro.store import TileSink, TileWriter

    def store_sink(path):
        return TileSink(str(path), tile_scenarios=16384)  # 100 tiles

    killed_at = 60
    committed = []
    write_tile = TileWriter.write_tile

    def dying_write_tile(self, *args, **kwargs):
        if len(committed) == killed_at:
            raise RuntimeError("killed mid-run")
        committed.append(write_tile(self, *args, **kwargs))
        return committed[-1]

    killed_path = tmp_path / "killed_store"
    with mock.patch.object(TileWriter, "write_tile", dying_write_tile):
        try:
            run_sweep_streaming(
                sweep, shards=4, chunk_size=16384,
                sinks=(store_sink(killed_path),),
            )
        except RuntimeError:
            pass
        else:
            raise AssertionError("the sharded store run was not killed")
    assert not (killed_path / "manifest.json").exists()

    delta_meta = run_sweep_streaming(
        sweep, chunk_size=16384, sinks=(store_sink(killed_path),),
        delta=True,
    )
    assert delta_meta["tiles_total"] == 100
    assert delta_meta["tiles_skipped"] == killed_at, (
        "delta did not skip exactly the committed tiles"
    )
    assert delta_meta["tiles_executed"] == 100 - killed_at
    whole_path = tmp_path / "whole_store"
    run_sweep_streaming(
        sweep, shards=4, chunk_size=16384, sinks=(store_sink(whole_path),),
    )
    assert _store_digest(killed_path) == _store_digest(whole_path), (
        "killed + delta store differs from an uninterrupted run"
    )

    # Timing fixture rounds at 100k scenarios, as for P9.
    rounds_sweep = SweepSpec(
        pipeline="case_confidence",
        base={"case_file": case_file},
        grid={
            "A1.p_true": [round(0.5 + 0.005 * i, 3) for i in range(100)],
            "S1.dependence": [round(0.001 * i, 4) for i in range(1000)],
        },
    )
    rounds_meta = benchmark(lambda: run_sweep_streaming(
        rounds_sweep, shards=4, chunk_size=16384,
        sinks=(JsonlSink(str(tmp_path / "rounds.jsonl")),),
    ))
    assert rounds_meta["rows"] == 100_000


def _store_digest(path) -> str:
    """One hash over every file in a tile store, path-ordered."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
    return digest.hexdigest()


def test_perf_tile_store_delta_sweep(
    benchmark, tmp_path, record_stage_timings
):
    """P13: the tile store and delta execution at million-scenario scale.

    After editing one ``A1.p_true`` value of the P9-shaped
    1,000,000-scenario case sweep, a ``delta=True`` re-run against the
    existing store must (a) execute exactly the one changed tile and
    skip the other 99 — verified through the ``store.tiles_*``
    telemetry counters, not just the run's own meta — (b) beat a
    from-scratch run of the edited sweep by >=5x wall clock, (c) leave
    the store bit-identical to the from-scratch store, and (d) answer
    an axis-pinned slice query from tiles alone, with the engine's
    chunk counter flat.
    """
    from repro.store import TileSink, TileStore
    from repro.telemetry import disable_metrics, enable_metrics, metrics

    case_file = str(
        pathlib.Path(__file__).resolve().parents[1]
        / "examples" / "case_confidence.yaml"
    )

    def sweep_over(p_trues):
        return SweepSpec(
            pipeline="case_confidence",
            base={"case_file": case_file},
            grid={
                "A1.p_true": p_trues,
                "S1.dependence": [
                    round(0.0001 * i, 5) for i in range(10000)
                ],
            },
        )

    p_trues = [round(0.5 + 0.005 * i, 3) for i in range(100)]
    base_sweep = sweep_over(p_trues)
    assert base_sweep.n_scenarios() == 1_000_000

    # Materialise the baseline store: 100 tiles of (1, 10000).
    store_path = str(tmp_path / "store")
    base_meta = run_sweep_streaming(
        base_sweep,
        sinks=(TileSink(store_path, tile_scenarios=16384),),
        chunk_size=16384,
    )
    assert base_meta["rows"] == 1_000_000
    assert TileStore.open(store_path).n_tiles == 100

    # Edit one axis value out of 100.
    edited = list(p_trues)
    edited[37] = 0.9991
    edited_sweep = sweep_over(edited)

    # --- (b) from-scratch run of the edited sweep, timed.
    scratch_path = str(tmp_path / "scratch")
    start = time.perf_counter()
    scratch_meta = run_sweep_streaming(
        edited_sweep,
        sinks=(TileSink(scratch_path, tile_scenarios=16384),),
        chunk_size=16384,
    )
    scratch_elapsed = time.perf_counter() - start
    assert scratch_meta["rows"] == 1_000_000

    # --- (a) the delta re-run, tile counters metered.
    enable_metrics(reset=True)
    try:
        start = time.perf_counter()
        delta_meta = run_sweep_streaming(
            edited_sweep,
            sinks=(TileSink(store_path, tile_scenarios=16384),),
            chunk_size=16384,
            delta=True,
        )
        delta_elapsed = time.perf_counter() - start
        counters = metrics.snapshot()
    finally:
        disable_metrics()
    record_stage_timings(delta_meta)
    assert delta_meta["tiles_total"] == 100
    assert delta_meta["tiles_executed"] == 1
    assert delta_meta["tiles_skipped"] == 99
    assert delta_meta["rows_executed"] == 10_000
    assert counters["store.tiles_written"]["value"] == 1
    assert counters["store.tiles_skipped"]["value"] == 99
    assert counters["store.rows_written"]["value"] == 10_000

    speedup = scratch_elapsed / delta_elapsed
    assert speedup >= 5.0, (
        f"delta re-run only {speedup:.1f}x over from-scratch "
        f"({delta_elapsed:.1f}s vs {scratch_elapsed:.1f}s)"
    )

    # --- (c) the delta'd store is bit-identical to the scratch store.
    assert _store_digest(store_path) == _store_digest(scratch_path), (
        "delta-updated store differs from a from-scratch run"
    )

    # --- (d) slice queries execute zero plan chunks.
    enable_metrics(reset=True)
    try:
        store = TileStore.open(store_path)
        sl = store.slice(
            columns=["top_confidence"], **{"A1.p_true": 0.9991}
        )
        assert sl.shape == (10000,)
        counters = metrics.snapshot()
    finally:
        disable_metrics()
    assert counters.get("engine.chunks", {}).get("value", 0) == 0, (
        "slice query executed plan chunks"
    )
    assert counters["store.tiles_read"]["value"] >= 1

    # Timing fixture rounds: a no-op delta at 100k scenarios (the
    # steady-state cost of "nothing changed").
    rounds_store = str(tmp_path / "rounds_store")
    rounds_sweep = SweepSpec(
        pipeline="case_confidence",
        base={"case_file": case_file},
        grid={
            "A1.p_true": [round(0.5 + 0.005 * i, 3) for i in range(100)],
            "S1.dependence": [round(0.001 * i, 4) for i in range(1000)],
        },
    )
    run_sweep_streaming(
        rounds_sweep,
        sinks=(TileSink(rounds_store, tile_scenarios=16384),),
        chunk_size=16384,
    )
    rounds_meta = benchmark(lambda: run_sweep_streaming(
        rounds_sweep,
        sinks=(TileSink(rounds_store, tile_scenarios=16384),),
        chunk_size=16384,
        delta=True,
    ))
    assert rounds_meta["rows"] == 100_000
    assert rounds_meta["tiles_executed"] == 0
