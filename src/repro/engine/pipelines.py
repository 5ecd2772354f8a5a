"""Named pipelines the sweep engine can run.

A *pipeline* adapts one of the library's analysis entry points to the
engine's declarative world.  Its definition is a handful of
declarations plus the scalar oracle:

``defaults`` / ``required``
    The parameter schema: a scenario may bind any subset of these names
    (unknown names are rejected), and ``required`` ones must be bound.
    :meth:`Pipeline.resolve` merges, validates and normalises one
    scenario's parameters.
``content_params``
    Parameters whose values name content outside the spec (a case
    file).  :func:`~repro.engine.plan.lower` loads each value once
    (:meth:`Pipeline.load`) into the plan's *snapshot*; cache keys and
    fingerprints fold the snapshot's content hashes, and resolution
    against it hands the loaded content on in place of the name, so
    every row of a run sees one version of each file.
``config``
    The parameters that fix a kernel's *configuration* rather than its
    arithmetic (band scheme, growth model, grid sizes, case file).  The
    plan groups a chunk by their resolved values, and
    :meth:`Pipeline.run_batch` runs one group.
``columns(config)``
    The value columns rows of one configuration carry, in row order:
    name, NumPy dtype and the *nodata* value that stands for ``None``
    in arrays (:class:`Column`, the datacube ``measurements:`` idiom).
    Sinks and the tile store read this schema from the plan instead of
    guessing it from rows; :func:`register` refuses a pipeline that
    does not declare it.
``run(params, seed)``
    The scalar path, returning one ``{column: value}`` dict: the
    ``serial`` backend and the oracle every kernel must match to 1e-12.

Batch kernels register against a pipeline name with
:func:`register_batch_kernel`.  A kernel is called as
``kernel(config, planes, seeds)`` with one configuration group's
resolved configuration, its resolved *parameter planes* (one array per
parameter, resolved once per axis value by the plan) and its seeds, and
returns ``{column: ndarray}`` in the declared schema (nodata where a
row has no value).

The thirteen registered pipelines (:func:`available_pipelines`) are
the classes below; each docstring names the paper section it sweeps,
and README's pipeline table gives an example spec for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError
from ..numerics import ensure_rng
from ..telemetry import tracer
from . import kernels as _kernels
from .kernels import NO_LEVEL
from .results import rows_of

__all__ = [
    "Column",
    "Pipeline",
    "register",
    "register_batch_kernel",
    "get_pipeline",
    "available_pipelines",
]

Planes = Mapping[str, np.ndarray]
BatchKernel = Callable[
    [Dict[str, Any], Planes, List[Optional[int]]], Dict[str, np.ndarray],
]
#: Content a plan loaded at lower(): ``(parameter, value) -> (content,
#: content hash)``.
Snapshot = Mapping[Tuple[str, Any], Tuple[Any, str]]


@dataclass(frozen=True)
class Column:
    """One declared value column: name, NumPy dtype and ``nodata``, the
    array value standing for ``None`` (``None``: the column never lacks
    a value; NaN and integer sentinels are supported)."""

    name: str
    dtype: str = "float64"
    nodata: Any = None

    def to_array(self, values: Sequence[Any]) -> np.ndarray:
        """Row values as an array of the declared dtype."""
        if self.nodata is not None:
            values = [self.nodata if value is None else value
                      for value in values]
        return np.asarray(values, dtype=self.dtype)

    def to_rows(self, array: np.ndarray) -> List[Any]:
        """Array values as Python row values, nodata back to ``None``."""
        values = array.tolist()
        if self.nodata is None:
            return values
        if self.nodata != self.nodata:  # NaN
            return [None if value != value else value for value in values]
        return [None if value == self.nodata else value for value in values]


def _floats(*names: str) -> Tuple[Column, ...]:
    return tuple(Column(name) for name in names)


def _rows(planes: Planes, n: int) -> List[Dict[str, Any]]:
    """Resolved parameters row by row, for per-row (random) work."""
    return rows_of({name: plane.tolist() for name, plane in planes.items()},
                   n)


class Pipeline:
    """Base class: parameter schema, declared output schema and scalar
    execution (see the module docstring for the contract)."""

    name: str = ""
    defaults: Dict[str, Any] = {}
    required: Tuple[str, ...] = ()
    #: False for pipelines that draw fresh entropy when the scenario has
    #: no seed; the executor skips the result cache for those runs.
    deterministic: bool = True
    #: Parameters whose values name content outside the spec (a file
    #: path), loaded once per plan through :meth:`load`.
    content_params: Tuple[str, ...] = ()
    #: Parameters the batch kernel is configured by; a chunk runs as one
    #: kernel call per distinct combination of their resolved values.
    config: Tuple[str, ...] = ()

    def resolve(self, params: Mapping[str, Any],
                snapshot: Optional[Snapshot] = None) -> Dict[str, Any]:
        """Merge ``params`` over the defaults, validating names.

        Idempotent: resolving already-resolved parameters is a no-op, so
        the executor can validate eagerly and pass the resolved dicts on.
        Unknown and missing names are reported sorted, so failures read
        identically on every Python version.  ``snapshot`` is the plan's
        loaded content; only pipelines with ``content_params`` read it.
        """
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise DomainError(
                f"pipeline {self.name!r} got unknown parameters: "
                f"{', '.join(sorted(unknown))}"
            )
        merged = {**self.defaults, **params}
        # An explicitly bound None counts as missing too (e.g. an empty
        # value in a YAML spec parses to None).
        missing = [key for key in self.required if merged.get(key) is None]
        if missing:
            raise DomainError(
                f"pipeline {self.name!r} missing required parameters: "
                f"{', '.join(sorted(missing))}"
            )
        return merged

    def invalid(self, planes: Planes) -> Optional[np.ndarray]:
        """Rows of resolved ``planes`` failing a check of :meth:`resolve`
        that joins parameters (lowering checks each value on its own);
        ``None`` when there is none."""
        return None

    def load(self, name: str, value: Any) -> Tuple[Any, str]:
        """What content parameter ``name`` = ``value`` refers to, loaded,
        and its content hash (what cache keys and fingerprints fold)."""
        raise NotImplementedError

    def columns(self, config: Mapping[str, Any]) -> Tuple[Column, ...]:
        """The value columns of rows whose resolved configuration
        parameters are ``config``, in row order."""
        raise NotImplementedError

    @property
    def supports_batch(self) -> bool:
        """Whether a vectorised batch kernel is registered for this name."""
        return self.name in _BATCH_KERNELS

    def run(self, params: Mapping[str, Any],
            seed: Optional[int] = None) -> Dict[str, Any]:
        """Execute one scenario; returns a flat dict of result columns."""
        raise NotImplementedError

    def run_batch(self, config: Dict[str, Any], planes: Planes,
                  seeds: Sequence[Optional[int]],
                  scalar: bool = False) -> Dict[str, np.ndarray]:
        """One configuration group's declared value columns, from its
        resolved parameter ``planes`` and ``seeds``: the batch kernel's,
        or — ``scalar`` (the serial backend) or without one — :meth:`run`
        row by row."""
        kernel = None if scalar else _BATCH_KERNELS.get(self.name)
        with tracer.span("kernel.dispatch", pipeline=self.name,
                         n_items=len(seeds),
                         vectorized=kernel is not None):
            if kernel is not None:
                return kernel(config, planes, seeds)
            rows = [self.run(params, seed)
                    for params, seed in zip(_rows(planes, len(seeds)), seeds)]
            return {column.name: column.to_array([row[column.name]
                                                  for row in rows])
                    for column in self.columns(config)}


_REGISTRY: Dict[str, Pipeline] = {}
_BATCH_KERNELS: Dict[str, BatchKernel] = {}


def register(pipeline: Pipeline) -> Pipeline:
    """Register a pipeline instance under its name.

    The pipeline must declare its output schema (``columns``): sinks
    and stores read it from the plan, and nothing guesses it from rows.
    """
    if not pipeline.name:
        raise DomainError("pipeline needs a non-empty name")
    if type(pipeline).columns is Pipeline.columns:
        raise DomainError(
            f"pipeline {pipeline.name!r} declares no output schema: "
            f"define columns(config)"
        )
    _REGISTRY[pipeline.name] = pipeline
    return pipeline


def register_batch_kernel(pipeline_name: str):
    """Decorator: register a vectorised batch kernel for a pipeline name.

    The kernel is called as ``kernel(config, planes, seeds)`` for one
    configuration group and returns ``{column: ndarray}`` in the
    pipeline's declared schema, matching :meth:`Pipeline.run` to 1e-12.
    """
    if not pipeline_name:
        raise DomainError("batch kernel needs a pipeline name")

    def decorator(kernel: BatchKernel) -> BatchKernel:
        _BATCH_KERNELS[pipeline_name] = kernel
        return kernel

    return decorator


def get_pipeline(name: str) -> Pipeline:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DomainError(
            f"unknown pipeline {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def available_pipelines() -> List[str]:
    return sorted(_REGISTRY)


def _as_count(value, label: str) -> int:
    count = int(value)
    if count != value:
        raise DomainError(f"{label} must be an integer, got {value}")
    return count


def _band_scheme(name: str):
    from ..sil import HIGH_DEMAND, LOW_DEMAND

    schemes = {"low_demand": LOW_DEMAND, "high_demand": HIGH_DEMAND}
    if name not in schemes:
        raise DomainError(
            f"scheme must be one of {sorted(schemes)}, got {name!r}"
        )
    return schemes[name]


def _sil_confidences(scheme_name: str) -> Tuple[Column, ...]:
    return _floats(*(f"sil{level}_confidence"
                     for level in _band_scheme(scheme_name).levels))


def _level(name: str) -> Column:
    """A SIL level column: int64, with NO_LEVEL standing for ``None``."""
    return Column(name, "int64", NO_LEVEL)


# --------------------------------------------------------------------- #
# Survival update
# --------------------------------------------------------------------- #

class SurvivalUpdatePipeline(Pipeline):
    """Tail cut-off of a log-normal (mode, sigma) judgement by failure-free
    demands, summarised as posterior mean/median/mode and the one-sided
    confidence in ``pfd < bound``."""

    name = "survival_update"
    defaults = {
        "mode": None,
        "sigma": None,
        "demands": 0,
        "bound": 1e-2,
        "grid_low": 1e-9,
        "grid_high": 1.0,
        "points_per_decade": 400,
    }
    required = ("mode", "sigma")
    config = ("grid_low", "grid_high", "points_per_decade")

    def resolve(self, params, snapshot=None):
        merged = super().resolve(params)
        merged["demands"] = _as_count(merged["demands"], "demands")
        return merged

    def columns(self, config):
        # "posterior_mode", not "mode": the prior's mode is already a
        # scenario parameter and records merge params with values.
        return _floats("mean", "median", "posterior_mode", "confidence")

    def run(self, params, seed=None):
        from ..distributions import LogNormalJudgement
        from ..numerics import log_grid
        from ..update import DemandEvidence, survival_update

        merged = self.resolve(params)
        grid = log_grid(
            merged["grid_low"], merged["grid_high"],
            merged["points_per_decade"],
        )
        prior = LogNormalJudgement.from_mode_sigma(
            merged["mode"], merged["sigma"]
        )
        posterior = survival_update(
            prior, DemandEvidence(demands=merged["demands"]), grid
        )
        return {
            "mean": posterior.mean(),
            "median": posterior.median(),
            "posterior_mode": posterior.mode(),
            "confidence": posterior.confidence(merged["bound"]),
        }


@register_batch_kernel("survival_update")
def _survival_update_batch(config, planes, seeds):
    from ..numerics import log_grid

    grid = log_grid(float(config["grid_low"]), float(config["grid_high"]),
                    int(config["points_per_decade"]))
    columns = _kernels.survival_sweep_columns(
        planes["mode"], planes["sigma"], planes["demands"], planes["bound"],
        grid,
    )
    return {**columns, "posterior_mode": columns["mode"]}


# --------------------------------------------------------------------- #
# Two-leg argument
# --------------------------------------------------------------------- #

class TwoLegPosteriorPipeline(Pipeline):
    """Exact posterior confidence for the two-leg argument network as the
    dependence between the legs' assumptions varies."""

    name = "two_leg_posterior"
    defaults = {
        "prior": None,
        "dependence": 0.0,
        "leg1_validity": None,
        "leg1_sensitivity": None,
        "leg1_specificity": None,
        "leg1_noise": 0.5,
        "leg2_validity": None,
        "leg2_sensitivity": None,
        "leg2_specificity": None,
        "leg2_noise": 0.5,
    }
    required = (
        "prior",
        "leg1_validity", "leg1_sensitivity", "leg1_specificity",
        "leg2_validity", "leg2_sensitivity", "leg2_specificity",
    )
    #: The kernel's CPT-plane parameters, in ``two_leg_cpt_planes`` order.
    PLANES = (
        "prior", "dependence",
        "leg1_validity", "leg1_sensitivity", "leg1_specificity",
        "leg1_noise",
        "leg2_validity", "leg2_sensitivity", "leg2_specificity",
        "leg2_noise",
    )

    def columns(self, config):
        return _floats("single_leg", "both_legs", "gain", "doubt_reduction")

    @staticmethod
    def _legs(merged):
        from ..arguments import ArgumentLeg

        leg1 = ArgumentLeg(
            "leg1", merged["leg1_validity"], merged["leg1_sensitivity"],
            merged["leg1_specificity"], merged["leg1_noise"],
        )
        leg2 = ArgumentLeg(
            "leg2", merged["leg2_validity"], merged["leg2_sensitivity"],
            merged["leg2_specificity"], merged["leg2_noise"],
        )
        return leg1, leg2

    def run(self, params, seed=None):
        from ..arguments import two_leg_posterior

        merged = self.resolve(params)
        leg1, leg2 = self._legs(merged)
        result = two_leg_posterior(
            merged["prior"], leg1, leg2, merged["dependence"]
        )
        return {
            "single_leg": result.single_leg,
            "both_legs": result.both_legs,
            "gain": result.gain,
            "doubt_reduction": result.doubt_reduction_factor,
        }


@register_batch_kernel("two_leg_posterior")
def _two_leg_posterior_batch(config, planes, seeds):
    from ..arguments import two_leg_posterior_sweep

    return two_leg_posterior_sweep(
        *(planes[name] for name in TwoLegPosteriorPipeline.PLANES)
    )


class BbnQueryPipeline(TwoLegPosteriorPipeline):
    """Monte-Carlo cross-check of the two-leg query by likelihood
    weighting; the scenario seed drives the sampler, so sweeps over seeds
    measure Monte-Carlo scatter.

    Each scenario queries the network's compiled form: the vectorized
    sampler runs with no per-sample Python loop, and because compilation
    is memoised by network content hash, a sweep over seeds (or over any
    parameters that leave the network unchanged) lowers the network once
    and reuses it for every scenario."""

    name = "bbn_query"
    defaults = {**TwoLegPosteriorPipeline.defaults, "n_samples": 4000}
    # Without a scenario seed the sampler draws fresh OS entropy, so a
    # cached replay would freeze one random draw; the executor must not
    # memoise those runs.
    deterministic = False
    config = ("n_samples",)

    def resolve(self, params, snapshot=None):
        merged = super().resolve(params)
        merged["n_samples"] = _as_count(merged["n_samples"], "n_samples")
        return merged

    def columns(self, config):
        return _floats("p_claim")

    def run(self, params, seed=None):
        from ..arguments import build_two_leg_network
        from ..bbn import compile_network

        merged = self.resolve(params)
        leg1, leg2 = self._legs(merged)
        network = build_two_leg_network(
            merged["prior"], leg1, leg2, merged["dependence"]
        )
        posterior = compile_network(network).likelihood_weighting(
            "claim",
            {"evidence_leg1": "true", "evidence_leg2": "true"},
            n_samples=merged["n_samples"],
            rng=ensure_rng(seed),
        )
        return {"p_claim": posterior["true"]}


#: Scenario-chunk cap for the batched sampler: keeps the
#: (chunk, n_samples, n_vars) state tensor around ten million elements.
_LW_CHUNK_ELEMENTS = 2_000_000


@register_batch_kernel("bbn_query")
def _bbn_query_batch(config, planes, seeds):
    from ..arguments.multileg import _two_leg_template, two_leg_cpt_planes

    n_samples = config["n_samples"]
    evidence = {"evidence_leg1": "true", "evidence_leg2": "true"}
    p_claim = np.empty(len(seeds))
    step = max(1, _LW_CHUNK_ELEMENTS // max(n_samples, 1))
    for start in range(0, len(seeds), step):
        rows = slice(start, start + step)
        posterior = _two_leg_template().likelihood_weighting_batch(
            "claim", evidence,
            n_samples=n_samples,
            rngs=[ensure_rng(seed) for seed in seeds[rows]],
            cpt_planes=two_leg_cpt_planes(*(
                planes[name][rows] for name in TwoLegPosteriorPipeline.PLANES
            )),
        )
        p_claim[rows] = posterior[:, 0]
    return {"p_claim": p_claim}


# --------------------------------------------------------------------- #
# Whole-case confidence
# --------------------------------------------------------------------- #


class CaseConfidencePipeline(Pipeline):
    """``P(top goal)`` of a whole quantified dependability case.

    ``case_file`` names a YAML/JSON case spec (GSN nodes, support and
    annotation edges, per-node confidence models — see
    :class:`repro.arguments.QuantifiedCase`).  Every quantified
    parameter of the case is exposed as a sweepable
    ``"<node>.<param>"`` scenario parameter (assumptions as
    ``"<id>.p_true"``), so one spec file plus a grid sweeps the whole
    argument — leaf judgements, combination dials and assumption doubt
    alike.  The batched backend lowers the case once
    (:func:`repro.arguments.compile_case`) and evaluates all scenarios
    in one vectorized pass; the scalar path is the per-node recursive
    oracle it must match to 1e-12.
    """

    name = "case_confidence"
    defaults = {"case_file": None}
    required = ("case_file",)
    content_params = ("case_file",)
    config = ("case_file",)

    def load(self, name, value):
        from ..arguments import load_case

        case = load_case(value)
        return case, case.content_hash()

    def resolve(self, params, snapshot=None):
        """Validate against the case's parameter space; the resolved
        ``case_file`` is the loaded case itself — the snapshot's when
        the plan holds it, else read from disk now."""
        from ..arguments import QuantifiedCase

        params = dict(params)
        case = params.pop("case_file", None)
        if case is None:
            raise DomainError(
                f"pipeline {self.name!r} missing required parameters: "
                f"case_file"
            )
        if not isinstance(case, QuantifiedCase):
            loaded = (snapshot or {}).get(("case_file", case))
            case = loaded[0] if loaded else self.load("case_file", case)[0]
        space = case.parameter_defaults()
        unknown = set(params) - set(space)
        if unknown:
            raise DomainError(
                f"pipeline {self.name!r} got unknown parameters: "
                f"{', '.join(sorted(unknown))}"
            )
        merged: Dict[str, Any] = {"case_file": case, **space}
        merged.update(params)
        return merged

    def columns(self, config):
        from ..arguments import compile_case

        compiled = compile_case(config["case_file"])
        goals = sorted(
            identifier for identifier in compiled.node_ids
            if compiled.case.graph.node(identifier).kind == "goal"
        )
        return _floats("top_confidence", "top_doubt",
                       *(f"conf_{identifier}" for identifier in goals))

    def run(self, params, seed=None):
        merged = self.resolve(params)
        case = merged["case_file"]
        overrides = {
            key: value for key, value in merged.items()
            if key != "case_file"
        }
        values = case.evaluate(overrides)
        top = values[case.graph.root_goal().identifier]
        out = {"top_confidence": top, "top_doubt": 1.0 - top}
        for identifier in sorted(values):
            if case.graph.node(identifier).kind == "goal":
                out[f"conf_{identifier}"] = values[identifier]
        return out


@register_batch_kernel("case_confidence")
def _case_confidence_batch(config, planes, seeds):
    from ..arguments import compile_case

    compiled = compile_case(config["case_file"])
    sweep = compiled.evaluate_sweep(
        {name: planes[name] for name in compiled.parameter_defaults()},
        n_scenarios=len(seeds),
    )
    top = sweep[compiled.root_id]
    return {
        "top_confidence": top,
        "top_doubt": 1.0 - top,
        **{f"conf_{identifier}": values
           for identifier, values in sweep.items()},
    }


# --------------------------------------------------------------------- #
# SIL classification
# --------------------------------------------------------------------- #

class SilClassificationPipeline(Pipeline):
    """The three SIL classification views (mode band, mean band, band
    granted at a required one-sided confidence) of a log-normal
    judgement."""

    name = "sil_classification"
    defaults = {
        "mode": None,
        "sigma": None,
        "required_confidence": 0.70,
        "scheme": "low_demand",
    }
    required = ("mode", "sigma")
    config = ("scheme",)

    def columns(self, config):
        return (
            *_floats("mode_value", "mean_value"),
            _level("mode_level"), _level("mean_level"),
            _level("granted_level"), Column("optimistic_gap", "int64"),
            *_sil_confidences(config["scheme"]),
        )

    def run(self, params, seed=None):
        from ..distributions import LogNormalJudgement
        from ..sil import assess

        merged = self.resolve(params)
        scheme = _band_scheme(merged["scheme"])
        judgement = LogNormalJudgement.from_mode_sigma(
            merged["mode"], merged["sigma"]
        )
        report = assess(
            judgement,
            scheme=scheme,
            required_confidence=merged["required_confidence"],
        )
        out = {
            "mode_value": report.mode_value,
            "mean_value": report.mean_value,
            "mode_level": report.mode_level,
            "mean_level": report.mean_level,
            "granted_level": report.granted_level,
            "optimistic_gap": report.optimistic_gap,
        }
        for level, confidence in sorted(report.confidence_by_level.items()):
            out[f"sil{level}_confidence"] = confidence
        return out


@register_batch_kernel("sil_classification")
def _sil_classification_batch(config, planes, seeds):
    scheme = _band_scheme(config["scheme"])
    sigmas = planes["sigma"]
    mu = _kernels.lognormal_mu_from_mode(planes["mode"], sigmas)
    means, mode_values, _ = _kernels.lognormal_moments(mu, sigmas)
    mode_levels = _kernels.band_levels_of(mode_values, scheme)
    mean_levels = _kernels.band_levels_of(means, scheme)
    confidences = _kernels.band_confidence_sweep(mu, sigmas, scheme)
    known = (mode_levels != NO_LEVEL) & (mean_levels != NO_LEVEL)
    return {
        "mode_value": mode_values,
        "mean_value": means,
        "mode_level": mode_levels,
        "mean_level": mean_levels,
        "granted_level": _kernels.granted_levels(
            confidences, planes["required_confidence"]
        ),
        "optimistic_gap": np.where(known, mode_levels - mean_levels, 0),
        **{f"sil{level}_confidence": values
           for level, values in confidences.items()},
    }


# --------------------------------------------------------------------- #
# Expert panel simulation
# --------------------------------------------------------------------- #

class PanelRunPipeline(Pipeline):
    """The four-phase synthetic expert panel (Figure 5); the scenario seed
    builds the panel, so per-scenario seeds give reproducible sweeps."""

    name = "panel_run"
    defaults = {
        "n_experts": 12,
        "n_doubters": 3,
        "pool": "linear",
    }
    config = ("n_experts", "n_doubters", "pool")

    def resolve(self, params, snapshot=None):
        merged = super().resolve(params)
        merged["n_experts"] = _as_count(merged["n_experts"], "n_experts")
        merged["n_doubters"] = _as_count(merged["n_doubters"], "n_doubters")
        if merged["pool"] not in ("linear", "log"):
            raise DomainError(
                f"pool must be 'linear' or 'log', got {merged['pool']!r}"
            )
        return merged

    def columns(self, config):
        return (*_floats("group_confidence", "group_mean_pfd",
                         "pooled_mean_pfd"),
                Column("mean_on_boundary", "bool"))

    def run(self, params, seed=None):
        from ..experiment import run_panel

        merged = self.resolve(params)
        result = run_panel(
            n_experts=merged["n_experts"],
            n_doubters=merged["n_doubters"],
            pool=merged["pool"],
            rng=ensure_rng(seed if seed is not None else 2007),
        )
        return {
            "group_confidence": result.group_confidence_in_target(),
            "group_mean_pfd": result.group_mean_pfd(),
            "pooled_mean_pfd": result.pooled_mean_pfd(),
            "mean_on_boundary": result.mean_on_boundary(),
        }


@register_batch_kernel("panel_run")
def _panel_run_batch(config, planes, seeds):
    """Batched panel sweeps: the four-phase dynamics as array passes.

    Each scenario's panel is still seeded expert-by-expert (the draw
    interleaving is part of the stream contract), but the protocol's
    narrowing/convergence recurrences run vectorised over all scenarios
    at once, and only the *final* phase's judgements are materialised:
    the intermediate phases' judgement objects — and their noise draws,
    which nothing after the last phase consumes — are dead work for this
    pipeline's columns and are skipped entirely.
    """
    from dataclasses import replace

    from ..elicitation import linear_pool, log_pool
    from ..elicitation.delphi import DEFAULT_PHASES
    from ..experiment import build_panel
    from ..experiment.cemsis import public_domain_case_study

    case = public_domain_case_study()
    band = case.target_band
    n_experts, n_doubters = config["n_experts"], config["n_doubters"]
    pool_fn = linear_pool if config["pool"] == "linear" else log_pool
    panels = [
        build_panel(n_experts, n_doubters,
                    ensure_rng(seed if seed is not None else 2007))
        for seed in seeds
    ]
    biases = np.array([[e.bias_decades for e in p] for p in panels])
    sigmas = np.array([[e.sigma for e in p] for p in panels])
    is_doubter = np.arange(n_experts) < n_doubters
    main = ~is_doubter
    if not main.any():
        raise DomainError("panel has no main-group experts to pool")
    for phase in DEFAULT_PHASES:
        target = biases[:, main].mean(axis=1)
        sigmas[:, main] *= phase.narrowing
        sigmas[:, is_doubter] *= min(1.0, phase.narrowing + 0.1)
        if phase.convergence > 0:
            biases[:, main] = (
                (1.0 - phase.convergence) * biases[:, main]
                + phase.convergence * target[:, None]
            )
    rows = []
    for position, panel in enumerate(panels):
        final = [
            replace(
                expert,
                bias_decades=float(biases[position, e]),
                sigma=float(sigmas[position, e]),
            ).judge(case.reference_mode, phase=len(DEFAULT_PHASES))
            for e, expert in enumerate(panel)
        ]
        pooled_all = pool_fn([j.judgement for j in final])
        pooled_main = pool_fn([
            j.judgement for j, doubter in zip(final, is_doubter)
            if not doubter
        ])
        group_mean = pooled_main.mean()
        on_boundary = (
            group_mean > 0
            and abs(float(np.log10(group_mean / band.upper))) <= 0.35
        )
        rows.append((band.confidence_better(pooled_main), group_mean,
                     pooled_all.mean(), bool(on_boundary)))
    names = ("group_confidence", "group_mean_pfd", "pooled_mean_pfd",
             "mean_on_boundary")
    return {name: np.array(values) for name, values in zip(names, zip(*rows))}


# --------------------------------------------------------------------- #
# Growth-model SIL route
# --------------------------------------------------------------------- #

class SilFromGrowthPipeline(Pipeline):
    """The Section 3 growth-model route to a SIL, sweepable.

    Each scenario simulates an interfailure history from the chosen
    growth model (``model="jm"`` Jelinski-Moranda or ``model="lv"``
    Littlewood-Verrall) using the scenario seed, fits the model by a
    deterministic likelihood-grid search (``candidate_ladder`` /
    ``relative_lattice``), takes the fitted current intensity as the
    judgement mode worsened by the assumption margin, widens the spread
    by the margin, and reports the SIL grantable at the required
    confidence.  The batched backend evaluates the whole sweep's
    likelihood grids as chunked ``(S, G, n)`` passes.
    """

    name = "sil_from_growth"
    defaults = {
        "model": "jm",
        "n_observed": 25,
        # Jelinski-Moranda simulation truth
        "n_faults": 40,
        "per_fault_rate": 0.008,
        # Littlewood-Verrall simulation truth
        "lv_alpha": 3.0,
        "lv_beta0": 40.0,
        "lv_beta1": 8.0,
        # grid-fit configuration
        "n_candidates": 160,
        "max_factor": 30.0,
        "n_alpha": 6,
        "n_beta0": 8,
        "n_beta1": 7,
        # SIL derivation
        "assumption_margin_decades": 0.5,
        "base_sigma": 0.4,
        "required_confidence": 0.90,
        "scheme": "low_demand",
    }
    deterministic = False
    config = ("model", "n_observed", "n_candidates", "max_factor",
              "n_alpha", "n_beta0", "n_beta1", "scheme")

    def resolve(self, params, snapshot=None):
        merged = super().resolve(params)
        if merged["model"] not in ("jm", "lv"):
            raise DomainError(
                f"model must be 'jm' or 'lv', got {merged['model']!r}"
            )
        for key in ("n_observed", "n_faults", "n_candidates",
                    "n_alpha", "n_beta0", "n_beta1"):
            merged[key] = _as_count(merged[key], key)
        if merged["assumption_margin_decades"] < 0:
            raise DomainError("assumption margin must be non-negative decades")
        if merged["base_sigma"] <= 0:
            raise DomainError("base_sigma must be positive")
        _band_scheme(merged["scheme"])
        return merged

    def columns(self, config):
        fit = (("n_faults_hat", "per_fault_rate_hat")
               if config["model"] == "jm"
               else ("alpha_hat", "beta0_hat", "beta1_hat"))
        return (
            *_floats(*fit, "log_lik", "current_intensity", "current_mtbf"),
            Column("shows_growth", "bool"),
            *_floats("judgement_mode", "judgement_sigma"),
            _level("granted_sil"),
        )

    @staticmethod
    def _simulate(merged, rng):
        from ..growthmodels import jelinski_moranda, littlewood_verrall

        if merged["model"] == "jm":
            return jelinski_moranda.simulate_interfailure_times(
                merged["n_faults"], merged["per_fault_rate"],
                merged["n_observed"], rng,
            )
        return littlewood_verrall.simulate_interfailure_times(
            merged["lv_alpha"], merged["lv_beta0"], merged["lv_beta1"],
            merged["n_observed"], rng,
        )

    @staticmethod
    def _sil_columns(intensity, merged):
        from ..distributions import LogNormalJudgement
        from ..sil import classify_by_confidence

        margin = merged["assumption_margin_decades"]
        judgement_mode = min(intensity * 10.0**margin, 0.5)
        judgement_sigma = merged["base_sigma"] + 0.25 * margin
        judgement = LogNormalJudgement.from_mode_sigma(
            judgement_mode, judgement_sigma
        )
        granted = classify_by_confidence(
            judgement, merged["required_confidence"],
            _band_scheme(merged["scheme"]),
        )
        return {
            "judgement_mode": judgement_mode,
            "judgement_sigma": judgement_sigma,
            "granted_sil": granted,
        }

    def run(self, params, seed=None):
        from ..growthmodels import (
            candidate_ladder,
            jelinski_moranda,
            littlewood_verrall,
            profile_phi,
            relative_lattice,
        )

        merged = self.resolve(params)
        times = self._simulate(merged, ensure_rng(seed))
        n = merged["n_observed"]
        if merged["model"] == "jm":
            candidates = candidate_ladder(
                n, merged["n_candidates"], merged["max_factor"]
            )
            best_index, best_ll, best_phi = 0, -np.inf, 0.0
            for index, candidate in enumerate(candidates):
                phi = profile_phi(candidate, times)
                ll = jelinski_moranda.log_likelihood(candidate, phi, times)
                if ll > best_ll:
                    best_index, best_ll, best_phi = index, ll, phi
            fit = jelinski_moranda.JelinskiMorandaFit(
                n_faults=float(candidates[best_index]),
                per_fault_rate=best_phi,
                n_observed=n,
                log_likelihood=best_ll,
            )
            intensity = fit.current_intensity()
            out = {
                "n_faults_hat": fit.n_faults,
                "per_fault_rate_hat": fit.per_fault_rate,
                "log_lik": best_ll,
                "current_intensity": intensity,
                "current_mtbf": fit.current_mtbf(),
                "shows_growth": best_index < candidates.size - 1,
            }
        else:
            mean_t = float(np.mean(times))
            lattice = relative_lattice(
                merged["n_alpha"], merged["n_beta0"], merged["n_beta1"]
            )
            best_row, best_ll = 0, -np.inf
            best_params = (0.0, 0.0, 0.0)
            for index, (alpha, beta0_rel, beta1_rel) in enumerate(lattice):
                beta0 = mean_t * beta0_rel
                beta1 = mean_t * beta1_rel
                ll = littlewood_verrall.log_likelihood(
                    alpha, beta0, beta1, times
                )
                if ll > best_ll:
                    best_row, best_ll = index, ll
                    best_params = (alpha, beta0, beta1)
            fit = littlewood_verrall.LittlewoodVerrallFit(
                alpha=best_params[0],
                beta0=best_params[1],
                beta1=best_params[2],
                n_observed=n,
                log_likelihood=best_ll,
            )
            intensity = fit.current_intensity()
            out = {
                "alpha_hat": fit.alpha,
                "beta0_hat": fit.beta0,
                "beta1_hat": fit.beta1,
                "log_lik": best_ll,
                "current_intensity": intensity,
                "current_mtbf": (
                    1.0 / intensity if intensity > 0 else float("inf")
                ),
                "shows_growth": fit.shows_growth,
            }
        out.update(self._sil_columns(intensity, merged))
        return out


@register_batch_kernel("sil_from_growth")
def _sil_from_growth_batch(config, planes, seeds):
    from ..growthmodels import candidate_ladder, relative_lattice

    n_observed = config["n_observed"]
    times_rows = np.empty((len(seeds), n_observed))
    for position, (merged, seed) in enumerate(zip(_rows(planes, len(seeds)),
                                                  seeds)):
        times_rows[position] = SilFromGrowthPipeline._simulate(
            merged, ensure_rng(seed)
        )
    if config["model"] == "jm":
        fit = _kernels.jm_profile_sweep(
            times_rows,
            candidate_ladder(n_observed, config["n_candidates"],
                             config["max_factor"]),
        )
        intensity = fit["per_fault_rate_hat"] * np.maximum(
            fit["n_faults_hat"] - n_observed, 0.0
        )
    else:
        fit = _kernels.lv_lattice_sweep(
            times_rows, relative_lattice(config["n_alpha"], config["n_beta0"],
                                         config["n_beta1"])
        )
        psi = fit["beta0_hat"] + fit["beta1_hat"] * (n_observed + 1)
        intensity = fit["alpha_hat"] / psi
        fit["shows_growth"] = fit["beta1_hat"] > 0
    margin = planes["assumption_margin_decades"].astype(float)
    judgement_mode = np.minimum(intensity * 10.0**margin, 0.5)
    judgement_sigma = planes["base_sigma"].astype(float) + 0.25 * margin
    mu = _kernels.lognormal_mu_from_mode(judgement_mode, judgement_sigma)
    confidences = _kernels.band_confidence_sweep(
        mu, judgement_sigma, _band_scheme(config["scheme"])
    )
    return {
        **fit,
        "current_intensity": intensity,
        "current_mtbf": np.where(intensity > 0, 1.0 / intensity, np.inf),
        "judgement_mode": judgement_mode,
        "judgement_sigma": judgement_sigma,
        "granted_sil": _kernels.granted_levels(
            confidences, planes["required_confidence"]
        ),
    }


# --------------------------------------------------------------------- #
# Elicitation pooling and calibration
# --------------------------------------------------------------------- #

class ElicitationPoolPipeline(Pipeline):
    """A synthetic panel pooled linearly, with equal or information
    weights.

    The scenario seed draws each expert's personal bias and spread (the
    same panel shape as :func:`repro.experiment.build_panel`: the first
    ``n_doubters`` experts centre ``doubter_offset_decades`` worse with
    spread at least 1.2); pooling goes through
    :func:`repro.elicitation.linear_pool`, with weights either uniform or
    from :func:`repro.elicitation.information_weights`.
    """

    name = "elicitation_pool"
    defaults = {
        "n_experts": 12,
        "n_doubters": 3,
        "reference_mode": 0.003,
        "bias_scale": 0.3,
        "sigma_low": 0.7,
        "sigma_high": 1.1,
        "doubter_offset_decades": 2.0,
        "bound": 1e-2,
        "weighting": "equal",
    }
    deterministic = False
    config = ("n_experts", "weighting")

    def resolve(self, params, snapshot=None):
        merged = super().resolve(params)
        merged["n_experts"] = _as_count(merged["n_experts"], "n_experts")
        merged["n_doubters"] = _as_count(merged["n_doubters"], "n_doubters")
        if merged["n_experts"] < 1:
            raise DomainError("panel needs at least one expert")
        if not 0 <= merged["n_doubters"] < merged["n_experts"]:
            raise DomainError(
                "doubter count must lie in [0, n_experts) — the main "
                "group may not be empty"
            )
        if merged["weighting"] not in ("equal", "information"):
            raise DomainError(
                f"weighting must be 'equal' or 'information', "
                f"got {merged['weighting']!r}"
            )
        if merged["reference_mode"] <= 0:
            raise DomainError("reference mode must be positive")
        if not 0 < merged["sigma_low"] <= merged["sigma_high"]:
            raise DomainError("need 0 < sigma_low <= sigma_high")
        return merged

    def invalid(self, planes):
        doubters, low = planes["n_doubters"], planes["sigma_low"]
        return ~((0 <= doubters) & (doubters < planes["n_experts"])
                 & (0 < low) & (low <= planes["sigma_high"]))

    def columns(self, config):
        return _floats("pooled_mean", "pooled_confidence", "main_mean",
                       "main_confidence", "doubter_weight")

    @staticmethod
    def _panel_arrays(merged, rng):
        """Per-expert (mode, sigma, is_doubter) arrays for one scenario."""
        n_experts = merged["n_experts"]
        biases = rng.normal(0.0, merged["bias_scale"], size=n_experts)
        spreads = rng.uniform(
            merged["sigma_low"], merged["sigma_high"], size=n_experts
        )
        is_doubter = np.arange(n_experts) < merged["n_doubters"]
        offsets = biases + np.where(
            is_doubter, merged["doubter_offset_decades"], 0.0
        )
        sigmas = np.where(is_doubter, np.maximum(spreads, 1.2), spreads)
        modes = np.minimum(merged["reference_mode"] * 10.0**offsets, 0.5)
        return modes, sigmas, is_doubter

    @staticmethod
    def _weights(merged, modes, sigmas):
        from ..elicitation import equal_weights, information_weights

        if merged["weighting"] == "equal":
            return equal_weights(merged["n_experts"])
        from ..distributions import LogNormalJudgement

        widths = np.array([
            float(np.log10(high / low))
            for low, high in (
                LogNormalJudgement.from_mode_sigma(m, s).credible_interval(0.9)
                for m, s in zip(modes, sigmas)
            )
        ])
        return information_weights(widths)

    def run(self, params, seed=None):
        from ..distributions import LogNormalJudgement
        from ..elicitation import linear_pool

        merged = self.resolve(params)
        modes, sigmas, is_doubter = self._panel_arrays(
            merged, ensure_rng(seed)
        )
        judgements = [
            LogNormalJudgement.from_mode_sigma(m, s)
            for m, s in zip(modes, sigmas)
        ]
        weights = self._weights(merged, modes, sigmas)
        pooled = linear_pool(judgements, list(weights))
        main_weights = weights[~is_doubter]
        main_pool = linear_pool(
            [j for j, d in zip(judgements, is_doubter) if not d],
            list(main_weights / main_weights.sum()),
        )
        bound = merged["bound"]
        return {
            "pooled_mean": pooled.mean(),
            "pooled_confidence": pooled.confidence(bound),
            "main_mean": main_pool.mean(),
            "main_confidence": main_pool.confidence(bound),
            "doubter_weight": float(weights[is_doubter].sum()),
        }


@register_batch_kernel("elicitation_pool")
def _elicitation_pool_batch(config, planes, seeds):
    n_experts = config["n_experts"]
    modes = np.empty((len(seeds), n_experts))
    sigmas = np.empty((len(seeds), n_experts))
    doubters = np.empty((len(seeds), n_experts), dtype=bool)
    for position, (merged, seed) in enumerate(zip(_rows(planes, len(seeds)),
                                                  seeds)):
        modes[position], sigmas[position], doubters[position] = (
            ElicitationPoolPipeline._panel_arrays(merged, ensure_rng(seed))
        )
    if config["weighting"] == "equal":
        weights = np.full((len(seeds), n_experts), 1.0 / n_experts)
    else:
        from ..elicitation import information_weights

        mu = _kernels.lognormal_mu_from_mode(modes, sigmas)
        low, high = _kernels.lognormal_interval(mu, sigmas, 0.9)
        weights = information_weights(np.log10(high / low))
    bounds = planes["bound"]
    pooled = _kernels.linear_pool_sweep(modes, sigmas, weights, bounds)
    main = _kernels.linear_pool_sweep(
        modes, sigmas, np.where(doubters, 0.0, weights), bounds
    )
    return {
        "pooled_mean": pooled["pooled_mean"],
        "pooled_confidence": pooled["pooled_confidence"],
        "main_mean": main["pooled_mean"],
        "main_confidence": main["pooled_confidence"],
        "doubter_weight": np.sum(np.where(doubters, weights, 0.0), axis=1),
    }


class ExpertCalibrationPipeline(Pipeline):
    """Proper-score calibration of one expert judgement against simulated
    ground truths (the validation the paper finds lacking).

    Each scenario draws ``n_questions`` true values from a lognormal
    truth process and scores the expert's fixed (mode, sigma) judgement
    on the binary claim ``truth < claim_bound`` (Brier and log scores)
    plus 90 % interval coverage, via
    :func:`repro.elicitation.calibration_report`.
    """

    name = "expert_calibration"
    defaults = {
        "mode": 0.003,
        "sigma": 0.9,
        "truth_median": 0.003,
        "truth_sigma": 0.9,
        "n_questions": 40,
        "claim_bound": 1e-2,
    }
    deterministic = False
    config = ("n_questions",)

    def resolve(self, params, snapshot=None):
        merged = super().resolve(params)
        merged["n_questions"] = _as_count(
            merged["n_questions"], "n_questions"
        )
        if merged["n_questions"] < 1:
            raise DomainError("need at least one question")
        if merged["claim_bound"] <= 0:
            raise DomainError("claim bound must be positive")
        return merged

    def columns(self, config):
        return (*_floats("stated_confidence", "mean_brier", "mean_log_score",
                         "coverage_90"),
                Column("overconfident", "bool"))

    @staticmethod
    def _truths(merged, rng):
        from ..distributions import LogNormalJudgement

        truth_process = LogNormalJudgement.from_median_sigma(
            merged["truth_median"], merged["truth_sigma"]
        )
        return truth_process.sample(rng, merged["n_questions"])

    def run(self, params, seed=None):
        from ..distributions import LogNormalJudgement
        from ..elicitation import calibration_report

        merged = self.resolve(params)
        truths = self._truths(merged, ensure_rng(seed))
        judgement = LogNormalJudgement.from_mode_sigma(
            merged["mode"], merged["sigma"]
        )
        report = calibration_report(
            "expert",
            [judgement] * merged["n_questions"],
            truths,
            merged["claim_bound"],
        )
        return {
            "stated_confidence": judgement.confidence(merged["claim_bound"]),
            "mean_brier": report.mean_brier,
            "mean_log_score": report.mean_log_score,
            "coverage_90": report.coverage_90,
            "overconfident": report.is_overconfident(),
        }


@register_batch_kernel("expert_calibration")
def _expert_calibration_batch(config, planes, seeds):
    truths = np.empty((len(seeds), config["n_questions"]))
    for position, (merged, seed) in enumerate(zip(_rows(planes, len(seeds)),
                                                  seeds)):
        truths[position] = ExpertCalibrationPipeline._truths(
            merged, ensure_rng(seed)
        )
    sigmas = planes["sigma"]
    bounds = planes["claim_bound"]
    mu = _kernels.lognormal_mu_from_mode(planes["mode"], sigmas)
    stated = _kernels.lognormal_confidence(mu, sigmas, bounds)
    low, high = _kernels.lognormal_interval(mu, sigmas, 0.9)
    return {
        "stated_confidence": stated,
        **_kernels.calibration_sweep(stated, truths, bounds, low, high),
    }


# --------------------------------------------------------------------- #
# Risk, standards and conservatism
# --------------------------------------------------------------------- #

class AlarpDecisionPipeline(Pipeline):
    """ALARP region of a judgement's mean plus the ACARP confidence
    verdict on staying out of the unacceptable region
    (:func:`repro.risk.combined_verdict`)."""

    name = "alarp_decision"
    defaults = {
        "mode": None,
        "sigma": None,
        "intolerable_above": 1e-2,
        "acceptable_below": 1e-4,
        "required_confidence": 0.90,
    }
    required = ("mode", "sigma")

    def columns(self, config):
        from ..risk import RiskRegion

        width = max(len(region.value) for region in RiskRegion)
        return (Column("mean"), Column("region", f"<U{width}"),
                *_floats("confidence_not_unacceptable",
                         "confidence_broadly_acceptable"),
                Column("acarp_met", "bool"))

    def run(self, params, seed=None):
        from ..distributions import LogNormalJudgement
        from ..risk import AlarpThresholds, combined_verdict

        merged = self.resolve(params)
        judgement = LogNormalJudgement.from_mode_sigma(
            merged["mode"], merged["sigma"]
        )
        verdict = combined_verdict(
            judgement,
            AlarpThresholds(
                intolerable_above=merged["intolerable_above"],
                acceptable_below=merged["acceptable_below"],
            ),
            required_confidence=merged["required_confidence"],
        )
        return {
            "mean": judgement.mean(),
            "region": verdict.region_by_mean.value,
            "confidence_not_unacceptable":
                verdict.confidence_not_unacceptable,
            "confidence_broadly_acceptable":
                verdict.confidence_broadly_acceptable,
            "acarp_met": verdict.acarp_met,
        }


@register_batch_kernel("alarp_decision")
def _alarp_decision_batch(config, planes, seeds):
    return _kernels.alarp_sweep(
        *(planes[name] for name in (
            "mode", "sigma", "intolerable_above", "acceptable_below",
            "required_confidence",
        ))
    )


class Iec61508SilPipeline(Pipeline):
    """The SIL grantable under one of IEC 61508's confidence clauses
    (:func:`repro.standards.granted_sil`), with the per-band one-sided
    confidences alongside."""

    name = "iec61508_sil"
    defaults = {
        "mode": None,
        "sigma": None,
        "clause": "part2-7.4.7.9",
        "scheme": "low_demand",
    }
    required = ("mode", "sigma")
    config = ("scheme",)

    def resolve(self, params, snapshot=None):
        from ..standards.iec61508 import clause

        merged = super().resolve(params)
        clause(merged["clause"])
        _band_scheme(merged["scheme"])
        return merged

    def columns(self, config):
        return (Column("required_confidence"), _level("granted_sil"),
                *_sil_confidences(config["scheme"]))

    def run(self, params, seed=None):
        from ..distributions import LogNormalJudgement
        from ..standards.iec61508 import clause, granted_sil

        merged = self.resolve(params)
        judgement = LogNormalJudgement.from_mode_sigma(
            merged["mode"], merged["sigma"]
        )
        scheme = _band_scheme(merged["scheme"])
        confidence_clause = clause(merged["clause"])
        out = {
            "required_confidence": confidence_clause.required_confidence,
            "granted_sil": granted_sil(
                judgement, merged["clause"], scheme
            ),
        }
        for band in scheme:
            out[f"sil{band.level}_confidence"] = band.confidence_better(
                judgement
            )
        return out


@register_batch_kernel("iec61508_sil")
def _iec61508_sil_batch(config, planes, seeds):
    from ..standards.iec61508 import clause

    sigmas = planes["sigma"]
    required = np.array(
        [clause(name).required_confidence
         for name in planes["clause"].tolist()],
        dtype=float,
    )
    mu = _kernels.lognormal_mu_from_mode(planes["mode"], sigmas)
    confidences = _kernels.band_confidence_sweep(
        mu, sigmas, _band_scheme(config["scheme"])
    )
    return {
        "required_confidence": required,
        "granted_sil": _kernels.granted_levels(confidences, required),
        **{f"sil{level}_confidence": values
           for level, values in confidences.items()},
    }


class Do178bMapPipeline(Pipeline):
    """DO-178B assurance-level guidance and the cross-domain bridge: the
    per-hour guidance rate, the comparable high-demand SIL, and (when a
    judgement is bound) the confidence the rate meets the guidance."""

    name = "do178b_map"
    defaults = {
        "dal": None,
        "mode": None,
        "sigma": None,
    }
    required = ("dal",)

    def resolve(self, params, snapshot=None):
        from ..standards import do178b

        merged = super().resolve(params)
        do178b.level(merged["dal"])
        if (merged["mode"] is None) != (merged["sigma"] is None):
            raise DomainError(
                "bind both mode and sigma to judge against the guidance, "
                "or neither"
            )
        return merged

    def columns(self, config):
        from ..standards import do178b

        width = max(len(dal.failure_condition)
                    for dal in do178b.LEVELS.values())
        return (Column("failure_condition", f"<U{width}"),
                Column("guidance_rate_per_hour", nodata=np.nan),
                _level("comparable_sil"),
                Column("confidence_within_guidance", nodata=np.nan))

    def run(self, params, seed=None):
        from ..distributions import LogNormalJudgement
        from ..standards import do178b

        merged = self.resolve(params)
        dal = do178b.level(merged["dal"])
        out = {
            "failure_condition": dal.failure_condition,
            "guidance_rate_per_hour": dal.max_rate_per_hour,
            "comparable_sil": do178b.comparable_sil(merged["dal"]),
        }
        if dal.max_rate_per_hour is not None and merged["mode"] is not None:
            judgement = LogNormalJudgement.from_mode_sigma(
                merged["mode"], merged["sigma"]
            )
            out["confidence_within_guidance"] = judgement.confidence(
                dal.max_rate_per_hour
            )
        else:
            out["confidence_within_guidance"] = None
        return out


@register_batch_kernel("do178b_map")
def _do178b_map_batch(config, planes, seeds):
    from ..standards import do178b

    names = planes["dal"].tolist()
    modes, sigmas = planes["mode"].tolist(), planes["sigma"].tolist()
    dals = [do178b.level(name) for name in names]
    rates = np.array([np.nan if dal.max_rate_per_hour is None
                      else dal.max_rate_per_hour for dal in dals])
    judged = [i for i, mode in enumerate(modes)
              if mode is not None and not np.isnan(rates[i])]
    confidence = np.full(len(names), np.nan)
    if judged:
        judged_sigmas = np.array([sigmas[i] for i in judged], dtype=float)
        mu = _kernels.lognormal_mu_from_mode(
            [modes[i] for i in judged], judged_sigmas
        )
        confidence[judged] = _kernels.lognormal_confidence(
            mu, judged_sigmas, rates[judged]
        )
    sils = [do178b.comparable_sil(name) for name in names]
    return {
        "failure_condition": np.array([dal.failure_condition
                                       for dal in dals]),
        "guidance_rate_per_hour": rates,
        "comparable_sil": np.array(
            [NO_LEVEL if sil is None else sil for sil in sils],
            dtype=np.int64,
        ),
        "confidence_within_guidance": confidence,
    }


class ConservatismAuditPipeline(Pipeline):
    """Does stage-wise conservatism propagate?  One scenario per
    (channel judgement, belief bound, common-cause beta): the naive
    stage-wise 1oo2 figure versus the analytic beta-factor end-to-end
    mean, and the beta at which the bound breaks
    (:mod:`repro.core.propagation`)."""

    name = "conservatism_audit"
    defaults = {
        "mode": None,
        "sigma": None,
        "belief_bound": 1e-2,
        "beta": 0.05,
    }
    required = ("mode", "sigma")

    def resolve(self, params, snapshot=None):
        merged = super().resolve(params)
        if not 0 <= merged["belief_bound"] <= 1:
            raise DomainError("belief bound must lie in [0, 1]")
        if not 0 <= merged["beta"] <= 1:
            raise DomainError("beta must lie in [0, 1]")
        return merged

    def columns(self, config):
        return (*_floats("channel_mean", "stagewise_bound", "end_to_end_mean"),
                Column("conservatism_holds", "bool"),
                Column("critical_beta"))

    def run(self, params, seed=None):
        from ..core import (
            analytic_critical_beta,
            analytic_pair_mean,
            stagewise_pair_bound,
        )
        from ..distributions import LogNormalJudgement

        merged = self.resolve(params)
        channel = LogNormalJudgement.from_mode_sigma(
            merged["mode"], merged["sigma"]
        )
        stagewise = stagewise_pair_bound(channel, merged["belief_bound"])
        mean = channel.mean()
        second = channel.variance() + mean * mean
        end_to_end = analytic_pair_mean(mean, second, merged["beta"])
        return {
            "channel_mean": mean,
            "stagewise_bound": stagewise,
            "end_to_end_mean": end_to_end,
            "conservatism_holds": bool(stagewise >= end_to_end),
            "critical_beta": analytic_critical_beta(mean, second, stagewise),
        }


@register_batch_kernel("conservatism_audit")
def _conservatism_audit_batch(config, planes, seeds):
    return _kernels.conservatism_sweep(
        *(planes[name] for name in ("mode", "sigma", "belief_bound", "beta"))
    )


register(SurvivalUpdatePipeline())
register(TwoLegPosteriorPipeline())
register(BbnQueryPipeline())
register(CaseConfidencePipeline())
register(SilClassificationPipeline())
register(PanelRunPipeline())
register(SilFromGrowthPipeline())
register(ElicitationPoolPipeline())
register(ExpertCalibrationPipeline())
register(AlarpDecisionPipeline())
register(Iec61508SilPipeline())
register(Do178bMapPipeline())
register(ConservatismAuditPipeline())
