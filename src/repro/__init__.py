"""repro — quantitative confidence in dependability cases.

A production-oriented reproduction of Bloomfield, Littlewood & Wright,
*Confidence: its role in dependability cases for risk assessment*
(DSN 2007).  The library treats an assessor's confidence in a
dependability claim as a first-class, quantified object:

* judgement distributions over pfds / failure rates
  (:mod:`repro.distributions`), including the paper's log-normal
  (mode, spread) model and the worst-case layouts of its Section 3.4;
* SIL bands, classification and claim discounting (:mod:`repro.sil`);
* the confidence calculus — claims, confidence/mean trade-offs, the
  conservative ``x + y - xy`` bound, ACARP, case assembly
  (:mod:`repro.core`);
* multi-legged arguments, quantified whole-case graphs and the compiled
  case engine over an exact discrete Bayesian-network engine
  (:mod:`repro.arguments`, :mod:`repro.bbn`);
* Bayesian updating from testing and operating experience, tail
  cut-offs, and the Bishop-Bloomfield conservative growth bound
  (:mod:`repro.update`);
* expert elicitation, opinion pooling and the four-phase Delphi panel
  simulation (:mod:`repro.elicitation`, :mod:`repro.experiment`);
* risk models and ALARP/ACARP decision support (:mod:`repro.risk`);
* standards tables (:mod:`repro.standards`);
* a batched scenario-sweep engine with vectorised kernels and a
  streaming executor (:mod:`repro.engine`), incremental reruns through
  a tiled result store (:mod:`repro.store`), and all compiled artefacts
  memoised through one unified cache (:mod:`repro.compilecache`);
* built-in observability — tracing spans, a metrics registry and
  profiling summaries across the whole plan/compile/execute stack,
  off by default at ~zero cost (:mod:`repro.telemetry`).

Quickstart::

    from repro import LogNormalJudgement, assess

    judgement = LogNormalJudgement.from_mode_sigma(mode=0.003, sigma=0.9)
    print(assess(judgement).summary())
"""

from . import compilecache, telemetry
from .arguments import CompiledCase, QuantifiedCase, compile_case, load_case
from .core import (
    AcarpTarget,
    ConfidenceProfile,
    DependabilityCase,
    PfdBoundClaim,
    SilClaim,
    SinglePointBelief,
    design_for_claim,
    required_confidence,
    worst_case_failure_probability,
)
from .distributions import (
    BetaJudgement,
    GammaJudgement,
    JudgementDistribution,
    LogNormalJudgement,
    TwoPointWorstCase,
)
from .engine import ResultSet, ScenarioSpec, SweepSpec, run_sweep
from .sil import LOW_DEMAND, HIGH_DEMAND, assess
from .update import DemandEvidence, confidence_growth, survival_update

__version__ = "1.0.0"

__all__ = [
    "CompiledCase",
    "QuantifiedCase",
    "compile_case",
    "load_case",
    "AcarpTarget",
    "ConfidenceProfile",
    "DependabilityCase",
    "PfdBoundClaim",
    "SilClaim",
    "SinglePointBelief",
    "design_for_claim",
    "required_confidence",
    "worst_case_failure_probability",
    "BetaJudgement",
    "GammaJudgement",
    "JudgementDistribution",
    "LogNormalJudgement",
    "TwoPointWorstCase",
    "ResultSet",
    "ScenarioSpec",
    "SweepSpec",
    "run_sweep",
    "LOW_DEMAND",
    "HIGH_DEMAND",
    "assess",
    "DemandEvidence",
    "confidence_growth",
    "survival_update",
    "__version__",
]
