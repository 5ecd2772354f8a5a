"""Vectorised sweep kernels.

These functions bridge declarative scenario parameters to batched NumPy
passes: a whole family of scenarios becomes a handful of ``(S, n)``
array operations.  Every kernel mirrors a scalar reference path
elementwise — same formulas, same reduction axes — so batched sweeps
agree with the per-scenario pipelines to 1e-12 (most agree bit-for-bit).

Kernel families:

* **survival** — tail cut-off sweeps over lognormal priors on one grid
  (:func:`survival_sweep_columns`), with `np.unique` dedup of shared
  priors;
* **growth** — Jelinski-Moranda profile-likelihood grids
  (:func:`jm_profile_sweep`) and Littlewood-Verrall lattice grids
  (:func:`lv_lattice_sweep`) over many simulated histories at once;
* **lognormal summaries** — closed-form means/modes/confidences and
  SIL band classification for parameter arrays
  (:func:`lognormal_moments`, :func:`band_confidence_sweep`,
  :func:`granted_levels`, :func:`band_levels_of`; "no level" is
  :data:`NO_LEVEL` in their int64 results);
* **risk / conservatism** — batched ALARP + ACARP verdicts
  (:func:`alarp_sweep`) and the beta-factor 1oo2 conservatism audit
  (:func:`conservatism_sweep`);
* **elicitation** — batched linear-pool summaries
  (:func:`linear_pool_sweep`) and proper-score calibration panels
  (:func:`calibration_sweep`).
"""

from __future__ import annotations

import functools
from typing import Dict, Tuple

import numpy as np

from ..distributions import lognormal_pdf_grid
from ..errors import DomainError
from ..numerics import norm_cdf, norm_ppf
from ..telemetry import tracer
from ..update import survival_update_batch

__all__ = [
    "NO_LEVEL",
    "survival_sweep_columns",
    "jm_profile_sweep",
    "lv_lattice_sweep",
    "lognormal_mu_from_mode",
    "lognormal_moments",
    "lognormal_confidence",
    "lognormal_interval",
    "band_confidence_sweep",
    "granted_levels",
    "band_levels_of",
    "alarp_sweep",
    "conservatism_sweep",
    "linear_pool_sweep",
    "calibration_sweep",
]

#: Scenario-chunk size for the (S, G, n) growth-model grids, keeping the
#: largest temporary around ten million elements.
_GROWTH_CHUNK = 256

#: The SIL level of "no level" in int64 level arrays (levels are >= 1).
NO_LEVEL = -1


def _traced_kernel(kernel):
    """Wrap a batch kernel in a ``kernel.<name>`` tracing span.

    With telemetry off (the default) the wrapper costs one no-op
    context manager per *batch* — nothing per scenario.
    """
    span_name = f"kernel.{kernel.__name__}"

    @functools.wraps(kernel)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return kernel(*args, **kwargs)

    return wrapper


@_traced_kernel
def survival_sweep_columns(
    modes,
    sigmas,
    demands,
    bounds,
    grid: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Vectorised survival-update summaries for aligned parameter arrays.

    All arguments broadcast to a common scenario count ``S``; the return
    value maps column names (``mean``/``median``/``mode``/``confidence``)
    to ``(S,)`` arrays.  Row ``i`` matches the scalar pipeline
    ``survival_update(LogNormal(mode_i, sigma_i), DemandEvidence(n_i))``
    evaluated on ``grid`` to round-off.
    """
    modes_arr = np.atleast_1d(np.asarray(modes, dtype=float))
    sigmas_arr = np.atleast_1d(np.asarray(sigmas, dtype=float))
    demands_arr = np.atleast_1d(np.asarray(demands, dtype=float))
    bounds_arr = np.atleast_1d(np.asarray(bounds, dtype=float))
    modes_arr, sigmas_arr, demands_arr, bounds_arr = np.broadcast_arrays(
        modes_arr, sigmas_arr, demands_arr, bounds_arr
    )
    if np.any(modes_arr <= 0):
        raise DomainError("mode values must be positive")

    # Evaluate each distinct prior once, then gather.
    pairs = np.column_stack([modes_arr, sigmas_arr])
    unique_pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
    unique_mu = np.log(unique_pairs[:, 0]) + unique_pairs[:, 1] * unique_pairs[:, 1]
    unique_rows = lognormal_pdf_grid(unique_mu, unique_pairs[:, 1], grid)
    prior_rows = unique_rows[inverse]

    batch = survival_update_batch(prior_rows, demands_arr, grid)
    return batch.summaries(bound=bounds_arr)


# --------------------------------------------------------------------- #
# Growth-model likelihood grids
# --------------------------------------------------------------------- #

@_traced_kernel
def jm_profile_sweep(
    times_rows: np.ndarray, candidates: np.ndarray
) -> Dict[str, np.ndarray]:
    """Batched Jelinski-Moranda profile-likelihood grid fits.

    ``times_rows`` is an ``(S, n)`` array of interfailure histories (one
    row per scenario, equal length) and ``candidates`` a shared ``(G,)``
    ladder of fault-count candidates (all above ``n``).  For every
    scenario the profile log-likelihood is evaluated at every candidate —
    one ``(S, G, n)`` pass, chunked over scenarios — and the maximiser
    reported.  Row ``i`` matches the scalar loop over
    ``jelinski_moranda.profile_phi`` / ``log_likelihood`` exactly (the
    reductions run over the same ``n``-length axis).
    """
    times_rows = np.atleast_2d(np.asarray(times_rows, dtype=float))
    candidates = np.asarray(candidates, dtype=float)
    n_scenarios, n = times_rows.shape
    if candidates.ndim != 1 or candidates.size < 2:
        raise DomainError("need a 1-D ladder of at least two candidates")
    if np.any(candidates <= n):
        raise DomainError("fault-count candidates must exceed the "
                          "observed failure count")
    if np.any(times_rows <= 0):
        raise DomainError("interfailure times must be positive")

    remaining = candidates[:, np.newaxis] - np.arange(n)[np.newaxis, :]
    sum_log_remaining = np.sum(np.log(remaining), axis=1)

    n_hat = np.empty(n_scenarios)
    phi_hat = np.empty(n_scenarios)
    log_lik = np.empty(n_scenarios)
    best_index = np.empty(n_scenarios, dtype=int)
    for start in range(0, n_scenarios, _GROWTH_CHUNK):
        chunk = slice(start, min(start + _GROWTH_CHUNK, n_scenarios))
        weighted = (
            times_rows[chunk, np.newaxis, :] * remaining[np.newaxis, :, :]
        )
        denom = np.sum(weighted, axis=2)
        phi = n / denom
        ll = (
            n * np.log(phi)
            + sum_log_remaining[np.newaxis, :]
            - phi * denom
        )
        idx = np.argmax(ll, axis=1)
        rows = np.arange(ll.shape[0])
        best_index[chunk] = idx
        n_hat[chunk] = candidates[idx]
        phi_hat[chunk] = phi[rows, idx]
        log_lik[chunk] = ll[rows, idx]
    return {
        "n_faults_hat": n_hat,
        "per_fault_rate_hat": phi_hat,
        "log_lik": log_lik,
        "shows_growth": best_index < candidates.size - 1,
    }


@_traced_kernel
def lv_lattice_sweep(
    times_rows: np.ndarray, lattice: np.ndarray
) -> Dict[str, np.ndarray]:
    """Batched Littlewood-Verrall lattice grid fits.

    ``lattice`` is the ``(G, 3)`` relative lattice from
    :func:`repro.growthmodels.relative_lattice`: ``alpha`` absolute,
    ``beta0``/``beta1`` as multiples of each history's mean interfailure
    time.  One chunked ``(S, G, n)`` pass evaluates the marginal (Pareto)
    log-likelihood everywhere; row ``i`` matches a scalar loop over
    ``littlewood_verrall.log_likelihood`` in lattice row order.
    """
    times_rows = np.atleast_2d(np.asarray(times_rows, dtype=float))
    lattice = np.asarray(lattice, dtype=float)
    n_scenarios, n = times_rows.shape
    if lattice.ndim != 2 or lattice.shape[1] != 3 or lattice.shape[0] < 2:
        raise DomainError("lattice must be a (G, 3) array with G >= 2")
    if np.any(times_rows <= 0):
        raise DomainError("interfailure times must be positive")
    alphas = lattice[:, 0]
    beta0_rel = lattice[:, 1]
    beta1_rel = lattice[:, 2]
    if np.any(alphas <= 0) or np.any(beta0_rel <= 0) or np.any(beta1_rel < 0):
        raise DomainError("lattice requires alpha, beta0 > 0 and beta1 >= 0")

    mean_t = np.mean(times_rows, axis=1)
    indices = np.arange(1, n + 1, dtype=float)

    alpha_hat = np.empty(n_scenarios)
    beta0_hat = np.empty(n_scenarios)
    beta1_hat = np.empty(n_scenarios)
    log_lik = np.empty(n_scenarios)
    # The (S, G, n) temporaries are ~3x larger than JM's, so chunk finer.
    chunk_size = max(_GROWTH_CHUNK // 4, 1)
    for start in range(0, n_scenarios, chunk_size):
        chunk = slice(start, min(start + chunk_size, n_scenarios))
        beta0 = mean_t[chunk, np.newaxis] * beta0_rel[np.newaxis, :]
        beta1 = mean_t[chunk, np.newaxis] * beta1_rel[np.newaxis, :]
        psi = (
            beta0[:, :, np.newaxis]
            + beta1[:, :, np.newaxis] * indices[np.newaxis, np.newaxis, :]
        )
        sum_log_psi = np.sum(np.log(psi), axis=2)
        sum_log_tp = np.sum(
            np.log(times_rows[chunk, np.newaxis, :] + psi), axis=2
        )
        ll = (
            n * np.log(alphas)[np.newaxis, :]
            + alphas[np.newaxis, :] * sum_log_psi
            - (alphas[np.newaxis, :] + 1.0) * sum_log_tp
        )
        idx = np.argmax(ll, axis=1)
        rows = np.arange(ll.shape[0])
        alpha_hat[chunk] = alphas[idx]
        beta0_hat[chunk] = beta0[rows, idx]
        beta1_hat[chunk] = beta1[rows, idx]
        log_lik[chunk] = ll[rows, idx]
    return {
        "alpha_hat": alpha_hat,
        "beta0_hat": beta0_hat,
        "beta1_hat": beta1_hat,
        "log_lik": log_lik,
    }


# --------------------------------------------------------------------- #
# Closed-form lognormal summaries and band classification
# --------------------------------------------------------------------- #

def lognormal_mu_from_mode(modes, sigmas) -> np.ndarray:
    """``mu`` for lognormals given (mode, sigma) arrays — elementwise the
    same expression as ``LogNormalJudgement.from_mode_sigma``."""
    modes = np.asarray(modes, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if np.any(modes <= 0):
        raise DomainError("mode values must be positive")
    if np.any(sigmas <= 0):
        raise DomainError("sigma values must be positive")
    return np.log(modes) + sigmas * sigmas


def lognormal_moments(mu, sigma) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean, mode, variance)`` arrays for lognormal parameter arrays,
    elementwise identical to the scalar ``LogNormalJudgement`` methods."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s2 = sigma**2
    mean = np.exp(mu + 0.5 * s2)
    mode = np.exp(mu - s2)
    variance = (np.exp(s2) - 1.0) * np.exp(2.0 * mu + s2)
    return mean, mode, variance


def lognormal_confidence(mu, sigma, bounds) -> np.ndarray:
    """``P(X < bound)`` for lognormal parameter arrays — elementwise the
    scalar ``LogNormalJudgement.cdf`` (zero at non-positive bounds)."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if np.any(bounds < 0):
        raise DomainError("claim bound must be non-negative")
    out = np.zeros(np.broadcast(mu, sigma, bounds).shape, dtype=float)
    positive = np.broadcast_to(bounds > 0, out.shape)
    mu_b = np.broadcast_to(mu, out.shape)
    sigma_b = np.broadcast_to(sigma, out.shape)
    bounds_b = np.broadcast_to(bounds, out.shape)
    z = (
        np.log(bounds_b[positive]) - mu_b[positive]
    ) / sigma_b[positive]
    out[positive] = norm_cdf(z)
    return out


def lognormal_interval(mu, sigma, level: float) -> Tuple[np.ndarray, np.ndarray]:
    """Central credible intervals for lognormal parameter arrays,
    elementwise identical to ``JudgementDistribution.credible_interval``."""
    if not 0 < level < 1:
        raise DomainError("credible level must lie strictly in (0, 1)")
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    alpha = (1.0 - level) / 2.0
    low = np.exp(mu + sigma * norm_ppf(alpha))
    high = np.exp(mu + sigma * norm_ppf(1.0 - alpha))
    return low, high


@_traced_kernel
def band_confidence_sweep(mu, sigma, scheme) -> Dict[int, np.ndarray]:
    """One-sided confidence per SIL band for lognormal parameter arrays.

    Returns ``{level: P(X < band upper)}`` with each entry elementwise
    equal to ``band.confidence_better(LogNormalJudgement(mu_i, sigma_i))``.
    """
    return {
        band.level: lognormal_confidence(mu, sigma, band.upper)
        for band in scheme
    }


def granted_levels(
    confidence_by_level: Dict[int, np.ndarray], required
) -> np.ndarray:
    """Best band level claimable at each scenario's required confidence.

    The batched counterpart of ``sil.classify_by_confidence``: entry
    ``i`` is the highest level whose confidence meets ``required[i]``, or
    :data:`NO_LEVEL`.
    """
    required = np.asarray(required, dtype=float)
    if np.any((required <= 0) | (required >= 1)):
        raise DomainError("required confidence must lie strictly in (0, 1)")
    granted = np.full(required.shape, NO_LEVEL, dtype=np.int64)
    for level in sorted(confidence_by_level):  # ascending levels
        granted[confidence_by_level[level] >= required] = level
    return granted


def band_levels_of(values, scheme) -> np.ndarray:
    """Band levels containing each value (the batched ``BandScheme.level_of``
    including its cap: values better than the best band saturate to it),
    :data:`NO_LEVEL` outside every band."""
    values = np.asarray(values, dtype=float)
    levels = np.full(values.shape, NO_LEVEL, dtype=np.int64)
    for band in scheme:
        levels[(band.lower <= values) & (values < band.upper)] = band.level
    best = scheme.band(scheme.levels[-1])
    levels[(values >= 0) & (values < best.lower)] = best.level
    return levels


# --------------------------------------------------------------------- #
# Risk and conservatism
# --------------------------------------------------------------------- #

@_traced_kernel
def alarp_sweep(
    modes, sigmas, intolerable, acceptable, required
) -> Dict[str, np.ndarray]:
    """Batched ALARP + ACARP verdicts for lognormal judgement arrays.

    Elementwise the scalar ``risk.combined_verdict`` on
    ``LogNormalJudgement.from_mode_sigma(mode_i, sigma_i)``: region of
    the mean, confidences of staying out of the unacceptable / inside
    the broadly-acceptable region, and the ACARP comparison.
    """
    from ..risk import classify_values

    modes, sigmas, intolerable, acceptable, required = np.broadcast_arrays(
        np.atleast_1d(np.asarray(modes, dtype=float)),
        np.asarray(sigmas, dtype=float),
        np.asarray(intolerable, dtype=float),
        np.asarray(acceptable, dtype=float),
        np.asarray(required, dtype=float),
    )
    if np.any((required <= 0) | (required >= 1)):
        raise DomainError("required confidence must lie strictly in (0, 1)")
    mu = lognormal_mu_from_mode(modes, sigmas)
    mean, _, _ = lognormal_moments(mu, sigmas)
    regions = classify_values(mean, intolerable, acceptable)
    not_unacceptable = lognormal_confidence(
        mu, sigmas, np.minimum(intolerable, 1.0)
    )
    broadly = lognormal_confidence(mu, sigmas, np.minimum(acceptable, 1.0))
    # evaluate() computes gap = required - achieved and meets = gap <= 0.
    acarp_met = (required - not_unacceptable) <= 0
    return {
        "mean": mean,
        "region": np.array([r.value for r in regions], dtype=object),
        "confidence_not_unacceptable": not_unacceptable,
        "confidence_broadly_acceptable": broadly,
        "acarp_met": acarp_met,
    }


@_traced_kernel
def conservatism_sweep(
    modes, sigmas, belief_bounds, betas
) -> Dict[str, np.ndarray]:
    """Batched stage-wise-vs-end-to-end conservatism audit (1oo2 pair).

    Elementwise the scalar route through ``SinglePointBelief.of`` /
    ``worst_case_failure_probability`` / ``stagewise_pair_bound`` and the
    analytic beta-factor pair mean of ``core.propagation``.
    """
    from ..core import analytic_critical_beta, analytic_pair_mean

    modes, sigmas, belief_bounds, betas = np.broadcast_arrays(
        np.atleast_1d(np.asarray(modes, dtype=float)),
        np.asarray(sigmas, dtype=float),
        np.asarray(belief_bounds, dtype=float),
        np.asarray(betas, dtype=float),
    )
    if np.any((belief_bounds < 0) | (belief_bounds > 1)):
        raise DomainError("belief bound must lie in [0, 1]")
    if np.any((betas < 0) | (betas > 1)):
        raise DomainError("beta must lie in [0, 1]")
    mu = lognormal_mu_from_mode(modes, sigmas)
    confidence = lognormal_confidence(mu, sigmas, belief_bounds)
    doubt = 1.0 - confidence
    # worst_case_failure_probability with zero perfection mass:
    # x + y - (x + 0) * y, kept in that exact grouping.
    per_channel = doubt + belief_bounds - (doubt + 0.0) * belief_bounds
    stagewise = per_channel * per_channel
    mean, _, variance = lognormal_moments(mu, sigmas)
    second = variance + mean * mean
    end_to_end = analytic_pair_mean(mean, second, betas)
    return {
        "channel_mean": mean,
        "stagewise_bound": stagewise,
        "end_to_end_mean": end_to_end,
        "conservatism_holds": stagewise >= end_to_end,
        "critical_beta": analytic_critical_beta(mean, second, stagewise),
    }


# --------------------------------------------------------------------- #
# Elicitation
# --------------------------------------------------------------------- #

@_traced_kernel
def linear_pool_sweep(
    modes: np.ndarray,
    sigmas: np.ndarray,
    weights: np.ndarray,
    bounds,
) -> Dict[str, np.ndarray]:
    """Batched linear-pool summaries for ``(S, E)`` panels of lognormals.

    Applies the same weight normalisation as ``MixtureJudgement`` and
    returns the pooled mean and pooled one-sided confidence at each
    scenario's bound; row ``i`` matches
    ``linear_pool(judgements_i, weights_i)`` summaries to round-off
    (the only difference is NumPy's pairwise summation over experts).
    """
    modes = np.atleast_2d(np.asarray(modes, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    if modes.shape != sigmas.shape or modes.shape != weights.shape:
        raise DomainError("modes, sigmas and weights must share a shape")
    if np.any(weights < 0):
        raise DomainError("mixture weights must be non-negative")
    totals = weights.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise DomainError("each panel needs positive total weight")
    weights = weights / totals
    bounds = np.broadcast_to(
        np.asarray(bounds, dtype=float), (modes.shape[0],)
    )
    mu = lognormal_mu_from_mode(modes, sigmas)
    means, _, _ = lognormal_moments(mu, sigmas)
    confidences = lognormal_confidence(mu, sigmas, bounds[:, np.newaxis])
    return {
        "pooled_mean": np.sum(weights * means, axis=1),
        "pooled_confidence": np.sum(weights * confidences, axis=1),
    }


@_traced_kernel
def calibration_sweep(
    stated: np.ndarray,
    truths: np.ndarray,
    claim_bounds: np.ndarray,
    interval_low: np.ndarray,
    interval_high: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Batched proper-score calibration of experts against ground truths.

    ``stated`` holds each scenario's stated confidence in
    ``truth < claim_bound``; ``truths`` is ``(S, Q)``.  Row ``i`` matches
    ``elicitation.calibration_report`` (Brier, log score, 90 % interval
    coverage) with the expert's fixed judgement repeated across the
    scenario's questions.
    """
    stated = np.atleast_1d(np.asarray(stated, dtype=float))
    truths = np.atleast_2d(np.asarray(truths, dtype=float))
    claim_bounds = np.broadcast_to(
        np.asarray(claim_bounds, dtype=float), stated.shape
    )
    if np.any((stated < 0) | (stated > 1)):
        raise DomainError("stated probabilities must lie in [0, 1]")
    if truths.shape[0] != stated.shape[0] or truths.shape[1] < 1:
        raise DomainError("need a (S, Q) truth matrix aligned with stated")
    outcomes = truths < claim_bounds[:, np.newaxis]
    outcome_values = np.where(outcomes, 1.0, 0.0)
    briers = (stated[:, np.newaxis] - outcome_values) ** 2
    prob = np.where(outcomes, stated[:, np.newaxis],
                    1.0 - stated[:, np.newaxis])
    with np.errstate(divide="ignore"):
        logs = np.where(prob == 0.0, np.inf,
                        -np.log(np.where(prob > 0.0, prob, 1.0)))
    hits = (
        (np.asarray(interval_low, dtype=float)[:, np.newaxis] <= truths)
        & (truths <= np.asarray(interval_high, dtype=float)[:, np.newaxis])
    )
    coverage = np.sum(hits, axis=1) / truths.shape[1]
    return {
        "mean_brier": np.mean(briers, axis=1),
        "mean_log_score": np.mean(logs, axis=1),
        "coverage_90": coverage,
        "overconfident": coverage < 0.8,
    }
