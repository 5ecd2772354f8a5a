"""Approximate inference by likelihood weighting.

A Monte-Carlo cross-check for the exact engines and the tool of choice if
argument networks ever grow beyond exact reach.

:func:`likelihood_weighting` keeps its historical signature but runs on
the compiled vectorized sampler (:mod:`repro.bbn.compiled`): the whole
sample matrix is forward-filled column-by-column in topological order and
weights accumulate as arrays, with no Python per-sample loop.  The
vectorized draws consume the seeded stream in exactly the order the old
loop did, so results are draw-for-draw reproducible across the swap.  The
retired loop lives in :mod:`repro.bbn.oracles` as the oracle the compiled
sampler is tested and benchmarked against.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

import numpy as np

from .compiled import compile_network
from .network import BayesianNetwork

__all__ = ["likelihood_weighting"]


def likelihood_weighting(
    network: BayesianNetwork,
    target: str,
    evidence: Optional[Mapping[str, str]] = None,
    n_samples: int = 10_000,
    rng: Union[None, int, np.random.Generator] = None,
) -> Dict[str, float]:
    """Approximate ``P(target | evidence)`` by likelihood weighting.

    Evidence variables are clamped and weighted by their CPT likelihood;
    other variables are forward-sampled in topological order — vectorized
    over all ``n_samples`` at once via the network's compiled form.

    ``rng`` may be a :class:`numpy.random.Generator` threaded in from the
    caller (the reproducible path — sweeps give every scenario its own
    spawned stream) or an integer seed; ``None`` draws fresh OS entropy.
    """
    return compile_network(network).likelihood_weighting(
        target, evidence, n_samples=n_samples, rng=rng
    )
