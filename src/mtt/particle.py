"""Classical SIR particle filter for a single target.

Point-mass particles, transition-prior proposal, likelihood weighting,
and resampling triggered when the effective sample size degenerates.
Multi-target handling lives in the Gaussian-particle filter; this module
is the single-target baseline with known association.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussians import ValueEq
from .motion import MotionModel


@dataclass(frozen=True, eq=False)
class PointParticleSet(ValueEq):
    """Point-mass particles with normalized weights, immutable.

    states has shape (N, n); weights has shape (N,) and sums to one.  Both
    are copied on construction and made read-only.  zero_likelihood flags
    a step on which every likelihood vanished and the weights were reset
    to uniform.
    """

    states: np.ndarray
    weights: np.ndarray
    zero_likelihood: bool = False

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=float, ndmin=2)
        weights = np.array(self.weights, dtype=float, ndmin=1)
        if states.shape[0] != weights.shape[0]:
            raise ValueError(f"{states.shape[0]} states but {weights.shape[0]} weights")
        if states.shape[0] < 1:
            raise ValueError("particle set must be non-empty")
        if not (np.isfinite(weights) & (weights >= 0)).all():
            raise ValueError("weights must be finite and non-negative")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        for name, value in (("states", states), ("weights", weights)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    def mean(self) -> np.ndarray:
        return self.weights @ self.states


def effective_sample_size(weights: np.ndarray) -> float:
    """ESS = 1 / sum(w^2) for normalized weights; lies in [1, N]."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"weights are not normalized (sum = {total!r})")
    return float(1.0 / np.sum(weights**2))


def _multinomial_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """N draws with replacement proportional to the normalized weights.

    The draws and the random stream are those of
    rng.choice(N, size=N, replace=True, p=weights): N uniforms searched in
    the normalized cumulative weights, here in sorted order, which finds
    the same indices with less work than one search per unsorted draw.
    """
    n = len(weights)
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    draws = rng.random(n)
    order = np.argsort(draws)
    idx = np.empty(n, dtype=np.intp)
    idx[order] = cdf.searchsorted(draws[order], side="right")
    return idx


def _systematic_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Low-variance systematic indices (one uniform draw per sweep)."""
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(weights), positions)
    return np.clip(idx, 0, n - 1)


# Each scheme maps normalized weights (N,) and the generator to N indices.
_RESAMPLERS = {
    "multinomial": _multinomial_indices,
    "systematic": _systematic_indices,
}


def pf_step(
    pset: PointParticleSet,
    motion: MotionModel,
    likelihood: Callable[[np.ndarray, np.ndarray], np.ndarray],
    z: np.ndarray,
    rng: np.random.Generator,
    ess_ratio: float = 0.5,
    resample: str = "multinomial",
) -> PointParticleSet:
    """One SIR iteration: propagate, reweight, normalize, maybe resample.

    Particles are proposed from the transition prior x' ~ N(F x, Q), the
    noise drawn with the motion model's Q_factor, and reweighted by one call
    likelihood(states (N, n), z) -> (N,) for all of them.  Resampling fires
    iff the effective sample size drops below ess_ratio * N (the customary
    N/2 by default).  If every likelihood is zero the weights fall back to
    uniform and the returned set carries zero_likelihood=True; likelihoods
    of another shape, negative or not finite raise ValueError.  The step
    builds one set, reweighted or resampled, from the arrays it computed.
    """
    if resample not in _RESAMPLERS:
        raise ValueError(f"unknown resampling scheme {resample!r}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.isfinite(z).all():
        raise ValueError(f"measurement must be finite, got {z}")
    n = pset.n_particles
    propagated = pset.states @ motion.F.T
    if motion.Q.any():
        propagated = propagated + rng.standard_normal((n, motion.F.shape[0])) @ motion.Q_factor

    like = np.asarray(likelihood(propagated, z), dtype=float)
    if like.shape != (n,):
        raise ValueError(f"likelihood must return shape ({n},), got {like.shape}")
    if not (np.isfinite(like) & (like >= 0)).all():
        raise ValueError("likelihood returned a negative or non-finite value")
    weights = pset.weights * like
    total = weights.sum()
    degenerate = total <= 0.0
    if degenerate:
        weights = np.full(n, 1.0 / n)
    else:
        weights /= total

    if effective_sample_size(weights) < ess_ratio * n:
        propagated = propagated[_RESAMPLERS[resample](weights, rng)]
        weights = np.full(n, 1.0 / n)
    return PointParticleSet(propagated, weights, zero_likelihood=degenerate)
