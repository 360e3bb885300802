"""Gaussian algebra shared by every filter in the package.

A tracked hypothesis is a weighted Gaussian: the weight is the probability
that the hypothesized target exists, the Gaussian is its state distribution.
This module provides the primitives the filters build on: log densities
and moment-matched mixture reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


COV_MODES = ("moment", "plain_sum")  # moment_match_merge's covariance rules


class SingularCovarianceError(np.linalg.LinAlgError):
    """Covariance stayed non-invertible even after jitter."""


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """0.5 (M + M') over the last two axes, so stacks of matrices work too."""
    return 0.5 * (m + m.swapaxes(-1, -2))


@dataclass(frozen=True)
class GaussianState:
    """Mean vector plus symmetric PSD covariance, immutable and shareable.

    The mean is copied and the covariance symmetrized (a new array) on
    construction, and both arrays are made read-only, so a state never
    changes after it is built and filters pass states on without copying.
    Symmetrizing also keeps downstream Cholesky factorizations from
    failing on round-off asymmetry alone.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float, ndmin=1)
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"cov shape {cov.shape} does not match mean dimension {n}")
        cov = _symmetrize(cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class GaussianParticle:
    """Existence weight in [0, 1] paired with a Gaussian state hypothesis."""

    weight: float
    state: GaussianState

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", float(self.weight))
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")


def chol_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, retrying once with trace-scaled jitter.

    On the first failure adds 1e-12 * trace(cov)/n to the diagonal and
    retries; a second failure raises SingularCovarianceError.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        n = cov.shape[0]
        jitter = 1e-12 * np.trace(cov) / n
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError(
                "covariance is numerically singular even after jitter"
            ) from exc


def log_pdf(g: GaussianState, x: np.ndarray) -> float:
    """Log of the multivariate normal density N(x; g.mean, g.cov).

    log N(x) = -1/2 [ (x-mu)' Sigma^-1 (x-mu) + n log(2 pi) + log|Sigma| ]
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != g.mean.shape:
        raise ValueError(f"x shape {x.shape} does not match mean shape {g.mean.shape}")
    chol = chol_with_jitter(g.cov)
    u = np.linalg.solve(chol, x - g.mean)
    quad = float(u @ u)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    n = g.dim
    return -0.5 * (quad + n * np.log(2.0 * np.pi) + logdet)


def mixture_moments(
    means: list[np.ndarray], covs: list[np.ndarray], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of a Gaussian mixture (moment matching).

    mu = sum_i w_i mu_i
    Sigma = sum_i w_i (Sigma_i + (mu_i - mu)(mu_i - mu)')

    with weights normalized to sum to one.
    """
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("mixture weights must have positive total")
    w = weights / total
    mean = np.zeros_like(np.asarray(means[0], dtype=float))
    for mu_i, w_i in zip(means, w):
        mean += w_i * np.asarray(mu_i, dtype=float)
    cov = np.zeros((mean.shape[0], mean.shape[0]))
    for mu_i, cov_i, w_i in zip(means, covs, w):
        diff = np.asarray(mu_i, dtype=float) - mean
        cov += w_i * (np.asarray(cov_i, dtype=float) + np.outer(diff, diff))
    return mean, _symmetrize(cov)


def moment_match_merge(
    weights: np.ndarray, means: np.ndarray, covs: np.ndarray, cov_mode: str = "moment"
) -> tuple[float, np.ndarray, np.ndarray]:
    """Collapse weighted Gaussians, rows of (k,), (k, d) and (k, d, d), into one.

    Returns (weight, mean, cov): the clamped sum of the weights and the
    weight-normalized mean.  With cov_mode="moment" the covariance is the
    mixture covariance (spread of means included); "plain_sum" instead adds
    the input covariances unweighted, kept as a fidelity switch for
    experiments.  An unknown cov_mode raises before anything is merged.
    """
    if cov_mode not in COV_MODES:
        raise ValueError(f"unknown cov_mode {cov_mode!r}")
    weights = np.asarray(weights, dtype=float)
    if not len(weights):
        raise ValueError("cannot merge an empty particle list")
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("total weight of merged particles must be positive")
    mean, cov = mixture_moments(means, covs, weights)
    if cov_mode == "plain_sum":
        cov = _symmetrize(sum(covs))
    return min(1.0, float(total)), mean, cov
