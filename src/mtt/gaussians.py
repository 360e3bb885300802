"""Gaussian algebra shared by every filter in the package.

A tracked hypothesis is a weighted Gaussian: the weight is the probability
that the hypothesized target exists, the Gaussian is its state distribution.
This module provides the primitives the filters build on: log densities,
noise factors for sampling, and moment-matched mixture reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


COV_MODES = ("moment", "plain_sum")  # moment_match_merge's covariance rules


class SingularCovarianceError(np.linalg.LinAlgError):
    """Covariance stayed non-invertible even after jitter."""


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """0.5 (M + M') over the last two axes, so stacks of matrices work too."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _frozen_matrix(m: np.ndarray) -> np.ndarray:
    """A read-only float copy of m, at least 2-D (the models' matrices)."""
    m = np.array(m, dtype=float, ndmin=2)
    m.setflags(write=False)
    return m


class ValueEq:
    """Value equality for the package's array records (dataclasses built with
    eq=False): == compares every field with np.array_equal, where the
    generated == would raise on the truth value of a multi-element array."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class GaussianState(ValueEq):
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


def noise_factor(cov: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Read-only factor A of a symmetric PSD covariance, with A' A = cov.

    rng.standard_normal((k, d)) @ A draws k samples of N(0, cov).  A is
    numpy's own multivariate_normal factor, (u sqrt(s))' from the SVD of
    cov, applied the same way, so the draws and the random stream are
    rng.multivariate_normal's while the SVD runs once per covariance.  A
    matrix the factor does not reproduce (numpy's PSD test) raises ValueError.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{name} must be square, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise ValueError(f"{name} must be symmetric")
    u, s, vh = np.linalg.svd(cov)
    if not np.allclose(vh.T * s @ vh, cov, rtol=1e-8, atol=1e-8):
        raise ValueError(f"{name} must be positive semidefinite, got {cov.tolist()}")
    factor = (u * np.sqrt(s)).T
    factor.setflags(write=False)
    return factor


def log_pdf(g: GaussianState, x: np.ndarray) -> float | np.ndarray:
    """Log of the multivariate normal density N(x; g.mean, g.cov).

    log N(x) = -1/2 [ (x-mu)' Sigma^-1 (x-mu) + n log(2 pi) + log|Sigma| ]

    x is one point (n,), giving a float, or a stack (..., n), giving an
    array (...) from one Cholesky factor of Sigma; every row has the bits
    of a one-point call.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = g.dim
    if x.shape[-1] != n:
        raise ValueError(f"x shape {x.shape} does not match mean shape {g.mean.shape}")
    chol = chol_with_jitter(g.cov)
    # one LAPACK solve per row (a many-column solve rounds differently), and
    # a matmul per row that has the bits of u @ u
    u = np.linalg.solve(chol, (x - g.mean).reshape(-1, n, 1))
    quad = (u.swapaxes(1, 2) @ u).reshape(x.shape[:-1])
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    out = -0.5 * (quad + n * np.log(2.0 * np.pi) + logdet)
    return float(out) if x.ndim == 1 else out


def mixture_moments(
    means: np.ndarray, covs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of a Gaussian mixture with rows (k, d), (k, d, d), (k,).

    mu = sum_i w_i mu_i
    Sigma = sum_i w_i (Sigma_i + (mu_i - mu)(mu_i - mu)')

    with weights normalized to sum to one.  Both sums run over the rows in
    order (an axis-0 reduction), so the result has the bits of a row loop.
    """
    means, covs, weights = (np.asarray(a, dtype=float) for a in (means, covs, weights))
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("mixture weights must have positive total")
    w = weights / total
    mean = (w[:, None] * means).sum(axis=0)
    diff = means - mean
    cov = (w[:, None, None] * (covs + diff[:, :, None] * diff[:, None, :])).sum(axis=0)
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
        cov = _symmetrize(covs.sum(axis=0))
    return min(1.0, float(total)), mean, cov
