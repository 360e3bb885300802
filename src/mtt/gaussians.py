"""Gaussian algebra shared by every filter in the package.

A tracked hypothesis is a weighted Gaussian: the weight is the probability
that the hypothesized target exists, the Gaussian is its state distribution.
A Gaussian is passed around as its (mean, cov) arrays, and stacks of
Gaussians as (k, d) means and (k, d, d) covs.  This module provides the
primitives the filters build on: log densities, noise factors for
sampling, and moment-matched mixture reduction.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np


class SingularCovarianceError(np.linalg.LinAlgError):
    """Covariance stayed non-invertible even after jitter."""


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """0.5 (M + M') over the last two axes, so stacks of matrices work too."""
    return 0.5 * (m + m.swapaxes(-1, -2))


class ValueEq:
    """Value equality and the store of the package's array records (dataclasses
    built with frozen=True, eq=False): == compares every field with
    np.array_equal, where the generated == would raise on the truth value of a
    multi-element array, and every field is set through _hold or _frozen, which
    make each ndarray read-only as it is."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def _hold(self, **values: object) -> None:
        """Set each named field to its value, an ndarray made read-only as it is."""
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def _frozen(cls, *values: object):
        """The record of values that the caller has just built and gives up, in field
        order, held as they are: no copy, conversion or check.  Only for values that
        hold every invariant of the record, such as rows of checked sets, so the
        result equals a checked construction's bit for bit."""
        record = object.__new__(cls)  # no record declares a ClassVar, so these are its fields
        for name, value in zip(cls.__dataclass_fields__, values, strict=True):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(record, name, value)
        return record


def _checked_moments(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A Gaussian's mean as a float vector and its cov symmetrized (a new array).

    A mean that is not a vector, or a cov that is not (n, n) for a mean of
    n entries, raises ValueError.  Symmetrizing keeps Cholesky
    factorizations from failing on round-off asymmetry alone.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean.ndim != 1:
        raise ValueError(f"mean must be a vector, got shape {mean.shape}")
    n = mean.shape[0]
    if cov.shape != (n, n):
        raise ValueError(f"cov shape {cov.shape} does not match mean dimension {n}")
    return mean, _symmetrize(cov)


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


def inv_2x2_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric 2x2 covariance [[a, b], [b, c]] by formula, accepted,
    jittered or refused as chol_with_jitter does.

    On the Python floats of cov.tolist(), through the Schur complement:
    t = b/a, s = c - t b and S^-1 = [[1/a + t^2/s, -t/s], [-t/s, 1/s]].  No
    product of two entries is formed, as the adjugate's a c - b^2 is, which
    underflows to 0 at small scales.  Like LAPACK's Cholesky it fails iff
    a <= 0 or s <= 0 (nan passes); then it retries once with 1e-12 (a + c)/2
    on the diagonal, and a second failure raises SingularCovarianceError.
    """
    (a, b), (_, c) = cov.tolist()
    inv = _schur_inverse(a, b, c)
    if inv is None:
        jitter = 1e-12 * (a + c) / 2
        inv = _schur_inverse(a + jitter, b, c + jitter)
        if inv is None:
            raise SingularCovarianceError("covariance is numerically singular even after jitter")
    return inv


def _schur_inverse(a: float, b: float, c: float) -> np.ndarray | None:
    """inv_2x2_with_jitter's inverse of [[a, b], [b, c]], or None where it fails."""
    if a <= 0.0:
        return None
    t = b / a
    s = c - t * b
    if s <= 0.0:
        return None
    u = t / s
    return np.array([[1.0 / a + t * u, -u], [-u, 1.0 / s]])


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


def log_pdf(mean: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Log of the multivariate normal density N(x; mean, cov).

    log N(x) = -1/2 [ (x-mu)' Sigma^-1 (x-mu) + n log(2 pi) + log|Sigma| ]

    x is one point (n,), giving a float, or a stack (..., n), giving an
    array (...) from one Cholesky factor L of Sigma.  L u = x - mu is solved
    for all rows at once by forward substitution, one column of u at a
    time, so every row has the bits of a one-point call; for a diagonal L
    (a diagonal Sigma) u is (x - mu) / diag(L), the bits of a LAPACK solve
    per row.  The moments are checked and the cov symmetrized as
    _checked_moments does.
    """
    mean, cov = _checked_moments(mean, cov)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = mean.shape[0]
    if x.shape[-1] != n:
        raise ValueError(f"x shape {x.shape} does not match mean shape {mean.shape}")
    chol = chol_with_jitter(cov)
    # forward substitution over the whole stack: elementwise products and a
    # division (a matvec or a reciprocal rounds differently per row), then
    # a matmul per row that has the bits of u @ u
    r = (x - mean).reshape(-1, n)
    u = np.empty_like(r)
    for i in range(n):
        acc = r[:, i]
        for j in range(i):
            acc = acc - chol[i, j] * u[:, j]
        u[:, i] = acc / chol[i, i]
    quad = (u[:, None, :] @ u[:, :, None]).reshape(x.shape[:-1])
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
    order (a reduction over the row axis), so the result has the bits of a
    row loop.  Mixtures stack over leading axes: weights (..., k), means
    (..., k, d) and covs (..., k, d, d) give means (..., d) and covs
    (..., d, d), each mixture with the bits of its own call.  A mixture whose
    weights do not have a positive total raises ValueError.
    """
    means, covs, weights = (np.asarray(a, dtype=float) for a in (means, covs, weights))
    total = weights.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("mixture weights must have positive total")
    w = (weights / total)[..., None]
    mean = (w * means).sum(axis=-2)
    diff = means - mean[..., None, :]
    cov = (w[..., None] * (covs + diff[..., :, None] * diff[..., None, :])).sum(axis=-3)
    return mean, _symmetrize(cov)


def moment_match_merge(
    weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Collapse a pair of weighted Gaussians, rows of (2,), (2, d) and (2, d, d), into one.

    Returns (weight, mean, cov): the clamped sum of the weights and the pair's
    mixture_moments.  Pairs stack over leading axes as mixtures do, weights
    (..., 2) giving weights (...), and the checks cover the whole stack at
    once: a row count other than 2, a total weight that is not positive and a
    weight that is not finite and non-negative raise ValueError before
    anything is merged.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[-1:] != (2,):
        raise ValueError(f"a merge takes a pair of rows, got weights {weights.shape}")
    total = weights[..., 0] + weights[..., 1]
    if (total <= 0.0).any():
        raise ValueError("total weight of merged particles must be positive")
    if not 0.0 <= weights.min() <= weights.max() < math.inf:  # nan fails too
        raise ValueError(f"merged weights must be finite and non-negative, got {weights.tolist()}")
    mean, cov = mixture_moments(means, covs, weights)
    weight = np.minimum(1.0, total)
    return (float(weight) if weights.ndim == 1 else weight), mean, cov
