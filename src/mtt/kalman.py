"""Linear-Gaussian Kalman filter: predict and update steps.

Serves three roles: a single-target baseline, the exact oracle that the
particle filters are checked against, and the engine of every Gaussian
particle's predict and conditional update.  Each step takes only the
matrices it reads, so the GPF updates a combination's stacked state with
its own H and the sensor's R.  Every measurement the package makes is 2-D,
so every update it runs inverts a 2x2 innovation covariance by formula.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gaussians import _checked_moments, _symmetrize, chol_with_jitter, inv_2x2_with_jitter


class KalmanUpdate(NamedTuple):
    mean: np.ndarray
    cov: np.ndarray
    residual: np.ndarray
    innovation_cov: np.ndarray
    gain: np.ndarray


def kf_predict(
    means: np.ndarray, covs: np.ndarray, f: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Time update over leading axes: mean F x, covariance F Sigma F' + Q.

    means (..., d), covs (..., d, d); f, q 2-D.  The covariances come back
    as computed, not symmetrized: kf_update and GpfParticleSet symmetrize
    what they are given.  F @ x[..., None] gives each row the bits of
    F @ x, which x @ F' does not.  F' is copied to a C-contiguous array:
    numpy's stacked matmul is faster with it than with the f.T view and
    gives the same bits.
    """
    if means.shape[-1] != f.shape[0]:
        raise ValueError(f"state dim {means.shape[-1]} does not match F dim {f.shape[0]}")
    return (f @ means[..., None])[..., 0], f @ covs @ np.ascontiguousarray(f.T) + q


def kf_update(
    mean: np.ndarray, cov: np.ndarray, h: np.ndarray, r: np.ndarray, z: np.ndarray
) -> KalmanUpdate:
    """Measurement update of N(mean, cov) with the optimal gain (h, r: 2-D arrays).

    y = z - H x,  S = H Sigma H' + R,  K = Sigma H' S^-1,
    x+ = x + K y.  H Sigma is formed once, for S = (H Sigma) H' + R and for
    the gain.  A 2x2 S is inverted by inv_2x2_with_jitter's formula and
    K = (H Sigma)' S^-1, with no numpy.linalg call; another size solves
    S K' = H Sigma through chol_with_jitter's factor.  Either way a
    non-positive-definite S is jittered once, then raises
    SingularCovarianceError.  The covariance is propagated in Joseph form,
    (I - KH) Sigma (I - KH)' + K R K', which is algebraically equal to
    (I - KH) Sigma at the optimal gain but keeps the result PSD.  The prior
    is checked and its cov symmetrized as _checked_moments does, and the
    posterior cov is returned symmetrized.
    """
    mean, cov = _checked_moments(mean, cov)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape[0] != h.shape[0]:
        raise ValueError(f"z dim {z.shape[0]} does not match H rows {h.shape[0]}")
    if not np.isfinite(z).all():
        raise ValueError(f"measurement must be finite, got {z}")
    n = mean.shape[0]
    if n != h.shape[1]:
        raise ValueError(f"state dim {n} does not match H columns {h.shape[1]}")
    residual = z - h @ mean
    h_cov = h @ cov  # once for both: h @ cov @ h.T is (h @ cov) @ h.T
    innovation_cov = _symmetrize(h_cov @ h.T + r)
    if innovation_cov.shape == (2, 2):
        gain = h_cov.T @ inv_2x2_with_jitter(innovation_cov)
    else:
        # K = Sigma H' S^-1 solved as S K' = H Sigma' to avoid forming S^-1
        chol = chol_with_jitter(innovation_cov)
        gain = np.linalg.solve(chol.T, np.linalg.solve(chol, h_cov)).T
    i_kh = np.eye(n) - gain @ h
    post_cov = _symmetrize(i_kh @ cov @ i_kh.T + gain @ r @ gain.T)
    return KalmanUpdate(mean + gain @ residual, post_cov, residual, innovation_cov, gain)
