"""Linear-Gaussian Kalman filter: predict and update steps.

Serves three roles: a single-target baseline, the exact oracle that the
particle filters are checked against, and the engine of every Gaussian
particle's predict and conditional update.  Each step takes only the
matrices it reads, so the GPF passes its effective H and R directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussians import GaussianState, chol_with_jitter, _symmetrize


def _check_psd_shape(m: np.ndarray, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if not np.allclose(m, m.T, atol=1e-9):
        raise ValueError(f"{name} must be symmetric")
    return m


@dataclass
class LinearGaussianModel:
    """x' = F x + v,  z = H x + w,  v ~ N(0, Q),  w ~ N(0, R)."""

    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        self.F = np.atleast_2d(np.asarray(self.F, dtype=float))
        self.Q = _check_psd_shape(self.Q, "Q")
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.R = _check_psd_shape(self.R, "R")
        n = self.F.shape[0]
        if self.F.shape != (n, n):
            raise ValueError(f"F must be square, got {self.F.shape}")
        if self.Q.shape != (n, n):
            raise ValueError(f"Q shape {self.Q.shape} does not match state dim {n}")
        if self.H.shape[1] != n:
            raise ValueError(f"H shape {self.H.shape} does not match state dim {n}")
        if self.R.shape != (self.H.shape[0], self.H.shape[0]):
            raise ValueError(
                f"R shape {self.R.shape} does not match measurement dim {self.H.shape[0]}"
            )

    @property
    def meas_dim(self) -> int:
        return self.H.shape[0]


class KalmanUpdate(NamedTuple):
    posterior: GaussianState
    residual: np.ndarray
    innovation_cov: np.ndarray
    gain: np.ndarray


def kf_predict_moments(
    means: np.ndarray, covs: np.ndarray, f: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Time update over leading axes: mean F x, covariance F Sigma F' + Q.

    means (..., d), covs (..., d, d); f, q 2-D.  The caller symmetrizes the
    covariances (GaussianState and GpfParticleSet do on construction).
    F @ x[..., None] gives each row the bits of F @ x, which x @ F' does not.
    """
    if means.shape[-1] != f.shape[0]:
        raise ValueError(f"state dim {means.shape[-1]} does not match F dim {f.shape[0]}")
    return (f @ means[..., None])[..., 0], f @ covs @ f.T + q


def kf_predict(prior: GaussianState, f: np.ndarray, q: np.ndarray) -> GaussianState:
    """Time update of one Gaussian: kf_predict_moments on its mean and cov."""
    return GaussianState(*kf_predict_moments(prior.mean, prior.cov, f, q))


def kf_update(
    pred: GaussianState, h: np.ndarray, r: np.ndarray, z: np.ndarray
) -> KalmanUpdate:
    """Measurement update with the optimal gain (h, r: 2-D arrays).

    y = z - H x,  S = H Sigma H' + R,  K = Sigma H' S^-1,
    x+ = x + K y.  The covariance is propagated in Joseph form,
    (I - KH) Sigma (I - KH)' + K R K', which is algebraically equal to
    (I - KH) Sigma at the optimal gain but keeps the result PSD.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape[0] != h.shape[0]:
        raise ValueError(f"z dim {z.shape[0]} does not match H rows {h.shape[0]}")
    if not np.isfinite(z).all():
        raise ValueError(f"measurement must be finite, got {z}")
    if pred.dim != h.shape[1]:
        raise ValueError(f"state dim {pred.dim} does not match H columns {h.shape[1]}")
    residual = z - h @ pred.mean
    innovation_cov = _symmetrize(h @ pred.cov @ h.T + r)
    chol = chol_with_jitter(innovation_cov)
    # K = Sigma H' S^-1 solved as S K' = H Sigma' to avoid forming S^-1
    kt = np.linalg.solve(chol.T, np.linalg.solve(chol, h @ pred.cov))
    gain = kt.T
    mean = pred.mean + gain @ residual
    i_kh = np.eye(pred.dim) - gain @ h
    cov = i_kh @ pred.cov @ i_kh.T + gain @ r @ gain.T
    return KalmanUpdate(GaussianState(mean, cov), residual, innovation_cov, gain)
