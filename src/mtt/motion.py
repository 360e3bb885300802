"""Motion model and the package state-layout convention.

Target states are 4-vectors (x, vx, y, vy): planar position interleaved
with velocity.  POSITION_IDX picks the position components out of a state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussians import ValueEq, _frozen_matrix, noise_factor

POSITION_IDX = (0, 2)


@dataclass(frozen=True, eq=False)
class MotionModel(ValueEq):
    """x' = F x + v,  v ~ N(0, Q): the transition every filter predicts with.

    F must be square and Q symmetric PSD of F's shape; ValueError naming
    the matrix otherwise.  The model is immutable: its matrices are
    read-only copies, and Q_factor, the noise_factor of Q, is computed once
    here for every process-noise draw.
    """

    F: np.ndarray
    Q: np.ndarray
    Q_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("F", "Q"):
            object.__setattr__(self, name, _frozen_matrix(getattr(self, name)))
        n = self.F.shape[0]
        if self.F.shape != (n, n):
            raise ValueError(f"F must be square, got {self.F.shape}")
        if self.Q.shape != (n, n):
            raise ValueError(f"Q shape {self.Q.shape} does not match state dim {n}")
        object.__setattr__(self, "Q_factor", noise_factor(self.Q, "Q"))


def constant_velocity_matrix(tau: float) -> np.ndarray:
    """Transition matrix advancing (x, vx, y, vy) by one step of length tau."""
    return np.array(
        [
            [1.0, tau, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, tau],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def position_projection(state_dim: int = 4) -> np.ndarray:
    """Matrix extracting (x, y) from a state vector."""
    proj = np.zeros((len(POSITION_IDX), state_dim))
    for row, idx in enumerate(POSITION_IDX):
        proj[row, idx] = 1.0
    return proj
