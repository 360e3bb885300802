"""Measurement models: a mean-of-states vector sensor and a cell-grid
Rayleigh detection sensor, plus strategies for picking which cells to
interrogate each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import Range, check_fields, declare
from .gaussians import ValueEq, _frozen_matrix, noise_factor
from .motion import POSITION_IDX
from .regions import Rectangle


@dataclass(frozen=True, eq=False)
class MeanSensorModel(ValueEq):
    """z = projection(arithmetic mean of all target states) + N(0, R).

    R must be symmetric PSD.  The model is immutable: its matrices are
    read-only copies, and R_factor, the noise_factor of R, is computed once
    here for every measurement.
    """

    R: np.ndarray
    position_projection: np.ndarray
    R_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("R", "position_projection"):
            object.__setattr__(self, name, _frozen_matrix(getattr(self, name)))
        r = self.position_projection.shape[0]
        if self.R.shape != (r, r):
            raise ValueError(
                f"R shape {self.R.shape} does not match projection rows {r}"
            )
        object.__setattr__(self, "R_factor", noise_factor(self.R, "R"))

    @property
    def meas_dim(self) -> int:
        return self.position_projection.shape[0]


@dataclass(frozen=True, eq=False)
class CellReturns(ValueEq):
    """One step's binary detections, checked once here and held as read-only int64
    arrays: values[k] is the return of cells[k], in interrogation order (repeats allowed)."""

    cells: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        cells, values = np.asarray(self.cells), np.asarray(self.values)  # no dtype=int: 1.5 -> 1
        if cells.ndim != 1 or values.shape != cells.shape:
            raise ValueError(f"want cells, values of shape (m,): {cells.shape}, {values.shape}")
        if cells.size and cells.dtype.kind not in "iu":  # bool too: True is no cell
            raise ValueError(f"cell indices must be integers, got {cells}")
        if values.dtype != bool and not ((values == 0) | (values == 1)).all():
            raise ValueError(f"cell returns must be 0 or 1, got {values}")
        for name, value in (("cells", cells), ("values", values)):
            value = value.astype(np.int64)  # a copy: the record never shares the caller's array
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GridSensorModel:
    """Detection grid: the workspace tiled by rows x cols equal cells.

    Cells are indexed row-major from the workspace origin corner (index =
    row * cols + col).  Containment is half-open, x in [x_lo, x_hi) and
    y in [y_lo, y_hi), and a cell's high edge is the next cell's low edge
    (the last cell's is the workspace edge), so every workspace point
    below the high workspace edges lies in exactly one cell: cell_of
    finds it, and cell_contains is the membership rule.

    p_d is the single-target detection probability, snr the known
    signal-to-noise ratio of the Rayleigh return model, m_cells the
    maximum number of cells interrogated per step.
    """

    workspace: Rectangle
    rows: int = declare(12, Range(1))
    cols: int = declare(12, Range(1))
    p_d: float = declare(0.9, Range(0.0, 1.0, lo_open=True, hi_open=True))
    snr: float = declare(3.0, Range(0.0, lo_open=True))
    m_cells: int = declare(12, Range(1))

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def cell_bounds(self, index: int) -> tuple[float, float, float, float]:
        """(x_lo, y_lo, x_hi, y_hi) of a cell; IndexError outside [0, n_cells)."""
        if not 0 <= index < self.n_cells:
            raise IndexError(f"cell index {index} out of range [0, {self.n_cells})")
        row, col = divmod(index, self.cols)
        ws = self.workspace
        width = (ws.x_max - ws.x_min) / self.cols
        height = (ws.y_max - ws.y_min) / self.rows
        x_hi = ws.x_max if col == self.cols - 1 else ws.x_min + (col + 1) * width
        y_hi = ws.y_max if row == self.rows - 1 else ws.y_min + (row + 1) * height
        return ws.x_min + col * width, ws.y_min + row * height, x_hi, y_hi

    def cell_center(self, index: int) -> tuple[float, float]:
        x_lo, y_lo, x_hi, y_hi = self.cell_bounds(index)
        return 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)

    def cell_contains(self, index: int, x: float, y: float) -> bool:
        x_lo, y_lo, x_hi, y_hi = self.cell_bounds(index)
        return bool(x_lo <= x < x_hi and y_lo <= y < y_hi)

    def cell_of(self, x: float, y: float) -> int | None:
        """Index of the cell holding (x, y); None outside the workspace.

        The lattice coordinates propose a cell; rounding can move it one past
        an edge, so cell_contains confirms it or one of its in-grid neighbours.
        """
        ws = self.workspace
        if not (ws.x_min <= x < ws.x_max and ws.y_min <= y < ws.y_max):
            return None
        col = min(int((x - ws.x_min) / (ws.x_max - ws.x_min) * self.cols), self.cols - 1)
        row = min(int((y - ws.y_min) / (ws.y_max - ws.y_min) * self.rows), self.rows - 1)
        for r in (row, row - 1, row + 1):
            for c in (col, col - 1, col + 1):
                if 0 <= r < self.rows and 0 <= c < self.cols:
                    if self.cell_contains(r * self.cols + c, x, y):
                        return r * self.cols + c
        return None


def mean_sensor_measure(
    truth: np.ndarray, model: MeanSensorModel, rng: np.random.Generator
) -> np.ndarray:
    """Projected arithmetic mean of the (n, 4) true states plus Gaussian noise."""
    if len(truth) == 0:
        raise ValueError("mean sensor is undefined for zero targets")
    z = model.position_projection @ np.asarray(truth, dtype=float).mean(axis=0)
    if np.any(model.R):
        z = z + (rng.standard_normal((1, model.meas_dim)) @ model.R_factor)[0]
    return z


def detection_prob(t: int, p_d: float, snr: float) -> float:
    """Hit probability of a cell holding t targets under Rayleigh
    threshold detection: p_d ** ((1 + snr) / (1 + t * snr)).

    t = 0 gives the false-alarm probability p_d ** (1 + snr); t = 1 gives
    p_d exactly; the probability increases strictly with t.
    """
    if t < 0:
        raise ValueError(f"target count must be non-negative, got {t}")
    return float(p_d ** ((1.0 + snr) / (1.0 + t * snr)))


def grid_measure(
    truth: np.ndarray,
    cells: np.ndarray,
    model: GridSensorModel,
    rng: np.random.Generator,
) -> CellReturns:
    """Binary return per interrogated cell, hit with detection_prob(T) for the T rows of
    the (n, 4) truth in it: one rng.random(m) draw (the stream of m scalar draws), and
    detection_prob once per T <= n (numpy's ** over an array can differ in the last bit)."""
    cells = np.asarray(cells)
    if len(cells) > model.m_cells:
        raise ValueError(f"{len(cells)} cells requested but m_cells = {model.m_cells}")
    if cells.size and not (cells.dtype.kind in "iu" and 0 <= cells.min()
                           and cells.max() < model.n_cells):  # bool too: True is no cell
        raise ValueError(f"cell indices must be integers in [0, {model.n_cells}): {cells}")
    xi, yi = POSITION_IDX
    occupied = [c for c in (model.cell_of(s[xi], s[yi]) for s in truth) if c is not None]
    t = np.bincount(occupied, minlength=model.n_cells)[cells.astype(np.intp)]  # [] reads as float
    p_hit = np.array([detection_prob(n, model.p_d, model.snr) for n in range(len(occupied) + 1)])
    return CellReturns(cells, rng.random(len(cells)) < p_hit[t])


CELL_STRATEGIES = ("random", "round_robin", "fixed_list")  # select_cells' strategies


def select_cells(
    strategy: str,
    model: GridSensorModel,
    rng: np.random.Generator,
    step: int = 0,
    fixed: list[int] | None = None,
) -> np.ndarray:
    """Pick up to m_cells cell indices to interrogate, as an int64 array.

    random: uniform without replacement.  round_robin: deterministic
    sweep of m_cells consecutive indices advancing with the step counter.
    fixed_list: the caller-provided indices, unchanged (repeats allowed).
    """
    m = min(model.m_cells, model.n_cells)
    if strategy == "random":
        return rng.choice(model.n_cells, size=m, replace=False)
    if strategy == "round_robin":
        return (step * m + np.arange(m)) % model.n_cells
    if strategy == "fixed_list":
        if fixed is None or len(fixed) == 0:
            raise ValueError("fixed_list strategy requires a cell list")
        return np.array(fixed)
    raise ValueError(f"unknown cell-selection strategy {strategy!r}")
