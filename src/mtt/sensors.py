"""Measurement models: a mean-of-states vector sensor and a cell-grid
Rayleigh detection sensor, plus strategies for picking which cells to
interrogate each step.
"""

from __future__ import annotations

from bisect import bisect_right
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
        _check_integer_cells(cells)  # not their range: the filter rejects -1 with IndexError
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
    row * cols + col).  The cols + 1 x_edges and rows + 1 y_edges are set
    once here: edge k is the low workspace edge plus k cell widths, the
    last the high workspace edge.  They are tuples, which bisect reads
    fastest; the same edges as read-only arrays (x_edge_array,
    y_edge_array) serve the lookups over arrays.  A cell holds x in
    [x_edges[col], x_edges[col + 1]) and y likewise (cell_contains), so each
    point below the high workspace edges lies in exactly one cell, which
    cell_of finds.

    Grid births read two more things set here: the cell centres along each
    axis (x_center_array, y_center_array, read-only; each the midpoint
    0.5 * (lo + hi) of a cell's bounds) and birth_cov, the read-only 4x4
    covariance of a state at rest placed uniformly in a cell: position
    variance width^2/12 along each axis, unit velocity variance.

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
    x_edges: tuple[float, ...] = field(init=False, repr=False)
    y_edges: tuple[float, ...] = field(init=False, repr=False)
    x_edge_array: np.ndarray = field(init=False, repr=False, compare=False)
    y_edge_array: np.ndarray = field(init=False, repr=False, compare=False)
    x_center_array: np.ndarray = field(init=False, repr=False, compare=False)
    y_center_array: np.ndarray = field(init=False, repr=False, compare=False)
    birth_cov: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_fields(self)
        ws, variances = self.workspace, []
        for axis, lo, hi, n in (("x", ws.x_min, ws.x_max, self.cols),
                                ("y", ws.y_min, ws.y_max, self.rows)):
            width = (hi - lo) / n
            edges = tuple(lo + k * width for k in range(n)) + (hi,)
            array = np.array(edges)
            centers = 0.5 * (array[:-1] + array[1:])
            variances.append((array[1] - array[0]) ** 2 / 12.0)  # of a uniform draw over a cell
            object.__setattr__(self, f"{axis}_edges", edges)
            for name, value in (("edge_array", array), ("center_array", centers)):
                value.setflags(write=False)
                object.__setattr__(self, f"{axis}_{name}", value)
        birth_cov = np.diag([variances[0], 1.0, variances[1], 1.0])
        birth_cov.setflags(write=False)
        object.__setattr__(self, "birth_cov", birth_cov)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def cell_bounds(self, index: int) -> tuple[float, float, float, float]:
        """(x_lo, y_lo, x_hi, y_hi) of a cell; IndexError outside [0, n_cells)."""
        if not 0 <= index < self.n_cells:
            raise IndexError(f"cell index {index} out of range [0, {self.n_cells})")
        row, col = divmod(index, self.cols)
        return self.x_edges[col], self.y_edges[row], self.x_edges[col + 1], self.y_edges[row + 1]

    def cell_contains(self, index: int, x: float, y: float) -> bool:
        x_lo, y_lo, x_hi, y_hi = self.cell_bounds(index)
        return bool(x_lo <= x < x_hi and y_lo <= y < y_hi)

    def cell_of(self, x: float, y: float) -> int | None:
        """Index of the cell holding (x, y); None outside the workspace.

        bisect_right on the edges names the only candidate, clamped into the grid; one
        cell_contains call confirms it and turns away outside, high-edge and NaN points.
        """
        col = min(max(bisect_right(self.x_edges, x) - 1, 0), self.cols - 1)
        row = min(max(bisect_right(self.y_edges, y) - 1, 0), self.rows - 1)
        index = row * self.cols + col
        return index if self.cell_contains(index, x, y) else None

    def cells_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """cell_of over arrays of points: each point's cell, n_cells where cell_of gives None.

        searchsorted(side="right") is bisect_right over the same edges, and the cell_contains
        comparisons confirm each candidate, so every index equals the one cell_of returns.
        """
        x_edges, y_edges = self.x_edge_array, self.y_edge_array
        # clamped by minimum(maximum(...)): np.clip's integers, without its per-call overhead
        col = np.minimum(np.maximum(np.searchsorted(x_edges, xs, side="right") - 1, 0),
                         self.cols - 1)
        row = np.minimum(np.maximum(np.searchsorted(y_edges, ys, side="right") - 1, 0),
                         self.rows - 1)
        inside = ((x_edges[col] <= xs) & (xs < x_edges[col + 1])
                  & (y_edges[row] <= ys) & (ys < y_edges[row + 1]))
        return np.where(inside, row * self.cols + col, self.n_cells)


def mean_sensor_measure(
    truth: np.ndarray, model: MeanSensorModel, rng: np.random.Generator
) -> np.ndarray:
    """Projected arithmetic mean of the (n, 4) true states plus Gaussian noise.

    The mean is the column sum over the count, the arithmetic of ndarray.mean
    without its per-call overhead.
    """
    if len(truth) == 0:
        raise ValueError("mean sensor is undefined for zero targets")
    z = model.position_projection @ (np.asarray(truth, dtype=float).sum(axis=0) / len(truth))
    if model.R.any():
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


def _check_integer_cells(cells: np.ndarray, error: type[Exception] = ValueError) -> None:
    """error unless the array of cells is empty or of an integer dtype (bool is no cell)."""
    if cells.size and cells.dtype.kind not in "iu":
        raise error(f"a cell index in {cells} is not an integer")


def check_cells(cells, n_cells: int, error: type[Exception] = ValueError) -> np.ndarray:
    """cells as an array if it holds integers (bool is no cell) in [0, n_cells), else error."""
    cells = np.asarray(cells)
    _check_integer_cells(cells, error)
    if cells.size and not (0 <= cells.min() and cells.max() < n_cells):
        raise error(f"a cell index in {cells} is out of range [0, {n_cells})")
    return cells


def grid_measure(
    truth: np.ndarray,
    cells: np.ndarray,
    model: GridSensorModel,
    rng: np.random.Generator,
) -> CellReturns:
    """Binary return per interrogated cell, hit with detection_prob(T) for the T rows of
    the (n, 4) truth in it: one rng.random(m) draw (the stream of m scalar draws), and
    detection_prob once per T <= n (numpy's ** over an array can differ in the last bit)."""
    cells = check_cells(cells, model.n_cells)
    if len(cells) > model.m_cells:
        raise ValueError(f"{len(cells)} cells requested but m_cells = {model.m_cells}")
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
