"""Gaussian particle filter for multi-target tracking.

The belief over an unknown number of targets is a set of weighted Gaussian
particles: each particle's weight is the probability that its target
exists, each particle's Gaussian is that target's state distribution, and
the expected target count is the sum of the weights.  State dimension never
grows with the number of targets.

A measurement made over the sensor's field of view is explained by
enumerating existence combinations: boolean vectors saying which in-view
particles are assumed present.  Every sufficiently probable combination
gets a conditional Kalman update for each of its active particles (with
the other active particles folded into the effective measurement noise),
a likelihood weight against the predicted measurement, and finally each
particle's weight and state are recovered by marginalizing over the
combinations that contain it.  Nearby particles are merged, low-weight
particles pruned, and detections can seed new ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .domains import Choice, Range, check_field, check_fields, declare
from .gaussians import (
    COV_MODES,
    GaussianParticle,
    GaussianState,
    ValueEq,
    _symmetrize,
    log_pdf,
    mixture_moments,
    moment_match_merge,
)
from .kalman import KalmanUpdate, kf_predict_moments, kf_update
from .motion import POSITION_IDX
from .regions import FovRegion
from .sensors import CellReturns, GridSensorModel, MeanSensorModel, check_cells, detection_prob


class CombinatorialBlowupError(ValueError):
    """Too many in-view particles to enumerate existence combinations."""


@dataclass(frozen=True, eq=False)
class GpfParticleSet(ValueEq):
    """The multi-target belief at one time step: particle i has existence
    weight weights[i] in [0, 1] and Gaussian N(means[i], covs[i]).

    Like GaussianState, a set copies the weights and means, symmetrizes the
    covariances (a new array) and makes all three read-only, so stages
    share sets instead of copying them.  The default is the empty belief
    over the 4-D state.
    """

    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    means: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    covs: np.ndarray = field(default_factory=lambda: np.zeros((0, 4, 4)))
    degenerate_step: bool = False

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        means = np.array(self.means, dtype=float)
        covs = np.asarray(self.covs, dtype=float)
        shapes = (weights.shape, means.shape, covs.shape)
        n, d = means.shape if means.ndim == 2 else (-1, -1)
        if shapes != ((n,), (n, d), (n, d, d)):
            raise ValueError(f"want weights (n,), means (n, d), covs (n, d, d), got {shapes}")
        if not all(0.0 <= w <= 1.0 for w in weights.tolist()):  # faster than numpy at small n
            raise ValueError(f"weights must lie in [0, 1], got {weights}")
        if not (np.isfinite(means).all() and np.isfinite(covs).all()):
            raise ValueError("means and covs must be finite")
        for name, value in (("weights", weights), ("means", means), ("covs", _symmetrize(covs))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def particles(self) -> list[GaussianParticle]:
        """One GaussianParticle per row, in order (a read-only view)."""
        return [
            GaussianParticle(w, GaussianState(m, c))
            for w, m, c in zip(self.weights.tolist(), self.means, self.covs)
        ]


_NO_BIRTHS = GpfParticleSet()  # shared by every mean-sensor step: sets are immutable


class ExistenceCombination(NamedTuple):
    """One hypothesis about which in-view particles are present.

    bits[i] = 1 means particle i of the in-view list is assumed to exist;
    prior is the Bernoulli product of the particle weights.
    """

    bits: tuple[int, ...]
    prior: float


@dataclass(frozen=True)
class GpfConfig:
    """Everything one filter step needs besides the belief and measurement."""

    f_matrix: np.ndarray
    q_matrix: np.ndarray
    sensor: MeanSensorModel | GridSensorModel
    fov: FovRegion = field(default_factory=FovRegion.full)
    epsilon: float = declare(0.01, Range(0.0, 1.0, lo_open=True, hi_open=True))
    d_thresh: float = declare(1.0, Range(0.0, lo_open=True))
    w_prune: float = declare(0.01, Range(0.0, 1.0, hi_open=True))
    n_max: int = declare(100, Range(1))
    w_birth: float = declare(0.1, Range(0.0, 1.0, lo_open=True))
    clutter_density: float = declare(1.0, Range(0.0, lo_open=True))
    merge_cov: str = declare("moment", Choice(COV_MODES))
    s_max: int = declare(20, Range(1))

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_matrix", np.atleast_2d(np.asarray(self.f_matrix, dtype=float)))
        object.__setattr__(self, "q_matrix", np.atleast_2d(np.asarray(self.q_matrix, dtype=float)))
        check_fields(self)


def gpf_predict(pset: GpfParticleSet, f: np.ndarray, q: np.ndarray) -> GpfParticleSet:
    """Kalman-predict every particle's Gaussian; existence weights are untouched.

    The result is not flagged degenerate: the flag reports a step's
    measurement update, which comes after the predict.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    means, covs = kf_predict_moments(pset.means, pset.covs, f, q)
    return GpfParticleSet(pset.weights, means, covs)


def select_fov_particles(pset: GpfParticleSet, fov: FovRegion) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the particles whose mean position is in view, and of the rest.

    The region is closed, so a mean exactly on the boundary counts as in view.
    Only perfbench's select_fov observer, which unpacks a pair, reads the rest.
    """
    xi, yi = POSITION_IDX
    in_view = fov.contains(pset.means[:, xi], pset.means[:, yi])
    return np.flatnonzero(in_view), np.flatnonzero(~in_view)


def enumerate_combinations(
    weights: list[float], epsilon: float, s_max: int = 20
) -> list[ExistenceCombination]:
    """All boolean existence vectors over the in-view weights whose Bernoulli
    prior exceeds epsilon.

    The prior of a vector e is prod_i w_i^e_i (1 - w_i)^(1 - e_i).  The
    search is depth first with pruning: once a partial product is <= epsilon
    it can never recover, because every remaining factor is at most one.
    """
    check_field(GpfConfig, "epsilon", epsilon)
    check_field(GpfConfig, "s_max", s_max)
    s = len(weights)
    if s > s_max:
        raise CombinatorialBlowupError(
            f"{s} particles in view would mean up to 2^{s} combinations; "
            "raise epsilon or shrink the field of view"
        )
    found: list[ExistenceCombination] = []

    def descend(k: int, bits: list[int], partial: float) -> None:
        if partial <= epsilon:
            return
        if k == s:
            found.append(ExistenceCombination(tuple(bits), partial))
            return
        w = weights[k]
        bits.append(1)
        descend(k + 1, bits, partial * w)
        bits[-1] = 0
        descend(k + 1, bits, partial * (1.0 - w))
        bits.pop()

    descend(0, [], 1.0)
    return found


def conditional_kf_update(
    j: int,
    bits: tuple[int, ...],
    means: np.ndarray,
    covs: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    projection: np.ndarray,
) -> KalmanUpdate:
    """Kalman update of in-view prior row j assuming the combination `bits` holds.

    The sensor reports the mean of the active targets, so from particle
    j's point of view the measurement matrix shrinks to projection / n
    (n = number of active particles), the other active particles'
    predicted means are subtracted out of z, and their covariances join
    the measurement noise:

        z'    = z - P (sum_{i != j} e_i mu_i) / n
        H     = P / n
        R_eff = (1/n^2) P (sum_{i != j} e_i Sigma_i) P' + R

    With a single active particle this is exactly the plain Kalman update.
    means (s, d) and covs (s, d, d) are the in-view prior rows; z, r and
    projection are float arrays (1-D, 2-D, 2-D).
    """
    if bits[j] != 1:
        raise ValueError(f"particle {j} is not active in combination {bits}")
    if z.shape != projection.shape[:1]:
        raise ValueError(f"z shape {z.shape} does not match {projection.shape[0]} projection rows")
    n_active = int(sum(bits))
    others = [i for i, e in enumerate(bits) if e and i != j]
    if others:
        z = z - projection @ means[others].sum(axis=0) / n_active
        r = projection @ covs[others].sum(axis=0) @ projection.T / n_active**2 + r
    return kf_update(GaussianState(means[j], covs[j]), projection / n_active, r, z)


def combination_log_weight(
    combo: ExistenceCombination,
    means: np.ndarray,
    covs: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    clutter_density: float,
    projection: np.ndarray,
) -> float:
    """Log of prior times evidence, using the in-view prior rows means (s, d), covs (s, d, d).

    An active combination predicts z ~ N(mu_c, Sigma_c) with
    mu_c = P (sum_active mu_i) / n and
    Sigma_c = (1/n^2) P (sum_active Sigma_i) P' + R.
    The all-zero combination explains the measurement as clutter at the
    configured density.
    """
    active = [i for i, e in enumerate(combo.bits) if e]
    if not active:
        return math.log(combo.prior) + math.log(clutter_density)
    n = len(active)
    mu_c = projection @ means[active].sum(axis=0) / n
    sigma_c = projection @ covs[active].sum(axis=0) @ projection.T / n**2 + r
    return math.log(combo.prior) + log_pdf(GaussianState(mu_c, sigma_c), z)


def normalize_combination_weights(log_weights: list[float]) -> np.ndarray:
    """Combination posteriors from a non-empty list of log weights: exponentiated
    after shifting by their maximum (so none underflows to an all-zero sum),
    normalized to sum to one."""
    raw = np.exp(np.asarray(log_weights, dtype=float) - max(log_weights))
    return raw / raw.sum()


def marginalize_existence(
    bits: np.ndarray,
    posterior: np.ndarray,
    post_means: np.ndarray,
    post_covs: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover the in-view rows (weights, means, covs) from combination posteriors.

    bits (C, s) says which particles each combination holds active,
    posterior (C,) is each combination's normalized weight, and
    post_means (C, s, d) and post_covs (C, s, d, d) hold the conditional
    update of every active (combination, particle) pair; inactive pairs
    are not read.  A particle's existence probability is the total
    posterior of the combinations that contain it; its state is the
    moment-matched mixture of its conditional updates under those
    combinations.  A particle active in no combination passes through
    unchanged, and one whose probability is zero keeps its prior state.
    Returns new arrays.
    """
    if not len(bits):
        raise ValueError("cannot marginalize an empty combination list")
    weights, means, covs = (np.array(a, dtype=float) for a in (weights, means, covs))
    for i in range(len(weights)):
        mine = np.flatnonzero(bits[:, i])
        if not mine.size:
            continue
        mix = posterior[mine]  # summed 1-D, in combination order: a matmul would reorder it
        weights[i] = min(1.0, float(mix.sum()))
        if weights[i] > 0.0:
            means[i], covs[i] = mixture_moments(post_means[mine, i], post_covs[mine, i], mix)
    return weights, means, covs


def _pairwise_position_distances(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Mahalanobis distances between particle position marginals.

    d_ij = (mu_i - mu_j)' (Sigma_i + Sigma_j)^-1 (mu_i - mu_j) over the
    (x, y) components, computed for all pairs at once via the closed-form
    2x2 inverse.  The diagonal is set to +inf.
    """
    xi, yi = POSITION_IDX
    mx, my = means[:, xi], means[:, yi]
    a, b, c = covs[:, xi, xi], covs[:, xi, yi], covs[:, yi, yi]
    dx = mx[:, None] - mx[None, :]
    dy = my[:, None] - my[None, :]
    sa = a[:, None] + a[None, :]
    sb = b[:, None] + b[None, :]
    sc = c[:, None] + c[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (sc * dx**2 - 2.0 * sb * dx * dy + sa * dy**2) / (sa * sc - sb**2)
    d[~np.isfinite(d)] = np.inf
    np.fill_diagonal(d, np.inf)
    return d


def merge_close_particles(
    pset: GpfParticleSet,
    d_thresh: float,
    cov_mode: str = "moment",
) -> GpfParticleSet:
    """Greedily merge the closest particle pair until none is below d_thresh.

    Closeness is the Mahalanobis distance between position marginals with
    metric (Sigma_i + Sigma_j)^-1; qualifying means strictly below
    d_thresh.  Merging combines weights (capped at one) and moment-matches
    the Gaussians.
    """
    check_field(GpfConfig, "d_thresh", d_thresh)
    check_field(GpfConfig, "merge_cov", cov_mode, "cov_mode")
    weights, means, covs = pset.weights, pset.means, pset.covs
    while len(weights) > 1:
        d = _pairwise_position_distances(means, covs)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        if d[i, j] >= d_thresh:
            break
        lo, hi = min(i, j), max(i, j)
        merged = moment_match_merge(weights[[lo, hi]], means[[lo, hi]], covs[[lo, hi]], cov_mode)
        weights, means, covs = (np.delete(a, hi, axis=0) for a in (weights, means, covs))
        weights[lo], means[lo], covs[lo] = merged
    if len(weights) == len(pset):
        return pset  # nothing merged: share the immutable set, skip a construction
    return GpfParticleSet(weights, means, covs, pset.degenerate_step)


def estimate_cardinality(pset: GpfParticleSet) -> float:
    """Expected number of targets: the sum of existence weights, left to right
    (np.sum's pairwise order would change the last bit)."""
    return float(sum(pset.weights.tolist()))


def birth_and_prune(
    pset: GpfParticleSet,
    births: GpfParticleSet,
    w_prune: float,
    n_max: int,
) -> GpfParticleSet:
    """Append birth particles, drop weights below w_prune, cap the count.

    When more than n_max particles survive, the n_max highest-weight ones
    are kept (ties broken by original order) and their ordering preserved.
    """
    check_field(GpfConfig, "w_prune", w_prune)
    check_field(GpfConfig, "n_max", n_max)
    sets = (pset, births) if len(births) else (pset,)  # empty births may differ in d
    weights = np.concatenate([s.weights for s in sets])
    keep = np.nonzero(weights >= w_prune)[0]
    if len(keep) > n_max:
        keep = np.sort(keep[np.argsort(-weights[keep], kind="stable")[:n_max]])
    if len(keep) == len(weights) == len(pset):
        return pset  # no births and nothing pruned
    means = np.concatenate([s.means for s in sets])[keep]
    covs = np.concatenate([s.covs for s in sets])[keep]
    return GpfParticleSet(weights[keep], means, covs, pset.degenerate_step)


def _mean_measurement_update(
    pset: GpfParticleSet, z: np.ndarray, config: GpfConfig
) -> GpfParticleSet:
    """Existence-combination update for a mean-of-states measurement.

    With no combination above epsilon the set is returned unchanged but
    flagged degenerate.
    """
    in_idx, _ = select_fov_particles(pset, config.fov)
    if not in_idx.size:
        return pset
    weights, means, covs = (a[in_idx] for a in (pset.weights, pset.means, pset.covs))
    combos = enumerate_combinations(weights.tolist(), config.epsilon, config.s_max)
    if not combos:
        return replace(pset, degenerate_step=True)

    r, proj = config.sensor.R, config.sensor.position_projection
    log_weights = [
        combination_log_weight(combo, means, covs, z, r, config.clutter_density, proj)
        for combo in combos
    ]
    # the conditional update of every active (combination, row) pair; the rest stay zero
    bits = np.array([combo.bits for combo in combos])
    post_means = np.zeros(bits.shape + means.shape[1:])
    post_covs = np.zeros(bits.shape + covs.shape[1:])
    for k, j in np.argwhere(bits).tolist():
        post = conditional_kf_update(j, combos[k].bits, means, covs, z, r, proj).posterior
        post_means[k, j], post_covs[k, j] = post.mean, post.cov
    posterior = normalize_combination_weights(log_weights)
    marginal = marginalize_existence(bits, posterior, post_means, post_covs, weights, means, covs)

    weights, means, covs = (a.copy() for a in (pset.weights, pset.means, pset.covs))
    weights[in_idx], means[in_idx], covs[in_idx] = marginal
    return GpfParticleSet(weights, means, covs, pset.degenerate_step)


def grid_existence_update(
    pset: GpfParticleSet,
    returns: CellReturns,
    sensor: GridSensorModel,
) -> GpfParticleSet:
    """Bayes update of existence weights from binary cell returns.

    Cell returns carry no useful state gradient, so the Gaussians are left
    alone and only the weights move.  For a particle whose mean lies in a
    measured cell, a return updates

        w <- w L(z | exists) / (w L(z | exists) + (1 - w) L(z | empty))

    where the exists-likelihood uses the single-target detection
    probability and the empty-likelihood the false-alarm probability.
    A particle applies the returns of its own cell (cell_of), in list
    order; particles outside every measured cell are unaffected.  A cell
    index outside the grid raises IndexError, whatever the belief holds.

    The weight entering the ratio is bounded away from the point masses 0
    and 1: merging can clamp a weight to exactly 1, and a degenerate prior
    would otherwise be immune to any amount of contrary evidence.
    """
    check_cells(returns.cells, sensor.n_cells, IndexError)
    p_hit = detection_prob(1, sensor.p_d, sensor.snr)
    p_false = detection_prob(0, sensor.p_d, sensor.snr)
    likelihoods = ((1.0 - p_hit, 1.0 - p_false), (p_hit, p_false))  # (exists, empty) by value
    by_cell: dict[int, list[tuple[float, float]]] = {}
    for cell, value in zip(returns.cells.tolist(), returns.values.tolist()):
        by_cell.setdefault(cell, []).append(likelihoods[value])
    bound = 1e-3
    xi, yi = POSITION_IDX
    weights = pset.weights.tolist()
    for i, (x, y) in enumerate(zip(pset.means[:, xi].tolist(), pset.means[:, yi].tolist())):
        for l_exists, l_empty in by_cell.get(sensor.cell_of(x, y), ()):
            w = min(max(weights[i], bound), 1.0 - bound)
            weights[i] = w * l_exists / (w * l_exists + (1.0 - w) * l_empty)
    return replace(pset, weights=weights)


def grid_births(
    returns: CellReturns, sensor: GridSensorModel, w_birth: float
) -> GpfParticleSet:
    """One birth hypothesis per positive return, centered on the cell; IndexError off the grid.

    Position variance is that of a uniform draw over the cell (width^2/12);
    velocity starts at zero with unit variance.
    """
    cells = check_cells(returns.cells[returns.values == 1], sensor.n_cells, IndexError)
    x_edges, y_edges = np.array(sensor.x_edges), np.array(sensor.y_edges)
    rows, cols = np.divmod(cells, sensor.cols)
    means = np.zeros((len(cells), 4))
    means[:, list(POSITION_IDX)] = 0.5 * np.column_stack(
        (x_edges[cols] + x_edges[cols + 1], y_edges[rows] + y_edges[rows + 1]))
    width, height = x_edges[1] - x_edges[0], y_edges[1] - y_edges[0]
    cov = np.diag([width**2 / 12.0, 1.0, height**2 / 12.0, 1.0])
    return GpfParticleSet(np.full(len(cells), w_birth), means, np.tile(cov, (len(cells), 1, 1)))


def gpf_step(
    pset: GpfParticleSet,
    z: np.ndarray | CellReturns,
    config: GpfConfig,
) -> GpfParticleSet:
    """One full filter iteration.

    Predict every particle, apply the measurement update matching the
    configured sensor (existence combinations for the mean sensor, weight
    Bayes rule plus births for the grid sensor), merge near-duplicate
    particles, then prune.  If no existence combination survives the
    threshold the measurement update is skipped and the returned set is
    flagged degenerate for this step.  A mean-sensor measurement that is
    not meas_dim finite numbers raises ValueError, a grid measurement that
    is not a CellReturns record TypeError, a cell outside the grid IndexError.
    """
    predicted = gpf_predict(pset, config.f_matrix, config.q_matrix)
    if isinstance(config.sensor, MeanSensorModel):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if z.shape != (config.sensor.meas_dim,) or not np.isfinite(z).all():
            raise ValueError(f"measurement must be {config.sensor.meas_dim} finite numbers: {z}")
        updated = _mean_measurement_update(predicted, z, config)
        births = _NO_BIRTHS
    elif isinstance(config.sensor, GridSensorModel):
        if not isinstance(z, CellReturns):
            raise TypeError(f"grid sensor expects a CellReturns record, got {type(z)!r}")
        updated = grid_existence_update(predicted, z, config.sensor)
        births = grid_births(z, config.sensor, config.w_birth)
    else:
        raise TypeError(f"unsupported sensor type {type(config.sensor)!r}")
    merged = merge_close_particles(updated, config.d_thresh, config.merge_cov)
    return birth_and_prune(merged, births, config.w_prune, config.n_max)
