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
from .sensors import CellReturns, GridSensorModel, MeanSensorModel, detection_prob


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
    states: list[GaussianState],
    z: np.ndarray,
    r: np.ndarray,
    projection: np.ndarray,
) -> KalmanUpdate:
    """Kalman update of in-view prior state j assuming the combination `bits` holds.

    The sensor reports the mean of the active targets, so from particle
    j's point of view the measurement matrix shrinks to projection / n
    (n = number of active particles), the other active particles'
    predicted means are subtracted out of z, and their covariances join
    the measurement noise:

        z'    = z - P (sum_{i != j} e_i mu_i) / n
        H     = P / n
        R_eff = (1/n^2) sum_{i != j} e_i P Sigma_i P' + R

    With a single active particle this is exactly the plain Kalman update.
    z, r and projection are float arrays (1-D, 2-D, 2-D).
    """
    if bits[j] != 1:
        raise ValueError(f"particle {j} is not active in combination {bits}")
    n_active = int(sum(bits))
    others_mean = np.zeros(z.shape)  # shaped by z, so kf_update sees a wrong-sized z
    others_cov = np.zeros((projection.shape[0], projection.shape[0]))
    for i, state in enumerate(states):
        if bits[i] and i != j:
            others_mean += projection @ state.mean
            others_cov += projection @ state.cov @ projection.T

    z_eff = z - others_mean / n_active
    return kf_update(states[j], projection / n_active, others_cov / n_active**2 + r, z_eff)


def combination_log_weight(
    combo: ExistenceCombination,
    states: list[GaussianState],
    z: np.ndarray,
    r: np.ndarray,
    clutter_density: float,
    projection: np.ndarray,
) -> float:
    """Log of prior times evidence, using the in-view prior (predicted) states.

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
    mean_sum = sum(states[i].mean for i in active)
    cov_sum = sum(states[i].cov for i in active)
    mu_c = projection @ mean_sum / n
    sigma_c = projection @ cov_sum @ projection.T / n**2 + r
    return math.log(combo.prior) + log_pdf(GaussianState(mu_c, sigma_c), z)


def normalize_combination_weights(log_weights: list[float]) -> np.ndarray:
    """Combination posteriors from a non-empty list of log weights: exponentiated
    after shifting by their maximum (so none underflows to an all-zero sum),
    normalized to sum to one."""
    raw = np.exp(np.asarray(log_weights, dtype=float) - max(log_weights))
    return raw / raw.sum()


def marginalize_existence(
    combos: list[ExistenceCombination],
    posterior: np.ndarray,
    updated: list[dict[int, GaussianState]],
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover the in-view rows (weights, means, covs) from combination posteriors.

    posterior[k] is combination k's normalized weight and updated[k] maps
    each of its active particles to that particle's conditional update.
    A particle's existence probability is the total posterior of the
    combinations that contain it; its state is the moment-matched mixture
    of its conditional updates under those combinations.  A particle
    active in no retained combination passes through unchanged, and one
    whose probability is zero keeps its prior state.  Returns new arrays.
    """
    if not combos:
        raise ValueError("cannot marginalize an empty combination list")
    weights, means, covs = (np.array(a, dtype=float) for a in (weights, means, covs))
    for i in range(len(weights)):
        mine = [k for k, combo in enumerate(combos) if combo.bits[i]]
        if not mine:
            continue
        mix = posterior[mine]
        weights[i] = min(1.0, float(mix.sum()))
        if weights[i] > 0.0:
            means[i], covs[i] = mixture_moments(
                [updated[k][i].mean for k in mine], [updated[k][i].cov for k in mine], mix
            )
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
    rows = [a[in_idx] for a in (pset.weights, pset.means, pset.covs)]
    combos = enumerate_combinations(rows[0].tolist(), config.epsilon, config.s_max)
    if not combos:
        return replace(pset, degenerate_step=True)

    # one prior state per in-view row, shared by every (combination, active) pair
    states = [GaussianState(m, c) for m, c in zip(rows[1], rows[2])]
    r, proj = config.sensor.R, config.sensor.position_projection
    log_weights = [
        combination_log_weight(combo, states, z, r, config.clutter_density, proj)
        for combo in combos
    ]
    updated = [
        {j: conditional_kf_update(j, combo.bits, states, z, r, proj).posterior
         for j, e in enumerate(combo.bits) if e}
        for combo in combos
    ]
    posterior = normalize_combination_weights(log_weights)
    marginal = marginalize_existence(combos, posterior, updated, *rows)

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
    if ((returns.cells < 0) | (returns.cells >= sensor.n_cells)).any():
        raise IndexError(f"cell index out of range [0, {sensor.n_cells}): {returns.cells}")
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
    """One birth hypothesis per positive return, centered on the cell.

    Position variance is that of a uniform draw over the cell (width^2/12);
    velocity starts at zero with unit variance.
    """
    x_lo, y_lo, x_hi, y_hi = sensor.cell_bounds(0)
    xi, yi = POSITION_IDX
    cells = returns.cells[returns.values == 1].tolist()
    means = np.zeros((len(cells), 4))
    for row, cell in zip(means, cells):
        row[xi], row[yi] = sensor.cell_center(cell)
    cov = np.diag([(x_hi - x_lo) ** 2 / 12.0, 1.0, (y_hi - y_lo) ** 2 / 12.0, 1.0])
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
