"""Gaussian particle filter for multi-target tracking.

The belief over an unknown number of targets is a set of weighted Gaussian
particles: each particle's weight is the probability that its target
exists, each particle's Gaussian is that target's state distribution, and
the expected target count is the sum of the weights.  State dimension never
grows with the number of targets.

A measurement made over the sensor's field of view is explained by
enumerating existence combinations: boolean vectors saying which in-view
particles are assumed present.  Every sufficiently probable combination
gets one Kalman update of its active particles' stacked state, which the
sensor's mean measures linearly: each diagonal block of it is an active
particle's conditional update, and its innovation density is the
combination's evidence.  Finally each particle's weight and state are
recovered by marginalizing over the combinations that contain it.  When
only one combination survives it is certain, so its update alone is the
step's: its active particles take weight one and that combination's
conditional states, with no evidence weighed and no marginal taken.  Nearby
particles are merged, low-weight particles pruned, and detections can seed
new ones.  A step checks the belief once, when it builds the set of its
predicted and updated rows; the births, the merge and the prune hand on
rows of checked sets and settings without copying or checking them again.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domains import Range, check_fields, declare
from .gaussians import (
    ValueEq,
    _symmetrize,
    log_pdf,
    mixture_moments,
    moment_match_merge,
)
from .kalman import KalmanUpdate, kf_predict, kf_update
from .motion import POSITION_IDX, MotionModel
from .regions import Rectangle
from .sensors import CellReturns, GridSensorModel, MeanSensorModel, check_cells, detection_prob


@dataclass(frozen=True, eq=False)
class GpfParticleSet(ValueEq):
    """The multi-target belief at one time step: particle i has existence
    weight weights[i] in [0, 1] and Gaussian N(means[i], covs[i]).

    A set copies the weights and means, symmetrizes the covariances (a new
    array), checks shapes, weight range and finiteness, and makes all three
    read-only.  gpf_step builds one from the arrays of its predict and
    update: the one checked construction of a step.  The births, the merge
    and the prune hand over rows of checked sets and settings through
    _frozen, which only makes its arrays read-only, and pass a set on
    unchanged when they change nothing.  The default is the empty belief
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
        covs = _symmetrize(covs)  # checked after: entries above half the float maximum overflow
        if not (np.isfinite(means).all() and np.isfinite(covs).all()):
            raise ValueError("means and covs must be finite")
        for name, value in (("weights", weights), ("means", means), ("covs", covs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def _frozen(
        cls, weights: np.ndarray, means: np.ndarray, covs: np.ndarray, degenerate_step: bool
    ) -> GpfParticleSet:
        """The set of float arrays that the caller has just built and gives up,
        made read-only as they are: no copy, symmetrization or check.  Only
        for rows that already hold every invariant of a set, such as rows of
        checked sets, so the result equals a checked construction's bit for bit."""
        pset = object.__new__(cls)
        for name, value in (("weights", weights), ("means", means), ("covs", covs)):
            value.setflags(write=False)
            object.__setattr__(pset, name, value)
        object.__setattr__(pset, "degenerate_step", degenerate_step)
        return pset

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def particles(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """One (weight, mean, cov) tuple per row, in order.  Only perfbench's
        observers read it, and only its length."""
        return list(zip(self.weights.tolist(), self.means, self.covs))


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
    """Everything one filter step needs besides the belief and measurement.

    The motion and sensor records check their own matrices; the config
    checks every declared setting, then runs its sensor type's check in
    _SENSOR_KINDS, and raises TypeError for a sensor type that has none.
    clutter_density is the all-absent measurement likelihood; a run sets it
    to 1 / workspace area.
    """

    motion: MotionModel
    sensor: MeanSensorModel | GridSensorModel
    fov: Rectangle | None = None  # None: the whole workspace is in view
    epsilon: float = declare(0.01, Range(0.0, 1.0, lo_open=True, hi_open=True))
    d_thresh: float = declare(1.0, Range(0.0, lo_open=True))
    w_prune: float = declare(0.01, Range(0.0, 1.0, hi_open=True))
    n_max: int = declare(100, Range(1))
    w_birth: float = declare(0.1, Range(0.0, 1.0, lo_open=True))
    clutter_density: float = declare(1.0, Range(0.0, lo_open=True))

    def __post_init__(self) -> None:
        check_fields(self)
        if type(self.sensor) not in _SENSOR_KINDS:
            raise TypeError(f"unsupported sensor type {type(self.sensor)!r}")
        _SENSOR_KINDS[type(self.sensor)][0](self)


def gpf_predict(pset: GpfParticleSet, config: GpfConfig) -> tuple[np.ndarray, np.ndarray]:
    """The Kalman-predicted (means, covs) of every particle, by config.motion's F and Q.

    The covariances come back as kf_predict computes them, unsymmetrized:
    kf_update symmetrizes what the update reads, and the step's one set
    construction symmetrizes the rest.
    """
    return kf_predict(pset.means, pset.covs, config.motion.F, config.motion.Q)


def select_fov_particles(
    means: np.ndarray, fov: Rectangle | None
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows of means (n, d) whose position is in view, and of the rest.

    The rectangle is closed, so a mean exactly on its boundary counts as in
    view; with fov None every row is.  Only perfbench's select_fov observer,
    which unpacks a pair, reads the rest.
    """
    if fov is None:
        return np.arange(len(means)), np.zeros(0, dtype=np.intp)
    xi, yi = POSITION_IDX
    in_view = fov.contains(means[:, xi], means[:, yi])
    return np.flatnonzero(in_view), np.flatnonzero(~in_view)


def enumerate_combinations(weights: list[float], config: GpfConfig) -> list[ExistenceCombination]:
    """All boolean existence vectors over the in-view weights whose Bernoulli
    prior exceeds config.epsilon, in depth-first order (bit 1 before bit 0).

    The prior of a vector e is prod_i w_i^e_i (1 - w_i)^(1 - e_i).  One pass
    over the weights extends every surviving prefix by 1 and by 0, and keeps
    a child only while its partial product exceeds epsilon: once it is
    <= epsilon it can never recover, because every remaining factor is at
    most one.  The kept prefixes of a row are disjoint events, each above
    epsilon, so fewer than 1/epsilon of them survive at every row.
    """
    epsilon, prefixes = config.epsilon, [((), 1.0)]
    for w in weights:
        children, v = [], 1.0 - w
        for bits, partial in prefixes:
            one, zero = partial * w, partial * v
            if one > epsilon:
                children.append((bits + (1,), one))
            if zero > epsilon:
                children.append((bits + (0,), zero))
        prefixes = children
    return [ExistenceCombination(bits, prior) for bits, prior in prefixes]


def _diagonal_blocks(joint: np.ndarray, n: int) -> np.ndarray:
    """The n diagonal (d, d) blocks of an (nd, nd) matrix, as a writable (n, d, d) view."""
    d = joint.shape[0] // n
    if n == 1:
        return joint[None]
    return np.einsum("iaib->iab", joint.reshape(n, d, n, d))


def conditional_kf_update(
    means: np.ndarray, covs: np.ndarray, z: np.ndarray, r: np.ndarray, projection: np.ndarray
) -> KalmanUpdate:
    """Kalman update of one combination's active rows, means (n, d) and covs (n, d, d).

    The sensor reports the mean of the n active targets, z = (P/n) sum_i x_i
    + w: a linear-Gaussian measurement of the stacked state [x_1; ...; x_n],
    whose prior is block diagonal.  So one kf_update of that stacked state,
    with H = [P/n ... P/n], is the combination's update.  Block j of the
    returned mean (nd,) and cov (nd, nd) is row j's conditional update, and
    residual and innovation_cov are the combination's z - mu_c and
    Sigma_c = (1/n^2) P (sum_i Sigma_i) P' + R.  One row is updated as
    the plain Kalman update of its own mean and cov, which the stacked form
    reduces to bit for bit (P/1 is P), without building it.  z, r and
    projection are float arrays (1-D, 2-D, 2-D); an empty stack raises
    ValueError.
    """
    n, d = means.shape
    if not n:
        raise ValueError("a combination's update needs at least one active row")
    if n == 1:
        return kf_update(means[0], covs[0], projection, r, z)
    joint = np.zeros((n * d, n * d))
    _diagonal_blocks(joint, n)[...] = covs
    return kf_update(means.reshape(-1), joint, np.tile(projection / n, (1, n)), r, z)


def combination_log_weight(
    combo: ExistenceCombination, post: KalmanUpdate | None, clutter_density: float
) -> float:
    """Log of prior times evidence, where post is the combination's
    conditional_kf_update, or None for the all-zero combination.

    The evidence is the innovation density N(post.residual; 0, post.innovation_cov):
    the update's residual is z - P (sum_active mu_i) / n and its innovation
    covariance (1/n^2) P (sum_active Sigma_i) P' + R.  The all-zero
    combination explains the measurement as clutter at the configured density.
    """
    if post is None:
        return math.log(combo.prior) + math.log(clutter_density)
    residual = post.residual
    return math.log(combo.prior) + log_pdf(np.zeros_like(residual), post.innovation_cov, residual)


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
    post_means (p, d) and post_covs (p, d, d) stack the conditional update
    of every active (combination, particle) pair in np.argwhere(bits)
    order, p = bits.sum().  A particle's existence probability is the total
    posterior of the combinations that contain it; its state is the
    moment-matched mixture of its conditional updates under those
    combinations.  A particle active in no combination passes through
    unchanged, and one whose probability is zero keeps its prior state.
    Returns new arrays.
    """
    if not len(bits):
        raise ValueError("cannot marginalize an empty combination list")
    pair_combo, pair_row = np.nonzero(bits)
    if not len(post_means) == len(post_covs) == len(pair_row):
        raise ValueError(f"want {len(pair_row)} pair updates, got {len(post_means)} means "
                         f"and {len(post_covs)} covs")
    weights, means, covs = (np.array(a, dtype=float) for a in (weights, means, covs))
    for i in range(len(weights)):
        mine = np.flatnonzero(pair_row == i)
        if not mine.size:
            continue
        mix = posterior[pair_combo[mine]]  # summed 1-D in combination order, as a matmul would not
        weights[i] = min(1.0, float(mix.sum()))
        if weights[i] > 0.0:
            means[i], covs[i] = mixture_moments(post_means[mine], post_covs[mine], mix)
    return weights, means, covs


# The merge bounds a pair's distance only between rows whose position blocks
# are bounded: both eigenvalues in _SPREAD_RANGE and a condition number below
# _COND_LIMIT.  Their distances are computed without overflow, underflow or
# heavy cancellation, rounded by well under 1e-8 relative, far inside
# _BOUND_SLACK.  Every other row is paired with every row.
_SPREAD_RANGE = (1e-100, 1e100)
_COND_LIMIT = 1e6
_BOUND_SLACK = 1e-4


def _position_columns(means: np.ndarray, covs: np.ndarray) -> list[np.ndarray]:
    """x, y and the position block's var_x, cov_xy, var_y: one array each, of every row."""
    xi, yi = POSITION_IDX
    return [means[..., xi], means[..., yi], covs[..., xi, xi], covs[..., xi, yi], covs[..., yi, yi]]


def _merged_columns(
    w0: float, w1: float, p: list[float], q: list[float]
) -> tuple[float, list[float]]:
    """The clamped weight and the _position_columns, as floats, of the merge of
    two rows of weights w0, w1 and columns p, q: moment_match_merge's pair
    formula, operation for operation, so the bits of its merged row.  Two
    weights of zero raise ZeroDivisionError."""
    (x0, y0, a0, b0, c0), (x1, y1, a1, b1, c1) = p, q
    total = w0 + w1
    s0, s1 = w0 / total, w1 / total
    x, y = s0 * x0 + s1 * x1, s0 * y0 + s1 * y1
    dx0, dy0, dx1, dy1 = x0 - x, y0 - y, x1 - x, y1 - y
    a0, b0, c0 = s0 * (a0 + dx0 * dx0), s0 * (b0 + dx0 * dy0), s0 * (c0 + dy0 * dy0)
    a1, b1, c1 = s1 * (a1 + dx1 * dx1), s1 * (b1 + dx1 * dy1), s1 * (c1 + dy1 * dy1)
    a, b, c = a0 + a1, b0 + b1, c0 + c1
    # symmetrized as _symmetrize does, whose two summands are equal here
    return min(1.0, total), [x, y, 0.5 * (a + a), 0.5 * (b + b), 0.5 * (c + c)]


def _position_distances(p, q):
    """Mahalanobis distances between the position marginals of the rows whose
    _position_columns are p and q: arrays, pair by pair (one row's columns
    broadcast), or one row's five floats each.

    d_ij = (mu_i - mu_j)' (Sigma_i + Sigma_j)^-1 (mu_i - mu_j) over the
    (x, y) components, by the closed-form 2x2 inverse.  Each entry is a
    fixed sequence of float64 operations on its own pair, so d_ij equals
    d_ji bit for bit, on arrays and on floats, whatever else is computed
    with it.  Degenerate and extreme inputs give nan or +-inf, which never
    qualify to merge (callers silence numpy's warnings); on floats a zero
    denominator raises ZeroDivisionError instead.
    """
    (px, py, pa, pb, pc), (qx, qy, qa, qb, qc) = p, q
    dx, dy, sa, sb, sc = px - qx, py - qy, pa + qa, pb + qb, pc + qc
    return (sc * (dx * dx) - 2.0 * sb * dx * dy + sa * (dy * dy)) / (sa * sc - sb * sb)


def _position_spread(block):
    """The largest eigenvalue of each position block (var_x, cov_xy, var_y
    along the first axis, as arrays or as one block's floats), and whether
    the block is bounded."""
    a, b, c = block
    # hypot(h, b) written out, one expression for arrays and floats: a few
    # ulps off, and under- or overflow of the squares matters only outside _SPREAD_RANGE
    h = 0.5 * (a - c)
    mid, radius = 0.5 * (a + c), (h * h + b * b) ** 0.5
    lam, lam_min = mid + radius, mid - radius
    bounded = (lam_min > _SPREAD_RANGE[0]) & (lam < _SPREAD_RANGE[1]) & (lam < _COND_LIMIT * lam_min)
    return lam, bounded


def _within_bound(dx, dy, lam_sum, bound: float):
    """Whether a pair of bounded rows whose positions differ by (dx, dy), and
    whose largest position eigenvalues add up to lam_sum, can lie closer
    than bound / (1 + _BOUND_SLACK): |D|^2 < bound lam_sum."""
    return dx * dx + dy * dy < bound * lam_sum


def _sweep_pairs(xs: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (k, l), k < l, of the ascending xs with xs[l] <= xs[k] + reach."""
    k = np.arange(len(xs))
    ends = np.searchsorted(xs, xs + reach, side="right")
    counts = ends - k - 1
    # k's pairs take the flat positions up to cumsum(counts)[k] - 1, whose l is ends[k] - 1
    l = np.arange(counts.sum()) + np.repeat(ends - np.cumsum(counts), counts)
    return np.repeat(k, counts), l


def merge_close_particles(pset: GpfParticleSet, config: GpfConfig) -> GpfParticleSet:
    """Greedily merge the closest particle pair until none is below config.d_thresh.

    Closeness is the Mahalanobis distance d_ij between position marginals
    with metric (Sigma_i + Sigma_j)^-1; qualifying means strictly below
    d_thresh.  Merging combines weights (capped at one) and moment-matches
    the Gaussians into the lower row of the pair.
    With nothing to merge the input set is returned.

    Only pairs that can qualify get a distance.  With lambda_i the largest
    eigenvalue of row i's position block and D_ij the difference of the
    positions, d_ij >= |D_ij|^2 / (lambda_i + lambda_j) by Weyl's
    inequality, so a pair can qualify only if |D_ij|^2 < d_thresh
    (1 + _BOUND_SLACK) (lambda_i + lambda_j); the slack covers rounding.
    A sweep over the bounded rows sorted by x finds those pairs; every
    other row is paired with every row (see _SPREAD_RANGE).  The
    qualifying pairs wait in a heap keyed (d, lo, hi) with lo < hi, which
    orders them as an argmin over the full distance matrix would find
    them: the first minimum in row-major order.  A merge bumps the versions
    of its two rows, voiding their waiting pairs, and pairs the kept row
    with the rows that pass the bound against it, at its new lambda: the
    unmerged bounded rows in an x window of the sweep, and every merged or
    unbounded row.  So the work of a merge follows its candidates, not n.

    The loop reads only each row's weight and position columns, so a merge
    computes those as floats (_merged_columns) and records its pair under
    its generation, one more than the larger generation of its two rows.
    The full means and covs follow after the loop, one stacked
    moment_match_merge per generation in order, with the bits of one call
    per pair.  The result holds the input's checked rows and the merged
    rows, whose covariances moment matching has symmetrized and whose
    weights lie in [0, 1]; it is built unchecked, except that a merged row
    that is not finite raises ValueError.
    """
    d_thresh, n = config.d_thresh, len(pset)
    if n < 2:
        return pset
    bound = d_thresh * (1.0 + _BOUND_SLACK)
    pos = np.array(_position_columns(pset.means, pset.covs))
    with np.errstate(all="ignore"):
        lam, bounded = _position_spread(pos[2:])
        swept = np.flatnonzero(bounded)
        swept = swept[np.argsort(pos[0, swept])]
        (xs, ys), lams = pos[:2, swept], lam[swept]
        lam_top = float(lams.max(initial=0.0))  # no unmerged bounded row exceeds it
        k, l = _sweep_pairs(xs, math.sqrt(2.0 * bound * lam_top) * (1.0 + _BOUND_SLACK))
        near = _within_bound(xs[l] - xs[k], ys[l] - ys[k], lams[k] + lams[l], bound)
        i, j = swept[k[near]], swept[l[near]]
        loose = np.flatnonzero(~bounded)  # rows outside the sweep
        if loose.size:
            u, v = np.divmod(np.arange(loose.size * n), n)
            u = loose[u]
            once = bounded[v] | (v > u)  # a pair of two loose rows once
            i, j = np.concatenate((i, u[once])), np.concatenate((j, v[once]))
        d = _position_distances(pos[:, i], pos[:, j])
    hit = (d < d_thresh) & (d > -np.inf)  # an infinite distance never qualifies, nor does nan
    if not hit.any():
        return pset  # nothing merged: share the immutable set, skip a construction
    i, j = i[hit], j[hit]
    lo, hi = np.minimum(i, j).tolist(), np.maximum(i, j).tolist()
    heap = [(dij, a, b, 0, 0) for dij, a, b in zip(d[hit].tolist(), lo, hi)]  # versions 0
    heapq.heapify(heap)
    live, version = np.ones(n, dtype=bool), [0] * n
    # Python values per row from here on: its weight, its position columns
    # (rows[r]) and the generation of the merge that last wrote it (0: none)
    weight, rows, generation = pset.weights.tolist(), pos.T.tolist(), [0] * n
    lam, bounded, in_sweep = lam.tolist(), bounded.tolist(), bounded.tolist()
    swept, xs, loose = swept.tolist(), xs.tolist(), set(loose.tolist())
    generations = []  # the (lo, hi) pairs that merge in generation 1, 2, ...
    while heap:
        _, lo, hi, v_lo, v_hi = heapq.heappop(heap)
        if version[lo] != v_lo or version[hi] != v_hi:
            continue  # a row of the pair merged after the pair was pushed
        g = generation[lo] = 1 + max(generation[lo], generation[hi])
        if g > len(generations):
            generations.append([])
        generations[g - 1].append((lo, hi))
        try:
            weight[lo], p = _merged_columns(weight[lo], weight[hi], rows[lo], rows[hi])
        except ZeroDivisionError:
            break  # two weights of zero: moment_match_merge raises on the pair below
        version[lo] += 1
        version[hi] += 1
        live[hi] = in_sweep[hi] = in_sweep[lo] = False
        loose -= {lo, hi}
        candidates = list(loose)
        loose.add(lo)  # a merged row leaves the sweep
        rows[lo] = p
        lam[lo], bounded[lo] = _position_spread(p[2:])
        if bounded[lo]:
            x, y = p[:2]
            reach = math.sqrt(bound * (lam[lo] + lam_top)) * (1.0 + _BOUND_SLACK)
            window = swept[bisect.bisect_left(xs, x - reach):bisect.bisect_right(xs, x + reach)]
            candidates += [r for r in window if in_sweep[r]]
            candidates = [r for r in candidates if not bounded[r] or _within_bound(
                rows[r][0] - x, rows[r][1] - y, lam[lo] + lam[r], bound)]
        else:
            candidates = [r for r in np.flatnonzero(live).tolist() if r != lo]
        for other in candidates:
            try:
                dij = _position_distances(p, rows[other])
            except ZeroDivisionError:
                continue  # a singular summed block: numpy's inf or nan, which never qualifies
            if -math.inf < dij < d_thresh:
                a, b = min(lo, other), max(lo, other)
                heapq.heappush(heap, (dij, a, b, version[a], version[b]))
    # the full rows, one generation at a time: a generation's pairs read only
    # rows that earlier generations wrote, and no row twice
    weights, means, covs = (np.array(a) for a in (pset.weights, pset.means, pset.covs))
    for pairs in generations:
        pairs = np.array(pairs)
        lo = pairs[:, 0]
        weights[lo], means[lo], covs[lo] = moment_match_merge(
            weights[pairs], means[pairs], covs[pairs])
    merged = [lo for pairs in generations for lo, _ in pairs]
    if not (np.isfinite(means[merged]).all() and np.isfinite(covs[merged]).all()):
        raise ValueError("means and covs must be finite")
    return GpfParticleSet._frozen(weights[live], means[live], covs[live], pset.degenerate_step)


def estimate_cardinality(pset: GpfParticleSet) -> float:
    """Expected number of targets: the sum of existence weights, left to right
    (np.sum's pairwise order would change the last bit)."""
    return float(sum(pset.weights.tolist()))


def birth_and_prune(
    pset: GpfParticleSet, births: GpfParticleSet, config: GpfConfig
) -> GpfParticleSet:
    """Append birth particles, drop weights below config.w_prune, cap the count.

    When more than config.n_max particles survive, the n_max highest-weight
    ones are kept (ties broken by original order) and their ordering
    preserved.  With no births and nothing pruned the input set is returned;
    otherwise the kept rows of the two checked sets, unchecked.
    """
    sets = (pset, births) if len(births) else (pset,)  # empty births may differ in d
    weights = np.concatenate([s.weights for s in sets])
    keep = np.nonzero(weights >= config.w_prune)[0]
    if len(keep) > config.n_max:
        keep = np.sort(keep[np.argsort(-weights[keep], kind="stable")[:config.n_max]])
    if len(keep) == len(weights) == len(pset):
        return pset  # no births and nothing pruned
    means = np.concatenate([s.means for s in sets])[keep]
    covs = np.concatenate([s.covs for s in sets])[keep]
    return GpfParticleSet._frozen(weights[keep], means, covs, pset.degenerate_step)


def _mean_measurement_update(
    weights: np.ndarray, means: np.ndarray, covs: np.ndarray, z, config: GpfConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool, GpfParticleSet]:
    """Existence-combination update of the rows (weights, means, covs) for a mean-of-states
    measurement z, meas_dim finite numbers (else ValueError): the new rows, degenerate, no births.

    With no combination above epsilon, or several and not one with a finite
    log weight, the inputs come back flagged degenerate; with no row in view,
    unflagged.  When exactly one combination survives, its posterior is 1
    whatever its evidence, so the step is that combination's conditional
    update alone: its active rows take their diagonal blocks at weight 1.0,
    every other row passes through, and no evidence, normalization or
    marginal is computed.  This has the bits of the general path, whose
    marginal of one combination at posterior 1.0 returns each active row's
    update unchanged.  The inputs are not changed.
    """
    r, proj, dim = config.sensor.R, config.sensor.position_projection, config.sensor.meas_dim
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (dim,) or not np.isfinite(z).all():
        raise ValueError(f"measurement must be {dim} finite numbers: {z}")
    in_idx, _ = select_fov_particles(means, config.fov)
    if not in_idx.size:
        return weights, means, covs, False, _NO_BIRTHS
    combos = enumerate_combinations(weights[in_idx].tolist(), config)
    if not combos:
        return weights, means, covs, True, _NO_BIRTHS

    if len(combos) == 1:  # certain: no evidence, normalization or marginal
        active = in_idx[np.array(combos[0].bits, dtype=bool)]
        if active.size:
            n = active.size
            # take: the rows that [active] gathers, without fancy indexing's per-call cost
            post = conditional_kf_update(means.take(active, 0), covs.take(active, 0), z, r, proj)
            weights, means, covs = (a.copy() for a in (weights, means, covs))
            weights[active], means[active] = 1.0, post.mean.reshape(n, -1)
            covs[active] = _diagonal_blocks(post.cov, n)
        return weights, means, covs, False, _NO_BIRTHS

    in_weights, in_means, in_covs = (a[in_idx] for a in (weights, means, covs))
    bits = np.array([combo.bits for combo in combos])
    _, pair_row = np.nonzero(bits)
    # the prior rows of the (combination, row) pairs in np.argwhere order, so each
    # combination's active rows are one slice, which its update overwrites
    post_means, post_covs = in_means[pair_row], in_covs[pair_row]
    start, log_weights = 0, []
    for combo in combos:
        n, post = sum(combo.bits), None
        if n:
            pairs = slice(start, start + n)
            post = conditional_kf_update(post_means[pairs], post_covs[pairs], z, r, proj)
            post_means[pairs] = post.mean.reshape(n, -1)
            post_covs[pairs] = _diagonal_blocks(post.cov, n)
            start += n
        log_weights.append(combination_log_weight(combo, post, config.clutter_density))
    if not any(map(math.isfinite, log_weights)):  # nothing to normalize: as if none survived
        return weights, means, covs, True, _NO_BIRTHS
    marginal = marginalize_existence(bits, normalize_combination_weights(log_weights),
                                     post_means, post_covs, in_weights, in_means, in_covs)

    weights, means, covs = (a.copy() for a in (weights, means, covs))
    weights[in_idx], means[in_idx], covs[in_idx] = marginal
    return weights, means, covs, False, _NO_BIRTHS


def grid_existence_update(
    weights: np.ndarray, means: np.ndarray, returns: CellReturns, sensor: GridSensorModel
) -> np.ndarray:
    """Bayes update of the existence weights (n,) of the particles with means
    (n, d) from binary cell returns: the new weights, a new array.

    Cell returns carry no useful state gradient, so the Gaussians are left
    alone and only the weights move.  For a particle whose mean lies in a
    measured cell, a return updates

        w <- w L(z | exists) / (w L(z | exists) + (1 - w) L(z | empty))

    where the exists-likelihood uses the single-target detection
    probability and the empty-likelihood the false-alarm probability.
    A particle applies the returns of its own cell (cells_of), in list
    order; particles outside every measured cell are unaffected.  Not CellReturns
    raises TypeError, a cell index outside the grid IndexError, whatever the belief holds.
    The k-th return of every cell is applied to all of that cell's
    particles at once, for k = 0, 1, ..., so each weight sees the same
    float operations in the same order as a loop over the particles.
    When no cell repeats (random and round_robin picks) that is one pass.

    The weight entering the ratio is bounded away from the point masses 0
    and 1: merging can clamp a weight to exactly 1, and a degenerate prior
    would otherwise be immune to any amount of contrary evidence.
    """
    if not isinstance(returns, CellReturns):
        raise TypeError(f"grid sensor expects a CellReturns record, got {type(returns)!r}")
    check_cells(returns.cells, sensor.n_cells, IndexError)
    p_hit = detection_prob(1, sensor.p_d, sensor.snr)
    p_false = detection_prob(0, sensor.p_d, sensor.snr)
    l_exists = np.array((1.0 - p_hit, p_hit))  # indexed by the return value
    l_empty = np.array((1.0 - p_false, p_false))
    bound = 1e-3
    xi, yi = POSITION_IDX
    owner = sensor.cells_of(means[:, xi], means[:, yi])  # n_cells: in no cell
    weights = np.array(weights, dtype=float)
    value_of = np.full(sensor.n_cells + 1, -1)  # a cell's return, -1 for none
    value_of[returns.cells] = returns.values
    if np.count_nonzero(value_of >= 0) == len(returns.cells):  # no cell repeats: one pass
        passes = [value_of[owner]]
    else:
        passes = _ranked_passes(owner, returns, sensor.n_cells)
    for value in passes:
        hit = value >= 0
        w = np.minimum(np.maximum(weights[hit], bound), 1.0 - bound)
        l_x, l_0 = l_exists[value[hit]], l_empty[value[hit]]
        weights[hit] = w * l_x / (w * l_x + (1.0 - w) * l_0)
    return weights


def _ranked_passes(owner: np.ndarray, returns: CellReturns, n_cells: int):
    """Pass k of grid_existence_update where cells repeat: the k-th return of each
    particle's cell (-1 for none), for k = 0, 1, ..."""
    cells, values = returns.cells, returns.values
    # each return's rank among its cell's returns, in list order: sorted stably
    # by cell, a return's rank is its distance from the first return of its cell
    order = np.argsort(cells, kind="stable")
    by_cell, rank = cells[order], np.empty_like(order)
    rank[order] = np.arange(order.size) - np.searchsorted(by_cell, by_cell)
    for k in range(rank.max(initial=-1) + 1):
        now = rank == k  # the k-th return of every cell that has one
        value_of = np.full(n_cells + 1, -1)
        value_of[cells[now]] = values[now]
        yield value_of[owner]


def grid_births(
    returns: CellReturns, sensor: GridSensorModel, w_birth: float
) -> GpfParticleSet:
    """One birth hypothesis per positive return, centered on the cell; IndexError off the grid.

    Each birth has weight w_birth, taken as checked (GpfConfig checks it),
    the cell's centre at zero velocity, and the sensor's birth_cov:
    position variance that of a uniform draw over the cell (width^2/12),
    unit velocity variance.  The set is built unchecked from those.
    """
    cells = check_cells(returns.cells[returns.values == 1], sensor.n_cells, IndexError)
    rows, cols = np.divmod(cells, sensor.cols)
    xi, yi = POSITION_IDX
    means = np.zeros((len(cells), 4))
    means[:, xi], means[:, yi] = sensor.x_center_array[cols], sensor.y_center_array[rows]
    covs = np.repeat(sensor.birth_cov[None], len(cells), axis=0)
    return GpfParticleSet._frozen(np.full(len(cells), w_birth, dtype=float), means, covs, False)


def _check_mean(config: GpfConfig) -> None:
    n, shape = config.motion.F.shape[0], config.sensor.position_projection.shape
    if shape[1] != n:
        raise ValueError(f"mean sensor projection {shape} does not match state dim {n}")


def _check_grid(config: GpfConfig) -> None:
    if (n := config.motion.F.shape[0]) != 4:
        raise ValueError(f"the grid sensor reads 4-D states (x, vx, y, vy), not state dim {n}")
    if config.w_birth < config.w_prune:
        raise ValueError(f"w_birth {config.w_birth!r} is below w_prune {config.w_prune!r}: "
                         "the prune would drop every grid birth")


# Each sensor model type's (check, update): check(config) raises ValueError for a GpfConfig
# it cannot run; update(weights, means, covs, z, config) -> (weights, means, covs, degenerate,
# births) looks its functions up when it runs, so perfbench's tracer can replace them.
_SENSOR_KINDS = {
    MeanSensorModel: (_check_mean, lambda *update: _mean_measurement_update(*update)),
    GridSensorModel: (_check_grid, lambda weights, means, covs, z, config: (
        grid_existence_update(weights, means, z, config.sensor), means, covs, False,
        grid_births(z, config.sensor, config.w_birth))),
}


def gpf_step(pset: GpfParticleSet, z, config: GpfConfig) -> GpfParticleSet:
    """One full filter iteration on a measurement z of the configured sensor.

    Predict every particle, apply the sensor type's update from _SENSOR_KINDS, merge
    near-duplicate particles, then prune.  The predict and the update pass arrays, and the
    step builds one checked set from them, flagged degenerate if the update says so; the
    births, the merge and the prune build theirs unchecked.  A measurement that the sensor
    cannot read raises as its update says.
    """
    means, covs = gpf_predict(pset, config)
    _, update = _SENSOR_KINDS[type(config.sensor)]
    weights, means, covs, degenerate, births = update(pset.weights, means, covs, z, config)
    updated = GpfParticleSet(weights, means, covs, degenerate)
    return birth_and_prune(merge_close_particles(updated, config), births, config)
