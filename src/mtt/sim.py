"""Ground-truth scenario generation, tracking metrics, and the end-to-end
experiment loop wiring filters to sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .domains import Choice, ConfigError, Range, check_fields, declare, same_as
from .gaussians import log_pdf
from .gpf import GpfConfig, GpfParticleSet, estimate_cardinality, gpf_step
from .kalman import kf_predict, kf_update
from .motion import POSITION_IDX, MotionModel, constant_velocity_matrix, position_projection
from .particle import _RESAMPLERS, PointParticleSet, pf_step
from .regions import Rectangle
from .sensors import (
    CELL_STRATEGIES,
    CellReturns,
    GridSensorModel,
    MeanSensorModel,
    check_cells,
    grid_measure,
    mean_sensor_measure,
    select_cells,
)

# Prior covariance of the KF baseline, which starts at the workspace centre.
KF_INIT_COV = np.diag([400.0, 100.0, 400.0, 100.0])


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated multi-target scenario."""

    n_targets: int = declare(3, Range(0))
    n_steps: int = declare(100, Range(1))
    tau: float = declare(1.0, Range(0.0, lo_open=True))
    q_diag: tuple[float, ...] = declare((20.0, 0.2, 20.0, 0.2), Range(0.0, size=4))
    workspace: Rectangle = field(default_factory=lambda: Rectangle(0.0, 0.0, 12.0, 12.0))
    seed: int = declare(0, Range(0))
    initial_states: list[tuple[float, float, float, float]] | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.initial_states is not None:
            states = np.asarray(self.initial_states, dtype=float)  # ValueError if ragged
            if len(states) != self.n_targets or (
                states.size and (states.shape[1:] != (4,) or not np.isfinite(states).all())
            ):
                raise ConfigError(f"scenario.initial_states: want scenario.n_targets = "
                                  f"{self.n_targets} states of 4 finite numbers "
                                  f"(x, vx, y, vy), got {states}")


@dataclass
class StepRecord:
    """One step of a run's log, the list of its records (step k at index k): the truth,
    the measurement, the filter's estimate as n weighted Gaussians, and the metrics."""

    true_states: np.ndarray
    measurement: np.ndarray | CellReturns  # as the sensor returned it
    means: np.ndarray  # (n, 4)
    covs: np.ndarray  # (n, 4, 4)
    weights: np.ndarray  # (n,)
    cardinality: float
    rmse: float | None = None
    card_err: float | None = None
    ospa: float | None = None


def generate_truth(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Simulate target trajectories; returns array (n_steps, n_targets, 4).

    Step 0 holds the initial states; each later step applies the
    constant-velocity transition plus N(0, diag(q_diag)) noise.  Targets
    are free to leave the workspace.  The noise of every step is one
    (n_steps - 1, n_targets, 4) draw, the stream of one draw per step.
    """
    f = constant_velocity_matrix(config.tau)
    q_diag = np.asarray(config.q_diag, dtype=float)
    truth = np.zeros((config.n_steps, config.n_targets, 4))
    if config.n_targets == 0:
        return truth
    if config.initial_states is not None:
        truth[0] = np.asarray(config.initial_states, dtype=float)
    else:
        ws = config.workspace
        xs = rng.uniform(ws.x_min, ws.x_max, size=config.n_targets)
        ys = rng.uniform(ws.y_min, ws.y_max, size=config.n_targets)
        truth[0] = np.stack(
            [xs, np.zeros(config.n_targets), ys, np.zeros(config.n_targets)], axis=1
        )
    noise = rng.standard_normal((config.n_steps - 1, config.n_targets, 4)) * np.sqrt(q_diag)
    for k in range(1, config.n_steps):
        truth[k] = truth[k - 1] @ f.T + noise[k - 1]
    return truth


def _capped_cost(estimates: np.ndarray, truths: np.ndarray, cap: float) -> np.ndarray:
    """Distances between the rows of the float arrays estimates (..., d) and truths (..., d),
    broadcast against each other, capped at `cap`, squared: estimates[:, None] against
    truths[None] gives the (m, n) matrix of every pair.

    Each squared distance is a per-row matmul, which rounds like the dot
    product of np.linalg.norm; (d * d).sum(-1) and ** 2 do not.  One that
    overflows is inf, and the cap makes its entry exact: no warning.
    """
    d = estimates - truths
    with np.errstate(over="ignore"):
        dist = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    return np.float_power(np.minimum(dist, cap), 2)


def _linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a minimum-cost assignment of the 2-D cost matrix: the pairs that
    scipy.optimize.linear_sum_assignment returns, ties included.

    A step-for-step port of scipy's rectangular_lsap, the shortest augmenting path
    form of Jonker-Volgenant (Crouse, IEEE TAES 2016).  A tall matrix is transposed
    and its pairs come back ordered by row.  Each row's search scans the remaining
    columns from the last one down, prefers a free column among equally short
    paths and removes a column by swapping in the last one; the reduced cost is
    min_val + cost - u[i] - v[j] in that order, so the duals and every comparison
    keep scipy's bits.  cost is a 2-D float array; ValueError for NaN or -inf
    entries and when no assignment has a finite cost.
    """
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    if nr == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if not cost.min() > -np.inf:  # NaN compares false too
        raise ValueError("matrix contains invalid numeric entries")
    c = cost.tolist()  # Python floats: the scans below are faster on lists than on arrays
    inf = np.inf
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        spc = [inf] * nc  # shortest path cost to each column
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val = cur, 0.0
        while True:  # until the path reaches a free column j
            rows_seen.append(i)
            row, ui = c[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            cols_seen.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for k in cols_seen:
            v[k] -= min_val - spc[k]
        while True:  # augment along the path from j back to cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return np.array([col4row[k] for k in cols], dtype=np.intp), np.array(cols, dtype=np.intp)
    return np.arange(nr), np.array(col4row, dtype=np.intp)


def match_scores(cost: np.ndarray, cap: float) -> tuple[float, float]:
    """(RMSE, OSPA) of m estimates against n truths from one minimum-cost assignment of
    their (m, n) matrix of _capped_cost entries.

    The assignment matches min(m, n) pairs at the least sum S of the
    entries.  The RMSE adds the full cap squared for each unmatched truth
    and takes the mean square over the n truths; the OSPA (order 2, cutoff
    cap) adds it for each of the |m - n| unmatched points and takes the mean
    over max(m, n).  Both are 0 when both sets are empty, else the cap when
    either is.

    With 0 < m <= n every row is matched, and S sums each row's matched entry
    in row order (the order of cost[rows, cols].sum()).  No entry exceeds
    cap**2, so a row whose entries all reach it takes cap**2 wherever it
    goes; the other rows are "real".  If the real rows' nearest columns are
    distinct, each row's least entry is an optimal match (the column
    reduction that starts Jonker-Volgenant): no assignment sums lower, and an
    optimal one gives each row that entry.  Else the assignment runs on the
    real rows and the columns where they are below cap**2, and a real row it
    leaves out takes cap**2.  The whole matrix goes to the assignment when
    m > n, where which row takes a cap fill decides the order of the sum, and
    when two real rows share their nearest column at the same least entry
    (twin estimates), whose tie the smaller problem may break the other way.
    Apart from those ties, optimal assignments give the rows the same entries
    unless unequal entries tie in sum, which distances between floats in
    general position do not.
    """
    m, n = cost.shape
    if 0 < m <= n:
        matched = cost.min(axis=1)  # each row's least entry, then its matched entry
        real = np.flatnonzero(matched < cap**2)
        nearest = cost.argmin(axis=1)[real].tolist()
        if len(set(zip(nearest, matched[real].tolist()))) == len(nearest):  # no twin rows
            if len(set(nearest)) < len(nearest):
                block = cost[real]
                block = block[:, (block < cap**2).any(axis=0)]
                rows, cols = _linear_sum_assignment(block)
                matched[real] = cap**2
                matched[real[rows]] = block[rows, cols]
            total = float(matched.sum())
            if not total > -math.inf:  # NaN compares false too
                raise ValueError("matrix contains invalid numeric entries")
            return _scores(total, m, n, cap)
    rows, cols = _linear_sum_assignment(cost)  # no pairs when either set is empty
    return _scores(float(cost[rows, cols].sum()), m, n, cap)


def _scores(matched: float, m: int, n: int, cap: float) -> tuple[float, float]:
    """match_scores' (RMSE, OSPA) from the least sum `matched` of an (m, n) cost matrix."""
    if m == 0 or n == 0:
        score = 0.0 if m == n else cap
        return score, score
    rmse = math.sqrt((matched + cap**2 * max(0, n - m)) / n)
    ospa = ((matched + cap**2 * abs(m - n)) / max(m, n)) ** 0.5
    return rmse, ospa


def evaluate_metrics(records: list[StepRecord], setup: ExperimentSetup) -> None:
    """Fill each record's RMSE, cardinality error and OSPA against its own true states.

    The cardinality error is |sum of weights - true target count|; RMSE
    and OSPA are match_scores' over extracted estimates (the positions
    of the means whose weight is >= setup.metrics_extraction_threshold) against true
    positions, capped at setup.metrics_distance_cap.  The capped costs of
    every step's (estimate, truth) pairs are one _capped_cost call over the
    whole run, each step's pairs estimate-major, so a step's cost matrix is
    one slice of it.  A step that matches one pair (min(m, n) == 1) matches
    its smallest entry, one np.minimum.reduceat over the run; only a step
    with min(m, n) >= 2 goes to match_scores, which runs the assignment
    where its nearest pairs collide.  A NaN cost raises the assignment's
    ValueError.
    """
    if not records:
        return
    threshold, cap = setup.metrics_extraction_threshold, setup.metrics_distance_cap
    idx = np.asarray(POSITION_IDX)
    truths = np.concatenate([r.true_states for r in records])[:, idx]
    kept = np.concatenate([r.weights for r in records]) >= threshold
    estimates = np.concatenate([r.means for r in records])[kept][:, idx]
    steps = np.arange(len(records))
    m = np.bincount(np.repeat(steps, [len(r.weights) for r in records])[kept],
                    minlength=len(records))
    n = np.array([len(r.true_states) for r in records])
    # pair p of the run is pair q = p - (the pairs of earlier steps) of its step,
    # which pairs the step's estimate q // n with its truth q % n
    sizes = m * n
    starts = np.cumsum(sizes) - sizes
    step = np.repeat(steps, sizes)
    q = np.arange(sizes.sum()) - starts[step]
    cost = _capped_cost(estimates[(np.cumsum(m) - m)[step] + q // n[step]],
                        truths[(np.cumsum(n) - n)[step] + q % n[step]], cap)
    lowest = np.zeros(len(records))  # each step's smallest entry, 0 for an empty step
    lowest[sizes > 0] = np.minimum.reduceat(cost, starts[sizes > 0])
    if not lowest.min() > -np.inf:  # NaN compares false too
        raise ValueError("matrix contains invalid numeric entries")
    for record, m_k, n_k, start, low in zip(records, m.tolist(), n.tolist(), starts.tolist(),
                                            lowest.tolist()):
        if min(m_k, n_k) > 1:
            block = cost[start:start + m_k * n_k].reshape(m_k, n_k)
            record.rmse, record.ospa = match_scores(block, cap)
        else:
            record.rmse, record.ospa = _scores(low, m_k, n_k, cap)
        record.card_err = abs(record.cardinality - n_k)


@dataclass(frozen=True)
class ExperimentSetup:
    """Filter-side knobs for run_experiment beyond the scenario itself.  Each field
    <section>_<name> is the config key <section>.<name>, in field order; the gpf_* and
    grid fields take their defaults and ranges from GpfConfig and GridSensorModel."""

    sensor_r_diag: tuple[float, ...] = declare((0.5, 0.5), Range(0.0, size=2))
    sensor_p_d: float = same_as(GridSensorModel, "p_d")
    sensor_snr: float = same_as(GridSensorModel, "snr")
    sensor_m_cells: int = same_as(GridSensorModel, "m_cells")
    sensor_grid_rows: int = same_as(GridSensorModel, "rows")
    sensor_grid_cols: int = same_as(GridSensorModel, "cols")
    sensor_strategy: str = declare("random", Choice(CELL_STRATEGIES))
    sensor_fixed_cells: list[int] | None = None
    gpf_epsilon: float = same_as(GpfConfig, "epsilon")
    gpf_d_thresh: float = same_as(GpfConfig, "d_thresh")
    gpf_w_prune: float = same_as(GpfConfig, "w_prune")
    gpf_n_max: int = same_as(GpfConfig, "n_max")
    gpf_w_birth: float = same_as(GpfConfig, "w_birth")
    gpf_init_weight: float = declare(0.9, Range(0.0, 1.0, lo_open=True))
    gpf_init_cov_diag: tuple[float, ...] = declare((1.0, 0.1, 1.0, 0.1),
                                                   Range(0.0, lo_open=True, size=4))
    pf_n_particles: int = declare(1000, Range(1))
    pf_ess_ratio: float = declare(0.5, Range(0.0, 1.0, lo_open=True))
    pf_resample: str = declare("multinomial", Choice(_RESAMPLERS))
    metrics_extraction_threshold: float = declare(0.5, Range(0.0, 1.0))
    # below 1e150, so cap**2 and the scores' sums of it stay finite
    metrics_distance_cap: float = declare(5.0, Range(0.0, 1e150, lo_open=True, hi_open=True))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.sensor_strategy == "fixed_list" and not self.sensor_fixed_cells:
            raise ConfigError("sensor.strategy = fixed_list requires sensor.fixed_cells")
        cells = self.sensor_fixed_cells
        if cells is not None:  # checked under every strategy: the manifest keeps it
            try:
                n = len(check_cells(cells, self.sensor_grid_rows * self.sensor_grid_cols))
            except ValueError as exc:
                raise ConfigError(f"sensor.fixed_cells: {exc}") from None
            if n > self.sensor_m_cells:
                raise ConfigError(f"sensor.fixed_cells holds {n} cells but "
                                  f"sensor.m_cells = {self.sensor_m_cells}")
        if self.pf_ess_ratio * self.pf_n_particles <= 1:
            # the ESS is never below 1: the PF could never resample, and its
            # weights could collapse onto one particle
            raise ConfigError(
                f"pf.ess_ratio * pf.n_particles must exceed 1, got "
                f"{self.pf_ess_ratio!r} * {self.pf_n_particles!r}")


# One filter step: measurement -> (means (n, 4), covs (n, 4, 4), weights (n,), cardinality).
StepFn = Callable[[object], tuple[np.ndarray, np.ndarray, np.ndarray, float]]


def _gpf_filter(ws, setup, motion, sensor) -> Callable[..., StepFn]:
    """GPF step from the sensor record's first belief; the GpfConfig is checked when built."""
    gpf_config = GpfConfig(motion, sensor, clutter_density=1.0 / ws.area, **{
        name: getattr(setup, f"gpf_{name}")
        for name in ("epsilon", "d_thresh", "w_prune", "n_max", "w_birth")})

    def start(rng, first_belief) -> StepFn:
        belief = first_belief()

        def step(z):
            nonlocal belief
            belief = gpf_step(belief, z, gpf_config)
            return belief.means, belief.covs, belief.weights, estimate_cardinality(belief)

        return step

    return start


def _kf_filter(ws, setup, motion, sensor) -> Callable[..., StepFn]:
    """KF step from a broad prior at the workspace centre, anew at each start; it draws nothing."""
    center = np.array([0.5 * (ws.x_min + ws.x_max), 0.0, 0.5 * (ws.y_min + ws.y_max), 0.0])

    def start(rng, first_belief) -> StepFn:
        mean, cov = center, KF_INIT_COV

        def step(z):
            nonlocal mean, cov
            post = kf_update(*kf_predict(mean, cov, motion.F, motion.Q),
                             sensor.position_projection, sensor.R, z)
            mean, cov = post.mean, post.cov
            return mean[None], cov[None], np.ones(1), 1.0

        return step

    return start


def _weighted_cov(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """np.cov(states.T, aweights=weights) bit for bit, unsymmetrized, by numpy 2.4's
    own arithmetic (its `sum` is np.sum) without re-checking a PointParticleSet's weights.

    np.cov sums the weighted (d, N) copy of C-ordered (N, d) states along its strided
    axis, one particle after the next: here that sum is a sequential np.add.accumulate
    over contiguous (d, N) rows.  The final np.dot keeps np.cov's operand layouts,
    which decide its bits.  ExperimentSetup requires pf_ess_ratio * pf_n_particles > 1,
    so a logged set kept an ESS above 1 or was resampled to N >= 2 equal weights: `fact`
    is never 0.
    """
    w_sum = weights.sum()
    avg = np.add.accumulate(np.ascontiguousarray(states.T) * weights, axis=1)[:, -1] / w_sum
    fact = w_sum - np.sum(weights * weights) / w_sum
    x = states - avg  # (N, d): x.T is np.cov's centred (d, N) copy
    c = np.dot(x.T, x * weights[:, None])
    c *= np.true_divide(1, fact)
    return c


def _pf_filter(ws, setup, motion, sensor) -> Callable[..., StepFn]:
    """SIR step; particles start uniform over the workspace with unit-normal velocities.

    The likelihood is a density in R, so an R that is not positive definite
    raises ValueError here: at R = 0 it would fail mid-run, and with one zero
    variance it would vanish for every particle at every step.  So does a
    workspace wider or higher than 1e150 (metrics.distance_cap's bound): the
    squares in the particles' logged covariance would overflow."""
    if max(ws.x_max - ws.x_min, ws.y_max - ws.y_min) > 1e150:
        raise ValueError(f"the pf draws its particles over scenario.workspace, whose width "
                         f"and height must be at most 1e150, got {ws}")
    try:
        np.linalg.cholesky(sensor.R)
    except np.linalg.LinAlgError:
        raise ValueError(f"the pf likelihood needs a positive definite sensor R "
                         f"(sensor.r_diag), got {sensor.R.tolist()}") from None

    def likelihood(states: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.exp(log_pdf(z, sensor.R, states @ sensor.position_projection.T))

    def start(rng, first_belief) -> StepFn:
        n = setup.pf_n_particles
        states = np.stack(
            [
                rng.uniform(ws.x_min, ws.x_max, size=n),
                rng.standard_normal(n),
                rng.uniform(ws.y_min, ws.y_max, size=n),
                rng.standard_normal(n),
            ],
            axis=1,
        )
        pset = PointParticleSet(states, np.full(n, 1.0 / n))

        def step(z):
            nonlocal pset
            pset = pf_step(pset, motion, likelihood, z, rng,
                           ess_ratio=setup.pf_ess_ratio, resample=setup.pf_resample)
            cov = _weighted_cov(pset.states, pset.weights)
            return pset.mean()[None], cov[None], np.ones(1), 1.0

        return step

    return start


# Filter name -> builder (workspace, setup, motion, sensor) -> start(rng, first_belief) -> StepFn:
# the builder builds and checks its records, start makes the random draws after the truth's
FILTERS = {"gpf": _gpf_filter, "pf": _pf_filter, "kf": _kf_filter}


class _Sensor(NamedTuple):
    """A sensor of run_experiment: build(scenario, setup) -> model; measure(model, setup, k,
    truth[k], rng); gpf_belief(setup, truth[0]) -> the GPF's first belief; filters, the Range of
    target counts of each filter that reads it.  SENSORS' lambdas call the sensor functions by
    name when they run, so perfbench's tracer can replace them.  The v2 particle log holds
    pack(z), one array per key of columns (key -> (dtype, row shape)), and count names the list
    of each step's rows (None: one row a step); unpack(*rows of step k) gives z back, or raises
    ValueError for rows that are not `noun`."""

    build: Callable
    measure: Callable
    gpf_belief: Callable[[ExperimentSetup, np.ndarray], GpfParticleSet]
    filters: dict[str, Range]
    columns: dict[str, tuple[str, tuple[int, ...]]]
    count: str | None
    pack: Callable[[object], tuple]
    unpack: Callable
    noun: str


SENSORS = {
    "mean": _Sensor(
        lambda config, setup: MeanSensorModel(np.diag(setup.sensor_r_diag),
                                              position_projection(4)),
        lambda sensor, setup, k, truth, rng: mean_sensor_measure(truth, sensor, rng),
        lambda setup, truth0: GpfParticleSet(  # one row per true initial state: no births
            np.full(len(truth0), setup.gpf_init_weight), truth0,
            np.tile(np.diag(setup.gpf_init_cov_diag), (len(truth0), 1, 1))),
        {"gpf": Range(1), "pf": Range(1, 1), "kf": Range(1, 1)},  # kf, pf: one target only
        {"z": ("<f8", (len(POSITION_IDX),))}, None, lambda z: (z,), lambda z: z[0], "a position"),
    "grid": _Sensor(
        lambda config, setup: GridSensorModel(
            config.workspace, setup.sensor_grid_rows, setup.sensor_grid_cols,
            setup.sensor_p_d, setup.sensor_snr, setup.sensor_m_cells),
        lambda sensor, setup, k, truth, rng: grid_measure(truth, select_cells(
            setup.sensor_strategy, sensor, rng, step=k, fixed=setup.sensor_fixed_cells),
            sensor, rng),
        lambda setup, truth0: GpfParticleSet(),
        {"gpf": Range(0)},
        {"cells": ("<i8", ()), "values": ("|u1", ())}, "n_cells",
        lambda z: (z.cells, z.values), CellReturns, "cell returns"),
}


def check_run(config: ScenarioConfig, filter_choice: str, sensor_choice: str,
              setup: ExperimentSetup):
    """The run's (sensor record, sensor model, filter start), each record built and checked
    before the first random draw; ConfigError if the sensor does not list the filter with a
    Range holding n_targets, or for a record (model, motion, filter) that it rejects."""
    Choice(SENSORS).check(sensor_choice, "sensor")
    kind = SENSORS[sensor_choice]
    Choice(kind.filters).check(filter_choice, f"filter of the {sensor_choice} sensor")
    label = f"scenario.n_targets of {filter_choice} on the {sensor_choice} sensor"
    kind.filters[filter_choice].check(config.n_targets, label)
    try:
        sensor = kind.build(config, setup)
        motion = MotionModel(constant_velocity_matrix(config.tau), np.diag(config.q_diag))
        return kind, sensor, FILTERS[filter_choice](config.workspace, setup, motion, sensor)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run_experiment(
    config: ScenarioConfig,
    filter_choice: str,
    sensor_choice: str,
    rng: np.random.Generator,
    setup: ExperimentSetup | None = None,
) -> list[StepRecord]:
    """Full loop: truth step, sensor measurement, filter step, log record; the run's log
    is its list of records.

    check_run vets the choices and builds the records; metrics are filled in last.  A
    mean or cov that is not finite (a log that mtt eval refuses) raises ValueError naming
    its step, checked once the run is over.
    """
    setup = setup or ExperimentSetup()
    kind, sensor, start = check_run(config, filter_choice, sensor_choice, setup)
    truth = generate_truth(config, rng)
    step = start(rng, lambda: kind.gpf_belief(setup, truth[0]))

    records = []
    for k in range(config.n_steps):
        z = kind.measure(sensor, setup, k, truth[k], rng)
        records.append(StepRecord(truth[k].copy(), z, *step(z)))

    for name in ("means", "covs"):
        if not np.isfinite(np.concatenate([getattr(r, name) for r in records])).all():
            k = next(k for k, r in enumerate(records) if not np.isfinite(getattr(r, name)).all())
            raise ValueError(f"step {k}: a {filter_choice} {name[:-1]} is not finite")
    evaluate_metrics(records, setup)
    return records

