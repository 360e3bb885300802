"""Ground-truth scenario generation, tracking metrics, and the end-to-end
experiment loop wiring filters to sensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .domains import Choice, Range, check_fields, declare, same_as
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
                raise ValueError(f"want {self.n_targets} initial states of 4 finite numbers "
                                 f"(x, vx, y, vy), got {states}")


@dataclass
class StepRecord:
    """Everything logged about one time step: the truth, the measurement, the
    filter's estimate as n weighted Gaussians, and the metrics."""

    step: int
    true_states: np.ndarray
    measurement: np.ndarray | CellReturns  # as the sensor returned it
    means: np.ndarray  # (n, 4)
    covs: np.ndarray  # (n, 4, 4)
    weights: np.ndarray  # (n,)
    cardinality: float
    rmse: float | None = None
    card_err: float | None = None
    ospa: float | None = None


@dataclass
class TrackingLog:
    records: list[StepRecord] = field(default_factory=list)


def generate_truth(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Simulate target trajectories; returns array (n_steps, n_targets, 4).

    Step 0 holds the initial states; each later step applies the
    constant-velocity transition plus N(0, diag(q_diag)) noise.  Targets
    are free to leave the workspace.
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
    scale = np.sqrt(q_diag)
    for k in range(1, config.n_steps):
        noise = rng.standard_normal((config.n_targets, 4)) * scale
        truth[k] = truth[k - 1] @ f.T + noise
    return truth


def _capped_cost(estimates: np.ndarray, truths: np.ndarray, cap: float) -> np.ndarray:
    """(m, n) estimate-to-truth distances capped at `cap`, squared.

    Each squared distance is a per-row matmul, which rounds like the dot
    product of np.linalg.norm; (d * d).sum(-1) and ** 2 do not.
    """
    d = np.asarray(estimates, dtype=float)[:, None, :] - np.asarray(truths, dtype=float)[None]
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


def match_scores(estimates: np.ndarray, truths: np.ndarray, cap: float) -> tuple[float, float]:
    """(RMSE, OSPA) of the estimates against the truths from one minimum-cost assignment.

    Estimates and truths are point sets, (m, d) and (n, d) arrays or lists
    of points.  The assignment matches min(m, n) pairs at the least sum S of
    _capped_cost entries.  The RMSE adds the full cap squared for each
    unmatched truth and takes the mean square over the n truths; the OSPA
    (order 2, cutoff cap) adds it for each of the |m - n| unmatched points and
    takes the mean over max(m, n).  Both are 0 when both sets are empty, else
    the cap when either is.
    """
    m, n = len(estimates), len(truths)
    if m == 0 or n == 0:
        score = 0.0 if m == n else cap
        return score, score
    cost = _capped_cost(estimates, truths, cap)
    rows, cols = _linear_sum_assignment(cost)
    matched = cost[rows, cols].sum()
    rmse = np.sqrt((matched + cap**2 * max(0, n - m)) / n)
    ospa = ((matched + cap**2 * abs(m - n)) / max(m, n)) ** 0.5
    return float(rmse), float(ospa)


def evaluate_metrics(truth: np.ndarray, log: TrackingLog, setup: ExperimentSetup) -> None:
    """Fill per-step RMSE, cardinality error and, with setup.with_ospa, OSPA (else None)
    into the log records.

    The cardinality error is |sum of weights - true target count|; RMSE
    and OSPA come from match_scores over extracted estimates (the positions
    of the means whose weight is >= setup.extraction_threshold) against true
    positions, capped at setup.distance_cap.
    """
    if len(truth) != len(log.records):
        raise ValueError(
            f"{len(truth)} truth steps but {len(log.records)} log records"
        )
    idx = np.asarray(POSITION_IDX)
    for k, record in enumerate(log.records):
        truths = truth[k][:, idx]
        estimates = record.means[record.weights >= setup.extraction_threshold][:, idx]
        record.rmse, ospa = match_scores(estimates, truths, setup.distance_cap)
        record.card_err = abs(record.cardinality - len(truths))
        record.ospa = ospa if setup.with_ospa else None


@dataclass(frozen=True)
class ExperimentSetup:
    """Filter-side knobs for run_experiment beyond the scenario itself; the gpf_*
    and grid fields take their defaults and ranges from GpfConfig and GridSensorModel."""

    mean_r_diag: tuple[float, ...] = declare((0.5, 0.5), Range(0.0, size=2))
    grid_rows: int = same_as(GridSensorModel, "rows")
    grid_cols: int = same_as(GridSensorModel, "cols")
    p_d: float = same_as(GridSensorModel, "p_d")
    snr: float = same_as(GridSensorModel, "snr")
    m_cells: int = same_as(GridSensorModel, "m_cells")
    cell_strategy: str = declare("random", Choice(CELL_STRATEGIES))
    fixed_cells: list[int] | None = None
    gpf_epsilon: float = same_as(GpfConfig, "epsilon")
    gpf_d_thresh: float = same_as(GpfConfig, "d_thresh")
    gpf_w_prune: float = same_as(GpfConfig, "w_prune")
    gpf_n_max: int = same_as(GpfConfig, "n_max")
    gpf_w_birth: float = same_as(GpfConfig, "w_birth")
    gpf_clutter_density: float | None = same_as(GpfConfig, "clutter_density", default=None)
    gpf_merge_cov: str = same_as(GpfConfig, "merge_cov")
    gpf_init_weight: float = declare(0.9, Range(0.0, 1.0, lo_open=True))
    gpf_init_cov_diag: tuple[float, ...] = declare((1.0, 0.1, 1.0, 0.1),
                                                   Range(0.0, lo_open=True, size=4))
    pf_n_particles: int = declare(1000, Range(1))
    pf_ess_ratio: float = declare(0.5, Range(0.0, 1.0, lo_open=True))
    pf_resample: str = declare("multinomial", Choice(_RESAMPLERS))
    extraction_threshold: float = declare(0.5, Range(0.0, 1.0))
    distance_cap: float = declare(5.0, Range(0.0, lo_open=True))
    with_ospa: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.cell_strategy == "fixed_list" and not self.fixed_cells:
            raise ValueError("fixed_list strategy requires a cell list")
        if self.fixed_cells is not None:  # checked under every strategy: the manifest keeps it
            n = len(check_cells(self.fixed_cells, self.grid_rows * self.grid_cols))
            if n > self.m_cells:
                raise ValueError(f"{n} fixed cells but m_cells = {self.m_cells}")
        if self.pf_ess_ratio * self.pf_n_particles <= 1:
            # the ESS is never below 1: the PF could never resample, and its
            # weights could collapse onto one particle
            raise ValueError(
                f"pf.ess_ratio * pf.n_particles must exceed 1, got "
                f"{self.pf_ess_ratio!r} * {self.pf_n_particles!r}")


# One filter step: measurement -> (means (n, 4), covs (n, 4, 4), weights (n,), cardinality).
StepFn = Callable[[object], tuple[np.ndarray, np.ndarray, np.ndarray, float]]


def _gpf_filter(ws, setup, motion, sensor) -> Callable[..., StepFn]:
    """GPF step from the sensor record's first belief; the GpfConfig is checked when built."""
    clutter = setup.gpf_clutter_density
    if clutter is None:
        clutter = 1.0 / ws.area
    gpf_config = GpfConfig(motion, sensor, clutter_density=clutter, **{
        name: getattr(setup, f"gpf_{name}")
        for name in ("epsilon", "d_thresh", "w_prune", "n_max", "w_birth", "merge_cov")})

    def start(rng, first_belief) -> StepFn:
        belief = first_belief()

        def step(z):
            nonlocal belief
            belief = gpf_step(belief, z, gpf_config)
            return belief.means, belief.covs, belief.weights, estimate_cardinality(belief)

        return step

    return start


def _kf_filter(ws, setup, motion, sensor) -> Callable[..., StepFn]:
    """KF step from a broad prior at the workspace centre; it draws nothing."""
    center = np.array([0.5 * (ws.x_min + ws.x_max), 0.0, 0.5 * (ws.y_min + ws.y_max), 0.0])
    mean, cov = center, KF_INIT_COV

    def step(z):
        nonlocal mean, cov
        post = kf_update(*kf_predict(mean, cov, motion.F, motion.Q),
                         sensor.position_projection, sensor.R, z)
        mean, cov = post.mean, post.cov
        return mean[None], cov[None], np.ones(1), 1.0

    return lambda rng, first_belief: step


def _weighted_cov(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """np.cov(states.T, aweights=weights) bit for bit, unsymmetrized, by numpy 2.4's
    own arithmetic (its `sum` is np.sum) without re-checking a PointParticleSet's weights.

    ExperimentSetup requires pf_ess_ratio * pf_n_particles > 1, so a logged set
    kept an ESS above 1 or was resampled to N >= 2 equal weights: `fact` is never 0.
    """
    x = np.array(states.T)
    w_sum = weights.sum()
    avg = (x * weights).sum(axis=1) / w_sum
    fact = w_sum - np.sum(weights * weights) / w_sum
    x -= avg[:, None]
    c = np.dot(x, (x * weights).T)
    c *= np.true_divide(1, fact)
    return c


def _pf_filter(ws, setup, motion, sensor) -> Callable[..., StepFn]:
    """SIR step; particles start uniform over the workspace with unit-normal velocities.

    The likelihood is a density in R, so an R that is not positive definite
    raises ValueError here: at R = 0 it would fail mid-run, and with one zero
    variance it would vanish for every particle at every step."""
    try:
        np.linalg.cholesky(sensor.R)
    except np.linalg.LinAlgError:
        raise ValueError(f"the pf likelihood needs a positive definite sensor R "
                         f"(sensor.r_diag), got {sensor.R.tolist()}") from None
    meas_mean = np.zeros(sensor.meas_dim)

    def likelihood(states: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.exp(log_pdf(meas_mean, sensor.R, z - states @ sensor.position_projection.T))

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
        lambda config, setup: MeanSensorModel(np.diag(setup.mean_r_diag), position_projection(4)),
        lambda sensor, setup, k, truth, rng: mean_sensor_measure(truth, sensor, rng),
        lambda setup, truth0: GpfParticleSet(  # one row per true initial state: no births
            np.full(len(truth0), setup.gpf_init_weight), truth0,
            np.tile(np.diag(setup.gpf_init_cov_diag), (len(truth0), 1, 1))),
        {"gpf": Range(1), "pf": Range(1, 1), "kf": Range(1, 1)},  # kf, pf: one target only
        {"z": ("<f8", (len(POSITION_IDX),))}, None, lambda z: (z,), lambda z: z[0], "a position"),
    "grid": _Sensor(
        lambda config, setup: GridSensorModel(config.workspace, setup.grid_rows, setup.grid_cols,
                                              setup.p_d, setup.snr, setup.m_cells),
        lambda sensor, setup, k, truth, rng: grid_measure(truth, select_cells(
            setup.cell_strategy, sensor, rng, step=k, fixed=setup.fixed_cells), sensor, rng),
        lambda setup, truth0: GpfParticleSet(),
        {"gpf": Range(0)},
        {"cells": ("<i8", ()), "values": ("|u1", ())}, "n_cells",
        lambda z: (z.cells, z.values), CellReturns, "cell returns"),
}


def check_run(config: ScenarioConfig, filter_choice: str, sensor_choice: str,
              setup: ExperimentSetup, error: type[Exception] = ValueError):
    """The run's (sensor record, sensor model, filter start), each record built and checked
    before the first random draw; error if the sensor does not list the filter with a Range
    holding n_targets, or for the ValueError of a record (model, motion, filter) it rejects."""
    Choice(SENSORS).check(sensor_choice, "sensor", error)
    kind = SENSORS[sensor_choice]
    Choice(kind.filters).check(filter_choice, f"filter of the {sensor_choice} sensor", error)
    label = f"scenario.n_targets of {filter_choice} on the {sensor_choice} sensor"
    kind.filters[filter_choice].check(config.n_targets, label, error)
    try:
        sensor = kind.build(config, setup)
        motion = MotionModel(constant_velocity_matrix(config.tau), np.diag(config.q_diag))
        return kind, sensor, FILTERS[filter_choice](config.workspace, setup, motion, sensor)
    except ValueError as exc:
        raise error(str(exc)) from None


def run_experiment(
    config: ScenarioConfig,
    filter_choice: str,
    sensor_choice: str,
    rng: np.random.Generator,
    setup: ExperimentSetup | None = None,
    error: type[Exception] = ValueError,
) -> TrackingLog:
    """Full loop: truth step, sensor measurement, filter step, log record.

    check_run (with error) vets the choices and builds the records; metrics are filled in last.
    """
    setup = setup or ExperimentSetup()
    kind, sensor, start = check_run(config, filter_choice, sensor_choice, setup, error)
    truth = generate_truth(config, rng)
    step = start(rng, lambda: kind.gpf_belief(setup, truth[0]))

    log = TrackingLog()
    for k in range(config.n_steps):
        z = kind.measure(sensor, setup, k, truth[k], rng)
        log.records.append(StepRecord(k, truth[k].copy(), z, *step(z)))

    evaluate_metrics(truth, log, setup)
    return log

