"""Ground-truth scenario generation, tracking metrics, and the end-to-end
experiment loop wiring filters to sensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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

FILTERS = Choice(("gpf", "pf", "kf"))
SENSORS = Choice(("mean", "grid"))

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


def _capped_cost(estimates: np.ndarray, truths: np.ndarray, cap: float, p: int) -> np.ndarray:
    """(m, n) estimate-to-truth distances capped at `cap`, raised to the power p.

    Each squared distance is a per-row matmul, which rounds like the dot
    product of np.linalg.norm; (d * d).sum(-1) and ** p do not.
    """
    d = np.asarray(estimates, dtype=float)[:, None, :] - np.asarray(truths, dtype=float)[None]
    dist = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    return np.float_power(np.minimum(dist, cap), p)


def _matched_cost(estimates: np.ndarray, truths: np.ndarray, cap: float, p: int) -> float:
    """Sum of the _capped_cost entries that a minimum-cost assignment matches."""
    from scipy.optimize import linear_sum_assignment  # here, to keep CLI start-up light
    cost = _capped_cost(estimates, truths, cap, p)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum()


def assignment_rmse(
    estimates: np.ndarray,
    truths: np.ndarray,
    cap: float = 5.0,
) -> float:
    """Position RMSE under the minimum-cost estimate-to-truth assignment.

    Estimates and truths are point sets, (m, d) and (n, d) arrays or lists
    of points.  Distances are capped at `cap`, unmatched truths cost the
    full cap, and the mean square is taken over the number of truths.  With
    no truths the result is 0 when there are also no estimates, else the cap.
    """
    m, n = len(estimates), len(truths)
    if m == 0 or n == 0:
        return 0.0 if m == n else cap
    total = _matched_cost(estimates, truths, cap, 2) + cap**2 * max(0, n - m)
    return float(np.sqrt(total / n))


def ospa_distance(
    estimates: np.ndarray, truths: np.ndarray, cap: float = 5.0, p: int = 2
) -> float:
    """OSPA metric between two point sets (order p, cutoff cap), as in assignment_rmse."""
    m, n = len(estimates), len(truths)
    if m == 0 or n == 0:
        return 0.0 if m == n else cap
    total = _matched_cost(estimates, truths, cap, p) + cap**p * abs(m - n)
    return float((total / max(m, n)) ** (1.0 / p))


def evaluate_metrics(
    truth: np.ndarray,
    log: TrackingLog,
    extraction_threshold: float = 0.5,
    distance_cap: float = 5.0,
    with_ospa: bool = False,
) -> None:
    """Fill per-step RMSE, cardinality error and optionally OSPA into the log records.

    The cardinality error is |sum of weights - true target count|; the
    RMSE is assignment-based over extracted estimates (the positions of
    the means whose weight is >= the extraction threshold) against true
    positions.
    """
    if len(truth) != len(log.records):
        raise ValueError(
            f"{len(truth)} truth steps but {len(log.records)} log records"
        )
    idx = np.asarray(POSITION_IDX)
    for k, record in enumerate(log.records):
        truths = truth[k][:, idx]
        estimates = record.means[record.weights >= extraction_threshold][:, idx]
        record.rmse = assignment_rmse(estimates, truths, distance_cap)
        record.card_err = abs(record.cardinality - len(truths))
        if with_ospa:
            record.ospa = ospa_distance(estimates, truths, distance_cap)


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
    gpf_s_max: int = same_as(GpfConfig, "s_max")
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
        if self.cell_strategy == "fixed_list":
            if not self.fixed_cells:
                raise ValueError("fixed_list strategy requires a cell list")
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


def _gpf_filter(
    config: ScenarioConfig, setup: ExperimentSetup, motion: MotionModel,
    sensor: MeanSensorModel | GridSensorModel, truth0: np.ndarray,
) -> StepFn:
    """GPF step; mean-sensor runs start with one particle per true initial state."""
    clutter = setup.gpf_clutter_density
    if clutter is None:
        clutter = 1.0 / config.workspace.area
    gpf_config = GpfConfig(motion, sensor, clutter_density=clutter, **{
        name: getattr(setup, f"gpf_{name}")
        for name in ("epsilon", "d_thresh", "w_prune", "n_max", "w_birth", "merge_cov", "s_max")})
    belief = GpfParticleSet()
    if isinstance(sensor, MeanSensorModel):
        n = len(truth0)
        init_cov = np.diag(np.asarray(setup.gpf_init_cov_diag, dtype=float))
        belief = GpfParticleSet(
            np.full(n, setup.gpf_init_weight), truth0, np.tile(init_cov, (n, 1, 1))
        )

    def step(z):
        nonlocal belief
        belief = gpf_step(belief, z, gpf_config)
        return belief.means, belief.covs, belief.weights, estimate_cardinality(belief)

    return step


def _kf_filter(motion: MotionModel, sensor: MeanSensorModel, ws: Rectangle) -> StepFn:
    """KF step from a broad prior at the workspace centre."""
    center = np.array([0.5 * (ws.x_min + ws.x_max), 0.0, 0.5 * (ws.y_min + ws.y_max), 0.0])
    mean, cov = center, KF_INIT_COV

    def step(z):
        nonlocal mean, cov
        post = kf_update(*kf_predict(mean, cov, motion.F, motion.Q),
                         sensor.position_projection, sensor.R, z)
        mean, cov = post.mean, post.cov
        return mean[None], cov[None], np.ones(1), 1.0

    return step


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


def _pf_filter(
    motion: MotionModel, sensor: MeanSensorModel, ws: Rectangle, setup: ExperimentSetup,
    rng: np.random.Generator,
) -> StepFn:
    """SIR step; particles start uniform over the workspace with unit-normal velocities."""
    meas_mean = np.zeros(sensor.meas_dim)

    def likelihood(states: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.exp(log_pdf(meas_mean, sensor.R, z - states @ sensor.position_projection.T))

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
        return pset.mean()[None], _weighted_cov(pset.states, pset.weights)[None], np.ones(1), 1.0

    return step


def run_experiment(
    config: ScenarioConfig,
    filter_choice: str,
    sensor_choice: str,
    rng: np.random.Generator,
    setup: ExperimentSetup | None = None,
) -> TrackingLog:
    """Full loop: truth step, sensor measurement, filter step, log record.

    Supported combinations: gpf with either sensor; kf and pf require the
    mean sensor view of a single target (they carry no association or
    cardinality machinery).  Metrics are filled in before returning.
    """
    setup = setup or ExperimentSetup()
    FILTERS.check(filter_choice, "filter")
    SENSORS.check(sensor_choice, "sensor")
    if filter_choice in ("kf", "pf") and (sensor_choice != "mean" or config.n_targets != 1):
        raise ValueError(f"{filter_choice} supports only the mean sensor with one target")

    truth = generate_truth(config, rng)

    if sensor_choice == "mean":
        sensor = MeanSensorModel(
            R=np.diag(np.asarray(setup.mean_r_diag, dtype=float)),
            position_projection=position_projection(4),
        )

        def measure(k: int) -> object:
            return mean_sensor_measure(truth[k], sensor, rng)
    else:
        sensor = GridSensorModel(config.workspace, setup.grid_rows, setup.grid_cols,
                                 setup.p_d, setup.snr, setup.m_cells)

        def measure(k: int) -> object:
            cells = select_cells(
                setup.cell_strategy, sensor, rng, step=k, fixed=setup.fixed_cells
            )
            return grid_measure(truth[k], cells, sensor, rng)

    motion = MotionModel(constant_velocity_matrix(config.tau),
                         np.diag(np.asarray(config.q_diag, dtype=float)))
    if filter_choice == "gpf":
        step = _gpf_filter(config, setup, motion, sensor, truth[0])
    elif filter_choice == "kf":
        step = _kf_filter(motion, sensor, config.workspace)
    else:
        step = _pf_filter(motion, sensor, config.workspace, setup, rng)

    log = TrackingLog()
    for k in range(config.n_steps):
        z = measure(k)
        log.records.append(StepRecord(k, truth[k].copy(), z, *step(z)))

    evaluate_metrics(
        truth,
        log,
        extraction_threshold=setup.extraction_threshold,
        distance_cap=setup.distance_cap,
        with_ospa=setup.with_ospa,
    )
    return log

