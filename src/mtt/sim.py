"""Ground-truth scenario generation, tracking metrics, and the end-to-end
experiment loop wiring filters to sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gaussians import GaussianState, log_pdf
from .gpf import GpfConfig, GpfParticleSet, estimate_cardinality, gpf_step
from .kalman import LinearGaussianModel, kf_predict, kf_update
from .motion import POSITION_IDX, constant_velocity_matrix, position_projection
from .particle import PointParticleSet, pf_step
from .regions import Rectangle
from .sensors import (
    CellReturns,
    GridSensorModel,
    MeanSensorModel,
    grid_measure,
    mean_sensor_measure,
    select_cells,
)

FILTERS = ("gpf", "pf", "kf")
SENSORS = ("mean", "grid")

# Prior covariance of the KF baseline, which starts at the workspace centre.
KF_INIT_COV = np.diag([400.0, 100.0, 400.0, 100.0])


@dataclass
class ScenarioConfig:
    """Parameters of one simulated multi-target scenario."""

    n_targets: int = 3
    n_steps: int = 100
    tau: float = 1.0
    q_diag: tuple[float, float, float, float] = (20.0, 0.2, 20.0, 0.2)
    workspace: Rectangle = field(default_factory=lambda: Rectangle(0.0, 0.0, 12.0, 12.0))
    seed: int = 0
    initial_states: list[tuple[float, float, float, float]] | None = None

    def __post_init__(self) -> None:
        if self.n_targets < 0:
            raise ValueError("n_targets must be non-negative")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if len(self.q_diag) != 4:
            raise ValueError("q_diag must have four entries")
        if not all(0.0 <= v < math.inf for v in self.q_diag):
            raise ValueError("q_diag entries must be finite and non-negative")
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
    measurement: object
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
    n_true = len(truths)
    n_est = len(estimates)
    if n_true == 0:
        return 0.0 if n_est == 0 else cap
    if n_est == 0:
        return cap
    from scipy.optimize import linear_sum_assignment  # here, to keep CLI start-up light
    cost = _capped_cost(estimates, truths, cap, 2)
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum() + cap**2 * max(0, n_true - n_est)
    return float(np.sqrt(total / n_true))


def ospa_distance(
    estimates: np.ndarray, truths: np.ndarray, cap: float = 5.0, p: int = 2
) -> float:
    """OSPA metric between two point sets (order p, cutoff cap), as in assignment_rmse."""
    m, n = len(estimates), len(truths)
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return cap
    from scipy.optimize import linear_sum_assignment
    cost = _capped_cost(estimates, truths, cap, p)
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum() + cap**p * abs(m - n)
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


@dataclass
class ExperimentSetup:
    """Filter-side knobs for run_experiment beyond the scenario itself."""

    mean_r_diag: tuple[float, ...] = (0.5, 0.5)
    grid_rows: int = 12
    grid_cols: int = 12
    p_d: float = 0.9
    snr: float = 3.0
    m_cells: int = 12
    cell_strategy: str = "random"
    fixed_cells: list[int] | None = None
    gpf_epsilon: float = 0.01
    gpf_d_thresh: float = 1.0
    gpf_w_prune: float = 0.01
    gpf_n_max: int = 100
    gpf_w_birth: float = 0.1
    gpf_clutter_density: float | None = None
    gpf_merge_cov: str = "moment"
    gpf_s_max: int = 20
    gpf_init_weight: float = 0.9
    gpf_init_cov_diag: tuple[float, float, float, float] = (1.0, 0.1, 1.0, 0.1)
    pf_n_particles: int = 1000
    pf_ess_ratio: float = 0.5
    pf_resample: str = "multinomial"
    extraction_threshold: float = 0.5
    distance_cap: float = 5.0
    with_ospa: bool = False

    def __post_init__(self) -> None:
        if self.cell_strategy == "fixed_list":
            cells, n_cells = self.fixed_cells or [], self.grid_rows * self.grid_cols
            if not cells:
                raise ValueError("fixed_list strategy requires a cell list")
            for c in cells:
                if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                    raise ValueError(f"cell index {c!r} is not an integer")
                if not 0 <= c < n_cells:
                    raise ValueError(f"cell index {c} out of range [0, {n_cells})")
            if len(cells) > self.m_cells:
                raise ValueError(f"{len(cells)} fixed cells but m_cells = {self.m_cells}")


# One filter step: measurement -> (means (n, 4), covs (n, 4, 4), weights (n,), cardinality).
StepFn = Callable[[object], tuple[np.ndarray, np.ndarray, np.ndarray, float]]


def _gpf_filter(
    config: ScenarioConfig, setup: ExperimentSetup, sensor: MeanSensorModel | GridSensorModel,
    f: np.ndarray, q: np.ndarray, truth0: np.ndarray,
) -> StepFn:
    """GPF step; mean-sensor runs start with one particle per true initial state."""
    clutter = setup.gpf_clutter_density
    if clutter is None:
        clutter = 1.0 / config.workspace.area
    gpf_config = GpfConfig(
        f_matrix=f,
        q_matrix=q,
        sensor=sensor,
        epsilon=setup.gpf_epsilon,
        d_thresh=setup.gpf_d_thresh,
        w_prune=setup.gpf_w_prune,
        n_max=setup.gpf_n_max,
        w_birth=setup.gpf_w_birth,
        clutter_density=clutter,
        merge_cov=setup.gpf_merge_cov,
        s_max=setup.gpf_s_max,
    )
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


def _kf_filter(model: LinearGaussianModel, ws: Rectangle) -> StepFn:
    """KF step from a broad prior at the workspace centre."""
    center = np.array([0.5 * (ws.x_min + ws.x_max), 0.0, 0.5 * (ws.y_min + ws.y_max), 0.0])
    belief = GaussianState(center, KF_INIT_COV)

    def step(z):
        nonlocal belief
        belief = kf_update(kf_predict(belief, model.F, model.Q), model.H, model.R, z).posterior
        return belief.mean[None], belief.cov[None], np.ones(1), 1.0

    return step


def _pf_filter(
    model: LinearGaussianModel, ws: Rectangle, setup: ExperimentSetup, rng: np.random.Generator
) -> StepFn:
    """SIR step; particles start uniform over the workspace with unit-normal velocities."""
    meas_state = GaussianState(np.zeros(model.H.shape[0]), model.R)

    def likelihood(states: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.exp(log_pdf(meas_state, z - states @ model.H.T))

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
        pset = pf_step(pset, model, likelihood, z, rng,
                       ess_ratio=setup.pf_ess_ratio, resample=setup.pf_resample)
        cov = np.cov(pset.states.T, aweights=pset.weights)  # logged unsymmetrized, as computed
        return pset.mean()[None], cov[None], np.ones(1), 1.0

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
    if filter_choice not in FILTERS:
        raise ValueError(f"unknown filter {filter_choice!r}")
    if sensor_choice not in SENSORS:
        raise ValueError(f"unknown sensor {sensor_choice!r}")
    if filter_choice in ("kf", "pf") and (sensor_choice != "mean" or config.n_targets != 1):
        raise ValueError(f"{filter_choice} supports only the mean sensor with one target")

    truth = generate_truth(config, rng)
    f = constant_velocity_matrix(config.tau)
    q = np.diag(np.asarray(config.q_diag, dtype=float))

    if sensor_choice == "mean":
        sensor = MeanSensorModel(
            R=np.diag(np.asarray(setup.mean_r_diag, dtype=float)),
            position_projection=position_projection(4),
        )

        def measure(k: int) -> object:
            return mean_sensor_measure(list(truth[k]), sensor, rng)
    else:
        sensor = GridSensorModel(config.workspace, setup.grid_rows, setup.grid_cols,
                                 setup.p_d, setup.snr, setup.m_cells)

        def measure(k: int) -> object:
            cells = select_cells(
                setup.cell_strategy, sensor, rng, step=k, fixed=setup.fixed_cells
            )
            return grid_measure(list(truth[k]), cells, sensor, rng)

    if filter_choice == "gpf":
        step = _gpf_filter(config, setup, sensor, f, q, truth[0])
    else:
        model = LinearGaussianModel(F=f, Q=q, H=sensor.position_projection, R=sensor.R)
        if filter_choice == "kf":
            step = _kf_filter(model, config.workspace)
        else:
            step = _pf_filter(model, config.workspace, setup, rng)

    log = TrackingLog()
    for k in range(config.n_steps):
        z = measure(k)
        log.records.append(StepRecord(k, truth[k].copy(), _encode_measurement(z), *step(z)))

    evaluate_metrics(
        truth,
        log,
        extraction_threshold=setup.extraction_threshold,
        distance_cap=setup.distance_cap,
        with_ospa=setup.with_ospa,
    )
    return log


def _encode_measurement(z: np.ndarray | CellReturns) -> list:
    """A measurement as lists for logging: an array's values, or [cell, value] pairs."""
    if isinstance(z, CellReturns):
        return np.column_stack((z.cells, z.values)).tolist()
    return z.tolist()
