"""Multi-target tracking with Gaussian-particle, Kalman, and SIR filters."""

__version__ = "0.1.0"

from .gaussians import SingularCovarianceError, log_pdf, moment_match_merge
from .gpf import (
    ExistenceCombination,
    GpfConfig,
    GpfParticleSet,
    birth_and_prune,
    conditional_kf_update,
    enumerate_combinations,
    estimate_cardinality,
    gpf_predict,
    gpf_step,
    marginalize_existence,
    merge_close_particles,
    select_fov_particles,
)
from .kalman import KalmanUpdate, kf_predict, kf_update
from .motion import MotionModel
from .particle import PointParticleSet, effective_sample_size, pf_step
from .regions import Rectangle
from .sensors import (
    CellReturns,
    GridSensorModel,
    MeanSensorModel,
    detection_prob,
    grid_measure,
    mean_sensor_measure,
    select_cells,
)
from .sim import (
    ExperimentSetup,
    ScenarioConfig,
    evaluate_metrics,
    generate_truth,
    run_experiment,
)
