import itertools
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mtt.gaussians import log_pdf, noise_factor
from mtt.regions import Rectangle
from mtt.sim import (
    ExperimentSetup,
    ScenarioConfig,
    StepRecord,
    TrackingLog,
    _capped_cost,
    _weighted_cov,
    assignment_rmse,
    evaluate_metrics,
    generate_truth,
    ospa_distance,
    run_experiment,
)


def _record(step, truth, means, weights, cardinality):
    means = np.asarray(means, dtype=float).reshape(-1, 4)
    return StepRecord(
        step=step,
        true_states=np.asarray(truth, dtype=float),
        measurement=None,
        means=means,
        covs=np.tile(np.eye(4), (len(means), 1, 1)),
        weights=np.asarray(weights, dtype=float),
        cardinality=cardinality,
    )


def brute_force_rmse(estimates, truths, cap):
    """Permutation oracle for the assignment RMSE (<= 6 tracks)."""
    n_true, n_est = len(truths), len(estimates)
    if n_true == 0:
        return 0.0 if n_est == 0 else cap
    if n_est == 0:
        return cap

    def pair_cost(e, t):
        return min(np.linalg.norm(np.asarray(e) - np.asarray(t)), cap) ** 2

    best = np.inf
    if n_est >= n_true:
        for perm in itertools.permutations(range(n_est), n_true):
            cost = sum(pair_cost(estimates[perm[j]], truths[j]) for j in range(n_true))
            best = min(best, cost)
    else:
        for perm in itertools.permutations(range(n_true), n_est):
            cost = sum(pair_cost(estimates[i], truths[perm[i]]) for i in range(n_est))
            best = min(best, cost + cap**2 * (n_true - n_est))
    return float(np.sqrt(best / n_true))


class TestGenerateTruth:
    def test_noiseless_constant_velocity(self):
        config = ScenarioConfig(
            n_targets=1, n_steps=3, tau=1.0, q_diag=(0.0, 0.0, 0.0, 0.0),
            initial_states=[(0.0, 1.0, 0.0, 0.0)],
        )
        truth = generate_truth(config, np.random.default_rng(0))
        assert_allclose(truth[:, 0, 0], [0.0, 1.0, 2.0])
        assert_allclose(truth[:, 0, 2], 0.0)

    def test_zero_targets(self):
        config = ScenarioConfig(n_targets=0, n_steps=5)
        truth = generate_truth(config, np.random.default_rng(0))
        assert truth.shape == (5, 0, 4)

    def test_process_noise_variance(self):
        # Monte-Carlo check of the x-position noise variance
        n = 10**4
        config = ScenarioConfig(
            n_targets=n, n_steps=2, tau=1.0,
            initial_states=[(6.0, 0.0, 6.0, 0.0)] * n,
        )
        truth = generate_truth(config, np.random.default_rng(5))
        increments = truth[1, :, 0] - truth[0, :, 0]
        assert abs(np.var(increments) - 20.0) / 20.0 <= 0.05

    def test_seed_reproducibility(self):
        config = ScenarioConfig(n_targets=3, n_steps=10)
        a = generate_truth(config, np.random.default_rng(9))
        b = generate_truth(config, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_initial_state_count_checked(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_targets=2, initial_states=[(0.0, 0.0, 0.0, 0.0)])

    @pytest.mark.parametrize(
        "states",
        [[(np.nan, 0.0, 0.0, 0.0)], [(1.0, 0.0, np.inf, 0.0)], [(1.0, 0.0)],
         [(1.0, 0.0, 1.0, 0.0, 0.0)], [1.0]],
    )
    def test_initial_state_rows_checked(self, states):
        with pytest.raises(ValueError):
            ScenarioConfig(n_targets=1, initial_states=states)


class TestAssignmentRmse:
    def test_perfect_match(self):
        pts = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        assert assignment_rmse(pts, pts) == 0.0

    def test_all_miss(self):
        assert assignment_rmse([], [np.zeros(2)] * 3, cap=5.0) == 5.0

    def test_no_truths(self):
        assert assignment_rmse([], []) == 0.0
        assert assignment_rmse([np.zeros(2)], [], cap=5.0) == 5.0

    def test_offset_pair(self):
        truths = [np.array([0.0, 0.0]), np.array([10.0, 10.0])]
        estimates = [np.array([3.0, 4.0]), np.array([10.0, 10.0])]
        assert_allclose(assignment_rmse(estimates, truths, cap=5.0), np.sqrt(12.5))
        assert_allclose(np.sqrt(12.5), 3.536, atol=5e-4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        truths = [rng.uniform(0, 10, 2) for _ in range(4)]
        estimates = [rng.uniform(0, 10, 2) for _ in range(4)]
        base = assignment_rmse(estimates, truths)
        for perm in itertools.permutations(range(4)):
            assert_allclose(assignment_rmse([estimates[i] for i in perm], truths), base)

    def test_bounded_by_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            truths = [rng.uniform(0, 100, 2) for _ in range(rng.integers(0, 5))]
            estimates = [rng.uniform(0, 100, 2) for _ in range(rng.integers(0, 5))]
            assert assignment_rmse(estimates, truths, cap=5.0) <= 5.0 + 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n_t = int(rng.integers(0, 6))
            n_e = int(rng.integers(0, 6))
            truths = [rng.uniform(0, 12, 2) for _ in range(n_t)]
            estimates = [rng.uniform(0, 12, 2) for _ in range(n_e)]
            got = assignment_rmse(estimates, truths, cap=5.0)
            want = brute_force_rmse(estimates, truths, cap=5.0)
            assert_allclose(got, want, atol=1e-12)


class TestCappedCost:
    @staticmethod
    def _per_pair(estimates, truths, cap, p):
        return np.array([[min(np.linalg.norm(e - t), cap) ** p for t in truths]
                         for e in estimates]).reshape(len(estimates), len(truths))

    @pytest.mark.parametrize("p", [1, 2])
    def test_equals_per_pair_norm_bit_for_bit(self, p):
        rng = np.random.default_rng(6)
        cap = 5.0
        sizes = [(1, 1), (1, 25), (25, 1), (25, 25)] + [tuple(rng.integers(1, 26, 2))
                                                        for _ in range(20)]
        for m, n in sizes:
            truths = rng.uniform(0, 12, (n, 2))
            # estimates scattered at and around the cap from a random truth
            angle = rng.uniform(0, 2 * np.pi, m)
            radius = cap * rng.choice([1.0, 1 - 1e-15, 1 + 1e-15, 0.5, 2.0], m)
            radius *= rng.choice([1.0, 1.0, rng.uniform(0, 2)], m)
            estimates = truths[rng.integers(n, size=m)] + radius[:, None] * np.column_stack(
                (np.cos(angle), np.sin(angle)))
            assert_array_equal(_capped_cost(estimates, truths, cap, p),
                               self._per_pair(estimates, truths, cap, p))

    @pytest.mark.parametrize("p", [1, 2])
    def test_exact_cap_distance(self, p):
        truths = np.array([[0.0, 0.0], [1.0, 1.0]])
        estimates = np.array([[3.0, 4.0], [np.nextafter(3.0, 4.0), 4.0], [4.0, 5.0]])
        got = _capped_cost(estimates, truths, 5.0, p)
        assert_array_equal(got, self._per_pair(estimates, truths, 5.0, p))
        assert got[0, 0] == got[1, 0] == 5.0**p


class TestOspa:
    def test_empty_sets(self):
        assert ospa_distance([], []) == 0.0
        assert ospa_distance([np.zeros(2)], [], cap=5.0) == 5.0

    def test_identical_sets(self):
        pts = [np.array([1.0, 1.0])]
        assert ospa_distance(pts, pts) == 0.0

    def test_cardinality_penalty(self):
        a = [np.zeros(2)]
        b = [np.zeros(2), np.array([0.1, 0.0])]
        d = ospa_distance(a, b, cap=5.0, p=2)
        assert_allclose(d, np.sqrt((0.0 + 25.0) / 2))


class TestEvaluateMetrics:
    def test_perfect_estimates(self):
        truth = np.zeros((1, 2, 4))
        truth[0, 0] = (1.0, 0.0, 2.0, 0.0)
        truth[0, 1] = (5.0, 0.0, 6.0, 0.0)
        log = TrackingLog(
            [_record(0, truth[0], [truth[0, 0], truth[0, 1]], [1.0, 1.0], 2.0)]
        )
        evaluate_metrics(truth, log)
        assert [r.rmse for r in log.records] == [0.0]
        assert [r.card_err for r in log.records] == [0.0]

    def test_all_miss(self):
        truth = np.zeros((1, 3, 4))
        log = TrackingLog([_record(0, truth[0], [], [], 0.0)])
        evaluate_metrics(truth, log, distance_cap=5.0)
        assert [r.rmse for r in log.records] == [5.0]
        assert [r.card_err for r in log.records] == [3.0]

    def test_low_weight_estimates_not_extracted(self):
        truth = np.zeros((1, 1, 4))
        log = TrackingLog([_record(0, truth[0], [np.zeros(4)], [0.2], 0.2)])
        evaluate_metrics(truth, log, extraction_threshold=0.5, distance_cap=5.0)
        assert [r.rmse for r in log.records] == [5.0]
        assert_allclose([r.card_err for r in log.records], [0.8])

    def test_step_count_mismatch(self):
        truth = np.zeros((2, 1, 4))
        log = TrackingLog([_record(0, truth[0], [], [], 0.0)])
        with pytest.raises(ValueError):
            evaluate_metrics(truth, log)

    def test_ospa_optional(self):
        truth = np.zeros((1, 1, 4))
        log = TrackingLog([_record(0, truth[0], [np.zeros(4)], [1.0], 1.0)])
        evaluate_metrics(truth, log, with_ospa=True)
        assert [r.ospa for r in log.records] == [0.0]
        assert log.records[0].ospa == 0.0


class TestExperimentSetup:
    @pytest.mark.parametrize("cells", [[1.5, 2], [True], [np.float64(3.0)], ["4"]])
    def test_fixed_cells_must_be_integers(self, cells):
        # rejected here, not at the first step inside grid_measure
        with pytest.raises(ValueError, match="not an integer"):
            ExperimentSetup(cell_strategy="fixed_list", fixed_cells=cells)

    def test_numpy_integer_cells_accepted(self):
        setup = ExperimentSetup(cell_strategy="fixed_list", fixed_cells=[np.int64(3), 143])
        assert setup.fixed_cells == [3, 143]


class TestWeightedCov:
    @staticmethod
    def _case(seed):
        """A PF-like set: (N, 4) states at a scale in [1e-3, 1e3], normalized weights."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 3001))
        states = rng.uniform(0.0, 12.0, 4) + 10 ** rng.uniform(-3, 3) * rng.standard_normal((n, 4))
        kind = seed % 3
        if kind == 0:  # after resampling: duplicated rows, uniform weights
            return states[rng.integers(0, n, n)], np.full(n, 1.0 / n)
        w = rng.random(n)
        if kind == 1:  # skewed
            w = w**8
        else:  # with zeros, at least two weights kept
            w[rng.random(n) < 0.5] = 0.0
            w[rng.choice(n, 2, replace=False)] += 0.1
        return states, w / w.sum()

    def test_has_np_cov_bits(self):
        asymmetric = 0
        for seed in range(2100):
            states, w = self._case(seed)
            expected = np.cov(states.T, aweights=w)
            assert np.array_equal(_weighted_cov(states, w), expected), seed
            asymmetric += not np.array_equal(expected, expected.T)
        # a symmetrized helper would fail the comparison above
        assert asymmetric > 0


class TestRunExperiment:
    def test_kalman_exact_observation(self):
        # with R = 0 and Q = 0 two exact fixes pin the full state, after
        # which the innovation covariance is singular by construction, so
        # only the first two updates are defined
        config = ScenarioConfig(
            n_targets=1, n_steps=2, tau=1.0, q_diag=(0.0, 0.0, 0.0, 0.0),
            initial_states=[(3.0, 0.5, 4.0, -0.5)],
        )
        setup = ExperimentSetup(mean_r_diag=(0.0, 0.0))
        log = run_experiment(config, "kf", "mean", np.random.default_rng(0), setup)
        for rec in log.records:
            assert rec.rmse <= 1e-6

    def test_kalman_near_exact_observation_long_run(self):
        config = ScenarioConfig(
            n_targets=1, n_steps=10, tau=1.0, q_diag=(0.0, 0.0, 0.0, 0.0),
            initial_states=[(3.0, 0.5, 4.0, -0.5)],
        )
        setup = ExperimentSetup(mean_r_diag=(1e-9, 1e-9))
        log = run_experiment(config, "kf", "mean", np.random.default_rng(0), setup)
        for rec in log.records:
            assert rec.rmse <= 1e-3

    def test_single_step_log(self):
        config = ScenarioConfig(n_targets=1, n_steps=1, initial_states=[(1.0, 0, 1.0, 0)])
        log = run_experiment(config, "kf", "mean", np.random.default_rng(0))
        assert len(log.records) == 1

    def test_unsupported_combinations(self):
        config = ScenarioConfig(n_targets=2, n_steps=2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_experiment(config, "kf", "mean", rng)
        with pytest.raises(ValueError):
            run_experiment(config, "kf", "grid", rng)
        with pytest.raises(ValueError):
            run_experiment(config, "pf", "grid", rng)
        with pytest.raises(ValueError):
            run_experiment(config, "gpf", "lidar", rng)
        with pytest.raises(ValueError):
            run_experiment(config, "ukf", "mean", rng)

    def test_gpf_grid_smoke(self):
        config = ScenarioConfig(
            n_targets=2, n_steps=15, tau=0.1, q_diag=(0.02, 0.002, 0.02, 0.002),
            initial_states=[(3.0, 0, 3.0, 0), (9.0, 0, 9.0, 0)], seed=1,
        )
        setup = ExperimentSetup(snr=10.0, m_cells=36, gpf_w_prune=0.05, gpf_d_thresh=4.0)
        log = run_experiment(config, "gpf", "grid", np.random.default_rng(1), setup)
        assert len(log.records) == 15
        assert all(rec.rmse is not None and rec.card_err is not None for rec in log.records)
        assert all(np.isfinite(rec.cardinality) for rec in log.records)

    def test_gpf_mean_smoke(self):
        config = ScenarioConfig(
            n_targets=2, n_steps=10, tau=0.1, q_diag=(0.02, 0.002, 0.02, 0.002),
            initial_states=[(3.0, 0, 3.0, 0), (9.0, 0, 9.0, 0)],
        )
        log = run_experiment(config, "gpf", "mean", np.random.default_rng(2))
        assert len(log.records) == 10

    def test_pf_mean_tracks(self):
        config = ScenarioConfig(
            n_targets=1, n_steps=10, tau=1.0, q_diag=(0.1, 0.01, 0.1, 0.01),
            initial_states=[(6.0, 0.0, 6.0, 0.0)],
        )
        setup = ExperimentSetup(pf_n_particles=2000, mean_r_diag=(0.25, 0.25))
        log = run_experiment(config, "pf", "mean", np.random.default_rng(3), setup)
        assert log.records[-1].rmse < 2.0

    def test_pf_step_calls_log_pdf_once(self, monkeypatch):
        # the likelihood weighs every particle in one call: one Cholesky of R per step
        calls = []

        def counting_log_pdf(mean, cov, x):
            calls.append(np.shape(x))
            return log_pdf(mean, cov, x)

        monkeypatch.setattr("mtt.sim.log_pdf", counting_log_pdf)
        config = ScenarioConfig(n_targets=1, n_steps=4, initial_states=[(6.0, 0.0, 6.0, 0.0)])
        run_experiment(config, "pf", "mean", np.random.default_rng(0),
                       ExperimentSetup(pf_n_particles=300))
        assert calls == [(300, 2)] * 4

    @pytest.mark.parametrize(
        "filter_choice, sensor_choice, factored",
        [("kf", "mean", ["R", "Q"]), ("pf", "mean", ["R", "Q"]), ("gpf", "mean", ["R", "Q"]),
         ("gpf", "grid", ["Q"])],
    )
    def test_each_noise_covariance_factored_once(self, filter_choice, sensor_choice, factored,
                                                 monkeypatch):
        # a run builds one sensor and one motion record, which check and factor
        # their own R and Q; no filter builds another
        calls = []

        def spy(cov, name="covariance"):
            calls.append(name)
            return noise_factor(cov, name)

        for module_name, module in list(sys.modules.items()):
            held = getattr(module, "noise_factor", None)
            if module_name.split(".")[0] == "mtt" and held is noise_factor:
                monkeypatch.setattr(module, "noise_factor", spy)
        config = ScenarioConfig(n_targets=1, n_steps=2, initial_states=[(6.0, 0.0, 6.0, 0.0)])
        run_experiment(config, filter_choice, sensor_choice, np.random.default_rng(0),
                       ExperimentSetup(pf_n_particles=50))
        assert calls == factored

    @pytest.mark.parametrize("filter_choice", ["kf", "pf", "gpf"])
    def test_records_hold_estimate_arrays(self, filter_choice):
        config = ScenarioConfig(n_targets=1, n_steps=3, initial_states=[(6.0, 0.0, 6.0, 0.0)])
        log = run_experiment(config, filter_choice, "mean", np.random.default_rng(0),
                             ExperimentSetup(pf_n_particles=50))
        for rec in log.records:
            n = len(rec.weights)
            assert n >= 1
            assert rec.weights.shape == (n,)
            assert rec.means.shape == (n, 4)
            assert rec.covs.shape == (n, 4, 4)
            assert rec.weights.dtype == rec.means.dtype == rec.covs.dtype == np.float64

    def test_deterministic_per_seed(self):
        config = ScenarioConfig(
            n_targets=2, n_steps=8, tau=0.1, q_diag=(0.02, 0.002, 0.02, 0.002),
            initial_states=[(3.0, 0, 3.0, 0), (9.0, 0, 9.0, 0)],
        )
        logs = [
            run_experiment(config, "gpf", "grid", np.random.default_rng(7))
            for _ in range(2)
        ]
        rmse_a = [r.rmse for r in logs[0].records]
        rmse_b = [r.rmse for r in logs[1].records]
        assert rmse_a == rmse_b
