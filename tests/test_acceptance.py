"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers (run with `pytest -s` to see them).
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose
from scipy import stats

from mtt.cli import run_command
from mtt.gpf import (
    GpfConfig,
    GpfParticleSet,
    conditional_kf_update,
    enumerate_combinations,
    estimate_cardinality,
    gpf_step,
)
from mtt.kalman import kf_predict, kf_update
from mtt.motion import MotionModel, constant_velocity_matrix, position_projection
from mtt.particle import _RESAMPLERS, PointParticleSet, effective_sample_size, pf_step
from mtt.regions import Rectangle
from mtt.sensors import GridSensorModel, MeanSensorModel, detection_prob, grid_measure
from mtt.sim import (
    ExperimentSetup,
    ScenarioConfig,
    _capped_cost,
    match_scores,
    run_experiment,
)

WORKSPACE = Rectangle(0.0, 0.0, 12.0, 12.0)


def _report(criterion, budget, elapsed, detail):
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    print(f"\nACCEPTANCE {criterion} PASS ({elapsed:.1f}s < {budget}s) {detail}")


def _pset(rows):
    """The belief holding these (weight, mean, cov) rows, in order (stacked into arrays)."""
    return GpfParticleSet(
        [w for w, _, _ in rows],
        np.array([m for _, m, _ in rows]),
        np.array([c for _, _, c in rows]),
    )


def _random_psd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.2 * np.eye(n)


def test_criterion_1_gpf_reduces_to_kalman():
    """Single particle, weight one, full view: the filter IS a Kalman filter."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    motion = MotionModel(F=constant_velocity_matrix(1.0), Q=np.diag([0.5, 0.05, 0.5, 0.05]))
    sensor = MeanSensorModel(R=np.eye(2) * 0.4, position_projection=position_projection())
    config = GpfConfig(
        motion=motion, sensor=sensor,
        clutter_density=1.0 / WORKSPACE.area, epsilon=0.001,
    )

    kf_mean, kf_cov = np.array([6.0, 0.1, 6.0, -0.1]), np.diag([2.0, 0.5, 2.0, 0.5])
    belief = GpfParticleSet([1.0], kf_mean[None], kf_cov[None])
    worst = 0.0
    for _ in range(100):
        pred = kf_predict(kf_mean, kf_cov, motion.F, motion.Q)
        z = pred[0][[0, 2]] + rng.standard_normal(2)
        belief = gpf_step(belief, z, config)
        kf_mean, kf_cov, *_ = kf_update(*pred, sensor.position_projection, sensor.R, z)
        assert len(belief) == 1 and belief.weights[0] == 1.0
        assert_allclose(belief.means[0], kf_mean, rtol=1e-10)
        assert_allclose(belief.covs[0], kf_cov, rtol=1e-10)
        worst = max(
            worst,
            float(np.max(np.abs(belief.means[0] - kf_mean) / np.abs(kf_mean))),
        )
    _report(1, 5.0, time.perf_counter() - t0,
            f"100 steps, worst relative mean deviation {worst:.1e} (tol 1e-10)")


def test_criterion_2_conditional_gain_closed_form():
    """Gain of the conditional update equals its closed form, plus the
    hand-computed two-particle example (K = 1/3, posterior var 5/6)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([1, 2, 4]))
        s = int(rng.choice([1, 2, 3]))
        bits = [0] * s
        active = rng.choice(s, size=rng.integers(1, s + 1), replace=False)
        for i in active:
            bits[i] = 1
        j = int(rng.choice(active))
        rows = [(rng.standard_normal(n), _random_psd(rng, n)) for _ in range(s)]
        means, covs = np.array([m for m, _ in rows]), np.array([c for _, c in rows])
        r = _random_psd(rng, n)
        ne = sum(bits)
        denom = r + sum(covs[i] for i in range(s) if bits[i]) / ne**2
        closed = covs[j] @ np.linalg.inv(denom) / ne
        z = rng.standard_normal(n)
        rows = np.flatnonzero(bits)  # one update of the combination's stacked active rows
        k = rows.tolist().index(j)
        gain = conditional_kf_update(means[rows], covs[rows], z, r, np.eye(n)).gain
        got = gain[k * n:(k + 1) * n]  # row j's block
        rel = np.linalg.norm(got - closed) / np.linalg.norm(closed)
        assert rel <= 1e-10
        worst = max(worst, rel)

    out = conditional_kf_update(
        np.array([[0.0], [2.0]]), np.array([[[1.0]], [[1.0]]]),
        np.array([1.0]), np.array([[1.0]]), np.eye(1),
    )
    assert_allclose(out.gain, [[1.0 / 3.0], [1.0 / 3.0]], rtol=1e-15)
    assert_allclose(out.mean, [0.0, 2.0], atol=1e-15)
    assert_allclose(np.diag(out.cov), [5.0 / 6.0, 5.0 / 6.0], rtol=1e-15)
    _report(2, 5.0, time.perf_counter() - t0,
            f"200 instances, worst relative gain deviation {worst:.1e} (tol 1e-10)")


def test_criterion_3_pf_tracks_kalman_oracle():
    """SIR filter posterior mean stays within 3 Monte-Carlo standard errors
    of the exact Kalman mean (low-variance systematic resampling)."""
    t0 = time.perf_counter()
    model = MotionModel(F=[[0.95]], Q=[[0.5]])

    def likelihood(states, z):
        return np.exp(-0.5 * (z[0] - states[:, 0]) ** 2)

    n = 10**4
    hits = total = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        truth = 0.0
        kf_mean, kf_cov = np.array([0.0]), np.array([[2.0]])
        pset = PointParticleSet(
            rng.normal(0.0, math.sqrt(2.0), (n, 1)), np.full(n, 1.0 / n)
        )
        for _ in range(50):
            truth = 0.95 * truth + rng.normal(0.0, math.sqrt(0.5))
            z = np.array([truth + rng.normal()])
            pred = kf_predict(kf_mean, kf_cov, model.F, model.Q)
            kf_mean, kf_cov, *_ = kf_update(*pred, np.eye(1), np.eye(1), z)
            pset = pf_step(pset, model, likelihood, z, rng, resample="systematic")
            ess = effective_sample_size(pset.weights)
            mu = pset.mean()[0]
            var = float(pset.weights @ (pset.states[:, 0] - mu) ** 2)
            se = math.sqrt(max(var, 1e-300) / ess)
            total += 1
            hits += abs(mu - kf_mean[0]) <= 3 * se
    rate = hits / total
    assert rate >= 0.95, f"only {rate:.3f} of (step, seed) pairs within 3 SE"
    _report(3, 30.0, time.perf_counter() - t0,
            f"{hits}/{total} pairs within 3 MC standard errors (need >= 95%)")


def test_criterion_4_grid_sensor_statistics():
    """Empirical detection frequencies match the Rayleigh threshold model."""
    t0 = time.perf_counter()
    model = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
    rng = np.random.default_rng(404)
    trials = 10**5
    placements = {
        0: [],
        1: [np.array([0.5, 0.0, 0.5, 0.0])],
        2: [np.array([0.5, 0.0, 0.5, 0.0]), np.array([0.7, 0.0, 0.3, 0.0])],
    }
    details = []
    for t_count, states in placements.items():
        expected = detection_prob(t_count, 0.9, 3.0)
        hits = sum(
            grid_measure(states, [0], model, rng).values[0] for _ in range(trials)
        )
        freq = hits / trials
        sigma = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(freq - expected) <= 3 * sigma, (
            f"T={t_count}: freq {freq:.4f} vs {expected:.4f} (3 sigma {3*sigma:.4f})"
        )
        details.append(f"T={t_count}: {freq:.4f}~{expected:.4f}")
    assert_allclose(detection_prob(0, 0.9, 3.0), 0.6561, atol=1e-12)
    assert_allclose(detection_prob(1, 0.9, 3.0), 0.9, atol=1e-15)
    assert_allclose(detection_prob(2, 0.9, 3.0), 0.9416, atol=5e-5)
    _report(4, 10.0, time.perf_counter() - t0, "; ".join(details))


def test_criterion_5_errors_decrease_with_measurements():
    """Tracking errors late in a run are below the early ones: grid sensor,
    three targets, 100 steps, 20 seeds, paired one-sided t-test at 95%."""
    t0 = time.perf_counter()
    early_rmse, late_rmse, early_card, late_card = [], [], [], []
    for seed in range(20):
        config = ScenarioConfig(
            n_targets=3, n_steps=100, tau=0.001,
            q_diag=(20.0 * 0.001, 0.2 * 0.001, 20.0 * 0.001, 0.2 * 0.001),
            initial_states=[(3.0, 0, 3.0, 0), (6.0, 0, 6.0, 0), (9.0, 0, 9.0, 0)],
        )
        setup = ExperimentSetup(
            sensor_snr=30.0, sensor_m_cells=48, gpf_w_birth=0.1, gpf_w_prune=0.05,
            gpf_d_thresh=4.0, gpf_n_max=100,
        )
        records = run_experiment(config, "gpf", "grid", np.random.default_rng(seed), setup)
        rmse = [r.rmse for r in records]
        card = [r.card_err for r in records]
        early_rmse.append(np.mean(rmse[:10]))
        late_rmse.append(np.mean(rmse[90:]))
        early_card.append(np.mean(card[:10]))
        late_card.append(np.mean(card[90:]))

    assert np.mean(late_rmse) < np.mean(early_rmse)
    assert np.mean(late_card) < np.mean(early_card)
    p_rmse = stats.ttest_rel(early_rmse, late_rmse, alternative="greater").pvalue
    p_card = stats.ttest_rel(early_card, late_card, alternative="greater").pvalue
    assert p_rmse < 0.05, f"rmse decrease not significant (p = {p_rmse:.3g})"
    assert p_card < 0.05, f"cardinality decrease not significant (p = {p_card:.3g})"
    _report(
        5, 120.0, time.perf_counter() - t0,
        f"rmse {np.mean(early_rmse):.2f}->{np.mean(late_rmse):.2f} (p={p_rmse:.1e}), "
        f"card err {np.mean(early_card):.2f}->{np.mean(late_card):.2f} (p={p_card:.1e})",
    )


def test_criterion_6_invariant_suite():
    """Randomized runs keep every structural invariant intact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)

    # particle filter: normalization, ESS range, ESS after resampling
    model = MotionModel(F=[[1.0]], Q=[[0.2]])
    for _ in range(30):
        n = int(rng.integers(10, 200))
        pset = PointParticleSet(rng.standard_normal((n, 1)), np.full(n, 1.0 / n))
        for _ in range(5):
            z = rng.standard_normal(1)
            pset = pf_step(
                pset, model,
                lambda s, z: np.exp(-0.5 * (z[0] - s[:, 0]) ** 2 / 0.5), z, rng,
            )
            assert abs(pset.weights.sum() - 1.0) <= 1e-9
            ess = effective_sample_size(pset.weights)
            assert 1.0 - 1e-9 <= ess <= pset.n_particles + 1e-9
        for scheme in _RESAMPLERS:  # the set pf_step builds when it resamples
            idx = _RESAMPLERS[scheme](pset.weights, rng)
            res = PointParticleSet(pset.states[idx], np.full(n, 1.0 / n))
            assert abs(effective_sample_size(res.weights) - res.n_particles) <= 1e-9 * res.n_particles

    mean_sensor = MeanSensorModel(R=np.eye(2) * 0.5, position_projection=position_projection())
    mean_config = GpfConfig(
        motion=MotionModel(constant_velocity_matrix(0.1), np.diag([0.05, 0.005, 0.05, 0.005])),
        sensor=mean_sensor, clutter_density=1.0 / WORKSPACE.area, epsilon=0.001,
    )

    # enumeration: priors above threshold, count bounded
    for _ in range(50):
        s = int(rng.integers(1, 9))
        eps = float(rng.uniform(0.001, 0.5))
        config = replace(mean_config, epsilon=eps)
        combos = enumerate_combinations(rng.random(s).tolist(), config)
        assert len(combos) <= 2**s
        assert all(c.prior > eps for c in combos)

    # gpf runs (both sensors): weights in range, covariances symmetric PSD,
    # cardinality bounded by the particle count
    grid_sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=30.0, m_cells=48)
    grid_config = GpfConfig(
        motion=MotionModel(constant_velocity_matrix(0.1), np.diag([0.02, 0.002, 0.02, 0.002])),
        sensor=grid_sensor, w_prune=0.05, d_thresh=4.0,
    )

    def check_set(pset):
        card = estimate_cardinality(pset)
        assert 0.0 <= card <= len(pset) + 1e-12
        for weight, cov in zip(pset.weights, pset.covs):
            assert 0.0 <= weight <= 1.0
            assert np.allclose(cov, cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(cov).min() >= -1e-9

    belief = _pset(
        [
            (
                float(rng.uniform(0.3, 1.0)),
                np.array([rng.uniform(2, 10), 0.0, rng.uniform(2, 10), 0.0]),
                np.diag([1.0, 0.1, 1.0, 0.1]),
            )
            for _ in range(4)
        ]
    )
    for _ in range(40):
        belief = gpf_step(belief, rng.uniform(0, 12, 2), mean_config)
        check_set(belief)

    belief = GpfParticleSet()
    truth = [np.array([3.0, 0, 3.0, 0]), np.array([9.0, 0, 9.0, 0])]
    from mtt.sensors import select_cells

    for k in range(40):
        cells = select_cells("random", grid_sensor, rng, step=k)
        returns = grid_measure(truth, cells, grid_sensor, rng)
        belief = gpf_step(belief, returns, grid_config)
        check_set(belief)
    _report(6, 30.0, time.perf_counter() - t0,
            "pf normalization/ESS, enumeration bounds, gpf weight/PSD invariants")


def test_criterion_7_track_determinism(tmp_path):
    """Same config and seed produce byte-identical metrics output."""
    t0 = time.perf_counter()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "scenario.n_targets = 3\n"
        "scenario.n_steps = 40\n"
        "scenario.tau = 0.001\n"
        "scenario.q_diag = 0.02,0.0002,0.02,0.0002\n"
        "scenario.initial_states = 3,0,3,0; 6,0,6,0; 9,0,9,0\n"
        "sensor.snr = 30\n"
        "sensor.m_cells = 48\n"
        "gpf.w_prune = 0.05\n"
        "gpf.d_thresh = 4.0\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_command(["track", "--config", str(cfg), "--seed", "11", "--out", str(out_a)]) == 0
    assert run_command(["track", "--config", str(cfg), "--seed", "11", "--out", str(out_b)]) == 0
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    assert (out_a / "particles.json").read_bytes() == (out_b / "particles.json").read_bytes()
    _report(7, 10.0, time.perf_counter() - t0,
            f"two runs, {len(bytes_a)} byte metrics.csv identical")


def test_criterion_8_assignment_rmse_oracle():
    """Assignment RMSE and OSPA equal a brute-force permutation oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    cap = 5.0

    def oracle(estimates, truths):
        """(RMSE, OSPA) from the least sum of capped squared distances over all matchings."""
        n_true, n_est = len(truths), len(estimates)
        if n_true == 0 or n_est == 0:
            return (0.0, 0.0) if n_true == n_est else (cap, cap)
        cost = lambda e, t: min(np.linalg.norm(e - t), cap) ** 2
        best = np.inf
        if n_est >= n_true:
            for perm in itertools.permutations(range(n_est), n_true):
                best = min(best, sum(cost(estimates[p], truths[j]) for j, p in enumerate(perm)))
        else:
            for perm in itertools.permutations(range(n_true), n_est):
                best = min(best, sum(cost(estimates[i], truths[p]) for i, p in enumerate(perm)))
        rmse = np.sqrt((best + cap**2 * max(0, n_true - n_est)) / n_true)
        ospa = np.sqrt((best + cap**2 * abs(n_true - n_est)) / max(n_true, n_est))
        return float(rmse), float(ospa)

    for _ in range(100):
        n_t = int(rng.integers(0, 7))
        n_e = int(rng.integers(0, 7))
        truths = [rng.uniform(0, 12, 2) for _ in range(n_t)]
        estimates = [rng.uniform(0, 12, 2) for _ in range(n_e)]
        pairs = [np.reshape(p, (len(p), 2)) for p in (estimates, truths)]
        cost = _capped_cost(pairs[0][:, None], pairs[1][None], cap)
        for got, want in zip(match_scores(cost, cap), oracle(estimates, truths)):
            assert got == want or abs(got - want) <= 1e-12
    _report(8, 5.0, time.perf_counter() - t0,
            "100 random instances match the permutation oracle's RMSE and OSPA")
