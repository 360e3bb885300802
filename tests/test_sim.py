import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linear_sum_assignment
from scipy.stats import chi2

from mtt import sim
from mtt.config import parse_config_text
from mtt.gaussians import log_pdf, noise_factor
from mtt.motion import constant_velocity_matrix
from mtt.regions import Rectangle
from mtt.sim import (
    ExperimentSetup,
    ScenarioConfig,
    StepRecord,
    _capped_cost,
    _linear_sum_assignment,
    _weighted_cov,
    evaluate_metrics,
    generate_truth,
    match_scores,
    run_experiment,
)


def _record(truth, means, weights, cardinality):
    means = np.asarray(means, dtype=float).reshape(-1, 4)
    return StepRecord(
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

    @pytest.mark.parametrize("given_states", [True, False], ids=["given", "drawn"])
    @pytest.mark.parametrize("n_steps", [1, 2, 50])
    @pytest.mark.parametrize("n_targets", [0, 1, 20])
    def test_one_draw_equals_per_step_draws(self, n_targets, n_steps, given_states):
        # the run's noise in one draw: the same truth bits and the same generator state
        # as one (n_targets, 4) draw per step
        states = np.random.default_rng(3).uniform(0, 12, (n_targets, 4)).tolist()
        config = ScenarioConfig(n_targets=n_targets, n_steps=n_steps,
                                initial_states=states if given_states else None)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        truth = generate_truth(config, rng)
        want = np.zeros((n_steps, n_targets, 4))
        if n_targets:
            ws = config.workspace
            want[0] = states if given_states else np.stack(
                [ref_rng.uniform(ws.x_min, ws.x_max, n_targets), np.zeros(n_targets),
                 ref_rng.uniform(ws.y_min, ws.y_max, n_targets), np.zeros(n_targets)], axis=1)
            f = constant_velocity_matrix(config.tau)
            for k in range(1, n_steps):
                noise = ref_rng.standard_normal((n_targets, 4)) * np.sqrt(config.q_diag)
                want[k] = want[k - 1] @ f.T + noise
        assert truth.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()

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


def scores(estimates, truths, cap):
    """match_scores of two lists of 2-D points, from the matrix of every pair's _capped_cost."""
    estimates, truths = (np.asarray(p, dtype=float).reshape(len(p), 2) for p in (estimates, truths))
    return match_scores(_capped_cost(estimates[:, None], truths[None], cap), cap)


def rmse(estimates, truths, cap=5.0):
    return scores(estimates, truths, cap)[0]


def ospa(estimates, truths, cap=5.0):
    return scores(estimates, truths, cap)[1]


class TestAssignmentRmse:
    def test_perfect_match(self):
        pts = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        assert rmse(pts, pts) == 0.0

    def test_all_miss(self):
        assert rmse([], [np.zeros(2)] * 3, cap=5.0) == 5.0

    def test_no_truths(self):
        assert rmse([], []) == 0.0
        assert rmse([np.zeros(2)], [], cap=5.0) == 5.0

    def test_offset_pair(self):
        truths = [np.array([0.0, 0.0]), np.array([10.0, 10.0])]
        estimates = [np.array([3.0, 4.0]), np.array([10.0, 10.0])]
        assert_allclose(rmse(estimates, truths, cap=5.0), np.sqrt(12.5))
        assert_allclose(np.sqrt(12.5), 3.536, atol=5e-4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        truths = [rng.uniform(0, 10, 2) for _ in range(4)]
        estimates = [rng.uniform(0, 10, 2) for _ in range(4)]
        base = rmse(estimates, truths)
        for perm in itertools.permutations(range(4)):
            assert_allclose(rmse([estimates[i] for i in perm], truths), base)

    def test_bounded_by_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            truths = [rng.uniform(0, 100, 2) for _ in range(rng.integers(0, 5))]
            estimates = [rng.uniform(0, 100, 2) for _ in range(rng.integers(0, 5))]
            assert rmse(estimates, truths, cap=5.0) <= 5.0 + 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n_t = int(rng.integers(0, 6))
            n_e = int(rng.integers(0, 6))
            truths = [rng.uniform(0, 12, 2) for _ in range(n_t)]
            estimates = [rng.uniform(0, 12, 2) for _ in range(n_e)]
            got = rmse(estimates, truths, cap=5.0)
            want = brute_force_rmse(estimates, truths, cap=5.0)
            assert_allclose(got, want, atol=1e-12)


class TestCappedCost:
    @staticmethod
    def _per_pair(estimates, truths, cap):
        return np.array([[min(np.linalg.norm(e - t), cap) ** 2 for t in truths]
                         for e in estimates]).reshape(len(estimates), len(truths))

    def test_equals_per_pair_norm_bit_for_bit(self):
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
            assert_array_equal(_capped_cost(estimates[:, None], truths[None], cap),
                               self._per_pair(estimates, truths, cap))

    def test_exact_cap_distance(self):
        truths = np.array([[0.0, 0.0], [1.0, 1.0]])
        estimates = np.array([[3.0, 4.0], [np.nextafter(3.0, 4.0), 4.0], [4.0, 5.0]])
        got = _capped_cost(estimates[:, None], truths[None], 5.0)
        assert_array_equal(got, self._per_pair(estimates, truths, 5.0))
        assert got[0, 0] == got[1, 0] == 5.0**2


@st.composite
def _cost_matrices(draw):
    """A 0..9 x 0..9 cost matrix: normal costs, integer ties in {0, 1, 2}, capped squared
    distances min(d, 5)**2, a constant, or integer costs with +inf entries off one full
    matching, so that an assignment of finite cost remains."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["normal", "ties", "capped", "constant", "inf"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        return rng.standard_normal((m, n))
    if kind == "capped":
        return np.minimum(rng.uniform(0.0, 8.0, (m, n)), 5.0) ** 2
    if kind == "constant":
        return np.full((m, n), draw(st.floats(-1e3, 1e3)))
    cost = rng.integers(0, 3, (m, n)).astype(float)
    if kind == "inf":
        keep = np.zeros((m, n), dtype=bool)
        k = min(m, n)
        keep[rng.permutation(m)[:k], rng.permutation(n)[:k]] = True
        cost[~keep & (rng.random((m, n)) < 0.5)] = np.inf
    return cost


class TestLinearSumAssignment:
    """The package's assignment gives scipy's (rows, cols) exactly, ties included."""

    @staticmethod
    def _check(cost):
        want = linear_sum_assignment(cost)
        got = _linear_sum_assignment(cost)
        for g, w in zip(got, want):
            assert_array_equal(g, w)
            assert g.dtype == w.dtype

    @given(_cost_matrices())
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy(self, cost):
        self._check(cost)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 7), (7, 2), (9, 9)])
    def test_shapes_match_scipy(self, shape):
        self._check(np.arange(np.prod(shape), dtype=float).reshape(shape) % 4)

    @pytest.mark.parametrize("cost, message", [
        ([[0.0, np.nan], [1.0, 2.0]], "invalid numeric entries"),
        ([[0.0, -np.inf], [1.0, 2.0]], "invalid numeric entries"),
        ([[np.inf, 1.0], [np.inf, 2.0]], "infeasible"),
        ([[np.inf]], "infeasible"),
    ])
    def test_rejects_what_scipy_rejects(self, cost, message):
        with pytest.raises(ValueError, match=message):
            linear_sum_assignment(np.array(cost))
        with pytest.raises(ValueError, match=message):
            _linear_sum_assignment(np.array(cost))


@st.composite
def _capped_matrices(draw):
    """(cost, cap): _capped_cost of 0..9 estimates against 0..9 truths spread over one to
    four caps, so that many entries sit at the cap; some estimates and truths far from
    all the others (rows and columns all at the cap), and some repeated (twin rows and
    columns)."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    cap = draw(st.sampled_from([0.5, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1.0, 2.0, 4.0])) * cap
    points = []
    for k, away in ((m, (100.0, 0.0)), (n, (0.0, 100.0))):
        p = rng.uniform(0.0, spread, (k, 2))
        p[rng.random(k) < draw(st.sampled_from([0.0, 0.3]))] += np.multiply(away, cap)
        if k > 1 and draw(st.booleans()):
            p[rng.integers(0, k, k // 2)] = p[rng.integers(0, k, k // 2)]
        points.append(p)
    return _capped_cost(points[0][:, None], points[1][None], cap), cap


class TestMatchScores:
    @given(_capped_matrices())
    @settings(max_examples=600, deadline=None)
    def test_scores_of_scipys_matched_sum(self, case):
        # skipping or shrinking the assignment keeps the bits of scipy's matched sum
        cost, cap = case
        rows, cols = linear_sum_assignment(cost)
        m, n = cost.shape
        assert match_scores(cost, cap) == sim._scores(float(cost[rows, cols].sum()), m, n, cap)

    @pytest.mark.parametrize("cost", [[[np.nan, 1.0], [1.0, 2.0]], [[1.0, 2.0], [-np.inf, 1.0]],
                                      [[1.0, 2.0, 3.0], [1.0, np.nan, 3.0]]])
    def test_invalid_entries_raise_the_assignments_error(self, cost):
        with pytest.raises(ValueError, match="matrix contains invalid numeric entries"):
            match_scores(np.array(cost), 2.0)


class TestOspa:
    def test_empty_sets(self):
        assert ospa([], []) == 0.0
        assert ospa([np.zeros(2)], [], cap=5.0) == 5.0

    def test_identical_sets(self):
        pts = [np.array([1.0, 1.0])]
        assert ospa(pts, pts) == 0.0

    def test_cardinality_penalty(self):
        a = [np.zeros(2)]
        b = [np.zeros(2), np.array([0.1, 0.0])]
        d = ospa(a, b, cap=5.0)
        assert_allclose(d, np.sqrt((0.0 + 25.0) / 2))


class TestEvaluateMetrics:
    def test_perfect_estimates(self):
        truth = np.array([(1.0, 0.0, 2.0, 0.0), (5.0, 0.0, 6.0, 0.0)])
        records = [_record(truth, truth, [1.0, 1.0], 2.0)]
        evaluate_metrics(records, ExperimentSetup())
        assert [r.rmse for r in records] == [0.0]
        assert [r.card_err for r in records] == [0.0]

    def test_all_miss(self):
        records = [_record(np.zeros((3, 4)), [], [], 0.0)]
        evaluate_metrics(records, ExperimentSetup(metrics_distance_cap=5.0))
        assert [r.rmse for r in records] == [5.0]
        assert [r.card_err for r in records] == [3.0]

    def test_low_weight_estimates_not_extracted(self):
        records = [_record(np.zeros((1, 4)), [np.zeros(4)], [0.2], 0.2)]
        evaluate_metrics(records, ExperimentSetup(
            metrics_extraction_threshold=0.5, metrics_distance_cap=5.0))
        assert [r.rmse for r in records] == [5.0]
        assert_allclose([r.card_err for r in records], [0.8])

    def test_ospa_always_filled(self):
        # one exact match and one missed truth: sqrt((0 + 5^2) / 2)
        records = [_record(np.zeros((2, 4)), [np.zeros(4)], [1.0], 1.0)]
        evaluate_metrics(records, ExperimentSetup(metrics_distance_cap=5.0))
        assert records[0].ospa == pytest.approx(12.5 ** 0.5)

    def test_run_wide_costs_equal_each_step_scored_alone(self):
        # steps of 0-4 truths and 0-4 rows, some below the threshold: each step's slice
        # of the run's one cost array scores as its own matrix does, bit for bit
        rng = np.random.default_rng(11)
        setup = ExperimentSetup(metrics_distance_cap=3.0)
        records = [_record(rng.uniform(0, 12, (rng.integers(0, 5), 4)),
                           rng.uniform(0, 12, (k, 4)), rng.choice([0.2, 0.9], k), 1.0)
                   for k in rng.integers(0, 5, 40)]
        evaluate_metrics(records, setup)
        for r in records:
            kept = r.means[r.weights >= 0.5]
            assert (r.rmse, r.ospa) == scores(kept[:, [0, 2]], r.true_states[:, [0, 2]], 3.0)
            assert r.card_err == abs(1.0 - len(r.true_states))

    def test_no_records(self):
        evaluate_metrics([], ExperimentSetup())

    @staticmethod
    def _mixed_run(seed, n_records=60):
        """Records of 0-4 truths and 0-4 rows, some rows below the 0.5 threshold, some
        truths repeated (equal costs) and some far (entries at the cap): empty, one-pair
        and general steps."""
        rng = np.random.default_rng(seed)
        records = []
        for _ in range(n_records):
            truth = rng.uniform(0, 12, (rng.integers(0, 5), 4))
            if len(truth) > 1 and rng.random() < 0.3:
                truth[1] = truth[0]
            k = int(rng.integers(0, 5))
            means = rng.uniform(-20, 30, (k, 4))
            records.append(_record(truth, means, rng.choice([0.2, 0.9], k), 1.0))
        return records

    @staticmethod
    def _pairs(record, threshold=0.5):
        return int((record.weights >= threshold).sum()), len(record.true_states)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_steps_score_as_each_step_alone(self, seed):
        # a one-pair step's scores from its smallest entry have the bits of match_scores
        records = self._mixed_run(seed)
        evaluate_metrics(records, ExperimentSetup(metrics_distance_cap=3.0))
        kinds = set()
        for r in records:
            kept = r.means[r.weights >= 0.5]
            assert (r.rmse, r.ospa) == scores(kept[:, [0, 2]], r.true_states[:, [0, 2]], 3.0)
            kinds.add(min(min(self._pairs(r)), 2))
        assert kinds == {0, 1, 2}

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 2)])
    def test_nan_cost_raises(self, shape):
        # a NaN estimate makes NaN costs: a one-pair step raises what the assignment raises
        m, n = shape
        means = np.ones((m, 4))
        means[0, 0] = np.nan
        records = [_record(np.zeros((2, 4)), np.ones((2, 4)), [1.0, 1.0], 2.0),
                   _record(np.zeros((n, 4)), means, np.ones(m), 1.0)]
        with pytest.raises(ValueError, match="matrix contains invalid numeric entries"):
            evaluate_metrics(records, ExperimentSetup())

    @staticmethod
    def _assignment_shape(record, cap):
        """The shape that match_scores hands the assignment for the record's step, or None:
        the whole (m, n) matrix if m > n or two real rows (rows below cap**2 somewhere) share
        their nearest column at the same least entry; else, where the real rows' nearest
        columns collide, those rows by the columns where they are below cap**2."""
        m, n = TestEvaluateMetrics._pairs(record)
        if min(m, n) < 2:
            return None
        kept = record.means[record.weights >= 0.5]
        cost = _capped_cost(kept[:, None][..., [0, 2]], record.true_states[None][..., [0, 2]], cap)
        real = cost.min(axis=1) < cap**2
        nearest = list(zip(cost.argmin(axis=1)[real].tolist(), cost.min(axis=1)[real].tolist()))
        if m > n or len(set(nearest)) < len(nearest):
            return m, n
        if len({col for col, _ in nearest}) == len(nearest):
            return None
        return int(real.sum()), int((cost[real] < cap**2).any(axis=0).sum())

    def test_one_assignment_per_step(self, monkeypatch):
        # at most one assignment per step, in step order: none for a step with
        # min(m, n) < 2 or whose real rows have distinct nearest columns, the reduced
        # block where those collide, the whole matrix for m > n or twin rows
        calls = []
        solve = sim._linear_sum_assignment

        def counting(cost):
            calls.append(cost.shape)
            return solve(cost)

        monkeypatch.setattr(sim, "_linear_sum_assignment", counting)
        config = ScenarioConfig(n_targets=3, n_steps=10, seed=0)
        records = run_experiment(config, "gpf", "mean", 0)
        records += self._mixed_run(1)
        # two estimates nearest the first truth, then twin estimates: a block, the whole
        truths = [(1, 0, 1, 0), (2.5, 0, 1, 0), (9, 0, 9, 0)]
        records += [_record(truths, [(1.2, 0, 1, 0), (1.5, 0, 1, 0)], [1.0, 1.0], 2.0),
                    _record(truths, [(1.4, 0, 1, 0), (1.4, 0, 1, 0)], [1.0, 1.0], 2.0)]
        calls.clear()
        evaluate_metrics(records, ExperimentSetup(metrics_distance_cap=3.0))
        shapes = [self._assignment_shape(r, 3.0) for r in records]
        assert calls == [shape for shape in shapes if shape is not None]
        assert shapes[-2:] == [(2, 2), (2, 3)]
        general = [(self._pairs(r), shape) for r, shape in zip(records, shapes)
                   if min(self._pairs(r)) >= 2]
        kinds = {"none" if shape is None else "whole" if shape == pairs else "block"
                 for pairs, shape in general}
        assert kinds == {"none", "whole", "block"}
        assert all(r.ospa is not None for r in records)


class TestExperimentSetup:
    @pytest.mark.parametrize("cells", [[1.5, 2], [True], [np.float64(3.0)], ["4"]])
    def test_fixed_cells_must_be_integers(self, cells):
        # rejected here, not at the first step inside grid_measure
        with pytest.raises(ValueError, match="not an integer"):
            ExperimentSetup(sensor_strategy="fixed_list", sensor_fixed_cells=cells)

    def test_numpy_integer_cells_accepted(self):
        setup = ExperimentSetup(sensor_strategy="fixed_list",
                                sensor_fixed_cells=[np.int64(3), 143])
        assert setup.sensor_fixed_cells == [3, 143]


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

    def test_agrees_with_np_cov(self):
        # unequal weights (skewed, with zeros), resampled equal weights, and N = 2; the
        # tolerance is relative to the largest entry, as off-diagonal entries may be near 0
        pairs = [(np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 0.5, 3.5, 3.0]]), np.array([0.3, 0.7])),
                 (np.array([[1.0, 2.0, 3.0, 4.0]] * 2), np.full(2, 0.5))]
        for states, w in itertools.chain((self._case(seed) for seed in range(2100)), pairs):
            expected = np.cov(states.T, aweights=w)
            assert_allclose(_weighted_cov(states, w), expected, rtol=1e-12,
                            atol=1e-12 * np.abs(expected).max())


class TestRunExperiment:
    def test_kalman_exact_observation(self):
        # with R = 0 and Q = 0 two exact fixes pin the full state, after
        # which the innovation covariance is singular by construction, so
        # only the first two updates are defined
        config = ScenarioConfig(
            n_targets=1, n_steps=2, tau=1.0, q_diag=(0.0, 0.0, 0.0, 0.0),
            initial_states=[(3.0, 0.5, 4.0, -0.5)],
        )
        setup = ExperimentSetup(sensor_r_diag=(0.0, 0.0))
        records = run_experiment(config, "kf", "mean", 0, setup)
        for rec in records:
            assert rec.rmse <= 1e-6

    def test_kalman_near_exact_observation_long_run(self):
        config = ScenarioConfig(
            n_targets=1, n_steps=10, tau=1.0, q_diag=(0.0, 0.0, 0.0, 0.0),
            initial_states=[(3.0, 0.5, 4.0, -0.5)],
        )
        setup = ExperimentSetup(sensor_r_diag=(1e-9, 1e-9))
        records = run_experiment(config, "kf", "mean", 0, setup)
        for rec in records:
            assert rec.rmse <= 1e-3

    def test_single_step_log(self):
        config = ScenarioConfig(n_targets=1, n_steps=1, initial_states=[(1.0, 0, 1.0, 0)])
        records = run_experiment(config, "kf", "mean", 0)
        assert len(records) == 1

    def test_unsupported_combinations(self):
        config = ScenarioConfig(n_targets=2, n_steps=2)
        with pytest.raises(ValueError):
            run_experiment(config, "kf", "mean", 0)
        with pytest.raises(ValueError):
            run_experiment(config, "kf", "grid", 0)
        with pytest.raises(ValueError):
            run_experiment(config, "pf", "grid", 0)
        with pytest.raises(ValueError):
            run_experiment(config, "gpf", "lidar", 0)
        with pytest.raises(ValueError):
            run_experiment(config, "ukf", "mean", 0)
        # the mean sensor averages the targets: it needs at least one
        with pytest.raises(ValueError, match="n_targets of gpf on the mean sensor = 0"):
            run_experiment(ScenarioConfig(n_targets=0, n_steps=2), "gpf", "mean", 0)

    def test_gpf_grid_smoke(self):
        config = ScenarioConfig(
            n_targets=2, n_steps=15, tau=0.1, q_diag=(0.02, 0.002, 0.02, 0.002),
            initial_states=[(3.0, 0, 3.0, 0), (9.0, 0, 9.0, 0)], seed=1,
        )
        setup = ExperimentSetup(sensor_snr=10.0, sensor_m_cells=36, gpf_w_prune=0.05, gpf_d_thresh=4.0)
        records = run_experiment(config, "gpf", "grid", 1, setup)
        assert len(records) == 15
        assert all(rec.rmse is not None and rec.card_err is not None for rec in records)
        assert all(np.isfinite(rec.cardinality) for rec in records)

    def test_gpf_mean_smoke(self):
        config = ScenarioConfig(
            n_targets=2, n_steps=10, tau=0.1, q_diag=(0.02, 0.002, 0.02, 0.002),
            initial_states=[(3.0, 0, 3.0, 0), (9.0, 0, 9.0, 0)],
        )
        records = run_experiment(config, "gpf", "mean", 2)
        assert len(records) == 10

    def test_pf_mean_tracks(self):
        config = ScenarioConfig(
            n_targets=1, n_steps=10, tau=1.0, q_diag=(0.1, 0.01, 0.1, 0.01),
            initial_states=[(6.0, 0.0, 6.0, 0.0)],
        )
        setup = ExperimentSetup(pf_n_particles=2000, sensor_r_diag=(0.25, 0.25))
        records = run_experiment(config, "pf", "mean", 3, setup)
        assert records[-1].rmse < 2.0

    def test_pf_step_calls_log_pdf_once(self, monkeypatch):
        # the likelihood weighs every particle in one call: one Cholesky of R per step
        calls = []

        def counting_log_pdf(mean, cov, x):
            calls.append(np.shape(x))
            return log_pdf(mean, cov, x)

        monkeypatch.setattr("mtt.sim.log_pdf", counting_log_pdf)
        config = ScenarioConfig(n_targets=1, n_steps=4, initial_states=[(6.0, 0.0, 6.0, 0.0)])
        run_experiment(config, "pf", "mean", 0, ExperimentSetup(pf_n_particles=300))
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
        run_experiment(config, filter_choice, sensor_choice, 0, ExperimentSetup(pf_n_particles=50))
        assert calls == factored

    @pytest.mark.parametrize("filter_choice", ["kf", "pf", "gpf"])
    def test_records_hold_estimate_arrays(self, filter_choice):
        config = ScenarioConfig(n_targets=1, n_steps=3, initial_states=[(6.0, 0.0, 6.0, 0.0)])
        records = run_experiment(config, filter_choice, "mean", 0,
                                 ExperimentSetup(pf_n_particles=50))
        for rec in records:
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
        logs = [run_experiment(config, "gpf", "grid", 7) for _ in range(2)]
        rmse_a = [r.rmse for r in logs[0]]
        rmse_b = [r.rmse for r in logs[1]]
        assert rmse_a == rmse_b


def test_filters_see_one_world_per_seed():
    # the truth and every measurement come from the seed alone: the pf's draws come from
    # the filter's own stream and move neither
    config = ScenarioConfig(n_targets=1, n_steps=12)
    setup = ExperimentSetup(pf_n_particles=100)
    kf, pf, gpf = (run_experiment(config, f, "mean", 4, setup) for f in ("kf", "pf", "gpf"))
    for name in ("true_states", "measurement"):
        for run in (pf, gpf):
            assert all(np.array_equal(getattr(a, name), getattr(b, name)) for a, b in zip(kf, run))


@pytest.mark.parametrize("filter_choice", ["kf", "pf", "gpf"])
def test_each_start_begins_a_fresh_run(filter_choice):
    # check_run's start is the beginning of a run: a second one must not go on from the
    # first one's posterior
    config = ScenarioConfig(n_targets=1, n_steps=3, initial_states=[(6.0, 0.0, 6.0, 0.0)])
    setup = ExperimentSetup(pf_n_particles=50)
    kind, sensor, start = sim.check_run(config, filter_choice, "mean", setup)
    truth = generate_truth(config, np.random.default_rng(0))
    zs = [kind.measure(sensor, setup, k, truth[k], np.random.default_rng(k)) for k in range(3)]
    runs = []
    for _ in range(2):
        step = start(np.random.default_rng(1), lambda: kind.gpf_belief(setup, truth[0]))
        runs.append([step(z) for z in zs])
    for first, second in zip(*runs):
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_kf_and_one_target_gpf_nees_is_consistent():
    # the normalized estimation error squared e' P^-1 e of the 4-D state, on the
    # scenario and sensor of the baselines_1target benchmark workload, seeds 0-39
    # and steps 10-49: a consistent filter's mean over these 1600 samples lies in
    # the two-sided 99 % chi-square interval for it, [3.820, 4.185]
    config = parse_config_text(
        "scenario.n_targets = 1\nscenario.n_steps = 50\nscenario.tau = 1.0\n"
        "scenario.q_diag = 0.2,0.02,0.2,0.02\nscenario.initial_states = 6,0.05,6,-0.05\n"
        "sensor.r_diag = 0.25,0.25\n")
    seeds, first_step = range(40), 10
    samples = len(seeds) * (config.scenario.n_steps - first_step)
    lo, hi = chi2.ppf([0.005, 0.995], 4 * samples) / samples
    for filter_choice in ("kf", "gpf"):
        nees = []
        for seed in seeds:
            records = run_experiment(config.scenario, filter_choice, "mean", seed, config.setup)
            for rec in records[first_step:]:
                assert len(rec.weights) == 1
                error = rec.true_states[0] - rec.means[0]
                nees.append(error @ np.linalg.solve(rec.covs[0], error))
        assert len(nees) == samples
        assert lo < np.mean(nees) < hi, (filter_choice, np.mean(nees), lo, hi)
