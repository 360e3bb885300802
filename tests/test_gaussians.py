import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad, simpson
from scipy.stats import multivariate_normal

from mtt import gaussians
from mtt.gaussians import (
    SingularCovarianceError,
    _checked_moments,
    _symmetrize,
    chol_with_jitter,
    log_pdf,
    mixture_moments,
    moment_match_merge,
    noise_factor,
)
from mtt.gpf import GpfParticleSet
from mtt.kalman import kf_update
from mtt.motion import MotionModel
from mtt.sensors import CellReturns


def _random_psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) + 0.1 * np.eye(n)


def _log_pdf_by_row_solves(mean, cov, x):
    """The earlier log_pdf: one LAPACK solve per row of the (k, n) stack x."""
    mean, cov = _checked_moments(mean, cov)
    n = mean.shape[0]
    chol = chol_with_jitter(cov)
    u = np.linalg.solve(chol, (x - mean).reshape(-1, n, 1))
    quad = (u.swapaxes(1, 2) @ u).reshape(x.shape[:-1])
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (quad + n * np.log(2.0 * np.pi) + logdet)


class TestLogPdf:
    def test_standard_normal_at_mode(self):
        assert_allclose(log_pdf(0.0, 1.0, 0.0), math.log(1.0 / math.sqrt(2 * math.pi)), rtol=1e-12)

    def test_2d_identity_at_mean(self):
        mean = np.array([1.0, -2.0])
        assert_allclose(log_pdf(mean, np.eye(2), mean), -math.log(2 * math.pi), rtol=1e-12)

    def test_1d_variance_four(self):
        # direct formula evaluation: -(x-mu)^2/(2 s2) - log(2 pi s2)/2
        expected = -0.5 * 1.0 - 0.5 * math.log(2 * math.pi * 4.0)
        assert_allclose(log_pdf(0.0, 4.0, 2.0), expected, rtol=1e-12)
        assert_allclose(expected, -2.1121, atol=5e-5)

    def test_integrates_to_one_1d(self):
        sigma = math.sqrt(2.0)
        total, _ = quad(lambda x: math.exp(log_pdf(0.5, 2.0, x)), 0.5 - 8 * sigma, 0.5 + 8 * sigma)
        assert_allclose(total, 1.0, atol=1e-6)

    def test_integrates_to_one_2d(self):
        mean, cov = np.zeros(2), np.array([[1.0, 0.3], [0.3, 0.8]])
        xs = np.linspace(-8.0, 8.0, 201)
        ys = np.linspace(-8.0, 8.0, 201)
        density = np.array(
            [[math.exp(log_pdf(mean, cov, np.array([x, y]))) for y in ys] for x in xs]
        )
        total = simpson(simpson(density, x=ys, axis=1), x=xs)
        assert_allclose(total, 1.0, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_pdf(np.zeros(2), np.eye(2), np.zeros(3))

    def test_singular_covariance(self):
        with pytest.raises(SingularCovarianceError):
            log_pdf(np.zeros(2), np.zeros((2, 2)), np.zeros(2))

    @pytest.mark.parametrize("d", [2, 4])
    def test_stack_equals_per_point_calls(self, d):
        rng = np.random.default_rng(d)
        mean, cov = rng.standard_normal(d), _random_psd(rng, d)
        xs = 3.0 * rng.standard_normal((200, d))
        stacked = log_pdf(mean, cov, xs)
        assert stacked.shape == (200,)
        assert_array_equal(stacked, [log_pdf(mean, cov, x) for x in xs])
        assert_array_equal(log_pdf(mean, cov, xs.reshape(4, 50, d)), stacked.reshape(4, 50))

    def test_one_point_gives_a_float(self):
        assert type(log_pdf(np.zeros(2), np.eye(2), np.ones(2))) is float

    def test_stack_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_pdf(np.zeros(2), np.eye(2), np.zeros((5, 3)))

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("variances", [(0.5,), (0.3,), (0.5, 0.3, 2.7, 0.11)])
    def test_diagonal_cov_has_the_bits_of_row_solves(self, d, variances):
        # variances that are not powers of 4, so diag(L) is not exact and a
        # multiply by its reciprocal would round differently from the solve
        rng = np.random.default_rng(d)
        cov = np.diag(np.resize(variances, d))
        mean = rng.standard_normal(d)
        xs = 3.0 * rng.standard_normal((5000, d))
        assert_array_equal(log_pdf(mean, cov, xs), _log_pdf_by_row_solves(mean, cov, xs))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_matches_scipy_for_random_psd_covs(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(20):
            mean, cov = rng.standard_normal(d), _random_psd(rng, d)
            xs = mean + 3.0 * rng.standard_normal((100, d))
            assert_allclose(log_pdf(mean, cov, xs),
                            multivariate_normal(mean, cov).logpdf(xs), rtol=1e-12)

    def test_empty_stack(self):
        assert log_pdf(np.zeros(2), np.eye(2), np.zeros((0, 2))).shape == (0,)

    def test_one_factor_and_no_solve_for_a_stack(self, monkeypatch):
        calls = {"chol": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gaussians, "chol_with_jitter",
                            counted("chol", gaussians.chol_with_jitter))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        rng = np.random.default_rng(0)
        log_pdf(np.zeros(2), _random_psd(rng, 2), rng.standard_normal((1000, 2)))
        assert calls == {"chol": 1, "solve": 0}


class TestNoiseFactor:
    @pytest.mark.parametrize(
        "cov",
        [np.diag([0.5, 2.0]), np.diag([20.0, 0.0, 20.0, 0.2]),
         _random_psd(np.random.default_rng(2), 2), _random_psd(np.random.default_rng(4), 4)],
    )
    @pytest.mark.parametrize("size", [None, 1000])
    def test_draws_equal_multivariate_normal(self, cov, size):
        # numpy's own factor applied numpy's way: same draws, same stream
        d = cov.shape[0]
        rng_ref, rng = np.random.default_rng(7), np.random.default_rng(7)
        want = rng_ref.multivariate_normal(np.zeros(d), cov, size=size)
        got = rng.standard_normal((1 if size is None else size, d)) @ noise_factor(cov)
        assert_array_equal(got[0] if size is None else got, want)
        assert rng.random() == rng_ref.random()

    def test_factor_reproduces_covariance(self):
        cov = _random_psd(np.random.default_rng(4), 4)
        factor = noise_factor(cov)
        assert_allclose(factor.T @ factor, cov, atol=1e-12)
        assert not factor.flags.writeable

    @pytest.mark.parametrize(
        "cov", [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]],
                np.ones((2, 3))]
    )
    def test_not_square_symmetric_psd_rejected(self, cov):
        with pytest.raises(ValueError, match="Q must be"):
            noise_factor(cov, "Q")


def _merge(rows):
    """moment_match_merge over these (weight, mean, cov) rows, stacked."""
    return moment_match_merge(
        [w for w, _, _ in rows],
        np.array([np.atleast_1d(m) for _, m, _ in rows], dtype=float),
        np.array([np.atleast_2d(c) for _, _, c in rows], dtype=float),
    )


class TestMomentMatchMerge:
    def test_identical_components(self):
        state_mean, state_cov = np.array([1.0, 2.0]), np.diag([0.5, 0.25])
        weight, mean, cov = _merge([(0.3, state_mean, state_cov), (0.4, state_mean, state_cov)])
        assert_allclose(weight, 0.7)
        assert_allclose(mean, state_mean)
        assert_allclose(cov, state_cov, atol=1e-15)

    def test_two_component_mixture_moments(self):
        # moment matching: mean 1, var = within (1) + between (1) = 2
        weight, mean, cov = _merge([(0.5, 0.0, 1.0), (0.5, 2.0, 1.0)])
        assert_allclose(weight, 1.0)
        assert_allclose(mean, [1.0])
        assert_allclose(cov, [[2.0]])

    def test_against_sampled_mixture_moments(self):
        # independent oracle: draw from the mixture and compare sample moments
        rng = np.random.default_rng(7)
        n = 10**6
        pick = rng.random(n) < 0.5
        draws = np.where(pick, rng.normal(0.0, 1.0, n), rng.normal(2.0, 1.0, n))
        _, mean, cov = _merge([(0.5, 0.0, 1.0), (0.5, 2.0, 1.0)])
        assert_allclose(mean[0], draws.mean(), atol=0.01)
        assert_allclose(cov[0, 0], draws.var(), atol=0.01)

    def test_weight_clamped_to_one(self):
        weight, _, _ = _merge([(0.8, 0.0, 1.0), (0.9, 0.0, 1.0)])
        assert weight == 1.0

    def test_empty_and_zero_weight_errors(self):
        with pytest.raises(ValueError, match="a merge takes a pair of rows"):
            moment_match_merge([], np.zeros((0, 1)), np.zeros((0, 1, 1)))
        # a negative total is reported as before, ahead of the weight check
        for weights in ((0.0, 0.0), (-0.5, 0.2)):
            with pytest.raises(ValueError, match="total weight of merged particles must be positive"):
                _merge([(w, 0.0, 1.0) for w in weights])

    @pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.inf), (-0.2, 0.5),
                                         (0.5, math.nan), (0.3, -0.1)])
    def test_invalid_weights_rejected(self, weights):
        # min(1, nan) is 1 and a negative weight gives a cov that is not PSD:
        # (-0.2, 0.5) once merged to cov[0, 0] = -0.111
        rows = [(w, float(k), 1.0) for k, w in enumerate(weights)]
        with pytest.raises(ValueError, match="finite and non-negative"):
            _merge(rows)

    def test_inputs_left_unchanged(self):
        weights, means = np.array([0.8, 0.9]), np.array([[0.0], [2.0]])
        covs = np.array([[[1.0]], [[3.0]]])
        inputs = [a.copy() for a in (weights, means, covs)]
        moment_match_merge(weights, means, covs)
        for a, before in zip((weights, means, covs), inputs):
            assert np.array_equal(a, before)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_first_moment_preserved(self, seed, dim):
        rng = np.random.default_rng(seed)
        weights = rng.random(2) * 0.2 + 0.01
        rows = [(w, rng.standard_normal(dim), _random_psd(rng, dim)) for w in weights]
        weight, mean, _ = _merge(rows)
        expected = sum(w * m for w, m, _ in rows)
        assert_allclose(weight * mean, expected, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_merged_cov_psd(self, seed, dim):
        rng = np.random.default_rng(seed)
        rows = [
            (rng.random() * 0.9 + 0.05, rng.standard_normal(dim) * 3, _random_psd(rng, dim))
            for _ in range(2)
        ]
        _, _, cov = _merge(rows)
        assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9


def _mixture_moments_by_row(means, covs, weights):
    """The row-by-row loop that mixture_moments sums as arrays: the reference."""
    w = weights / weights.sum()
    mean = np.zeros(means.shape[1])
    for mu_i, w_i in zip(means, w):
        mean += w_i * mu_i
    cov = np.zeros((mean.shape[0], mean.shape[0]))
    for mu_i, cov_i, w_i in zip(means, covs, w):
        diff = mu_i - mean
        cov += w_i * (cov_i + np.outer(diff, diff))
    return mean, 0.5 * (cov + cov.T)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_mixture_moments_has_the_bits_of_the_row_loop(seed, k, d, stack):
    # a stack of mixtures, weights (s, k), means (s, k, d) and covs (s, k, d, d), gives
    # each mixture the bits of its own call, and that call the bits of the row loop; a
    # second leading axis stacks the same way
    rng = np.random.default_rng(seed)
    means = 5.0 * rng.standard_normal((stack, k, d))
    covs = np.array([[_random_psd(rng, d) for _ in range(k)] for _ in range(stack)])
    covs = covs.reshape(stack, k, d, d)
    weights = rng.random((stack, k)) + 1e-3
    stacked = mixture_moments(means, covs, weights)
    assert [a.shape for a in stacked] == [(stack, d), (stack, d, d)]
    for outer in (False, True):
        args = [a[None] for a in (means, covs, weights)] if outer else (means, covs, weights)
        got = [a[0] for a in mixture_moments(*args)] if outer else stacked
        for s in range(stack):
            one = mixture_moments(means[s], covs[s], weights[s])
            for a, b, want in zip(got, one, _mixture_moments_by_row(means[s], covs[s],
                                                                    weights[s])):
                assert a[s].tobytes() == b.tobytes() == want.tobytes()


def test_a_stacked_mixture_needs_a_positive_total_in_each():
    weights = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValueError, match="positive total"):
        mixture_moments(np.zeros((2, 2, 1)), np.ones((2, 2, 1, 1)), weights)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_mixture_moments_keep_the_first_moment_and_a_psd_cov(seed, d, k):
    # the k-row reduction that marginalize_existence takes
    rng = np.random.default_rng(seed)
    weights = rng.random(k) * 0.9 + 0.05
    means = 3.0 * rng.standard_normal((k, d))
    covs = np.array([_random_psd(rng, d) for _ in range(k)])
    mean, cov = mixture_moments(means, covs, weights)
    assert_allclose(weights.sum() * mean, weights @ means, atol=1e-12)
    assert_allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() >= -1e-9


@st.composite
def _pair_rows(draw, dims=st.integers(1, 4)):
    """Two rows of dimension 1-4, means and covs each at one scale from 1e-150 to
    1e150, one weight drawn from the point masses 0 and 1 as often as not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(dims)
    mean_scale, cov_scale = (10.0 ** draw(st.integers(-150, 150)) for _ in range(2))
    means = mean_scale * rng.standard_normal((2, d))
    covs = np.array([cov_scale * _random_psd(rng, d) for _ in range(2)])
    edge = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    weights = np.array([edge, draw(st.floats(1e-6, 1.0))])
    if draw(st.booleans()):
        weights = weights[::-1].copy()
    return weights, means, covs


@given(_pair_rows(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pair_merge_has_the_bits_of_the_row_loop(rows, as_lists):
    weights, means, covs = rows
    args = [a.tolist() for a in rows] if as_lists else rows
    weight, mean, cov = moment_match_merge(*args)
    want_mean, want_cov = _mixture_moments_by_row(means, covs, weights)
    assert weight == min(1.0, weights[0] + weights[1])
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(cov, want_cov)


@given(st.integers(1, 4).flatmap(lambda d: st.lists(_pair_rows(st.just(d)), min_size=1,
                                                    max_size=6)))
@settings(max_examples=200, deadline=None)
def test_stacked_pairs_have_the_bits_of_their_pair_calls(pairs):
    # k pairs stacked as weights (k, 2), means (k, 2, d) and covs (k, 2, d, d)
    weights, means, covs = (np.array(side) for side in zip(*pairs))
    stacked = moment_match_merge(weights, means, covs)
    assert [a.shape for a in stacked] == [weights.shape[:1], means[:, 0].shape, covs[:, 0].shape]
    for k, rows in enumerate(pairs):
        weight, mean, cov = moment_match_merge(*rows)
        assert isinstance(weight, float)
        for got, want in zip((stacked[0][k], stacked[1][k], stacked[2][k]), (weight, mean, cov)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("bad, message", [
    ((0.0, 0.0), "total weight of merged particles must be positive"),
    ((-0.5, 0.2), "total weight of merged particles must be positive"),
    ((math.nan, 0.5), "finite and non-negative"),
    ((0.5, math.inf), "finite and non-negative"),
    ((-0.2, 0.5), "finite and non-negative"),
])
def test_stacked_pairs_raise_as_their_pair_calls(bad, message):
    weights = np.array([(0.3, 0.4), bad, (0.5, 0.5)])
    means, covs = np.zeros((3, 2, 2)), np.tile(np.eye(2), (3, 2, 1, 1))
    with pytest.raises(ValueError, match=message):
        moment_match_merge(weights[1], means[1], covs[1])
    with pytest.raises(ValueError, match=message):
        moment_match_merge(weights, means, covs)


def test_a_stack_takes_only_pairs():
    with pytest.raises(ValueError, match="a merge takes a pair of rows"):
        moment_match_merge(np.full((2, 3), 0.2), np.zeros((2, 3, 1)), np.ones((2, 3, 1, 1)))


@pytest.mark.parametrize("k", [1, 3])
def test_other_row_counts_rejected(k):
    # mixture_moments reduces k rows; a merge collapses a pair
    with pytest.raises(ValueError, match=rf"a merge takes a pair of rows, got weights \({k},\)"):
        moment_match_merge(np.full(k, 0.2), np.zeros((k, 1)), np.ones((k, 1, 1)))


class TestTypes:
    """The checks that kf_update and log_pdf make of a (mean, cov) pair, and the
    weight range that the particle set enforces."""

    def test_weight_range_enforced(self):
        for bad in (1.2, -0.1):
            with pytest.raises(ValueError):
                GpfParticleSet([bad], np.zeros((1, 1)), np.ones((1, 1, 1)))

    def test_state_dimension_checked(self):
        for mean, cov in ((np.zeros(2), np.eye(3)), (np.zeros((1, 2)), np.eye(2)),
                          (np.zeros(2), np.ones(2))):
            with pytest.raises(ValueError):
                kf_update(mean, cov, np.eye(2), np.eye(2), np.zeros(2))
            with pytest.raises(ValueError):
                log_pdf(mean, cov, np.zeros(2))

    def test_cov_symmetrized(self):
        # asymmetric in the last bit: each call sees the symmetrized matrix
        cov = np.array([[1.0, np.nextafter(0.3, 1.0)], [0.3, 1.0]])
        mean, z, h, r = np.array([0.5, -1.0]), np.array([0.2, 0.1]), np.eye(2), np.eye(2)
        got, want = kf_update(mean, cov, h, r, z), kf_update(mean, _symmetrize(cov), h, r, z)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert np.array_equal(got.cov, got.cov.T)
        xs = np.array([[0.0, 0.0], [1.0, -2.0]])
        assert np.array_equal(log_pdf(mean, cov, xs), log_pdf(mean, _symmetrize(cov), xs))


class TestValueEquality:
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: MotionModel([[1.0, v], [0.0, 1.0]], np.eye(2)),
            lambda v: CellReturns([1, 2, 3], [1, 0, int(v)]),
            lambda v: GpfParticleSet(
                [0.5, 0.9], [[0, 0, 0, 0], [1, 2, 3, v]], np.tile(np.eye(4), (2, 1, 1))
            ),
        ],
        ids=["MotionModel", "CellReturns", "GpfParticleSet"],
    )
    def test_multi_element_records_compare_by_value(self, make):
        assert make(1.0) == make(1.0)
        assert make(1.0) != make(0.0)
        assert make(1.0) != "not a record"

    def test_shapes_and_flags_count(self):
        one = [[1.0]]
        assert MotionModel(np.eye(2), np.eye(2)) != MotionModel(one, one)
        one = GpfParticleSet([0.5], [[0, 0, 0, 0]], [np.eye(4)])
        assert one != GpfParticleSet([0.5], [[0, 0, 0, 0]], [np.eye(4)], degenerate_step=True)


class TestImmutability:
    """A belief is immutable: stages share a GpfParticleSet instead of copying it."""

    def test_caller_arrays_are_not_shared(self):
        weights, means, covs = np.array([0.5]), np.array([[1.0, 2.0]]), np.eye(2)[None]
        pset = GpfParticleSet(weights, means, covs)
        weights[0] = 0.9
        means[0, 0] = 99.0
        covs[0, 0, 0] = 99.0
        assert_allclose(pset.weights, [0.5])
        assert_allclose(pset.means, [[1.0, 2.0]])
        assert_allclose(pset.covs, np.eye(2)[None])

    def test_arrays_are_read_only(self):
        pset = GpfParticleSet([0.5], np.array([[1.0, 2.0]]), np.eye(2)[None])
        with pytest.raises(ValueError):
            pset.means[0, 0] = 5.0
        with pytest.raises(ValueError):
            pset.covs[0, 0, 1] = 5.0
        with pytest.raises(ValueError):
            pset.means += 1.0

    def test_fields_cannot_be_reassigned(self):
        pset = GpfParticleSet([0.5], np.zeros((1, 1)), np.ones((1, 1, 1)))
        with pytest.raises(FrozenInstanceError):
            pset.weights = np.array([0.9])
        with pytest.raises(FrozenInstanceError):
            pset.means = np.zeros((1, 1))
        assert pset.weights[0] == 0.5
