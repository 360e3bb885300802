import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad, simpson

from mtt.gaussians import (
    GaussianParticle,
    GaussianState,
    SingularCovarianceError,
    log_pdf,
    mixture_moments,
    moment_match_merge,
    noise_factor,
)
from mtt.gpf import GpfParticleSet
from mtt.sensors import CellReturns


def _random_psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) + 0.1 * np.eye(n)


class TestLogPdf:
    def test_standard_normal_at_mode(self):
        g = GaussianState(0.0, 1.0)
        assert_allclose(log_pdf(g, 0.0), math.log(1.0 / math.sqrt(2 * math.pi)), rtol=1e-12)

    def test_2d_identity_at_mean(self):
        g = GaussianState(np.array([1.0, -2.0]), np.eye(2))
        assert_allclose(log_pdf(g, g.mean), -math.log(2 * math.pi), rtol=1e-12)

    def test_1d_variance_four(self):
        # direct formula evaluation: -(x-mu)^2/(2 s2) - log(2 pi s2)/2
        expected = -0.5 * 1.0 - 0.5 * math.log(2 * math.pi * 4.0)
        g = GaussianState(0.0, 4.0)
        assert_allclose(log_pdf(g, 2.0), expected, rtol=1e-12)
        assert_allclose(expected, -2.1121, atol=5e-5)

    def test_integrates_to_one_1d(self):
        g = GaussianState(0.5, 2.0)
        sigma = math.sqrt(2.0)
        total, _ = quad(lambda x: math.exp(log_pdf(g, x)), 0.5 - 8 * sigma, 0.5 + 8 * sigma)
        assert_allclose(total, 1.0, atol=1e-6)

    def test_integrates_to_one_2d(self):
        g = GaussianState(np.zeros(2), np.array([[1.0, 0.3], [0.3, 0.8]]))
        xs = np.linspace(-8.0, 8.0, 201)
        ys = np.linspace(-8.0, 8.0, 201)
        density = np.array(
            [[math.exp(log_pdf(g, np.array([x, y]))) for y in ys] for x in xs]
        )
        total = simpson(simpson(density, x=ys, axis=1), x=xs)
        assert_allclose(total, 1.0, atol=1e-6)

    def test_dimension_mismatch(self):
        g = GaussianState(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            log_pdf(g, np.zeros(3))

    def test_singular_covariance(self):
        g = GaussianState(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(SingularCovarianceError):
            log_pdf(g, np.zeros(2))

    @pytest.mark.parametrize("d", [2, 4])
    def test_stack_equals_per_point_calls(self, d):
        rng = np.random.default_rng(d)
        g = GaussianState(rng.standard_normal(d), _random_psd(rng, d))
        xs = 3.0 * rng.standard_normal((200, d))
        stacked = log_pdf(g, xs)
        assert stacked.shape == (200,)
        assert_array_equal(stacked, [log_pdf(g, x) for x in xs])
        assert_array_equal(log_pdf(g, xs.reshape(4, 50, d)), stacked.reshape(4, 50))

    def test_one_point_gives_a_float(self):
        assert type(log_pdf(GaussianState(np.zeros(2), np.eye(2)), np.ones(2))) is float

    def test_stack_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_pdf(GaussianState(np.zeros(2), np.eye(2)), np.zeros((5, 3)))


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


def _merge(particles, cov_mode="moment"):
    """moment_match_merge over the stacked rows of these particles."""
    return moment_match_merge(
        [p.weight for p in particles],
        np.array([p.state.mean for p in particles]),
        np.array([p.state.cov for p in particles]),
        cov_mode,
    )


class TestMomentMatchMerge:
    def test_identical_components(self):
        state = GaussianState(np.array([1.0, 2.0]), np.diag([0.5, 0.25]))
        weight, mean, cov = _merge(
            [GaussianParticle(0.3, state), GaussianParticle(0.4, state)]
        )
        assert_allclose(weight, 0.7)
        assert_allclose(mean, state.mean)
        assert_allclose(cov, state.cov, atol=1e-15)

    def test_single_particle_identity(self):
        p = GaussianParticle(0.6, GaussianState(np.array([1.0]), np.array([[2.0]])))
        weight, mean, cov = _merge([p])
        assert weight == p.weight
        assert_allclose(mean, p.state.mean)
        assert_allclose(cov, p.state.cov)

    def test_two_component_mixture_moments(self):
        # moment matching: mean 1, var = within (1) + between (1) = 2
        weight, mean, cov = _merge(
            [
                GaussianParticle(0.5, GaussianState(0.0, 1.0)),
                GaussianParticle(0.5, GaussianState(2.0, 1.0)),
            ]
        )
        assert_allclose(weight, 1.0)
        assert_allclose(mean, [1.0])
        assert_allclose(cov, [[2.0]])

    def test_against_sampled_mixture_moments(self):
        # independent oracle: draw from the mixture and compare sample moments
        rng = np.random.default_rng(7)
        n = 10**6
        pick = rng.random(n) < 0.5
        draws = np.where(pick, rng.normal(0.0, 1.0, n), rng.normal(2.0, 1.0, n))
        _, mean, cov = _merge(
            [
                GaussianParticle(0.5, GaussianState(0.0, 1.0)),
                GaussianParticle(0.5, GaussianState(2.0, 1.0)),
            ]
        )
        assert_allclose(mean[0], draws.mean(), atol=0.01)
        assert_allclose(cov[0, 0], draws.var(), atol=0.01)

    def test_weight_clamped_to_one(self):
        state = GaussianState(0.0, 1.0)
        weight, _, _ = _merge([GaussianParticle(0.8, state), GaussianParticle(0.9, state)])
        assert weight == 1.0

    def test_plain_sum_mode(self):
        parts = [
            GaussianParticle(0.5, GaussianState(0.0, 1.0)),
            GaussianParticle(0.5, GaussianState(2.0, 3.0)),
        ]
        _, mean, cov = _merge(parts, cov_mode="plain_sum")
        assert_allclose(cov, [[4.0]])
        assert_allclose(mean, [1.0])

    def test_empty_and_zero_weight_errors(self):
        with pytest.raises(ValueError):
            moment_match_merge([], np.zeros((0, 1)), np.zeros((0, 1, 1)))
        with pytest.raises(ValueError):
            _merge([GaussianParticle(0.0, GaussianState(0.0, 1.0))] * 2)

    def test_unknown_cov_mode_rejected_first(self):
        # checked before the inputs, so even an empty merge names the mode
        with pytest.raises(ValueError, match="unknown cov_mode 'bogus'"):
            moment_match_merge([], np.zeros((0, 1)), np.zeros((0, 1, 1)), "bogus")

    def test_inputs_left_unchanged(self):
        weights, means = np.array([0.8, 0.9]), np.array([[0.0], [2.0]])
        covs = np.array([[[1.0]], [[3.0]]])
        inputs = [a.copy() for a in (weights, means, covs)]
        moment_match_merge(weights, means, covs)
        for a, before in zip((weights, means, covs), inputs):
            assert np.array_equal(a, before)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_first_moment_preserved(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        weights = rng.random(count) * 0.2 + 0.01
        parts = [
            GaussianParticle(
                w, GaussianState(rng.standard_normal(dim), _random_psd(rng, dim))
            )
            for w in weights
        ]
        weight, mean, _ = _merge(parts)
        expected = sum(w * p.state.mean for w, p in zip(weights, parts))
        assert_allclose(weight * mean, expected, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_merged_cov_psd(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        parts = [
            GaussianParticle(
                rng.random() * 0.9 + 0.05,
                GaussianState(rng.standard_normal(dim) * 3, _random_psd(rng, dim)),
            )
            for _ in range(count)
        ]
        _, _, cov = _merge(parts)
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


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_mixture_moments_has_the_bits_of_the_row_loop(seed, k, d):
    rng = np.random.default_rng(seed)
    means = 5.0 * rng.standard_normal((k, d))
    covs = np.array([_random_psd(rng, d) for _ in range(k)])
    weights = rng.random(k) + 1e-3
    for got, want in zip(mixture_moments(means, covs, weights),
                         _mixture_moments_by_row(means, covs, weights)):
        assert np.array_equal(got, want)


class TestTypes:
    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            GaussianParticle(1.2, GaussianState(0.0, 1.0))
        with pytest.raises(ValueError):
            GaussianParticle(-0.1, GaussianState(0.0, 1.0))

    def test_state_dimension_checked(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), np.eye(3))

    def test_cov_symmetrized(self):
        g = GaussianState(np.zeros(2), np.array([[1.0, 0.3 + 1e-12], [0.3, 1.0]]))
        assert_allclose(g.cov, g.cov.T, atol=0)


class TestValueEquality:
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: GaussianState([1.0, v], [[2.0, 0.5], [0.5, 1.0]]),
            lambda v: CellReturns([1, 2, 3], [1, 0, int(v)]),
            lambda v: GpfParticleSet(
                [0.5, 0.9], [[0, 0, 0, 0], [1, 2, 3, v]], np.tile(np.eye(4), (2, 1, 1))
            ),
        ],
        ids=["GaussianState", "CellReturns", "GpfParticleSet"],
    )
    def test_multi_element_records_compare_by_value(self, make):
        assert make(1.0) == make(1.0)
        assert make(1.0) != make(0.0)
        assert make(1.0) != "not a record"

    def test_shapes_and_flags_count(self):
        assert GaussianState([0.0, 0.0], np.eye(2)) != GaussianState([0.0], [[1.0]])
        one = GpfParticleSet([0.5], [[0, 0, 0, 0]], [np.eye(4)])
        assert one != GpfParticleSet([0.5], [[0, 0, 0, 0]], [np.eye(4)], degenerate_step=True)


class TestImmutability:
    def test_caller_arrays_are_not_shared(self):
        mean = np.array([1.0, 2.0])
        cov = np.eye(2)
        g = GaussianState(mean, cov)
        mean[0] = 99.0
        cov[0, 0] = 99.0
        assert_allclose(g.mean, [1.0, 2.0])
        assert_allclose(g.cov, np.eye(2))

    def test_arrays_are_read_only(self):
        g = GaussianState(np.array([1.0, 2.0]), np.eye(2))
        with pytest.raises(ValueError):
            g.mean[0] = 5.0
        with pytest.raises(ValueError):
            g.cov[0, 1] = 5.0
        with pytest.raises(ValueError):
            g.mean += 1.0

    def test_fields_cannot_be_reassigned(self):
        p = GaussianParticle(0.5, GaussianState(0.0, 1.0))
        with pytest.raises(FrozenInstanceError):
            p.weight = 0.9
        with pytest.raises(FrozenInstanceError):
            p.state.mean = np.zeros(1)
        assert p.weight == 0.5
