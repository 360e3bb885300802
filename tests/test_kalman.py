from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mtt.gaussians import SingularCovarianceError
from mtt.kalman import kf_predict, kf_update
from mtt.motion import MotionModel
from mtt.sensors import MeanSensorModel


def _random_measurement(rng, n, r_dim=None):
    """A random (H, R) pair: H (r_dim, n), R symmetric positive definite."""
    r_dim = r_dim or n
    h = rng.standard_normal((r_dim, n))
    b = rng.standard_normal((r_dim, r_dim))
    return h, b @ b.T + 0.1 * np.eye(r_dim)


def _random_state(rng, n):
    """A random (mean, cov) pair of dimension n."""
    a = rng.standard_normal((n, n))
    return rng.standard_normal(n), a @ a.T + 0.1 * np.eye(n)


class TestPredict:
    def test_identity_dynamics(self):
        mean, cov = np.array([1.0, 2.0]), np.diag([0.5, 0.5])
        motion = MotionModel(F=np.eye(2), Q=np.zeros((2, 2)))
        pred_mean, pred_cov = kf_predict(mean, cov, motion.F, motion.Q)
        assert_allclose(pred_mean, mean)
        assert_allclose(pred_cov, cov)

    def test_pure_diffusion(self):
        mean, cov = np.array([1.0, 2.0]), np.diag([0.5, 2.0])
        motion = MotionModel(F=np.eye(2), Q=np.eye(2))
        pred_mean, pred_cov = kf_predict(mean, cov, motion.F, motion.Q)
        assert_allclose(pred_mean, mean)
        assert_allclose(pred_cov, cov + np.eye(2))

    def test_1d_formula(self):
        mean, cov = kf_predict(np.array([3.0]), np.array([[1.0]]), np.array([[2.0]]),
                               np.array([[0.5]]))
        assert_allclose(mean, [6.0])
        assert_allclose(cov, [[4.5]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kf_predict(np.zeros(3), np.eye(3), np.eye(1), np.zeros((1, 1)))


class TestUpdate:
    def test_equal_variance_split(self):
        mean, cov, y, s, k = kf_update(0.0, 1.0, np.eye(1), np.eye(1), np.array([2.0]))
        assert_allclose(mean, [1.0])
        assert_allclose(cov, [[0.5]])
        assert_allclose(y, [2.0])
        assert_allclose(s, [[2.0]])
        assert_allclose(k, [[0.5]])

    def test_uninformative_measurement(self):
        mean, cov = np.array([1.0, -1.0]), np.diag([2.0, 3.0])
        post = kf_update(mean, cov, np.eye(2), np.eye(2) * 1e12, np.array([50.0, -50.0]))
        assert_allclose(post.mean, mean, rtol=1e-6, atol=1e-6)
        assert_allclose(post.cov, cov, rtol=1e-6)

    def test_conjugate_gaussian_oracle(self):
        # posterior precision = prior precision + measurement precision
        prior_var, r, z = 4.0, 1.0, 5.0
        oracle_var = 1.0 / (1.0 / prior_var + 1.0 / r)
        oracle_mean = oracle_var * (0.0 / prior_var + z / r)
        mean, cov, _, _, k = kf_update(0.0, prior_var, np.eye(1), np.array([[r]]), np.array([z]))
        assert_allclose(k, [[0.8]])
        assert_allclose(mean, [oracle_mean])
        assert_allclose(cov, [[oracle_var]])
        assert_allclose(mean, [4.0])
        assert_allclose(cov, [[0.8]])

    def test_singular_innovation(self):
        with pytest.raises(SingularCovarianceError):
            kf_update(0.0, 0.0, np.eye(1), np.zeros((1, 1)), np.array([1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kf_update(0.0, 1.0, np.eye(1), np.eye(1), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurement_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            kf_update(np.zeros(2), np.eye(2), np.eye(2), np.eye(2), np.array([bad, 5.0]))


class TestInvariants:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_update_never_inflates_variance(self, seed, n):
        rng = np.random.default_rng(seed)
        h, r = _random_measurement(rng, n)
        mean, cov = _random_state(rng, n)
        post = kf_update(mean, cov, h, r, rng.standard_normal(n))
        for _ in range(5):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            assert v @ post.cov @ v <= v @ cov @ v + 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_order_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        prior = _random_state(rng, n)
        h_a, r_a = _random_measurement(rng, n, r_dim=n)
        h_b, r_b = _random_measurement(rng, n, r_dim=n)
        za = rng.standard_normal(n)
        zb = rng.standard_normal(n)
        p1 = kf_update(*kf_update(*prior, h_a, r_a, za)[:2], h_b, r_b, zb)
        p2 = kf_update(*kf_update(*prior, h_b, r_b, zb)[:2], h_a, r_a, za)
        assert_allclose(p1.mean, p2.mean, atol=1e-9)
        assert_allclose(p1.cov, p2.cov, atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_joseph_form_matches_simple_form(self, seed, n):
        rng = np.random.default_rng(seed)
        h, r = _random_measurement(rng, n)
        mean, cov = _random_state(rng, n)
        _, post_cov, _, _, k = kf_update(mean, cov, h, r, rng.standard_normal(n))
        i_kh = np.eye(n) - k @ h
        joseph = i_kh @ cov @ i_kh.T + k @ r @ k.T
        simple = i_kh @ cov
        assert_allclose(joseph, simple, atol=1e-8)
        assert_allclose(post_cov, joseph, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_posterior_cov_symmetric_psd(self, seed, n):
        rng = np.random.default_rng(seed)
        h, r = _random_measurement(rng, n)
        post = kf_update(*_random_state(rng, n), h, r, rng.standard_normal(n))
        assert np.array_equal(post.cov, post.cov.T)
        assert np.linalg.eigvalsh(post.cov).min() >= -1e-9


class TestModelValidation:
    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError, match="Q must be symmetric"):
            MotionModel(F=np.eye(2), Q=[[1.0, 0.5], [0.0, 1.0]])

    def test_q_must_be_psd(self):
        # pf_step would draw its process noise from a wrong distribution
        with pytest.raises(ValueError, match="Q must be positive semidefinite"):
            MotionModel(F=np.eye(2), Q=[[1.0, 2.0], [2.0, 1.0]])

    def test_r_must_be_psd(self):
        with pytest.raises(ValueError, match="R must be positive semidefinite"):
            MeanSensorModel(R=-np.eye(2), position_projection=np.eye(2))

    def test_model_is_frozen(self):
        model = MotionModel(F=[[1.0]], Q=[[0.5]])
        with pytest.raises(FrozenInstanceError):
            model.Q = np.eye(1)
        with pytest.raises(ValueError):
            model.Q[0, 0] = 2.0
        assert_allclose(model.Q_factor.T @ model.Q_factor, [[0.5]])

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError, match="Q shape"):
            MotionModel(F=np.eye(2), Q=np.eye(3))
        with pytest.raises(ValueError, match="F must be square"):
            MotionModel(F=np.ones((2, 3)), Q=np.eye(2))
