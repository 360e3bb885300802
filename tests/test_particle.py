from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mtt.kalman import kf_predict, kf_update
from mtt.motion import MotionModel, constant_velocity_matrix
from mtt.particle import _RESAMPLERS, PointParticleSet, effective_sample_size, pf_step


def _model_1d(f=1.0, q=0.5):
    return MotionModel(F=[[f]], Q=[[q]])


def _uniform_set(states):
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    return PointParticleSet(states, np.full(n, 1.0 / n))


def _resample(scheme, pset, rng, zero_likelihood=False):
    """The set that pf_step builds when it resamples pset's rows by this scheme."""
    n = pset.n_particles
    idx = _RESAMPLERS[scheme](pset.weights, rng)
    return PointParticleSet(pset.states[idx], np.full(n, 1.0 / n), zero_likelihood)


class TestPointParticleSet:
    def test_multi_element_value_equality(self):
        a = PointParticleSet(np.zeros((2, 1)), [0.5, 0.5])
        assert a == PointParticleSet(np.zeros((2, 1)), [0.5, 0.5])
        assert a != PointParticleSet(np.ones((2, 1)), [0.5, 0.5])
        assert a != PointParticleSet(np.zeros((2, 1)), [0.5, 0.5], zero_likelihood=True)

    def test_attributes_cannot_be_assigned(self):
        pset = _uniform_set([[0.0], [1.0]])
        with pytest.raises(FrozenInstanceError):
            pset.zero_likelihood = True

    def test_arrays_are_read_only_copies(self):
        states = np.zeros((2, 1))
        pset = PointParticleSet(states, [0.5, 0.5])
        states[0, 0] = 7.0
        assert pset.states[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            pset.states[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            pset.weights[0] = 1.0


class TestEffectiveSampleSize:
    def test_uniform_weights_give_n(self):
        assert effective_sample_size([0.5, 0.5]) == 2.0

    def test_degenerate_weights_give_one(self):
        assert effective_sample_size([1.0, 0.0]) == 1.0

    def test_skewed_weights(self):
        # 1 / (0.75^2 + 0.25^2) = 1 / 0.625
        assert_allclose(effective_sample_size([0.75, 0.25]), 1.6)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            effective_sample_size([0.5, 0.6])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.random(n) + 1e-9
        w /= w.sum()
        ess = effective_sample_size(w)
        assert 1.0 - 1e-9 <= ess <= n + 1e-9


class TestResampling:
    def test_equal_weights_permutes_states(self):
        pset = _uniform_set([[0.0], [1.0], [2.0], [3.0]])
        out = _resample("multinomial", pset, np.random.default_rng(0))
        assert_allclose(out.weights, 0.25)
        assert set(out.states.ravel()) <= {0.0, 1.0, 2.0, 3.0}

    def test_degenerate_weight_selects_single_state(self):
        pset = PointParticleSet([[0.0], [7.0]], [0.0, 1.0])
        out = _resample("multinomial", pset, np.random.default_rng(0))
        assert_allclose(out.states, 7.0)

    def test_multinomial_copy_counts(self):
        # 10^5 draws at selection probabilities (0.9, 0.1): the count of the
        # first state is Binomial(10^5, 0.9), mean 90000, 3 sigma ~ 285
        n = 10**5
        half = n // 2
        states = np.vstack([np.zeros((half, 1)), np.ones((n - half, 1))])
        weights = np.concatenate(
            [np.full(half, 0.9 / half), np.full(n - half, 0.1 / (n - half))]
        )
        res = _resample("multinomial", PointParticleSet(states, weights), np.random.default_rng(3))
        copies_of_first = int((res.states == 0.0).sum())
        assert abs(copies_of_first - 90000) <= 300
        assert_allclose(res.weights, 1.0 / n)

    def test_ess_is_n_after_resampling(self):
        rng = np.random.default_rng(1)
        w = rng.random(50)
        w /= w.sum()
        pset = PointParticleSet(rng.standard_normal((50, 2)), w)
        for scheme in _RESAMPLERS:
            out = _resample(scheme, pset, np.random.default_rng(2))
            assert effective_sample_size(out.weights) == pytest.approx(50.0)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("kind", ["uniform", "point_mass", "with_zeros", "random"])
    def test_multinomial_is_choice_with_p(self, n, kind):
        # the draws and the stream of rng.choice(n, n, replace=True, p=w)
        states = np.arange(n, dtype=float)[:, None]
        for seed in range(200):
            w = np.random.default_rng(10_000 + seed).random(n)
            if kind == "uniform":
                w = np.ones(n)
            elif kind == "point_mass":
                w = np.zeros(n)
                w[seed % n] = 1.0
            elif kind == "with_zeros":
                w[::2] = 0.0
                w[-1] += w.sum() == 0.0
            pset = PointParticleSet(states, w / w.sum())
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            out = _resample("multinomial", pset, rng_a)
            idx = rng_b.choice(n, size=n, replace=True, p=pset.weights)
            assert_array_equal(out.states, states[idx])
            assert rng_a.random() == rng_b.random()

    def test_systematic_reproducible(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        pset = _uniform_set(np.arange(10.0)[:, None])
        out_a = _resample("systematic", pset, rng_a)
        out_b = _resample("systematic", pset, rng_b)
        assert np.array_equal(out_a.states, out_b.states)


class TestPfStep:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_measurement_rejected(self, bad):
        pset = _uniform_set([[0.0], [1.0]])
        with pytest.raises(ValueError, match="finite"):
            pf_step(pset, _model_1d(), lambda s, z: np.ones(len(s)), np.array([bad]),
                    np.random.default_rng(0))

    def test_constant_likelihood_keeps_weights(self):
        pset = PointParticleSet([[0.0], [1.0], [2.0]], [0.5, 0.3, 0.2])
        out = pf_step(
            pset, _model_1d(q=0.0), lambda s, z: np.full(len(s), 0.7), np.array([0.0]),
            np.random.default_rng(0),
        )
        assert_allclose(out.weights, [0.5, 0.3, 0.2])
        assert not out.zero_likelihood

    def test_frozen_dynamics_keep_states(self):
        pset = _uniform_set([[0.0], [1.0], [2.0]])
        out = pf_step(
            pset, _model_1d(f=1.0, q=0.0), lambda s, z: np.ones(len(s)), np.array([0.0]),
            np.random.default_rng(0),
        )
        assert np.array_equal(out.states, pset.states)

    def test_zero_likelihood_falls_back_to_uniform(self):
        pset = PointParticleSet([[0.0], [1.0]], [0.9, 0.1])
        out = pf_step(
            pset, _model_1d(q=0.0), lambda s, z: np.zeros(len(s)), np.array([0.0]),
            np.random.default_rng(0),
        )
        assert out.zero_likelihood
        assert_allclose(out.weights, 0.5)

    def test_zero_likelihood_flag_survives_resampling(self):
        # uniform fallback weights have ESS = N, so only ess_ratio > 1 resamples them
        pset = PointParticleSet([[0.0], [1.0]], [0.9, 0.1])
        out = pf_step(
            pset, _model_1d(q=0.0), lambda s, z: np.zeros(len(s)), np.array([0.0]),
            np.random.default_rng(0), ess_ratio=1.5,
        )
        assert out.zero_likelihood
        assert_allclose(out.weights, 0.5)
        assert set(out.states.ravel()) <= {0.0, 1.0}

    def test_resample_triggers_on_low_ess(self):
        # one particle grabs nearly all the weight -> ESS < N/2 -> resample
        states = np.array([[0.0], [10.0], [10.0], [10.0]])
        pset = _uniform_set(states)

        def like(s, z):
            return np.where(abs(s[:, 0] - z[0]) < 1.0, 1.0, 1e-12)

        out = pf_step(pset, _model_1d(q=0.0), like, np.array([0.0]), np.random.default_rng(0))
        assert_allclose(out.weights, 0.25)
        assert_allclose(out.states, 0.0, atol=1e-9)

    def test_no_resample_at_exact_threshold(self):
        # ESS of [0.5, 0.5, 0, 0] is exactly N/2; the trigger is strict
        states = np.zeros((4, 1))
        pset = PointParticleSet(states, [0.25] * 4)
        weights = np.array([0.5, 0.5, 0.0, 0.0])

        out = pf_step(pset, _model_1d(q=0.0), lambda s, z: weights, np.array([0.0]),
                      np.random.default_rng(0))
        assert_allclose(out.weights, weights)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        pset = _uniform_set(rng.standard_normal((100, 1)))
        out = pf_step(
            pset, _model_1d(), lambda s, z: np.exp(-0.5 * (s[:, 0] - z[0]) ** 2),
            np.array([0.3]), rng,
        )
        assert abs(out.weights.sum() - 1.0) <= 1e-9

    def test_bit_reproducible_with_fixed_seed(self):
        pset = _uniform_set(np.linspace(-1, 1, 64)[:, None])

        def like(s, z):
            return np.exp(-0.5 * (s[:, 0] - z[0]) ** 2)

        outs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            outs.append(pf_step(pset, _model_1d(), like, np.array([0.5]), rng))
        assert np.array_equal(outs[0].states, outs[1].states)
        assert np.array_equal(outs[0].weights, outs[1].weights)

    def test_negative_likelihood_rejected(self):
        pset = _uniform_set([[0.0]])
        with pytest.raises(ValueError):
            pf_step(pset, _model_1d(), lambda s, z: np.array([-1.0]), np.array([0.0]),
                    np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_likelihood_rejected(self, bad):
        pset = _uniform_set([[0.0], [1.0]])
        with pytest.raises(ValueError, match="finite"):
            pf_step(pset, _model_1d(), lambda s, z: np.array([1.0, bad]), np.array([0.0]),
                    np.random.default_rng(0))

    @pytest.mark.parametrize("like", [lambda s, z: 1.0, lambda s, z: np.ones(len(s) - 1),
                                      lambda s, z: np.ones((len(s), 1))])
    def test_likelihood_shape_checked(self, like):
        pset = _uniform_set([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            pf_step(pset, _model_1d(), like, np.array([0.0]), np.random.default_rng(0))

    def test_process_noise_is_multivariate_normal_stream(self):
        q = np.array([[1.0, 0.3], [0.3, 0.5]])
        model = MotionModel(F=np.eye(2), Q=q)
        pset = _uniform_set(np.zeros((500, 2)))
        rng, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        out = pf_step(pset, model, lambda s, z: np.ones(len(s)), np.zeros(2), rng)
        assert_array_equal(out.states, rng_ref.multivariate_normal(np.zeros(2), q, size=500))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PointParticleSet([[0.0], [1.0]], [bad, bad])

    def test_tracks_kalman_oracle(self):
        # linear-Gaussian model: the KF posterior mean is exact
        rng = np.random.default_rng(11)
        model = _model_1d(f=0.95, q=0.4)
        truth = 0.0
        kf_mean, kf_cov = np.array([0.0]), np.array([[2.0]])
        n = 4000
        pset = PointParticleSet(
            rng.normal(0.0, np.sqrt(2.0), size=(n, 1)), np.full(n, 1.0 / n)
        )

        def like(s, z):
            return np.exp(-0.5 * (z[0] - s[:, 0]) ** 2 / 0.8)

        hits = 0
        steps = 25
        for _ in range(steps):
            truth = 0.95 * truth + rng.normal(0.0, np.sqrt(0.4))
            z = np.array([truth + rng.normal(0.0, np.sqrt(0.8))])
            pred = kf_predict(kf_mean, kf_cov, model.F, model.Q)
            kf_mean, kf_cov, *_ = kf_update(*pred, np.eye(1), np.array([[0.8]]), z)
            pset = pf_step(pset, model, like, z, rng)
            ess = effective_sample_size(pset.weights)
            spread = np.sqrt(
                max(float(pset.weights @ (pset.states[:, 0] - pset.mean()[0]) ** 2), 1e-12)
            )
            se = spread / np.sqrt(ess)
            if abs(pset.mean()[0] - kf_mean[0]) <= 3 * se:
                hits += 1
        assert hits >= 0.9 * steps


class TestOneSetPerStep:
    """pf_step builds one PointParticleSet and gives the outputs of the path that
    built the reweighted set and then resampled it into a second set."""

    MODEL = MotionModel(F=constant_velocity_matrix(1.0), Q=np.diag([0.2, 0.02, 0.2, 0.02]))

    @staticmethod
    def _likelihood(case):
        if case == "zero":
            return lambda s, z: np.zeros(len(s))
        width = {"resample": 0.05, "keep": 50.0}[case]
        return lambda s, z: np.exp(-0.5 * ((s[:, 0] - z[0]) ** 2 + (s[:, 2] - z[1]) ** 2) / width)

    def _old_step(self, pset, likelihood, z, rng, ess_ratio, resample):
        n = pset.n_particles
        model = self.MODEL
        propagated = pset.states @ model.F.T + rng.standard_normal((n, 4)) @ model.Q_factor
        weights = pset.weights * likelihood(propagated, z)
        degenerate = weights.sum() <= 0.0
        weights = np.full(n, 1.0 / n) if degenerate else weights / weights.sum()
        out = PointParticleSet(propagated, weights, zero_likelihood=degenerate)
        if effective_sample_size(out.weights) < ess_ratio * n:
            return _resample(resample, out, rng, zero_likelihood=degenerate), True
        return out, False

    @pytest.mark.parametrize("resample", ["multinomial", "systematic"])
    @pytest.mark.parametrize("case, ess_ratio", [("resample", 0.5), ("keep", 0.5),
                                                 ("zero", 1.5)])
    def test_one_set_and_the_old_outputs(self, monkeypatch, resample, case, ess_ratio):
        seeded = np.random.default_rng(7)
        w = seeded.random(300)
        pset = PointParticleSet(seeded.uniform(-1.0, 1.0, (300, 4)), w / w.sum())
        z = np.array([0.1, -0.2])
        likelihood = self._likelihood(case)
        rng_old = np.random.default_rng(21)
        expected, resampled = self._old_step(pset, likelihood, z, rng_old, ess_ratio, resample)
        assert resampled == (case != "keep")

        built = []
        post_init = PointParticleSet.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PointParticleSet, "__post_init__", counting)
        rng = np.random.default_rng(21)
        out = pf_step(pset, self.MODEL, likelihood, z, rng, ess_ratio=ess_ratio,
                      resample=resample)
        assert built == [out]
        assert_array_equal(out.states, expected.states)
        assert_array_equal(out.weights, expected.weights)
        assert out.zero_likelihood == expected.zero_likelihood == (case == "zero")
        assert rng.random() == rng_old.random()
