import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mtt.gaussians import GaussianParticle, GaussianState
from mtt.gpf import (
    CombinatorialBlowupError,
    ExistenceCombination,
    GpfConfig,
    GpfParticleSet,
    birth_and_prune,
    combination_log_weight,
    conditional_kf_update,
    enumerate_combinations,
    estimate_cardinality,
    gpf_predict,
    gpf_step,
    grid_births,
    grid_existence_update,
    marginalize_existence,
    merge_close_particles,
    normalize_combination_weights,
    select_fov_particles,
)
from mtt.kalman import LinearGaussianModel, kf_predict, kf_update
from mtt.motion import POSITION_IDX, constant_velocity_matrix, position_projection
from mtt.regions import FovRegion, Rectangle
from mtt.sensors import CellReturns, GridSensorModel, MeanSensorModel, detection_prob

WORKSPACE = Rectangle(0.0, 0.0, 12.0, 12.0)


def _particle(w, x, y, var=1.0, dim4=True):
    if dim4:
        mean = np.array([x, 0.0, y, 0.0])
        cov = np.diag([var, 0.1, var, 0.1])
    else:
        mean = np.array([x])
        cov = np.array([[var]])
    return GaussianParticle(w, GaussianState(mean, cov))


def _pset(particles):
    """The belief holding these particles, in order (stacked into arrays)."""
    return GpfParticleSet(
        [p.weight for p in particles],
        np.array([p.state.mean for p in particles]),
        np.array([p.state.cov for p in particles]),
    )


def _random_psd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.2 * np.eye(n)


def _random_rows(rng, s, n):
    """s random (mean, cov) rows of dimension n, drawn row by row, stacked."""
    rows = [(rng.standard_normal(n), _random_psd(rng, n)) for _ in range(s)]
    return np.array([m for m, _ in rows]), np.array([c for _, c in rows])


# two 1-D prior rows, N(0, 1) and N(2, 1), for the hand-computed examples
_TWO_ROWS = (np.array([[0.0], [2.0]]), np.array([[[1.0]], [[1.0]]]))


def _mean_sensor(r=0.5):
    return MeanSensorModel(R=np.eye(2) * r, position_projection=position_projection())


def _mean_config(**overrides):
    defaults = dict(
        f_matrix=np.eye(4),
        q_matrix=np.zeros((4, 4)),
        sensor=_mean_sensor(),
        clutter_density=1.0 / WORKSPACE.area,
        epsilon=0.001,
    )
    defaults.update(overrides)
    return GpfConfig(**defaults)


class TestParticleSet:
    def test_default_is_empty_4d(self):
        pset = GpfParticleSet()
        assert len(pset) == 0 and pset.particles == []
        assert pset.means.shape == (0, 4) and pset.covs.shape == (0, 4, 4)

    def test_particles_view_rows_in_order(self):
        parts = [_particle(0.2, 1.0, 2.0), _particle(0.7, 3.0, 4.0, var=2.0)]
        for got, want in zip(_pset(parts).particles, parts):
            assert got.weight == want.weight
            assert np.array_equal(got.state.mean, want.state.mean)
            assert np.array_equal(got.state.cov, want.state.cov)

    def test_arrays_copied_and_read_only(self):
        weights = np.array([0.5])
        pset = GpfParticleSet(weights, np.zeros((1, 4)), np.eye(4)[None])
        weights[0] = 0.9
        assert pset.weights[0] == 0.5
        with pytest.raises(ValueError):
            pset.means[0, 0] = 1.0

    def test_covs_symmetrized_like_the_view(self):
        cov = np.eye(4)
        cov[0, 1] = 0.2
        pset = GpfParticleSet([0.5], np.zeros((1, 4)), cov[None])
        assert np.array_equal(pset.covs, pset.covs.swapaxes(1, 2))
        assert np.array_equal(pset.covs[0], pset.particles[0].state.cov)

    @pytest.mark.parametrize(
        "weights, means, covs",
        [([0.5], np.zeros((2, 4)), np.zeros((2, 4, 4))),
         ([0.5], np.zeros((1, 4)), np.zeros((1, 3, 3))),
         ([0.5], np.zeros(4), np.zeros((1, 4, 4))),
         ([1.5], np.zeros((1, 4)), np.zeros((1, 4, 4))),
         ([math.nan], np.zeros((1, 4)), np.zeros((1, 4, 4))),
         ([0.5], [[math.nan, 0.0, 0.0, 0.0]], np.eye(4)[None]),
         ([0.5], np.zeros((1, 4)), np.full((1, 4, 4), math.inf))],
    )
    def test_bad_arrays_rejected(self, weights, means, covs):
        with pytest.raises(ValueError):
            GpfParticleSet(weights, means, covs)


class TestPredict:
    def test_identity_is_noop(self):
        pset = _pset([_particle(0.5, 1.0, 2.0)])
        out = gpf_predict(pset, np.eye(4), np.zeros((4, 4)))
        assert_allclose(out.particles[0].state.mean, pset.particles[0].state.mean)
        assert_allclose(out.particles[0].state.cov, pset.particles[0].state.cov)

    def test_weights_never_change(self):
        rng = np.random.default_rng(0)
        pset = _pset([_particle(w, 0.0, 0.0) for w in (0.2, 0.7, 1.0)])
        out = gpf_predict(pset, rng.standard_normal((4, 4)), _random_psd(rng, 4))
        assert [p.weight for p in out.particles] == [0.2, 0.7, 1.0]

    def test_1d_formula(self):
        pset = _pset([GaussianParticle(1.0, GaussianState(1.0, 1.0))])
        out = gpf_predict(pset, [[2.0]], [[1.0]])
        assert_allclose(out.particles[0].state.mean, [2.0])
        assert_allclose(out.particles[0].state.cov, [[5.0]])

    def test_dimension_mismatch(self):
        pset = _pset([_particle(0.5, 1.0, 2.0)])
        with pytest.raises(ValueError):
            gpf_predict(pset, np.eye(3), np.zeros((3, 3)))

    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_equals_kf_predict_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        f, q = rng.standard_normal((4, 4)), _random_psd(rng, 4)
        parts = [
            GaussianParticle(rng.random(), GaussianState(10 * rng.standard_normal(4),
                                                         _random_psd(rng, 4)))
            for _ in range(n)
        ]
        out = gpf_predict(_pset(parts) if parts else GpfParticleSet(), f, q)
        assert len(out) == n
        for p, got in zip(parts, out.particles):
            want = kf_predict(p.state, f, q)
            assert got.weight == p.weight
            assert np.array_equal(got.state.mean, want.mean)
            assert np.array_equal(got.state.cov, want.cov)


@pytest.mark.parametrize("name", ["d_thresh", "clutter_density"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match="finite"):
        _mean_config(**{name: bad})


@pytest.mark.parametrize(
    "name, bad, message", [("merge_cov", "bogus", "merge_cov"), ("s_max", 0, "s_max")]
)
def test_config_rejects_bad_merge_and_enumeration_settings(name, bad, message):
    with pytest.raises(ValueError, match=message):
        _mean_config(**{name: bad})


class TestSelectFov:
    def test_full_workspace(self):
        pset = _pset([_particle(0.5, x, x) for x in (0.0, 5.0, 100.0)])
        in_fov, out_fov = select_fov_particles(pset, FovRegion.full())
        assert in_fov.tolist() == [0, 1, 2]
        assert out_fov.tolist() == []

    def test_empty_set(self):
        in_fov, out_fov = select_fov_particles(GpfParticleSet(), FovRegion.full())
        assert in_fov.tolist() == [] and out_fov.tolist() == []

    def test_returns_int_index_arrays(self):
        pset = _pset([_particle(0.5, x, x) for x in (0.5, 3.0, 0.2)])
        for part in select_fov_particles(pset, FovRegion.box(0.0, 0.0, 1.0, 1.0)):
            assert isinstance(part, np.ndarray) and part.dtype.kind == "i"

    def test_union_of_two_rectangles(self):
        # overlapping boxes [0, 2]^2 and [1, 4] x [1, 2]: a union, closed on every edge,
        # and a mean inside both is listed once
        fov = FovRegion((Rectangle(0.0, 0.0, 2.0, 2.0), Rectangle(1.0, 1.0, 4.0, 2.0)))
        points = [
            (0.0, 0.0),  # 0: corner of the first box only
            (1.5, 1.5),  # 1: in both boxes
            (4.0, 2.0),  # 2: far corner of the second box
            (3.0, 0.5),  # 3: below the second box, right of the first: out
            (2.0, 2.0),  # 4: on both boxes' edges
            (4.0001, 1.5),  # 5: just past the second box: out
            (1.0, 2.5),  # 6: above both: out
        ]
        pset = _pset([_particle(0.5, x, y) for x, y in points])
        in_fov, out_fov = select_fov_particles(pset, fov)
        assert in_fov.tolist() == [0, 1, 2, 4]
        assert out_fov.tolist() == [3, 5, 6]
        for i, (x, y) in enumerate(points):  # the scalar rule agrees with the array one
            assert bool(fov.contains(x, y)) == (i in in_fov)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_box_rejected(self, bound):
        with pytest.raises(ValueError, match="finite"):
            Rectangle(0.0, 0.0, bound, 12.0)
        with pytest.raises(ValueError, match="finite"):
            FovRegion.box(bound, 0.0, 1.0, 1.0)

    def test_boundary_mean_is_inside(self):
        fov = FovRegion.box(0.0, 0.0, 1.0, 1.0)
        pset = _pset([_particle(0.5, 1.0, 1.0), _particle(0.5, 1.0001, 1.0)])
        in_fov, out_fov = select_fov_particles(pset, fov)
        assert in_fov == [0]
        assert out_fov == [1]


class TestEnumerate:
    def test_two_particle_example(self):
        combos = enumerate_combinations([0.9, 0.8], 0.05)
        priors = {c.bits: c.prior for c in combos}
        assert priors == pytest.approx(
            {(1, 1): 0.72, (1, 0): 0.18, (0, 1): 0.08}
        )
        assert (0, 0) not in priors

    def test_certain_particle(self):
        combos = enumerate_combinations([1.0], 0.5)
        assert len(combos) == 1
        assert combos[0].bits == (1,)
        assert combos[0].prior == 1.0

    def test_combinations_are_immutable_records(self):
        combo = enumerate_combinations([0.9], 0.05)[0]
        assert combo._fields == ("bits", "prior")
        with pytest.raises(AttributeError):
            combo.prior = 0.5

    def test_threshold_dominates(self):
        assert enumerate_combinations([0.5, 0.5], 0.25) == []

    def test_blowup_guard(self):
        with pytest.raises(CombinatorialBlowupError):
            enumerate_combinations([0.5] * 21, 0.4)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            enumerate_combinations([0.5], 0.0)

    @pytest.mark.parametrize("s_max", [0, -1, 2.5])
    def test_s_max_validated(self, s_max):
        # a range error naming the field, not a blow-up of one in-view particle
        with pytest.raises(ValueError, match="s_max") as raised:
            enumerate_combinations([0.5], 0.01, s_max)
        assert not isinstance(raised.value, CombinatorialBlowupError)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_enumeration(self, seed, s):
        rng = np.random.default_rng(seed)
        weights = rng.random(s)
        eps = float(rng.uniform(0.001, 0.5))
        combos = enumerate_combinations(weights.tolist(), eps)
        got = {c.bits: c.prior for c in combos}
        expected = {}
        for bits in itertools.product((1, 0), repeat=s):
            prior = 1.0
            for w, e in zip(weights, bits):
                prior = prior * (w if e else 1.0 - w)
            if prior > eps:
                expected[bits] = prior
        assert set(got) == set(expected)
        for bits, prior in expected.items():
            assert got[bits] == pytest.approx(prior, rel=1e-12)
        assert len(got) <= 2**s
        assert all(p > eps for p in got.values())


class TestConditionalUpdate:
    def test_single_target_reduces_to_kalman(self):
        rng = np.random.default_rng(4)
        state = GaussianState(rng.standard_normal(4), _random_psd(rng, 4))
        proj = position_projection()
        r = np.eye(2) * 0.5
        z = rng.standard_normal(2)
        got = conditional_kf_update(0, (1,), state.mean[None], state.cov[None], z, r, proj)
        model = LinearGaussianModel(F=np.eye(4), Q=np.zeros((4, 4)), H=proj, R=r)
        want = kf_update(state, model.H, model.R, z)
        assert_allclose(got.posterior.mean, want.posterior.mean, rtol=1e-14, atol=0)
        assert_allclose(got.posterior.cov, want.posterior.cov, rtol=1e-14, atol=0)
        assert_allclose(got.gain, want.gain, rtol=1e-14, atol=0)

    def test_two_particle_hand_example(self):
        out = conditional_kf_update(
            0, (1, 1), *_TWO_ROWS, np.array([1.0]), np.array([[1.0]]), np.eye(1)
        )
        assert_allclose(out.residual, [0.0], atol=1e-15)
        assert_allclose(out.innovation_cov, [[1.5]])
        assert_allclose(out.gain, [[1.0 / 3.0]])
        assert_allclose(out.posterior.mean, [0.0], atol=1e-15)
        assert_allclose(out.posterior.cov, [[5.0 / 6.0]])

    def test_uninformative_measurement(self):
        out = conditional_kf_update(
            0, (1, 1), *_TWO_ROWS, np.array([1.0]), np.array([[1e12]]), np.eye(1)
        )
        assert_allclose(out.posterior.mean, [0.0], atol=1e-6)
        assert_allclose(out.posterior.cov, [[1.0]], rtol=1e-6)

    def test_inactive_particle_rejected(self):
        rows = _pset([_particle(0.5, 0.0, 0.0), _particle(0.5, 1.0, 1.0)])
        with pytest.raises(ValueError):
            conditional_kf_update(0, (0, 1), rows.means, rows.covs, np.zeros(2), np.eye(2),
                                  position_projection())

    @pytest.mark.parametrize("bits", [(1,), (1, 1)])
    @pytest.mark.parametrize("z_dim", [1, 3])
    def test_measurement_dim_checked(self, bits, z_dim):
        # a 1-element z must not broadcast against the 2-row projection
        rows = _pset([_particle(0.5, 0.0, 0.0), _particle(0.5, 1.0, 1.0)][: len(bits)])
        with pytest.raises(ValueError):
            conditional_kf_update(0, bits, rows.means, rows.covs, np.ones(z_dim), np.eye(2),
                                  position_projection())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_gain_matches_closed_form(self, seed):
        # closed form: K = (1/n) S_j (R + (1/n^2) sum_active S_i)^-1
        rng = np.random.default_rng(seed)
        n = int(rng.choice([1, 2, 4]))
        s = int(rng.choice([1, 2, 3]))
        bits = [0] * s
        active = rng.choice(s, size=rng.integers(1, s + 1), replace=False)
        for i in active:
            bits[i] = 1
        j = int(rng.choice(active))
        means, covs = _random_rows(rng, s, n)
        r = _random_psd(rng, n)
        z = rng.standard_normal(n)
        ne = sum(bits)
        denom = r + sum(covs[i] for i in range(s) if bits[i]) / ne**2
        closed = covs[j] @ np.linalg.inv(denom) / ne
        got = conditional_kf_update(j, tuple(bits), means, covs, z, r, np.eye(n)).gain
        assert np.linalg.norm(got - closed) <= 1e-10 * np.linalg.norm(closed)


class TestCombinationWeight:
    def test_perfect_match_peak_density(self):
        z = np.array([0.5])
        combo = ExistenceCombination((1,), prior=1.0)
        w = math.exp(
            combination_log_weight(combo, np.array([[0.5]]), np.array([[[1e-4]]]), z,
                                   np.array([[1e-4]]), 1.0, np.eye(1))
        )
        peak = 1.0 / math.sqrt(2 * math.pi * 2e-4)
        assert_allclose(w, peak, rtol=1e-12)

    def test_all_zero_combination_uses_clutter(self):
        combo = ExistenceCombination((0,), prior=0.3)
        rows = _pset([_particle(0.7, 0.0, 0.0)])
        w = math.exp(
            combination_log_weight(combo, rows.means, rows.covs, np.zeros(2), np.eye(2),
                                   1.0 / 144.0, position_projection())
        )
        assert_allclose(w, 0.3 / 144.0, rtol=1e-12)

    def test_two_active_hand_example(self):
        # mu_c = 1, Sigma_c = (1+1)/4 + 1 = 1.5, density = 1/sqrt(2 pi 1.5)
        combo = ExistenceCombination((1, 1), prior=0.81)
        w = math.exp(
            combination_log_weight(
                combo, *_TWO_ROWS, np.array([1.0]), np.array([[1.0]]), 1.0, np.eye(1)
            )
        )
        expected_density = 1.0 / math.sqrt(2 * math.pi * 1.5)
        assert_allclose(w, 0.81 * expected_density, rtol=1e-12)
        assert_allclose(expected_density, 0.3257, atol=5e-5)


class TestMarginalize:
    @staticmethod
    def _marginalize(combos, particles):
        """combos: (bits, posterior, {active index: (mean, var)}) triples over
        1-D particles given as (weight, mean, var) triples."""
        bits = np.array([bits for bits, _, _ in combos], dtype=int).reshape(-1, len(particles))
        post_means = np.zeros(bits.shape + (1,))
        post_covs = np.zeros(bits.shape + (1, 1))
        for k, (_, _, updated) in enumerate(combos):
            for i, (mean, var) in updated.items():
                post_means[k, i], post_covs[k, i] = mean, var
        return marginalize_existence(
            bits,
            np.array([weight for _, weight, _ in combos]),
            post_means,
            post_covs,
            [w for w, _, _ in particles],
            np.array([[m] for _, m, _ in particles]),
            np.array([[[v]] for _, _, v in particles]),
        )

    def test_single_combination(self):
        weights, means, covs = self._marginalize(
            [((1,), 1.0, {0: (3.0, 0.5)})], [(0.9, 0.0, 1.0)]
        )
        assert weights[0] == 1.0
        assert_allclose(means[0], [3.0])
        assert_allclose(covs[0], [[0.5]])

    def test_symmetric_split(self):
        combos = [((1, 0), 0.5, {0: (0.0, 1.0)}), ((0, 1), 0.5, {1: (2.0, 1.0)})]
        weights, _, _ = self._marginalize(combos, [(0.5, 0.0, 1.0), (0.5, 2.0, 1.0)])
        assert weights.tolist() == [0.5, 0.5]

    def test_marginal_sums(self):
        s = (0.0, 1.0)
        combos = [
            ((1, 1), 0.6, {0: s, 1: s}),
            ((1, 0), 0.3, {0: s}),
            ((0, 1), 0.1, {1: s}),
        ]
        weights, _, _ = self._marginalize(combos, [(0.9, *s), (0.9, *s)])
        assert_allclose(weights[0], 0.9)
        assert_allclose(weights[1], 0.7)

    def test_untouched_particle_passes_through(self):
        parts = [(0.9, 0.0, 1.0), (0.4, 5.0, 2.0)]
        weights, means, _ = self._marginalize([((1, 0), 1.0, {0: (0.0, 1.0)})], parts)
        assert weights[1] == 0.4
        assert_allclose(means[1], [5.0])

    def test_state_is_moment_matched_mixture(self):
        combos = [((1,), 0.5, {0: (0.0, 1.0)}), ((1,), 0.5, {0: (2.0, 1.0)})]
        _, means, covs = self._marginalize(combos, [(0.5, 0.0, 1.0)])
        assert_allclose(means[0], [1.0])
        assert_allclose(covs[0], [[2.0]])

    def test_zero_posterior_keeps_prior_state_and_inputs(self):
        prior_mean, prior_cov = np.array([0.0]), np.array([[1.0]])
        weights, means, covs = np.array([0.5]), np.array([[0.0]]), np.array([[[1.0]]])
        inputs = [a.copy() for a in (weights, means, covs)]
        out = marginalize_existence(
            np.array([[1], [0]]), np.array([0.0, 1.0]),
            np.array([[[4.0]], [[0.0]]]), np.array([[[[0.5]]], [[[0.0]]]]),
            weights, means, covs,
        )
        assert out[0].tolist() == [0.0]
        assert np.array_equal(out[1], [prior_mean]) and np.array_equal(out[2], [prior_cov])
        for a, before in zip((weights, means, covs), inputs):
            assert np.array_equal(a, before)

    def test_empty_combinations_rejected(self):
        with pytest.raises(ValueError):
            self._marginalize([], [(0.5, 0.0, 1.0)])


class TestMergeClose:
    def test_distant_particles_untouched(self):
        pset = _pset([_particle(0.5, 0.0, 0.0), _particle(0.5, 10.0, 10.0)])
        out = merge_close_particles(pset, 1.0)
        assert len(out.particles) == 2

    def test_coincident_pair_merges(self):
        pset = _pset([_particle(0.3, 2.0, 2.0), _particle(0.4, 2.0, 2.0)])
        out = merge_close_particles(pset, 1.0)
        assert len(out.particles) == 1
        assert_allclose(out.particles[0].weight, 0.7)
        assert_allclose(out.particles[0].state.mean, [2.0, 0.0, 2.0, 0.0])

    def test_three_coincident_merge_to_one(self):
        pset = _pset(
            [_particle(w, 1.0, 3.0) for w in (0.5, 0.6, 0.7)]
        )
        out = merge_close_particles(pset, 1.0)
        assert len(out.particles) == 1
        assert out.particles[0].weight == 1.0
        # order independence of the merged mean
        for perm in itertools.permutations((0.5, 0.6, 0.7)):
            pset_p = _pset([_particle(w, 1.0, 3.0) for w in perm])
            out_p = merge_close_particles(pset_p, 1.0)
            assert_allclose(
                out_p.particles[0].state.mean, out.particles[0].state.mean, atol=1e-9
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        pset = _pset([_particle(0.3, 2.0, 2.0), _particle(0.4, 9.0, 9.0)])
        with pytest.raises(ValueError, match="finite"):
            merge_close_particles(pset, bad)

    def test_unknown_cov_mode_rejected_before_merging(self):
        pset = _pset([_particle(0.3, 2.0, 2.0), _particle(0.4, 9.0, 9.0)])  # no pair merges
        with pytest.raises(ValueError, match="cov_mode"):
            merge_close_particles(pset, 1.0, cov_mode="bogus")

    def test_threshold_is_strict(self):
        # position vars 1.0 each -> metric diag(1/2); distance exactly 1
        pset = _pset(
            [_particle(0.5, 0.0, 0.0, var=1.0), _particle(0.5, math.sqrt(2.0), 0.0, var=1.0)]
        )
        out = merge_close_particles(pset, 1.0)
        assert len(out.particles) == 2


class TestCardinalityAndPrune:
    def test_cardinality_values(self):
        assert estimate_cardinality(GpfParticleSet()) == 0.0
        assert estimate_cardinality(
            _pset([_particle(1.0, 0, 0), _particle(1.0, 1, 1), _particle(1.0, 2, 2)])
        ) == 3.0
        assert estimate_cardinality(
            _pset([_particle(0.5, 0, 0), _particle(0.5, 1, 1)])
        ) == 1.0

    def test_prune_noop(self):
        pset = _pset([_particle(0.5, 0, 0), _particle(0.9, 1, 1)])
        out = birth_and_prune(pset, GpfParticleSet(), 0.01, 10)
        assert len(out.particles) == 2

    def test_prunes_zero_weight(self):
        pset = _pset([_particle(0.0, 0, 0), _particle(0.5, 1, 1)])
        out = birth_and_prune(pset, GpfParticleSet(), 0.01, 10)
        assert len(out.particles) == 1
        assert out.particles[0].weight == 0.5

    def test_caps_at_n_max(self):
        weights = [0.1, 0.9, 0.3, 0.8, 0.5]
        pset = _pset([_particle(w, i, i) for i, w in enumerate(weights)])
        out = birth_and_prune(pset, GpfParticleSet(), 0.0, 3)
        assert sorted(p.weight for p in out.particles) == [0.5, 0.8, 0.9]

    @pytest.mark.parametrize(
        "w_prune, n_max, message",
        [(1.0, 10, "w_prune"), (-0.1, 10, "w_prune"), (0.01, 0, "n_max"),
         (0.01, -1, "n_max"), (0.01, 2.0, "n_max")],
    )
    def test_bad_settings_rejected(self, w_prune, n_max, message):
        # n_max 0 would empty the belief and -1 drop its lowest-weight particle
        pset = _pset([_particle(0.5, 0, 0), _particle(0.9, 1, 1)])
        with pytest.raises(ValueError, match=message):
            birth_and_prune(pset, GpfParticleSet(), w_prune, n_max)

    def test_births_appended(self):
        pset = _pset([_particle(0.5, 0, 0)])
        births = _pset([_particle(0.1, 3, 3)])
        out = birth_and_prune(pset, births, 0.05, 10)
        assert len(out.particles) == 2


class TestGridUpdate:
    def test_positive_return_raises_weight(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        pset = _pset([_particle(0.4, 0.5, 0.5)])
        out = grid_existence_update(pset, CellReturns([0], [1]), sensor)
        p_hit, p_false = 0.9, detection_prob(0, 0.9, 3.0)
        expected = 0.4 * p_hit / (0.4 * p_hit + 0.6 * p_false)
        assert_allclose(out.particles[0].weight, expected)
        assert out.particles[0].weight > 0.4

    def test_negative_return_lowers_weight(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        pset = _pset([_particle(0.4, 0.5, 0.5)])
        out = grid_existence_update(pset, CellReturns([0], [0]), sensor)
        p_false = detection_prob(0, 0.9, 3.0)
        expected = 0.4 * 0.1 / (0.4 * 0.1 + 0.6 * (1.0 - p_false))
        assert_allclose(out.particles[0].weight, expected)
        assert out.particles[0].weight < 0.4

    def test_unmeasured_particle_unchanged(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        pset = _pset([_particle(0.4, 5.5, 5.5)])
        out = grid_existence_update(pset, CellReturns([0], [1]), sensor)
        assert out.particles[0].weight == 0.4

    def test_births_from_positive_returns(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        births = grid_births(CellReturns([14, 20], [1, 0]), sensor, 0.1)
        assert len(births) == 1
        assert births.particles[0].weight == 0.1
        assert_allclose(births.particles[0].state.mean, [2.5, 0.0, 1.5, 0.0])
        assert_allclose(births.particles[0].state.cov, np.diag([1 / 12, 1.0, 1 / 12, 1.0]))
        # mixed returns on an offset grid with inexact cell sizes: cell_center, bit for bit
        sensor = GridSensorModel(Rectangle(-3.7, 2.2, 8.4, 13.3), rows=9, cols=13)
        cells, values = [5, 116, 0, 60, 116, 3, 40, 12], [1, 0, 1, 1, 1, 0, 1, 1]
        births = grid_births(CellReturns(cells, values), sensor, 0.1)
        xi, yi = POSITION_IDX
        centres = [sensor.cell_center(c) for c, v in zip(cells, values) if v]
        assert [(m[xi], m[yi]) for m in births.means.tolist()] == centres


class TestGpfStep:
    def test_single_particle_reduces_to_kalman(self):
        rng = np.random.default_rng(17)
        tau = 1.0
        f = constant_velocity_matrix(tau)
        q = np.diag([0.5, 0.05, 0.5, 0.05])
        sensor = _mean_sensor(r=0.4)
        config = _mean_config(f_matrix=f, q_matrix=q, sensor=sensor)
        model = LinearGaussianModel(F=f, Q=q, H=sensor.position_projection, R=sensor.R)

        state = GaussianState(np.array([6.0, 0.1, 6.0, -0.1]), np.diag([2.0, 0.5, 2.0, 0.5]))
        belief = _pset([GaussianParticle(1.0, state)])
        kf_belief = state
        for _ in range(20):
            z = kf_predict(kf_belief, model.F, model.Q).mean[[0, 2]] + rng.standard_normal(2)
            belief = gpf_step(belief, z, config)
            kf_belief = kf_update(kf_predict(kf_belief, model.F, model.Q), model.H, model.R, z).posterior
            assert len(belief.particles) == 1
            assert belief.particles[0].weight == 1.0
            assert_allclose(belief.particles[0].state.mean, kf_belief.mean, rtol=1e-10)
            assert_allclose(belief.particles[0].state.cov, kf_belief.cov, rtol=1e-10)

    def test_empty_set_gets_births_only(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        config = GpfConfig(
            f_matrix=np.eye(4), q_matrix=np.zeros((4, 4)), sensor=sensor, w_birth=0.1
        )
        out = gpf_step(GpfParticleSet(), CellReturns([0, 5], [1, 1]), config)
        assert len(out.particles) == 2
        assert all(p.weight == 0.1 for p in out.particles)

    def test_emptied_belief_keeps_running(self):
        # a far-off measurement lets the all-absent combination win: nothing survives
        config = _mean_config(clutter_density=1.0 / 144.0)
        out = gpf_step(_pset([_particle(0.9, 2.0, 2.0)]), np.array([11.0, 11.0]), config)
        assert len(out) == 0 and not out.degenerate_step
        assert estimate_cardinality(out) == 0.0
        again = gpf_step(out, np.array([11.0, 11.0]), config)
        assert len(again) == 0 and not again.degenerate_step
        grid = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        grid_config = GpfConfig(
            f_matrix=np.eye(4), q_matrix=np.zeros((4, 4)), sensor=grid, w_birth=0.1
        )
        births = gpf_step(out, CellReturns([14, 20], [1, 0]), grid_config)
        assert [p.weight for p in births.particles] == [0.1]
        assert_allclose(births.means, [[2.5, 0.0, 1.5, 0.0]])

    def test_six_dim_state_prunes(self):
        # the empty births of a mean-sensor step are 4-D; a 6-D belief must still prune
        config = _mean_config(
            f_matrix=np.eye(6), q_matrix=0.01 * np.eye(6),
            sensor=MeanSensorModel(R=0.5 * np.eye(2), position_projection=position_projection(6)),
        )
        means = np.zeros((2, 6))
        means[:, POSITION_IDX] = [[2.0, 2.0], [8.0, 8.0]]
        pset = GpfParticleSet([0.9, 0.005], means, np.tile(np.eye(6), (2, 1, 1)))
        out = gpf_step(pset, np.array([2.0, 2.0]), config)
        assert len(out) == 1 and out.means.shape == (1, 6) and out.covs.shape == (1, 6, 6)
        assert out.weights[0] > 0.9

    def test_two_separated_particles_brute_force(self):
        # oracle: direct evaluation over the four combinations
        parts = [_particle(0.9, 2.0, 2.0), _particle(0.9, 9.0, 9.0)]
        sensor = _mean_sensor(r=0.5)
        clutter = 1.0 / WORKSPACE.area
        config = _mean_config(sensor=sensor, clutter_density=clutter, epsilon=0.001)
        z = np.array([5.5, 5.5])

        def density(mu, var):
            d = z - mu
            cov = np.eye(2) * (var + 0.5)
            quad = d @ np.linalg.inv(cov) @ d
            return math.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(np.linalg.det(cov)))

        raw = {}
        pos = [np.array([2.0, 2.0]), np.array([9.0, 9.0])]
        for bits in itertools.product((0, 1), repeat=2):
            prior = 1.0
            for w, e in zip((0.9, 0.9), bits):
                prior *= w if e else 1.0 - w
            if prior <= config.epsilon:
                continue
            active = [i for i, e in enumerate(bits) if e]
            if not active:
                raw[bits] = prior * clutter
            else:
                n = len(active)
                mu_c = sum(pos[i] for i in active) / n
                var_c = n * 1.0 / n**2
                raw[bits] = prior * density(mu_c, var_c)
        total = sum(raw.values())
        expected_w1 = (raw[(1, 0)] + raw[(1, 1)]) / total
        expected_w2 = (raw[(0, 1)] + raw[(1, 1)]) / total

        before = estimate_cardinality(_pset(parts))
        out = gpf_step(_pset(parts), z, config)
        assert_allclose(estimate_cardinality(out), expected_w1 + expected_w2, rtol=1e-9)
        assert estimate_cardinality(out) > before - 1e-12
        assert estimate_cardinality(out) > 1.8

    def test_degenerate_enumeration_skips_update(self):
        parts = [_particle(0.5, 2.0, 2.0), _particle(0.5, 9.0, 9.0)]
        config = _mean_config(epsilon=0.25)
        out = gpf_step(_pset(parts), np.array([5.0, 5.0]), config)
        assert out.degenerate_step
        assert [p.weight for p in out.particles] == [0.5, 0.5]
        assert_allclose(out.particles[0].state.mean, parts[0].state.mean)

    def test_out_of_fov_particles_only_predicted(self):
        fov = FovRegion.box(0.0, 0.0, 5.0, 5.0)
        parts = [_particle(0.9, 2.0, 2.0), _particle(0.9, 9.0, 9.0)]
        config = _mean_config(fov=fov)
        out = gpf_step(_pset(parts), np.array([2.0, 2.0]), config)
        # the out-of-view particle keeps its predicted (here: unchanged) state
        assert out.particles[1].weight == 0.9
        assert_allclose(out.particles[1].state.mean, parts[1].state.mean)
        assert out.particles[0].weight != 0.9

    def test_interleaved_out_of_view_rows(self):
        # in-view rows that are not a prefix: out, in, out, in
        fov = FovRegion.box(0.0, 0.0, 5.0, 5.0)
        config = _mean_config(fov=fov, f_matrix=constant_velocity_matrix(1.0),
                              q_matrix=np.diag([0.1, 0.01, 0.1, 0.01]))
        parts = [_particle(0.6, 9.0, 9.0), _particle(0.9, 1.0, 1.0),
                 _particle(0.7, 8.0, 2.0), _particle(0.8, 4.0, 3.5)]
        z = np.array([2.5, 2.0])
        out = gpf_step(_pset(parts), z, config)
        alone = gpf_step(_pset(parts[1::2]), z, config)
        predicted = gpf_predict(_pset(parts), config.f_matrix, config.q_matrix)
        assert len(out) == 4 and not out.degenerate_step
        for name in ("weights", "means", "covs"):
            assert np.array_equal(getattr(out, name)[1::2], getattr(alone, name))
            assert np.array_equal(getattr(out, name)[0::2], getattr(predicted, name)[0::2])
        assert not np.array_equal(out.means[1::2], predicted.means[1::2])  # the update ran

    def test_deterministic(self):
        parts = [_particle(0.8, 2.0, 2.0), _particle(0.7, 4.0, 4.0)]
        config = _mean_config()
        z = np.array([3.0, 3.0])
        a = gpf_step(_pset(parts), z, config)
        b = gpf_step(_pset(parts), z, config)
        assert [p.weight for p in a.particles] == [p.weight for p in b.particles]
        for pa, pb in zip(a.particles, b.particles):
            assert np.array_equal(pa.state.mean, pb.state.mean)
            assert np.array_equal(pa.state.cov, pb.state.cov)

    def test_input_belief_unchanged(self):
        parts = [_particle(0.8, 2.0, 2.0), _particle(0.7, 4.0, 4.0)]
        belief = _pset(parts)
        weights = [p.weight for p in parts]
        means = [p.state.mean.copy() for p in parts]
        config = _mean_config(f_matrix=constant_velocity_matrix(1.0), q_matrix=np.eye(4))
        out = gpf_step(belief, np.array([3.0, 3.0]), config)
        assert out.particles[0].weight != weights[0]
        assert [p.weight for p in belief.particles] == weights
        for p, mean in zip(belief.particles, means):
            assert np.array_equal(p.state.mean, mean)

    @pytest.mark.parametrize("sensor", ["mean", "grid"])
    def test_step_builds_no_particle_objects(self, monkeypatch, sensor):
        # the belief is arrays throughout a step; GaussianParticle is only the
        # public `particles` view
        if sensor == "mean":
            config = _mean_config()
            belief = _pset([_particle(0.9, 2.0, 2.0), _particle(0.8, 4.0, 4.0)])
            z = np.array([3.0, 3.0])
            assert len(select_fov_particles(belief, config.fov)[0]) == 2
        else:
            grid = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
            config = GpfConfig(f_matrix=np.eye(4), q_matrix=np.zeros((4, 4)), sensor=grid)
            belief = _pset([_particle(0.5, 3.0, 3.0), _particle(0.5, 3.2, 3.0)])
            z = CellReturns([grid.cell_of(3.0, 3.0)], [0])

        def refuse(*args, **kwargs):
            raise AssertionError("gpf_step built a GaussianParticle")

        monkeypatch.setattr("mtt.gpf.GaussianParticle", refuse)
        monkeypatch.setattr("mtt.gaussians.GaussianParticle", refuse)
        out = gpf_step(belief, z, config)
        if sensor == "mean":
            assert len(out) == 2 and not np.array_equal(out.weights, belief.weights)
        else:
            assert len(out) == 1  # the pair merged

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurement_rejected(self, bad):
        belief = _pset([_particle(0.9, 2.0, 2.0)])
        with pytest.raises(ValueError, match="finite"):
            gpf_step(belief, np.array([bad, 5.0]), _mean_config())

    def test_measurement_length_checked(self):
        # below epsilon only the all-absent combination is kept, and it and an
        # empty belief never reach log_pdf's own check
        z = np.array([1.0, 2.0, 3.0])
        faint = GpfParticleSet([0.005], [[2.0, 0.0, 2.0, 0.0]], [np.eye(4)])
        for belief in (faint, GpfParticleSet()):
            with pytest.raises(ValueError, match="2 finite numbers"):
                gpf_step(belief, z, _mean_config(epsilon=0.01))

    def test_plain_list_of_returns_rejected(self):
        config = GpfConfig(
            f_matrix=np.eye(4), q_matrix=np.zeros((4, 4)), sensor=GridSensorModel(WORKSPACE)
        )
        with pytest.raises(TypeError):
            gpf_step(GpfParticleSet(), [(0, 1), (5, 1)], config)
        with pytest.raises(TypeError):
            gpf_step(GpfParticleSet(), [CellReturns([0], [1])], config)

    @pytest.mark.parametrize("cell", [-1, 144])
    def test_out_of_range_cell_rejected(self, cell):
        config = GpfConfig(
            f_matrix=np.eye(4), q_matrix=np.zeros((4, 4)), sensor=GridSensorModel(WORKSPACE)
        )
        belief = _pset([_particle(0.5, 11.5, 11.5)])
        with pytest.raises(IndexError):
            gpf_step(belief, CellReturns([cell], [1]), config)
        with pytest.raises(IndexError):
            gpf_step(GpfParticleSet(), CellReturns([cell], [1]), config)
        # a miss seeds no birth, so only the update can catch it
        with pytest.raises(IndexError):
            gpf_step(GpfParticleSet(), CellReturns([cell], [0]), config)
        with pytest.raises(IndexError):
            grid_births(CellReturns([0, cell], [1, 1]), config.sensor, 0.1)

    def test_invariants_over_random_run(self):
        rng = np.random.default_rng(33)
        config = _mean_config(
            f_matrix=constant_velocity_matrix(0.1),
            q_matrix=np.diag([0.05, 0.01, 0.05, 0.01]),
        )
        parts = [
            _particle(float(rng.uniform(0.3, 1.0)), float(rng.uniform(2, 10)), float(rng.uniform(2, 10)))
            for _ in range(4)
        ]
        belief = _pset(parts)
        for _ in range(30):
            z = rng.uniform(0.0, 12.0, size=2)
            belief = gpf_step(belief, z, config)
            card = estimate_cardinality(belief)
            assert 0.0 <= card <= len(belief.particles)
            for p in belief.particles:
                assert 0.0 <= p.weight <= 1.0
                assert_allclose(p.state.cov, p.state.cov.T, atol=1e-9)
                assert np.linalg.eigvalsh(p.state.cov).min() >= -1e-9

    def test_grid_run_invariants(self):
        rng = np.random.default_rng(44)
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=10.0, m_cells=36)
        config = GpfConfig(
            f_matrix=constant_velocity_matrix(0.1),
            q_matrix=np.diag([0.02, 0.002, 0.02, 0.002]),
            sensor=sensor,
            w_prune=0.05,
            d_thresh=4.0,
            n_max=50,
        )
        belief = GpfParticleSet()
        truth = [np.array([3.0, 0.0, 3.0, 0.0]), np.array([9.0, 0.0, 9.0, 0.0])]
        from mtt.sensors import grid_measure, select_cells

        for k in range(40):
            cells = select_cells("random", sensor, rng, step=k)
            returns = grid_measure(truth, cells, sensor, rng)
            belief = gpf_step(belief, returns, config)
            assert len(belief.particles) <= 50
            for p in belief.particles:
                assert 0.0 <= p.weight <= 1.0
                assert np.linalg.eigvalsh(p.state.cov).min() >= -1e-9
        assert estimate_cardinality(belief) > 0.5

    def test_normalized_combination_family(self):
        parts = [_particle(0.9, 2.0, 2.0), _particle(0.8, 4.0, 4.0)]
        sensor = _mean_sensor()
        rows = _pset(parts)
        combos = enumerate_combinations([p.weight for p in parts], 0.001)
        logs = [
            combination_log_weight(c, rows.means, rows.covs, np.array([3.0, 3.0]),
                                   sensor.R, 1.0 / 144, sensor.position_projection)
            for c in combos
        ]
        posterior = normalize_combination_weights(logs)
        assert posterior.shape == (len(combos),)
        assert abs(posterior.sum() - 1.0) <= 1e-9

    def test_normalize_far_below_underflow(self):
        # exp(-800) is 0.0 in double precision: only the shift by the maximum saves it
        logs = [-900.0, -801.0, -1200.0, -801.0]
        posterior = normalize_combination_weights(logs)
        assert logs == [-900.0, -801.0, -1200.0, -801.0]
        assert np.isfinite(posterior).all()
        assert abs(posterior.sum() - 1.0) <= 1e-12
        assert posterior[1] == posterior[3] > posterior[0] > posterior[2] >= 0.0
