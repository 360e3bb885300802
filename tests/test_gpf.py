import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mtt.domains import Choice, Range
from mtt.gaussians import _symmetrize, log_pdf, moment_match_merge
from mtt.gpf import (
    _BOUND_SLACK,
    ExistenceCombination,
    GpfConfig,
    GpfParticleSet,
    _mean_measurement_update,
    _merged_columns,
    _position_columns,
    _position_distances,
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
from mtt.kalman import kf_predict, kf_update
from mtt.motion import POSITION_IDX, MotionModel, constant_velocity_matrix, position_projection
from mtt.regions import Rectangle
from mtt.sensors import (
    CellReturns,
    GridSensorModel,
    MeanSensorModel,
    check_cells,
    detection_prob,
)

WORKSPACE = Rectangle(0.0, 0.0, 12.0, 12.0)


def _particle(w, x, y, var=1.0, dim4=True):
    if dim4:
        mean = np.array([x, 0.0, y, 0.0])
        cov = np.diag([var, 0.1, var, 0.1])
    else:
        mean = np.array([x])
        cov = np.array([[var]])
    return w, mean, cov


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


def _random_rows(rng, s, n):
    """s random (mean, cov) rows of dimension n, drawn row by row, stacked."""
    rows = [(rng.standard_normal(n), _random_psd(rng, n)) for _ in range(s)]
    return np.array([m for m, _ in rows]), np.array([c for _, c in rows])


# two 1-D prior rows, N(0, 1) and N(2, 1), for the hand-computed examples
_TWO_ROWS = (np.array([[0.0], [2.0]]), np.array([[[1.0]], [[1.0]]]))


def _mean_sensor(r=0.5):
    return MeanSensorModel(R=np.eye(2) * r, position_projection=position_projection())


_STILL = MotionModel(np.eye(4), np.zeros((4, 4)))  # no motion and no process noise


def _mean_config(f=np.eye(4), q=np.zeros((4, 4)), **overrides):
    defaults = dict(
        motion=MotionModel(f, q),
        sensor=_mean_sensor(),
        clutter_density=1.0 / WORKSPACE.area,
        epsilon=0.001,
    )
    defaults.update(overrides)
    return GpfConfig(**defaults)


def _distances_by_full_matrix(means, covs):
    """The pairwise distance matrix as merge_close_particles once rebuilt it after every merge."""
    xi, yi = POSITION_IDX
    mx, my = means[:, xi], means[:, yi]
    a, b, c = covs[:, xi, xi], covs[:, xi, yi], covs[:, yi, yi]
    dx = mx[:, None] - mx[None, :]
    dy = my[:, None] - my[None, :]
    sa = a[:, None] + a[None, :]
    sb = b[:, None] + b[None, :]
    sc = c[:, None] + c[None, :]
    with np.errstate(all="ignore"):  # tiny, singular and huge blocks overflow to inf
        d = (sc * dx**2 - 2.0 * sb * dx * dy + sa * dy**2) / (sa * sc - sb**2)
    d[~np.isfinite(d)] = np.inf
    np.fill_diagonal(d, np.inf)
    return d


def _merge_by_full_rebuild(pset, d_thresh):
    """Reference merge loop: the whole distance matrix rebuilt, and the merged-away row
    deleted, after every merge."""
    weights, means, covs = pset.weights, pset.means, pset.covs
    while len(weights) > 1:
        d = _distances_by_full_matrix(means, covs)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        if d[i, j] >= d_thresh:
            break
        lo, hi = min(i, j), max(i, j)
        merged = moment_match_merge(weights[[lo, hi]], means[[lo, hi]], covs[[lo, hi]])
        weights, means, covs = (np.delete(a, hi, axis=0) for a in (weights, means, covs))
        weights[lo], means[lo], covs[lo] = merged
    return GpfParticleSet(weights, means, covs, pset.degenerate_step)


def _grid_update_by_dict(pset, returns, sensor):
    """Reference grid update of the belief's weights: the returns grouped by cell in a
    dict, one cell_of per particle."""
    check_cells(returns.cells, sensor.n_cells, IndexError)
    p_hit = detection_prob(1, sensor.p_d, sensor.snr)
    p_false = detection_prob(0, sensor.p_d, sensor.snr)
    likelihoods = ((1.0 - p_hit, 1.0 - p_false), (p_hit, p_false))
    by_cell = {}
    for cell, value in zip(returns.cells.tolist(), returns.values.tolist()):
        by_cell.setdefault(cell, []).append(likelihoods[value])
    bound = 1e-3
    xi, yi = POSITION_IDX
    weights = pset.weights.tolist()
    for i, (x, y) in enumerate(zip(pset.means[:, xi].tolist(), pset.means[:, yi].tolist())):
        for l_exists, l_empty in by_cell.get(sensor.cell_of(x, y), ()):
            w = min(max(weights[i], bound), 1.0 - bound)
            weights[i] = w * l_exists / (w * l_exists + (1.0 - w) * l_empty)
    return np.array(weights, dtype=float)


def _grid_update(pset, returns, sensor):
    return grid_existence_update(pset.weights, pset.means, returns, sensor)


def _outcome(stage, *args):
    """A stage's result, or the type of the exception it raised."""
    try:
        return stage(*args)
    except (ValueError, IndexError) as error:
        return type(error)


def _assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
        return
    for name in ("weights", "means", "covs", "degenerate_step"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# weights drawn from the whole of [0, 1], the point masses 0 and 1 included
_WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# the same, with the point masses rarer: merging two weights of 0 raises
_MERGE_WEIGHTS = st.integers(0, 19).flatmap(
    lambda k: st.just(0.0) if k == 0 else st.just(1.0) if k == 1 else st.floats(0.0, 1.0))


@st.composite
def _clustered_psets(draw):
    """Up to 60 particles around a few centres.  On the lattice, offsets of a
    quarter and one shared covariance make tied distances common; off it,
    continuous offsets and mixed, correlated covariances break the ties."""
    n = draw(st.integers(0, 60))
    lattice = draw(st.booleans())
    if lattice:
        offset, var, rho = st.integers(-6, 6).map(lambda k: 0.25 * k), st.just(1.0), st.just(0.0)
    else:
        offset = st.floats(-1.5, 1.5)
        var, rho = st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.sampled_from([0.0, 0.3, -0.5])
    centres = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                            min_size=1, max_size=5))
    row = st.tuples(st.sampled_from(centres), offset, offset, var, rho, _MERGE_WEIGHTS)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    means = np.array([[cx + ox, 0.1, cy + oy, -0.1] for (cx, cy), ox, oy, *_ in rows])
    covs = np.array([
        [[v, 0.0, r * v, 0.0], [0.0, 0.1, 0.0, 0.0], [r * v, 0.0, 1.5 * v, 0.0],
         [0.0, 0.0, 0.0, 0.1]]
        for *_, v, r, _ in rows
    ])
    return GpfParticleSet([w for *_, w in rows], means.reshape(-1, 4), covs.reshape(-1, 4, 4))


# position-block scales: mostly 1, sometimes far outside the range in which the
# merge bounds a pair's distance (it then pairs the row with every row), zero,
# or negative (a negative semi-definite block)
_SCALES = st.sampled_from([1.0] * 10 + [1e-120, 1e120, 0.0, -1.0])
# correlations: mostly mild, sometimes singular (|rho| = 1), nearly singular or
# not positive semi-definite
_RHOS = st.sampled_from([0.0, 0.0, 0.3, -0.5, 1.0, -1.0, 1.0 - 1e-9, -(1.0 - 1e-12), 0.999, 1.5])


@st.composite
def _spread_psets(draw):
    """Up to 150 particles around centres up to 200 apart, so the merge's search
    spans many windows.  One row may carry 100 times the variance of the rest,
    and some position blocks are zero, singular, nearly singular, not positive
    semi-definite, or far outside the scale of the others."""
    n = draw(st.integers(0, 150))
    lattice = draw(st.booleans())
    if lattice:
        offset, var = st.integers(-6, 6).map(lambda k: 0.25 * k), st.just(1.0)
    else:
        offset, var = st.floats(-1.5, 1.5), st.sampled_from([0.25, 0.5, 1.0, 2.0])
    centre = st.integers(-200, 200) if lattice else st.floats(-200, 200)
    centres = draw(st.lists(st.tuples(centre, centre), min_size=1, max_size=12))
    aspect = st.sampled_from([1.0, 1.5])  # var_y / var_x: at 1, |rho| = 1 is exactly singular
    row = st.tuples(st.sampled_from(centres), offset, offset, var, aspect, _RHOS, _SCALES,
                    _MERGE_WEIGHTS)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    wide = draw(st.integers(-1, n - 1))  # the row with 100 times the variance, or none
    means = np.array([[cx + ox, 0.1, cy + oy, -0.1] for (cx, cy), ox, oy, *_ in rows])
    covs = []
    for k, (*_, v, aspect, r, scale, _) in enumerate(rows):
        v *= scale * (100.0 if k == wide else 1.0)
        b = r * v * math.sqrt(aspect)
        covs.append([[v, 0.0, b, 0.0], [0.0, 0.1, 0.0, 0.0], [b, 0.0, aspect * v, 0.0],
                     [0.0, 0.0, 0.0, 0.1]])
    return GpfParticleSet([w for *_, w in rows], means.reshape(-1, 4),
                          np.array(covs).reshape(-1, 4, 4))


@st.composite
def _grid_cases(draw):
    """A grid, particles on cell edges, high workspace edges, outside it or anywhere,
    and returns drawn with a repeated cell (fixed_list) or without (random)."""
    ws, rows, cols = draw(st.sampled_from([
        (WORKSPACE, 3, 4), (Rectangle(-3.7, 2.2, 8.4, 13.3), 9, 13),
    ]))
    sensor = GridSensorModel(ws, rows=rows, cols=cols, p_d=0.9, snr=3.0, m_cells=rows * cols)

    def coordinate(edges):
        edge = st.sampled_from(edges)
        return st.one_of(
            edge, edge.map(lambda e: np.nextafter(e, -np.inf)),
            st.floats(edges[0] - 2.0, edges[-1] + 2.0),
        )

    n = draw(st.integers(0, 30))
    xs = draw(st.lists(coordinate(sensor.x_edges), min_size=n, max_size=n))
    ys = draw(st.lists(coordinate(sensor.y_edges), min_size=n, max_size=n))
    weights = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    means = np.array([[x, 0.0, y, 0.0] for x, y in zip(xs, ys)]).reshape(-1, 4)
    pset = GpfParticleSet(weights, means, np.tile(np.eye(4), (n, 1, 1)))
    # fixed_list, with a cell repeated (the ranked passes); or random, which never
    # repeats one (the one pass)
    repeats = draw(st.booleans())
    m = draw(st.integers(2, 40) if repeats else st.integers(0, sensor.n_cells))
    cells = draw(st.lists(st.integers(0, sensor.n_cells - 1), min_size=m, max_size=m,
                          unique=not repeats))
    if repeats:
        cells[draw(st.integers(1, m - 1))] = cells[0]
    values = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return pset, CellReturns(cells, values), sensor


class TestParticleSet:
    def test_default_is_empty_4d(self):
        pset = GpfParticleSet()
        assert len(pset) == 0 and pset.weights.shape == (0,)
        assert pset.means.shape == (0, 4) and pset.covs.shape == (0, 4, 4)

    def test_rows_kept_in_order(self):
        parts = [_particle(0.2, 1.0, 2.0), _particle(0.7, 3.0, 4.0, var=2.0)]
        pset = _pset(parts)
        for i, (weight, mean, cov) in enumerate(parts):
            assert pset.weights[i] == weight
            assert np.array_equal(pset.means[i], mean)
            assert np.array_equal(pset.covs[i], cov)

    def test_arrays_copied_and_read_only(self):
        weights = np.array([0.5])
        pset = GpfParticleSet(weights, np.zeros((1, 4)), np.eye(4)[None])
        weights[0] = 0.9
        assert pset.weights[0] == 0.5
        with pytest.raises(ValueError):
            pset.means[0, 0] = 1.0

    def test_covs_symmetrized(self):
        cov = np.eye(4)
        cov[0, 1] = 0.2
        pset = GpfParticleSet([0.5], np.zeros((1, 4)), cov[None])
        assert np.array_equal(pset.covs, pset.covs.swapaxes(1, 2))
        assert np.array_equal(pset.covs[0], _symmetrize(cov))

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

    def test_covs_finite_after_symmetrizing(self):
        # 0.5 (C + C') overflows entries above half the float maximum: the set
        # checks the covariances it keeps, so it never holds an infinite one
        covs = np.eye(4)[None].copy()
        covs[0, 0, 2] = covs[0, 2, 0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            GpfParticleSet([0.5], np.zeros((1, 4)), covs)


class TestPredict:
    def test_identity_is_noop(self):
        pset = _pset([_particle(0.5, 1.0, 2.0)])
        means, covs = gpf_predict(pset, _mean_config())
        assert_allclose(means[0], pset.means[0])
        assert_allclose(covs[0], pset.covs[0])

    def test_weights_never_change(self):
        # the predict returns the Gaussians only, and leaves the input set as it was
        rng = np.random.default_rng(0)
        pset = _pset([_particle(w, 0.0, 0.0) for w in (0.2, 0.7, 1.0)])
        before = [np.array(a) for a in (pset.weights, pset.means, pset.covs)]
        config = _mean_config(f=rng.standard_normal((4, 4)), q=_random_psd(rng, 4))
        _, covs = gpf_predict(pset, config)
        assert not np.array_equal(covs, pset.covs)
        for name, want in zip(("weights", "means", "covs"), before):
            assert np.array_equal(getattr(pset, name), want)

    def test_1d_formula(self):
        pset = GpfParticleSet([1.0], [[1.0]], [[[1.0]]])
        sensor = MeanSensorModel(R=[[0.5]], position_projection=[[1.0]])
        means, covs = gpf_predict(pset, _mean_config(f=[[2.0]], q=[[1.0]], sensor=sensor))
        assert_allclose(means[0], [2.0])
        assert_allclose(covs[0], [[5.0]])

    def test_dimension_mismatch(self):
        pset = _pset([_particle(0.5, 1.0, 2.0)])
        with pytest.raises(ValueError):
            gpf_predict(pset, _mean_config(f=np.eye(3), q=np.zeros((3, 3)),
                                           sensor=MeanSensorModel(0.5 * np.eye(2), np.eye(2, 3))))

    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_equals_kf_predict_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        f, q = rng.standard_normal((4, 4)), _random_psd(rng, 4)
        parts = [(rng.random(), 10 * rng.standard_normal(4), _random_psd(rng, 4))
                 for _ in range(n)]
        pset = _pset(parts) if parts else GpfParticleSet()
        means, covs = gpf_predict(pset, _mean_config(f=f, q=q))
        assert means.shape == (n, 4) and covs.shape == (n, 4, 4)
        for i in range(n):
            want_mean, want_cov = kf_predict(pset.means[i], pset.covs[i], f, q)
            assert np.array_equal(means[i], want_mean)
            assert np.array_equal(covs[i], want_cov)


@pytest.mark.parametrize("name", ["d_thresh", "clutter_density"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match="finite"):
        _mean_config(**{name: bad})


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"f": np.ones((4, 3))}, "F must be square"),
        ({"q": np.eye(3)}, "Q shape"),
        ({"q": -np.eye(4)}, "Q must be positive semidefinite"),
        ({"q": np.diag([0.1, math.nan, 0.1, 0.1])}, "Q must be symmetric"),
        ({"q": np.triu(np.ones((4, 4)))}, "Q must be symmetric"),
    ],
)
def test_config_rejects_bad_motion_model(changes, message):
    # MotionModel's checks, when built, not SingularCovarianceError at the first step
    with pytest.raises(ValueError, match=message):
        _mean_config(**changes)


def test_config_rejects_mean_sensor_of_another_state_dim():
    # a 6-column projection on a 4-D motion failed only mid-run, at its first update
    sensor = MeanSensorModel(0.5 * np.eye(2), np.zeros((2, 6)))
    with pytest.raises(ValueError, match=r"projection \(2, 6\) does not match state dim 4"):
        _mean_config(sensor=sensor)
    assert _mean_config(f=np.eye(6), q=np.zeros((6, 6)), sensor=sensor).sensor is sensor


@pytest.mark.parametrize("dim", [2, 6])
def test_config_rejects_grid_sensor_of_another_state_dim(dim):
    # the grid path makes 4-D births and reads (x, y) at POSITION_IDX: a 2-D motion
    # failed with IndexError at the first step, a 6-D one in the birth concatenation
    grid = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
    with pytest.raises(ValueError, match=f"4-D states .* not state dim {dim}"):
        GpfConfig(MotionModel(np.eye(dim), np.zeros((dim, dim))), grid)
    assert GpfConfig(_STILL, grid).sensor is grid


def test_config_rejects_unknown_sensor_when_built():
    # not at the first step: the sensor table has no update for it
    with pytest.raises(TypeError, match="unsupported sensor type"):
        GpfConfig(_STILL, object())


def test_config_rejects_grid_births_below_the_prune():
    # each birth is pruned in the step that makes it, so a grid run would never hold a row
    grid = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
    with pytest.raises(ValueError, match="w_birth 0.01 is below w_prune 0.05"):
        GpfConfig(_STILL, grid, w_birth=0.01, w_prune=0.05)
    assert GpfConfig(_STILL, grid, w_birth=0.05, w_prune=0.05).w_birth == 0.05
    # the mean sensor makes no births
    assert _mean_config(w_birth=0.01, w_prune=0.05).w_birth == 0.01


def test_config_accepts_zero_process_noise():
    assert not _mean_config(q=np.zeros((4, 4))).motion.Q.any()


def _assert_stage_settings_checked(message, **changes):
    """The stages read their settings unchecked from a GpfConfig, so a bad value
    must not reach one: a config derived with it is rejected, and a built config
    cannot be changed."""
    config = _mean_config()
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(config, **changes)
    for name, value in changes.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)


class TestSelectFov:
    def test_full_workspace(self):
        pset = _pset([_particle(0.5, x, x) for x in (0.0, 5.0, 100.0)])
        in_fov, out_fov = select_fov_particles(pset.means, None)
        assert in_fov.tolist() == [0, 1, 2]
        assert out_fov.tolist() == []

    def test_empty_set(self):
        in_fov, out_fov = select_fov_particles(GpfParticleSet().means, None)
        assert in_fov.tolist() == [] and out_fov.tolist() == []

    def test_returns_int_index_arrays(self):
        pset = _pset([_particle(0.5, x, x) for x in (0.5, 3.0, 0.2)])
        for fov in (None, Rectangle(0.0, 0.0, 1.0, 1.0)):
            for part in select_fov_particles(pset.means, fov):
                assert isinstance(part, np.ndarray) and part.dtype == np.intp

    def test_one_closed_box(self):
        # the box [0, 2]^2 is closed on every edge
        fov = Rectangle(0.0, 0.0, 2.0, 2.0)
        points = [
            (0.0, 0.0),  # 0: a corner
            (1.5, 1.5),  # 1: inside
            (3.0, 0.5),  # 2: right of the box: out
            (2.0, 2.0),  # 3: the far corner
            (2.0001, 1.5),  # 4: just past the right edge: out
            (1.0, 2.5),  # 5: above: out
        ]
        pset = _pset([_particle(0.5, x, y) for x, y in points])
        in_fov, out_fov = select_fov_particles(pset.means, fov)
        assert in_fov.tolist() == [0, 1, 3]
        assert out_fov.tolist() == [2, 4, 5]
        for i, (x, y) in enumerate(points):  # the scalar rule agrees with the array one
            assert bool(fov.contains(x, y)) == (i in in_fov)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_box_rejected(self, bound):
        with pytest.raises(ValueError, match="finite"):
            Rectangle(0.0, 0.0, bound, 12.0)
        with pytest.raises(ValueError, match="finite"):
            Rectangle(bound, 0.0, 1.0, 1.0)

    def test_boundary_mean_is_inside(self):
        fov = Rectangle(0.0, 0.0, 1.0, 1.0)
        pset = _pset([_particle(0.5, 1.0, 1.0), _particle(0.5, 1.0001, 1.0)])
        in_fov, out_fov = select_fov_particles(pset.means, fov)
        assert in_fov == [0]
        assert out_fov == [1]


def _enumerate(weights, epsilon):
    return enumerate_combinations(weights, _mean_config(epsilon=epsilon))


class TestEnumerate:
    def test_two_particle_example(self):
        combos = _enumerate([0.9, 0.8], 0.05)
        priors = {c.bits: c.prior for c in combos}
        assert priors == pytest.approx(
            {(1, 1): 0.72, (1, 0): 0.18, (0, 1): 0.08}
        )
        assert (0, 0) not in priors

    def test_certain_particle(self):
        combos = _enumerate([1.0], 0.5)
        assert len(combos) == 1
        assert combos[0].bits == (1,)
        assert combos[0].prior == 1.0

    def test_combinations_are_immutable_records(self):
        combo = _enumerate([0.9], 0.05)[0]
        assert combo._fields == ("bits", "prior")
        with pytest.raises(AttributeError):
            combo.prior = 0.5

    def test_threshold_dominates(self):
        assert _enumerate([0.5, 0.5], 0.25) == []

    def test_epsilon_validated(self):
        _assert_stage_settings_checked("epsilon", epsilon=0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_enumeration(self, seed, s):
        rng = np.random.default_rng(seed)
        weights = rng.random(s)
        eps = float(rng.uniform(0.001, 0.5))
        combos = _enumerate(weights.tolist(), eps)
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

    @given(
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                 min_size=1, max_size=60),
        st.floats(1e-3, 0.5, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_epsilon_bounds_the_combinations(self, weights, eps):
        # the kept vectors are disjoint events, each above eps: fewer than 1/eps of them
        combos = _enumerate(weights, eps)
        assert len(combos) < 1.0 / eps
        assert all(c.prior > eps for c in combos)
        # each prior is the product of its factors from 1.0, left to right; the
        # sum of all 2^s such products exceeds 1 only by their rounding
        for c in combos:
            assert c.prior == math.prod(w if e else 1.0 - w for w, e in zip(weights, c.bits))
        assert math.fsum(c.prior for c in combos) <= 1.0 + 1e-12
        # distinct and depth first, bit 1 before bit 0: strictly decreasing as tuples
        bits = [c.bits for c in combos]
        assert all(len(b) == len(weights) for b in bits)
        assert all(a > b for a, b in zip(bits, bits[1:]))

    def test_many_certain_rows_make_one_combination(self):
        # a row count that would exceed Python's recursion limit as a recursion depth
        combos = _enumerate([1.0] * 1200, 0.01)
        assert combos == [ExistenceCombination((1,) * 1200, 1.0)]


def _reference_row_update(j, bits, means, covs, z, r, projection):
    """Row j's conditional update under the combination `bits`, by the per-row
    algebra that one update of the stacked state replaces: the other active
    rows' means are subtracted out of z and their covariances join the noise,

        z'    = z - P (sum_{i != j} e_i mu_i) / n
        H     = P / n
        R_eff = (1/n^2) P (sum_{i != j} e_i Sigma_i) P' + R
    """
    n_active = int(sum(bits))
    others = [i for i, e in enumerate(bits) if e and i != j]
    if others:
        z = z - projection @ means[others].sum(axis=0) / n_active
        r = projection @ covs[others].sum(axis=0) @ projection.T / n_active**2 + r
    return kf_update(means[j], covs[j], projection / n_active, r, z)


def _blocks(post, n):
    """The per-row (means (n, d), covs (n, d, d), gains (n, d, m)) of a stacked update."""
    d = post.mean.shape[0] // n
    covs = post.cov.reshape(n, d, n, d)[np.arange(n), :, np.arange(n)]
    return post.mean.reshape(n, d), covs, post.gain.reshape(n, d, -1)


class TestConditionalUpdate:
    def test_single_target_reduces_to_kalman(self):
        rng = np.random.default_rng(4)
        mean, cov = rng.standard_normal(4), _random_psd(rng, 4)
        proj = position_projection()
        r = np.eye(2) * 0.5
        z = rng.standard_normal(2)
        got = conditional_kf_update(mean[None], cov[None], z, r, proj)
        want = kf_update(mean, cov, proj, r, z)
        for name in want._fields:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_two_particle_hand_example(self):
        out = conditional_kf_update(*_TWO_ROWS, np.array([1.0]), np.array([[1.0]]), np.eye(1))
        means, covs, gains = _blocks(out, 2)
        assert_allclose(out.residual, [0.0], atol=1e-15)
        assert_allclose(out.innovation_cov, [[1.5]])
        assert_allclose(gains, [[[1.0 / 3.0]], [[1.0 / 3.0]]])
        assert_allclose(means, [[0.0], [2.0]], atol=1e-15)
        assert_allclose(covs, [[[5.0 / 6.0]], [[5.0 / 6.0]]])

    def test_uninformative_measurement(self):
        out = conditional_kf_update(*_TWO_ROWS, np.array([1.0]), np.array([[1e12]]), np.eye(1))
        means, covs, _ = _blocks(out, 2)
        assert_allclose(means, [[0.0], [2.0]], atol=1e-6)
        assert_allclose(covs, [[[1.0]], [[1.0]]], rtol=1e-6)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one active row"):
            conditional_kf_update(np.zeros((0, 4)), np.zeros((0, 4, 4)), np.zeros(2), np.eye(2),
                                  position_projection())

    @pytest.mark.parametrize("bits", [(1,), (1, 1)])
    @pytest.mark.parametrize("z_dim", [1, 3])
    def test_measurement_dim_checked(self, bits, z_dim):
        # a 1-element z must not broadcast against the 2-row projection
        rows = _pset([_particle(0.5, 0.0, 0.0), _particle(0.5, 1.0, 1.0)][: len(bits)])
        with pytest.raises(ValueError):
            conditional_kf_update(rows.means, rows.covs, np.ones(z_dim), np.eye(2),
                                  position_projection())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_gain_matches_closed_form(self, seed):
        # closed form: K_j = (1/n) S_j (R + (1/n^2) sum_active S_i)^-1
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
        rows = np.flatnonzero(bits)
        out = conditional_kf_update(means[rows], covs[rows], z, r, np.eye(n))
        got = _blocks(out, ne)[2][rows.tolist().index(j)]
        assert np.linalg.norm(got - closed) <= 1e-10 * np.linalg.norm(closed)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([1, 2, 4]))
    @settings(max_examples=100, deadline=None)
    def test_blocks_match_per_row_reference(self, seed, n, d):
        # block j of the stacked update is row j's update by the per-row algebra
        rng = np.random.default_rng(seed)
        means, covs = _random_rows(rng, n, d)
        m = min(d, 2)
        proj, r, z = rng.standard_normal((m, d)), _random_psd(rng, m), rng.standard_normal(m)
        out = conditional_kf_update(means, covs, z, r, proj)
        bits = (1,) * n
        for j, got in enumerate(zip(*_blocks(out, n))):
            want = _reference_row_update(j, bits, means, covs, z, r, proj)
            for g, w in zip(got, (want.mean, want.cov, want.gain)):
                assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())
            for name in ("residual", "innovation_cov"):
                g, w = getattr(out, name), getattr(want, name)
                assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())
        if n == 1:  # a lone row's update is the plain Kalman update, bit for bit
            want = kf_update(means[0], covs[0], proj, r, z)
            assert all(np.array_equal(getattr(out, f), getattr(want, f)) for f in want._fields)


def _combination_update(combo, means, covs, z, r, proj):
    """The combination's conditional update, or None for the all-zero
    combination: what the mean-sensor update weighs it by."""
    active = np.flatnonzero(combo.bits)
    if not active.size:
        return None
    return conditional_kf_update(means[active], covs[active], z, r, proj)


def _reference_log_evidence(bits, means, covs, z, r, proj):
    """log N(z; mu_c, Sigma_c) by the sums over the active prior rows:
    mu_c = P (sum_active mu_i) / n, Sigma_c = (1/n^2) P (sum_active Sigma_i) P' + R."""
    active = [i for i, e in enumerate(bits) if e]
    n = len(active)
    mu_c = proj @ means[active].sum(axis=0) / n
    sigma_c = proj @ covs[active].sum(axis=0) @ proj.T / n**2 + r
    return log_pdf(mu_c, sigma_c, z)


class TestCombinationWeight:
    def test_perfect_match_peak_density(self):
        z = np.array([0.5])
        combo = ExistenceCombination((1,), prior=1.0)
        post = _combination_update(combo, np.array([[0.5]]), np.array([[[1e-4]]]), z,
                             np.array([[1e-4]]), np.eye(1))
        w = math.exp(combination_log_weight(combo, post, 1.0))
        peak = 1.0 / math.sqrt(2 * math.pi * 2e-4)
        assert_allclose(w, peak, rtol=1e-12)

    def test_all_zero_combination_uses_clutter(self):
        combo = ExistenceCombination((0,), prior=0.3)
        w = math.exp(combination_log_weight(combo, None, 1.0 / 144.0))
        assert_allclose(w, 0.3 / 144.0, rtol=1e-12)

    def test_two_active_hand_example(self):
        # mu_c = 1, Sigma_c = (1+1)/4 + 1 = 1.5, density = 1/sqrt(2 pi 1.5)
        combo = ExistenceCombination((1, 1), prior=0.81)
        expected_density = 1.0 / math.sqrt(2 * math.pi * 1.5)
        post = conditional_kf_update(*_TWO_ROWS, np.array([1.0]), np.array([[1.0]]), np.eye(1))
        w = math.exp(combination_log_weight(combo, post, 1.0))
        assert_allclose(w, 0.81 * expected_density, rtol=1e-12)
        assert_allclose(expected_density, 0.3257, atol=5e-5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_evidence_matches_predicted_measurement_density(self, seed):
        # the combination's update predicts N(z; mu_c, Sigma_c); a lone row's, bit for bit
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 5))
        means, covs = _random_rows(rng, s, 4)
        means[:, list(POSITION_IDX)] = rng.uniform(0.0, 12.0, (s, 2))
        z = rng.uniform(0.0, 12.0, 2)
        r, proj = _random_psd(rng, 2), position_projection()
        for bits in itertools.product((0, 1), repeat=s):
            if not any(bits):
                continue
            combo = ExistenceCombination(bits, 1.0)
            want = _reference_log_evidence(bits, means, covs, z, r, proj)
            post = _combination_update(combo, means, covs, z, r, proj)
            got = combination_log_weight(combo, post, 1.0)
            if sum(bits) == 1:
                assert np.array_equal(got, want)
            else:  # the densities agree to rtol 1e-12, compared as logs so none underflows
                assert abs(got - want) <= 1e-12


class TestMarginalize:
    @staticmethod
    def _marginalize(combos, particles):
        """combos: (bits, posterior, {active index: (mean, var)}) triples over
        1-D particles given as (weight, mean, var) triples; the updates are
        stacked per active (combination, particle) pair, in np.argwhere order."""
        bits = np.array([bits for bits, _, _ in combos], dtype=int).reshape(-1, len(particles))
        pairs = [updated[i] for _, _, updated in combos for i in sorted(updated)]
        return marginalize_existence(
            bits,
            np.array([weight for _, weight, _ in combos]),
            np.array([mean for mean, _ in pairs]).reshape(-1, 1),
            np.array([var for _, var in pairs]).reshape(-1, 1, 1),
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

    def test_pairs_read_in_combination_order(self):
        # the second row's updates are the 2nd and 4th pairs of the stack
        combos = [((1, 1), 0.25, {0: (0.0, 1.0), 1: (4.0, 1.0)}),
                  ((0, 1), 0.75, {1: (8.0, 1.0)})]
        weights, means, _ = self._marginalize(combos, [(0.5, 0.0, 1.0), (0.5, 5.0, 1.0)])
        assert weights.tolist() == [0.25, 1.0]
        assert_allclose(means[:, 0], [0.0, 7.0])

    def test_zero_posterior_keeps_prior_state_and_inputs(self):
        prior_mean, prior_cov = np.array([0.0]), np.array([[1.0]])
        weights, means, covs = np.array([0.5]), np.array([[0.0]]), np.array([[[1.0]]])
        inputs = [a.copy() for a in (weights, means, covs)]
        out = marginalize_existence(
            np.array([[1], [0]]), np.array([0.0, 1.0]),
            np.array([[4.0]]), np.array([[[0.5]]]),
            weights, means, covs,
        )
        assert out[0].tolist() == [0.0]
        assert np.array_equal(out[1], [prior_mean]) and np.array_equal(out[2], [prior_cov])
        for a, before in zip((weights, means, covs), inputs):
            assert np.array_equal(a, before)

    def test_only_all_zero_combination_passes_rows_through(self):
        weights, means, covs = self._marginalize(
            [((0, 0), 1.0, {})], [(0.2, 1.0, 1.0), (0.3, 5.0, 2.0)])
        assert weights.tolist() == [0.2, 0.3]
        assert means.tolist() == [[1.0], [5.0]] and covs.tolist() == [[[1.0]], [[2.0]]]

    def test_pair_count_checked(self):
        with pytest.raises(ValueError, match="want 1 pair updates"):
            marginalize_existence(np.array([[1, 0]]), np.array([1.0]), np.zeros((2, 1)),
                                  np.zeros((2, 1, 1)), [0.5, 0.5], np.zeros((2, 1)),
                                  np.ones((2, 1, 1)))

    def test_empty_combinations_rejected(self):
        with pytest.raises(ValueError):
            self._marginalize([], [(0.5, 0.0, 1.0)])


def _per_pair_mean_update(weights, means, covs, z, config):
    """The mean-sensor update as a loop over (combination, row) pairs: each
    pair's update by _reference_row_update, each combination weighed by its
    first pair's, and the pair stacks fed to marginalize_existence."""
    in_idx, _ = select_fov_particles(means, config.fov)
    if not in_idx.size:
        return weights, means, covs, False
    in_weights, in_means, in_covs = (a[in_idx] for a in (weights, means, covs))
    combos = enumerate_combinations(in_weights.tolist(), config)
    if not combos:
        return weights, means, covs, True
    r, proj, d = config.sensor.R, config.sensor.position_projection, means.shape[1]
    log_weights, pairs = [], []
    for combo in combos:
        posts = [_reference_row_update(j, combo.bits, in_means, in_covs, z, r, proj)
                 for j, e in enumerate(combo.bits) if e]
        log_weights.append(combination_log_weight(
            combo, posts[0] if posts else None, config.clutter_density))
        pairs += posts
    marginal = marginalize_existence(
        np.array([combo.bits for combo in combos]), normalize_combination_weights(log_weights),
        np.array([post.mean for post in pairs]).reshape(-1, d),
        np.array([post.cov for post in pairs]).reshape(-1, d, d),
        in_weights, in_means, in_covs)
    weights, means, covs = (a.copy() for a in (weights, means, covs))
    weights[in_idx], means[in_idx], covs[in_idx] = marginal
    return weights, means, covs, False


class TestMeanUpdateMatchesPerPairLoop:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_random_beliefs(self, seed, s):
        # the last row of a belief of two or more lies out of view
        rng = np.random.default_rng(seed)
        means, covs = _random_rows(rng, s, 4)
        means[:, list(POSITION_IDX)] = rng.uniform(0.0, 10.0, (s, 2))
        if s > 1:
            means[-1, POSITION_IDX[0]] = 11.0
        weights = rng.uniform(0.05, 0.95, s)
        z = rng.uniform(0.0, 10.0, 2)
        config = _mean_config(sensor=_mean_sensor(float(rng.uniform(0.1, 2.0))),
                              fov=Rectangle(0.0, 0.0, 10.0, 12.0), epsilon=0.01)
        got = _mean_measurement_update(weights, means, covs, z, config)
        want = _per_pair_mean_update(weights, means, covs, z, config)
        assert got[3] is want[3] is False
        for g, w in zip(got[:3], want[:3]):
            if s == 1:
                assert np.array_equal(g, w)
            else:
                assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())

    def test_degenerate_step(self):
        # weights 0.5 and epsilon 0.25: every combination's prior is 0.25
        weights, means, covs = (np.array(a) for a in zip(*[_particle(0.5, 2.0, 2.0),
                                                             _particle(0.5, 9.0, 9.0)]))
        config = _mean_config(epsilon=0.25)
        z = np.array([5.0, 5.0])
        got = _mean_measurement_update(weights, means, covs, z, config)
        want = _per_pair_mean_update(weights, means, covs, z, config)
        assert got[3] is want[3] is True
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w)


def _general_mean_update(weights, means, covs, z, config):
    """The mean-sensor update with every combination weighed and marginalized,
    however many survive: one conditional_kf_update of each combination's
    stacked active rows, its combination_log_weight, and the pair stacks fed
    to marginalize_existence."""
    in_idx, _ = select_fov_particles(means, config.fov)
    if not in_idx.size:
        return weights, means, covs, False
    in_weights, in_means, in_covs = (a[in_idx] for a in (weights, means, covs))
    combos = enumerate_combinations(in_weights.tolist(), config)
    if not combos:
        return weights, means, covs, True
    r, proj, d = config.sensor.R, config.sensor.position_projection, means.shape[1]
    log_weights, pair_means, pair_covs = [], [np.empty((0, d))], [np.empty((0, d, d))]
    for combo in combos:
        active = np.flatnonzero(combo.bits)
        post = None
        if active.size:
            post = conditional_kf_update(in_means[active], in_covs[active], z, r, proj)
            block_means, block_covs, _ = _blocks(post, active.size)
            pair_means.append(block_means)
            pair_covs.append(block_covs)
        log_weights.append(combination_log_weight(combo, post, config.clutter_density))
    marginal = marginalize_existence(
        np.array([combo.bits for combo in combos]), normalize_combination_weights(log_weights),
        np.concatenate(pair_means), np.concatenate(pair_covs), in_weights, in_means, in_covs)
    weights, means, covs = (a.copy() for a in (weights, means, covs))
    weights[in_idx], means[in_idx], covs[in_idx] = marginal
    return weights, means, covs, False


@st.composite
def _one_combination_beliefs(draw):
    """Beliefs whose in-view rows (1 to 8) are certain (weight 1.0) or below
    epsilon (0.0 or 0.004 against epsilon 0.01), so exactly one combination
    survives, plus up to 3 rows out of view at any weight and, on request, one
    in-view row at an uncertain weight that makes two combinations."""
    in_view = draw(st.lists(st.sampled_from([1.0, 1.0, 0.0, 0.004]), min_size=1, max_size=8))
    out_view = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    uncertain = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.array(in_view + out_view)
    if uncertain:
        weights[0] = rng.uniform(0.05, 0.95)
    s = len(weights)
    means, covs = _random_rows(rng, s, 4)
    means[:, list(POSITION_IDX)] = rng.uniform(0.0, 10.0, (s, 2))
    means[len(in_view):, POSITION_IDX[0]] = rng.uniform(10.5, 12.0, len(out_view))
    order = rng.permutation(s)  # out-of-view rows anywhere in the belief
    z = rng.uniform(0.0, 10.0, 2) * float(rng.choice([1.0, 1e3]))
    sensor = _mean_sensor(float(rng.uniform(0.1, 2.0)))
    return weights[order], means[order], covs[order], z, sensor, uncertain


class TestMeanUpdateMatchesGeneralPath:
    @given(_one_combination_beliefs())
    @settings(max_examples=150, deadline=None)
    def test_bits_match_the_weighed_and_marginalized_path(self, case):
        weights, means, covs, z, sensor, uncertain = case
        config = _mean_config(sensor=sensor, fov=Rectangle(0.0, 0.0, 10.0, 12.0),
                              epsilon=0.01)
        in_idx, _ = select_fov_particles(means, config.fov)
        combos = enumerate_combinations(weights[in_idx].tolist(), config)
        assert len(combos) == 1 or uncertain
        got = _mean_measurement_update(weights, means, covs, z, config)
        want = _general_mean_update(weights, means, covs, z, config)
        assert got[3] is want[3] is False
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w)


class TestOneRowMeanStep:
    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from([0.0, 0.004]), max_size=3),
           st.integers(0, 3), st.sampled_from([0.995, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_equals_a_plain_kalman_step(self, seed, others, at, weight):
        # fov None, epsilon 0.01, one row present with certainty and every other row
        # absent: one combination survives, whose row takes weight 1.0 and the bits of
        # its own kf_update, and the rows out of it pass through as they are
        rng = np.random.default_rng(seed)
        at = min(at, len(others))
        weights = np.array(others[:at] + [weight] + others[at:])
        s = len(weights)
        means, covs = _random_rows(rng, s, 4)
        covs[:, 0, 1] += 1e-3  # unsymmetrized rows, as the predict hands them on
        z = rng.uniform(0.0, 10.0, 2)
        config = _mean_config(sensor=_mean_sensor(float(rng.uniform(0.1, 2.0))), epsilon=0.01)
        in_idx, _ = select_fov_particles(means, config.fov)
        assert [c.bits for c in enumerate_combinations(weights[in_idx].tolist(), config)] == [
            tuple(int(i == at) for i in range(s))]
        got_w, got_m, got_c, degenerate, births = _mean_measurement_update(
            weights, means, covs, z, config)
        want = kf_update(means[at], covs[at], config.sensor.position_projection,
                         config.sensor.R, z)
        assert degenerate is False and len(births) == 0
        assert got_w[at] == 1.0
        assert got_m[at].tobytes() == want.mean.tobytes()
        assert got_c[at].tobytes() == want.cov.tobytes()
        rest = np.arange(s) != at
        for got, prior in ((got_w, weights), (got_m, means), (got_c, covs)):
            assert got[rest].tobytes() == prior[rest].tobytes()


def _merge(pset, d_thresh):
    return merge_close_particles(pset, _mean_config(d_thresh=d_thresh))


class TestMergeClose:
    def test_distant_particles_untouched(self):
        pset = _pset([_particle(0.5, 0.0, 0.0), _particle(0.5, 10.0, 10.0)])
        out = _merge(pset, 1.0)
        assert out is pset

    def test_coincident_pair_merges(self):
        pset = _pset([_particle(0.3, 2.0, 2.0), _particle(0.4, 2.0, 2.0)])
        out = _merge(pset, 1.0)
        assert len(out) == 1
        assert_allclose(out.weights[0], 0.7)
        assert_allclose(out.means[0], [2.0, 0.0, 2.0, 0.0])

    def test_three_coincident_merge_to_one(self):
        pset = _pset(
            [_particle(w, 1.0, 3.0) for w in (0.5, 0.6, 0.7)]
        )
        out = _merge(pset, 1.0)
        assert len(out) == 1
        assert out.weights[0] == 1.0
        # order independence of the merged mean
        for perm in itertools.permutations((0.5, 0.6, 0.7)):
            pset_p = _pset([_particle(w, 1.0, 3.0) for w in perm])
            out_p = _merge(pset_p, 1.0)
            assert_allclose(
                out_p.means[0], out.means[0], atol=1e-9
            )

    def test_threshold_is_strict(self):
        # position vars 1.0 each -> metric diag(1/2); distance exactly 1
        pset = _pset(
            [_particle(0.5, 0.0, 0.0, var=1.0), _particle(0.5, math.sqrt(2.0), 0.0, var=1.0)]
        )
        out = _merge(pset, 1.0)
        assert len(out) == 2

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, bad):
        _assert_stage_settings_checked("finite", d_thresh=bad)

    @given(st.one_of(_clustered_psets(), _spread_psets()), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_rebuild(self, pset, d_thresh):
        got = _outcome(_merge, pset, d_thresh)
        _assert_same_outcome(got, _outcome(_merge_by_full_rebuild, pset, d_thresh))

    @given(_spread_psets())
    @settings(max_examples=30, deadline=None)
    def test_pair_distances_have_the_full_matrix_bits(self, pset):
        # on arrays of pairs and on the floats of one pair alike, where a zero
        # denominator raises ZeroDivisionError in place of an array's inf or nan
        full = _distances_by_full_matrix(pset.means, pset.covs)
        pos = np.array(_position_columns(pset.means, pset.covs))
        i, j = np.triu_indices(len(pset), 1)
        with np.errstate(all="ignore"):
            pairs = _position_distances(pos[:, i], pos[:, j])
        pairs[~np.isfinite(pairs)] = np.inf

        def one(a, b):
            try:
                return _position_distances(pos[:, a].tolist(), pos[:, b].tolist())
            except ZeroDivisionError:
                return math.inf

        ones = np.array([one(a, b) for a, b in zip(i, j)], dtype=float)
        assert np.array_equal(pairs, full[i, j])
        assert np.array_equal(np.where(np.isfinite(ones), ones, np.inf), full[i, j])

    @given(_spread_psets())
    @settings(max_examples=100, deadline=None)
    def test_merged_columns_have_the_bits_of_the_stacked_merge(self, pset):
        # up to 300 pairs of rows of the set: the merge loop's float weight and
        # five position values against the row of one stacked moment_match_merge
        i, j = (a[:300] for a in np.triu_indices(len(pset), 1))
        pos = np.array(_position_columns(pset.means, pset.covs))
        weights = pset.weights.tolist()

        def floats(a, b):
            return _merged_columns(weights[a], weights[b], pos[:, a].tolist(), pos[:, b].tolist())

        zero = pset.weights[i] + pset.weights[j] == 0.0
        for a, b in zip(i[zero], j[zero]):  # the stacked merge raises ValueError instead
            with pytest.raises(ZeroDivisionError):
                floats(a, b)
        pairs = np.stack((i[~zero], j[~zero]), axis=-1)
        if not len(pairs):
            return
        with np.errstate(all="ignore"):  # the far scales overflow
            stacked = moment_match_merge(pset.weights[pairs], pset.means[pairs], pset.covs[pairs])
        want = np.array(_position_columns(*stacked[1:]))
        for k, (a, b) in enumerate(pairs):
            weight, columns = floats(a, b)
            assert weight == stacked[0][k]
            assert np.array(columns).tobytes() == want[:, k].tobytes()

    def test_merged_row_reaches_past_the_first_bounds(self):
        # A and B merge first; the merged row's largest position eigenvalue
        # (1.49) exceeds every row's before (1), and it then lies within
        # d_thresh of C, which no first-pass bound reached, not even one
        # taken about the merged mean with the first pass's largest eigenvalue
        rows = [_particle(0.3, -0.7, 0.0), _particle(0.3, 0.7, 0.0),
                _particle(0.3, 0.32, 0.96, var=0.01)]
        pset = _pset(rows)
        bound = 1.0 * (1.0 + _BOUND_SLACK)
        (ax, ay), (bx, by), (cx, cy) = pset.means[:, list(POSITION_IDX)]
        for x, y in ((ax, ay), (bx, by), (0.0, 0.0)):
            assert (cx - x) ** 2 + (cy - y) ** 2 >= bound * (1.0 + 0.01)
        out = _merge(pset, 1.0)
        assert len(out) == 1
        _assert_same_outcome(out, _merge_by_full_rebuild(pset, 1.0))

    def test_pair_distances_stay_subquadratic(self, monkeypatch):
        # 2000 rows on a lattice 10 apart, five of them with a partner 0.5 away
        computed = []

        def counting(p, q):
            d = _position_distances(p, q)
            computed.append(np.size(d))
            return d

        monkeypatch.setattr("mtt.gpf._position_distances", counting)
        grid = [_particle(0.4, 10.0 * (k % 45), 10.0 * (k // 45)) for k in range(2000)]
        partners = [_particle(0.4, 10.0 * k + 0.5, 0.0) for k in range(5)]
        pset = _pset(grid + partners)
        out = _merge(pset, 1.0)
        assert len(out) == len(pset) - 5
        assert sum(computed) <= 20 * len(pset)
        # the merge loop's distances, on floats, count too: the first pass
        # makes one call, and the merged row of a chain at least one more
        computed.clear()
        chain = _pset([_particle(0.5, 0.0, 0.0), _particle(0.5, 1.2, 0.0),
                       _particle(0.5, 0.6, 1.35)])
        assert len(_merge(chain, 1.0)) == 1
        assert len(computed) >= 2

    @pytest.mark.parametrize("block", [[[-1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]]])
    @pytest.mark.parametrize("offset", [(0.0, 0.0), (1.0, 0.5)])
    def test_singular_summed_block_after_a_merge(self, monkeypatch, block, offset):
        # rows 0 and 1 merge into a row with position block I; row 2's block
        # (indefinite, so row 2 is paired with every row) sums with it to a
        # matrix of determinant exactly zero: on floats the distance divides
        # by zero, where an array gives inf or nan, and the two do not merge
        raised = []

        def watching(p, q):
            try:
                return _position_distances(p, q)
            except ZeroDivisionError:
                raised.append(q)
                raise

        monkeypatch.setattr("mtt.gpf._position_distances", watching)
        odd = _particle(0.5, *offset)
        odd[2][np.ix_(POSITION_IDX, POSITION_IDX)] = block
        pset = _pset([_particle(0.3, 0.0, 0.0), _particle(0.4, 0.0, 0.0), odd])
        out = _merge(pset, 1.0)
        assert len(out) == 2
        assert len(raised) == 1
        _assert_same_outcome(out, _merge_by_full_rebuild(pset, 1.0))

    @pytest.mark.parametrize("light, variance", [(1e-3, math.inf), (0.0, math.nan)])
    def test_merged_row_with_a_non_finite_variance(self, monkeypatch, light, variance):
        # rows 0 and 1 (x variances near the float maximum, 1.3e154 apart)
        # merge; with row 0 this light, its term a0 (C0 + d0 d0') overflows,
        # so the merged x variance is inf, or nan (0 * inf) for a weight of 0.
        # The merged row is paired with every live row, at a nan distance, and
        # the merged belief is not finite
        floats = []

        def counting(p, q):
            if isinstance(p, list):
                floats.append(q)
            return _position_distances(p, q)

        monkeypatch.setattr("mtt.gpf._position_distances", counting)
        wide = [_particle(w, x, 0.0) for w, x in ((light, 0.0), (0.9, 1.3e154))]
        for _, _, cov in wide:
            cov[POSITION_IDX[0], POSITION_IDX[0]], cov[POSITION_IDX[1], POSITION_IDX[1]] = 8.9e307, 0.5
        pset = _pset(wide + [_particle(0.5, 3.0, 5.0), _particle(0.5, -3.0, 9.0)])
        with np.errstate(over="ignore", invalid="ignore"):  # numpy's warnings of the overflow
            merged = moment_match_merge(pset.weights[:2], pset.means[:2], pset.covs[:2])
            got = _outcome(_merge, pset, 1.0)
            want = _outcome(_merge_by_full_rebuild, pset, 1.0)
        assert np.array_equal(merged[2][0, 0], variance, equal_nan=True)
        assert got is ValueError  # "means and covs must be finite"
        assert len(floats) == 2
        _assert_same_outcome(got, want)

    def test_merge_chain_and_ties_match_full_rebuild(self):
        # 0 and 1 merge first; the merged particle then lies within d_thresh of 2,
        # which was not within d_thresh of either before
        chain = _pset([_particle(0.5, 0.0, 0.0), _particle(0.5, 1.2, 0.0),
                       _particle(0.5, 0.6, 1.35)])
        assert _distances_by_full_matrix(chain.means, chain.covs)[:2, 2].min() >= 1.0
        out = _merge(chain, 1.0)
        assert len(out) == 1
        _assert_same_outcome(out, _merge_by_full_rebuild(chain, 1.0))
        # a square of equal particles: every side ties, and the first pair in row-major order wins
        square = _pset([_particle(0.4, x, y) for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))])
        out = _merge(square, 1.2)
        _assert_same_outcome(out, _merge_by_full_rebuild(square, 1.2))
        assert len(out) < 4


    @staticmethod
    def _merge_calls(monkeypatch):
        """The weights of each moment_match_merge call that the merge makes, as it makes them."""
        calls = []

        def counting(weights, *args):
            calls.append(weights)
            return moment_match_merge(weights, *args)

        monkeypatch.setattr("mtt.gpf.moment_match_merge", counting)
        return calls

    def test_chain_and_independent_pair_match_full_rebuild_bitwise(self, monkeypatch):
        # rows 0 and 1 merge, and their merged row then merges with row 2 (a
        # chain: generation 2); rows 3 and 4, far away, merge in generation 1
        calls = self._merge_calls(monkeypatch)
        pset = _pset([_particle(0.5, 0.0, 0.0), _particle(0.5, 1.2, 0.0),
                      _particle(0.5, 0.6, 1.35), _particle(0.2, 30.0, 30.0),
                      _particle(0.3, 30.5, 29.7)])
        out = _merge(pset, 1.0)
        want = _merge_by_full_rebuild(pset, 1.0)
        assert len(out) == 2
        for name in ("weights", "means", "covs"):
            assert getattr(out, name).tobytes() == getattr(want, name).tobytes(), name
        assert [w.shape for w in calls] == [(2, 2), (1, 2)]

    def test_two_zero_weights_that_merge_raise(self):
        # the float merge stops at the pair; the stacked merge names the fault
        pset = _pset([_particle(0.3, 0.0, 0.0), _particle(0.3, 0.0, 0.0),
                      _particle(0.0, 40.0, 0.0), _particle(0.0, 40.0, 0.0)])
        with pytest.raises(ValueError, match="total weight of merged particles must be positive"):
            _merge(pset, 1.0)
        assert _outcome(_merge_by_full_rebuild, pset, 1.0) is ValueError

    @pytest.mark.parametrize("clusters", [[2], [2, 2, 2], [3, 2], [4, 2, 3], [5]])
    def test_one_merge_call_per_generation(self, monkeypatch, clusters):
        # a cluster of s coincident rows merges as a chain, its lowest row
        # first with each of the others in turn: s - 1 merges in s - 1
        # generations; clusters far apart merge side by side
        calls = self._merge_calls(monkeypatch)
        rows = [_particle(0.2, 40.0 * c, 0.0) for c, size in enumerate(clusters)
                for _ in range(size)]
        pset = _pset(rows)
        out = _merge(pset, 1.0)
        merges, generations = sum(clusters) - len(clusters), max(clusters) - 1
        assert len(out) == len(pset) - merges
        assert len(calls) == generations
        assert sum(len(w) for w in calls) == merges
        _assert_same_outcome(out, _merge_by_full_rebuild(pset, 1.0))


class TestCardinalityAndPrune:
    def test_cardinality_values(self):
        assert estimate_cardinality(GpfParticleSet()) == 0.0
        assert estimate_cardinality(
            _pset([_particle(1.0, 0, 0), _particle(1.0, 1, 1), _particle(1.0, 2, 2)])
        ) == 3.0
        assert estimate_cardinality(
            _pset([_particle(0.5, 0, 0), _particle(0.5, 1, 1)])
        ) == 1.0

    @staticmethod
    def _prune(pset, births, w_prune, n_max):
        return birth_and_prune(pset, births, _mean_config(w_prune=w_prune, n_max=n_max))

    def test_prune_noop(self):
        pset = _pset([_particle(0.5, 0, 0), _particle(0.9, 1, 1)])
        out = self._prune(pset, GpfParticleSet(), 0.01, 10)
        assert out is pset

    def test_prunes_zero_weight(self):
        pset = _pset([_particle(0.0, 0, 0), _particle(0.5, 1, 1)])
        out = self._prune(pset, GpfParticleSet(), 0.01, 10)
        assert len(out) == 1
        assert out.weights[0] == 0.5

    def test_caps_at_n_max(self):
        weights = [0.1, 0.9, 0.3, 0.8, 0.5]
        pset = _pset([_particle(w, i, i) for i, w in enumerate(weights)])
        out = self._prune(pset, GpfParticleSet(), 0.0, 3)
        assert sorted(out.weights.tolist()) == [0.5, 0.8, 0.9]

    @pytest.mark.parametrize(
        "w_prune, n_max, message",
        [(1.0, 10, "w_prune"), (-0.1, 10, "w_prune"), (0.01, 0, "n_max"),
         (0.01, -1, "n_max"), (0.01, 2.0, "n_max")],
    )
    def test_bad_settings_rejected(self, w_prune, n_max, message):
        # n_max 0 would empty the belief and -1 drop its lowest-weight particle
        _assert_stage_settings_checked(message, w_prune=w_prune, n_max=n_max)

    def test_births_appended(self):
        pset = _pset([_particle(0.5, 0, 0)])
        births = _pset([_particle(0.1, 3, 3)])
        out = self._prune(pset, births, 0.05, 10)
        assert len(out) == 2


class TestGridUpdate:
    def test_positive_return_raises_weight(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        pset = _pset([_particle(0.4, 0.5, 0.5)])
        weights = _grid_update(pset, CellReturns([0], [1]), sensor)
        p_hit, p_false = 0.9, detection_prob(0, 0.9, 3.0)
        expected = 0.4 * p_hit / (0.4 * p_hit + 0.6 * p_false)
        assert_allclose(weights[0], expected)
        assert weights[0] > 0.4

    def test_negative_return_lowers_weight(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        pset = _pset([_particle(0.4, 0.5, 0.5)])
        weights = _grid_update(pset, CellReturns([0], [0]), sensor)
        p_false = detection_prob(0, 0.9, 3.0)
        expected = 0.4 * 0.1 / (0.4 * 0.1 + 0.6 * (1.0 - p_false))
        assert_allclose(weights[0], expected)
        assert weights[0] < 0.4

    def test_unmeasured_particle_unchanged(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        pset = _pset([_particle(0.4, 5.5, 5.5)])
        assert _grid_update(pset, CellReturns([0], [1]), sensor).tolist() == [0.4]

    @given(_grid_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_over_particles(self, case):
        pset, returns, sensor = case
        assert np.array_equal(_grid_update(pset, returns, sensor),
                              _grid_update_by_dict(pset, returns, sensor))

    def test_repeated_cell_applies_returns_in_order(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        # three particles in cell 0, which gets three returns, and one in cell 1
        weights = (0.0, 0.4, 1.0, 0.4)
        pset = _pset([_particle(w, x, 0.5) for w, x in zip(weights, (0.5, 0.5, 0.5, 1.5))])
        returns = CellReturns([0, 1, 0, 0, 5], [1, 0, 0, 1, 1])
        weights = _grid_update(pset, returns, sensor)
        assert np.array_equal(weights, _grid_update_by_dict(pset, returns, sensor))
        assert (weights != pset.weights).all()  # the point masses 0 and 1 move too

    @pytest.mark.parametrize("cell", [-1, 144])
    def test_out_of_range_cell_rejected_like_the_loop(self, cell):
        sensor = GridSensorModel(WORKSPACE)
        for pset in (GpfParticleSet(), _pset([_particle(0.5, 11.5, 11.5)])):
            for update in (_grid_update, _grid_update_by_dict):
                with pytest.raises(IndexError):
                    update(pset, CellReturns([0, cell], [1, 0]), sensor)

    def test_births_from_positive_returns(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        births = grid_births(CellReturns([14, 20], [1, 0]), sensor, 0.1)
        assert len(births) == 1
        assert births.weights[0] == 0.1
        assert_allclose(births.means[0], [2.5, 0.0, 1.5, 0.0])
        assert_allclose(births.covs[0], np.diag([1 / 12, 1.0, 1 / 12, 1.0]))
        # mixed returns on an offset grid with inexact cell sizes: each cell's midpoint,
        # bit for bit
        sensor = GridSensorModel(Rectangle(-3.7, 2.2, 8.4, 13.3), rows=9, cols=13)
        cells, values = [5, 116, 0, 60, 116, 3, 40, 12], [1, 0, 1, 1, 1, 0, 1, 1]
        births = grid_births(CellReturns(cells, values), sensor, 0.1)
        xi, yi = POSITION_IDX
        centres = [(0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)) for x_lo, y_lo, x_hi, y_hi in
                   (sensor.cell_bounds(c) for c, v in zip(cells, values) if v)]
        assert [(m[xi], m[yi]) for m in births.means.tolist()] == centres


class TestGpfStep:
    def test_single_particle_reduces_to_kalman(self):
        rng = np.random.default_rng(17)
        tau = 1.0
        f = constant_velocity_matrix(tau)
        q = np.diag([0.5, 0.05, 0.5, 0.05])
        sensor = _mean_sensor(r=0.4)
        config = _mean_config(f=f, q=q, sensor=sensor)

        kf_mean, kf_cov = np.array([6.0, 0.1, 6.0, -0.1]), np.diag([2.0, 0.5, 2.0, 0.5])
        belief = GpfParticleSet([1.0], kf_mean[None], kf_cov[None])
        for _ in range(20):
            pred = kf_predict(kf_mean, kf_cov, f, q)
            z = pred[0][[0, 2]] + rng.standard_normal(2)
            belief = gpf_step(belief, z, config)
            kf_mean, kf_cov, *_ = kf_update(*pred, sensor.position_projection, sensor.R, z)
            assert len(belief) == 1
            assert belief.weights[0] == 1.0
            assert_allclose(belief.means[0], kf_mean, rtol=1e-10)
            assert_allclose(belief.covs[0], kf_cov, rtol=1e-10)

    def test_empty_set_gets_births_only(self):
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        config = GpfConfig(motion=_STILL, sensor=sensor, w_birth=0.1)
        out = gpf_step(GpfParticleSet(), CellReturns([0, 5], [1, 1]), config)
        assert len(out) == 2
        assert all(w == 0.1 for w in out.weights.tolist())

    def test_emptied_belief_keeps_running(self):
        # a far-off measurement lets the all-absent combination win: nothing survives
        config = _mean_config(clutter_density=1.0 / 144.0)
        out = gpf_step(_pset([_particle(0.9, 2.0, 2.0)]), np.array([11.0, 11.0]), config)
        assert len(out) == 0 and not out.degenerate_step
        assert estimate_cardinality(out) == 0.0
        again = gpf_step(out, np.array([11.0, 11.0]), config)
        assert len(again) == 0 and not again.degenerate_step
        grid = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        grid_config = GpfConfig(motion=_STILL, sensor=grid, w_birth=0.1)
        births = gpf_step(out, CellReturns([14, 20], [1, 0]), grid_config)
        assert births.weights.tolist() == [0.1]
        assert_allclose(births.means, [[2.5, 0.0, 1.5, 0.0]])

    def test_six_dim_state_prunes(self):
        # the empty births of a mean-sensor step are 4-D; a 6-D belief must still prune
        config = _mean_config(
            f=np.eye(6), q=0.01 * np.eye(6),
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
        assert out.weights.tolist() == [0.5, 0.5]
        assert_allclose(out.means[0], parts[0][1])

    def test_only_all_zero_combination_passes_rows_through(self):
        # weights 0.2 and epsilon 0.5: only the all-zero combination (prior 0.64) survives,
        # so no row is updated and the step is not degenerate
        pset = _pset([_particle(0.2, 2.0, 2.0), _particle(0.2, 9.0, 9.0)])
        config = _mean_config(epsilon=0.5)
        z = np.array([5.0, 5.0])
        assert [c.bits for c in enumerate_combinations(pset.weights.tolist(), config)] == [(0, 0)]
        weights, means, covs, degenerate, births = _mean_measurement_update(
            pset.weights, pset.means, pset.covs, z, config)
        assert not degenerate and not len(births)
        for got, want in zip((weights, means, covs), (pset.weights, pset.means, pset.covs)):
            assert np.array_equal(got, want)
        out = gpf_step(pset, z, config)
        assert not out.degenerate_step and out == pset

    @pytest.mark.parametrize("weights, combos, kf_updates, evidences", [
        ([1.0, 0.0], 1, 1, 0),  # one combination, one active row
        ([1.0, 1.0], 1, 1, 0),  # one combination, two active rows: one stacked update
        ([0.0, 0.0], 1, 0, 0),  # only the all-zero combination: nothing to update
        ([0.9, 0.0], 2, 1, 2),  # {row 0} and the all-zero combination
    ])
    def test_one_combination_costs_one_conditional_update(
            self, monkeypatch, weights, combos, kf_updates, evidences):
        calls = {"update": [], "weight": [], "marginal": []}

        def counted(key, fn):
            return lambda *args: (calls[key].append(args), fn(*args))[1]

        for key, name, fn in (("update", "conditional_kf_update", conditional_kf_update),
                              ("weight", "combination_log_weight", combination_log_weight),
                              ("marginal", "marginalize_existence", marginalize_existence)):
            monkeypatch.setattr(f"mtt.gpf.{name}", counted(key, fn))
        pset = _pset([_particle(w, x, x) for w, x in zip(weights, (2.0, 6.0))])
        out = gpf_step(pset, np.array([3.0, 3.0]), _mean_config())
        assert len(enumerate_combinations(weights, _mean_config())) == combos
        assert len(calls["update"]) == kf_updates
        assert len(calls["weight"]) == evidences
        assert len(calls["marginal"]) == (combos > 1)
        assert not out.degenerate_step

    def test_certain_combination_with_overflowing_evidence(self):
        # the residual's square overflows, so the evidence is not finite; a lone
        # combination is certain whatever its evidence, so the step is its update
        mean, cov = np.array([2.0, 0.0, 2.0, 0.0]), np.diag([1.0, 0.1, 1.0, 0.1])
        config = _mean_config()
        z = np.array([1e160, 0.0])
        r, proj = config.sensor.R, config.sensor.position_projection
        post = conditional_kf_update(mean[None], cov[None], z, r, proj)
        combo = enumerate_combinations([1.0], config)[0]
        with np.errstate(over="ignore"):
            assert not math.isfinite(combination_log_weight(combo, post, config.clutter_density))
        out = gpf_step(GpfParticleSet([1.0], mean[None], cov[None]), z, config)
        assert out.weights.tolist() == [1.0] and not out.degenerate_step
        assert np.array_equal(out.means[0], post.mean) and np.array_equal(out.covs[0], post.cov)

    def test_combinations_with_no_finite_log_weight_are_degenerate(self):
        # (1, 1) and (1, 0) survive, both residuals' squares overflow, and the
        # all-zero combination has prior 0: nothing to normalize, as if none survived
        pset, config = _pset([_particle(1.0, 2.0, 2.0), _particle(0.5, 8.0, 8.0)]), _mean_config()
        assert len(enumerate_combinations(pset.weights.tolist(), config)) == 2
        with np.errstate(over="ignore"):
            out = gpf_step(pset, np.array([1e160, 0.0]), config)
        assert out == GpfParticleSet(pset.weights, pset.means, pset.covs, degenerate_step=True)

    def test_out_of_fov_particles_only_predicted(self):
        fov = Rectangle(0.0, 0.0, 5.0, 5.0)
        parts = [_particle(0.9, 2.0, 2.0), _particle(0.9, 9.0, 9.0)]
        config = _mean_config(fov=fov)
        out = gpf_step(_pset(parts), np.array([2.0, 2.0]), config)
        # the out-of-view particle keeps its predicted (here: unchanged) state
        assert out.weights[1] == 0.9
        assert_allclose(out.means[1], parts[1][1])
        assert out.weights[0] != 0.9

    def test_interleaved_out_of_view_rows(self):
        # in-view rows that are not a prefix: out, in, out, in
        fov = Rectangle(0.0, 0.0, 5.0, 5.0)
        config = _mean_config(fov=fov, f=constant_velocity_matrix(1.0),
                              q=np.diag([0.1, 0.01, 0.1, 0.01]))
        parts = [_particle(0.6, 9.0, 9.0), _particle(0.9, 1.0, 1.0),
                 _particle(0.7, 8.0, 2.0), _particle(0.8, 4.0, 3.5)]
        z = np.array([2.5, 2.0])
        out = gpf_step(_pset(parts), z, config)
        alone = gpf_step(_pset(parts[1::2]), z, config)
        predicted = (_pset(parts).weights, *gpf_predict(_pset(parts), config))
        assert len(out) == 4 and not out.degenerate_step
        for name, want in zip(("weights", "means", "covs"), predicted):
            assert np.array_equal(getattr(out, name)[1::2], getattr(alone, name))
            assert np.array_equal(getattr(out, name)[0::2], want[0::2])
        assert not np.array_equal(out.means[1::2], predicted[1][1::2])  # the update ran

    def test_deterministic(self):
        parts = [_particle(0.8, 2.0, 2.0), _particle(0.7, 4.0, 4.0)]
        config = _mean_config()
        z = np.array([3.0, 3.0])
        a = gpf_step(_pset(parts), z, config)
        b = gpf_step(_pset(parts), z, config)
        assert a.weights.tolist() == b.weights.tolist()
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covs, b.covs)

    def test_input_belief_unchanged(self):
        parts = [_particle(0.8, 2.0, 2.0), _particle(0.7, 4.0, 4.0)]
        belief = _pset(parts)
        weights = [w for w, _, _ in parts]
        means = [m.copy() for _, m, _ in parts]
        config = _mean_config(f=constant_velocity_matrix(1.0), q=np.eye(4))
        out = gpf_step(belief, np.array([3.0, 3.0]), config)
        assert out.weights[0] != weights[0]
        assert belief.weights.tolist() == weights
        for got, mean in zip(belief.means, means):
            assert np.array_equal(got, mean)

    @pytest.mark.parametrize("sensor", ["mean", "grid"])
    def test_step_builds_no_particle_objects(self, monkeypatch, sensor):
        # the belief is arrays throughout a step; the `particles` rows are only
        # for perfbench's observers
        if sensor == "mean":
            config = _mean_config()
            belief = _pset([_particle(0.9, 2.0, 2.0), _particle(0.8, 4.0, 4.0)])
            z = np.array([3.0, 3.0])
            assert len(select_fov_particles(belief.means, config.fov)[0]) == 2
        else:
            grid = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
            config = GpfConfig(motion=_STILL, sensor=grid)
            belief = _pset([_particle(0.5, 3.0, 3.0), _particle(0.5, 3.2, 3.0)])
            z = CellReturns([grid.cell_of(3.0, 3.0)], [0])

        def refuse(self):
            raise AssertionError("gpf_step built the particles rows")

        monkeypatch.setattr(GpfParticleSet, "particles", property(refuse))
        out = gpf_step(belief, z, config)
        if sensor == "mean":
            assert len(out) == 2 and not np.array_equal(out.weights, belief.weights)
        else:
            assert len(out) == 1  # the pair merged

    def test_one_set_and_no_setting_check_per_step(self, monkeypatch):
        # the stages pass arrays and read the settings that GpfConfig checked when built:
        # a step checks one set, that of its update, on both sensors (births, merge and
        # prune hand on checked rows unchecked), and checks no setting again
        grid = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        grid_config = GpfConfig(motion=_STILL, sensor=grid)
        apart = _pset([_particle(0.9, 2.0, 2.0), _particle(0.8, 8.0, 8.0)])
        close = _pset([_particle(0.5, 3.0, 3.0), _particle(0.5, 3.2, 3.0)])
        halves = _pset([_particle(0.5, 2.0, 2.0), _particle(0.5, 9.0, 9.0)])
        cases = [  # belief, measurement, config, particles out, degenerate
            (apart, np.array([5.0, 5.0]), _mean_config(), 2, False),
            (halves, np.array([5.0, 5.0]), _mean_config(epsilon=0.25), 2, True),
            (apart, CellReturns([grid.cell_of(5.0, 5.0)], [0]), grid_config, 2, False),
            # the pair merges and a birth joins it: births, merge and prune each build a set
            (close, CellReturns([grid.cell_of(9.0, 9.0)], [1]), grid_config, 2, False),
        ]
        built, checked = [], []
        post_init = GpfParticleSet.__post_init__
        monkeypatch.setattr(GpfParticleSet, "__post_init__",
                            lambda pset: (built.append(pset), post_init(pset))[1])
        for domain in (Range, Choice):
            check = domain.check
            monkeypatch.setattr(domain, "check", lambda self, value, name, check=check:
                                (checked.append(name), check(self, value, name))[1])
        for belief, z, config, n_out, degenerate in cases:
            built.clear()
            out = gpf_step(belief, z, config)
            assert (len(built), len(out), out.degenerate_step) == (1, n_out, degenerate)
        assert checked == []

    @settings(max_examples=80, deadline=None)
    @given(_grid_cases(), _clustered_psets(), st.booleans(), st.sampled_from([0.5, 2.0, 4.0]),
           st.sampled_from([0.0, 0.05, 0.3]), st.integers(1, 40))
    def test_unchecked_sets_equal_checked_ones(self, case, clustered, moving, d_thresh, w_prune,
                                               n_max):
        # births, merge and prune build their sets unchecked: each set a stage returns
        # must be read-only and hold the bytes of a checked construction of its arrays
        grid_belief, returns, sensor = case
        motion = MotionModel(constant_velocity_matrix(0.5), 0.01 * np.eye(4)) if moving else _STILL
        config = GpfConfig(motion=motion, sensor=sensor, d_thresh=d_thresh, w_prune=w_prune,
                           n_max=n_max, w_birth=0.3)
        births = grid_births(returns, sensor, config.w_birth)
        sets = [births]
        for belief in (grid_belief, clustered):
            try:
                merged = merge_close_particles(belief, config)
                sets += [merged, birth_and_prune(merged, births, config),
                         gpf_step(belief, returns, config)]
            except ValueError:  # two weights of zero merge
                continue
        for pset in sets:
            checked = GpfParticleSet(pset.weights, pset.means, pset.covs, pset.degenerate_step)
            assert pset.degenerate_step is checked.degenerate_step
            for name in ("weights", "means", "covs"):
                got, want = getattr(pset, name), getattr(checked, name)
                assert not got.flags.writeable, name
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                                 want.tobytes()), name

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
        config = GpfConfig(motion=_STILL, sensor=GridSensorModel(WORKSPACE))
        with pytest.raises(TypeError):
            gpf_step(GpfParticleSet(), [(0, 1), (5, 1)], config)
        with pytest.raises(TypeError):
            gpf_step(GpfParticleSet(), [CellReturns([0], [1])], config)

    @pytest.mark.parametrize("cell", [-1, 144])
    def test_out_of_range_cell_rejected(self, cell):
        config = GpfConfig(motion=_STILL, sensor=GridSensorModel(WORKSPACE))
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
            f=constant_velocity_matrix(0.1),
            q=np.diag([0.05, 0.01, 0.05, 0.01]),
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
            assert 0.0 <= card <= len(belief)
            for weight, cov in zip(belief.weights, belief.covs):
                assert 0.0 <= weight <= 1.0
                assert_allclose(cov, cov.T, atol=1e-9)
                assert np.linalg.eigvalsh(cov).min() >= -1e-9

    def test_grid_run_invariants(self):
        rng = np.random.default_rng(44)
        sensor = GridSensorModel(WORKSPACE, p_d=0.9, snr=10.0, m_cells=36)
        config = GpfConfig(
            motion=MotionModel(constant_velocity_matrix(0.1), np.diag([0.02, 0.002, 0.02, 0.002])),
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
            assert len(belief) <= 50
            for weight, cov in zip(belief.weights, belief.covs):
                assert 0.0 <= weight <= 1.0
                assert np.linalg.eigvalsh(cov).min() >= -1e-9
        assert estimate_cardinality(belief) > 0.5

    def test_normalized_combination_family(self):
        parts = [_particle(0.9, 2.0, 2.0), _particle(0.8, 4.0, 4.0)]
        sensor = _mean_sensor()
        rows = _pset(parts)
        combos = enumerate_combinations([w for w, _, _ in parts], _mean_config(epsilon=0.001))
        z, proj = np.array([3.0, 3.0]), sensor.position_projection
        logs = [
            combination_log_weight(
                c, _combination_update(c, rows.means, rows.covs, z, sensor.R, proj), 1.0 / 144)
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
