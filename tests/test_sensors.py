import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mtt.motion import position_projection
from mtt.regions import Rectangle
from mtt.sensors import (
    CellReturns,
    GridSensorModel,
    MeanSensorModel,
    detection_prob,
    grid_measure,
    mean_sensor_measure,
    select_cells,
)

WORKSPACE = Rectangle(0.0, 0.0, 12.0, 12.0)
GRID_DENSE = (Rectangle(0.0, 0.0, 48.0, 48.0), 48, 48)  # the grid_dense benchmark grid
OFFSET_GRID = (Rectangle(-3.7, 2.2, 8.4, 13.3), 9, 13)  # offset origin, inexact cell sizes


def _state(x, y, vx=0.0, vy=0.0):
    return np.array([x, vx, y, vy])


class TestMeanSensor:
    def test_single_target_noiseless(self):
        model = MeanSensorModel(R=np.zeros((2, 2)), position_projection=position_projection())
        z = mean_sensor_measure([_state(3.0, 4.0)], model, np.random.default_rng(0))
        assert_allclose(z, [3.0, 4.0])

    def test_two_targets_arithmetic_mean(self):
        model = MeanSensorModel(R=np.zeros((2, 2)), position_projection=position_projection())
        z = mean_sensor_measure(
            [_state(0.0, 0.0), _state(2.0, 2.0)], model, np.random.default_rng(0)
        )
        assert_allclose(z, [1.0, 1.0])

    def test_zero_targets_rejected(self):
        model = MeanSensorModel(R=np.eye(2), position_projection=position_projection())
        with pytest.raises(ValueError):
            mean_sensor_measure([], model, np.random.default_rng(0))

    def test_truth_array(self):
        model = MeanSensorModel(R=np.zeros((2, 2)), position_projection=position_projection())
        truth = np.array([_state(0.0, 0.0), _state(2.0, 4.0)])
        assert_allclose(mean_sensor_measure(truth, model, np.random.default_rng(0)), [1.0, 2.0])
        with pytest.raises(ValueError, match="zero targets"):
            mean_sensor_measure(np.zeros((0, 4)), model, np.random.default_rng(0))

    def test_noise_covariance_monte_carlo(self):
        model = MeanSensorModel(R=np.eye(2), position_projection=position_projection())
        rng = np.random.default_rng(123)
        draws = np.array(
            [mean_sensor_measure([_state(5.0, 5.0)], model, rng) for _ in range(10**5)]
        )
        sample_cov = np.cov(draws.T)
        assert_allclose(sample_cov, np.eye(2), atol=0.05)

    @pytest.mark.parametrize("r", [np.diag([0.5, 0.5]), [[1.0, 0.3], [0.3, 0.5]]])
    def test_noise_is_multivariate_normal_stream(self, r):
        model = MeanSensorModel(R=r, position_projection=position_projection())
        rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            z = mean_sensor_measure([_state(1.0, 2.0)], model, rng)
            assert_array_equal(z, [1.0, 2.0] + rng_ref.multivariate_normal(np.zeros(2), r))

    def test_deterministic_with_zero_noise(self):
        model = MeanSensorModel(R=np.zeros((2, 2)), position_projection=position_projection())
        rng = np.random.default_rng(0)
        a = mean_sensor_measure([_state(1.0, 2.0)], model, rng)
        b = mean_sensor_measure([_state(1.0, 2.0)], model, rng)
        assert np.array_equal(a, b)


class TestDetectionProb:
    def test_single_target_gives_p_d(self):
        assert detection_prob(1, 0.9, 3.0) == 0.9
        assert detection_prob(1, 0.42, 17.0) == 0.42

    def test_false_alarm_probability(self):
        assert_allclose(detection_prob(0, 0.9, 3.0), 0.9**4)
        assert_allclose(detection_prob(0, 0.9, 3.0), 0.6561, atol=1e-12)

    def test_two_targets(self):
        expected = 0.9 ** (4.0 / 7.0)
        assert_allclose(detection_prob(2, 0.9, 3.0), expected)
        assert detection_prob(2, 0.9, 3.0) > detection_prob(1, 0.9, 3.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            detection_prob(-1, 0.9, 3.0)

    @given(
        st.integers(0, 10),
        st.floats(0.05, 0.95),
        st.floats(0.1, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_count(self, t, p_d, snr):
        low = detection_prob(t, p_d, snr)
        high = detection_prob(t + 1, p_d, snr)
        assert 0.0 < low < high < 1.0

    @given(st.floats(0.05, 0.95), st.floats(0.1, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_false_alarm_below_detection(self, p_d, snr):
        assert detection_prob(0, p_d, snr) < detection_prob(1, p_d, snr) == p_d


class TestGrid:
    def test_grid_tiles_workspace(self):
        # edge k lies at exactly x_min + k * width, and the last edge is the workspace edge
        for ws, rows, cols in [(WORKSPACE, 12, 12), GRID_DENSE, OFFSET_GRID]:
            model = GridSensorModel(ws, rows=rows, cols=cols)
            assert model.n_cells == rows * cols
            width, height = (ws.x_max - ws.x_min) / cols, (ws.y_max - ws.y_min) / rows
            for index in range(model.n_cells):
                row, col = divmod(index, cols)
                x_hi = ws.x_max if col == cols - 1 else ws.x_min + (col + 1) * width
                y_hi = ws.y_max if row == rows - 1 else ws.y_min + (row + 1) * height
                assert model.cell_bounds(index) == (
                    ws.x_min + col * width, ws.y_min + row * height, x_hi, y_hi)
        # row-major from the origin corner
        model = GridSensorModel(WORKSPACE, rows=12, cols=12)
        assert model.cell_bounds(0) == (0.0, 0.0, 1.0, 1.0)
        assert model.cell_bounds(1) == (1.0, 0.0, 2.0, 1.0)
        assert model.cell_bounds(12) == (0.0, 1.0, 1.0, 2.0)

    def test_boundary_is_closed_left_open_right(self):
        model = GridSensorModel(WORKSPACE)
        # exactly on the low corner of cell 13 (col 1, row 1)
        assert model.cell_contains(13, 1.0, 1.0)
        assert not model.cell_contains(0, 1.0, 1.0)
        assert model.cell_of(1.0, 1.0) == 13
        # the high edge belongs to the next cell over
        assert not model.cell_contains(13, 2.0, 1.5)
        assert model.cell_of(2.0, 1.5) == 14

    def test_occupancy_partitions_targets(self):
        model = GridSensorModel(WORKSPACE)
        rng = np.random.default_rng(8)
        states = [_state(x, y) for x, y in rng.uniform(0.0, 12.0, size=(40, 2))]
        cells = [model.cell_of(s[0], s[2]) for s in states]
        assert None not in cells
        assert all(model.cell_contains(c, s[0], s[2]) for c, s in zip(cells, states))

    def test_outside_targets_count_nowhere(self):
        model = GridSensorModel(WORKSPACE)
        states = [_state(-1.0, 5.0), _state(12.5, 3.0), _state(12.0, 12.0)]
        assert [model.cell_of(s[0], s[2]) for s in states] == [None, None, None]

    def test_empty_cell_false_alarm_frequency(self):
        model = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        rng = np.random.default_rng(21)
        trials = 2 * 10**4
        hits = sum(grid_measure([], [0], model, rng).values[0] for _ in range(trials))
        freq = hits / trials
        sigma = np.sqrt(0.6561 * (1 - 0.6561) / trials)
        assert abs(freq - 0.6561) <= 3 * sigma

    def test_occupied_cell_detection_frequency(self):
        model = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        rng = np.random.default_rng(22)
        trials = 2 * 10**4
        states = [_state(0.5, 0.5)]
        hits = sum(grid_measure(states, [0], model, rng).values[0] for _ in range(trials))
        freq = hits / trials
        sigma = np.sqrt(0.9 * 0.1 / trials)
        assert abs(freq - 0.9) <= 3 * sigma

    def test_too_many_cells_rejected(self):
        model = GridSensorModel(WORKSPACE, m_cells=2)
        with pytest.raises(ValueError):
            grid_measure([], [0, 1, 2], model, np.random.default_rng(0))

    def test_invalid_cell_rejected(self):
        model = GridSensorModel(WORKSPACE)
        with pytest.raises(ValueError):
            grid_measure([], [144], model, np.random.default_rng(0))

    def test_truth_array_with_no_targets(self):
        # run_experiment passes truth[k], which is (0, 4) in a scenario without targets
        model = GridSensorModel(WORKSPACE, p_d=0.9, snr=3.0)
        returns = grid_measure(np.zeros((0, 4)), np.array([0, 5, 143]), model,
                               np.random.default_rng(4))
        expected = np.random.default_rng(4).random(3) < detection_prob(0, 0.9, 3.0)
        assert_array_equal(returns.cells, [0, 5, 143])
        assert_array_equal(returns.values, expected)

    def test_truth_array_counts_targets_per_cell(self):
        model = GridSensorModel(WORKSPACE, rows=4, cols=3, p_d=0.8, snr=2.0)
        truth = np.array([_state(0.5, 0.5), _state(1.0, 2.0), _state(11.5, 11.5), _state(-1.0, 5.0)])
        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        returns = grid_measure(truth, np.array([0, 11, 5]), model, rng)
        p = [detection_prob(t, 0.8, 2.0) for t in (2, 1, 0)]  # the target at x = -1 is outside
        assert_array_equal(returns.values, ref_rng.random(3) < np.array(p))

    def test_cell_return_validation(self):
        returns = CellReturns([5, 3, 5], [True, 0, 1])  # order and repeats kept
        assert returns.cells.tolist() == [5, 3, 5] and returns.values.tolist() == [1, 0, 1]
        assert returns.cells.dtype == returns.values.dtype == np.int64
        with pytest.raises(ValueError):
            returns.values[0] = 0  # read-only
        assert len(CellReturns([], []).cells) == 0
        bad = [
            ([[0, 1]], [[1, 0]]),  # not 1-D
            ([0, 1], [1]),  # lengths differ
            ([0], [2]),  # a value other than 0 or 1
            ([0], [0.5]),
            ([1.5], [1]),  # float cells, even integral ones
            ([1.0], [1]),
            ([True], [1]),  # bool cells
        ]
        for cells, values in bad:
            with pytest.raises(ValueError):
                CellReturns(cells, values)

    @pytest.mark.parametrize("cells", [[1.5], [1.0], [True], [0, 2.5]])
    def test_non_integer_cells_rejected(self, cells):
        # 1.5 once looked up the occupancy of "cell 1.5" and reported cell 1
        model = GridSensorModel(WORKSPACE)
        with pytest.raises(ValueError):
            grid_measure([_state(1.2, 0.5)], cells, model, np.random.default_rng(0))

    def test_stream_matches_scalar_draws(self):
        # one rng.random(m) call must give the returns of one rng.random() per cell
        model = GridSensorModel(WORKSPACE, rows=4, cols=3, p_d=0.8, snr=2.0, m_cells=12)
        cases = np.random.default_rng(41)
        fixed = [[], [7, 7, 7], [2, 9, 2, 0, 9]]  # no cell, and repeats
        for trial in range(60):
            states = [_state(*xy) for xy in cases.uniform(-1.0, 13.0, (cases.integers(0, 8), 2))]
            cells = cases.integers(0, model.n_cells, cases.integers(0, 13)).tolist()
            if trial < len(fixed):
                cells = fixed[trial]
            occupancy = [model.cell_of(s[0], s[2]) for s in states]
            ref_rng, rng = np.random.default_rng(trial), np.random.default_rng(trial)
            expected = [
                int(ref_rng.random() < detection_prob(occupancy.count(c), model.p_d, model.snr))
                for c in cells
            ]
            returns = grid_measure(states, cells, model, rng)
            assert returns.cells.tolist() == cells
            assert returns.values.tolist() == expected
            assert rng.random() == ref_rng.random()  # both streams left at the same point

    @pytest.mark.parametrize("index", [-1, 144])
    def test_out_of_range_index_raises(self, index):
        model = GridSensorModel(WORKSPACE)
        with pytest.raises(IndexError):
            model.cell_bounds(index)
        with pytest.raises(IndexError):
            model.cell_contains(index, 11.5, 11.5)


def _cells_containing(model, x, y):
    """Cells holding (x, y) by a full cell_contains scan; cell_of must agree."""
    cells = [i for i in range(model.n_cells) if model.cell_contains(i, x, y)]
    assert model.cell_of(x, y) == (cells[0] if cells else None)
    return cells


class TestGridTiling:
    """Each point of the workspace lies in exactly one cell, even when the
    cell width is not exactly representable, and cell_of finds that cell."""

    @pytest.mark.parametrize(
        "cols, x, col",
        [(13, 0.5076923076923077, 6), (7, 0.942857142857143, 5)],
    )
    def test_inexact_width_edges(self, cols, x, col):
        model = GridSensorModel(Rectangle(0.0, 0.0, 1.1, 1.0), rows=1, cols=cols)
        assert _cells_containing(model, x, 0.5) == [col]

    def test_last_edge_is_workspace_edge(self):
        for ws, rows, cols in [(Rectangle(0.0, 0.0, 1.1, 1.0), 3, 7), GRID_DENSE, OFFSET_GRID]:
            model = GridSensorModel(ws, rows=rows, cols=cols)
            x_lo, y_lo, x_hi, y_hi = model.cell_bounds(model.n_cells - 1)
            assert (x_hi, y_hi) == (ws.x_max, ws.y_max)
            assert model.cell_bounds(0)[:2] == (ws.x_min, ws.y_min)
            below = np.nextafter(ws.x_max, -np.inf), np.nextafter(ws.y_max, -np.inf)
            assert _cells_containing(model, *below) == [model.n_cells - 1]

    @pytest.mark.parametrize(
        "x, y",
        [(-0.1, 0.5), (0.5, -0.1), (np.nextafter(0.0, -np.inf), 0.5), (1.2, 0.5),
         (1.1, 0.5), (0.5, 1.0), (1.1, 1.0), (np.nan, 0.5), (0.5, np.nan),
         (np.inf, 0.5), (-np.inf, 0.5)],
    )
    def test_outside_high_edge_and_nan_have_no_cell(self, x, y):
        model = GridSensorModel(Rectangle(0.0, 0.0, 1.1, 1.0), rows=3, cols=7)
        assert model.cell_of(x, y) is None
        assert _cells_containing(model, x, y) == []

    @pytest.mark.parametrize("x, y", [(0.5, 0.5), (-0.1, 0.5), (1.1, 0.5), (0.5, 1.0),
                                      (np.nan, 0.5)])
    def test_one_cell_contains_call_per_lookup(self, monkeypatch, x, y):
        # inside, outside, on a high edge and NaN: the only candidate cell is confirmed once
        model = GridSensorModel(Rectangle(0.0, 0.0, 1.1, 1.0), rows=3, cols=7)
        calls = []
        contains = GridSensorModel.cell_contains
        monkeypatch.setattr(GridSensorModel, "cell_contains",
                            lambda self, *args: calls.append(args) or contains(self, *args))
        model.cell_of(x, y)
        assert len(calls) == 1

    @given(
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
        st.floats(1e-2, 1e3),
        st.floats(1e-2, 1e3),
        st.integers(1, 30),
        st.integers(1, 30),
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=10),
    )
    # the grid_dense grid, and an offset workspace whose cell sizes are inexact
    @example(x0=0.0, y0=0.0, w=48.0, h=48.0, rows=48, cols=48,
             fractions=[(0.5, 0.5), (0.999, 0.001), (1.0, 1.0)])
    @example(x0=-3.7, y0=2.2, w=12.1, h=11.1, rows=9, cols=13,
             fractions=[(0.5, 0.5), (0.999, 0.001), (1.0, 1.0)])
    @settings(max_examples=60, deadline=None)
    def test_every_point_in_exactly_one_cell(self, x0, y0, w, h, rows, cols, fractions):
        model = GridSensorModel(Rectangle(x0, y0, x0 + w, y0 + h), rows=rows, cols=cols)
        ws = model.workspace
        # edge points: each internal low edge belongs to the upper cell, and
        # the float just below it to the lower one (no overlap, no gap)
        y_mid = model.y_center_array[0]
        for col in range(1, cols):
            edge = model.cell_bounds(col)[0]
            assert _cells_containing(model, edge, y_mid) == [col]
            assert _cells_containing(model, np.nextafter(edge, -np.inf), y_mid) == [col - 1]
        x_mid = model.x_center_array[0]
        for row in range(1, rows):
            edge = model.cell_bounds(row * cols)[1]
            assert _cells_containing(model, x_mid, edge) == [row * cols]
            assert _cells_containing(model, x_mid, np.nextafter(edge, -np.inf)) == [
                (row - 1) * cols
            ]
        # the high workspace edges lie in no cell
        assert _cells_containing(model, ws.x_max, y_mid) == []
        assert _cells_containing(model, x_mid, ws.y_max) == []
        for fx, fy in fractions:
            x = min(ws.x_min + fx * (ws.x_max - ws.x_min), np.nextafter(ws.x_max, -np.inf))
            y = min(ws.y_min + fy * (ws.y_max - ws.y_min), np.nextafter(ws.y_max, -np.inf))
            assert len(_cells_containing(model, x, y)) == 1
            # a point in or around the workspace: cell_of agrees with the scan
            _cells_containing(model, ws.x_min + (2 * fx - 0.5) * w, ws.y_min + (2 * fy - 0.5) * h)


def _cell_of_each(model, xs, ys):
    """cell_of point by point, with n_cells for None: what cells_of must return."""
    return [model.n_cells if c is None else c for c in map(model.cell_of, xs, ys)]


class TestCellsOf:
    """cells_of is cell_of over arrays: the same cell for every point."""

    @pytest.mark.parametrize(
        "ws, rows, cols", [(Rectangle(0.0, 0.0, 1.1, 1.0), 3, 7), GRID_DENSE, OFFSET_GRID]
    )
    def test_matches_cell_of(self, ws, rows, cols):
        model = GridSensorModel(ws, rows=rows, cols=cols)
        rng = np.random.default_rng(5)
        # random points in and around the workspace
        xs = rng.uniform(ws.x_min - 1.0, ws.x_max + 1.0, 300).tolist()
        ys = rng.uniform(ws.y_min - 1.0, ws.y_max + 1.0, 300).tolist()
        # every edge crossing: the edge and its float neighbours, the high workspace edges included
        x_mid, y_mid = model.x_center_array[0], model.y_center_array[0]
        for edge in model.x_edges:
            xs += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
            ys += [y_mid] * 3
        for edge in model.y_edges:
            xs += [x_mid] * 3
            ys += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        for bad in (np.inf, -np.inf, np.nan):
            xs += [bad, x_mid, bad]
            ys += [y_mid, bad, bad]
        got = model.cells_of(np.array(xs), np.array(ys))
        assert got.dtype.kind == "i"
        assert got.tolist() == _cell_of_each(model, xs, ys)
        assert model.n_cells in got.tolist() and set(range(cols)) <= set(got.tolist())

    def test_high_edges_and_non_finite_have_no_cell(self):
        ws, rows, cols = OFFSET_GRID
        model = GridSensorModel(ws, rows=rows, cols=cols)
        xs = np.array([ws.x_max, ws.x_min, np.nan, np.inf, -np.inf, ws.x_min])
        ys = np.array([ws.y_min, ws.y_max, ws.y_min, ws.y_min, ws.y_min, np.nan])
        assert model.cells_of(xs, ys).tolist() == [model.n_cells] * 6
        assert model.cells_of(np.array([ws.x_min]), np.array([ws.y_min])).tolist() == [0]

    def test_empty_input(self):
        model = GridSensorModel(WORKSPACE)
        assert model.cells_of(np.zeros(0), np.zeros(0)).shape == (0,)

    def test_birth_tables_have_cell_center_bits_and_are_read_only(self):
        ws, rows, cols = OFFSET_GRID
        model = GridSensorModel(ws, rows=rows, cols=cols)
        centres = [(0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi))  # each cell's midpoint, row-major
                   for x_lo, y_lo, x_hi, y_hi in map(model.cell_bounds, range(model.n_cells))]
        assert centres == [(x, y) for y in model.y_center_array.tolist()
                           for x in model.x_center_array.tolist()]
        width, height = model.x_edges[1] - model.x_edges[0], model.y_edges[1] - model.y_edges[0]
        want = np.diag([width**2 / 12, 1.0, height**2 / 12, 1.0])
        assert model.birth_cov.tolist() == want.tolist()
        for table in (model.x_edge_array, model.y_edge_array, model.x_center_array,
                      model.y_center_array, model.birth_cov):
            assert not table.flags.writeable

    @given(
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
        st.floats(1e-2, 1e3),
        st.floats(1e-2, 1e3),
        st.integers(1, 30),
        st.integers(1, 30),
        st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_grids(self, x0, y0, w, h, rows, cols, fractions):
        model = GridSensorModel(Rectangle(x0, y0, x0 + w, y0 + h), rows=rows, cols=cols)
        xs = [x0 + fx * w for fx, _ in fractions] + list(model.x_edges)
        ys = [y0 + fy * h for _, fy in fractions] + list(model.y_edges)[:1] * (cols + 1)
        assert model.cells_of(np.array(xs), np.array(ys)).tolist() == _cell_of_each(model, xs, ys)


class TestSelectCells:
    def test_random_full_coverage(self):
        model = GridSensorModel(WORKSPACE, m_cells=144)
        cells = select_cells("random", model, np.random.default_rng(0))
        assert sorted(cells) == list(range(144))

    def test_round_robin_sweeps(self):
        model = GridSensorModel(WORKSPACE, m_cells=12)
        rng = np.random.default_rng(0)
        assert_array_equal(select_cells("round_robin", model, rng, step=0), np.arange(0, 12))
        assert_array_equal(select_cells("round_robin", model, rng, step=1), np.arange(12, 24))
        assert_array_equal(select_cells("round_robin", model, rng, step=12), np.arange(0, 12))

    def test_random_reproducible(self):
        model = GridSensorModel(WORKSPACE, m_cells=10)
        a = select_cells("random", model, np.random.default_rng(77))
        b = select_cells("random", model, np.random.default_rng(77))
        assert_array_equal(a, b)
        assert len(set(a.tolist())) == 10

    def test_fixed_list(self):
        model = GridSensorModel(WORKSPACE, m_cells=3)
        cells = select_cells("fixed_list", model, np.random.default_rng(0), fixed=[5, 6])
        assert_array_equal(cells, [5, 6])
        with pytest.raises(ValueError):
            select_cells("fixed_list", model, np.random.default_rng(0))

    def test_fixed_list_rejects_empty_list(self):
        # as ExperimentSetup does: an empty list would also read as a float array
        model = GridSensorModel(WORKSPACE, m_cells=3)
        with pytest.raises(ValueError, match="requires a cell list"):
            select_cells("fixed_list", model, np.random.default_rng(0), fixed=[])

    @pytest.mark.parametrize("strategy", ["random", "round_robin", "fixed_list"])
    def test_returns_int64_array(self, strategy):
        model = GridSensorModel(WORKSPACE, m_cells=5)
        cells = select_cells(strategy, model, np.random.default_rng(3), step=40, fixed=[7, 7, 0])
        assert isinstance(cells, np.ndarray)
        assert cells.dtype == np.int64 and cells.ndim == 1

    def test_round_robin_wraps_past_last_cell(self):
        model = GridSensorModel(WORKSPACE, m_cells=10)
        cells = select_cells("round_robin", model, np.random.default_rng(0), step=14)
        assert cells.tolist() == [140, 141, 142, 143, 0, 1, 2, 3, 4, 5]

    def test_unknown_strategy(self):
        model = GridSensorModel(WORKSPACE)
        with pytest.raises(ValueError):
            select_cells("greedy", model, np.random.default_rng(0))


class TestModelValidation:
    def test_p_d_range(self):
        with pytest.raises(ValueError):
            GridSensorModel(WORKSPACE, p_d=1.0)

    def test_snr_positive(self):
        with pytest.raises(ValueError):
            GridSensorModel(WORKSPACE, snr=0.0)

    @pytest.mark.parametrize("snr", [math.nan, math.inf])
    def test_snr_finite(self, snr):
        with pytest.raises(ValueError, match="finite"):
            GridSensorModel(WORKSPACE, snr=snr)

    @pytest.mark.parametrize("rows, cols", [(0, 12), (12, 0)])
    def test_grid_needs_a_cell(self, rows, cols):
        with pytest.raises(ValueError):
            GridSensorModel(WORKSPACE, rows=rows, cols=cols)

    def test_mean_sensor_shape_check(self):
        with pytest.raises(ValueError):
            MeanSensorModel(R=np.eye(3), position_projection=position_projection())

    def test_mean_sensor_r_must_be_psd(self):
        # numpy would only warn at every draw and sample a wrong distribution
        with pytest.raises(ValueError, match="R must be positive semidefinite"):
            MeanSensorModel(R=[[1.0, 2.0], [2.0, 1.0]], position_projection=position_projection())

    def test_mean_sensor_model_is_frozen(self):
        r = np.eye(2)
        model = MeanSensorModel(R=r, position_projection=position_projection())
        r[0, 0] = 9.0  # the model keeps its own copy
        assert_array_equal(model.R, np.eye(2))
        with pytest.raises(FrozenInstanceError):
            model.R = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.R[0, 0] = 5.0
