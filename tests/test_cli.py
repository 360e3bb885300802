import argparse
import base64
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtt import cli, sim
from mtt.cli import read_particles_json, run_command, write_csv, write_particles_json
from mtt.config import parse_config_text
from mtt.sim import StepRecord, run_experiment

SMALL_GRID_CFG = """
scenario.n_targets = 2
scenario.n_steps = 6
scenario.tau = 0.1
scenario.q_diag = 0.02,0.002,0.02,0.002
scenario.seed = 5
scenario.initial_states = 3,0,3,0; 9,0,9,0
sensor.snr = 10
sensor.m_cells = 36
gpf.w_prune = 0.05
gpf.d_thresh = 4.0
"""


# A target that starts outside the grid and walks into the watched row of cells:
# the GPF belief is empty for the first steps.
EMPTY_STEPS_CFG = """
scenario.n_targets = 1
scenario.n_steps = 8
scenario.q_diag = 0,0,0,0
scenario.initial_states = 14,-0.5,6.5,0
sensor.snr = 30
sensor.strategy = fixed_list
sensor.fixed_cells = 76,77,78,79,80,81,82,83
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_GRID_CFG)
    return path


def _record(truth, rmse, card_err, ospa, cardinality=1.0):
    return StepRecord(
        true_states=np.asarray(truth, dtype=float),
        measurement=None,
        means=np.zeros((1, 4)),
        covs=np.eye(4)[None],
        weights=np.ones(1),
        cardinality=cardinality,
        rmse=rmse,
        card_err=card_err,
        ospa=ospa,
    )


class TestWriteCsv:
    def test_empty_log_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv([], path)
        assert path.read_text() == "step,cardinality_est,rmse,card_err,ospa\n"

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv([_record([[1.0, 0, 2.0, 0]], 0.5, 0.25, 0.75)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "step,true_x_1,true_y_1,cardinality_est,rmse,card_err,ospa"
        assert lines[1] == "0,1,2,1,0.5,0.25,0.75"

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv([_record([[1.0, 0, 2.0, 0]], 1.0 / 3.0, 0.0, 0.0)], path)
        assert "0.333333333" in path.read_text()

    def test_lf_newlines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv([], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestTrack:
    def test_outputs_and_determinism(self, cfg_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_command(["track", "--config", str(cfg_file), "--seed", "7",
                            "--out", str(out_a)]) == 0
        assert run_command(["track", "--config", str(cfg_file), "--seed", "7",
                            "--out", str(out_b)]) == 0
        for name in ("metrics.csv", "particles.json", "manifest.json"):
            assert (out_a / name).exists()
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "particles.json").read_bytes() == (out_b / "particles.json").read_bytes()

    def test_seed_changes_output(self, cfg_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_command(["track", "--config", str(cfg_file), "--seed", "1", "--out", str(out_a)])
        run_command(["track", "--config", str(cfg_file), "--seed", "2", "--out", str(out_b)])
        assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()

    def test_manifest_contents(self, cfg_file, tmp_path):
        out = tmp_path / "m"
        run_command(["track", "--config", str(cfg_file), "--seed", "7", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "track"
        assert (manifest["filter"], manifest["sensor"]) == ("gpf", "grid")
        listed = {p.split("/")[-1] for p in manifest["outputs"]}
        assert listed == {"metrics.csv", "particles.json"}
        # the config snapshot reloads to the same run configuration
        snapshot = parse_config_text(manifest["config"])
        assert snapshot.scenario.n_steps == 6
        assert snapshot.setup.sensor_snr == 10.0

    def test_mean_sensor_kf(self, tmp_path):
        cfg = tmp_path / "kf.cfg"
        cfg.write_text(
            "scenario.n_targets = 1\nscenario.n_steps = 4\n"
            "scenario.q_diag = 0.1,0.01,0.1,0.01\n"
            "scenario.initial_states = 6,0,6,0\n"
        )
        out = tmp_path / "kf_out"
        code = run_command(["track", "--config", str(cfg), "--filter", "kf",
                            "--sensor", "mean", "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()


class TestEval:
    def test_eval_reproduces_track_metrics(self, cfg_file, tmp_path):
        out = tmp_path / "t"
        run_command(["track", "--config", str(cfg_file), "--seed", "3", "--out", str(out)])
        out_eval = tmp_path / "e"
        code = run_command(["eval", "--log", str(out / "particles.json"),
                            "--out", str(out_eval)])
        assert code == 0
        track_csv = (out / "metrics.csv").read_text()
        eval_csv = (out_eval / "eval_metrics.csv").read_text()
        assert eval_csv == track_csv
        manifest = json.loads((out_eval / "eval_manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_eval_keeps_the_track_manifest(self, cfg_file, tmp_path):
        # eval's default --out is the log's directory, where the track run's manifest is
        out = tmp_path / "t"
        run_command(["track", "--config", str(cfg_file), "--seed", "3", "--out", str(out)])
        track_manifest = (out / "manifest.json").read_bytes()
        assert run_command(["eval", "--log", str(out / "particles.json")]) == 0
        assert (out / "manifest.json").read_bytes() == track_manifest
        manifest = json.loads((out / "eval_manifest.json").read_text())
        assert manifest["command"] == "eval"
        assert [Path(p).name for p in manifest["outputs"]] == ["eval_metrics.csv"]

    def test_eval_missing_log_is_runtime_error(self, tmp_path):
        assert run_command(["eval", "--log", str(tmp_path / "nope.json")]) == 2

    def test_eval_log_that_is_a_directory_is_config_error(self, tmp_path, capfd):
        log_dir = tmp_path / "particles.json"
        log_dir.mkdir()
        assert run_command(["eval", "--log", str(log_dir), "--out", str(tmp_path / "e")]) == 1
        err = capfd.readouterr().err
        assert f"mtt: config error: {log_dir} is a directory, not a particle log" in err, err
        assert not (tmp_path / "e").exists()

    def test_eval_round_trips_empty_gpf_steps(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(EMPTY_STEPS_CFG)
        out = tmp_path / "t"
        assert run_command(["track", "--config", str(cfg), "--filter", "gpf",
                            "--sensor", "grid", "--out", str(out)]) == 0
        records, _, _ = read_particles_json(out / "particles.json")
        counts = [len(rec.weights) for rec in records]
        assert counts[0] == 0 and max(counts) > 0
        rec = records[0]
        assert (rec.weights.shape, rec.means.shape, rec.covs.shape) == ((0,), (0, 4), (0, 4, 4))
        out_eval = tmp_path / "e"
        assert run_command(["eval", "--log", str(out / "particles.json"),
                            "--out", str(out_eval)]) == 0
        assert (out_eval / "eval_metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

    def test_eval_round_trips_zero_target_run(self, tmp_path):
        cfg = tmp_path / "none.cfg"
        cfg.write_text("scenario.n_targets = 0\nscenario.n_steps = 4\n")
        out = tmp_path / "t"
        assert run_command(["track", "--config", str(cfg), "--filter", "gpf",
                            "--sensor", "grid", "--out", str(out)]) == 0
        records, _, _ = read_particles_json(out / "particles.json")
        assert [rec.true_states.shape for rec in records] == [(0, 4)] * 4
        out_eval = tmp_path / "e"
        assert run_command(["eval", "--log", str(out / "particles.json"),
                            "--out", str(out_eval)]) == 0
        assert (out_eval / "eval_metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

_ONE_TARGET_CFG = """
scenario.n_targets = 1
scenario.n_steps = 6
scenario.initial_states = 6,0,6,0
pf.n_particles = 200
"""


def _logged_run(text, filter_choice, sensor_choice, path, seed=3):
    """A run of the config text, with its particle log written to path: (config, records)."""
    config = parse_config_text(text)
    records = run_experiment(config.scenario, filter_choice, sensor_choice,
                             np.random.default_rng(seed), config.setup)
    write_particles_json(records, config, filter_choice, sensor_choice, seed, path)
    return config, records


def _assert_same_bytes(written, read):
    """Every logged array and cardinality reads back with its shape, dtype and bytes."""
    assert len(read) == len(written)
    for a, b in zip(written, read):
        for name in ("weights", "means", "covs", "true_states"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), name
        if isinstance(a.measurement, np.ndarray):
            assert a.measurement.tobytes() == b.measurement.tobytes()
        else:
            assert a.measurement == b.measurement
    cards = [np.array([rec.cardinality for rec in records]) for records in (written, read)]
    assert cards[0].tobytes() == cards[1].tobytes()


class _NoList(np.ndarray):
    """An array whose tolist fails: the particle log must not call it."""

    def tolist(self):
        raise AssertionError("the particle log converted a logged array to lists")


class TestParticleLog:
    @pytest.mark.parametrize("filter_choice, sensor_choice, text", [
        ("kf", "mean", _ONE_TARGET_CFG),
        ("pf", "mean", _ONE_TARGET_CFG),
        ("gpf", "mean", _ONE_TARGET_CFG),
        ("gpf", "grid", SMALL_GRID_CFG),
        ("gpf", "grid", EMPTY_STEPS_CFG),
        ("gpf", "grid", "scenario.n_targets = 0\nscenario.n_steps = 4\n"),
    ], ids=["kf_mean", "pf_mean", "gpf_mean", "gpf_grid", "gpf_grid_empty_steps",
            "gpf_grid_no_targets"])
    def test_round_trip_keeps_bytes(self, filter_choice, sensor_choice, text, tmp_path):
        path = tmp_path / "particles.json"
        _, written = _logged_run(text, filter_choice, sensor_choice, path)
        _assert_same_bytes(written, read_particles_json(path)[0])
        if filter_choice == "pf":  # np.cov's rounding leaves the cov asymmetric in its last bit
            assert any((c != c.T).any() for rec in written for c in rec.covs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_keeps_edge_floats(self, data):
        edge = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308])
        numbers = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
        weights = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 1.0]), st.floats(0.0, 1.0))

        def array(elements, *shape):
            size = int(np.prod(shape))
            return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                            dtype=float).reshape(shape)

        # gpf on the mean sensor needs a target; TestEval round-trips a zero-target grid run
        n_steps, n_targets = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        records = []
        for _ in range(n_steps):
            n = data.draw(st.integers(0, 3))
            records.append(StepRecord(array(numbers, n_targets, 4), array(numbers, 2),
                                      means=array(numbers, n, 4), covs=array(numbers, n, 4, 4),
                                      weights=array(weights, n),
                                      cardinality=data.draw(numbers)))
        config = parse_config_text(f"scenario.n_targets = {n_targets}\n"
                                   f"scenario.n_steps = {n_steps}\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "particles.json"
            write_particles_json(records, config, "gpf", "mean", 0, path)
            _assert_same_bytes(records, read_particles_json(path)[0])

    @pytest.mark.parametrize("filter_choice, sensor_choice, text", [
        ("gpf", "grid", SMALL_GRID_CFG),
        ("gpf", "mean", _ONE_TARGET_CFG),
    ], ids=["grid", "mean"])
    def test_log_is_sorted_compact_json(self, filter_choice, sensor_choice, text, tmp_path):
        # the columns are written between quotes as they are, and the file is
        # still json.dumps of its payload with sorted keys and no spaces
        path = tmp_path / "particles.json"
        _logged_run(text, filter_choice, sensor_choice, path)
        written = path.read_text(encoding="utf-8")
        payload = json.loads(written)
        assert written == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert {"weights", "means", "covs", "truth"} <= payload.keys()

    def test_log_holds_no_list_per_particle(self, tmp_path):
        # the cost of the log grows with the steps, not with the particles or cells
        path = tmp_path / "particles.json"
        config, records = _logged_run(SMALL_GRID_CFG, "gpf", "grid", path)
        n_steps = config.scenario.n_steps
        assert sum(len(rec.weights) for rec in records) > n_steps

        def longest(value) -> int:
            if isinstance(value, dict):
                return max(map(longest, value.values()), default=0)
            return max([len(value), *map(longest, value)]) if isinstance(value, list) else 0

        assert longest(json.loads(path.read_text())) == n_steps
        for rec in records:
            for name in ("weights", "means", "covs", "true_states"):
                setattr(rec, name, getattr(rec, name).view(_NoList))
        again = tmp_path / "again.json"
        write_particles_json(records, config, "gpf", "grid", 3, again)
        assert again.read_bytes() == path.read_bytes()


def test_new_sensor_record_needs_no_cli_change(tmp_path, monkeypatch):
    # a third sensor: the mean sensor's model and measurement, logged under its own column
    # key; track, eval and the log reader take all they need from its record
    fake = sim.SENSORS["mean"]._replace(columns={"z_fake": ("<f8", (2,))})
    monkeypatch.setitem(sim.SENSORS, "fake", fake)
    cfg, out = tmp_path / "one.cfg", tmp_path / "t"
    cfg.write_text(_ONE_TARGET_CFG)
    assert run_command(["track", "--config", str(cfg), "--filter", "kf", "--sensor", "fake",
                        "--out", str(out)]) == 0
    assert run_command(["eval", "--log", str(out / "particles.json"),
                        "--out", str(tmp_path / "e")]) == 0
    assert (tmp_path / "e" / "eval_metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
    payload = json.loads((out / "particles.json").read_text())
    assert payload["sensor"] == "fake" and "z_fake" in payload and "z" not in payload
    path = tmp_path / "particles.json"
    _, written = _logged_run(_ONE_TARGET_CFG, "kf", "fake", path)
    _assert_same_bytes(written, read_particles_json(path)[0])


# The per-particle arrays of a v2 log, each little-endian float64: key -> shape of one row.
_ROW_SHAPES = {"weights": (), "means": (4,), "covs": (4, 4), "truth": (4,)}


def _rows(payload, key):
    """The log's `key` array, decoded into a writable copy of its rows."""
    raw = base64.b64decode(payload[key])
    return np.frombuffer(raw, "<f8").reshape(-1, *_ROW_SHAPES[key]).copy()


def _encoded(rows):
    return base64.b64encode(np.ascontiguousarray(rows, "<f8").tobytes()).decode("ascii")


def _set_row(key, index, value, step=3):
    """A mutation that sets `index` of the first particle row of `step` in the log's `key`."""
    def mutate(payload):
        rows = _rows(payload, key)
        rows[(sum(payload["n_particles"][:step]), *index)] = value
        return {**payload, key: _encoded(rows)}
    return mutate


def _set_truth(step, index, value):
    """A mutation that sets `index` of the first target's true state at `step`."""
    def mutate(payload):
        rows = _rows(payload, "truth")
        n_targets = len(rows) // len(payload["n_particles"])
        rows[step * n_targets, index] = value
        return {**payload, "truth": _encoded(rows)}
    return mutate


def _edit_rows(key, edit):
    """A mutation that replaces the log's `key` with the encoding of edit(rows)."""
    return lambda payload: {**payload, key: _encoded(edit(_rows(payload, key)))}


def _without(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _with(**changes):
    return lambda payload: {**payload, **changes}


def _set_entry(key, step, value):
    """A mutation that sets the log's per-step list `key` at `step`."""
    def mutate(payload):
        entries = list(payload[key])
        entries[step] = value
        return {**payload, key: entries}
    return mutate


def _rejects(payload, expected, tmp_path, capfd):
    """`eval` of the changed log (a dict, or the file's text or bytes) is a config error
    naming the log and `expected`, and writes nothing."""
    path = tmp_path / "particles.json"
    if not isinstance(payload, (str, bytes)):
        payload = json.dumps(payload)
    path.write_bytes(payload.encode() if isinstance(payload, str) else payload)
    assert run_command(["eval", "--log", str(path), "--out", str(tmp_path / "e")]) == 1
    err = capfd.readouterr().err
    assert "config error" in err and str(path) in err and expected in err, err
    assert not (tmp_path / "e").exists()
    return err


def _golden_log(case="gpf_mean_1target"):
    return json.loads((Path(__file__).parent / "golden" / case / "particles.json").read_text())


# Defects of a logged particle that `eval` must reject as a config error: each
# maps the log to the changed log, and gives what the message must name.  A
# bad value names its step; an array of the wrong size or form names its key.
_MALFORMED_PARTICLES = {
    "no_weight": (_without("weights"), "'weights'"),
    "no_mean": (_without("means"), "'means'"),
    "no_cov": (_without("covs"), "'covs'"),
    "nan_weight": (_set_row("weights", (), float("nan")), "step 3"),
    "weight_above_one": (_set_row("weights", (), 1.5), "step 3"),
    "negative_weight": (_set_row("weights", (), -0.25), "step 3"),
    "inf_mean": (_set_row("means", (3,), float("inf")), "step 3"),
    "short_mean": (_edit_rows("means", lambda rows: rows.ravel()[:-2]), "'means'"),
    "nested_mean": (lambda p: {**p, "means": _rows(p, "means").tolist()}, "'means'"),
    "text_mean": (_with(means="1.0,2.0,3.0,x"), "'means'"),
    "cov_3x3": (_edit_rows("covs", lambda rows: rows.ravel()[:-7]), "'covs'"),
    "nan_cov": (_set_row("covs", (1, 2), float("nan")), "step 3"),
}


@pytest.fixture(scope="module")
def gpf_mean_log(tmp_path_factory):
    work = tmp_path_factory.mktemp("gpf_mean")
    cfg = work / "one.cfg"
    cfg.write_text("scenario.n_targets = 1\nscenario.n_steps = 5\n"
                   "scenario.initial_states = 6,0,6,0\n")
    assert run_command(["track", "--config", str(cfg), "--filter", "gpf", "--sensor", "mean",
                        "--out", str(work / "t")]) == 0
    return json.loads((work / "t" / "particles.json").read_text())


@pytest.mark.parametrize("mutation", sorted(_MALFORMED_PARTICLES))
def test_eval_rejects_malformed_particle(mutation, gpf_mean_log, tmp_path, capfd):
    mutate, expected = _MALFORMED_PARTICLES[mutation]
    _rejects(mutate(dict(gpf_mean_log)), expected, tmp_path, capfd)


# Defects of a logged step that `eval` must reject as a config error, as above.
# Text, a bool or null where a v2 log holds an array's base64 is rejected as
# that array's key; text or a bool inside an array cannot occur.
_MALFORMED_STEPS = {
    "no_cardinality": (_without("cardinality"), "'cardinality'"),
    "ragged_truth": (_edit_rows("truth", lambda rows: rows.ravel()[:-2]), "'truth'"),
    "text_weight": (_with(weights="0.5"), "'weights'"),
    "bool_weight": (_with(weights=True), "'weights'"),
    "text_cardinality": (_set_entry("cardinality", 3, "0.5"), "step 3"),
    "bool_cardinality": (_set_entry("cardinality", 3, True), "step 3"),
    "nan_cardinality": (_set_entry("cardinality", 3, float("nan")), "step 3"),
    "nan_truth_position": (_set_truth(2, 0, float("nan")), "step 2"),
    "nan_truth_velocity": (_set_truth(2, 1, float("nan")), "step 2"),
    "text_truth": (_with(truth="1.0,2.0"), "'truth'"),
    "text_cov": (_with(covs="1.0"), "'covs'"),
    "bool_mean": (_with(means=True), "'means'"),
    "null_truth": (_with(truth=None), "'truth'"),
    "negative_n_particles": (_set_entry("n_particles", 3, -1), "step 3"),
    "bool_n_particles": (_set_entry("n_particles", 3, True), "step 3"),
    "float_n_particles": (_set_entry("n_particles", 3, 1.0), "step 3"),
    # one particle more at step 3 than the weights hold
    "n_particles_disagrees_with_bytes": (
        lambda p: _set_entry("n_particles", 3, p["n_particles"][3] + 1)(p), "'weights'"),
    "wrapped_base64": (lambda p: {**p, "covs": base64.encodebytes(
        base64.b64decode(p["covs"])).decode("ascii")}, "'covs'"),
    "stray_base64_character": (lambda p: {**p, "means": "!" + p["means"]}, "'means'"),
}


@pytest.mark.parametrize("mutation", sorted(_MALFORMED_STEPS))
def test_eval_rejects_malformed_step(mutation, tmp_path, capfd):
    mutate, expected = _MALFORMED_STEPS[mutation]
    _rejects(mutate(_golden_log()), expected, tmp_path, capfd)


# Whole-log defects that `eval` must reject as a config error naming the key:
# each maps the golden log to the new payload, or to the file's text.  A v2
# log's steps are its per-step lists, and n_particles splits the arrays by step.
_MALFORMED_LOGS = {
    "no_steps": (_without("n_particles"), "'n_particles'"),
    "steps_not_list": (_with(n_particles={}), "'n_particles'"),
    "short_step_list": (lambda p: {**p, "rmse": p["rmse"][:-1]}, "'rmse'"),
    "no_seed": (_without("seed"), "seed"),
    "float_seed": (_with(seed=1.5), "seed"),
    "negative_seed": (_with(seed=-1), "seed"),
    "no_config": (_without("config"), "'config'"),
    "config_not_parsing": (_with(config="bogus line"), "'config'"),
    "unknown_sensor": (_with(sensor="radar"), "'sensor'"),
    "unknown_filter": (_with(filter="bogus"), "filter of the mean sensor = 'bogus'"),
    "no_filter": (_without("filter"), "filter of the mean sensor = None"),
    "grid_log_relabelled_kf": (lambda p: {**_golden_log("gpf_grid_ospa"), "filter": "kf"},
                               "filter of the grid sensor = 'kf'"),
    "v1_log": (lambda p: {"schema": "mtt-particle-log-v1", "config": p["config"],
                          "seed": p["seed"], "steps": []},
               "an mtt-particle-log-v1 log; this mtt reads mtt-particle-log-v2"),
    "top_level_list": (lambda payload: [payload], "not an mtt particle log"),
    "not_json": (lambda payload: "{not json", "is not JSON"),
    "not_utf8": (lambda payload: json.dumps(payload).encode("utf-16"), "is not JSON"),
}


@pytest.mark.parametrize("defect", sorted(_MALFORMED_LOGS))
def test_eval_rejects_malformed_log(defect, tmp_path, capfd):
    mutate, key = _MALFORMED_LOGS[defect]
    _rejects(mutate(_golden_log()), key, tmp_path, capfd)


@pytest.mark.parametrize("line", ["gpf.merge_cov = moment", "gpf.clutter_density = auto",
                                  "metrics.ospa = false"])
def test_eval_rejects_a_log_with_a_removed_key(line, tmp_path, capfd):
    # a log written while the config had this key holds it in its config snapshot
    payload = _golden_log()
    key = line.split(" = ")[0]
    _rejects({**payload, "config": payload["config"] + line + "\n"}, f"unknown key {key!r}",
             tmp_path, capfd)


def test_eval_accepts_a_filter_track_runs(tmp_path):
    # a one-target mean log could have come from the pf: its filter passes the check
    path = tmp_path / "particles.json"
    path.write_text(json.dumps({**_golden_log(), "filter": "pf"}))
    assert run_command(["eval", "--log", str(path), "--out", str(tmp_path / "e")]) == 0


# Defects of a logged measurement, as above: each names the golden run whose log
# it changes.  A grid log splits its cells and values by n_cells; a mean log holds
# one z row per step.
_MALFORMED_MEASUREMENTS = {
    "grid_no_n_cells": ("gpf_grid_ospa", _without("n_cells"), "'n_cells'"),
    "grid_short_n_cells": ("gpf_grid_ospa", lambda p: {**p, "n_cells": p["n_cells"][:-1]},
                           "'n_cells'"),
    "grid_negative_n_cells": ("gpf_grid_ospa", _set_entry("n_cells", 3, -1), "step 3"),
    "grid_bool_n_cells": ("gpf_grid_ospa", _set_entry("n_cells", 3, True), "step 3"),
    # one cell more at step 3 than the cells hold
    "n_cells_disagrees_with_bytes": (
        "gpf_grid_ospa", lambda p: _set_entry("n_cells", 3, p["n_cells"][3] + 1)(p), "'cells'"),
    "grid_log_relabelled_mean": ("gpf_grid_ospa", _with(sensor="mean"), "'z'"),
    "mean_log_relabelled_grid": ("gpf_mean_1target", _with(sensor="grid"), "'n_cells'"),
    "mean_no_z": ("gpf_mean_1target", _without("z"), "'z'"),
}


@pytest.mark.parametrize("defect", sorted(_MALFORMED_MEASUREMENTS))
def test_eval_rejects_malformed_measurement(defect, tmp_path, capfd):
    case, mutate, expected = _MALFORMED_MEASUREMENTS[defect]
    _rejects(mutate(_golden_log(case)), expected, tmp_path, capfd)


def test_eval_rejects_grid_return_outside_0_1(tmp_path, capfd):
    payload = _golden_log("gpf_grid_ospa")
    values = bytearray(base64.b64decode(payload["values"]))
    values[sum(payload["n_cells"][:3])] = 2
    payload["values"] = base64.b64encode(bytes(values)).decode("ascii")
    _rejects(payload, "step 3: the measurement is not cell returns", tmp_path, capfd)


@pytest.mark.parametrize(
    "args, config, label",
    [(["track"], "scenario.seed = -1\n", "scenario.seed"),
     (["track", "--seed", "-5"], "", "--seed"),
     (["simulate", "--seed", "-5"], "", "--seed"),
     (["sweep", "--seeds=-1..1"], "", "--seeds")],
    ids=["config_key", "track_option", "simulate_option", "sweep_range"],
)
def test_negative_seed_is_config_error(args, config, label, tmp_path, capfd):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario.n_targets = 1\nscenario.n_steps = 2\n" + config)
    out = tmp_path / "out"
    assert run_command(args + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert label in err and "non-negative" in err
    assert not out.exists()


class TestSweep:
    def test_sweep_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "sweep"
        code = run_command(["sweep", "--config", str(cfg_file), "--seeds", "1..3",
                            "--out", str(out)])
        assert code == 0
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "seed,mean_rmse,mean_card_err"
        assert len(agg) == 4
        for seed in (1, 2, 3):
            metrics = (out / f"seed_{seed}" / "metrics.csv").read_text().splitlines()
            assert len(metrics) == 7  # header + 6 steps
        # aggregate rows equal the per-seed means, each column read by its name
        aggregate = dict(zip(agg[0].split(","), agg[1].split(",")))
        with (out / "seed_1" / "metrics.csv").open(newline="") as fh:
            steps = list(csv.DictReader(fh))
        for name in ("rmse", "card_err"):
            per_step = [float(step[name]) for step in steps]
            assert float(aggregate[f"mean_{name}"]) == pytest.approx(np.mean(per_step), rel=1e-7)
        # summary.csv: the mean and spread (ddof 0) across seeds of the aggregate columns
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "n_seeds,mean_rmse,std_rmse,mean_card_err,std_card_err"
        assert len(summary) == 2
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert row["n_seeds"] == "3"
        with (out / "aggregate.csv").open(newline="") as fh:
            seeds = list(csv.DictReader(fh))
        for name in ("rmse", "card_err"):
            per_seed = [float(seed[f"mean_{name}"]) for seed in seeds]
            assert float(row[f"mean_{name}"]) == pytest.approx(np.mean(per_seed), rel=1e-7)
            assert float(row[f"std_{name}"]) == pytest.approx(np.std(per_seed), rel=1e-7)
        manifest = json.loads((out / "manifest.json").read_text())
        assert [Path(p).name for p in manifest["outputs"][-2:]] == ["aggregate.csv",
                                                                    "summary.csv"]

    def test_seed_list_spec(self, cfg_file, tmp_path):
        out = tmp_path / "sweep2"
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", "4,9",
                            "--out", str(out)]) == 0
        assert (out / "seed_4").is_dir() and (out / "seed_9").is_dir()

    def test_bad_seed_spec_is_config_error(self, cfg_file, tmp_path):
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", "x..y",
                            "--out", str(tmp_path / "s")]) == 1

    @pytest.mark.parametrize("option", ["--seed", "--see"])
    def test_seed_option_is_usage_error(self, cfg_file, tmp_path, option):
        # a sweep takes only --seeds, and argparse reads no prefix of an option
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as raised:
            run_command(["sweep", "--config", str(cfg_file), "--seeds", "1..2", option, "-5",
                         "--out", str(out)])
        assert raised.value.code == 2
        assert not out.exists()

    def test_repeated_seed_is_config_error(self, cfg_file, tmp_path, capfd):
        # a repeated seed would run twice into one seed_4/ and repeat its aggregate row
        out = tmp_path / "s"
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", "4,9,4",
                            "--out", str(out)]) == 1
        assert "--seeds names seed 4 more than once" in capfd.readouterr().err
        assert not out.exists()

    def test_bad_seed_list_is_config_error(self, cfg_file, tmp_path, capfd):
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", "1,x",
                            "--out", str(tmp_path / "s")]) == 1
        assert "bad seed list '1,x'" in capfd.readouterr().err

    @pytest.mark.parametrize("seeds", ["1,,2", "1,2,"])
    def test_empty_seed_entry_is_config_error(self, cfg_file, tmp_path, capfd, seeds):
        # the list splits as a config file's lists do: no entry is dropped
        out = tmp_path / "s"
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", seeds,
                            "--out", str(out)]) == 1
        assert f"--seeds: empty entry in the list {seeds!r}" in capfd.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_truth_csv(self, cfg_file, tmp_path):
        out = tmp_path / "sim"
        assert run_command(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        lines = (out / "truth.csv").read_text().splitlines()
        assert lines[0] == "step,true_x_1,true_y_1,true_x_2,true_y_2"
        assert len(lines) == 7


class TestLogging:
    def test_mtt_log_env_levels(self, cfg_file, tmp_path, monkeypatch, capfd):
        monkeypatch.setenv("MTT_LOG", "info")
        out = tmp_path / "log_out"
        assert run_command(["track", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert "mtt: INFO" in capfd.readouterr().err

    def test_unknown_level_falls_back(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.setenv("MTT_LOG", "chatty")
        out = tmp_path / "log_out2"
        assert run_command(["track", "--config", str(cfg_file), "--out", str(out)]) == 0


def test_eval_rejects_numeric_strings_at_first_bad_step(tmp_path, capfd):
    # a cardinality given as a string at step 3 and a particle count at step 4
    payload = _golden_log()
    payload["cardinality"][3] = str(payload["cardinality"][3])
    payload["n_particles"][4] = str(payload["n_particles"][4])
    err = _rejects(payload, "step 3", tmp_path, capfd)
    assert "is not a number" in err


def test_module_run_reports_missing_log(tmp_path):
    # `python -m mtt.cli` runs the CLI, as the mtt entry point does
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "mtt.cli", "eval", "--log",
                             str(tmp_path / "nonexistent.json")],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert "mtt: error:" in result.stderr and "nonexistent.json" in result.stderr


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert run_command(["track", "--config", str(tmp_path / "no.cfg"),
                            "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("make", [lambda path: path.mkdir(),
                                      lambda path: path.write_bytes(b"\xff\xfe")],
                             ids=["directory", "not_utf8"])
    def test_config_that_is_not_text_is_config_error(self, tmp_path, capfd, make):
        cfg = tmp_path / "run.cfg"
        make(cfg)
        assert run_command(["track", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capfd.readouterr().err
        assert f"mtt: config error: config file {cfg} cannot be read as text" in err, err
        assert not (tmp_path / "o").exists()

    def test_config_error_is_reported_once(self, tmp_path, capfd):
        missing = tmp_path / "no.cfg"
        assert run_command(["track", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        err = capfd.readouterr().err
        assert err.count(f"config file not found: {missing}") == 1, err

    def test_invalid_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gpf.epsilon = 2.0\n")
        assert run_command(["track", "--config", str(cfg),
                            "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "bad",
        ["scenario.q_diag = -1,0,0,0", "sensor.r_diag = 1,1,1", "sensor.r_diag = -1,-1",
         "gpf.init_cov_diag = 0,0,-1,0", "scenario.q_diag = nan,0,0,0"],
    )
    def test_bad_noise_value_is_config_error(self, tmp_path, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario.n_targets = 1\nscenario.n_steps = 2\n" + bad + "\n")
        for filt in ("gpf", "kf"):
            assert run_command(["track", "--config", str(cfg), "--filter", filt,
                                "--sensor", "mean", "--out", str(tmp_path / "o")]) == 1

    def test_bad_fixed_cells_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sensor.strategy = fixed_list\nsensor.fixed_cells = 3,200\n")
        assert run_command(["track", "--config", str(cfg), "--sensor", "grid",
                            "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("config, keys", [
        ("sensor.fixed_cells = 1,2,3\nsensor.m_cells = 2",
         ["sensor.fixed_cells", "sensor.m_cells"]),
        ("sensor.strategy = fixed_list", ["sensor.strategy", "sensor.fixed_cells"]),
        ("sensor.fixed_cells = 200", ["sensor.fixed_cells"]),
        ("scenario.n_targets = 2\nscenario.initial_states = 1,2,3,4",
         ["scenario.initial_states", "scenario.n_targets"]),
    ], ids=["more_fixed_cells_than_m_cells", "fixed_list_without_cells",
            "fixed_cell_outside_the_grid", "initial_states_not_one_per_target"])
    def test_error_across_keys_names_them(self, tmp_path, capfd, config, keys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\n")
        assert run_command(["track", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capfd.readouterr().err
        assert "mtt: config error:" in err and all(key in err for key in keys), err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_file"])
    @pytest.mark.parametrize("command", ["simulate", "track", "eval", "sweep"])
    def test_out_that_cannot_be_a_directory_is_config_error(self, cfg_file, tmp_path, capfd,
                                                            monkeypatch, command, under):
        track = tmp_path / "t"
        assert run_command(["track", "--config", str(cfg_file), "--out", str(track)]) == 0
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub" if under else taken

        def no_run(*args, **kwargs):  # each command checks --out before it computes
            raise AssertionError("ran before --out was checked")

        for name in ("generate_truth", "run_experiment", "evaluate_metrics"):
            monkeypatch.setattr(cli, name, no_run)
        inputs = {"eval": ["--log", str(track / "particles.json")],
                  "sweep": ["--config", str(cfg_file), "--seeds", "1..2"]}
        args = inputs.get(command, ["--config", str(cfg_file)])
        assert run_command([command, *args, "--out", str(out)]) == 1
        err = capfd.readouterr().err
        assert f"mtt: config error: --out {out}: {taken} is not a directory" in err, err
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("command, name", [
        ("simulate", "truth.csv"), ("track", "metrics.csv"), ("eval", "eval_metrics.csv"),
        ("sweep", "aggregate.csv"), ("sweep", "seed_2/particles.json")])
    def test_output_name_that_is_a_directory_is_config_error(self, cfg_file, tmp_path, capfd,
                                                             monkeypatch, command, name):
        # checked before any run, which would otherwise end in IsADirectoryError (exit 2)
        track = tmp_path / "t"
        assert run_command(["track", "--config", str(cfg_file), "--out", str(track)]) == 0
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))

        def no_run(*args, **kwargs):
            raise AssertionError("ran before the output names were checked")

        for fn in ("generate_truth", "run_experiment", "evaluate_metrics"):
            monkeypatch.setattr(cli, fn, no_run)
        inputs = {"eval": ["--log", str(track / "particles.json")],
                  "sweep": ["--config", str(cfg_file), "--seeds", "1..2"]}
        args = inputs.get(command, ["--config", str(cfg_file)])
        assert run_command([command, *args, "--out", str(out)]) == 1
        err = capfd.readouterr().err
        taken = out / name
        assert (f"mtt: config error: --out {taken.parent}: {taken} is a directory, "
                "not an output file") in err, err
        assert sorted(tmp_path.rglob("*")) == before  # no directory made

    def test_out_that_is_a_dangling_link_is_config_error(self, cfg_file, tmp_path, capfd):
        out = tmp_path / "link"
        out.symlink_to(tmp_path / "nowhere")
        assert run_command(["track", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert f"--out {out}: {out} is not a directory" in capfd.readouterr().err
        assert out.is_symlink() and not (tmp_path / "nowhere").exists()

    def test_sweep_checks_each_seed_directory_before_any_run(self, cfg_file, tmp_path, capfd,
                                                             monkeypatch):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "seed_2").write_text("")
        monkeypatch.setattr(cli, "run_experiment", lambda *args: 1 / 0)
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", "1..2",
                            "--out", str(out)]) == 1
        assert f"{out / 'seed_2'} is not a directory" in capfd.readouterr().err
        assert list(out.iterdir()) == [out / "seed_2"]

    @pytest.mark.parametrize("particles", [1, 2])
    def test_pf_that_cannot_resample_is_config_error(self, tmp_path, capsys, particles):
        # at the default ess_ratio 0.5 these runs could never resample, and their
        # weights collapse onto one particle, whose logged covariance is NaN
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scenario.n_targets = 1\nscenario.n_steps = 20\n"
                       f"pf.n_particles = {particles}\n")
        assert run_command(["track", "--config", str(cfg), "--filter", "pf",
                            "--sensor", "mean", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "pf.ess_ratio" in err and "pf.n_particles" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("r_diag", ["0,0", "0.5,0"])
    def test_pf_with_a_singular_r_is_config_error(self, tmp_path, capfd, r_diag):
        # the pf likelihood is a density in R: at 0,0 the run failed mid-way, and at
        # 0.5,0 the likelihood vanished for every particle, so no measurement counted
        runs = "scenario.n_targets = 1\nscenario.n_steps = 5\npf.n_particles = 50\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{runs}sensor.r_diag = {r_diag}\n")
        for command, seeds in (("track", []), ("sweep", ["--seeds", "1..2"])):
            assert run_command([command, "--config", str(cfg), "--filter", "pf",
                                "--sensor", "mean", "--out", str(tmp_path / "o"), *seeds]) == 1
            err = capfd.readouterr().err
            assert "config error" in err and "positive definite" in err, err
            assert not (tmp_path / "o").exists()
        # a logged pf run whose config holds that R is rejected by eval too
        good = tmp_path / "good.cfg"
        good.write_text(runs)
        assert run_command(["track", "--config", str(good), "--filter", "pf",
                            "--sensor", "mean", "--out", str(tmp_path / "t")]) == 0
        payload = json.loads((tmp_path / "t" / "particles.json").read_text())
        logged = payload["config"].replace("sensor.r_diag = 0.5,0.5\n",
                                           f"sensor.r_diag = {r_diag}\n")
        assert logged != payload["config"]
        _rejects({**payload, "config": logged}, "positive definite", tmp_path, capfd)
        # kf and gpf update through H P H' + R, which the prior keeps positive definite
        for filt in ("kf", "gpf"):
            assert run_command(["track", "--config", str(cfg), "--filter", filt,
                                "--sensor", "mean", "--out", str(tmp_path / filt)]) == 0

    @pytest.mark.parametrize("filter_choice", ["kf", "gpf"])
    def test_distance_cap_whose_square_overflows_is_config_error(self, tmp_path, capfd,
                                                                 filter_choice):
        # cap**2 would overflow in the scoring after the run: the parser refuses the cap
        runs = "scenario.n_targets = 1\nscenario.n_steps = 3\n"
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(f"{runs}metrics.distance_cap = 1e200\n")
        assert run_command(["track", "--config", str(cfg), "--filter", filter_choice,
                            "--sensor", "mean", "--out", str(tmp_path / "o")]) == 1
        err = capfd.readouterr().err
        assert "config error" in err and "metrics.distance_cap" in err and "1e+150" in err, err
        assert not (tmp_path / "o").exists()
        # a cap below the bound runs, and a logged run whose config holds the cap is refused by eval
        good = tmp_path / "good.cfg"
        good.write_text(f"{runs}metrics.distance_cap = 1e149\n")
        assert run_command(["track", "--config", str(good), "--filter", filter_choice,
                            "--sensor", "mean", "--out", str(tmp_path / "t")]) == 0
        payload = json.loads((tmp_path / "t" / "particles.json").read_text())
        logged = payload["config"].replace("metrics.distance_cap = 1e+149\n",
                                           "metrics.distance_cap = 1e+200\n")
        assert logged != payload["config"]
        _rejects({**payload, "config": logged}, "metrics.distance_cap", tmp_path, capfd)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("filter_choice, message", [
        ("pf", "step 0: a pf cov is not finite"), ("kf", "step 0: a kf mean is not finite"),
        ("gpf", "means and covs must be finite")])
    def test_run_whose_belief_overflows_makes_no_directory(self, tmp_path, capfd,
                                                          filter_choice, message):
        # tau = 1e300 overflows F: the pf ran on to a log that eval refused, and the kf
        # failed in the scoring; a logged mean or cov that is not finite now stops the
        # run once it is over (the gpf stops at the step), and no directory is made
        cfg = tmp_path / "tau.cfg"
        cfg.write_text("scenario.n_targets = 1\nscenario.n_steps = 5\nscenario.tau = 1e300\n"
                       "pf.n_particles = 50\n")
        assert run_command(["track", "--config", str(cfg), "--filter", filter_choice,
                            "--sensor", "mean", "--out", str(tmp_path / "o")]) == 2
        err = capfd.readouterr().err
        assert message in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("filter_choice", ["kf", "pf", "gpf"])
    def test_workspace_of_infinite_area_is_config_error(self, tmp_path, capfd, filter_choice):
        # the gpf named clutter_density = 0.0, not a key, and the kf and pf ran with
        # overflow warnings; the parser names the workspace for every filter
        cfg = tmp_path / "ws.cfg"
        cfg.write_text("scenario.n_targets = 1\nscenario.n_steps = 3\n"
                       "scenario.workspace = 0,0,1e300,1e300\n")
        assert run_command(["track", "--config", str(cfg), "--filter", filter_choice,
                            "--sensor", "mean", "--out", str(tmp_path / "o")]) == 1
        err = capfd.readouterr().err
        assert "config error" in err and "scenario.workspace" in err, err
        assert "clutter_density" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("filter_choice", ["kf", "gpf"])
    def test_thin_workspace_scores_without_warnings(self, tmp_path, filter_choice):
        # a 1e200 x 1e-200 workspace has area 1, and its distances overflow when squared:
        # the cap makes those entries exact, so the scoring warns of nothing (the suite
        # turns warnings into errors), and eval of the log writes the same metrics
        cfg = tmp_path / "ws.cfg"
        cfg.write_text("scenario.n_targets = 1\nscenario.n_steps = 3\n"
                       "scenario.workspace = 0,0,1e200,1e-200\n")
        out = tmp_path / "o"
        assert run_command(["track", "--config", str(cfg), "--filter", filter_choice,
                            "--sensor", "mean", "--out", str(out)]) == 0
        assert run_command(["eval", "--log", str(out / "particles.json")]) == 0
        metrics = (out / "metrics.csv").read_bytes()
        assert metrics == (out / "eval_metrics.csv").read_bytes()
        rmse = [row.split(",")[4] for row in metrics.decode().splitlines()[1:]]
        assert rmse == ["5"] * 3  # each distance is far past the cap

    def test_grid_births_below_the_prune_is_config_error(self, tmp_path, capsys):
        # every birth would be pruned in its own step: the run would never hold a row,
        # so the GpfConfig's check rejects it before any directory is made
        cfg = tmp_path / "births.cfg"
        cfg.write_text("scenario.n_steps = 10\ngpf.w_birth = 0.01\ngpf.w_prune = 0.05\n")
        for command, seeds in (("track", []), ("sweep", ["--seeds", "1..2"])):
            assert run_command([command, "--config", str(cfg), "--sensor", "grid",
                                "--out", str(tmp_path / "o"), *seeds]) == 1
            err = capsys.readouterr().err
            assert "config error" in err and "w_birth 0.01" in err and "w_prune 0.05" in err
            assert not (tmp_path / "o").exists()
        # the mean sensor makes no births
        assert run_command(["track", "--config", str(cfg), "--sensor", "mean",
                            "--out", str(tmp_path / "m")]) == 0

    def test_many_slow_targets_in_view_run(self, tmp_path):
        # all 25 rows stay in view: the enumeration is bounded by epsilon, not the row count
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("scenario.n_targets = 25\nscenario.n_steps = 5\n"
                       "scenario.tau = 0.001\nscenario.q_diag = 0.02,0.0002,0.02,0.0002\n")
        assert run_command(["track", "--config", str(cfg), "--seed", "1", "--sensor", "mean",
                            "--out", str(tmp_path / "o")]) == 0

    def test_runtime_error_exit_code(self, tmp_path):
        # kf with two targets can never run: a config error, found before any directory
        # is made (the eval tests on a missing log cover exit 2)
        cfg = tmp_path / "two.cfg"
        cfg.write_text("scenario.n_targets = 2\nscenario.n_steps = 2\n")
        assert run_command(["track", "--config", str(cfg), "--filter", "kf",
                            "--sensor", "mean", "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["track", "sweep"])
    @pytest.mark.parametrize("filter_choice, sensor_choice, n_targets, message", [
        ("kf", "grid", 1, "filter of the grid sensor = 'kf'"),
        ("pf", "grid", 1, "filter of the grid sensor = 'pf'"),
        ("pf", "mean", 3, "scenario.n_targets of pf on the mean sensor = 3"),
        ("kf", "mean", 0, "scenario.n_targets of kf on the mean sensor = 0"),
        ("gpf", "mean", 0, "scenario.n_targets of gpf on the mean sensor = 0"),
    ])
    def test_unrunnable_choice_is_config_error(self, tmp_path, capsys, command, filter_choice,
                                               sensor_choice, n_targets, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario.n_targets = {n_targets}\nscenario.n_steps = 2\n")
        seeds = ["--seeds", "1..2"] if command == "sweep" else []
        assert run_command([command, "--config", str(cfg), "--filter", filter_choice,
                            "--sensor", sensor_choice, "--out", str(tmp_path / "o"),
                            *seeds]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _after_fresh_import(expr: str) -> str:
    """What a fresh interpreter prints for expr right after `import sys, mtt.cli`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", f"import sys, mtt.cli; print({expr})"],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_leaves_scipy_unloaded(cfg_file, tmp_path):
    # the runtime needs no scipy: neither start-up nor a scored track or eval run loads it
    loaded = "sorted(m for m in sys.modules if m.startswith('scipy'))"
    assert _after_fresh_import(loaded) == "[]"
    mean, grid = tmp_path / "mean", tmp_path / "grid"
    for commands in (
        [["track", "--config", str(cfg_file), "--sensor", "mean", "--out", str(mean)]],
        [["track", "--config", str(cfg_file), "--sensor", "grid", "--out", str(grid)],
         ["eval", "--log", str(grid / "particles.json")]],
    ):
        ran = f"[mtt.cli.run_command(argv) for argv in {commands!r}]"
        assert _after_fresh_import(f"{ran}, {loaded}") == f"{[0] * len(commands)} []"
    assert (mean / "metrics.csv").exists() and (grid / "eval_metrics.csv").exists()


def test_parser_built_once_at_the_first_command(cfg_file, tmp_path, monkeypatch, capsys):
    # not at import, which start-up time counts; then every call, one after an argv error
    # too, parses with that one parser
    assert _after_fresh_import("mtt.cli._build_parser.cache_info().currsize") == "0"
    cli._build_parser.cache_clear()
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "mtt":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    with pytest.raises(SystemExit) as raised:
        run_command(["track", "--config", str(cfg_file), "--filter", "bogus"])
    assert raised.value.code == 2
    out = tmp_path / "sim"
    assert run_command(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert (out / "truth.csv").exists()
    assert len(built) == 1
