import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtt.cli import read_particles_json, run_command, write_csv
from mtt.config import parse_config_text
from mtt.sim import StepRecord, TrackingLog

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


def _record(step, truth, rmse, card_err, cardinality=1.0):
    return StepRecord(
        step=step,
        true_states=np.asarray(truth, dtype=float),
        measurement=None,
        means=np.zeros((1, 4)),
        covs=np.eye(4)[None],
        weights=np.ones(1),
        cardinality=cardinality,
        rmse=rmse,
        card_err=card_err,
    )


class TestWriteCsv:
    def test_empty_log_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(TrackingLog([]), path, n_targets=0)
        assert path.read_text() == "step,cardinality_est,rmse,card_err\n"

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        log = TrackingLog([_record(0, [[1.0, 0, 2.0, 0]], 0.5, 0.25)])
        write_csv(log, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "step,true_x_1,true_y_1,cardinality_est,rmse,card_err"
        assert lines[1] == "0,1,2,1,0.5,0.25"

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        log = TrackingLog([_record(0, [[1.0, 0, 2.0, 0]], 1.0 / 3.0, 0.0)])
        write_csv(log, path)
        assert "0.333333333" in path.read_text()

    def test_lf_newlines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(TrackingLog([]), path, n_targets=0)
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
        assert snapshot.setup.snr == 10.0

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
        manifest = json.loads((out_eval / "manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_eval_missing_log_is_runtime_error(self, tmp_path):
        assert run_command(["eval", "--log", str(tmp_path / "nope.json")]) == 2

    def test_eval_round_trips_empty_gpf_steps(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(EMPTY_STEPS_CFG)
        out = tmp_path / "t"
        assert run_command(["track", "--config", str(cfg), "--filter", "gpf",
                            "--sensor", "grid", "--out", str(out)]) == 0
        _, tracking_log, _, _ = read_particles_json(out / "particles.json")
        counts = [len(rec.weights) for rec in tracking_log.records]
        assert counts[0] == 0 and max(counts) > 0
        rec = tracking_log.records[0]
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
        truth, _, _, _ = read_particles_json(out / "particles.json")
        assert truth.shape == (4, 0, 4)
        out_eval = tmp_path / "e"
        assert run_command(["eval", "--log", str(out / "particles.json"),
                            "--out", str(out_eval)]) == 0
        assert (out_eval / "eval_metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

# Mutations of one logged particle that `eval` must reject as a config error.
_MALFORMED_PARTICLES = {
    "no_weight": lambda p: p.pop("weight"),
    "no_mean": lambda p: p.pop("mean"),
    "no_cov": lambda p: p.pop("cov"),
    "nan_weight": lambda p: p.update(weight=float("nan")),
    "weight_above_one": lambda p: p.update(weight=1.5),
    "negative_weight": lambda p: p.update(weight=-0.25),
    "inf_mean": lambda p: p.update(mean=[1.0, 2.0, 3.0, float("inf")]),
    "short_mean": lambda p: p.update(mean=[1.0, 2.0]),
    "nested_mean": lambda p: p.update(mean=[[1.0, 2.0], [3.0, 4.0]]),
    "text_mean": lambda p: p.update(mean=[1.0, 2.0, 3.0, "x"]),
    "cov_3x3": lambda p: p.update(cov=np.eye(3).tolist()),
    "nan_cov": lambda p: p["cov"][1].__setitem__(2, float("nan")),
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
    payload = json.loads(json.dumps(gpf_mean_log))
    _MALFORMED_PARTICLES[mutation](payload["steps"][3]["particles"][0])
    path = tmp_path / "particles.json"
    path.write_text(json.dumps(payload))
    assert run_command(["eval", "--log", str(path), "--out", str(tmp_path / "e")]) == 1
    assert "step 3" in capfd.readouterr().err
    assert not (tmp_path / "e" / "eval_metrics.csv").exists()



# Mutations of one logged step's own fields that `eval` must reject as a config error.
_MALFORMED_STEPS = {
    "no_cardinality": lambda s: s.pop("cardinality"),
    "no_step": lambda s: s.pop("step"),
    "ragged_truth": lambda s: s.update(truth=[[1.0, 2.0, 3.0, 4.0], [1.0, 2.0]]),
    "text_weight": lambda s: s["particles"][0].update(weight="0.5"),
    "bool_weight": lambda s: s["particles"][0].update(weight=True),
    "text_cardinality": lambda s: s.update(cardinality="0.5"),
    "bool_cardinality": lambda s: s.update(cardinality=True),
    "text_truth": lambda s: s["truth"][0].__setitem__(1, "0.5"),
    "text_cov": lambda s: s["particles"][0]["cov"][2].__setitem__(2, "1.0"),
    "bool_mean": lambda s: s["particles"][0]["mean"].__setitem__(0, True),
    "null_truth": lambda s: s["truth"][0].__setitem__(3, None),
}


@pytest.mark.parametrize("mutation", sorted(_MALFORMED_STEPS))
def test_eval_rejects_malformed_step(mutation, tmp_path, capfd):
    golden = Path(__file__).parent / "golden" / "gpf_mean_1target" / "particles.json"
    payload = json.loads(golden.read_text(encoding="utf-8"))
    _MALFORMED_STEPS[mutation](payload["steps"][3])
    path = tmp_path / "particles.json"
    path.write_text(json.dumps(payload))
    assert run_command(["eval", "--log", str(path), "--out", str(tmp_path / "e")]) == 1
    assert "step 3" in capfd.readouterr().err
    assert not (tmp_path / "e" / "eval_metrics.csv").exists()

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
        # aggregate rows equal the per-seed means
        row = agg[1].split(",")
        per_step = [
            float(line.split(",")[-2])
            for line in (out / "seed_1" / "metrics.csv").read_text().splitlines()[1:]
        ]
        assert float(row[1]) == pytest.approx(np.mean(per_step), rel=1e-7)

    def test_seed_list_spec(self, cfg_file, tmp_path):
        out = tmp_path / "sweep2"
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", "4,9",
                            "--out", str(out)]) == 0
        assert (out / "seed_4").is_dir() and (out / "seed_9").is_dir()

    def test_bad_seed_spec_is_config_error(self, cfg_file, tmp_path):
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", "x..y",
                            "--out", str(tmp_path / "s")]) == 1

    def test_bad_seed_list_is_config_error(self, cfg_file, tmp_path, capfd):
        assert run_command(["sweep", "--config", str(cfg_file), "--seeds", "1,x",
                            "--out", str(tmp_path / "s")]) == 1
        assert "bad seed list '1,x'" in capfd.readouterr().err


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
    # a mean given as a string at step 3 and a truth given as strings at step 4
    golden = Path(__file__).parent / "golden" / "gpf_mean_1target" / "particles.json"
    payload = json.loads(golden.read_text(encoding="utf-8"))
    mean = payload["steps"][3]["particles"][0]["mean"]
    mean[0] = str(mean[0])
    payload["steps"][4]["truth"] = [[str(v) for v in row] for row in payload["steps"][4]["truth"]]
    path = tmp_path / "particles.json"
    path.write_text(json.dumps(payload))
    assert run_command(["eval", "--log", str(path), "--out", str(tmp_path / "e")]) == 1
    err = capfd.readouterr().err
    assert "config error" in err and "step 3" in err and "not numbers" in err
    assert not (tmp_path / "e" / "eval_metrics.csv").exists()


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

    def test_runtime_error_exit_code(self, tmp_path):
        # kf with two targets is an unsupported combination -> runtime error
        cfg = tmp_path / "two.cfg"
        cfg.write_text("scenario.n_targets = 2\nscenario.n_steps = 2\n")
        assert run_command(["track", "--config", str(cfg), "--filter", "kf",
                            "--sensor", "mean", "--out", str(tmp_path / "o")]) == 2


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the metrics on first use, not at CLI start-up
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, mtt.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
