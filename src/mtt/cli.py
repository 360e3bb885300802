"""Command-line front end: `mtt <simulate|track|eval|sweep>`.

Every run writes its results (CSV metrics, JSON particle log) plus a
manifest that pins the config snapshot, seed, and output paths, so any
run can be reproduced from its manifest alone.  Identical config and
seed give byte-identical metrics CSV output.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, dump_config, load_config, parse_config_text
from .domains import check_field
from .motion import POSITION_IDX
from .sim import (FILTERS, SENSORS, ScenarioConfig, StepRecord, TrackingLog, evaluate_metrics,
                  generate_truth, run_experiment)

log = logging.getLogger("mtt")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("MTT_LOG", "warn").lower(), logging.WARNING)
    # rebuild the handler so it always points at the current stderr
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("mtt: %(levelname)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(level)


def _fmt9(value: float) -> str:
    """Floating-point CSV cell with 9 significant digits."""
    return "%.9g" % value


def _truth_header(n_targets: int) -> list[str]:
    return ["step"] + [f"true_{c}_{i}" for i in range(1, n_targets + 1) for c in "xy"]


def _truth_row(step: int, states: np.ndarray, n_targets: int) -> list[str]:
    """The step and the first n_targets true (x, y) positions, formatted."""
    return [str(step)] + [_fmt9(states[i][j]) for i in range(n_targets) for j in POSITION_IDX]


def write_csv(tracking_log: TrackingLog, path: Path, n_targets: int | None = None) -> None:
    """Per-step metrics CSV: step, truth positions, cardinality, errors.

    Header row always present; floats carry 9 significant digits; lines
    end with LF.
    """
    if n_targets is None:
        n_targets = len(tracking_log.records[0].true_states) if tracking_log.records else 0
    with_ospa = bool(tracking_log.records) and tracking_log.records[0].ospa is not None
    header = _truth_header(n_targets) + ["cardinality_est", "rmse", "card_err"]
    if with_ospa:
        header.append("ospa")
    lines = [",".join(header)]
    for rec in tracking_log.records:
        row = _truth_row(rec.step, rec.true_states, n_targets)
        row += [_fmt9(rec.cardinality), _fmt9(rec.rmse), _fmt9(rec.card_err)]
        if with_ospa:
            row.append(_fmt9(rec.ospa))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_truth_csv(truth: np.ndarray, path: Path) -> None:
    n_targets = truth.shape[1]
    lines = [",".join(_truth_header(n_targets))]
    lines += [",".join(_truth_row(k, states, n_targets)) for k, states in enumerate(truth)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_particles_json(
    tracking_log: TrackingLog,
    config: ExperimentConfig,
    filter_choice: str,
    sensor_choice: str,
    seed: int,
    path: Path,
) -> None:
    """Full per-step particle log (means, covariances, weights) as JSON."""
    steps = [
        {
            "step": rec.step,
            "truth": rec.true_states.tolist(),
            "measurement": rec.measurement,
            "particles": [
                {"weight": w, "mean": m, "cov": c}
                for m, c, w in zip(rec.means.tolist(), rec.covs.tolist(), rec.weights.tolist())
            ],
            "cardinality": rec.cardinality,
            "rmse": rec.rmse,
            "card_err": rec.card_err,
            "ospa": rec.ospa,
        }
        for rec in tracking_log.records
    ]
    payload = {
        "schema": "mtt-particle-log-v1",
        "config": dump_config(config),
        "filter": filter_choice,
        "sensor": sensor_choice,
        "seed": seed,
        "steps": steps,
    }
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def _json_numbers(value) -> bool:
    """Whether value is a JSON number or nested lists of them (strings and booleans are not)."""
    return all(map(_json_numbers, value)) if type(value) is list else type(value) in (int, float)


def _step_record(k: int, entry: dict, path: Path) -> StepRecord:
    """Step k of a particle log: truth (n_targets, 4), means (n, 4), covs (n, 4, 4), weights (n,).

    Raises ConfigError, naming the step, for an entry that is not a JSON object, a
    missing step or particle field, a truth, mean, cov, step, cardinality or weight
    that is not JSON numbers (strings and booleans are not), a truth that is not rows
    of 4, a mean that is not 4 finite numbers, a cov that is not 4x4 finite numbers,
    or a weight outside [0, 1].
    """
    where = f"{path}: step {k}"
    if type(entry) is not dict:
        raise ConfigError(f"{where}: the step is not a JSON object")
    try:  # no particles read as (0, 4), (0, 4, 4) and (0,); no targets, [], as (0, 4)
        step, measurement, particles = entry["step"], entry["measurement"], entry["particles"]
        arrays = [entry["truth"], *(p[f] for p in particles for f in ("mean", "cov"))]
        if not all(map(_json_numbers, arrays)):  # np.array would read "1.5" and true
            raise ValueError("not numbers")
        truth = np.array(entry["truth"], dtype=float)
        truth = truth.reshape(len(truth), 4)
        means = np.array([p["mean"] for p in particles] or np.zeros((0, 4)), dtype=float)
        covs = np.array([p["cov"] for p in particles] or np.zeros((0, 4, 4)), dtype=float)
        numbers = [entry["cardinality"], *(p["weight"] for p in particles)]
    except KeyError as exc:
        raise ConfigError(f"{where}: the step or a particle has no {exc.args[0]}") from None
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: the truth or a particle mean or cov is not numbers") from None
    if type(step) is not int or not _json_numbers(numbers):
        raise ConfigError(f"{where}: the step, cardinality or a particle weight is not a number")
    n, weights = len(particles), np.array(numbers[1:], dtype=float)
    if means.shape != (n, 4):
        raise ConfigError(f"{where}: a particle mean is not 4 numbers")
    if covs.shape != (n, 4, 4):
        raise ConfigError(f"{where}: a particle cov is not 4x4 numbers")
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise ConfigError(f"{where}: a particle mean or cov is not finite")
    if not ((weights >= 0.0) & (weights <= 1.0)).all():  # NaN fails
        raise ConfigError(f"{where}: a particle weight is not a number in [0, 1]")
    return StepRecord(step, truth, measurement, means=means, covs=covs, weights=weights,
                      cardinality=float(numbers[0]))


def read_particles_json(path: Path) -> tuple[np.ndarray, TrackingLog, ExperimentConfig, int]:
    """Truth, tracking log, config and seed of a `track` run's particle log.

    ConfigError, naming the path and the key, if the file is not JSON, not
    an object with the log's schema, a config string, a seed that
    ScenarioConfig allows and a list of steps, or holds a malformed step or
    particle.  A missing file raises OSError.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    if type(payload) is not dict or payload.get("schema") != "mtt-particle-log-v1":
        raise ConfigError(f"{path} is not an mtt particle log")
    for key, kind, name in (("config", str, "a string"), ("steps", list, "a list")):
        if type(payload.get(key)) is not kind:
            raise ConfigError(f"{path}: {key!r} is missing or not {name}")
    seed = _checked_seed(payload.get("seed"), f"{path}: seed")
    try:
        config = parse_config_text(payload["config"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: 'config' does not parse: {exc}") from None
    records = [_step_record(k, entry, path) for k, entry in enumerate(payload["steps"])]
    truth = np.asarray([rec.true_states for rec in records], dtype=float)
    return truth, TrackingLog(records), config, seed


def write_manifest(
    out_dir: Path,
    command: str,
    config: ExperimentConfig,
    seed: int,
    outputs: list[Path],
    extra: dict | None = None,
) -> Path:
    manifest = {
        "tool": "mtt",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": dump_config(config),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
        **(extra or {}),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def _checked_seed(seed: int, label: str) -> int:
    """seed, if ScenarioConfig.seed's declared domain allows it; else ConfigError."""
    try:
        check_field(ScenarioConfig, "seed", seed, label)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return seed


def _resolve_seed(args, config: ExperimentConfig) -> int:
    return config.scenario.seed if args.seed is None else _checked_seed(args.seed, "--seed")


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    seed = _resolve_seed(args, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    truth = generate_truth(config.scenario, rng)
    truth_path = out_dir / "truth.csv"
    write_truth_csv(truth, truth_path)
    write_manifest(out_dir, "simulate", config, seed, [truth_path])
    log.info("wrote %s", truth_path)
    return 0


def _run_tracked(config: ExperimentConfig, filter_choice: str, sensor_choice: str,
                 seed: int, out_dir: Path) -> TrackingLog:
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    tracking_log = run_experiment(
        config.scenario, filter_choice, sensor_choice, rng, config.setup
    )
    metrics_path = out_dir / "metrics.csv"
    particles_path = out_dir / "particles.json"
    write_csv(tracking_log, metrics_path, config.scenario.n_targets)
    write_particles_json(
        tracking_log, config, filter_choice, sensor_choice, seed, particles_path
    )
    write_manifest(
        out_dir,
        "track",
        config,
        seed,
        [metrics_path, particles_path],
        extra={"filter": filter_choice, "sensor": sensor_choice},
    )
    return tracking_log


def _cmd_track(args) -> int:
    config = load_config(args.config)
    seed = _resolve_seed(args, config)
    _run_tracked(config, args.filter, args.sensor, seed, Path(args.out))
    log.info("tracked %d steps into %s", config.scenario.n_steps, args.out)
    return 0


def _cmd_eval(args) -> int:
    truth, tracking_log, config, seed = read_particles_json(Path(args.log))
    out_dir = Path(args.out) if args.out else Path(args.log).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluate_metrics(
        truth,
        tracking_log,
        extraction_threshold=config.setup.extraction_threshold,
        distance_cap=config.setup.distance_cap,
        with_ospa=config.setup.with_ospa,
    )
    metrics_path = out_dir / "eval_metrics.csv"
    write_csv(tracking_log, metrics_path, config.scenario.n_targets)
    write_manifest(out_dir, "eval", config, seed, [metrics_path])
    log.info("wrote %s", metrics_path)
    return 0


def _parse_seeds(expr: str) -> list[int]:
    expr = expr.strip()
    lo, dots, hi = expr.partition("..")
    try:
        if dots:
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in expr.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad seed {'range' if dots else 'list'} {expr!r}") from exc


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    seeds = [_checked_seed(seed, "--seeds") for seed in _parse_seeds(args.seeds)]
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines, outputs = ["seed,mean_rmse,mean_card_err"], []
    for seed in seeds:
        run_dir = out_dir / f"seed_{seed}"
        tracking_log = _run_tracked(config, args.filter, args.sensor, seed, run_dir)
        rmse = float(np.mean([r.rmse for r in tracking_log.records]))
        card = float(np.mean([r.card_err for r in tracking_log.records]))
        lines.append(f"{seed},{_fmt9(rmse)},{_fmt9(card)}")
        outputs.append(run_dir / "metrics.csv")
        log.info("seed %d: mean rmse %.4g, mean card err %.4g", seed, rmse, card)
    agg_path = out_dir / "aggregate.csv"
    agg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(out_dir, "sweep", config, seeds[0], outputs + [agg_path],
                   extra={"seeds": seeds, "filter": args.filter, "sensor": args.sensor})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtt", description="Multi-target tracking experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, runs_filters: bool, seeded: bool = True) -> None:
        p.add_argument("--config", required=True, help="flat key = value config file")
        if seeded:  # a sweep takes its seeds from --seeds
            p.add_argument("--seed", type=int, default=None, help="override scenario.seed")
        p.add_argument("--out", default="mtt_out", help="output directory")
        if runs_filters:
            p.add_argument("--filter", choices=FILTERS, default="gpf")
            p.add_argument("--sensor", choices=SENSORS, default="grid")
        p.set_defaults(func=func)

    common(sub.add_parser("simulate", help="generate ground truth only"), _cmd_simulate, False)
    common(sub.add_parser("track", help="run a full tracking experiment"), _cmd_track, True)

    p_eval = sub.add_parser("eval", help="recompute metrics from a particle log")
    p_eval.add_argument("--log", required=True, help="particles.json from a track run")
    p_eval.add_argument("--out", default=None, help="output directory (default: log dir)")
    p_eval.set_defaults(func=_cmd_eval)

    # no prefix matching, which would read a --seed option as --seeds
    p_sweep = sub.add_parser("sweep", help="run a seed sweep", allow_abbrev=False)
    p_sweep.add_argument("--seeds", required=True, help="e.g. 1..20 or 3,5,9")
    common(p_sweep, _cmd_sweep, True, seeded=False)
    return parser


def run_command(argv: list[str] | None = None) -> int:
    """Entry point returning an exit code: 0 ok, 1 config error, 2 runtime."""
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("%s", exc)
        print(f"mtt: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.debug("runtime failure", exc_info=True)
        print(f"mtt: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
