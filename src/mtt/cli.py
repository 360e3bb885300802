"""Command-line front end: `mtt <simulate|track|eval|sweep>`.

Every run writes its results (CSV metrics, JSON particle log) plus a
manifest that pins the config snapshot, seed, and output paths, so any
run can be reproduced from its manifest alone.  Identical config and
seed give byte-identical metrics CSV output.
"""

from __future__ import annotations

import argparse
import binascii
import datetime
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, _entries, dump_config, load_config,
                     parse_config_text)
from .domains import check_field
from .motion import POSITION_IDX
from .sim import (FILTERS, SENSORS, ScenarioConfig, StepRecord, check_run, evaluate_metrics,
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


def _truth_row(step: int, states: np.ndarray) -> list[str]:
    """The step and each target's true (x, y) position, formatted from Python floats."""
    return [str(step)] + [_fmt9(state[j]) for state in states.tolist() for j in POSITION_IDX]


def write_csv(records: list[StepRecord], path: Path) -> None:
    """Per-step metrics CSV: step, truth positions, cardinality_est, rmse, card_err, ospa.

    Header row always present (with no target columns for no records); floats carry
    9 significant digits; lines end with LF.
    """
    n_targets = len(records[0].true_states) if records else 0
    header = _truth_header(n_targets) + ["cardinality_est", "rmse", "card_err", "ospa"]
    lines = [",".join(header)]
    for k, rec in enumerate(records):
        row = _truth_row(k, rec.true_states)
        row += [_fmt9(rec.cardinality), _fmt9(rec.rmse), _fmt9(rec.card_err), _fmt9(rec.ospa)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_truth_csv(truth: np.ndarray, path: Path) -> None:
    lines = [",".join(_truth_header(truth.shape[1]))]
    lines += [",".join(_truth_row(k, states)) for k, states in enumerate(truth)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


LOG_SCHEMA = "mtt-particle-log-v2"
# The per-step lists of every log; a sensor's record may name one more, its count.
_STEP_LISTS = ("n_particles", "cardinality", "rmse", "card_err", "ospa")
# Each array of a run, concatenated over its steps: key -> (dtype, shape of one row).
# The sensor's record gives the columns of its measurement.
_COLUMNS = {
    "weights": ("<f8", ()),
    "means": ("<f8", (4,)),
    "covs": ("<f8", (4, 4)),
    "truth": ("<f8", (4,)),
}


def _base64(dtype: str, arrays) -> bytes:
    """The values of arrays of one row shape, in order, as the base64 (ASCII bytes) of one
    run of dtype bytes: each array cast to dtype as astype would."""
    data = np.concatenate(arrays, dtype=dtype, casting="unsafe").tobytes()
    return binascii.b2a_base64(data, newline=False)


def write_particles_json(
    records: list[StepRecord],
    config: ExperimentConfig,
    filter_choice: str,
    sensor_choice: str,
    seed: int,
    path: Path,
) -> None:
    """The run's particle log, mtt-particle-log-v2 (README): the per-step lists, and each
    array of the run (weights, means, covs, truth, measurement) written once, as base64.

    The text is json.dumps(payload, sort_keys=True, separators=(",", ":")) + newline,
    but only the small values go through json: base64 never needs escaping, so each
    column is written between quotes as it is."""
    kind = SENSORS[sensor_choice]
    steps = {"n_particles": [len(rec.weights) for rec in records],
             **{key: [getattr(rec, key) for rec in records] for key in _STEP_LISTS[1:]}}
    columns = {key: [getattr(rec, key) for rec in records] for key in ("weights", "means", "covs")}
    columns["truth"] = [rec.true_states for rec in records]
    packed = [kind.pack(rec.measurement) for rec in records]
    if kind.count:
        steps[kind.count] = [len(arrays[0]) for arrays in packed]
    columns.update({key: [arrays[i] for arrays in packed] for i, key in enumerate(kind.columns)})
    layout = {**_COLUMNS, **kind.columns}
    small = {
        "schema": LOG_SCHEMA,
        "config": dump_config(config),
        "filter": filter_choice,
        "sensor": sensor_choice,
        "seed": seed,
        **steps,
    }
    parts = []  # ASCII bytes: json escapes every other character
    for key in sorted([*small, *columns]):
        parts.append((("," if parts else "{") + json.dumps(key) + ":").encode())
        if key in columns:
            parts += [b'"', _base64(layout[key][0], columns[key]), b'"']
        else:
            parts.append(json.dumps(small[key], sort_keys=True, separators=(",", ":")).encode())
    with path.open("wb") as log:
        log.writelines(parts + [b"}\n"])


def _column(payload: dict, key: str, rows: int, path: Path, columns=_COLUMNS) -> np.ndarray:
    """payload[key] decoded into `rows` rows of columns[key].

    ConfigError, naming the key, for a value that is not canonical base64 (the
    string that encoding its bytes gives back) or does not hold exactly that many rows.
    """
    dtype, shape = columns[key]
    text = payload.get(key)
    try:  # a2b_base64 skips characters outside the alphabet, so encode back and compare
        raw = binascii.a2b_base64(text)
        canonical = binascii.b2a_base64(raw, newline=False).decode("ascii") == text
    except (TypeError, ValueError):  # not a string, bad padding, not ASCII
        canonical = False
    if not canonical:
        raise ConfigError(f"{path}: {key!r} is missing or not a base64 string")
    want = rows * np.dtype(dtype).itemsize * math.prod(shape)
    if len(raw) != want:
        raise ConfigError(f"{path}: {key!r} holds {len(raw)} bytes, but its {rows} rows "
                          f"take {want}")
    return np.frombuffer(raw, dtype).reshape(rows, *shape)


def _check_step_lists(payload: dict, count: str | None, n_steps: int, path: Path) -> None:
    """ConfigError, naming the key, for a per-step list (with the sensor's count, if it
    has one) that is missing or does not hold n_steps entries; and, naming the step, for
    a particle or measurement row count that is not a non-negative integer or a
    cardinality that is not a finite number (strings and booleans are neither)."""
    counts = ("n_particles", count) if count else ("n_particles",)
    for key in _STEP_LISTS + counts[1:]:
        if type(payload.get(key)) is not list or len(payload[key]) != n_steps:
            raise ConfigError(f"{path}: {key!r} is missing or not a list of {n_steps} steps")
    for k in range(n_steps):
        for key in counts:
            value = payload[key][k]
            if type(value) is not int or value < 0:
                raise ConfigError(f"{path}: step {k}: {key} {value!r} is not a count")
        value = payload["cardinality"][k]
        if type(value) not in (int, float):
            raise ConfigError(f"{path}: step {k}: the cardinality {value!r} is not a number")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: step {k}: the cardinality {value!r} is not finite")


def read_particles_json(path: Path) -> tuple[list[StepRecord], ExperimentConfig, int]:
    """The records (one per step), config and seed of a `track` run's particle log.

    ConfigError, naming the path and the key, if the file is a directory or not UTF-8
    JSON, not an object with the mtt-particle-log-v2 schema, a config string that
    parses, a seed that ScenarioConfig allows, a sensor, a filter that check_run
    allows on it, the per-step lists of the config's n_steps and canonical base64
    arrays of the lengths that the counts give; and, naming the step, for a bad
    count, a cardinality, mean, cov or true state that is not finite, a weight
    outside [0, 1] or a measurement that its sensor's record cannot unpack.  A
    missing file raises OSError.
    """
    try:  # not UTF-8 raises UnicodeDecodeError, a ValueError; a missing file's OSError passes
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except IsADirectoryError:
        raise ConfigError(f"{path} is a directory, not a particle log") from None
    except ValueError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    schema = payload.get("schema") if type(payload) is dict else None
    if schema != LOG_SCHEMA:
        found = f"an {schema} log" if schema == "mtt-particle-log-v1" else "not an mtt particle log"
        raise ConfigError(f"{path} is {found}; this mtt reads {LOG_SCHEMA}")
    if type(payload.get("config")) is not str:
        raise ConfigError(f"{path}: 'config' is missing or not a string")
    seed = _checked_seed(payload.get("seed"), f"{path}: seed")
    try:
        config = parse_config_text(payload["config"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: 'config' does not parse: {exc}") from None
    sensor = payload.get("sensor")
    if sensor not in SENSORS:
        raise ConfigError(f"{path}: 'sensor' is missing or not one of {', '.join(SENSORS)}")
    try:  # a filter and target count that `track` runs on this sensor
        check_run(config.scenario, payload.get("filter"), sensor, config.setup)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    n_steps, n_targets = config.scenario.n_steps, config.scenario.n_targets
    kind = SENSORS[sensor]
    _check_step_lists(payload, kind.count, n_steps, path)
    counts = payload["n_particles"]
    weights, means, covs = (_column(payload, key, sum(counts), path)
                            for key in ("weights", "means", "covs"))
    bounds = np.cumsum([0, *counts])  # fits in int64: the arrays above hold that many rows
    truth = _column(payload, "truth", n_steps * n_targets, path).reshape(n_steps, n_targets, 4)

    def step_of(bad: np.ndarray) -> int:  # the step that holds the first row flagged bad
        return int(np.searchsorted(bounds, np.argmax(bad), side="right")) - 1

    bad = ~(np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2)))
    if bad.any():
        raise ConfigError(f"{path}: step {step_of(bad)}: a particle mean or cov is not finite")
    bad = ~np.isfinite(truth).all(axis=(1, 2))
    if bad.any():
        raise ConfigError(f"{path}: step {int(np.argmax(bad))}: a true state is not finite")
    bad = ~((weights >= 0.0) & (weights <= 1.0))  # NaN fails
    if bad.any():
        raise ConfigError(f"{path}: step {step_of(bad)}: a particle weight is not a number "
                          "in [0, 1]")
    rows = payload[kind.count] if kind.count else [1] * n_steps
    arrays = [_column(payload, key, sum(rows), path, kind.columns) for key in kind.columns]
    row_bounds = np.cumsum([0, *rows])  # fits in int64, as bounds does
    measurements = []
    for k, (a, b) in enumerate(zip(row_bounds[:-1], row_bounds[1:])):
        try:
            measurements.append(kind.unpack(*(array[a:b] for array in arrays)))
        except ValueError as exc:
            raise ConfigError(f"{path}: step {k}: the measurement is not {kind.noun}: "
                              f"{exc}") from None
    records = [StepRecord(truth[k], measurements[k], means=means[a:b], covs=covs[a:b],
                          weights=weights[a:b], cardinality=float(payload["cardinality"][k]))
               for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]
    return records, config, seed


def write_manifest(
    out_dir: Path,
    command: str,
    config: ExperimentConfig,
    seed: int,
    outputs: list[Path],
    extra: dict | None = None,
    name: str = "manifest.json",
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
    path = out_dir / name
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def _checked_seed(seed: int, label: str) -> int:
    """seed, if ScenarioConfig.seed's declared domain allows it; else ConfigError."""
    check_field(ScenarioConfig, "seed", seed, label)
    return seed


def _checked_out(out: str | Path, names: tuple[str, ...]) -> Path:
    """Path(out); ConfigError unless it or else its nearest existing ancestor is a directory,
    and if one of the command's output files `names` in it is a directory."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"--out {path}: {existing} is not a directory")
    for name in names:
        if (path / name).is_dir():
            raise ConfigError(f"--out {path}: {path / name} is a directory, not an output file")
    return path


def _resolve_seed(args, config: ExperimentConfig) -> int:
    return config.scenario.seed if args.seed is None else _checked_seed(args.seed, "--seed")


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    seed = _resolve_seed(args, config)
    out_dir = _checked_out(args.out, ("truth.csv", "manifest.json"))
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    truth = generate_truth(config.scenario, rng)
    truth_path = out_dir / "truth.csv"
    write_truth_csv(truth, truth_path)
    write_manifest(out_dir, "simulate", config, seed, [truth_path])
    log.info("wrote %s", truth_path)
    return 0


# The files that _run_tracked writes into a run's directory.
_TRACK_OUTPUTS = ("metrics.csv", "particles.json", "manifest.json")


def _run_tracked(config: ExperimentConfig, filter_choice: str, sensor_choice: str,
                 seed: int, out_dir: Path) -> list[StepRecord]:
    rng = np.random.default_rng(seed)
    records = run_experiment(config.scenario, filter_choice, sensor_choice, rng, config.setup)
    out_dir.mkdir(parents=True, exist_ok=True)  # after the run: a run that fails makes none
    metrics_path = out_dir / "metrics.csv"
    particles_path = out_dir / "particles.json"
    write_csv(records, metrics_path)
    write_particles_json(
        records, config, filter_choice, sensor_choice, seed, particles_path
    )
    write_manifest(
        out_dir,
        "track",
        config,
        seed,
        [metrics_path, particles_path],
        extra={"filter": filter_choice, "sensor": sensor_choice},
    )
    return records


def _cmd_track(args) -> int:
    config = load_config(args.config)
    seed = _resolve_seed(args, config)
    _run_tracked(config, args.filter, args.sensor, seed, _checked_out(args.out, _TRACK_OUTPUTS))
    log.info("tracked %d steps into %s", config.scenario.n_steps, args.out)
    return 0


def _cmd_eval(args) -> int:
    records, config, seed = read_particles_json(Path(args.log))
    out_dir = _checked_out(args.out or Path(args.log).parent,
                           ("eval_metrics.csv", "eval_manifest.json"))
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluate_metrics(records, config.setup)
    metrics_path = out_dir / "eval_metrics.csv"
    write_csv(records, metrics_path)
    # its own name, so an eval into the track run's directory keeps that run's manifest
    write_manifest(out_dir, "eval", config, seed, [metrics_path], name="eval_manifest.json")
    log.info("wrote %s", metrics_path)
    return 0


def _parse_seeds(expr: str) -> list[int]:
    """The seeds of a range lo..hi or a list, whose entries may not be empty (_entries)."""
    expr = expr.strip()
    lo, dots, hi = expr.partition("..")
    try:
        if dots:
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in _entries(expr)]
    except ConfigError as exc:
        raise ConfigError(f"--seeds: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad seed {'range' if dots else 'list'} {expr!r}") from exc


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    seeds = [_checked_seed(seed, "--seeds") for seed in _parse_seeds(args.seeds)]
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    if len(set(seeds)) < len(seeds):  # each seed has one seed_<n>/ and one aggregate row
        repeated = next(seed for k, seed in enumerate(seeds) if seed in seeds[:k])
        raise ConfigError(f"--seeds names seed {repeated} more than once")
    names = ("aggregate.csv", "summary.csv", "manifest.json")
    out_dir = _checked_out(args.out, names)  # made by the first seed's run
    run_dirs = [_checked_out(out_dir / f"seed_{seed}", _TRACK_OUTPUTS)  # before any run
                for seed in seeds]
    lines, outputs, means = ["seed,mean_rmse,mean_card_err"], [], []
    for seed, run_dir in zip(seeds, run_dirs):
        records = _run_tracked(config, args.filter, args.sensor, seed, run_dir)
        rmse = float(np.mean([r.rmse for r in records]))
        card = float(np.mean([r.card_err for r in records]))
        lines.append(f"{seed},{_fmt9(rmse)},{_fmt9(card)}")
        outputs.append(run_dir / "metrics.csv")
        means.append((rmse, card))
        log.info("seed %d: mean rmse %.4g, mean card err %.4g", seed, rmse, card)
    agg_path, summary_path = out_dir / "aggregate.csv", out_dir / "summary.csv"
    agg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # across seeds, the mean and spread (np.std, ddof 0) of the per-seed means
    cells = [_fmt9(stat(column)) for column in zip(*means) for stat in (np.mean, np.std)]
    summary_path.write_text("n_seeds,mean_rmse,std_rmse,mean_card_err,std_card_err\n"
                            f"{len(seeds)},{','.join(cells)}\n", encoding="utf-8")
    write_manifest(out_dir, "sweep", config, seeds[0], outputs + [agg_path, summary_path],
                   extra={"seeds": seeds, "filter": args.filter, "sensor": args.sensor})
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first run_command, not at import
    (start-up time counts `import mtt.cli`); parsing leaves it unchanged."""
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
    p_eval.add_argument("--log", required=True,
                        help="particles.json (mtt-particle-log-v2) from a track run")
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
