"""Flat key = value experiment configuration.

The format is one `key = value` pair per line, `#` comments, UTF-8.
Unknown keys are rejected; missing keys take the documented defaults.
One table, `_KEYS`, drives both parsing and dump_config, and a dumped
default config reloads to an identical object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .domains import check_field
from .regions import Rectangle
from .sim import ExperimentSetup, ScenarioConfig


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    setup: ExperimentSetup


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _floats(raw: str, count: int | None = None) -> tuple[float, ...]:
    """Comma-separated numbers, `count` of them if given."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if count is not None and len(parts) != count:
        raise ConfigError(f"expected {count} comma-separated numbers, got {len(parts)}")
    return tuple(_float(p) for p in parts)


def _parse_ints(raw: str) -> list[int] | None:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        return [int(p) for p in parts] or None
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


def _parse_states(raw: str) -> list[tuple[float, float, float, float]] | None:
    return [_floats(chunk, 4) for chunk in raw.split(";") if chunk.strip()] or None


def _parse_workspace(raw: str) -> Rectangle:
    return Rectangle(*_floats(raw, 4))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_states(states) -> str:
    if not states:
        return ""
    return "; ".join(",".join(repr(float(v)) for v in s) for s in states)


def _fmt_workspace(ws: Rectangle) -> str:
    return _fmt((ws.x_min, ws.y_min, ws.x_max, ws.y_max))


class _Key(NamedTuple):
    """One config key: the dataclass field it sets, how to read and write it."""

    key: str
    section: str  # attribute of ExperimentConfig: "scenario" or "setup"
    field: str
    parse: Callable[[str], object]
    fmt: Callable[[object], str] = _fmt


# Row order is the dump_config order, which particle logs and manifests embed.
# The records declare each field's allowed values; parse only reads the type.
_KEYS = (
    _Key("scenario.n_targets", "scenario", "n_targets", _int),
    _Key("scenario.n_steps", "scenario", "n_steps", _int),
    _Key("scenario.tau", "scenario", "tau", _float),
    _Key("scenario.q_diag", "scenario", "q_diag", _floats),
    _Key("scenario.workspace", "scenario", "workspace", _parse_workspace, _fmt_workspace),
    _Key("scenario.seed", "scenario", "seed", _int),
    _Key("scenario.initial_states", "scenario", "initial_states", _parse_states, _fmt_states),
    _Key("sensor.r_diag", "setup", "mean_r_diag", _floats),
    _Key("sensor.p_d", "setup", "p_d", _float),
    _Key("sensor.snr", "setup", "snr", _float),
    _Key("sensor.m_cells", "setup", "m_cells", _int),
    _Key("sensor.grid_rows", "setup", "grid_rows", _int),
    _Key("sensor.grid_cols", "setup", "grid_cols", _int),
    _Key("sensor.strategy", "setup", "cell_strategy", str),
    _Key("sensor.fixed_cells", "setup", "fixed_cells", _parse_ints),
    _Key("gpf.epsilon", "setup", "gpf_epsilon", _float),
    _Key("gpf.d_thresh", "setup", "gpf_d_thresh", _float),
    _Key("gpf.w_prune", "setup", "gpf_w_prune", _float),
    _Key("gpf.n_max", "setup", "gpf_n_max", _int),
    _Key("gpf.w_birth", "setup", "gpf_w_birth", _float),
    _Key("gpf.init_weight", "setup", "gpf_init_weight", _float),
    _Key("gpf.init_cov_diag", "setup", "gpf_init_cov_diag", _floats),
    _Key("pf.n_particles", "setup", "pf_n_particles", _int),
    _Key("pf.ess_ratio", "setup", "pf_ess_ratio", _float),
    _Key("pf.resample", "setup", "pf_resample", str),
    _Key("metrics.extraction_threshold", "setup", "extraction_threshold", _float),
    _Key("metrics.distance_cap", "setup", "distance_cap", _float),
)
_BY_KEY = {row.key: row for row in _KEYS}
_RECORDS = {"scenario": ScenarioConfig, "setup": ExperimentSetup}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat key = value text into an ExperimentConfig.

    Keys left out take the ScenarioConfig / ExperimentSetup defaults.
    """
    kwargs: dict[str, dict[str, object]] = {"scenario": {}, "setup": {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        row = _BY_KEY.get(key)
        if row is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section = kwargs[row.section]
        if row.field in section:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            section[row.field] = row.parse(raw)
            check_field(_RECORDS[row.section], row.field, section[row.field], "value")
        except ValueError as exc:  # a ConfigError, or a plain one such as Rectangle's or a range
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    try:
        return ExperimentConfig(
            ScenarioConfig(**kwargs["scenario"]), ExperimentSetup(**kwargs["setup"])
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file; ConfigError if missing, a directory or not UTF-8."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read as text: {exc}") from None
    return parse_config_text(text)


def dump_config(config: ExperimentConfig) -> str:
    """Serialize a config back to flat key = value text (full schema)."""
    return "".join(
        f"{row.key} = {row.fmt(getattr(getattr(config, row.section), row.field))}\n"
        for row in _KEYS
    )
