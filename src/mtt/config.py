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

from .gaussians import COV_MODES
from .regions import Rectangle
from .sim import ExperimentSetup, ScenarioConfig


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    setup: ExperimentSetup


def _int(lo: int | None = None) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"expected an integer, got {raw!r}") from exc
        if lo is not None and value < lo:
            raise ConfigError(f"expected an integer >= {lo}, got {value}")
        return value

    return parse


def _float(
    lo: float | None = None,
    hi: float | None = None,
    lo_open: bool = False,
    hi_open: bool = False,
) -> Callable[[str], float]:
    allowed = f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"

    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"expected a number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {raw!r}")
        if lo is not None and (value <= lo if lo_open else value < lo):
            raise ConfigError(f"value {value} below allowed range ({allowed})")
        if hi is not None and (value >= hi if hi_open else value > hi):
            raise ConfigError(f"value {value} above allowed range ({allowed})")
        return value

    return parse


def _floats(count: int | None = None, **bounds) -> Callable[[str], tuple[float, ...]]:
    """Comma-separated numbers, `count` of them if given, each within `bounds`."""
    each = _float(**bounds)

    def parse(raw: str) -> tuple[float, ...]:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if count is not None and len(parts) != count:
            raise ConfigError(f"expected {count} comma-separated numbers, got {len(parts)}")
        return tuple(each(p) for p in parts)

    return parse


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return raw

    return parse


def _parse_ints(raw: str) -> list[int] | None:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        return [int(p) for p in parts] or None
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "on", "yes", "1"):
        return True
    if low in ("false", "off", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {raw!r}")


def _parse_states(raw: str) -> list[tuple[float, float, float, float]] | None:
    state = _floats(4)
    return [state(chunk) for chunk in raw.split(";") if chunk.strip()] or None


def _parse_workspace(raw: str) -> Rectangle:
    return Rectangle(*_floats(4)(raw))


_positive = _float(0.0, lo_open=True)
_unit_open = _float(0.0, 1.0, lo_open=True, hi_open=True)  # (0, 1)
_unit_upper = _float(0.0, 1.0, lo_open=True)  # (0, 1]


def _parse_clutter(raw: str) -> float | None:
    return None if raw.strip() == "auto" else _positive(raw)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
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


def _fmt_clutter(value: float | None) -> str:
    return "auto" if value is None else _fmt(value)


class _Key(NamedTuple):
    """One config key: the dataclass field it sets, how to read and write it."""

    key: str
    section: str  # attribute of ExperimentConfig: "scenario" or "setup"
    field: str
    parse: Callable[[str], object]
    fmt: Callable[[object], str] = _fmt


# Row order is the dump_config order, which particle logs and manifests embed.
_KEYS = (
    _Key("scenario.n_targets", "scenario", "n_targets", _int(lo=0)),
    _Key("scenario.n_steps", "scenario", "n_steps", _int(lo=1)),
    _Key("scenario.tau", "scenario", "tau", _positive),
    _Key("scenario.q_diag", "scenario", "q_diag", _floats(4)),
    _Key("scenario.workspace", "scenario", "workspace", _parse_workspace, _fmt_workspace),
    _Key("scenario.seed", "scenario", "seed", _int()),
    _Key("scenario.initial_states", "scenario", "initial_states", _parse_states, _fmt_states),
    _Key("sensor.r_diag", "setup", "mean_r_diag", _floats(2, lo=0.0)),
    _Key("sensor.p_d", "setup", "p_d", _unit_open),
    _Key("sensor.snr", "setup", "snr", _positive),
    _Key("sensor.m_cells", "setup", "m_cells", _int(lo=1)),
    _Key("sensor.grid_rows", "setup", "grid_rows", _int(lo=1)),
    _Key("sensor.grid_cols", "setup", "grid_cols", _int(lo=1)),
    _Key("sensor.strategy", "setup", "cell_strategy",
         _choice("random", "round_robin", "fixed_list")),
    _Key("sensor.fixed_cells", "setup", "fixed_cells", _parse_ints),
    _Key("gpf.epsilon", "setup", "gpf_epsilon", _unit_open),
    _Key("gpf.d_thresh", "setup", "gpf_d_thresh", _positive),
    _Key("gpf.w_prune", "setup", "gpf_w_prune", _float(0.0, 1.0, hi_open=True)),
    _Key("gpf.n_max", "setup", "gpf_n_max", _int(lo=1)),
    _Key("gpf.w_birth", "setup", "gpf_w_birth", _unit_upper),
    _Key("gpf.clutter_density", "setup", "gpf_clutter_density", _parse_clutter, _fmt_clutter),
    _Key("gpf.merge_cov", "setup", "gpf_merge_cov", _choice(*COV_MODES)),
    _Key("gpf.s_max", "setup", "gpf_s_max", _int(lo=1)),
    _Key("gpf.init_weight", "setup", "gpf_init_weight", _unit_upper),
    _Key("gpf.init_cov_diag", "setup", "gpf_init_cov_diag", _floats(4, lo=0.0, lo_open=True)),
    _Key("pf.n_particles", "setup", "pf_n_particles", _int(lo=1)),
    _Key("pf.ess_ratio", "setup", "pf_ess_ratio", _unit_upper),
    _Key("pf.resample", "setup", "pf_resample", _choice("multinomial", "systematic")),
    _Key("metrics.extraction_threshold", "setup", "extraction_threshold", _float(0.0, 1.0)),
    _Key("metrics.distance_cap", "setup", "distance_cap", _positive),
    _Key("metrics.ospa", "setup", "with_ospa", _parse_bool),
)
_BY_KEY = {row.key: row for row in _KEYS}


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
        except ValueError as exc:  # a ConfigError, or a plain one such as Rectangle's
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    try:
        return ExperimentConfig(
            ScenarioConfig(**kwargs["scenario"]), ExperimentSetup(**kwargs["setup"])
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"))


def dump_config(config: ExperimentConfig) -> str:
    """Serialize a config back to flat key = value text (full schema)."""
    return "".join(
        f"{row.key} = {row.fmt(getattr(getattr(config, row.section), row.field))}\n"
        for row in _KEYS
    )
