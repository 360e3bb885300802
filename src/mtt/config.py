"""Flat key = value experiment configuration.

The format is one `key = value` pair per line, `#` comments, UTF-8.
Unknown keys are rejected; missing keys take the documented defaults.
A key is one field: `scenario.<name>` of ScenarioConfig, `<section>.<name>`
of ExperimentSetup's `<section>_<name>`.  `_KEYS` lists them in field order
and drives parsing and dump_config; a dumped default config reloads equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .domains import ConfigError, check_field
from .regions import Rectangle
from .sim import ExperimentSetup, ScenarioConfig


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


def _entries(raw: str, sep: str = ",") -> list[str]:
    """The stripped entries of a `sep`-separated list; ConfigError for an empty one."""
    parts = [p.strip() for p in raw.split(sep)]
    if "" in parts:
        raise ConfigError(f"empty entry in the list {raw.strip()!r}")
    return parts


def _floats(raw: str, count: int | None = None) -> tuple[float, ...]:
    """Comma-separated numbers, `count` of them if given."""
    parts = _entries(raw)
    if count is not None and len(parts) != count:
        raise ConfigError(f"expected {count} comma-separated numbers, got {len(parts)}")
    return tuple(_float(p) for p in parts)


def _parse_ints(raw: str) -> list[int] | None:
    """Comma-separated integers; none for an empty value, which dump_config writes."""
    parts = _entries(raw) if raw else []
    try:
        return [int(p) for p in parts] or None
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


def _parse_states(raw: str) -> list[tuple[float, float, float, float]] | None:
    return [_floats(chunk, 4) for chunk in _entries(raw, ";")] if raw else None


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
    fmt: Callable[[object], str]


# A field's annotation -> (parse, fmt).  The records declare each field's
# allowed values; parse only reads the type.
_CODECS = {
    "int": (_int, _fmt),
    "float": (_float, _fmt),
    "str": (str, _fmt),
    "tuple[float, ...]": (_floats, _fmt),
    "list[int] | None": (_parse_ints, _fmt),
    "Rectangle": (_parse_workspace, _fmt_workspace),
    "list[tuple[float, float, float, float]] | None": (_parse_states, _fmt_states),
}
_RECORDS = {"scenario": ScenarioConfig, "setup": ExperimentSetup}
# Field order is the dump_config order, which particle logs and manifests embed;
# a field whose annotation has no codec is a KeyError naming the annotation.
_KEYS = tuple(
    _Key(f"scenario.{f.name}" if section == "scenario" else f.name.replace("_", ".", 1),
         section, f.name, *_CODECS[f.type])
    for section, record in _RECORDS.items() for f in fields(record))
_BY_KEY = {row.key: row for row in _KEYS}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat key = value text into an ExperimentConfig; ConfigError for a bad line,
    or from the records for settings that do not go together.

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
        except ValueError as exc:  # a ConfigError, or a plain one such as Rectangle's
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return ExperimentConfig(**{name: record(**kwargs[name]) for name, record in _RECORDS.items()})


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
