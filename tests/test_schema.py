"""The config schema: every key's allowed values are declared once, on the
record field it sets, and both the record and the parser enforce them."""

import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

from mtt.config import _KEYS, ConfigError, parse_config_text
from mtt.domains import Choice
from mtt.gpf import GpfConfig
from mtt.motion import MotionModel
from mtt.regions import Rectangle
from mtt.sensors import GridSensorModel
from mtt.sim import ExperimentSetup, ScenarioConfig

_RECORDS = {"scenario": ScenarioConfig, "setup": ExperimentSetup}


def _just_outside(domain, default):
    """Values just past each end of a declared domain (one per bounded end)."""
    if isinstance(domain, Choice):
        return ["bogus"]
    step = 1 if isinstance(domain.lo, int) else 1e-9
    ends = [domain.lo if domain.lo_open else domain.lo - step]
    if domain.hi is not None:
        ends.append(domain.hi if domain.hi_open else domain.hi + step)
    if domain.size is None:
        return ends
    # a vector: its first entry outside, or twice as many entries
    return [(end,) + tuple(default[1:]) for end in ends] + [tuple(default) * 2]


def _outside_values():
    for row in _KEYS:
        record = _RECORDS[row.section]
        spec = next(f for f in fields(record) if f.name == row.field)
        if "domain" in spec.metadata:
            for value in _just_outside(spec.metadata["domain"], spec.default):
                yield pytest.param(row, record, value, id=f"{row.key}={value}")


@pytest.mark.parametrize("row, record, value", list(_outside_values()))
def test_value_outside_declared_domain_rejected_twice(row, record, value):
    with pytest.raises(ConfigError, match=rf"line 2: {re.escape(row.key)}"):
        parse_config_text(f"# the bad value is on line 2\n{row.key} = {row.fmt(value)}\n")
    with pytest.raises(ValueError, match=re.escape(row.field)):
        record(**{row.field: value})


@pytest.mark.parametrize(
    "record, name, value, message",
    [(ExperimentSetup, "pf_n_particles", 1.5, "is not an integer"),
     (ScenarioConfig, "n_steps", True, "is not a finite number"),
     (ExperimentSetup, "gpf_epsilon", "0.5", "is not a finite number")],
    ids=["float_for_int", "bool_for_int", "text_for_float"],
)
def test_declared_field_rejects_wrong_type(record, name, value, message):
    # the int rule comes from the field's annotation, the number rule from its Range
    with pytest.raises(ValueError, match=rf"{name} = {re.escape(repr(value))} {message}"):
        record(**{name: value})


def test_every_record_field_has_one_key():
    for section, record in _RECORDS.items():
        keyed = sorted(row.field for row in _KEYS if row.section == section)
        assert keyed == sorted(f.name for f in fields(record))


def test_field_without_parser_fails_at_import():
    # the key table is derived at import: a field no parser reads stops it there
    code = ("import dataclasses, mtt.sim as sim\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Setup(sim.ExperimentSetup):\n"
            "    sensor_gain: 'complex' = 1j\n"
            "sim.ExperimentSetup = Setup\n"
            "import mtt.config\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "KeyError: 'complex'" in result.stderr


@pytest.mark.parametrize(
    "record, name",
    [(ScenarioConfig(), "tau"), (ExperimentSetup(), "sensor_p_d"),
     (GridSensorModel(Rectangle(0.0, 0.0, 1.0, 1.0)), "p_d"),
     (GpfConfig(MotionModel(np.eye(4), np.eye(4)), GridSensorModel(Rectangle(0.0, 0.0, 1.0, 1.0))),
      "epsilon")],
    ids=["ScenarioConfig", "ExperimentSetup", "GridSensorModel", "GpfConfig"],
)
def test_checked_records_are_frozen(record, name):
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, -1.0)


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | allowed | meaning |", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.MULTILINE)
    assert documented == [row.key for row in _KEYS]  # the field order, which logs embed
    # each backticked default reads back as the parser's own; the defaults of
    # scenario.initial_states and sensor.fixed_cells are written as prose
    defaults = parse_config_text("")
    written = re.findall(r"^\| `([\w.]+)` \| `([^`]*)` \|", table, flags=re.MULTILINE)
    assert len(written) == len(_KEYS) - 2
    for key, text in written:
        row = next(row for row in _KEYS if row.key == key)
        read = parse_config_text(f"{key} = {text}")
        assert (getattr(getattr(read, row.section), row.field)
                == getattr(getattr(defaults, row.section), row.field)), key
