"""Every config that the parser accepts either runs to a log that `mtt eval` accepts,
or is refused before any directory exists, naming a key.

The configs are drawn over config._KEYS: up to 8 keys each, drawn from their fields'
declared domains, with the ends of each domain and values at the edges of the float
range; the other keys keep their defaults.  The unbounded size keys are capped, for the
memory and time of a tier-1 run, not to avoid a defect: scenario.n_targets <= 6,
scenario.n_steps <= 5, sensor.grid_rows and sensor.grid_cols <= 16, sensor.m_cells <= 300,
pf.n_particles <= 200 and gpf.n_max <= 50.

One defect is left open, and test_float_range_runs_are_refused pins it as an xfail: a run
that sets a scale key (scenario.tau, scenario.q_diag, sensor.r_diag, gpf.init_cov_diag,
scenario.initial_states or scenario.workspace) near the top of the float range, 1e150 and
above in a fuzz of 8000 configs, overflows mid-run or leaves a covariance singular, and
exits 2 with no directory, where it should be refused up front.  The property test
accepts that outcome only for a config with a scale key of magnitude 1e100 or more, and
asserts the others.  The pf's workspace is refused past 1e150 a side, which
test_pf_workspace_bound checks.
"""

import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtt.cli import run_command
from mtt.config import _KEYS, _RECORDS, _fmt, _fmt_states
from mtt.domains import Choice, Range
from mtt.sim import SENSORS

_CAPS = {"scenario.n_targets": 6, "scenario.n_steps": 5, "sensor.grid_rows": 16,
         "sensor.grid_cols": 16, "sensor.m_cells": 300, "pf.n_particles": 200,
         "gpf.n_max": 50}
# The (filter, sensor) pairs that check_run accepts.
_PAIRS = [(f, s) for s, kind in SENSORS.items() for f in kind.filters]
_TINY, _HUGE = math.ulp(0.0), sys.float_info.max
_LARGE = (1e150, 1e200, 1e300, _HUGE)  # beyond any workspace or noise a run expects
# The open defect: its settings, and its messages (numpy's float errors, raised under the
# suite's warning filter, the run's own finite checks, and a Cholesky factor that jitter
# cannot rescue).
_SCALE_KEYS = ("scenario.tau", "scenario.q_diag", "sensor.r_diag", "gpf.init_cov_diag",
               "scenario.initial_states", "scenario.workspace")
_FLOAT_RANGE = re.compile(r"overflow encountered|invalid value encountered|is not finite|"
                          r"numerically singular")


def _near_float_range(text: str) -> bool:
    """Whether the config sets a scale key to a number of magnitude 1e100 or more."""
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if key in _SCALE_KEYS and any(abs(float(v)) >= 1e100 for v in re.split("[,;]", value)):
            return True
    return False


def _number(domain: Range) -> st.SearchStrategy[float]:
    """A float of the domain: its ends (the next float inside an open one), the extremes
    of the float range inside it, or any float between."""
    lo = math.nextafter(domain.lo, math.inf) if domain.lo_open else domain.lo
    hi = _HUGE if domain.hi is None else (
        math.nextafter(domain.hi, -math.inf) if domain.hi_open else domain.hi)
    edges = [v for v in (lo, hi, _TINY, 1.0, *_LARGE) if lo <= v <= hi]
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


def _integer(key: str, domain: Range) -> st.SearchStrategy[int]:
    hi = _CAPS.get(key, domain.hi)
    if hi is None:  # the seed: any non-negative integer, default_rng takes them all
        return st.one_of(st.sampled_from([domain.lo, 2**32 - 1, 2**64, 10**40]),
                         st.integers(domain.lo, 2**63))
    return st.one_of(st.sampled_from([domain.lo, hi]), st.integers(domain.lo, hi))


def _workspace() -> st.SearchStrategy[tuple[float, ...]]:
    """Corners anywhere in the float range and sides from the smallest float to the
    largest: the parser refuses an empty rectangle or one whose area overflows."""
    corner = st.one_of(st.sampled_from([0.0, -1e300, 1e300]), st.floats(-_HUGE, _HUGE))
    side = st.one_of(st.sampled_from([_TINY, 1e-200, 1.0, 12.0, 1e150, 1e200, 1e300]),
                     st.floats(_TINY, _HUGE))
    return st.tuples(corner, corner, side, side).map(
        lambda c: (c[0], c[1], c[0] + c[2], c[1] + c[3]))


def _value(row, n_targets: int) -> st.SearchStrategy:
    """A value of the key as its config text: from the field's domain if it declares one."""
    key, f = row.key, _RECORDS[row.section].__dataclass_fields__[row.field]
    domain = f.metadata.get("domain")
    if key == "scenario.workspace":
        return _workspace().map(_fmt)
    if key == "scenario.initial_states":  # n_targets states, or one more, which is refused
        state = st.tuples(*[_number(Range(-_HUGE, _HUGE))] * 4)
        counts = st.sampled_from([n_targets, n_targets, n_targets + 1])
        return counts.flatmap(lambda n: st.lists(state, min_size=n, max_size=n)).map(
            _fmt_states)
    if key == "sensor.fixed_cells":  # cells of a 16 x 16 grid, some beyond smaller ones
        return st.lists(st.integers(0, 16 * 16 - 1), min_size=1, max_size=12).map(_fmt)
    if isinstance(domain, Choice):
        return st.sampled_from(domain)
    if f.type == "int":
        return _integer(key, domain)
    if domain.size is not None:
        return st.tuples(*[_number(domain)] * domain.size).map(_fmt)
    return _number(domain).map(_fmt)


@st.composite
def _configs(draw) -> tuple[str, str, str]:
    """(config text, filter, sensor): up to 8 keys drawn from their domains, the rest left
    at their defaults."""
    filter_choice, sensor_choice = draw(st.sampled_from(_PAIRS))
    chosen = draw(st.sets(st.sampled_from(range(len(_KEYS))), max_size=8))
    n_targets = 3  # scenario.n_targets' default; the kf and pf track one target
    lines = []
    for i, row in enumerate(_KEYS):
        if i not in chosen:
            continue
        extra = [st.just(1)] if row.key == "scenario.n_targets" else []
        value = draw(st.one_of(*extra, _value(row, n_targets)))
        if row.key == "scenario.n_targets":
            n_targets = int(value)
        lines.append(f"{row.key} = {value}\n")
    return "".join(lines), filter_choice, sensor_choice


def _check_outcome(text: str, filter_choice: str, sensor_choice: str, capsys) -> tuple[int, str]:
    """Track the config: it exits 0 with a log whose eval writes the same metrics, or 1
    naming a key, or 2 for the open float-range defect, and for both with no directory
    made.  Returns the exit code and the error text."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = run_command(["track", "--config", str(cfg), "--filter", filter_choice,
                            "--sensor", sensor_choice, "--out", str(out)])
        err = capsys.readouterr().err
        if code != 0:
            assert not out.exists()
            if code == 2 and _near_float_range(text) and _FLOAT_RANGE.search(err):
                return code, err  # the open defect: see the module's docstring
            assert code == 1, err
            assert "config error" in err and any(row.key in err for row in _KEYS), err
            return code, err
        assert run_command(["eval", "--log", str(out / "particles.json")]) == 0, (
            capsys.readouterr().err)
        assert (out / "eval_metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
        return code, err


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(config=_configs())
def test_every_accepted_config_runs_or_is_refused_naming_a_key(config, capsys):
    _check_outcome(*config, capsys)


@pytest.mark.parametrize("filter_choice", ["pf", "kf", "gpf"])
@pytest.mark.parametrize("side", [1e150, 1e200])
def test_pf_workspace_bound(filter_choice, side, capsys):
    # the pf's logged covariance squares its particles' spread over the workspace, which
    # overflows past 1e150 a side: the pf refuses such a workspace, at the bound that
    # metrics.distance_cap has; the kf and gpf run it
    text = (f"scenario.n_targets = 1\nscenario.n_steps = 3\npf.n_particles = 50\n"
            f"scenario.workspace = 0,0,{side!r},{1 / side!r}\n")
    code, err = _check_outcome(text, filter_choice, "mean", capsys)
    refused = filter_choice == "pf" and side > 1e150
    assert code == (1 if refused else 0), err
    if refused:
        assert "scenario.workspace" in err and "pf" in err and "1e150" in err, err



@pytest.mark.parametrize("filter_choice", ["pf", "kf", "gpf"])
def test_workspace_whose_clutter_density_overflows_is_refused(filter_choice, capsys):
    # a 12 x 5e-324 workspace has a positive area whose reciprocal, the gpf's clutter
    # density, overflows: the gpf named clutter_density = inf, not a key; the parser
    # now refuses the workspace for every filter
    text = "scenario.n_targets = 1\nscenario.n_steps = 1\nscenario.workspace = 0,0,12,5e-324\n"
    code, err = _check_outcome(text, filter_choice, "mean", capsys)
    assert code == 1 and "scenario.workspace" in err and "clutter_density" not in err, err

@pytest.mark.xfail(strict=True, reason="open defect: a run near the ends of the float range "
                   "overflows mid-run (exit 2) instead of being refused")
@pytest.mark.parametrize("text, filter_choice, sensor_choice", [
    ("scenario.q_diag = 1e300,1,6e307,1\n", "gpf", "grid"),
    ("gpf.init_cov_diag = 1,1,5e-324,7e307\n", "gpf", "mean"),
    ("scenario.n_targets = 1\nscenario.q_diag = 1e200,1e150,5e-324,5e307\n", "kf", "mean"),
    ("scenario.workspace = 0,0,5e-324,1e200\n", "gpf", "mean"),
])
def test_float_range_runs_are_refused(text, filter_choice, sensor_choice, capsys):
    code, err = _check_outcome(text, filter_choice, sensor_choice, capsys)
    assert code == 1, err
