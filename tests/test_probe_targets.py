"""Every function the benchmark's tracer wraps still exists under its name.

The tracer in `perfbench/` probes `mtt` functions by module and attribute
path (`perfbench/layers.py` `PROBES`).  A rename silently turns the
per-layer metrics built on a probe `absent`; resolving each probe here
makes the rename fail the test suite instead, and tiny traced runs check
that the observers can read what the probed functions take and return and
that every probe is still called.
`perfbench/` is only read.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import tracer  # noqa: E402

from mtt.cli import run_command  # noqa: E402


@pytest.mark.parametrize(
    "probe", layers.PROBES, ids=[f"{p.name}:{p.module}.{p.path}" for p in layers.PROBES]
)
def test_probe_target_resolves(probe):
    targets = tracer._resolve(probe)
    assert targets
    assert all(callable(original) for _, original in targets)


@pytest.mark.parametrize(
    "sensor, observed",
    [
        ("mean", {"gpf.step", "gpf.select_fov", "gpf.enumerate", "gpf.merge",
                  "gpf.birth_prune"}),
        ("grid", {"gpf.step", "gpf.merge", "gpf.birth_prune"}),
    ],
)
def test_observers_read_real_results(tmp_path, sensor, observed):
    """The span observers read the results and arguments of a real run.

    A failed read does not raise: the tracer records it in `absent` and the
    per-layer metrics built on it (`gpf.particles`, `gpf.merges`, ...) go
    absent, so the run must leave `absent` empty.
    """
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("scenario.n_targets = 2\nscenario.n_steps = 5\nscenario.seed = 3\n")
    probes = tracer.Tracer()
    probes.install(layers.PROBES)
    try:
        code = run_command(["track", "--config", str(cfg), "--filter", "gpf",
                            "--sensor", sensor, "--out", str(tmp_path / "out")])
    finally:
        probes.finish()
    assert code == 0
    assert probes.absent == {}
    assert observed <= {span.name for span in probes.spans if span.attrs}
    if sensor == "grid":  # every cell_of lookup confirms its cell with one cell_contains call
        assert probes.counters["sensors.cell_contains"].calls > 0


_REACH_CONFIG = """scenario.n_targets = 1
scenario.n_steps = 5
scenario.seed = 3
pf.n_particles = 100
"""


def _reached(tmp_path, filter_choice, sensor):
    """Names of the probes that a tiny traced `track` run calls at least once."""
    cfg = tmp_path / "reach.cfg"
    cfg.write_text(_REACH_CONFIG)
    probes = tracer.Tracer()
    probes.install(layers.PROBES)
    try:
        code = run_command(["track", "--config", str(cfg), "--filter", filter_choice, "--sensor",
                            sensor, "--out", str(tmp_path / f"{filter_choice}_{sensor}")])
    finally:
        probes.finish()
    assert code == 0
    assert probes.absent == {}
    return ({span.name for span in probes.spans}
            | {name for name, counter in probes.counters.items() if counter.calls})


def test_probes_are_reached(tmp_path):
    """A probe that still resolves but is never called reads as zero, not absent:
    every probe must be called by at least one of four tiny runs, and each GPF run
    must reach the sensor and update probes of its own sensor (a table that held a
    sensor function itself, not its name, would bypass the probe in that run only)."""
    runs = {(f, s): _reached(tmp_path, f, s)
            for f, s in [("gpf", "mean"), ("gpf", "grid"), ("kf", "mean"), ("pf", "mean")]}
    assert {"kalman.update", "gaussians.log_pdf", "gpf.conditional_update",
            "gpf.combo_weight", "sensors.measure", "gpf.update"} <= runs["gpf", "mean"]
    assert {"sensors.measure", "sensors.select", "gpf.update",
            "gpf.birth_prune"} <= runs["gpf", "grid"]
    # the grid run's steps merge, so the merge itself must call moment_match_merge:
    # the mean run reaches gaussians.merge through mixture_moments alone
    assert "gaussians.merge" in runs["gpf", "grid"]
    assert "kalman.predict" in runs["kf", "mean"]
    assert {probe.name for probe in layers.PROBES} <= set().union(*runs.values())
