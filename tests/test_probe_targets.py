"""Every function the benchmark's tracer wraps still exists under its name.

The tracer in `perfbench/` probes `mtt` functions by module and attribute
path (`perfbench/layers.py` `PROBES`).  A rename silently turns the
per-layer metrics built on a probe `absent`; resolving each probe here
makes the rename fail the test suite instead, and a tiny traced run checks
that the observers can read what the probed functions take and return.
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
