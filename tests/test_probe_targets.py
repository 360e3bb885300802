"""Every function the benchmark's tracer wraps still exists under its name.

The tracer in `perfbench/` probes `mtt` functions by module and attribute
path (`perfbench/layers.py` `PROBES`).  A rename silently turns the
per-layer metrics built on a probe `absent`; resolving each probe here
makes the rename fail the test suite instead.  `perfbench/` is only read.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize(
    "probe", layers.PROBES, ids=[f"{p.name}:{p.module}.{p.path}" for p in layers.PROBES]
)
def test_probe_target_resolves(probe):
    targets = tracer._resolve(probe)
    assert targets
    assert all(callable(original) for _, original in targets)
