"""Smoke test: the experiment scripts under scripts/ still run at tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("filter_baselines.py", ["--seeds", "1", "--steps", "3", "--particles", "50"]),
        ("grid_convergence.py", ["--seeds", "1", "--steps", "3", "--out", "grid.csv"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
