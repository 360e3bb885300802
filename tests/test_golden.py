"""Golden-output check: `mtt track` must reproduce committed outputs byte for byte.

Each case runs `track` through `run_command` and compares `metrics.csv` and
`particles.json` with the files under `tests/golden/<case>/`.
`manifest.json` is not compared because it holds a timestamp.  `eval` on
each committed `particles.json` must also reproduce its `metrics.csv`.

A change that alters the random stream, the filter arithmetic or the config
keys on purpose regenerates the files and says why in CHANGES.md; the script
prints `changed` or `unchanged` for every file it rewrites; for a changed
`particles.json` the top-level keys that differ, such as
`gpf_mean_1target/particles.json: changed (config)`, and for a changed
`metrics.csv` the columns added (`+`), removed (`-`) or changed, such as
`kf_mean_1target/metrics.csv: changed (+ospa)`, so the entry can name exactly
what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from mtt.cli import run_command

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 7
COMPARED = ("metrics.csv", "particles.json")

_ONE_TARGET = """
scenario.n_targets = 1
scenario.n_steps = 15
scenario.q_diag = 0.2,0.02,0.2,0.02
scenario.initial_states = 6,0.05,6,-0.05
sensor.r_diag = 0.25,0.25
pf.n_particles = 200
"""

# case -> (filter, sensor, config text)
CASES = {
    "kf_mean_1target": ("kf", "mean", _ONE_TARGET),
    "pf_mean_1target": ("pf", "mean", _ONE_TARGET),
    "gpf_mean_1target": ("gpf", "mean", _ONE_TARGET),
    "gpf_grid_ospa": (
        "gpf",
        "grid",
        """
scenario.n_targets = 3
scenario.n_steps = 15
scenario.tau = 0.001
scenario.q_diag = 0.02,0.0002,0.02,0.0002
scenario.initial_states = 3,0,3,0; 6,0,6,0; 9,0,9,0
sensor.snr = 30
sensor.m_cells = 48
gpf.w_prune = 0.05
gpf.d_thresh = 4.0
""",
    ),
    # A repeated cell, a target fixed on the corner of cells 26, 27, 38 and
    # 39, and one that starts outside the workspace, crosses its high x edge
    # and then the internal edges x = 11 and x = 10.
    "gpf_grid_fixed_edges": (
        "gpf",
        "grid",
        """
scenario.n_targets = 2
scenario.n_steps = 15
scenario.q_diag = 0,0,0,0
scenario.initial_states = 3,0,3,0; 12.5,-0.25,6,0
sensor.snr = 30
sensor.strategy = fixed_list
sensor.fixed_cells = 26,27,38,39,39,81,82,83
""",
    ),
    "gpf_mean_4targets": (
        "gpf",
        "mean",
        """
scenario.n_targets = 4
scenario.n_steps = 15
scenario.tau = 0.001
scenario.q_diag = 0.02,0.0002,0.02,0.0002
gpf.epsilon = 0.001
gpf.init_weight = 0.7
""",
    ),
}


def _track(case: str, work: Path) -> Path:
    filter_choice, sensor_choice, text = CASES[case]
    cfg = work / f"{case}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = work / case
    code = run_command(["track", "--config", str(cfg), "--seed", str(SEED),
                        "--filter", filter_choice, "--sensor", sensor_choice,
                        "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_track_matches_golden(case, tmp_path):
    out = _track(case, tmp_path)
    for name in COMPARED:
        expected = (GOLDEN_DIR / case / name).read_bytes()
        assert (out / name).read_bytes() == expected, f"{case}/{name} differs from golden"


@pytest.mark.parametrize("case", sorted(CASES))
def test_eval_matches_golden_metrics(case, tmp_path):
    # `eval` recomputes every metric from the committed particle log alone
    code = run_command(["eval", "--log", str(GOLDEN_DIR / case / "particles.json"),
                        "--out", str(tmp_path)])
    assert code == 0
    expected = (GOLDEN_DIR / case / "metrics.csv").read_bytes()
    assert (tmp_path / "eval_metrics.csv").read_bytes() == expected


def _changed_keys(old: bytes, new: bytes) -> str:
    """The top-level keys whose values differ between two particle logs, as ' (a, b)'."""
    old_log, new_log = json.loads(old), json.loads(new)
    keys = sorted(k for k in old_log.keys() | new_log.keys() if old_log.get(k) != new_log.get(k))
    return f" ({', '.join(keys)})"


def _changed_columns(old: bytes, new: bytes) -> str:
    """The metrics.csv columns added (+name), removed (-name) or with other cells, as
    ' (+a, -b, c)', in the new file's order and then the removed ones."""
    def columns(data: bytes) -> dict[str, list[str]]:
        header, *rows = (line.split(",") for line in data.decode("utf-8").splitlines())
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}

    old_cols, new_cols = columns(old), columns(new)
    names = [*new_cols, *(name for name in old_cols if name not in new_cols)]
    marks = [("+" if name not in old_cols else "-" if name not in new_cols else "") + name
             for name in names if old_cols.get(name) != new_cols.get(name)]
    return f" ({', '.join(marks)})"


def regenerate(work: Path) -> None:
    for case in sorted(CASES):
        out = _track(case, work)
        dest = GOLDEN_DIR / case
        dest.mkdir(parents=True, exist_ok=True)
        for name in COMPARED:
            data, path = (out / name).read_bytes(), dest / name
            old = path.read_bytes() if path.exists() else None
            state = "unchanged" if old == data else "changed"
            if old is not None and old != data:
                diff = _changed_keys if name == "particles.json" else _changed_columns
                state += diff(old, data)
            path.write_bytes(data)
            print(f"{case}/{name}: {state}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
