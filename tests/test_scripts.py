"""Smoke test: each experiment config under configs/ runs through `mtt sweep` with
the filters and sensors README's Experiments section runs it with, README's
quick-start config is configs/grid_convergence.cfg word for word, and README's
library example runs as written."""

import re
from pathlib import Path

import pytest

from mtt.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _readme_section(title: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_sweeps() -> list[tuple[str, str, str]]:
    """(config, filter, sensor) of each run that the sh block under "## Experiments"
    makes, with `$f` taken over its `for f in ...; do` loop."""
    block = re.search(r"```sh\n(.*?)```", _readme_section("Experiments"), re.S).group(1)
    runs, loop = [], None
    for line in block.splitlines():
        if match := re.match(r"\s*for f in (.*); do$", line):
            loop = match.group(1).split()
        elif line.strip() == "done":
            loop = None
        elif "mtt sweep" in line:
            opts = dict(re.findall(r"--(\w+) (\S+)", line))
            filters = loop if opts["filter"] == "$f" else [opts["filter"]]
            runs += [(Path(opts["config"]).name, f, opts["sensor"]) for f in filters]
    return runs


def test_readme_runs_every_config():
    assert {name for name, _, _ in _readme_sweeps()} == {p.name for p in CONFIGS.glob("*.cfg")}


@pytest.mark.parametrize("name, filter_choice, sensor", _readme_sweeps())
def test_config_sweep_runs(name, filter_choice, sensor, tmp_path):
    out = tmp_path / "sweep"
    assert run_command(["sweep", "--config", str(CONFIGS / name), "--seeds", "0",
                        "--filter", filter_choice, "--sensor", sensor, "--out", str(out)]) == 0
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("1,")


def test_readme_quick_start_config_is_the_grid_config():
    section = _readme_section("Quick start (CLI)")
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    assert block == (CONFIGS / "grid_convergence.cfg").read_text(encoding="utf-8")


def test_readme_library_example_runs(capsys):
    # the first python block under "## Library use", as a reader would paste it
    code = re.match(r"\s*```python\n(.*?)```", _readme_section("Library use"), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("expected target count: ")
