"""Self-test of the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import COUNTER, SPAN, Probe, Span, Tracer, self_time_by_name, span_self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_on_hand_built_span_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a.x", 1.0, 5.0, counted=0.5),
        Span(2, 1, "b.x", 2.0, 3.0),
        Span(3, 1, "c.x", 2.5, 4.0),  # overlaps its sibling
        Span(4, 0, "d.x", 6.0, 12.0),  # runs past its parent's end
    ]
    assert span_self_times(spans) == {0: 2.0, 1: 1.5, 2: 1.0, 3: 1.5, 4: 6.0}


@pytest.fixture
def fake_module(monkeypatch):
    now = [0.0]
    mod = types.ModuleType("perfbench_fake")

    def leaf():
        now[0] += 1.0
        return True

    def inner():
        now[0] += 2.0
        mod.leaf()

    def outer():
        now[0] += 3.0
        mod.inner()
        mod.leaf()
        return 1

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod, now


def test_counters_nest_and_self_time_adds_up(fake_module):
    mod, now = fake_module
    tracer = Tracer(clock=lambda: now[0])
    tracer.install([
        Probe(SPAN, "x.outer", mod.__name__, "outer"),
        Probe(COUNTER, "x.inner", mod.__name__, "inner"),
        Probe(COUNTER, "x.leaf", mod.__name__, "leaf", count_hits=True),
    ])
    assert mod.outer() == 1
    tracer.finish()
    leaf = tracer.counters["x.leaf"]
    assert (leaf.calls, leaf.hits, leaf.total) == (2, 2, 2.0)
    assert tracer.counters["x.inner"].total == 3.0
    assert self_time_by_name(tracer) == {"x.outer": 3.0, "x.inner": 2.0, "x.leaf": 2.0}
    outer = tracer.spans[1]
    assert (outer.parent, outer.end - outer.start) == (tracer.root.id, 7.0)
    # uninstalled: calling again records nothing
    mod.outer()
    assert leaf.calls == 2


def test_missing_probe_is_reported_not_raised(fake_module):
    mod, _ = fake_module
    tracer = Tracer()
    tracer.install([
        Probe(SPAN, "x.gone", mod.__name__, "renamed_away"),
        Probe(COUNTER, "x.nomod", "perfbench_no_such_module", "f"),
        Probe(SPAN, "x.outer", mod.__name__, "outer"),
    ])
    mod.outer()
    tracer.finish()
    assert "renamed_away" in tracer.missing("x.gone")[0]
    assert tracer.missing("x.nomod")
    assert not tracer.missing("x.outer")
    assert [s.name for s in tracer.spans] == ["trace", "x.outer"]


def test_layer_metric_is_absent_with_reason_when_its_probe_is_missing(monkeypatch):
    probes = [p for p in layers.PROBES if p.name != "gpf.merge"]
    probes.append(Probe(SPAN, "gpf.merge", "mtt.gpf", "no_such_merge"))
    monkeypatch.syspath_prepend(str(run.SRC))
    tracer = Tracer()
    tracer.install(probes)
    tracer.finish()
    data = layers.TraceData(tracer, runs=1, steps=1, output_bytes=1,
                            wall_traced=1.0, wall_untraced=1.0)
    metrics = layers.layer_metrics(data)
    assert metrics["gpf.merge_ms"]["value"] is None
    assert "no_such_merge" in metrics["gpf.merge_ms"]["absent"]
    assert metrics["gpf.predict_ms"]["value"] == 0.0


def _write_metrics(path: Path, rows: list[str]) -> Path:
    path.write_text("step,rmse,card_err\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def test_metrics_check(tmp_path):
    good = _write_metrics(tmp_path / "good.csv", ["0,1.5,0", "1,1.25,0.5"])
    assert checks.check_metrics(good, 2) == []
    assert checks.check_metrics(good, 3)  # a step missing
    nan = _write_metrics(tmp_path / "nan.csv", ["0,nan,0", "1,1,inf"])
    assert len(checks.check_metrics(nan, 2)) == 2
    assert checks.check_metrics(tmp_path / "absent.csv", 2)


def test_identical_and_eval_checks(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        _write_metrics(d / "metrics.csv", ["0,1,0"])
        (d / "particles.json").write_text("{}\n", encoding="utf-8")
    assert checks.check_identical(a, b) == []
    assert checks.check_eval(a / "metrics.csv", b / "metrics.csv") == []
    _write_metrics(b / "metrics.csv", ["0,1.0000001,0"])
    assert checks.check_identical(a, b)
    assert checks.check_eval(a / "metrics.csv", b / "metrics.csv")


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        50 |        300 |       scipy._lib",
        "import time:        20 |        400 |     scipy",
        "import time:        10 |        600 |   scipy.optimize",
        "import time:        30 |        800 |   scipy.special",
        "import time:         5 |       1500 |   mtt",
        "import time:         7 |       2000 | mtt.cli",
    ])
    assert run.parse_importtime(stderr) == (2.0, 1.4)


def test_benchmark_json_matches_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS
    ]
    for metric in layers.METRICS:
        for move in metric.moves:
            e2e, workload = move.split("@")
            assert e2e in run.END_TO_END_UNITS and workload in WORKLOADS, move


def test_run_seeds_follow_the_workload_seed():
    w = WORKLOADS["mean_combos"]
    assert w.run_seeds(3) == w.run_seeds(3)
    assert w.run_seeds(3) != w.run_seeds(4)
    assert len(set(w.run_seeds(3))) == w.seeds_per_pass


def _tiny(name: str):
    return WORKLOADS[name].smaller(n_steps=3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_at_tiny_size(name, tmp_path):
    timed = run.measure(_tiny(name), 1, 0.01, 0, work_root=tmp_path, setup_repeats=1)
    assert (timed.failed, timed.problems) == (0, [])
    gated = json.loads(timed.final_line())["metrics"]
    assert list(gated) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in gated.values()), gated
    assert timed.metrics["card_err_mean"]["value"] > 0
    assert timed.metrics["run_fail_ratio"]["value"] == 0

    traced = run.measure(_tiny(name), 1, 0.01, 1, work_root=tmp_path, import_repeats=1)
    assert (traced.failed, traced.problems) == (0, [])
    assert list(traced.metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(isinstance(m["value"], float) for m in traced.metrics.values()), traced.notes
    busy = {
        "grid_dense": "sensors.cell_contains_calls",
        "mean_combos": "gpf.conditional_updates",
        "baselines_1target": "particle.step_ms_p50",
    }[name]
    assert traced.metrics[busy]["value"] > 0


def test_traced_counts_repeat_exactly(tmp_path):
    counts = ("sensors.cell_contains_calls", "gpf.combinations", "gpf.conditional_updates",
              "gaussians.log_pdf_calls")
    seen = []
    for name in ("grid_dense", "mean_combos"):
        for _ in range(2):
            result = run.measure(_tiny(name), 5, 0.01, 1, work_root=tmp_path, import_repeats=1)
            seen.append((name, [result.metrics[c]["value"] for c in counts]))
    assert seen[0] == seen[1] and seen[2] == seen[3]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "grid_dense", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
