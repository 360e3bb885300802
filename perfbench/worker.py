"""Child process of the benchmark: runs one workload's `mtt track` runs in
process, through `mtt.cli.run_command`, and checks what they write.

    python worker.py SPEC.json RESULT.json

SPEC is written by run.py.  In "timed" mode the worker runs passes over
the workload's runs until the time is up, checks that repeated runs wrote
identical files, and evaluates the first seed's particle logs with
`mtt eval`.  In "traced" mode it runs the first few runs once without and
once with the tracer installed.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import speed


def _import_mtt(src: Path):
    sys.path.insert(0, str(src))
    import mtt
    import mtt.cli

    if Path(mtt.__file__).resolve().parent != src.resolve() / "mtt":
        raise SystemExit(f"imported mtt from {mtt.__file__}, not from {src}")
    return mtt.cli


def _track(cli, cfg: Path, run: list, out: Path) -> tuple[float, int]:
    seed, filter_choice, sensor = run
    argv = ["track", "--config", str(cfg), "--seed", str(seed), "--out", str(out),
            "--filter", filter_choice, "--sensor", sensor]
    start = time.perf_counter()
    code = cli.run_command(argv)
    return time.perf_counter() - start, code


def _record(run: list, index: int, pass_no: int, wall: float, code: int,
            out: Path, n_steps: int) -> dict:
    problems = [f"exit code {code}"] if code else []
    if not code:
        problems += checks.check_metrics(out / "metrics.csv", n_steps)
    return {"seed": run[0], "filter": run[1], "sensor": run[2], "index": index,
            "pass": pass_no, "wall_s": wall, "steps": 0 if code else n_steps,
            "problems": problems}


class _SpeedProbes:
    """Speed probes between runs; a run's probe time is the mean of the
    probes just before and just after it."""

    def __init__(self) -> None:
        self.last = speed.probe()

    def around_last_run(self) -> float:
        after = speed.probe()
        mean, self.last = 0.5 * (self.last + after), after
        return mean


def _warm_up(cli, spec: dict, work: Path) -> None:
    """Pay first-call costs (lazy imports, allocator growth) outside the timing."""
    cfg = work / "warmup.cfg"
    cfg.write_text(spec["warmup_config"], encoding="utf-8")
    for run in {tuple(r[1:]): r for r in spec["runs"]}.values():
        _track(cli, cfg, run, work / "warmup")


def timed(cli, spec: dict, work: Path, cfg: Path) -> dict:
    """Passes over the runs until `seconds` are up.  The first pass always
    completes, so the accuracy metrics cover a fixed seed list, and the
    first seed's runs are always repeated, so every result can be checked
    to repeat byte for byte.  Repeats are timed like any other run."""
    runs, n_steps, seconds = spec["runs"], spec["n_steps"], spec["seconds"]
    records: list[dict] = []
    first_walls: list[float] = []
    probes = _SpeedProbes()
    start = time.perf_counter()
    pass_no = 0
    while True:
        for i, run in enumerate(runs):
            must = pass_no == 0 or (pass_no == 1 and i < spec["repeat_runs"])
            # otherwise start a run only if it can end in time; its
            # first-pass wall time is the estimate, since inputs repeat
            if not must and time.perf_counter() - start + first_walls[i] > seconds:
                break
            out = work / f"pass{pass_no}" / f"run{i}"
            wall, code = _track(cli, cfg, run, out)
            rec = _record(run, i, pass_no, wall, code, out, n_steps)
            rec["probe_s"] = probes.around_last_run()
            if pass_no:
                rec["problems"] += checks.check_identical(work / "pass0" / f"run{i}", out)
                shutil.rmtree(out)
            else:
                first_walls.append(wall)
            records.append(rec)
        else:
            pass_no += 1
            continue
        break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = records[: len(runs)]
    for i, rec in enumerate(first[: spec["repeat_runs"]]):
        if not rec["problems"]:
            rec["problems"] += _check_eval(cli, work / "pass0" / f"run{i}", work / "eval" / f"run{i}")

    rmse, card = [], []
    for i, rec in enumerate(first):
        if not rec["problems"]:
            metrics = work / "pass0" / f"run{i}" / "metrics.csv"
            rmse += checks.column_values(metrics, "rmse")
            card += checks.column_values(metrics, "card_err")
    return {"runs": records, "peak_rss_mb": peak_rss_mb, "rmse": rmse, "card_err": card}


def _check_eval(cli, run_dir: Path, out: Path) -> list[str]:
    """`mtt eval` on the run's particle log recomputes its metrics.csv."""
    code = cli.run_command(["eval", "--log", str(run_dir / "particles.json"), "--out", str(out)])
    if code:
        return [f"eval exit code {code}"]
    return checks.check_eval(run_dir / "metrics.csv", out / "eval_metrics.csv")


def traced(cli, spec: dict, work: Path, cfg: Path) -> dict:
    import layers
    from tracer import Tracer

    runs, n_steps = spec["runs"][: spec["traced_runs"]], spec["n_steps"]
    records = []
    probes = _SpeedProbes()
    wall_untraced = 0.0
    for i, run in enumerate(runs):
        out = work / "untraced" / f"run{i}"
        wall, code = _track(cli, cfg, run, out)
        wall_untraced += speed.scaled(wall, probes.around_last_run())
        records.append(_record(run, i, 0, wall, code, out, n_steps))

    tracer = Tracer()
    tracer.install(layers.PROBES)
    wall_traced = 0.0
    try:
        for i, run in enumerate(runs):
            out = work / "traced" / f"run{i}"
            span = tracer.begin("cli.track")
            wall, code = _track(cli, cfg, run, out)
            tracer.end(span)
            wall_traced += speed.scaled(wall, probes.around_last_run())
            rec = _record(run, i, 1, wall, code, out, n_steps)
            if not code:
                # the tracer must not change what the runs compute
                rec["problems"] += checks.check_identical(work / "untraced" / f"run{i}", out)
            records.append(rec)
    finally:
        tracer.finish()

    output_bytes = sum(f.stat().st_size for f in (work / "traced").rglob("*") if f.is_file())
    data = layers.TraceData(tracer, len(runs), len(runs) * n_steps, output_bytes,
                            wall_traced, wall_untraced)
    with open(work / "trace.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                 "start": s.start, "end": s.end, "counted": s.counted,
                                 **s.attrs}) + "\n")
        for c in tracer.counters.values():
            fh.write(json.dumps({"counter": c.name, "calls": c.calls, "hits": c.hits,
                                 "total": c.total, "child": c.child}) + "\n")
    name, share = layers.dominant(data)
    return {"runs": records, "layer_metrics": layers.layer_metrics(data),
            "dominant": {"name": name, "share": share}}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cli = _import_mtt(Path(spec["src"]))
    work = Path(spec["work"])
    cfg = work / "run.cfg"
    cfg.write_text(spec["config"], encoding="utf-8")
    _warm_up(cli, spec, work)
    result = (timed if spec["mode"] == "timed" else traced)(cli, spec, work, cfg)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
