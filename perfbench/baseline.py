#!/usr/bin/env python3
"""Record the benchmark's baseline: repeated sets of runs of every workload,
one traced run each, and the machine they ran on.

    python3 perfbench/baseline.py --seeds 1..10 --sets 2 --out perfbench/baseline.json

Each set runs `run.py --trace 0` once per seed and workload, in a fresh
process, the same way any caller of the benchmark does.  For every end-to-end metric the file
holds each set's median, quartiles and spread (inter-quartile range over
median), and how far the later sets' medians moved from the first.  A
later change is compared against these numbers with the same command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """The result line of one run, and its printed table."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    print(proc.stdout, flush=True)
    return json.loads(lines[-1]), proc.stdout


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def parse_seeds(expr: str) -> list[int]:
    lo, _, hi = expr.partition("..")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in expr.split(",")]


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    names = [w["name"] for w in bench["workloads"]]
    sets: dict[str, list[dict[str, list[float]]]] = {name: [] for name in names}
    for _ in range(args.sets):
        for name in names:
            values: dict[str, list[float]] = {}
            for seed in seeds:
                for metric, entry in run_once(name, seed, args.seconds, 0)[0]["metrics"].items():
                    values.setdefault(metric, []).append(entry["value"])
            sets[name].append(values)

    workloads = {}
    for name in names:
        workload = WORKLOADS[name]
        result, table = run_once(name, seeds[0], args.seconds, 1)
        traced = result["metrics"]
        dominant = [line for line in table.splitlines() if line.startswith("note: dominant:")]
        share = {m: v["value"] for m, v in traced.items() if m.endswith(".self_share")}
        per_set = [{m: summarize(v) for m, v in values.items()} for values in sets[name]]
        first = per_set[0]
        workloads[name] = {
            "why": workload.why,
            "config": workload.config_text(),
            "filters": [f"{f}/{s}" for f, s in workload.filters],
            "seeds_per_pass": workload.seeds_per_pass,
            "traced_seeds": workload.traced_seeds,
            "dominant_layer": max(share, key=share.get).split(".")[0],
            "dominant_probe": dominant[0].split(":", 2)[2].strip() if dominant else None,
            "layer_self_share": share,
            "end_to_end": per_set,
            "median_shift_from_first_set": [
                {m: s[m]["median"] / first[m]["median"] - 1.0 for m in first}
                for s in per_set[1:]
            ],
            "traced_seed": seeds[0],
            "per_layer": {m: v["value"] for m, v in traced.items()},
        }
    record = {
        "machine": machine(),
        "seeds": seeds,
        "run_seconds": args.seconds,
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "layer_map": {m.name: list(m.moves) for m in layers.METRICS},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
