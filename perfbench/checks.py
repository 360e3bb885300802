"""Checks on the files a `mtt track` run writes.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

OUTPUTS = ("metrics.csv", "particles.json")


def read_metrics(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    return header, rows


def check_metrics(path: Path, n_steps: int) -> list[str]:
    """One row per step, steps numbered 0..n-1, every value finite."""
    try:
        header, rows = read_metrics(path)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"{path}: unreadable ({type(exc).__name__}: {exc})"]
    problems = []
    if len(rows) != n_steps:
        problems.append(f"{path}: {len(rows)} rows for {n_steps} steps")
    if [row[0] for row in rows] != [float(k) for k in range(len(rows))]:
        problems.append(f"{path}: step column is not 0..{len(rows) - 1}")
    for k, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"{path}: row {k} has {len(row)} cells for {len(header)} columns")
        bad = [name for name, v in zip(header, row) if not math.isfinite(v)]
        if bad:
            problems.append(f"{path}: row {k} has non-finite {', '.join(bad)}")
    return problems


def check_identical(first: Path, second: Path) -> list[str]:
    """The two runs' metrics.csv and particles.json are byte-identical."""
    problems = []
    for name in OUTPUTS:
        a, b = first / name, second / name
        try:
            same = a.read_bytes() == b.read_bytes()
        except OSError as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        if not same:
            problems.append(f"{a} and {b} differ")
    return problems


def check_eval(metrics: Path, eval_metrics: Path) -> list[str]:
    """`mtt eval` recomputed the same header and values as the run wrote."""
    try:
        tracked, evaluated = read_metrics(metrics), read_metrics(eval_metrics)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"{eval_metrics}: unreadable ({type(exc).__name__}: {exc})"]
    if tracked != evaluated:
        return [f"{eval_metrics} differs from {metrics}"]
    return []


def column_values(path: Path, column: str) -> list[float]:
    header, rows = read_metrics(path)
    i = header.index(column)
    return [row[i] for row in rows]
