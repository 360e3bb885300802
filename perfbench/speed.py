"""How fast the machine runs right now, from a fixed probe kernel.

The benchmark's machine is shared: its speed changes by up to 2x over tens
of seconds, which swamps the differences a benchmark has to show.  Every
timed run is bracketed by probes, and its wall time is scaled by
REFERENCE_S / (the probes' time), which reports it in seconds of a machine
running the probe in REFERENCE_S.  The kernel does what the filters' inner
loops do (unpacking numpy rows, comparisons, 4x4 matrix products in the
interpreter), so it slows down with them.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0096  # the kernel's best time on the 2-core VM of baseline.json


def _kernel(n: int = 3000) -> float:
    import numpy as np

    cells = np.arange(64.0).reshape(16, 4)
    a = np.eye(4) * 2.0
    acc = 0.0
    for i in range(n):
        x_lo, _, x_hi, _ = cells[i % 16]
        if x_lo <= 30.0 < x_hi:
            acc += 1.0
        acc += float((a @ a.T + a)[0, 0])
    return acc


def probe(repeats: int = 3) -> float:
    """Best time of the kernel over a few back-to-back tries, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at reference speed."""
    return seconds * REFERENCE_S / probe_s
