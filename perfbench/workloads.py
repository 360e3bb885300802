"""The benchmark's workloads: one `mtt track` config each, plus how many
runs make up one pass and which runs the traced phase covers.

Every run's `--seed` is derived from the workload seed given on the
command line, so the same workload seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict[str, str]
    # (filter, sensor) pairs run for every derived seed, in this order
    filters: tuple[tuple[str, str], ...]
    # derived seeds in one pass; the timed phase always completes one pass,
    # so the accuracy metrics cover a fixed seed list
    seeds_per_pass: int
    # derived seeds the traced phase runs, once untraced and once traced
    traced_seeds: int

    @property
    def n_steps(self) -> int:
        return int(self.config["scenario.n_steps"])

    def config_text(self, n_steps: int | None = None) -> str:
        values = dict(self.config)
        if n_steps is not None:
            values["scenario.n_steps"] = str(n_steps)
        return "".join(f"{key} = {value}\n" for key, value in values.items())

    def run_seeds(self, seed: int) -> list[int]:
        """The pass's derived run seeds; distinct and fixed by (name, seed)."""
        rng = random.Random(f"{self.name}:{seed}")
        return rng.sample(range(1, 2**31), self.seeds_per_pass)

    def pass_runs(self, seed: int) -> list[tuple[int, str, str]]:
        return [(s, f, sensor) for s in self.run_seeds(seed) for f, sensor in self.filters]

    def smaller(self, n_steps: int, seeds_per_pass: int = 1) -> "Workload":
        """A smaller copy of the workload, for the benchmark's self-test."""
        config = dict(self.config, **{"scenario.n_steps": str(n_steps)})
        return replace(
            self, config=config, seeds_per_pass=seeds_per_pass,
            traced_seeds=min(self.traced_seeds, seeds_per_pass),
        )


_SLOW_Q = {"scenario.tau": "0.001", "scenario.q_diag": "0.02,0.0002,0.02,0.0002"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_dense",
            why=(
                "GPF on a 48x48 grid, 20 targets, 800 cells per step: the grid "
                "update and occupancy count call cell_contains millions of times"
            ),
            config={
                "scenario.n_targets": "20",
                "scenario.n_steps": "20",
                **_SLOW_Q,
                "scenario.workspace": "0,0,48,48",
                "sensor.grid_rows": "48",
                "sensor.grid_cols": "48",
                "sensor.m_cells": "800",
                "sensor.snr": "30",
                "gpf.w_prune": "0.05",
                "gpf.d_thresh": "4",
                "gpf.n_max": "400",
            },
            filters=(("gpf", "grid"),),
            seeds_per_pass=8,
            traced_seeds=2,
        ),
        Workload(
            name="mean_combos",
            why=(
                "GPF on the mean sensor, 12 targets: combination enumeration and "
                "conditional Kalman updates every step, no grid code"
            ),
            config={
                "scenario.n_targets": "12",
                "scenario.n_steps": "100",
                **_SLOW_Q,
                "gpf.epsilon": "0.001",
                "gpf.init_weight": "0.7",
            },
            filters=(("gpf", "mean"),),
            seeds_per_pass=9,
            traced_seeds=2,
        ),
        Workload(
            name="baselines_1target",
            why=(
                "kf, pf (1000 particles) and gpf on one target: PF time is per-particle "
                "log_pdf, the short kf/gpf runs are per-run fixed cost"
            ),
            config={
                "scenario.n_targets": "1",
                "scenario.n_steps": "50",
                "scenario.tau": "1.0",
                "scenario.q_diag": "0.2,0.02,0.2,0.02",
                "scenario.initial_states": "6,0.05,6,-0.05",
                "sensor.r_diag": "0.25,0.25",
                "pf.n_particles": "1000",
            },
            filters=(("kf", "mean"), ("pf", "mean"), ("gpf", "mean")),
            seeds_per_pass=12,
            traced_seeds=2,
        ),
    )
}
