#!/usr/bin/env python3
"""Multi-seed grid-sensor experiment: do tracking errors shrink as
measurements accumulate?

Runs the Gaussian-particle filter on a three-target scenario over a
12x12 detection grid for a batch of seeds, then compares mean position
RMSE and cardinality error over the first ten steps against the last
ten, including a paired t-test across seeds.  Writes one CSV row per
(seed, step).  The t-test needs scipy, which comes with the test extra
(pip install -e '.[test]'), not with the package.
"""

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy import stats

from mtt.sim import ExperimentSetup, ScenarioConfig, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--snr", type=float, default=30.0)
    parser.add_argument("--m-cells", type=int, default=48)
    parser.add_argument("--out", default="grid_convergence.csv")
    args = parser.parse_args()

    tau = 0.001
    rows = []
    early_rmse, late_rmse, early_card, late_card = [], [], [], []
    for seed in range(args.seeds):
        config = ScenarioConfig(
            n_targets=3,
            n_steps=args.steps,
            tau=tau,
            q_diag=(20.0 * tau, 0.2 * tau, 20.0 * tau, 0.2 * tau),
            initial_states=[(3.0, 0, 3.0, 0), (6.0, 0, 6.0, 0), (9.0, 0, 9.0, 0)],
        )
        setup = ExperimentSetup(
            snr=args.snr, m_cells=args.m_cells,
            gpf_w_birth=0.1, gpf_w_prune=0.05, gpf_d_thresh=4.0,
        )
        log = run_experiment(config, "gpf", "grid", np.random.default_rng(seed), setup)
        rmse = [r.rmse for r in log.records]
        card = [r.card_err for r in log.records]
        rows += [(seed, k, rmse[k], card[k]) for k in range(args.steps)]
        early_rmse.append(np.mean(rmse[:10]))
        late_rmse.append(np.mean(rmse[-10:]))
        early_card.append(np.mean(card[:10]))
        late_card.append(np.mean(card[-10:]))
        print(
            f"seed {seed:2d}: rmse {early_rmse[-1]:5.2f} -> {late_rmse[-1]:5.2f}   "
            f"card err {early_card[-1]:5.2f} -> {late_card[-1]:5.2f}"
        )

    p_rmse = stats.ttest_rel(early_rmse, late_rmse, alternative="greater").pvalue
    p_card = stats.ttest_rel(early_card, late_card, alternative="greater").pvalue
    print(
        f"\nmean rmse     {np.mean(early_rmse):5.2f} -> {np.mean(late_rmse):5.2f}"
        f"   paired p = {p_rmse:.2e}"
    )
    print(
        f"mean card err {np.mean(early_card):5.2f} -> {np.mean(late_card):5.2f}"
        f"   paired p = {p_card:.2e}"
    )

    out = Path(args.out)
    lines = ["seed,step,rmse,card_err"]
    lines += [f"{s},{k},{r:.9g},{c:.9g}" for s, k, r, c in rows]
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
