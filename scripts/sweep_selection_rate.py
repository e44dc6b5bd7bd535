#!/usr/bin/env python3
"""Sweep the selection rate s and compare simulated trainer counts with
the Q/(1+s) prediction.

A higher selection rate promotes more trainers to model owners, which
shrinks the candidate pool next round; the matched-trainer count settles
where the two forces balance. The prediction only applies once owner
capacity stops binding. Starting from the single genesis owner, at most
selection_limit trainers match per owner, so the owner count can only
grow past one when floor(s * selection_limit) >= 2; below that the run
never escapes the cold start (flagged "stuck" below).

The prediction and the simulated count (the mean over the last quarter
of the rounds) are those of ``analyze_accessibility``, which needs at
least 50 rounds.

Usage: python scripts/sweep_selection_rate.py [--rounds N] [--seeds N]
"""

import argparse
import statistics

from relaysim.sim import (
    ACCESSIBILITY_ROUNDS,
    SimConfig,
    analyze_accessibility,
    simulate_run,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=150)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()
    if args.rounds < ACCESSIBILITY_ROUNDS:
        parser.error(f"--rounds must be at least {ACCESSIBILITY_ROUNDS}, got {args.rounds}")
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    limit = SimConfig().q_selection_limit
    print(f"{'s':>5} {'predicted':>10} {'simulated':>10} {'spread':>8} {'dev%':>6}")
    for s in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        reports = []
        for seed in range(args.seeds):
            config = SimConfig(rounds=args.rounds, seed=seed, s=s)
            reports.append(analyze_accessibility(simulate_run(config).metrics, config))
        predicted = reports[0].fixed_point
        means = [report.mean_trainer_count for report in reports]
        mean = statistics.mean(means)
        spread = max(means) - min(means)
        deviation = 100.0 * abs(mean - predicted) / predicted
        note = "" if int(s * limit) >= 2 else "  (stuck in cold start)"
        print(f"{s:>5.1f} {predicted:>10.2f} {mean:>10.2f} "
              f"{spread:>8.2f} {deviation:>6.1f}{note}")


if __name__ == "__main__":
    main()
