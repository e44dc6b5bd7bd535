#!/usr/bin/env python3
"""Reproduce the reference simulation results.

Runs the default 200-round setting (256 participants, 128 miners per
round, owner budget 0.001, success probability 0.9, selection rate 0.5),
writes plot-ready CSVs, and prints the sustainability and accessibility
analyses:

  - per-participant coins over rounds (coin growth accelerates),
  - model-version distribution over rounds (stabilizes with everyone
    holding a recent version),
  - matched-trainer count against the Q/(1+s) fixed point,
  - the exact closed-form check on the round-robin variant.

The accessibility analysis needs at least 50 rounds, so a shorter
--rounds is rejected before anything runs.

Usage: python scripts/reproduce_results.py [OUT_DIR] [--seed N] [--rounds N]
"""

import argparse
import csv
from pathlib import Path

from relaysim.sim import (
    ACCESSIBILITY_ROUNDS,
    BUCKET_LABELS,
    SimConfig,
    analyze_accessibility,
    analyze_sustainability,
    run_round_robin,
    simulate_run,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="results")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=200)
    args = parser.parse_args()
    if args.rounds < ACCESSIBILITY_ROUNDS:
        parser.error(f"--rounds must be at least {ACCESSIBILITY_ROUNDS}, got {args.rounds}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    config = SimConfig(rounds=args.rounds, seed=args.seed)
    print(f"running {config.rounds} rounds, seed {config.seed} ...")
    metrics = simulate_run(config).metrics
    sust = analyze_sustainability(metrics)
    acc = analyze_accessibility(metrics, config)

    (out / "coins_per_participant.csv").write_text(metrics.to_csv())

    with (out / "version_buckets.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", *BUCKET_LABELS])
        for r, shares in enumerate(metrics.bucket_shares, start=1):
            writer.writerow([r] + [f"{shares[label]:.6f}" for label in BUCKET_LABELS])

    with (out / "trainer_counts.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "trainers", "mos", "successes"])
        for r in range(metrics.rounds):
            writer.writerow([
                r + 1, metrics.trainer_count[r], metrics.mo_count[r],
                metrics.success_count[r],
            ])

    print(f"coin growth accelerating: {sust.accelerating} "
          f"(mean second difference {sust.mean_second_difference:.3f})")
    print(f"mean quadratic coefficient per participant: "
          f"{sust.per_participant_quadratic_coeff:.5f}")
    print(f"trainer count: mean {acc.mean_trainer_count:.2f} over the last "
          f"quartile vs fixed point {acc.fixed_point:.2f} "
          f"(deviation {100 * acc.relative_deviation:.1f}%, "
          f"converged: {acc.converged})")
    top = {k: v for k, v in acc.bucket_shares_last.items() if v > 0}
    print(f"final version buckets: {top}")

    variant = run_round_robin(q_participants=8, rounds=80)
    exact = analyze_sustainability(variant).closed_form_exact
    print(f"round-robin variant matches x(x-1)q/2 exactly: {exact}")
    print(f"CSVs written to {out}/")


if __name__ == "__main__":
    main()
