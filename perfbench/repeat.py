#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload abstract-ref --seeds 1-10 --seconds 20 \
        [--trace 0] [--baseline baseline.json]

Runs ``run.py`` once per seed, one after another, and prints for each metric
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the median.
Untraced runs also give ``host_wall_s``: the median of each run's unscaled
job times, to compare with the scaled ``wall_s``. With ``--baseline`` the
summary is stored under the workload's name in a JSON file, beside a
description of the machine.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def machine() -> dict[str, object]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list,
                        help="comma-separated seeds or ranges, e.g. 1-10 or 7,1007")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *_, info, last = proc.stdout.splitlines()
        result = json.loads(last)
        if not args.trace:
            result["metrics"]["host_wall_s"] = {
                "value": statistics.median(json.loads(info)["host_job_s"]), "unit": "s"}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    summary = {}
    for name in sorted(values):
        vals = values[name]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name]}
        print(f"{name:42s} {median:14.6g} {units[name]:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:7.2%}  n={len(vals)}")
    if args.baseline:
        stored = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        stored["machine"] = machine()
        stored.setdefault("workloads", {})[f"{args.workload} trace={args.trace}"] = {
            "seconds": args.seconds, "seeds": args.seeds, "metrics": summary,
        }
        args.baseline.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
