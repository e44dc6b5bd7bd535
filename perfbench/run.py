#!/usr/bin/env python3
"""relaysim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload abstract-ref --seed 7 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's ``src/`` and writes only under ``.perfbench_out/``
at the checkout root.

A run loads the workload's inputs from ``--seed``, then runs identical jobs
one after another (a closed loop with one caller) until ``--seconds`` have
passed, at least three jobs. After the last job it checks the outputs, as
the jobs left them on disk, and that every later job reproduced the first
exactly. With ``--trace 0`` it reports the
end-to-end metrics. With ``--trace 1`` it alternates untraced and traced
jobs and reports per-layer metrics from the traced ones, writing their spans
to ``.perfbench_out/<workload>/spans.csv``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it describes the run.

All times are host time at a reference speed (see ``speed.py``): each round,
each other piece of a job is bracketed by a short calibration loop (each
chunk of parameter sets is preceded by one), and its host time is scaled by
how much slower or faster than the reference that loop ran. The line before the result gives
the unscaled host times. Traced runs do not calibrate; their per-layer
times are plain host time.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from speed import Speed
from tracer import SPANS, Tracer, layer_metrics, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MIN_JOBS = 3
MAX_TRACED_JOBS = 3
PREPARE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
# Simulated statistics and sizes reported per traced job; exact counts.
JOB_STATS = (
    "protocol.contracts",
    "protocol.verified",
    "protocol.transfers",
    "protocol.citation_hops",
    "chain.blocks",
    "chain.dump_bytes",
    "sim.csv_bytes",
)


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "crypto.us_per_case":
        return "us"
    if name.endswith(("_ratio", "_per_block", "_per_submission")):
        return "ratio"
    return "count"


def child(*argv: str, timeout: float | None = None) -> str:
    """Run child.py with ``argv``, wait for it and return its output."""
    return subprocess.run([sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT,
                          check=True, timeout=timeout, stdout=subprocess.PIPE,
                          text=True).stdout


def prepare_child(*argv: str) -> None:
    child(*argv, timeout=PREPARE_TIMEOUT_S)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) with linear interpolation."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Job:
    """One job: its result, host seconds without calibration, the speed
    factor of its timed pieces weighted by their host time, and each item's
    scaled seconds. The item times are kept as an array: a run of
    incentive-sweep holds ~200 jobs of 1000 items, and as tuples of floats
    they would grow peak_rss_mb with the number of jobs a run fits in."""

    result: object
    host_s: float
    factor: float
    item_s: array
    tracer: Tracer

    @property
    def wall_s(self) -> float:
        return self.host_s * self.factor


def run_job(workload, inputs, out_dir: Path, spans, speed: Speed, jobs: list[Job]) -> Job:
    """Run one job and append it to ``jobs``. Its products are reduced to
    digests and statistics after the clock stops, then dropped."""
    gc.collect()
    tracer = Tracer(spans)
    job_inputs = workload.start(inputs)
    calibrating_s = speed.spent_s
    start = time.perf_counter()
    result = workload.job(job_inputs, out_dir, tracer, speed)
    host_s = time.perf_counter() - start - (speed.spent_s - calibrating_s)
    del job_inputs
    workload.summarize(inputs, result)
    result.raw = None
    pieces = result.item_times + result.other
    factor = sum(h * f for h, f in pieces) / sum(h for h, _ in pieces)
    if result.item_times:
        item_s = array("d", (h * f for h, f in result.item_times))
    else:
        # No per-item boundary to time from outside: each item gets the mean.
        item_s = array("d", [host_s * factor / result.items]) * result.items
    result.item_times = result.other = []
    job = Job(result, host_s, factor, item_s, tracer)
    jobs.append(job)
    return job


def verify(workload, inputs, out_dir: Path, results) -> list[tuple[str, bool]]:
    """Check the first job's outputs and that every later job repeats them.
    Runs after the measurement, so the checks' memory is not in peak_rss_mb."""
    checks = workload.check(inputs, out_dir, results[0])
    checks += [
        (f"job {k} repeats job 1 exactly", r.fingerprint == results[0].fingerprint)
        for k, r in enumerate(results[1:], 2)
    ]
    return checks


def measure(workload, inputs, out_dir: Path, seconds: float):
    """Untraced jobs for ``seconds``: end-to-end metrics and the jobs.

    ``wall_s`` is the median job; ``items_per_s`` divides a job's items by
    the median time its items took (outputs excluded). Every job does the
    same items, so each item's time is its median over the jobs, and the
    item percentiles are taken over those: they show how the work's cost
    varies from item to item (later rounds settle deeper lineages), not a
    moment when the machine ran slow.
    """
    speed = Speed()
    jobs: list[Job] = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        run_job(workload, inputs, out_dir, (), speed, jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    item_s = [statistics.median(times) for times in zip(*(job.item_s for job in jobs))]
    metrics = {
        "wall_s": statistics.median(job.wall_s for job in jobs),
        "items_per_s": jobs[0].result.items
        / statistics.median(sum(job.item_s) for job in jobs),
        "item_p50_ms": 1e3 * statistics.median(item_s),
        "item_p95_ms": 1e3 * percentile(item_s, 95),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, jobs


def trace(workload, inputs, out_dir: Path, seconds: float):
    """Alternate untraced and traced jobs: per-layer metrics and the jobs."""
    speed = Speed(enabled=False)
    untraced: list[Job] = []
    traced: list[Job] = []
    per_job = []
    start = time.perf_counter()
    with open(out_dir / "spans.csv", "w", encoding="utf-8") as spans_file:
        spans_file.write("job,span,parent,name,start_s,end_s\n")
        while not traced or (len(traced) < MAX_TRACED_JOBS
                             and time.perf_counter() - start < seconds):
            run_job(workload, inputs, out_dir, (), speed, untraced)
            job = run_job(workload, inputs, out_dir, SPANS, speed, traced)
            metrics = layer_metrics(job.tracer.spans, job.result.stats)
            metrics.update({name: float(job.result.stats.get(name, 0)) for name in JOB_STATS})
            per_job.append(metrics)
            spans_file.writelines(
                f"{len(traced)},{sid},{parent},{name},{t0!r},{t1!r}\n"
                for sid, parent, name, t0, t1 in job.tracer.spans
            )
            job.tracer.spans.clear()
    metrics = median_metrics(per_job)
    metrics["trace.overhead_ratio"] = (statistics.median(j.wall_s for j in traced)
                                       / statistics.median(j.wall_s for j in untraced))
    return metrics, untraced + traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relaysim" / "__init__.py").is_file():
        print(f"perfbench: no relaysim package under {SRC}; "
              "run the benchmark inside a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(args.seed, out_dir, prepare_child)
    setup_s = [float(child("setup", workload.name, str(args.seed), str(out_dir),
                           timeout=PREPARE_TIMEOUT_S))
               for _ in range(0 if args.trace else SETUP_PROBES)]
    inputs = workload.load(args.seed, out_dir)

    if args.trace:
        metrics, jobs = trace(workload, inputs, out_dir, args.seconds)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, jobs = measure(workload, inputs, out_dir, args.seconds)
        metrics["setup_s"] = statistics.median(setup_s)
        units = END_TO_END_UNITS
    results = [job.result for job in jobs]
    checks = verify(workload, inputs, out_dir, results)
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"perfbench: check failed: {name}", file=sys.stderr)

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "jobs": len(jobs),
        "items_per_job": results[0].items,
        "item": workload.item,
        "host_job_s": [job.host_s for job in jobs],
        "speed_factor": [job.factor for job in jobs],
        "output_sha256": results[0].digests,
        "stats": results[0].stats,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
