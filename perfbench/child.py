"""Helper processes that run.py starts and waits for.

    python3 perfbench/child.py setup <workload> <seed> <out_dir>
        Import relaysim and load the workload's inputs, then print the
        seconds that took, at the reference speed (see speed.py): one
        set-up as a fresh process pays it.
    python3 perfbench/child.py dump <seed> <path>
        Write the abstract-ref chain dump of <seed> to <path>: the input of
        chain-audit, made with the code under test and not timed.
    python3 perfbench/child.py warm <seed> <path>
        Write the concrete-mode state of <seed> after the cold start to
        <path>: the input of concrete-ref, made the same way.
"""

from __future__ import annotations

import sys
from pathlib import Path

from speed import Speed


def setup(name: str, seed: str, out_dir: str) -> None:
    import workloads  # imports relaysim

    workloads.WORKLOADS[name].load(int(seed), Path(out_dir))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    verb, *rest = argv
    if verb == "setup":
        timed: list[tuple[float, float]] = []
        Speed().run(timed, setup, *rest)
        (host_s, factor), = timed
        print(host_s * factor)
        return 0

    import workloads
    from relaysim import chain, sim

    if verb == "dump":
        seed, path = rest
        config = workloads.sim_config("abstract", workloads.ABSTRACT_ROUNDS, int(seed))
        run = sim.simulate_run(config)
        Path(path).write_text(chain.chain_to_jsonl(run.state.chain), encoding="utf-8")
        return 0
    if verb == "warm":
        seed, path = rest
        Path(path).write_bytes(workloads.warm_state(int(seed)))
        return 0
    print(f"child.py: unknown verb {verb!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
