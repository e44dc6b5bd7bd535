"""Command-line entry point.

Verbs:
    simulate          run a multi-round simulation, write metrics.csv,
                      summary.json and chain.jsonl under --out
    check-incentives  evaluate conditions T1-T8 plus the dominance table
                      for a parameter file; exit 0 iff all satisfied
    min-rewards       print the minimal feasible reward rates
    trace-round       run one round and pretty-print the eleven steps
                      with balances before/after
    export            revalidate a stored chain dump and re-serialize it

Flags: --config PATH, --out PATH, --seed U64, --rounds N,
--mode abstract|concrete, --set key=value (repeatable). Override
precedence: command line > config file > built-in defaults.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import configio, economics, protocol, sim
from .chain import chain_from_jsonl, chain_to_jsonl, verify_chain_dump

VERBS = ("simulate", "check-incentives", "min-rewards", "trace-round", "export")


class CliError(ValueError):
    """Base class for invocation errors."""


class UnknownVerb(CliError):
    pass


class BadOverride(CliError):
    pass


class MissingConfig(CliError):
    pass


@dataclass
class Command:
    verb: str
    config_path: str | None = None
    output_path: str | None = None
    overrides: dict[str, str] = field(default_factory=dict)


def parse_invocation(argv: list[str]) -> Command:
    """Parse a verb plus flags into a command; overrides keep CLI order."""
    if not argv:
        raise UnknownVerb(f"missing verb; expected one of {', '.join(VERBS)}")
    verb = argv[0]
    if verb in ("-h", "--help"):
        print(__doc__)
        raise SystemExit(0)
    if verb not in VERBS:
        raise UnknownVerb(f"unknown verb {verb!r}; expected one of {', '.join(VERBS)}")
    cmd = Command(verb=verb)
    i = 1
    while i < len(argv):
        flag = argv[i]

        def take_value() -> str:
            if i + 1 >= len(argv):
                raise BadOverride(f"flag {flag} needs a value")
            return argv[i + 1]

        if flag == "--config":
            cmd.config_path = take_value()
            i += 2
        elif flag == "--out":
            cmd.output_path = take_value()
            i += 2
        elif flag == "--seed":
            value = take_value()
            try:
                int(value)
            except ValueError:
                raise BadOverride(f"--seed expects an integer, got {value!r}") from None
            cmd.overrides["seed"] = value
            i += 2
        elif flag == "--rounds":
            value = take_value()
            try:
                int(value)
            except ValueError:
                raise BadOverride(f"--rounds expects an integer, got {value!r}") from None
            cmd.overrides["rounds"] = value
            i += 2
        elif flag == "--mode":
            value = take_value()
            if value not in protocol.MODELS:
                raise BadOverride(
                    f"--mode expects one of {', '.join(protocol.MODELS)}, got {value!r}"
                )
            cmd.overrides["mode"] = value
            i += 2
        elif flag == "--set":
            value = take_value()
            if "=" not in value:
                raise BadOverride(f"--set expects key=value, got {value!r}")
            key, _, raw = value.partition("=")
            if not key.strip():
                raise BadOverride(f"--set expects key=value, got {value!r}")
            cmd.overrides[key.strip()] = raw.strip()
            i += 2
        else:
            raise BadOverride(f"unknown flag {flag!r}")
    return cmd


def _merged_mapping(cmd: Command) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if cmd.config_path is not None:
        path = Path(cmd.config_path)
        if not path.exists():
            raise MissingConfig(f"config file not found: {path}")
        mapping.update(configio.load_kv_file(path))
    mapping.update(cmd.overrides)
    return mapping


def _sim_config(cmd: Command) -> sim.SimConfig:
    try:
        return sim.config_from_mapping(_merged_mapping(cmd))
    except sim.InvalidSimConfig as exc:
        raise BadOverride(str(exc)) from exc


def _econ_params(cmd: Command) -> economics.EconomicParams:
    if cmd.config_path is None:
        raise MissingConfig(f"{cmd.verb} requires --config with economic parameters")
    try:
        return economics.params_from_mapping(_merged_mapping(cmd))
    except economics.InvalidEconomicParams as exc:
        raise BadOverride(str(exc)) from exc


def _run_simulate(cmd: Command) -> int:
    config = _sim_config(cmd)
    run = sim.simulate_run(config)
    out_dir = Path(cmd.output_path or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(run.metrics.to_csv(), encoding="utf-8")
    (out_dir / "summary.json").write_text(sim.summary_json(run) + "\n", encoding="utf-8")
    if run.state is not None:
        (out_dir / "chain.jsonl").write_text(
            chain_to_jsonl(run.state.chain), encoding="utf-8"
        )
    print(
        f"simulated {run.metrics.rounds} rounds "
        f"({len(run.metrics.participant_ids)} participants, seed {config.seed}); "
        f"outputs in {out_dir}"
    )
    return 0


def _run_check_incentives(cmd: Command) -> int:
    params = _econ_params(cmd)
    ir, ic = economics.evaluate_conditions(params)
    satisfied = ir.all_satisfied and ic.all_satisfied
    print(json.dumps({
        "conditions": [e.to_dict() for e in ir.entries + ic.conditions.entries],
        "dominance": [row.to_dict() for row in ic.dominance],
        "all_satisfied": satisfied,
    }, indent=2))
    if satisfied:
        return 0
    print(f"relaysim: unsatisfied: {', '.join(ir.failed() + ic.failed())}", file=sys.stderr)
    return 1


def _run_min_rewards(cmd: Command) -> int:
    params = _econ_params(cmd)
    miner = economics.minimal_miner_rewards(params)
    print(json.dumps({
        "r_cited_min": economics.minimal_citation_reward(params),
        "citation_bounds": economics.citation_reward_bounds(params),
        **miner.to_dict(),
    }, indent=2))
    return 0


def _run_trace_round(cmd: Command) -> int:
    config = _sim_config(cmd)
    if config.round_robin_variant:
        raise BadOverride("trace-round traces the full protocol, not the round-robin variant")
    rng = random.Random(config.seed)
    state = protocol.init_state(config, rng)
    params = sim.params_for_simulation(config)
    before = state.balances()
    state, log = protocol.run_round(state, params, config, rng)
    after = state.balances()
    _print_trace(log, before, after, config)
    if cmd.output_path is not None:
        Path(cmd.output_path).write_text(log.to_json(indent=2) + "\n", encoding="utf-8")
    return 0


def _print_trace(log, before: dict[str, float], after: dict[str, float], config) -> None:
    a = log.assignment
    successes = sum(1 for t in log.training if t.success)
    print(f"round {log.round} trace (mode {config.mode}, seed {config.seed})")
    print(f" (1) bidding: {len(a.mos)} MO(s) {list(a.mos)}, "
          f"{len(a.candidates)} candidate trainer(s), {len(a.miners)} miner(s)")
    print(f" (2) contracts: {len(log.contracts)} escrowed")
    print(f" (3) deposit block mined by {log.miners['DB']}: "
          f"{len(log.contracts)} contract(s) packed, digest {log.block_digests['DB'][:16]}...")
    print(f" (4) transmission: {len(log.matches.pairs)} trainer(s) received a model")
    print(f" (5) training: {successes}/{len(log.training)} succeeded")
    print(f" (6) hash broadcast: {successes} digest(s)")
    eb_records = sum(1 for t in log.training if t.success)
    print(f" (7) encryption block mined by {log.miners['EB']}: "
          f"{eb_records} record(s), digest {log.block_digests['EB'][:16]}...")
    print(f" (8) encryption: {eb_records} model(s) encrypted")
    print(f" (9) testing block mined by {log.miners['TB']}: "
          f"{config.q_cases} case(s), digest {log.block_digests['TB'][:16]}...")
    print(f"(10) outputs: {len(log.verified)} submission(s)")
    print(f"(11) settlement block mined by {log.miners['SB']}: "
          f"{len(log.verified)} verified, top set {log.top_set}, "
          f"digest {log.block_digests['SB'][:16]}...")
    print(f"     minted {log.minted:.6f}, forfeited {log.forfeited:.6f}, "
          f"citation coins {log.citation_coins:.6f}")
    changed = sorted(pid for pid in before if before[pid] != after[pid])
    print(f"balances before -> after ({len(changed)} changed):")
    for pid in changed:
        print(f"  {pid}: {before[pid]:.6f} -> {after[pid]:.6f}")


def _run_export(cmd: Command) -> int:
    if cmd.config_path is None:
        raise MissingConfig("export requires --config with the chain dump to read")
    if cmd.output_path is None:
        raise MissingConfig("export requires --out for the re-serialized dump")
    path = Path(cmd.config_path)
    if not path.exists():
        raise MissingConfig(f"chain dump not found: {path}")
    text = path.read_text(encoding="utf-8")
    violations = verify_chain_dump(text)
    if violations:
        for violation in violations:
            print(f"export: {violation}", file=sys.stderr)
        return 1
    chain = chain_from_jsonl(text)
    Path(cmd.output_path).write_text(chain_to_jsonl(chain), encoding="utf-8")
    print(f"exported {len(chain.blocks)} block(s) to {cmd.output_path}")
    return 0


def execute(cmd: Command) -> int:
    if cmd.verb == "simulate":
        return _run_simulate(cmd)
    if cmd.verb == "check-incentives":
        return _run_check_incentives(cmd)
    if cmd.verb == "min-rewards":
        return _run_min_rewards(cmd)
    if cmd.verb == "trace-round":
        return _run_trace_round(cmd)
    if cmd.verb == "export":
        return _run_export(cmd)
    raise UnknownVerb(f"unknown verb {cmd.verb!r}")


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cmd = parse_invocation(args)
    except CliError as exc:
        print(f"relaysim: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(cmd)
    except CliError as exc:
        print(f"relaysim: {exc}", file=sys.stderr)
        return 2
    except (economics.EconomicsError, sim.SimError, configio.ConfigFormatError,
            ValueError) as exc:
        print(f"relaysim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
