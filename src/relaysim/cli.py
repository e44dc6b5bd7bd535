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
--mode abstract|concrete, --set key=value (repeatable); ``VERBS`` lists
the flags each verb takes, and any other flag is an error. Override
precedence: command line > config file > built-in defaults. A bad
invocation or an unusable --config or --out path exits 2 before any
work is done.

A config file holds one key=value per line, keyed by the field names of
``sim.SimConfig`` or ``economics.EconomicParams``; blank lines and '#'
comments are ignored, and an unknown key is an error.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, get_type_hints

from . import economics, sim
from .chain import Chain, chain_to_jsonl, verify_chain_dump


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


def _set_override(cmd: Command, flag: str, value: str) -> None:
    key, eq, raw = value.partition("=")
    if not eq or not key.strip():
        raise BadOverride(f"{flag} expects key=value, got {value!r}")
    cmd.overrides[key.strip()] = raw.strip()


# flag -> handler that stores the flag's one value; values are checked
# where the config is built, before any work
FLAGS: dict[str, Callable[[Command, str, str], None]] = {
    "--config": lambda cmd, flag, value: setattr(cmd, "config_path", value),
    "--out": lambda cmd, flag, value: setattr(cmd, "output_path", value),
    "--seed": lambda cmd, flag, value: cmd.overrides.update(seed=value),
    "--rounds": lambda cmd, flag, value: cmd.overrides.update(rounds=value),
    "--mode": lambda cmd, flag, value: cmd.overrides.update(mode=value),
    "--set": _set_override,
}


def parse_invocation(argv: list[str]) -> Command:
    """Parse a verb plus flags into a command; overrides keep CLI order."""
    if not argv:
        raise UnknownVerb(f"missing verb; expected one of {', '.join(VERBS)}")
    verb, args = argv[0], argv[1:]
    if verb in ("-h", "--help"):
        print(__doc__)
        for name, (_, flags) in VERBS.items():
            print(f"{name} takes {' '.join(flags)}")
        raise SystemExit(0)
    if verb not in VERBS:
        raise UnknownVerb(f"unknown verb {verb!r}; expected one of {', '.join(VERBS)}")
    cmd = Command(verb=verb)
    _, takes = VERBS[verb]
    for i in range(0, len(args), 2):
        flag = args[i]
        if flag not in FLAGS:
            raise BadOverride(f"unknown flag {flag!r}")
        if flag not in takes:
            raise BadOverride(f"{verb} does not take {flag}")
        if i + 1 >= len(args):
            raise BadOverride(f"flag {flag} needs a value")
        FLAGS[flag](cmd, flag, args[i + 1])
    return cmd


def _input_file(cmd: Command, what: str) -> Path:
    path = Path(cmd.config_path)
    if not path.exists():
        raise MissingConfig(f"{what} not found: {path}")
    return path


def _output_file(cmd: Command) -> Path | None:
    """The --out file, checked before any work so a bad path costs none."""
    if cmd.output_path is None:
        return None
    path = Path(cmd.output_path)
    if path.is_dir() or not path.parent.is_dir():
        raise BadOverride(f"--out must name a file in an existing directory, got {path}")
    return path


# The spellings of each number type: an int is an optional '+' and ASCII
# digits with no leading zero, a float is ASCII with no '_' or outer space.
_SPELLED = {int: re.compile(r"\+?(0|[1-9][0-9]*)").fullmatch,
            float: lambda raw: raw.isascii() and "_" not in raw and raw == raw.strip()}


def parse_kv_text(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise BadOverride(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise BadOverride(f"line {lineno}: empty key")
        if key in mapping:
            raise BadOverride(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def load_kv_file(path: str | Path) -> dict[str, str]:
    return parse_kv_text(Path(path).read_text(encoding="utf-8"))


def coerce_fields(cls: type, mapping: dict[str, str]) -> dict[str, Any]:
    """Keyword arguments for dataclass ``cls`` parsed from string values.

    Each value is parsed by its field's annotated type: ``bool`` from
    true/1/yes or false/0/no, ``int`` with ``int()`` (exact for 64-bit
    seeds), ``float`` with ``float()``; any other field keeps the stripped
    string. An int must have its one spelling (``_SPELLED``): ``int()``
    alone also reads '07', ' 7', '0_7' or an Arabic-Indic seven as 7. A
    float keeps ``float()``'s spellings ('0.5', '.5', '5e-1' and '+0.50'
    are one value), because the check in front of it and ``cls`` close
    every gap that matters: ASCII with no '_' and no outer whitespace
    rejects Unicode digits and separators, the range checks of
    ``SimConfig`` and ``EconomicParams`` reject 'nan' and 'inf', and no
    output echoes the spelling, only the parsed value. An unknown key or
    an unparseable value raises ``BadOverride``; range checks are left to
    ``cls``.
    """
    hints = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, raw in mapping.items():
        if key not in names:
            raise BadOverride(f"unknown {cls.__name__} parameter {key!r}")
        kind = hints[key]
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered not in ("true", "1", "yes", "false", "0", "no"):
                raise BadOverride(f"{key}: cannot parse {raw!r} as a boolean")
            kwargs[key] = lowered in ("true", "1", "yes")
        elif kind in _SPELLED:
            try:
                if not _SPELLED[kind](raw):
                    raise ValueError(raw)
                kwargs[key] = kind(raw)
            except ValueError as exc:
                raise BadOverride(f"{key}: cannot parse {raw!r} as {kind.__name__}") from exc
        else:
            kwargs[key] = raw.strip()
    return kwargs


def _built(cmd: Command, cls: type) -> Any:
    """``cls`` built from the config file's values under the command line's;
    an undecodable file or a value ``cls`` rejects is a bad invocation."""
    path = None if cmd.config_path is None else _input_file(cmd, "config file")
    try:
        mapping = {} if path is None else load_kv_file(path)
        return cls(**coerce_fields(cls, {**mapping, **cmd.overrides}))
    except ValueError as exc:
        raise BadOverride(str(exc)) from exc


def _evaluated(cmd: Command, evaluate: Callable[[economics.EconomicParams], Any]) -> Any:
    """``evaluate`` applied to the command's economic parameters; a set it
    cannot evaluate is a bad invocation, so exit 1 means only unsatisfied."""
    if cmd.config_path is None:
        raise MissingConfig(f"{cmd.verb} requires --config with economic parameters")
    params = _built(cmd, economics.EconomicParams)
    try:
        return evaluate(params)
    except economics.EconomicsError as exc:
        raise BadOverride(str(exc)) from exc


def _run_simulate(cmd: Command) -> int:
    config = _built(cmd, sim.SimConfig)
    out_dir = Path(cmd.output_path or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    run = sim.simulate_run(config)
    (out_dir / "metrics.csv").write_text(run.metrics.to_csv(), encoding="utf-8")
    (out_dir / "summary.json").write_text(sim.summary_json(run) + "\n", encoding="utf-8")
    (out_dir / "chain.jsonl").write_text(chain_to_jsonl(run.state.chain), encoding="utf-8")
    print(f"simulated {run.metrics.rounds} rounds ({len(run.metrics.participant_ids)} "
          f"participants, seed {config.seed}); outputs in {out_dir}")
    return 0


def _run_check_incentives(cmd: Command) -> int:
    ir, ic = _evaluated(cmd, economics.evaluate_conditions)
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
    def report(params: economics.EconomicParams) -> dict[str, Any]:
        miner = economics.minimal_miner_rewards(params)
        return {
            "r_cited_min": economics.minimal_citation_reward(params),
            "citation_bounds": economics.citation_reward_bounds(params),
            **miner.to_dict(),
        }

    print(json.dumps(_evaluated(cmd, report), indent=2))
    return 0


def _run_trace_round(cmd: Command) -> int:
    config = _built(cmd, sim.SimConfig)
    out = _output_file(cmd)
    run = sim.simulate_run(replace(config, rounds=1))
    log, = run.logs
    after = {pid: p.coins for pid, p in run.state.participants.items()}
    _print_trace(log, run.state.chain, after, config)
    if out is not None:
        out.write_text(log.to_json(indent=2) + "\n", encoding="utf-8")
    return 0


def _print_trace(log, chain, after: dict[str, float], config) -> None:
    """Steps 1-11 of round 1, then each balance it changed: every balance
    starts at zero."""
    a = log.assignment
    successes = sum(success for _, _, _, success, _ in log.training)
    # The round's four blocks end the chain. The EB drops successes whose
    # digest did not change, so the record and encrypted counts come from it.
    payloads = {block.header.kind: block.payload for block in chain.blocks[-4:]}
    digests = {kind: chain.digest(i).hex()[:16] for i, kind in enumerate(payloads, -4)}
    records = len(payloads["EB"].records)
    encrypted = len(payloads["TB"].encrypted_model_digests)
    submissions = len(log.verified) + len(log.rejected)
    print(f"round {log.round} trace (mode {config.mode}, seed {config.seed})")
    print(f" (1) bidding: {len(a.mos)} MO(s) {list(a.mos)}, "
          f"{len(a.candidates)} candidate trainer(s), {len(a.miners)} miner(s)")
    print(f" (2) contracts: {len(log.contracts)} escrowed")
    print(f" (3) deposit block mined by {log.miners['DB']}: "
          f"{len(log.contracts)} contract(s) packed, digest {digests['DB']}...")
    print(f" (4) transmission: {len(log.contracts)} trainer(s) received a model")
    print(f" (5) training: {successes}/{len(log.training)} succeeded")
    print(f" (6) hash broadcast: {successes} digest(s)")
    print(f" (7) encryption block mined by {log.miners['EB']}: "
          f"{records} record(s), digest {digests['EB']}...")
    print(f" (8) encryption: {encrypted} model(s) encrypted")
    print(f" (9) testing block mined by {log.miners['TB']}: "
          f"{config.q_cases} case(s), digest {digests['TB']}...")
    print(f"(10) outputs: {submissions} submission(s), {len(log.rejected)} rejected")
    for trainer_id, reason in log.rejected:
        print(f"     rejected {trainer_id}: {reason}")
    print(f"(11) settlement block mined by {log.miners['SB']}: "
          f"{len(log.verified)} verified, top set {log.top_set}, "
          f"digest {digests['SB']}...")
    print(f"     minted {log.minted:.6f}, forfeited {log.forfeited:.6f}, "
          f"citation coins {log.citation_coins:.6f}")
    changed = sorted(pid for pid, coins in after.items() if coins != 0.0)
    print(f"balances before -> after ({len(changed)} changed):")
    for pid in changed:
        print(f"  {pid}: 0.000000 -> {after[pid]:.6f}")


def _run_export(cmd: Command) -> int:
    if cmd.config_path is None:
        raise MissingConfig("export requires --config with the chain dump to read")
    if cmd.output_path is None:
        raise MissingConfig("export requires --out for the re-serialized dump")
    # Read as bytes, so that no line break is translated before the check.
    text = _input_file(cmd, "chain dump").read_bytes().decode("utf-8")
    out = _output_file(cmd)
    chain = Chain()
    violations = verify_chain_dump(text, chain)
    if violations:
        for violation in violations:
            print(f"export: {violation}", file=sys.stderr)
        return 1
    out.write_text(chain_to_jsonl(chain), encoding="utf-8")
    print(f"exported {len(chain.lines)} block(s) to {out}")
    return 0


_SIM_FLAGS = ("--config", "--out", "--seed", "--mode", "--set")

# verb -> (handler, the flags it takes)
VERBS: dict[str, tuple[Callable[[Command], int], tuple[str, ...]]] = {
    "simulate": (_run_simulate, _SIM_FLAGS + ("--rounds",)),
    "check-incentives": (_run_check_incentives, ("--config", "--set")),
    "min-rewards": (_run_min_rewards, ("--config", "--set")),
    "trace-round": (_run_trace_round, _SIM_FLAGS),
    "export": (_run_export, ("--config", "--out")),
}


def execute(cmd: Command) -> int:
    return VERBS[cmd.verb][0](cmd)


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        status = execute(parse_invocation(args))
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Standard output was closed (`relaysim ... | head -1`). As the Python
        # docs advise, point it at devnull so the flush at exit cannot fail
        # again, and exit 1 without a message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (CliError, OSError) as exc:
        print(f"relaysim: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"relaysim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
