"""The four benchmark workloads.

Each workload is a closed loop of identical jobs: one caller runs a job,
waits for it, and starts the next. ``prepare`` makes inputs that cost too
much to count as set-up (in a child process, with the code under test),
``load`` is the set-up a user pays before the first job, ``start`` gives one
job its own copy of the inputs, ``job`` is the user-visible work that is
timed, ``summarize`` reduces a job's products to digests and statistics
after the clock has stopped, and ``check`` tests the outputs, read back
from the files the jobs wrote, once every job has run. All inputs derive
from the seed, so the same seed gives the same inputs.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from relaysim import chain, economics, protocol, sim
from relaysim.economics import ROLE_STRATEGIES, RoleStrategy

from speed import Speed
from tracer import Tracer

ABSTRACT_ROUNDS = 200
# concrete-ref: the first rounds are a cold start whose length varies with
# the seed (3 to ~90 verified submissions a round), so they run once as
# preparation and each job times the steady rounds that follow (~80 each).
WARM_ROUNDS = 10
CONCRETE_ROUNDS = 8
SWEEP_SETS = 1000
# incentive-sweep calibrates once per this many sets (~6 ms of work).
SWEEP_CHUNK = 50


# Text is hashed this many characters at a time, so no encoded copy of a
# whole output (7 MB for an abstract-ref dump) is made.
HASH_CHUNK = 1 << 20


@dataclass
class JobResult:
    """What one job produced: work items, timed segments and products.

    ``job`` fills ``items``, the timed segments and ``raw``: the products
    ``summarize`` needs. ``item_times`` holds (host seconds, speed factor)
    per item, ``other`` the same for the job's timed work outside its items;
    a job with no per-item boundary leaves ``item_times`` empty.
    ``summarize`` fills ``digests``, ``stats`` and ``item_ok``, and run.py
    then drops ``raw``, so no job's outputs stay in memory while later jobs
    run. ``fingerprint`` identifies the outputs exactly, so later jobs of a
    run are checked against the first.
    """

    items: int
    item_times: list[tuple[float, float]] = field(default_factory=list)
    other: list[tuple[float, float]] = field(default_factory=list)
    raw: object = None
    digests: dict[str, str] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)
    item_ok: list[bool] = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return json.dumps([self.digests, self.stats], sort_keys=True)


def sha256_text(text: str) -> str:
    """SHA-256 of ``text`` in UTF-8."""
    digest = hashlib.sha256()
    for i in range(0, len(text), HASH_CHUNK):
        digest.update(text[i:i + HASH_CHUNK].encode("utf-8"))
    return digest.hexdigest()


def utf8_len(text: str) -> int:
    """Bytes of ``text`` in UTF-8; the outputs are ASCII, so no copy is made."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _checked(name: str, ok: bool) -> tuple[str, bool]:
    return name, bool(ok)


def written(out_dir: Path, name: str, result: JobResult) -> tuple[str, list[tuple[str, bool]]]:
    """The output ``name`` as the last job left it on disk, and a check that
    it is the first job's output (later jobs must repeat it exactly)."""
    text = (out_dir / name).read_text(encoding="utf-8")
    return text, [_checked(f"{name} on disk is job 1's output",
                           sha256_text(text) == result.digests[name])]


def dump_checks(dump: str, blocks: int) -> list[tuple[str, bool]]:
    """The chain dump verifies, round-trips byte for byte and has every block."""
    return [
        _checked("dump verifies with no violations", chain.verify_chain_dump(dump) == []),
        _checked("dump re-serializes byte for byte",
                 chain.chain_to_jsonl(chain.chain_from_jsonl(dump)) == dump),
        _checked(f"chain holds {blocks} blocks", dump.count("\n") == blocks),
    ]


def sim_config(mode: str, rounds: int, seed: int) -> sim.SimConfig:
    """The reference setting (Q=256, 128 miners, 100 cases, s=0.5)."""
    return sim.SimConfig(mode=mode, rounds=rounds, seed=seed)


def round_stats(logs, chain_: chain.Chain, config: sim.SimConfig) -> dict[str, int]:
    """Simulated statistics of the rounds in ``logs``; exact counts."""
    rounds = {log.round for log in logs}
    return {
        "protocol.contracts": sum(len(log.contracts) for log in logs),
        "protocol.verified": sum(len(log.verified) for log in logs),
        "protocol.submissions": sum(
            len(b.payload.encrypted_model_digests) for b in chain_.blocks
            if b.header.round in rounds and isinstance(b.payload, chain.TestingPayload)
        ),
        "protocol.transfers": sum(len(log.transfers) for log in logs),
        "protocol.citation_hops": sum(
            round(log.citation_coins / config.coin_unit) for log in logs
        ),
        "chain.blocks": len(chain_.blocks),
    }


class Workload:
    name = ""
    item = ""

    def prepare(self, seed: int, out_dir: Path, helper) -> None:
        """Untimed preparation before set-up; ``helper`` runs child.py."""

    def load(self, seed: int, out_dir: Path):
        raise NotImplementedError

    def start(self, inputs):
        return inputs

    def job(self, inputs, out_dir: Path, tracer: Tracer, speed: Speed) -> JobResult:
        raise NotImplementedError

    def summarize(self, inputs, result: JobResult) -> None:
        """Fill ``result``'s digests, stats and item_ok from ``result.raw``."""
        raise NotImplementedError

    def check(self, inputs, out_dir: Path, result: JobResult) -> list[tuple[str, bool]]:
        """Check the first job's outputs, as the jobs left them in ``out_dir``."""
        raise NotImplementedError


class AbstractRef(Workload):
    """``relaysim simulate``: abstract mode, 200 rounds, then the three outputs."""

    name = "abstract-ref"
    item = "round"

    def load(self, seed, out_dir):
        return sim_config("abstract", ABSTRACT_ROUNDS, seed)

    def job(self, config, out_dir, tracer, speed):
        rounds, other = [], []
        with tracer, speed.timing(protocol, "run_round", rounds):
            run = sim.simulate_run(config)
            outputs = {
                "metrics.csv": speed.run(other, run.metrics.to_csv),
                "summary.json": speed.run(other, sim.summary_json, run) + "\n",
                "chain.jsonl": speed.run(other, chain.chain_to_jsonl, run.state.chain),
            }
            for name, text in outputs.items():
                speed.run(other, (out_dir / name).write_text, text, "utf-8")
        return JobResult(config.rounds, rounds, other, raw=(run, outputs))

    def summarize(self, config, result):
        run, outputs = result.raw
        result.digests = {name: sha256_text(text) for name, text in outputs.items()}
        result.stats = round_stats(run.logs, run.state.chain, config)
        result.stats["chain.dump_bytes"] = utf8_len(outputs["chain.jsonl"])
        result.stats["sim.csv_bytes"] = utf8_len(outputs["metrics.csv"])

    def check(self, config, out_dir, result):
        dump, checks = written(out_dir, "chain.jsonl", result)
        text, summary_checks = written(out_dir, "summary.json", result)
        summary = json.loads(text)
        return checks + summary_checks + dump_checks(dump, 4 * config.rounds + 1) + [
            _checked("summary.json reports both analysis flags",
                     isinstance((summary.get("sustainability") or {}).get("accelerating"), bool)
                     and isinstance((summary.get("accessibility") or {}).get("converged"), bool)),
        ]


def warm_state(seed: int) -> bytes:
    """concrete-ref's input: the state after the cold start, pickled.

    Draws from the seeded generator exactly as ``sim.simulate_run`` does, so
    a job's rounds are rounds 11-18 of ``relaysim simulate --mode concrete``.
    """
    config = sim_config("concrete", WARM_ROUNDS + CONCRETE_ROUNDS, seed)
    rng = random.Random(config.seed)
    state = protocol.init_state(config, rng)
    params = sim.params_for_simulation(config)
    for _ in range(WARM_ROUNDS):
        state, _ = protocol.run_round(state, params, config, rng)
    return pickle.dumps((config, state, rng))


class ConcreteRef(Workload):
    """Concrete mode: steady rounds that verify every submission by mock FHE."""

    name = "concrete-ref"
    item = "round"

    def prepare(self, seed, out_dir, helper):
        helper("warm", str(seed), str(out_dir / "warm.pickle"))

    def load(self, seed, out_dir):
        return (out_dir / "warm.pickle").read_bytes()

    def start(self, inputs):
        # A fresh copy of the warmed (config, state, generator) per job; the
        # bytes were written by child.py from the same checkout.
        return pickle.loads(inputs)

    def job(self, warm, out_dir, tracer, speed):
        config, state, rng = warm
        logs, rounds, other = [], [], []
        with tracer:
            params = sim.params_for_simulation(config)
            for _ in range(CONCRETE_ROUNDS):
                state, log = speed.run(rounds, protocol.run_round, state, params, config, rng)
                logs.append(log)
            dump = speed.run(other, chain.chain_to_jsonl, state.chain)
            speed.run(other, (out_dir / "chain.jsonl").write_text, dump, "utf-8")
        return JobResult(CONCRETE_ROUNDS, rounds, other, raw=(config, logs, state.chain, dump))

    def summarize(self, inputs, result):
        config, logs, chain_, dump = result.raw
        result.digests = {"chain.jsonl": sha256_text(dump)}
        result.stats = round_stats(logs, chain_, config)
        result.stats["chain.dump_bytes"] = utf8_len(dump)

    def check(self, inputs, out_dir, result):
        # Every simulated trainer is honest, so every submission verifies.
        dump, checks = written(out_dir, "chain.jsonl", result)
        submissions = result.stats["protocol.submissions"]
        blocks = 4 * (WARM_ROUNDS + CONCRETE_ROUNDS) + 1
        return checks + dump_checks(dump, blocks) + [_checked(
            "accept ratio is 1.0",
            submissions > 0 and result.stats["protocol.verified"] == submissions,
        )]


class ChainAudit(Workload):
    """``relaysim export`` on the abstract-ref dump of the same seed."""

    name = "chain-audit"
    item = "block"

    def prepare(self, seed, out_dir, helper):
        helper("dump", str(seed), str(out_dir / "input.jsonl"))

    def load(self, seed, out_dir):
        return (out_dir / "input.jsonl").read_text(encoding="utf-8")

    def job(self, dump, out_dir, tracer, speed):
        other = []
        with tracer:
            violations = speed.run(other, chain.verify_chain_dump, dump)
            parsed = speed.run(other, chain.chain_from_jsonl, dump)
            redump = speed.run(other, chain.chain_to_jsonl, parsed)
            speed.run(other, (out_dir / "export.jsonl").write_text, redump, "utf-8")
        return JobResult(dump.count("\n"), other=other, raw=(violations, redump))

    def summarize(self, dump, result):
        violations, redump = result.raw
        result.digests = {"export.jsonl": sha256_text(redump)}
        result.stats = {
            "chain.blocks": result.items,
            "chain.dump_bytes": utf8_len(dump),
            "chain.violations": len(violations),
        }

    def check(self, dump, out_dir, result):
        redump, checks = written(out_dir, "export.jsonl", result)
        return checks + [
            _checked("dump verifies with no violations", result.stats["chain.violations"] == 0),
            _checked("export reproduces the dump byte for byte", redump == dump),
            _checked(f"dump holds 4*{ABSTRACT_ROUNDS}+1 blocks",
                     result.stats["chain.blocks"] == 4 * ABSTRACT_ROUNDS + 1),
        ]


def draw_params(rng: random.Random) -> tuple[economics.EconomicParams, float]:
    """One parameter set and reward margin from the ranges the acceptance
    tests sample; ``minimal_rewards(base, margin)`` makes it feasible."""
    gap = rng.randrange(0, 6)
    coin_unit = rng.uniform(0.0, 2.0)
    base = economics.EconomicParams(
        beta=rng.uniform(0.05, 0.95),
        s=rng.uniform(0.05, 0.95),
        b_mo=rng.uniform(0.0, 1.0),
        b_t=gap * coin_unit + rng.uniform(1e-6, 2.0),
        k_transmit=rng.uniform(0.0, 1e-4),
        k_encrypt=rng.uniform(0.0, 1e-4),
        k_expand=rng.uniform(1.0, 4.0),
        model_size=rng.uniform(0.0, 1e5),
        p_comp=rng.uniform(0.0, 1e-8),
        data_volume=rng.uniform(0.0, 1e3),
        train_time=rng.uniform(0.0, 10.0),
        c_mine=rng.uniform(0.0, 0.1),
        c_gen_fhe_key=rng.uniform(0.0, 0.1),
        c_gen_td_case_unit=rng.uniform(0.0, 1e-3),
        c_verify_unit=rng.uniform(0.0, 1e-4),
        q_selected=rng.randrange(1, 9),
        q_selected_mo_avg=rng.uniform(0.5, 8.0),
        q_selected_t_avg=rng.uniform(0.5, 8.0),
        q_broadcast=rng.randrange(1, 17),
        q_deposit=rng.randrange(2, 65),
        q_deposit_less=1,
        q_hash_m=rng.randrange(1, 65),
        q_encrypted_m=rng.randrange(1, 65),
        q_cases=rng.randrange(1, 201),
        q_verified_m=rng.randrange(1, 65),
        v_rec_m=10 + gap,
        v_now_t=10,
        v_fhem=rng.randrange(5, 11),
        v_now_ebm=5,
        coin_unit=coin_unit,
    )
    return base, rng.uniform(1e-9, 0.1)


class IncentiveSweep(Workload):
    """Minimal rewards, then T1-T8, dominance and every utility, per set."""

    name = "incentive-sweep"
    item = "parameter set"

    def load(self, seed, out_dir):
        rng = random.Random(seed)
        pairs = [RoleStrategy(role, s) for role, group in ROLE_STRATEGIES.items()
                 for s in group]
        return [draw_params(rng) for _ in range(SWEEP_SETS)], pairs

    def job(self, inputs, out_dir, tracer, speed):
        draws, pairs = inputs
        clock = time.perf_counter
        item_times = []
        solved = []
        with tracer:
            for i, (base, margin) in enumerate(draws):
                if i % SWEEP_CHUNK == 0:
                    factor = speed.factor()
                start = clock()
                p = economics.minimal_rewards(base, margin)
                ir, ic = economics.evaluate_conditions(p)
                utilities = [economics.strategy_utility(rs, p) for rs in pairs]
                item_times.append((clock() - start, factor))
                solved.append((ir, ic, utilities))
        return JobResult(len(draws), item_times, raw=solved)

    def summarize(self, inputs, result):
        values = [
            [e.slack for e in ir.entries + ic.conditions.entries]
            + [row.utility_gap for row in ic.dominance] + utilities
            for ir, ic, utilities in result.raw
        ]
        result.digests = {"solved.json": sha256_text(json.dumps(values))}
        result.item_ok = [ir.all_satisfied and ic.all_satisfied for ir, ic, _ in result.raw]

    def check(self, inputs, out_dir, result):
        # T1-T8 and every dominance row hold for each solved set.
        return [_checked(f"set {i} satisfies T1-T8 and every dominance row", ok)
                for i, ok in enumerate(result.item_ok)]


WORKLOADS = {w.name: w for w in (AbstractRef(), ConcreteRef(), ChainAudit(), IncentiveSweep())}
