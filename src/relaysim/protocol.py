"""One full training round: bidding through settlement.

A round walks eleven steps over the shared state: (1) deposit bidding,
(2) escrowed contracts, (3) the deposit block, (4) model transmission,
(5) training with a per-trainer success probability, (6-7) digest
broadcast and the encryption block with a fresh keypair, (8-9) model
encryption and the testing block with published cases, (10) output
computation, and (11) the settlement block: verification, ranking,
deposit return or forfeit, the citation cascade up each winner's
lineage, and minted miner rewards. Each block's miner is paid the coinbase
made where the block is mined; the deposit block carries its coinbase on
the chain.

What a model is comes from one of two backends in ``MODELS``, chosen by
``config.mode``: ``AbstractModels`` stands for a model by its owner and
version label and draws each verified performance from the round's
generator; ``ConcreteModels`` trains real weights toward a hidden target
and verifies each submission under the mock FHE scheme. The eleven steps
are the same for both.

Money rules: deposits are escrowed (debited on contract creation,
credited back only on return); forfeited deposits are destroyed; all
reward coins (citation plus miner) are minted by the protocol.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterable, Sequence

from . import auction, chain as chainmod, crypto
from .serialize import digest as canonical_digest

CONTRACT_ACTIVE = "Active"
CONTRACT_RETURNED = "Returned"
CONTRACT_FORFEITED = "Forfeited"

GENESIS_VERSION = 1

# A submission that failed settlement verification: (trainer id, verdict reason).
Rejection = tuple[str, str]
# A signed balance change (a credit is positive) and a matched trainer's
# step (5), new version None on failure. Both are exact tuples of scalars,
# which the cyclic collector stops tracking; ``RoundLog.to_json`` writes each
# as an object with these keys.
Transfer = tuple[str, float, str]
TRANSFER_KEYS = ("participant_id", "amount", "reason")
TrainingOutcome = tuple[str, str, int, bool, int | None]
TRAINING_KEYS = ("trainer_id", "mo_id", "received_version", "success", "new_version")


class ProtocolError(ValueError):
    """Base class for round-engine errors."""


class PoolSizeMismatch(ProtocolError):
    """Participant counts cannot fill the configured pools."""


class UnknownContract(ProtocolError):
    """Settlement referenced a contract that was never created."""


class ContractStateError(ProtocolError):
    """Deposit contracts only transition Active -> Returned / Forfeited."""


class LineageError(ProtocolError):
    """Lineage edges must be unique and point to strictly older versions."""


@dataclass
class Participant:
    id: str
    coins: float = 0.0
    model_version: int = 0
    model: crypto.ModelWeights | None = None
    # digest of the held model, made with the model and copied along with it
    model_digest: bytes | None = None


@dataclass
class DepositContract:
    mo_id: str
    trainer_id: str
    mo_amount: float
    t_amount: float
    round: int
    status: str = CONTRACT_ACTIVE

    def mark(self, new_status: str) -> None:
        if self.status != CONTRACT_ACTIVE:
            raise ContractStateError(
                f"contract {self.mo_id}/{self.trainer_id} already {self.status}"
            )
        if new_status not in (CONTRACT_RETURNED, CONTRACT_FORFEITED):
            raise ContractStateError(f"invalid contract status {new_status!r}")
        self.status = new_status


@dataclass
class Lineage:
    """Parent pointers per trained model, rooted at the genesis initiator.

    A model is the node ``(owner, version)``; the parent of a trained model
    is the node ``(parents[node], version - 1)``, and genesis-version nodes
    have none. ``citations`` counts a round's ancestors in one pass over
    the nodes; ``ancestors`` is the hop-by-hop walk it must agree with.
    """

    parents: dict[tuple[str, int], str] = field(default_factory=dict)

    def record(self, owner_id: str, version: int, parent_id: str) -> None:
        key = (owner_id, version)
        if key in self.parents:
            raise LineageError(f"model {key} already has a parent")
        if version <= GENESIS_VERSION:
            raise LineageError(f"trained model version must exceed {GENESIS_VERSION}")
        self.parents[key] = parent_id

    def ancestors(self, owner_id: str, version: int) -> list[str]:
        """All predecessor owners from the direct parent back to genesis."""
        result = []
        key = (owner_id, version)
        while key in self.parents:
            parent = self.parents[key]
            result.append(parent)
            key = (parent, key[1] - 1)
        return result

    def citations(self, heads: Iterable[tuple[str, int]]) -> dict[str, int]:
        """How often each owner appears across the ``ancestors`` walks of
        ``heads``, keyed in order of first appearance.

        Each ``(owner, version)`` node is visited once. A head's walk enters
        one pass at its parent node and climbs until it reaches a node that
        an earlier walk covered, where it stops, since the rest of the path
        is already covered. The owners it skips have all appeared, so the
        key order is that of the full walks. The passes are then pushed up
        to the parents in descending version order, so each node adds the
        number of walks through it to its owner's count.
        """
        parents = self.parents
        passes: dict[tuple[str, int], int] = {}
        counts: dict[str, int] = {}
        for node in heads:
            entering = 1
            while node in parents:
                node = (parents[node], node[1] - 1)
                if node in passes:
                    passes[node] += entering
                    break
                passes[node] = entering
                entering = 0
                counts.setdefault(node[0], 0)
        for node in sorted(passes, key=itemgetter(1), reverse=True):
            walks = passes[node]
            counts[node[0]] += walks
            if node in parents:
                passes[parents[node], node[1] - 1] += walks
        return counts


@dataclass(frozen=True)
class RoleAssignment:
    mos: tuple[str, ...]          # ranked best-first
    miners: tuple[str, ...]
    candidates: tuple[str, ...]


@dataclass
class RoundLog:
    round: int
    assignment: RoleAssignment
    matches: auction.MatchResult
    contracts: list[DepositContract]
    block_digests: dict[str, str]
    miners: dict[str, str]
    training: list[TrainingOutcome]
    verified: list[chainmod.VerifiedRecord]
    rejected: list[Rejection]
    top_set: list[str]
    transfers: list[Transfer]
    minted: float
    forfeited: float
    citation_coins: float

    def to_json(self, indent: int | None = None) -> str:
        """The dataclass layout, each transfer and outcome an object."""
        data = asdict(self)
        data["training"] = [dict(zip(TRAINING_KEYS, t)) for t in self.training]
        data["transfers"] = [dict(zip(TRANSFER_KEYS, t)) for t in self.transfers]
        return json.dumps(data, indent=indent)


@dataclass
class SimState:
    participants: dict[str, Participant]
    chain: chainmod.Chain
    lineage: Lineage
    genesis_id: str
    round_index: int = 0
    prev_top: list[str] = field(default_factory=list)
    prev_mos: list[str] = field(default_factory=list)
    target_model: crypto.ModelWeights | None = None

    def head_version(self) -> int:
        return max(p.model_version for p in self.participants.values())


def participant_ids(count: int) -> list[str]:
    width = max(3, len(str(max(count - 1, 0))))
    return [f"p{i:0{width}d}" for i in range(count)]


def init_state(config, rng: random.Random) -> SimState:
    """Fresh state: all balances zero, genesis model held by the initiator."""
    ids = participant_ids(config.q_total_participants)
    participants = {pid: Participant(id=pid) for pid in ids}
    genesis_id = ids[0]
    models = MODELS[config.mode]
    genesis = participants[genesis_id]
    target, genesis.model = models.start(config, rng)
    genesis.model_version = GENESIS_VERSION
    genesis.model_digest = models.digest(genesis)
    return SimState(
        participants=participants,
        chain=chainmod.new_chain(),
        lineage=Lineage(),
        genesis_id=genesis_id,
        target_model=target,
    )


def allocate_roles(state: SimState, config, rng: random.Random) -> RoleAssignment:
    """Per-round role split: pinned MOs, then a fresh miner/candidate draw.

    Round one has exactly the genesis initiator as sole MO; afterwards
    the MOs are the previous round's top-ranked trainers. A round with
    no previous winners retains the best previous MO so the chain never
    loses all model owners.
    """
    if len(state.participants) != config.q_total_participants:
        raise PoolSizeMismatch(
            f"state has {len(state.participants)} participants, config says "
            f"{config.q_total_participants}"
        )
    if state.round_index == 0:
        mos = [state.genesis_id]
    elif state.prev_top:
        mos = list(state.prev_top)
    else:
        mos = [state.prev_mos[0]]
    mo_set = set(mos)
    others = [pid for pid in state.participants if pid not in mo_set]
    if len(others) < config.q_miners:
        raise PoolSizeMismatch(
            f"{len(others)} non-MO participants cannot fill {config.q_miners} miner slots"
        )
    shuffled = list(others)
    rng.shuffle(shuffled)
    miners = shuffled[:config.q_miners]
    candidates = shuffled[config.q_miners:]
    return RoleAssignment(tuple(mos), tuple(miners), tuple(candidates))


def rank_and_select(
    verified: Sequence[chainmod.VerifiedRecord], s: float
) -> list[str]:
    """Best performers first: floor(s * verified), clamped to at least one."""
    if not verified:
        return []
    ranked = sorted(verified, key=lambda r: (r.performance, r.trainer_id))
    count = max(1, int(s * len(verified)))
    return [r.trainer_id for r in ranked[:count]]


@dataclass(frozen=True)
class Submission:
    """Everything the settlement miner sees for one trained model."""

    mo_id: str
    trainer_id: str
    committed_digest: bytes
    ciphertext: crypto.Ciphertext
    claimed_outputs: tuple[crypto.Vector, ...]


def collect_verified(
    submissions: Sequence[Submission],
    pk: bytes,
    testing_inputs: Sequence[Sequence[float]],
    testing_truths: Sequence[Sequence[float]],
) -> tuple[list[chainmod.VerifiedRecord], list[Rejection]]:
    """Settlement-side filter: only submissions passing both verification
    parts enter the verified list (and thus become eligible for the top set).
    Every other submission is returned as a ``Rejection``."""
    verified, rejected = [], []
    for sub in submissions:
        verdict = crypto.verify_submission(
            sub.committed_digest, sub.ciphertext, sub.claimed_outputs,
            pk, testing_inputs,
        )
        if not verdict.accepted:
            rejected.append((sub.trainer_id, verdict.reason))
            continue
        perf = crypto.performance_index(sub.claimed_outputs, testing_truths)
        verified.append(chainmod.VerifiedRecord(sub.mo_id, sub.trainer_id, perf))
    return verified, rejected


class AbstractModels:
    """Label models: a model is its (owner, version) pair, digests hash
    that label, and each verified performance is a uniform draw."""

    def start(self, config, rng: random.Random):
        return None, None

    def digest(self, maker: Participant) -> bytes:
        """Digest of the model ``maker`` has just made."""
        return canonical_digest(["abstract-model", maker.id, maker.model_version])

    def train(self, trainer: Participant, version: int,
              target, config, rng: random.Random) -> bytes:
        trainer.model_version = version
        trainer.model_digest = self.digest(trainer)
        return trainer.model_digest

    def encrypt(self, pk: bytes, trainer: Participant) -> tuple[None, bytes]:
        return None, canonical_digest(
            ["abstract-encrypted-model", trainer.id, trainer.model_version]
        )

    def testing_cases(self, target, config, rng: random.Random):
        inputs = tuple((rng.random(),) for _ in range(config.q_cases))
        truths = tuple((rng.random(),) for _ in range(config.q_cases))
        return inputs, truths

    def verify(self, sealed: Sequence[tuple], participants, pk: bytes, inputs, truths,
               rng: random.Random) -> tuple[list[chainmod.VerifiedRecord], list[Rejection]]:
        return [
            chainmod.VerifiedRecord(record.prev_owner_id, record.trainer_id, rng.random())
            for record, _, _ in sealed
        ], []


class ConcreteModels:
    """Linear models with real weights: training contracts toward a hidden
    target, and settlement verifies each submission under the mock FHE."""

    def start(self, config, rng: random.Random):
        """(target model, genesis model), both drawn in [-1, 1]."""
        dim = config.model_dim
        target = crypto.ModelWeights(
            version=0,
            weights=tuple(rng.uniform(-1.0, 1.0) for _ in range(dim + 1)),
        )
        genesis_weights = tuple(rng.uniform(-1.0, 1.0) for _ in range(dim + 1))
        return target, crypto.ModelWeights(
            version=GENESIS_VERSION, weights=genesis_weights
        )

    def digest(self, maker: Participant) -> bytes:
        """Digest of the model ``maker`` has just made."""
        return crypto.model_digest(maker.model)

    def train(self, trainer: Participant, version: int,
              target, config, rng: random.Random) -> bytes:
        # per-trainer jitter stays below the configured rate, so any
        # rate in (0, 1) remains a valid contraction
        rate = config.training_rate * (0.5 + 0.5 * rng.random())
        trainer.model = crypto.train_toward(trainer.model, target, rate)
        trainer.model_version = trainer.model.version
        trainer.model_digest = self.digest(trainer)
        return trainer.model_digest

    def encrypt(self, pk: bytes, trainer: Participant) -> tuple[crypto.Ciphertext, bytes]:
        ct = crypto.fhe_encrypt(pk, trainer.model)
        return ct, crypto.ciphertext_digest(ct)

    def testing_cases(self, target, config, rng: random.Random):
        inputs = tuple(
            tuple(rng.uniform(-1.0, 1.0) for _ in range(target.input_dim))
            for _ in range(config.q_cases)
        )
        return inputs, crypto.evaluate_cases(target, inputs)

    def verify(self, sealed: Sequence[tuple], participants, pk: bytes, inputs, truths,
               rng: random.Random) -> tuple[list[chainmod.VerifiedRecord], list[Rejection]]:
        """Step (10), each trainer's claimed outputs, then the SB check."""
        submissions = [
            Submission(
                record.prev_owner_id, record.trainer_id, digest, ct,
                crypto.evaluate_cases(participants[record.trainer_id].model, inputs),
            )
            for record, ct, digest in sealed
        ]
        return collect_verified(submissions, pk, inputs, truths)


MODELS = {"abstract": AbstractModels(), "concrete": ConcreteModels()}


def _debit(p: Participant, amount: float, reason: str, transfers: list[Transfer]) -> None:
    if amount == 0.0:
        return
    if amount > p.coins + 1e-9:
        raise ProtocolError(
            f"{p.id} cannot escrow {amount} with balance {p.coins}"
        )
    p.coins = max(0.0, p.coins - amount)
    transfers.append((p.id, -amount, reason))


def _credit(p: Participant, amount: float, reason: str, transfers: list[Transfer]) -> None:
    if amount == 0.0:
        return
    p.coins += amount
    transfers.append((p.id, amount, reason))


def _hand_over(giver: Participant, taker: Participant) -> None:
    """``taker`` now holds a copy of ``giver``'s model, version and digest."""
    taker.model_version = giver.model_version
    taker.model = giver.model
    taker.model_digest = giver.model_digest


def settle(
    participants: dict[str, Participant],
    top_set: Sequence[str],
    contracts: Sequence[DepositContract],
    lineage: Lineage,
    coin_unit: float,
    coinbases: Sequence[chainmod.Coinbase],
) -> tuple[list[Transfer], float, float, float]:
    """Deposit return/forfeit, citation cascade, and minted miner rewards.

    Returns (transfers, minted, forfeited, citation coins). The citation
    cascade pays ``coin_unit`` per hop up each top-set model's lineage, in
    one transfer per ancestor. ``Lineage.citations`` counts the hops in
    one pass over the lineage nodes the top set reaches, and an ancestor
    with ``n`` hops is credited ``coin_unit`` added ``n`` times, read off
    one running-sum table per round; that is bit-identical to adding the
    unit once per hop, which ``n * coin_unit`` is not for units such as 0.1.
    ``coinbases`` are the round's four miner rewards, as the blocks were
    mined, credited in DB, EB, TB, SB order.
    """
    transfers: list[Transfer] = []
    top = set(top_set)
    by_trainer = {c.trainer_id: c for c in contracts}
    for trainer_id in top_set:
        if trainer_id not in by_trainer:
            raise UnknownContract(f"no contract for top-set trainer {trainer_id}")
    forfeited = 0.0
    for contract in contracts:
        if contract.trainer_id in top:
            contract.mark(CONTRACT_RETURNED)
            _credit(participants[contract.mo_id], contract.mo_amount,
                    "deposit_return_mo", transfers)
            _credit(participants[contract.trainer_id], contract.t_amount,
                    "deposit_return_t", transfers)
        else:
            contract.mark(CONTRACT_FORFEITED)
            forfeited += contract.mo_amount + contract.t_amount
    hops = lineage.citations(
        (trainer_id, participants[trainer_id].model_version) for trainer_id in top_set
    )
    unit_sums = list(accumulate(
        repeat(coin_unit, max(hops.values(), default=0)), initial=0.0
    ))
    citation_coins = 0.0
    for ancestor_id, count in hops.items():
        amount = unit_sums[count]
        _credit(participants[ancestor_id], amount, "citation", transfers)
        citation_coins += amount
    minted = citation_coins
    for kind, coinbase in zip(chainmod.KINDS, coinbases, strict=True):
        _credit(participants[coinbase.miner_id], coinbase.amount,
                f"miner_reward_{kind.lower()}", transfers)
        minted += coinbase.amount
    return transfers, minted, forfeited, citation_coins


def _draw_miner(pool: list[str], rng: random.Random, distinct: bool) -> str:
    winner = chainmod.mine_winner(pool, rng)
    if distinct and len(pool) > 1:
        pool.remove(winner)
    return winner


def run_round(
    state: SimState, params, config, rng: random.Random
) -> tuple[SimState, RoundLog]:
    """Execute one complete round, mutating and returning the state."""
    round_index = state.round_index + 1
    models = MODELS[config.mode]
    assignment = allocate_roles(state, config, rng)
    participants = state.participants
    v_latest = state.head_version()

    # (1) bidding and matching
    mo_deposits = {
        mo: auction.mo_deposit_per_trainer(
            config.budget_mo, participants[mo].coins, config.q_selection_limit
        )
        for mo in assignment.mos
    }
    bids = [
        auction.Bid(pid, auction.trainer_bid(
            participants[pid].coins, v_latest, participants[pid].model_version
        ))
        for pid in assignment.candidates
    ]
    matches = auction.match_round(
        list(assignment.mos), bids, config.q_selection_limit, mo_deposits,
        second_price=config.second_price_deposits,
    )

    # (2) contracts with escrow
    transfers: list[Transfer] = []
    contracts = []
    for pair in matches.pairs:
        contract = DepositContract(
            mo_id=pair.mo_id, trainer_id=pair.trainer_id,
            mo_amount=pair.mo_deposit, t_amount=pair.t_deposit,
            round=round_index,
        )
        _debit(participants[pair.mo_id], pair.mo_deposit, "deposit_escrow_mo", transfers)
        _debit(participants[pair.trainer_id], pair.t_deposit, "deposit_escrow_t", transfers)
        contracts.append(contract)

    miner_pool = list(assignment.miners)
    miners: dict[str, str] = {}
    block_digests: dict[str, str] = {}
    coinbases: list[chainmod.Coinbase] = []

    def mine(payload: chainmod.Payload) -> None:
        block = chainmod.Block(chainmod.next_header(state.chain, rng.getrandbits(64)), payload)
        chainmod.append_block(state.chain, block)
        block_digests[block.header.kind] = state.chain.digests[-1].hex()

    def pay(kind: str, amount: float) -> chainmod.Coinbase:
        """The reward of the miner of the round's ``kind`` block."""
        coinbases.append(chainmod.Coinbase(miners[kind], amount))
        return coinbases[-1]

    # (3) deposit block
    miners["DB"] = _draw_miner(miner_pool, rng, config.distinct_miners_per_round)
    mine(chainmod.DepositPayload(
        contracts=tuple(
            chainmod.ContractRecord(c.mo_id, c.trainer_id, c.mo_amount, c.t_amount)
            for c in contracts
        ),
        coinbase=pay("DB", len(contracts) * params.r_deposit),
    ))

    # (4) model transmission: possession updates before training; an equal
    # version still replaces the weights, since training continues from the
    # received model
    received: dict[str, int] = {}
    for pair in matches.pairs:
        mo = participants[pair.mo_id]
        trainer = participants[pair.trainer_id]
        received[pair.trainer_id] = mo.model_version
        if mo.model_version >= trainer.model_version:
            _hand_over(mo, trainer)

    # (5) training
    outcomes: list[TrainingOutcome] = []
    new_digests: dict[str, bytes] = {}
    for pair in matches.pairs:
        success = rng.random() < config.pr_training
        v_rec = received[pair.trainer_id]
        new_version = None
        if success:
            new_version = v_rec + 1
            new_digests[pair.trainer_id] = models.train(
                participants[pair.trainer_id], new_version,
                state.target_model, config, rng,
            )
            state.lineage.record(pair.trainer_id, new_version, pair.mo_id)
        outcomes.append((pair.trainer_id, pair.mo_id, v_rec, success, new_version))

    # (6-7) digest broadcast, key generation, encryption block; a digest
    # equal to the one the MO's model carries is filtered out
    keypair = crypto.fhe_keygen(rng)
    miners["EB"] = _draw_miner(miner_pool, rng, config.distinct_miners_per_round)
    eb_records = tuple(
        chainmod.TrainingRecord(mo_id, trainer_id, new_digests[trainer_id])
        for trainer_id, mo_id, _, success, _ in outcomes
        if success and new_digests[trainer_id] != participants[mo_id].model_digest
    )
    mine(chainmod.EncryptionPayload(pk=keypair.pk, records=eb_records))
    pay("EB", len(eb_records) * params.r_hash_m)

    # (8-9) encryption and the testing block; a sealed entry is
    # (EB record, ciphertext or None, committed encrypted-model digest)
    sealed = [
        (record, *models.encrypt(keypair.pk, participants[record.trainer_id]))
        for record in eb_records
    ]
    enc_digests = tuple(
        chainmod.EncryptedModelDigest(record.trainer_id, digest)
        for record, _, digest in sealed
    )
    miners["TB"] = _draw_miner(miner_pool, rng, config.distinct_miners_per_round)
    testing_inputs, testing_truths = models.testing_cases(state.target_model, config, rng)
    mine(chainmod.TestingPayload(
        encrypted_model_digests=enc_digests,
        testing_inputs=testing_inputs,
        testing_truths=testing_truths,
    ))
    pay("TB", len(enc_digests) * params.r_encrypted_m + config.q_cases * params.r_case)

    # (10-11) outputs, then the settlement block: verify, rank, settle
    miners["SB"] = _draw_miner(miner_pool, rng, config.distinct_miners_per_round)
    verified, rejected = models.verify(
        sealed, participants, keypair.pk, testing_inputs, testing_truths, rng
    )
    top_set = rank_and_select(verified, config.s)
    mine(chainmod.SettlementPayload(
        verified=tuple(verified), top_set=tuple(top_set)
    ))
    pay("SB", len(verified) * params.r_verified_m
        + len(verified) * config.q_cases * params.r_verify)

    settle_transfers, minted, forfeited, citation_coins = settle(
        participants, top_set, contracts, state.lineage, params.coin_unit, coinbases
    )
    transfers.extend(settle_transfers)

    # EBM in-kind reward: a copy of the round's best verified model
    if top_set:
        best = participants[top_set[0]]
        ebm = participants[miners["EB"]]
        if best.model_version > ebm.model_version:
            _hand_over(best, ebm)

    state.prev_top = list(top_set)
    state.prev_mos = list(assignment.mos)
    state.round_index = round_index

    log = RoundLog(
        round=round_index,
        assignment=assignment,
        matches=matches,
        contracts=contracts,
        block_digests=block_digests,
        miners=miners,
        training=outcomes,
        verified=verified,
        rejected=rejected,
        top_set=list(top_set),
        transfers=transfers,
        minted=minted,
        forfeited=forfeited,
        citation_coins=citation_coins,
    )
    return state, log
