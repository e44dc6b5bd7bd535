"""One full training round: bidding through settlement.

A round walks eleven steps over the shared state: (1) deposit bidding,
(2) escrowed contracts, (3) the deposit block, (4) model transmission,
(5) training with a per-trainer success probability, (6-7) digest
broadcast and the encryption block with a fresh keypair, (8-9) model
encryption and the testing block with published cases, (10) output
computation, and (11) the settlement block: verification, ranking,
deposit return or forfeit, the citation cascade up each winner's
lineage, and minted miner rewards. Each block's miner is paid the coinbase
that ``economics.MINER_REVENUE`` gives at the block's own counts, as the
block is mined; the deposit block carries its coinbase on the chain.

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
from functools import lru_cache
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterable, Sequence

from . import auction, chain as chainmod, crypto, economics
from .serialize import digest as canonical_digest, encode_str, encode_uint

GENESIS_VERSION = 1

# A submission that failed settlement verification: (trainer id, verdict reason).
Rejection = tuple[str, str]
# A signed balance change (a credit is positive) and a matched trainer's
# step (5), new version None on failure. Both are exact tuples of scalars,
# like the chain's records, which the cyclic collector stops tracking;
# ``RoundLog.to_json`` writes each, and each contract and verified record,
# as an object with these keys.
Transfer = tuple[str, float, str]
TRANSFER_KEYS = ("participant_id", "amount", "reason")
TrainingOutcome = tuple[str, str, int, bool, int | None]
TRAINING_KEYS = ("trainer_id", "mo_id", "received_version", "success", "new_version")
CONTRACT_KEYS = chainmod.record_keys(chainmod.ContractRecord)
VERIFIED_KEYS = chainmod.record_keys(chainmod.VerifiedRecord)


class ProtocolError(ValueError):
    """Base class for round-engine errors."""


class PoolSizeMismatch(ProtocolError):
    """Participant counts cannot fill the configured pools."""


class UnknownContract(ProtocolError):
    """Settlement referenced a contract that was never created."""


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


# A model: the node (owner, version).
Node = tuple[str, int]


@dataclass
class Lineage:
    """Parent pointers per trained model, rooted at the genesis initiator.

    A model is the node ``(owner, version)``; ``parents`` maps a trained
    model to its parent node ``(parent owner, version - 1)``, one tuple
    that the children of a parent share, and genesis-version nodes have
    none. A node's ancestors are the owners met walking the parent pointers
    from it to a node without one; ``citations`` counts a round's ancestors
    in one pass over the nodes.
    """

    parents: dict[Node, Node] = field(default_factory=dict)
    # each owner's latest node, the tuple its next children share
    _latest: dict[str, Node] = field(default_factory=dict, repr=False, compare=False)

    def record(self, owner_id: str, version: int, parent_id: str) -> None:
        key = (owner_id, version)
        if key in self.parents:
            raise LineageError(f"model {key} already has a parent")
        if version <= GENESIS_VERSION:
            raise LineageError(f"trained model version must exceed {GENESIS_VERSION}")
        parent = (parent_id, version - 1)
        if self._latest.get(parent_id) != parent:
            self._latest[parent_id] = parent
        self.parents[key] = self._latest[parent_id]
        self._latest[owner_id] = key

    def citations(self, heads: Iterable[Node]) -> dict[str, int]:
        """How often each owner appears across the walks up the parent
        pointers from each of ``heads``, one head after another, keyed in
        order of first appearance.

        Each node is visited once. A head's walk records its path from its
        parent node up to a node that an earlier walk covered, where it
        stops, since the rest is already covered; the owners it skips have
        all appeared, so the key order is that of the full walks. The walks
        are then replayed last first, each from child to parent, carrying
        itself and the later walks that stopped on its path: each node adds
        what is carried past it to its owner's count, and the walk leaves
        the total where it stopped, before the walk that covered it runs.
        """
        parents = self.parents
        stopped: dict[Node, int] = {}
        counts: dict[str, int] = {}
        walks: list[tuple[list[Node], Node | None]] = []
        for node in heads:
            path = []
            node = parents.get(node)
            while node is not None and node not in stopped:
                stopped[node] = 0
                counts.setdefault(node[0], 0)
                path.append(node)
                node = parents.get(node)
            walks.append((path, node))
        for path, stop in reversed(walks):
            carried = 1
            for node in path:
                carried += stopped[node]
                counts[node[0]] += carried
            if stop is not None:
                stopped[stop] += carried
        return counts


@dataclass(frozen=True)
class RoleAssignment:
    mos: tuple[str, ...]          # ranked best-first
    miners: tuple[str, ...]
    candidates: tuple[str, ...]


@dataclass
class RoundLog:
    """What one round did. ``contracts`` is the tuple the deposit block
    holds; the candidates it leaves out went unmatched. The round's four
    block digests head the last four of ``Chain.lines``."""

    round: int
    assignment: RoleAssignment
    contracts: tuple[chainmod.ContractRecord, ...]
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
        """The dataclass layout, each record, transfer and outcome an object."""
        data = asdict(self)
        data["contracts"] = [dict(zip(CONTRACT_KEYS, c)) for c in self.contracts]
        data["verified"] = [dict(zip(VERIFIED_KEYS, v)) for v in self.verified]
        data["training"] = [dict(zip(TRAINING_KEYS, t)) for t in self.training]
        data["transfers"] = [dict(zip(TRANSFER_KEYS, t)) for t in self.transfers]
        return json.dumps(data, indent=indent)


@dataclass
class SimState:
    participants: dict[str, Participant]
    chain: chainmod.Chain
    lineage: Lineage
    round_index: int = 0
    # the next round's MOs: the genesis initiator, then each round's top set
    next_mos: list[str] = field(default_factory=list)
    target_model: crypto.ModelWeights | None = None

    def head_version(self) -> int:
        return max(p.model_version for p in self.participants.values())


def participant_ids(count: int) -> list[str]:
    width = max(3, len(str(max(count - 1, 0))))
    return [f"p{i:0{width}d}" for i in range(count)]


def init_state(config, rng: random.Random) -> SimState:
    """Fresh state: all balances zero, genesis model held by the initiator."""
    ids = participant_ids(config.q_miners + config.q_mo_and_t)
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
        next_mos=[genesis_id],
        target_model=target,
    )


def allocate_roles(state: SimState, config, rng: random.Random) -> RoleAssignment:
    """Per-round role split: the pinned MOs of ``state.next_mos``, then a
    fresh miner/candidate draw from everyone else."""
    if len(state.participants) != config.q_miners + config.q_mo_and_t:
        raise PoolSizeMismatch(
            f"state has {len(state.participants)} participants, config says "
            f"{config.q_miners} + {config.q_mo_and_t}"
        )
    mos = list(state.next_mos)
    mo_set = set(mos)
    others = [pid for pid in state.participants if pid not in mo_set]
    if len(others) < config.q_miners:
        raise PoolSizeMismatch(
            f"{len(others)} non-MO participants cannot fill {config.q_miners} miner slots"
        )
    rng.shuffle(others)
    miners = others[:config.q_miners]
    candidates = others[config.q_miners:]
    return RoleAssignment(tuple(mos), tuple(miners), tuple(candidates))


def rank_and_select(
    verified: Sequence[chainmod.VerifiedRecord], s: float
) -> list[str]:
    """The best floor(s * verified) of ``chain.ranked_ids``, at least one."""
    if not verified:
        return []
    return chainmod.ranked_ids(verified)[:max(1, int(s * len(verified)))]


@dataclass(frozen=True)
class Submission:
    """Everything the settlement miner sees for one trained model."""

    mo_id: str
    trainer_id: str
    committed_digest: bytes
    ciphertext: crypto.Ciphertext
    claimed_outputs: Sequence[float]


def collect_verified(
    submissions: Sequence[Submission], cases: crypto.CaseTable
) -> tuple[list[chainmod.VerifiedRecord], list[Rejection]]:
    """Settlement-side filter: only submissions passing both verification
    parts enter the verified list (and thus become eligible for the top set).
    Every other submission is returned as a ``Rejection``, and so is one
    that verifies against no cases, which leave nothing to rank it by.
    ``cases`` is the round's table, made once with its key, inputs and
    truths; each submission is checked and ranked against it."""
    verified, rejected = [], []
    for sub in submissions:
        verdict = crypto.verify_submission(
            sub.committed_digest, sub.ciphertext, sub.claimed_outputs, cases
        )
        if verdict != crypto.VERDICT_OK:
            rejected.append((sub.trainer_id, verdict))
        elif not cases.count:
            rejected.append((sub.trainer_id, crypto.VERDICT_NO_CASES))
        else:
            perf = crypto.performance_index(sub.claimed_outputs, cases)
            verified.append((sub.mo_id, sub.trainer_id, perf))
    return verified, rejected


# The kind, the first field of each label digest, encoded once, and each
# owner id, encoded once per run's pool (the memo holds at most 4096).
_ABSTRACT_MODEL = encode_str("abstract-model")
_ABSTRACT_ENCRYPTED_MODEL = encode_str("abstract-encrypted-model")
_encoded_owner = lru_cache(maxsize=4096)(encode_str)


class AbstractModels:
    """Label models: a model is its (owner, version) pair, digests hash
    the label ``[kind, owner, version]``, and each verified performance is
    a uniform draw."""

    def start(self, config, rng: random.Random):
        return None, None

    def digest(self, maker: Participant) -> bytes:
        """Digest of the model ``maker`` has just made."""
        return canonical_digest(
            _ABSTRACT_MODEL, _encoded_owner(maker.id), encode_uint(maker.model_version)
        )

    def train(self, trainer: Participant, version: int,
              target, config, rng: random.Random) -> bytes:
        trainer.model_version = version
        trainer.model_digest = self.digest(trainer)
        return trainer.model_digest

    def encrypt(self, pk: bytes, trainer: Participant) -> tuple[None, bytes]:
        return None, canonical_digest(
            _ABSTRACT_ENCRYPTED_MODEL, _encoded_owner(trainer.id),
            encode_uint(trainer.model_version),
        )

    def testing_cases(self, target, config, rng: random.Random):
        inputs = tuple((rng.random(),) for _ in range(config.q_cases))
        truths = tuple((rng.random(),) for _ in range(config.q_cases))
        return inputs, truths

    def verify(self, sealed: Sequence[tuple], participants, pk: bytes, inputs, truths,
               rng: random.Random) -> tuple[list[chainmod.VerifiedRecord], list[Rejection]]:
        return [
            (prev_owner_id, trainer_id, rng.random())
            for (prev_owner_id, trainer_id, _), _, _ in sealed
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
        # the testing block carries each truth as a one-component vector
        return inputs, tuple(zip(crypto.evaluate_cases(target, crypto.case_table(inputs))))

    def verify(self, sealed: Sequence[tuple], participants, pk: bytes, inputs, truths,
               rng: random.Random) -> tuple[list[chainmod.VerifiedRecord], list[Rejection]]:
        """Step (10), each trainer's claimed outputs, then the SB check; all
        read one table of the round's cases."""
        cases = crypto.case_table(inputs, truths, pk)
        submissions = [
            Submission(
                prev_owner_id, trainer_id, digest, ct,
                crypto.evaluate_cases(participants[trainer_id].model, cases),
            )
            for (prev_owner_id, trainer_id, _), ct, digest in sealed
        ]
        return collect_verified(submissions, cases)


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
    contracts: Sequence[chainmod.ContractRecord],
    lineage: Lineage,
    coin_unit: float,
    coinbases: Sequence[chainmod.Coinbase],
) -> tuple[list[Transfer], float, float, float]:
    """Deposit return/forfeit, citation cascade, and minted miner rewards.

    Returns (transfers, minted, forfeited, citation coins). A contract is
    returned when its trainer is in the top set and forfeited otherwise, so
    no trainer may hold two. The citation cascade pays ``coin_unit`` per
    hop up each top-set model's lineage, in one transfer per ancestor.
    ``Lineage.citations`` counts the hops in one pass over the lineage
    nodes the top set reaches, and an ancestor with ``n`` hops is credited
    ``coin_unit`` added ``n`` times, read off one running-sum table per
    round; that is bit-identical to adding the unit once per hop, which
    ``n * coin_unit`` is not for units such as 0.1.
    ``coinbases`` are the round's four miner rewards, as the blocks were
    mined, credited in DB, EB, TB, SB order.
    """
    transfers: list[Transfer] = []
    top = set(top_set)
    trainers = set(map(itemgetter(1), contracts))
    if len(trainers) != len(contracts):
        raise ProtocolError("a trainer holds more than one deposit contract")
    for trainer_id in top_set:
        if trainer_id not in trainers:
            raise UnknownContract(f"no contract for top-set trainer {trainer_id}")
    forfeited = 0.0
    for mo_id, trainer_id, mo_amount, t_amount in contracts:
        if trainer_id in top:
            _credit(participants[mo_id], mo_amount, "deposit_return_mo", transfers)
            _credit(participants[trainer_id], t_amount, "deposit_return_t", transfers)
        else:
            forfeited += mo_amount + t_amount
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
    for kind, (miner_id, amount) in zip(chainmod.KINDS, coinbases, strict=True):
        _credit(participants[miner_id], amount, f"miner_reward_{kind.lower()}", transfers)
        minted += amount
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
        (pid, auction.trainer_bid(
            participants[pid].coins, v_latest, participants[pid].model_version
        ))
        for pid in assignment.candidates
    ]
    contracts = auction.match_round(
        assignment.mos, bids, config.q_selection_limit, mo_deposits,
        second_price=config.second_price_deposits,
    )

    # (2) escrow of the contracts, as the deposit block holds them
    transfers: list[Transfer] = []
    for mo_id, trainer_id, mo_amount, t_amount in contracts:
        _debit(participants[mo_id], mo_amount, "deposit_escrow_mo", transfers)
        _debit(participants[trainer_id], t_amount, "deposit_escrow_t", transfers)

    miner_pool = list(assignment.miners)
    miners: dict[str, str] = {}
    coinbases: list[chainmod.Coinbase] = []

    def mine(payload: chainmod.Payload) -> None:
        block = chainmod.Block(chainmod.next_header(state.chain, rng.getrandbits(64)), payload)
        chainmod.append_block(state.chain, block)

    def pay(kind: str, packed: int, cases: int = 0) -> chainmod.Coinbase:
        """The reward of the miner of the round's ``kind`` block, at its counts."""
        coinbases.append((miners[kind], economics.MINER_REVENUE[kind](params, packed, cases)))
        return coinbases[-1]

    # (3) deposit block
    miners["DB"] = _draw_miner(miner_pool, rng, config.distinct_miners_per_round)
    mine(chainmod.DepositPayload(
        contracts=contracts, coinbase=pay("DB", len(contracts)),
    ))

    # (4) model transmission: possession updates before training; an equal
    # version still replaces the weights, since training continues from the
    # received model
    received: dict[str, int] = {}
    for mo_id, trainer_id, _, _ in contracts:
        mo = participants[mo_id]
        trainer = participants[trainer_id]
        received[trainer_id] = mo.model_version
        if mo.model_version >= trainer.model_version:
            _hand_over(mo, trainer)

    # (5) training
    outcomes: list[TrainingOutcome] = []
    new_digests: dict[str, bytes] = {}
    for mo_id, trainer_id, _, _ in contracts:
        success = rng.random() < config.pr_training
        v_rec = received[trainer_id]
        new_version = None
        if success:
            new_version = v_rec + 1
            new_digests[trainer_id] = models.train(
                participants[trainer_id], new_version,
                state.target_model, config, rng,
            )
            state.lineage.record(trainer_id, new_version, mo_id)
        outcomes.append((trainer_id, mo_id, v_rec, success, new_version))

    # (6-7) digest broadcast, key generation, encryption block; a digest
    # equal to the one the MO's model carries is filtered out
    keypair = crypto.fhe_keygen(rng)
    miners["EB"] = _draw_miner(miner_pool, rng, config.distinct_miners_per_round)
    eb_records = tuple(
        (mo_id, trainer_id, new_digests[trainer_id])
        for trainer_id, mo_id, _, success, _ in outcomes
        if success and new_digests[trainer_id] != participants[mo_id].model_digest
    )
    mine(chainmod.EncryptionPayload(pk=keypair.pk, records=eb_records))
    pay("EB", len(eb_records))

    # (8-9) encryption and the testing block; a sealed entry is
    # (EB record, ciphertext or None, committed encrypted-model digest)
    sealed = [
        (record, *models.encrypt(keypair.pk, participants[record[1]]))
        for record in eb_records
    ]
    enc_digests = tuple((trainer_id, digest) for (_, trainer_id, _), _, digest in sealed)
    miners["TB"] = _draw_miner(miner_pool, rng, config.distinct_miners_per_round)
    testing_inputs, testing_truths = models.testing_cases(state.target_model, config, rng)
    mine(chainmod.TestingPayload(
        encrypted_model_digests=enc_digests,
        testing_inputs=testing_inputs,
        testing_truths=testing_truths,
    ))
    pay("TB", len(enc_digests), len(testing_inputs))

    # (10-11) outputs, then the settlement block: verify, rank, settle
    miners["SB"] = _draw_miner(miner_pool, rng, config.distinct_miners_per_round)
    verified, rejected = models.verify(
        sealed, participants, keypair.pk, testing_inputs, testing_truths, rng
    )
    top_set = rank_and_select(verified, config.s)
    mine(chainmod.SettlementPayload(
        verified=tuple(verified), top_set=tuple(top_set)
    ))
    pay("SB", len(verified), len(testing_inputs))

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

    # a round with no winner keeps its best MO, so the chain never loses
    # all model owners
    state.next_mos = list(top_set) or [assignment.mos[0]]
    state.round_index = round_index

    log = RoundLog(
        round=round_index,
        assignment=assignment,
        contracts=contracts,
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
