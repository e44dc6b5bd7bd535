import dataclasses
import gc
import hashlib
import json
import math
import random
import re
import sys
import tracemalloc
import types
import typing

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from relaysim import chain as chainmod
from relaysim.chain import (
    Block,
    BlockHeader,
    BrokenLinkage,
    Chain,
    ChainError,
    Coinbase,
    ContractRecord,
    DepositPayload,
    EmptyCandidateSet,
    EncryptedModelDigest,
    EncryptionPayload,
    KINDS,
    KindOrderViolation,
    PayloadInvariantViolation,
    SettlementPayload,
    TestingPayload,
    TrainingRecord,
    VerifiedRecord,
    append_block,
    block_body,
    block_digest,
    block_line,
    chain_from_jsonl,
    chain_to_jsonl,
    expected_kind,
    genesis_block,
    mine_winner,
    new_chain,
    next_header,
    record_keys,
    verify_chain_dump,
)
from relaysim.protocol import participant_ids, rank_and_select
from relaysim.serialize import ZERO_DIGEST, digest as canonical_digest, encode_str, encode_uint
from relaysim.sim import SimConfig, simulate_run

GENESIS_DIGEST_HEX = "58a7de395f1921208edfd5441abe859fdccdba59c690f9c445d3e9c02e40ede5"


def _next_header(chain, kind, nonce=0):
    tip = chain.tip
    return BlockHeader(
        height=tip.header.height + 1,
        round=(tip.header.height // 4) + 1,
        kind=kind,
        prev_digest=block_digest(tip),
        nonce=nonce,
        timestamp=tip.header.timestamp + 1,
    )


def _empty_payload(kind):
    return {
        "DB": DepositPayload((), ("m0", 0.0)),
        "EB": EncryptionPayload(b"pk", ()),
        "TB": TestingPayload((), (), ()),
        "SB": SettlementPayload((), ()),
    }[kind]


def build_round(chain, records=(), top=(), verified=()):
    append_block(chain, Block(_next_header(chain, "DB"), _empty_payload("DB")))
    append_block(chain, Block(_next_header(chain, "EB"),
                              EncryptionPayload(b"pk", tuple(records))))
    append_block(chain, Block(_next_header(chain, "TB"), _empty_payload("TB")))
    append_block(chain, Block(_next_header(chain, "SB"),
                              SettlementPayload(tuple(verified), tuple(top))))
    return chain


def dump_of(blocks):
    """The dump of ``blocks`` as they are, whatever rules they break."""
    return "".join(block_line(block) + "\n" for block in blocks)


def chain_of(blocks):
    """The chain read from ``dump_of(blocks)``, with no rule checked."""
    return chain_from_jsonl(dump_of(blocks))


class TestDigest:
    def test_identical_blocks_identical_digests(self):
        assert block_digest(genesis_block()) == block_digest(genesis_block())

    def test_nonce_flip_changes_digest(self):
        chain = new_chain()
        a = Block(_next_header(chain, "DB", nonce=0), _empty_payload("DB"))
        b = Block(_next_header(chain, "DB", nonce=1), _empty_payload("DB"))
        assert block_digest(a) != block_digest(b)

    def test_golden_genesis_digest(self):
        assert block_digest(genesis_block()).hex() == GENESIS_DIGEST_HEX


def reference_json(value):
    """A block value as plain JSON values: a dataclass as the object of its
    fields, a record (or any tuple) as the list of its items, bytes as hex."""
    if dataclasses.is_dataclass(value):
        return {f.name: reference_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [reference_json(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    return value


def reference_body(block, ensure_ascii=False):
    """The block's header fields and payload as compact, key-sorted JSON."""
    body = {**reference_json(block.header), "payload": reference_json(block.payload)}
    return json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=ensure_ascii)


def reference_line(block, ensure_ascii=False):
    """The dump line of ``block``: its digest, then the body's keys."""
    body = reference_body(block, ensure_ascii)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f'{{"digest":"{digest}",{body[1:]}'


# Values of exactly each field's type, the only values a dump can hold:
# non-ASCII and empty ids, non-finite floats, bytes of any length.
EXACT = {
    str: st.one_of(st.text(max_size=6), st.sampled_from(["", "é", "\U0001d11e", "p000"])),
    float: st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf])),
    bytes: st.binary(max_size=40),
}


def records(record, min_size=0, max_size=6):
    """A tuple of records of the type ``record``."""
    kinds = typing.get_args(typing.get_args(record)[0])
    return st.lists(st.tuples(*(EXACT[kind] for kind in kinds)),
                    min_size=min_size, max_size=max_size).map(tuple)


# Testing inputs or truths: up to 5 cases of up to 7 values each.
CASES = st.lists(st.lists(EXACT[float], max_size=7).map(tuple), max_size=5).map(tuple)
PAYLOADS = {
    "DB": st.builds(DepositPayload, records(ContractRecord),
                    records(Coinbase, 1, 1).map(lambda one: one[0])),
    "EB": st.builds(EncryptionPayload, EXACT[bytes], records(TrainingRecord)),
    "TB": st.builds(TestingPayload, records(EncryptedModelDigest), CASES, CASES),
    "SB": st.builds(SettlementPayload, records(VerifiedRecord),
                    st.lists(EXACT[str], max_size=6).map(tuple)),
}
U64 = st.integers(0, 2**64 - 1)


@st.composite
def blocks(draw):
    """A block of any kind whose values all have exactly their field's type,
    so that it can be dumped."""
    kind = draw(st.sampled_from(chainmod.KINDS))
    header = BlockHeader(draw(U64), draw(U64), kind, draw(st.binary(min_size=32, max_size=32)),
                         draw(U64), draw(U64))
    return Block(header, draw(PAYLOADS[kind]))


def replaced(value, path, new):
    """``value`` with the scalar at ``path`` replaced by ``new``."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(key, str):
        return dataclasses.replace(value, **{key: replaced(getattr(value, key), rest, new)})
    return (*value[:key], replaced(value[key], rest, new), *value[key + 1:])


def _chain_before(kind):
    """A chain whose next block is the first block of ``kind``."""
    chain = new_chain()
    for k in KINDS[:KINDS.index(kind)]:
        append_block(chain, Block(_next_header(chain, k), _empty_payload(k)))
    return chain


# One payload per kind whose first record has a field too few or too many.
WRONG_LENGTH = {
    "db-coinbase": DepositPayload((), ("m", 0.0, "x")),
    "db-contract": DepositPayload((("a", "b", 0.0),), ("m0", 0.0)),
    "eb-record": EncryptionPayload(b"pk", (("mo", "t"),)),
    "tb-digest": TestingPayload((("t", bytes(32), "x"),), (), ()),
    "sb-verified": SettlementPayload((("g", "t1"),), ()),
}


class TestJsonReference:
    """A block's digest is the SHA-256 of its dump line's body, which is the
    compact, key-sorted JSON a plain recursive encoder writes."""

    @settings(max_examples=400, deadline=None)
    @given(blocks())
    @example(Block(BlockHeader(1, 1, "DB", ZERO_DIGEST, 0, 1),
                   DepositPayload((), ("\U0001d11e-é", 0.0))))
    @example(Block(BlockHeader(3, 1, "TB", ZERO_DIGEST, 0, 3), TestingPayload(
        (("é", b""),), ((math.nan, math.inf, -math.inf), ()), ((), ()))))
    # line breaks other than a line feed, which ``json`` writes unescaped
    @example(Block(BlockHeader(4, 1, "SB", ZERO_DIGEST, 0, 4), SettlementPayload(
        (("\x85", "\u2028", 0.5),), ("\u2029",))))
    def test_digest_and_line_match_the_reference(self, block):
        assert block_body(block) == reference_body(block)
        assert block_digest(block) == hashlib.sha256(reference_body(block).encode()).digest()
        dump = dump_of([block])
        assert dump == reference_line(block) + "\n"
        # each block round-trips: parsed, hashed and dumped again
        parsed = chain_from_jsonl(dump)
        assert parsed.lines == [reference_line(block)]
        assert parsed.digest() == block_digest(block)
        assert chain_to_jsonl(parsed) == dump

    @pytest.mark.parametrize("kind, payload", [
        ("DB", DepositPayload((("\ud800", "t", 0.0, 0.0),), ("m0", 0.0))),
        ("DB", DepositPayload((), ("a\udfff", 0.0))),
        ("EB", EncryptionPayload(b"pk", (("mo", "\ud800", bytes(32)),))),
        ("TB", TestingPayload((("\ud800", bytes(32)),), (), ())),
        ("SB", SettlementPayload((("g", "\ud800", 0.5),), ("\ud800",))),
    ], ids=["db-contract", "db-coinbase", "eb-record", "tb-digest", "sb-verified"])
    def test_lone_surrogate_refused_on_append_and_in_a_dump(self, kind, payload):
        chain = _chain_before(kind)
        blocks, lines = list(chain.blocks), list(chain.lines)
        block = Block(_next_header(chain, kind), payload)
        with pytest.raises(UnicodeEncodeError):
            append_block(chain, block)
        assert (list(chain.blocks), chain.lines) == (blocks, lines)
        # its line with the surrogate escaped, and the digest of that text
        dump = chain_to_jsonl(chain) + reference_line(block, ensure_ascii=True) + "\n"
        violations = verify_chain_dump(dump)
        assert [v.split(":")[:2] for v in violations] == [["Unparseable", f" line {len(blocks)}"]]

    @pytest.mark.parametrize("case", sorted(WRONG_LENGTH))
    def test_record_of_the_wrong_length_refused_in_a_dump(self, case):
        # The line of such a block, with the digest of its own text.
        payload = WRONG_LENGTH[case]
        kind = chainmod._PAYLOAD_KIND[type(payload)]
        chain = _chain_before(kind)
        line = reference_line(Block(_next_header(chain, kind), payload))
        violations = verify_chain_dump(chain_to_jsonl(chain) + line + "\n")
        assert len(violations) == 1
        assert re.fullmatch(rf"Unparseable: line {len(chain.blocks)}: "
                            r"a record of [a-z_, ]+ must have [234] fields", violations[0])


class TestAppend:
    def test_db_follows_genesis_sb(self):
        chain = new_chain()
        append_block(chain, Block(_next_header(chain, "DB"), _empty_payload("DB")))
        assert len(chain.blocks) == 2 and chain.tip.header.kind == "DB"

    def test_tb_after_db_is_kind_violation(self):
        chain = new_chain()
        append_block(chain, Block(_next_header(chain, "DB"), _empty_payload("DB")))
        header = dataclasses.replace(_next_header(chain, "TB"))
        with pytest.raises(KindOrderViolation):
            append_block(chain, Block(header, _empty_payload("TB")))

    def test_stale_prev_digest_is_broken_linkage(self):
        chain = new_chain()
        header = dataclasses.replace(
            _next_header(chain, "DB"), prev_digest=b"\x01" * 32
        )
        with pytest.raises(BrokenLinkage):
            append_block(chain, Block(header, _empty_payload("DB")))

    def test_all_twelve_wrong_successors_rejected(self):
        for tip_kind in ("DB", "EB", "TB", "SB"):
            for wrong in ("DB", "EB", "TB", "SB"):
                chain = new_chain()
                kinds_to_tip = {"DB": 1, "EB": 2, "TB": 3, "SB": 4}[tip_kind]
                for k in ("DB", "EB", "TB", "SB")[:kinds_to_tip]:
                    append_block(chain, Block(_next_header(chain, k), _empty_payload(k)))
                if wrong == expected_kind(chain.tip.header.height + 1):
                    continue
                with pytest.raises(KindOrderViolation):
                    append_block(
                        chain, Block(_next_header(chain, wrong), _empty_payload(wrong))
                    )

    def test_payload_violation_propagates(self):
        chain = new_chain()
        append_block(chain, Block(_next_header(chain, "DB"), _empty_payload("DB")))
        append_block(chain, Block(_next_header(chain, "EB"), _empty_payload("EB")))
        bad_tb = TestingPayload((), ((1.0,),), ())
        with pytest.raises(PayloadInvariantViolation):
            append_block(chain, Block(_next_header(chain, "TB"), bad_tb))

    @pytest.mark.parametrize("case", list(WRONG_LENGTH))
    def test_record_of_the_wrong_length_leaves_the_chain_unchanged(self, case):
        payload = WRONG_LENGTH[case]
        kind = chainmod._PAYLOAD_KIND[type(payload)]
        chain = _chain_before(kind)
        blocks, lines = list(chain.blocks), list(chain.lines)
        with pytest.raises(PayloadInvariantViolation, match="RecordLength"):
            append_block(chain, Block(_next_header(chain, kind), payload))
        assert len(chain.blocks) == len(chain.lines)
        assert (list(chain.blocks), chain.lines) == (blocks, lines)
        # the chain still takes the right block in that slot
        append_block(chain, Block(_next_header(chain, kind), _empty_payload(kind)))


class TestValidate:
    def test_eb_reusing_predecessor_digest(self):
        chain = new_chain()
        stale = canonical_digest(encode_str("abstract-model"), encode_str("mo1"), encode_uint(1))
        build_round(chain, records=[("genesis", "mo1", stale)],
                    verified=[("genesis", "mo1", 0.1)], top=["mo1"])
        append_block(chain, Block(_next_header(chain, "DB"), _empty_payload("DB")))
        lazy = EncryptionPayload(b"pk", (("mo1", "t2", stale),))
        with pytest.raises(PayloadInvariantViolation, match="HashUnchanged"):
            append_block(chain, Block(_next_header(chain, "EB"), lazy))

    def test_tb_case_count_mismatch(self):
        chain = new_chain()
        append_block(chain, Block(_next_header(chain, "DB"), _empty_payload("DB")))
        append_block(chain, Block(_next_header(chain, "EB"), _empty_payload("EB")))
        inputs = tuple((float(i),) for i in range(99))
        truths = tuple((float(i),) for i in range(100))
        bad = TestingPayload((), inputs, truths)
        with pytest.raises(PayloadInvariantViolation, match="CaseCountMismatch"):
            append_block(chain, Block(_next_header(chain, "TB"), bad))

    def test_sb_unverified_in_top_set(self):
        chain = new_chain()
        for k in ("DB", "EB", "TB"):
            append_block(chain, Block(_next_header(chain, k), _empty_payload(k)))
        bad = SettlementPayload((("g", "t1", 0.5),), ("t1", "intruder"))
        with pytest.raises(PayloadInvariantViolation, match="UnverifiedInTopSet"):
            append_block(chain, Block(_next_header(chain, "SB"), bad))


@pytest.fixture(scope="module")
def seed_7_blocks():
    return list(simulate_run(SimConfig(seed=7, rounds=1)).state.chain.blocks)


def _relinked(blocks):
    """``blocks`` with each back link recomputed, as a forger who rewrote a
    block and every block after it would build them."""
    relinked = [blocks[0]]
    for block in blocks[1:]:
        header = dataclasses.replace(block.header, prev_digest=block_digest(relinked[-1]))
        relinked.append(Block(header, block.payload))
    return relinked


class TestImpossibleAmounts:
    """A re-linked chain whose amounts no honest round can make is rejected."""

    @staticmethod
    def _contract(value, field):
        index = record_keys(ContractRecord).index(field)

        def tamper(payload):
            first = replaced(payload.contracts[0], (index,), value)
            return dataclasses.replace(payload, contracts=(first, *payload.contracts[1:]))
        return 1, "InvalidAmount", tamper

    @staticmethod
    def _coinbase(value):
        index = record_keys(Coinbase).index("amount")

        def tamper(payload):
            coinbase = replaced(payload.coinbase, (index,), value)
            return dataclasses.replace(payload, coinbase=coinbase)
        return 1, "InvalidAmount", tamper

    @staticmethod
    def _performance(value):
        index = record_keys(VerifiedRecord).index("performance")

        def tamper(payload):
            first = replaced(payload.verified[0], (index,), value)
            return dataclasses.replace(payload, verified=(first, *payload.verified[1:]))
        return 4, "NonFinitePerformance", tamper

    ATTACKS = {
        "mo-amount-negative": _contract(-5.0, "mo_amount"),
        "mo-amount-nan": _contract(math.nan, "mo_amount"),
        "t-amount-negative": _contract(-0.25, "t_amount"),
        "t-amount-inf": _contract(math.inf, "t_amount"),
        "coinbase-negative": _coinbase(-0.001),
        "coinbase-nan": _coinbase(math.nan),
        "coinbase-inf": _coinbase(math.inf),
        "performance-nan": _performance(math.nan),
        "performance-inf": _performance(math.inf),
        "performance-minus-inf": _performance(-math.inf),
    }

    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_rejected_on_append_and_in_the_dump(self, seed_7_blocks, attack):
        height, reason, tamper = self.ATTACKS[attack]
        blocks = list(seed_7_blocks)
        blocks[height] = Block(blocks[height].header, tamper(blocks[height].payload))
        forged = _relinked(blocks)
        with pytest.raises(PayloadInvariantViolation, match=reason):
            append_block(chain_of(forged[:height]), forged[height])
        violations = verify_chain_dump(dump_of(forged))
        assert [v.split(": ")[:3] for v in violations] == [
            ["PayloadInvariantViolation", f"line {height}", reason]
        ]

    def test_zero_amounts_and_any_finite_performance_pass(self, seed_7_blocks):
        blocks = list(seed_7_blocks)
        for height, _, tamper in (self._contract(0.0, "mo_amount"), self._coinbase(0.0),
                                  self._performance(-1e300)):
            blocks[height] = Block(blocks[height].header, tamper(blocks[height].payload))
        assert verify_chain_dump(dump_of(_relinked(blocks))) == []


class TestRankedTopSet:
    """An SB's top set is a prefix of the verified records ranked by
    performance, then trainer id: the settlement miner cannot mis-rank it."""

    def test_top_set_of_outsiders_rejected(self):
        blocks = list(simulate_run(SimConfig(seed=7, rounds=20)).state.chain.blocks)
        tip = blocks[-1].payload
        outsiders = tuple(t for _, t, _ in tip.verified if t not in tip.top_set)[:40]
        assert len(tip.top_set) == len(outsiders) == 40
        forged = Block(blocks[-1].header, dataclasses.replace(tip, top_set=outsiders))
        with pytest.raises(PayloadInvariantViolation, match="UnrankedTopSet"):
            append_block(chain_of(blocks[:-1]), forged)
        violations = verify_chain_dump(dump_of([*blocks[:-1], forged]))
        assert [v.split(": ")[:3] for v in violations] == [
            ["PayloadInvariantViolation", "line 80", "UnrankedTopSet"]
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=3), st.sampled_from([-1.5, -0.0, 0.0, 0.25])),
                    min_size=2, max_size=12, unique_by=lambda row: row[0]),
           st.floats(0.0, 1.0), st.data())
    def test_only_the_engine_top_set_passes(self, rows, s, data):
        verified = tuple(("mo", trainer_id, performance) for trainer_id, performance in rows)
        header = BlockHeader(4, 1, "SB", ZERO_DIGEST, 0, 4)
        top_set = tuple(rank_and_select(verified, s))
        assert chainmod.validate_block(new_chain(), Block(header, SettlementPayload(
            verified, top_set))) == []
        # the same number of verified trainers, reordered or swapped for others
        other = data.draw(st.permutations([trainer_id for trainer_id, _ in rows]))
        other = tuple(other[:len(top_set)])
        assume(other != top_set)
        assert chainmod.validate_block(new_chain(), Block(header, SettlementPayload(
            verified, other))) == [f"UnrankedTopSet: the top set is not the {len(top_set)} "
                                   "best verified"]


class TestRuleList:
    """append_block and verify_chain_dump enforce one list of rules."""

    # A TB candidate at height 3, broken in exactly one rule each.
    BROKEN = {
        "kind": (KindOrderViolation, lambda h, tip: (
            dataclasses.replace(h, kind="SB"), SettlementPayload((), ()))),
        "height": (BrokenLinkage, lambda h, tip: (
            dataclasses.replace(h, height=4), _empty_payload("TB"))),
        "back_link": (BrokenLinkage, lambda h, tip: (
            dataclasses.replace(h, prev_digest=b"\x01" * 32), _empty_payload("TB"))),
        "round": (BrokenLinkage, lambda h, tip: (
            dataclasses.replace(h, round=2), _empty_payload("TB"))),
        "timestamp": (BrokenLinkage, lambda h, tip: (
            dataclasses.replace(h, timestamp=tip.header.timestamp), _empty_payload("TB"))),
        "payload": (PayloadInvariantViolation, lambda h, tip: (
            h, TestingPayload((), ((1.0,),), ()))),
    }

    def _two_blocks(self):
        chain = new_chain()
        for k in ("DB", "EB"):
            append_block(chain, Block(_next_header(chain, k), _empty_payload(k)))
        return chain

    def test_valid_candidate_appends_and_verifies(self):
        chain = self._two_blocks()
        append_block(chain, Block(_next_header(chain, "TB"), _empty_payload("TB")))
        assert verify_chain_dump(chain_to_jsonl(chain)) == []

    @pytest.mark.parametrize("rule", sorted(BROKEN))
    def test_append_raises_exactly_when_dump_flags_the_line(self, rule):
        error, breaks = self.BROKEN[rule]
        chain = self._two_blocks()
        block = Block(*breaks(_next_header(chain, "TB"), chain.tip))
        with pytest.raises(ChainError) as raised:
            append_block(chain, block)
        assert type(raised.value) is error
        assert len(chain.blocks) == 3
        # The same block in a dump written without append_block.
        dump = dump_of([*chain.blocks, block])
        assert verify_chain_dump(dump) == [f"{error.__name__}: line 3: {raised.value}"]

    def test_dump_must_start_from_the_fixed_genesis(self):
        genesis = genesis_block()
        forged = Block(dataclasses.replace(genesis.header, nonce=5, timestamp=9), genesis.payload)
        chain = build_round(chain_of([forged]))
        assert verify_chain_dump(chain_to_jsonl(chain)) == [
            "BrokenLinkage: line 0: height 0 must hold the fixed genesis block"
        ]

    def test_every_broken_rule_of_a_line_is_reported(self):
        chain = new_chain()
        header = dataclasses.replace(_next_header(chain, "DB"), round=2, timestamp=0)
        block = Block(header, _empty_payload("DB"))
        with pytest.raises(BrokenLinkage, match="round 1, got 2.*not after"):
            append_block(chain, block)
        violations = verify_chain_dump(dump_of([*chain.blocks, block]))
        assert [v.split(":")[0] for v in violations] == ["BrokenLinkage"] * 2


class TestHashOnce:
    def test_each_block_is_hashed_once_from_run_to_dump(self, monkeypatch):
        # Every encoding goes through block_body and every SHA-256 of the
        # chain module through its hashlib: count both in each pass.
        encoded, hashed = [], []
        body, sha256 = chainmod.block_body, chainmod.hashlib.sha256
        monkeypatch.setattr(chainmod, "block_body", lambda b: encoded.append(b) or body(b))
        monkeypatch.setattr(chainmod, "hashlib", types.SimpleNamespace(
            sha256=lambda data: hashed.append(data) or sha256(data)))

        def counts(run, *args):
            encoded.clear(), hashed.clear()
            return run(*args), len(encoded), len(hashed)

        run, *run_counts = counts(simulate_run, SimConfig(mode="abstract", rounds=20, seed=7))
        chain = run.state.chain
        assert len(chain.blocks) == 81
        assert run_counts == [81, 81] and encoded == list(chain.blocks)
        dump, *dump_counts = counts(chain_to_jsonl, chain)
        assert dump_counts == [0, 0]
        partial = Chain()
        violations, *verify_counts = counts(verify_chain_dump, dump, partial)
        assert violations == [] and verify_counts == [81, 81]
        assert partial.lines == chain.lines == list(map(reference_line, chain.blocks))
        assert dump == "".join(line + "\n" for line in chain.lines)

    def test_a_chain_built_from_blocks_hashes_each_of_them(self):
        # A chain read from a dump encodes and hashes each block again: the
        # last line records another digest than its block's.
        chain = simulate_run(SimConfig(mode="abstract", rounds=20, seed=7)).state.chain
        header = dataclasses.replace(next_header(chain, 0), prev_digest=ZERO_DIGEST)
        tampered = Block(header, _empty_payload("DB"))
        line = block_line(tampered)
        stale = line.replace(line[11:75], "0" * 64, 1)
        dump = chain_to_jsonl(chain_from_jsonl(chain_to_jsonl(chain) + stale + "\n"))
        assert dump.splitlines()[-1] == line
        assert json.loads(dump.splitlines()[-1])["digest"] == block_digest(tampered).hex()
        assert verify_chain_dump(dump) == [
            "BrokenLinkage: line 81: prev_digest does not match the current tip"
        ]


# Amounts and performances that pass ``validate_block``.
AMOUNT = st.floats(0.0, allow_infinity=False)
PERFORMANCE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def appended_chains(draw):
    """A chain grown from genesis by ``append_block``, up to two rounds."""
    chain = new_chain()
    for _ in range(draw(st.integers(1, 8))):
        kind = expected_kind(len(chain.blocks))
        if kind == "DB":
            # one contract per trainer
            contracts = st.lists(st.tuples(EXACT[str], EXACT[str], AMOUNT, AMOUNT), max_size=4,
                                 unique_by=lambda contract: contract[1])
            payload = DepositPayload(tuple(draw(contracts)), (draw(EXACT[str]), draw(AMOUNT)))
        elif kind == "EB":
            payload = EncryptionPayload(draw(EXACT[bytes]), draw(records(TrainingRecord)))
        elif kind == "TB":
            count = draw(st.integers(0, 4))
            cases = st.lists(st.lists(EXACT[float], max_size=3).map(tuple),
                             min_size=count, max_size=count).map(tuple)
            payload = TestingPayload(draw(records(EncryptedModelDigest)), draw(cases),
                                     draw(cases))
        else:
            # distinct (previous owner, trainer) pairs of the round's EB,
            # which is two blocks back
            recorded = sorted({record[:2] for record in chain.blocks[-2].payload.records})
            pairs = draw(st.lists(st.sampled_from(recorded), max_size=4, unique=True)
                         if recorded else st.just([]))
            verified = tuple((*pair, draw(PERFORMANCE)) for pair in pairs)
            size = draw(st.integers(min(1, len(verified)), len(verified)))
            payload = SettlementPayload(verified, tuple(chainmod.ranked_ids(verified)[:size]))
        block = Block(next_header(chain, draw(U64)), payload)
        # an EB that repeats the digest its previous owner's record holds
        assume(chainmod.validate_block(chain, block) == [])
        append_block(chain, block)
    return chain


class TestLines:
    """A chain keeps each block's dump line, which the dump joins."""

    @settings(max_examples=150, deadline=None)
    @given(appended_chains())
    def test_appended_lines_are_the_reference_lines(self, chain):
        assert chain.lines == list(map(reference_line, chain.blocks))
        assert [chain.digest(i) for i in range(len(chain.blocks))] == list(
            map(block_digest, chain.blocks))
        dump = chain_to_jsonl(chain)
        assert dump == "".join(line + "\n" for line in chain.lines)
        assert verify_chain_dump(dump) == []

    def test_a_wrong_digest_is_recomputed_in_the_partial_chain(self, seed_7_blocks):
        # Line 2 keeps its recorded digest but not its nonce.
        lines = dump_of(seed_7_blocks).splitlines()
        nonce = seed_7_blocks[2].header.nonce
        assert lines[2].count(f'"nonce":{nonce},') == 1
        lines[2] = lines[2].replace(f'"nonce":{nonce},', f'"nonce":{nonce ^ 1},')
        partial = Chain()
        assert verify_chain_dump("".join(line + "\n" for line in lines), partial) == [
            "DigestMismatch: line 2",
            "BrokenLinkage: line 3: prev_digest does not match the current tip",
        ]
        tampered = partial.blocks[2]
        assert tampered.header.nonce == nonce ^ 1
        assert partial.lines[2] == reference_line(tampered) != lines[2]
        assert partial.digest(2) == block_digest(tampered)
        assert partial.lines[:2] + partial.lines[3:] == lines[:2] + lines[3:]

    def test_a_partial_chain_must_be_empty(self):
        dump = chain_to_jsonl(simulate_run(SimConfig(seed=7, rounds=2)).state.chain)
        partial = new_chain()
        with pytest.raises(ValueError, match="needs an empty chain, given one of 1 block"):
            verify_chain_dump(dump, partial)
        # refused before the text is read
        with pytest.raises(ValueError, match="needs an empty chain"):
            verify_chain_dump(None, partial)
        assert partial.lines == [block_line(genesis_block())]


class TestExactTypes:
    """A value of another type than its field's is refused on append: the
    block's line would not decode to it."""

    @pytest.mark.parametrize("payload, reason", [
        (DepositPayload((("mo", "t", 2, 0.0),), ("m0", 0.0)), "InvalidType"),
        (DepositPayload((), ("m0", True)), "InvalidType"),
        (TestingPayload((), ((1.0, 0),), ((0.5,),)), "InvalidType"),
        (SettlementPayload((("g", "t1", 1),), ("t1",)), "InvalidType"),
    ], ids=["int-mo-amount", "bool-coinbase", "int-testing-input", "int-performance"])
    def test_int_or_bool_in_a_float_field(self, payload, reason):
        kind = chainmod._PAYLOAD_KIND[type(payload)]
        chain = _chain_before(kind)
        blocks, lines = list(chain.blocks), list(chain.lines)
        block = Block(next_header(chain, 0), payload)
        with pytest.raises(PayloadInvariantViolation, match=reason):
            append_block(chain, block)
        assert (list(chain.blocks), chain.lines) == (blocks, lines)
        # the line it would have: the decoder refuses it
        dump = dump_of([*blocks, block])
        assert verify_chain_dump(dump)[0].startswith(f"Unparseable: line {len(blocks)}: "
                                                     "expected float, got ")

    def test_a_chain_grows_only_by_checked_blocks(self):
        chain = new_chain()
        block = Block(next_header(chain, 0), DepositPayload(((5, "t", 0.0, 0.0),), ("m", 0.0)))
        with pytest.raises(PayloadInvariantViolation, match="InvalidType: expected str, got 5"):
            append_block(chain, block)
        assert chain.lines == [block_line(genesis_block())]
        with pytest.raises(TypeError):
            Chain(blocks=[genesis_block(), block])

    def test_bool_nonce(self):
        chain = new_chain()
        blocks, lines = list(chain.blocks), list(chain.lines)
        with pytest.raises(ChainError, match="nonce must be an int"):
            append_block(chain, Block(next_header(chain, True), _empty_payload("DB")))
        assert (list(chain.blocks), chain.lines) == (blocks, lines)


def _one_round():
    """Genesis and a round of blocks that keep every rule, with two records
    in each record field but the TB's."""
    chain = new_chain()
    digest = canonical_digest(encode_str("m"), encode_uint(1))
    for payload in (
        DepositPayload((("mo", "t1", 0.25, 1.0), ("mo", "t2", 0.5, 0.0)), ("m0", 0.001)),
        EncryptionPayload(b"pk", (("mo", "t1", digest), ("mo", "t2", digest))),
        TestingPayload((("t1", digest),), ((0.5, -1.25),), ((2.0,),)),
        SettlementPayload((("mo", "t1", 0.125), ("mo", "t2", 0.25)), ("t1",)),
    ):
        append_block(chain, Block(next_header(chain, 0), payload))
    return list(chain.blocks)


def _paths(value, path=()):
    """The path of every value inside a dataclass or tuple, at any depth."""
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, tuple):
        items = list(enumerate(value))
    else:
        return []
    return [found for key, item in items
            for found in [(*path, key), *_paths(item, (*path, key))]]


ONE_ROUND = _one_round()
# (height, path) of each header field, payload field and value within one
FIELD_PATHS = [(height, path) for height, block in enumerate(ONE_ROUND)
               for path in _paths(block) if len(path) > 1]
# A value of each JSON type; no lone surrogate, which no string field can hold.
JSON_VALUES = st.one_of(
    st.integers(-2**70, 2**70), st.booleans(), st.none(), st.floats(), st.binary(max_size=33),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
    st.lists(st.one_of(st.integers(), st.text(max_size=2)), max_size=3))


class TestOneTypeRule:
    """A block with a value of another type in any one field is refused,
    and the chain left as it was, or its chain's dump verifies: no chain
    holds a block whose own line its dump would refuse."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(FIELD_PATHS), JSON_VALUES)
    @example((1, ("payload", "contracts", 0, 0)), 5)
    @example((1, ("payload", "contracts", 0, 0)), None)
    @example((2, ("payload", "pk")), "706b")
    @example((2, ("header", "prev_digest")), "0" * 32)
    @example((4, ("payload", "verified", 1, 1)), b"t2")
    def test_refused_or_dumped(self, at, value):
        height, path = at
        chain = chain_of(ONE_ROUND[:height])
        blocks, lines = list(chain.blocks), list(chain.lines)
        try:
            append_block(chain, replaced(ONE_ROUND[height], path, value))
        except ChainError:
            assert (list(chain.blocks), chain.lines) == (blocks, lines)
        else:
            assert verify_chain_dump(chain_to_jsonl(chain)) == []

    @pytest.mark.parametrize("path, value, reason", [
        (("payload", "contracts", 0, 1), 5, "InvalidType: expected str, got 5"),
        (("payload", "contracts", 0, 0), None, "InvalidType: expected str, got None"),
        (("payload", "contracts"), [], "InvalidType: expected tuple, got []"),
        (("payload", "coinbase"), ["m0", 0.0], "InvalidType: expected tuple, got ['m0', 0.0]"),
        (("payload", "coinbase", 1), 0, "InvalidType: expected float, got 0"),
        (("payload", "contracts", 1), ("mo", "t2", 0.5),
         "RecordLength: a record of mo_id, trainer_id, mo_amount, t_amount must have 4 fields"),
    ])
    def test_reason(self, path, value, reason):
        chain = new_chain()
        with pytest.raises(PayloadInvariantViolation) as raised:
            append_block(chain, replaced(ONE_ROUND[1], path, value))
        assert str(raised.value) == reason

    @pytest.mark.parametrize("prev_digest", ["0" * 32, bytearray(32), list(range(32))])
    def test_header_refuses_a_prev_digest_that_is_not_bytes(self, prev_digest):
        with pytest.raises(ChainError, match="prev_digest must be 32 bytes"):
            dataclasses.replace(ONE_ROUND[1].header, prev_digest=prev_digest)


class TestRoundRecords:
    """A DB holds at most one contract per trainer, and an SB verifies only
    records of its round's EB, each once: on append and in a dump."""

    @staticmethod
    def _first_trainer_in(*indices):
        def tamper(payload):
            trainer = payload.contracts[0][1]
            contracts = list(payload.contracts)
            for index in indices:
                contracts[index] = replaced(contracts[index], (1,), trainer)
            return dataclasses.replace(payload, contracts=tuple(contracts))
        return 1, ["DuplicateTrainer"], tamper

    @staticmethod
    def _verify(*extra, reasons):
        # Each extra record ranks below every engine record, so the top set
        # stays a prefix of the ranking.
        def tamper(payload):
            return dataclasses.replace(payload, verified=(*payload.verified, *extra))
        return 4, reasons, tamper

    ATTACKS = {
        "trainer-with-two-contracts": _first_trainer_in(1),
        "trainer-with-three-contracts": _first_trainer_in(1, 3),
        "ghost-verified": _verify(("p000", "ghost", 2.0), reasons=["UnrecordedVerified"]),
        "ghost-verified-twice": _verify(("p000", "ghost", 2.0), ("p000", "ghost", 2.0),
                                        reasons=["UnrecordedVerified", "DuplicateVerified"]),
        "record-verified-twice": _verify(("p000", "p006", 2.0), reasons=["DuplicateVerified"]),
        "owner-and-trainer-swapped": _verify(("p006", "p000", 2.0),
                                             reasons=["UnrecordedVerified"]),
    }

    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_rejected_on_append_and_in_the_dump(self, seed_7_blocks, attack):
        height, reasons, tamper = self.ATTACKS[attack]
        blocks = list(seed_7_blocks)
        blocks[height] = Block(blocks[height].header, tamper(blocks[height].payload))
        forged = _relinked(blocks)
        with pytest.raises(PayloadInvariantViolation, match=reasons[0]):
            append_block(chain_of(forged[:height]), forged[height])
        violations = verify_chain_dump(dump_of(forged))
        assert [v.split(": ")[:3] for v in violations] == [
            ["PayloadInvariantViolation", f"line {height}", reason] for reason in reasons
        ]

    def test_a_pair_of_the_previous_round_is_unrecorded(self):
        blocks = list(simulate_run(SimConfig(seed=7, rounds=2)).state.chain.blocks)
        # a pair of round 1's EB that round 2's EB does not hold
        pairs = [{record[:2] for record in blocks[height].payload.records} for height in (2, 6)]
        prev_owner_id, trainer_id = min(pairs[0] - pairs[1])
        payload = blocks[8].payload
        blocks[8] = Block(blocks[8].header, dataclasses.replace(
            payload, verified=(*payload.verified, (prev_owner_id, trainer_id, 2.0))))
        violations = verify_chain_dump(dump_of(_relinked(blocks)))
        assert violations == [f"PayloadInvariantViolation: line 8: UnrecordedVerified: "
                              f"{prev_owner_id}->{trainer_id} is in no EB record of round 2"]


class TestMineWinner:
    def test_single_candidate(self):
        assert mine_winner(["only"], random.Random(0)) == "only"

    def test_pinned_seed_42(self):
        assert mine_winner(participant_ids(128), random.Random(42)) == "p028"

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidateSet):
            mine_winner([], random.Random(0))

    def test_uniformity_chi_square(self):
        ids = participant_ids(128)
        rng = random.Random(7)
        counts = {pid: 0 for pid in ids}
        for _ in range(100_000):
            counts[mine_winner(ids, rng)] += 1
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > 0.01


class TestDumpFormat:
    def _sample_chain(self):
        chain = new_chain()
        d1 = canonical_digest(encode_str("m"), encode_uint(1))
        d2 = canonical_digest(encode_str("m"), encode_uint(2))
        append_block(chain, Block(_next_header(chain, "DB"), DepositPayload(
            (("mo", "t1", 0.25, 1.0),), ("m0", 0.001)
        )))
        append_block(chain, Block(_next_header(chain, "EB"), EncryptionPayload(
            b"public-key-bytes", (("mo", "t1", d1),)
        )))
        append_block(chain, Block(_next_header(chain, "TB"), TestingPayload(
            (("t1", d2),),
            ((0.5, -1.25),), ((2.0,),),
        )))
        append_block(chain, Block(_next_header(chain, "SB"), SettlementPayload(
            (("mo", "t1", 0.125),), ("t1",)
        )))
        return chain

    def test_golden_block_digests(self):
        # The field names of the block dataclasses and the field order of
        # each record are hashed: these pin them for every kind with
        # non-empty payload fields.
        digests = {b.header.kind: block_digest(b).hex() for b in self._sample_chain().blocks[1:]}
        assert digests == {
            "DB": "68350b1203a751b46a1fb3e0978f3dca4391eb638c9db51dfd96ee7504a1da81",
            "EB": "6c1be0c0803a1f67974b69f6975d8bf6f2340e8b4c9b728b15e987f64a119680",
            "TB": "dfb7b38de9d666dfea64ab36c1852c7f31ddb188be1c56ae3c214c39f0735582",
            "SB": "0370f16999bc72cce7e74ec2fd43bb4725efdfd251bad9aeb4ff8740af37f02e",
        }

    def test_round_trip_preserves_digests(self):
        chain = self._sample_chain()
        text = chain_to_jsonl(chain)
        loaded = chain_from_jsonl(text)
        assert len(loaded.blocks) == len(chain.blocks)
        for a, b in zip(chain.blocks, loaded.blocks):
            assert block_digest(a) == block_digest(b)
        assert verify_chain_dump(text) == []
        assert chain_to_jsonl(loaded) == text

    def test_clean_dump_verifies(self):
        assert verify_chain_dump(chain_to_jsonl(self._sample_chain())) == []

    def test_single_byte_mutations_detected(self):
        text = chain_to_jsonl(self._sample_chain())
        raw = text.encode("utf-8")
        rng = random.Random(99)
        for _ in range(200):
            pos = rng.randrange(len(raw))
            replacement = rng.randrange(256)
            while replacement == raw[pos]:
                replacement = rng.randrange(256)
            mutated = raw[:pos] + bytes([replacement]) + raw[pos + 1:]
            try:
                violations = verify_chain_dump(mutated.decode("utf-8"))
            except UnicodeDecodeError:
                continue  # detected before parsing
            assert violations, f"undetected mutation at byte {pos}"


class TestLineBreaks:
    """A dump's lines end in a line feed, and only there."""

    @pytest.fixture(scope="class")
    def dump(self):
        return chain_to_jsonl(simulate_run(SimConfig(seed=7, rounds=1)).state.chain)

    def test_every_line_feed_turned_into_any_other_ascii_byte(self, dump):
        assert verify_chain_dump(dump) == []
        breaks = [i for i, char in enumerate(dump) if char == "\n"]
        assert len(breaks) == 5 and breaks[-1] == len(dump) - 1
        for i in breaks:
            for code in range(128):
                if code == ord("\n"):
                    continue
                mutated = dump[:i] + chr(code) + dump[i + 1:]
                assert verify_chain_dump(mutated), f"undetected {code:#04x} at byte {i}"

    @pytest.mark.parametrize("tamper", ["crlf", "blank-line", "leading-space", "no-last-break"])
    def test_reported_line_forms(self, dump, tamper):
        lines = dump.split("\n")[:-1]
        if tamper == "crlf":
            violations = verify_chain_dump("\r\n".join([*lines, ""]))
            assert violations == [
                f"Unparseable: line {i}: not the canonical line of its block" for i in range(5)
            ] + ["EmptyChain: no blocks"]
            return
        if tamper == "no-last-break":
            assert verify_chain_dump(dump[:-1]) == [
                "Unterminated: the dump does not end in a line break"]
            return
        line = "" if tamper == "blank-line" else " " + lines[3]
        violations = verify_chain_dump("\n".join([*lines[:3], line, *lines[4:], ""]))
        assert violations[0].startswith("Unparseable: line 3: ")
        assert not any(v.startswith("Unparseable") for v in violations[1:])

    def test_dump_of_no_blocks_reports_only_the_empty_chain(self):
        assert verify_chain_dump(chain_to_jsonl(Chain())) == ["EmptyChain: no blocks"]


class TestChainMemory:
    """A chain keeps its dump lines and two blocks, not a block per line."""

    def test_a_parsed_chain_retains_about_its_lines(self):
        dump = chain_to_jsonl(simulate_run(SimConfig(seed=7, rounds=200)).state.chain)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            chain = chain_from_jsonl(dump)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(chain.lines) == 801
        assert retained <= 1.25 * sum(map(sys.getsizeof, chain.lines))


def _last_eb_by_scan(blocks):
    """The last EB of ``blocks``, found by a scan from the end."""
    return next((block for block in reversed(blocks)
                 if isinstance(block.payload, EncryptionPayload)), None)


class TestChainState:
    """The tip and the last EB a chain keeps are those a scan of every block
    finds, and the blocks it decodes are the blocks it was given."""

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    @pytest.mark.parametrize("seed", [7, 1009])
    def test_state_after_each_append_matches_a_full_scan(self, monkeypatch, seed, mode):
        append, appended = chainmod.append_block, []

        def recording(chain, block):
            append(chain, block)
            appended.append(block)
            assert list(chain.blocks) == appended
            assert chain.tip == appended[-1]
            assert chain.last_eb == _last_eb_by_scan(appended)
            return chain
        monkeypatch.setattr(chainmod, "append_block", recording)
        simulate_run(SimConfig(seed=seed, rounds=6, mode=mode))
        assert len(appended) == 25

    @pytest.mark.parametrize("attack", sorted(TestRoundRecords.ATTACKS))
    def test_a_refused_block_leaves_the_state(self, seed_7_blocks, attack):
        height, reasons, tamper = TestRoundRecords.ATTACKS[attack]
        blocks = list(seed_7_blocks)
        blocks[height] = Block(blocks[height].header, tamper(blocks[height].payload))
        forged = _relinked(blocks)
        chain = chain_of(forged[:height])
        state = (list(chain.lines), chain.tip, chain.last_eb)
        assert state[1:] == (forged[height - 1], _last_eb_by_scan(forged[:height]))
        with pytest.raises(PayloadInvariantViolation, match=reasons[0]):
            append_block(chain, forged[height])
        assert (chain.lines, chain.tip, chain.last_eb) == state

    def test_an_empty_chain_has_no_tip(self):
        chain = Chain()
        assert (chain.lines, chain.tip, chain.last_eb, len(chain.blocks)) == ([], None, None, 0)

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    def test_a_run_decodes_no_line(self, monkeypatch, mode):
        parsed = []
        parse = chainmod._parse_line
        monkeypatch.setattr(chainmod, "_parse_line", lambda line: parsed.append(line) or parse(line))
        chain = simulate_run(SimConfig(seed=7, rounds=6, mode=mode)).state.chain
        chain_to_jsonl(chain)
        assert len(chain.lines) == 25 and parsed == []
        # a read of the blocks decodes their lines
        assert [block.header.height for block in chain.blocks[-4:]] == [21, 22, 23, 24]
        assert parsed == chain.lines[-4:]

    def test_blocks_is_a_read_only_sequence(self):
        chain = simulate_run(SimConfig(seed=7, rounds=2)).state.chain
        blocks = list(chain.blocks)
        assert len(chain.blocks) == 9
        assert chain.blocks[-1] == blocks[-1] == chain.tip
        assert chain.blocks[2:5] == blocks[2:5] and chain.blocks[::-3] == blocks[::-3]
        assert list(reversed(chain.blocks)) == blocks[::-1]
        with pytest.raises(IndexError):
            chain.blocks[9]
        with pytest.raises(TypeError):
            chain.blocks[0] = blocks[0]


def sorted_line(line):
    """``line`` as ``json`` writes its object with sorted keys."""
    return json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class TestKeyOrder:
    """Each dump line is the compact sorted-key encoding of its own object."""

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    @pytest.mark.parametrize("seed", [7, 1009])
    def test_simulated_dump_lines(self, seed, mode):
        chain = simulate_run(SimConfig(seed=seed, rounds=20, mode=mode)).state.chain
        lines = chain_to_jsonl(chain).splitlines()
        assert len(lines) == 81
        for line in lines:
            assert line == sorted_line(line)

    @settings(max_examples=300, deadline=None)
    @given(blocks())
    @example(Block(BlockHeader(1, 1, "DB", ZERO_DIGEST, 0, 1),
                   DepositPayload((), ("\U0001d11e-é", 0.0))))
    @example(Block(BlockHeader(3, 1, "TB", ZERO_DIGEST, 0, 3), TestingPayload(
        (("é", b""),), ((math.nan, math.inf, -math.inf), ()), ((), ()))))
    def test_block_lines(self, block):
        dump = chain_to_jsonl(chain_of([block]))
        line, end = dump.split("\n")
        assert end == ""
        assert line == sorted_line(line)

    def test_dump_of_no_blocks_is_one_empty_line(self):
        assert chain_to_jsonl(Chain()) == "\n"


class TestTamperedValues:
    """Values a tampered dump can carry are reported, never raised."""

    def _dump(self):
        chain = new_chain()
        header = dataclasses.replace(_next_header(chain, "DB"), nonce=7342, timestamp=15)
        append_block(chain, Block(header, _empty_payload("DB")))
        return chain_to_jsonl(chain)

    @pytest.mark.parametrize("old, new", [
        ('"nonce":7342', '"nonce":-342'),
        ('"timestamp":15', '"timestamp":-5'),
        ('"nonce":7342', '"nonce":Infinity'),
        ('"height":1,', '"height":1e999,'),
        ('"nonce":7342', '"nonce":73420000000000000000'),
        pytest.param('"coinbase":["m0"', '"coinbase":["\\ud800"', id="lone-surrogate-miner-id"),
        # The decoder rejects each of these: a value of another type than
        # its field's, or a key the object does not define.
        ('"round":1,', '"round":1.9,'),
        ('"round":1,', '"round":true,'),
        ('"height":1,', '"height":1.0,'),
        ('"timestamp":15', '"timestamp":15.5'),
        ('"nonce":7342', '"nonce":7342.0'),
        ('"kind":"DB",', '"extra":5,"kind":"DB",'),
        ('"payload":{"coinbase"', '"payload":{"extra":5,"coinbase"'),
    ])
    def test_reported_as_violation(self, old, new):
        text = self._dump()
        assert text.count(old) == 1
        violations = verify_chain_dump(text.replace(old, new))
        assert [v.split(":")[0] for v in violations] == ["Unparseable"]

    @pytest.mark.parametrize("line, old, new", [
        (1, ',0.0,0.0]', ',"0.0",0.0]'),
        (2, '"pk":"6d6f636b', '"pk":"6D6F636B'),
        (1, '["p000","p006",0.0,0.0]', '["p000","p006",0.0,0.0,0.0]'),
        (1, '"digest":"2645db', '"digest":"2645DB'),
    ], ids=["float-as-string", "upper-case-bytes", "unknown-key-in-a-contract",
            "upper-case-digest"])
    def test_records_decode_strictly(self, seed_7_blocks, line, old, new):
        # The dump up to the tampered line, which is its tip; each change is
        # rejected before any digest or rule is checked.
        lines = dump_of(seed_7_blocks).splitlines(keepends=True)
        text = "".join(lines[:line + 1])
        assert lines[line].count(old) >= 1 and verify_chain_dump(text) == []
        violations = verify_chain_dump(text.replace(old, new, 1))
        assert [v.split(":")[:2] for v in violations] == [["Unparseable", f" line {line}"]]

    @pytest.mark.parametrize("old, new", [
        ('"height":1,', '"height":1,"height":1,'),
        ('"kind":"DB"', '"kind": "DB"'),
        (',"kind":"DB"', ', "kind":"DB"'),
        ('"kind":"DB"', '"kind":"\\u0044B"'),
        ('"p006",0.0,', '"p006",0.00,'),
        ('"p006",0.0,', '"p006",0.000000e+00,'),
    ], ids=["repeated-key", "space-after-colon", "space-after-comma", "escaped-letter",
            "float-with-two-zeros", "float-with-an-exponent"])
    def test_non_canonical_line_is_unparseable(self, seed_7_blocks, old, new):
        # Each line decodes to the block of the untampered one, whose digest
        # it records; only its canonical line verifies.
        lines = dump_of(seed_7_blocks[:2]).splitlines(keepends=True)
        assert lines[1].count(old) == 1 and verify_chain_dump("".join(lines)) == []
        assert list(chain_from_jsonl(lines[1].replace(old, new)).blocks) == [seed_7_blocks[1]]
        assert verify_chain_dump(lines[0] + lines[1].replace(old, new)) == [
            "Unparseable: line 1: not the canonical line of its block"]

    def test_dump_of_the_binary_hash_encoding_is_refused(self):
        # The dump of ``_dump``'s chain when a digest hashed a binary
        # encoding and records were JSON objects: the genesis line has no
        # record, so only its digest differs.
        old = (
            '{"digest":"c182288e4ee4318007122e1fc03e22eae7311f5c235453bd420cf395b69e1d1e",'
            '"height":0,"kind":"SB","nonce":0,"payload":{"top_set":[],"verified":[]},'
            '"prev_digest":"' + "0" * 64 + '","round":0,"timestamp":0}\n'
            '{"digest":"e51aafead8936c8c4c5f2d69f81e58a9ebb0308deb8def54708ad422f535bfab",'
            '"height":1,"kind":"DB","nonce":7342,"payload":{"coinbase":{"amount":0.0,'
            '"miner_id":"m0"},"contracts":[]},"prev_digest":"c182288e4ee4318007122e1fc03e22eae7'
            '311f5c235453bd420cf395b69e1d1e","round":1,"timestamp":15}\n')
        assert verify_chain_dump(old) == [
            "DigestMismatch: line 0",
            "Unparseable: line 1: expected list, got {'amount': 0.0, 'miner_id': 'm0'}"]

    def test_deeply_nested_line_is_unparseable(self, seed_7_blocks):
        lines = dump_of(seed_7_blocks).splitlines(keepends=True)
        lines[1] = "[" * 100_000 + "]" * 100_000 + "\n"
        violations = verify_chain_dump("".join(lines))
        assert violations[0].startswith("Unparseable: line 1: maximum recursion depth")
        assert all(not v.startswith("Unparseable") for v in violations[1:])

    @pytest.mark.parametrize("name", ["height", "round", "nonce", "timestamp"])
    def test_header_ints_are_unsigned_64_bit(self, name):
        header = _next_header(new_chain(), "DB")
        dataclasses.replace(header, **{name: 2**64 - 1})
        for value in (-1, 2**64):
            with pytest.raises(ChainError):
                dataclasses.replace(header, **{name: value})
