import dataclasses
import gc
import json
import math
import random
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
    block_digest,
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
from relaysim.serialize import ZERO_DIGEST, digest as canonical_digest
from relaysim.sim import SimConfig, simulate_run
from test_serialize import Label, outcome, reference_digest

GENESIS_DIGEST_HEX = "c182288e4ee4318007122e1fc03e22eae7311f5c235453bd420cf395b69e1d1e"


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


def reference_structure(value):
    """A block value as the nested lists the block digest once encoded: a
    record as the list of its fields in declaration order."""
    if dataclasses.is_dataclass(value):
        return [reference_structure(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [reference_structure(item) for item in value]
    return value


def reference_block_digest(block):
    return reference_digest(["block", *reference_structure(block.header),
                             [block.header.kind, *reference_structure(block.payload)]])


# Per column, either values of one encoded width, which the column packer
# packs with one struct, or values of mixed widths and types, which it
# encodes one by one. "p000" and "\U0001d11e" are both 4 bytes in UTF-8.
UNIFORM = {
    str: st.sampled_from(["p000", "p255", "\U0001d11e", Label("abcd")]),
    float: st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf])),
    bytes: st.binary(min_size=32, max_size=32),
}
MIXED = {
    str: st.one_of(UNIFORM[str], st.text(max_size=6), st.sampled_from(["", "genesis"])),
    float: st.one_of(UNIFORM[float], st.integers(0, 2**64 - 1), st.booleans()),
    bytes: st.one_of(st.binary(max_size=40), st.binary(max_size=40).map(bytearray)),
}


# Values of exactly each field's type, the only values a dump can hold:
# non-ASCII and empty ids, non-finite floats, bytes of any length.
EXACT = {
    str: st.one_of(UNIFORM[str], st.text(max_size=6), st.sampled_from(["", "é", "genesis"])),
    float: UNIFORM[float],
    bytes: st.binary(max_size=40),
}


def column(kind, rows, mixed=MIXED):
    return st.booleans().flatmap(lambda uniform: st.lists(
        (UNIFORM if uniform else mixed)[kind], min_size=rows, max_size=rows))


def records(record, min_size=0, max_size=6, mixed=MIXED):
    """A tuple of records of the type ``record``, built one column at a time."""
    kinds = typing.get_args(typing.get_args(record)[0])
    return st.integers(min_size, max_size).flatmap(lambda rows: st.tuples(
        *(column(kind, rows, mixed) for kind in kinds)).map(lambda cols: tuple(zip(*cols))))


def cases(mixed=MIXED):
    """Testing inputs or truths: up to 5 cases of widths 0, 1 and 7, either
    all of one width or mixed."""
    widths = st.sampled_from([0, 1, 7])
    return widths.flatmap(lambda width: st.lists(
        st.one_of(st.just(width), widths), max_size=5)).flatmap(lambda sizes: st.tuples(
            *(column(float, size, mixed).map(tuple) for size in sizes)))


def payloads(mixed):
    """Per kind, payloads whose columns are either uniform or drawn from
    ``mixed``."""
    return {
        "DB": st.builds(DepositPayload, records(ContractRecord, mixed=mixed),
                        records(Coinbase, 1, 1, mixed).map(lambda one: one[0])),
        "EB": st.builds(EncryptionPayload, mixed[bytes], records(TrainingRecord, mixed=mixed)),
        "TB": st.builds(TestingPayload, records(EncryptedModelDigest, mixed=mixed),
                        cases(mixed), cases(mixed)),
        "SB": st.builds(SettlementPayload, records(VerifiedRecord, mixed=mixed),
                        st.integers(0, 6).flatmap(lambda n: column(str, n, mixed)).map(tuple)),
    }


MIXED_PAYLOADS, EXACT_PAYLOADS = payloads(MIXED), payloads(EXACT)
U64 = st.integers(0, 2**64 - 1)


@st.composite
def blocks(draw, exact=False):
    """A block of any kind; with ``exact``, one whose values all have exactly
    their field's type, so that it can be dumped."""
    kind = draw(st.sampled_from(chainmod.KINDS))
    header = BlockHeader(draw(U64), draw(U64), kind, draw(st.binary(min_size=32, max_size=32)),
                         draw(U64), draw(U64))
    return Block(header, draw((EXACT_PAYLOADS if exact else MIXED_PAYLOADS)[kind]))


def leaves(value, path=()):
    """The path (field names and tuple indices) to each scalar in ``value``."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from leaves(getattr(value, f.name), (*path, f.name))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from leaves(item, (*path, i))
    else:
        yield path


def replaced(value, path, new):
    """``value`` with the scalar at ``path`` replaced by ``new``."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(key, str):
        return dataclasses.replace(value, **{key: replaced(getattr(value, key), rest, new)})
    return (*value[:key], replaced(value[key], rest, new), *value[key + 1:])


class TestColumnPacker:
    """The column packer hashes every block exactly as the recursive encoder
    of the nested ``["block", *header, [kind, *payload]]`` lists did."""

    @settings(max_examples=400, deadline=None)
    @given(blocks())
    def test_same_digest_as_the_nested_encoding(self, block):
        assert block_digest(block) == reference_block_digest(block)

    @settings(max_examples=300, deadline=None)
    @given(blocks(), st.data())
    def test_one_bad_value_raises_the_reference_error(self, block, data):
        paths = list(leaves(block.payload))
        assume(paths)
        path = data.draw(st.sampled_from(paths))
        bad = data.draw(st.sampled_from(["\ud800", "a\udfff", None]))
        block = Block(block.header, replaced(block.payload, path, bad))
        expected = outcome(reference_block_digest, block)
        assert isinstance(expected, type) and issubclass(expected, Exception)
        assert outcome(block_digest, block) is expected

    def test_ids_of_two_widths_and_an_int_amount(self):
        # One id is 7 bytes and the others 4, so that column is encoded value
        # by value, and the int amount keeps its tag 'I'.
        contracts = (("p000", "p001", 0.5, 1.0), ("genesis", "p002", 2, -0.0))
        block = Block(_next_header(new_chain(), "DB"), DepositPayload(contracts, ("m0", 0.001)))
        assert block_digest(block) == reference_block_digest(block)

    @pytest.mark.parametrize("contracts, coinbase", [
        ((), ("m0", 0.0, "x")),
        ((("a", "b", 0.0),), ("m0", 0.0)),
        ((("a", "b", 0.0), ("c", "d", 1.0)), ("m0", 0.0)),
    ], ids=["lone-coinbase", "lone-contract", "two-contracts"])
    def test_record_of_the_wrong_length_is_not_hashed(self, contracts, coinbase):
        # Hashed, such a record would be dumped without its extra field or
        # with a missing key, and the dump would fail its own verification.
        block = Block(_next_header(new_chain(), "DB"), DepositPayload(contracts, coinbase))
        with pytest.raises(ValueError, match=r"zip\(\)"):
            block_digest(block)
        with pytest.raises(ValueError, match=r"zip\(\)"):
            Chain(blocks=[block])


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

    @pytest.mark.parametrize("payload", [
        DepositPayload((), ("m", 0.0, "x")),
        DepositPayload((("a", "b", 0.0),), ("m0", 0.0)),
        EncryptionPayload(b"pk", (("mo", "t"),)),
        TestingPayload((("t", bytes(32), "x"),), (), ()),
        SettlementPayload((("g", "t1"),), ()),
    ], ids=["db-coinbase", "db-contract", "eb-record", "tb-digest", "sb-verified"])
    def test_record_of_the_wrong_length_leaves_the_chain_unchanged(self, payload):
        chain = new_chain()
        kind = chainmod._PAYLOAD_KIND[type(payload)]
        for k in KINDS[:KINDS.index(kind)]:
            append_block(chain, Block(_next_header(chain, k), _empty_payload(k)))
        blocks, digests = list(chain.blocks), list(chain.digests)
        with pytest.raises(PayloadInvariantViolation, match="RecordLength"):
            append_block(chain, Block(_next_header(chain, kind), payload))
        assert len(chain.blocks) == len(chain.digests)
        assert (chain.blocks, chain.digests) == (blocks, digests)
        # the chain still takes the right block in that slot
        append_block(chain, Block(_next_header(chain, kind), _empty_payload(kind)))


class TestValidate:
    def test_eb_reusing_predecessor_digest(self):
        chain = new_chain()
        stale = canonical_digest(["abstract-model", "mo1", 1])
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
    return simulate_run(SimConfig(seed=7, rounds=1)).state.chain.blocks


def _relinked(blocks):
    """A chain of ``blocks`` with each back link recomputed, as a forger
    who rewrote a block and every block after it would build it."""
    chain = Chain(blocks=[blocks[0]])
    for block in blocks[1:]:
        header = dataclasses.replace(block.header, prev_digest=chain.digests[-1])
        chain.blocks.append(Block(header, block.payload))
        chain.digests.append(block_digest(chain.blocks[-1]))
    return chain


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
            append_block(Chain(blocks=forged.blocks[:height]), forged.blocks[height])
        violations = verify_chain_dump(chain_to_jsonl(forged))
        assert [v.split(": ")[:3] for v in violations] == [
            ["PayloadInvariantViolation", f"line {height}", reason]
        ]

    def test_zero_amounts_and_any_finite_performance_pass(self, seed_7_blocks):
        blocks = list(seed_7_blocks)
        for height, _, tamper in (self._contract(0.0, "mo_amount"), self._coinbase(0.0),
                                  self._performance(-1e300)):
            blocks[height] = Block(blocks[height].header, tamper(blocks[height].payload))
        assert verify_chain_dump(chain_to_jsonl(_relinked(blocks))) == []


class TestRankedTopSet:
    """An SB's top set is a prefix of the verified records ranked by
    performance, then trainer id: the settlement miner cannot mis-rank it."""

    def test_top_set_of_outsiders_rejected(self):
        blocks = simulate_run(SimConfig(seed=7, rounds=20)).state.chain.blocks
        tip = blocks[-1].payload
        outsiders = tuple(t for _, t, _ in tip.verified if t not in tip.top_set)[:40]
        assert len(tip.top_set) == len(outsiders) == 40
        forged = Block(blocks[-1].header, dataclasses.replace(tip, top_set=outsiders))
        with pytest.raises(PayloadInvariantViolation, match="UnrankedTopSet"):
            append_block(Chain(blocks=blocks[:-1]), forged)
        violations = verify_chain_dump(chain_to_jsonl(Chain(blocks=[*blocks[:-1], forged])))
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
        # The same block in a chain built without append_block.
        dump = chain_to_jsonl(Chain(blocks=[*chain.blocks, block]))
        assert verify_chain_dump(dump) == [f"{error.__name__}: line 3: {raised.value}"]

    def test_dump_must_start_from_the_fixed_genesis(self):
        genesis = genesis_block()
        forged = Block(dataclasses.replace(genesis.header, nonce=5, timestamp=9), genesis.payload)
        chain = build_round(Chain(blocks=[forged]))
        assert verify_chain_dump(chain_to_jsonl(chain)) == [
            "BrokenLinkage: line 0: height 0 must hold the fixed genesis block"
        ]

    def test_every_broken_rule_of_a_line_is_reported(self):
        chain = new_chain()
        header = dataclasses.replace(_next_header(chain, "DB"), round=2, timestamp=0)
        block = Block(header, _empty_payload("DB"))
        with pytest.raises(BrokenLinkage, match="round 1, got 2.*not after"):
            append_block(chain, block)
        violations = verify_chain_dump(chain_to_jsonl(Chain(blocks=[*chain.blocks, block])))
        assert [v.split(":")[0] for v in violations] == ["BrokenLinkage"] * 2


class TestHashOnce:
    def test_each_block_is_hashed_once_from_run_to_dump(self, monkeypatch):
        calls = []

        def counting_block_digest(block):
            calls.append(block)
            return block_digest(block)

        monkeypatch.setattr(chainmod, "block_digest", counting_block_digest)
        chain = simulate_run(SimConfig(mode="abstract", rounds=20, seed=7)).state.chain
        dump = chain_to_jsonl(chain)
        assert len(chain.blocks) == 81
        assert len(calls) == 81
        assert calls == chain.blocks
        assert chain.digests == [block_digest(b) for b in chain.blocks]
        assert verify_chain_dump(dump) == []

    def test_a_chain_built_from_blocks_hashes_each_of_them(self):
        chain = simulate_run(SimConfig(mode="abstract", rounds=20, seed=7)).state.chain
        header = dataclasses.replace(next_header(chain, 0), prev_digest=ZERO_DIGEST)
        tampered = Block(header, _empty_payload("DB"))
        dump = chain_to_jsonl(Chain(blocks=[*chain.blocks, tampered]))
        assert json.loads(dump.splitlines()[-1])["digest"] == block_digest(tampered).hex()
        assert verify_chain_dump(dump) == [
            "BrokenLinkage: line 81: prev_digest does not match the current tip"
        ]


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
        d1 = canonical_digest(["m", 1])
        d2 = canonical_digest(["m", 2])
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
        # Declaration order of the block dataclasses is hash order: these
        # pin it for every kind with non-empty payload fields.
        digests = {b.header.kind: block_digest(b).hex() for b in self._sample_chain().blocks[1:]}
        assert digests == {
            "DB": "a47fa986347d2948ed21f25b1fd3ee254e179249d19f10c63043fd898eae1cc5",
            "EB": "f7a5e3608b208fe7f500940967162f5737f7a43878fb4a8d4b95dce412261b7e",
            "TB": "2063999a9fb28e4dfc4377b60bb1f5c5517b4b9e5d4522867bee1b2e652043ab",
            "SB": "ceb270bfff81a740efbf7c00d61644ba76dea3e432820449c1ffa4945af42573",
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
                f"Unparseable: line {i}: whitespace around the object" for i in range(5)
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
        assert verify_chain_dump(chain_to_jsonl(Chain(blocks=[]))) == ["EmptyChain: no blocks"]


def chain_records(chain):
    """Every record the payloads of ``chain``'s blocks hold."""
    found = []
    for block in chain.blocks:
        payload = block.payload
        if isinstance(payload, DepositPayload):
            found += [*payload.contracts, payload.coinbase]
        elif isinstance(payload, EncryptionPayload):
            found += payload.records
        elif isinstance(payload, TestingPayload):
            found += payload.encrypted_model_digests
        else:
            found += payload.verified
    return found


class TestRecordsLeaveTheCollector:
    """Records are exact tuples of scalars, which the cyclic collector stops
    tracking, so a kept chain costs no full collection a walk of them."""

    @staticmethod
    def _untracked(chain):
        gc.collect()
        records = chain_records(chain)
        assert len(records) > 100
        assert all(type(record) is tuple for record in records)
        return not any(map(gc.is_tracked, records))

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    def test_simulated_chain(self, mode):
        chain = simulate_run(SimConfig(seed=7, rounds=12, mode=mode)).state.chain
        assert self._untracked(chain)

    def test_parsed_and_verified_chains(self):
        dump = chain_to_jsonl(simulate_run(SimConfig(seed=7, rounds=12)).state.chain)
        assert self._untracked(chain_from_jsonl(dump))
        partial = Chain(blocks=[])
        assert verify_chain_dump(dump, partial) == []
        assert self._untracked(partial)


def sorted_line(line):
    """``line`` as ``json`` writes its object with sorted keys."""
    return json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


class TestKeyOrder:
    """The encoder builds every object with its keys in sorted order, so
    each dump line is the sorted-key encoding of its own object."""

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    @pytest.mark.parametrize("seed", [7, 1009])
    def test_simulated_dump_lines(self, seed, mode):
        chain = simulate_run(SimConfig(seed=seed, rounds=20, mode=mode)).state.chain
        lines = chain_to_jsonl(chain).splitlines()
        assert len(lines) == 81
        for line in lines:
            assert line == sorted_line(line)

    @settings(max_examples=300, deadline=None)
    @given(blocks(exact=True))
    @example(Block(BlockHeader(1, 1, "DB", ZERO_DIGEST, 0, 1),
                   DepositPayload((), ("\U0001d11e-é", 0.0))))
    @example(Block(BlockHeader(3, 1, "TB", ZERO_DIGEST, 0, 3), TestingPayload(
        (("é", b""),), ((math.nan, math.inf, -math.inf), ()), ((), ()))))
    def test_block_lines(self, block):
        dump = chain_to_jsonl(Chain(blocks=[block]))
        line, = dump.splitlines()
        assert dump == line + "\n"
        assert line == sorted_line(line)

    def test_dump_of_no_blocks_is_one_empty_line(self):
        assert chain_to_jsonl(Chain(blocks=[])) == "\n"


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
        ('"miner_id":"m0"', '"miner_id":"\\ud800"'),
        # These decode to the same block, so its digest matches: only the
        # decoder can reject them.
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
        (1, '"mo_amount":0.0,', '"mo_amount":"0.0",'),
        (2, '"pk":"6d6f636b', '"pk":"6D6F636B'),
        (1, '{"mo_amount"', '{"extra":5,"mo_amount"'),
        (1, '"digest":"89da', '"digest":"89DA'),
    ], ids=["float-as-string", "upper-case-bytes", "unknown-key-in-a-contract",
            "upper-case-digest"])
    def test_records_decode_strictly(self, seed_7_blocks, line, old, new):
        # The dump up to the tampered line, which is its tip; each change
        # decodes to the same block, so only the decoder can reject it.
        lines = chain_to_jsonl(Chain(blocks=list(seed_7_blocks))).splitlines(keepends=True)
        text = "".join(lines[:line + 1])
        assert lines[line].count(old) >= 1 and verify_chain_dump(text) == []
        violations = verify_chain_dump(text.replace(old, new, 1))
        assert [v.split(":")[:2] for v in violations] == [["Unparseable", f" line {line}"]]

    def test_deeply_nested_line_is_unparseable(self, seed_7_blocks):
        lines = chain_to_jsonl(Chain(blocks=list(seed_7_blocks))).splitlines(keepends=True)
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
