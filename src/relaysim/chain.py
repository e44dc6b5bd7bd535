"""Four-stage block chain: deposit, encryption, testing, settlement.

Each training round appends exactly four blocks in a fixed kind cycle
DB -> EB -> TB -> SB. Blocks link by SHA-256 digests of their canonical
JSON encoding, so any payload mutation breaks either its own recorded
digest or the successor's back link. Proof-of-work is simulated: the
winner of each block is a uniform seeded draw from the candidate miners,
with a nonce field retained so a real puzzle could be slotted in later.

``_violations`` is the one list of rules for the next block: kind
cycle, height tip+1, back link to the tip's digest, round
``(height + 3) // 4``, timestamp greater than the tip's, then the payload
rules of ``validate_block``. ``append_block`` raises on them and
``verify_chain_dump`` reports them; ``next_header`` builds a linked header.

Each block is encoded and hashed once, when it joins a ``Chain``. A chain
keeps each block's dump line, and as objects only its tip and its last EB,
the two blocks the rules of the next block read. The back links read the
digest at the head of a line (``Chain.digest``), the dump joins the lines,
and ``Chain.blocks`` decodes a line when its block is read.

A block has one encoding, which is hashed, dumped and verified: its body
(``block_body``) is what ``json`` writes, with ``ensure_ascii=False``,
compact and with sorted keys, for the header's fields and ``payload``,
the object of the payload's fields; a record or any tuple is an array,
and bytes, which JSON has no type for, are lower-case hex (the encoder's
``default``). The digest is the SHA-256 of the body's UTF-8 bytes, so a
lone surrogate cannot be hashed. A dump line is ``{"digest":"<hex>",``
followed by the body without its opening brace, and a line feed.
``verify_chain_dump`` reads each line, encodes its block again and
compares the two byte for byte, so only a canonical line verifies (no
repeated key, space, escaped letter or other spelling of a number), and
the bytes it compared are the bytes it hashes.

Each field has one declared type and one rule for its values, built per
field type at import as a pair (``_field_codec``): a value is exactly a
``str``, ``int``, ``float`` or ``bytes`` (no boolean or float for an
int, no int for a float, no subclass), a tuple field holds an exact
tuple, and a record is an exact tuple of its type's width. ``read``
refuses the JSON values of a line that no value of the type encodes to;
``append_block`` runs ``check`` on a payload before it encodes the block,
and ``BlockHeader`` checks its own fields. A chain grows only by
``append_block`` and by reading a dump, whose blocks are not checked
again, so no chain holds a block whose line its dump would refuse.

The records a payload holds are exact tuples of scalars, each type
declared once as its field types annotated with its field names (which
round logs use as keys). A dataclass field's name is its key and a
record's field order its array's, so renaming or reordering a field
changes the format, and every digest.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import typing
from collections import Counter
from dataclasses import dataclass
from operator import countOf, itemgetter
from typing import Annotated, Any, Callable, Sequence

from .serialize import DIGEST_SIZE, ZERO_DIGEST

KINDS = ("DB", "EB", "TB", "SB")


class ChainError(ValueError):
    """Base class for chain construction errors."""


class KindOrderViolation(ChainError):
    """Block kind does not match its position in the DB-EB-TB-SB cycle."""


class BrokenLinkage(ChainError):
    """Height, round, timestamp or back link does not follow the current tip."""


class PayloadInvariantViolation(ChainError):
    """Block payload fails kind-specific validation."""


class EmptyCandidateSet(ChainError):
    """Winner selection requires at least one candidate miner."""


@dataclass(frozen=True)
class BlockHeader:
    height: int
    round: int
    kind: str
    prev_digest: bytes
    nonce: int
    timestamp: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ChainError(f"unknown block kind {self.kind!r}")
        if type(self.prev_digest) is not bytes or len(self.prev_digest) != DIGEST_SIZE:
            raise ChainError(f"prev_digest must be {DIGEST_SIZE} bytes")
        for name in ("height", "round", "nonce", "timestamp"):
            value = getattr(self, name)
            if type(value) is not int or not 0 <= value < 2**64:
                raise ChainError(f"{name} must be an int in [0, 2**64), got {value!r}")


# --- records -------------------------------------------------------------
#
# Each record type is the tuple of its field types, annotated with its field
# names in field order. A record is an exact tuple built in that order, never
# a subclass, which ``append_block`` refuses.

# Escrow amounts of one deposit contract as stored on-chain.
ContractRecord = Annotated[tuple[str, str, float, float],
                           ("mo_id", "trainer_id", "mo_amount", "t_amount")]
Coinbase = Annotated[tuple[str, float], ("miner_id", "amount")]
# A trained-model claim: previous owner, trainer, new model digest.
TrainingRecord = Annotated[tuple[str, str, bytes],
                           ("prev_owner_id", "trainer_id", "model_digest")]
EncryptedModelDigest = Annotated[tuple[str, bytes], ("trainer_id", "digest")]
VerifiedRecord = Annotated[tuple[str, str, float],
                           ("prev_owner_id", "trainer_id", "performance")]


def record_keys(record: Any) -> tuple[str, ...]:
    """The field names of a record type, in field order."""
    return record.__metadata__[0]


@dataclass(frozen=True)
class DepositPayload:
    contracts: tuple[ContractRecord, ...]
    coinbase: Coinbase


@dataclass(frozen=True)
class EncryptionPayload:
    pk: bytes
    records: tuple[TrainingRecord, ...]


@dataclass(frozen=True)
class TestingPayload:
    __test__ = False  # not a pytest class despite the name

    encrypted_model_digests: tuple[EncryptedModelDigest, ...]
    testing_inputs: tuple[tuple[float, ...], ...]
    testing_truths: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class SettlementPayload:
    verified: tuple[VerifiedRecord, ...]
    top_set: tuple[str, ...]


Payload = DepositPayload | EncryptionPayload | TestingPayload | SettlementPayload

_PAYLOAD_KIND = {
    DepositPayload: "DB",
    EncryptionPayload: "EB",
    TestingPayload: "TB",
    SettlementPayload: "SB",
}


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    payload: Payload

    def __post_init__(self) -> None:
        expected = _PAYLOAD_KIND[type(self.payload)]
        if self.header.kind != expected:
            raise ChainError(
                f"payload type {type(self.payload).__name__} requires kind "
                f"{expected}, header says {self.header.kind}"
            )


# --- block codec ---------------------------------------------------------
#
# Each half of a (read, check) pair takes a column, a list of values of one
# type, so that a tuple of records is read or checked one field at a time.

_Column = Callable[[Sequence], Any]


def _exact(kind: type, column: Sequence) -> Sequence:
    """``column``, if every value in it is exactly a ``kind``: no integer
    for a float, no float or boolean for an integer, no number for a
    string, no subclass."""
    if countOf(map(type, column), kind) != len(column):
        wrong = next(value for value in column if type(value) is not kind)
        raise TypeError(f"expected {kind.__name__}, got {wrong!r}")
    return column


def _hex(column: Sequence) -> list[bytes]:
    """The bytes of a column of lower-case hex strings with no spaces, the
    only form ``bytes.hex`` writes."""
    values = list(map(bytes.fromhex, column))
    # Each string round-trips exactly when their concatenation does, since
    # ``hex`` never writes more characters than ``fromhex`` read.
    if b"".join(values).hex() != "".join(column):
        raise ValueError("bytes must be lower-case hex with no spaces")
    return values


def _field_codec(hint: Any) -> tuple[_Column, _Column]:
    """(read, check) for values annotated ``hint``."""
    if hint in (str, int, float, bytes):
        exact = functools.partial(_exact, hint)
        return _hex if hint is bytes else exact, exact
    if typing.get_origin(hint) is Annotated:
        return _record_codec(hint)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is not tuple or len(args) != 2 or args[1] is not Ellipsis:
        raise TypeError(f"no block codec for field type {hint!r}")
    read_items, check_items = _field_codec(args[0])

    def read(column: Sequence) -> list[tuple]:
        # One read of the items of every list in the column, then one tuple
        # per list.
        values = iter(read_items(list(itertools.chain.from_iterable(_exact(list, column)))))
        return [tuple(itertools.islice(values, len(items))) for items in column]

    def check(column: Sequence) -> None:
        check_items(list(itertools.chain.from_iterable(_exact(tuple, column))))
    return read, check


def _record_codec(record: Any) -> tuple[_Column, _Column]:
    """(read, check) for records of type ``record``, one field column at a
    time; a record of another width than its type's is a ``ValueError``."""
    kinds = typing.get_args(typing.get_args(record)[0])
    width = len(kinds)
    reads, checks = zip(*map(_field_codec, kinds))

    def columns(rows: Sequence) -> zip:
        # zip would cut every row to the shortest one
        if countOf(map(len, rows), width) != len(rows):
            raise ValueError(f"a record of {', '.join(record_keys(record))} must "
                             f"have {width} fields")
        return zip(*rows)

    def read(rows: Sequence) -> list[tuple]:
        return list(zip(*(read_field(column) for read_field, column
                          in zip(reads, columns(_exact(list, rows))))))

    def check(rows: Sequence) -> None:
        for check_field, column in zip(checks, columns(_exact(tuple, rows))):
            check_field(column)
    return read, check


class _Codec:
    """Reader and checker of one block dataclass, whose JSON is the object
    of its fields."""

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls, include_extras=True)
        self.cls = cls
        self.names = tuple(f.name for f in dataclasses.fields(cls))
        self.keys = frozenset(self.names)
        self.reads, self.checks = zip(*(_field_codec(hints[name]) for name in self.names))

    def read(self, data: Any) -> Any:
        """The instance a JSON object holds; raises on a malformed one, or
        on one that holds a key the codec does not define."""
        data, = _exact(dict, (data,))
        if data.keys() != self.keys:
            raise ValueError(f"keys {sorted(data)} in a {self.cls.__name__}, "
                             f"expected {sorted(self.keys)}")
        return self.cls(*(read((data[name],))[0] for name, read in zip(self.names, self.reads)))

    def check(self, obj: Any) -> None:
        """Raises ``TypeError`` on a value of another type than its field's,
        and ``ValueError`` on a record of another width than its type's."""
        for name, check in zip(self.names, self.checks):
            check((getattr(obj, name),))


_HEADER_CODEC = _Codec(BlockHeader)
_PAYLOAD_CODECS = {kind: _Codec(cls) for cls, kind in _PAYLOAD_KIND.items()}
# Compact separators: with no whitespace in a line, every byte is semantic,
# so any single-byte mutation is detectable. A block holds no cycle to check
# for, and its only values that are not JSON are bytes, written as hex.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"),
                            check_circular=False, default=bytes.hex)


def block_body(block: Block) -> str:
    """The canonical JSON of ``block``: its dump line without the digest."""
    return _ENCODER.encode({**vars(block.header), "payload": vars(block.payload)})


def block_digest(block: Block) -> bytes:
    """The SHA-256 of the UTF-8 bytes of ``block_body(block)``."""
    return hashlib.sha256(block_body(block).encode()).digest()


def block_line(block: Block) -> str:
    """The dump line of ``block`` without its line feed, from one encoding."""
    body = block_body(block)
    return _line(hashlib.sha256(body.encode()).digest(), body)


def expected_kind(height: int) -> str:
    """Genesis holds the SB slot of round 0, then DB, EB, TB, SB repeat."""
    return KINDS[(height - 1) % 4]


def expected_round(height: int) -> int:
    return (height + 3) // 4


def genesis_block() -> Block:
    """The fixed genesis block: an empty settlement at height 0."""
    return Block(BlockHeader(0, 0, "SB", ZERO_DIGEST, 0, 0), SettlementPayload((), ()))


class Blocks(Sequence[Block]):
    """The blocks of a chain's ``lines``, read-only: ``blocks[i]`` decodes
    ``lines[i]`` each time it is read, and a slice decodes each of its
    lines. Equal to no list; compare ``list(blocks)``."""

    __slots__ = ("_lines",)

    def __init__(self, lines: list[str]) -> None:
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_parse_line(line)[0] for line in self._lines[index]]
        return _parse_line(self._lines[index])[0]


class Chain:
    """Single-writer chain of dump lines; reads of committed blocks are safe.

    A chain starts empty and grows one (block, line) pair at a time, through
    ``append_block``, ``verify_chain_dump`` or ``chain_from_jsonl``; it
    keeps the line, and the block only while it is the ``tip`` or the
    ``last_eb`` (both ``None`` on an empty chain), which are all that the
    rules of the next block read. ``lines[i]`` is the dump line of the
    block at height ``i``, and ``blocks`` decodes it when it is read.
    """

    __slots__ = ("lines", "tip", "last_eb")

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.tip: Block | None = None
        self.last_eb: Block | None = None

    @property
    def blocks(self) -> Blocks:
        return Blocks(self.lines)

    def digest(self, index: int = -1) -> bytes:
        """The digest of ``blocks[index]``: the hex after ``{"digest":"``."""
        return bytes.fromhex(self.lines[index][11:75])

    def _push(self, block: Block, line: str) -> None:
        """Add ``block``, whose dump line is ``line``, as the new tip."""
        self.lines.append(line)
        self.tip = block
        if block.header.kind == "EB":
            self.last_eb = block


def new_chain() -> Chain:
    return append_block(Chain(), genesis_block())


def ranked_ids(verified: Sequence[VerifiedRecord]) -> list[str]:
    """The trainer ids of ``verified``, best first: by performance, then by
    trainer id. A settlement block's top set is a prefix of this ranking."""
    return list(map(itemgetter(1), sorted(verified, key=itemgetter(2, 1))))


def validate_block(chain: Chain, block: Block) -> list[str]:
    """Kind-specific payload checks; an empty list means valid.

    The payload must hold values of exactly its fields' types (see
    ``append_block``), which the rules read. DB contract and coinbase
    amounts must be finite and >= 0, and no trainer may hold two
    contracts; EB records must differ from the predecessor model's digest
    recorded in the previous round's EB; TB input/truth case counts must
    match; SB verified records must each name a distinct (previous owner,
    trainer) pair of the same round's EB records, performances must be
    finite, top-set members must be verified, and there are 1 to all of
    them (none without verified records). An SB that keeps those rules
    must hold a prefix of ``ranked_ids``; its length, which depends on
    ``s``, is not checked.
    """
    violations: list[str] = []
    payload = block.payload
    if isinstance(payload, DepositPayload):
        for mo_id, trainer_id, mo_amount, t_amount in payload.contracts:
            if not (0.0 <= mo_amount < math.inf and 0.0 <= t_amount < math.inf):
                violations.append(
                    f"InvalidAmount: contract {mo_id}->{trainer_id} escrows "
                    f"{mo_amount!r} and {t_amount!r}"
                )
        miner_id, amount = payload.coinbase
        if not 0.0 <= amount < math.inf:
            violations.append(f"InvalidAmount: coinbase of {miner_id} is {amount!r}")
        held = Counter(map(itemgetter(1), payload.contracts))
        violations.extend(f"DuplicateTrainer: trainer {trainer_id} holds {count} contracts"
                          for trainer_id, count in held.items() if count > 1)
    elif isinstance(payload, EncryptionPayload):
        last = chain.last_eb
        # trainer id -> the digest of the model it made
        prior = dict(record[1:] for record in last.payload.records) if last else {}
        for prev_owner_id, trainer_id, model_digest in payload.records:
            previous_digest = prior.get(prev_owner_id)
            if previous_digest is not None and previous_digest == model_digest:
                violations.append(
                    f"HashUnchanged: trainer {trainer_id} resubmitted the "
                    f"digest of {prev_owner_id}'s model"
                )
    elif isinstance(payload, TestingPayload):
        if len(payload.testing_inputs) != len(payload.testing_truths):
            violations.append(
                f"CaseCountMismatch: {len(payload.testing_inputs)} inputs vs "
                f"{len(payload.testing_truths)} truths"
            )
    elif isinstance(payload, SettlementPayload):
        # An SB in its slot after blocks that keep the rules follows its
        # round's EB; any other breaks a linkage rule or follows one that does.
        last = chain.last_eb
        recorded = ({record[:2] for record in last.payload.records}
                    if last and last.header.round == block.header.round else None)
        seen = set()
        for prev_owner_id, trainer_id, performance in payload.verified:
            pair = (prev_owner_id, trainer_id)
            if pair in seen:
                violations.append(f"DuplicateVerified: {prev_owner_id}->{trainer_id}")
            elif recorded is not None and pair not in recorded:
                violations.append(f"UnrecordedVerified: {prev_owner_id}->{trainer_id} is in "
                                  f"no EB record of round {block.header.round}")
            seen.add(pair)
            if not math.isfinite(performance):
                violations.append(f"NonFinitePerformance: {trainer_id} has {performance!r}")
        verified_ids = set(map(itemgetter(1), payload.verified))
        for trainer_id in payload.top_set:
            if trainer_id not in verified_ids:
                violations.append(f"UnverifiedInTopSet: {trainer_id}")
        if payload.verified:
            if not 1 <= len(payload.top_set) <= len(payload.verified):
                violations.append(
                    f"TopSetSizeInvalid: {len(payload.top_set)} of "
                    f"{len(payload.verified)} verified"
                )
        elif payload.top_set:
            violations.append("TopSetSizeInvalid: non-empty top set without verified records")
        size = len(payload.top_set)
        if not violations and list(payload.top_set) != ranked_ids(payload.verified)[:size]:
            violations.append(f"UnrankedTopSet: the top set is not the {size} best verified")
    return violations


def _violations(chain: Chain, block: Block) -> list[tuple[type, str]]:
    """(error class, message) per rule ``block`` breaks after ``chain``. An
    empty chain has a virtual tip at height -1 with digest ``ZERO_DIGEST``
    and accepts only ``genesis_block()``."""
    tip = chain.tip.header if chain.tip is not None else None
    tip_digest = chain.digest() if chain.lines else ZERO_DIGEST
    height, header = tip.height + 1 if tip else 0, block.header
    found = []
    if not tip and block != genesis_block():
        found.append((BrokenLinkage, "height 0 must hold the fixed genesis block"))
    if header.kind != expected_kind(height):
        found.append((KindOrderViolation,
                      f"height {height} expects kind {expected_kind(height)}, got {header.kind}"))
    if header.height != height:
        found.append((BrokenLinkage, f"expected height {height}, got {header.height}"))
    if header.prev_digest != tip_digest:
        found.append((BrokenLinkage, "prev_digest does not match the current tip"))
    if header.round != expected_round(header.height):
        found.append((BrokenLinkage, f"height {header.height} is in round "
                      f"{expected_round(header.height)}, got {header.round}"))
    if tip and header.timestamp <= tip.timestamp:
        found.append((BrokenLinkage,
                      f"timestamp {header.timestamp} is not after the tip's {tip.timestamp}"))
    found.extend((PayloadInvariantViolation, v) for v in validate_block(chain, block))
    return found


def append_block(chain: Chain, block: Block) -> Chain:
    """Extend the chain by one block. A payload value of another type than
    its field's is a ``PayloadInvariantViolation`` (``InvalidType``, or
    ``RecordLength`` for a record of another width); otherwise raises the
    class of the first broken rule of ``_violations`` with its messages."""
    try:
        _PAYLOAD_CODECS[block.header.kind].check(block.payload)
    except TypeError as exc:
        raise PayloadInvariantViolation(f"InvalidType: {exc}") from None
    except ValueError as exc:
        raise PayloadInvariantViolation(f"RecordLength: {exc}") from None
    # Encoded and hashed before the chain changes, so a block that fails to
    # encode or hash leaves the chain as it was.
    line = block_line(block)
    found = _violations(chain, block)
    if found:
        error = found[0][0]
        raise error("; ".join(message for cls, message in found if cls is error))
    chain._push(block, line)
    return chain


def next_header(chain: Chain, nonce: int) -> BlockHeader:
    """The header that links a block with ``nonce`` onto ``chain``'s tip."""
    tip = chain.tip.header
    height = tip.height + 1
    return BlockHeader(height, expected_round(height), expected_kind(height),
                       chain.digest(), nonce, tip.timestamp + 1)


def mine_winner(candidates: Sequence[str], rng: random.Random) -> str:
    """Uniform seeded draw standing in for the winner of the mining race."""
    if not candidates:
        raise EmptyCandidateSet("cannot mine with no candidate miners")
    return candidates[rng.randrange(len(candidates))]


# --- dump format ---------------------------------------------------------


def _line(digest: bytes, body: str) -> str:
    """The dump line of a block with ``digest`` and ``body``; "digest" sorts
    before every key of the body."""
    return f'{{"digest":"{digest.hex()}",{body[1:]}'


def chain_to_jsonl(chain: Chain) -> str:
    """One line per block (see the module docstring): ``chain.lines``, with
    no block encoded again."""
    # Joined with an empty last line, so the dump ends in a newline without
    # a second copy of it; the dump of no blocks is one empty line.
    return "\n".join([*chain.lines, ""]) if chain.lines else "\n"


def _parse_line(line: str) -> tuple[Block, bytes]:
    """The block on one dump line, and the digest the line records. The
    line, like each object within it, holds exactly the codec's keys."""
    data, = _exact(dict, (json.loads(line),))
    recorded, = _hex((data.pop("digest"),))
    payload = data.pop("payload")
    header = _HEADER_CODEC.read(data)
    return Block(header, _PAYLOAD_CODECS[header.kind].read(payload)), recorded


def chain_from_jsonl(text: str) -> Chain:
    """Parse a dump without integrity checking (see ``verify_chain_dump``),
    one line at a time: each block is encoded and hashed again, and its own
    line kept. Lines are split at line feeds only: an id may hold another
    line break."""
    chain = Chain()
    for line in text.split("\n"):
        if line.strip():
            block = _parse_line(line)[0]
            chain._push(block, block_line(block))
    return chain


def verify_chain_dump(text: str, partial: Chain | None = None) -> list[str]:
    """Revalidate a serialized chain; an empty list means intact.

    Detects any single-byte mutation: unparseable lines, recorded digests
    that differ from the recomputed one, and every broken rule of
    ``_violations`` as ``<error class>: line N: <message>``. Lines are
    split at line feeds only and the dump must end in one. A line must be
    the canonical line of the block it decodes to, so a line feed turned
    into any other byte is reported too. Each parsed block and its line,
    with the recomputed digest, is added to ``partial``, an empty chain (a
    new one if none is given; a ``ValueError`` before any line is read if it
    is not empty); when the result is empty, ``partial`` is the dumped
    chain, each of its blocks encoded and hashed once.
    """
    if partial is None:
        partial = Chain()
    elif partial.lines:
        raise ValueError(f"verify_chain_dump needs an empty chain, given one of "
                         f"{len(partial.lines)} block(s)")
    violations: list[str] = []
    # Each line ends in a line break; the dump of no blocks is one alone.
    lines = text.removesuffix("\n").split("\n") if text != "\n" else []
    for lineno, line in enumerate(lines):
        try:
            # A line nested deeper than the recursion limit fails here.
            block, recorded = _parse_line(line)
            body = block_body(block)
            if line != _line(recorded, body):
                raise ValueError("not the canonical line of its block")
            # A string that is not valid UTF-8 (a lone surrogate) fails here.
            actual = hashlib.sha256(body.encode()).digest()
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            violations.append(f"Unparseable: line {lineno}: {exc}")
            continue
        if actual != recorded:
            violations.append(f"DigestMismatch: line {lineno}")
        violations.extend(
            f"{cls.__name__}: line {lineno}: {message}"
            for cls, message in _violations(partial, block)
        )
        # The line's block, whatever it breaks, and its own digest: the next
        # line's rules are checked against them.
        partial._push(block, line if actual == recorded else _line(actual, body))
    if not text.endswith("\n"):
        violations.append("Unterminated: the dump does not end in a line break")
    if not partial.lines:
        violations.append("EmptyChain: no blocks")
    return violations
