"""Canonical byte serialization and digests.

Every hashed structure in the system (blocks, models, ciphertexts) is
reduced to bytes through one type-tagged encoding so digests are
bit-identical across runs and platforms:

    integers  -> tag 'I' + 8-byte big-endian (unsigned)
    floats    -> tag 'F' + 8-byte little-endian IEEE-754
    strings   -> tag 'S' + 8-byte big-endian length + UTF-8 bytes
    bytes     -> tag 'B' + 8-byte big-endian length + raw bytes
    sequences -> tag 'L' + 8-byte big-endian count + encoded items

Type tags prevent cross-type collisions (e.g. the int 65 vs the one-byte
string "A"); length prefixes prevent boundary confusion in nested lists.

One streaming encoder, ``_feed``, writes the encoding piece by piece to a
callback: ``digest`` hands it the ``update`` of one SHA-256 object, and
``canonical_bytes`` joins the pieces. It dispatches on each value's exact
runtime type (an ``int`` in a field annotated ``float`` still encodes as
'I'); ``bool``, ``bytearray`` and subclasses take a slower path with the
same encoding, and anything else is a ``TypeError``. It encodes models,
ciphertexts and every other digest input outside blocks.

Blocks are encoded a column of records at a time (``scalar_plan``,
``sequence_plan`` and ``pack``, driven by the block codec in ``chain``),
to the same bytes. A column whose values all have exactly the field's type
and one encoded width (floats; ints in [0, 2**64); strings of one UTF-8
length; bytes of one length) is one fixed-width struct format: each
big-endian tag-and-length head is a precomputed 9-byte argument, so one
cached little-endian ``struct.Struct`` packs a whole record, one call per
row. Tuples of scalars of one length join that format. Every other column
is encoded value by value through ``canonical_bytes`` and joined per row,
so the runtime type still decides the tag, and a value that cannot be
encoded raises what ``_feed`` raises (``TypeError``, ``ValueError``,
``OverflowError`` or ``UnicodeEncodeError``), never ``struct.error``.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from itertools import chain, islice, repeat
from operator import countOf
from typing import Any, Callable, Sequence

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

# Tag + 8-byte payload in one call: a float's value, a length or a count.
_tagged_float = struct.Struct("<cd").pack
_tagged_size = struct.Struct(">cQ").pack


def encode_uint(value: int) -> bytes:
    if value < 0:
        raise ValueError(f"canonical unsigned int cannot be negative: {value}")
    return b"I" + value.to_bytes(8, "big")


def encode_float(value: float) -> bytes:
    return _tagged_float(b"F", value)


def encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _tagged_size(b"S", len(raw)) + raw


def encode_bytes(value: bytes) -> bytes:
    return _tagged_size(b"B", len(value)) + value


def _feed(update: Callable[[bytes], Any], obj: Any) -> None:
    """Pass the canonical encoding of ``obj`` to ``update``, in order."""
    kind = type(obj)
    if kind is float:
        update(_tagged_float(b"F", obj))
    elif kind is str:
        raw = obj.encode("utf-8")
        update(_tagged_size(b"S", len(raw)))
        update(raw)
    elif kind is int:
        update(encode_uint(obj))
    elif kind is bytes:
        update(_tagged_size(b"B", len(obj)))
        update(obj)
    elif isinstance(obj, (list, tuple)):
        update(_tagged_size(b"L", len(obj)))
        for item in obj:
            _feed(update, item)
    # bool, bytearray and subclasses of the scalar types: the same encodings.
    elif isinstance(obj, int):
        update(encode_uint(int(obj)))
    elif isinstance(obj, float):
        update(encode_float(obj))
    elif isinstance(obj, str):
        update(encode_str(obj))
    elif isinstance(obj, (bytes, bytearray)):
        update(encode_bytes(bytes(obj)))
    else:
        raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def canonical_bytes(obj: Any) -> bytes:
    """Encode a nested structure of int/float/str/bytes/list/tuple."""
    parts: list[bytes] = []
    _feed(parts.append, obj)
    return b"".join(parts)


def digest(obj: Any) -> bytes:
    """32-byte SHA-256 digest of the canonical encoding of ``obj``."""
    hasher = hashlib.sha256()
    _feed(hasher.update, obj)
    return hasher.digest()


# --- column packing --------------------------------------------------------
#
# A plan stands for the encodings of n values or records, one row each, as a
# list of parts. A part is a struct format and its arguments, each a column
# (a sequence of n values) or a constant (bytes, the same in every row). A
# part with the format None holds one column of finished encodings, whose
# widths may differ from row to row.

Part = tuple[str | None, list]
Plan = list[Part]
PlanFn = Callable[[Sequence], Plan]


@functools.lru_cache(maxsize=1024)
def _packer(fmt: str) -> Callable[..., bytes]:
    return struct.Struct("<" + fmt).pack


def list_head(count: int) -> bytes:
    """The 'L' tag and the count that begin a sequence of ``count`` items."""
    return _tagged_size(b"L", count)


def _float_part(column: Sequence) -> Part:
    return "cd", [b"F", column]


def _int_part(column: Sequence) -> Part | None:
    if 0 <= min(column) and max(column) < 2**64:
        return "c8s", [b"I", [value.to_bytes(8, "big") for value in column]]
    return None


def _sized_part(tag: bytes, column: Sequence) -> Part | None:
    """Strings (as UTF-8) or bytes of one width, after their tag and width."""
    width = len(column[0])
    if countOf(map(len, column), width) == len(column):
        return f"9s{width}s", [_tagged_size(tag, width), column]
    return None


_FIXED: dict[type, Callable[[Sequence], Part | None]] = {
    float: _float_part,
    int: _int_part,
    str: lambda column: _sized_part(b"S", list(map(str.encode, column))),
    bytes: lambda column: _sized_part(b"B", column),
}


def _encoded(column: Sequence) -> Part:
    return None, [list(map(canonical_bytes, column))]


def scalar_plan(kind: type) -> PlanFn:
    """The plan of a non-empty column of ``kind`` values. A column in which
    every value is exactly ``kind``, of one width (an int in [0, 2**64)),
    is one fixed-width part; any other column is encoded value by value."""
    fixed = _FIXED[kind]

    def plan(column: Sequence) -> Plan:
        part = fixed(column) if countOf(map(type, column), kind) == len(column) else None
        return [part or _encoded(column)]
    return plan


def sequence_plan(element: PlanFn) -> PlanFn:
    """The plan of a non-empty column of tuples whose elements have the plan
    ``element``. Several tuples of one length whose elements make one
    fixed-width part (scalars) are one part: the count, then each element.
    Any other tuple joins its count and its elements' encodings, made one
    element column at a time."""
    def plan(column: Sequence) -> Plan:
        n = len(column)
        if countOf(map(type, column), tuple) != n and not all(
                isinstance(value, (list, tuple)) for value in column):
            return [_encoded(column)]
        elements = list(chain.from_iterable(column))
        if not elements:
            return [("9s", [list_head(0)])]
        parts = element(elements)
        lengths = list(map(len, column))
        width = lengths[0]
        if n > 1 and len(parts) == 1 and parts[0][0] is not None and countOf(lengths, width) == n:
            (fmt, args), = parts
            return [("9s" + fmt * width, [list_head(width)] + [
                arg if type(arg) is bytes else arg[j::width]
                for j in range(width) for arg in args])]
        pieces = iter(pack(parts, len(elements)))
        return [(None, [[list_head(k) + b"".join(islice(pieces, k)) for k in lengths]])]
    return plan


def pack(plan: Plan, n: int) -> list[bytes]:
    """The ``n`` rows of ``plan``, each the concatenation of its parts. Each
    run of fixed-width parts is packed by one cached ``struct.Struct``, one
    call per row; a column of encodings ends a run."""
    columns: list[Sequence[bytes]] = []
    fmt, args = "", []
    # The empty column at the end closes the last run.
    for part_fmt, part_args in [*plan, (None, [])]:
        if part_fmt is not None:
            fmt += part_fmt
            args += part_args
            continue
        if fmt:
            columns.append(list(map(_packer(fmt), *(
                repeat(arg, n) if type(arg) is bytes else arg for arg in args))))
            fmt, args = "", []
        columns += part_args
    return columns[0] if len(columns) == 1 else list(map(b"".join, zip(*columns)))
