"""Canonical byte serialization and digests.

Every hashed structure in the system other than a block (models,
ciphertexts, labels) is reduced to bytes through one type-tagged encoding
so digests are bit-identical across runs and platforms:

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
runtime type (an ``int`` where a float is meant still encodes as 'I');
``bool``, ``bytearray`` and subclasses take a slower path with the same
encoding, and anything else is a ``TypeError``. A block is hashed as its
canonical JSON line instead (see ``chain``).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Callable

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

