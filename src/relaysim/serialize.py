"""Canonical byte encodings and the digest of a fixed-layout record.

Every hashed structure in the system other than a block is a list of a
fixed layout, and each field is encoded by the function for its type, so
digests are bit-identical across runs and platforms:

    encode_uint    'I' + 8-byte big-endian unsigned integer
    encode_str     'S' + 8-byte big-endian length + UTF-8 bytes
    encode_bytes   'B' + 8-byte big-endian length + raw bytes
    encode_floats  'L' + 8-byte big-endian count, then per value
                   'F' + 8-byte little-endian IEEE-754 double
    digest         SHA-256 of 'L' + 8-byte big-endian field count
                   + the encoded fields

The layouts are a label ``[kind, owner, version]`` (``protocol``), a model
``["model", version, weights]`` and a ciphertext ``["ciphertext", key_id,
payload, tag]`` (``crypto``). Type tags prevent cross-type collisions (the
int 65 vs the one-byte string "A"); length prefixes prevent boundary
confusion. A block is hashed as its canonical JSON line instead (see
``chain``).
"""

from __future__ import annotations

import hashlib
import struct
from itertools import repeat
from typing import Sequence

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

# Tag + 8-byte payload in one call: a float's value, a length or a count.
_tagged_float = struct.Struct("<cd").pack
_tagged_size = struct.Struct(">cQ").pack


def encode_uint(value: int) -> bytes:
    if value < 0:
        raise ValueError(f"canonical unsigned int cannot be negative: {value}")
    return b"I" + value.to_bytes(8, "big")


def encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _tagged_size(b"S", len(raw)) + raw


def encode_bytes(value: bytes) -> bytes:
    return _tagged_size(b"B", len(value)) + value


def encode_floats(values: Sequence[float]) -> bytes:
    return _tagged_size(b"L", len(values)) + b"".join(map(_tagged_float, repeat(b"F"), values))


def digest(*fields: bytes) -> bytes:
    """32-byte SHA-256 digest of the record of the already encoded ``fields``."""
    return hashlib.sha256(_tagged_size(b"L", len(fields)) + b"".join(fields)).digest()
