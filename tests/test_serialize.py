import hashlib
import struct
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.serialize import canonical_bytes, digest


def reference_canonical_bytes(obj):
    """The recursive isinstance encoder the streaming one replaced."""
    if isinstance(obj, bool):
        return reference_canonical_bytes(int(obj))
    if isinstance(obj, int):
        if obj < 0:
            raise ValueError(f"canonical unsigned int cannot be negative: {obj}")
        return b"I" + obj.to_bytes(8, "big")
    if isinstance(obj, float):
        return b"F" + struct.pack("<d", obj)
    if isinstance(obj, str):
        raw = obj.encode("utf-8")
        return b"S" + len(raw).to_bytes(8, "big") + raw
    if isinstance(obj, (bytes, bytearray)):
        return b"B" + len(obj).to_bytes(8, "big") + bytes(obj)
    if isinstance(obj, (list, tuple)):
        parts = [b"L", len(obj).to_bytes(8, "big")]
        parts.extend(reference_canonical_bytes(item) for item in obj)
        return b"".join(parts)
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def reference_digest(obj):
    return hashlib.sha256(reference_canonical_bytes(obj)).digest()


class Label(str):
    pass


Pair = namedtuple("Pair", "left right")

LEAVES = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([0, 2**63, 2**64 - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("-inf")]),
    st.text(),
    st.sampled_from(["", "A", "\U0001d11e", "\U0010ffff"]),  # non-BMP
    st.text().map(Label),
    st.binary(),
    st.binary().map(bytearray),
    st.booleans(),
)

# Values that fail to encode: a negative or too large int, a lone surrogate,
# and types outside the encoding.
BAD_LEAVES = st.sampled_from([-1, -(2**70), 2**64, "\ud800", "a\udfff", {}, {"k": 1}, None])


def nested(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            st.tuples(children, children).map(lambda t: Pair(*t)),
        ),
        max_leaves=30,
    )


def outcome(encode, value):
    """The encoding of ``value``, or the type of the exception it raises."""
    try:
        return encode(value)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


class TestStreamingEncoderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(nested(LEAVES))
    def test_same_bytes_and_digest(self, value):
        expected = reference_canonical_bytes(value)
        assert canonical_bytes(value) == expected
        assert digest(value) == hashlib.sha256(expected).digest()

    @settings(max_examples=300, deadline=None)
    @given(nested(st.one_of(LEAVES, BAD_LEAVES)))
    def test_same_exception_types(self, value):
        assert outcome(canonical_bytes, value) == outcome(reference_canonical_bytes, value)
        assert outcome(digest, value) == outcome(reference_digest, value)

    @pytest.mark.parametrize("value, error", [
        (-1, ValueError),
        ([1, (2, -3)], ValueError),
        ("\ud800", UnicodeEncodeError),
        (["ok", "\udc80"], UnicodeEncodeError),
        ({}, TypeError),
        (None, TypeError),
        ((1.0, [None]), TypeError),
    ])
    def test_named_errors(self, value, error):
        for encode in (reference_canonical_bytes, canonical_bytes, digest):
            with pytest.raises(error):
                encode(value)

    def test_runtime_type_decides_the_tag(self):
        # An int where a float is expected still encodes as an int.
        assert canonical_bytes(1) == b"I" + (1).to_bytes(8, "big")
        assert canonical_bytes(True) == canonical_bytes(1)
        assert digest(1) != digest(1.0)
        assert canonical_bytes(-0.0) != canonical_bytes(0.0)
