import hashlib
import struct
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import crypto, protocol
from relaysim.serialize import encode_str, encode_uint


def reference_canonical_bytes(obj):
    """The recursive isinstance encoder the fixed layouts replaced."""
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


# model_digest reads only these two fields; a plain record lets a layout be
# hashed with no weights or a version ModelWeights would refuse.
Model = namedtuple("Model", "version weights")


def label_digest(owner, version):
    return protocol.AbstractModels().digest(protocol.Participant(owner, model_version=version))


def encrypted_label_digest(owner, version):
    trainer = protocol.Participant(owner, model_version=version)
    return protocol.AbstractModels().encrypt(b"pk", trainer)[1]


def model_digest(version, weights):
    return crypto.model_digest(Model(version, weights))


def ciphertext_digest(key_id, payload, tag):
    return crypto.ciphertext_digest(crypto.Ciphertext(key_id, payload, tag))


IDS = st.one_of(st.text(), st.sampled_from(["", "A", "\U0001d11e", "\U0010ffff"]))  # non-BMP
UINTS = st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                  st.sampled_from([0, 2**63, 2**64 - 1]))
WEIGHTS = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308]),  # subnormals
    ),
    max_size=8,
).map(tuple)


class TestStreamingEncoderMatchesReference:
    """Each field encoder refuses what the reference encoder refuses."""

    @pytest.mark.parametrize("value, error", [
        (-1, ValueError),
        (2**64, OverflowError),
        ("\ud800", UnicodeEncodeError),
        ("a\udfff", UnicodeEncodeError),
        ({}, TypeError),
        (None, TypeError),
    ])
    def test_named_errors(self, value, error):
        encode = encode_str if isinstance(value, str) else encode_uint
        for encode_field in (reference_canonical_bytes, encode):
            with pytest.raises(error):
                encode_field(value)


class TestFixedLayoutsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(IDS, UINTS)
    def test_label(self, owner, version):
        assert label_digest(owner, version) == reference_digest(
            ["abstract-model", owner, version])
        assert encrypted_label_digest(owner, version) == reference_digest(
            ["abstract-encrypted-model", owner, version])

    @settings(max_examples=300, deadline=None)
    @given(UINTS, WEIGHTS)
    def test_model(self, version, weights):
        assert model_digest(version, weights) == reference_digest(
            ["model", version, list(weights)])

    @settings(max_examples=300, deadline=None)
    @given(UINTS, st.binary(), st.binary())
    def test_ciphertext(self, key_id, payload, tag):
        assert ciphertext_digest(key_id, payload, tag) == reference_digest(
            ["ciphertext", key_id, payload, tag])

    def test_model_signed_zero(self):
        negative = crypto.model_digest(crypto.ModelWeights(1, (-0.0,)))
        assert negative == reference_digest(["model", 1, [-0.0]])
        assert negative != crypto.model_digest(crypto.ModelWeights(1, (0.0,)))


# Each shape as (its fixed-layout digest, the list it replaces) of a version
# or key id and an owner id; only the labels hash an id.
SHAPES = {
    "label": (lambda v, s: label_digest(s, v), lambda v, s: ["abstract-model", s, v]),
    "encrypted-label": (lambda v, s: encrypted_label_digest(s, v),
                        lambda v, s: ["abstract-encrypted-model", s, v]),
    "model": (lambda v, s: model_digest(v, (0.5,)), lambda v, s: ["model", v, [0.5]]),
    "ciphertext": (lambda v, s: ciphertext_digest(v, b"p", b"t"),
                   lambda v, s: ["ciphertext", v, b"p", b"t"]),
}


BAD_FIELDS = [
    *[(shape, -1, "mo1", ValueError) for shape in SHAPES],
    *[(shape, 2**64, "mo1", OverflowError) for shape in SHAPES],
    *[(shape, 1, "\ud800", UnicodeEncodeError) for shape in ("label", "encrypted-label")],
]


@pytest.mark.parametrize("shape, version, owner, error", BAD_FIELDS,
                         ids=[f"{shape}-{error.__name__}" for shape, *_, error in BAD_FIELDS])
def test_shape_raises_the_reference_error(shape, version, owner, error):
    fixed, reference = SHAPES[shape]
    with pytest.raises(error):
        reference_digest(reference(version, owner))
    with pytest.raises(error):
        fixed(version, owner)
