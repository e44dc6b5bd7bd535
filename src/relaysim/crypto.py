"""Model digests, a mock homomorphic scheme, and submission verification.

Models are toy linear maps: a weight vector whose last entry is the
bias, so a model with weights ``(w_1, .., w_d, b)`` maps an input
``x`` of length d to the single output ``w . x + b``. Training in
concrete simulations is a deterministic contraction toward a hidden
target vector, which makes honest training strictly improve test error
while white-noise perturbation stagnates.

The encryption scheme is deliberately NOT cryptographically secure: a
ciphertext is an authenticated, key-bound encoding of the plaintext
that supports exact evaluation and equality comparison. Real
homomorphic schemes randomize ciphertexts and compare only after
decryption; verification here needs deterministic, comparable
ciphertexts, so the idealized functional contract is simulated behind
a small interface (keygen / encrypt / eval / decrypt) that a real
backend could replace.

Encryption XORs the packed plaintext with a keystream fixed by the key,
and an opened payload decodes only from its canonical packing, so two
ciphertexts under one key are equal exactly when their packed
plaintexts are. ``verify_submission`` relies on this: it opens the
model once, maps it over every testing input with ``evaluate_cases``
(the one evaluation kernel; ``evaluate`` is one case of it), and
compares the packed doubles of all claims with those of all outputs in
one bytes comparison. That is the same check as comparing
``fhe_encrypt(pk, claim)`` with ``fhe_eval``'s result case by case,
without encrypting every case twice. The bytes are compared, not the
floats, so a claimed ``-0.0`` still differs from a true ``0.0``.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .serialize import digest as canonical_digest

Vector = tuple[float, ...]


class CryptoError(ValueError):
    """Base class for crypto-layer errors."""


class NonFiniteWeight(CryptoError):
    """Model weights must be finite to serialize canonically."""


class UnknownKey(CryptoError):
    """Key bytes are malformed or carry a bad integrity check."""


class KeyMismatch(CryptoError):
    """Operands were produced under different keys."""


class InvalidCiphertext(CryptoError):
    """Ciphertext failed its authentication tag or cannot be decoded."""


class LengthMismatch(CryptoError):
    """Outputs and truths must pair up one-to-one."""


class EmptyCases(CryptoError):
    """The performance index needs at least one case."""


@dataclass(frozen=True)
class ModelWeights:
    """A versioned linear model; ``weights[-1]`` is the bias term."""

    version: int
    weights: Vector

    def __post_init__(self) -> None:
        if self.version < 0:
            raise CryptoError(f"version must be >= 0, got {self.version}")
        if len(self.weights) < 1:
            raise CryptoError("a model needs at least a bias weight")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def input_dim(self) -> int:
        return len(self.weights) - 1


def model_digest(m: ModelWeights) -> bytes:
    """32-byte digest of the model; any weight change alters it."""
    for w in m.weights:
        if not math.isfinite(w):
            raise NonFiniteWeight(f"weight {w!r} is not finite")
    return canonical_digest(["model", m.version, list(m.weights)])


def evaluate_cases(m: ModelWeights, inputs: Sequence[Sequence[float]]) -> tuple[Vector, ...]:
    """Plaintext evaluation of the linear map on every input: ``(w . x + b,)``.

    Every input's length is checked before any arithmetic. The outputs are
    built one weight at a time across all cases, so each case still
    accumulates ``acc = b``, then ``acc += w_i * x_i`` for i = 1..d, left
    to right: the same floats as a per-case loop.
    """
    *ws, bias = m.weights
    bad_widths = set(map(len, inputs)) - {len(ws)}
    if bad_widths:
        raise LengthMismatch(f"model expects {len(ws)} inputs, got {sorted(bad_widths)}")
    accs = [bias] * len(inputs)
    for w, column in zip(ws, zip(*inputs)):
        accs = [acc + w * xi for acc, xi in zip(accs, column)]
    return tuple(zip(accs))


def evaluate(m: ModelWeights, x: Sequence[float]) -> Vector:
    """Plaintext evaluation of the linear map on one input: (w . x + b,)."""
    return evaluate_cases(m, (x,))[0]


def train_toward(m: ModelWeights, target: ModelWeights, rate: float) -> ModelWeights:
    """One honest training step: contract all weights toward the target.

    With 0 < rate < 1 the output error on any test set shrinks by the
    factor (1 - rate)^2 exactly, so honest training strictly improves
    the performance index whenever the model has not already converged.
    """
    if not 0.0 < rate < 1.0:
        raise CryptoError(f"training rate must be in (0, 1), got {rate}")
    if len(m.weights) != len(target.weights):
        raise LengthMismatch("model and target dimensions differ")
    new_weights = tuple(
        w + rate * (t - w) for w, t in zip(m.weights, target.weights)
    )
    return ModelWeights(m.version + 1, new_weights)


# --- mock homomorphic scheme ---------------------------------------------

_PK_MAGIC = b"mockfhe-pk:"
_SK_MAGIC = b"mockfhe-sk:"


@dataclass(frozen=True)
class FheKeyPair:
    key_id: int
    pk: bytes
    sk: bytes


@dataclass(frozen=True)
class Ciphertext:
    """Key-bound authenticated encoding; equality is field equality."""

    key_id: int
    payload: bytes
    tag: bytes


def _key_check(magic: bytes, key_id: int) -> bytes:
    return hashlib.sha256(magic + b"check" + key_id.to_bytes(8, "big")).digest()[:8]


def fhe_keygen(rng: random.Random) -> FheKeyPair:
    """Fresh keypair with a 64-bit id; deterministic under the seed."""
    key_id = rng.getrandbits(64)
    id_bytes = key_id.to_bytes(8, "big")
    pk = _PK_MAGIC + id_bytes + _key_check(_PK_MAGIC, key_id)
    sk = _SK_MAGIC + id_bytes + _key_check(_SK_MAGIC, key_id)
    return FheKeyPair(key_id=key_id, pk=pk, sk=sk)


def _parse_key(key: bytes, magic: bytes) -> int:
    if len(key) != len(magic) + 16 or not key.startswith(magic):
        raise UnknownKey("malformed key bytes")
    key_id = int.from_bytes(key[len(magic):len(magic) + 8], "big")
    if key[len(magic) + 8:] != _key_check(magic, key_id):
        raise UnknownKey("key integrity check failed")
    return key_id


def _keystream(key_id: int, length: int) -> bytes:
    blocks = []
    counter = 0
    id_bytes = key_id.to_bytes(8, "big")
    while len(blocks) * 32 < length:
        blocks.append(
            hashlib.sha256(b"mockfhe-stream" + id_bytes + counter.to_bytes(8, "big")).digest()
        )
        counter += 1
    return b"".join(blocks)[:length]


def _encode_plaintext(value: ModelWeights | Sequence[float]) -> bytes:
    if isinstance(value, ModelWeights):
        body = struct.pack("<QQ", value.version, len(value.weights))
        body += struct.pack(f"<{len(value.weights)}d", *value.weights)
        return b"M" + body
    vec = tuple(float(v) for v in value)
    return b"V" + struct.pack("<Q", len(vec)) + struct.pack(f"<{len(vec)}d", *vec)


def _decode_plaintext(raw: bytes) -> ModelWeights | Vector:
    """Parse an opened payload; the tag is forgeable, so any bytes may arrive.
    Only the canonical encoding, with no bytes after the weights, decodes."""
    if not raw:
        raise InvalidCiphertext("empty plaintext encoding")
    kind, body = raw[:1], raw[1:]
    try:
        if kind == b"M":
            version, count = struct.unpack_from("<QQ", body)
            return ModelWeights(version, struct.unpack(f"<{count}d", body[16:]))
        if kind == b"V":
            (count,) = struct.unpack_from("<Q", body)
            return struct.unpack(f"<{count}d", body[8:])
    except (struct.error, CryptoError) as exc:
        raise InvalidCiphertext(f"undecodable plaintext: {exc}") from exc
    raise InvalidCiphertext(f"unknown plaintext kind {kind!r}")


def _xor_stream(data: bytes, key_id: int) -> bytes:
    stream = _keystream(key_id, len(data))
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


def _tag(key_id: int, payload: bytes) -> bytes:
    return hashlib.sha256(
        b"mockfhe-tag" + key_id.to_bytes(8, "big") + payload
    ).digest()


def _encrypt_with_id(key_id: int, value: ModelWeights | Sequence[float]) -> Ciphertext:
    payload = _xor_stream(_encode_plaintext(value), key_id)
    return Ciphertext(key_id=key_id, payload=payload, tag=_tag(key_id, payload))


def fhe_encrypt(pk: bytes, value: ModelWeights | Sequence[float]) -> Ciphertext:
    """Deterministic encryption: equal plaintexts under the same key give
    equal ciphertexts, so independently produced ciphertexts compare."""
    return _encrypt_with_id(_parse_key(pk, _PK_MAGIC), value)


def ciphertext_ok(ct: Ciphertext) -> bool:
    """Self-check of the authentication tag."""
    return _tag(ct.key_id, ct.payload) == ct.tag


def _open(ct: Ciphertext) -> ModelWeights | Vector:
    if not ciphertext_ok(ct):
        raise InvalidCiphertext("authentication tag does not verify")
    return _decode_plaintext(_xor_stream(ct.payload, ct.key_id))


def _open_model(ct: Ciphertext) -> ModelWeights:
    value = _open(ct)
    if not isinstance(value, ModelWeights):
        raise InvalidCiphertext("ciphertext does not hold a model")
    return value


def fhe_eval(enc_model: Ciphertext, enc_input: Ciphertext) -> Ciphertext:
    """Evaluate an encrypted model on an encrypted input.

    Homomorphism contract: eval(E(M), E(x)) equals E(M(x)) exactly.
    """
    if enc_model.key_id != enc_input.key_id:
        raise KeyMismatch(
            f"model key {enc_model.key_id} != input key {enc_input.key_id}"
        )
    model = _open(enc_model)
    x = _open(enc_input)
    if not isinstance(model, ModelWeights) or isinstance(x, ModelWeights):
        raise InvalidCiphertext("eval needs an encrypted model and an encrypted vector")
    return _encrypt_with_id(enc_model.key_id, evaluate(model, x))


def fhe_decrypt_model(sk: bytes, ct: Ciphertext) -> ModelWeights:
    """Recover a model with the secret key (the key-holder's privilege)."""
    key_id = _parse_key(sk, _SK_MAGIC)
    if key_id != ct.key_id:
        raise KeyMismatch(f"secret key {key_id} != ciphertext key {ct.key_id}")
    return _open_model(ct)


def ciphertext_digest(ct: Ciphertext) -> bytes:
    """Digest binding a ciphertext for on-chain commitment."""
    return canonical_digest(["ciphertext", ct.key_id, ct.payload, ct.tag])


# --- settlement verification ----------------------------------------------

VERDICT_OK = "Ok"
VERDICT_HASH_MISMATCH = "HashMismatch"
VERDICT_OUTPUT_MISMATCH = "OutputMismatch"
VERDICT_KEY_MISMATCH = "KeyMismatch"


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(True, VERDICT_OK)

    @staticmethod
    def reject(reason: str) -> "Verdict":
        return Verdict(False, reason)


def verify_submission(
    committed_digest: bytes,
    enc_model: Ciphertext,
    claimed_outputs: Sequence[Sequence[float]],
    pk: bytes,
    testing_inputs: Sequence[Sequence[float]],
) -> Verdict:
    """Two-part check of a trainer's submission; verdicts are data.

    Part 1 binds the submitted ciphertext to the digest committed in the
    testing block. Part 2 accepts the submission exactly when, for every
    case, ``fhe_encrypt(pk, claimed) == fhe_eval(enc_model, fhe_encrypt(pk, x))``.
    Under one key that holds exactly when the canonical packed plaintexts
    of the claim and of the model's output are equal (see the module
    docstring). A model has one output, so a claim of any other length
    fails; the rest are checked as one vector: the model is opened once
    (only if there is a case), ``evaluate_cases`` maps it over all inputs,
    and the packed doubles of all claims are compared with those of all
    outputs in one bytes comparison. With one double per case the
    concatenations are equal exactly when every case is. Bytes, not
    floats: a claimed ``-0.0`` against a true ``0.0`` is rejected, where
    float ``==`` would accept it. A non-finite claimed output is
    rejected: it has no place in the ranking by mean squared error.
    """
    try:
        key_id = _parse_key(pk, _PK_MAGIC)
    except UnknownKey:
        return Verdict.reject(VERDICT_KEY_MISMATCH)
    if enc_model.key_id != key_id or not ciphertext_ok(enc_model):
        return Verdict.reject(VERDICT_KEY_MISMATCH)
    if ciphertext_digest(enc_model) != committed_digest:
        return Verdict.reject(VERDICT_HASH_MISMATCH)
    if len(claimed_outputs) != len(testing_inputs):
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    if not testing_inputs:
        return Verdict.ok()
    if set(map(len, claimed_outputs)) != {1}:
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    claims = list(chain.from_iterable(claimed_outputs))
    if not all(map(math.isfinite, claims)):
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    try:
        actual = evaluate_cases(_open_model(enc_model), testing_inputs)
    except (InvalidCiphertext, LengthMismatch):
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    packing = f"<{len(claims)}d"
    if struct.pack(packing, *claims) != struct.pack(packing, *chain.from_iterable(actual)):
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    return Verdict.ok()


def performance_index(
    outputs: Sequence[Sequence[float]], truths: Sequence[Sequence[float]]
) -> float:
    """Mean squared error over all output components; lower is better.

    One pass over the float components, case by case and left to right,
    as ``total += (o - t) ** 2``: a fixed order, so the index has the same
    bits on every Python version (``sum`` of floats is compensated from
    Python 3.12 and rounds differently).
    """
    if len(outputs) != len(truths):
        raise LengthMismatch(f"{len(outputs)} outputs vs {len(truths)} truths")
    if not outputs:
        raise EmptyCases("performance index needs at least one case")
    if list(map(len, outputs)) != list(map(len, truths)):
        raise LengthMismatch("case dimensions differ between outputs and truths")
    total = 0.0
    count = 0
    for o, t in zip(chain.from_iterable(outputs), chain.from_iterable(truths)):
        total += (o - t) ** 2
        count += 1
    if count == 0:
        raise EmptyCases("cases carry no components")
    return total / count
