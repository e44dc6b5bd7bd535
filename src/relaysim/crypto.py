"""Model digests, a mock homomorphic scheme, and submission verification.

Models are toy linear maps: a weight vector whose last entry is the
bias, so a model with weights ``(w_1, .., w_d, b)`` maps an input ``x``
of length d to the single output ``w . x + b``: outputs and claims are
one float per case, and ``y`` is the vector ``(y,)`` only as a plaintext
of the scheme. Training in concrete simulations is a deterministic
contraction toward a hidden target vector, which makes honest training
strictly improve test error while white-noise perturbation stagnates.

The encryption scheme is deliberately NOT cryptographically secure: a
ciphertext is an authenticated, key-bound encoding of the plaintext
that supports exact evaluation and equality comparison. Real
homomorphic schemes randomize ciphertexts and compare only after
decryption; verification here needs deterministic, comparable
ciphertexts, so the idealized functional contract is simulated behind
a small interface (keygen / encrypt / eval / decrypt) that a real
backend could replace.

A ciphertext's payload is the canonical packing of its plaintext, bound
to its key id by a tag, and a payload decodes only from its canonical
packing, so two ciphertexts under one key are equal exactly when their
packed plaintexts are. The key id is part of the public key that the
round publishes, so masking the payload with anything derived from it
would hide nothing from any participant. ``verify_submission`` relies
on this equality: it opens the model once, maps it over every testing
input with the one evaluation kernel (under ``evaluate_cases`` and
``evaluate`` too), and compares the packed doubles of all claims with
those of all outputs in one bytes comparison. That is the same check as
comparing ``fhe_encrypt(pk, (claim,))`` with ``fhe_eval``'s result case
by case, without encrypting every case twice. The bytes are compared,
not the floats, so a claimed ``-0.0`` still differs from a true ``0.0``.

What depends only on the round is done once per round, in
``case_table``: the round key is parsed, the inputs' widths are
collected and the inputs transposed into columns, and the one-component
truths flattened to one float per case. Every submission of the round,
its claimed outputs (step 10), its verification and its mean squared
error (step 11), reads that one ``CaseTable``, so each submission costs
only its tag, its digest, one open of its model, a check of the model's
dimension against the table's widths, one run of the kernel (one pass
over the cases per four weights, the first starting from the bias), one
bytes comparison and one pass of the error, which squares each error by
multiplication: ``d * d`` is correctly rounded everywhere, while
``d ** 2`` goes through the platform's ``pow``, which glibc rounds one
ulp off for about one square in a thousand. What depends only on a key
is derived once per distinct key: ``_parse_key`` memoizes a key's
integrity check by its exact bytes, for the 8 most recent keys. An
exception is never memoized, so a malformed or tampered key is refused
on every call.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .serialize import (
    digest as canonical_digest, encode_bytes, encode_floats, encode_str, encode_uint,
)

Vector = tuple[float, ...]

# The constant first field of each digest layout, encoded once.
_MODEL = encode_str("model")
_CIPHERTEXT = encode_str("ciphertext")


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
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))

    @property
    def input_dim(self) -> int:
        return len(self.weights) - 1


def model_digest(m: ModelWeights) -> bytes:
    """32-byte digest of the model; any weight change alters it."""
    for w in m.weights:
        if not math.isfinite(w):
            raise NonFiniteWeight(f"weight {w!r} is not finite")
    return canonical_digest(_MODEL, encode_uint(m.version), encode_floats(m.weights))


@dataclass(frozen=True)
class CaseTable:
    """A round's testing cases, prepared once for all of its submissions.

    ``columns`` holds the inputs transposed, one tuple per input position,
    and ``widths`` the distinct input lengths; ``truths`` holds one float
    per case, each truth flattened once from its one-component vector.
    ``key_id`` is the id of the round's public key, None when the table was
    made without a well-formed key, so that nothing verifies against it.
    """

    key_id: int | None
    count: int
    widths: frozenset[int]
    columns: tuple[tuple[float, ...], ...]
    truths: tuple[float, ...]


def case_table(
    inputs: Sequence[Sequence[float]] = (),
    truths: Sequence[Sequence[float]] = (),
    pk: bytes | None = None,
) -> CaseTable:
    """The table of ``inputs`` and ``truths`` under the public key ``pk``;
    a truth of other than one component raises ``LengthMismatch``."""
    key_id = None
    if pk is not None:
        try:
            key_id = _parse_key(pk, _PK_MAGIC)
        except UnknownKey:
            pass
    if any(len(truth) != 1 for truth in truths):
        raise LengthMismatch("each truth must have exactly one component")
    return CaseTable(key_id, len(inputs), frozenset(map(len, inputs)), tuple(zip(*inputs)),
                     tuple([t for (t,) in truths]))


def evaluate_cases(m: ModelWeights, cases: CaseTable) -> list[float]:
    """The one evaluation kernel: the model's output ``w . x + b`` on every
    case, one float per case in case order.

    The model's dimension is checked against every input width before any
    arithmetic. The outputs are built across all cases from the table's
    columns, up to four weights per pass as
    ``acc + w1 * x1 + w2 * x2 + w3 * x3 + w4 * x4``, which Python adds left
    to right; the first pass starts from the bias itself, as
    ``bias + w1 * x1 + ...``, and the 0-3 weights left over take a pass
    each. So each case still accumulates ``acc = b``, then
    ``acc += w_i * x_i`` for i = 1..d, left to right: the same floats as a
    per-case loop.
    """
    *ws, bias = m.weights
    bad_widths = cases.widths - {len(ws)}
    if bad_widths:
        raise LengthMismatch(f"model expects {len(ws)} inputs, got {sorted(bad_widths)}")
    columns = cases.columns
    blocked = len(ws) - len(ws) % 4
    if blocked:
        w1, w2, w3, w4 = ws[:4]
        accs = [bias + w1 * x1 + w2 * x2 + w3 * x3 + w4 * x4
                for x1, x2, x3, x4 in zip(*columns[:4])]
    else:
        accs = [bias] * cases.count
    for i in range(4, blocked, 4):
        w1, w2, w3, w4 = ws[i:i + 4]
        accs = [acc + w1 * x1 + w2 * x2 + w3 * x3 + w4 * x4
                for acc, x1, x2, x3, x4 in zip(accs, *columns[i:i + 4])]
    for w, column in zip(ws[blocked:], columns[blocked:]):
        accs = [acc + w * xi for acc, xi in zip(accs, column)]
    return accs


def evaluate(m: ModelWeights, x: Sequence[float]) -> float:
    """Plaintext evaluation of the linear map on one input: w . x + b."""
    return evaluate_cases(m, case_table((x,)))[0]


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


@lru_cache(maxsize=8)
def _parse_key(key: bytes, magic: bytes) -> int:
    if len(key) != len(magic) + 16 or not key.startswith(magic):
        raise UnknownKey("malformed key bytes")
    key_id = int.from_bytes(key[len(magic):len(magic) + 8], "big")
    if key[len(magic) + 8:] != _key_check(magic, key_id):
        raise UnknownKey("key integrity check failed")
    return key_id


def _encode_plaintext(value: ModelWeights | Sequence[float]) -> bytes:
    if isinstance(value, ModelWeights):
        body = struct.pack("<QQ", value.version, len(value.weights))
        body += struct.pack(f"<{len(value.weights)}d", *value.weights)
        return b"M" + body
    vec = tuple(float(v) for v in value)
    return b"V" + struct.pack("<Q", len(vec)) + struct.pack(f"<{len(vec)}d", *vec)


def _decode_plaintext(raw: bytes) -> ModelWeights | Vector:
    """Parse a payload; the tag is forgeable, so any bytes may arrive.
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


def _tag(key_id: int, payload: bytes) -> bytes:
    return hashlib.sha256(
        b"mockfhe-tag" + key_id.to_bytes(8, "big") + payload
    ).digest()


def _encrypt_with_id(key_id: int, value: ModelWeights | Sequence[float]) -> Ciphertext:
    payload = _encode_plaintext(value)
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
    return _decode_plaintext(ct.payload)


def _model(value: ModelWeights | Vector) -> ModelWeights:
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
    return _encrypt_with_id(enc_model.key_id, (evaluate(model, x),))


def fhe_decrypt_model(sk: bytes, ct: Ciphertext) -> ModelWeights:
    """Recover a model with the secret key (the key-holder's privilege)."""
    key_id = _parse_key(sk, _SK_MAGIC)
    if key_id != ct.key_id:
        raise KeyMismatch(f"secret key {key_id} != ciphertext key {ct.key_id}")
    return _model(_open(ct))


def ciphertext_digest(ct: Ciphertext) -> bytes:
    """Digest binding a ciphertext for on-chain commitment."""
    return canonical_digest(
        _CIPHERTEXT, encode_uint(ct.key_id), encode_bytes(ct.payload), encode_bytes(ct.tag)
    )


# --- settlement verification ----------------------------------------------

VERDICT_OK = "Ok"
VERDICT_HASH_MISMATCH = "HashMismatch"
VERDICT_OUTPUT_MISMATCH = "OutputMismatch"
VERDICT_KEY_MISMATCH = "KeyMismatch"
# a submission that verifies against a table of no cases has nothing to rank it by
VERDICT_NO_CASES = "NoCases"


def verify_submission(
    committed_digest: bytes,
    enc_model: Ciphertext,
    claimed_outputs: Sequence[float],
    cases: CaseTable,
) -> str:
    """Two-part check of a trainer's submission: ``VERDICT_OK``, or the
    ``VERDICT_*`` reason it is rejected for.

    ``cases`` is the round's ``CaseTable``, made once with the round's
    public key and read by every submission: the key is parsed, the input
    widths collected and the inputs transposed there, not here. What is
    left is the work that depends on the submission: its tag, its committed
    digest, its claims, one open of its model and one pass of the kernel.

    Part 1 binds the submitted ciphertext to the digest committed in the
    testing block. Part 2 accepts the submission exactly when, for every
    case, ``fhe_encrypt(pk, (claimed,)) == fhe_eval(enc_model, fhe_encrypt(pk, x))``.
    Under one key that holds exactly when the canonical packed plaintexts
    of the claim and of the model's output are equal (see the module
    docstring). A model has one output, so any claim but one finite float
    per case fails (a non-finite one has no place in the ranking by mean
    squared error); the rest are checked as one vector: the model is opened
    once (only if there is a case), its dimension is checked against the
    table's input widths, the kernel maps it over the table's columns, and
    the packed doubles of all claims are compared with those of all
    outputs in one bytes comparison. With one double per case the
    concatenations are equal exactly when every case is. Bytes, not
    floats: a claimed ``-0.0`` against a true ``0.0`` is rejected, where
    float ``==`` would accept it.
    """
    if enc_model.key_id != cases.key_id or not ciphertext_ok(enc_model):
        return VERDICT_KEY_MISMATCH
    if ciphertext_digest(enc_model) != committed_digest:
        return VERDICT_HASH_MISMATCH
    if len(claimed_outputs) != cases.count:
        return VERDICT_OUTPUT_MISMATCH
    if not cases.count:
        return VERDICT_OK
    try:
        if not all(map(math.isfinite, claimed_outputs)):
            return VERDICT_OUTPUT_MISMATCH
    except (TypeError, OverflowError):  # a claim that is not a float
        return VERDICT_OUTPUT_MISMATCH
    try:
        # the tag was checked above
        actual = evaluate_cases(_model(_decode_plaintext(enc_model.payload)), cases)
    except (InvalidCiphertext, LengthMismatch):
        return VERDICT_OUTPUT_MISMATCH
    packing = f"<{cases.count}d"
    if struct.pack(packing, *claimed_outputs) != struct.pack(packing, *actual):
        return VERDICT_OUTPUT_MISMATCH
    return VERDICT_OK


def performance_index(outputs: Sequence[float], truths: CaseTable) -> float:
    """Mean squared error of one output per case; lower is better.

    ``truths`` is the table of the cases' truths, flattened once by
    ``case_table``. One pass over the cases, left to right, as
    ``d = o - t; total += d * d``: a fixed order, so the index has the same
    bits on every Python version (``sum`` of floats is compensated from
    Python 3.12 and rounds differently), and a square by multiplication,
    which is correctly rounded on every platform (``d ** 2`` calls libm's
    ``pow``, which need not be).
    """
    if len(outputs) != len(truths.truths):
        raise LengthMismatch(f"{len(outputs)} outputs vs {len(truths.truths)} truths")
    if not outputs:
        raise EmptyCases("performance index needs at least one case")
    total = 0.0
    for o, t in zip(outputs, truths.truths):
        d = o - t
        total += d * d
    return total / len(outputs)
