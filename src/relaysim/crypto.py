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
model once, maps it over every testing input with the one evaluation
kernel (under ``evaluate_cases`` and ``evaluate`` too), and compares the
packed doubles of all claims with those of all outputs in one bytes
comparison. That is the same check as comparing ``fhe_encrypt(pk, claim)``
with ``fhe_eval``'s result case by case, without encrypting every case
twice. The bytes are compared, not the floats, so a claimed ``-0.0``
still differs from a true ``0.0``.

What depends only on the round is done once per round, in ``case_table``:
the round key is parsed, the inputs' widths are collected and the inputs
transposed into columns, and the truths are flattened. Every submission
of the round, its claimed outputs (step 10), its verification and its
mean squared error (step 11), reads that one ``CaseTable``, so each
submission costs only its tag, its digest, one open of its model, a
check of the model's dimension against the table's widths, one kernel
pass, one bytes comparison and one pass of the error.
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


@dataclass(frozen=True)
class CaseTable:
    """A round's testing cases, prepared once for all of its submissions.

    ``columns`` holds the inputs transposed, one tuple per input position,
    and ``widths`` the distinct input lengths; ``truths`` holds the truths'
    components in case order, and ``truth_widths`` each truth's length.
    ``key_id`` is the id of the round's public key, None when the table was
    made without a well-formed key, so that nothing verifies against it.
    """

    key_id: int | None
    count: int
    widths: frozenset[int]
    columns: tuple[tuple[float, ...], ...]
    truth_widths: tuple[int, ...]
    truths: tuple[float, ...]


def case_table(
    inputs: Sequence[Sequence[float]] = (),
    truths: Sequence[Sequence[float]] = (),
    pk: bytes | None = None,
) -> CaseTable:
    """The table of ``inputs`` and ``truths`` under the public key ``pk``."""
    key_id = None
    if pk is not None:
        try:
            key_id = _parse_key(pk, _PK_MAGIC)
        except UnknownKey:
            pass
    return CaseTable(
        key_id, len(inputs), frozenset(map(len, inputs)), tuple(zip(*inputs)),
        tuple(map(len, truths)), tuple(chain.from_iterable(truths)),
    )


def _outputs(m: ModelWeights, cases: CaseTable) -> list[float]:
    """The one evaluation kernel: the model's output on every case.

    The model's dimension is checked against every input width before any
    arithmetic. The outputs are built one weight at a time across all
    cases, from the table's columns, so each case still accumulates
    ``acc = b``, then ``acc += w_i * x_i`` for i = 1..d, left to right: the
    same floats as a per-case loop.
    """
    *ws, bias = m.weights
    bad_widths = cases.widths - {len(ws)}
    if bad_widths:
        raise LengthMismatch(f"model expects {len(ws)} inputs, got {sorted(bad_widths)}")
    accs = [bias] * cases.count
    for w, column in zip(ws, cases.columns):
        accs = [acc + w * xi for acc, xi in zip(accs, column)]
    return accs


def evaluate_cases(
    m: ModelWeights, inputs: CaseTable | Sequence[Sequence[float]]
) -> tuple[Vector, ...]:
    """Plaintext evaluation of the linear map on every input: ``(w . x + b,)``.

    ``inputs`` is a sequence of input vectors, or a ``CaseTable`` already
    made of them.
    """
    if not isinstance(inputs, CaseTable):
        inputs = case_table(inputs)
    return tuple(zip(_outputs(m, inputs)))


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


def _decrypt(ct: Ciphertext) -> ModelWeights | Vector:
    """The plaintext of a ciphertext whose tag the caller has checked."""
    return _decode_plaintext(_xor_stream(ct.payload, ct.key_id))


def _open(ct: Ciphertext) -> ModelWeights | Vector:
    if not ciphertext_ok(ct):
        raise InvalidCiphertext("authentication tag does not verify")
    return _decrypt(ct)


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
    return _encrypt_with_id(enc_model.key_id, evaluate(model, x))


def fhe_decrypt_model(sk: bytes, ct: Ciphertext) -> ModelWeights:
    """Recover a model with the secret key (the key-holder's privilege)."""
    key_id = _parse_key(sk, _SK_MAGIC)
    if key_id != ct.key_id:
        raise KeyMismatch(f"secret key {key_id} != ciphertext key {ct.key_id}")
    return _model(_open(ct))


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
    cases: CaseTable,
) -> Verdict:
    """Two-part check of a trainer's submission; verdicts are data.

    ``cases`` is the round's ``CaseTable``, made once with the round's
    public key and read by every submission: the key is parsed, the input
    widths collected and the inputs transposed there, not here. What is
    left is the work that depends on the submission: its tag, its committed
    digest, its claims, one open of its model and one pass of the kernel.

    Part 1 binds the submitted ciphertext to the digest committed in the
    testing block. Part 2 accepts the submission exactly when, for every
    case, ``fhe_encrypt(pk, claimed) == fhe_eval(enc_model, fhe_encrypt(pk, x))``.
    Under one key that holds exactly when the canonical packed plaintexts
    of the claim and of the model's output are equal (see the module
    docstring). A model has one output, so a claim of any other length
    fails; the rest are checked as one vector: the model is opened once
    (only if there is a case), its dimension is checked against the
    table's input widths, the kernel maps it over the table's columns, and
    the packed doubles of all claims are compared with those of all
    outputs in one bytes comparison. With one double per case the
    concatenations are equal exactly when every case is. Bytes, not
    floats: a claimed ``-0.0`` against a true ``0.0`` is rejected, where
    float ``==`` would accept it. A non-finite claimed output is
    rejected: it has no place in the ranking by mean squared error.
    """
    if enc_model.key_id != cases.key_id or not ciphertext_ok(enc_model):
        return Verdict.reject(VERDICT_KEY_MISMATCH)
    if ciphertext_digest(enc_model) != committed_digest:
        return Verdict.reject(VERDICT_HASH_MISMATCH)
    if len(claimed_outputs) != cases.count:
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    if not cases.count:
        return Verdict.ok()
    try:
        claims = [claim for (claim,) in claimed_outputs]
    except ValueError:  # a claim of other than one output
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    if not all(map(math.isfinite, claims)):
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    try:
        # the tag was checked above
        actual = _outputs(_model(_decrypt(enc_model)), cases)
    except (InvalidCiphertext, LengthMismatch):
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    packing = f"<{cases.count}d"
    if struct.pack(packing, *claims) != struct.pack(packing, *actual):
        return Verdict.reject(VERDICT_OUTPUT_MISMATCH)
    return Verdict.ok()


def performance_index(
    outputs: Sequence[Sequence[float]], truths: CaseTable | Sequence[Sequence[float]]
) -> float:
    """Mean squared error over all output components; lower is better.

    ``truths`` is a sequence of truth vectors, or a ``CaseTable`` already
    made of them. One pass over the float components, case by case and
    left to right, as ``total += (o - t) ** 2``: a fixed order, so the
    index has the same bits on every Python version (``sum`` of floats is
    compensated from Python 3.12 and rounds differently).
    """
    if not isinstance(truths, CaseTable):
        truths = case_table(truths=truths)
    if len(outputs) != len(truths.truth_widths):
        raise LengthMismatch(f"{len(outputs)} outputs vs {len(truths.truth_widths)} truths")
    if not outputs:
        raise EmptyCases("performance index needs at least one case")
    if tuple(map(len, outputs)) != truths.truth_widths:
        raise LengthMismatch("case dimensions differ between outputs and truths")
    if not truths.truths:
        raise EmptyCases("cases carry no components")
    total = 0.0
    for o, t in zip(chain.from_iterable(outputs), truths.truths):
        total += (o - t) ** 2
    return total / len(truths.truths)
