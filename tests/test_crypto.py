import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import crypto
from relaysim.crypto import (
    Ciphertext,
    EmptyCases,
    InvalidCiphertext,
    KeyMismatch,
    LengthMismatch,
    ModelWeights,
    NonFiniteWeight,
    UnknownKey,
    VERDICT_HASH_MISMATCH,
    VERDICT_KEY_MISMATCH,
    VERDICT_OK,
    VERDICT_OUTPUT_MISMATCH,
    case_table,
    ciphertext_digest,
    ciphertext_ok,
    evaluate,
    evaluate_cases,
    fhe_decrypt_model,
    fhe_encrypt,
    fhe_eval,
    fhe_keygen,
    model_digest,
    performance_index,
    train_toward,
    verify_submission,
)


def perturb_with_noise(m, rng, scale):
    """A lazy worker's move: add white noise so the digest changes.

    Produces a model that passes the hash-difference filter while its
    test error stays at the predecessor's level instead of improving.
    """
    return ModelWeights(m.version + 1, tuple(w + rng.gauss(0.0, scale) for w in m.weights))


class TestModelDigest:
    def test_deterministic(self):
        m = ModelWeights(3, (1.0, -2.5, 0.125))
        assert model_digest(m) == model_digest(ModelWeights(3, (1.0, -2.5, 0.125)))

    def test_tiny_weight_change_alters_digest(self):
        m = ModelWeights(3, (1.0, -2.5, 0.125))
        nudged = ModelWeights(3, (1.0 + 1e-9, -2.5, 0.125))
        assert model_digest(m) != model_digest(nudged)

    def test_white_noise_still_changes_digest(self):
        m = ModelWeights(1, (0.5, 0.5, 0.0))
        lazy = perturb_with_noise(m, random.Random(4), scale=1e-6)
        assert model_digest(lazy) != model_digest(m)

    def test_non_finite_weight(self):
        with pytest.raises(NonFiniteWeight):
            model_digest(ModelWeights(0, (float("nan"), 1.0)))


class TestKeygen:
    def test_same_seed_same_pair(self):
        assert fhe_keygen(random.Random(1)) == fhe_keygen(random.Random(1))

    def test_distinct_seeds_distinct_ids(self):
        assert fhe_keygen(random.Random(1)).key_id != fhe_keygen(random.Random(2)).key_id

    def test_pinned_key_id(self):
        assert fhe_keygen(random.Random(1)).key_id == 10499958131665514997

    def test_thousand_keygens_no_collision(self):
        rng = random.Random(123)
        ids = {fhe_keygen(rng).key_id for _ in range(1000)}
        assert len(ids) == 1000


class TestEncrypt:
    def test_deterministic_under_key(self):
        pair = fhe_keygen(random.Random(5))
        v = (1.0, 2.0, 3.0)
        assert fhe_encrypt(pair.pk, v) == fhe_encrypt(pair.pk, v)

    def test_two_keys_differ_everywhere(self):
        rng = random.Random(5)
        a, b = fhe_keygen(rng), fhe_keygen(rng)
        ca, cb = fhe_encrypt(a.pk, (1.0,)), fhe_encrypt(b.pk, (1.0,))
        assert ca.key_id != cb.key_id
        assert ca.payload != cb.payload

    def test_tampered_tag_fails_self_check(self):
        pair = fhe_keygen(random.Random(5))
        ct = fhe_encrypt(pair.pk, (1.0, 2.0))
        bad = Ciphertext(ct.key_id, ct.payload, bytes(32))
        assert ciphertext_ok(ct)
        assert not ciphertext_ok(bad)

    def test_garbage_pk_rejected(self):
        with pytest.raises(UnknownKey):
            fhe_encrypt(b"not-a-key", (1.0,))

    def test_decrypt_requires_matching_secret_key(self):
        rng = random.Random(5)
        a, b = fhe_keygen(rng), fhe_keygen(rng)
        model = ModelWeights(2, (1.0, 0.5))
        ct = fhe_encrypt(a.pk, model)
        assert fhe_decrypt_model(a.sk, ct) == model
        with pytest.raises(KeyMismatch):
            fhe_decrypt_model(b.sk, ct)


class TestEval:
    def test_identity_model(self):
        pair = fhe_keygen(random.Random(5))
        model = ModelWeights(1, (1.0, 0.0))
        for v in (-3.5, 0.0, 7.25):
            got = fhe_eval(fhe_encrypt(pair.pk, model), fhe_encrypt(pair.pk, (v,)))
            assert got == fhe_encrypt(pair.pk, (v,))

    def test_linear_oracle(self):
        pair = fhe_keygen(random.Random(5))
        model = ModelWeights(1, (2.0, 0.0, 1.0))
        got = fhe_eval(fhe_encrypt(pair.pk, model), fhe_encrypt(pair.pk, (3.0, 5.0)))
        assert got == fhe_encrypt(pair.pk, (7.0,))

    def test_key_mismatch(self):
        rng = random.Random(5)
        a, b = fhe_keygen(rng), fhe_keygen(rng)
        model = ModelWeights(1, (1.0, 0.0))
        with pytest.raises(KeyMismatch):
            fhe_eval(fhe_encrypt(a.pk, model), fhe_encrypt(b.pk, (1.0,)))

    def test_two_vectors_rejected(self):
        pair = fhe_keygen(random.Random(5))
        with pytest.raises(InvalidCiphertext):
            fhe_eval(fhe_encrypt(pair.pk, (1.0,)), fhe_encrypt(pair.pk, (2.0,)))

    @settings(max_examples=150)
    @given(
        weights=st.lists(st.floats(-5, 5), min_size=2, max_size=5),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_homomorphism(self, weights, seed, data):
        pair = fhe_keygen(random.Random(seed))
        model = ModelWeights(1, tuple(weights))
        x = tuple(
            data.draw(st.floats(-5, 5)) for _ in range(model.input_dim)
        )
        left = fhe_eval(fhe_encrypt(pair.pk, model), fhe_encrypt(pair.pk, x))
        right = fhe_encrypt(pair.pk, (evaluate(model, x),))
        assert left == right


class TestTraining:
    def test_training_contracts_error_exactly(self):
        model = ModelWeights(1, (0.0, 0.0, 0.0))
        target = ModelWeights(0, (1.0, -1.0, 0.5))
        trained = train_toward(model, target, 0.25)
        assert trained.version == 2
        inputs = [(0.5, 2.0), (-1.0, 1.0), (3.0, 0.0)]
        truths = case_table(truths=[(evaluate(target, x),) for x in inputs])
        before = performance_index([evaluate(model, x) for x in inputs], truths)
        after = performance_index([evaluate(trained, x) for x in inputs], truths)
        assert after == pytest.approx(before * 0.75**2)


class TestVerifySubmission:
    def _setup(self, seed=9):
        rng = random.Random(seed)
        pair = fhe_keygen(rng)
        target = ModelWeights(0, tuple(rng.uniform(-1, 1) for _ in range(4)))
        start = ModelWeights(5, tuple(rng.uniform(-1, 1) for _ in range(4)))
        model = train_toward(start, target, 0.3)
        inputs = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(10)]
        ct = fhe_encrypt(pair.pk, model)
        committed = ciphertext_digest(ct)
        outputs = [evaluate(model, x) for x in inputs]
        return pair, model, start, inputs, ct, committed, outputs

    def test_honest_pipeline_accepted(self):
        pair, _, _, inputs, ct, committed, outputs = self._setup()
        verdict = verify_submission(committed, ct, outputs, case_table(inputs, pk=pair.pk))
        assert verdict == VERDICT_OK

    def test_output_substitution_rejected(self):
        pair, _, start, inputs, ct, committed, _ = self._setup()
        predecessor_outputs = [evaluate(start, x) for x in inputs]
        cases = case_table(inputs, pk=pair.pk)
        verdict = verify_submission(committed, ct, predecessor_outputs, cases)
        assert verdict == VERDICT_OUTPUT_MISMATCH

    def test_model_swap_after_commitment_rejected(self):
        pair, model, _, inputs, _, committed, outputs = self._setup()
        swapped = ModelWeights(
            model.version, tuple(w + 0.01 for w in model.weights)
        )
        swapped_ct = fhe_encrypt(pair.pk, swapped)
        verdict = verify_submission(
            committed, swapped_ct,
            [evaluate(swapped, x) for x in inputs], case_table(inputs, pk=pair.pk),
        )
        assert verdict == VERDICT_HASH_MISMATCH

    def test_wrong_key_rejected(self):
        pair, _, _, inputs, ct, committed, outputs = self._setup()
        other = fhe_keygen(random.Random(1234))
        verdict = verify_submission(committed, ct, outputs, case_table(inputs, pk=other.pk))
        assert verdict == VERDICT_KEY_MISMATCH

    def test_soundness_exhaustive_small_grid(self):
        pair = fhe_keygen(random.Random(2))
        model = ModelWeights(1, (2.0, 1.0))
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        for x in grid:
            ct = fhe_encrypt(pair.pk, model)
            committed = ciphertext_digest(ct)
            true_out = evaluate(model, (x,))
            for claimed in grid:
                verdict = verify_submission(
                    committed, ct, [claimed], case_table([(x,)], pk=pair.pk)
                )
                if claimed == true_out:
                    assert verdict == VERDICT_OK
                else:
                    assert verdict == VERDICT_OUTPUT_MISMATCH

    def test_binding_any_payload_byte(self):
        pair, _, _, inputs, ct, committed, outputs = self._setup()
        rng = random.Random(0)
        for _ in range(50):
            pos = rng.randrange(len(ct.payload))
            flipped = bytes(
                b ^ (1 << rng.randrange(8)) if i == pos else b
                for i, b in enumerate(ct.payload)
            )
            tampered = Ciphertext(ct.key_id, flipped, ct.tag)
            cases = case_table(inputs, pk=pair.pk)
            verdict = verify_submission(committed, tampered, outputs, cases)
            assert verdict != VERDICT_OK

    def test_one_tag_check_per_verified_submission(self, monkeypatch):
        # The model is opened without checking its tag a second time; the
        # other openers still check it.
        pair, _, _, inputs, ct, committed, outputs = self._setup()
        cases = case_table(inputs, pk=pair.pk)
        tag, calls = crypto._tag, []

        def counted(key_id, payload):
            calls.append(payload)
            return tag(key_id, payload)

        monkeypatch.setattr(crypto, "_tag", counted)
        assert verify_submission(committed, ct, outputs, cases) == VERDICT_OK
        assert calls == [ct.payload]
        bad_tag = Ciphertext(ct.key_id, ct.payload, ct.tag[::-1])
        with pytest.raises(InvalidCiphertext):
            fhe_decrypt_model(pair.sk, bad_tag)
        with pytest.raises(InvalidCiphertext):
            fhe_eval(bad_tag, fhe_encrypt(pair.pk, inputs[0]))

    @pytest.mark.parametrize("bad", [
        (0.0,), (0.0, 0.0), None, "0.0", math.nan, math.inf, -math.inf, -0.0, 10**400,
    ], ids=["one-tuple", "two-tuple", "none", "string", "nan", "inf", "minus-inf",
            "negative-zero", "huge-int"])
    def test_claim_other_than_one_finite_float_rejected(self, bad):
        # every true output is 0.0; one case claims something else
        pair = fhe_keygen(random.Random(12))
        ct = fhe_encrypt(pair.pk, ModelWeights(1, (0.0, 0.0, 0.0)))
        cases = case_table([(1.0, 2.0)] * 3, pk=pair.pk)
        assert verify_submission(ciphertext_digest(ct), ct, [0.0] * 3, cases) == VERDICT_OK
        verdict = verify_submission(ciphertext_digest(ct), ct, [0.0, bad, 0.0], cases)
        assert verdict == VERDICT_OUTPUT_MISMATCH

    @pytest.mark.parametrize("extra", [-1, 1], ids=["too-few", "too-many"])
    def test_one_claim_too_few_or_too_many_rejected(self, extra):
        pair, _, _, inputs, ct, committed, outputs = self._setup()
        claims = outputs[:-1] if extra < 0 else outputs + outputs[:1]
        verdict = verify_submission(committed, ct, claims, case_table(inputs, pk=pair.pk))
        assert verdict == VERDICT_OUTPUT_MISMATCH


def _forged(pair, plaintext: bytes) -> Ciphertext:
    """An authentic ciphertext over arbitrary plaintext bytes: the mock tag
    hashes only the key id and payload, so anyone can compute it."""
    payload = crypto._xor_stream(plaintext, pair.key_id)
    return Ciphertext(pair.key_id, payload, crypto._tag(pair.key_id, payload))


def _finite_number(claimed):
    """Whether a claim is one finite number, not a vector or anything else."""
    try:
        return math.isfinite(claimed)
    except (TypeError, OverflowError):
        return False


def _reference_verdict(committed, enc_model, claimed_outputs, pk, testing_inputs):
    """verify_submission written with the public contract only: each claim
    must encrypt to what evaluating the encrypted model on the encrypted
    input gives."""
    try:
        key_id = fhe_encrypt(pk, ()).key_id
    except UnknownKey:
        return VERDICT_KEY_MISMATCH
    if enc_model.key_id != key_id or not ciphertext_ok(enc_model):
        return VERDICT_KEY_MISMATCH
    if ciphertext_digest(enc_model) != committed:
        return VERDICT_HASH_MISMATCH
    if len(claimed_outputs) != len(testing_inputs):
        return VERDICT_OUTPUT_MISMATCH
    for claimed, x in zip(claimed_outputs, testing_inputs):
        if not _finite_number(claimed):
            return VERDICT_OUTPUT_MISMATCH
        try:
            actual = fhe_eval(enc_model, fhe_encrypt(pk, x))
        except (InvalidCiphertext, LengthMismatch):
            return VERDICT_OUTPUT_MISMATCH
        # a flat claim stands for the one-component vector (claimed,)
        if fhe_encrypt(pk, (claimed,)) != actual:
            return VERDICT_OUTPUT_MISMATCH
    return VERDICT_OK


def _claim(kind, model, x):
    """A claimed output for case ``x``: honest or altered as ``kind`` says."""
    try:
        y = evaluate(model, x)
    except LengthMismatch:  # the input has the wrong width
        return 0.0
    return {
        "honest": y,
        "one_ulp": math.nextafter(y, math.inf),
        "negated": -y,  # -0.0 against a true 0.0 when the output is zero
        "too_wide": (y, 0.0),  # not a float: a vector, as is "wrapped"
        "wrapped": (y,),
    }[kind]


def _mostly(common, *rare):
    return st.sampled_from([common] * 6 + list(rare))


class TestVerifierEquivalence:
    """The one-open verifier gives the verdict of the ciphertext comparison."""

    UNDECODABLE = b"M" + struct.pack("<QQ", 1, 5) + struct.pack("<2d", 1.0, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.one_of(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
            st.integers(1, 6).map(lambda n: [0.0] * n),
        ),
        sealed=_mostly("model", "undecodable", "vector"),
        key=_mostly("round", "other", "garbage"),
        digest_ok=_mostly(True, False),
        few=_mostly(False, True),
        cases=_mostly(3, 0, 1, 2),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_matches_ciphertext_comparison(self, weights, sealed, key, digest_ok, few,
                                           cases, seed, data):
        rng = random.Random(seed)
        pair, other = fhe_keygen(rng), fhe_keygen(rng)
        model = ModelWeights(2, tuple(weights))
        enc_model = {
            "model": lambda: fhe_encrypt(pair.pk, model),
            "undecodable": lambda: _forged(pair, self.UNDECODABLE),
            "vector": lambda: fhe_encrypt(pair.pk, model.weights),
        }[sealed]()
        committed = ciphertext_digest(enc_model)
        if not digest_ok:
            committed = committed[::-1]
        pk = {"round": pair.pk, "other": other.pk, "garbage": b"not-a-key"}[key]
        element = st.one_of(st.floats(-10, 10), st.integers(-5, 5))
        width = _mostly(model.input_dim, model.input_dim + 1)
        inputs = data.draw(st.lists(width.flatmap(
            lambda n: st.tuples(*[element] * n)), min_size=cases, max_size=cases))
        kinds = data.draw(st.lists(
            _mostly("honest", "one_ulp", "negated", "too_wide", "wrapped"),
            min_size=len(inputs), max_size=len(inputs)))
        claims = [_claim(kind, model, x) for kind, x in zip(kinds, inputs)]
        if few and claims:
            claims.pop()
        verdict = verify_submission(committed, enc_model, claims, case_table(inputs, pk=pk))
        assert verdict == _reference_verdict(committed, enc_model, claims, pk, inputs)

    def test_negative_zero_claim_rejected_although_float_equal(self):
        pair = fhe_keygen(random.Random(3))
        model = ModelWeights(1, (0.0, 0.0))
        ct = fhe_encrypt(pair.pk, model)
        inputs = [(1.0,)]
        assert evaluate(model, inputs[0]) == 0.0 == -0.0
        cases = case_table(inputs, pk=pair.pk)
        honest = verify_submission(ciphertext_digest(ct), ct, [0.0], cases)
        assert honest == VERDICT_OK
        cases = case_table(inputs, pk=pair.pk)
        verdict = verify_submission(ciphertext_digest(ct), ct, [-0.0], cases)
        assert verdict == VERDICT_OUTPUT_MISMATCH


def _evaluate_one(m, x):
    """The linear map on one input, as a per-case loop."""
    if len(x) != m.input_dim:
        raise LengthMismatch(f"model expects {m.input_dim} inputs, got {len(x)}")
    acc = m.weights[-1]
    for w, xi in zip(m.weights[:-1], x):
        acc += w * xi
    return acc


def _per_case_verdict(committed_digest, enc_model, claimed_outputs, pk, testing_inputs):
    """verify_submission as a loop over the cases: the model is opened on
    the first case, and each case is evaluated on its own and compared as
    packed plaintext bytes of one-component vectors."""
    try:
        key_id = crypto._parse_key(pk, crypto._PK_MAGIC)
    except UnknownKey:
        return VERDICT_KEY_MISMATCH
    if enc_model.key_id != key_id or not ciphertext_ok(enc_model):
        return VERDICT_KEY_MISMATCH
    if ciphertext_digest(enc_model) != committed_digest:
        return VERDICT_HASH_MISMATCH
    if len(claimed_outputs) != len(testing_inputs):
        return VERDICT_OUTPUT_MISMATCH
    model = None
    for claimed, x in zip(claimed_outputs, testing_inputs):
        if not _finite_number(claimed):
            return VERDICT_OUTPUT_MISMATCH
        x = tuple(map(float, x))
        try:
            if model is None:
                model = crypto._model(crypto._open(enc_model))
            actual = _evaluate_one(model, x)
        except (InvalidCiphertext, LengthMismatch):
            return VERDICT_OUTPUT_MISMATCH
        if crypto._encode_plaintext((claimed,)) != crypto._encode_plaintext((actual,)):
            return VERDICT_OUTPUT_MISMATCH
    return VERDICT_OK


def _tampered(ct, how):
    flipped = bytes([ct.payload[0] ^ 1]) + ct.payload[1:]
    return {
        "none": ct,
        "payload": Ciphertext(ct.key_id, flipped, ct.tag),
        "payload_retagged": Ciphertext(ct.key_id, flipped, crypto._tag(ct.key_id, flipped)),
        "tag": Ciphertext(ct.key_id, ct.payload, ct.tag[::-1]),
        "key": Ciphertext(ct.key_id ^ 1, ct.payload, ct.tag),
    }[how]


_WEIGHTS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4).map(float), min_size=1, max_size=5),
    st.integers(1, 5).map(lambda n: [0.0] * n),
    st.integers(1, 5).map(lambda n: [-0.0] * n),
)
_ELEMENT = st.one_of(st.floats(-10, 10), st.integers(-5, 5), st.just(-0.0))
# Values whose products or partial sums overflow to +-inf, or to nan when two
# infinities of opposite sign meet, and signed zeros and ints.
_EXTREME = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, 0.0, -0.0])
_KERNEL_WEIGHT = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EXTREME)
_KERNEL_INPUT = st.one_of(st.floats(), st.integers(-2**60, 2**60), st.integers(-3, 3), _EXTREME)


class TestVectorVerifier:
    """The whole-vector verifier gives the per-case loop's verdict."""

    @settings(max_examples=400, deadline=None)
    @given(
        weights=_WEIGHTS,
        tamper=_mostly("none", "payload", "payload_retagged", "tag", "key"),
        commit_tampered=st.booleans(),
        digest_ok=_mostly(True, False),
        key=_mostly("round", "other", "garbage"),
        count=_mostly("equal", "fewer", "more"),
        cases=_mostly(3, 0, 1, 5),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_matches_per_case_loop(self, weights, tamper, commit_tampered, digest_ok, key,
                                   count, cases, seed, data):
        rng = random.Random(seed)
        pair, other = fhe_keygen(rng), fhe_keygen(rng)
        model = ModelWeights(4, tuple(weights))
        sealed = fhe_encrypt(pair.pk, model)
        enc_model = _tampered(sealed, tamper)
        committed = ciphertext_digest(enc_model if commit_tampered else sealed)
        if not digest_ok:
            committed = committed[::-1]
        pk = {"round": pair.pk, "other": other.pk, "garbage": b"not-a-key"}[key]
        width = _mostly(model.input_dim, model.input_dim + 1, max(model.input_dim - 1, 0))
        inputs = data.draw(st.lists(width.flatmap(
            lambda n: st.tuples(*[_ELEMENT] * n)), min_size=cases, max_size=cases))
        claims = [self._honest(model, x) for x in inputs]
        fault = data.draw(st.sampled_from(["one", "one", "one", "two", "none", "shift", "shift"]))
        if claims and fault == "shift":
            # a 2-component vector followed by an empty one: the same doubles
            # as two honest cases, laid out differently
            i = data.draw(st.integers(0, len(claims) - 1))
            claims[i:i + 2] = [tuple(claims[i:i + 2]), ()]
            claims = claims[:len(inputs)]
        for _ in range({"one": 1, "two": 2}.get(fault, 0)):
            if claims:
                i = data.draw(st.integers(0, len(claims) - 1))
                claims[i] = self._altered(data, self._honest(model, inputs[i]))
        if count == "fewer" and claims:
            claims.pop()
        elif count == "more":
            claims.append(0.0)
        verdict = verify_submission(committed, enc_model, claims, case_table(inputs, pk=pk))
        assert verdict == _per_case_verdict(committed, enc_model, claims, pk, inputs)

    @staticmethod
    def _honest(model, x):
        try:
            return _evaluate_one(model, x)
        except LengthMismatch:
            return 0.0

    @staticmethod
    def _altered(data, y):
        integral = math.isfinite(y) and y == int(y) and abs(y) <= 2**53
        return data.draw(st.sampled_from([
            y, -y, 0.0, -0.0, math.nan, math.inf, -math.inf,
            int(y) if integral else 7, (), (y,), (y, y), (y, 0.0), None, repr(y), 10**400,
        ]) | st.integers(-2**53, 2**53))

    def test_negative_zero_claim_in_any_case_rejected(self):
        pair = fhe_keygen(random.Random(4))
        model = ModelWeights(1, (0.0, 0.0, 0.0))
        ct = fhe_encrypt(pair.pk, model)
        inputs = [(1.0, 2.0)] * 3
        cases = case_table(inputs, pk=pair.pk)
        for claims, accepted in [([0.0] * 3, True), ([0.0, -0.0, 0.0], False), ([0] * 3, True)]:
            verdict = verify_submission(ciphertext_digest(ct), ct, claims, cases)
            assert (verdict == VERDICT_OK) is accepted
            assert verdict == _per_case_verdict(ciphertext_digest(ct), ct, claims, pair.pk, inputs)

    def test_shifted_components_rejected(self):
        pair = fhe_keygen(random.Random(5))
        model = ModelWeights(1, (2.0, 1.0))
        ct = fhe_encrypt(pair.pk, model)
        inputs = [(1.0,), (2.0,)]
        cases = case_table(inputs, pk=pair.pk)
        verdict = verify_submission(ciphertext_digest(ct), ct, [(3.0, 5.0), ()], cases)
        assert verdict == VERDICT_OUTPUT_MISMATCH


class TestEvaluateCases:
    @settings(max_examples=300, deadline=None)
    @given(weights=_WEIGHTS, data=st.data())
    def test_same_bits_as_per_case_loop(self, weights, data):
        model = ModelWeights(0, tuple(weights))
        widths = _mostly(model.input_dim, model.input_dim + 1)
        inputs = data.draw(st.lists(widths.flatmap(
            lambda n: st.tuples(*[_ELEMENT] * n)), max_size=6))
        try:
            expected = [_evaluate_one(model, x) for x in inputs]
        except LengthMismatch:
            with pytest.raises(LengthMismatch):
                evaluate_cases(model, case_table(inputs))
            return
        outputs = evaluate_cases(model, case_table(inputs))
        packed = [struct.pack("<d", y) for y in outputs]
        assert packed == [struct.pack("<d", y) for y in expected]
        # bits, not floats: an overflow to nan compares unequal to itself
        assert [struct.pack("<d", evaluate(model, x)) for x in inputs] == packed

    @settings(max_examples=400, deadline=None)
    @given(dim=st.integers(0, 9), data=st.data())
    def test_four_weight_blocks_same_bits_as_per_case_loop(self, dim, data):
        # 0-9 inputs reach no block, one or two blocks of four weights, each
        # with 0-3 weights left over
        weights = data.draw(st.lists(_KERNEL_WEIGHT, min_size=dim + 1, max_size=dim + 1))
        model = ModelWeights(0, tuple(weights))
        inputs = data.draw(st.lists(st.tuples(*[_KERNEL_INPUT] * dim), max_size=6))
        outputs = evaluate_cases(model, case_table(inputs))
        expected = [_evaluate_one(model, x) for x in inputs]
        assert [struct.pack("<d", y) for y in outputs] == [struct.pack("<d", y) for y in expected]

    def test_outputs_are_exact_floats(self):
        model = ModelWeights(0, (2.0, -1.0, 0.5))
        outputs = evaluate_cases(model, case_table([(1, 2), (0.5, -3.0), (0, 0)]))
        assert [type(y) for y in outputs] == [float] * 3
        assert outputs == [0.5, 4.5, 0.5]
        assert type(evaluate(model, (1, 2))) is float

    @pytest.mark.parametrize("weights, x, output", [
        # a sum past the largest double inside a block, then a finite term
        ((1e308, 1e308, 1.0, 1.0, -0.0), (1.0, 1.0, 1.0, 1.0), "inf"),
        # +inf from the block, -inf from the weight after it
        ((1e308, 1e308, 0.0, 0.0, -1e308, 0.0), (1.0, 1.0, 1.0, 1.0, 10), "nan"),
        # -inf from the first block meets a +inf product in the second
        ((-1e308, -1e308, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 5.0, -0.0),
         (1, 1, 1, 1, 10, 1, 1, 1, 1), "nan"),
        # signed zeros throughout: -0.0 + -0.0 * 1 stays -0.0
        ((-0.0,) * 10, (1,) * 9, "-0.0"),
        ((-0.0,) * 9 + (0.0,), (1,) * 9, "0.0"),
    ], ids=["inf-in-block", "nan-in-remainder", "nan-across-blocks", "negative-zero",
            "positive-zero-bias"])
    def test_overflow_and_signed_zero_partway(self, weights, x, output):
        model = ModelWeights(0, weights)
        (y,) = evaluate_cases(model, case_table([x]))
        assert struct.pack("<d", y) == struct.pack("<d", _evaluate_one(model, x))
        assert repr(y) == output


class TestCaseTable:
    @pytest.mark.parametrize("truth", [(), (1.0, 2.0)], ids=["no-component", "two-components"])
    def test_truth_of_other_than_one_component_refused(self, truth):
        with pytest.raises(LengthMismatch):
            case_table([(1.0,), (2.0,)], [(1.0,), truth])


class TestKeyMemo:
    """A key's integrity check and keystream are derived once per distinct
    key, in bounded memos that never hold a refusal."""

    @staticmethod
    def _flipped(key, i):
        return key[:i] + bytes([key[i] ^ 1]) + key[i + 1:]

    @pytest.mark.parametrize("where", ["magic", "id", "check"])
    def test_a_tampered_key_is_refused_on_every_call(self, where):
        pair = fhe_keygen(random.Random(5))
        i = {"magic": 0, "id": len(crypto._PK_MAGIC), "check": -1}[where] % len(pair.pk)
        bad_pk, bad_sk = self._flipped(pair.pk, i), self._flipped(pair.sk, i)
        ct = fhe_encrypt(pair.pk, ModelWeights(1, (2.0, 1.0)))
        for _ in range(3):
            assert case_table([(1.0,)], pk=pair.pk).key_id == pair.key_id
            with pytest.raises(UnknownKey):
                fhe_encrypt(bad_pk, (1.0,))
            assert case_table([(1.0,)], pk=bad_pk).key_id is None
            with pytest.raises(UnknownKey):
                fhe_decrypt_model(bad_sk, ct)

    def test_alternating_keys_give_what_no_memo_gives(self, monkeypatch):
        rng = random.Random(9)
        a, b = fhe_keygen(rng), fhe_keygen(rng)
        model = ModelWeights(3, (0.5, -1.0, 2.0))

        def results():
            out = []
            for pair in (a, b, a):
                enc_model, enc_x = fhe_encrypt(pair.pk, model), fhe_encrypt(pair.pk, (1.0, 2.0))
                out.append((enc_model, enc_x, fhe_decrypt_model(pair.sk, enc_model),
                            crypto._open(enc_x), fhe_eval(enc_model, enc_x)))
            return out

        crypto._parse_key.cache_clear()
        crypto._keystream.cache_clear()
        memoized, recalled = results(), results()
        monkeypatch.setattr(crypto, "_parse_key", crypto._parse_key.__wrapped__)
        monkeypatch.setattr(crypto, "_keystream", crypto._keystream.__wrapped__)
        assert memoized == recalled == results()

    def test_one_derivation_per_key_and_length(self):
        pair = fhe_keygen(random.Random(10))
        crypto._parse_key.cache_clear()
        crypto._keystream.cache_clear()
        for i in range(80):
            fhe_encrypt(pair.pk, ModelWeights(i, (1.0, float(i))))
        assert crypto._parse_key.cache_info().misses == 1
        assert crypto._keystream.cache_info().misses == 1

    def test_a_thousand_keys_stay_within_the_bound(self):
        rng = random.Random(11)
        model = ModelWeights(1, (1.0, 0.5))
        for _ in range(1000):
            pair = fhe_keygen(rng)
            fhe_decrypt_model(pair.sk, fhe_encrypt(pair.pk, model))
        for memo in (crypto._parse_key, crypto._keystream):
            info = memo.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize


class TestUndecodablePlaintext:
    PAYLOADS = {
        "zero_weights": b"M" + struct.pack("<QQ", 1, 0),
        "count_past_buffer": b"M" + struct.pack("<QQ", 1, 5) + struct.pack("<2d", 1.0, 2.0),
        "truncated_body": b"M" + struct.pack("<Q", 1),
    }

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_verdict_is_output_mismatch(self, name):
        pair = fhe_keygen(random.Random(5))
        ct = _forged(pair, self.PAYLOADS[name])
        assert ciphertext_ok(ct)
        verdict = verify_submission(
            ciphertext_digest(ct), ct, [0.0], case_table([(1.0, 2.0)], pk=pair.pk)
        )
        assert verdict == VERDICT_OUTPUT_MISMATCH
        with pytest.raises(InvalidCiphertext):
            fhe_decrypt_model(pair.sk, ct)


class TestNonCanonicalPlaintext:
    """Trailing bytes would give one value many committed digests."""

    def test_model_with_trailing_bytes_rejected(self):
        pair = fhe_keygen(random.Random(8))
        model = ModelWeights(3, (1.0, -2.0))
        inputs = [(0.5,)]
        ct = _forged(pair, crypto._encode_plaintext(model) + b"junk")
        assert ciphertext_ok(ct)
        assert ciphertext_digest(ct) != ciphertext_digest(fhe_encrypt(pair.pk, model))
        with pytest.raises(InvalidCiphertext):
            fhe_decrypt_model(pair.sk, ct)
        outputs = [evaluate(model, x) for x in inputs]
        cases = case_table(inputs, pk=pair.pk)
        verdict = verify_submission(ciphertext_digest(ct), ct, outputs, cases)
        assert verdict == VERDICT_OUTPUT_MISMATCH

    def test_vector_with_one_padding_byte_rejected(self):
        pair = fhe_keygen(random.Random(9))
        enc_model = fhe_encrypt(pair.pk, ModelWeights(1, (1.0, 1.0)))
        padded = _forged(pair, crypto._encode_plaintext((0.5,)) + b"\x00")
        assert ciphertext_ok(padded)
        with pytest.raises(InvalidCiphertext):
            fhe_eval(enc_model, padded)


class TestNonFiniteOutputs:
    @pytest.mark.parametrize("weights", [
        (math.nan, math.nan, math.nan),  # NaN outputs would rank arbitrarily
        (1e308, 1e308, 0.0),             # finite weights, output overflows to inf
    ])
    def test_model_with_its_own_outputs_rejected(self, weights):
        pair = fhe_keygen(random.Random(6))
        model = ModelWeights(2, weights)
        inputs = [(10.0, 10.0), (0.5, -1.0)]
        ct = fhe_encrypt(pair.pk, model)
        outputs = [evaluate(model, x) for x in inputs]
        assert not math.isfinite(outputs[0])
        cases = case_table(inputs, pk=pair.pk)
        verdict = verify_submission(ciphertext_digest(ct), ct, outputs, cases)
        assert verdict == VERDICT_OUTPUT_MISMATCH


class TestPerformanceIndex:
    def test_perfect_outputs(self):
        assert performance_index([1.0, 2.0], case_table(truths=[(1.0,), (2.0,)])) == 0.0

    def test_hand_mse(self):
        assert performance_index(
            [1.0, 2.0], case_table(truths=[(2.0,), (4.0,)])) == pytest.approx(2.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            performance_index([1.0] * 3, case_table(truths=[(1.0,)] * 4))

    def test_empty_cases(self):
        with pytest.raises(EmptyCases):
            performance_index([], case_table())

    def test_case_width_mismatch(self):
        # a truth of other than one component is refused once, by the table
        with pytest.raises(LengthMismatch):
            performance_index([1.0, 1.0], case_table(truths=[(1.0, 2.0), (1.0,)]))
        with pytest.raises(LengthMismatch):
            performance_index([1.0, 1.0], case_table(truths=[(), ()]))

    @given(cases=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                          min_size=1, max_size=12))
    def test_same_bits_as_per_case_loop(self, cases):
        total = 0.0
        for o, t in cases:
            d = o - t
            total += d * d
        index = performance_index(
            [o for o, _ in cases], case_table(truths=[(t,) for _, t in cases]))
        assert struct.pack("<d", index) == struct.pack("<d", total / len(cases))

    def test_square_is_correctly_rounded(self):
        # d * d is one correctly rounded multiplication; glibc's pow, which
        # d ** 2 calls, returns 7.815454626708844e-31 here, one ulp away
        index = performance_index([8.840505996100474e-16], case_table(truths=[(0.0,)]))
        assert struct.pack("<d", index) == struct.pack("<d", 7.815454626708845e-31)

    @given(
        pairs=st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
            min_size=1, max_size=20,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_permutation_invariant(self, pairs, seed):
        outputs = [a for a, _ in pairs]
        truths = [(b,) for _, b in pairs]
        baseline = performance_index(outputs, case_table(truths=truths))
        order = list(range(len(pairs)))
        random.Random(seed).shuffle(order)
        shuffled = performance_index(
            [outputs[i] for i in order], case_table(truths=[truths[i] for i in order])
        )
        assert shuffled == pytest.approx(baseline, rel=1e-12, abs=1e-12)
