"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 2-4 share one reference 200-round run (module-scoped fixture);
its wall time is checked against the stated budget. Random draws use
fixed seeds so every criterion is reproducible bit-for-bit.
"""

import dataclasses
import itertools
import random
import time

import pytest

from relaysim import crypto
from relaysim.auction import Bid, select_trainers
from relaysim.chain import (
    Block,
    BlockHeader,
    KindOrderViolation,
    append_block,
    block_digest,
    chain_to_jsonl,
    expected_kind,
    verify_chain_dump,
)
from relaysim.economics import (
    ROLE_STRATEGIES,
    EconomicParams,
    RoleStrategy,
    check_ic,
    check_ir,
    citation_reward_bounds,
    minimal_rewards,
    strategy_utility,
)
from relaysim.protocol import rank_and_select
from relaysim.sim import (
    SimConfig,
    closed_form_coins,
    run_round_robin,
    simulate_run,
    trainer_fixed_point,
)
from test_crypto import perturb_with_noise
from test_sim import round_robin_uploads

TABLE_CONFIG = SimConfig(rounds=200, seed=7)


@pytest.fixture(scope="module")
def reference_run():
    start = time.perf_counter()
    run = simulate_run(TABLE_CONFIG)
    elapsed = time.perf_counter() - start
    return run, elapsed


def test_criterion_1_closed_form_sustainability():
    start = time.perf_counter()
    metrics = run_round_robin(q_participants=8, rounds=80)
    elapsed = time.perf_counter() - start
    uploads = list(round_robin_uploads(metrics))
    assert len(uploads) == 80
    for _, coins, x in uploads:
        assert coins == closed_form_coins(x, 8)  # zero tolerance
    assert elapsed < 1.0


def test_criterion_2_quadratic_citation_growth(reference_run):
    run, elapsed = reference_run
    assert elapsed < 30.0
    totals = run.metrics.citation_cumulative  # totals[r-1] is after round r
    second_diffs = [
        totals[r + 1] - 2.0 * totals[r] + totals[r - 1]
        for r in range(99, 199)  # centered on rounds 100..199
    ]
    mean = sum(second_diffs) / len(second_diffs)
    assert mean > 0.0


def test_criterion_3_accessibility_fixed_point(reference_run):
    run, elapsed = reference_run
    assert elapsed < 30.0
    fixed = trainer_fixed_point(TABLE_CONFIG.q_mo_and_t, TABLE_CONFIG.s)
    assert fixed == pytest.approx(128 / 1.5)
    tail = run.metrics.trainer_count[-50:]
    mean = sum(tail) / len(tail)
    assert 0.9 * fixed <= mean <= 1.1 * fixed  # band [76.8, 93.9]


def test_criterion_4_version_distribution_stabilizes(reference_run):
    run, _ = reference_run
    shares_by_round = run.metrics.bucket_shares
    at_150 = shares_by_round[149]
    assert at_150["none"] == 0.0
    latest_ten = sum(
        share for label, share in at_150.items() if label.startswith("latest")
    )
    assert latest_ten > 0.90
    last_30 = shares_by_round[-30:]
    for label in last_30[0]:
        values = [s[label] for s in last_30]
        assert max(values) - min(values) <= 0.10  # <= 10 percentage points


def _draw_feasible(rng: random.Random) -> EconomicParams:
    gap = rng.randrange(0, 6)
    coin_unit = rng.uniform(0.0, 2.0)
    base = EconomicParams(
        beta=rng.uniform(0.05, 0.95),
        s=rng.uniform(0.05, 0.95),
        b_mo=rng.uniform(0.0, 1.0),
        b_t=gap * coin_unit + rng.uniform(1e-6, 2.0),
        k_transmit=rng.uniform(0.0, 1e-4),
        k_encrypt=rng.uniform(0.0, 1e-4),
        k_expand=rng.uniform(1.0, 4.0),
        model_size=rng.uniform(0.0, 1e5),
        p_comp=rng.uniform(0.0, 1e-8),
        data_volume=rng.uniform(0.0, 1e3),
        train_time=rng.uniform(0.0, 10.0),
        c_mine=rng.uniform(0.0, 0.1),
        c_gen_fhe_key=rng.uniform(0.0, 0.1),
        c_gen_td_case_unit=rng.uniform(0.0, 1e-3),
        c_verify_unit=rng.uniform(0.0, 1e-4),
        q_selected=rng.randrange(1, 9),
        q_selected_mo_avg=rng.uniform(0.5, 8.0),
        q_selected_t_avg=rng.uniform(0.5, 8.0),
        q_broadcast=rng.randrange(1, 17),
        q_deposit=rng.randrange(2, 65),
        q_deposit_less=1,
        q_hash_m=rng.randrange(1, 65),
        q_encrypted_m=rng.randrange(1, 65),
        q_cases=rng.randrange(1, 201),
        q_verified_m=rng.randrange(1, 65),
        v_rec_m=10 + gap,
        v_now_t=10,
        v_fhem=rng.randrange(5, 11),
        v_now_ebm=5,
        coin_unit=coin_unit,
    )
    return minimal_rewards(base, margin=rng.uniform(1e-9, 0.1))


def test_criterion_5_ir_ic_soundness():
    start = time.perf_counter()
    rng = random.Random(20240601)
    violations = 0
    for _ in range(10_000):
        p = _draw_feasible(rng)
        for role in ROLE_STRATEGIES:
            u_normal = strategy_utility(RoleStrategy(role, "N"), p)
            if u_normal < 0.0:
                violations += 1
            for alt in ROLE_STRATEGIES[role]:
                if alt == "N":
                    continue
                if u_normal <= strategy_utility(RoleStrategy(role, alt), p):
                    violations += 1
    assert violations == 0

    # Just-violating constructions, one per condition.
    delta = 1e-6
    base = _draw_feasible(random.Random(5))

    t1 = dataclasses.replace(
        base, r_cited=max(0.0, citation_reward_bounds(base)["T1"] - delta)
    )
    assert citation_reward_bounds(base)["T1"] > delta
    assert strategy_utility(RoleStrategy("MO", "N"), t1) < 0.0
    assert not check_ir(t1).entry("T1").satisfied

    heavy_training = dataclasses.replace(
        base, p_comp=1e-5, data_volume=1e3, train_time=10.0, model_size=1e4
    )
    t2 = dataclasses.replace(
        heavy_training,
        r_cited=citation_reward_bounds(heavy_training)["T2"] - delta,
    )
    assert strategy_utility(RoleStrategy("T", "N"), t2) < 0.0
    assert not check_ir(t2).entry("T2").satisfied

    t3 = dataclasses.replace(
        base, c_mine=0.02, q_deposit=32, r_deposit=0.02 / 32 - delta
    )
    assert strategy_utility(RoleStrategy("DBM", "N"), t3) < 0.0
    assert not check_ir(t3).entry("T3").satisfied

    costly_keys = dataclasses.replace(
        base, c_gen_fhe_key=1.0, c_mine=0.02, v_fhem=5, v_now_ebm=5, q_hash_m=10
    )
    t4_bound = (costly_keys.c_mine + costly_keys.k_transmit * costly_keys.k_expand
                * costly_keys.model_size + costly_keys.c_gen_fhe_key) / 10
    t4 = dataclasses.replace(costly_keys, r_hash_m=t4_bound - delta)
    assert strategy_utility(RoleStrategy("EBM", "N"), t4) < 0.0
    assert not check_ir(t4).entry("T4").satisfied

    # T7: deposit just below the model value. IR still holds, yet skipping
    # the training strictly beats Normal, so dominance must be flagged.
    gap_value = 2.0
    b_t = gap_value - delta
    training_cost = 1.0 + 0.5 * b_t + delta / 2.0
    t7 = EconomicParams(
        beta=0.5, s=0.5, coin_unit=1.0, v_rec_m=12, v_now_t=10,
        b_t=b_t, k_transmit=0.0, k_encrypt=0.0, q_broadcast=0,
        p_comp=training_cost, data_volume=1.0, train_time=1.0, model_size=1.0,
        r_cited=0.0,
    )
    ic7 = check_ic(t7)
    assert not ic7.conditions.entry("T7").satisfied
    assert strategy_utility(RoleStrategy("T", "N"), t7) > 0.0  # IR intact
    row = next(r for r in ic7.dominance if (r.role, r.alternative) == ("T", "NTr"))
    assert not row.normal_dominates

    # T8: citation reward just below the broadcast-covering bound makes
    # withholding the trained model strictly better than broadcasting it.
    t8_base = EconomicParams(
        beta=0.5, s=0.5, b_t=0.0, k_encrypt=1e-5, k_transmit=1e-6,
        k_expand=2.0, q_broadcast=10, model_size=1e4,
        q_selected_t_avg=2.0, v_rec_m=12, v_now_t=10,
    )
    t8_bound = citation_reward_bounds(t8_base)["T8"]
    assert t8_bound > delta
    t8 = dataclasses.replace(t8_base, r_cited=t8_bound - delta)
    ic8 = check_ic(t8)
    assert not ic8.conditions.entry("T8").satisfied
    row = next(r for r in ic8.dominance if (r.role, r.alternative) == ("T", "NBr"))
    assert not row.normal_dominates

    assert time.perf_counter() - start < 10.0


def _selection_oracle(bids, budget):
    k = min(budget, len(bids))
    if k <= 0:
        return [], []
    ranked = sorted(bids, key=lambda b: (-b.amount, b.trainer_id))
    ids = [b.trainer_id for b in ranked[:k]]
    pay = [ranked[i + 1].amount for i in range(k - 1)] + [ranked[k - 1].amount]
    return ids, pay


def test_criterion_6_selection_matches_oracle_exhaustively():
    checked = 0
    for size in range(0, 7):
        for combo in itertools.combinations_with_replacement(range(6), size):
            bids = [Bid(f"t{i}", float(v)) for i, v in enumerate(combo)]
            for budget in range(0, 7):
                got = select_trainers(bids, b_mo=1.0, budget=float(budget))
                want_ids, want_pay = _selection_oracle(bids, budget)
                assert list(got.selected) == want_ids
                assert list(got.deposits) == want_pay
                checked += 1
    assert checked == 924 * 7


def test_criterion_7_settlement_verification_concrete():
    rng = random.Random(31337)
    for _ in range(100):
        pair = crypto.fhe_keygen(rng)
        dim = 3
        target = crypto.ModelWeights(
            0, tuple(rng.uniform(-1, 1) for _ in range(dim + 1))
        )
        offset = [rng.gauss(0.0, 1.0) for _ in range(dim + 1)]
        norm = sum(o * o for o in offset) ** 0.5
        scale = rng.uniform(0.5, 1.5) / norm
        start = crypto.ModelWeights(
            4, tuple(t + o * scale for t, o in zip(target.weights, offset))
        )
        inputs = [tuple(rng.uniform(-1, 1) for _ in range(dim)) for _ in range(10)]
        truths = crypto.case_table(truths=[(crypto.evaluate(target, x),) for x in inputs])
        cases = crypto.case_table(inputs, pk=pair.pk)

        honest = crypto.train_toward(start, target, 0.5)
        honest_ct = crypto.fhe_encrypt(pair.pk, honest)
        honest_committed = crypto.ciphertext_digest(honest_ct)
        honest_outputs = [crypto.evaluate(honest, x) for x in inputs]
        verdict = crypto.verify_submission(honest_committed, honest_ct, honest_outputs, cases)
        assert verdict == "Ok"

        # output substitution: commits its model but claims other outputs
        substituted = [crypto.evaluate(start, x) for x in inputs]
        verdict = crypto.verify_submission(honest_committed, honest_ct, substituted, cases)
        assert verdict == "OutputMismatch"

        # post-commitment swap: different ciphertext than committed
        swapped = crypto.ModelWeights(
            honest.version, tuple(w + 0.01 for w in honest.weights)
        )
        swapped_ct = crypto.fhe_encrypt(pair.pk, swapped)
        verdict = crypto.verify_submission(
            honest_committed, swapped_ct,
            [crypto.evaluate(swapped, x) for x in inputs], cases,
        )
        assert verdict == "HashMismatch"

        # white-noise lazy worker: passes the hash-difference filter but
        # ranks strictly below the improved honest trainer
        lazy = perturb_with_noise(start, rng, scale=1e-3)
        assert crypto.model_digest(lazy) != crypto.model_digest(start)
        lazy_ct = crypto.fhe_encrypt(pair.pk, lazy)
        lazy_outputs = [crypto.evaluate(lazy, x) for x in inputs]
        verdict = crypto.verify_submission(
            crypto.ciphertext_digest(lazy_ct), lazy_ct, lazy_outputs, cases
        )
        assert verdict == "Ok"  # consistency alone does not prove training
        perf_old = crypto.performance_index([crypto.evaluate(start, x) for x in inputs], truths)
        perf_honest = crypto.performance_index(honest_outputs, truths)
        perf_lazy = crypto.performance_index(lazy_outputs, truths)
        assert perf_honest < perf_old  # honest training improved
        assert perf_lazy > perf_honest  # lazy strictly below honest
        ranking = rank_and_select(
            [("mo", "honest", perf_honest), ("mo", "lazy", perf_lazy)],
            s=0.5,
        )
        assert ranking == ["honest"]


def test_criterion_8_chain_integrity():
    config = SimConfig(
        q_miners=8, q_mo_and_t=8,
        q_selection_limit=2, q_cases=5, rounds=6, seed=13,
    )
    run = simulate_run(config)
    text = chain_to_jsonl(run.state.chain)
    assert verify_chain_dump(text) == []
    raw = text.encode("utf-8")
    rng = random.Random(4242)
    detected = 0
    for _ in range(1000):
        pos = rng.randrange(len(raw))
        replacement = rng.randrange(256)
        while replacement == raw[pos]:
            replacement = rng.randrange(256)
        mutated = raw[:pos] + bytes([replacement]) + raw[pos + 1:]
        try:
            decoded = mutated.decode("utf-8")
        except UnicodeDecodeError:
            detected += 1
            continue
        if verify_chain_dump(decoded):
            detected += 1
    assert detected == 1000  # 100% of mutations

    # every wrong-successor kind pair is rejected
    from relaysim.chain import (
        DepositPayload, EncryptionPayload, SettlementPayload, TestingPayload, new_chain,
    )

    empty = {
        "DB": DepositPayload((), ("m", 0.0)),
        "EB": EncryptionPayload(b"pk", ()),
        "TB": TestingPayload((), (), ()),
        "SB": SettlementPayload((), ()),
    }
    rejected = 0
    for tip_height in range(1, 5):  # tips of kind DB, EB, TB, SB
        for wrong in ("DB", "EB", "TB", "SB"):
            chain = new_chain()
            for h in range(1, tip_height + 1):
                kind = expected_kind(h)
                tip = chain.tip
                append_block(chain, Block(BlockHeader(
                    h, 1, kind, block_digest(tip), 0, h
                ), empty[kind]))
            if wrong == expected_kind(chain.tip.header.height + 1):
                continue
            header = BlockHeader(
                chain.tip.header.height + 1, 1, wrong,
                block_digest(chain.tip), 0, chain.tip.header.timestamp + 1,
            )
            with pytest.raises(KindOrderViolation):
                append_block(chain, Block(header, empty[wrong]))
            rejected += 1
    assert rejected == 12


def test_criterion_9_determinism_byte_identical_csv(reference_run):
    run, _ = reference_run
    second = simulate_run(TABLE_CONFIG)
    first_csv = run.metrics.to_csv().encode("utf-8")
    second_csv = second.metrics.to_csv().encode("utf-8")
    assert first_csv == second_csv
