import dataclasses
import hashlib
import json
import math
import pickle
import random
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim.cli import BadOverride, coerce_fields
from relaysim.economics import (
    _NON_NEGATIVE_FIELDS,
    ROLE_STRATEGIES,
    ConditionEntry,
    ConditionReport,
    DegenerateDenominator,
    DivergentSeries,
    DominanceRow,
    EconomicParams,
    EconomicsError,
    HalfPlane,
    IncentiveReport,
    InvalidEconomicParams,
    InvalidStrategyForRole,
    MinerRewardBounds,
    RoleStrategy,
    check_ic,
    check_ir,
    citation_reward_bounds,
    evaluate_conditions,
    minimal_citation_reward,
    minimal_miner_rewards,
    minimal_rewards,
    strategy_utility,
)


def rs(role, strategy):
    return RoleStrategy(role, strategy)


BASE = EconomicParams(
    beta=0.5,
    s=0.5,
    b_mo=0.25,
    b_t=1.5,
    k_transmit=1e-6,
    k_encrypt=1e-6,
    k_expand=2.0,
    model_size=1e4,
    p_comp=1e-9,
    data_volume=1e3,
    train_time=10.0,
    c_mine=0.02,
    c_gen_fhe_key=0.05,
    c_gen_td_case_unit=1e-4,
    c_verify_unit=1e-5,
    q_selected=4,
    q_selected_mo_avg=2.0,
    q_selected_t_avg=2.0,
    q_broadcast=8,
    q_deposit=32,
    q_deposit_less=16,
    q_hash_m=24,
    q_encrypted_m=64,
    q_cases=100,
    q_verified_m=20,
    v_rec_m=10,
    v_now_t=9,
    v_fhem=10,
    v_now_ebm=6,
)


def _reference_range_error(values: dict) -> tuple[type, str] | None:
    """The error EconomicParams raises for ``values``, whose beta, s,
    k_expand and versions are valid: the first field in field order that is
    not a number in [0, largest float], then the count product; None if
    neither."""
    for f in dataclasses.fields(EconomicParams):
        if f.name in ("beta", "s", "k_expand"):
            continue
        value = values[f.name]
        if isinstance(value, str):
            return TypeError, "'<=' not supported between instances of 'int' and 'str'"
        if value != value or value < 0 or value > sys.float_info.max:  # NaN, then the range
            return InvalidEconomicParams, (
                f"{f.name} must be >= 0 and at most the largest finite float, got {value}")
    q_verified_m, q_cases = values["q_verified_m"], values["q_cases"]
    if q_verified_m * q_cases <= sys.float_info.max:
        return None
    return InvalidEconomicParams, (
        "q_verified_m * q_cases must be at most the largest finite float, "
        f"got q_verified_m={q_verified_m}, q_cases={q_cases}")


_FLOAT_FIELD_NAMES = [f.name for f in dataclasses.fields(EconomicParams) if f.type == "float"]
# beta < 1, 0 < s < 1 and k_expand >= 1 hold for few ints; the rest take any
# int up to the largest float.
_INT_SETTABLE_FLOAT_FIELDS = [name for name in _FLOAT_FIELD_NAMES if name in _NON_NEGATIVE_FIELDS]


def _bits(value):
    """``value`` with every float packed, so NaN, -0.0 and ulps compare."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value


def _field_bits(p: EconomicParams) -> list:
    return [(type(v), _bits(v)) for v in dataclasses.astuple(p)]


def _evaluation_bits(p: EconomicParams):
    """T1-T8 and the dominance table, every float packed; or the error."""
    try:
        return _bits([dataclasses.astuple(report) for report in evaluate_conditions(p)])
    except EconomicsError as exc:
        return type(exc), str(exc)


class TestParamsInvariants:
    def test_beta_one_diverges(self):
        with pytest.raises(DivergentSeries):
            EconomicParams(beta=1.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(InvalidEconomicParams):
            EconomicParams(c_mine=-0.1)

    def test_s_bounds(self):
        with pytest.raises(InvalidEconomicParams):
            EconomicParams(s=0.0)
        with pytest.raises(InvalidEconomicParams):
            EconomicParams(s=1.0)

    def test_version_order(self):
        with pytest.raises(InvalidEconomicParams):
            EconomicParams(v_rec_m=3, v_now_t=4)
        with pytest.raises(InvalidEconomicParams):
            EconomicParams(v_fhem=1, v_now_ebm=2)

    def test_expand_factor(self):
        with pytest.raises(InvalidEconomicParams):
            EconomicParams(k_expand=0.5)

    @pytest.mark.parametrize("field", ["b_t", "k_expand"])
    def test_nan_rejected(self, field):
        with pytest.raises(InvalidEconomicParams):
            EconomicParams(**{field: math.nan})

    @pytest.mark.parametrize("q_verified_m, q_cases", [
        (10**200, 10**200), (2, int(sys.float_info.max)), (1e200, 1e200),
    ], ids=["both-huge", "one-past-the-float-range", "float-counts"])
    def test_count_product_past_the_float_range_rejected(self, q_verified_m, q_cases):
        # Each count passes the range check; T6 multiplies the two before
        # any float is made, which raised OverflowError mid-evaluation.
        with pytest.raises(InvalidEconomicParams) as info:
            dataclasses.replace(BASE, q_verified_m=q_verified_m, q_cases=q_cases)
        assert str(info.value) == (
            "q_verified_m * q_cases must be at most the largest finite float, "
            f"got q_verified_m={q_verified_m}, q_cases={q_cases}")
        # At the largest float the product still converts: every evaluation runs.
        p = dataclasses.replace(BASE, q_verified_m=1, q_cases=int(sys.float_info.max))
        check_ir(p), check_ic(p), minimal_rewards(p)

    # One or two of the fields checked in the range loop, each set to a
    # value that fails it; with no bad field, the two counts may be set
    # so that only their product is out of range.
    _BAD_VALUES = [math.nan, math.inf, -math.inf, -1.0, -5e-324, 10**400, "1"]

    @settings(max_examples=300)
    @given(bad=st.dictionaries(st.sampled_from(_NON_NEGATIVE_FIELDS),
                               st.sampled_from(_BAD_VALUES), max_size=2),
           huge_product=st.booleans())
    def test_range_check_reports_the_first_bad_field(self, bad, huge_product):
        values = dataclasses.asdict(BASE)
        if huge_product:
            values.update(q_verified_m=10**200, q_cases=10**200)
        values.update(bad)
        expected = _reference_range_error(values)
        if expected is None:
            assert EconomicParams(**values) == BASE
            return
        with pytest.raises(expected[0]) as info:
            EconomicParams(**values)
        assert (type(info.value), str(info.value)) == expected

    def test_expand_factor_past_the_float_range_rejected(self):
        # It passed the check as an int, and overflowed where a cost used it.
        with pytest.raises(InvalidEconomicParams) as info:
            EconomicParams(k_expand=10**400)
        assert str(info.value) == f"k_expand must be finite and >= 1, got {10**400}"

    @settings(max_examples=200)
    @given(ints=st.dictionaries(st.sampled_from(_INT_SETTABLE_FLOAT_FIELDS),
                                st.integers(0, int(sys.float_info.max)), max_size=4))
    # Kept as ints, each pair multiplied past the float range before any
    # float was made: OverflowError in the training cost and in T1's slack.
    @example(ints={"p_comp": 10**200, "data_volume": 10**200})
    @example(ints={"q_selected_mo_avg": 10**200, "r_cited": 10**200})
    def test_int_in_a_float_field_becomes_that_float(self, ints):
        p = EconomicParams(**ints)
        reference = EconomicParams(**{name: float(v) for name, v in ints.items()})
        assert _field_bits(p) == _field_bits(reference)
        assert {type(getattr(p, name)) for name in _FLOAT_FIELD_NAMES} == {float}
        assert _evaluation_bits(p) == _evaluation_bits(reference)

    def test_cross_role_strategy_rejected(self):
        with pytest.raises(InvalidStrategyForRole):
            RoleStrategy("MO", "NTr")
        with pytest.raises(InvalidStrategyForRole):
            RoleStrategy("SBM", "NPA")
        with pytest.raises(InvalidStrategyForRole):
            RoleStrategy("X", "N")


class TestStrategyUtility:
    def test_dbm_normal(self):
        p = EconomicParams(q_deposit=32, r_deposit=0.001, c_mine=0.02)
        assert strategy_utility(rs("DBM", "N"), p) == pytest.approx(0.012)

    def test_dbm_packing_improper_is_pure_mining_loss(self):
        p = EconomicParams(c_mine=0.02)
        assert strategy_utility(rs("DBM", "PI"), p) == -0.02

    def test_mo_normal(self):
        p = EconomicParams(
            q_selected_mo_avg=2.0, r_cited=0.5, beta=0.5, q_selected=4,
            s=0.5, b_mo=0.25, k_transmit=1e-6, model_size=1e4,
        )
        assert strategy_utility(rs("MO", "N"), p) == pytest.approx(1.49)

    def test_trainer_not_training(self):
        p = EconomicParams(
            v_rec_m=10, v_now_t=7, coin_unit=1.0, b_t=4.0,
            k_transmit=1e-6, model_size=1e4,
        )
        assert strategy_utility(rs("T", "NTr"), p) == pytest.approx(-1.01)

    def test_mo_not_transmitting(self):
        p = EconomicParams(q_selected=4, b_mo=0.25)
        assert strategy_utility(rs("MO", "NTm"), p) == pytest.approx(-1.0)

    def test_npa_requires_valid_partial_count(self):
        p = EconomicParams(q_deposit=4, q_deposit_less=0)
        with pytest.raises(InvalidEconomicParams):
            strategy_utility(rs("DBM", "NPA"), p)

    @given(
        beta=st.floats(0.0, 0.99),
        r_cited=st.floats(0.0, 10.0),
        q_sel=st.integers(0, 10),
    )
    def test_purity(self, beta, r_cited, q_sel):
        p = EconomicParams(beta=beta, r_cited=r_cited, q_selected=q_sel)
        for role, strategies in ROLE_STRATEGIES.items():
            for strategy in strategies:
                if (role, strategy) == ("DBM", "NPA"):
                    continue
                first = strategy_utility(rs(role, strategy), p)
                second = strategy_utility(rs(role, strategy), p)
                assert first == second


class TestMonotonicity:
    def test_dbm_utility_increases_in_deposit_count(self):
        p = dataclasses.replace(BASE, r_deposit=0.001)
        values = [
            strategy_utility(rs("DBM", "N"), dataclasses.replace(p, q_deposit=q))
            for q in range(1, 40, 3)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_mo_utility_decreases_in_own_deposit(self):
        values = [
            strategy_utility(rs("MO", "N"), dataclasses.replace(BASE, b_mo=b))
            for b in [0.0, 0.1, 0.2, 0.5, 1.0, 2.0]
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_trainer_utility_increases_in_citation_reward(self):
        values = [
            strategy_utility(rs("T", "N"), dataclasses.replace(BASE, r_cited=r))
            for r in [0.0, 0.1, 0.5, 1.0, 2.0]
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCheckIr:
    def test_minimal_rewards_plus_epsilon_satisfies_all(self):
        p = minimal_rewards(BASE, margin=1e-9)
        report = check_ir(p)
        assert report.all_satisfied
        assert [e.condition for e in report.entries] == ["T1", "T2", "T3", "T4", "T5", "T6"]

    def test_deposit_reward_below_bound_fails_t3(self):
        p = dataclasses.replace(
            minimal_rewards(BASE, margin=1e-9),
            r_deposit=BASE.c_mine / BASE.q_deposit - 1e-6,
        )
        report = check_ir(p)
        assert not report.entry("T3").satisfied
        assert report.failed() == ["T3"]

    def test_zero_economy_sits_on_every_boundary(self):
        p = EconomicParams(
            beta=0.5, s=0.5, coin_unit=0.0, k_expand=1.0,
            v_rec_m=0, v_now_t=0, v_fhem=0, v_now_ebm=0,
        )
        report = check_ir(p)
        assert report.all_satisfied
        for entry in report.entries:
            assert entry.slack == 0.0

    def test_report_json_fields(self):
        data = [entry.to_dict() for entry in check_ir(BASE).entries]
        assert len(data) == 6
        assert set(data[0]) == {"condition", "lhs", "bound", "slack", "satisfied"}


class TestCheckIc:
    def test_t7_boundary_fails_strict(self):
        p = dataclasses.replace(BASE, b_t=(BASE.v_rec_m - BASE.v_now_t) * BASE.coin_unit)
        report = check_ic(p)
        assert not report.conditions.entry("T7").satisfied

    def test_t7_margin_passes_and_training_dominates(self):
        gap_value = (BASE.v_rec_m - BASE.v_now_t) * BASE.coin_unit
        p = minimal_rewards(
            dataclasses.replace(BASE, b_t=gap_value + 0.5), margin=1e-9
        )
        report = check_ic(p)
        assert report.conditions.entry("T7").satisfied
        row = next(r for r in report.dominance if (r.role, r.alternative) == ("T", "NTr"))
        assert row.utility_gap > 0

    def test_citation_reward_at_t8_bound_plus_eps(self):
        eps = 1e-6
        base = dataclasses.replace(BASE, b_t=0.01)  # small bid keeps the T8 bound positive
        bound = citation_reward_bounds(base)["T8"]
        assert bound > 0
        p = dataclasses.replace(base, r_cited=bound + eps)
        report = check_ic(p)
        row = next(r for r in report.dominance if (r.role, r.alternative) == ("T", "NBr"))
        expected = eps * base.q_selected_t_avg * base.beta / (1.0 - base.beta)
        assert row.utility_gap == pytest.approx(expected, rel=1e-6)
        assert report.conditions.entry("T8").satisfied

    def test_dominance_table_covers_all_alternatives(self):
        report = check_ic(minimal_rewards(BASE, margin=1e-6))
        pairs = {(r.role, r.alternative) for r in report.dominance}
        assert pairs == {
            ("MO", "NTm"), ("T", "NTr"), ("T", "NBr"), ("DBM", "NPA"),
            ("DBM", "PI"), ("EBM", "NG"), ("TBM", "IT"), ("SBM", "IRa"),
        }


class TestMinimalCitationReward:
    def test_t1_binding(self):
        p = EconomicParams(
            beta=0.5, q_selected_mo_avg=2.0, q_selected=4, s=0.5, b_mo=0.25,
            k_transmit=1e-6, model_size=1e4, b_t=0.1, q_selected_t_avg=1.0,
        )
        bounds = citation_reward_bounds(p)
        assert bounds["T2"] < 0 and bounds["T8"] < 0
        assert minimal_citation_reward(p) == pytest.approx(0.1275)

    def test_all_costs_zero_clamps_to_zero(self):
        p = EconomicParams(beta=0.5, q_selected_mo_avg=1.0, q_selected_t_avg=1.0)
        assert minimal_citation_reward(p) == 0.0

    def test_t2_binding_when_training_cost_dominates(self):
        p = dataclasses.replace(BASE, p_comp=1e-5, data_volume=1e3, train_time=10.0)
        bounds = citation_reward_bounds(p)
        assert bounds["T2"] > bounds["T1"] and bounds["T2"] > bounds["T8"]
        assert minimal_citation_reward(p) == pytest.approx(bounds["T2"])

    def test_degenerate_denominators(self):
        with pytest.raises(DegenerateDenominator):
            minimal_citation_reward(dataclasses.replace(BASE, q_selected_mo_avg=0.0))
        with pytest.raises(DegenerateDenominator):
            minimal_citation_reward(dataclasses.replace(BASE, q_selected_t_avg=0.0))
        with pytest.raises(DegenerateDenominator):
            minimal_citation_reward(dataclasses.replace(BASE, beta=0.0))
        # Both positive, but their product rounds to zero.
        with pytest.raises(DegenerateDenominator, match=r"q_selected_t_avg \* beta > 0, got 0.0"):
            minimal_citation_reward(dataclasses.replace(BASE, q_selected_t_avg=5e-324))
        with pytest.raises(DegenerateDenominator):
            minimal_rewards(dataclasses.replace(BASE, beta=1e-300, q_selected_t_avg=1e-300))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_infimum_property(self, data):
        p = _random_base(data)
        minimum = minimal_citation_reward(p)
        eps = data.draw(st.floats(1e-9, 1.0))
        above = dataclasses.replace(p, r_cited=minimum + eps)
        assert check_ir(above).entry("T1").satisfied
        assert check_ir(above).entry("T2").satisfied
        assert check_ic(above).conditions.entry("T8").satisfied
        if minimum > 0:
            below = dataclasses.replace(p, r_cited=max(0.0, minimum - eps))
            ir = check_ir(below)
            ic = check_ic(below)
            assert (
                not ir.entry("T1").satisfied
                or not ir.entry("T2").satisfied
                or not ic.conditions.entry("T8").satisfied
            )


class TestMinimalMinerRewards:
    def test_deposit_bound(self):
        p = dataclasses.replace(BASE, c_mine=0.02, q_deposit=32)
        assert minimal_miner_rewards(p).r_deposit_min == pytest.approx(0.000625)

    def test_hash_bound_clamps_when_model_value_covers_costs(self):
        p = dataclasses.replace(
            BASE, v_fhem=10, v_now_ebm=0, c_mine=0.02, c_gen_fhe_key=0.05,
            k_transmit=1e-6, k_expand=2.0, model_size=1e4,
        )
        assert minimal_miner_rewards(p).r_hash_m_min == 0.0

    def test_tbm_halfplane_coefficients(self):
        p = dataclasses.replace(
            BASE, q_encrypted_m=64, q_cases=100, c_mine=0.02, c_gen_td_case_unit=1e-4,
        )
        hp = minimal_miner_rewards(p).tbm_constraint
        assert (hp.a, hp.b) == (64.0, 100.0)
        assert hp.c == pytest.approx(0.03)
        x, y = hp.equal_split()
        assert hp.a * x + hp.b * y >= hp.c
        assert 64 * x == pytest.approx(0.015) and 100 * y == pytest.approx(0.015)

    def test_zero_counts_raise(self):
        with pytest.raises(DegenerateDenominator):
            minimal_miner_rewards(dataclasses.replace(BASE, q_deposit=0, q_deposit_less=0))
        with pytest.raises(DegenerateDenominator):
            minimal_miner_rewards(dataclasses.replace(BASE, q_hash_m=0))
        with pytest.raises(DegenerateDenominator):
            minimal_miner_rewards(dataclasses.replace(BASE, q_verified_m=0))


def _random_base(data) -> EconomicParams:
    """A random valid parameter set with positive counts and a T7-safe bid."""
    beta = data.draw(st.floats(0.05, 0.95))
    s = data.draw(st.floats(0.05, 0.95))
    gap = data.draw(st.integers(0, 5))
    coin_unit = data.draw(st.floats(0.0, 2.0))
    return EconomicParams(
        beta=beta,
        s=s,
        b_mo=data.draw(st.floats(0.0, 1.0)),
        b_t=gap * coin_unit + data.draw(st.floats(1e-6, 2.0)),
        k_transmit=data.draw(st.floats(0.0, 1e-4)),
        k_encrypt=data.draw(st.floats(0.0, 1e-4)),
        k_expand=data.draw(st.floats(1.0, 4.0)),
        model_size=data.draw(st.floats(0.0, 1e5)),
        p_comp=data.draw(st.floats(0.0, 1e-8)),
        data_volume=data.draw(st.floats(0.0, 1e3)),
        train_time=data.draw(st.floats(0.0, 10.0)),
        c_mine=data.draw(st.floats(0.0, 0.1)),
        c_gen_fhe_key=data.draw(st.floats(0.0, 0.1)),
        c_gen_td_case_unit=data.draw(st.floats(0.0, 1e-3)),
        c_verify_unit=data.draw(st.floats(0.0, 1e-4)),
        q_selected=data.draw(st.integers(1, 8)),
        q_selected_mo_avg=data.draw(st.floats(0.5, 8.0)),
        q_selected_t_avg=data.draw(st.floats(0.5, 8.0)),
        q_broadcast=data.draw(st.integers(1, 16)),
        q_deposit=data.draw(st.integers(2, 64)),
        q_deposit_less=1,
        q_hash_m=data.draw(st.integers(1, 64)),
        q_encrypted_m=data.draw(st.integers(1, 64)),
        q_cases=data.draw(st.integers(1, 200)),
        q_verified_m=data.draw(st.integers(1, 64)),
        v_rec_m=10 + gap,
        v_now_t=10,
        v_fhem=data.draw(st.integers(5, 10)),
        v_now_ebm=5,
        coin_unit=coin_unit,
    )


class TestFeasibleRegion:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_projected_params_satisfy_ir_and_dominance(self, data):
        p = minimal_rewards(_random_base(data), margin=data.draw(st.floats(1e-9, 0.1)))
        assert check_ir(p).all_satisfied
        for role in ROLE_STRATEGIES:
            assert strategy_utility(rs(role, "N"), p) >= 0.0
        ic = check_ic(p)
        assert ic.all_satisfied
        for row in ic.dominance:
            assert row.utility_gap > 0.0


class TestParamsFromMapping:
    def test_round_trip(self):
        p = EconomicParams(**coerce_fields(
            EconomicParams, {"beta": "0.4", "q_deposit": "16", "r_cited": "0.25"}))
        assert p.beta == 0.4 and p.q_deposit == 16 and p.r_cited == 0.25

    def test_unknown_key_rejected(self):
        with pytest.raises(BadOverride):
            coerce_fields(EconomicParams, {"bogus": "1"})

    def test_non_numeric_rejected(self):
        with pytest.raises(BadOverride):
            coerce_fields(EconomicParams, {"beta": "fast"})

    def test_non_integer_count_rejected(self):
        with pytest.raises(BadOverride):
            coerce_fields(EconomicParams, {"q_deposit": "1.5"})
        with pytest.raises(BadOverride):
            coerce_fields(EconomicParams, {"q_deposit": "16.0"})


def _golden_params(rng: random.Random) -> EconomicParams:
    """A seeded parameter set with explicit reward rates (not solved ones)."""
    q_deposit = rng.randint(2, 64)
    gap = rng.randint(0, 5)
    return EconomicParams(
        beta=rng.choice([0.0, rng.uniform(0.0, 0.95)]),
        s=rng.uniform(0.05, 0.95),
        b_mo=rng.uniform(0.0, 1.0),
        b_t=rng.uniform(0.0, 6.0),
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
        q_selected=rng.randint(0, 8),
        q_selected_mo_avg=rng.uniform(0.0, 8.0),
        q_selected_t_avg=rng.uniform(0.0, 8.0),
        q_broadcast=rng.randint(0, 16),
        q_deposit=q_deposit,
        q_deposit_less=rng.randint(1, q_deposit - 1),
        q_hash_m=rng.randint(1, 64),
        q_encrypted_m=rng.randint(0, 64),
        q_cases=rng.randint(1, 200),
        q_verified_m=rng.randint(1, 64),
        v_rec_m=10 + gap,
        v_now_t=10,
        v_fhem=rng.randint(5, 10),
        v_now_ebm=5,
        coin_unit=rng.uniform(0.0, 2.0),
        r_cited=rng.uniform(0.0, 1.0),
        r_deposit=rng.uniform(0.0, 0.01),
        r_hash_m=rng.uniform(0.0, 0.01),
        r_encrypted_m=rng.uniform(0.0, 0.01),
        r_case=rng.uniform(0.0, 0.01),
        r_verified_m=rng.uniform(0.0, 0.01),
        r_verify=rng.uniform(0.0, 1e-3),
    )


def _golden_record(p: EconomicParams) -> dict:
    ir, ic = check_ir(p), check_ic(p)
    return {
        "utilities": [
            strategy_utility(rs(role, strategy), p)
            for role, strategies in ROLE_STRATEGIES.items()
            for strategy in strategies
        ],
        "conditions": [
            [e.condition, e.lhs, e.bound]
            for e in ir.entries + ic.conditions.entries
        ],
        "gaps": [row.utility_gap for row in ic.dominance],
        "miner": minimal_miner_rewards(p).to_dict(),
    }


def _closed_form_citation_bounds(p: EconomicParams) -> dict[str, float]:
    """T1/T2/T8 rate bounds written out in closed form (the reference)."""
    t1 = (1.0 - p.beta) * (
        p.q_selected * (1.0 - p.s) * p.b_mo + p.k_transmit * p.model_size
    ) / p.q_selected_mo_avg
    t2 = (1.0 - p.beta) / (p.q_selected_t_avg * p.beta) * (
        p.p_comp * p.data_volume * p.train_time * p.model_size
        + (1.0 - p.s) * p.b_t
        + p.k_transmit * p.model_size
        + p.k_encrypt * p.model_size
        + p.q_broadcast * p.k_transmit * p.k_expand * p.model_size
        - (p.v_rec_m - p.v_now_t + 1) * p.coin_unit
    )
    t8 = (1.0 - p.beta) / (p.q_selected_t_avg * p.beta) * (
        (-p.s) * p.b_t
        + p.k_encrypt * p.model_size
        + p.q_broadcast * p.k_transmit * p.k_expand * p.model_size
    )
    return {"T1": t1, "T2": t2, "T8": t8}


class TestGoldenEconomics:
    # SHA-256 of the JSON of every utility, condition side, dominance gap
    # and minimal miner bound over 302 seeded parameter sets, pinned so
    # that rewriting a formula cannot change a single bit of any value.
    GOLDEN = "1499bc198e75ab475079d7a3398010f8d60cd7634f41359a9c459c43470ef35d"

    def test_seeded_values_are_pinned(self):
        rng = random.Random(20261018)
        sets = [BASE, dataclasses.replace(BASE, r_cited=0.4, r_deposit=1e-3)]
        sets += [_golden_params(rng) for _ in range(300)]
        blob = json.dumps([_golden_record(p) for p in sets]).encode()
        assert hashlib.sha256(blob).hexdigest() == self.GOLDEN

    @settings(max_examples=300)
    @given(data=st.data())
    def test_citation_bounds_match_closed_forms(self, data):
        p = _random_base(data)
        bounds = citation_reward_bounds(p)
        reference = _closed_form_citation_bounds(p)
        assert bounds["T1"] == reference["T1"]
        for name in ("T2", "T8"):
            tolerance = 4 * max(math.ulp(bounds[name]), math.ulp(reference[name]))
            assert abs(bounds[name] - reference[name]) <= tolerance


def _replace_reference(p: EconomicParams, margin: float) -> EconomicParams:
    """minimal_rewards written with dataclasses.replace (the reference)."""
    miner = minimal_miner_rewards(p)
    r_encrypted_m, r_case = miner.tbm_constraint.equal_split()
    r_verified_m, r_verify = miner.sbm_constraint.equal_split()
    return dataclasses.replace(
        p,
        r_cited=minimal_citation_reward(p) + margin,
        r_deposit=miner.r_deposit_min + margin,
        r_hash_m=miner.r_hash_m_min + margin,
        r_encrypted_m=r_encrypted_m + margin,
        r_case=r_case + margin,
        r_verified_m=r_verified_m + margin,
        r_verify=r_verify + margin,
    )


def _outcome(solve, p: EconomicParams, margin: float):
    """Each field's type and bits (floats packed, ints as they are), or the error."""
    try:
        solved = solve(p, margin)
    except EconomicsError as exc:
        return type(exc), str(exc)
    values = [getattr(solved, f.name) for f in dataclasses.fields(solved)]
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in values]


class TestMinimalRewardsExact:
    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           margin=st.one_of(st.sampled_from([0.0, sys.float_info.max]),
                            st.floats(0.0, 0.1), st.floats(0.0, sys.float_info.max)))
    def test_matches_the_replace_reference_bit_for_bit(self, rng, margin):
        # Parameter sets drawn as TestGoldenEconomics draws them, so some
        # raise (a zero beta or count) and the error must match too.
        p = _golden_params(rng)
        assert _outcome(minimal_rewards, p, margin) == _outcome(_replace_reference, p, margin)

    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           margin=st.one_of(st.just(0.0), st.floats(0.0, 0.1)))
    def test_cannot_be_told_from_the_keyword_built_set(self, rng, margin):
        p = _golden_params(rng)
        try:
            reference = _replace_reference(p, margin)
        except EconomicsError:
            return  # the error is compared in the test above
        solved = minimal_rewards(p, margin)
        assert type(solved) is EconomicParams
        assert list(vars(solved)) == [f.name for f in dataclasses.fields(EconomicParams)]
        assert solved == reference
        assert hash(solved) == hash(reference)
        assert repr(solved) == repr(reference)
        assert pickle.loads(pickle.dumps(solved)) == reference

    def test_overflow_to_inf_raises_the_same_message(self):
        # r_deposit_min is about 3e306, so adding the largest float gives inf.
        p = dataclasses.replace(BASE, c_mine=1e308)
        message = "r_deposit must be >= 0 and at most the largest finite float, got inf"
        with pytest.raises(InvalidEconomicParams) as info:
            minimal_rewards(p, sys.float_info.max)
        assert str(info.value) == message
        reference = _outcome(_replace_reference, p, sys.float_info.max)
        assert reference == (InvalidEconomicParams, message)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, -1.0, -5e-324, 10**400],
                             ids=["nan", "inf", "-inf", "-1", "negative-subnormal", "huge-int"])
    def test_bad_margin_rejected_before_any_work(self, margin):
        # q_deposit=0 would fail the T3 bound; the margin is refused first.
        p = dataclasses.replace(BASE, q_deposit=0, q_deposit_less=0)
        for params in (BASE, p):
            with pytest.raises(InvalidEconomicParams) as info:
                minimal_rewards(params, margin)
            assert str(info.value) == f"margin must be finite and >= 0, got {margin}"


class TestRecords:
    ENTRY = ConditionEntry("T3", 0.5, 0.25, False)
    ROW = DominanceRow("DBM", "NPA", -0.125)
    PLANE = HalfPlane(64.0, 100.0, 0.5, "r_encrypted_m", "r_case")
    BOUNDS = MinerRewardBounds(0.000625, 0.0, PLANE,
                               HalfPlane(20.0, 0.0, 0.25, "r_verified_m", "r_verify"))
    FIELDS = [
        (ENTRY, ("condition", "lhs", "bound", "strict")),
        (ROW, ("role", "alternative", "utility_gap")),
        (PLANE, ("a", "b", "c", "x_name", "y_name")),
        (BOUNDS, ("r_deposit_min", "r_hash_m_min", "tbm_constraint", "sbm_constraint")),
    ]

    @pytest.mark.parametrize("record, names", FIELDS, ids=[type(r).__name__ for r, _ in FIELDS])
    def test_fields_are_read_only(self, record, names):
        for name in names:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            assert getattr(record, name) is before

    def test_to_dict_keys_and_values(self):
        assert list(self.ENTRY.to_dict().items()) == [
            ("condition", "T3"), ("lhs", 0.5), ("bound", 0.25), ("slack", 0.25),
            ("satisfied", True)]
        assert ConditionEntry("T7", 0.5, 0.5, True).to_dict()["satisfied"] is False
        assert list(self.ROW.to_dict().items()) == [
            ("role", "DBM"), ("alternative", "NPA"), ("utility_gap", -0.125),
            ("normal_dominates", False)]
        assert list(self.PLANE.to_dict().items()) == [
            ("a", 64.0), ("b", 100.0), ("c", 0.5), ("x", "r_encrypted_m"), ("y", "r_case"),
            ("equal_split", {"r_encrypted_m": 0.5 / 128.0, "r_case": 0.5 / 200.0})]
        assert list(self.BOUNDS.to_dict().items()) == [
            ("r_deposit_min", 0.000625), ("r_hash_m_min", 0.0),
            ("T5", self.PLANE.to_dict()),
            ("T6", {"a": 20.0, "b": 0.0, "c": 0.25, "x": "r_verified_m", "y": "r_verify",
                    "equal_split": {"r_verified_m": 0.0125, "r_verify": 0.0}})]

    def test_report_lookups(self):
        ir, ic = check_ir(BASE), check_ic(BASE)
        assert ir.entry("T3") == ConditionEntry("T3", 0.0, 0.02, False)
        with pytest.raises(KeyError):
            ir.entry("T7")
        assert ir.failed() == ["T1", "T3", "T5", "T6"]
        assert ic.conditions.failed() == []
        assert ic.failed() == ["DBM vs NPA", "DBM vs PI", "TBM vs IT", "SBM vs IRa"]
        report = IncentiveReport(
            ConditionReport((ConditionEntry("T7", 0.0, 0.0, True),)),
            (DominanceRow("MO", "NTm", 1.0), self.ROW))
        assert report.failed() == ["T7", "DBM vs NPA"]
        assert not report.all_satisfied
