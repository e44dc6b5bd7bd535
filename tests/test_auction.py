import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relaysim.auction import (
    AuctionError,
    SelectionResult,
    VersionOrder,
    ZeroLimit,
    ZeroUnitDeposit,
    match_round,
    mo_deposit_per_trainer,
    select_trainers,
    trainer_bid,
)


def bids_of(mapping):
    return list(mapping.items())


def selection_oracle(bids, b_mo, budget):
    """Independent restatement of the selection rule: sort descending,
    take k = min(floor(budget / b_mo), n), pay the next bid down except
    the last selected, who pays its own."""
    if b_mo <= 0:
        return [], []
    k = min(int(budget // b_mo), len(bids))
    if k <= 0:
        return [], []
    ranked = sorted(bids, key=lambda b: (-b[1], b[0]))
    chosen = ranked[:k]
    payments = [ranked[i + 1][1] for i in range(k - 1)] + [ranked[k - 1][1]]
    return [trainer_id for trainer_id, _ in chosen], payments


BAD_AMOUNTS = pytest.mark.parametrize("amount", [-1.0, math.nan, math.inf, -math.inf])


class UntouchedDeposits(dict):
    """An owner-deposit mapping that fails the test if a contract reads it."""

    def __getitem__(self, mo_id):
        raise AssertionError(f"a contract was built for {mo_id}")


class TestBidChecks:
    """A bid amount must be finite and >= 0; both entry points refuse any
    other before ranking a bid or building a contract or selection."""

    @BAD_AMOUNTS
    def test_match_round_refuses_before_any_contract(self, amount):
        bids = [("a", 5.0), ("b", 4.0), ("c", amount)]
        deposits = UntouchedDeposits(m1=0.5, m2=0.5)
        with pytest.raises(AuctionError, match="bid amount must be finite and >= 0"):
            match_round(["m1", "m2"], bids, 2, deposits)
        with pytest.raises(AuctionError, match="bid amount must be finite and >= 0"):
            match_round(["m1", "m2"], bids, 2, deposits, second_price=True)

    @BAD_AMOUNTS
    def test_select_trainers_refuses_before_any_selection(self, amount):
        # one bid is selected, so a check of the selected bids alone would
        # let -1.0, nan and -inf through
        bids = [("a", 5.0), ("b", 4.0), ("c", amount)]
        with pytest.raises(AuctionError, match="bid amount must be finite and >= 0"):
            select_trainers(bids, 1.0, 1.0)


class TestSelectTrainers:
    def test_two_selected_pay_second_prices(self):
        result = select_trainers(bids_of({"A": 5, "B": 4, "C": 3, "D": 2}), 1.0, 2.0)
        assert result.selected == ("A", "B")
        assert result.deposits == (4.0, 4.0)

    def test_sole_selected_pays_own_bid(self):
        result = select_trainers([("A", 5.0)], 1.0, 3.0)
        assert result.selected == ("A",)
        assert result.deposits == (5.0,)

    def test_zero_budget_selects_nobody(self):
        result = select_trainers(bids_of({"A": 5, "B": 4}), 1.0, 0.0)
        assert result == SelectionResult((), ())

    def test_zero_unit_deposit_with_positive_budget(self):
        with pytest.raises(ZeroUnitDeposit):
            select_trainers([("A", 1.0)], 0.0, 1.0)

    def test_ties_break_by_ascending_id(self):
        result = select_trainers(bids_of({"b": 3, "a": 3, "c": 3}), 1.0, 2.0)
        assert result.selected == ("a", "b")
        assert result.deposits == (3.0, 3.0)

    @pytest.mark.parametrize("b_mo, budget", [
        (1.0, math.inf), (1.0, math.nan), (1.0, -1.0),
        (math.inf, 1.0), (math.nan, 1.0), (-1.0, 1.0), (-1.0, 0.0),
    ])
    def test_non_finite_or_negative_budget_or_unit_deposit(self, b_mo, budget):
        with pytest.raises(AuctionError, match="must be finite and >= 0"):
            select_trainers([("A", 1.0)], b_mo, budget)

    def test_quotient_overflow_selects_every_bidder(self):
        result = select_trainers(bids_of({"A": 5, "B": 4}), 1e-300, 1e300)
        assert result == SelectionResult(("A", "B"), (4.0, 4.0))

    def test_matches_oracle_on_random_instances(self):
        import random

        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(0, 7)
            bids = [(f"t{i}", float(rng.randrange(0, 6))) for i in range(n)]
            budget = float(rng.randrange(0, 7))
            got = select_trainers(bids, 1.0, budget)
            want_ids, want_pay = selection_oracle(bids, 1.0, budget)
            assert list(got.selected) == want_ids
            assert list(got.deposits) == want_pay

    @given(
        amounts=st.lists(st.floats(0.0, 100.0), max_size=10),
        budget=st.floats(0.0, 20.0),
        b_mo=st.floats(0.1, 5.0),
    )
    def test_deposits_never_exceed_own_bid_and_are_non_increasing(
        self, amounts, budget, b_mo
    ):
        bids = [(f"t{i:02d}", a) for i, a in enumerate(amounts)]
        result = select_trainers(bids, b_mo, budget)
        assert len(result.selected) == min(int(budget // b_mo), len(bids))
        by_id = dict(bids)
        for trainer, deposit in zip(result.selected, result.deposits):
            assert deposit <= by_id[trainer]
        assert all(
            a >= b for a, b in zip(result.deposits, result.deposits[1:])
        )


class TestMoDeposit:
    def test_budget_bound(self):
        assert mo_deposit_per_trainer(0.001, 10.0, 4) == pytest.approx(0.00025)

    def test_no_coins(self):
        assert mo_deposit_per_trainer(0.001, 0.0, 4) == 0.0

    def test_holdings_bind(self):
        assert mo_deposit_per_trainer(0.001, 0.0004, 4) == pytest.approx(0.0001)

    def test_zero_limit(self):
        with pytest.raises(ZeroLimit):
            mo_deposit_per_trainer(0.001, 10.0, 0)


class TestTrainerBid:
    def test_version_gap_drives_bid(self):
        assert trainer_bid(10.0, 5, 2) == 4.0

    def test_coins_bind(self):
        assert trainer_bid(2.0, 5, 0) == 2.0

    def test_zero_gap_floor(self):
        assert trainer_bid(10.0, 3, 3) == 1.0

    def test_version_order_enforced(self):
        with pytest.raises(VersionOrder):
            trainer_bid(10.0, 3, 4)


def unmatched(bids, contracts):
    named = {trainer_id for _, trainer_id, _, _ in contracts}
    return {trainer_id for trainer_id, _ in bids} - named


class TestMatchRound:
    def test_greedy_walk(self):
        bids = bids_of({"a": 5, "b": 4, "c": 3, "d": 2, "e": 1})
        contracts = match_round(["mo1", "mo2"], bids, 2, {"mo1": 0.25, "mo2": 0.25})
        assert contracts == (
            ("mo1", "a", 0.25, 5), ("mo1", "b", 0.25, 4),
            ("mo2", "c", 0.25, 3), ("mo2", "d", 0.25, 2),
        )
        assert unmatched(bids, contracts) == {"e"}

    def test_no_mos_leaves_everyone_unmatched(self):
        bids = bids_of({"a": 5, "b": 4})
        contracts = match_round([], bids, 2, {})
        assert contracts == ()
        assert unmatched(bids, contracts) == {"a", "b"}

    def test_capacity_exceeds_supply(self):
        bids = bids_of({"a": 5, "b": 4})
        contracts = match_round(["mo1", "mo2", "mo3"], bids, 4, {"mo1": 0.1, "mo2": 0.2, "mo3": 0.3})
        assert [(mo_id, t) for mo_id, t, _, _ in contracts] == [("mo1", "a"), ("mo1", "b")]
        assert unmatched(bids, contracts) == set()

    def test_per_mo_deposit_mapping(self):
        bids = bids_of({"a": 5, "b": 4})
        contracts = match_round(["m1", "m2"], bids, 1, {"m1": 0.5, "m2": 0.125})
        (_, _, first_mo_amount, _), (_, _, second_mo_amount, _) = contracts
        assert first_mo_amount == 0.5
        assert second_mo_amount == 0.125

    def test_zero_limit(self):
        with pytest.raises(ZeroLimit):
            match_round(["m1"], bids_of({"a": 5}), 0, {"m1": 0.5})

    def test_second_price_blocks_match_select_trainers(self):
        for size in range(0, 7):
            for combo in itertools.combinations_with_replacement(range(6), size):
                bids = [(f"t{i}", float(v)) for i, v in enumerate(combo)]
                by_id = dict(bids)
                for mo_count, limit in itertools.product(range(0, 4), range(1, 4)):
                    mos = [f"m{i}" for i in range(mo_count)]
                    deposits = dict.fromkeys(mos, 0.5)
                    first = match_round(mos, bids, limit, deposits)
                    second = match_round(mos, bids, limit, deposits, second_price=True)
                    assert unmatched(bids, second) == unmatched(bids, first)
                    assert [c[:3] for c in second] == [c[:3] for c in first]
                    assert all(t_amount == by_id[t] for _, t, _, t_amount in first)
                    for mo in mos:
                        block = [(t, t_amount) for mo_id, t, _, t_amount in second if mo_id == mo]
                        want = select_trainers(
                            [(t, by_id[t]) for t, _ in block], 1.0, float(len(block))
                        )
                        assert tuple(t for t, _ in block) == want.selected
                        assert tuple(t_amount for _, t_amount in block) == want.deposits

    @given(
        amounts=st.lists(st.floats(0.0, 9.0), max_size=12),
        mo_count=st.integers(0, 5),
        limit=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_permutation_stable_and_totals(self, amounts, mo_count, limit, seed):
        import random

        bids = [(f"t{i:02d}", a) for i, a in enumerate(amounts)]
        mos = [f"m{i}" for i in range(mo_count)]
        deposits = dict.fromkeys(mos, 0.0)
        baseline = match_round(mos, bids, limit, deposits)
        shuffled = list(bids)
        random.Random(seed).shuffle(shuffled)
        assert match_round(mos, shuffled, limit, deposits) == baseline
        assert len(baseline) == min(len(bids), mo_count * limit)
        matched = [trainer_id for _, trainer_id, _, _ in baseline]
        assert len(set(matched)) == len(matched)
