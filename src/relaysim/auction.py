"""Trainer selection auction and greedy owner-trainer matching.

Model owners publish a per-trainer deposit; prospective trainers submit
sealed deposit bids, each a ``(trainer_id, amount)`` tuple whose amount
must be finite and >= 0: ``match_round`` and ``select_trainers`` refuse
any other amount as they take the bids, before ranking them. Round
matching walks owners in rank order, handing each the next block of
highest-bidding trainers as the deposit block's contracts. By default
each matched trainer deposits its own bid; with second price it deposits
as ``select_trainers`` does.

``select_trainers`` is the paper's reference selection rule, a
second-price rule over bids sorted descending: each selected trainer
except the last deposits the next bid down, and the last selected trainer
deposits its own bid. The round engine does not call it; it runs
``match_round``. The rule is kept as the oracle that
``match_round(second_price=True)`` is tested against, and acceptance
criterion 6 checks it exhaustively.

All ties in bid amount break by ascending trainer id so results are
deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

from .chain import ContractRecord


class AuctionError(ValueError):
    """Base class for auction input errors."""


class ZeroUnitDeposit(AuctionError):
    """Positive budget with a zero per-trainer deposit cannot be divided."""


class ZeroLimit(AuctionError):
    """Selection limit must be at least one."""


class VersionOrder(AuctionError):
    """A bidder cannot hold a newer version than the latest one."""


def _check_amount(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise AuctionError(f"{name} must be finite and >= 0, got {value}")


# A trainer's sealed deposit bid in coins, an exact tuple like ``protocol.Transfer``.
Bid = tuple[str, float]


@dataclass(frozen=True)
class SelectionResult:
    """Selected trainers and the deposits they pay, in selection order."""

    selected: tuple[str, ...]
    deposits: tuple[float, ...]


def _sort_bids(bids: Sequence[Bid]) -> list[Bid]:
    """Checked bids by amount descending, then id ascending (two stable sorts)."""
    for _, amount in bids:
        _check_amount("bid amount", amount)
    ranked = sorted(bids, key=itemgetter(0))
    ranked.sort(key=itemgetter(1), reverse=True)
    return ranked


def _second_prices(ranked: Sequence[Bid]) -> list[float]:
    """Each ranked bid pays the next one down, and the last pays its own."""
    amounts = [amount for _, amount in ranked]
    return amounts[1:] + amounts[-1:]


def select_trainers(bids: Sequence[Bid], b_mo: float, budget: float) -> SelectionResult:
    """Second-price selection of at most floor(budget / b_mo) trainers.

    Bids are ranked descending (ties by ascending trainer id). Each
    selected trainer deposits the next bid down, and the last its own.

    This is the paper's reference rule, kept as the oracle for
    ``match_round(second_price=True)`` and checked by acceptance criterion
    6; the round engine runs ``match_round``.
    """
    _check_amount("b_mo", b_mo)
    _check_amount("budget", budget)
    if budget > 0 and b_mo == 0:
        raise ZeroUnitDeposit(
            f"budget {budget} cannot be split into deposits of {b_mo}"
        )
    # the quotient of two finite floats can still overflow to inf
    count = int(min(budget // b_mo, len(bids))) if b_mo > 0 else 0
    chosen = _sort_bids(bids)[:count]
    return SelectionResult(
        tuple(trainer_id for trainer_id, _ in chosen), tuple(_second_prices(chosen))
    )


def mo_deposit_per_trainer(budget: float, coins_owned: float, selection_limit: int) -> float:
    """Per-trainer deposit an owner escrows: min(budget, holdings) / limit."""
    if selection_limit < 1:
        raise ZeroLimit(f"selection_limit must be >= 1, got {selection_limit}")
    return min(budget, coins_owned) / selection_limit


def trainer_bid(coins_owned: float, v_latest: int, v_now: int) -> float:
    """Bid driven by staleness: min(holdings, version gap + 1).

    The older the trainer's model, the more it offers, capped by the
    coins it actually owns.
    """
    if v_now > v_latest:
        raise VersionOrder(
            f"held version {v_now} is newer than latest version {v_latest}"
        )
    return min(coins_owned, float(v_latest - v_now + 1))


def match_round(
    ranked_mos: Sequence[str],
    trainer_bids: Sequence[Bid],
    selection_limit: int,
    per_mo_deposit: Mapping[str, float],
    second_price: bool = False,
) -> tuple[ContractRecord, ...]:
    """The round's escrow contracts, by greedy matching over ranked bids.

    The first owner takes the ``selection_limit`` highest bidders, the
    second the next block, and so on until owners or trainers run out; a
    bidder that no contract names is unmatched. Each matched trainer
    deposits its own bid, or with ``second_price`` what
    ``select_trainers`` on its owner's block would charge. The owner side
    deposits ``per_mo_deposit[mo_id]``.
    """
    if selection_limit < 1:
        raise ZeroLimit(f"selection_limit must be >= 1, got {selection_limit}")
    ranked = _sort_bids(trainer_bids)
    contracts: list[ContractRecord] = []
    for start, mo_id in zip(range(0, len(ranked), selection_limit), ranked_mos):
        block = ranked[start:start + selection_limit]
        pays = _second_prices(block) if second_price else map(itemgetter(1), block)
        contracts.extend(
            (mo_id, trainer_id, per_mo_deposit[mo_id], pay)
            for (trainer_id, _), pay in zip(block, pays)
        )
    return tuple(contracts)
