"""Trainer selection auction and greedy owner-trainer matching.

Model owners publish a per-trainer deposit; prospective trainers submit
sealed deposit bids. Selection follows a second-price rule over bids
sorted descending: each selected trainer except the last deposits the
next bid down, and the last selected trainer deposits its own bid.
Round matching walks owners in rank order, handing each the next block
of highest-bidding trainers.

All ties in bid amount break by ascending trainer id so results are
deterministic under a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence


class AuctionError(ValueError):
    """Base class for auction input errors."""


class ZeroUnitDeposit(AuctionError):
    """Positive budget with a zero per-trainer deposit cannot be divided."""


class ZeroLimit(AuctionError):
    """Selection limit must be at least one."""


class VersionOrder(AuctionError):
    """A bidder cannot hold a newer version than the latest one."""


@dataclass(frozen=True)
class Bid:
    """A trainer's sealed deposit bid, in coins."""

    trainer_id: str
    amount: float

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise AuctionError(f"bid amount must be >= 0, got {self.amount}")


@dataclass(frozen=True)
class SelectionResult:
    """Selected trainers and the deposits they pay, in selection order."""

    selected: tuple[str, ...]
    deposits: tuple[float, ...]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            [
                {"trainer_id": t, "deposit": d}
                for t, d in zip(self.selected, self.deposits)
            ],
            indent=indent,
        )


@dataclass(frozen=True)
class MatchPair:
    """One matched owner-trainer pair with both escrow amounts."""

    mo_id: str
    trainer_id: str
    mo_deposit: float
    t_deposit: float


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching outcome: pairs plus trainers left without an owner."""

    pairs: tuple[MatchPair, ...]
    unmatched_trainers: tuple[str, ...]


def _sort_bids(bids: Sequence[Bid]) -> list[Bid]:
    return sorted(bids, key=lambda b: (-b.amount, b.trainer_id))


def select_trainers(bids: Sequence[Bid], b_mo: float, budget: float) -> SelectionResult:
    """Second-price selection of at most floor(budget / b_mo) trainers.

    Bids are ranked descending (ties by ascending trainer id). The i-th
    selected trainer deposits the (i+1)-th ranked bid; the last selected
    trainer deposits its own bid.
    """
    if budget > 0 and b_mo <= 0:
        raise ZeroUnitDeposit(
            f"budget {budget} cannot be split into deposits of {b_mo}"
        )
    count = min(int(budget // b_mo), len(bids)) if b_mo > 0 else 0
    if count <= 0:
        return SelectionResult((), ())
    ranked = _sort_bids(bids)
    selected = tuple(b.trainer_id for b in ranked[:count])
    deposits = tuple(ranked[i + 1].amount for i in range(count - 1)) + (
        ranked[count - 1].amount,
    )
    return SelectionResult(selected, deposits)


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
) -> MatchResult:
    """Greedy owner-trainer matching over bid-ranked trainers.

    The first owner takes the ``selection_limit`` highest bidders, the
    second the next block, and so on until owners or trainers run out.
    Each matched trainer deposits its own bid; with ``second_price`` it
    deposits the next bid down in its owner's block and the block's last
    trainer its own bid, as ``select_trainers`` on that block. The owner
    side deposits ``per_mo_deposit[mo_id]``.
    """
    if selection_limit < 1:
        raise ZeroLimit(f"selection_limit must be >= 1, got {selection_limit}")
    ranked = _sort_bids(trainer_bids)
    pairs: list[MatchPair] = []
    cursor = 0
    for mo_id in ranked_mos:
        if cursor >= len(ranked):
            break
        deposit = per_mo_deposit[mo_id]
        block = ranked[cursor:cursor + selection_limit]
        payers = block[1:] + block[-1:] if second_price else block
        for bid, payer in zip(block, payers):
            pairs.append(MatchPair(mo_id, bid.trainer_id, deposit, payer.amount))
        cursor += selection_limit
    unmatched = tuple(b.trainer_id for b in ranked[cursor:])
    return MatchResult(tuple(pairs), unmatched)
