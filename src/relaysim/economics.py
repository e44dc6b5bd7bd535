"""Participant utilities and the incentive feasibility conditions.

Six roles take part in one training round: model owners (MO), trainers
(T), and the four block miners (DBM, EBM, TBM, SBM). Each role has a
small strategy set: behave normally, or deviate in one role-specific
way. This module evaluates the closed-form utility of every
(role, strategy) pair, checks the eight feasibility conditions T1-T8
(T1-T6 guarantee individual rationality, T7-T8 incentive compatibility
for trainers), and solves for the smallest reward rates that keep the
whole condition set satisfiable.

T1-T6 are the roles' "Normal utility >= 0" in cross-multiplied form
(times 1 - beta where citations are discounted, no count divided out),
so each cost is written once and shared by a utility and its condition,
and the DBM/TBM/SBM Normal utilities are lhs - bound of T3/T5/T6. T1,
T2 and T8 are linear in r_cited: the rate-form citation bounds are
derived as each condition's bound over its r_cited coefficient.

All monetary quantities are expressed in a single real-valued "coins"
unit. The value of one model-version increment is `coin_unit` coins
(default 1.0); rewards can never be negative, so solved lower bounds
clamp at zero.

The result records (`ConditionEntry`, `DominanceRow`, `HalfPlane`,
`MinerRewardBounds`) are immutable `NamedTuple`s, which a sweep builds
far more cheaply than frozen dataclasses. Being tuples, they compare
equal to a plain tuple of the same values. For the same reason
`minimal_rewards` does not build its solved `EconomicParams` through the
frozen keyword constructor: it copies the input's field dict with the
seven rates replaced and then runs `__post_init__`, which checks every
field, so the result equals the keyword-built set field for field, in
field order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple


class EconomicsError(ValueError):
    """Base class for economic-parameter and evaluation errors."""


class InvalidEconomicParams(EconomicsError):
    """A field violates the parameter invariants."""


class DivergentSeries(InvalidEconomicParams):
    """Future-reward geometric series requires discount rate < 1."""


class InvalidStrategyForRole(EconomicsError):
    """Strategy tag does not belong to the role's strategy set."""


class DegenerateDenominator(EconomicsError):
    """A reward bound divides by a zero count or zero discount rate."""


@dataclass(frozen=True)
class EconomicParams:
    """Every rate, cost, count and version entering the utility table.

    Defaults give a degenerate but valid zero economy (all costs and
    reward rates zero, unit counts) so callers can set only the fields
    a given evaluation touches. An int given for a float field is stored
    as that float once every field has passed its range check, as
    ``SimConfig`` does, so the set evaluates as one built from floats.
    """

    beta: float = 0.5             # future-reward discount rate, in [0, 1)
    s: float = 0.5                # proportion of verified models ranked top
    b_mo: float = 0.0             # MO deposit escrowed per selected trainer
    b_t: float = 0.0              # trainer deposit
    k_transmit: float = 0.0       # transmission cost per model parameter
    k_encrypt: float = 0.0        # encryption cost per model parameter
    k_expand: float = 1.0         # ciphertext size expansion factor, >= 1
    model_size: float = 0.0       # number of model parameters
    p_comp: float = 0.0           # computation price per time*data*parameter
    data_volume: float = 0.0      # training data volume
    train_time: float = 0.0       # training duration
    c_mine: float = 0.0           # cost of mining one block
    c_gen_fhe_key: float = 0.0    # cost of generating one encryption keypair
    c_gen_td_case_unit: float = 0.0   # cost of producing one testing case
    c_verify_unit: float = 0.0    # verification cost per model per case
    q_selected: int = 1           # trainers selected by the MO this round
    q_selected_mo_avg: float = 1.0    # expected citations of the MO per round
    q_selected_t_avg: float = 1.0     # expected future citations of the trainer
    q_broadcast: int = 1          # recipients of the encrypted-model broadcast
    q_deposit: int = 2            # contracts packed by an honest DBM
    q_deposit_less: int = 1       # contracts packed under the NPA deviation
    q_hash_m: int = 1             # model hashes packed by the EBM
    q_encrypted_m: int = 1        # encrypted-model hashes packed by the TBM
    q_cases: int = 1              # testing cases packed by the TBM
    q_verified_m: int = 1         # models verified by the SBM
    v_rec_m: int = 0              # version of the model a trainer receives
    v_now_t: int = 0              # version the trainer already holds
    v_fhem: int = 0               # version of the model the EBM decrypts
    v_now_ebm: int = 0            # version the EBM already holds
    coin_unit: float = 1.0        # coins per model-version increment
    r_cited: float = 0.0          # citation reward per selection
    r_deposit: float = 0.0        # DBM reward per packed contract
    r_hash_m: float = 0.0         # EBM reward per packed model hash
    r_encrypted_m: float = 0.0    # TBM reward per packed encrypted-model hash
    r_case: float = 0.0           # TBM reward per testing case
    r_verified_m: float = 0.0     # SBM reward per verified model
    r_verify: float = 0.0         # SBM reward per verified model per case

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta:
            raise InvalidEconomicParams(f"beta must be >= 0, got {self.beta}")
        if self.beta >= 1.0:
            raise DivergentSeries(f"beta must be < 1, got {self.beta}")
        if not 0.0 < self.s < 1.0:
            raise InvalidEconomicParams(f"s must be in (0, 1), got {self.s}")
        # An integer past the largest float overflows where the bounds use it
        # as a float.
        largest = sys.float_info.max
        if not 1.0 <= self.k_expand <= largest:
            raise InvalidEconomicParams(
                f"k_expand must be finite and >= 1, got {self.k_expand}"
            )
        values = vars(self)
        for name in _NON_NEGATIVE_FIELDS:
            value = values[name]
            if not 0 <= value <= largest:
                raise InvalidEconomicParams(
                    f"{name} must be >= 0 and at most the largest finite float, got {value}")
        # T6 multiplies the two counts before any float is made.
        if self.q_verified_m * self.q_cases > largest:
            raise InvalidEconomicParams(
                "q_verified_m * q_cases must be at most the largest finite float, got "
                f"q_verified_m={self.q_verified_m}, q_cases={self.q_cases}")
        if self.v_rec_m < self.v_now_t:
            raise InvalidEconomicParams(
                f"v_rec_m ({self.v_rec_m}) cannot be older than v_now_t ({self.v_now_t})"
            )
        if self.v_fhem < self.v_now_ebm:
            raise InvalidEconomicParams(
                f"v_fhem ({self.v_fhem}) cannot be older than v_now_ebm ({self.v_now_ebm})"
            )
        # An int in a float field becomes that float, as in SimConfig, so two
        # of them cannot multiply past the float range before any float is
        # made. The checks above keep each such int convertible.
        for name in _FLOAT_FIELDS:
            if type(values[name]) is int:
                values[name] = float(values[name])


# Every field but the three range-checked above must be a float-sized number >= 0.
_NON_NEGATIVE_FIELDS = tuple(
    f.name for f in fields(EconomicParams) if f.name not in ("beta", "s", "k_expand")
)
_FLOAT_FIELDS = tuple(f.name for f in fields(EconomicParams) if f.type == "float")


@dataclass(frozen=True)
class RoleStrategy:
    """A (role, strategy) pair; the tag must belong to the role's set."""

    role: str
    strategy: str

    def __post_init__(self) -> None:
        if self.role not in ROLE_STRATEGIES:
            raise InvalidStrategyForRole(f"unknown role {self.role!r}")
        if self.strategy not in ROLE_STRATEGIES[self.role]:
            raise InvalidStrategyForRole(
                f"strategy {self.strategy!r} is not valid for role {self.role!r}; "
                f"expected one of {ROLE_STRATEGIES[self.role]}"
            )


def _future_factor(p: EconomicParams) -> float:
    return 1.0 / (1.0 - p.beta)


def _training_cost(p: EconomicParams) -> float:
    return p.p_comp * p.data_volume * p.train_time * p.model_size


def _transmit_cost(p: EconomicParams) -> float:
    return p.k_transmit * p.model_size


def _encrypt_cost(p: EconomicParams) -> float:
    return p.k_encrypt * p.model_size


def _broadcast_cost(p: EconomicParams) -> float:
    return p.q_broadcast * p.k_transmit * p.k_expand * p.model_size


def _mo_cost(p: EconomicParams) -> float:
    return p.q_selected * (1.0 - p.s) * p.b_mo + _transmit_cost(p)


def _t_cost(p: EconomicParams) -> float:
    return (
        _training_cost(p)
        + (1.0 - p.s) * p.b_t
        + _transmit_cost(p)
        + _encrypt_cost(p)
        + _broadcast_cost(p)
    )


def _ebm_cost(p: EconomicParams) -> float:
    return p.c_mine + p.k_transmit * p.k_expand * p.model_size + p.c_gen_fhe_key


def _t1_sides(p: EconomicParams) -> tuple[float, float]:
    return p.q_selected_mo_avg * p.r_cited, (1.0 - p.beta) * _mo_cost(p)


def _t2_sides(p: EconomicParams) -> tuple[float, float]:
    lhs = p.q_selected_t_avg * p.beta * p.r_cited
    version_gain = (p.v_rec_m - p.v_now_t + 1) * p.coin_unit
    return lhs, (1.0 - p.beta) * (_t_cost(p) - version_gain)


def _t3_sides(p: EconomicParams) -> tuple[float, float]:
    return p.q_deposit * p.r_deposit, p.c_mine


def _t4_sides(p: EconomicParams) -> tuple[float, float]:
    version_gain = (p.v_fhem - p.v_now_ebm) * p.coin_unit
    return p.q_hash_m * p.r_hash_m, _ebm_cost(p) - version_gain


def _t5_sides(p: EconomicParams) -> tuple[float, float]:
    lhs = p.q_encrypted_m * p.r_encrypted_m + p.q_cases * p.r_case
    bound = p.c_mine + p.q_cases * p.c_gen_td_case_unit
    return lhs, bound


def _t6_sides(p: EconomicParams) -> tuple[float, float]:
    lhs = p.q_verified_m * p.r_verified_m + p.q_verified_m * p.q_cases * p.r_verify
    bound = (
        p.c_mine
        + p.q_verified_m * p.k_transmit * p.k_expand * p.model_size
        + p.q_verified_m * p.q_cases * p.c_verify_unit
    )
    return lhs, bound


def _t7_sides(p: EconomicParams) -> tuple[float, float]:
    return p.b_t, (p.v_rec_m - p.v_now_t) * p.coin_unit


def _t8_sides(p: EconomicParams) -> tuple[float, float]:
    lhs = p.q_selected_t_avg * p.beta * p.r_cited
    bound = (1.0 - p.beta) * ((-p.s) * p.b_t + _encrypt_cost(p) + _broadcast_cost(p))
    return lhs, bound


def _u_mo_normal(p: EconomicParams) -> float:
    return p.q_selected_mo_avg * p.r_cited * _future_factor(p) - _mo_cost(p)


def _u_mo_not_transmitting(p: EconomicParams) -> float:
    return -p.q_selected * p.b_mo


def _u_t_normal(p: EconomicParams) -> float:
    future = p.q_selected_t_avg * p.beta * p.r_cited * _future_factor(p)
    return (p.v_rec_m - p.v_now_t + 1) * p.coin_unit + future - _t_cost(p)


def _u_t_not_training(p: EconomicParams) -> float:
    return (p.v_rec_m - p.v_now_t) * p.coin_unit - p.b_t - _transmit_cost(p)


def _u_t_not_broadcasting(p: EconomicParams) -> float:
    cost = _training_cost(p) + p.b_t + _transmit_cost(p)
    return (p.v_rec_m - p.v_now_t + 1) * p.coin_unit - cost


def _u_dbm_not_packing_all(p: EconomicParams) -> float:
    if not 0 < p.q_deposit_less < p.q_deposit:
        raise InvalidEconomicParams(
            "NPA evaluation requires 0 < q_deposit_less < q_deposit, got "
            f"q_deposit_less={p.q_deposit_less}, q_deposit={p.q_deposit}"
        )
    return p.q_deposit_less * p.r_deposit - p.c_mine


def _u_ebm_normal(p: EconomicParams) -> float:
    revenue = p.q_hash_m * p.r_hash_m + (p.v_fhem - p.v_now_ebm) * p.coin_unit
    return revenue - _ebm_cost(p)


def _u_mining_loss(p: EconomicParams) -> float:
    """A miner who deviates pays for the block and earns nothing."""
    return -p.c_mine


def _slack_of(
    sides: Callable[[EconomicParams], tuple[float, float]],
) -> Callable[[EconomicParams], float]:
    """Normal utility of a miner whose condition is its utility >= 0 as is."""
    def utility(p: EconomicParams) -> float:
        lhs, bound = sides(p)
        return lhs - bound
    return utility


_UTILITY_TABLE: dict[tuple[str, str], Callable[[EconomicParams], float]] = {
    ("MO", "N"): _u_mo_normal,
    ("MO", "NTm"): _u_mo_not_transmitting,
    ("T", "N"): _u_t_normal,
    ("T", "NTr"): _u_t_not_training,
    ("T", "NBr"): _u_t_not_broadcasting,
    ("DBM", "N"): _slack_of(_t3_sides),
    ("DBM", "NPA"): _u_dbm_not_packing_all,
    ("DBM", "PI"): _u_mining_loss,
    ("EBM", "N"): _u_ebm_normal,
    ("EBM", "NG"): _u_mining_loss,
    ("TBM", "N"): _slack_of(_t5_sides),
    ("TBM", "IT"): _u_mining_loss,
    ("SBM", "N"): _slack_of(_t6_sides),
    ("SBM", "IRa"): _u_mining_loss,
}

# Each role's strategies in table order, Normal ("N") first.
ROLE_STRATEGIES: dict[str, tuple[str, ...]] = {
    role: tuple(s for r, s in _UTILITY_TABLE if r == role)
    for role in dict.fromkeys(r for r, _ in _UTILITY_TABLE)
}


def strategy_utility(rs: RoleStrategy, p: EconomicParams) -> float:
    """Utility in coins of playing ``rs.strategy`` in role ``rs.role``.

    Pure: identical inputs give bit-identical outputs.
    """
    return _UTILITY_TABLE[(rs.role, rs.strategy)](p)


class ConditionEntry(NamedTuple):
    """One feasibility condition, evaluated as lhs >= bound (> for strict)."""

    condition: str
    lhs: float
    bound: float
    strict: bool

    @property
    def slack(self) -> float:
        return self.lhs - self.bound

    @property
    def satisfied(self) -> bool:
        return self.slack > 0.0 if self.strict else self.slack >= 0.0

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "lhs": self.lhs,
            "bound": self.bound,
            "slack": self.slack,
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class ConditionReport:
    """Evaluation results for a set of feasibility conditions."""

    entries: tuple[ConditionEntry, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def entry(self, condition: str) -> ConditionEntry:
        for e in self.entries:
            if e.condition == condition:
                return e
        raise KeyError(condition)

    def failed(self) -> list[str]:
        return [e.condition for e in self.entries if not e.satisfied]


class DominanceRow(NamedTuple):
    """Utility gap between Normal and one alternative strategy of a role."""

    role: str
    alternative: str
    utility_gap: float

    @property
    def normal_dominates(self) -> bool:
        return self.utility_gap > 0.0

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "alternative": self.alternative,
            "utility_gap": self.utility_gap,
            "normal_dominates": self.normal_dominates,
        }


@dataclass(frozen=True)
class IncentiveReport:
    """Strict conditions T7-T8 plus the full Normal-vs-alternative table."""

    conditions: ConditionReport
    dominance: tuple[DominanceRow, ...]

    @property
    def all_satisfied(self) -> bool:
        return self.conditions.all_satisfied and all(
            row.normal_dominates for row in self.dominance
        )

    def failed(self) -> list[str]:
        return self.conditions.failed() + [
            f"{row.role} vs {row.alternative}"
            for row in self.dominance if not row.normal_dominates
        ]


_IR_SIDES = (
    ("T1", _t1_sides), ("T2", _t2_sides), ("T3", _t3_sides),
    ("T4", _t4_sides), ("T5", _t5_sides), ("T6", _t6_sides),
)
_IC_SIDES = (("T7", _t7_sides), ("T8", _t8_sides))


def _report(p: EconomicParams, named_sides, strict: bool) -> ConditionReport:
    entries = []
    for name, sides in named_sides:
        lhs, bound = sides(p)
        entries.append(ConditionEntry(name, lhs, bound, strict))
    return ConditionReport(tuple(entries))


def check_ir(p: EconomicParams) -> ConditionReport:
    """Evaluate the six individual-rationality conditions T1-T6.

    T5 and T6 involve two free reward rates each and are checked as
    joint linear constraints on the pair.
    """
    return _report(p, _IR_SIDES, strict=False)


def check_ic(p: EconomicParams) -> IncentiveReport:
    """Evaluate T7-T8 plus the Normal-vs-alternative dominance table.

    T7 requires the trainer deposit to strictly exceed the value of the
    received model-version gap; T8 keeps broadcasting strictly better
    than withholding the trained model. The dominance table computes
    utility(N) - utility(alt) for every alternative strategy of every
    role and flags any non-positive gap.
    """
    rows = []
    for (role, strategy), utility in _UTILITY_TABLE.items():
        if strategy == "N":  # listed first for each role
            u_normal = utility(p)
        else:
            rows.append(DominanceRow(role, strategy, u_normal - utility(p)))
    return IncentiveReport(_report(p, _IC_SIDES, strict=True), tuple(rows))


def evaluate_conditions(p: EconomicParams) -> tuple[ConditionReport, IncentiveReport]:
    """Full T1-T8 evaluation: (IR report, IC report with dominance table)."""
    return check_ir(p), check_ic(p)


def citation_reward_bounds(p: EconomicParams) -> dict[str, float]:
    """The three rate-form lower bounds on the citation reward (T1/T2/T8).

    Each is its condition's bound divided by the condition's r_cited
    coefficient.
    """
    if p.q_selected_mo_avg <= 0:
        raise DegenerateDenominator("T1 bound requires q_selected_mo_avg > 0")
    if p.q_selected_t_avg <= 0:
        raise DegenerateDenominator("T2/T8 bounds require q_selected_t_avg > 0")
    if p.beta <= 0:
        raise DegenerateDenominator("T2/T8 bounds require beta > 0")
    weight = p.q_selected_t_avg * p.beta
    if weight == 0.0:  # both factors are positive, but the product can round to zero
        raise DegenerateDenominator(
            f"T2/T8 bounds require q_selected_t_avg * beta > 0, got {weight}")
    return {
        "T1": _t1_sides(p)[1] / p.q_selected_mo_avg,
        "T2": _t2_sides(p)[1] / weight,
        "T8": _t8_sides(p)[1] / weight,
    }


def minimal_citation_reward(p: EconomicParams) -> float:
    """Least citation reward satisfying T1, T2 and T8 (clamped at 0).

    This is the infimum of the feasible set: T8 is strict, so the value
    itself may sit on the open boundary; any positive margin above it
    satisfies all three conditions.
    """
    return max(0.0, *citation_reward_bounds(p).values())


class HalfPlane(NamedTuple):
    """Constraint a*x + b*y >= c over two non-negative reward rates."""

    a: float
    b: float
    c: float
    x_name: str
    y_name: str

    def equal_split(self) -> tuple[float, float]:
        """A feasible point paying half of the requirement through each rate.

        When one coefficient is zero the other rate carries the whole
        requirement; a non-positive requirement is met by zero rates.
        """
        if self.c <= 0.0:
            return 0.0, 0.0
        if self.a <= 0.0 and self.b <= 0.0:
            raise DegenerateDenominator(
                f"constraint {self.a}*{self.x_name} + {self.b}*{self.y_name} >= {self.c} "
                "has no free rate"
            )
        if self.a <= 0.0:
            return 0.0, self.c / self.b
        if self.b <= 0.0:
            return self.c / self.a, 0.0
        return self.c / (2.0 * self.a), self.c / (2.0 * self.b)

    def to_dict(self) -> dict:
        x, y = self.equal_split()
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "x": self.x_name,
            "y": self.y_name,
            "equal_split": {self.x_name: x, self.y_name: y},
        }


class MinerRewardBounds(NamedTuple):
    """Scalar bounds for T3/T4 and half-plane regions for T5/T6."""

    r_deposit_min: float
    r_hash_m_min: float
    tbm_constraint: HalfPlane
    sbm_constraint: HalfPlane

    def to_dict(self) -> dict:
        return {
            "r_deposit_min": self.r_deposit_min,
            "r_hash_m_min": self.r_hash_m_min,
            "T5": self.tbm_constraint.to_dict(),
            "T6": self.sbm_constraint.to_dict(),
        }


def minimal_miner_rewards(p: EconomicParams) -> MinerRewardBounds:
    """Minimal miner reward rates implied by T3-T6.

    T3 and T4 pin single rates (T4 clamps at zero when the in-kind
    model value already covers the EBM's costs); T5 and T6 leave two
    free rates each, so the feasible region is returned as a half-plane
    with coefficients taken verbatim from the inequality.
    """
    if p.q_deposit <= 0:
        raise DegenerateDenominator("T3 bound requires q_deposit > 0")
    if p.q_hash_m <= 0:
        raise DegenerateDenominator("T4 bound requires q_hash_m > 0")
    if p.q_encrypted_m <= 0 and p.q_cases <= 0:
        raise DegenerateDenominator("T5 requires q_encrypted_m > 0 or q_cases > 0")
    if p.q_verified_m <= 0:
        raise DegenerateDenominator("T6 requires q_verified_m > 0")
    r_deposit_min = max(0.0, _t3_sides(p)[1] / p.q_deposit)
    r_hash_m_min = max(0.0, _t4_sides(p)[1] / p.q_hash_m)
    t5 = HalfPlane(float(p.q_encrypted_m), float(p.q_cases), _t5_sides(p)[1],
                   "r_encrypted_m", "r_case")
    t6 = HalfPlane(float(p.q_verified_m), float(p.q_verified_m * p.q_cases),
                   _t6_sides(p)[1], "r_verified_m", "r_verify")
    return MinerRewardBounds(r_deposit_min, r_hash_m_min, t5, t6)


def minimal_rewards(p: EconomicParams, margin: float = 0.0) -> EconomicParams:
    """Copy of ``p`` with every reward rate set to its minimal feasible value.

    T5/T6 requirements are split equally between their two rates. With
    ``margin`` zero the result sits on the feasibility boundary, so the
    strict condition T8 is not yet satisfied; any positive margin lifts
    all rates strictly inside the region. A margin that is negative or not
    a finite float is refused before any bound is computed.
    """
    if not 0 <= margin <= sys.float_info.max:
        raise InvalidEconomicParams(f"margin must be finite and >= 0, got {margin}")
    miner = minimal_miner_rewards(p)
    r_encrypted_m, r_case = miner.tbm_constraint.equal_split()
    r_verified_m, r_verify = miner.sbm_constraint.equal_split()
    # p's field dict with the seven rates replaced, in field order, not the
    # frozen __init__ (see the module docstring); __post_init__ checks it all.
    solved = object.__new__(EconomicParams)
    vars(solved).update(
        vars(p),
        r_cited=minimal_citation_reward(p) + margin,
        r_deposit=miner.r_deposit_min + margin,
        r_hash_m=miner.r_hash_m_min + margin,
        r_encrypted_m=r_encrypted_m + margin,
        r_case=r_case + margin,
        r_verified_m=r_verified_m + margin,
        r_verify=r_verify + margin,
    )
    solved.__post_init__()
    return solved
