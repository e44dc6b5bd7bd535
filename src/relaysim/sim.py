"""Multi-round simulation, metrics collection, and result analysis.

The default configuration matches the reference parameter set: 128
miners per round and 128 owners-and-trainers (the participant count is
always ``q_miners + q_mo_and_t``, so 256), owner budget 0.001 coins,
training success probability 0.9, 100 testing cases, selection rate
0.5, and a 0.001-coin base for all six miner reward rates.

Two closed forms anchor the analyses. Citation coins of a participant
at its x-th upload in the round-robin setting equal x(x-1)q/2, so
cumulative income accelerates. The matched-trainer count obeys
N' = Q - s*N once owner capacity stops binding, converging to
Q / (1 + s).
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

from . import protocol
from .economics import EconomicParams

BUCKET_LABELS = tuple(
    ["latest"] + [f"latest-{k}" for k in range(1, 10)] + ["older", "none"]
)
# the fewest rounds analyze_accessibility reports on
ACCESSIBILITY_ROUNDS = 50
# The largest q_miners + q_mo_and_t: init_state peaks at about 206 B per
# participant by tracemalloc (2**14 to 2**18 of them), and each round adds a
# CSV row of about 25 B per participant, so 2**22 keep init_state under 1 GiB
# (2**22 * 206 B = 824 MiB); a larger pool is refused before its ids are built.
MAX_PARTICIPANTS = 2**22
# The largest q_cases * (model_dim + 1), the values in one round's testing
# table as concrete mode builds it: q_cases inputs of model_dim values plus
# q_cases truths. By tracemalloc, building it peaks at about 85 B per value
# for one-value inputs (abstract mode's two values per case peak at about
# 80 B) and about 41 B per value at 63 or more, so 2**23 values keep the
# table under 1 GiB (2**23 * 85 B = 680 MiB) in either mode; a larger table
# is refused before the run starts.
MAX_TESTING_VALUES = 2**23


class SimError(ValueError):
    """Base class for simulation configuration and analysis errors."""


class InvalidSimConfig(SimError):
    """A configuration field violates its invariant."""


class InsufficientData(SimError):
    """The analysis needs more executed rounds."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; defaults reproduce the reference setting."""

    q_miners: int = 128
    q_mo_and_t: int = 128
    q_selection_limit: int = 4
    budget_mo: float = 0.001
    pr_training: float = 0.9
    q_cases: int = 100
    s: float = 0.5
    reward_base: float = 0.001
    coin_unit: float = 1.0
    rounds: int = 200
    seed: int = 0
    mode: str = "abstract"
    # Engine toggles: deposit rule for matched trainers, whether the four
    # block winners of a round must be distinct, and concrete-mode model
    # shape.
    second_price_deposits: bool = False
    distinct_miners_per_round: bool = True
    model_dim: int = 4
    training_rate: float = 0.25

    def __post_init__(self) -> None:
        # An int in a float field would reach the chain as an int, which
        # hashes apart from the float that the dump decodes. Settlement is
        # done in floats, so a number past the largest float cannot be.
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is int and value > sys.float_info.max:
                raise InvalidSimConfig(f"{f.name} is too large for a float")
            if f.type == "float" and type(value) is int:
                object.__setattr__(self, f.name, float(value))
        # the full protocol needs a miner to mine each block and the
        # genesis owner in the owner-and-trainer pool
        if min(self.q_miners, self.q_mo_and_t) < 1 or (
                self.q_miners + self.q_mo_and_t > MAX_PARTICIPANTS):
            raise InvalidSimConfig(
                "q_miners and q_mo_and_t must be >= 1 with a sum of at most "
                f"{MAX_PARTICIPANTS}, got {self.q_miners} and {self.q_mo_and_t}"
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidSimConfig(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0.0 < self.s < 1.0:
            raise InvalidSimConfig(f"s must be in (0, 1), got {self.s}")
        if not 0.0 <= self.pr_training <= 1.0:
            raise InvalidSimConfig(
                f"pr_training must be in [0, 1], got {self.pr_training}"
            )
        if self.q_selection_limit < 1:
            raise InvalidSimConfig("q_selection_limit must be >= 1")
        if self.q_cases < 1:
            raise InvalidSimConfig("q_cases must be >= 1")
        if self.rounds < 0:
            raise InvalidSimConfig("rounds must be >= 0")
        for name in ("budget_mo", "reward_base", "coin_unit"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise InvalidSimConfig(f"{name} must be finite and >= 0, got {value}")
        if self.mode not in protocol.MODELS:
            raise InvalidSimConfig(
                f"mode must be one of {', '.join(protocol.MODELS)}, got {self.mode!r}"
            )
        if self.model_dim < 1:
            raise InvalidSimConfig("model_dim must be >= 1")
        if self.q_cases * (self.model_dim + 1) > MAX_TESTING_VALUES:
            raise InvalidSimConfig(
                f"q_cases * (model_dim + 1) must be at most {MAX_TESTING_VALUES}, "
                f"got q_cases={self.q_cases}, model_dim={self.model_dim}"
            )
        if not 0.0 < self.training_rate < 1.0:
            raise InvalidSimConfig("training_rate must be in (0, 1)")


def params_for_simulation(config: SimConfig) -> EconomicParams:
    """Economic parameters the round engine settles with: the flat reward
    base on all six miner rates and the configured coin unit."""
    return EconomicParams(
        s=config.s,
        coin_unit=config.coin_unit,
        q_selected=config.q_selection_limit,
        q_cases=config.q_cases,
        r_cited=config.coin_unit,
        r_deposit=config.reward_base,
        r_hash_m=config.reward_base,
        r_encrypted_m=config.reward_base,
        r_case=config.reward_base,
        r_verified_m=config.reward_base,
        r_verify=config.reward_base,
    )


@dataclass
class Metrics:
    """Per-round series captured after each settlement: of the balances
    and versions, only each round's CSV rows, balance total and bucket shares."""

    participant_ids: list[str]
    csv_rows: list[str] = field(default_factory=list)
    coin_totals: list[float] = field(default_factory=list)
    bucket_shares: list[dict[str, float]] = field(default_factory=list)
    trainer_count: list[int] = field(default_factory=list)
    mo_count: list[int] = field(default_factory=list)
    success_count: list[int] = field(default_factory=list)
    minted_cumulative: list[float] = field(default_factory=list)
    forfeited_cumulative: list[float] = field(default_factory=list)
    citation_cumulative: list[float] = field(default_factory=list)
    # round-robin variant only: does every upload so far earn x(x-1)q/2?
    closed_form_exact: bool | None = None

    @property
    def rounds(self) -> int:
        return len(self.coin_totals)

    def add_round(
        self, coins: list[float], versions: list[int], trainers: int, mos: int,
        successes: int, minted: float, forfeited: float, citations: float,
    ) -> None:
        """Append one settled round to every per-round series. Generated
        participant ids, integers and ``repr`` of a float hold no comma,
        quote or line break, so no CSV field needs quoting."""
        round_number = len(self.coin_totals) + 1
        self.csv_rows.append("".join(
            f"{round_number},{pid},{coin!r},{version}\n"
            for pid, coin, version in zip(self.participant_ids, coins, versions)
        ))
        self.coin_totals.append(math.fsum(coins))
        self.bucket_shares.append(bucket_shares(versions))
        self.trainer_count.append(trainers)
        self.mo_count.append(mos)
        self.success_count.append(successes)
        self.minted_cumulative.append(minted)
        self.forfeited_cumulative.append(forfeited)
        self.citation_cumulative.append(citations)

    def to_csv(self) -> str:
        """Plot-ready rows: (round, participant_id, coins, model_version)."""
        return "round,participant_id,coins,model_version\n" + "".join(self.csv_rows)


def version_buckets(versions: Sequence[int]) -> dict[str, int]:
    """Partition holders into latest / latest-1..9 / older / none."""
    counts = {label: 0 for label in BUCKET_LABELS}
    head = max(versions) if versions else 0
    for v in versions:
        if v == 0:
            counts["none"] += 1
        else:
            gap = head - v
            if gap == 0:
                counts["latest"] += 1
            elif gap <= 9:
                counts[f"latest-{gap}"] += 1
            else:
                counts["older"] += 1
    return counts


def bucket_shares(versions: Sequence[int]) -> dict[str, float]:
    counts = version_buckets(versions)
    total = len(versions)
    return {label: counts[label] / total for label in BUCKET_LABELS}


@dataclass
class SimRun:
    """A completed simulation: final state, metrics, and per-round logs."""

    config: SimConfig
    state: protocol.SimState
    metrics: Metrics
    logs: list[protocol.RoundLog]


def simulate_run(config: SimConfig) -> SimRun:
    """Run the configured number of rounds; deterministic per seed."""
    rng = random.Random(config.seed)
    state = protocol.init_state(config, rng)
    params = params_for_simulation(config)
    metrics = Metrics(participant_ids=list(state.participants))
    logs: list[protocol.RoundLog] = []
    minted = forfeited = citations = 0.0
    for _ in range(config.rounds):
        state, log = protocol.run_round(state, params, config, rng)
        logs.append(log)
        minted += log.minted
        forfeited += log.forfeited
        citations += log.citation_coins
        metrics.add_round(
            [p.coins for p in state.participants.values()],
            [p.model_version for p in state.participants.values()],
            len(log.contracts), len(log.assignment.mos),
            sum(success for _, _, _, success, _ in log.training),
            minted, forfeited, citations,
        )
    return SimRun(config, state, metrics, logs)


def run_round_robin(
    q_participants: int, rounds: int, coin_unit: float = 1.0
) -> Metrics:
    """Deterministic single-lineage variant: one upload per round.

    Participants take turns extending one model lineage: the r-th upload
    is version r, made by participant (r-1) % q, and pays one coin unit to
    the owner of each of the r - 1 versions before it. Cumulative citation
    coins then follow the x(x-1)q/2 closed form at each participant's x-th
    upload, which ``closed_form_exact`` checks as the rounds run.
    """
    if q_participants < 1:
        raise SimError("q_participants must be >= 1")
    ids = protocol.participant_ids(q_participants)
    coins = [0.0] * q_participants
    versions = [0] * q_participants
    metrics = Metrics(participant_ids=ids, closed_form_exact=True)
    citations = 0.0
    for r in range(1, rounds + 1):
        uploader = (r - 1) % q_participants
        for earlier in range(r - 1):
            coins[earlier % q_participants] += coin_unit
            citations += coin_unit
        versions[uploader] = r
        x = (r - 1) // q_participants + 1
        metrics.closed_form_exact &= coins[uploader] == closed_form_coins(x, q_participants)
        # one owner hands the lineage's head to one trainer, who succeeds
        metrics.add_round(coins, versions, 1, 1, 1, citations, 0.0, citations)
    return metrics


def closed_form_coins(x: int, q: int) -> float:
    """Cumulative citation coins at the x-th round-robin upload: x(x-1)q/2."""
    if x < 1 or q < 1:
        raise SimError(f"upload index and participant count must be >= 1, got {x}, {q}")
    return x * (x - 1) * q / 2.0


def trainer_fixed_point(q_mo_and_t: int, s: float) -> float:
    """Stable matched-trainer count once capacity stops binding: Q/(1+s)."""
    if not 0.0 <= s < 1.0:
        raise SimError(f"s must be in [0, 1), got {s}")
    return q_mo_and_t / (1.0 + s)


@dataclass(frozen=True)
class SustainabilityReport:
    mean_second_difference: float
    accelerating: bool
    per_participant_quadratic_coeff: float
    closed_form_exact: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def analyze_sustainability(metrics: Metrics) -> SustainabilityReport:
    """Does citation income accelerate over rounds?

    Computes the mean second difference of cumulative citation coins
    over the last half of the run (positive means accelerating), the mean
    over the Q participants of the leading coefficient of a least-squares
    quadratic fit to each one's cumulative coins, and, for round-robin
    variant metrics, whether every upload met the closed form exactly. Over
    rounds r = 1..n, w_r = (r - (n+1)/2)**2 - (n*n-1)/12 is orthogonal to
    1 and r, so the fitted mean is sum(w_r * coin_totals_r) / (Q *
    sum(w_r**2)). Every sum is a correctly rounded ``math.fsum``.
    """
    n = metrics.rounds
    if n < 20:
        raise InsufficientData(f"need >= 20 rounds, got {n}")
    c = metrics.citation_cumulative
    second = [(c[i + 2] - c[i + 1]) - (c[i + 1] - c[i]) for i in range(n - 2)]
    tail = second[len(second) // 2:]
    mean_second = math.fsum(tail) / len(tail)
    centre, spread = (n + 1) / 2, (n * n - 1) / 12
    weights = [(r - centre) ** 2 - spread for r in range(1, n + 1)]
    q = len(metrics.participant_ids)
    quad_coeff = math.fsum(w * total for w, total in zip(weights, metrics.coin_totals)) / (
        q * math.fsum(w * w for w in weights))
    return SustainabilityReport(
        mean_second_difference=mean_second,
        accelerating=mean_second > 0.0,
        per_participant_quadratic_coeff=quad_coeff,
        closed_form_exact=metrics.closed_form_exact,
    )


@dataclass(frozen=True)
class AccessibilityReport:
    fixed_point: float
    mean_trainer_count: float
    relative_deviation: float
    converged: bool
    bucket_shares_last: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


def analyze_accessibility(metrics: Metrics, config: SimConfig) -> AccessibilityReport:
    """Does the trainer count stabilize and do models spread to everyone?

    Reports the mean matched-trainer count over the last quartile
    against the Q/(1+s) fixed point (converged when within 10% of it)
    and the last round's shares of participants holding each of the
    latest ten versions, an older one, or none; ``metrics.bucket_shares``
    holds every round's.
    """
    n = metrics.rounds
    if n < ACCESSIBILITY_ROUNDS:
        raise InsufficientData(f"need >= {ACCESSIBILITY_ROUNDS} rounds, got {n}")
    fixed = trainer_fixed_point(config.q_mo_and_t, config.s)
    tail = metrics.trainer_count[-(n // 4):]
    # The integer sum is exact, so this is one correctly rounded division,
    # the same bits as numpy's float64 mean of the same counts.
    mean_count = sum(tail) / len(tail)
    deviation = abs(mean_count - fixed) / fixed if fixed > 0 else float("inf")
    return AccessibilityReport(
        fixed_point=fixed,
        mean_trainer_count=mean_count,
        relative_deviation=deviation,
        converged=deviation <= 0.10,
        bucket_shares_last=metrics.bucket_shares[-1],
    )


def summary_json(run: SimRun) -> str:
    """Condensed run summary with both analyses (when enough rounds ran)."""
    payload: dict = {
        "rounds": run.metrics.rounds,
        "participants": len(run.metrics.participant_ids),
        "seed": run.config.seed,
        "mode": run.config.mode,
        "trainer_counts": run.metrics.trainer_count,
        "mo_counts": run.metrics.mo_count,
        "minted_total": run.metrics.minted_cumulative[-1] if run.metrics.rounds else 0.0,
        "forfeited_total": run.metrics.forfeited_cumulative[-1] if run.metrics.rounds else 0.0,
    }
    try:
        payload["sustainability"] = analyze_sustainability(run.metrics).to_dict()
    except InsufficientData:
        payload["sustainability"] = None
    try:
        payload["accessibility"] = analyze_accessibility(run.metrics, run.config).to_dict()
    except InsufficientData:
        payload["accessibility"] = None
    return json.dumps(payload, indent=2)
