"""Deterministic simulator and incentive analyzer for a blockchain-coordinated
relay-learning protocol: sequential model training recorded in four-stage
rounds (deposit, encryption, testing, settlement blocks) with escrowed
deposits, encryption-gated verification, top-fraction ranking, and citation
rewards cascading up each model's lineage."""

from .auction import (
    Bid,
    SelectionResult,
    match_round,
    mo_deposit_per_trainer,
    select_trainers,
    trainer_bid,
)
from .economics import (
    ConditionReport,
    EconomicParams,
    IncentiveReport,
    RoleStrategy,
    check_ic,
    check_ir,
    evaluate_conditions,
    minimal_citation_reward,
    minimal_miner_rewards,
    minimal_rewards,
    strategy_utility,
)
from .sim import (
    Metrics,
    SimConfig,
    analyze_accessibility,
    analyze_sustainability,
    closed_form_coins,
    run_round_robin,
    simulate_run,
    trainer_fixed_point,
)

__version__ = "0.1.0"
