import csv
import hashlib
import io
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import protocol
from relaysim.chain import chain_to_jsonl, verify_chain_dump
from relaysim.sim import (
    BUCKET_LABELS,
    InsufficientData,
    InvalidSimConfig,
    Metrics,
    SimConfig,
    analyze_accessibility,
    analyze_sustainability,
    bucket_shares,
    closed_form_coins,
    config_from_mapping,
    params_for_simulation,
    run_round_robin,
    run_simulation,
    simulate_run,
    summary_json,
    trainer_fixed_point,
    version_buckets,
)

SMALL = dict(
    q_total_participants=16, q_miners=8, q_mo_and_t=8,
    q_selection_limit=2, q_cases=5,
)


def csv_history(metrics):
    """Each round's balances and versions, read back from ``to_csv()``.

    ``repr`` round-trips a float, so the balances are exact.
    """
    coins, versions = [], []
    for row in csv.DictReader(io.StringIO(metrics.to_csv())):
        if int(row["round"]) > len(coins):
            coins.append([])
            versions.append([])
        coins[-1].append(float(row["coins"]))
        versions[-1].append(int(row["model_version"]))
    return coins, versions


class TestConfig:
    def test_defaults_are_reference_setting(self):
        config = SimConfig()
        assert config.q_total_participants == 256
        assert config.q_miners == 128
        assert config.q_mo_and_t == 128
        assert config.q_selection_limit == 4
        assert config.budget_mo == 0.001
        assert config.pr_training == 0.9
        assert config.q_cases == 100
        assert config.s == 0.5
        assert config.reward_base == 0.001

    def test_pool_sum_invariant(self):
        with pytest.raises(InvalidSimConfig):
            SimConfig(q_total_participants=256, q_miners=100, q_mo_and_t=100)

    @pytest.mark.parametrize("seed", [-7, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(InvalidSimConfig):
            SimConfig(seed=seed)

    @pytest.mark.parametrize("q_miners, q_mo_and_t", [(-1, 9), (0, 8), (8, 0)])
    def test_empty_or_negative_pool_rejected(self, q_miners, q_mo_and_t):
        with pytest.raises(InvalidSimConfig):
            SimConfig(q_total_participants=8, q_miners=q_miners, q_mo_and_t=q_mo_and_t)

    def test_probability_bounds(self):
        with pytest.raises(InvalidSimConfig):
            SimConfig(pr_training=1.5)
        with pytest.raises(InvalidSimConfig):
            SimConfig(s=1.0)

    @pytest.mark.parametrize("field, value", [("budget_mo", math.nan), ("reward_base", math.inf)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidSimConfig):
            SimConfig(**{field: value})

    def test_int_reward_base_builds_the_float_chain(self):
        # An int reward reaches the coinbase as an int, which hashes apart
        # from the float that the dump decodes.
        config = SimConfig(seed=7, rounds=2, reward_base=0, **SMALL)
        assert type(config.reward_base) is float
        dump = chain_to_jsonl(simulate_run(config).state.chain)
        assert verify_chain_dump(dump) == []
        assert dump == chain_to_jsonl(
            simulate_run(SimConfig(seed=7, rounds=2, reward_base=0.0, **SMALL)).state.chain)

    def test_non_finite_mapping_rejected(self):
        with pytest.raises(InvalidSimConfig):
            config_from_mapping({"coin_unit": "nan"})

    def test_mapping_layering(self):
        layered = config_from_mapping({"rounds": "7", "seed": "9"})
        assert layered.rounds == 7 and layered.seed == 9
        assert layered.q_cases == SimConfig().q_cases

    def test_unknown_key(self):
        with pytest.raises(InvalidSimConfig):
            config_from_mapping({"round": "7"})

    def test_bad_value(self):
        with pytest.raises(InvalidSimConfig):
            config_from_mapping({"rounds": "abc"})


class TestClosedForms:
    def test_first_upload_earns_nothing(self):
        assert closed_form_coins(1, 4) == 0.0
        assert closed_form_coins(1, 999) == 0.0

    def test_hand_values(self):
        assert closed_form_coins(3, 4) == 12.0
        assert closed_form_coins(10, 256) == 11520.0

    def test_fixed_point_reference(self):
        assert trainer_fixed_point(128, 0.5) == pytest.approx(85.33333333333333)

    def test_fixed_point_degenerate(self):
        assert trainer_fixed_point(128, 0.0) == 128.0
        assert trainer_fixed_point(0, 0.5) == 0.0


class TestRoundRobinVariant:
    def test_every_upload_matches_closed_form(self):
        metrics = run_round_robin(8, 40)
        assert metrics.uploads is not None
        for record in metrics.uploads:
            assert record.cumulative_citation_coins == closed_form_coins(
                record.upload_index, 8
            )

    def test_sustainability_analysis_checks_the_closed_form(self):
        metrics = run_round_robin(8, 24)
        assert metrics.uploads is not None
        assert metrics.rounds == 24
        report = analyze_sustainability(metrics)
        assert report.closed_form_exact is True
        assert report.accelerating


class TestRunSimulation:
    def test_zero_rounds_empty_series(self):
        metrics = run_simulation(SimConfig(rounds=0, **SMALL))
        assert metrics.rounds == 0
        assert metrics.csv_rows == [] and metrics.coin_totals == []
        assert metrics.bucket_shares == [] and metrics.trainer_count == []

    def test_seed_determinism_bit_identical_metrics(self):
        config = SimConfig(rounds=12, seed=77, **SMALL)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.to_csv() == second.to_csv()
        assert first.citation_cumulative == second.citation_cumulative

    def test_different_seeds_diverge(self):
        a = run_simulation(SimConfig(rounds=12, seed=1, **SMALL))
        b = run_simulation(SimConfig(rounds=12, seed=2, **SMALL))
        assert a.to_csv() != b.to_csv()

    def test_mo_count_follows_selection_recurrence(self):
        config = SimConfig(rounds=30, seed=5, **SMALL)
        m = run_simulation(config)
        for r in range(m.rounds - 1):
            expected = max(1, int(config.s * m.success_count[r]))
            assert m.mo_count[r + 1] == expected

    def test_deterministic_recurrence_once_capacity_unbinds(self):
        config = SimConfig(rounds=60, seed=5, pr_training=1.0)
        m = run_simulation(config)
        for r in range(30, m.rounds - 1):
            q_mo_next = max(1, int(config.s * m.trainer_count[r]))
            capacity = q_mo_next * config.q_selection_limit
            candidates = config.q_mo_and_t - q_mo_next
            assert capacity >= candidates  # capacity no longer binds
            assert m.trainer_count[r + 1] == candidates

    def test_version_buckets_partition(self):
        config = SimConfig(rounds=20, seed=5, **SMALL)
        m = run_simulation(config)
        for versions in csv_history(m)[1]:
            counts = version_buckets(versions)
            assert sum(counts.values()) == config.q_total_participants
            assert set(counts) == set(BUCKET_LABELS)

    @pytest.mark.parametrize("build", [
        lambda: run_simulation(SimConfig(rounds=20, seed=5, **SMALL)),
        lambda: run_round_robin(8, 30, coin_unit=0.1),
    ], ids=["abstract", "round-robin"])
    def test_totals_and_shares_follow_the_rows(self, build):
        metrics = build()
        coins, versions = csv_history(metrics)
        assert metrics.rounds == len(coins)
        assert metrics.coin_totals == [math.fsum(c) for c in coins]
        assert metrics.bucket_shares == [bucket_shares(v) for v in versions]

    def test_minted_equals_sum_of_round_logs(self):
        # Both sides add the round logs' fields left to right, so they are
        # equal exactly.
        for seed in (5, 7, 1009):
            run = simulate_run(SimConfig(rounds=40, seed=seed, **SMALL))
            for series, name in [
                (run.metrics.minted_cumulative, "minted"),
                (run.metrics.forfeited_cumulative, "forfeited"),
                (run.metrics.citation_cumulative, "citation_coins"),
            ]:
                assert series == list(itertools.accumulate(getattr(log, name) for log in run.logs))


def _synthetic_metrics(values, participants=4):
    metrics = Metrics(participant_ids=[f"p{i}" for i in range(participants)])
    for v in values:
        metrics.add_round([v / participants] * participants, [1] * participants,
                          2, 1, 2, v, 0.0, v)
    return metrics


class TestAnalyzeSustainability:
    def test_requires_twenty_rounds(self):
        with pytest.raises(InsufficientData):
            analyze_sustainability(_synthetic_metrics([float(i) for i in range(10)]))

    def test_linear_growth_is_not_accelerating(self):
        metrics = _synthetic_metrics([5.0 * i for i in range(40)])
        report = analyze_sustainability(metrics)
        assert report.mean_second_difference == 0.0
        assert not report.accelerating

    def test_quadratic_growth_is_accelerating(self):
        metrics = _synthetic_metrics([0.5 * i * i for i in range(40)])
        report = analyze_sustainability(metrics)
        assert report.accelerating
        assert report.per_participant_quadratic_coeff == pytest.approx(0.5 / 4, rel=1e-6)

    def test_stochastic_reference_run_accelerates(self):
        metrics = run_simulation(SimConfig(rounds=60, seed=11, **SMALL))
        assert analyze_sustainability(metrics).accelerating

    @pytest.mark.parametrize("metrics", [
        lambda: run_simulation(SimConfig(rounds=200, seed=7)),
        lambda: run_simulation(SimConfig(rounds=200, seed=1009)),
        lambda: run_round_robin(8, 80),
        lambda: run_round_robin(5, 400),
    ], ids=["seed-7", "seed-1009", "round-robin-8x80", "round-robin-5x400"])
    def test_figures_match_numpy(self, metrics):
        # numpy is the reference only: the analysis itself is plain floats.
        metrics = metrics()
        report = analyze_sustainability(metrics)
        second = np.diff(np.asarray(metrics.citation_cumulative), n=2)
        rounds = np.arange(1, metrics.rounds + 1, dtype=float)
        quad = np.polyfit(rounds, np.asarray(csv_history(metrics)[0]), deg=2)[0]
        assert report.mean_second_difference == pytest.approx(
            float(second[len(second) // 2:].mean()), rel=1e-12)
        assert report.per_participant_quadratic_coeff == pytest.approx(
            float(np.mean(quad)), rel=1e-12)


class TestAnalyzeAccessibility:
    def test_requires_fifty_rounds(self):
        with pytest.raises(InsufficientData):
            analyze_accessibility(
                _synthetic_metrics([1.0] * 20), SimConfig(rounds=0, **SMALL)
            )

    def test_collapse_flagged_as_non_converged(self):
        config = SimConfig(rounds=60, seed=3, pr_training=0.0, **SMALL)
        metrics = run_simulation(config)
        report = analyze_accessibility(metrics, config)
        assert not report.converged
        assert report.mean_trainer_count <= config.q_selection_limit

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**20), min_size=50, max_size=400))
    def test_mean_trainer_count_matches_numpy_mean(self, counts):
        # The same bits as numpy's float64 mean of the last quarter's counts.
        metrics = _synthetic_metrics([0.0] * len(counts))
        metrics.trainer_count = counts
        report = analyze_accessibility(metrics, SimConfig(rounds=0, **SMALL))
        assert report.mean_trainer_count == float(np.mean(counts[-(len(counts) // 4):]))

    def test_bucket_series_lengths(self):
        config = SimConfig(rounds=55, seed=3, **SMALL)
        metrics = run_simulation(config)
        report = analyze_accessibility(metrics, config)
        assert len(metrics.bucket_shares) == 55
        assert report.bucket_shares_last == metrics.bucket_shares[-1]
        assert math.isclose(sum(report.bucket_shares_last.values()), 1.0)


class TestBuckets:
    def test_everyone_on_latest_leaves_none_empty(self):
        shares = bucket_shares([5, 5, 5, 5])
        assert shares["latest"] == 1.0
        assert shares["none"] == 0.0

    def test_gap_layout(self):
        shares = bucket_shares([10, 9, 10, 0, 1])
        assert shares["latest"] == pytest.approx(0.4)
        assert shares["latest-1"] == pytest.approx(0.2)
        assert shares["none"] == pytest.approx(0.2)
        assert shares["latest-9"] == pytest.approx(0.2)

    def test_older_than_nine(self):
        shares = bucket_shares([20, 5])
        assert shares["older"] == pytest.approx(0.5)


def reference_csv(participant_ids, coins, versions):
    """``Metrics.to_csv`` as the ``csv.writer`` form it replaced."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["round", "participant_id", "coins", "model_version"])
    for round_number, (round_coins, round_versions) in enumerate(zip(coins, versions), start=1):
        for pid, coin, version in zip(participant_ids, round_coins, round_versions):
            writer.writerow([round_number, pid, repr(coin), version])
    return buffer.getvalue()


def simulated_history(config):
    """Each round's balances and versions, copied after each round of a
    loop over ``protocol.run_round`` seeded as ``simulate_run`` seeds it."""
    rng = random.Random(config.seed)
    state = protocol.init_state(config, rng)
    params = params_for_simulation(config)
    coins, versions = [], []
    for _ in range(config.rounds):
        state, _ = protocol.run_round(state, params, config, rng)
        coins.append([p.coins for p in state.participants.values()])
        versions.append([p.model_version for p in state.participants.values()])
    return list(state.participants), coins, versions


def round_robin_history(q_participants, rounds):
    """``run_round_robin``'s balances and upload counts after each round:
    the r-th upload cites the owners of the r - 1 before it."""
    coins, uploads = [0.0] * q_participants, [0] * q_participants
    coin_rows, upload_rows = [], []
    for r in range(rounds):
        for earlier in range(r):
            coins[earlier % q_participants] += 1.0
        uploads[r % q_participants] += 1
        coin_rows.append(list(coins))
        upload_rows.append(list(uploads))
    return protocol.participant_ids(q_participants), coin_rows, upload_rows


class TestMetricsCsv:
    @pytest.mark.parametrize("run, history, args", [
        (run_simulation, simulated_history, (SimConfig(seed=3, rounds=6, **SMALL),)),
        (run_simulation, simulated_history,
         (SimConfig(seed=3, rounds=6, coin_unit=0.1, **SMALL),)),
        (run_round_robin, round_robin_history, (1001, 4)),
    ], ids=["abstract", "coin-unit-0.1", "round-robin-1001"])
    def test_rows_equal_the_csv_writer_form(self, run, history, args):
        assert run(*args).to_csv() == reference_csv(*history(*args))

    def test_special_floats_need_no_quoting(self):
        ids = ["p000", "p001", "p002"]
        coins = [[float("inf"), -0.0, 1e-300], [float("nan"), 0.1, 2.5e16]]
        versions = [[0, 1, 2], [3, 4, 5]]
        metrics = Metrics(participant_ids=ids)
        for round_coins, round_versions in zip(coins, versions):
            metrics.add_round(round_coins, round_versions, 0, 0, 0, 0.0, 0.0, 0.0)
        assert metrics.to_csv() == reference_csv(ids, coins, versions)

    def test_no_rounds_gives_the_header_only(self):
        metrics = Metrics(participant_ids=["p000"])
        assert metrics.to_csv() == reference_csv(["p000"], [], []) == (
            "round,participant_id,coins,model_version\n"
        )


class TestGoldenOutputs:
    """Fixed-seed outputs stay byte-identical across refactors."""

    @pytest.mark.parametrize("mode, rounds, chain_sha, csv_sha", [
        ("abstract", 20,
         "a1f0518a9a64934068e0c58e2c1ce2311d2aaf52d3e2fc8ffc8c67441e5d3752",
         "b2a8f59364173e6907a174b691ed4b0e5445087c16f1d9bda224e9559efdff2c"),
        ("concrete", 4,
         "968ba15587a743dc5cc3677c294f02ceb8147531a4124aceae2956d3ea0afb34",
         "767159e21f7aaa19798c020652e675f6b50133b9974b36623631053cc045eda6"),
    ])
    def test_seed_7_digests(self, mode, rounds, chain_sha, csv_sha):
        self._check(SimConfig(seed=7, rounds=rounds, mode=mode), chain_sha, csv_sha)

    @pytest.mark.parametrize("mode, rounds, toggle, chain_sha, csv_sha", [
        ("abstract", 20, dict(second_price_deposits=True),
         "50c1c0e34da26046b2de17f78ae7c5b307265fa860cc8d04b48e2d78607bf82e",
         "18a65a440a8d219fdd4c93a620c702a58c5e10d864f5504a092bf64aebe8099d"),
        ("abstract", 20, dict(distinct_miners_per_round=False),
         "a065b5c7826a28b329b6b8eea55231cde1d5272443160ae7ad3e37c33622376e",
         "215c9959a7530c720835586337cc9c5dfc2574a2804aba7f279a98484844a6e9"),
        ("concrete", 4, dict(second_price_deposits=True),
         "d6de8c6b5181275082d842925273ba8ac32c184c1c35702ac2931cc212d8c7c8",
         "b4975f773aff5d0639049929f13227c64c6e3a9f3429ab0ed044306b46032823"),
        ("abstract", 40, dict(coin_unit=0.1),
         "e0f98dc7f805ff9953ab4c51f1b8e2b705cbd778d16e326a88eba47e66063bdd",
         "2a129623e462a4d41a5821d4f558efcaa7b3430fa7390e31f00bf5dc0899d84f"),
    ], ids=["abstract-second-price", "abstract-shared-miners", "concrete-second-price",
            "abstract-coin-unit-0.1"])
    def test_seed_7_toggle_digests(self, mode, rounds, toggle, chain_sha, csv_sha):
        self._check(SimConfig(seed=7, rounds=rounds, mode=mode, **toggle), chain_sha, csv_sha)

    @pytest.mark.parametrize("model_dim, chain_sha, csv_sha", [
        (1, "e4ddc0ecd9a2e03b1f714f207803fdbe71c1b8269c1d9530af906faf4640960d",
         "3b83b3357cd23860259873680137afadd42480fd4544c178e219575c10a0470a"),
        (7, "a998f9fec2aed04c88ec789a2bd15f8b82294aeeb87d5814f5f8fb261724df9b",
         "043ccb93f7da311a62ddb435c814dce56aef427a41b26cf99d40c7f5ba9a85ed"),
    ])
    def test_seed_7_concrete_model_dims(self, model_dim, chain_sha, csv_sha):
        self._check(SimConfig(seed=7, rounds=6, mode="concrete", model_dim=model_dim),
                    chain_sha, csv_sha)

    # Rounds 8-20 of these runs verify 74-86 submissions each: the steady
    # state of the reference setting, past the cold start the pins above
    # stop in.
    @pytest.mark.parametrize("seed, chain_sha, csv_sha", [
        (7, "0a77bb5f139babbb51477bb4ea6fbfbb7740b7011c1c05305fdd1dd225445ec4",
         "d2f80abfc159280454a84f796402b437a222543461046ac1e6930c8ada93662b"),
        (1009, "010aa57d0722c00f7b5a8dc2c2def4739196af88d13a24d487478720164af0a2",
         "39f3e36bba2c2ae2666eadab82bf8935bb4f287bcd8002715cd23d9402f72fd7"),
    ])
    def test_concrete_steady_state_digests(self, seed, chain_sha, csv_sha):
        self._check(SimConfig(seed=seed, rounds=20, mode="concrete"), chain_sha, csv_sha)

    @staticmethod
    def _check(config, chain_sha, csv_sha):
        run = simulate_run(config)
        dump = chain_to_jsonl(run.state.chain)
        assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == chain_sha
        assert hashlib.sha256(run.metrics.to_csv().encode("utf-8")).hexdigest() == csv_sha


class TestGoldenSummary:
    """summary.json of seed 7, abstract mode, 60 rounds, pinned exactly."""

    @pytest.fixture(scope="class")
    def text(self):
        return summary_json(simulate_run(SimConfig(seed=7, rounds=60)))

    @pytest.fixture(scope="class")
    def summary(self, text):
        return json.loads(text)

    def test_accessibility_exact(self, summary):
        assert summary["accessibility"] == {
            "fixed_point": 85.33333333333333,
            "mean_trainer_count": 88.4,
            "relative_deviation": 0.03593750000000012,
            "converged": True,
            "bucket_shares_last": {
                "latest": 0.30859375, "latest-1": 0.2734375, "latest-2": 0.18359375,
                "latest-3": 0.09375, "latest-4": 0.05078125, "latest-5": 0.03515625,
                "latest-6": 0.0234375, "latest-7": 0.00390625, "latest-8": 0.015625,
                "latest-9": 0.0078125, "older": 0.00390625, "none": 0.0,
            },
        }

    def test_sustainability(self, summary):
        assert summary["sustainability"] == {
            "mean_second_difference": 42.206896551724135,
            "accelerating": True,
            "per_participant_quadratic_coeff": 0.07444224309453445,
            "closed_form_exact": None,
        }

    def test_whole_summary_exact(self, text):
        # summary.json as `relaysim simulate --seed 7 --rounds 60` writes it:
        # this text and a line break.
        assert hashlib.sha256(text.encode("utf-8") + b"\n").hexdigest() == (
            "6060979c0c75c334715dd454ced0c2811ac3788c0347406c18246de8134778c6")
