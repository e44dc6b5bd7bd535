import collections
import csv
import dataclasses
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
from relaysim.cli import BadOverride, coerce_fields
from relaysim.sim import (
    BUCKET_LABELS,
    InsufficientData,
    InvalidSimConfig,
    MAX_PARTICIPANTS,
    MAX_TESTING_VALUES,
    Metrics,
    SimConfig,
    analyze_accessibility,
    analyze_sustainability,
    bucket_shares,
    closed_form_coins,
    params_for_simulation,
    run_round_robin,
    simulate_run,
    summary_json,
    trainer_fixed_point,
    version_buckets,
)

SMALL = dict(
    q_miners=8, q_mo_and_t=8,
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
        assert config.q_miners == 128
        assert config.q_mo_and_t == 128
        assert config.q_selection_limit == 4
        assert config.budget_mo == 0.001
        assert config.pr_training == 0.9
        assert config.q_cases == 100
        assert config.s == 0.5
        assert config.reward_base == 0.001

    @pytest.mark.parametrize("seed", [-7, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(InvalidSimConfig):
            SimConfig(seed=seed)

    @pytest.mark.parametrize("q_miners, q_mo_and_t", [(-1, 9), (0, 8), (8, 0)])
    def test_empty_or_negative_pool_rejected(self, q_miners, q_mo_and_t):
        with pytest.raises(InvalidSimConfig):
            SimConfig(q_miners=q_miners, q_mo_and_t=q_mo_and_t)

    @pytest.mark.parametrize("q_miners", [1, MAX_PARTICIPANTS // 2])
    def test_pool_past_the_cap_rejected(self, q_miners):
        # Built, never run: only the refusal is checked, at the cap + 1.
        q_mo_and_t = MAX_PARTICIPANTS + 1 - q_miners
        with pytest.raises(InvalidSimConfig, match=f"at most {MAX_PARTICIPANTS}, "
                                                   f"got {q_miners} and {q_mo_and_t}$"):
            SimConfig(q_miners=q_miners, q_mo_and_t=q_mo_and_t)
        SimConfig(q_miners=q_miners, q_mo_and_t=q_mo_and_t - 1)

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    @pytest.mark.parametrize("q_cases, model_dim", [
        (10**300, 4), (100, 10**300), (MAX_TESTING_VALUES // 5 + 1, 4),
        (1, MAX_TESTING_VALUES), (2, MAX_TESTING_VALUES // 2),
    ], ids=["huge-q_cases", "huge-model_dim", "q_cases-past-cap", "model_dim-past-cap",
            "both-past-cap"])
    def test_testing_table_past_the_cap_rejected(self, mode, q_cases, model_dim):
        # Built, never run: only the refusal is checked. Each count alone
        # fits a float, so only the cap on the table stops the run.
        with pytest.raises(InvalidSimConfig, match=(
                fr"^q_cases \* \(model_dim \+ 1\) must be at most {MAX_TESTING_VALUES}, "
                f"got q_cases={q_cases}, model_dim={model_dim}$")):
            SimConfig(mode=mode, q_cases=q_cases, model_dim=model_dim)

    @pytest.mark.parametrize("q_cases, model_dim", [
        (MAX_TESTING_VALUES // 5, 4), (1, MAX_TESTING_VALUES - 1),
        (MAX_TESTING_VALUES // 2, 1),
    ])
    def test_testing_table_at_the_cap_builds(self, q_cases, model_dim):
        SimConfig(mode="concrete", q_cases=q_cases, model_dim=model_dim)

    def test_probability_bounds(self):
        with pytest.raises(InvalidSimConfig):
            SimConfig(pr_training=1.5)
        with pytest.raises(InvalidSimConfig):
            SimConfig(s=1.0)

    @pytest.mark.parametrize("field, value", [("budget_mo", math.nan), ("reward_base", math.inf)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidSimConfig):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SimConfig)
                                      if f.type in ("int", "float")])
    def test_number_too_large_for_a_float_rejected(self, name):
        # Built, never run: a count this large would not finish a run.
        with pytest.raises(InvalidSimConfig, match=f"^{name} is too large for a float$"):
            SimConfig(**{name: 10**400})

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
            SimConfig(**coerce_fields(SimConfig, {"coin_unit": "nan"}))

    def test_mapping_layering(self):
        layered = SimConfig(**coerce_fields(SimConfig, {"rounds": "7", "seed": "9"}))
        assert layered.rounds == 7 and layered.seed == 9
        assert layered.q_cases == SimConfig().q_cases

    def test_unknown_key(self):
        with pytest.raises(BadOverride):
            coerce_fields(SimConfig, {"round": "7"})

    def test_bad_value(self):
        with pytest.raises(BadOverride):
            coerce_fields(SimConfig, {"rounds": "abc"})


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


def round_robin_uploads(metrics):
    """Each round's uploader, read back from ``to_csv()`` as the one holder
    of that round's version, with its balance and upload index then."""
    coins, versions = csv_history(metrics)
    upload_counts = collections.Counter()
    for r, (balances, held) in enumerate(zip(coins, versions), start=1):
        uploader = held.index(r)
        upload_counts[uploader] += 1
        yield uploader, balances[uploader], upload_counts[uploader]


class TestRoundRobinVariant:
    def test_every_upload_matches_closed_form(self):
        metrics = run_round_robin(8, 40)
        uploads = list(round_robin_uploads(metrics))
        assert [uploader for uploader, _, _ in uploads] == [r % 8 for r in range(40)]
        for _, coins, x in uploads:
            assert coins == closed_form_coins(x, 8)  # zero tolerance

    def test_sustainability_analysis_checks_the_closed_form(self):
        metrics = run_round_robin(8, 24)
        assert metrics.rounds == 24
        report = analyze_sustainability(metrics)
        assert report.closed_form_exact is True
        assert report.accelerating
        # twice the coin unit pays twice the closed form
        assert analyze_sustainability(
            run_round_robin(8, 24, coin_unit=2.0)).closed_form_exact is False
        assert analyze_sustainability(
            simulate_run(SimConfig(rounds=20, seed=5, **SMALL)).metrics).closed_form_exact is None

    def test_rows_hold_the_uploaded_versions(self):
        metrics = run_round_robin(8, 10)
        versions = csv_history(metrics)[1][-1]
        # p001 made version 10 and p000 version 9; p002..p007 made 3..8
        assert versions == [9, 10, 3, 4, 5, 6, 7, 8]
        assert metrics.bucket_shares[-1] == bucket_shares(versions) == {
            label: 0.125 if label in ("latest", *(f"latest-{k}" for k in range(1, 8)))
            else 0.0 for label in BUCKET_LABELS}


class TestRunSimulation:
    def test_zero_rounds_empty_series(self):
        metrics = simulate_run(SimConfig(rounds=0, **SMALL)).metrics
        assert metrics.rounds == 0
        assert metrics.csv_rows == [] and metrics.coin_totals == []
        assert metrics.bucket_shares == [] and metrics.trainer_count == []

    def test_seed_determinism_bit_identical_metrics(self):
        config = SimConfig(rounds=12, seed=77, **SMALL)
        first = simulate_run(config).metrics
        second = simulate_run(config).metrics
        assert first.to_csv() == second.to_csv()
        assert first.citation_cumulative == second.citation_cumulative

    def test_different_seeds_diverge(self):
        a = simulate_run(SimConfig(rounds=12, seed=1, **SMALL)).metrics
        b = simulate_run(SimConfig(rounds=12, seed=2, **SMALL)).metrics
        assert a.to_csv() != b.to_csv()

    def test_mo_count_follows_selection_recurrence(self):
        config = SimConfig(rounds=30, seed=5, **SMALL)
        m = simulate_run(config).metrics
        for r in range(m.rounds - 1):
            expected = max(1, int(config.s * m.success_count[r]))
            assert m.mo_count[r + 1] == expected

    def test_deterministic_recurrence_once_capacity_unbinds(self):
        config = SimConfig(rounds=60, seed=5, pr_training=1.0)
        m = simulate_run(config).metrics
        for r in range(30, m.rounds - 1):
            q_mo_next = max(1, int(config.s * m.trainer_count[r]))
            capacity = q_mo_next * config.q_selection_limit
            candidates = config.q_mo_and_t - q_mo_next
            assert capacity >= candidates  # capacity no longer binds
            assert m.trainer_count[r + 1] == candidates

    def test_version_buckets_partition(self):
        config = SimConfig(rounds=20, seed=5, **SMALL)
        m = simulate_run(config).metrics
        for versions in csv_history(m)[1]:
            counts = version_buckets(versions)
            assert sum(counts.values()) == config.q_miners + config.q_mo_and_t
            assert set(counts) == set(BUCKET_LABELS)

    @pytest.mark.parametrize("build", [
        lambda: simulate_run(SimConfig(rounds=20, seed=5, **SMALL)).metrics,
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
        metrics = simulate_run(SimConfig(rounds=60, seed=11, **SMALL)).metrics
        assert analyze_sustainability(metrics).accelerating

    @pytest.mark.parametrize("metrics", [
        lambda: simulate_run(SimConfig(rounds=200, seed=7)).metrics,
        lambda: simulate_run(SimConfig(rounds=200, seed=1009)).metrics,
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
        metrics = simulate_run(config).metrics
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
        metrics = simulate_run(config).metrics
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
    """``run_round_robin``'s balances and held versions after each round:
    the r-th upload is version r, made by participant (r - 1) % q, and
    cites the owners of the r - 1 before it."""
    coins, versions = [0.0] * q_participants, [0] * q_participants
    coin_rows, version_rows = [], []
    for r in range(rounds):
        for earlier in range(r):
            coins[earlier % q_participants] += 1.0
        versions[r % q_participants] = r + 1
        coin_rows.append(list(coins))
        version_rows.append(list(versions))
    return protocol.participant_ids(q_participants), coin_rows, version_rows


class TestMetricsCsv:
    @pytest.mark.parametrize("run, history, args", [
        (lambda c: simulate_run(c).metrics, simulated_history,
         (SimConfig(seed=3, rounds=6, **SMALL),)),
        (lambda c: simulate_run(c).metrics, simulated_history,
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
         "051b0a0f2cb568c20ab7e5d9cc71ba9b3e3022b14d1bcb78a49ad9fe5a18b206",
         "b2a8f59364173e6907a174b691ed4b0e5445087c16f1d9bda224e9559efdff2c"),
        ("concrete", 4,
         "3ed6e3c8e0c3868b841ab5d4568a5d4772030c0d623797b8ec0932065758dd94",
         "767159e21f7aaa19798c020652e675f6b50133b9974b36623631053cc045eda6"),
    ], ids=["abstract-20", "concrete-4"])
    def test_seed_7_digests(self, mode, rounds, chain_sha, csv_sha):
        self._check(SimConfig(seed=7, rounds=rounds, mode=mode), chain_sha, csv_sha)

    @pytest.mark.parametrize("mode, rounds, toggle, chain_sha, csv_sha", [
        ("abstract", 20, dict(second_price_deposits=True),
         "a9e0d1daf6450fdd5d24d626b8cc01722ca54b04f3793a548f2475bc420336dd",
         "18a65a440a8d219fdd4c93a620c702a58c5e10d864f5504a092bf64aebe8099d"),
        ("abstract", 20, dict(distinct_miners_per_round=False),
         "73fa2af29835f7723f4c8bc62a59fc043ee16a84c5432d69d446403caad4bad9",
         "215c9959a7530c720835586337cc9c5dfc2574a2804aba7f279a98484844a6e9"),
        ("concrete", 4, dict(second_price_deposits=True),
         "51a78c5a4c14b4b9535c0460aaf88dcb7147d89ec2f737d3f77a98f28f3701da",
         "b4975f773aff5d0639049929f13227c64c6e3a9f3429ab0ed044306b46032823"),
        ("abstract", 40, dict(coin_unit=0.1),
         "0fd64488c985d509f83fe196b52bcfd48f876792048d68c0eb0912948f391ad5",
         "2a129623e462a4d41a5821d4f558efcaa7b3430fa7390e31f00bf5dc0899d84f"),
    ], ids=["abstract-second-price", "abstract-shared-miners", "concrete-second-price",
            "abstract-coin-unit-0.1"])
    def test_seed_7_toggle_digests(self, mode, rounds, toggle, chain_sha, csv_sha):
        self._check(SimConfig(seed=7, rounds=rounds, mode=mode, **toggle), chain_sha, csv_sha)

    @pytest.mark.parametrize("model_dim, chain_sha, csv_sha", [
        (1, "9fc66e4b2e143563efd4605eac03350dbb6ccc58665f03f4ae5b6bbc51f707bc",
         "3b83b3357cd23860259873680137afadd42480fd4544c178e219575c10a0470a"),
        (7, "d96a390dc40b10f1f64d9b8e007b0e20c339bb2c5370d31a189b4fd49ac81157",
         "043ccb93f7da311a62ddb435c814dce56aef427a41b26cf99d40c7f5ba9a85ed"),
        # the kernel takes the inputs four at a time: one block and one
        # weight left over, then two blocks and one
        (5, "32236e022d85901cb81962e1e538f83dfb0b29001b8112558e818f063d536e26",
         "86408de6426efb327108f909d0fddd695e3eca552bec4eb9b0b376736bd102a0"),
        (9, "280fe20eb8cdb87c8cc59a76c5e957635db2906c21850bd78d002091f7390938",
         "d581f1840ce80effbe8b550c3159d250d7c2674054444c9c72508daa3ad3902a"),
    ], ids=["dim-1", "dim-7", "dim-5", "dim-9"])
    def test_seed_7_concrete_model_dims(self, model_dim, chain_sha, csv_sha):
        self._check(SimConfig(seed=7, rounds=6, mode="concrete", model_dim=model_dim),
                    chain_sha, csv_sha)

    # Rounds 8-20 of these runs verify 74-86 submissions each: the steady
    # state of the reference setting, past the cold start the pins above
    # stop in. CI's determinism job checks its 3.10 runs of both seeds
    # against these pins; re-pin in both places together.
    @pytest.mark.parametrize("seed, chain_sha, csv_sha", [
        (7, "7ad7d1524cfb941a2d1c590ad234e954a4b8032cab1c9d1f793369cb0918996c",
         "d2f80abfc159280454a84f796402b437a222543461046ac1e6930c8ada93662b"),
        (1009, "fe838964e7e0ce45980cf1ea274d5e9a1c2d59e00ad4207e246a6b8ba73a22d5",
         "39f3e36bba2c2ae2666eadab82bf8935bb4f287bcd8002715cd23d9402f72fd7"),
    ], ids=["seed-7", "seed-1009"])
    def test_concrete_steady_state_digests(self, seed, chain_sha, csv_sha):
        self._check(SimConfig(seed=seed, rounds=20, mode="concrete"), chain_sha, csv_sha)

    # The summary.json that `simulate --mode concrete --rounds 20 --seed 1009`
    # writes. CI's determinism job checks its 3.10 run against this pin and
    # the seed-1009 pins above; re-pin in both places together.
    def test_concrete_1009_summary_digest(self):
        run = simulate_run(SimConfig(seed=1009, rounds=20, mode="concrete"))
        assert self._sha(summary_json(run) + "\n") == (
            "64e1c0510a293b60951ff26bbd5a5a95e0f3cedcd7a77651449ea3ccc3cdca70")

    # The same for `--seed 7`, checked by CI's determinism job with the
    # seed-7 pins above; re-pin in both places together.
    def test_concrete_7_summary_digest(self):
        run = simulate_run(SimConfig(seed=7, rounds=20, mode="concrete"))
        assert self._sha(summary_json(run) + "\n") == (
            "dbc57633b54dd6599b3bbb021057d3b46030a4d70dad18119efe8894f8de713c")

    # The benchmark's abstract-ref setting: the reference config for 200
    # rounds, and all three files `simulate` writes (summary.json ends in a
    # newline). CI's determinism job checks its 3.10 seed-7 run against the
    # seed-7 pins; re-pin in both places together.
    @pytest.mark.parametrize("seed, chain_sha, csv_sha, summary_sha", [
        (7, "69a498e630d5494ebf81ed70834a2372f91a6e5fe78a9988689ed61dda96984a",
         "f254ce630fae3396ddd10466252d0fff8fab47884638f8c81fb0efdfecb77878",
         "157dbe1717ef489639c8b83cf8441b1b48602a2a91da3a7b20f592c513ab0c4d"),
        (1009, "3bbcc053d2b09dfce267f08c5dd696c91100296dcd4fd0be62e37ed2f8ba5372",
         "273b60c968ac322fb09486f9f40c1c6da644aa662db496a75d26a743f68b6be7",
         "345f174f1c6c42868662b2fee13a53826de84d10ef57fa184cb9db7adfce5c15"),
    ], ids=["seed-7", "seed-1009"])
    def test_abstract_reference_digests(self, seed, chain_sha, csv_sha, summary_sha):
        run = self._check(SimConfig(seed=seed, rounds=200), chain_sha, csv_sha)
        assert self._sha(summary_json(run) + "\n") == summary_sha

    @staticmethod
    def _sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def _check(cls, config, chain_sha, csv_sha):
        run = simulate_run(config)
        assert cls._sha(chain_to_jsonl(run.state.chain)) == chain_sha
        assert cls._sha(run.metrics.to_csv()) == csv_sha
        return run


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
