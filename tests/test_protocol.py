import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import crypto, protocol
from relaysim.auction import trainer_bid
from relaysim.chain import Coinbase, EncryptionPayload, VerifiedRecord
from relaysim.protocol import (
    CONTRACT_FORFEITED,
    GENESIS_VERSION,
    CONTRACT_RETURNED,
    MODELS,
    ContractStateError,
    DepositContract,
    Lineage,
    Participant,
    PoolSizeMismatch,
    Submission,
    UnknownContract,
    allocate_roles,
    collect_verified,
    init_state,
    participant_ids,
    rank_and_select,
    run_round,
    settle,
)
from relaysim.sim import SimConfig, params_for_simulation, simulate_run

SMALL = SimConfig(
    q_total_participants=16, q_miners=8, q_mo_and_t=8,
    q_selection_limit=2, q_cases=5, rounds=0, seed=1,
)

TABLE_DEFAULTS = SimConfig(rounds=0, seed=1)


def fresh(config=SMALL, seed=1):
    rng = random.Random(seed)
    return init_state(config, rng), rng


class TestAllocateRoles:
    def test_round_one_has_sole_genesis_mo(self):
        config = TABLE_DEFAULTS
        state, rng = fresh(config)
        assignment = allocate_roles(state, config, rng)
        assert assignment.mos == (state.genesis_id,)
        assert len(assignment.miners) == 128
        assert len(assignment.candidates) == 127

    def test_previous_top_carry_over(self):
        state, rng = fresh()
        state.round_index = 1
        state.prev_top = [f"p{i:03d}" for i in range(2, 8)]
        state.prev_mos = ["p000"]
        assignment = allocate_roles(state, SMALL, rng)
        assert assignment.mos == tuple(state.prev_top)
        assert len(assignment.mos) == 6

    def test_zero_success_round_retains_one_mo(self):
        state, rng = fresh()
        state.round_index = 3
        state.prev_top = []
        state.prev_mos = ["p005", "p002"]
        assignment = allocate_roles(state, SMALL, rng)
        assert assignment.mos == ("p005",)

    def test_pool_size_mismatch(self):
        state, rng = fresh()
        other = SimConfig(
            q_total_participants=9, q_miners=4, q_mo_and_t=5,
            q_selection_limit=2, q_cases=5, rounds=0,
        )
        with pytest.raises(PoolSizeMismatch):
            allocate_roles(state, other, rng)

    def test_pools_partition_participants(self):
        state, rng = fresh()
        assignment = allocate_roles(state, SMALL, rng)
        everyone = set(assignment.mos) | set(assignment.miners) | set(assignment.candidates)
        assert everyone == set(state.participants)
        assert not set(assignment.miners) & set(assignment.mos)
        assert not set(assignment.miners) & set(assignment.candidates)


class TestRankAndSelect:
    def test_floor_applied(self):
        verified = [VerifiedRecord("g", f"t{i}", 0.1 * i) for i in range(7)]
        assert len(rank_and_select(verified, 0.5)) == 3

    def test_clamps_to_one(self):
        verified = [VerifiedRecord("g", "t0", 0.9)]
        assert rank_and_select(verified, 0.5) == ["t0"]

    def test_empty(self):
        assert rank_and_select([], 0.5) == []

    def test_orders_by_mse_then_id(self):
        verified = [
            VerifiedRecord("g", "b", 0.2),
            VerifiedRecord("g", "a", 0.2),
            VerifiedRecord("g", "c", 0.1),
        ]
        assert rank_and_select(verified, 0.7) == ["c", "a"]


class TestRunRound:
    def test_one_round_appends_four_blocks_in_order(self):
        state, rng = fresh()
        params = params_for_simulation(SMALL)
        state, log = run_round(state, params, SMALL, rng)
        assert len(state.chain) == 5
        assert [b.header.kind for b in state.chain.blocks] == ["SB", "DB", "EB", "TB", "SB"]
        assert set(log.block_digests) == {"DB", "EB", "TB", "SB"}

    def test_certain_training_fills_eb_records(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=3, pr_training=1.0,
        )
        state, rng = fresh(config, seed=3)
        state, log = run_round(state, params_for_simulation(config), config, rng)
        eb = next(b for b in state.chain.blocks if b.header.kind == "EB")
        assert isinstance(eb.payload, EncryptionPayload)
        assert len(eb.payload.records) == len(log.matches.pairs) > 0

    def test_impossible_training_forfeits_everything(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=3, pr_training=0.0,
        )
        state, rng = fresh(config, seed=3)
        state, log = run_round(state, params_for_simulation(config), config, rng)
        eb = next(b for b in state.chain.blocks if b.header.kind == "EB")
        assert eb.payload.records == ()
        assert log.top_set == []
        assert all(c.status == CONTRACT_FORFEITED for c in log.contracts)

    def test_zero_candidates_still_emits_four_blocks(self):
        config = SimConfig(
            q_total_participants=9, q_miners=8, q_mo_and_t=1,
            q_selection_limit=2, q_cases=5, rounds=0, seed=3,
        )
        rng = random.Random(3)
        state = init_state(config, rng)
        state, log = run_round(state, params_for_simulation(config), config, rng)
        assert len(state.chain) == 5
        assert log.matches.pairs == ()

    def test_distinct_miners_within_round(self):
        state, rng = fresh()
        state, log = run_round(state, params_for_simulation(SMALL), SMALL, rng)
        assert len(set(log.miners.values())) == 4

    def test_second_price_deposits_path(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=5,
            second_price_deposits=True,
        )
        state, rng = fresh(config, seed=5)
        below_own_bid = 0
        for _ in range(6):
            v_latest = state.head_version()
            bid = {
                pid: trainer_bid(p.coins, v_latest, p.model_version)
                for pid, p in state.participants.items()
            }
            state, log = run_round(state, params_for_simulation(config), config, rng)
            assert log.matches.pairs  # matching happened under the second-price rule
            assert len({p.trainer_id for p in log.matches.pairs}) == len(log.matches.pairs)
            for mo in log.assignment.mos:
                block = [p.trainer_id for p in log.matches.pairs if p.mo_id == mo]
                paid = [p.t_deposit for p in log.matches.pairs if p.mo_id == mo]
                assert paid == [bid[t] for t in block[1:] + block[-1:]]
                below_own_bid += sum(d < bid[t] for t, d in zip(block, paid))
        assert below_own_bid > 0


class TestSettle:
    def _participants(self, ids):
        return {pid: Participant(id=pid) for pid in ids}

    @staticmethod
    def _coinbases(*amounts):
        """A round's coinbases in DB, EB, TB, SB order, mined by m1 to m4."""
        return [Coinbase(f"m{i}", amount) for i, amount in enumerate(amounts, start=1)]

    def test_citation_cascade_depth_three(self):
        participants = self._participants(["g", "a", "b", "t", "m1", "m2", "m3", "m4"])
        lineage = Lineage()
        lineage.record("a", 2, "g")
        lineage.record("b", 3, "a")
        lineage.record("t", 4, "b")
        participants["t"].model_version = 4
        contracts = [DepositContract("b", "t", 0.1, 0.2, round=3)]
        participants["b"].coins = 0.0
        coinbases = self._coinbases(0.001, 0.01, 0.001, 0.01)
        transfers, minted, forfeited, citations = settle(
            participants, ["t"], contracts, lineage, 1.0, coinbases
        )
        assert citations == 3.0
        assert minted == 3.0 + 0.001 + 0.01 + 0.001 + 0.01
        assert participants["g"].coins == 1.0
        assert participants["a"].coins == 1.0
        assert participants["b"].coins == pytest.approx(1.0 + 0.1)  # citation + returned escrow
        assert contracts[0].status == CONTRACT_RETURNED

    def test_non_top_successful_trainer_forfeits_both_deposits(self):
        participants = self._participants(["g", "t1", "t2", "m1", "m2", "m3", "m4"])
        lineage = Lineage()
        lineage.record("t1", 2, "g")
        lineage.record("t2", 2, "g")
        participants["t1"].model_version = 2
        participants["t2"].model_version = 2
        contracts = [
            DepositContract("g", "t1", 0.25, 1.0, round=1),
            DepositContract("g", "t2", 0.25, 2.0, round=1),
        ]
        coinbases = self._coinbases(0.002, 0.002, 0.002, 0.002)
        _, _, forfeited, _ = settle(participants, ["t1"], contracts, lineage, 1.0, coinbases)
        assert contracts[0].status == CONTRACT_RETURNED
        assert contracts[1].status == CONTRACT_FORFEITED
        assert forfeited == pytest.approx(2.25)

    def test_dbm_reward_minted_per_contract(self):
        # Each coinbase is paid as mined, in block order; a zero one is no transfer.
        participants = self._participants(["m1", "m2", "m3", "m4"])
        coinbases = self._coinbases(32 * 0.001, 0.0, 0.1, 0.5)
        transfers, minted, _, _ = settle(participants, [], [], Lineage(), 1.0, coinbases)
        assert transfers == [
            ("m1", 0.032, "miner_reward_db"),
            ("m3", 0.1, "miner_reward_tb"),
            ("m4", 0.5, "miner_reward_sb"),
        ]
        assert participants["m1"].coins == 0.032
        assert minted == 0.032 + 0.1 + 0.5

    def test_unknown_contract(self):
        participants = self._participants(["t"])
        coinbases = [Coinbase("t", 0.0)] * 4
        with pytest.raises(UnknownContract):
            settle(participants, ["t"], [], Lineage(), 1.0, coinbases)

    def test_contract_transitions_once(self):
        contract = DepositContract("a", "b", 0.1, 0.1, round=1)
        contract.mark(CONTRACT_RETURNED)
        with pytest.raises(ContractStateError):
            contract.mark(CONTRACT_FORFEITED)


def per_hop_citations(lineage, heads):
    """Hop counts from one ``ancestors`` walk per head, the way settlement
    once counted them: keyed by owner in order of first appearance."""
    counts = {}
    for owner, version in heads:
        for ancestor in lineage.ancestors(owner, version):
            counts[ancestor] = counts.get(ancestor, 0) + 1
    return counts


@st.composite
def lineages_with_heads(draw):
    """A lineage over few owners (so owners repeat along a path), several
    models per version (so paths merge), and heads drawn with repetition
    from every node, genesis-version nodes included."""
    owners = ["g", "a", "b", "c", "d"]
    lineage = Lineage()
    layers = [["g"] + draw(st.lists(st.sampled_from(owners[1:]), max_size=2, unique=True))]
    for version in range(GENESIS_VERSION + 1, draw(st.integers(1, 9)) + 1):
        layer = []
        for owner in draw(st.lists(st.sampled_from(owners), min_size=1, max_size=4,
                                   unique=True)):
            lineage.record(owner, version, draw(st.sampled_from(layers[-1])))
            layer.append(owner)
        layers.append(layer)
    nodes = [(owner, version) for version, layer in enumerate(layers, GENESIS_VERSION)
             for owner in layer]
    heads = draw(st.lists(st.sampled_from(nodes), max_size=8))
    return lineage, heads


class TestCitations:
    @settings(max_examples=300, deadline=None)
    @given(lineages_with_heads())
    def test_counts_equal_the_per_hop_walks(self, drawn):
        lineage, heads = drawn
        expected = per_hop_citations(lineage, heads)
        got = lineage.citations(heads)
        assert list(got.items()) == list(expected.items())

    def test_shared_ancestors_are_counted_once_per_walk(self):
        lineage = Lineage()
        lineage.record("a", 2, "g")
        lineage.record("b", 3, "a")
        lineage.record("a", 3, "a")
        lineage.record("c", 4, "b")
        heads = [("b", 3), ("c", 4), ("a", 3), ("g", 1)]
        assert list(lineage.citations(heads).items()) == [("a", 3), ("g", 3), ("b", 1)]

    @pytest.mark.parametrize("coin_unit", [0.1, 0.3, 1 / 3])
    def test_settle_transfers_match_the_per_hop_sums(self, coin_unit):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=40, seed=12, coin_unit=coin_unit,
        )
        run = simulate_run(config)
        lineage = run.state.lineage
        deepest = 0
        for log in run.logs:
            versions = {trainer_id: new_version
                        for trainer_id, _, _, _, new_version in log.training}
            totals = {}
            for trainer_id in log.top_set:
                for ancestor in lineage.ancestors(trainer_id, versions[trainer_id]):
                    totals[ancestor] = totals.get(ancestor, 0.0) + coin_unit
            coins = 0.0
            for amount in totals.values():
                coins += amount
            paid = [(pid, amount) for pid, amount, reason in log.transfers
                    if reason == "citation"]
            assert paid == list(totals.items())
            assert log.citation_coins == coins
            deepest = max(deepest, *per_hop_citations(
                lineage, [(t, versions[t]) for t in log.top_set]).values(), 0)
        # deep enough that adding the unit n times differs from n * unit
        assert any(sum([coin_unit] * n) != n * coin_unit for n in range(deepest + 1))


class TestModelDigests:
    def test_abstract_run_hashes_each_model_once(self, monkeypatch):
        calls = []
        original = protocol.canonical_digest

        def counting(obj):
            calls.append(obj)
            return original(obj)

        monkeypatch.setattr(protocol, "canonical_digest", counting)
        run = simulate_run(SimConfig(seed=7, rounds=20, mode="abstract"))
        trained = sum(success for log in run.logs for _, _, _, success, _ in log.training)
        assert trained > 0
        assert len(calls) == 2 * trained + 1

    @pytest.mark.parametrize("mode, rounds", [("abstract", 30), ("concrete", 12)])
    def test_each_holder_carries_the_digest_of_its_model(self, mode, rounds):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=4, mode=mode,
        )
        state, rng = fresh(config, seed=4)
        params = params_for_simulation(config)
        ebm_copies = 0
        for _ in range(rounds):
            before = {pid: p.model_version for pid, p in state.participants.items()}
            state, log = run_round(state, params, config, rng)
            ebm = log.miners["EB"]
            ebm_copies += state.participants[ebm].model_version != before[ebm]
            labels = {(state.genesis_id, GENESIS_VERSION), *state.lineage.parents}
            for p in state.participants.values():
                if p.model_version == 0:
                    assert p.model_digest is None
                elif mode == "concrete":
                    assert p.model_digest == crypto.model_digest(p.model)
                else:
                    assert p.model_digest in {
                        protocol.canonical_digest(["abstract-model", owner, version])
                        for owner, version in labels if version == p.model_version
                    }
        assert ebm_copies > 0


class TestRunInvariants:
    def test_escrow_conservation_each_round(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=25, seed=9,
        )
        run = simulate_run(config)
        for r in range(run.metrics.rounds):
            total = sum(run.metrics.coins[r])
            expected = (
                run.metrics.minted_cumulative[r] - run.metrics.forfeited_cumulative[r]
            )
            assert total == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_round_credits_minus_debits_equals_minted_minus_forfeited(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=15, seed=2,
        )
        run = simulate_run(config)
        for log in run.logs:
            net = sum(amount for _, amount, _ in log.transfers)
            assert net == pytest.approx(log.minted - log.forfeited, rel=1e-9, abs=1e-9)

    def test_version_monotonicity(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=25, seed=4,
        )
        run = simulate_run(config)
        versions = run.metrics.versions
        for earlier, later in zip(versions, versions[1:]):
            assert all(b >= a for a, b in zip(earlier, later))

    def test_transfers_touch_only_entitled_parties(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=12, seed=6,
        )
        run = simulate_run(config)
        for log in run.logs:
            parties = {c.mo_id for c in log.contracts} | {c.trainer_id for c in log.contracts}
            miners = set(log.miners.values())
            for participant_id, _, reason in log.transfers:
                if reason.startswith("deposit_"):
                    assert participant_id in parties
                elif reason.startswith("miner_reward_"):
                    assert participant_id in miners
                else:
                    assert reason == "citation"

    def test_citation_credits_go_to_lineage_ancestors_only(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=12, seed=6,
        )
        run = simulate_run(config)
        lineage = run.state.lineage
        for log in run.logs:
            ancestors = set()
            for trainer_id in log.top_set:
                new_version = next(v for t, _, _, _, v in log.training if t == trainer_id)
                ancestors.update(lineage.ancestors(trainer_id, new_version))
            for participant_id, _, reason in log.transfers:
                if reason == "citation":
                    assert participant_id in ancestors

    def test_lineage_edges_point_to_strictly_older_versions(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=20, seed=8,
        )
        run = simulate_run(config)
        lineage = run.state.lineage
        for (owner, version) in lineage.parents:
            assert version >= 2
            ancestors = lineage.ancestors(owner, version)
            assert 1 <= len(ancestors) <= version - 1
            assert ancestors[-1] == run.state.genesis_id

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    def test_db_coinbase_is_the_db_miner_credit(self, mode):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=12, seed=6, mode=mode,
        )
        run = simulate_run(config)
        deposit_blocks = [b for b in run.state.chain.blocks if b.header.kind == "DB"]
        for log, block in zip(run.logs, deposit_blocks, strict=True):
            coinbase = block.payload.coinbase
            credits = [(pid, amount) for pid, amount, reason in log.transfers
                       if reason == "miner_reward_db"]
            assert coinbase.miner_id == log.miners["DB"]
            assert credits == ([(coinbase.miner_id, coinbase.amount)] if coinbase.amount else [])
        assert sum(bool(b.payload.coinbase.amount) for b in deposit_blocks) > 1

    def test_identical_seeds_identical_round_logs(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=10, seed=21,
        )
        first = simulate_run(config)
        second = simulate_run(config)
        assert [log.to_json() for log in first.logs] == [log.to_json() for log in second.logs]

    def test_round_log_json_is_valid(self):
        state, rng = fresh()
        state, log = run_round(state, params_for_simulation(SMALL), SMALL, rng)
        data = json.loads(log.to_json())
        assert data["round"] == 1
        assert set(data["block_digests"]) == {"DB", "EB", "TB", "SB"}
        assert data["rejected"] == []

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    def test_transfers_and_outcomes_leave_the_collector(self, mode):
        # A run keeps every round's log; the collector must not walk these
        # records on each full pass.
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=4, seed=3, mode=mode,
        )
        run = simulate_run(config)
        gc.collect()
        records = [r for log in run.logs for r in (*log.transfers, *log.training)]
        assert records
        assert not any(map(gc.is_tracked, records))

    def test_round_log_json_names_each_field(self):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8, q_selection_limit=2,
            q_cases=5, rounds=3, seed=5, mode="concrete", pr_training=0.5,
        )
        run = simulate_run(config)
        dumps = [json.loads(log.to_json()) for log in run.logs]
        training = [t for data in dumps for t in data["training"]]
        transfers = [t for data in dumps for t in data["transfers"]]
        assert {t["success"] for t in training} == {True, False}
        for item in training:
            assert list(item) == [
                "trainer_id", "mo_id", "received_version", "success", "new_version"]
            assert (item["new_version"] is None) == (not item["success"])
        assert transfers
        for item in transfers:
            assert list(item) == ["participant_id", "amount", "reason"]
        assert [tuple(t.values()) for t in training] == [
            t for log in run.logs for t in log.training]
        assert [tuple(t.values()) for t in transfers] == [
            t for log in run.logs for t in log.transfers]


class TestDishonestExclusion:
    def test_failed_verification_never_reaches_top_set(self):
        rng = random.Random(17)
        pair = crypto.fhe_keygen(rng)
        target = crypto.ModelWeights(0, (0.8, -0.4, 0.1))
        inputs = [tuple(rng.uniform(-1, 1) for _ in range(2)) for _ in range(8)]
        truths = [crypto.evaluate(target, x) for x in inputs]
        submissions = []
        for i in range(4):
            start = crypto.ModelWeights(3, tuple(rng.uniform(-1, 1) for _ in range(3)))
            model = crypto.train_toward(start, target, 0.4)
            ct = crypto.fhe_encrypt(pair.pk, model)
            outputs = [crypto.evaluate(model, x) for x in inputs]
            if i == 0:  # output-substitution attacker
                outputs = [crypto.evaluate(start, x) for x in inputs]
            submissions.append(Submission(
                "mo", f"t{i}", crypto.ciphertext_digest(ct), ct, tuple(outputs)
            ))
        verified, rejected = collect_verified(submissions, pair.pk, inputs, truths)
        verified_ids = {v.trainer_id for v in verified}
        assert "t0" not in verified_ids
        assert verified_ids == {"t1", "t2", "t3"}
        assert "t0" not in rank_and_select(verified, 0.5)
        assert rejected == [("t0", crypto.VERDICT_OUTPUT_MISMATCH)]

    def test_round_log_keeps_each_rejection_with_its_reason(self, monkeypatch):
        config = SimConfig(
            q_total_participants=16, q_miners=8, q_mo_and_t=8, q_selection_limit=2,
            q_cases=5, rounds=0, seed=3, pr_training=1.0, mode="concrete",
        )
        backend = MODELS["concrete"]
        honest_encrypt = backend.encrypt
        sealed = []

        def tampering_encrypt(pk, trainer):
            ct, digest = honest_encrypt(pk, trainer)
            sealed.append(trainer.id)
            if len(sealed) == 1:  # commits a digest that is not its ciphertext's
                return ct, digest[::-1]
            # seals another model, so the claimed outputs no longer match
            swapped = crypto.fhe_encrypt(pk, crypto.ModelWeights(
                trainer.model.version, tuple(w + 1.0 for w in trainer.model.weights)))
            return swapped, crypto.ciphertext_digest(swapped)

        monkeypatch.setattr(backend, "encrypt", tampering_encrypt)
        state, rng = fresh(config, seed=3)
        state, log = run_round(state, params_for_simulation(config), config, rng)
        assert len(sealed) == 2
        assert log.rejected == [(sealed[0], crypto.VERDICT_HASH_MISMATCH),
                                (sealed[1], crypto.VERDICT_OUTPUT_MISMATCH)]
        assert log.verified == [] and log.top_set == []
