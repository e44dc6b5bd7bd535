import gc
import json
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import crypto, protocol
from relaysim.auction import trainer_bid
from relaysim.chain import KINDS, DepositPayload, EncryptionPayload
from relaysim.protocol import (
    GENESIS_VERSION,
    MODELS,
    Lineage,
    Participant,
    PoolSizeMismatch,
    ProtocolError,
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
from relaysim.serialize import encode_str, encode_uint
from relaysim.sim import SimConfig, params_for_simulation, simulate_run
from test_crypto import _claim, _evaluate_one, _mostly, _reference_verdict, _tampered
from test_sim import csv_history

SMALL = SimConfig(
    q_miners=8, q_mo_and_t=8,
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
        assert assignment.mos == (participant_ids(config.q_miners + config.q_mo_and_t)[0],)
        assert len(assignment.miners) == 128
        assert len(assignment.candidates) == 127

    def test_previous_top_carry_over(self):
        state, rng = fresh()
        state.next_mos = [f"p{i:03d}" for i in range(2, 8)]
        assignment = allocate_roles(state, SMALL, rng)
        assert assignment.mos == tuple(state.next_mos)
        assert len(assignment.mos) == 6

    def test_round_hands_its_top_set_on(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=1, pr_training=1.0,
        )
        state, rng = fresh(config)
        state, log = run_round(state, params_for_simulation(config), config, rng)
        assert log.top_set and state.next_mos == log.top_set
        assert allocate_roles(state, config, rng).mos == tuple(log.top_set)

    def test_zero_success_round_retains_one_mo(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=1, pr_training=0.0,
        )
        state, rng = fresh(config)
        state.next_mos = ["p005", "p002"]
        state, log = run_round(state, params_for_simulation(config), config, rng)
        assert log.assignment.mos == ("p005", "p002") and log.top_set == []
        assert state.next_mos == [log.assignment.mos[0]]
        assert allocate_roles(state, config, rng).mos == ("p005",)

    def test_pool_size_mismatch(self):
        state, rng = fresh()
        other = SimConfig(
            q_miners=4, q_mo_and_t=5,
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
        verified = [("g", f"t{i}", 0.1 * i) for i in range(7)]
        assert len(rank_and_select(verified, 0.5)) == 3

    def test_clamps_to_one(self):
        verified = [("g", "t0", 0.9)]
        assert rank_and_select(verified, 0.5) == ["t0"]

    def test_empty(self):
        assert rank_and_select([], 0.5) == []

    def test_orders_by_mse_then_id(self):
        verified = [
            ("g", "b", 0.2),
            ("g", "a", 0.2),
            ("g", "c", 0.1),
        ]
        assert rank_and_select(verified, 0.7) == ["c", "a"]


class TestRunRound:
    def test_one_round_appends_four_blocks_in_order(self):
        state, rng = fresh()
        params = params_for_simulation(SMALL)
        state, log = run_round(state, params, SMALL, rng)
        assert len(state.chain.blocks) == 5
        assert [b.header.kind for b in state.chain.blocks] == ["SB", "DB", "EB", "TB", "SB"]
        assert len({state.chain.digest(i) for i in range(5)}) == 5

    def test_log_contracts_are_the_deposit_blocks(self):
        # Escrow debits, settlement and the DB hold the same contracts; a
        # zero deposit (every balance starts at zero) moves no coin.
        state, rng = fresh()
        escrowed = 0
        for _ in range(4):
            state, log = run_round(state, params_for_simulation(SMALL), SMALL, rng)
            db_block = state.chain.blocks[-4]
            assert isinstance(db_block.payload, DepositPayload)
            assert log.contracts
            assert log.contracts == db_block.payload.contracts
            assert {c[1] for c in log.contracts} <= set(log.assignment.candidates)
            escrow = [t for t in log.transfers if t[2].startswith("deposit_escrow")]
            assert escrow == [
                entry for mo_id, trainer_id, mo_amount, t_amount in log.contracts for entry in (
                    (mo_id, -mo_amount, "deposit_escrow_mo"),
                    (trainer_id, -t_amount, "deposit_escrow_t"),
                ) if entry[1]
            ]
            escrowed += len(escrow)
        assert escrowed > 0

    def test_certain_training_fills_eb_records(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=3, pr_training=1.0,
        )
        state, rng = fresh(config, seed=3)
        state, log = run_round(state, params_for_simulation(config), config, rng)
        eb = next(b for b in state.chain.blocks if b.header.kind == "EB")
        assert isinstance(eb.payload, EncryptionPayload)
        assert len(eb.payload.records) == len(log.contracts) > 0

    def test_impossible_training_forfeits_everything(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=3, pr_training=0.0,
        )
        state, rng = fresh(config, seed=3)
        state, log = run_round(state, params_for_simulation(config), config, rng)
        eb = next(b for b in state.chain.blocks if b.header.kind == "EB")
        assert eb.payload.records == ()
        assert log.top_set == []
        assert log.contracts
        assert not [reason for _, _, reason in log.transfers
                    if reason.startswith("deposit_return")]
        assert log.forfeited == sum(
            mo_amount + t_amount for _, _, mo_amount, t_amount in log.contracts)

    def test_zero_candidates_still_emits_four_blocks(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=1,
            q_selection_limit=2, q_cases=5, rounds=0, seed=3,
        )
        rng = random.Random(3)
        state = init_state(config, rng)
        state, log = run_round(state, params_for_simulation(config), config, rng)
        assert len(state.chain.blocks) == 5
        assert log.contracts == () == state.chain.blocks[-4].payload.contracts

    def test_distinct_miners_within_round(self):
        state, rng = fresh()
        state, log = run_round(state, params_for_simulation(SMALL), SMALL, rng)
        assert len(set(log.miners.values())) == 4

    def test_second_price_deposits_path(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
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
            assert log.contracts  # matching happened under the second-price rule
            assert len({c[1] for c in log.contracts}) == len(log.contracts)
            for mo in log.assignment.mos:
                block = [trainer_id for mo_id, trainer_id, _, _ in log.contracts if mo_id == mo]
                paid = [t_amount for mo_id, _, _, t_amount in log.contracts if mo_id == mo]
                assert paid == [bid[t] for t in block[1:] + block[-1:]]
                below_own_bid += sum(d < bid[t] for t, d in zip(block, paid))
        assert below_own_bid > 0


class TestSettle:
    def _participants(self, ids):
        return {pid: Participant(id=pid) for pid in ids}

    @staticmethod
    def _coinbases(*amounts):
        """A round's coinbases in DB, EB, TB, SB order, mined by m1 to m4."""
        return [(f"m{i}", amount) for i, amount in enumerate(amounts, start=1)]

    def test_citation_cascade_depth_three(self):
        participants = self._participants(["g", "a", "b", "t", "m1", "m2", "m3", "m4"])
        lineage = Lineage()
        lineage.record("a", 2, "g")
        lineage.record("b", 3, "a")
        lineage.record("t", 4, "b")
        participants["t"].model_version = 4
        contracts = [("b", "t", 0.1, 0.2)]
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
        assert ("b", 0.1, "deposit_return_mo") in transfers
        assert ("t", 0.2, "deposit_return_t") in transfers
        assert forfeited == 0.0

    def test_non_top_successful_trainer_forfeits_both_deposits(self):
        participants = self._participants(["g", "t1", "t2", "m1", "m2", "m3", "m4"])
        lineage = Lineage()
        lineage.record("t1", 2, "g")
        lineage.record("t2", 2, "g")
        participants["t1"].model_version = 2
        participants["t2"].model_version = 2
        contracts = [
            ("g", "t1", 0.25, 1.0),
            ("g", "t2", 0.25, 2.0),
        ]
        coinbases = self._coinbases(0.002, 0.002, 0.002, 0.002)
        transfers, _, forfeited, _ = settle(
            participants, ["t1"], contracts, lineage, 1.0, coinbases)
        returns = [t for t in transfers if t[2].startswith("deposit_return")]
        assert returns == [("g", 0.25, "deposit_return_mo"), ("t1", 1.0, "deposit_return_t")]
        assert participants["t2"].coins == 0.0
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
        coinbases = [("t", 0.0)] * 4
        with pytest.raises(UnknownContract):
            settle(participants, ["t"], [], Lineage(), 1.0, coinbases)

    @pytest.mark.parametrize("top_set", [["b"], []], ids=["in-top-set", "not-in-top-set"])
    def test_trainer_with_two_contracts_rejected(self, top_set):
        # Returned once and forfeited once, or forfeited twice: either way
        # one trainer's deposit would be settled twice.
        participants = self._participants(["a", "c", "b", "m1", "m2", "m3", "m4"])
        contracts = [("a", "b", 0.1, 0.1), ("c", "b", 0.1, 0.1)]
        with pytest.raises(ProtocolError, match="more than one deposit contract"):
            settle(participants, top_set, contracts, Lineage(), 1.0, self._coinbases(0, 0, 0, 0))
        assert all(p.coins == 0.0 for p in participants.values())


def ancestors(lineage, owner_id, version):
    """All predecessor owners of the model ``(owner_id, version)``, from its
    direct parent back to genesis, one hop at a time."""
    result = []
    key = (owner_id, version)
    while key in lineage.parents:
        parent, _ = lineage.parents[key]
        result.append(parent)
        key = (parent, key[1] - 1)
    return result


def per_hop_citations(lineage, heads):
    """Hop counts from one ``ancestors`` walk per head, the way settlement
    once counted them: keyed by owner in order of first appearance."""
    counts = {}
    for owner, version in heads:
        for ancestor in ancestors(lineage, owner, version):
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

    # With 16 participants a lineage gains about a version a round, so after
    # 300 rounds the walks are hundreds of hops deep and pass the same few
    # owners again and again. A limit of 2 gives one head a round; a limit
    # of 4 gives several, whose walks merge.
    @pytest.mark.parametrize("selection_limit", [2, 4])
    def test_deep_lineages_match_the_per_hop_walks(self, selection_limit):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=selection_limit, q_cases=5, rounds=300, seed=3,
        )
        run = simulate_run(config)
        lineage = run.state.lineage
        deepest = widest = 0
        for log in run.logs:
            versions = {trainer_id: new_version
                        for trainer_id, _, _, _, new_version in log.training}
            heads = [(trainer_id, versions[trainer_id]) for trainer_id in log.top_set]
            expected = per_hop_citations(lineage, heads)
            assert list(lineage.citations(heads).items()) == list(expected.items())
            deepest = max(deepest, *(len(ancestors(lineage, *head)) for head in heads))
            widest = max(widest, len(heads))
        assert deepest >= 250
        assert widest >= (2 if selection_limit == 4 else 1)

    @pytest.mark.parametrize("coin_unit", [0.1, 0.3, 1 / 3])
    def test_settle_transfers_match_the_per_hop_sums(self, coin_unit):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
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
                for ancestor in ancestors(lineage, trainer_id, versions[trainer_id]):
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

        def counting(*fields):
            calls.append(fields)
            return original(*fields)

        monkeypatch.setattr(protocol, "canonical_digest", counting)
        run = simulate_run(SimConfig(seed=7, rounds=20, mode="abstract"))
        trained = sum(success for log in run.logs for _, _, _, success, _ in log.training)
        assert trained > 0
        assert len(calls) == 2 * trained + 1

    @pytest.mark.parametrize("mode, rounds", [("abstract", 30), ("concrete", 12)])
    def test_each_holder_carries_the_digest_of_its_model(self, mode, rounds):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=0, seed=4, mode=mode,
        )
        state, rng = fresh(config, seed=4)
        params = params_for_simulation(config)
        genesis_id = participant_ids(config.q_miners + config.q_mo_and_t)[0]
        ebm_copies = 0
        for _ in range(rounds):
            before = {pid: p.model_version for pid, p in state.participants.items()}
            state, log = run_round(state, params, config, rng)
            ebm = log.miners["EB"]
            ebm_copies += state.participants[ebm].model_version != before[ebm]
            labels = {(genesis_id, GENESIS_VERSION), *state.lineage.parents}
            for p in state.participants.values():
                if p.model_version == 0:
                    assert p.model_digest is None
                elif mode == "concrete":
                    assert p.model_digest == crypto.model_digest(p.model)
                else:
                    assert p.model_digest in {
                        protocol.canonical_digest(
                            encode_str("abstract-model"), encode_str(owner), encode_uint(version))
                        for owner, version in labels if version == p.model_version
                    }
        assert ebm_copies > 0


class TestRunInvariants:
    def test_escrow_conservation_each_round(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=25, seed=9,
        )
        run = simulate_run(config)
        coins, _ = csv_history(run.metrics)
        for r in range(run.metrics.rounds):
            total = sum(coins[r])
            expected = (
                run.metrics.minted_cumulative[r] - run.metrics.forfeited_cumulative[r]
            )
            assert total == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_round_credits_minus_debits_equals_minted_minus_forfeited(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=15, seed=2,
        )
        run = simulate_run(config)
        for log in run.logs:
            net = sum(amount for _, amount, _ in log.transfers)
            assert net == pytest.approx(log.minted - log.forfeited, rel=1e-9, abs=1e-9)

    def test_version_monotonicity(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=25, seed=4,
        )
        run = simulate_run(config)
        _, versions = csv_history(run.metrics)
        for earlier, later in zip(versions, versions[1:]):
            assert all(b >= a for a, b in zip(earlier, later))

    def test_transfers_touch_only_entitled_parties(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=12, seed=6,
        )
        run = simulate_run(config)
        for log in run.logs:
            parties = {c[0] for c in log.contracts} | {c[1] for c in log.contracts}
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
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=12, seed=6,
        )
        run = simulate_run(config)
        lineage = run.state.lineage
        for log in run.logs:
            cited = set()
            for trainer_id in log.top_set:
                new_version = next(v for t, _, _, _, v in log.training if t == trainer_id)
                cited.update(ancestors(lineage, trainer_id, new_version))
            for participant_id, _, reason in log.transfers:
                if reason == "citation":
                    assert participant_id in cited

    def test_lineage_edges_point_to_strictly_older_versions(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=20, seed=8,
        )
        run = simulate_run(config)
        lineage = run.state.lineage
        genesis_id = participant_ids(config.q_miners + config.q_mo_and_t)[0]
        for (owner, version) in lineage.parents:
            assert version >= 2
            path = ancestors(lineage, owner, version)
            assert 1 <= len(path) <= version - 1
            assert path[-1] == genesis_id

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    def test_db_coinbase_is_the_db_miner_credit(self, mode):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=12, seed=6, mode=mode,
        )
        run = simulate_run(config)
        deposit_blocks = [b for b in run.state.chain.blocks if b.header.kind == "DB"]
        for log, block in zip(run.logs, deposit_blocks, strict=True):
            miner_id, coinbase_amount = block.payload.coinbase
            credits = [(pid, amount) for pid, amount, reason in log.transfers
                       if reason == "miner_reward_db"]
            assert miner_id == log.miners["DB"]
            assert credits == ([(miner_id, coinbase_amount)] if coinbase_amount else [])
        assert sum(bool(b.payload.coinbase[1]) for b in deposit_blocks) > 1

    def test_identical_seeds_identical_round_logs(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
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
        assert list(data) == [
            "round", "assignment", "contracts", "miners", "training", "verified",
            "rejected", "top_set", "transfers", "minted", "forfeited", "citation_coins"]
        assert list(data["miners"]) == list(KINDS)
        assert data["contracts"] == [
            {"mo_id": mo_id, "trainer_id": trainer_id, "mo_amount": mo_amount, "t_amount": t_amount}
            for mo_id, trainer_id, mo_amount, t_amount in log.contracts]
        assert data["rejected"] == []

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    def test_transfers_and_outcomes_leave_the_collector(self, mode):
        # A run keeps every round's log; the collector must not walk these
        # records on each full pass.
        config = SimConfig(
            q_miners=8, q_mo_and_t=8,
            q_selection_limit=2, q_cases=5, rounds=4, seed=3, mode=mode,
        )
        run = simulate_run(config)
        gc.collect()
        records = [r for log in run.logs for r in (*log.transfers, *log.training)]
        assert records
        assert not any(map(gc.is_tracked, records))

    def test_round_log_json_names_each_field(self):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8, q_selection_limit=2,
            q_cases=5, rounds=3, seed=5, mode="concrete", pr_training=0.5,
        )
        run = simulate_run(config)
        dumps = [json.loads(log.to_json()) for log in run.logs]
        training = [t for data in dumps for t in data["training"]]
        transfers = [t for data in dumps for t in data["transfers"]]
        verified = [v for data in dumps for v in data["verified"]]
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
        assert verified
        for item in verified:
            assert list(item) == ["prev_owner_id", "trainer_id", "performance"]
        assert [tuple(v.values()) for v in verified] == [
            v for log in run.logs for v in log.verified]


class TestDishonestExclusion:
    def test_failed_verification_never_reaches_top_set(self):
        rng = random.Random(17)
        pair = crypto.fhe_keygen(rng)
        target = crypto.ModelWeights(0, (0.8, -0.4, 0.1))
        inputs = [tuple(rng.uniform(-1, 1) for _ in range(2)) for _ in range(8)]
        truths = [(crypto.evaluate(target, x),) for x in inputs]
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
        verified, rejected = collect_verified(
            submissions, crypto.case_table(inputs, truths, pair.pk))
        verified_ids = {trainer_id for _, trainer_id, _ in verified}
        assert "t0" not in verified_ids
        assert verified_ids == {"t1", "t2", "t3"}
        assert "t0" not in rank_and_select(verified, 0.5)
        assert rejected == [("t0", crypto.VERDICT_OUTPUT_MISMATCH)]

    def test_verified_submission_on_no_cases_is_rejected(self):
        pair = crypto.fhe_keygen(random.Random(4))
        ct = crypto.fhe_encrypt(pair.pk, crypto.ModelWeights(2, (0.5, 0.1)))
        honest = Submission("mo", "t0", crypto.ciphertext_digest(ct), ct, ())
        tampered = Submission("mo", "t1", b"\0" * 32, ct, ())
        verified, rejected = collect_verified(
            [honest, tampered], crypto.case_table(pk=pair.pk))
        assert verified == []
        assert rejected == [("t0", crypto.VERDICT_NO_CASES),
                            ("t1", crypto.VERDICT_HASH_MISMATCH)]

    def test_round_log_keeps_each_rejection_with_its_reason(self, monkeypatch):
        config = SimConfig(
            q_miners=8, q_mo_and_t=8, q_selection_limit=2,
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


_ELEMENT = st.one_of(st.floats(-10, 10), st.integers(-5, 5))


class TestRoundVerification:
    """Settling a whole round against its one case table gives, per
    submission, the verdict of the ciphertext comparison."""

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(0, 3),
        widths=_mostly("one", "mixed"),
        cases=_mostly(4, 0, 1),
        key=_mostly("round", "other", "garbage"),
        submissions=st.integers(1, 6),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_matches_reference_per_submission(self, dim, widths, cases, key, submissions,
                                              seed, data):
        rng = random.Random(seed)
        pair, other = crypto.fhe_keygen(rng), crypto.fhe_keygen(rng)
        pk = {"round": pair.pk, "other": other.pk, "garbage": b"not-a-key"}[key]
        width = st.just(dim) if widths == "one" else st.sampled_from([dim, dim + 1])
        inputs = data.draw(st.lists(width.flatmap(lambda n: st.tuples(*[_ELEMENT] * n)),
                                    min_size=cases, max_size=cases))
        truths = data.draw(st.lists(st.tuples(st.floats(-10, 10)),
                                    min_size=cases, max_size=cases))
        table = crypto.case_table(inputs, truths, pk)
        round_subs = []
        for i in range(submissions):
            model_dim = data.draw(_mostly(dim, dim + 1))  # or a wrong-dimension model
            # an all-zero model outputs 0.0, which a negated claim turns into -0.0
            weights = data.draw(st.lists(st.floats(-5, 5) | st.integers(-3, 3).map(float),
                                         min_size=model_dim + 1, max_size=model_dim + 1)
                                | st.just([0.0] * (model_dim + 1)))
            model = crypto.ModelWeights(2, tuple(weights))
            self._check_kernel(model, inputs, table)
            sealed = crypto.fhe_encrypt(pair.pk, model)
            ct = _tampered(sealed, data.draw(
                _mostly("none", "payload", "payload_retagged", "tag", "key")))
            committed = crypto.ciphertext_digest(data.draw(_mostly(ct, sealed)))
            kinds = data.draw(st.lists(
                _mostly("honest", "one_ulp", "negated", "too_wide", "wrapped"),
                min_size=cases, max_size=cases))
            claims = tuple(_claim(kind, model, x) for kind, x in zip(kinds, inputs))
            round_subs.append(Submission("mo", f"t{i}", committed, ct, claims))
        reasons = [
            _reference_verdict(sub.committed_digest, sub.ciphertext, sub.claimed_outputs,
                               pk, inputs)
            for sub in round_subs
        ]
        if not inputs:
            # Every claim checks out on no cases, but there is nothing to rank by.
            reasons = [crypto.VERDICT_NO_CASES if reason == crypto.VERDICT_OK else reason
                       for reason in reasons]
        accepted = [sub for sub, reason in zip(round_subs, reasons)
                    if reason == crypto.VERDICT_OK]
        verified, rejected = collect_verified(round_subs, table)
        assert rejected == [(sub.trainer_id, reason) for sub, reason in zip(round_subs, reasons)
                            if reason != crypto.VERDICT_OK]
        assert [record[:2] for record in verified] == [
            (sub.mo_id, sub.trainer_id) for sub in accepted]
        for (_, _, performance), sub in zip(verified, accepted):
            expected = crypto.performance_index(
                sub.claimed_outputs, crypto.case_table(truths=truths))
            assert struct.pack("<d", performance) == struct.pack("<d", expected)

    @staticmethod
    def _check_kernel(model, inputs, table):
        """The table's column kernel gives the per-case loop's floats."""
        try:
            expected = [_evaluate_one(model, x) for x in inputs]
        except crypto.LengthMismatch:
            with pytest.raises(crypto.LengthMismatch):
                crypto.evaluate_cases(model, table)
            return
        outputs = crypto.evaluate_cases(model, table)
        assert [struct.pack("<d", y) for y in outputs] == [struct.pack("<d", y) for y in expected]
