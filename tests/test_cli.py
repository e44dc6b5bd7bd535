import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pins
import relaysim
from pins import ECON_CFG
from relaysim import chain, cli, protocol, sim
from relaysim.cli import (
    BadOverride,
    MissingConfig,
    UnknownVerb,
    coerce_fields,
    execute,
    main,
    parse_invocation,
)

SMALL_SIM_CFG = """
# small but complete run
q_miners = 8
q_mo_and_t = 8
q_selection_limit = 2
q_cases = 5
rounds = 6
seed = 3
"""


class TestParseInvocation:
    def test_simulate_with_config_and_seed(self):
        cmd = parse_invocation(["simulate", "--config", "t3.cfg", "--seed", "7"])
        assert cmd.verb == "simulate"
        assert cmd.config_path == "t3.cfg"
        assert cmd.overrides == {"seed": "7"}

    def test_min_rewards(self):
        cmd = parse_invocation(["min-rewards", "--config", "p.cfg"])
        assert cmd.verb == "min-rewards" and cmd.config_path == "p.cfg"

    def test_unknown_verb(self):
        with pytest.raises(UnknownVerb):
            parse_invocation(["frobnicate"])

    def test_unknown_flag(self):
        with pytest.raises(BadOverride):
            parse_invocation(["simulate", "--frob", "1"])

    def test_set_needs_assignment(self):
        with pytest.raises(BadOverride):
            parse_invocation(["simulate", "--set", "rounds"])


class TestPrecedence:
    def test_cli_overrides_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("rounds = 5\nseed = 1\n")
        cmd = parse_invocation(["simulate", "--config", str(cfg), "--rounds", "3"])
        from relaysim.cli import _built

        config = _built(cmd, sim.SimConfig)
        assert config.rounds == 3      # command line wins
        assert config.seed == 1        # file beats defaults
        assert config.q_cases == 100   # untouched default

    def test_unknown_file_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("roundz = 5\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "relaysim: unknown SimConfig parameter 'roundz'\n"
        assert not out.exists()


class TestSimulateVerb:
    def test_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        out = tmp_path / "results"
        status = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert status == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "chain.jsonl").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "round,participant_id,coins,model_version"

    def test_identical_seeds_byte_identical_csv(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_participant_count_is_the_sum_of_the_two_pools(self, tmp_path, capsys):
        out = tmp_path / "run"
        status = main(["simulate", "--rounds", "3", "--set", "q_miners=8",
                       "--set", "q_mo_and_t=8", "--out", str(out)])
        assert status == 0
        assert "(16 participants, seed 0)" in capsys.readouterr().out
        assert json.loads((out / "summary.json").read_text())["participants"] == 16


class TestCheckIncentivesVerb:
    def test_feasible_config_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(ECON_CFG)
        status = main(["check-incentives", "--config", str(cfg)])
        data = json.loads(capsys.readouterr().out)
        assert status == 0
        assert data["all_satisfied"] is True

    def test_t3_violation_exits_one_and_names_t3(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(ECON_CFG)
        status = main([
            "check-incentives", "--config", str(cfg),
            "--set", "r_deposit=0.000624",  # just below c_mine / q_deposit
        ])
        data = json.loads(capsys.readouterr().out)
        assert status == 1
        failing = [e["condition"] for e in data["conditions"] if not e["satisfied"]]
        assert failing == ["T3"]

    def test_missing_config(self):
        with pytest.raises(MissingConfig):
            execute(parse_invocation(["check-incentives"]))


class TestMinRewardsVerb:
    def test_prints_bounds(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(ECON_CFG)
        status = main(["min-rewards", "--config", str(cfg)])
        data = json.loads(capsys.readouterr().out)
        assert status == 0
        assert data["r_deposit_min"] == pytest.approx(0.000625)
        assert data["T5"]["a"] == 64.0 and data["T5"]["b"] == 100.0


class TestEconomicsStdoutPinned:
    # every byte of each economics verb's stdout for ECON_CFG: an entry of
    # the pin table, tests/pins.py
    @pytest.mark.parametrize("verb", ["check-incentives", "min-rewards"])
    def test_stdout_is_pinned(self, verb, tmp_path):
        assert pins.differences(verb, tmp_path) == []


class TestTraceRoundVerb:
    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    def test_seed_7_golden(self, mode, tmp_path):
        # stdout and the --out file of trace-round --seed 7 with the
        # default config, pinned in tests/pins.py
        assert pins.differences(f"trace-round-{mode}", tmp_path) == []

    def test_concrete_seed_1009_golden(self, tmp_path):
        assert pins.differences("trace-round-concrete-1009", tmp_path) == []

    def test_round_one_shows_sole_genesis_mo(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        status = main(["trace-round", "--config", str(cfg), "--seed", "7"])
        out = capsys.readouterr().out
        assert status == 0
        assert "1 MO(s) ['p000']" in out
        assert "(11) settlement block" in out
        assert "balances before -> after" in out

    def test_trace_writes_round_log_json(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        log_path = tmp_path / "round.json"
        assert main(["trace-round", "--config", str(cfg), "--out", str(log_path)]) == 0
        data = json.loads(log_path.read_text())
        assert data["round"] == 1 and data["assignment"]["mos"] == ["p000"]

    def test_rejected_submissions_are_counted_with_their_reasons(
            self, tmp_path, capsys, monkeypatch):
        backend = protocol.MODELS["concrete"]
        honest_encrypt = backend.encrypt

        def wrong_digest_encrypt(pk, trainer):
            ct, digest = honest_encrypt(pk, trainer)
            return ct, digest[::-1]  # not the digest of its ciphertext

        monkeypatch.setattr(backend, "encrypt", wrong_digest_encrypt)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        log_path = tmp_path / "round.json"
        assert main(["trace-round", "--config", str(cfg), "--mode", "concrete",
                     "--set", "pr_training=1.0", "--out", str(log_path)]) == 0
        out = capsys.readouterr().out
        rejected = json.loads(log_path.read_text())["rejected"]
        assert [reason for _, reason in rejected] == ["HashMismatch"] * 2
        assert " 2 record(s)" in out
        assert " (8) encryption: 2 model(s) encrypted" in out
        assert "(10) outputs: 2 submission(s), 2 rejected" in out
        for trainer_id, reason in rejected:
            assert f"     rejected {trainer_id}: {reason}" in out
        assert ": 0 verified, top set []" in out


class TestExportVerb:
    def test_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        dump = out / "chain.jsonl"
        copy = tmp_path / "copy.jsonl"
        assert main(["export", "--config", str(dump), "--out", str(copy)]) == 0
        assert copy.read_bytes() == dump.read_bytes()

    def test_corrupted_dump_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        dump = out / "chain.jsonl"
        raw = bytearray(dump.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        corrupted = tmp_path / "bad.jsonl"
        corrupted.write_bytes(bytes(raw))
        status = main(["export", "--config", str(corrupted), "--out", str(tmp_path / "x.jsonl")])
        assert status == 1
        assert capsys.readouterr().err.strip() != ""

    def test_missing_out(self, tmp_path):
        status = main(["export", "--config", str(tmp_path / "none.jsonl")])
        assert status == 2

    def test_line_feed_turned_carriage_return_reported(self, tmp_path, capsys):
        # Text mode would read the lone carriage return back as a line feed.
        assert main(["simulate", "--rounds", "1", "--seed", "7",
                     "--out", str(tmp_path / "run")]) == 0
        raw = (tmp_path / "run" / "chain.jsonl").read_bytes()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(raw.replace(b"\n", b"\r", 1))
        capsys.readouterr()
        out = tmp_path / "x.jsonl"
        assert main(["export", "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("export: Unparseable: line 0: ")
        assert not out.exists()

    def test_deeply_nested_line_reported(self, tmp_path, capsys):
        assert main(["simulate", "--rounds", "1", "--seed", "7",
                     "--out", str(tmp_path / "run")]) == 0
        lines = (tmp_path / "run" / "chain.jsonl").read_text().splitlines(keepends=True)
        lines[1] = "[" * 100_000 + "]" * 100_000 + "\n"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "x.jsonl"
        assert main(["export", "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("export: Unparseable: line 1: ")
        assert not out.exists()

    def test_non_utf8_dump_reported_as_one_unparseable_line(self, tmp_path, capsys):
        # The bad byte opens line 3: three line feeds come before it.
        assert main(["simulate", "--rounds", "1", "--seed", "7",
                     "--out", str(tmp_path / "run")]) == 0
        lines = (tmp_path / "run" / "chain.jsonl").read_bytes().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines[:3]) + b"\xff" + b"".join(lines[3:]))
        capsys.readouterr()
        out = tmp_path / "x.jsonl"
        assert main(["export", "--config", str(bad), "--out", str(out)]) == 1
        position = sum(map(len, lines[:3]))
        assert capsys.readouterr() == ("", "export: Unparseable: line 3: 'utf-8' codec can't "
                                           f"decode byte 0xff in position {position}: invalid "
                                           "start byte\n")
        assert not out.exists()


class TestExportOnePass:
    """export writes the dump its verifying pass accepted: one hash per
    block, and the file, exit code and stderr of verifying, then re-parsing."""

    @staticmethod
    def _dump(tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        return tmp_path / "run" / "chain.jsonl"

    @staticmethod
    def _two_pass_export(text):
        """The export written as two passes: verify, then parse again."""
        violations = chain.verify_chain_dump(text)
        if violations:
            return 1, None, "".join(f"export: {v}\n" for v in violations)
        return 0, chain.chain_to_jsonl(chain.chain_from_jsonl(text)), ""

    def test_each_block_hashed_once(self, tmp_path, monkeypatch):
        # Every SHA-256 of the chain module goes through its hashlib, and
        # every block encoding through block_body.
        dump = self._dump(tmp_path)
        hashed, encoded = [], []
        sha256, body = chain.hashlib.sha256, chain.block_body
        monkeypatch.setattr(chain, "hashlib", types.SimpleNamespace(
            sha256=lambda data: hashed.append(data) or sha256(data)))
        monkeypatch.setattr(chain, "block_body", lambda b: encoded.append(b) or body(b))
        assert main(["export", "--config", str(dump), "--out", str(tmp_path / "x.jsonl")]) == 0
        blocks = len(dump.read_text().splitlines())
        assert blocks == 4 * 6 + 1
        assert len(hashed) == blocks
        # one encoding per block, when it is verified: export writes the
        # bytes that verifying accepted
        assert len(encoded) == blocks

    def test_good_dump_output_unchanged(self, tmp_path, capsys):
        dump = self._dump(tmp_path)
        capsys.readouterr()
        copy = tmp_path / "copy.jsonl"
        status, expected, _ = self._two_pass_export(dump.read_text())
        assert main(["export", "--config", str(dump), "--out", str(copy)]) == status == 0
        assert copy.read_text() == expected
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("tamper", ["flip_byte", "drop_line", "swap_lines", "garbage_line",
                                        "space_after_comma", "repeated_key", "float_nonce"])
    def test_tampered_dump_stderr_unchanged(self, tmp_path, capsys, tamper):
        original = self._dump(tmp_path).read_text().splitlines(keepends=True)
        lines = list(original)
        if tamper == "flip_byte":
            lines[7] = lines[7].replace('"round":2', '"round":3', 1)
        elif tamper == "drop_line":
            del lines[5]
        elif tamper == "swap_lines":
            lines[3], lines[4] = lines[4], lines[3]
        elif tamper == "garbage_line":
            lines.insert(9, "{not json\n")
        # a line in another form than its block's canonical one, or with a
        # value of another type than its field's
        elif tamper == "space_after_comma":
            lines[1] = lines[1].replace(",", ", ", 1)
        elif tamper == "repeated_key":
            lines[1] = lines[1].replace('"height":1,', '"height":1,"height":1,', 1)
        else:
            lines[1] = re.sub(r'"nonce":([0-9]+),', r'"nonce":\1.0,', lines[1], count=1)
        assert lines != original
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "x.jsonl"
        status, _, err = self._two_pass_export(bad.read_text())
        assert main(["export", "--config", str(bad), "--out", str(out)]) == status == 1
        assert capsys.readouterr().err == err != ""
        assert not out.exists()


class TestExitCodes:
    def test_unknown_verb_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown verb" in capsys.readouterr().err

    def test_negative_seed_exit_two_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_SIM_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--seed", "-7", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["check-incentives", "min-rewards"])
    @pytest.mark.parametrize("name", ["q_deposit", "q_cases", "v_rec_m"])
    def test_count_too_large_for_a_float_exit_two(self, verb, name, tmp_path, capsys):
        # The bounds use each count as a float, so one past the largest
        # float is refused with the parameters, not raised mid-evaluation.
        cfg = tmp_path / "p.cfg"
        cfg.write_text(ECON_CFG)
        huge = "1" + "0" * 400
        assert main([verb, "--config", str(cfg), "--set", f"{name}={huge}"]) == 2
        assert capsys.readouterr() == ("", f"relaysim: {name} must be >= 0 and at most "
                                           f"the largest finite float, got {huge}\n")

    def test_simulate_count_too_large_for_a_float_exit_two(self, tmp_path, capsys):
        # Refused where the config is built: no output directory is made.
        out = tmp_path / "run"
        huge = "1" + "0" * 400
        assert main(["simulate", "--set", f"q_cases={huge}", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "relaysim: q_cases is too large for a float\n")
        assert not out.exists()

    def test_simulate_pool_past_the_cap_exit_two(self, tmp_path, capsys):
        # Refused where the config is built, before any participant id is made.
        out = tmp_path / "run"
        assert main(["simulate", "--set", "q_miners=10000000000", "--rounds", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "relaysim: q_miners and q_mo_and_t must be >= 1 with a "
                                           f"sum of at most {sim.MAX_PARTICIPANTS}, got "
                                           "10000000000 and 128\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["q_cases", "model_dim"])
    def test_simulate_testing_table_past_the_cap_exit_two(self, name, tmp_path, capsys):
        # Each count fits a float, but one round's testing table would not
        # fit in memory: refused where the config is built, with no output
        # directory.
        out = tmp_path / "run"
        huge = "1" + "0" * 300
        assert main(["simulate", "--set", f"{name}={huge}", "--rounds", "1",
                     "--out", str(out)]) == 2
        config = {"q_cases": 100, "model_dim": 4, name: huge}
        assert capsys.readouterr() == (
            "", f"relaysim: q_cases * (model_dim + 1) must be at most {sim.MAX_TESTING_VALUES}, "
                f"got q_cases={config['q_cases']}, model_dim={config['model_dim']}\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["check-incentives", "min-rewards"])
    def test_count_product_too_large_for_a_float_exit_two(self, verb, tmp_path, capsys):
        # Each count fits a float on its own, but T6 multiplies them before
        # any float is made: refused with the parameters, not raised as an
        # OverflowError mid-evaluation, and nothing on stdout.
        cfg = tmp_path / "p.cfg"
        cfg.write_text(ECON_CFG)
        huge = "1" + "0" * 200
        assert main([verb, "--config", str(cfg), "--set", f"q_verified_m={huge}",
                     "--set", f"q_cases={huge}"]) == 2
        assert capsys.readouterr() == (
            "", "relaysim: q_verified_m * q_cases must be at most the largest finite float, "
                f"got q_verified_m={huge}, q_cases={huge}\n")

    @pytest.mark.parametrize("verb, override, err", [
        ("check-incentives", "q_deposit=1", "NPA evaluation requires 0 < q_deposit_less "
         "< q_deposit, got q_deposit_less=16, q_deposit=1"),
        ("min-rewards", "q_deposit=0", "T3 bound requires q_deposit > 0"),
        ("min-rewards", "beta=0", "T2/T8 bounds require beta > 0"),
        ("min-rewards", "q_selected_t_avg=5e-324",
         "T2/T8 bounds require q_selected_t_avg * beta > 0, got 0.0"),
    ], ids=["npa-deposit-counts", "zero-deposit-count", "zero-discount-rate",
            "citation-weight-underflow"])
    def test_unevaluable_params_exit_two(self, verb, override, err, tmp_path, capsys):
        # Exit 1 means "unsatisfied"; a set that cannot be evaluated is a
        # bad invocation, with nothing on stdout.
        cfg = tmp_path / "p.cfg"
        cfg.write_text(ECON_CFG)
        assert main([verb, "--config", str(cfg), "--set", override]) == 2
        assert capsys.readouterr() == ("", f"relaysim: {err}\n")


class TestBoundaries:
    """Bad paths and flags exit 2 with a one-line message, before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("work started")
        for module, name in ((sim, "simulate_run"), (protocol, "run_round"),
                             (cli, "verify_chain_dump")):
            monkeypatch.setattr(module, name, work)

    def _exit_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("relaysim: ") and err.count("\n") == 1
        return err

    def test_simulate_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("x")
        self._exit_two(["simulate", "--out", str(out)], capsys)

    @pytest.mark.parametrize("verb", ["trace-round", "export"])
    def test_out_in_a_missing_directory(self, verb, tmp_path, capsys):
        dump = tmp_path / "chain.jsonl"
        dump.write_text("{}\n")
        config = ["--config", str(dump)] if verb == "export" else []
        out = tmp_path / "missing" / "out.json"
        self._exit_two([verb, *config, "--out", str(out)], capsys)
        assert not out.parent.exists()

    def test_export_out_checked_before_the_dump_is_read(self, tmp_path, capsys):
        # A dump that is not UTF-8 would fail its decoding with exit 1.
        dump = tmp_path / "chain.jsonl"
        dump.write_bytes(b"\xff\n")
        out = tmp_path / "missing" / "out.jsonl"
        err = self._exit_two(["export", "--config", str(dump), "--out", str(out)], capsys)
        assert err == f"relaysim: --out must name a file in an existing directory, got {out}\n"

    def test_trace_round_out_is_a_directory(self, tmp_path, capsys):
        self._exit_two(["trace-round", "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize("verb", ["simulate", "trace-round", "min-rewards", "export"])
    def test_config_is_a_directory(self, verb, tmp_path, capsys):
        out = [] if verb == "min-rewards" else ["--out", str(tmp_path / "o.json")]
        self._exit_two([verb, "--config", str(tmp_path), *out], capsys)

    @pytest.mark.parametrize("argv", [
        ["trace-round", "--rounds", "5"],
        ["check-incentives", "--seed", "7"],
        ["min-rewards", "--out", "x"],
        ["export", "--mode", "abstract"],
    ])
    def test_flag_the_verb_does_not_take(self, argv, capsys):
        err = self._exit_two(argv, capsys)
        assert f"{argv[0]} does not take {argv[1]}" in err

    def test_bad_rounds_value(self, tmp_path, capsys):
        out = tmp_path / "run"
        err = self._exit_two(["simulate", "--rounds", "abc", "--out", str(out)], capsys)
        assert err == "relaysim: rounds: cannot parse 'abc' as int\n"
        assert not out.exists()

    def test_bad_seed_value(self, tmp_path, capsys):
        out = tmp_path / "run"
        err = self._exit_two(["simulate", "--seed", "x", "--out", str(out)], capsys)
        assert err == "relaysim: seed: cannot parse 'x' as int\n"
        assert not out.exists()

    def test_bad_mode_value(self, tmp_path, capsys):
        out = tmp_path / "run"
        err = self._exit_two(["simulate", "--mode", "quantum", "--out", str(out)], capsys)
        assert err == "relaysim: mode must be one of abstract, concrete, got 'quantum'\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, err", [
        (["trace-round", "--seed", "\u0667"], "seed: cannot parse '\u0667' as int"),
        (["trace-round", "--seed", "0_7"], "seed: cannot parse '0_7' as int"),
        (["trace-round", "--set", "q_cases=1_0"], "q_cases: cannot parse '1_0' as int"),
        (["trace-round", "--set", "s=0_5"], "s: cannot parse '0_5' as float"),
        (["trace-round", "--set", "s=\u0660.5"], "s: cannot parse '\u0660.5' as float"),
        (["trace-round", "--seed", "07"], "seed: cannot parse '07' as int"),
        (["trace-round", "--seed", " 7"], "seed: cannot parse ' 7' as int"),
        (["trace-round", "--seed", "7 "], "seed: cannot parse '7 ' as int"),
        (["trace-round", "--seed", "+00"], "seed: cannot parse '+00' as int"),
    ], ids=["arabic-indic-seed", "underscore-seed", "underscore-int", "underscore-float",
            "arabic-indic-float", "leading-zero-seed", "leading-space-seed",
            "trailing-space-seed", "zero-padded-zero-seed"])
    def test_one_spelling_per_number(self, argv, err, capsys):
        # int() and float() alone read each of these values as a number.
        assert self._exit_two(argv, capsys) == f"relaysim: {err}\n"

    def test_plain_numbers_still_parse(self):
        config = sim.SimConfig(**coerce_fields(
            sim.SimConfig, {"seed": "+7", "budget_mo": "1e-3", "s": "0.5", "rounds": "12"}))
        assert (config.seed, config.budget_mo, config.s, config.rounds) == (7, 1e-3, 0.5, 12)
        assert sim.SimConfig(**coerce_fields(sim.SimConfig, {"seed": "0"})).seed == 0

    def test_float_spellings_of_one_value_build_equal_configs(self):
        # float() is the boundary past the ASCII check: each spelling of one
        # value gives the same config, so no output can tell them apart.
        configs = [sim.SimConfig(**coerce_fields(sim.SimConfig, {"s": raw}))
                   for raw in ("0.5", ".5", "5e-1", "+0.50")]
        assert all(config == configs[0] for config in configs)
        assert configs[0].s == 0.5

    def test_removed_round_robin_key_is_unknown(self, tmp_path, capsys):
        out = tmp_path / "run"
        err = self._exit_two(
            ["simulate", "--set", "round_robin_variant=true", "--out", str(out)], capsys)
        assert err == "relaysim: unknown SimConfig parameter 'round_robin_variant'\n"
        assert not out.exists()

    def test_removed_participant_count_key_is_unknown(self, tmp_path, capsys):
        out = tmp_path / "run"
        err = self._exit_two(
            ["simulate", "--set", "q_total_participants=16", "--out", str(out)], capsys)
        assert err == "relaysim: unknown SimConfig parameter 'q_total_participants'\n"
        assert not out.exists()

    @pytest.mark.parametrize("raw", [" 0.5", "0.5 ", "0.5\n"])
    def test_float_with_surrounding_whitespace_rejected(self, raw):
        # float() alone strips the whitespace and reads 0.5.
        with pytest.raises(BadOverride, match="s: cannot parse"):
            coerce_fields(sim.SimConfig, {"s": raw})

    @pytest.mark.parametrize("verb", ["simulate", "trace-round", "check-incentives",
                                      "min-rewards"])
    def test_malformed_config_line(self, verb, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 7\nrounds 5\n")
        err = self._exit_two([verb, "--config", str(cfg)], capsys)
        assert err == "relaysim: line 2: expected key=value, got 'rounds 5'\n"


def _package_env():
    """The environment, with this checkout's package first on the path."""
    src = str(Path(relaysim.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestClosedStdout:
    def test_exits_one_with_no_message(self):
        # Standard output is a pipe whose read end is closed, as under
        # `relaysim trace-round --seed 7 | head -1` once head has exited.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "relaysim.cli", "trace-round", "--seed", "7"],
                stdout=write_end, stderr=subprocess.PIPE, env=_package_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, b"")


class TestReproduceScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"

    def test_bad_seed_exits_two_and_writes_nothing(self, tmp_path):
        out = tmp_path / "results"
        result = subprocess.run(
            [sys.executable, str(self.SCRIPT), str(out), "--seed", "-1"],
            capture_output=True, text=True, env=_package_env(), timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines()[-1] == (
            "reproduce_results.py: error: seed must be in [0, 2**64), got -1")
        assert "Traceback" not in result.stderr and result.stdout == ""
        assert not out.exists()

    def test_sixty_rounds(self, tmp_path):
        out = tmp_path / "results"
        result = subprocess.run(
            [sys.executable, str(self.SCRIPT), str(out), "--rounds", "60"],
            capture_output=True, text=True, env=_package_env(), timeout=120, check=True,
        )
        assert result.stderr == ""
        # the round-robin variant's closed-form check must hold, not just print
        assert "round-robin variant matches x(x-1)q/2 exactly: True" in result.stdout.splitlines()
        # its coins CSV and simulate's metrics.csv are one Metrics.to_csv()
        run = tmp_path / "run"
        assert main(["simulate", "--rounds", "60", "--seed", "7", "--out", str(run)]) == 0
        assert (out / "coins_per_participant.csv").read_bytes() == (run / "metrics.csv").read_bytes()


class TestNumpyFree:
    """The package runs on the standard library alone: importing it and
    exporting a chain load no numpy, and each verb that writes files runs
    with numpy unimportable and writes the same bytes as with it."""

    SCRIPT = (
        "import sys\n"
        "import relaysim, relaysim.cli\n"
        "status = relaysim.cli.main(['export', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(status, sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
    )
    BLOCKED = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from relaysim.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    # The arguments of each verb, given its output directory and a dump to
    # export, and the files it writes there.
    VERBS = {
        "simulate": (lambda out, dump: ["simulate", "--rounds", "30", "--seed", "7",
                                        "--out", str(out)],
                     ["chain.jsonl", "metrics.csv", "summary.json"]),
        "trace-round": (lambda out, dump: ["trace-round", "--seed", "7",
                                           "--out", str(out / "log.json")],
                        ["log.json"]),
        "export": (lambda out, dump: ["export", "--config", str(dump),
                                      "--out", str(out / "copy.jsonl")],
                   ["copy.jsonl"]),
    }

    def test_import_and_export_load_no_numpy(self, tmp_path):
        run = sim.simulate_run(sim.SimConfig(seed=7, rounds=3))
        dump = tmp_path / "chain.jsonl"
        dump.write_text(chain.chain_to_jsonl(run.state.chain), encoding="utf-8")
        copy = tmp_path / "copy.jsonl"
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(dump), str(copy)],
            capture_output=True, text=True, env=_package_env(), timeout=60, check=True,
        )
        assert result.stdout.splitlines()[-1] == "0 []"
        assert copy.read_bytes() == dump.read_bytes()

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_verb_runs_with_numpy_blocked(self, verb, tmp_path, capsys):
        run = sim.simulate_run(sim.SimConfig(seed=7, rounds=3))
        dump = tmp_path / "chain.jsonl"
        dump.write_text(chain.chain_to_jsonl(run.state.chain), encoding="utf-8")
        argv, names = self.VERBS[verb]
        blocked, free = tmp_path / "blocked", tmp_path / "free"
        blocked.mkdir()
        free.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", self.BLOCKED, *argv(blocked, dump)],
            capture_output=True, text=True, env=_package_env(), timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert main(argv(free, dump)) == 0
        stdout = capsys.readouterr().out
        assert sorted(p.name for p in blocked.iterdir()) == names
        assert sorted(p.name for p in free.iterdir()) == names
        for name in names:
            assert (blocked / name).read_bytes() == (free / name).read_bytes()
        # the same report, but for the output directory it may name
        assert result.stdout.replace(str(blocked), str(free)) == stdout
