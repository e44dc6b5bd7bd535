import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import relaysim
from relaysim import chain, cli, protocol, sim
from relaysim.cli import (
    BadOverride,
    MissingConfig,
    UnknownVerb,
    execute,
    main,
    parse_invocation,
)

SMALL_SIM_CFG = """
# small but complete run
q_total_participants = 16
q_miners = 8
q_mo_and_t = 8
q_selection_limit = 2
q_cases = 5
rounds = 6
seed = 3
"""

ECON_CFG = """
beta = 0.5
s = 0.5
b_mo = 0.25
b_t = 1.5
k_transmit = 1e-6
model_size = 10000
c_mine = 0.02
q_selected = 4
q_selected_mo_avg = 2
q_selected_t_avg = 2
q_deposit = 32
q_deposit_less = 16
q_hash_m = 24
q_encrypted_m = 64
q_cases = 100
q_verified_m = 20
v_rec_m = 10
v_now_t = 9
r_cited = 1.0
r_deposit = 0.001
r_hash_m = 0.01
r_encrypted_m = 0.001
r_case = 0.001
r_verified_m = 0.01
r_verify = 0.001
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
        from relaysim.cli import _sim_config

        config = _sim_config(cmd)
        assert config.rounds == 3      # command line wins
        assert config.seed == 1        # file beats defaults
        assert config.q_cases == 100   # untouched default

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("roundz = 5\n")
        cmd = parse_invocation(["simulate", "--config", str(cfg)])
        assert execute_status(cmd) != 0


def execute_status(cmd):
    try:
        return execute(cmd)
    except Exception:
        return 2


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


class TestTraceRoundVerb:
    # trace-round --seed 7 with the default config: stdout and the SHA-256
    # of its --out, per mode.
    GOLDEN = {
        "abstract": ("""\
            round 1 trace (mode abstract, seed 7)
             (1) bidding: 1 MO(s) ['p000'], 127 candidate trainer(s), 128 miner(s)
             (2) contracts: 4 escrowed
             (3) deposit block mined by p005: 4 contract(s) packed, digest 89da62959bae0832...
             (4) transmission: 4 trainer(s) received a model
             (5) training: 4/4 succeeded
             (6) hash broadcast: 4 digest(s)
             (7) encryption block mined by p038: 4 record(s), digest cb4900a44c759b4e...
             (8) encryption: 4 model(s) encrypted
             (9) testing block mined by p199: 100 case(s), digest ce1f48b6e41e4bc9...
            (10) outputs: 4 submission(s), 0 rejected
            (11) settlement block mined by p118: 4 verified, top set ['p006', 'p011'], digest 2d0f31e83c50f015...
                 minted 2.516000, forfeited 0.000000, citation coins 2.000000
            balances before -> after (5 changed):
              p000: 0.000000 -> 2.000000
              p005: 0.000000 -> 0.004000
              p038: 0.000000 -> 0.004000
              p118: 0.000000 -> 0.404000
              p199: 0.000000 -> 0.104000
""", "dffcf7de6e8bc8863e111ee256ac90422c71d27b9ea747cae4ba3aa5b4173244"),
        "concrete": ("""\
            round 1 trace (mode concrete, seed 7)
             (1) bidding: 1 MO(s) ['p000'], 127 candidate trainer(s), 128 miner(s)
             (2) contracts: 4 escrowed
             (3) deposit block mined by p085: 4 contract(s) packed, digest 96ad1be0cb86c362...
             (4) transmission: 4 trainer(s) received a model
             (5) training: 3/4 succeeded
             (6) hash broadcast: 3 digest(s)
             (7) encryption block mined by p131: 3 record(s), digest 1acf9b282870819c...
             (8) encryption: 3 model(s) encrypted
             (9) testing block mined by p140: 100 case(s), digest 0db1bbb625081cbe...
            (10) outputs: 3 submission(s), 0 rejected
            (11) settlement block mined by p204: 3 verified, top set ['p006'], digest 9c8e7befc8c7f15b...
                 minted 1.413000, forfeited 0.000000, citation coins 1.000000
            balances before -> after (5 changed):
              p000: 0.000000 -> 1.000000
              p085: 0.000000 -> 0.004000
              p131: 0.000000 -> 0.003000
              p140: 0.000000 -> 0.103000
              p204: 0.000000 -> 0.303000
""", "90e94ec623df8770c78da73cb0fa7f9e30856e5a82aea6bb574892d06d01cdd2"),
    }

    @pytest.mark.parametrize("mode", ["abstract", "concrete"])
    def test_seed_7_golden(self, mode, tmp_path, capsys):
        stdout, out_sha = self.GOLDEN[mode]
        log_path = tmp_path / "round.json"
        assert main(["trace-round", "--seed", "7", "--mode", mode, "--out", str(log_path)]) == 0
        assert capsys.readouterr().out == textwrap.dedent(stdout)
        assert hashlib.sha256(log_path.read_bytes()).hexdigest() == out_sha

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


class TestExportOnePass:
    """export writes the chain its verifying pass built: one hash per block,
    and the file, exit code and stderr of verifying, then re-parsing."""

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
        dump = self._dump(tmp_path)
        calls = []
        digest = chain.block_digest
        monkeypatch.setattr(chain, "block_digest", lambda b: calls.append(b) or digest(b))
        assert main(["export", "--config", str(dump), "--out", str(tmp_path / "x.jsonl")]) == 0
        blocks = len(dump.read_text().splitlines())
        assert blocks == 4 * 6 + 1
        assert len(calls) == blocks

    def test_good_dump_output_unchanged(self, tmp_path, capsys):
        dump = self._dump(tmp_path)
        capsys.readouterr()
        copy = tmp_path / "copy.jsonl"
        status, expected, _ = self._two_pass_export(dump.read_text())
        assert main(["export", "--config", str(dump), "--out", str(copy)]) == status == 0
        assert copy.read_text() == expected
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("tamper", ["flip_byte", "drop_line", "swap_lines", "garbage_line"])
    def test_tampered_dump_stderr_unchanged(self, tmp_path, capsys, tamper):
        lines = self._dump(tmp_path).read_text().splitlines(keepends=True)
        if tamper == "flip_byte":
            lines[7] = lines[7].replace('"round":2', '"round":3', 1)
        elif tamper == "drop_line":
            del lines[5]
        elif tamper == "swap_lines":
            lines[3], lines[4] = lines[4], lines[3]
        else:
            lines.insert(9, "{not json\n")
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
        config = sim.config_from_mapping(
            {"seed": "+7", "budget_mo": "1e-3", "s": "0.5", "rounds": "12"})
        assert (config.seed, config.budget_mo, config.s, config.rounds) == (7, 1e-3, 0.5, 12)
        assert sim.config_from_mapping({"seed": "0"}).seed == 0

    @pytest.mark.parametrize("raw", [" 0.5", "0.5 ", "0.5\n"])
    def test_float_with_surrounding_whitespace_rejected(self, raw):
        # float() alone strips the whitespace and reads 0.5.
        with pytest.raises(sim.InvalidSimConfig, match="s: cannot parse"):
            sim.config_from_mapping({"s": raw})

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


class TestNumpyFree:
    """Only the sustainability analysis loads numpy: importing the package
    and exporting a chain do not."""

    SCRIPT = (
        "import sys\n"
        "import relaysim, relaysim.cli\n"
        "status = relaysim.cli.main(['export', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(status, sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
    )

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
