"""The whole-output pins: the SHA-256 of each file and standard output that
a fixed ``relaysim`` invocation writes, kept once, in ``PINS``.

README promises that a fixed seed's outputs are byte-identical on Python
3.10-3.13, and this table is what holds it to that. Each entry is a short
list of ``relaysim`` command lines (the arguments after ``relaysim``), run
in order in one fresh directory, and the SHA-256 of each output they write
there: a path relative to that directory, or ``stdout`` for all that the
commands print. Each command must exit 0 and print nothing on standard
error. Seed 7 unless an entry's name says otherwise.

Run as a script, with the package importable and no flags:

    PYTHONPATH=src python tests/pins.py

it runs every entry, prints the pinned and the actual SHA-256 of each
output that differs (the old -> new list of a declared re-pin), and exits 1
if any differs. The tests run the same entries. It needs only the standard
library, so it runs on interpreters that have neither numpy nor pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from relaysim.cli import main as relaysim


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Pin(NamedTuple):
    commands: tuple[str, ...]
    outputs: dict[str, str]
    # files written into the directory before the first command
    inputs: dict[str, str] = {}


def simulate(flags: str, chain: str | None = None, csv: str | None = None,
             summary: str | None = None) -> Pin:
    """``simulate`` with ``flags``, pinning the files given; a pinned chain
    is also exported, and the copy must be the chain byte for byte."""
    outputs = {"chain.jsonl": chain, "copy.jsonl": chain, "metrics.csv": csv,
               "summary.json": summary}
    commands = [f"simulate {flags} --out ."]
    if chain is not None:
        commands.append("export --config chain.jsonl --out copy.jsonl")
    return Pin(tuple(commands), {k: v for k, v in outputs.items() if v is not None})


# A feasible economic parameter set: every condition T1-T8 holds.
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

# What `trace-round --seed 7` prints with the default config, per mode.
TRACE_STDOUT = {
    "abstract": """\
round 1 trace (mode abstract, seed 7)
 (1) bidding: 1 MO(s) ['p000'], 127 candidate trainer(s), 128 miner(s)
 (2) contracts: 4 escrowed
 (3) deposit block mined by p005: 4 contract(s) packed, digest 2645db2720001eba...
 (4) transmission: 4 trainer(s) received a model
 (5) training: 4/4 succeeded
 (6) hash broadcast: 4 digest(s)
 (7) encryption block mined by p038: 4 record(s), digest 839d77431f840d65...
 (8) encryption: 4 model(s) encrypted
 (9) testing block mined by p199: 100 case(s), digest 56c6d1f2b4c6da55...
(10) outputs: 4 submission(s), 0 rejected
(11) settlement block mined by p118: 4 verified, top set ['p006', 'p011'], digest 50f60f9de85ced92...
     minted 2.516000, forfeited 0.000000, citation coins 2.000000
balances before -> after (5 changed):
  p000: 0.000000 -> 2.000000
  p005: 0.000000 -> 0.004000
  p038: 0.000000 -> 0.004000
  p118: 0.000000 -> 0.404000
  p199: 0.000000 -> 0.104000
""",
    "concrete": """\
round 1 trace (mode concrete, seed 7)
 (1) bidding: 1 MO(s) ['p000'], 127 candidate trainer(s), 128 miner(s)
 (2) contracts: 4 escrowed
 (3) deposit block mined by p085: 4 contract(s) packed, digest 3ef921fcdc08a694...
 (4) transmission: 4 trainer(s) received a model
 (5) training: 3/4 succeeded
 (6) hash broadcast: 3 digest(s)
 (7) encryption block mined by p131: 3 record(s), digest 69620beba7de1195...
 (8) encryption: 3 model(s) encrypted
 (9) testing block mined by p140: 100 case(s), digest b21be24b8669abcf...
(10) outputs: 3 submission(s), 0 rejected
(11) settlement block mined by p204: 3 verified, top set ['p006'], digest f1a95eabb214b142...
     minted 1.413000, forfeited 0.000000, citation coins 1.000000
balances before -> after (5 changed):
  p000: 0.000000 -> 1.000000
  p085: 0.000000 -> 0.004000
  p131: 0.000000 -> 0.003000
  p140: 0.000000 -> 0.103000
  p204: 0.000000 -> 0.303000
""",
}

PINS: dict[str, Pin] = {
    "abstract-20": simulate(
        "--seed 7 --rounds 20",
        chain="051b0a0f2cb568c20ab7e5d9cc71ba9b3e3022b14d1bcb78a49ad9fe5a18b206",
        csv="b2a8f59364173e6907a174b691ed4b0e5445087c16f1d9bda224e9559efdff2c"),
    "concrete-4": simulate(
        "--seed 7 --rounds 4 --mode concrete",
        chain="557b913763de735d0c99a98cb8bcbec8d85d5834937291a86f3947623a91489d",
        csv="767159e21f7aaa19798c020652e675f6b50133b9974b36623631053cc045eda6"),
    # the engine's toggles
    "abstract-second-price": simulate(
        "--seed 7 --rounds 20 --set second_price_deposits=true",
        chain="a9e0d1daf6450fdd5d24d626b8cc01722ca54b04f3793a548f2475bc420336dd",
        csv="18a65a440a8d219fdd4c93a620c702a58c5e10d864f5504a092bf64aebe8099d"),
    "abstract-shared-miners": simulate(
        "--seed 7 --rounds 20 --set distinct_miners_per_round=false",
        chain="73fa2af29835f7723f4c8bc62a59fc043ee16a84c5432d69d446403caad4bad9",
        csv="215c9959a7530c720835586337cc9c5dfc2574a2804aba7f279a98484844a6e9"),
    "concrete-second-price": simulate(
        "--seed 7 --rounds 4 --mode concrete --set second_price_deposits=true",
        chain="230922dc77cee65aa1c191f991b00105f85214954ba1fad00bd200857954bb25",
        csv="b4975f773aff5d0639049929f13227c64c6e3a9f3429ab0ed044306b46032823"),
    # the TB's and SB's coinbases at a case count and a reward not the defaults
    "abstract-q-cases-7": simulate(
        "--seed 7 --rounds 20 --set q_cases=7 --set reward_base=0.0025",
        chain="b8b8204982fc5cc0ba62ad823c41fa9cbfe38adde9804550c3d79e808d406984",
        csv="c7910cd49903d15187c83493cfdd8c75175be1c6b542e0fa296906f377db93e8",
        summary="b5dd8c8c1bd4fa8419ee3594dd9628d57c5d8483f5b390b695d3660c84463f49"),
    "abstract-coin-unit-0.1": simulate(
        "--seed 7 --rounds 40 --set coin_unit=0.1",
        chain="0fd64488c985d509f83fe196b52bcfd48f876792048d68c0eb0912948f391ad5",
        csv="2a129623e462a4d41a5821d4f558efcaa7b3430fa7390e31f00bf5dc0899d84f"),
    # The kernel takes the inputs four at a time: 5 is one block and one
    # weight left over, 9 two blocks and one.
    "concrete-dim-1": simulate(
        "--seed 7 --rounds 6 --mode concrete --set model_dim=1",
        chain="95a4e4276944bd94dd772a8511c229121285226c87d1abdd53c176842f490f9b",
        csv="3b83b3357cd23860259873680137afadd42480fd4544c178e219575c10a0470a"),
    "concrete-dim-7": simulate(
        "--seed 7 --rounds 6 --mode concrete --set model_dim=7",
        chain="f700c44f4c01ca54e37198ca5a330bc6d6f9c311924d9bbd559030751f9ccb77",
        csv="043ccb93f7da311a62ddb435c814dce56aef427a41b26cf99d40c7f5ba9a85ed"),
    "concrete-dim-5": simulate(
        "--seed 7 --rounds 6 --mode concrete --set model_dim=5",
        chain="330e2edbed09f7a57b4268593024a008a56acfca7180bac7a1ee49965bc28ec2",
        csv="86408de6426efb327108f909d0fddd695e3eca552bec4eb9b0b376736bd102a0"),
    "concrete-dim-9": simulate(
        "--seed 7 --rounds 6 --mode concrete --set model_dim=9",
        chain="749b59fb747eb65c541fc7954d8e56fca1d0d1ea6062915d7c97939cef1760e0",
        csv="d581f1840ce80effbe8b550c3159d250d7c2674054444c9c72508daa3ad3902a"),
    # Rounds 8-20 verify 74-86 submissions each: the steady state of the
    # reference setting, past the cold start the runs above stop in.
    "concrete-20-seed-7": simulate(
        "--seed 7 --rounds 20 --mode concrete",
        chain="0912679a5f038ade1ac83c49633d561f050d4a579e4b5ad24e60c4bfb761c35a",
        csv="d2f80abfc159280454a84f796402b437a222543461046ac1e6930c8ada93662b",
        summary="dbc57633b54dd6599b3bbb021057d3b46030a4d70dad18119efe8894f8de713c"),
    "concrete-20-seed-1009": simulate(
        "--seed 1009 --rounds 20 --mode concrete",
        chain="458ae94050aab9fecde4341cf8d27a78d92786641fa456b48efd3c8e5d79597a",
        csv="39f3e36bba2c2ae2666eadab82bf8935bb4f287bcd8002715cd23d9402f72fd7",
        summary="64e1c0510a293b60951ff26bbd5a5a95e0f3cedcd7a77651449ea3ccc3cdca70"),
    # the benchmark's abstract-ref setting: the reference config, 200 rounds
    "abstract-200-seed-7": simulate(
        "--seed 7 --rounds 200",
        chain="69a498e630d5494ebf81ed70834a2372f91a6e5fe78a9988689ed61dda96984a",
        csv="f254ce630fae3396ddd10466252d0fff8fab47884638f8c81fb0efdfecb77878",
        summary="157dbe1717ef489639c8b83cf8441b1b48602a2a91da3a7b20f592c513ab0c4d"),
    "abstract-200-seed-1009": simulate(
        "--seed 1009 --rounds 200",
        chain="3bbcc053d2b09dfce267f08c5dd696c91100296dcd4fd0be62e37ed2f8ba5372",
        csv="273b60c968ac322fb09486f9f40c1c6da644aa662db496a75d26a743f68b6be7",
        summary="345f174f1c6c42868662b2fee13a53826de84d10ef57fa184cb9db7adfce5c15"),
    "abstract-60": simulate(
        "--seed 7 --rounds 60",
        summary="6060979c0c75c334715dd454ced0c2811ac3788c0347406c18246de8134778c6"),
    # every byte of the economics verbs' records: key order and float repr
    "check-incentives": Pin(
        ("check-incentives --config econ.cfg",),
        {"stdout": "834c5aebf60286285fe704d223fba96db92593d0b53b8c68f0c4d1c87f332531"},
        {"econ.cfg": ECON_CFG}),
    "min-rewards": Pin(
        ("min-rewards --config econ.cfg",),
        {"stdout": "bc8c2fe05586d563361fd9ec54ceb50ba71da419d6a6271441360d5f6888d3c4"},
        {"econ.cfg": ECON_CFG}),
    "trace-round-abstract": Pin(
        ("trace-round --seed 7 --mode abstract --out log.json",),
        {"log.json": "672ba720d9feb3246d8714cff17da924f3542ac0c4056c77358a0a68d08429c2",
         "stdout": sha256(TRACE_STDOUT["abstract"])}),
    "trace-round-concrete": Pin(
        ("trace-round --seed 7 --mode concrete --out log.json",),
        {"log.json": "bd7cca959d1f4d2dee0ab3ed5869e551ef23614e3e936e6426e8a032deecc915",
         "stdout": sha256(TRACE_STDOUT["concrete"])}),
    "trace-round-concrete-1009": Pin(
        ("trace-round --seed 1009 --mode concrete --out log.json",),
        {"log.json": "d6e142475006c9eef6ca603927c12409cd69e4846c0dd972ba99a4fbef846b4f",
         "stdout": "ff211a7bfe31ca37739ec29ee99ad546d45ee9d33f6a186adfba9675392d0cfc"}),
}


def differences(name: str, directory: str | Path) -> list[tuple[str, str, str]]:
    """Run entry ``name`` in the empty ``directory``: (output, pinned SHA-256,
    actual SHA-256) for each of its outputs that is not as pinned."""
    pin = PINS[name]
    directory = Path(directory)
    for file, text in pin.inputs.items():
        (directory / file).write_text(text, encoding="utf-8")
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for line in pin.commands:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = relaysim(line.split())
            if status != 0 or stderr.getvalue():
                raise RuntimeError(f"relaysim {line}: exit {status}: {stderr.getvalue()!r}")
    finally:
        os.chdir(cwd)
    actual = {output: sha256(stdout.getvalue()) if output == "stdout"
              else hashlib.sha256((directory / output).read_bytes()).hexdigest()
              for output in pin.outputs}
    return [(output, pinned, actual[output])
            for output, pinned in pin.outputs.items() if actual[output] != pinned]


def main() -> int:
    checked = failed = 0
    for name, pin in PINS.items():
        with tempfile.TemporaryDirectory() as directory:
            for output, pinned, actual in differences(name, directory):
                print(f"{name} {output}: pinned {pinned} actual {actual}")
                failed += 1
        checked += len(pin.outputs)
    print(f"{checked - failed} of {checked} pinned outputs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
