"""The runner of the pin table, ``python tests/pins.py``, when a pin is off."""

import pins


def test_a_changed_pin_is_reported_with_both_digests(monkeypatch, capsys):
    # The whole table runs; only the changed output is reported.
    pin = pins.PINS["min-rewards"]
    wrong = "0" * 64
    monkeypatch.setitem(pins.PINS, "min-rewards", pin._replace(outputs={"stdout": wrong}))
    assert pins.main() == 1
    checked = sum(len(p.outputs) for p in pins.PINS.values())
    assert capsys.readouterr().out.splitlines() == [
        f"min-rewards stdout: pinned {wrong} actual {pin.outputs['stdout']}",
        f"{checked - 1} of {checked} pinned outputs match",
    ]
