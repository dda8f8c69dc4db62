"""Smoke test: every demo runs at its defaults and recovers what it
attacks.  The demos run in-process, about 1.5 s together."""

import pathlib
import runpy
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# each demo, and a line its output must hold
RECOVERS = {
    "leak_byte.py": "recovered: 01100100 = 0x64 (b'd')",
    "break_layout_randomization.py": "offset 53182 (truth 53182, match)",
    "value_threshold.py": "recovered value 31337 (truth 31337, match)",
    "power_state_curve.py": "after 2ms : 1576.0 cycles, delta 366.0 cycles",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(RECOVERS)


@pytest.mark.parametrize("demo", RECOVERS)
def test_demo_recovers_its_secret(demo, capsys, monkeypatch):
    path = str(DEMOS / demo)
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert RECOVERS[demo] in out
    assert "FLIP" not in out and "MISS" not in out
