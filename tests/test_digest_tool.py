"""``tools/digest.py``'s comparison of two trees' outputs, on synthetic
outputs: the digest lines must match exactly, the confidences pair up and
differ by at most rounding."""

import importlib.util
import json
import math
import pathlib
import re

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "digest.py"
KEY = "leak seed 1 round 0 step 0"
LINES = ["batched gaussian noise=0 barrier=0 index=warm n=1 0123456789abcdef",
         "config empty 00112233aabbccdd reloaded 00112233aabbccdd",
         f"{KEY} result 1111 calib 2222 counters 3333 state 4444 draws 5555"]


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output(lines=LINES, confidences=(3.0, -math.inf, 0.5)) -> str:
    return "\n".join([*lines, f"confidences {KEY}: "
                      f"{json.dumps(list(confidences))}"]) + "\n"


def test_identical_outputs(digest, capsys):
    assert digest.compare(output(), output()) == 0
    out = capsys.readouterr().out
    assert out.startswith("0 differing lines")
    assert "largest relative difference 0\n" in out


def test_changed_digest_is_listed(digest, capsys):
    changed = LINES[:1] + ["config empty 00112233aabbccdd reloaded "
                           "ffffffffffffffff"] + LINES[2:]
    assert digest.compare(output(), output(changed)) != 0
    out = capsys.readouterr().out
    assert f"-{LINES[1]}\n+{changed[1]}\n" in out
    assert "2 differing lines" in out


def test_confidences_differing_by_rounding(digest, capsys):
    new = output(confidences=(3.0 * (1 + 1e-13), -math.inf, 0.5))
    assert digest.compare(output(), new) == 0
    worst = re.search(r"largest relative difference (\S+) at (.*)",
                      capsys.readouterr().out)
    assert float(worst[1]) == pytest.approx(1e-13, rel=0.01)
    assert worst[2] == f"{KEY} #0"


def test_different_number_of_confidences(digest, capsys):
    assert digest.compare(output(), output(confidences=(3.0, 0.5))) != 0
    assert "different numbers of confidences" in capsys.readouterr().out
