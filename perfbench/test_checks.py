"""Tests of the benchmark's own checks: each must pass the program's real
output and reject a doctored copy of it.

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spectrelab import wire  # noqa: E402
from spectrelab.attacker import CalibrationError  # noqa: E402
from workloads import Layout, Leak, Value, Workload  # noqa: E402

# Small steps at the figures' sigma: every output is exact and fast.
TINY = (Leak("cache", 16, 50, 2_000), Leak("avx", 16, 50, 2_000),
        Layout(8, 50, 2_000), Value(16, 50, 2_000))


@pytest.fixture(scope="module", params=[True, False], ids=["batched", "per-request"])
def outcomes(request):
    wl = Workload("tiny", workloads.FIGURE_SIGMA_NS, request.param, TINY)
    targets = workloads.build(wl, workloads.make_inputs(
        wl, np.random.SeedSequence(7)))
    return [workloads.run_step(t) for t in targets]


def _outcome(outcomes, kind, channel=None):
    return next(o for o in outcomes if isinstance(o.target.step, kind)
                and getattr(o.target.step, "channel", channel) == channel)


def test_real_outputs_pass(outcomes):
    for o in outcomes:
        attempted, failed, problems = checks.check(o)
        assert o.error is None
        assert attempted == (o.target.step.bits
                             if isinstance(o.target.step, Leak) else 1)
        assert (failed, problems) == (0, [])


def _round_verdict(outcomes, doctored):
    """(correct, failed) of the round with doctored in place of its step's
    real outcome, tallied as run.py tallies a round."""
    failed, problems = 0, []
    for o in outcomes:
        _, f, p = checks.check(doctored if o.target is doctored.target else o)
        failed += f
        problems += p
    return not problems, failed


@pytest.mark.parametrize("channel", ["cache", "avx"])
def test_one_flipped_bit_makes_the_run_incorrect(outcomes, channel):
    o = _outcome(outcomes, Leak, channel)
    bits = list(o.result.bits)
    bits[5] ^= 1
    doctored = dataclasses.replace(o, result=dataclasses.replace(o.result, bits=bits))
    attempted, failed, problems = checks.check(doctored)
    assert (attempted, failed) == (o.target.step.bits, 0)
    assert problems == [f"{channel} bit 5: leaked {bits[5]}, planted {1 - bits[5]}"]
    assert _round_verdict(outcomes, doctored) == (False, 0)


def test_offset_off_by_one_makes_the_run_incorrect(outcomes):
    o = _outcome(outcomes, Layout)
    for delta in (-1, 1):
        doctored = dataclasses.replace(o, result=dataclasses.replace(
            o.result, offset=o.result.offset + delta))
        assert checks.check(doctored)[1:] == (0, [
            f"offset {o.result.offset + delta:#x} in 8 rounds, "
            f"planted {o.result.offset:#x} in 8"])
        assert _round_verdict(outcomes, doctored) == (False, 0)


def test_value_off_by_one_makes_the_run_incorrect(outcomes):
    o = _outcome(outcomes, Value)
    for delta in (-1, 1):
        doctored = dataclasses.replace(o, result=dataclasses.replace(
            o.result, value=o.result.value + delta))
        assert len(checks.check(doctored)[2]) == 1
        assert _round_verdict(outcomes, doctored) == (False, 0)


def test_raised_error_fails_its_operations_without_a_problem(outcomes):
    o = _outcome(outcomes, Leak, "cache")
    doctored = dataclasses.replace(o, calib=None, result=None,
                                   error=CalibrationError("corners overlap"))
    assert checks.check(doctored) == (o.target.step.bits, o.target.step.bits, [])


def test_session_counter_one_short_is_a_problem(outcomes):
    for o in outcomes:
        counters = o.target.session.counters
        op = max(counters, key=counters.get)
        counters[op] -= 1
        try:
            problems = checks.check(o)[2]
        finally:
            counters[op] += 1
        assert problems and f"{op:#04x}" in problems[0]


def test_victim_and_session_one_short_of_schedule_is_a_problem(outcomes):
    o = _outcome(outcomes, Leak, "cache")
    s, v = o.target.session.counters, o.target.victim.counters
    s[wire.OP_DOWNLOAD] -= 1
    v[wire.OP_DOWNLOAD] -= 1
    try:
        assert checks.check(o)[2]
    finally:
        s[wire.OP_DOWNLOAD] += 1
        v[wire.OP_DOWNLOAD] += 1


def test_calibration_gap_beyond_four_standard_errors_is_a_problem(outcomes):
    o = _outcome(outcomes, Leak, "avx")
    c = o.calib
    se = c.sigma_est_ns * np.sqrt(2.0 / o.target.step.cal_n)
    for shift, bad in ((3.0, False), (5.0, True), (-5.0, True)):
        miss = c.mean_hit_ns + checks.EXPECTED_GAP_NS["avx"] + shift * se
        doctored = dataclasses.replace(o, calib=dataclasses.replace(
            c, mean_miss_ns=miss, threshold_ns=0.5 * (c.mean_hit_ns + miss)))
        assert bool(checks.check(doctored)[2]) == bad


def test_inputs_depend_only_on_the_seed():
    wl = workloads.WORKLOADS["search"]
    a = workloads.make_inputs(wl, np.random.SeedSequence([3, 2, 0]))
    b = workloads.make_inputs(wl, np.random.SeedSequence([3, 2, 0]))
    c = workloads.make_inputs(wl, np.random.SeedSequence([4, 2, 0]))
    key = [(i.secret, i.offset, i.value) for i in a]
    assert key == [(i.secret, i.offset, i.value) for i in b]
    assert key != [(i.secret, i.offset, i.value) for i in c]
