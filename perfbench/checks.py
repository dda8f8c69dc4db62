"""Checks of one step's outputs against what the benchmark planted and what
the step's schedule implies.

``check`` returns (attempted, failed, problems).  An operation is one
recovered bit, one layout offset or one value; one the program could not
finish (it raised) counts as failed.  ``problems`` lists every broken
check of a finished step: a result that differs from the plant, a request
count that does not match, or a calibration gap far from the model's.  A
run is correct only when no check lists a problem.
"""

from __future__ import annotations

import math
from collections import Counter

from spectrelab import uarch

import workloads
from workloads import Layout, Leak, Outcome

GAP_TOLERANCE_SE = 4.0

_DELTA_NS = ((uarch.DEFAULT_MISS_CYCLES - uarch.DEFAULT_HIT_CYCLES)
             * uarch.DEFAULT_CYCLE_TIME_NS)
# Corner gap the uarch constants predict: the cache-style miss corner is a
# miss only when the 590 kB download evicted, the layout miss corner always
# is, and the AVX miss corner pays the full power-up penalty.
EXPECTED_GAP_NS = {
    "cache": uarch.thrash_probability(uarch.THRASH_REFERENCE_BYTES) * _DELTA_NS,
    "value": uarch.thrash_probability(uarch.THRASH_REFERENCE_BYTES) * _DELTA_NS,
    "aslr": _DELTA_NS,
    "avx": uarch.DEFAULT_MAX_PENALTY_CYCLES * uarch.DEFAULT_CYCLE_TIME_NS,
}


def gap_problem(calib, channel: str, n: int) -> str | None:
    """The calibrated gap must lie within four standard errors of the
    model's gap; the standard error comes from the pooled corner sigma."""
    gap = calib.mean_miss_ns - calib.mean_hit_ns
    se = calib.sigma_est_ns * math.sqrt(2.0 / n)
    expected = EXPECTED_GAP_NS[channel]
    if abs(gap - expected) > GAP_TOLERANCE_SE * se:
        return (f"{channel} calibration gap {gap:.2f} ns is "
                f"{abs(gap - expected) / se:.1f} standard errors from "
                f"{expected:.2f} ns")
    return None


def counter_problems(session_counters: Counter, victim_counters: Counter,
                     expected: Counter) -> list[str]:
    out = []
    for op in sorted(set(session_counters) | set(victim_counters) | set(expected)):
        s, v, e = session_counters[op], victim_counters[op], expected[op]
        if not s == v == e:
            out.append(f"opcode {op:#04x}: session {s}, victim {v}, "
                       f"schedule {e}")
    return out


def result_problems(outcome: Outcome) -> list[str]:
    """One entry per operation of a finished step whose result differs
    from the plant."""
    step, inp, result = outcome.target.step, outcome.target.inputs, outcome.result
    if isinstance(step, Leak):
        truth = workloads.planted_bits(inp.secret, step.bits)
        out = [f"{step.channel} bit {i}: leaked {a}, planted {b}"
               for i, (a, b) in enumerate(zip(result.bits, truth)) if a != b]
        if len(result.bits) != len(truth):
            out.append(f"{step.channel} leak: {len(result.bits)} bits, "
                       f"planted {len(truth)}")
        return out
    if isinstance(step, Layout):
        name, got, want, bits = "offset", result.offset, inp.offset, step.space_bits
    else:
        name, got, want, bits = "value", result.value, inp.value, step.value_bits
    if got != want or len(result.rounds) != bits:
        return [f"{name} {got:#x} in {len(result.rounds)} rounds, "
                f"planted {want:#x} in {bits}"]
    return []


def check(outcome: Outcome) -> tuple[int, int, list[str]]:
    t = outcome.target
    step = t.step
    attempted = step.bits if isinstance(step, Leak) else 1
    if outcome.error is not None:
        return attempted, attempted, []
    problems = result_problems(outcome)
    gap = gap_problem(outcome.calib, workloads.calibration_channel(step),
                      step.cal_n)
    if gap:
        problems.append(gap)
    cal, attack = workloads.expected_requests(step, outcome.result)
    problems += counter_problems(t.session.counters, t.victim.counters,
                                 cal + attack)
    reported = outcome.result.requests_total
    if reported != sum(attack.values()):
        problems.append(f"result reports {reported} attack requests, "
                        f"schedule {sum(attack.values())}")
    return attempted, 0, problems
