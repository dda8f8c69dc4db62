"""The benchmark's workloads: inputs made from a seed, the program objects
built from them, one timed round of attacks, and the request and
measurement counts a round must produce.

A workload is a fixed list of steps.  Each step gets its own victim and
session, so one round is a set of independent user runs:

- ``Leak``: calibrate one channel, then leak a planted 64-bit secret
  MSB-first with ``leak_range`` at a fixed n per bit.
- ``Layout``: calibrate the layout channel, then ``break_aslr``.
- ``Value``: calibrate the value channel, then ``value_threshold_search``.

Every operating point below is chosen from the method's own error (see
README.md), so no wrong bit, offset or value is expected in any run.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from spectrelab import attacker, uarch, victim as victim_mod, wire
from spectrelab.attacker import (CalibrationError, ExtractionError,
                                 ExtractionPlan, Session, break_aslr,
                                 calibrate, leak_range, value_threshold_search)
from spectrelab.uarch import SecretStore
from spectrelab.victim import Victim, VictimConfig
from spectrelab.wire import LatencyModel, LoopbackTransport

# The acceptance suite's base latency: large enough that the RTT clamp at 0
# never distorts the channel.
BASE_NS = 100_000.0
LOCAL_SIGMA_NS = 15_600.0     # the "local" jitter preset
FIGURE_SIGMA_NS = 20.0        # the near-noiseless sigma the figures use
PUBLIC = b"\x00" * 16         # in-bounds prefix; secrets start at bit 128
MISTRAIN = ExtractionPlan().mistrain_count

# Per-packet cost the library's rate projection uses for a loopback target:
# two one-way base latencies plus the victim's fixed handler time.
PACKET_NS = (2.0 * BASE_NS
             + victim_mod.DEFAULT_HANDLER_CYCLES * uarch.DEFAULT_CYCLE_TIME_NS)


@dataclass(frozen=True)
class Leak:
    channel: str          # cache | avx
    bits: int
    n: int                # measurements per bit
    cal_n: int            # measurements per calibration corner


@dataclass(frozen=True)
class Layout:
    space_bits: int
    probes: int           # measurements per half-range check
    cal_n: int


@dataclass(frozen=True)
class Value:
    value_bits: int
    n: int                # measurements per comparison
    cal_n: int


Step = Union[Leak, Layout, Value]


@dataclass(frozen=True)
class Workload:
    name: str
    sigma_ns: float
    batched: bool
    steps: tuple


WORKLOADS = {w.name: w for w in (
    # The paper's headline experiment.  Per-bit z (README): cache 4.5,
    # AVX 5.5, counting the calibrated threshold's own error.
    Workload("leak", LOCAL_SIGMA_NS, True, (
        Leak("cache", 64, 4_000_000, 8_000_000),
        Leak("avx", 64, 1_000_000, 4_000_000),
    )),
    # Layout break and value recoveries, each with its own calibration.
    Workload("search", LOCAL_SIGMA_NS, True, (
        Layout(20, 2_000_000, 4_000_000),
        Value(16, 3_000_000, 8_000_000),
        Value(16, 3_000_000, 8_000_000),
        Value(16, 3_000_000, 8_000_000),
    )),
    # Everything one request at a time through Session.request.
    Workload("request", FIGURE_SIGMA_NS, False, (
        Leak("cache", 64, 500, 20_000),
        Leak("avx", 64, 500, 20_000),
        Value(16, 500, 20_000),
        Layout(12, 500, 20_000),
    )),
)}


# ---------------------------------------------------------------------------
# Inputs and set-up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepInput:
    """What the benchmark plants for one step, and the victim's and the
    attacker's random streams."""

    secret: bytes
    offset: int
    value: int
    victim_seed: np.random.SeedSequence
    attacker_seed: np.random.SeedSequence


def make_inputs(workload: Workload, seq: np.random.SeedSequence) -> list[StepInput]:
    """One round's inputs, drawn from ``seq`` alone."""
    out = []
    for step, child in zip(workload.steps, seq.spawn(len(workload.steps))):
        plant, v_seed, a_seed = child.spawn(3)
        rng = np.random.default_rng(plant)
        secret = rng.integers(0, 256, size=8, dtype=np.uint8).tobytes()
        space = step.space_bits if isinstance(step, Layout) else 20
        offset = int(rng.integers(0, 1 << space))
        value = int(rng.integers(0, 1 << 16))
        out.append(StepInput(secret, offset, value, v_seed, a_seed))
    return out


@dataclass
class Target:
    step: Step
    inputs: StepInput
    victim: Victim
    session: Session


def build(workload: Workload, inputs: list[StepInput]) -> list[Target]:
    """Configs, secrets, victims and sessions for one round (set-up)."""
    targets = []
    for step, inp in zip(workload.steps, inputs):
        latency = LatencyModel(base_ns=BASE_NS, sigma_ns=workload.sigma_ns)
        cfg = VictimConfig(
            secrets=SecretStore.with_secret(PUBLIC, inp.secret),
            latency=latency,
            valid_aslr_offset=inp.offset if isinstance(step, Layout) else 0,
            aslr_space_bits=step.space_bits if isinstance(step, Layout) else 20,
            value_secret=inp.value if isinstance(step, Value) else 0)
        victim = Victim(cfg, rng=np.random.default_rng(inp.victim_seed))
        transport = LoopbackTransport(victim, latency,
                                      np.random.default_rng(inp.attacker_seed))
        targets.append(Target(step, inp, victim,
                              Session(transport, batched=workload.batched)))
    return targets


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one step returned; ``error`` is set when the program raised."""

    target: Target
    calib: Optional[attacker.Calibration] = None
    result: object = None
    error: Optional[Exception] = None


def _calibrate(t: Target, tracer, plan: ExtractionPlan):
    start = time.perf_counter_ns()
    calib = calibrate(t.session, plan, n=t.step.cal_n,
                      channel=calibration_channel(t.step))
    if tracer is not None:
        tracer.calibrated(time.perf_counter_ns() - start, 2 * t.step.cal_n)
    return calib


def run_step(t: Target, tracer=None) -> Outcome:
    """Run one step; ``tracer`` (optional) times calibration and bits."""
    step, s = t.step, t.session
    out = Outcome(t)
    try:
        if isinstance(step, Leak):
            start = len(PUBLIC) * 8
            plan = ExtractionPlan(channel=step.channel,
                                  measurements_per_bit=step.n,
                                  target_bit_range=(start, start + step.bits))
            out.calib = _calibrate(t, tracer, plan)
            progress = None
            if tracer is not None:
                tracer.leak_started()
                progress = tracer.bit_done
            out.result = leak_range(s, plan, out.calib, progress=progress)
        elif isinstance(step, Layout):
            out.calib = _calibrate(t, tracer, ExtractionPlan())
            out.result = break_aslr(s, step.space_bits, step.probes,
                                    mistrain=MISTRAIN, calib=out.calib)
        else:
            plan = ExtractionPlan(measurements_per_bit=step.n)
            out.calib = _calibrate(t, tracer, plan)
            out.result = value_threshold_search(s, step.value_bits, plan,
                                                out.calib)
    except (CalibrationError, ExtractionError) as err:
        out.error = err
    return out


# ---------------------------------------------------------------------------
# What a step must cost, worked out from its schedule
# ---------------------------------------------------------------------------

_CORNER_OPS = {
    # per corner measurement: hit corner, miss corner
    "cache": (Counter({wire.OP_TRANSMIT_CACHE: 2}),
              Counter({wire.OP_DOWNLOAD: 1, wire.OP_TRANSMIT_CACHE: 1})),
    "avx": (Counter({wire.OP_TRANSMIT_AVX: 2}),
            Counter({wire.OP_ADVANCE_CLOCK: 1, wire.OP_TRANSMIT_AVX: 1})),
    "aslr": (Counter({wire.OP_ASLR_PROBE: 3, wire.OP_TIMING_FN: 1}),
             Counter({wire.OP_ASLR_PROBE: 3, wire.OP_TIMING_FN: 1})),
}
_CORNER_OPS["value"] = _CORNER_OPS["cache"]


def _times(ops: Counter, k: int) -> Counter:
    return Counter({op: c * k for op, c in ops.items()})


def calibration_channel(step: Step) -> str:
    if isinstance(step, Leak):
        return step.channel
    return "aslr" if isinstance(step, Layout) else "value"


def iteration_ops(step: Step) -> Counter:
    """Requests of one attack measurement (mistrain, reset, leak, measure)."""
    if isinstance(step, Leak):
        leak_op = wire.OP_LEAK_CACHE if step.channel == "cache" else wire.OP_LEAK_AVX
        reset = wire.OP_DOWNLOAD if step.channel == "cache" else wire.OP_ADVANCE_CLOCK
        measure = (wire.OP_TRANSMIT_CACHE if step.channel == "cache"
                   else wire.OP_TRANSMIT_AVX)
        return Counter({leak_op: MISTRAIN + 1, reset: 1, measure: 1})
    if isinstance(step, Value):
        return Counter({wire.OP_VALUE_CMP: MISTRAIN + 1, wire.OP_DOWNLOAD: 1,
                        wire.OP_TRANSMIT_CACHE: 1})
    return Counter({wire.OP_ASLR_PROBE: MISTRAIN + 1, wire.OP_TIMING_FN: 1})


def attack_measurements(step: Step, result) -> int:
    """Attack measurements a finished step made: fixed for a leak, set by
    the sequential decisions for the searches."""
    if isinstance(step, Leak):
        return step.bits * step.n
    if isinstance(step, Layout):
        return sum(2 * r.attempts for r in result.rounds) * step.probes
    return sum(r.comparisons for r in result.rounds) * step.n


def expected_requests(step: Step, result) -> tuple[Counter, Counter]:
    """(calibration requests, attack requests) by opcode."""
    hit, miss = _CORNER_OPS[calibration_channel(step)]
    cal = _times(hit, step.cal_n) + _times(miss, step.cal_n)
    return cal, _times(iteration_ops(step), attack_measurements(step, result))


def recovered_bits(step: Step) -> int:
    """Secret bits one successful step recovers."""
    if isinstance(step, Leak):
        return step.bits
    return step.space_bits if isinstance(step, Layout) else step.value_bits


def planted_bits(secret: bytes, nbits: int) -> list[int]:
    """The secret's bits MSB-first, unpacked apart from SecretStore."""
    return [int(b) for b in np.unpackbits(np.frombuffer(secret, np.uint8))[:nbits]]
