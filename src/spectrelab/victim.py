"""The attackable service: dispatches wire opcodes to the gadget state
machine, applies mitigations, accounts virtual time, and (for in-process
experiments) runs the attacker's measurement loops in batches.  A batch
steps its loop through the same gadget dispatch a request uses until the
state settles, then draws the rest of the loop vectorized; it matches the
per-request loop except in its mitigation-noise draws.

Request processing is strictly sequential; one victim owns one
MicroarchState exclusively.
"""

from __future__ import annotations

import math
import socket
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import uarch, wire
from .uarch import ClockError, MicroarchState, SecretStore
from .wire import (OP_ADVANCE_CLOCK, OP_ASLR_PROBE, OP_DOWNLOAD, OP_LEAK_AVX,
                   OP_LEAK_CACHE, OP_RESET, OP_TIMING_FN, OP_TRANSMIT_AVX,
                   OP_TRANSMIT_CACHE, OP_VALUE_CMP, STATUS_BAD_ARG,
                   STATUS_BAD_OPCODE, STATUS_OK, LatencyModel, ResponsePacket)

DEFAULT_HANDLER_CYCLES = 1000   # fixed per-request work surrounding a gadget
DEFAULT_PER_REQUEST_NS = 1000.0  # virtual-clock advance per request
MAX_CYCLES = 1 << 53   # past it a float64 no longer holds every whole number


# Stand-ins for the victim's generator in a batch's trial iterations: the
# download's eviction draw always evicts, or never does.
_EVICT = SimpleNamespace(random=lambda: 0.0)
_KEEP = SimpleNamespace(random=lambda: 1.0)


def _pass_uniforms(rng, out: np.ndarray) -> None:
    """Leave ``rng`` where ``rng.random(out=out)`` would: a PCG64 keeping no
    32-bit value (advancing drops or zeroes it) advances, others draw."""
    bits, state = rng.bit_generator, rng.bit_generator.state
    if type(bits) is np.random.PCG64 and not (state["has_uint32"] or state["uinteger"]):
        bits.advance(out.shape[0])
    else:
        rng.random(out=out)


def _returns(start: tuple, end: tuple) -> bool:
    """Whether an iteration left every state the next one reads as it found
    it.  The clock may move; the SIMD unit must be untouched or last used
    the same time ago."""
    (t0, *rest0, used0), (t1, *rest1, used1) = start, end
    return rest0 == rest1 and (used1 == used0 or (
        None not in (used0, used1) and t1 - used1 == t0 - used0))


class ConfigError(ValueError):
    pass


@dataclass
class VictimConfig:
    """Everything the service needs: the planted secrets, gadget constants,
    mitigation toggles, and the latency model used on loopback."""

    secrets: SecretStore = field(
        default_factory=lambda: SecretStore.with_secret(b"\x00" * 16, b"d"))
    valid_aslr_offset: int = 0
    aslr_space_bits: int = 20
    value_secret: int = 0
    value_bits: int = 16
    mitigation_barrier: bool = False
    mitigation_noise_sigma_ns: float = 0.0
    latency: LatencyModel = field(default_factory=LatencyModel.noiseless)
    cycle_time_ns: float = uarch.DEFAULT_CYCLE_TIME_NS
    hit_cycles: int = uarch.DEFAULT_HIT_CYCLES
    miss_cycles: int = uarch.DEFAULT_MISS_CYCLES
    warm_cycles: int = uarch.DEFAULT_WARM_CYCLES
    max_penalty_cycles: int = uarch.DEFAULT_MAX_PENALTY_CYCLES
    decay_start_ns: float = uarch.DEFAULT_DECAY_START_NS
    decay_end_ns: float = uarch.DEFAULT_DECAY_END_NS
    thrash_lambda: float = uarch.THRASH_LAMBDA
    handler_cycles: int = DEFAULT_HANDLER_CYCLES
    per_request_ns: float = DEFAULT_PER_REQUEST_NS
    clock_mode: str = "virtual"        # or "wall"

    def validate(self) -> None:
        if self.clock_mode not in ("virtual", "wall"):
            raise ConfigError(f"bad clock_mode {self.clock_mode!r}")
        if not 0 <= self.aslr_space_bits <= wire.MAX_SPACE_BITS:
            raise ConfigError(
                f"aslr_space_bits outside [0, {wire.MAX_SPACE_BITS}]")
        if not 0 <= self.valid_aslr_offset < (1 << self.aslr_space_bits):
            raise ConfigError("valid_aslr_offset outside the probe space")
        if not 0 <= self.mitigation_noise_sigma_ns < math.inf:
            raise ConfigError("mitigation noise sigma must be finite and >= 0")
        if any(abs(c) > MAX_CYCLES for c in (
                self.hit_cycles, self.miss_cycles, self.warm_cycles,
                self.max_penalty_cycles, self.handler_cycles)):
            raise ConfigError("a cycle count must be at most 2^53 in size")
        if self.miss_cycles <= self.hit_cycles:
            raise ConfigError("miss_cycles must exceed hit_cycles")
        if not (0 < self.cycle_time_ns < math.inf
                and 0 < self.thrash_lambda < math.inf):
            raise ConfigError("cycle_time and thrash lambda must be finite and > 0")
        if not (math.isfinite(self.decay_start_ns)
                and math.isfinite(self.decay_end_ns)):
            raise ConfigError("decay start and end must be finite")
        if not (self.per_request_ns >= 0       # nan and inf are not whole
                and float(self.per_request_ns).is_integer()):
            raise ConfigError("per_request_ns must be whole ns and >= 0")
        if not 0 <= self.value_secret < (1 << self.value_bits):
            raise ConfigError("value_secret outside [0, 2^value_bits)")

    def build_state(self) -> MicroarchState:
        return MicroarchState(
            cache=uarch.CacheModel(hit_cycles=self.hit_cycles,
                                   miss_cycles=self.miss_cycles),
            avx=uarch.AvxUnit(warm_cycles=self.warm_cycles,
                              max_penalty_cycles=self.max_penalty_cycles,
                              decay_start_ns=self.decay_start_ns,
                              decay_end_ns=self.decay_end_ns),
        )


class Victim:
    """Serializes gadget execution over one microarchitectural state."""

    def __init__(self, config: VictimConfig, seed: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None,
                 log_path: Optional[str] = None):
        config.validate()
        self.config = config
        self.state = config.build_state()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.counters: wire.Counts = wire.Counts()
        self._log = open(log_path, "a") if log_path else None
        self._wall_t0 = time.monotonic_ns()

    # -- request handling ------------------------------------------------

    def handle_request(self, packet: tuple) -> tuple[ResponsePacket, float]:
        """Process one (opcode, arg, nonce) request, or its RequestPacket;
        returns the response and the server-side cycles it consumed
        (mitigation noise included)."""
        opcode, arg, nonce = packet
        cfg = self.config
        self.counters[opcode] += 1
        status, payload, cycles = self._dispatch(opcode, arg, self.rng)
        if cfg.mitigation_noise_sigma_ns > 0:
            extra_ns = cfg.mitigation_noise_sigma_ns * self.rng.standard_normal()
            cycles = max(0.0, cycles + extra_ns / cfg.cycle_time_ns)

        if self._log is not None:
            self._log.write(f"{opcode:#04x} {arg} {cycles:.3f}\n")

        # ResponsePacket(status, nonce, payload) without its generated __new__
        return tuple.__new__(ResponsePacket, (status, nonce, payload)), cycles

    def _dispatch(self, op: int, arg, rng) -> tuple[int, int, float]:
        """Advance the clock by one request and run its gadget; returns
        (status, payload, cycles).  ``rng`` supplies the download's
        eviction draw."""
        cfg = self.config
        st = self.state
        if cfg.clock_mode == "virtual":
            step = cfg.per_request_ns
            if step < 0:                    # VirtualClock.advance's guard
                raise ClockError(f"negative clock advance: {step}")
            st.clock.now += step
        else:
            st.clock.advance_to(time.monotonic_ns() - self._wall_t0)
        status = STATUS_OK
        payload = 0
        cycles = float(cfg.handler_cycles)
        if op == OP_LEAK_CACHE:
            st.leak_gadget_cache(cfg.secrets, arg, cfg.mitigation_barrier)
        elif op == OP_LEAK_AVX:
            leak_cost = st.leak_gadget_avx(cfg.secrets, arg, cfg.mitigation_barrier)
            # only the architectural (in-bounds) execution shows up in the
            # response time; squashed speculative work does not
            if cfg.secrets.in_bounds(arg):
                cycles += leak_cost
        elif op == OP_TRANSMIT_CACHE:
            cycles += st.transmit_gadget_cache()
        elif op == OP_TRANSMIT_AVX:
            cycles += st.transmit_gadget_avx()
        elif op == OP_DOWNLOAD:
            st.thrash(arg, rng, cfg.thrash_lambda)
            payload = arg
        elif op == OP_ASLR_PROBE:
            lo, hi = arg >> 32, arg & 0xFFFFFFFF
            st.aslr_gadget(lo, hi, cfg.valid_aslr_offset, cfg.mitigation_barrier)
        elif op == OP_TIMING_FN:
            cycles += st.timing_function(cfg.valid_aslr_offset)
        elif op == OP_VALUE_CMP:
            st.value_threshold_gadget(arg, cfg.value_secret, cfg.mitigation_barrier)
        elif op == OP_ADVANCE_CLOCK:
            if cfg.clock_mode == "virtual":
                st.clock.advance(arg)
            else:
                status = STATUS_BAD_ARG
        elif op == OP_RESET:
            st.reset_microarch()
        else:
            status = STATUS_BAD_OPCODE
        return status, payload, cycles

    def handle_datagram(self, data: bytes) -> Optional[bytes]:
        """Wire-level entry point: decode, dispatch, inject the server-side
        delay in wall-clock mode, and encode the reply."""
        if len(data) == 0:
            return None
        try:
            packet = wire.decode_request(data)
        except wire.CodecError as err:
            return ResponsePacket(STATUS_BAD_OPCODE, err.nonce or 0).encode()
        response, cycles = self.handle_request(packet)
        if self.config.clock_mode == "wall":
            delay_ns = cycles * self.config.cycle_time_ns
            noise = self.config.latency.noise(self.rng)
            time.sleep(max(0.0, delay_ns + noise) / 1e9)
        return response.encode()

    # -- batched execution (loopback fast path) --------------------------
    #
    # Each batch runs n iterations of one wire schedule and yields the
    # server cycles of each iteration's timed request one wire.CHUNK at a
    # time (stream), returns them (_run_batch), or returns only their
    # moments (run_moments).  _settle steps the iterations through
    # _dispatch, the same gadget code a request runs, until the state
    # settles: until one iteration returns every state the next one reads
    # to where it started, whichever way its download's eviction draw
    # falls.  From there on an iteration differs from the next only in
    # that draw, so the rest of the batch is one vectorized uniform per
    # iteration choosing between the two timed cycle values found
    # (run_moments only counts the evictions), or, where the two are
    # equal, passed unread (_pass_uniforms).  The predictor counter
    # settles within three iterations (one iteration maps it by a monotone
    # function), the cache flags at the first, a cached layout offset at
    # the first eviction.
    #
    # Counters, clock, final state and generator draws match the
    # per-request loop, and with a noiseless transport so do the returned
    # cycles (see tests).  The exception is mitigation noise: per request,
    # every request draws one normal; batched, only the timed ones do, one
    # chunk at a time after that chunk's eviction draws.  One draw per
    # iteration is one download per iteration, so _settle refuses a
    # schedule with more than one, then runs every read's one admission
    # (wire.schedule_counts), before it counts or draws anything.  A batch
    # is charged once, when it settles: _settle counts it (a session reading
    # it is charged at its first view) and moves the clock past the rest by
    # the settled iteration's own step, exact because per_request_ns
    # (VictimConfig.validate) and every clock advance are whole ns.

    def _run_batch(self, schedule: list, n: int) -> np.ndarray:
        cycles = np.empty(n)
        for _ in self.stream(schedule, n, cycles):
            pass
        return cycles

    def stream(self, schedule: list, n: int, out: Optional[np.ndarray] = None):
        """The timed cycles of n iterations of ``schedule``, one wire.CHUNK
        at a time: fills and yields each of ``wire.views(n, out)``.  The
        clock (and the SIMD unit's last use) moves past the batch when it
        settles, before the first view; mitigation noise is drawn per
        view, after its evictions."""
        cfg = self.config
        for view, h, evict, keep in self.evictions(schedule, n, out):
            rest = view[h:]
            if evict == keep:
                rest.fill(keep)
            else:
                rest *= evict - keep
                rest += keep
            if cfg.mitigation_noise_sigma_ns > 0:
                view += (cfg.mitigation_noise_sigma_ns
                         * self.rng.standard_normal(view.shape[0])
                         / cfg.cycle_time_ns)
                np.maximum(0.0, view, out=view)
            yield view

    def evictions(self, schedule: list, n: int,
                  out: Optional[np.ndarray] = None):
        """``stream`` before the settled iterations' cycles: yields (view,
        h, evict, keep) per view, view[:h] the unsettled iterations' timed
        cycles and view[h:] 1.0 where a settled one evicts (timed cycles
        evict), 0.0 where it keeps (keep).  Where evict == keep, view[h:]
        is unwritten and no reader may depend on it: drawn_moments' first
        shift indexes its two bases by view[0], which are then equal.  The
        batch is counted, its clock moved, as it settles, before any view."""
        views = wire.views(n, out)         # checks out before any count
        head, (evict, keep, p_evict) = self._settle(schedule, n)
        for i, view in zip(range(0, n, wire.CHUNK), views):
            part = head[i:i + view.shape[0]]
            view[:len(part)] = part
            rest = view[len(part):]
            if p_evict is not None and rest.shape[0]:
                if evict == keep:          # nothing reads rest: pass its draws
                    _pass_uniforms(self.rng, rest)
                else:
                    np.less(self.rng.random(out=rest), p_evict, out=rest)
            yield view, len(part), evict, keep

    def run_moments(self, schedule: list, n: int) -> tuple[float, float]:
        """``_run_batch`` without mitigation noise, reduced to the mean of
        the n timed cycles and the sum of their squared deviations: the
        same state, counters and draws, never the n-long array."""
        head, (evict, keep, p_evict) = self._settle(schedule, n)
        k, e = n - len(head), 0  # one eviction draw per settled iteration
        if p_evict is not None:
            for view in wire.views(k):
                if evict == keep:          # nothing reads e: pass its draws
                    _pass_uniforms(self.rng, view)
                else:
                    e += int(np.count_nonzero(self.rng.random(out=view) < p_evict))
        # (timed cycles, iterations); an unsettled batch's last two are empty
        groups = [(c, 1) for c in head] + [(evict, e), (keep, k - e)]
        # summed about a timed value, so a constant batch reads exactly
        c0 = next(c for c, m in groups if m)
        total = sum((c - c0) * m for c, m in groups)
        total_sq = sum((c - c0) ** 2 * m for c, m in groups)
        return c0 + total / n, max(0.0, total_sq - total * total / n)

    def _settle(self, schedule: list, n: int) -> tuple[list, tuple]:
        """Count n iterations and step them until the state settles; returns
        their timed cycles and (evict, keep, p_evict): the two forced trials'
        timed cycles and the download's eviction chance, clock past the rest,
        or (0.0, 0.0, None) if none settled.  More than one download is
        refused first, then all wire.schedule_counts refuses, n < 1 too."""
        if self.config.clock_mode != "virtual":
            raise ConfigError("batched execution needs the virtual clock")
        downloads = [arg for op, arg in schedule if op == OP_DOWNLOAD]
        if len(downloads) > 1:
            raise ValueError("a batched schedule has at most one download")
        self.counters.update(wire.schedule_counts(schedule, n))  # or refuses
        p_evict = (uarch.thrash_probability(downloads[0], self.config.thrash_lambda)
                   if downloads else None)
        head: list[float] = []
        while len(head) < n:
            start = self._snapshot()
            trials = []              # (timed cycles, end state) per forced draw
            for forced in (_EVICT, _KEEP):
                trials.append((self._iterate(schedule, forced), self._snapshot()))
                self._restore(start)
            if all(_returns(start, end) for _, end in trials):
                (evict, end), (keep, _) = trials
                st = self.state          # each iteration moves the clock alike
                st.clock.advance((n - len(head)) * (end[0] - start[0]))
                if end[-1] != start[-1]:     # an iteration runs a 256-bit op
                    st.avx.last_use_ns = st.clock.now - (end[0] - end[-1])
                return head, (evict, keep, p_evict)
            head.append(self._iterate(schedule, self.rng))
        return head, (0.0, 0.0, None)

    def _iterate(self, schedule: list, rng) -> float:
        """One iteration through the gadgets; returns the timed cycles."""
        for op, arg in schedule:
            cycles = self._dispatch(op, arg, rng)[2]
        return cycles

    def _snapshot(self) -> tuple:
        st = self.state
        return (st.clock.now, dict(st.predictor.counters), st.cache.flag_cached,
                st.cache.flag_value, st.cache.aslr_cached_offset,
                st.avx.last_use_ns)

    def _restore(self, snapshot: tuple) -> None:
        st = self.state
        (st.clock.now, counters, st.cache.flag_cached, st.cache.flag_value,
         st.cache.aslr_cached_offset, st.avx.last_use_ns) = snapshot
        st.predictor.counters = dict(counters)

    def batch_leak_cache(self, bit_index: int, n: int, mistrain: int = 10,
                         reset_bytes: int = uarch.THRASH_REFERENCE_BYTES,
                         mistrain_index: int = 0) -> np.ndarray:
        """n iterations of: mistrain x m, download, out-of-bounds leak,
        transmit.  Returns the transmit server cycles."""
        return self._run_batch(wire.leak_schedule(
            "cache", bit_index, mistrain, mistrain_index, reset_bytes), n)

    def batch_value_cmp(self, guess: int, n: int, mistrain: int = 10,
                        reset_bytes: int = uarch.THRASH_REFERENCE_BYTES) -> np.ndarray:
        """n iterations of: mistrain (guess 0) x m, download, compare,
        transmit.  Returns the transmit server cycles."""
        return self._run_batch(wire.value_schedule(guess, mistrain, reset_bytes), n)

    def batch_leak_avx(self, bit_index: int, n: int, mistrain: int = 10,
                       wait_ns: float = 1_000_000.0,
                       mistrain_index: int = 0) -> np.ndarray:
        """n iterations of: mistrain x m, advance clock, out-of-bounds leak,
        transmit.  Returns the transmit server cycles."""
        return self._run_batch(wire.leak_schedule(
            "avx", bit_index, mistrain, mistrain_index, wait_ns), n)

    def batch_aslr_check(self, lo: int, hi: int, n: int,
                         mistrain: int = 10) -> np.ndarray:
        """n iterations of: mistrain x m, range probe [lo, hi), timing
        function.  Returns the timing-function server cycles."""
        return self._run_batch(wire.aslr_schedule(lo, hi, mistrain), n)

    def batch_corner(self, channel: str, corner: str, n: int,
                     reset_bytes: int = uarch.THRASH_REFERENCE_BYTES,
                     wait_ns: float = 1_000_000.0) -> np.ndarray:
        """n iterations of wire.corner_schedule: force a known state, then
        measure.  Returns the measured server cycles."""
        return self._run_batch(
            wire.corner_schedule(channel, corner, reset_bytes, wait_ns), n)

    # -- serving ---------------------------------------------------------

    def serve_udp(self, port: int = wire.DEFAULT_PORT, host: str = "0.0.0.0",
                  shutdown_event=None, ready_event=None) -> None:
        """Blocking UDP loop; stops on the shutdown event or SIGINT."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind((host, port))
            sock.settimeout(0.2)
            if ready_event is not None:
                ready_event.set()
            while shutdown_event is None or not shutdown_event.is_set():
                try:
                    data, addr = sock.recvfrom(2048)
                except socket.timeout:
                    continue
                except KeyboardInterrupt:
                    break
                reply = self.handle_datagram(data)
                if reply is not None:
                    sock.sendto(reply, addr)
        finally:
            sock.close()
            self.close()

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def total_requests(self) -> int:
        return sum(self.counters.values())
