"""The attackable service: dispatches wire opcodes to the gadget state
machine, applies mitigations, accounts virtual time, and (for in-process
experiments) exposes vectorized batch execution of the attacker's
measurement loops.

Request processing is strictly sequential; one victim owns one
MicroarchState exclusively.
"""

from __future__ import annotations

import socket
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import uarch, wire
from .uarch import MicroarchState, SecretStore
from .wire import (LatencyModel, RequestPacket, ResponsePacket, STATUS_BAD_ARG,
                   STATUS_BAD_OPCODE, STATUS_OK)

DEFAULT_HANDLER_CYCLES = 1000   # fixed per-request work surrounding a gadget
DEFAULT_PER_REQUEST_NS = 1000.0  # virtual-clock advance per request


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
        if not 0 <= self.valid_aslr_offset < (1 << self.aslr_space_bits):
            raise ConfigError("valid_aslr_offset outside the probe space")
        if self.mitigation_noise_sigma_ns < 0:
            raise ConfigError("mitigation noise sigma must be >= 0")
        if self.miss_cycles <= self.hit_cycles:
            raise ConfigError("miss_cycles must exceed hit_cycles")
        if self.cycle_time_ns <= 0 or self.thrash_lambda <= 0:
            raise ConfigError("cycle_time and thrash lambda must be positive")
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
            cycle_time_ns=self.cycle_time_ns,
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
        self.counters: Counter[int] = Counter()
        self._log = open(log_path, "a") if log_path else None
        self._wall_t0 = time.monotonic_ns()

    # -- request handling ------------------------------------------------

    def handle_request(self, packet: RequestPacket) -> tuple[ResponsePacket, float]:
        """Process one request; returns the response and the server-side
        cycles it consumed (mitigation noise included)."""
        cfg = self.config
        self._tick()
        self.counters[packet.opcode] += 1

        status = STATUS_OK
        payload = 0
        cycles = float(cfg.handler_cycles)
        op = packet.opcode
        arg = packet.arg
        st = self.state

        if op == wire.OP_LEAK_CACHE:
            st.leak_gadget_cache(cfg.secrets, arg, cfg.mitigation_barrier)
        elif op == wire.OP_LEAK_AVX:
            leak_cost = st.leak_gadget_avx(cfg.secrets, arg, cfg.mitigation_barrier)
            # only the architectural (in-bounds) execution shows up in the
            # response time; squashed speculative work does not
            if cfg.secrets.in_bounds(arg):
                cycles += leak_cost
        elif op == wire.OP_TRANSMIT_CACHE:
            cycles += st.transmit_gadget_cache()
        elif op == wire.OP_TRANSMIT_AVX:
            cycles += st.transmit_gadget_avx()
        elif op == wire.OP_DOWNLOAD:
            st.thrash(arg, self.rng, cfg.thrash_lambda)
            payload = arg
        elif op == wire.OP_ASLR_PROBE:
            lo, hi = arg >> 32, arg & 0xFFFFFFFF
            st.aslr_gadget(lo, hi, cfg.valid_aslr_offset, cfg.mitigation_barrier)
        elif op == wire.OP_TIMING_FN:
            cycles += st.timing_function(cfg.valid_aslr_offset)
        elif op == wire.OP_VALUE_CMP:
            st.value_threshold_gadget(arg, cfg.value_secret, cfg.mitigation_barrier)
        elif op == wire.OP_ADVANCE_CLOCK:
            if cfg.clock_mode == "virtual":
                st.clock.advance(arg)
            else:
                status = STATUS_BAD_ARG
        elif op == wire.OP_RESET:
            st.reset_microarch()
        else:
            status = STATUS_BAD_OPCODE

        if cfg.mitigation_noise_sigma_ns > 0:
            extra_ns = self.rng.normal(0.0, cfg.mitigation_noise_sigma_ns)
            cycles = max(0.0, cycles + extra_ns / cfg.cycle_time_ns)

        if self._log is not None:
            self._log.write(f"{op:#04x} {arg} {cycles:.3f}\n")

        return ResponsePacket(status, packet.nonce, payload), cycles

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

    def _tick(self) -> None:
        if self.config.clock_mode == "virtual":
            self.state.clock.advance(self.config.per_request_ns)
        else:
            self.state.clock.advance_to(time.monotonic_ns() - self._wall_t0)

    # -- batched execution (loopback fast path) --------------------------
    #
    # Each batch runs n iterations of one wire schedule in closed form and
    # returns the server cycles of each iteration's timed request.
    # Counters, clock and final state match the per-request loop, and with
    # a noiseless transport the returned cycles are bit-identical to it
    # (see tests).  So do the generator draws, except under mitigation
    # noise: the per-request loop draws one normal per request, a batch
    # one per timed request.  The closed forms assume that training
    # saturates the predictor: mistrain_count >= 2 on an in-bounds
    # mistrain_index (an out-of-bounds one trains "not taken").

    def _batch_prologue(self, n: int, mistrain: int) -> None:
        if self.config.clock_mode != "virtual":
            raise ConfigError("batched execution needs the virtual clock")
        if mistrain < 2:
            # a single training step may leave the predictor below the
            # taken threshold; the closed form below assumes saturation
            raise ValueError("batched loops need mistrain_count >= 2")
        if n <= 0:
            raise ValueError("batch size must be positive")

    def _finish(self, cycles: np.ndarray, schedule: list, n: int) -> np.ndarray:
        """Account n iterations of ``schedule``: count its requests, advance
        the clock by its waits and by every request, and add the
        mitigation noise to the timed requests' cycles."""
        cfg = self.config
        self.counters.update(wire.schedule_counts(schedule, n))
        clock = self.state.clock
        clock.advance(n * sum(a for op, a in schedule if op == wire.OP_ADVANCE_CLOCK))
        clock.advance(len(schedule) * n * cfg.per_request_ns)
        if cfg.mitigation_noise_sigma_ns > 0:
            for view in wire.chunks(cycles):
                view += self.rng.normal(0.0, cfg.mitigation_noise_sigma_ns,
                                        size=view.shape[0]) / cfg.cycle_time_ns
                np.maximum(0.0, view, out=view)
        return cycles

    def _cache_transmit_batch(self, schedule: list, n: int, effect: bool,
                              mistrain_fills_flag: bool) -> np.ndarray:
        """Common core of the cache-channel loops: thrash, optional cache
        fill, transmit.  ``effect`` is whether the speculative fill fires;
        ``mistrain_fills_flag`` is whether the training accesses already
        cache the variable before the thrash."""
        cfg = self.config
        cache = self.state.cache
        reset_bytes = dict(schedule)[wire.OP_DOWNLOAD]
        p_evict = uarch.thrash_probability(reset_bytes, cfg.thrash_lambda)
        hit = float(cfg.handler_cycles + cfg.hit_cycles)
        cycles = np.empty(n)
        for view in wire.chunks(cycles):
            # one eviction draw per iteration, used or not
            self.rng.random(out=view)
            if cache.aslr_cached_offset is not None and (view < p_evict).any():
                cache.aslr_cached_offset = None      # evicted with the flag
            if effect:
                view.fill(hit)
            else:
                np.less(view, p_evict, out=view)        # 1.0 where evicted
                view *= cfg.miss_cycles - cfg.hit_cycles
                view += hit
        # iteration 0 starts from the live flag state; afterwards the
        # transmit access has re-cached the variable
        if not (effect or cache.flag_cached or mistrain_fills_flag):
            cycles[0] = cfg.handler_cycles + cfg.miss_cycles
        cache.flag_cached = True
        return self._finish(cycles, schedule, n)

    def batch_leak_cache(self, bit_index: int, n: int, mistrain: int = 10,
                         reset_bytes: int = uarch.THRASH_REFERENCE_BYTES,
                         mistrain_index: int = 0) -> np.ndarray:
        """n iterations of: mistrain x m, download, out-of-bounds leak,
        transmit.  Returns the transmit server cycles."""
        self._batch_prologue(n, mistrain)
        cfg = self.config
        bit = cfg.secrets.bit(bit_index)
        oob = not cfg.secrets.in_bounds(bit_index)
        effect = bool(bit) and (not oob or not cfg.mitigation_barrier)
        mistrain_warms = bool(cfg.secrets.bit(mistrain_index))
        if mistrain_warms or (bit and not oob):
            self.state.cache.flag_value = True
        self._train_site(uarch.SITE_LEAK_CACHE, n, mistrain, True, not oob)
        return self._cache_transmit_batch(
            wire.leak_schedule("cache", bit_index, mistrain, mistrain_index,
                               reset_bytes), n, effect, mistrain_warms)

    def batch_value_cmp(self, guess: int, n: int, mistrain: int = 10,
                        reset_bytes: int = uarch.THRASH_REFERENCE_BYTES) -> np.ndarray:
        """n iterations of: mistrain (guess 0) x m, download, compare,
        transmit.  Returns the transmit server cycles."""
        self._batch_prologue(n, mistrain)
        cfg = self.config
        # guess < secret implies secret > 0, so training with guess 0 was
        # effective whenever the comparison can fire at all
        effect = guess < cfg.value_secret and not cfg.mitigation_barrier
        trains = cfg.value_secret > 0
        # the predictor speculates during training itself once its counter
        # crosses the taken threshold, caching the variable before the
        # thrash; only iteration 0 depends on the pre-batch counter
        c0 = min(self.state.predictor.counters.get(uarch.SITE_VALUE, 0), 2)
        fills = trains and mistrain >= 3 - c0 and not cfg.mitigation_barrier
        self._train_site(uarch.SITE_VALUE, n, mistrain, trains,
                         guess < cfg.value_secret)
        return self._cache_transmit_batch(
            wire.value_schedule(guess, mistrain, reset_bytes), n, effect, fills)

    def batch_leak_avx(self, bit_index: int, n: int, mistrain: int = 10,
                       wait_ns: float = 1_000_000.0,
                       mistrain_index: int = 0) -> np.ndarray:
        """n iterations of: mistrain x m, advance clock, out-of-bounds leak,
        transmit.  Returns the transmit server cycles."""
        self._batch_prologue(n, mistrain)
        cfg = self.config
        pr = cfg.per_request_ns
        bit = cfg.secrets.bit(bit_index)
        oob = not cfg.secrets.in_bounds(bit_index)
        effect = bool(bit) and (not oob or not cfg.mitigation_barrier)
        mistrain_warms = bool(cfg.secrets.bit(mistrain_index))

        # idle time seen by the transmit gadget, per iteration
        if effect:
            idle = pr                                  # leak just ran the op
        elif mistrain_warms:
            idle = wait_ns + 3 * pr                    # last op: final mistrain
        else:
            idle = wait_ns + (mistrain + 3) * pr       # last op: prev transmit
        penalty = self.state.avx.penalty(idle)
        cycles = np.full(n, float(cfg.handler_cycles + cfg.warm_cycles + penalty))
        if not effect and not mistrain_warms:
            # iteration 0 measures against the live unit state instead of
            # the previous transmit
            t0 = self.state.clock.now + (mistrain + 2) * pr + wait_ns + pr
            cycles[0] = cfg.handler_cycles + self.state.avx.cost(t0)

        self._train_site(uarch.SITE_LEAK_AVX, n, mistrain, True, not oob)
        out = self._finish(cycles, wire.leak_schedule(
            "avx", bit_index, mistrain, mistrain_index, wait_ns), n)
        self.state.avx.last_use_ns = self.state.clock.now
        return out

    def batch_aslr_check(self, lo: int, hi: int, n: int,
                         mistrain: int = 10) -> np.ndarray:
        """n iterations of: mistrain x m, range probe [lo, hi), timing
        function.  Returns the timing-function server cycles."""
        self._batch_prologue(n, mistrain)
        cfg = self.config
        covered = (lo <= cfg.valid_aslr_offset < hi) and not cfg.mitigation_barrier
        cycles = np.full(n, float(cfg.handler_cycles +
                                  (cfg.hit_cycles if covered else cfg.miss_cycles)))
        if not covered and self.state.cache.aslr_cached_offset == cfg.valid_aslr_offset:
            cycles[0] = cfg.handler_cycles + cfg.hit_cycles
        self.state.cache.aslr_cached_offset = None
        self._train_site(uarch.SITE_ASLR, n, mistrain, True, hi <= lo)
        return self._finish(cycles, wire.aslr_schedule(lo, hi, mistrain), n)

    def batch_corner(self, channel: str, corner: str, n: int,
                     reset_bytes: int = uarch.THRASH_REFERENCE_BYTES,
                     wait_ns: float = 1_000_000.0) -> np.ndarray:
        """n iterations of wire.corner_schedule: force a known state, then
        measure.  Returns the measured server cycles."""
        self._batch_prologue(n, mistrain=2)
        cfg = self.config
        schedule = wire.corner_schedule(channel, corner, cfg.aslr_space_bits,
                                        reset_bytes, wait_ns)
        if channel in ("cache", "value"):
            if corner == "hit":
                # first transmit of each pair re-caches; the second is measured
                cycles = np.full(n, float(cfg.handler_cycles + cfg.hit_cycles))
                self.state.cache.flag_cached = True
                return self._finish(cycles, schedule, n)
            return self._cache_transmit_batch(schedule, n, False, False)
        if channel == "avx":
            if corner == "hit":
                cycles = np.full(n, float(cfg.handler_cycles + cfg.warm_cycles))
            else:
                pr = cfg.per_request_ns
                penalty = self.state.avx.penalty(wait_ns + 2 * pr)
                cycles = np.full(n, float(cfg.handler_cycles + cfg.warm_cycles + penalty))
                t0 = self.state.clock.now + pr + wait_ns + pr
                cycles[0] = cfg.handler_cycles + self.state.avx.cost(t0)
            out = self._finish(cycles, schedule, n)
            self.state.avx.last_use_ns = self.state.clock.now
            return out
        probe = schedule[-2][1]                    # the aslr range, packed
        return self.batch_aslr_check(probe >> 32, probe & 0xFFFFFFFF, n,
                                     mistrain=2)

    def _train_site(self, site: int, n: int, mistrain: int,
                    mistrain_taken: bool, measured_taken: bool) -> None:
        """Set the predictor counter to what n iterations of (mistrain
        trainings + one measured training) leave behind.  The trajectory
        reaches a fixed point within a few iterations, so simulating a
        handful is exact for any n."""
        c = self.state.predictor.counters.get(site, 0)
        for _ in range(min(n, 4)):
            for _ in range(min(mistrain, 4)):
                c = min(c + 1, 3) if mistrain_taken else max(c - 1, 0)
            c = min(c + 1, 3) if measured_taken else max(c - 1, 0)
        self.state.predictor.counters[site] = c

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
