"""Deterministic model of the microarchitectural state a remote timing
attacker can influence: a per-site branch predictor, the cache state of a
single transmit variable, and the power state of the 256-bit SIMD unit.

All gadget costs are reported in CPU cycles.  They become nanoseconds
where round-trip times are made: per request in ``LoopbackTransport``
(or in a wall-clock victim's reply delay), per batch or moments read in
``Session``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

# Branch sites, one per gadget.
SITE_LEAK_CACHE = 0
SITE_LEAK_AVX = 1
SITE_ASLR = 2
SITE_VALUE = 3

DEFAULT_HIT_CYCLES = 40
DEFAULT_MISS_CYCLES = 200          # miss - hit = 160 cycles
DEFAULT_WARM_CYCLES = 210
DEFAULT_MAX_PENALTY_CYCLES = 366   # cold 256-bit op: 210 + 366 = 576
DEFAULT_DECAY_START_NS = 500_000.0   # power-down begins after 0.5 ms idle
DEFAULT_DECAY_END_NS = 1_000_000.0   # fully powered down after 1 ms idle
DEFAULT_CYCLE_TIME_NS = 0.5          # 2 GHz

# Eviction scale calibrated so a 590 kB transfer evicts with p = 0.99.
THRASH_REFERENCE_BYTES = 590_000
THRASH_LAMBDA = THRASH_REFERENCE_BYTES / math.log(100.0)


class ClockError(ValueError):
    pass


class VirtualClock:
    """Monotonic simulation clock in nanoseconds."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, delta_ns: float) -> None:
        if delta_ns < 0:
            raise ClockError(f"negative clock advance: {delta_ns}")
        self.now += delta_ns

    def advance_to(self, t_ns: float) -> None:
        if t_ns < self.now:
            raise ClockError("clock cannot move backwards")
        self.now = t_ns


class BranchPredictor:
    """Per-site 2-bit saturating counters, initialized strongly-not-taken."""

    def __init__(self):
        self.counters: dict[int, int] = {}

    def predict(self, site: int) -> bool:
        return self.counters.get(site, 0) >= 2

    def train(self, site: int, taken: bool) -> None:
        self.resolve(site, taken)

    def resolve(self, site: int, taken: bool) -> bool:
        """``predict`` then ``train`` in one call: returns the prediction
        the branch ran under."""
        counters = self.counters
        c = counters.get(site, 0)
        if taken:
            counters[site] = c + 1 if c < 3 else 3
        else:
            counters[site] = c - 1 if c > 0 else 0
        return c >= 2

    def reset(self) -> None:
        self.counters.clear()


@dataclass
class CacheModel:
    """Cache state of the transmit variable and of the probed address space.

    ``flag_value`` is the architectural value of the variable; it only
    changes on in-bounds execution and never leaks over the wire directly.
    """

    flag_cached: bool = False
    flag_value: bool = False
    aslr_cached_offset: Optional[int] = None
    hit_cycles: int = DEFAULT_HIT_CYCLES
    miss_cycles: int = DEFAULT_MISS_CYCLES


def avx_penalty(idle_ns: float, decay_start_ns: float = DEFAULT_DECAY_START_NS,
                decay_end_ns: float = DEFAULT_DECAY_END_NS,
                max_penalty_cycles: int = DEFAULT_MAX_PENALTY_CYCLES) -> int:
    """Extra cycles for a 256-bit op after ``idle_ns`` of inactivity.

    Zero below the decay start, maximal at or beyond the decay end, linear
    ramp in between (rounded half-up to whole cycles).
    """
    if idle_ns < 0:
        raise ValueError(f"negative idle time: {idle_ns}")
    if idle_ns < decay_start_ns:
        return 0
    if idle_ns >= decay_end_ns:
        return max_penalty_cycles
    frac = (idle_ns - decay_start_ns) / (decay_end_ns - decay_start_ns)
    return int(math.floor(frac * max_penalty_cycles + 0.5))


@dataclass
class AvxUnit:
    """Power state of the upper half of the 256-bit SIMD unit."""

    last_use_ns: Optional[float] = None   # None = never used, fully cold
    warm_cycles: int = DEFAULT_WARM_CYCLES
    max_penalty_cycles: int = DEFAULT_MAX_PENALTY_CYCLES
    decay_start_ns: float = DEFAULT_DECAY_START_NS
    decay_end_ns: float = DEFAULT_DECAY_END_NS

    def execute_op(self, now_ns: float) -> int:
        """Run one 256-bit operation; returns its cost, ``warm_cycles`` plus
        ``avx_penalty`` of the idle time (maximal if never used), and
        powers the unit up."""
        last = self.last_use_ns
        idle = math.inf if last is None else now_ns - last
        if 0 <= idle < self.decay_start_ns:
            cost = self.warm_cycles
        elif idle >= self.decay_end_ns and idle >= 0:
            cost = self.warm_cycles + self.max_penalty_cycles
        else:                   # on the ramp, or negative (avx_penalty raises)
            cost = self.warm_cycles + avx_penalty(
                idle, self.decay_start_ns, self.decay_end_ns,
                self.max_penalty_cycles)
        self.last_use_ns = now_ns
        return cost


class SecretStore:
    """The victim's memory region: a public in-bounds prefix followed by
    out-of-bounds secret bytes.  Bits are addressed MSB-first within each
    byte; indices wrap around the full region.
    """

    def __init__(self, bitstream: bytes, bitstream_length: Optional[int] = None):
        self.bitstream = bytes(bitstream)
        if bitstream_length is None:
            bitstream_length = 8 * len(self.bitstream)
        if not 0 <= bitstream_length <= 8 * len(self.bitstream):
            raise ValueError("bitstream_length out of range")
        self.bitstream_length = bitstream_length
        self.total_bits = 8 * len(self.bitstream)

    @classmethod
    def with_secret(cls, public: bytes, secret: bytes) -> "SecretStore":
        """In-bounds ``public`` prefix; ``secret`` is only reachable speculatively."""
        return cls(bytes(public) + bytes(secret), bitstream_length=8 * len(public))

    def bit(self, x: int) -> int:
        i = x % self.total_bits
        return (self.bitstream[i >> 3] >> (7 - (i & 7))) & 1

    def in_bounds(self, x: int) -> bool:
        return x < self.bitstream_length

    def secret_bit_index(self, bit: int) -> int:
        """Out-of-bounds index of the ``bit``-th secret bit."""
        return self.bitstream_length + bit


@dataclass
class MicroarchState:
    """Aggregate single-core state; mutate only under exclusive access."""

    clock: VirtualClock = field(default_factory=VirtualClock)
    predictor: BranchPredictor = field(default_factory=BranchPredictor)
    cache: CacheModel = field(default_factory=CacheModel)
    avx: AvxUnit = field(default_factory=AvxUnit)

    # -- gadgets ---------------------------------------------------------

    def leak_gadget_cache(self, secrets: SecretStore, x: int,
                          barrier: bool = False) -> int:
        """Bounds-checked bit access that caches the transmit variable when
        the accessed bit is set.  Out-of-bounds ``x`` only has an effect
        under taken-prediction with the speculation barrier disabled.
        """
        in_bounds = secrets.in_bounds(x)
        taken = self.predictor.resolve(SITE_LEAK_CACHE, in_bounds)
        if (in_bounds or taken and not barrier) and secrets.bit(x):
            self.cache.flag_cached = True
            if in_bounds:
                self.cache.flag_value = True
        # bounds check and bit access are folded into the fixed handler cost
        return 0

    def leak_gadget_avx(self, secrets: SecretStore, x: int,
                        barrier: bool = False) -> int:
        """Same branch logic as the cache leak, but the side effect is a
        256-bit operation.  Returns the cycles the 256-bit op consumed
        (0 when it did not run).
        """
        in_bounds = secrets.in_bounds(x)
        taken = self.predictor.resolve(SITE_LEAK_AVX, in_bounds)
        if (in_bounds or taken and not barrier) and secrets.bit(x):
            return self.avx.execute_op(self.clock.now)
        return 0

    def transmit_gadget_cache(self) -> int:
        """Access the transmit variable; the access itself re-caches it."""
        cost = self.cache.hit_cycles if self.cache.flag_cached else self.cache.miss_cycles
        self.cache.flag_cached = True
        return cost

    def transmit_gadget_avx(self) -> int:
        return self.avx.execute_op(self.clock.now)

    def thrash(self, bytes_transferred: int, rng,
               lam: float = THRASH_LAMBDA) -> bool:
        """Bulk transfer that evicts the whole last-level cache with
        probability 1 - exp(-bytes/lambda).  Always consumes exactly one
        uniform draw so seeded runs stay aligned.
        """
        p = thrash_probability(bytes_transferred, lam)
        evicted = rng.random() < p
        if evicted:
            self.cache.flag_cached = False
            self.cache.aslr_cached_offset = None
        return evicted

    def aslr_gadget(self, lo: int, hi: int, valid_offset: int,
                    barrier: bool = False) -> None:
        """Speculative probe of the offset range [lo, hi).

        An empty range is the in-bounds training access.  A non-empty range,
        under taken-prediction without barrier, caches the single valid
        offset iff the range covers it.
        """
        # a range that covers the offset is non-empty, so not training
        if (self.predictor.resolve(SITE_ASLR, hi <= lo) and not barrier
                and lo <= valid_offset < hi):
            self.cache.aslr_cached_offset = valid_offset

    def timing_function(self, valid_offset: int) -> int:
        """Fixed-address function whose runtime reveals whether the valid
        offset is cached.  The read consumes the cached state (the probe
        loop re-thrashes between rounds).
        """
        hit = self.cache.aslr_cached_offset == valid_offset
        self.cache.aslr_cached_offset = None
        return self.cache.hit_cycles if hit else self.cache.miss_cycles

    def value_threshold_gadget(self, guess: int, secret_value: int,
                               barrier: bool = False) -> None:
        """``if (guess < secret) <touch transmit variable>`` under speculation."""
        truth = guess < secret_value
        if self.predictor.resolve(SITE_VALUE, truth) and not barrier and truth:
            self.cache.flag_cached = True

    # -- housekeeping ----------------------------------------------------

    def reset_microarch(self) -> None:
        """Re-initialize everything except the clock (which stays monotone)."""
        self.predictor.reset()
        self.cache.flag_cached = False
        self.cache.flag_value = False
        self.cache.aslr_cached_offset = None
        self.avx.last_use_ns = None


def thrash_probability(bytes_transferred: int | float,
                       lam: float = THRASH_LAMBDA) -> float:
    if bytes_transferred < 0:
        raise ValueError("negative transfer size")
    return 1.0 - math.exp(-bytes_transferred / lam)
