"""Wire protocol, latency model, and transports.

Both directions use fixed 17-byte little-endian frames:

    request  = opcode(1) | arg(8) | nonce(8)
    response = status(1) | nonce(8) | payload(8)

The loopback transport synthesizes round-trip times from the latency
model; the UDP transport measures wall-clock time on a real socket.
"""

from __future__ import annotations

import math
import socket
import struct
import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

PACKET_LEN = 17
DEFAULT_PORT = 43210

_FRAME = struct.Struct("<BQQ")
_U64_MASK = (1 << 64) - 1

OP_LEAK_CACHE = 0x01
OP_LEAK_AVX = 0x02
OP_TRANSMIT_CACHE = 0x03
OP_TRANSMIT_AVX = 0x04
OP_DOWNLOAD = 0x05
OP_ASLR_PROBE = 0x06
OP_TIMING_FN = 0x07
OP_VALUE_CMP = 0x08
OP_ADVANCE_CLOCK = 0x09
OP_RESET = 0x0A

VALID_OPCODES = frozenset((
    OP_LEAK_CACHE, OP_LEAK_AVX, OP_TRANSMIT_CACHE, OP_TRANSMIT_AVX, OP_DOWNLOAD,
    OP_ASLR_PROBE, OP_TIMING_FN, OP_VALUE_CMP, OP_ADVANCE_CLOCK, OP_RESET))

STATUS_OK = 0x00
STATUS_BAD_OPCODE = 0x01
STATUS_BAD_ARG = 0x02


# ---------------------------------------------------------------------------
# Measurement schedules
# ---------------------------------------------------------------------------
#
# One iteration of a measurement loop as its (opcode, arg) requests in
# order; the last one is timed.  The attacker sends them one at a time, or
# asks a loopback victim to run n iterations as one batch, and both ends
# count requests from the same schedule.

def leak_schedule(channel: str, bit_index: int, mistrain: int,
                  mistrain_index: int, reset_arg: float) -> list:
    """Mistrain x m, reset the channel, leak, transmit.  The cache channel
    resets by a download of ``reset_arg`` bytes, the avx channel by
    ``reset_arg`` ns of idle time, truncated to whole ns."""
    if channel == "cache":
        leak, reset, transmit = OP_LEAK_CACHE, OP_DOWNLOAD, OP_TRANSMIT_CACHE
    else:
        leak, reset, transmit = OP_LEAK_AVX, OP_ADVANCE_CLOCK, OP_TRANSMIT_AVX
        reset_arg = int(reset_arg)         # the wire carries whole ns
    return ([(leak, mistrain_index)] * mistrain
            + [(reset, reset_arg), (leak, bit_index), (transmit, 0)])


def value_schedule(guess: int, mistrain: int, reset_bytes: int) -> list:
    """Mistrain with guess 0 x m, download, compare, transmit."""
    return ([(OP_VALUE_CMP, 0)] * mistrain
            + [(OP_DOWNLOAD, reset_bytes), (OP_VALUE_CMP, guess),
               (OP_TRANSMIT_CACHE, 0)])


def aslr_schedule(lo: int, hi: int, mistrain: int) -> list:
    """Probe the empty range x m (training), probe [lo, hi), time."""
    if (lo | hi) >> 32:              # negative, or past the probe's 32 bits
        raise ValueError("a probe bound is outside [0, 2^32)")
    return ([(OP_ASLR_PROBE, 0)] * mistrain
            + [(OP_ASLR_PROBE, (lo << 32) | hi), (OP_TIMING_FN, 0)])


MAX_SPACE_BITS = 31   # largest layout space the probe's 32-bit fields carry


def corner_schedule(channel: str, corner: str, reset_bytes: int,
                    wait_ns: float) -> list:
    """Calibration corners: force a known state, then measure.

    cache/value hit: transmit twice, measure the second.
    cache/value miss: download, then measure the transmit.
    avx hit/miss: transmit pair, or wait (whole ns) then transmit.
    aslr hit/miss: train twice, probe [0, 2^32 - 1) (or [2^32 - 2,
    2^32 - 1)), then time; any offset below 2^MAX_SPACE_BITS lies in the
    first range only.
    """
    hit = corner == "hit"
    if channel in ("cache", "value"):
        first = (OP_TRANSMIT_CACHE, 0) if hit else (OP_DOWNLOAD, reset_bytes)
        return [first, (OP_TRANSMIT_CACHE, 0)]
    if channel == "avx":
        first = (OP_TRANSMIT_AVX, 0) if hit else (OP_ADVANCE_CLOCK, int(wait_ns))
        return [first, (OP_TRANSMIT_AVX, 0)]
    if channel == "aslr":
        top = (1 << 32) - 1
        return aslr_schedule(0 if hit else top - 1, top, 2)
    raise ValueError(f"unknown channel {channel!r}")


class Counts(Counter):
    """A request counter.  ``Counter`` defines ``__delitem__`` in Python,
    which sends every item store through Python too; restoring dict's
    keeps ``c[op] += 1`` at about dict speed.  Deleting a missing key
    raises KeyError, which ``Counter`` forgives; nothing deletes from a
    request counter."""

    __delitem__ = dict.__delitem__


def schedule_counts(schedule: list, n: int) -> Counter:
    """Requests per opcode in n iterations of ``schedule``, every read's one
    admission: refuses first n < 1, a negative download, a clock advance
    negative or not whole ns, and any other arg no request frame carries."""
    if n < 1:
        raise ValueError("a read needs at least one measurement")
    for op, arg in schedule:
        if op == OP_DOWNLOAD and arg < 0:
            raise ValueError("negative transfer size")
        if op == OP_ADVANCE_CLOCK and not (arg >= 0 and float(arg).is_integer()):
            raise ValueError("a clock advance is whole ns, not negative")
        if not ((op == OP_ADVANCE_CLOCK or isinstance(arg, (int, np.integer)))
                and 0 <= arg <= _U64_MASK):
            raise ValueError(f"arg {arg!r} is not an integer in [0, 2^64)")
    return Counter({op: k * n for op, k in Counter(op for op, _ in schedule).items()})


class WireError(Exception):
    pass


class CodecError(WireError):
    """Malformed frame.  Carries the nonce when one could be recovered."""

    def __init__(self, message: str, nonce: int | None = None):
        super().__init__(message)
        self.nonce = nonce


class RequestTimeout(WireError):
    """No response within the timeout; safe to retry."""


class RequestPacket(NamedTuple):
    """The named form of a request's (opcode, arg, nonce) triple."""

    opcode: int
    arg: int = 0
    nonce: int = 0

    def encode(self) -> bytes:
        return encode_request(self)


class ResponsePacket(NamedTuple):
    status: int
    nonce: int
    payload: int = 0

    def encode(self) -> bytes:
        return encode_response(self)


def encode_request(packet: tuple) -> bytes:
    """The frame of an (opcode, arg, nonce) triple or ``RequestPacket``."""
    opcode, arg, nonce = packet
    if opcode not in VALID_OPCODES:
        raise CodecError(f"unknown opcode {opcode:#04x}", nonce)
    try:
        if not 0 <= arg <= _U64_MASK or not 0 <= nonce <= _U64_MASK:
            raise CodecError("arg/nonce out of 64-bit range", nonce)
        return _FRAME.pack(opcode, arg, nonce)
    except (TypeError, struct.error):     # not an integer, e.g. 2.5 or "1"
        raise CodecError("arg/nonce is not an integer") from None


def decode_request(data: bytes) -> RequestPacket:
    if len(data) != PACKET_LEN:
        nonce = None
        if len(data) >= PACKET_LEN:
            nonce = int.from_bytes(data[9:17], "little")
        raise CodecError(f"bad frame length {len(data)}", nonce)
    opcode, arg, nonce = _FRAME.unpack(data)
    if opcode not in VALID_OPCODES:
        raise CodecError(f"unknown opcode {opcode:#04x}", nonce)
    return RequestPacket(opcode, arg, nonce)


def encode_response(packet: ResponsePacket) -> bytes:
    return _FRAME.pack(packet.status, packet.nonce, packet.payload)


def decode_response(data: bytes) -> ResponsePacket:
    if len(data) != PACKET_LEN:
        raise CodecError(f"bad frame length {len(data)}")
    status, nonce, payload = _FRAME.unpack(data)
    return ResponsePacket(status, nonce, payload)


# ---------------------------------------------------------------------------
# Latency model
# ---------------------------------------------------------------------------

# Samples per in-place pass of a batch: 512 kB of float64, so a chunk's
# passes run in L2 and only the first and last touch memory.
CHUNK = 1 << 16


def views(n: int, out: Optional[np.ndarray] = None):
    """Consecutive CHUNK-long views covering n samples: of ``out``, which
    must have shape (n,) (checked at the call, before any view), or of one
    reused buffer that each view overwrites."""
    if out is not None and out.shape != (n,):
        raise ValueError(f"out has shape {out.shape}, not ({n},)")
    buf = np.empty(min(n, CHUNK)) if out is None else out
    return (buf[:min(CHUNK, n - i)] if out is None else buf[i:i + CHUNK]
            for i in range(0, n, CHUNK))


# Measured latency standard deviations for the three deployment scenarios.
PRESET_SIGMAS_NS = {
    "local": 15_600.0,
    "cloud": 52_300.0,
    "arm": 128_500.0,
}
PRESETS = (*PRESET_SIGMAS_NS, "noiseless")   # every LatencyModel.preset name


@dataclass
class LatencyModel:
    """One-way base latency plus additive noise on the round trip.

    Gaussian by default; a zero-mean lognormal with matched standard
    deviation is available for heavy-tail experiments.
    """

    base_ns: float = 10_000.0
    sigma_ns: float = 15_600.0
    name: str = "local"
    distribution: str = "gaussian"   # or "lognormal"
    _LOGNORMAL_SHAPE = 0.5

    def __post_init__(self):
        if self.sigma_ns < 0:
            raise ValueError("sigma must be non-negative")
        if self.distribution not in ("gaussian", "lognormal"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    @classmethod
    def preset(cls, name: str, base_ns: float = 10_000.0,
               distribution: str = "gaussian") -> "LatencyModel":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}")
        return cls(base_ns=base_ns, sigma_ns=PRESET_SIGMAS_NS.get(name, 0.0),
                   name=name, distribution=distribution)

    @classmethod
    def noiseless(cls, base_ns: float = 10_000.0) -> "LatencyModel":
        return cls(base_ns=base_ns, sigma_ns=0.0, name="noiseless")

    def noise(self, rng: np.random.Generator, size=None, out=None):
        """One round trip's noise, or ``size`` (Gaussian: into ``out``)."""
        if self.sigma_ns == 0.0:
            return 0.0 if size is None else np.zeros(size)
        if self.distribution == "gaussian":
            # the values of rng.normal(0, sigma, size), which numpy
            # computes as 0 + sigma z, at a lower cost per call
            z = rng.standard_normal(size, out=out)
            z *= self.sigma_ns
            return z
        s = self._LOGNORMAL_SHAPE
        raw_var = (math.exp(s * s) - 1.0) * math.exp(s * s)
        scale = self.sigma_ns / raw_var ** 0.5
        mean = math.exp(s * s / 2.0)
        # numpy draws a lognormal as exp(0 + s z) of one standard normal,
        # and so does the scalar branch; the vector branch must not take
        # np.exp, whose SIMD loop differs from it in the last bit
        raw = (math.exp(s * rng.standard_normal()) if size is None
               else rng.lognormal(0.0, s, size=size))
        return scale * (raw - mean)

    def clamp_probability(self) -> float:
        """A bound on the chance that ``rtt`` clamps a round trip at 0."""
        return (0.5 * math.erfc(math.sqrt(2.0) * self.base_ns / self.sigma_ns)
                if self.sigma_ns else float(self.base_ns < 0))

    def rtt_moments(self, n: int, mean_ns: float, ss_ns: float,
                    rng: np.random.Generator) -> tuple[float, float]:
        """Mean and ddof-1 variance of n unclamped Gaussian ``rtt`` draws
        for server times of mean ``mean_ns`` and sum of squared deviations
        ``ss_ns``, drawn exactly from three statistics (Cochran 1934):
        mean = mean_ns + 2 base + sigma Z / sqrt(n) and (n - 1) var =
        (sqrt(ss_ns) + sigma W)^2 + sigma^2 X, Z, W ~ N(0, 1), X ~ chi2(n-2)."""
        s, mean = self.sigma_ns, mean_ns + 2.0 * self.base_ns
        if n == 1 or s == 0.0:
            return (mean + s * rng.standard_normal() if s else mean,
                    ss_ns / (n - 1) if n > 1 else 0.0)
        z, w = rng.standard_normal(2)
        x = rng.chisquare(n - 2) if n > 2 else 0.0
        return (mean + s / math.sqrt(n) * z,
                ((math.sqrt(ss_ns) + s * w) ** 2 + s * s * x) / (n - 1))

    def rtt(self, server_ns, rng: np.random.Generator, size=None):
        """Round-trip time for a request the victim spent ``server_ns`` on.

        With ``size``, ``size`` round trips, written over ``server_ns`` when
        it is an array, which must be float64 and of that length.  The noise
        is drawn one CHUNK at a time, which keeps the draws of one
        ``noise(rng, size)`` call."""
        if size is None:
            s = self.sigma_ns       # noise(rng), Gaussian drawn without its frame
            noise = (s * rng.standard_normal()
                     if s and self.distribution == "gaussian" else self.noise(rng))
            rtt = 2.0 * self.base_ns + server_ns + noise
            return 0.0 if rtt < 0.0 else rtt       # max(rtt, 0.0), cheaper
        out = (server_ns if isinstance(server_ns, np.ndarray)
               else np.full(size, float(server_ns)))
        buf = np.empty(min(size, CHUNK))    # for Gaussian noise
        for view in views(size, out):
            view += 2.0 * self.base_ns
            view += self.noise(rng, view.shape[0], buf[:view.shape[0]])
            np.maximum(view, 0.0, out=view)
        return out


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

# Scalar draws per block of BlockDraws.
BLOCK = 1024


class BlockDraws:
    """A generator's scalar ``standard_normal()`` draws, served from blocks
    of BLOCK drawn at once: a vector draw yields the values of as many
    scalar draws, at a fraction of numpy's cost per call.  ``settle`` puts
    the generator where the draws served so far would have left it."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._block = []     # a block's values not yet served, the next one last
        self._state = None   # the bit generator's state before the block

    def standard_normal(self) -> float:
        if not self._block:  # served to its end: the generator is past it
            self._state = self.rng.bit_generator.state
            self._block = self.rng.standard_normal(BLOCK).tolist()
            self._block.reverse()
        return self._block.pop()

    def settle(self) -> None:
        """Rewind the generator to before the current block and redraw the
        values served from it; a block served to its end needs neither."""
        if self._block:
            self.rng.bit_generator.state = self._state
            self.rng.standard_normal(BLOCK - len(self._block))
            self._block = []


class LoopbackTransport:
    """In-process transport: requests go straight to a victim instance and
    the round-trip time is synthesized from the latency model.  Fully
    deterministic under a seeded generator.

    Each request's noise comes from ``BlockDraws`` over the generator,
    which ``rng`` settles before handing it out, so every reader finds it
    where one scalar draw per request would have left it.  A generator
    shared with the victim is drawn from directly: drawing ahead would
    reorder the victim's eviction draws.
    """

    def __init__(self, victim, latency: LatencyModel, rng: np.random.Generator):
        self.victim = victim
        self.latency = latency
        self._rng = rng
        self._draws = rng if rng is victim.rng else BlockDraws(rng)

    @property
    def rng(self) -> np.random.Generator:
        if self._draws is not self._rng:
            self._draws.settle()
        return self._rng

    def request(self, packet: tuple) -> tuple[ResponsePacket, float]:
        victim = self.victim
        response, server_cycles = victim.handle_request(packet)
        return response, self.latency.rtt(
            server_cycles * victim.config.cycle_time_ns, self._draws)


class UDPTransport:
    """Datagram transport with wall-clock round-trip measurement.

    Responses are matched by nonce, so reordered or duplicated datagrams
    cannot pair a measurement with the wrong request.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout_s: float = 1.0):
        self.addr = (host, port)
        self.timeout_s = timeout_s
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.settimeout(timeout_s)

    def request(self, packet: tuple) -> tuple[ResponsePacket, float]:
        payload = encode_request(packet)
        nonce = packet[2]
        start = time.monotonic_ns()
        deadline = start + int(self.timeout_s * 1e9)
        self.sock.sendto(payload, self.addr)
        while True:
            remaining = (deadline - time.monotonic_ns()) / 1e9
            if remaining <= 0:
                raise RequestTimeout(f"no response from {self.addr}")
            self.sock.settimeout(remaining)
            try:
                data, _ = self.sock.recvfrom(2048)
            except socket.timeout:
                raise RequestTimeout(f"no response from {self.addr}") from None
            elapsed = time.monotonic_ns() - start
            try:
                response = decode_response(data)
            except CodecError:      # not a response frame; keep waiting
                continue
            if response.nonce == nonce:
                return response, float(elapsed)
            # stale datagram from an earlier request; keep waiting

    def close(self) -> None:
        self.sock.close()

