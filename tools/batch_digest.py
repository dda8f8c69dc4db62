"""Print one digest line per configuration of the measurement loops, on the
batched and on the per-request path, and per request through a codec.

A digest hashes every ``Session.collect_*`` output of one seeded run (all
eight calibration corners, four cache and four AVX bits, four value
guesses, three layout ranges), both request counters, the clock, the
predictor, cache and SIMD state, and the next draw of the victim's and the
transport's generators.  Two checkouts that print the same lines behave the
same on every path covered, bit for bit:

    PYTHONPATH=old/src python3 tools/batch_digest.py > old.txt
    PYTHONPATH=new/src python3 tools/batch_digest.py > new.txt
    diff old.txt new.txt

The grid: four latency models (Gaussian, lognormal, Gaussian with the
clamp at 0 active, noiseless) x mitigation noise 0 / 300 ns x barrier off
/ on x a warm / cold training index x n in {1, 2, 65537} batched, or
n in {1, 2, 7, 100} per request; at n = 100 a bit read makes 1,300
requests, more than one ``wire.BLOCK`` of per-request noise draws.  The
``codec`` lines repeat the per-request grid through a transport that
encodes and decodes every request and response frame, as a remote
target's do, with the loopback's latency model and generator, drawing
each request's noise as one scalar; they equal the ``per-request`` lines
while the codec loses nothing and the loopback's blocks of noise draws
equal scalar draws.  The whole grid takes under a minute.

For each batched configuration, a ``leak_range`` line hashes the bits of
an 8-bit ``leak_range`` on each channel at n measurements per bit, both
request counters, the victim state and the next draw of both generators;
it leaves the confidences out.  Each channel's calibration comes from a
noiseless twin victim, so the read under test is the bit leak alone.

For each latency model, mitigation noise 0 / 300 ns, decision rule (mean,
mode) and n of the batched and the per-request grid, a ``keep`` line
hashes an 8-bit ``leak_range`` on each channel that hands every bit's
samples to a ``sample_sink``, as the CLI does: the kept arrays, the bits,
the confidences and requests, both request counters, the victim state and
the next draw of both generators.  Calibrations come from a noiseless
twin, as for the ``leak_range`` lines.

Four ``attack`` lines per latency model hash what the library's attacks
read one request at a time, at the ``request`` benchmark workload's
operating point (100 us base, sigma 20 ns) and noiseless: the four
calibrations, an 8-bit ``leak_range`` on each channel (bits, confidences,
requests), a 6-bit ``break_aslr`` that calibrates itself and an 8-bit
``value_threshold_search``, each with both request counters, the victim
state and the next draw of both generators.

Eight ``mixed`` lines, one per latency model with a transport generator
either separate from the victim's or shared with it, guard the settle of
the loopback's blocks of noise draws on a batched session: 1,500 raw
requests through ``Session.request`` (one ``wire.BLOCK`` plus 476), then a
batched ``collect_bit`` at n = 5,000 and a ``moments`` read at n = 70,000.
Each hashes the raw round trips, the array, the moments, both request
counters, the victim state and the next draw of both generators.

Then, for each batched configuration that ``Session.moments`` draws
exactly (Gaussian or noiseless, no mitigation noise), two ``victim`` lines
hash only the victim side (both request counters, the clock, the
predictor, cache and SIMD state, and the victim generator's next draw)
after the same corner, value and layout reads: one read as samples, one
as moments.  The moments read leaves the victim as the sample read does
when the two sets of lines agree:

    diff <(grep '^victim samples' new.txt | cut -d' ' -f3-) \
         <(grep '^victim moments' new.txt | cut -d' ' -f3-)
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from spectrelab import wire
from spectrelab.attacker import (ExtractionPlan, Session, break_aslr, calibrate,
                                 leak_range, value_threshold_search)
from spectrelab.uarch import SecretStore
from spectrelab.victim import Victim, VictimConfig
from spectrelab.wire import LatencyModel, LoopbackTransport

LATENCIES = {
    "gaussian": LatencyModel.preset("local", base_ns=100_000.0),
    "lognormal": LatencyModel.preset("local", base_ns=100_000.0,
                                     distribution="lognormal"),
    "clamped": LatencyModel(base_ns=0.0, sigma_ns=52_300.0, name="cloud"),
    "noiseless": LatencyModel.noiseless(),
}
# public bits 1000 0000 0000 0000: index 0 trains on a 1 (warm), 8 on a 0
SECRETS = SecretStore.with_secret(b"\x80\x00", b"\x96\x3c")
TRAINING_INDEX = {"warm": 0, "cold": 8}
SIZES = {"batched": (1, 2, 65537), "per-request": (1, 2, 7, 100),
         "codec": (1, 2, 7, 100)}
VICTIM = dict(valid_aslr_offset=777, aslr_space_bits=12, value_secret=4242)
# the ``request`` benchmark workload's operating point, and no noise
ATTACK_LATENCIES = {"request": LatencyModel(base_ns=100_000.0, sigma_ns=20.0),
                    "noiseless": LatencyModel.noiseless(100_000.0)}
ATTACKS = ("calibrate", "leak_range", "break_aslr", "value_threshold_search")
ATTACK_N = 100          # measurements per bit, layout check and comparison
ATTACK_CAL_N = 1000     # measurements per calibration corner
MIXED_REQUESTS = wire.BLOCK + 476     # raw requests before the batched reads


class CodecTransport:
    """``LoopbackTransport`` with every frame encoded and decoded on the
    way, so the packets' codec is on the digested path.  The request is
    encoded with ``wire.encode_request``, which takes a ``RequestPacket``
    or the plain (opcode, arg, nonce) triple it names."""

    def __init__(self, victim, latency, rng):
        self.victim, self.latency, self.rng = victim, latency, rng

    def request(self, packet):
        response, cycles = self.victim.handle_request(
            wire.decode_request(wire.encode_request(packet)))
        rtt = self.latency.rtt(cycles * self.victim.config.cycle_time_ns,
                               self.rng)
        return wire.decode_response(response.encode()), rtt


def _session(latency, noise_ns, barrier, path, seed=11, **overrides) -> Session:
    cfg = VictimConfig(secrets=SECRETS, mitigation_barrier=barrier,
                       mitigation_noise_sigma_ns=noise_ns, latency=latency,
                       **{**VICTIM, **overrides})
    victim_seed, transport_seed = np.random.SeedSequence(seed).spawn(2)
    victim = Victim(cfg, rng=np.random.default_rng(victim_seed))
    transport = CodecTransport if path == "codec" else LoopbackTransport
    return Session(transport(victim, latency,
                             np.random.default_rng(transport_seed)),
                   batched=path == "batched")


def _victim_side(session) -> tuple:
    victim = session.transport.victim
    st = victim.state
    return (sorted(session.counters.items()), sorted(victim.counters.items()),
            st.clock.now, sorted(st.predictor.counters.items()),
            st.cache.flag_cached, st.cache.flag_value,
            st.cache.aslr_cached_offset, st.avx.last_use_ns)


def run(latency, noise_ns, barrier, index, path, n) -> str:
    session = _session(latency, noise_ns, barrier, path)
    victim = session.transport.victim
    cache = ExtractionPlan(channel="cache", mistrain_index=index)
    avx = ExtractionPlan(channel="avx", mistrain_index=index)
    h = hashlib.sha256()
    for channel in ("cache", "value", "avx", "aslr"):
        for corner in ("hit", "miss"):
            h.update(session.collect_corner(channel, corner, n, cache).tobytes())
    for plan in (cache, avx):
        for bit in (0, 1, 2, 7):
            h.update(session.collect_bit(plan, SECRETS.secret_bit_index(bit),
                                         n).tobytes())
    for guess in (0, 4241, 4242, 9000):
        h.update(session.collect_value(guess, n, cache).tobytes())
    for lo, hi in ((0, 2048), (512, 1024), (777, 778)):
        h.update(session.collect_aslr(lo, hi, n).tobytes())
    h.update(repr(_victim_side(session) + (
        victim.rng.random(), session.transport.rng.random())).encode())
    return h.hexdigest()[:16]


def run_leak(latency, noise_ns, barrier, index, n) -> str:
    session = _session(latency, noise_ns, barrier, "batched")
    start = SECRETS.secret_bit_index(0)
    h = hashlib.sha256()
    for channel in ("cache", "avx"):
        plan = ExtractionPlan(channel=channel, mistrain_index=index,
                              measurements_per_bit=n,
                              target_bit_range=(start, start + 8))
        twin = _session(LatencyModel.noiseless(latency.base_ns), 0.0, barrier,
                        "batched")
        result = leak_range(session, plan, calibrate(twin, plan, n=1))
        h.update(repr((result.bits, result.requests_total)).encode())
    h.update(repr(_victim_side(session) + (
        session.transport.victim.rng.random(),
        session.transport.rng.random())).encode())
    return h.hexdigest()[:16]


def run_keep(latency, noise_ns, path, decision, n) -> str:
    session = _session(latency, noise_ns, False, path)
    start = SECRETS.secret_bit_index(0)
    h = hashlib.sha256()
    for channel in ("cache", "avx"):
        plan = ExtractionPlan(channel=channel, measurements_per_bit=n,
                              decision=decision,
                              target_bit_range=(start, start + 8))
        twin = _session(LatencyModel.noiseless(latency.base_ns), 0.0, False,
                        "batched")
        result = leak_range(session, plan, calibrate(twin, plan, n=1),
                            sample_sink=lambda pos, rtts: h.update(
                                repr(pos).encode() + rtts.tobytes()))
        h.update(repr((result.bits, result.confidences,
                       result.requests_total)).encode())
    h.update(repr(_victim_side(session) + (
        session.transport.victim.rng.random(),
        session.transport.rng.random())).encode())
    return h.hexdigest()[:16]


def run_attack(latency, attack) -> str:
    """One attack as the library runs it, on the per-request path: its
    result, both request counters, the victim state and both next draws."""
    session = _session(latency, 0.0, False, "per-request",
                       valid_aslr_offset=45, aslr_space_bits=6, value_secret=167)
    if attack == "calibrate":
        result = [calibrate(session, ExtractionPlan(), n=ATTACK_CAL_N,
                            channel=channel)
                  for channel in ("cache", "value", "avx", "aslr")]
    elif attack == "leak_range":
        start, result = SECRETS.secret_bit_index(0), []
        for channel in ("cache", "avx"):
            plan = ExtractionPlan(channel=channel, measurements_per_bit=ATTACK_N,
                                  target_bit_range=(start, start + 8))
            leak = leak_range(session, plan,
                              calibrate(session, plan, n=ATTACK_CAL_N))
            result.append((leak.bits, leak.confidences, leak.requests_total))
    elif attack == "break_aslr":
        result = break_aslr(session, 6, ATTACK_N)
    else:
        plan = ExtractionPlan(measurements_per_bit=ATTACK_N)
        result = value_threshold_search(
            session, 8, plan,
            calibrate(session, plan, n=ATTACK_CAL_N, channel="value"))
    fields = (result,) + _victim_side(session) + (
        session.transport.victim.rng.random(), session.transport.rng.random())
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def run_mixed(latency, shared) -> str:
    """Raw requests, then a batched bit read and a batched moments read,
    on one session whose transport generator is the victim's if
    ``shared``."""
    session = _session(latency, 0.0, False, "batched")
    victim = session.transport.victim
    if shared:
        session = Session(LoopbackTransport(victim, latency, victim.rng))
    plan = ExtractionPlan()
    bit = SECRETS.secret_bit_index(0)
    schedule = session.bit_schedule(plan, bit)
    raw = [session.request(op, arg)[1] for op, arg in itertools.islice(
        itertools.cycle(schedule), MIXED_REQUESTS)]
    fields = (raw, session.collect_bit(plan, bit, 5000).tolist(),
              session.moments(schedule, 70_000)) + _victim_side(session) + (
        victim.rng.random(), session.transport.rng.random())
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def run_victim(latency, barrier, index, n, moments) -> str:
    """The victim side after the reads ``Session.moments`` serves, read as
    moments or as samples."""
    session = _session(latency, 0.0, barrier, "batched")
    plan = ExtractionPlan(channel="cache", mistrain_index=index)
    reads = [(session.corner_schedule(channel, corner, plan),
              lambda k, c=channel, r=corner: session.collect_corner(c, r, k, plan))
             for channel in ("cache", "value", "avx", "aslr")
             for corner in ("hit", "miss")]
    reads += [(wire.value_schedule(guess, plan.mistrain_count, plan.reset_bytes),
               lambda k, g=guess: session.collect_value(g, k, plan))
              for guess in (0, 4241, 4242, 9000)]
    reads += [(wire.aslr_schedule(lo, hi, 10),
               lambda k, lo=lo, hi=hi: session.collect_aslr(lo, hi, k))
              for lo, hi in ((0, 2048), (512, 1024), (777, 778))]
    for schedule, collect in reads:
        if moments:
            session.moments(schedule, n)
        else:
            collect(n)
    fields = _victim_side(session) + (session.transport.victim.rng.random(),)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def main() -> None:
    for path, (name, latency), noise_ns, barrier, warmth in itertools.product(
            SIZES, LATENCIES.items(), (0.0, 300.0), (False, True),
            TRAINING_INDEX):
        for n in SIZES[path]:
            digest = run(latency, noise_ns, barrier, TRAINING_INDEX[warmth],
                         path, n)
            print(f"{path} {name} noise={noise_ns:g} barrier={int(barrier)} "
                  f"index={warmth} n={n} {digest}", flush=True)
    for (name, latency), noise_ns, barrier, warmth in itertools.product(
            LATENCIES.items(), (0.0, 300.0), (False, True), TRAINING_INDEX):
        for n in SIZES["batched"]:
            digest = run_leak(latency, noise_ns, barrier,
                              TRAINING_INDEX[warmth], n)
            print(f"leak_range {name} noise={noise_ns:g} barrier={int(barrier)} "
                  f"index={warmth} n={n} {digest}", flush=True)
    for (name, latency), noise_ns, decision, path in itertools.product(
            LATENCIES.items(), (0.0, 300.0), ("mean", "mode"),
            ("batched", "per-request")):
        for n in SIZES[path]:
            digest = run_keep(latency, noise_ns, path, decision, n)
            print(f"keep {path} {name} noise={noise_ns:g} decision={decision} "
                  f"n={n} {digest}", flush=True)
    for (name, latency), attack in itertools.product(ATTACK_LATENCIES.items(),
                                                     ATTACKS):
        print(f"attack per-request {name} {attack} {run_attack(latency, attack)}",
              flush=True)
    for (name, latency), shared in itertools.product(LATENCIES.items(),
                                                     (False, True)):
        print(f"mixed batched {name} generator="
              f"{'shared' if shared else 'separate'} "
              f"{run_mixed(latency, shared)}", flush=True)
    for path, name, barrier, warmth in itertools.product(
            ("samples", "moments"), ("gaussian", "noiseless"), (False, True),
            TRAINING_INDEX):
        for n in SIZES["batched"]:
            digest = run_victim(LATENCIES[name], barrier,
                                TRAINING_INDEX[warmth], n, path == "moments")
            print(f"victim {path} {name} barrier={int(barrier)} "
                  f"index={warmth} n={n} {digest}", flush=True)


if __name__ == "__main__":
    main()
