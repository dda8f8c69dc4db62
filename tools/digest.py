"""Check that a change keeps the lab's draws, counters, bits and output
files, bit for bit:

    python3 tools/digest.py OLD NEW

OLD and NEW are source checkouts.  Each runs in its own subprocess, as
``python3 tools/digest.py ROOT`` runs it.  The command prints the lines
that differ, then the largest relative difference between the two trees'
bit and value-round confidences (equal infinities count as equal).  It
exits non-zero if any line differs or the trees hold different numbers of
confidences.

With one checkout (by default the one holding this file), it imports that
checkout's ``src/`` and ``perfbench/``, runs its CLI from its ``src/``,
and prints one line per run below, in this order: the batch grid, the CLI
runs and config round trips, and the benchmark rounds.  After them it
prints one ``confidences`` line per benchmark step.  A digest is the first
16 hex digits of a sha256.  One tree takes about 80 s on a 2-core host:
13 s for the batch grid, 11 s for the CLI and 56 s for the rounds.

Batch grid
----------
A line hashes every ``Session.collect_*`` output of one seeded run (all
eight calibration corners, four cache and four AVX bits, four value
guesses, three layout ranges), both request counters, the clock, the
predictor, cache and SIMD state, and the next draw of the victim's and the
transport's generators.

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
equal scalar draws.

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

Eight ``cached`` lines, one per latency model read as samples or as
moments, guard the batch's steps while a layout offset stays cached:
raw probes leave offset 777 cached, then a batched value read at a
100-byte reset (a download evicts about once in 1,300 iterations) runs
70,000 iterations, across a ``wire.CHUNK`` boundary, as
``collect_value`` or as ``moments``.  Each hashes the read, both request
counters, the victim state and the next draw of both generators.

Eight ``fallback`` lines, one per latency model and victim generator,
guard the batch's eviction draws where its generator cannot advance past
them: an MT19937, or a PCG64 holding a buffered 32-bit value.  Value reads
just below the secret (whose settled iterations time alike) and at it
(where they time apart by eviction) run 70,000 iterations each, across a
``wire.CHUNK`` boundary, as ``moments``, ``drawn_moments`` and
``_collect``.  Each hashes the six reads, both request counters, the
victim state, the next draw of both generators and the victim's next
32-bit draw.

Then, for each batched configuration without mitigation noise, Gaussian
(which ``Session.moments`` draws exactly) or noiseless (which it reads
as samples), two ``victim`` lines hash only the victim side (both
request counters, the clock, the predictor, cache and SIMD state, and
the victim generator's next draw) after the same corner, value and
layout reads: one read as samples, one as moments.  The moments read
leaves the victim as the sample read does when each ``victim moments``
line ends in its ``victim samples`` line's digest.

CLI runs and config round trips
-------------------------------
Each CLI run executes ``python -m spectrelab.cli`` into its own directory
under one temporary directory.  Its lines are the command, its exit code,
and, for its stdout, its stderr and every file it wrote, the file's name
and the digest of its text with every ``wall_seconds:`` line and the
temporary directory's path removed.  Equal lines mean equal files and
exit codes, byte for byte, apart from ``wall_seconds``.

The runs: ``leak`` on the cache and AVX channels at ``--preset local`` and
``noiseless``, a cache ``leak`` whose calibration fails (exit 4), a
``leak --config`` whose [latency] section is a lognormal local preset at a
100 us base, ``aslr`` at ``local`` and ``noiseless`` (20-bit space, offset
777), and ``figures`` fig3, fig5, fig7, fig8 and fig10.

Then one ``config`` line per config text hashes
``dump_config(load_config(text))`` and the dump of that dump reloaded, or
names the exception the load raised; a ``victim default`` line hashes the
configuration ``spectrelab victim`` prints with no config file.

Benchmark rounds
----------------
Rounds 0-1 of ``leak``, ``search`` and ``request`` at seeds 1-2 are set up
and run as ``perfbench/run.py`` runs them, through
``perfbench/workloads.py`` (seed sequence ``[seed, workload id, round]``),
untraced.  Per step, the line holds the digests of:

- ``result``: the step's result (``wall_seconds`` zeroed) or its error,
  with every bit and value-round confidence left out;
- ``calib``: the calibration;
- ``counters``: the session's and the victim's request counters;
- ``state``: the clock, the predictor, cache and SIMD state;
- ``draws``: the next draw of the victim's and the transport's generators.

The left-out confidences follow as JSON, one ``confidences`` line per
step, keyed like the step's line.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

TOOL = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(TOOL))   # the checkout digested
if __name__ == "__main__":
    if len(sys.argv) > 3 or not all(map(os.path.isdir, sys.argv[1:])):
        sys.exit(f"usage: {sys.argv[0]} [ROOT [ROOT]]  (source checkouts)")
    ROOT = os.path.abspath(sys.argv[1]) if len(sys.argv) == 2 else ROOT
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np

from spectrelab import wire
from spectrelab.attacker import (ExtractionPlan, Session, break_aslr, calibrate,
                                 leak_range, value_threshold_search)
from spectrelab.config import dump_config, load_config
from spectrelab.uarch import SecretStore
from spectrelab.victim import Victim, VictimConfig
from spectrelab.wire import LatencyModel, LoopbackTransport

# --- batch grid ------------------------------------------------------------

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
CACHED_RESET_BYTES = 100   # a download evicts about once in 1,300 iterations
CACHED_N = 70_000          # one wire.CHUNK and 4,464 iterations
GUESSES = (0, 4241, 4242, 9000)
# victim generators that draw every eviction uniform: MT19937 cannot
# advance, and advancing a PCG64 would drop its buffered 32-bit value
FALLBACK_GENERATORS = {
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    "pcg64-buffered": lambda seed: _buffered(np.random.default_rng(seed)),
}
RANGES = ((0, 2048), (512, 1024), (777, 778))


def _digest(*parts) -> str:
    """The short sha256 of ``parts``: bytes as they are, the rest as repr."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _side(session) -> tuple:
    """Both request counters, the victim state (clock, predictor, cache,
    SIMD) and the next draw of the victim's and the transport's generators."""
    victim = session.transport.victim
    st = victim.state
    return (sorted(session.counters.items()), sorted(victim.counters.items()),
            st.clock.now, sorted(st.predictor.counters.items()),
            st.cache.flag_cached, st.cache.flag_value,
            st.cache.aslr_cached_offset, st.avx.last_use_ns,
            victim.rng.random(), session.transport.rng.random())


class CodecTransport:
    """``LoopbackTransport`` with every frame encoded and decoded on the
    way, so the packets' codec is on the digested path.  The session sends
    it the plain (opcode, arg, nonce) triple, which ``wire.encode_request``
    encodes."""

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


def run(latency, noise_ns, barrier, index, path, n) -> str:
    session = _session(latency, noise_ns, barrier, path)
    cache = ExtractionPlan(channel="cache", mistrain_index=index)
    avx = ExtractionPlan(channel="avx", mistrain_index=index)
    parts = [session.collect_corner(channel, corner, n, cache)
             for channel in ("cache", "value", "avx", "aslr")
             for corner in ("hit", "miss")]
    parts += [session.collect_bit(plan, SECRETS.secret_bit_index(bit), n)
              for plan in (cache, avx) for bit in (0, 1, 2, 7)]
    parts += [session.collect_value(guess, n, cache) for guess in GUESSES]
    parts += [session.collect_aslr(lo, hi, n) for lo, hi in RANGES]
    return _digest(*(a.tobytes() for a in parts), _side(session))


def run_leak(latency, noise_ns, barrier, path, n, keep, **plan) -> str:
    """An 8-bit ``leak_range`` on each channel, calibrated on a noiseless
    twin; if ``keep``, through a ``sample_sink`` and with its confidences."""
    session = _session(latency, noise_ns, barrier, path)
    start = SECRETS.secret_bit_index(0)
    parts = []
    for channel in ("cache", "avx"):
        p = ExtractionPlan(channel=channel, measurements_per_bit=n,
                           target_bit_range=(start, start + 8), **plan)
        twin = _session(LatencyModel.noiseless(latency.base_ns), 0.0, barrier,
                        "batched")
        sink = (lambda pos, rtts: parts.append(repr(pos).encode()
                                               + rtts.tobytes())) if keep else None
        result = leak_range(session, p, calibrate(twin, p, n=1),
                            sample_sink=sink)
        parts.append((result.bits, result.confidences, result.requests_total)
                     if keep else (result.bits, result.requests_total))
    return _digest(*parts, _side(session))


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
    return _digest((result,) + _side(session))


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
    return _digest((raw, session.collect_bit(plan, bit, 5000).tolist(),
                    session.moments(schedule, 70_000)) + _side(session))


def run_cached(latency, moments) -> str:
    """Raw layout probes leave an offset cached, then one batched value
    read at a small reset, read as round trips or as moments."""
    session = _session(latency, 0.0, False, "batched")
    for lo, hi in ((0, 0), (0, 0), (0, 1 << 12)):     # train twice, probe
        session.request(wire.OP_ASLR_PROBE, (lo << 32) | hi)
    plan = ExtractionPlan(reset_bytes=CACHED_RESET_BYTES)
    read = (session.moments(wire.value_schedule(0, plan.mistrain_count,
                                                plan.reset_bytes), CACHED_N)
            if moments else session.collect_value(0, CACHED_N, plan).tobytes())
    return _digest(read, _side(session))


def _buffered(rng):
    rng.integers(0, 10, dtype=np.uint32)     # buffers the draw's other half
    return rng


def run_fallback(latency, generator) -> str:
    """Value reads below and at the secret, as moments, drawn moments and
    round trips, by a victim on one of ``FALLBACK_GENERATORS``."""
    session = _session(latency, 0.0, False, "batched")
    victim = session.transport.victim
    victim.rng = FALLBACK_GENERATORS[generator](12)
    reads = []
    for guess in GUESSES[1:3]:
        schedule = wire.value_schedule(guess, 10, ExtractionPlan().reset_bytes)
        reads += [session.moments(schedule, CACHED_N),
                  session.drawn_moments(schedule, CACHED_N),
                  session._collect(schedule, CACHED_N).tobytes()]
    return _digest(*reads, _side(session),
                   int(victim.rng.integers(0, 1 << 32, dtype=np.uint32)))


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
              for guess in GUESSES]
    reads += [(wire.aslr_schedule(lo, hi, 10),
               lambda k, lo=lo, hi=hi: session.collect_aslr(lo, hi, k))
              for lo, hi in RANGES]
    for schedule, collect in reads:
        if moments:
            session.moments(schedule, n)
        else:
            collect(n)
    return _digest(_side(session)[:9])      # no transport draw


def batch_grid() -> None:
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
            digest = run_leak(latency, noise_ns, barrier, "batched", n, False,
                              mistrain_index=TRAINING_INDEX[warmth])
            print(f"leak_range {name} noise={noise_ns:g} barrier={int(barrier)} "
                  f"index={warmth} n={n} {digest}", flush=True)
    for (name, latency), noise_ns, decision, path in itertools.product(
            LATENCIES.items(), (0.0, 300.0), ("mean", "mode"),
            ("batched", "per-request")):
        for n in SIZES[path]:
            digest = run_leak(latency, noise_ns, False, path, n, True,
                              decision=decision)
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
    for (name, latency), moments in itertools.product(LATENCIES.items(),
                                                      (False, True)):
        print(f"cached batched {name} read="
              f"{'moments' if moments else 'samples'} "
              f"{run_cached(latency, moments)}", flush=True)
    for (name, latency), generator in itertools.product(LATENCIES.items(),
                                                        FALLBACK_GENERATORS):
        print(f"fallback batched {name} generator={generator} "
              f"{run_fallback(latency, generator)}", flush=True)
    for path, name, barrier, warmth in itertools.product(
            ("samples", "moments"), ("gaussian", "noiseless"), (False, True),
            TRAINING_INDEX):
        for n in SIZES["batched"]:
            digest = run_victim(LATENCIES[name], barrier,
                                TRAINING_INDEX[warmth], n, path == "moments")
            print(f"victim {path} {name} barrier={int(barrier)} "
                  f"index={warmth} n={n} {digest}", flush=True)


# --- CLI runs and config round trips --------------------------------------

LOGNORMAL_CONFIG = ("[latency]\npreset = local\ndistribution = lognormal\n"
                    "base_ns = 100000\n")

RUNS = [
    ("leak", "loopback", "--channel", "cache", "--preset", "local",
     "--n", "4000000", "--bits", "16", "--seed", "7"),
    ("leak", "loopback", "--channel", "avx", "--preset", "local",
     "--n", "1000000", "--bits", "16", "--seed", "7"),
    ("leak", "loopback", "--channel", "cache", "--preset", "noiseless",
     "--n", "1000", "--bits", "64", "--seed", "7"),
    ("leak", "loopback", "--channel", "avx", "--preset", "noiseless",
     "--n", "1000", "--bits", "64", "--seed", "7"),
    ("leak", "loopback", "--channel", "cache", "--preset", "local",
     "--n", "1000", "--bits", "8", "--seed", "7"),
    ("leak", "loopback", "--config", "{config}", "--n", "1000000",
     "--bits", "8", "--seed", "5"),
    ("aslr", "loopback", "--space-bits", "20", "--offset", "777",
     "--n", "1000000", "--preset", "local", "--seed", "3"),
    ("aslr", "loopback", "--space-bits", "20", "--offset", "777",
     "--n", "1000000", "--preset", "noiseless", "--seed", "3"),
    *(("figures", fig, "--seed", "1")
      for fig in ("fig3", "fig5", "fig7", "fig8", "fig10")),
]

CONFIGS = {
    "empty": "",
    **{f"{preset}-{distribution}":
       f"[latency]\npreset = {preset}\ndistribution = {distribution}\n"
       for preset in ("local", "cloud", "arm", "noiseless")
       for distribution in ("gaussian", "lognormal")},
    "local-sigma": "[latency]\npreset = local\nsigma_ns = 500\n",
    "noiseless-sigma": "[latency]\npreset = noiseless\nsigma_ns = 500\n",
    "custom-sigma": "[latency]\nsigma_ns = 1234.5\n",
    "custom-lognormal": "[latency]\nsigma_ns = 1234.5\n"
                        "distribution = lognormal\n",
    "custom-base": "[latency]\nbase_ns = 100000\n",
    "timing": "[timing]\nhit_cycles = 30\nmiss_cycles = 250\n"
              "cycle_time_ns = 0.25\nper_request_ns = 2000\n",
    "mitigation": "[mitigation]\nbarrier = yes\nnoise_sigma_ns = 300\n",
    "victim": "[victim]\nsecret = hi\npublic_zero_bytes = 4\n"
              "valid_aslr_offset = 99\naslr_space_bits = 12\n"
              "value_secret = 1234\nvalue_bits = 12\nclock_mode = wall\n",
    "secret-hex": "[victim]\nsecret_hex = deadbeef\n",
    "lognormal-cli": LOGNORMAL_CONFIG,
    "unknown-key": "[timing]\nhit = 3\n",
    "unknown-preset": "[latency]\npreset = warp\n",
}


def _text_digest(text: str, tmp: str) -> str:
    """The digest of ``text`` without its wall_seconds lines and ``tmp``."""
    return _digest(re.sub(r"^wall_seconds:.*\n", "", text.replace(tmp, ""),
                          flags=re.MULTILINE).encode())


def run_cli(argv: tuple, tmp: str, index: int) -> None:
    out = os.path.join(tmp, str(index))
    config = os.path.join(tmp, "lognormal.cfg")
    args = [arg.format(config=config) for arg in argv] + ["--out", out]
    proc = subprocess.run([sys.executable, "-m", "spectrelab.cli", *args],
                          capture_output=True, text=True, env={
                              **os.environ,
                              "PYTHONPATH": os.path.join(ROOT, "src")})
    outputs = [("<stdout>", proc.stdout), ("<stderr>", proc.stderr)]
    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            with open(os.path.join(root, name)) as fh:
                outputs.append((os.path.relpath(fh.name, out), fh.read()))
    for name, text in outputs:
        print(f"cli {' '.join(argv)} exit={proc.returncode} {name} "
              f"{_text_digest(text, tmp)}", flush=True)


def run_config(text: str, tmp: str) -> str:
    path = os.path.join(tmp, "round_trip.cfg")
    try:
        with open(path, "w") as fh:
            fh.write(text)
        dump = dump_config(load_config(path))
        with open(path, "w") as fh:
            fh.write(dump)
        again = dump_config(load_config(path))
    except ValueError as err:   # ConfigError too; its type is the digest
        return f"error {type(err).__name__}"
    return f"{_text_digest(dump, tmp)} reloaded {_text_digest(again, tmp)}"


def cli_runs() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "lognormal.cfg"), "w") as fh:
            fh.write(LOGNORMAL_CONFIG)
        for index, argv in enumerate(RUNS):
            run_cli(argv, tmp, index)
        for name, text in CONFIGS.items():
            print(f"config {name} {run_config(text, tmp)}", flush=True)
        print(f"victim default {_text_digest(dump_config(VictimConfig()), tmp)}",
              flush=True)


# --- benchmark rounds ------------------------------------------------------

def _split(result) -> tuple[object, list[float]]:
    """The result as plain data without its confidences, and those."""
    if result is None:
        return None, []
    data = dataclasses.asdict(result)
    if "confidences" in data:                 # a leak
        data["wall_seconds"] = 0.0
        return data, data.pop("confidences")
    rounds = data.get("rounds", [])           # a layout break or a value
    confidences = [r.pop("confidence") for r in rounds if "confidence" in r]
    return data, confidences


def benchmark_rounds() -> dict:
    """Print each step's line; return its confidences by the line's key."""
    import run as bench           # perfbench/run.py
    import workloads
    confidences = {}
    for name, seed, r in itertools.product(("leak", "search", "request"),
                                           (1, 2), (0, 1)):
        wl = workloads.WORKLOADS[name]
        inputs = workloads.make_inputs(wl, np.random.SeedSequence(
            [seed, bench.WORKLOAD_IDS[name], r]))
        for i, target in enumerate(workloads.build(wl, inputs)):
            key = f"{name} seed {seed} round {r} step {i}"
            outcome = workloads.run_step(target)
            result, confidences[key] = _split(outcome.result)
            error = (None if outcome.error is None
                     else (type(outcome.error).__name__, str(outcome.error)))
            calib = (None if outcome.calib is None
                     else dataclasses.asdict(outcome.calib))
            side = _side(target.session)
            print(f"{key} result {_digest((result, error))} "
                  f"calib {_digest(calib)} counters {_digest(side[:2])} "
                  f"state {_digest(side[2:8])} draws {_digest(side[8:])}",
                  flush=True)
    return confidences


# --- two trees -------------------------------------------------------------

def _relative(a: float, b: float) -> float:
    if a == b:                                # equal infinities included
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _parse(output: str) -> tuple[list[str], dict]:
    """A tree's digest lines, and its confidences by step."""
    lines, confidences = [], {}
    for line in output.splitlines():
        if line.startswith("confidences "):
            key, _, values = line.removeprefix("confidences ").partition(": ")
            confidences[key] = json.loads(values)
        else:
            lines.append(line)
    return lines, confidences


def compare(old: str, new: str) -> int:
    """Print how two trees' outputs differ; 1 if they do beyond rounding
    of the confidences."""
    (a, conf_a), (b, conf_b) = _parse(old), _parse(new)
    diff = [line for line in difflib.unified_diff(a, b, lineterm="", n=0)
            if not line.startswith(("---", "+++", "@@"))]
    for line in diff:
        print(line)
    print(f"{len(diff)} differing lines of {len(a)} old and {len(b)} new")
    if conf_a.keys() != conf_b.keys() or any(
            len(conf_a[k]) != len(conf_b[k]) for k in conf_a):
        print("the trees hold different numbers of confidences")
        return 1
    pairs = [(_relative(x, y), f"{key} #{i}") for key in conf_a
             for i, (x, y) in enumerate(zip(conf_a[key], conf_b[key]))]
    worst, where = max(pairs, default=(0.0, None))
    print(f"{len(pairs)} confidences; largest relative difference {worst:.3g}"
          + (f" at {where}" if worst else ""))
    return int(bool(diff))


def _tree(root: str) -> str:
    """What this tool prints for one checkout, run in a subprocess."""
    return subprocess.run([sys.executable, TOOL, root],
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def main(roots: list[str]) -> int:
    if len(roots) == 2:
        with ThreadPoolExecutor(2) as pool:
            return compare(*pool.map(_tree, roots))
    batch_grid()
    cli_runs()
    for key, values in benchmark_rounds().items():
        print(f"confidences {key}: {json.dumps(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
