"""The reduced bit read: ``Session.drawn_moments``.

An unkept, mean-rule bit read that is batched, free of mitigation noise and
practically never clamped at 0 is reduced from its draws alone: the
victim's eviction draws and the transport's noise, never the round trips.
It must make the same draws as the round trips it stands for, decide the
same bit, and read their mean within one ulp and their confidence within
1e-12.  Every other read is the round trips' read itself.
"""

import math
import tracemalloc

import numpy as np
import pytest

from spectrelab import uarch, wire
from spectrelab.attacker import (Calibration, ExtractionPlan, Session,
                                 _moments, calibrate, leak_bit, mean_z)
from spectrelab.victim import Victim, VictimConfig
from spectrelab.wire import LatencyModel, LoopbackTransport

BASE_NS = 100_000.0
LATENCIES = {
    "noiseless": LatencyModel.noiseless(BASE_NS),
    "gaussian": LatencyModel.preset("local", BASE_NS),
    "lognormal": LatencyModel.preset("local", BASE_NS, "lognormal"),
}
# a download that evicts half the time, so a 0 bit's timed cycles take
# two values
HALF_EVICT_BYTES = round(uarch.THRASH_LAMBDA * math.log(2.0))
SIZES = [1, 2, wire.CHUNK - 1, wire.CHUNK, wire.CHUNK + 1, 2 * wire.CHUNK + 5]


def _session(latency, shared=False, batched=True, seed=12, **overrides):
    """A fresh victim (its predictor cold) and a transport whose generator
    is its own or the victim's."""
    victim_seed, transport_seed = np.random.SeedSequence(seed).spawn(2)
    victim = Victim(VictimConfig(latency=latency, **overrides),
                    rng=np.random.default_rng(victim_seed))
    rng = victim.rng if shared else np.random.default_rng(transport_seed)
    return Session(LoopbackTransport(victim, latency, rng), batched=batched)


def _plan(channel):
    return ExtractionPlan(channel=channel, reset_bytes=HALF_EVICT_BYTES)


def _threshold(channel):
    """The midpoint of the channel's noiseless corners."""
    session = _session(LatencyModel.noiseless(BASE_NS))
    return calibrate(session, _plan(channel), n=100).threshold_ns


def _state(session):
    """Both request counters, the clock, the victim's state and the next
    draw of both generators (one generator, drawn twice, if shared)."""
    v, st = session.transport.victim, session.transport.victim.state
    return (sorted(session.counters.items()), sorted(v.counters.items()),
            st.clock.now, sorted(st.predictor.counters.items()),
            st.cache.flag_cached, st.cache.flag_value,
            st.cache.aslr_cached_offset, st.avx.last_use_ns,
            v.rng.random(), session.transport.rng.random())


def _index(session, secret_bit):
    return session.transport.victim.config.secrets.secret_bit_index(secret_bit)


def _schedule(session, channel, secret_bit):
    return session.bit_schedule(_plan(channel), _index(session, secret_bit))


class TestDifferential:
    """Against a twin session that reads ``_moments(_rtts(...))``."""

    @pytest.mark.parametrize("latency", LATENCIES)
    @pytest.mark.parametrize("shared", [False, True], ids=["separate", "shared"])
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("channel", ["cache", "avx"])
    def test_reads_what_the_round_trips_read(self, channel, n, shared, latency):
        threshold = _threshold(channel)
        a = _session(LATENCIES[latency], shared)
        b = _session(LATENCIES[latency], shared)
        # 'd' = 0110 0100: a 0 from a cold predictor, whose read steps a
        # head of unsettled iterations, then a 1 and a 0 that start settled
        for secret_bit in (0, 1, 0):
            schedule = _schedule(a, channel, secret_bit)
            mean, var = a.drawn_moments(schedule, n)
            ref_mean, ref_var = _moments(b._rtts(schedule, n))
            assert abs(mean - ref_mean) <= np.spacing(ref_mean)
            assert (mean < threshold) == (ref_mean < threshold)
            z = mean_z(mean, var, n, threshold)
            ref_z = mean_z(ref_mean, ref_var, n, threshold)
            if math.isinf(ref_z):
                assert z == ref_z
            else:
                assert z == pytest.approx(ref_z, rel=1e-12, abs=0)
        assert _state(a) == _state(b)

    @pytest.mark.parametrize("channel", ["cache", "avx"])
    def test_only_a_cold_read_steps_a_head(self, channel):
        session = _session(LATENCIES["gaussian"])
        victim = session.transport.victim
        heads = []
        for secret_bit in (0, 1, 0):
            schedule = _schedule(session, channel, secret_bit)
            heads.append(len(victim._settle(schedule, 100)[0]))
        assert heads[0] >= 1 and heads[1:] == [0, 0]

    @pytest.mark.parametrize("channel", ["cache", "avx"])
    def test_leak_bit_decides_from_it(self, channel):
        plan = ExtractionPlan(channel=channel, reset_bytes=HALF_EVICT_BYTES,
                              measurements_per_bit=wire.CHUNK + 1)
        threshold = _threshold(channel)
        calib = Calibration(mean_hit_ns=threshold - 40.0,
                            mean_miss_ns=threshold + 40.0,
                            threshold_ns=threshold, sigma_est_ns=15_600.0)
        a, b = (_session(LATENCIES["gaussian"]) for _ in range(2))
        for secret_bit in (0, 1):
            schedule = _schedule(a, channel, secret_bit)
            read = leak_bit(a, plan, calib, _index(a, secret_bit))
            mean, var = b.drawn_moments(schedule, plan.measurements_per_bit)
            assert read.bit == int(mean < calib.threshold_ns)
            assert read.confidence == mean_z(
                mean, var, plan.measurements_per_bit, calib.threshold_ns)
        assert _state(a) == _state(b)


# Each configuration breaks one condition of the reduced read.
FALLBACKS = {
    "mitigation-noise": (dict(mitigation_noise_sigma_ns=300.0),
                         LATENCIES["gaussian"], True),
    "clamp": ({}, LatencyModel.preset("local"), True),      # 10 us base
    "per-request": ({}, LATENCIES["gaussian"], False),
}


class TestSelection:
    @pytest.mark.parametrize("fallback", FALLBACKS)
    @pytest.mark.parametrize("channel", ["cache", "avx"])
    def test_other_reads_are_the_round_trips_read(self, channel, fallback):
        overrides, latency, batched = FALLBACKS[fallback]
        a, b = (_session(latency, batched=batched, **overrides)
                for _ in range(2))
        n = 300 if not batched else wire.CHUNK + 1
        schedule = _schedule(a, channel, 0)
        assert a.drawn_moments(schedule, n) == _moments(b._rtts(schedule, n))
        assert _state(a) == _state(b)

    def test_a_kept_read_is_the_round_trips_read(self):
        a, b = (_session(LATENCIES["gaussian"]) for _ in range(2))
        schedule = _schedule(a, "cache", 0)
        n = wire.CHUNK + 1
        kept, ref = np.empty(n), np.empty(n)
        assert (a.drawn_moments(schedule, n, kept)
                == _moments(b._rtts(schedule, n, ref)))
        assert np.array_equal(kept, ref)
        assert _state(a) == _state(b)

    def test_an_eligible_bit_builds_no_round_trips(self, monkeypatch):
        session = _session(LATENCIES["gaussian"])
        calib = Calibration(mean_hit_ns=0.0, mean_miss_ns=2.0,
                            threshold_ns=1.0, sigma_est_ns=1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("round trips built")
        monkeypatch.setattr(Session, "_rtts", refuse)
        leak_bit(session, ExtractionPlan(measurements_per_bit=1000), calib, 0)

    def test_memory_stays_within_a_few_chunks(self):
        session = _session(LATENCIES["gaussian"])
        schedule = _schedule(session, "cache", 0)
        n = 16 * wire.CHUNK
        session.drawn_moments(schedule, wire.CHUNK)      # warm up
        tracemalloc.start()
        try:
            session.drawn_moments(schedule, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * wire.CHUNK < 8 * n


class TestOneRule:
    """``Session._reducible`` alone decides which reads skip their round
    trips: a noiseless or lognormal read of the moments or the draws is its
    own sample read, and a Gaussian read of sigma > 0 builds none."""

    @staticmethod
    def _schedules(session):
        plan = _plan("cache")
        return [session.corner_schedule("cache", "miss", plan),
                wire.value_schedule(300, plan.mistrain_count, plan.reset_bytes),
                _schedule(session, "cache", 0)]

    @pytest.mark.parametrize("latency", ["noiseless", "lognormal"])
    @pytest.mark.parametrize("n", [1, 2, wire.CHUNK + 1, 2 * wire.CHUNK + 5])
    @pytest.mark.parametrize("entry", ["moments", "drawn_moments"])
    def test_an_ineligible_read_is_its_sample_read(self, entry, n, latency):
        a, b = (_session(LATENCIES[latency]) for _ in range(2))
        for schedule in self._schedules(a):
            assert (getattr(a, entry)(schedule, n)
                    == b.sample_moments(schedule, n))
        assert _state(a) == _state(b)

    def test_an_eligible_moments_read_builds_no_round_trips(self, monkeypatch):
        session = _session(LATENCIES["gaussian"])

        def refuse(*args, **kwargs):
            raise AssertionError("round trips built")
        monkeypatch.setattr(Session, "_rtts", refuse)
        for schedule in self._schedules(session):
            session.moments(schedule, 1_000_000)
        assert session.counters == session.transport.victim.counters
