"""The moments read: ``Session.moments`` and the layers under it.

Eligible reads (batched loopback, Gaussian noise, no mitigation noise, a
clamp at 0 that practically never fires) reduce the victim's timed cycles
to three moments and draw the noise of the round trips' mean and variance
from three statistics.  These tests check that the draw has the sample
path's distribution, that the victim ends every read exactly as a sample
read leaves it, and that every other read is the sample read itself.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from spectrelab import uarch, wire
from spectrelab.attacker import (Calibration, ExtractionPlan, Session,
                                 calibrate, leak_bit)
from spectrelab.victim import Victim, VictimConfig
from spectrelab.wire import LatencyModel, LoopbackTransport

BASE_NS = 100_000.0
LOCAL = LatencyModel(base_ns=BASE_NS, sigma_ns=15_600.0)
# a download that evicts half the time, so the timed cycles take two values
HALF_EVICT_BYTES = round(uarch.THRASH_LAMBDA * math.log(2.0))
PLAN = ExtractionPlan(reset_bytes=HALF_EVICT_BYTES)
# one training compare: the first timed value differs from the settled ones
ONCE = ExtractionPlan(reset_bytes=HALF_EVICT_BYTES, mistrain_count=1)
GUESS = 300
CORNERS = [f"corner-{channel}-{corner}"
           for channel in ("cache", "value", "avx", "aslr")
           for corner in ("hit", "miss")]
READS = CORNERS + ["value", "value-trained-once", "aslr-check"]


def _session(seed, latency, batched=True, transport_seed=None, **overrides):
    cfg = VictimConfig(latency=latency, valid_aslr_offset=777,
                       aslr_space_bits=12, value_secret=4242, **overrides)
    victim_seed, spawned = np.random.SeedSequence(seed).spawn(2)
    transport_seed = spawned if transport_seed is None else transport_seed
    victim = Victim(cfg, rng=np.random.default_rng(victim_seed))
    return Session(LoopbackTransport(victim, latency,
                                     np.random.default_rng(transport_seed)),
                   batched=batched)


def _read(session, name):
    """(schedule, collect) of one read: the loop and its sample path."""
    if name.startswith("value"):
        plan = ONCE if name == "value-trained-once" else PLAN
        return (wire.value_schedule(GUESS, plan.mistrain_count,
                                    plan.reset_bytes),
                lambda k: session.collect_value(GUESS, k, plan))
    if name == "aslr-check":
        return (wire.aslr_schedule(512, 1024, 10),
                lambda k: session.collect_aslr(512, 1024, k, 10))
    _, channel, corner = name.split("-")
    return (session.corner_schedule(channel, corner, PLAN),
            lambda k: session.collect_corner(channel, corner, k, PLAN))


def _moments(session, name, n):
    return session.moments(_read(session, name)[0], n)


def _sample_moments(x):
    """The sample path's arithmetic: moments about the first sample."""
    shift = float(x[0])
    d = x - shift
    mean = float(d.sum()) / x.size
    var = (max(0.0, (float(np.square(d).sum()) - x.size * mean * mean)
                / (x.size - 1))
           if x.size > 1 else 0.0)
    return shift + mean, var


def _warm_up(session):
    """A prior state: SIMD unit warm, cache flag cached, predictor trained."""
    for op, arg in [(wire.OP_TRANSMIT_AVX, 0), (wire.OP_TRANSMIT_CACHE, 0),
                    (wire.OP_VALUE_CMP, 0), (wire.OP_LEAK_CACHE, 0)]:
        session.request(op, arg)


def _victim_state(session):
    v = session.transport.victim
    st = v.state
    return (sorted(session.counters.items()), sorted(v.counters.items()),
            st.clock.now, sorted(st.predictor.counters.items()),
            st.cache.flag_cached, st.cache.flag_value,
            st.cache.aslr_cached_offset, st.avx.last_use_ns, v.rng.random())


class TestRttMoments:
    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_distribution_matches_samples(self, n):
        # fixed two-valued server times: 520 ns hits and 600 ns misses,
        # a spread comparable to sigma so every term of the draw matters
        server_ns = np.where(np.arange(n) % 3 == 0, 600.0, 520.0)
        mean_ns = float(server_ns.mean())
        ss_ns = float(((server_ns - mean_ns) ** 2).sum())
        model = LatencyModel(base_ns=BASE_NS, sigma_ns=60.0)
        drawn, sampled = [], []
        for seed in range(2000):
            drawn.append(model.rtt_moments(n, mean_ns, ss_ns,
                                           np.random.default_rng(seed)))
            x = model.rtt(server_ns.copy(), np.random.default_rng(10**6 + seed),
                          size=n)
            sampled.append((x.mean(), x.var(ddof=1)))
        drawn, sampled = np.array(drawn), np.array(sampled)
        assert ks_2samp(drawn[:, 0], sampled[:, 0]).pvalue > 1e-3
        assert ks_2samp(drawn[:, 1], sampled[:, 1]).pvalue > 1e-3

    def test_one_round_trip_has_zero_variance(self):
        model = LatencyModel(base_ns=BASE_NS, sigma_ns=60.0)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        mean, var = model.rtt_moments(1, 520.0, 0.0, rng)
        assert var == 0.0
        assert mean == 520.0 + 2 * BASE_NS + 60.0 * ref.standard_normal()
        assert rng.random() == ref.random()

    def test_noiseless_draws_nothing(self):
        model = LatencyModel.noiseless(base_ns=BASE_NS)
        rng = np.random.default_rng(4)
        assert model.rtt_moments(5, 520.0, 6400.0, rng) == (
            520.0 + 2 * BASE_NS, 1600.0)
        assert rng.random() == np.random.default_rng(4).random()

    def test_clamp_probability(self):
        assert LatencyModel(base_ns=10_000.0, sigma_ns=20_000.0) \
            .clamp_probability() == pytest.approx(norm.cdf(-1.0))
        assert LatencyModel.noiseless(base_ns=0.0).clamp_probability() == 0.0
        assert LatencyModel.noiseless(base_ns=-1.0).clamp_probability() == 1.0


class TestMomentsRead:
    @pytest.mark.parametrize("name", READS)
    @pytest.mark.parametrize("n", [1, 2, 50, wire.CHUNK + 3])
    def test_victim_ends_as_after_a_sample_read(self, name, n):
        a, b = _session(3, LOCAL), _session(3, LOCAL)
        for s in (a, b):
            _warm_up(s)
        _moments(a, name, n)
        _read(b, name)[1](n)
        assert _victim_state(a) == _victim_state(b)

    @pytest.mark.parametrize("name", ["corner-cache-miss", "value"])
    def test_distribution_matches_sample_reads(self, name):
        # one victim seed fixes the two-valued server times of every run;
        # only the transport seed changes
        latency = LatencyModel(base_ns=BASE_NS, sigma_ns=60.0)
        n, drawn, sampled = 40, [], []
        for seed in range(2000):
            a = _session(0, latency, transport_seed=seed)
            b = _session(0, latency, transport_seed=10**6 + seed)
            drawn.append(_moments(a, name, n))
            sampled.append(_sample_moments(_read(b, name)[1](n)))
        drawn, sampled = np.array(drawn), np.array(sampled)
        assert np.ptp(sampled[:, 1]) > 0      # the server times do vary
        assert ks_2samp(drawn[:, 0], sampled[:, 0]).pvalue > 1e-3
        assert ks_2samp(drawn[:, 1], sampled[:, 1]).pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 500])
    def test_transport_draws_three_statistics(self, n):
        a = _session(5, LOCAL)
        _moments(a, "value", n)
        ref = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[1])
        ref.standard_normal()
        if n > 1:
            ref.standard_normal()
        if n > 2:
            ref.chisquare(n - 2)
        assert a.transport.rng.random() == ref.random()

    @pytest.mark.parametrize("name", READS)
    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_noiseless_read_equals_the_samples_moments(self, name, n):
        a = _session(9, LatencyModel.noiseless())
        b = _session(9, LatencyModel.noiseless())
        mean, var = _moments(a, name, n)
        expected_mean, expected_var = _sample_moments(_read(b, name)[1](n))
        assert mean == pytest.approx(expected_mean, rel=1e-12)
        assert var == pytest.approx(expected_var, rel=1e-9, abs=1e-9)
        if expected_var == 0.0:      # a constant loop reads exactly
            assert (mean, var) == (expected_mean, expected_var)

    def test_calibration_reads_corners_without_sampling(self):
        s = _session(2, LOCAL)
        s.collect_corner = None           # an eligible read never samples
        calib = calibrate(s, ExtractionPlan(), n=4_000_000)
        assert calib.mean_hit_ns < calib.threshold_ns < calib.mean_miss_ns
        assert s.counters == s.transport.victim.counters


# Each configuration breaks one condition of the exact draw.
FALLBACKS = {
    "per-request": (dict(latency=LOCAL), False),
    "lognormal": (dict(latency=LatencyModel(base_ns=BASE_NS, sigma_ns=15_600.0,
                                            distribution="lognormal")), True),
    "mitigation-noise": (dict(latency=LOCAL, mitigation_noise_sigma_ns=300.0),
                         True),
    "clamp": (dict(latency=LatencyModel.preset("local")), True),   # 10 us base
}


class TestFallback:
    @pytest.mark.parametrize("name", ["value", "corner-cache-miss",
                                      "aslr-check"])
    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_returns_the_sample_reads_moments(self, fallback, name):
        overrides, batched = FALLBACKS[fallback]
        overrides = dict(overrides)
        latency = overrides.pop("latency")
        a = _session(6, latency, batched, **overrides)
        b = _session(6, latency, batched, **overrides)
        n = 200
        assert _moments(a, name, n) == _sample_moments(_read(b, name)[1](n))
        assert _victim_state(a) == _victim_state(b)
        assert a.transport.rng.random() == b.transport.rng.random()

    @pytest.mark.parametrize("latency", [LOCAL, LatencyModel.preset("local")])
    def test_empty_read_rejected(self, latency):
        # exact or sampled, a read of no measurements is a configuration
        # error, which the CLI maps to exit code 2
        with pytest.raises(ValueError):
            calibrate(_session(1, latency), ExtractionPlan(), n=0)

    def test_cli_rejects_zero_measurements(self, tmp_path):
        from spectrelab import cli
        assert cli.main(["leak", "loopback", "--n", "0", "--bits", "1",
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_clamp_bound_is_per_read(self):
        # one round trip clamps with probability 1e-13: five of them may be
        # drawn exactly, twenty are sampled
        sigma = 15_600.0
        latency = LatencyModel(base_ns=0.5 * sigma * norm.isf(1e-13),
                               sigma_ns=sigma)
        for n, exact in ((5, True), (20, False)):
            a, b = _session(8, latency), _session(8, latency)
            got = _moments(a, "value", n)
            expected = _sample_moments(_read(b, "value")[1](n))
            assert (got != expected) == exact
            assert ((a.transport.rng.random() == b.transport.rng.random())
                    != exact)


class TestStreamedRead:
    """``Session.sample_moments`` streams a batched read one wire.CHUNK at
    a time; it must read what the whole sample array reads."""

    @staticmethod
    def _read(session, name):
        if name == "value":
            return _read(session, "value")
        plan = ExtractionPlan(channel=name, reset_bytes=HALF_EVICT_BYTES)
        index = session.transport.victim.config.secrets.secret_bit_index(0)
        return (session.bit_schedule(plan, index),
                lambda k: session.collect_bit(plan, index, k))

    @pytest.mark.parametrize("n", [1, 2, wire.CHUNK - 1, wire.CHUNK,
                                   wire.CHUNK + 1, 2 * wire.CHUNK + 5])
    @pytest.mark.parametrize("name", ["cache", "avx", "value"])
    def test_equals_the_array_read(self, name, n):
        # a fresh victim's predictor is cold, so the settle loop steps
        # some iterations before the rest are drawn vectorized
        a, b, c = (_session(12, LOCAL) for _ in range(3))
        schedule, _ = self._read(c, name)
        head, _ = c.transport.victim._settle(schedule, n)
        assert len(head) >= 1
        got = a.sample_moments(self._read(a, name)[0], n)
        expected = _sample_moments(self._read(b, name)[1](n))
        if n <= wire.CHUNK:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0)
        assert _victim_state(a) == _victim_state(b)
        assert a.transport.rng.random() == b.transport.rng.random()


class TestPerRequestChunks:
    """A per-request read fills one wire.CHUNK-long view at a time; across
    a chunk boundary it reads what a whole-array read does."""

    @pytest.mark.parametrize("n", [6, 7, 8, 15])
    def test_equals_the_whole_array_read(self, monkeypatch, n):
        twin = _session(16, LOCAL, batched=False)
        array = twin.collect_value(GUESS, n, PLAN)        # n < CHUNK: one view
        expected = _sample_moments(array)
        monkeypatch.setattr(wire, "CHUNK", 7)
        a, b = (_session(16, LOCAL, batched=False) for _ in range(2))
        got = a.sample_moments(_read(a, "value")[0], n)
        if n <= 7:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0)
        assert np.array_equal(b.collect_value(GUESS, n, PLAN), array)
        state = _victim_state(twin), twin.transport.rng.random()
        for s in (a, b):
            assert (_victim_state(s), s.transport.rng.random()) == state

    def test_kept_bit_samples_are_the_whole_array(self, monkeypatch):
        plan = ExtractionPlan(channel="avx", measurements_per_bit=15)
        twin = _session(17, LOCAL, batched=False)
        index = twin.transport.victim.config.secrets.secret_bit_index(0)
        array = twin.collect_bit(plan, index)
        monkeypatch.setattr(wire, "CHUNK", 7)
        a = _session(17, LOCAL, batched=False)
        calib = Calibration(mean_hit_ns=0.0, mean_miss_ns=2.0,
                            threshold_ns=1.0, sigma_est_ns=1.0)
        read = leak_bit(a, plan, calib, index, keep_samples=True)
        assert np.array_equal(read.rtts_ns, array)
        assert _victim_state(a) == _victim_state(twin)
        assert a.transport.rng.random() == twin.transport.rng.random()


class TestScheduleOnlyRead:
    """A read given only its schedule reads what its twin's ``collect_*``
    array reads, on either path.  The batched ``moments`` read is drawn
    exactly here (three statistics from the transport, not 50 round
    trips), so only its victim side is compared."""

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("method", ["moments", "sample_moments"])
    @pytest.mark.parametrize("name", READS)
    def test_equals_the_collected_array(self, name, method, batched):
        a, b = _session(14, LOCAL, batched), _session(14, LOCAL, batched)
        for s in (a, b):
            _warm_up(s)
        got = getattr(a, method)(_read(a, name)[0], 50)
        expected = _sample_moments(_read(b, name)[1](50))
        assert _victim_state(a) == _victim_state(b)
        if batched and method == "moments":
            return
        assert got == expected
        assert a.transport.rng.random() == b.transport.rng.random()


class TestEmptyRead:
    """A read of no measurements is refused on both paths, before any
    request or draw."""

    @staticmethod
    def _collects(session):
        plan = ExtractionPlan()
        return {"bit": lambda: session.collect_bit(plan, 0, 0),
                "corner": lambda: session.collect_corner("cache", "hit", 0),
                "value": lambda: session.collect_value(3, 0),
                "aslr": lambda: session.collect_aslr(0, 8, 0)}

    @pytest.mark.parametrize("read", ["bit", "corner", "value", "aslr"])
    def test_collect_refuses_zero(self, read):
        for batched in (True, False):
            a, b = _session(15, LOCAL, batched), _session(15, LOCAL, batched)
            with pytest.raises(ValueError):
                self._collects(a)[read]()
            assert a.total_requests() == 0
            assert _victim_state(a) == _victim_state(b)
            assert a.transport.rng.random() == b.transport.rng.random()
