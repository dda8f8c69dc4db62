"""Extraction-logic tests: calibration, bit decisions, range leaks,
layout derandomization, and value recovery."""

import math
import tracemalloc

import numpy as np
import pytest

from spectrelab import attacker, wire
from spectrelab.attacker import (Calibration, CalibrationError,
                                 ExtractionError, ExtractionPlan, Session,
                                 break_aslr, calibrate, leak_bit, leak_range,
                                 value_threshold_search)
from spectrelab.uarch import SecretStore
from spectrelab.victim import Victim, VictimConfig
from spectrelab.wire import LatencyModel, LoopbackTransport


def make_session(seed=0, batched=True, sigma_ns=0.0, **overrides):
    if sigma_ns:
        overrides.setdefault("latency",
                             LatencyModel(sigma_ns=sigma_ns, name="test"))
    cfg = VictimConfig(**overrides)
    seq = np.random.SeedSequence(seed)
    v_rng, a_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    victim = Victim(cfg, rng=v_rng)
    transport = LoopbackTransport(victim, cfg.latency, a_rng)
    return Session(transport, batched=batched), victim


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractionPlan(channel="dns").validate()
        with pytest.raises(ValueError):
            ExtractionPlan(measurements_per_bit=0).validate()
        with pytest.raises(ValueError):
            ExtractionPlan(reset_bytes=0).validate()
        with pytest.raises(ValueError):
            ExtractionPlan(decision="coin-flip").validate()
        ExtractionPlan().validate()


class TestCalibration:
    def test_noiseless_corner_means(self):
        session, _ = make_session()
        calib = calibrate(session, ExtractionPlan(), n=100)
        assert calib.mean_hit_ns == 2 * 10_000 + 1040 * 0.5
        # the miss corner has a small survivor fraction at p=0.99
        assert calib.mean_miss_ns > calib.threshold_ns > calib.mean_hit_ns

    def test_ordering_enforced(self):
        with pytest.raises(CalibrationError):
            Calibration(mean_hit_ns=200.0, mean_miss_ns=100.0,
                        threshold_ns=150.0, sigma_est_ns=1.0)

    def test_indistinguishable_corners_fail(self):
        # huge noise, tiny n: the 4-sigma gap check must trip
        session, _ = make_session(sigma_ns=1e8)
        with pytest.raises(CalibrationError):
            calibrate(session, ExtractionPlan(), n=10)

    def test_avx_channel_gap(self):
        session, _ = make_session()
        calib = calibrate(session, ExtractionPlan(channel="avx"), n=50)
        # warm/cold gap: 366 cycles at 0.5 ns
        assert math.isclose(calib.mean_miss_ns - calib.mean_hit_ns, 183.0)


class TestLeakBit:
    @pytest.mark.parametrize("channel", ["cache", "avx"])
    @pytest.mark.parametrize("batched", [True, False])
    def test_noiseless_byte_exact(self, channel, batched):
        session, victim = make_session(batched=batched)
        plan = ExtractionPlan(channel=channel, measurements_per_bit=30)
        calib = calibrate(session, plan, n=30)
        start = victim.config.secrets.bitstream_length
        bits = [leak_bit(session, plan, calib, start + i).bit
                for i in range(8)]
        assert bits == [0, 1, 1, 0, 0, 1, 0, 0]     # 'd'

    def test_confidence_infinite_when_clean(self):
        session, victim = make_session()
        plan = ExtractionPlan(measurements_per_bit=30)
        calib = calibrate(session, plan, n=30)
        start = victim.config.secrets.bitstream_length
        read = leak_bit(session, plan, calib, start + 1)   # a 1 bit
        assert read.bit == 1 and read.confidence == math.inf
        read = leak_bit(session, plan, calib, start)       # a 0 bit
        assert read.bit == 0 and read.confidence < 0

    def test_mode_decision_rule(self):
        from spectrelab.stats import HistogramSpec
        session, victim = make_session(sigma_ns=20.0)
        plan = ExtractionPlan(measurements_per_bit=2000, decision="mode",
                              histogram=HistogramSpec(bin_width_ns=10.0))
        calib = calibrate(session, plan, n=2000)
        start = victim.config.secrets.bitstream_length
        assert leak_bit(session, plan, calib, start + 1).bit == 1
        assert leak_bit(session, plan, calib, start).bit == 0

    @pytest.mark.parametrize("keep_samples", [False, True])
    @pytest.mark.parametrize("latency", [
        LatencyModel.preset("local"),                   # 10 us base: clamps
        LatencyModel.preset("local", base_ns=100_000.0,
                            distribution="lognormal")])
    def test_mean_confidence_agrees_with_the_bit(self, latency, keep_samples):
        # under skewed noise (the clamp at 0, or a lognormal tail) the
        # proportion of fast samples leans one way for both bit values, so
        # only the mean's own z carries the decision's sign
        session, victim = make_session(seed=5, latency=latency, secrets=(
            SecretStore.with_secret(b"\x00" * 16, bytes(range(17, 21)))))
        twin, _ = make_session(seed=5, latency=latency, secrets=(
            victim.config.secrets))
        n = 100_000
        plan = ExtractionPlan(measurements_per_bit=n)
        calib = calibrate(session, plan, n=4_000_000)
        calibrate(twin, plan, n=4_000_000)
        start = victim.config.secrets.bitstream_length
        for index in range(start, start + 32):
            read = leak_bit(session, plan, calib, index,
                            keep_samples=keep_samples)
            assert read.confidence != 0
            assert (read.confidence > 0) == (read.bit == 1)
            rtts = twin.collect_bit(plan, index)
            if keep_samples:
                assert np.array_equal(read.rtts_ns, rtts)
            z = (calib.threshold_ns - rtts.mean()) / (rtts.std(ddof=1)
                                                      / math.sqrt(n))
            assert math.isclose(read.confidence, z, rel_tol=1e-9)

    def test_keep_samples(self):
        session, _ = make_session()
        plan = ExtractionPlan(measurements_per_bit=25)
        calib = calibrate(session, plan, n=25)
        read = leak_bit(session, plan, calib, 0, keep_samples=True)
        assert read.rtts_ns is not None and read.rtts_ns.size == 25


class TestLeakRange:
    def test_byte_assembly_and_accounting(self):
        session, victim = make_session()
        start = victim.config.secrets.bitstream_length
        plan = ExtractionPlan(measurements_per_bit=20,
                              target_bit_range=(start, start + 8))
        calib = calibrate(session, plan, n=20)
        before = session.total_requests()
        result = leak_range(session, plan, calib)
        assert result.data == b"d"
        assert result.bits == [0, 1, 1, 0, 0, 1, 0, 0]
        # 10 mistrain + download + leak + transmit per measurement
        assert result.requests_per_bit == 13 * 20
        assert result.requests_total == session.total_requests() - before
        assert result.projected_seconds_per_bit > 0
        assert result.low_confidence_bits == []

    def test_session_counters_match_victim(self):
        session, victim = make_session()
        start = victim.config.secrets.bitstream_length
        plan = ExtractionPlan(measurements_per_bit=15,
                              target_bit_range=(start, start + 8))
        calib = calibrate(session, plan, n=15)
        leak_range(session, plan, calib)
        assert session.counters == victim.counters
        assert session.total_requests() == victim.total_requests()

    def test_slow_path_counters_match_victim_trace(self, tmp_path):
        cfg = VictimConfig()
        log = tmp_path / "trace.log"
        victim = Victim(cfg, seed=0, log_path=str(log))
        session = Session(LoopbackTransport(victim, cfg.latency,
                                            np.random.default_rng(1)),
                          batched=False)
        plan = ExtractionPlan(measurements_per_bit=5,
                              target_bit_range=(128, 130))
        calib = calibrate(session, plan, n=5)
        leak_range(session, plan, calib)
        victim.close()
        lines = log.read_text().splitlines()
        assert len(lines) == session.total_requests() == victim.total_requests()

    def test_projected_rate_uses_packet_cost(self):
        session, victim = make_session()
        start = victim.config.secrets.bitstream_length
        plan = ExtractionPlan(measurements_per_bit=10,
                              target_bit_range=(start, start + 2),
                              projected_packet_ns=1_000_000.0)
        calib = calibrate(session, plan, n=10)
        result = leak_range(session, plan, calib)
        assert math.isclose(result.projected_seconds_per_bit,
                            13 * 10 * 1e-3)
        assert math.isclose(result.projected_bits_per_hour,
                            3600.0 / (13 * 10 * 1e-3))

    def test_empty_range_rejected(self):
        session, _ = make_session()
        plan = ExtractionPlan(target_bit_range=(8, 8))
        calib = Calibration(1.0, 3.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            leak_range(session, plan, calib)

    def test_mitigation_barrier_reads_all_zero(self):
        session, victim = make_session(mitigation_barrier=True)
        start = victim.config.secrets.bitstream_length
        plan = ExtractionPlan(measurements_per_bit=20,
                              target_bit_range=(start, start + 8))
        calib = calibrate(session, plan, n=20)
        result = leak_range(session, plan, calib)
        assert result.bits == [0] * 8


class TestAslr:
    @pytest.mark.parametrize("offset", [0, 1, 777, (1 << 20) - 1])
    def test_noiseless_recovery_in_m_rounds(self, offset):
        session, _ = make_session(valid_aslr_offset=offset)
        result = break_aslr(session, 20, probes_per_check=20)
        assert result.offset == offset
        assert len(result.rounds) == 20

    def test_offset_zero_goes_left_every_round(self):
        session, _ = make_session(valid_aslr_offset=0)
        result = break_aslr(session, 10, probes_per_check=10)
        assert all(r.went_left for r in result.rounds)

    def test_round_log_is_consistent(self):
        session, _ = make_session(valid_aslr_offset=321, aslr_space_bits=12)
        result = break_aslr(session, 12, probes_per_check=10)
        lo, hi = 0, 1 << 12
        for r in result.rounds:
            assert (r.lo, r.hi) == (lo, hi)
            assert r.mid == (lo + hi) // 2
            assert r.attempts >= 1
            lo, hi = (lo, r.mid) if r.went_left else (r.mid, hi)
        assert lo == result.offset

    def test_local_preset_recovery(self):
        session, _ = make_session(seed=5, valid_aslr_offset=654_321,
                                  sigma_ns=15_600.0)
        # calibration runs once and can afford more samples than a check
        calib = calibrate(session, ExtractionPlan(), n=4_000_000,
                          channel="aslr")
        result = break_aslr(session, 20, probes_per_check=1_000_000,
                            calib=calib)
        assert result.offset == 654_321


class TestValueSearch:
    @pytest.mark.parametrize("secret", [0, 1, 42, 12345, (1 << 16) - 1])
    def test_noiseless_recovery_in_k_rounds(self, secret):
        session, _ = make_session(value_secret=secret)
        plan = ExtractionPlan(measurements_per_bit=20)
        calib = calibrate(session, plan, n=20, channel="value")
        result = value_threshold_search(session, 16, plan, calib)
        assert result.value == secret
        assert len(result.rounds) == 16

    def test_binary_search_probe_sequence(self):
        # oracle: textbook binary search for 42 over [0, 255]
        session, _ = make_session(value_secret=42, value_bits=8)
        plan = ExtractionPlan(measurements_per_bit=20)
        calib = calibrate(session, plan, n=20, channel="value")
        result = value_threshold_search(session, 8, plan, calib)
        lo, hi, expected = 0, 255, []
        while lo != hi:
            mid = (lo + hi) // 2
            expected.append(mid)
            if mid < 42:
                lo = mid + 1
            else:
                hi = mid
        assert [r.guess for r in result.rounds] == expected
        assert result.value == 42

    def test_barrier_defeats_search_signal(self):
        session, _ = make_session(value_secret=999, mitigation_barrier=True)
        plan = ExtractionPlan(measurements_per_bit=20)
        calib = calibrate(session, plan, n=20, channel="value")
        result = value_threshold_search(session, 16, plan, calib)
        # every comparison reads "not above": the search collapses to 0
        assert result.value == 0

    # noiseless transmit times of the value channel: 2 x 10 us propagation
    # plus the handler, and an 80 ns penalty when the probe line missed
    HIT_NS = 2 * 10_000 + 1040 * 0.5
    MISS_NS = HIT_NS + 80.0

    def test_noisy_search_survives_offset_threshold(self):
        # sigma 2 us at n = 1000 puts one comparison's mean 63 ns wide of
        # its 40 ns half-gap; the threshold sits two calibration standard
        # errors (8.9 ns) low, so a single comparison on the fast side
        # errs ~31 % of the time and a one-shot search almost never ends
        # on the secret
        n, sigma, corner_n = 1000, 2_000.0, 100_000
        session, _ = make_session(seed=7, sigma_ns=sigma, value_secret=173,
                                  value_bits=8)
        se = sigma / math.sqrt(2 * corner_n)
        calib = Calibration(self.HIT_NS, self.MISS_NS,
                            0.5 * (self.HIT_NS + self.MISS_NS) - 2 * se,
                            sigma, samples_per_corner=corner_n)
        assert calib.threshold_se_ns == pytest.approx(se)
        plan = ExtractionPlan(measurements_per_bit=n)
        result = value_threshold_search(session, 8, plan, calib)
        assert result.value == 173
        assert len(result.rounds) == 8
        assert max(r.comparisons for r in result.rounds) > 1
        assert all((r.confidence > 0) == r.above for r in result.rounds)
        # mistrain x 10, download, compare, transmit per measurement
        assert (sum(r.comparisons for r in result.rounds) * 13 * n
                == result.requests_total)

    def test_calibration_weaker_than_its_error_raises(self):
        # 100 samples per corner at sigma 15.6 us: the threshold's standard
        # error (1.1 us) dwarfs the 40 ns half-gap
        session, _ = make_session(sigma_ns=15_600.0, value_secret=42,
                                  value_bits=8)
        calib = Calibration(self.HIT_NS, self.MISS_NS,
                            0.5 * (self.HIT_NS + self.MISS_NS), 15_600.0,
                            samples_per_corner=100)
        with pytest.raises(ExtractionError):
            value_threshold_search(session, 8,
                                   ExtractionPlan(measurements_per_bit=1000),
                                   calib)
        assert session.total_requests() == 0

    def test_empty_read_raises_before_any_request(self):
        # no measurements per comparison is refused as every empty read is,
        # by the plan's validation, before a request is sent
        session, _ = make_session(sigma_ns=200.0, value_secret=42,
                                  value_bits=8)
        calib = calibrate(session, ExtractionPlan(), n=1000, channel="value")
        sent = session.total_requests()
        with pytest.raises(ValueError):
            value_threshold_search(session, 8,
                                   ExtractionPlan(measurements_per_bit=0), calib)
        assert session.total_requests() == sent

    def test_undecidable_round_raises(self):
        # the threshold sits exactly on the noiseless fast time, so a
        # comparison that runs fast carries no evidence either way
        session, _ = make_session(value_secret=42, value_bits=8)
        calib = Calibration(self.HIT_NS - 40.0, self.HIT_NS + 40.0,
                            self.HIT_NS, 10.0)
        with pytest.raises(ExtractionError, match="undecided"):
            value_threshold_search(session, 8,
                                   ExtractionPlan(measurements_per_bit=20),
                                   calib)


class TestReliabilityMonotone:
    def test_error_rate_decreases_with_n(self):
        # the same noisy victim read with more measurements per bit
        rng_bits = np.random.default_rng(11)
        secret = bytes(rng_bits.integers(0, 256, size=8, dtype=np.uint8))
        bers = []
        for n in (10_000, 100_000, 1_000_000):
            session, victim = make_session(
                seed=3, sigma_ns=15_600.0,
                secrets=SecretStore.with_secret(b"\x00" * 16, secret))
            secrets = victim.config.secrets
            start = secrets.bitstream_length
            plan = ExtractionPlan(measurements_per_bit=n,
                                  target_bit_range=(start, start + 64))
            calib = calibrate(session, plan, n=4_000_000)
            result = leak_range(session, plan, calib)
            truth = [secrets.bit(start + i) for i in range(64)]
            bers.append(np.mean(np.array(result.bits) != np.array(truth)))
        assert bers[0] >= bers[1] >= bers[-1]
        assert bers[-1] <= 0.05


class TestSessionPlumbing:
    def test_nonce_sequencing(self):
        session, _ = make_session()
        r1, _ = session.request(wire.OP_RESET)
        r2, _ = session.request(wire.OP_RESET)
        assert r2.nonce == r1.nonce + 1

    @pytest.mark.parametrize("channel", ["cache", "avx"])
    def test_per_request_noise_stream(self, channel):
        # each request, untimed ones included, draws one normal(0, sigma)
        # from the transport generator, in request order
        sigma = 20.0
        session, victim = make_session(seed=5, batched=False, sigma_ns=sigma)
        _, twin_victim = make_session(seed=5, sigma_ns=sigma)
        twin_rng = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[1])
        plan = ExtractionPlan(channel=channel)
        index = victim.config.secrets.secret_bit_index(1)
        schedule = wire.leak_schedule(channel, index, plan.mistrain_count,
                                      plan.mistrain_index, plan.avx_wait_ns)
        base, ct = victim.config.latency.base_ns, victim.config.cycle_time_ns
        expected = []
        for _ in range(4):
            for op, arg in schedule:
                _, cycles = twin_victim.handle_request(
                    wire.RequestPacket(op, arg))
                rtt = cycles * ct + 2 * base + twin_rng.normal(0.0, sigma)
            expected.append(rtt)
        rtts = session.collect_bit(plan, index, 4)
        assert rtts.tolist() == expected
        assert session.transport.rng.random() == twin_rng.random()

    @pytest.mark.parametrize("channel", ["cache", "avx"])
    def test_instance_hooks_see_every_request(self, channel):
        # per-layer tracing replaces these methods on the instances after
        # the session is built, so each layer must call the next one
        # through its instance attribute
        session, victim = make_session(batched=False, sigma_ns=20.0)
        calls = dict.fromkeys(("session", "transport", "victim", "rtt"), 0)

        def count(label, obj, name):
            inner = getattr(obj, name)

            def counted(*args, **kwargs):
                calls[label] += 1
                return inner(*args, **kwargs)
            setattr(obj, name, counted)

        transport = session.transport
        count("session", session, "request")
        count("transport", transport, "request")
        count("victim", victim, "handle_request")
        count("rtt", transport.latency, "rtt")
        plan = ExtractionPlan(channel=channel)
        session.collect_bit(plan, victim.config.secrets.secret_bit_index(0), 3)
        per_layer = 3 * (plan.mistrain_count + 3)
        assert calls == dict.fromkeys(calls, per_layer)

    @pytest.mark.parametrize("channel", ["cache", "avx"])
    def test_batched_collect_allocates_one_output(self, channel):
        # the batch path writes one float64 per sample and works in
        # fixed-size chunks, so its peak stays near 8 bytes per sample
        session, victim = make_session(seed=3, sigma_ns=15_600.0)
        plan = ExtractionPlan(channel=channel)
        index = victim.config.secrets.secret_bit_index(0)
        n = 1_000_000
        tracemalloc.start()
        try:
            rtts = session.collect_bit(plan, index, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rtts.shape == (n,)
        assert peak <= 12 * n

    @pytest.mark.parametrize("channel", ["cache", "avx"])
    def test_batched_bit_read_holds_no_n_long_array(self, channel):
        # a mean-decided bit streams its round trips one chunk at a time;
        # one 4e6-sample array alone would take 32 MB
        session, victim = make_session(seed=3, sigma_ns=15_600.0)
        plan = ExtractionPlan(channel=channel, measurements_per_bit=4_000_000)
        calib = Calibration(20_000.0, 20_200.0, 20_100.0, 15_600.0)
        index = victim.config.secrets.secret_bit_index(0)
        tracemalloc.start()
        try:
            leak_bit(session, plan, calib, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_proportion_z(self):
        assert attacker.proportion_z(np.array([1.0, 1.0]), 2.0) == math.inf
        assert attacker.proportion_z(np.array([3.0, 3.0]), 2.0) == -math.inf
        z = attacker.proportion_z(np.array([1.0, 3.0, 1.0, 3.0]), 2.0)
        assert z == 0.0


class _Flaky:
    """A transport that times out ``timeouts`` times, then answers each
    request with ``nonce_offset`` added to its nonce; records every send."""

    def __init__(self, timeouts, nonce_offset=0):
        self.timeouts, self.nonce_offset, self.sent = timeouts, nonce_offset, []

    def request(self, packet):
        self.sent.append(packet)
        if self.timeouts:
            self.timeouts -= 1
            raise wire.RequestTimeout("no response")
        response = wire.ResponsePacket(wire.STATUS_OK,
                                       packet[2] + self.nonce_offset)
        return response, 20_000.0


class TestResend:
    def test_a_request_is_resent_until_it_is_answered(self):
        # REQUEST_RETRIES resends, each with the request's own nonce; the
        # request is counted once, when it is answered
        transport = _Flaky(attacker.REQUEST_RETRIES)
        session = Session(transport)
        response, rtt = session.request(wire.OP_RESET)
        assert (response.nonce, rtt) == (1, 20_000.0)
        assert transport.sent == [(wire.OP_RESET, 0, 1)] * 4
        assert session.counters == {wire.OP_RESET: 1}
        session.request(wire.OP_TIMING_FN)      # the next request, a new nonce
        assert transport.sent[-1] == (wire.OP_TIMING_FN, 0, 2)

    def test_a_timeout_past_the_retries_propagates_uncounted(self):
        transport = _Flaky(attacker.REQUEST_RETRIES + 1)
        session = Session(transport)
        with pytest.raises(wire.RequestTimeout):
            session.request(wire.OP_RESET)
        assert len(transport.sent) == attacker.REQUEST_RETRIES + 1
        assert session.total_requests() == 0

    def test_a_reply_to_another_nonce_is_a_wire_error(self):
        session = Session(_Flaky(0, nonce_offset=1))
        with pytest.raises(wire.WireError, match="nonce mismatch"):
            session.request(wire.OP_RESET)


class TestAvxWaitOnTheWire:
    @pytest.mark.parametrize("batched", [True, False])
    def test_fractional_wait_leaves_the_same_clock(self, batched):
        # the wire carries whole ns, so both paths wait 750000 ns
        session, victim = make_session(batched=batched)
        plan = ExtractionPlan(channel="avx", avx_wait_ns=750_000.7)
        reference, ref_victim = make_session(batched=not batched)
        for s in (session, reference):
            s.collect_bit(plan, 0, 5)
            s.collect_corner("avx", "miss", 5, plan)
        assert victim.state.clock.now == ref_victim.state.clock.now
        assert victim.state.avx.last_use_ns == ref_victim.state.avx.last_use_ns
        # ten waits, and 5 x 13 leak plus 5 x 2 corner requests of 1000 ns
        assert victim.state.clock.now == 10 * 750_000 + (5 * 13 + 5 * 2) * 1000


class _CodecTransport:
    """A remote target's view: every request and response is encoded and
    decoded as on the wire; round trips are noiseless."""

    def __init__(self, victim):
        self.victim = victim

    def request(self, packet):
        response, cycles = self.victim.handle_request(
            wire.decode_request(wire.encode_request(packet)))
        rtt = 2 * 10_000.0 + cycles * self.victim.config.cycle_time_ns
        return wire.decode_response(response.encode()), rtt


class TestRemoteLayout:
    def _session(self):
        victim = Victim(VictimConfig(valid_aslr_offset=777,
                                     aslr_space_bits=12), seed=0)
        return Session(_CodecTransport(victim)), victim

    def test_calibration_needs_no_space_size(self):
        session, _ = self._session()
        calib = calibrate(session, ExtractionPlan(), n=5, channel="aslr")
        assert calib.mean_hit_ns == 2 * 10_000 + 1040 * 0.5
        assert calib.mean_miss_ns == 2 * 10_000 + 1200 * 0.5

    def test_break_aslr_calibrates_over_its_space(self):
        session, _ = self._session()
        result = break_aslr(session, 12, probes_per_check=5)
        assert result.offset == 777

    @pytest.mark.parametrize("bits", [-1, 32])
    def test_space_past_the_wire_sends_nothing(self, bits):
        session, victim = self._session()
        with pytest.raises(ValueError):
            break_aslr(session, bits, probes_per_check=5)
        assert victim.total_requests() == 0 == session.total_requests()

    @pytest.mark.parametrize("remote", [True, False])
    @pytest.mark.parametrize("bits", [1, 12, 31])
    def test_corners_cover_every_space(self, bits, remote):
        # the offset sits at the top of the space, next to the miss range
        cfg = VictimConfig(valid_aslr_offset=(1 << bits) - 1,
                           aslr_space_bits=bits)
        if remote:
            session = Session(_CodecTransport(Victim(cfg, seed=0)))
        else:
            session = attacker.loopback_session(cfg, seed=0)
        calib = calibrate(session, ExtractionPlan(), n=5, channel="aslr")
        assert calib.mean_hit_ns == 2 * 10_000 + 1040 * 0.5
        assert calib.mean_miss_ns == 2 * 10_000 + 1200 * 0.5

    @pytest.mark.parametrize("remote", [True, False])
    def test_a_probe_bound_past_32_bits_sends_nothing(self, remote):
        # (0, 2^32) would pack as the empty range [1, 0) and read a miss
        session, victim = self._session()
        if not remote:
            session = attacker.loopback_session(victim.config, seed=0)
            victim = session.transport.victim
        with pytest.raises(ValueError, match=r"outside \[0, 2\^32\)"):
            session.collect_aslr(0, 1 << 32, 5)
        assert victim.total_requests() == 0 == session.total_requests()
        assert victim.state.clock.now == 0

    def test_a_foreign_transport_gets_the_plain_triple(self):
        # every transport is sent the same request: the plain (opcode, arg,
        # nonce) tuple, clock advances included
        sent = []

        class Recording(_CodecTransport):
            def request(self, packet):
                sent.append(packet)
                return super().request(packet)

        session = Session(Recording(Victim(VictimConfig(), seed=0)))
        schedule = wire.leak_schedule("avx", 130, 2, 0, 1_000.0)
        session._collect(schedule, 3)
        assert {type(packet) for packet in sent} == {tuple}
        assert sent == [(op, arg, nonce) for nonce, (op, arg) in
                        enumerate(schedule * 3, start=1)]

    def test_break_recovers_the_top_of_a_31_bit_space(self):
        victim = Victim(VictimConfig(valid_aslr_offset=(1 << 31) - 1,
                                     aslr_space_bits=31), seed=0)
        result = break_aslr(Session(_CodecTransport(victim)), 31,
                            probes_per_check=3)
        assert result.offset == (1 << 31) - 1
        assert len(result.rounds) == 31
