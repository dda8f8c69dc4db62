"""Victim service tests: dispatch, mitigations, trace logging, UDP
serving, and the equivalence of the vectorized batch loops with the
per-request loop."""

import math
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrelab import uarch, wire
from spectrelab.attacker import ExtractionPlan, Session
from spectrelab.uarch import SecretStore
from spectrelab.victim import ConfigError, Victim, VictimConfig
from spectrelab.wire import (LatencyModel, LoopbackTransport, RequestPacket,
                             UDPTransport)


def _victim(seed=0, **overrides):
    cfg = VictimConfig(**overrides)
    return Victim(cfg, seed=seed)


def _req(victim, opcode, arg=0, nonce=0):
    return victim.handle_request(RequestPacket(opcode, arg, nonce))


class TestDispatch:
    def test_transmit_delta_is_160_cycles(self):
        victim = _victim()
        _, miss = _req(victim, wire.OP_TRANSMIT_CACHE)
        _, hit = _req(victim, wire.OP_TRANSMIT_CACHE)
        assert miss - hit == 160
        assert hit == 1000 + 40

    def test_leak_then_transmit_recovers_planted_one(self):
        secrets = SecretStore.with_secret(b"\x00", b"\x80")
        victim = _victim(secrets=secrets)
        for _ in range(10):
            _req(victim, wire.OP_LEAK_CACHE, 0)       # in-bounds training
        _req(victim, wire.OP_DOWNLOAD, 10**9)          # certain eviction
        _req(victim, wire.OP_LEAK_CACHE, 8)            # out-of-bounds 1 bit
        _, cycles = _req(victim, wire.OP_TRANSMIT_CACHE)
        assert cycles == 1000 + 40

    def test_barrier_suppresses_oob_effect(self):
        secrets = SecretStore.with_secret(b"\x00", b"\x80")
        victim = _victim(secrets=secrets, mitigation_barrier=True)
        for _ in range(10):
            _req(victim, wire.OP_LEAK_CACHE, 0)
        _req(victim, wire.OP_DOWNLOAD, 10**9)
        _req(victim, wire.OP_LEAK_CACHE, 8)
        _, cycles = _req(victim, wire.OP_TRANSMIT_CACHE)
        assert cycles == 1000 + 200

    def test_leak_response_time_is_secret_independent(self):
        # the leak request itself must not leak architecturally
        secrets = SecretStore.with_secret(b"\x00", b"\xf0")
        victim = _victim(secrets=secrets)
        for _ in range(4):
            _req(victim, wire.OP_LEAK_CACHE, 0)
        _, c1 = _req(victim, wire.OP_LEAK_CACHE, 8)    # secret bit 1
        _, c0 = _req(victim, wire.OP_LEAK_CACHE, 15)   # secret bit 0
        assert c1 == c0 == 1000

    def test_advance_clock_virtual(self):
        victim = _victim()
        response, _ = _req(victim, wire.OP_ADVANCE_CLOCK, 5000)
        assert response.status == wire.STATUS_OK
        # per-request tick plus the explicit advance
        assert victim.state.clock.now == 1000.0 + 5000.0

    def test_advance_clock_rejected_in_wall_mode(self):
        victim = _victim(clock_mode="wall")
        response, _ = _req(victim, wire.OP_ADVANCE_CLOCK, 5000)
        assert response.status == wire.STATUS_BAD_ARG

    def test_reset_clears_state_keeps_clock(self):
        victim = _victim()
        _req(victim, wire.OP_TRANSMIT_CACHE)
        before = victim.state.clock.now
        _req(victim, wire.OP_RESET)
        assert not victim.state.cache.flag_cached
        assert victim.state.clock.now == before + 1000.0

    def test_counters_and_total(self):
        victim = _victim()
        for _ in range(3):
            _req(victim, wire.OP_TRANSMIT_CACHE)
        _req(victim, wire.OP_RESET)
        assert victim.counters[wire.OP_TRANSMIT_CACHE] == 3
        assert victim.total_requests() == 4

    def test_download_echoes_size(self):
        victim = _victim()
        response, _ = _req(victim, wire.OP_DOWNLOAD, 590_000)
        assert response.payload == 590_000

    def test_mitigation_noise_perturbs_cycles(self):
        victim = _victim(mitigation_noise_sigma_ns=500.0)
        cycles = [_req(victim, wire.OP_RESET)[1] for _ in range(200)]
        assert np.std(cycles) > 0
        assert min(cycles) >= 0.0

    def test_trace_log(self, tmp_path):
        path = tmp_path / "trace.log"
        victim = Victim(VictimConfig(), seed=0, log_path=str(path))
        _req(victim, wire.OP_TRANSMIT_CACHE, 0)
        _req(victim, wire.OP_DOWNLOAD, 77)
        victim.close()
        lines = path.read_text().splitlines()
        assert lines[0].startswith("0x03 0 ")
        assert lines[1].startswith("0x05 77 ")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            VictimConfig(clock_mode="sundial").validate()
        with pytest.raises(ConfigError):
            VictimConfig(valid_aslr_offset=1 << 20).validate()
        with pytest.raises(ConfigError):
            VictimConfig(hit_cycles=200, miss_cycles=200).validate()
        with pytest.raises(ConfigError):
            VictimConfig(value_secret=1 << 16).validate()

    def test_layout_space_fits_the_wire(self):
        # the probe packs [lo, hi) into two 32-bit fields
        for bits in (-1, 32, 40):
            with pytest.raises(ConfigError):
                VictimConfig(aslr_space_bits=bits).validate()
        VictimConfig(aslr_space_bits=0).validate()
        VictimConfig(aslr_space_bits=31,
                     valid_aslr_offset=(1 << 31) - 1).validate()

    def test_per_request_time_is_finite_and_non_negative(self):
        # caught when the victim is built, not at its first request (a
        # negative step) or never (nan, which the clock would keep)
        for step in (-5.0, math.nan):
            with pytest.raises(ConfigError):
                Victim(VictimConfig(per_request_ns=step))
        # the config is read per request, so the clock's guard stays
        victim = _victim()
        victim.config.per_request_ns = -5.0
        with pytest.raises(uarch.ClockError):
            _req(victim, wire.OP_RESET)

    def test_per_request_time_is_whole_ns(self):
        # a batch moves the clock by one sum, a request by one step each;
        # the two agree only while every step is a whole number of ns
        for step in (0.1, 0.5, 0.7, 333.3, math.inf):
            with pytest.raises(ConfigError):
                VictimConfig(per_request_ns=step).validate()
        for step in (0, 5, 1000.0):
            VictimConfig(per_request_ns=step).validate()

    @pytest.mark.parametrize("key", ["hit_cycles", "miss_cycles",
                                     "warm_cycles", "max_penalty_cycles",
                                     "handler_cycles"])
    def test_cycle_counts_fit_a_float64(self, key):
        # a gadget's cycles are floats, which hold every whole number up to
        # 2^53 in size exactly; past that, 1e400 cannot be converted at all
        for value in (2**53 + 1, -(2**53 + 1), 10**400):
            with pytest.raises(ConfigError, match=r"2\^53"):
                VictimConfig(**{key: value}).validate()
        limit = -2**53 if key == "hit_cycles" else 2**53
        VictimConfig(**{key: limit}).validate()


class TestDatagrams:
    def test_empty_datagram_dropped(self):
        assert _victim().handle_datagram(b"") is None

    def test_bad_opcode_reply(self):
        victim = _victim()
        raw = struct.pack("<BQQ", 0xEE, 0, 555)
        reply = wire.decode_response(victim.handle_datagram(raw))
        assert reply.status == wire.STATUS_BAD_OPCODE
        assert reply.nonce == 555

    def test_round_trip(self):
        victim = _victim()
        raw = RequestPacket(wire.OP_RESET, 0, 9).encode()
        reply = wire.decode_response(victim.handle_datagram(raw))
        assert reply == wire.ResponsePacket(wire.STATUS_OK, 9, 0)


class TestWallClock:
    def test_wall_clock_advances_with_real_time(self):
        victim = _victim(clock_mode="wall")
        _req(victim, wire.OP_RESET)
        t1 = victim.state.clock.now
        time.sleep(0.005)
        _req(victim, wire.OP_RESET)
        assert victim.state.clock.now - t1 >= 4e6   # >= 4 ms in ns

    def test_wall_clock_avx_decay_via_sleep(self):
        victim = _victim(clock_mode="wall")
        _, warm_up = _req(victim, wire.OP_TRANSMIT_AVX)
        _, warm = _req(victim, wire.OP_TRANSMIT_AVX)
        time.sleep(0.002)                            # 2 ms > full decay
        _, cold = _req(victim, wire.OP_TRANSMIT_AVX)
        assert warm == 1000 + 210
        assert cold == 1000 + 210 + 366


class TestUdpServer:
    def test_udp_smoke_many_random_packets(self):
        cfg = VictimConfig()
        victim = Victim(cfg, seed=0)
        shutdown = threading.Event()
        ready = threading.Event()
        port = 43217
        thread = threading.Thread(
            target=victim.serve_udp,
            kwargs=dict(port=port, host="127.0.0.1", shutdown_event=shutdown,
                        ready_event=ready), daemon=True)
        thread.start()
        assert ready.wait(5.0)
        try:
            transport = UDPTransport("127.0.0.1", port, timeout_s=5.0)
            session = Session(transport)
            rng = np.random.default_rng(0)
            ops = sorted(wire.VALID_OPCODES)
            for i in range(2000):
                op = ops[rng.integers(len(ops))]
                arg = int(rng.integers(0, 1 << 20))
                response, rtt = session.request(op, arg)
                assert response.status in (wire.STATUS_OK,
                                           wire.STATUS_BAD_ARG)
                assert rtt > 0
            transport.close()
        finally:
            shutdown.set()
            thread.join(5.0)
        assert victim.total_requests() >= 2000


class _Pair:
    """Two identically seeded victims, one driven per-request and one in
    batch mode, plus sessions for both."""

    def __init__(self, seed=7, **overrides):
        overrides.setdefault("latency", LatencyModel.noiseless())
        self.cfg_a = VictimConfig(**overrides)
        self.cfg_b = VictimConfig(**overrides)
        self.va = Victim(self.cfg_a, seed=seed)
        self.vb = Victim(self.cfg_b, seed=seed)
        self.slow = Session(LoopbackTransport(self.va, self.cfg_a.latency,
                                              np.random.default_rng(1)),
                            batched=False)
        self.batch = Session(LoopbackTransport(self.vb, self.cfg_b.latency,
                                               np.random.default_rng(1)),
                             batched=True)

    def assert_state_matches(self):
        assert self.va.counters == self.vb.counters
        assert self.va.state.clock.now == self.vb.state.clock.now
        assert self.va.state.cache.flag_cached == self.vb.state.cache.flag_cached
        assert self.va.state.cache.flag_value == self.vb.state.cache.flag_value
        assert self.va.state.avx.last_use_ns == self.vb.state.avx.last_use_ns
        assert self.va.state.predictor.counters == self.vb.state.predictor.counters
        # identical rng consumption
        assert self.va.rng.random() == self.vb.rng.random()


SECRETS = SecretStore.with_secret(b"\x00" * 2, b"\x96")   # 10010110


class TestBatchEquivalence:
    @pytest.mark.parametrize("bit", range(8))
    def test_cache_leak_bit_exact(self, bit):
        pair = _Pair(secrets=SECRETS)
        plan = ExtractionPlan(channel="cache", mistrain_count=10)
        index = SECRETS.secret_bit_index(bit)
        a = pair.slow.collect_bit(plan, index, n=60)
        b = pair.batch.collect_bit(plan, index, n=60)
        assert (a == b).all()
        pair.assert_state_matches()

    @pytest.mark.parametrize("bit", [0, 1])
    def test_avx_leak_bit_exact(self, bit):
        pair = _Pair(secrets=SECRETS)
        plan = ExtractionPlan(channel="avx", mistrain_count=10)
        index = SECRETS.secret_bit_index(bit)
        a = pair.slow.collect_bit(plan, index, n=40)
        b = pair.batch.collect_bit(plan, index, n=40)
        assert (a == b).all()
        pair.assert_state_matches()

    def test_avx_back_to_back_batches(self):
        # iteration-0 of the second batch must see the first batch's state
        pair = _Pair(secrets=SECRETS)
        plan = ExtractionPlan(channel="avx")
        for bit in (0, 1, 0):
            index = SECRETS.secret_bit_index(bit)
            a = pair.slow.collect_bit(plan, index, n=5)
            b = pair.batch.collect_bit(plan, index, n=5)
            assert (a == b).all()
        pair.assert_state_matches()

    def test_warm_mistrain_index_cache(self):
        # training on an in-bounds 1 bit caches the variable architecturally
        secrets = SecretStore(bytes([0b10000000, 0b01000000]) + b"\x0f",
                              bitstream_length=16)
        pair = _Pair(secrets=secrets)
        plan = ExtractionPlan(channel="cache", mistrain_index=0)
        a = pair.slow.collect_bit(plan, 16, n=50)
        b = pair.batch.collect_bit(plan, 16, n=50)
        assert (a == b).all()
        pair.assert_state_matches()

    def test_warm_mistrain_index_avx(self):
        secrets = SecretStore(bytes([0b10000000]) + b"\x0f",
                              bitstream_length=8)
        pair = _Pair(secrets=secrets)
        plan = ExtractionPlan(channel="avx", mistrain_index=0)
        a = pair.slow.collect_bit(plan, 8, n=30)
        b = pair.batch.collect_bit(plan, 8, n=30)
        assert (a == b).all()
        pair.assert_state_matches()

    @pytest.mark.parametrize("guess,secret", [(0, 0), (5, 10), (10, 10),
                                              (9, 10), (0, 1)])
    def test_value_cmp_bit_exact(self, guess, secret):
        pair = _Pair(value_secret=secret)
        plan = ExtractionPlan()
        a = pair.slow.collect_value(guess, 50, plan)
        b = pair.batch.collect_value(guess, 50, plan)
        assert (a == b).all()
        pair.assert_state_matches()

    @pytest.mark.parametrize("lo,hi,offset", [(0, 512, 100), (512, 1024, 100),
                                              (0, 1, 0), (100, 101, 100)])
    def test_aslr_check_bit_exact(self, lo, hi, offset):
        pair = _Pair(valid_aslr_offset=offset, aslr_space_bits=10)
        a = pair.slow.collect_aslr(lo, hi, 40)
        b = pair.batch.collect_aslr(lo, hi, 40)
        assert (a == b).all()
        pair.assert_state_matches()

    @pytest.mark.parametrize("channel", ["cache", "avx", "aslr"])
    @pytest.mark.parametrize("corner", ["hit", "miss"])
    def test_corners_bit_exact(self, channel, corner):
        pair = _Pair()
        a = pair.slow.collect_corner(channel, corner, 40)
        b = pair.batch.collect_corner(channel, corner, 40)
        assert (a == b).all()
        pair.assert_state_matches()

    def test_mixed_schedule_stays_aligned(self):
        # interleave channels; any hidden state drift breaks later batches
        pair = _Pair(secrets=SECRETS, value_secret=77)
        plan_c = ExtractionPlan(channel="cache")
        plan_a = ExtractionPlan(channel="avx")
        idx = SECRETS.secret_bit_index
        for args in [("bit", plan_c, idx(3)), ("corner", None, None),
                     ("bit", plan_a, idx(4)), ("value", None, None),
                     ("bit", plan_c, idx(0))]:
            kind = args[0]
            if kind == "bit":
                a = pair.slow.collect_bit(args[1], args[2], n=20)
                b = pair.batch.collect_bit(args[1], args[2], n=20)
            elif kind == "corner":
                a = pair.slow.collect_corner("cache", "miss", 20)
                b = pair.batch.collect_corner("cache", "miss", 20)
            else:
                a = pair.slow.collect_value(40, 20)
                b = pair.batch.collect_value(40, 20)
            assert (a == b).all()
        pair.assert_state_matches()

    def test_cache_leak_across_chunk_boundary(self):
        # a fresh victim's flag starts uncached, so iteration 0 misses; a
        # small download evicts rarely, so that miss stands out
        pair = _Pair(secrets=SECRETS)
        plan = ExtractionPlan(channel="cache", mistrain_count=2,
                              reset_bytes=10_000)
        index = SECRETS.secret_bit_index(1)          # a 0 bit: no fill
        a = pair.slow.collect_bit(plan, index, n=wire.CHUNK + 1)
        b = pair.batch.collect_bit(plan, index, n=wire.CHUNK + 1)
        assert a[0] == a.max() > np.median(a)
        assert (a == b).all()
        pair.assert_state_matches()

    def test_value_cmp_across_chunk_boundary(self):
        pair = _Pair(value_secret=10)
        plan = ExtractionPlan(mistrain_count=2, reset_bytes=10_000)
        a = pair.slow.collect_value(10, wire.CHUNK + 1, plan)   # never fires
        b = pair.batch.collect_value(10, wire.CHUNK + 1, plan)
        assert a[0] == a.max() > np.median(a)
        assert (a == b).all()
        pair.assert_state_matches()

    def test_cache_batch_evicts_cached_layout_offset(self):
        # a download that evicts the flag evicts a cached layout offset too
        pair = _Pair(valid_aslr_offset=5, aslr_space_bits=6)
        for session in (pair.slow, pair.batch):
            for lo, hi in ((0, 0), (0, 0), (0, 64)):    # train twice, probe
                session.request(wire.OP_ASLR_PROBE, (lo << 32) | hi)
        assert pair.vb.state.cache.aslr_cached_offset == 5
        a = pair.slow.collect_value(0, 3)
        b = pair.batch.collect_value(0, 3)
        assert (a == b).all()
        assert (pair.va.state.cache.aslr_cached_offset
                == pair.vb.state.cache.aslr_cached_offset is None)
        a = pair.slow.collect_aslr(10, 20, 2)       # does not cover 5: misses
        b = pair.batch.collect_aslr(10, 20, 2)
        assert a.tolist() == b.tolist() == [20600.0, 20600.0]
        pair.assert_state_matches()

    @pytest.mark.parametrize("reset_bytes", [1, 100])
    def test_cached_layout_offset_skips_to_the_eviction(self, reset_bytes):
        # while a layout offset stays cached the state has not settled, so
        # the batch steps every iteration up to the first eviction: at 1
        # byte none of the 20000 downloads evicts, at 100 bytes one does
        pair = _Pair(valid_aslr_offset=5)
        for session in (pair.slow, pair.batch):
            for lo, hi in ((0, 0), (0, 0), (0, 16)):    # train twice, probe
                session.request(wire.OP_ASLR_PROBE, (lo << 32) | hi)
        plan = ExtractionPlan(reset_bytes=reset_bytes)
        a = pair.slow.collect_value(0, 20_000, plan)
        b = pair.batch.collect_value(0, 20_000, plan)
        assert a.tolist() == b.tolist()
        assert pair.slow.counters == pair.batch.counters
        assert (pair.va.state.cache.aslr_cached_offset
                == pair.vb.state.cache.aslr_cached_offset
                == (5 if reset_bytes == 1 else None))
        assert pair.slow.transport.rng.random() == pair.batch.transport.rng.random()
        pair.assert_state_matches()

    def test_cache_leak_of_in_bounds_set_bit(self):
        # the architectural access of an in-bounds 1 bit sets the variable
        secrets = SecretStore(bytes([0b01000000]) + b"\x0f", bitstream_length=8)
        pair = _Pair(secrets=secrets)
        plan = ExtractionPlan(channel="cache", mistrain_index=0)
        a = pair.slow.collect_bit(plan, 1, n=3)
        b = pair.batch.collect_bit(plan, 1, n=3)
        assert (a == b).all()
        assert pair.vb.state.cache.flag_value
        pair.assert_state_matches()

    def test_batch_requires_virtual_clock(self):
        victim = _victim(clock_mode="wall")
        with pytest.raises(ConfigError):
            victim.batch_leak_cache(0, 10)

    def test_batch_rejects_bad_sizes(self):
        victim = _victim()
        with pytest.raises(ValueError):
            victim.batch_leak_cache(0, 0)


_RESET_BYTES = (10_000, uarch.THRASH_REFERENCE_BYTES)


@st.composite
def _raw_request(draw):
    """One request of any opcode, with an argument that exercises it."""
    op = draw(st.sampled_from(sorted(wire.VALID_OPCODES)))
    if op in (wire.OP_LEAK_CACHE, wire.OP_LEAK_AVX, wire.OP_VALUE_CMP):
        arg = draw(st.integers(0, 15))
    elif op == wire.OP_DOWNLOAD:
        arg = draw(st.sampled_from(_RESET_BYTES))
    elif op == wire.OP_ASLR_PROBE:
        arg = (draw(st.integers(0, 64)) << 32) | draw(st.integers(0, 64))
    elif op == wire.OP_ADVANCE_CLOCK:
        arg = draw(st.integers(0, 2_000_000))
    else:
        arg = 0
    return op, arg


class TestBatchEquivalenceRandomized:
    """Batched against per-request over drawn configs, prior states and
    loops, bit-exact over a noiseless transport.  The training index may
    be out of bounds and a loop may train only once.  Mitigation noise
    stays off: the per-request loop draws one victim normal per request, a
    batch one per timed request, so their draws cannot match."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.data())
    def test_collect_matches_per_request(self, data):
        draw = data.draw
        public, secret = draw(st.integers(0, 255)), draw(st.integers(0, 255))
        pair = _Pair(secrets=SecretStore(bytes([public, secret]),
                                         bitstream_length=8),
                     mitigation_barrier=draw(st.booleans()),
                     value_secret=draw(st.integers(0, 15)),
                     valid_aslr_offset=draw(st.integers(0, 63)),
                     aslr_space_bits=6)
        kind = draw(st.sampled_from(["cache", "avx", "value", "aslr",
                                     "corner"]))
        plan = ExtractionPlan(channel="avx" if kind == "avx" else "cache",
                              mistrain_count=draw(st.integers(1, 5)),
                              mistrain_index=draw(st.integers(0, 15)),
                              reset_bytes=draw(st.sampled_from(_RESET_BYTES)))
        prefix = draw(st.lists(_raw_request(), max_size=30))
        n = draw(st.integers(1, 12))
        if kind in ("cache", "avx"):
            index = draw(st.integers(0, 15))            # in or out of bounds
            collect = lambda s: s.collect_bit(plan, index, n)
        elif kind == "value":
            guess = draw(st.integers(0, 15))
            collect = lambda s: s.collect_value(guess, n, plan)
        elif kind == "aslr":
            lo, hi = draw(st.integers(0, 64)), draw(st.integers(0, 64))
            collect = lambda s: s.collect_aslr(lo, hi, n, plan.mistrain_count)
        else:
            channel = draw(st.sampled_from(["cache", "value", "avx", "aslr"]))
            corner = draw(st.sampled_from(["hit", "miss"]))
            collect = lambda s: s.collect_corner(channel, corner, n, plan)

        outs = []
        for session in (pair.slow, pair.batch):
            for op, arg in prefix:
                session.request(op, arg)
            outs.append(collect(session).tolist())
        assert outs[0] == outs[1]
        assert pair.slow.counters == pair.batch.counters
        assert (pair.va.state.cache.aslr_cached_offset
                == pair.vb.state.cache.aslr_cached_offset)
        assert pair.slow.transport.rng.random() == pair.batch.transport.rng.random()
        pair.assert_state_matches()


_DOWNLOAD = st.tuples(st.just(wire.OP_DOWNLOAD), st.integers(0, 2_000_000))


@st.composite
def _batch_schedule(draw):
    """Raw requests with any number of clock advances, the timed request
    last (a measuring one, or any, or one the victim refuses), and up to
    two downloads of any size anywhere, the timed request included: a
    batch runs one and refuses two."""
    timed = st.sampled_from([(op, 0) for op in (
        wire.OP_TRANSMIT_CACHE, wire.OP_TRANSMIT_AVX, wire.OP_TIMING_FN, 0x7F)])
    other = _raw_request().filter(lambda r: r[0] != wire.OP_DOWNLOAD)
    schedule = draw(st.lists(other, max_size=7))
    schedule.append(draw(st.one_of(timed, other)))
    for _ in range(draw(st.sampled_from((1, 1, 1, 0, 2)))):   # mostly one
        schedule.insert(draw(st.integers(0, len(schedule))), draw(_DOWNLOAD))
    return schedule


@st.composite
def _timing(draw):
    """Timing constants of a valid victim; per_request_ns is whole ns."""
    hit, start = draw(st.integers(0, 300)), draw(st.floats(0.0, 2e6))
    return dict(cycle_time_ns=draw(st.floats(0.05, 2.0)), hit_cycles=hit,
                miss_cycles=hit + draw(st.integers(1, 300)),
                warm_cycles=draw(st.integers(0, 400)),
                max_penalty_cycles=draw(st.integers(0, 600)),
                decay_start_ns=start,
                decay_end_ns=start + draw(st.floats(1.0, 2e6)),
                thrash_lambda=draw(st.floats(1e3, 1e6)),
                handler_cycles=draw(st.integers(0, 2000)),
                per_request_ns=float(draw(st.integers(0, 500_000))))


def _compare_collect(a, b):
    assert a.tolist() == b.tolist()


def _compare_sample_moments(a, b):
    assert a == b              # the same chunks, reduced the same way


def _compare_drawn_moments(a, b):
    # batched, reduced from the draws; per request, from the round trips
    assert abs(a[0] - b[0]) <= np.spacing(b[0])
    assert a[1] == pytest.approx(b[1], rel=1e-9, abs=1e-9)


def _compare_moments(a, b):
    # batched, the victim's moments; per request, the round trips' read
    assert a[0] == pytest.approx(b[0], rel=1e-12)
    assert a[1] == pytest.approx(b[1], rel=1e-9, abs=1e-9)


# read entry -> how its batched read must compare with its per-request read
_READS = {"_collect": _compare_collect,
          "sample_moments": _compare_sample_moments,
          "drawn_moments": _compare_drawn_moments,
          "moments": _compare_moments}


class TestBatchEngineFuzz:
    """Every read entry, batched against per request, over drawn timing
    constants, prior states and schedules from a grammar of raw requests,
    across chunk boundaries (wire.CHUNK of 3 to 8), over a noiseless
    transport.  Mitigation noise stays off, as in
    TestBatchEquivalenceRandomized."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_reads_match_per_request(self, data):
        draw = data.draw
        public, secret = draw(st.integers(0, 255)), draw(st.integers(0, 255))
        pair = _Pair(secrets=SecretStore(bytes([public, secret]),
                                         bitstream_length=8),
                     mitigation_barrier=draw(st.booleans()),
                     value_secret=draw(st.integers(0, 15)),
                     valid_aslr_offset=draw(st.integers(0, 63)),
                     aslr_space_bits=6, **draw(_timing()))
        prefix = draw(st.lists(_raw_request(), max_size=20))
        if draw(st.booleans()):   # train twice and probe: an offset cached
            prefix += [(wire.OP_ASLR_PROBE, 0)] * 2 + [(wire.OP_ASLR_PROBE, 64)]
        chunk = draw(st.integers(3, 8))
        reads = draw(st.lists(st.tuples(
            st.sampled_from(sorted(_READS)), _batch_schedule(),
            st.integers(1, 3 * chunk + 1)), min_size=1, max_size=3))
        for session in (pair.slow, pair.batch):
            for op, arg in prefix:
                session.request(op, arg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wire, "CHUNK", chunk)
            for entry, schedule, n in reads:
                if sum(op == wire.OP_DOWNLOAD for op, _ in schedule) > 1:
                    before = _untouched(pair.batch)
                    with pytest.raises(ValueError, match="one download"):
                        getattr(pair.batch, entry)(schedule, n)
                    assert _untouched(pair.batch) == before
                    continue
                slow, batch = (getattr(s, entry)(schedule, n)
                               for s in (pair.slow, pair.batch))
                _READS[entry](batch, slow)
                assert pair.slow.counters == pair.batch.counters
                assert (pair.va.state.cache.aslr_cached_offset
                        == pair.vb.state.cache.aslr_cached_offset)
                assert (pair.slow.transport.rng.random()
                        == pair.batch.transport.rng.random())
                pair.assert_state_matches()


def _untouched(session):
    """Both request counters, the victim's clock and state, and both
    generators' states: what a refused read must leave as it was."""
    v = session.transport.victim
    return (sorted(session.counters.items()), sorted(v.counters.items()),
            v._snapshot(), v.rng.bit_generator.state,
            session.transport.rng.bit_generator.state)


# two downloads in one iteration: one eviction draw per iteration cannot
# run it, so every batched entry refuses it
TWO_DOWNLOADS = [(wire.OP_TRANSMIT_CACHE, 0), (wire.OP_DOWNLOAD, 300_000),
                 (wire.OP_DOWNLOAD, 590_000), (wire.OP_TRANSMIT_CACHE, 0)]
BATCH_ENTRIES = {
    "_collect": lambda s, n: s._collect(TWO_DOWNLOADS, n),
    "sample_moments": lambda s, n: s.sample_moments(TWO_DOWNLOADS, n),
    "moments": lambda s, n: s.moments(TWO_DOWNLOADS, n),
    "drawn_moments": lambda s, n: s.drawn_moments(TWO_DOWNLOADS, n),
    "stream": lambda s, n: list(s.transport.victim.stream(TWO_DOWNLOADS, n)),
    "run_moments": lambda s, n: s.transport.victim.run_moments(TWO_DOWNLOADS,
                                                               n),
}


@pytest.mark.parametrize("entry", BATCH_ENTRIES)
def test_batch_refuses_two_downloads(entry):
    # a Gaussian transport whose reads reduce, so a refusal after the first
    # eviction or noise draw would show in a generator
    pair = _Pair(seed=1, latency=LatencyModel(base_ns=100_000.0, sigma_ns=20.0))
    before = _untouched(pair.batch)
    with pytest.raises(ValueError, match="at most one download"):
        BATCH_ENTRIES[entry](pair.batch, 2000)
    assert _untouched(pair.batch) == before
    # the per-request path runs it
    assert pair.slow._collect(TWO_DOWNLOADS, 2000).shape == (2000,)
    assert pair.slow.counters[wire.OP_DOWNLOAD] == 4000


# a clock advance of 2.5 ns: the wire carries whole ns, so every entry
# refuses it, batched here and per request below
HALF_NS = [(wire.OP_ADVANCE_CLOCK, 2.5), (wire.OP_TRANSMIT_AVX, 0)]
HALF_NS_ENTRIES = {
    "_collect": lambda s, n: s._collect(HALF_NS, n),
    "sample_moments": lambda s, n: s.sample_moments(HALF_NS, n),
    "moments": lambda s, n: s.moments(HALF_NS, n),
    "drawn_moments": lambda s, n: s.drawn_moments(HALF_NS, n),
    "stream": lambda s, n: list(s.transport.victim.stream(HALF_NS, n)),
    "run_moments": lambda s, n: s.transport.victim.run_moments(HALF_NS, n),
}


@pytest.mark.parametrize("entry", HALF_NS_ENTRIES)
def test_batch_refuses_a_fractional_clock_advance(entry):
    pair = _Pair(seed=1, latency=LatencyModel(base_ns=100_000.0, sigma_ns=20.0))
    before = _untouched(pair.batch)
    with pytest.raises(ValueError, match="whole ns"):
        HALF_NS_ENTRIES[entry](pair.batch, 3)
    assert _untouched(pair.batch) == before
    # a whole advance, float or not, runs
    for advance in (2, 2.0):
        schedule = [(wire.OP_ADVANCE_CLOCK, advance), (wire.OP_TRANSMIT_AVX, 0)]
        assert pair.batch._collect(schedule, 3).shape == (3,)


# every batched read entry, on any schedule
BATCHED_READS = {
    "_collect": lambda s, schedule, n: s._collect(schedule, n),
    "sample_moments": lambda s, schedule, n: s.sample_moments(schedule, n),
    "moments": lambda s, schedule, n: s.moments(schedule, n),
    "drawn_moments": lambda s, schedule, n: s.drawn_moments(schedule, n),
    "stream": lambda s, schedule, n: list(s.transport.victim.stream(schedule,
                                                                    n)),
    "run_moments": lambda s, schedule, n: s.transport.victim.run_moments(
        schedule, n),
}


@pytest.mark.parametrize("entry", BATCHED_READS)
def test_batch_refuses_a_negative_download(entry):
    # the download's eviction chance is found with the refusals, before the
    # batch counts, steps the predictor or draws
    schedule = wire.value_schedule(5, 10, -5)
    pair = _Pair(seed=1, latency=LatencyModel(base_ns=100_000.0, sigma_ns=20.0))
    before = _untouched(pair.batch)
    with pytest.raises(ValueError, match="negative transfer size"):
        BATCHED_READS[entry](pair.batch, schedule, 100)
    assert _untouched(pair.batch) == before


@pytest.mark.parametrize("entry", BATCHED_READS)
def test_batch_refuses_a_negative_clock_advance(entry):
    # refused with the fractional one, on either path (per request below),
    # before the batch counts, steps a trial or draws
    schedule = [(wire.OP_ADVANCE_CLOCK, -5), (wire.OP_TRANSMIT_AVX, 0)]
    pair = _Pair(seed=1, latency=LatencyModel(base_ns=100_000.0, sigma_ns=20.0))
    before = _untouched(pair.batch)
    with pytest.raises(ValueError, match="whole ns"):
        BATCHED_READS[entry](pair.batch, schedule, 100)
    assert _untouched(pair.batch) == before


# schedules the wire cannot carry, each with the refusal it meets
UNCARRIED = {
    "negative download": (wire.value_schedule(5, 10, -5),
                          "negative transfer size"),
    "negative advance": ([(wire.OP_ADVANCE_CLOCK, -5),
                          (wire.OP_TRANSMIT_AVX, 0)], "whole ns"),
    "fractional advance": (HALF_NS, "whole ns"),
}


@pytest.mark.parametrize("uncarried", UNCARRIED)
@pytest.mark.parametrize("entry", ["_collect", "sample_moments", "moments",
                                   "drawn_moments"])
def test_per_request_refuses_what_the_wire_cannot_carry(entry, uncarried):
    # a per-request read runs the batch's rule, before its first request:
    # no request is sent, counted or timed, and the clock does not move
    schedule, message = UNCARRIED[uncarried]
    pair = _Pair(seed=1, latency=LatencyModel(base_ns=100_000.0, sigma_ns=20.0))
    before = _untouched(pair.slow)
    with pytest.raises(ValueError, match=message):
        BATCHED_READS[entry](pair.slow, schedule, 100)
    assert _untouched(pair.slow) == before


class _CodecLoopback(LoopbackTransport):
    """A loopback that sends every request through its frame, as a remote
    target's transport does; sessions drive it one request at a time."""

    def request(self, packet):
        return super().request(wire.decode_request(wire.encode_request(packet)))


def _three_paths(**overrides):
    """Identically seeded sessions on the three read paths: batched,
    per-request loopback, and per request through the codec."""
    pair = _Pair(seed=1, **overrides)
    victim = Victim(VictimConfig(**overrides), seed=1)
    codec = Session(_CodecLoopback(victim, victim.config.latency,
                                   np.random.default_rng(1)), batched=False)
    return {"batched": pair.batch, "per request": pair.slow, "codec": codec}


# schedules carrying an arg no request frame carries
UNFRAMED = {
    "arg of 2^64": wire.leak_schedule("cache", 1 << 64, 10, 0, 590_000),
    "leak index -1": wire.leak_schedule("cache", -1, 10, 0, 590_000),
    "leak index 5.0": [(wire.OP_LEAK_CACHE, 5.0), (wire.OP_TRANSMIT_CACHE, 0)],
}


@pytest.mark.parametrize("unframed", UNFRAMED)
@pytest.mark.parametrize("entry", ["_collect", "sample_moments", "moments",
                                   "drawn_moments"])
def test_every_path_refuses_an_arg_no_frame_carries(entry, unframed):
    # one admission (wire.schedule_counts) on all three paths, with one
    # error, before any request, count, trial step or draw; on loopback the
    # victim would wrap such an index, and the codec would refuse it only
    # at its first send
    sessions = _three_paths(latency=LatencyModel(base_ns=100_000.0,
                                                 sigma_ns=20.0))
    for session in sessions.values():
        before = _untouched(session)
        with pytest.raises(ValueError, match=r"not an integer in \[0, 2\^64\)"):
            BATCHED_READS[entry](session, UNFRAMED[unframed], 100)
        assert _untouched(session) == before
    # the largest arg a frame carries runs on every path alike
    schedule = wire.leak_schedule("cache", (1 << 64) - 1, 10, 0, 590_000)
    reads = [BATCHED_READS[entry](s, schedule, 3) for s in sessions.values()]
    counts = [s.counters for s in sessions.values()]
    assert counts[0] == counts[1] == counts[2] != {}
    if entry == "_collect":    # the two per-request paths draw alike
        assert reads[1].tolist() == reads[2].tolist()


# the entries that take an out array, and the schedule their reads run
_VALUE_READ = wire.value_schedule(5, 10, 590_000)
OUT_ENTRIES = {
    "Session._rtts": lambda s, out: list(s._rtts(_VALUE_READ, 10, out)),
    "Session.drawn_moments": lambda s, out: s.drawn_moments(_VALUE_READ, 10,
                                                            out),
    "Victim.stream": lambda s, out: list(s.transport.victim.stream(
        _VALUE_READ, 10, out)),
    "Victim.evictions": lambda s, out: list(s.transport.victim.evictions(
        _VALUE_READ, 10, out)),
}


@pytest.mark.parametrize("shape", [(100,), (5,), (10, 1)])
@pytest.mark.parametrize("entry", OUT_ENTRIES)
def test_out_of_another_shape_is_refused(entry, shape):
    pair = _Pair(seed=1, latency=LatencyModel(base_ns=100_000.0, sigma_ns=20.0))
    for session in (pair.batch, pair.slow):
        before = _untouched(session)
        with pytest.raises(ValueError, match="out has shape"):
            OUT_ENTRIES[entry](session, np.zeros(shape))
        assert _untouched(session) == before
    # the same read into an out of shape (n,) runs
    OUT_ENTRIES[entry](pair.batch, np.zeros(10))
    assert pair.batch.transport.victim.counters[wire.OP_DOWNLOAD] == 10


def test_a_zero_read_is_refused_by_the_one_admission():
    # n < 1 is the schedule rule's to refuse, for a session and a victim
    with pytest.raises(ValueError, match="at least one measurement"):
        wire.schedule_counts([(wire.OP_TRANSMIT_CACHE, 0)], 0)
    pair = _Pair(seed=1)
    for read in (lambda: pair.batch._collect(_VALUE_READ, 0),
                 lambda: pair.slow._collect(_VALUE_READ, 0),
                 lambda: list(pair.vb.stream(_VALUE_READ, 0)),
                 lambda: pair.vb.run_moments(_VALUE_READ, 0)):
        before = _untouched(pair.batch), _untouched(pair.slow)
        with pytest.raises(ValueError, match="at least one measurement"):
            read()
        assert (_untouched(pair.batch), _untouched(pair.slow)) == before


@pytest.mark.parametrize("entry", ["stream", "evictions"])
def test_an_abandoned_batch_is_charged_whole(entry):
    # a settled AVX bit read over four chunks, abandoned after its first
    # view, has moved the counters, clock and SIMD unit as a drained one
    schedule = wire.leak_schedule("avx", SECRETS.secret_bit_index(0), 10, 0,
                                  1_000_000)
    abandoned, drained = (Victim(VictimConfig(secrets=SECRETS), seed=3)
                          for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wire, "CHUNK", 8)
        next(getattr(abandoned, entry)(schedule, 3 * 8 + 1))
        views = list(getattr(drained, entry)(schedule, 3 * 8 + 1))
    assert len(views) == 4
    assert abandoned.counters == drained.counters
    assert abandoned.state.clock.now == drained.state.clock.now
    assert abandoned.state.avx.last_use_ns == drained.state.avx.last_use_ns
    assert drained.state.avx.last_use_ns is not None


def test_an_abandoned_read_charges_its_session():
    # the session is charged with its victim, when the batch settles, so a
    # round-trip read stopped after its first view leaves both counters as
    # a drained read does
    schedule = wire.leak_schedule("avx", 130, 10, 0, 1_000_000)
    abandoned, drained = (_Pair(seed=3).batch for _ in range(2))
    next(abandoned._rtts(schedule, 3 * wire.CHUNK))
    for _ in drained._rtts(schedule, 3 * wire.CHUNK):
        pass
    assert abandoned.counters == drained.counters
    assert (abandoned.transport.victim.counters
            == drained.transport.victim.counters)
    assert abandoned.total_requests() == len(schedule) * 3 * wire.CHUNK


class _Stopped(Exception):
    pass


def test_a_stopped_drawn_read_charges_its_session():
    # a drawn read is charged with its victim, when the batch settles, so a
    # read stopped after its first chunk leaves the two counters equal
    schedule = wire.leak_schedule("avx", 130, 10, 0, 1_000_000)
    session = _Pair(seed=3).batch
    victim = session.transport.victim
    evictions = victim.evictions

    def first_view_only(*args):
        yield next(evictions(*args))
        raise _Stopped

    victim.evictions = first_view_only
    with pytest.raises(_Stopped):
        session.drawn_moments(schedule, 3 * wire.CHUNK)
    assert session.counters == victim.counters
    assert session.total_requests() == len(schedule) * 3 * wire.CHUNK


def test_request_triple_is_its_packet():
    # a request is an (opcode, arg, nonce) triple; RequestPacket is its named
    # form, and the victim answers both alike: downloads and mitigation
    # noise draw from its generator, and an unknown opcode is refused
    schedule = (wire.leak_schedule("cache", 130, 3, 0, 590_000)
                + wire.leak_schedule("avx", 130, 3, 0, 1e6)
                + wire.value_schedule(5, 2, 590_000)
                + wire.aslr_schedule(0, 1 << 20, 2)
                + [(wire.OP_TIMING_FN, 0), (wire.OP_RESET, 0), (0x7F, 0)])
    plain, named = (_victim(seed=4, mitigation_noise_sigma_ns=300.0)
                    for _ in range(2))
    for nonce, (op, arg) in enumerate(schedule * 3):
        response, cycles = plain.handle_request((op, arg, nonce))
        assert type(response) is wire.ResponsePacket
        assert (response, cycles) == named.handle_request(
            RequestPacket(op, arg, nonce))
    assert plain.counters == named.counters
    for victim in (plain, named):
        assert victim.counters[0x7F] == 3
    a, b = plain.state, named.state
    assert (a.clock.now, a.predictor.counters, a.cache, a.avx) == (
        b.clock.now, b.predictor.counters, b.cache, b.avx)
    assert plain.rng.random() == named.rng.random()
