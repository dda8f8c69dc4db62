"""Codec, latency model, and transport tests."""

import math
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrelab import wire
from spectrelab.wire import (CodecError, LatencyModel, RequestPacket,
                             ResponsePacket, decode_request, decode_response,
                             encode_request, encode_response)

u64 = st.integers(min_value=0, max_value=2**64 - 1)
opcodes = st.sampled_from(sorted(wire.VALID_OPCODES))


class TestCodec:
    def test_frame_is_17_bytes_little_endian(self):
        data = encode_request(RequestPacket(wire.OP_TIMING_FN, 0x0102, 0x03))
        assert len(data) == wire.PACKET_LEN == 17
        assert data[0] == 0x07
        assert data[1:9] == (0x0102).to_bytes(8, "little")
        assert data[9:17] == (0x03).to_bytes(8, "little")

    def test_known_bytes_round_trip(self):
        raw = bytes([0x01]) + (5).to_bytes(8, "little") + (9).to_bytes(8, "little")
        packet = decode_request(raw)
        assert packet == RequestPacket(wire.OP_LEAK_CACHE, 5, 9)
        assert packet.encode() == raw

    def test_response_layout(self):
        raw = encode_response(ResponsePacket(wire.STATUS_OK, 7, 42))
        assert raw == struct.pack("<BQQ", 0, 7, 42)
        assert decode_response(raw) == ResponsePacket(0, 7, 42)

    def test_packets_are_immutable_values(self):
        packet = RequestPacket(opcode=wire.OP_RESET, nonce=4)
        assert packet == RequestPacket(wire.OP_RESET, 0, 4)
        assert packet.encode() == encode_request(packet)
        with pytest.raises(AttributeError):
            packet.arg = 1
        with pytest.raises(AttributeError):
            ResponsePacket(wire.STATUS_OK, 4).payload = 1

    def test_bad_length_rejected(self):
        with pytest.raises(CodecError):
            decode_request(b"\x01" * 16)
        with pytest.raises(CodecError):
            decode_response(b"\x00" * 18)

    def test_bad_opcode_recovers_nonce(self):
        raw = struct.pack("<BQQ", 0xEE, 0, 1234)
        with pytest.raises(CodecError) as info:
            decode_request(raw)
        assert info.value.nonce == 1234

    def test_unknown_opcode_rejected_on_encode(self):
        with pytest.raises(CodecError):
            encode_request(RequestPacket(0x7F, 0, 0))

    def test_valid_opcodes_are_every_opcode(self):
        # the set is written out by hand: it names every OP_ constant, and
        # no two share a value
        names = [name for name in vars(wire) if name.startswith("OP_")]
        assert wire.VALID_OPCODES == {getattr(wire, name) for name in names}
        assert len(wire.VALID_OPCODES) == len(names)

    @pytest.mark.parametrize("arg,nonce", [(2.5, 1), (1, 1.5), ("1", 1),
                                           (None, 1), (np.float64(3.0), 1)])
    def test_non_integer_field_is_a_codec_error(self, arg, nonce):
        # a typed error, so a remote session maps it to its exit code
        with pytest.raises(CodecError, match="not an integer"):
            encode_request((wire.OP_ADVANCE_CLOCK, arg, nonce))

    def test_numpy_integers_encode(self):
        assert (encode_request((wire.OP_ADVANCE_CLOCK, np.int64(5),
                                np.uint64(7)))
                == encode_request((wire.OP_ADVANCE_CLOCK, 5, 7)))

    @given(opcodes, u64, u64)
    def test_request_round_trip(self, opcode, arg, nonce):
        packet = RequestPacket(opcode, arg, nonce)
        assert decode_request(encode_request(packet)) == packet

    @given(st.integers(0, 255), u64, u64)
    def test_triple_encodes_as_its_packet(self, opcode, arg, nonce):
        # a request is an (opcode, arg, nonce) triple; RequestPacket names it
        packet = RequestPacket(opcode, arg, nonce)
        if opcode in wire.VALID_OPCODES:
            assert encode_request((opcode, arg, nonce)) == encode_request(packet)
            return
        for request in ((opcode, arg, nonce), packet):
            with pytest.raises(CodecError) as info:
                encode_request(request)
            assert info.value.nonce == nonce

    @given(st.integers(0, 255), u64, u64)
    def test_response_round_trip(self, status, nonce, payload):
        packet = ResponsePacket(status, nonce, payload)
        assert decode_response(encode_response(packet)) == packet

    @given(st.integers(0, 255), u64, u64)
    def test_response_triple_encodes_as_its_packet(self, status, nonce,
                                                   payload):
        # a response is a (status, nonce, payload) triple; ResponsePacket
        # names it
        assert (encode_response((status, nonce, payload))
                == encode_response(ResponsePacket(status, nonce, payload)))


class TestSchedules:
    @pytest.mark.parametrize("lo, hi", [(0, 1 << 32), (1 << 32, 0), (-1, 5),
                                        (0, -1), (1 << 40, 1 << 40)])
    def test_a_probe_bound_past_32_bits_is_refused(self, lo, hi):
        # the probe packs each bound into 32 bits: (0, 2^32) would read as
        # the empty range [1, 0)
        with pytest.raises(ValueError, match=r"outside \[0, 2\^32\)"):
            wire.aslr_schedule(lo, hi, 2)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_every_32_bit_pair_is_carried(self, lo, hi):
        # lo > hi included: the victim reads it as an empty range
        *_, (op, arg), _ = wire.aslr_schedule(lo, hi, 2)
        assert (op, arg >> 32, arg & 0xFFFFFFFF) == (wire.OP_ASLR_PROBE, lo, hi)
        assert wire.schedule_counts(wire.aslr_schedule(lo, hi, 2), 1)

    @given(u64, st.integers(1, 5))
    def test_the_admission_counts_what_a_frame_carries(self, arg, n):
        schedule = [(wire.OP_LEAK_CACHE, arg), (wire.OP_ADVANCE_CLOCK, 2.0),
                    (wire.OP_TRANSMIT_CACHE, np.uint64(arg)), (0x7F, 0)]
        assert wire.schedule_counts(schedule, n) == {
            wire.OP_LEAK_CACHE: n, wire.OP_ADVANCE_CLOCK: n,
            wire.OP_TRANSMIT_CACHE: n, 0x7F: n}

    @pytest.mark.parametrize("arg", [-1, 1 << 64, 5.0, 0.5, "1", None])
    @pytest.mark.parametrize("op", [wire.OP_LEAK_CACHE, wire.OP_VALUE_CMP,
                                    wire.OP_ASLR_PROBE])
    def test_the_admission_refuses_what_no_frame_carries(self, op, arg):
        with pytest.raises(ValueError, match=r"not an integer in \[0, 2\^64\)"):
            wire.schedule_counts([(op, arg), (wire.OP_TRANSMIT_CACHE, 0)], 1)
        with pytest.raises(CodecError):
            encode_request((op, arg, 1))

    def test_a_clock_advance_past_64_bits_is_refused(self):
        for advance in (1 << 64, float(1 << 64)):
            with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
                wire.schedule_counts([(wire.OP_ADVANCE_CLOCK, advance)], 1)
        assert wire.schedule_counts(
            [(wire.OP_ADVANCE_CLOCK, (1 << 64) - 1)], 1)


class TestLatencyModel:
    def test_presets(self):
        assert LatencyModel.preset("local").sigma_ns == 15_600.0
        assert LatencyModel.preset("cloud").sigma_ns == 52_300.0
        assert LatencyModel.preset("arm").sigma_ns == 128_500.0
        with pytest.raises(ValueError):
            LatencyModel.preset("lan-party")

    def test_noiseless_preset(self):
        assert (LatencyModel.preset("noiseless", base_ns=5.0)
                == LatencyModel.noiseless(base_ns=5.0))

    def test_noiseless_rtt_is_exact(self):
        model = LatencyModel.noiseless(base_ns=10_000.0)
        rng = np.random.default_rng(0)
        assert model.rtt(500.0, rng) == 20_500.0

    def test_gaussian_sigma_matches(self):
        model = LatencyModel.preset("local")
        rng = np.random.default_rng(0)
        noise = model.noise(rng, size=100_000)
        assert abs(noise.std() - 15_600.0) / 15_600.0 < 0.02
        assert abs(noise.mean()) < 200.0

    def test_lognormal_sigma_matches(self):
        model = LatencyModel(sigma_ns=15_600.0, distribution="lognormal")
        rng = np.random.default_rng(0)
        noise = model.noise(rng, size=200_000)
        assert abs(noise.std() - 15_600.0) / 15_600.0 < 0.02
        assert abs(noise.mean()) < 300.0
        # heavy right tail, unlike the Gaussian
        assert np.abs(noise.max()) > np.abs(noise.min())

    def test_rtt_clamped_at_zero(self):
        model = LatencyModel(base_ns=0.0, sigma_ns=1e9)
        rng = np.random.default_rng(0)
        rtts = model.rtt(0.0, rng, size=1000)
        assert (rtts >= 0.0).all()

    def test_three_sigma_rule_on_all_presets(self):
        rng = np.random.default_rng(42)
        for name in wire.PRESET_SIGMAS_NS:
            model = LatencyModel.preset(name)
            noise = model.noise(rng, size=100_000)
            frac = np.mean(np.abs(noise - noise.mean()) <= 3 * noise.std())
            assert frac >= 0.888

    @pytest.mark.parametrize("length", [100, 5])
    def test_rtt_refuses_an_array_of_another_length(self, length):
        model = LatencyModel(base_ns=100.0, sigma_ns=20.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="out has shape"):
            model.rtt(np.zeros(length), rng, size=10)
        assert rng.bit_generator.state == before

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(sigma_ns=-1.0)

    @pytest.mark.parametrize("distribution", ["gaussian", "lognormal"])
    @pytest.mark.parametrize("n", [1, wire.CHUNK - 1, wire.CHUNK,
                                   wire.CHUNK + 1, 2 * wire.CHUNK + 1])
    def test_vector_rtt_matches_scalar_draws(self, distribution, n):
        # the vector path draws its noise a chunk at a time; it must still
        # equal n scalar draws from an identically seeded generator
        model = LatencyModel(base_ns=100.0, sigma_ns=15_600.0,
                             distribution=distribution)
        server_ns = np.arange(n, dtype=float) % 7 * 80.0
        rng = np.random.default_rng(5)
        expected = np.array([model.rtt(s, rng) for s in server_ns])
        rtts = model.rtt(server_ns.copy(), np.random.default_rng(5), size=n)
        assert rtts.shape == (n,)
        assert (rtts == expected).all()
        assert (rtts == 0.0).any()    # at this seed every case hits the clamp


class TestLoopbackTransport:
    def test_rtt_composition(self):
        from spectrelab.victim import Victim, VictimConfig
        cfg = VictimConfig()
        victim = Victim(cfg, seed=0)
        transport = wire.LoopbackTransport(victim, cfg.latency,
                                           np.random.default_rng(0))
        response, rtt = transport.request(RequestPacket(wire.OP_RESET, 0, 7))
        assert response[1] == 7
        assert response[0] == wire.STATUS_OK
        # noiseless: 2*base + handler_cycles * cycle_time
        assert rtt == 2 * 10_000.0 + 1000 * 0.5

    def test_deterministic_under_seed(self):
        from spectrelab.victim import Victim, VictimConfig

        def run():
            cfg = VictimConfig(latency=LatencyModel.preset("local"))
            victim = Victim(cfg, seed=1)
            transport = wire.LoopbackTransport(victim, cfg.latency,
                                               np.random.default_rng(2))
            return [transport.request(RequestPacket(wire.OP_TRANSMIT_CACHE,
                                                    0, i))[1]
                    for i in range(50)]

        assert run() == run()


class _ScalarLoopback(wire.LoopbackTransport):
    """A reference loopback transport: each timed request's noise is one
    scalar draw from its generator, in request order."""

    def request(self, packet, timed=True):
        response, cycles = self.victim.handle_request(packet)
        if not timed:
            return response, None
        return response, self.latency.rtt(
            cycles * self.victim.config.cycle_time_ns, self.rng)


def _loopback(cls, latency, shared=False):
    from spectrelab.victim import Victim, VictimConfig
    victim = Victim(VictimConfig(latency=latency), seed=3)
    return cls(victim, latency,
               victim.rng if shared else np.random.default_rng(4))


# a cache leak loop: ten trainings, a download (one victim uniform), the
# leak and the transmit
_LOOP = wire.leak_schedule("cache", 130, 10, 0, 590_000)


def _requests(transport, k):
    return [transport.request(RequestPacket(*_LOOP[i % len(_LOOP)], i))[1]
            for i in range(k)]


class TestOneScalarDrawPerRequest:
    """The loopback transport draws each raw request's noise as one scalar
    draw of its generator, in request order, as the reference does."""

    @pytest.mark.parametrize("distribution", ["gaussian", "lognormal"])
    @pytest.mark.parametrize("k", [1023, 1024, 1025, 3072])
    def test_reads_equal_scalar_draws(self, distribution, k):
        latency = LatencyModel(base_ns=100_000.0, sigma_ns=15_600.0,
                               distribution=distribution)
        loopback, twin = (_loopback(cls, latency)
                          for cls in (wire.LoopbackTransport, _ScalarLoopback))
        for _ in range(2):          # the second read after a generator read
            assert _requests(loopback, k) == _requests(twin, k)
            assert loopback.rng.random() == twin.rng.random()

    def test_noiseless_draws_nothing(self):
        transport = _loopback(wire.LoopbackTransport, LatencyModel.noiseless())
        _requests(transport, 2049)
        assert transport.rng.random() == np.random.default_rng(4).random()

    @pytest.mark.parametrize("distribution", ["gaussian", "lognormal"])
    def test_generator_shared_with_the_victim(self, distribution):
        # the victim draws a uniform per download between the noise draws
        latency = LatencyModel(base_ns=100_000.0, sigma_ns=15_600.0,
                               distribution=distribution)
        loopback, twin = (_loopback(cls, latency, shared=True)
                          for cls in (wire.LoopbackTransport, _ScalarLoopback))
        assert _requests(loopback, 2049) == _requests(twin, 2049)
        assert loopback.rng.random() == twin.rng.random()

    def test_raw_requests_then_batched_read(self):
        from spectrelab.attacker import ExtractionPlan, Session
        latency = LatencyModel(base_ns=100_000.0, sigma_ns=15_600.0)
        outs = []
        for cls in (wire.LoopbackTransport, _ScalarLoopback):
            transport = _loopback(cls, latency)
            session = Session(transport)
            assert session.batched
            raw = [session.request(op, arg)[1] for op, arg in _LOOP * 100]
            read = session.collect_bit(ExtractionPlan(), 130, 5000)
            outs.append((raw, read.tolist(), dict(session.counters),
                         transport.victim.rng.random(),
                         transport.rng.random()))
        assert outs[0] == outs[1]


class TestUDPTransport:
    def test_skips_a_datagram_it_cannot_decode(self):
        # a 5-byte datagram, then the reply: the request returns the reply
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server:
            server.bind(("127.0.0.1", 0))
            transport = wire.UDPTransport(*server.getsockname(), timeout_s=5.0)
            try:
                transport.sock.bind(("127.0.0.1", 0))
                client = transport.sock.getsockname()
                reply = ResponsePacket(wire.STATUS_OK, 42, 7)
                server.sendto(b"\x00" * 5, client)
                server.sendto(reply.encode(), client)
                response, rtt = transport.request((wire.OP_RESET, 0, 42))
                assert response == reply and rtt > 0
                assert decode_request(server.recv(64)) == (wire.OP_RESET, 0, 42)
            finally:
                transport.close()
