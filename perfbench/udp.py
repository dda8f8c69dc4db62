"""UDP reference figures (not a workload): a short slice of the
``request`` schedule replayed over a real localhost socket, against a
victim served by ``Victim.serve_udp`` from a thread of this process.

A virtual-clock victim adds no server time to the real round trip, so no
bit can be decided here; the slice measures the transport and the
datagram handler only.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import numpy as np

from spectrelab.attacker import ExtractionPlan, Session
from spectrelab.uarch import SecretStore
from spectrelab.victim import Victim, VictimConfig
from spectrelab.wire import UDPTransport

import workloads

SLICE_N = 200        # measurements per step of the slice


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def reference(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    secret = rng.integers(0, 256, size=8, dtype=np.uint8).tobytes()
    cfg = VictimConfig(secrets=SecretStore.with_secret(workloads.PUBLIC, secret),
                       value_secret=int(rng.integers(0, 1 << 16)),
                       aslr_space_bits=12,
                       valid_aslr_offset=int(rng.integers(0, 1 << 12)))
    victim = Victim(cfg, rng=rng)
    handler_ns = []
    handle = victim.handle_datagram

    def timed_handle(data):
        t0 = time.perf_counter_ns()
        out = handle(data)
        handler_ns.append(time.perf_counter_ns() - t0)
        return out
    victim.handle_datagram = timed_handle

    port = _free_port()
    shutdown, ready = threading.Event(), threading.Event()
    server = threading.Thread(target=victim.serve_udp, kwargs=dict(
        port=port, host="127.0.0.1", shutdown_event=shutdown,
        ready_event=ready))
    server.start()
    try:
        if not ready.wait(5.0):
            raise RuntimeError("UDP victim did not start")
        transport = UDPTransport("127.0.0.1", port, timeout_s=1.0)
        session = Session(transport)
        rtts = []
        send = transport.request

        def timed_request(packet):
            response, rtt = send(packet)
            rtts.append(rtt)
            return response, rtt
        transport.request = timed_request
        start_bit = len(workloads.PUBLIC) * 8
        try:
            for channel in ("cache", "avx"):
                plan = ExtractionPlan(channel=channel)
                session.collect_bit(plan, start_bit, SLICE_N)
            session.collect_value(1 << 15, SLICE_N)
            session.collect_aslr(0, 1 << 11, SLICE_N)
        finally:
            transport.close()
    finally:
        shutdown.set()
        server.join()
    q = statistics.quantiles(rtts, n=10)
    return {"requests": len(rtts),
            "session_requests": session.total_requests(),
            "victim_requests": victim.total_requests(),
            "wire.udp.request_us_p50": statistics.median(rtts) / 1e3,
            "wire.udp.request_us_p90": q[8] / 1e3,
            "victim.handle_datagram.us_per_call":
                statistics.fmean(handler_ns) / 1e3}
