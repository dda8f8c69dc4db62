"""Per-layer tracing from outside the program: the benchmark replaces
methods on the victim, latency-model, transport and session instances it
built with timing wrappers.  Nothing inside ``src/`` is changed.

Each wrapped call is a span.  A span's self time is its duration minus the
spans it caused.  Per-request spans (``Session.request`` and what it calls)
are only aggregated; every ``Session.collect_*`` call also leaves one
record, written out when the run ends.  Kernels called from inside another
kernel (``batch_corner`` runs ``batch_aslr_check`` for the layout corners)
count as part of the outer kernel.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

from workloads import Layout, Value

_KERNELS = ("batch_leak_cache", "batch_leak_avx", "batch_value_cmp",
            "batch_aslr_check", "batch_corner")
_COLLECTS = ("collect_bit", "collect_corner", "collect_value", "collect_aslr")


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "samples")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.samples = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.records: list[dict] = []          # one per collect call
        self.decision_ns: list[int] = []       # one per leaked bit
        self.calibrations: list[tuple[int, int]] = []   # (ns, measurements)
        self.peak_alloc = 0
        self.collect_outer_ns = 0              # collect spans with their tracing
        self._stack: list[list] = []           # [name, child_ns]
        self._bit_mark = (0, 0)                # (time, collect ns) at last bit

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn):
        """A span per call: calls, total and self time under ``name``."""
        stack, st, clock = self._stack, self.stats[name], time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - frame[1]
        return traced

    def _wrap_batch(self, name, fn, record=False, memory=False):
        """A span that also counts the samples (length of the returned
        array); ``record`` keeps one record per call, ``memory`` traces its
        allocations."""
        inner = self._wrap(name, fn)
        st = self.stats[name]

        def traced(*args, **kwargs):
            outer = time.perf_counter_ns()
            child0, total0 = st.total_ns - st.self_ns, st.total_ns
            peak = None
            if memory:
                tracemalloc.start()
            try:
                out = inner(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            st.samples += out.shape[0]
            if record:
                self.peak_alloc = max(self.peak_alloc, peak or 0)
                self.collect_outer_ns += time.perf_counter_ns() - outer
                dur = st.total_ns - total0
                self.records.append({
                    "span": name, "method": fn.__name__, "ns": dur,
                    "self_ns": dur - (st.total_ns - st.self_ns - child0),
                    "samples": out.shape[0], "peak_alloc_bytes": peak})
            return out
        return traced

    def _kernel(self, fn):
        inner = self._wrap_batch("victim." + fn.__name__, fn)
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0].startswith("victim.batch_"):
                return fn(*args, **kwargs)
            return inner(*args, **kwargs)
        return traced

    def _rtt(self, fn):
        vector = self._wrap_batch("wire.rtt.vector", fn)
        scalar = self._wrap("wire.rtt.scalar", fn)

        def traced(server_ns, rng, size=None):
            if size is None:
                return scalar(server_ns, rng)
            return vector(server_ns, rng, size=size)
        return traced

    def instrument(self, session) -> None:
        """Wrap the public calls into victim, wire and attacker on one
        loopback session and the objects behind it."""
        transport = session.transport
        victim = transport.victim
        for name in _KERNELS:
            setattr(victim, name, self._kernel(getattr(victim, name)))
        victim.handle_request = self._wrap("victim.handle_request",
                                           victim.handle_request)
        transport.latency.rtt = self._rtt(transport.latency.rtt)
        transport.request = self._wrap("wire.loopback.request",
                                       transport.request)
        session.request = self._wrap("attacker.session.request",
                                     session.request)
        # tracemalloc slows every Python allocation about tenfold, so only
        # batched collect calls, which allocate a few arrays, are traced
        # for memory; on the per-request path the metric reads 0.
        for name in _COLLECTS:
            setattr(session, name,
                    self._wrap_batch("attacker.collect", getattr(session, name),
                                     record=True, memory=session.batched))

    # -- benchmark-side marks -------------------------------------------

    def calibrated(self, ns: int, measurements: int) -> None:
        self.calibrations.append((ns, measurements))

    def leak_started(self) -> None:
        self._bit_mark = (time.perf_counter_ns(), self.collect_outer_ns)

    def bit_done(self, pos, read) -> None:
        """``leak_range`` progress callback: the time since the previous bit
        that no collect call accounts for is decision time."""
        now = time.perf_counter_ns()
        collect = self.collect_outer_ns
        t0, c0 = self._bit_mark
        self.decision_ns.append((now - t0) - (collect - c0))
        self._bit_mark = (now, collect)

    # -- results ---------------------------------------------------------

    def metrics(self, rounds: int, outcomes: list) -> dict[str, float]:
        """Per-layer metrics; counts are per round, times per unit of work."""
        st = self.stats

        def per_sample(name):
            s = st[name]
            return s.total_ns / s.samples if s.samples else 0.0

        def per_call_us(name, field="total_ns"):
            s = st[name]
            return getattr(s, field) / s.calls / 1e3 if s.calls else 0.0

        out = {}
        for k in _KERNELS:
            out[f"victim.{k}.ns_per_sample"] = per_sample(f"victim.{k}")
            if k != "batch_corner":
                out[f"victim.{k}.calls"] = st[f"victim.{k}"].calls / rounds
        cal_ns = sum(ns for ns, _ in self.calibrations)
        cal_meas = sum(m for _, m in self.calibrations)
        ncal = len(self.calibrations)
        out["attacker.calibrate.s"] = cal_ns / ncal / 1e9 if ncal else 0.0
        out["attacker.calibrate.measurements"] = cal_meas / ncal if ncal else 0.0
        out["wire.rtt.ns_per_sample"] = per_sample("wire.rtt.vector")
        out["attacker.collect.calls"] = st["attacker.collect"].calls / rounds
        out["attacker.collect.self_us_per_call"] = per_call_us(
            "attacker.collect", "self_ns")
        out["attacker.collect.peak_alloc_mb"] = self.peak_alloc / 2**20
        d = self.decision_ns
        out["attacker.decision.ms_per_bit"] = sum(d) / len(d) / 1e6 if d else 0.0
        done = [o for o in outcomes if o.error is None]
        values = [o.result for o in done if isinstance(o.target.step, Value)]
        out["attacker.value.comparisons_per_value"] = (
            sum(r.comparisons for v in values for r in v.rounds) / len(values)
            if values else 0.0)
        layouts = [o.result for o in done if isinstance(o.target.step, Layout)]
        nrounds = sum(len(a.rounds) for a in layouts)
        out["attacker.aslr.attempts_per_round"] = (
            sum(r.attempts for a in layouts for r in a.rounds) / nrounds
            if nrounds else 0.0)
        out["victim.handle_request.us_per_call"] = per_call_us(
            "victim.handle_request")
        out["wire.rtt.us_per_call"] = per_call_us("wire.rtt.scalar")
        out["wire.loopback.request.us_per_call"] = per_call_us(
            "wire.loopback.request")
        out["attacker.session.request.self_us_per_call"] = per_call_us(
            "attacker.session.request", "self_ns")
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for name, s in sorted(self.stats.items()):
                f.write(json.dumps({"layer": name, "calls": s.calls,
                                    "total_ns": s.total_ns,
                                    "self_ns": s.self_ns,
                                    "samples": s.samples}) + "\n")
            for rec in self.records:
                f.write(json.dumps(rec) + "\n")
