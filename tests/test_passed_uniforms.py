"""Eviction uniforms that a settled batch never reads.

Where a batch's settled iterations time alike whichever way their
download's eviction draw falls (a value comparison below the secret: the
compare caches the flag, so the transmit hits either way), nothing reads
their uniforms.  A PCG64 victim generator then advances past them instead
of drawing them; any other generator, or a PCG64 holding a 32-bit value,
draws them as before.  Either way the batch must leave everything as the
per-request loop does.
"""

import numpy as np
import pytest

from spectrelab import wire
from spectrelab.attacker import ExtractionPlan, Session
from spectrelab.victim import Victim, VictimConfig
from spectrelab.wire import LatencyModel, LoopbackTransport

SECRET = 10
CHUNK = 8
SIZES = [CHUNK + 3, 3 * CHUNK + 5]      # past the unsettled head


class CountingRng:
    """A generator that counts its vector ``random`` draws and passes every
    other call through."""

    def __init__(self, rng):
        self._rng, self.vector_draws = rng, 0

    def random(self, size=None, dtype=np.float64, out=None):
        if size is not None or out is not None:
            self.vector_draws += 1
        return self._rng.random(size, dtype, out)

    def __getattr__(self, name):
        return getattr(self._rng, name)


GENERATORS = {
    "pcg64": lambda: np.random.default_rng(3),
    "mt19937": lambda: np.random.Generator(np.random.MT19937(3)),
    "pcg64-buffered": lambda: _buffered(np.random.default_rng(3)),
}


def _buffered(rng):
    rng.integers(0, 10, dtype=np.uint32)     # leaves a 32-bit value buffered
    return rng


def _session(rng, batched):
    victim = Victim(VictimConfig(value_secret=SECRET,
                                 latency=LatencyModel.noiseless()), rng=rng)
    return Session(LoopbackTransport(victim, victim.config.latency,
                                     np.random.default_rng(1)),
                   batched=batched)


def _plain(state):
    """A bit generator's state with its arrays (MT19937's key) as lists."""
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


def _after(session):
    """Both request counters, the clock, the victim's state, its generator's
    state and the next draw of both generators."""
    v = session.transport.victim
    return (sorted(session.counters.items()), sorted(v.counters.items()),
            v._snapshot(), _plain(v.rng.bit_generator.state),
            v.rng.integers(0, 1 << 32, dtype=np.uint32), v.rng.random(),
            session.transport.rng.random())


READS = {
    "stream": lambda s, schedule, n: s._collect(schedule, n).tolist(),
    "run_moments": lambda s, schedule, n: s.moments(schedule, n),
    "drawn_moments": lambda s, schedule, n: s.drawn_moments(schedule, n),
}


def _read_both(generator, entry, guess, n):
    """One value read, batched from a counted generator and per request;
    returns the batched generator and both reads."""
    rng = CountingRng(GENERATORS[generator]())
    batch, slow = _session(rng, True), _session(GENERATORS[generator](), False)
    schedule = wire.value_schedule(guess, 10, ExtractionPlan().reset_bytes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wire, "CHUNK", CHUNK)
        reads = [READS[entry](s, schedule, n) for s in (batch, slow)]
    assert _after(batch) == _after(slow)
    return rng, reads


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("entry", READS)
def test_settled_read_below_the_secret_draws_no_uniforms(entry, n):
    rng, (batched, per_request) = _read_both("pcg64", entry, SECRET - 5, n)
    assert rng.vector_draws == 0
    if entry == "stream":
        assert batched == per_request
    else:           # the victim's moments or the draws, against round trips
        assert batched[0] == pytest.approx(per_request[0], rel=1e-15)
        assert batched[1] == pytest.approx(per_request[1], abs=1e-9)


@pytest.mark.parametrize("guess", [SECRET - 5, SECRET])
@pytest.mark.parametrize("generator", ["mt19937", "pcg64-buffered"])
@pytest.mark.parametrize("entry", READS)
def test_generator_that_cannot_advance_draws_as_before(entry, generator, guess):
    # MT19937 has no advance; a PCG64 advance would drop the buffered value
    rng, _ = _read_both(generator, entry, guess, 3 * CHUNK + 5)
    assert rng.vector_draws == 4          # one per chunk of settled iterations
