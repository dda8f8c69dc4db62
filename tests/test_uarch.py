"""Oracle tests for the microarchitectural state machine."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrelab import uarch
from spectrelab.uarch import (AvxUnit, BranchPredictor, MicroarchState,
                              SecretStore, VirtualClock, avx_penalty,
                              thrash_probability)


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        clock.advance(1000.0)
        clock.advance(0.0)
        assert clock.now == 1000.0

    def test_negative_advance_rejected(self):
        with pytest.raises(uarch.ClockError):
            VirtualClock().advance(-1.0)

    def test_advance_to_is_monotone(self):
        clock = VirtualClock(50.0)
        clock.advance_to(80.0)
        assert clock.now == 80.0
        with pytest.raises(uarch.ClockError):
            clock.advance_to(10.0)


def _reference_predictor(history):
    """Independent oracle: simulate the 2-bit counter by hand and return
    the prediction after the whole history."""
    c = 0
    for taken in history:
        c = min(c + 1, 3) if taken else max(c - 1, 0)
    return c >= 2


class TestBranchPredictor:
    def test_initially_not_taken(self):
        assert BranchPredictor().predict(0) is False

    def test_two_taken_flip_to_taken(self):
        bp = BranchPredictor()
        bp.train(0, True)
        assert bp.predict(0) is False       # weakly not-taken
        bp.train(0, True)
        assert bp.predict(0) is True

    def test_single_not_taken_does_not_flip_saturated(self):
        # 10 taken trainings, then one not-taken: still predicts taken
        bp = BranchPredictor()
        for _ in range(10):
            bp.train(0, True)
        bp.train(0, False)
        assert bp.predict(0) is True

    def test_alternating_sequence(self):
        # oracle: T N T N T N T N T N ends at counter 1 -> not taken
        bp = BranchPredictor()
        history = [True, False] * 5
        for taken in history:
            bp.train(0, taken)
        assert bp.predict(0) is _reference_predictor(history)

    def test_sites_are_independent(self):
        bp = BranchPredictor()
        for _ in range(3):
            bp.train(0, True)
        assert bp.predict(0) is True
        assert bp.predict(1) is False

    @pytest.mark.parametrize("k", range(1, 9))
    def test_exhaustive_histories_match_reference(self, k):
        for history in itertools.product([True, False], repeat=k):
            bp = BranchPredictor()
            for taken in history:
                bp.train(7, taken)
            assert bp.predict(7) is _reference_predictor(history)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=40))
    def test_resolve_is_predict_then_train(self, history):
        reference, bp = BranchPredictor(), BranchPredictor()
        for site, taken in history:
            predicted = reference.predict(site)
            reference.train(site, taken)
            assert bp.resolve(site, taken) is predicted
            assert bp.counters == reference.counters

    def test_reset(self):
        bp = BranchPredictor()
        for _ in range(3):
            bp.train(0, True)
        bp.reset()
        assert bp.predict(0) is False


class TestAvxPenalty:
    def test_zero_before_decay_start(self):
        assert avx_penalty(0.0) == 0
        assert avx_penalty(400_000.0) == 0
        assert avx_penalty(499_999.9) == 0

    def test_full_penalty_at_and_beyond_decay_end(self):
        assert avx_penalty(1_000_000.0) == 366
        assert avx_penalty(1_500_000.0) == 366

    def test_linear_ramp_quarter_point(self):
        # 0.625 ms is 25 % into the ramp: 0.25 * 366 = 91.5 -> 92 half-up
        assert avx_penalty(625_000.0) == 92

    def test_midpoint(self):
        assert avx_penalty(750_000.0) == 183

    def test_monotone_and_continuous(self):
        idles = np.arange(0.0, 1_600_000.0, 500.0)
        values = [avx_penalty(t) for t in idles]
        diffs = np.diff(values)
        assert (diffs >= 0).all()
        # no jump bigger than the ramp slope over one step (plus rounding)
        assert diffs.max() <= math.ceil(366 * 500.0 / 500_000.0) + 1

    def test_negative_idle_rejected(self):
        with pytest.raises(ValueError):
            avx_penalty(-1.0)


class TestAvxUnit:
    def test_cold_start_costs_max(self):
        unit = AvxUnit()
        assert unit.execute_op(0.0) == 210 + 366

    def test_warm_back_to_back(self):
        unit = AvxUnit()
        unit.execute_op(0.0)
        assert unit.execute_op(1000.0) == 210

    def test_powers_down_after_a_millisecond(self):
        unit = AvxUnit()
        unit.execute_op(0.0)
        assert unit.execute_op(1_000_000.0) == 576

    def test_cost_is_warm_plus_penalty_of_the_idle_time(self, monkeypatch):
        # never used, 0, the ramp's start -1/0/+1 ns, its middle, its end
        # and beyond; avx_penalty is called only on the ramp
        calls = []

        def counted(idle_ns, *args):
            calls.append(idle_ns)
            return avx_penalty(idle_ns, *args)
        monkeypatch.setattr(uarch, "avx_penalty", counted)
        now = 2_000_000.0
        for idle in (None, 0.0, 499_999.0, 500_000.0, 500_001.0, 750_000.0,
                     1_000_000.0, 1_500_000.0):
            unit = AvxUnit(last_use_ns=None if idle is None else now - idle)
            calls.clear()
            expected = 210 + avx_penalty(math.inf if idle is None else idle)
            assert unit.execute_op(now) == expected
            assert unit.last_use_ns == now
            on_ramp = idle is not None and 500_000.0 <= idle < 1_000_000.0
            assert calls == ([idle] if on_ramp else [])
        unit = AvxUnit(last_use_ns=now + 1.0)
        with pytest.raises(ValueError):
            unit.execute_op(now)
        assert unit.last_use_ns == now + 1.0


class TestSecretStore:
    def test_msb_first_bit_order(self):
        store = SecretStore(b"d")            # 0x64 = 01100100
        assert [store.bit(i) for i in range(8)] == [0, 1, 1, 0, 0, 1, 0, 0]

    def test_wraparound(self):
        store = SecretStore(b"\x80\x01")
        assert store.bit(16) == store.bit(0) == 1
        assert store.bit(15 + 16) == store.bit(15) == 1

    def test_with_secret_bounds(self):
        store = SecretStore.with_secret(b"\x00" * 2, b"d")
        assert store.bitstream_length == 16
        assert store.in_bounds(15)
        assert not store.in_bounds(16)
        assert store.secret_bit_index(0) == 16
        # secret bits are reachable by out-of-bounds index
        assert [store.bit(store.secret_bit_index(i)) for i in range(8)] \
            == [0, 1, 1, 0, 0, 1, 0, 0]

    def test_length_validation(self):
        with pytest.raises(ValueError):
            SecretStore(b"ab", bitstream_length=17)


class TestThrash:
    def test_lambda_calibration(self):
        # lambda chosen so p(590 kB) = 0.99 exactly
        assert math.isclose(uarch.THRASH_LAMBDA, 590_000 / math.log(100))
        assert math.isclose(thrash_probability(590_000), 0.99)

    def test_one_lambda_gives_one_minus_inv_e(self):
        p = thrash_probability(uarch.THRASH_LAMBDA)
        assert math.isclose(p, 1.0 - math.exp(-1.0))

    def test_monotone_in_size(self):
        sizes = np.linspace(0, 2_000_000, 100)
        probs = [thrash_probability(s) for s in sizes]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        assert probs[0] == 0.0

    def test_thrash_consumes_one_draw_either_way(self):
        # stream alignment: eviction outcome must not change rng consumption
        state = MicroarchState()
        rng = np.random.default_rng(0)
        for _ in range(10):
            state.thrash(590_000, rng)
        ref = np.random.default_rng(0)
        ref.random(10)
        assert rng.random() == ref.random()

    def test_thrash_clears_cache_state(self):
        state = MicroarchState()
        state.cache.flag_cached = True
        state.cache.aslr_cached_offset = 3
        rng = np.random.default_rng(1)
        while not state.thrash(10_000, rng):
            state.cache.flag_cached = True
        assert not state.cache.flag_cached
        assert state.cache.aslr_cached_offset is None

    @given(st.integers(min_value=0, max_value=10**9))
    def test_probability_in_unit_interval(self, size):
        assert 0.0 <= thrash_probability(size) <= 1.0


class TestGadgets:
    def _trained_state(self, site):
        state = MicroarchState()
        state.predictor.train(site, True)
        state.predictor.train(site, True)
        return state

    def test_cache_leak_in_bounds_sets_value_and_cache(self):
        store = SecretStore.with_secret(b"\x80", b"")
        state = MicroarchState()
        state.leak_gadget_cache(store, 0)
        assert state.cache.flag_value and state.cache.flag_cached

    def test_cache_leak_oob_needs_training(self):
        store = SecretStore.with_secret(b"\x00", b"\xff")
        state = MicroarchState()
        state.leak_gadget_cache(store, 8)    # predictor cold: no effect
        assert not state.cache.flag_cached
        state = self._trained_state(uarch.SITE_LEAK_CACHE)
        state.leak_gadget_cache(store, 8)
        assert state.cache.flag_cached
        assert not state.cache.flag_value    # architectural value untouched

    def test_cache_leak_oob_blocked_by_barrier(self):
        store = SecretStore.with_secret(b"\x00", b"\xff")
        state = self._trained_state(uarch.SITE_LEAK_CACHE)
        state.leak_gadget_cache(store, 8, barrier=True)
        assert not state.cache.flag_cached

    def test_oob_leak_trains_not_taken(self):
        store = SecretStore.with_secret(b"\x00", b"\xff")
        state = self._trained_state(uarch.SITE_LEAK_CACHE)
        for _ in range(2):
            state.leak_gadget_cache(store, 8)
        # two not-taken outcomes drop the counter below the threshold
        assert state.predictor.predict(uarch.SITE_LEAK_CACHE) is False

    def test_avx_leak_powers_unit(self):
        store = SecretStore.with_secret(b"\x00", b"\xff")
        state = self._trained_state(uarch.SITE_LEAK_AVX)
        state.clock.advance(5000.0)
        cost = state.leak_gadget_avx(store, 8)
        assert cost == 576                   # cold speculative op
        assert state.transmit_gadget_avx() == 210

    def test_transmit_cache_hit_miss_and_recache(self):
        state = MicroarchState()
        assert state.transmit_gadget_cache() == 200   # cold miss
        assert state.transmit_gadget_cache() == 40    # access re-cached it

    def test_aslr_gadget_covers_offset(self):
        state = self._trained_state(uarch.SITE_ASLR)
        state.aslr_gadget(0, 100, valid_offset=42)
        assert state.cache.aslr_cached_offset == 42
        assert state.timing_function(42) == 40
        # the read consumed the cached state
        assert state.timing_function(42) == 200

    def test_aslr_gadget_misses_outside_range(self):
        state = self._trained_state(uarch.SITE_ASLR)
        state.aslr_gadget(43, 100, valid_offset=42)
        assert state.cache.aslr_cached_offset is None
        assert state.timing_function(42) == 200

    def test_aslr_empty_range_is_training(self):
        state = MicroarchState()
        state.aslr_gadget(0, 0, valid_offset=1)
        state.aslr_gadget(0, 0, valid_offset=1)
        assert state.predictor.predict(uarch.SITE_ASLR) is True
        assert state.cache.aslr_cached_offset is None

    def test_value_gadget(self):
        state = self._trained_state(uarch.SITE_VALUE)
        state.value_threshold_gadget(5, 10)
        assert state.cache.flag_cached
        state.cache.flag_cached = False
        state.value_threshold_gadget(10, 10)
        assert not state.cache.flag_cached

    def test_value_gadget_barrier(self):
        state = self._trained_state(uarch.SITE_VALUE)
        state.value_threshold_gadget(5, 10, barrier=True)
        assert not state.cache.flag_cached

    def test_reset_keeps_clock(self):
        state = self._trained_state(uarch.SITE_LEAK_CACHE)
        state.clock.advance(123.0)
        state.cache.flag_cached = True
        state.avx.last_use_ns = 5.0
        state.reset_microarch()
        assert state.clock.now == 123.0
        assert not state.cache.flag_cached
        assert state.avx.last_use_ns is None
        assert state.predictor.predict(uarch.SITE_LEAK_CACHE) is False


@settings(max_examples=50)
@given(st.binary(min_size=1, max_size=32), st.integers(min_value=0))
def test_bit_indexing_matches_python_reference(data, index):
    store = SecretStore(data)
    i = index % (8 * len(data))
    expected = (data[i // 8] >> (7 - i % 8)) & 1
    assert store.bit(index) == expected
