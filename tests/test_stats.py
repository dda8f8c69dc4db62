"""Histogram, classifier, and CSV export tests."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrelab import stats
from spectrelab.attacker import (Calibration, ExtractionPlan, leak_bit,
                                 loopback_session)
from spectrelab.stats import Histogram, HistogramSpec
from spectrelab.victim import VictimConfig


def _calib(hit=100.0, miss=200.0, sigma=10.0):
    return Calibration(mean_hit_ns=hit, mean_miss_ns=miss,
                       threshold_ns=(hit + miss) / 2, sigma_est_ns=sigma)


class TestHistogram:
    def test_counts_sum_to_samples(self):
        rng = np.random.default_rng(0)
        rtts = rng.normal(20_000, 500, size=5000)
        hist = stats.histogram(rtts, HistogramSpec(bin_width_ns=100.0))
        assert hist.counts.sum() == 5000

    def test_smoothing_conserves_mass(self):
        rng = np.random.default_rng(1)
        rtts = rng.normal(20_000, 2000, size=10_000)
        hist = stats.histogram(rtts, HistogramSpec(bin_width_ns=250.0,
                                                   smoothing_window=11))
        assert math.isclose(hist.smoothed.sum(), hist.counts.sum(),
                            rel_tol=1e-9)

    def test_window_one_is_identity(self):
        counts = np.array([1, 5, 2, 9, 0])
        assert (stats.smooth(counts, 1) == counts).all()

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            stats.smooth(np.ones(5), 4)
        with pytest.raises(ValueError):
            HistogramSpec(smoothing_window=10)

    def test_mode_of_clean_peak(self):
        rtts = np.concatenate([np.full(100, 20_040.0), np.full(30, 20_200.0)])
        hist = stats.histogram(rtts, HistogramSpec(bin_width_ns=10.0,
                                                   smoothing_window=1))
        assert abs(hist.mode_ns() - 20_045.0) <= 5.0

    def test_smoothing_reference_convolution(self):
        # brute-force moving average as the oracle
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 50, size=40).astype(float)
        w = 5
        smoothed = stats.smooth(counts, w)
        padded = np.concatenate([np.zeros(w // 2), counts, np.zeros(w // 2)])
        expected = np.array([padded[i:i + w].mean() for i in range(40)])
        assert np.allclose(smoothed, expected)

    def test_window_sums_are_exact(self):
        # each value is its window's whole-count sum divided once
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 10_000, size=200)
        w = 11
        padded = np.concatenate([np.zeros(w // 2, int), counts,
                                 np.zeros(w // 2, int)])
        sums = [int(padded[i:i + w].sum()) for i in range(200)]
        assert stats.smooth(counts, w).tolist() == [s / w for s in sums]

    def test_a_window_wider_than_the_range_gives_one_value_per_bin(self):
        # every window of 11 covers all 3 bins: each value is the whole
        # mass over the window, and the mass beyond the edges counts 0
        spec = HistogramSpec(bin_width_ns=1000.0, smoothing_window=11,
                             range_ns=(0.0, 3000.0))
        hist = stats.histogram([500.0, 1500.0, 1500.0, 2500.0], spec)
        assert hist.counts.tolist() == [1, 2, 1]
        assert hist.smoothed.tolist() == [4 / 11] * 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.histogram(np.array([]))

    def test_bin_count_is_bounded(self):
        # refused before the bins are allocated: 1e20 ns of samples in
        # 1000 ns bins would take 355 PiB
        width = HistogramSpec().bin_width_ns
        with pytest.raises(ValueError, match="histogram bins"):
            stats.histogram(np.array([0.0, 1e20]))
        spec = HistogramSpec(range_ns=(0.0, (stats.MAX_BINS + 1) * width))
        with pytest.raises(ValueError, match="histogram bins"):
            stats.histogram(np.array([1.0]), spec)
        spec = HistogramSpec(range_ns=(0.0, stats.MAX_BINS * width))
        assert stats.histogram(np.array([1.0]), spec).counts.size == stats.MAX_BINS

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=500))
    def test_mass_conservation_property(self, values):
        hist = stats.histogram(np.array(values),
                               HistogramSpec(bin_width_ns=777.0))
        assert hist.counts.sum() == len(values)
        assert math.isclose(hist.smoothed.sum(), len(values), rel_tol=1e-9,
                            abs_tol=1e-9)


def _leak_bit_against(decision, offset_ns):
    """``leak_bit`` on a noiseless loopback session, against a hand-built
    calibration whose threshold lies ``offset_ns`` above the statistic
    that decides the bit: the mean, or the smoothed histogram's mode."""
    plan = ExtractionPlan(measurements_per_bit=50, decision=decision)
    twin = loopback_session(VictimConfig(), 0)
    schedule = twin.bit_schedule(plan, 0)
    if decision == "mode":
        rtts = np.empty(50)
        twin.drawn_moments(schedule, 50, rtts)
        stat = stats.histogram(rtts, plan.histogram).mode_ns()
    else:
        stat, _ = twin.drawn_moments(schedule, 50)
    threshold = stat + offset_ns
    calib = Calibration(mean_hit_ns=threshold - 1000.0,
                        mean_miss_ns=threshold + 1000.0,
                        threshold_ns=threshold, sigma_est_ns=10.0)
    return leak_bit(loopback_session(VictimConfig(), 0), plan, calib, 0).bit


class TestClassifiers:
    @pytest.mark.parametrize("decision", ["mean", "mode"])
    def test_threshold_rule_fast_is_one(self, decision):
        assert _leak_bit_against(decision, 20.0) == 1
        assert _leak_bit_against(decision, -20.0) == 0

    @pytest.mark.parametrize("decision", ["mean", "mode"])
    def test_threshold_tie_breaks_to_zero(self, decision):
        assert _leak_bit_against(decision, 0.0) == 0

    def test_bayes_agrees_with_threshold_on_clean_data(self):
        calib = _calib()
        bit, llr = stats.bayes_classify(np.full(100, 110.0), calib)
        assert bit == 1 and llr > 0
        bit, llr = stats.bayes_classify(np.full(100, 190.0), calib)
        assert bit == 0 and llr < 0

    def test_bayes_llr_scales_with_n(self):
        calib = _calib()
        _, llr_small = stats.bayes_classify(np.full(10, 110.0), calib)
        _, llr_big = stats.bayes_classify(np.full(1000, 110.0), calib)
        assert llr_big > llr_small

    def test_bayes_degenerate_sigma_falls_back(self):
        calib = Calibration(100.0, 200.0, 150.0, 0.0)
        bit, llr = stats.bayes_classify(np.full(5, 110.0), calib)
        assert bit == 1 and llr == math.inf


class TestDispersion:
    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(3)
        rtts = rng.normal(50.0, 7.0, size=10_000)
        mean, std, frac = stats.dispersion(rtts)
        ref_mean = sum(rtts) / len(rtts)
        ref_var = sum((x - ref_mean) ** 2 for x in rtts) / (len(rtts) - 1)
        assert math.isclose(mean, ref_mean, rel_tol=1e-9)
        assert math.isclose(std, math.sqrt(ref_var), rel_tol=1e-9)
        assert frac >= 0.888

    def test_constant_samples(self):
        mean, std, frac = stats.dispersion(np.full(10, 5.0))
        assert (mean, std, frac) == (5.0, 0.0, 1.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            stats.dispersion(np.array([1.0]))


class TestErrorRate:
    def test_hamming(self):
        assert stats.error_rate([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5
        assert stats.error_rate([0, 1], [0, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stats.error_rate([1], [1, 0])


class TestCsv:
    def test_samples_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        rtts = np.array([1.5, 2.25, 3.125])
        stats.write_samples_csv(path, rtts, phase="leak")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert np.allclose([float(r["rtt_ns"]) for r in rows], rtts)
        assert [r["phase"] for r in rows] == ["leak"] * 3
        assert path.read_text().splitlines()[0] == "sequence,rtt_ns,phase"

    def test_histogram_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        hist = stats.histogram(rng.normal(100.0, 5.0, 1000),
                               HistogramSpec(bin_width_ns=1.0))
        path = tmp_path / "hist.csv"
        stats.write_histogram_csv(path, hist)
        assert path.read_text().splitlines()[0] == \
            "bin_start_ns,count,smoothed_count"
        starts, counts, smoothed = np.loadtxt(path, delimiter=",",
                                              skiprows=1, unpack=True)
        assert np.allclose(starts, hist.bin_edges_ns[:-1])
        assert (counts == hist.counts).all()
        assert np.allclose(smoothed, hist.smoothed, atol=1e-6)

    def test_measurement_set_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            stats.histogram(np.array([]))
