"""Sample analytics shared by the attacker and the experiment harness:
histograms with moving-average smoothing, the Gaussian two-class Bayes
rule, dispersion estimates, and CSV export.

Everything here is a pure function over sample arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

MAX_BINS = 1 << 20   # the most bins a histogram may have; more is refused


@dataclass
class HistogramSpec:
    bin_width_ns: float = 1000.0
    smoothing_window: int = 11
    range_ns: Optional[tuple[float, float]] = None   # auto-fit when None

    def __post_init__(self):
        if self.bin_width_ns <= 0:
            raise ValueError("bin width must be positive")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValueError("smoothing window must be odd and >= 1")


@dataclass
class Histogram:
    bin_edges_ns: np.ndarray      # len(counts) + 1
    counts: np.ndarray
    smoothed: np.ndarray

    @property
    def bin_centers_ns(self) -> np.ndarray:
        return 0.5 * (self.bin_edges_ns[:-1] + self.bin_edges_ns[1:])

    def mode_ns(self) -> float:
        """Center of the smoothed-histogram maximum (the decision feature)."""
        return float(self.bin_centers_ns[int(np.argmax(self.smoothed))])


def _rtts(samples) -> np.ndarray:
    """The samples of a non-empty array-like, as floats."""
    rtts = np.asarray(samples, dtype=float)
    if rtts.size == 0:
        raise ValueError("empty measurement set")
    return rtts


def histogram(samples, spec: Optional[HistogramSpec] = None) -> Histogram:
    """Binned counts plus their moving average (``smooth``).

    The auto-fitted range is padded by half a smoothing window on each side
    so the moving average never pushes counts off the edge and keeps their
    mass; a given ``range_ns`` loses what falls past its edges.  More than
    MAX_BINS bins is refused (ValueError).
    """
    if spec is None:
        spec = HistogramSpec()
    rtts = _rtts(samples)
    w = spec.smoothing_window
    if spec.range_ns is None:
        pad = (w // 2 + 1) * spec.bin_width_ns
        lo = math.floor((rtts.min() - pad) / spec.bin_width_ns) * spec.bin_width_ns
        hi = math.ceil((rtts.max() + pad) / spec.bin_width_ns) * spec.bin_width_ns
    else:
        lo, hi = spec.range_ns
    nbins = max(1, int(round((hi - lo) / spec.bin_width_ns)))
    if nbins > MAX_BINS:
        raise ValueError(f"{nbins} histogram bins of {spec.bin_width_ns:g} ns; "
                         f"at most {MAX_BINS} are allowed")
    edges = lo + spec.bin_width_ns * np.arange(nbins + 1)
    counts, _ = np.histogram(rtts, bins=edges)
    return Histogram(edges, counts, smooth(counts, w))


def smooth(counts: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average, one value per bin, counting no mass beyond
    the edges.  Each window's sum is a difference of cumulative sums, exact
    for whole counts, divided once by the window: so window 1 is the
    identity on whole counts."""
    if window < 1 or window % 2 == 0:
        raise ValueError("smoothing window must be odd and >= 1")
    h = window // 2   # a leading 0, then h empty bins beyond each edge
    sums = np.cumsum(np.pad(np.asarray(counts), (h + 1, h)))
    return (sums[window:] - sums[:-window]) / window


def bayes_classify(samples, calib) -> tuple[int, float]:
    """Two-class Gaussian likelihood ratio over the sample mean.

    Returns (bit, log-likelihood ratio); positive ratio favors the fast
    (hit) class.  Falls back to the threshold rule when the calibrated
    dispersion is degenerate.
    """
    rtts = _rtts(samples)
    mean = float(rtts.mean())
    sigma = calib.sigma_est_ns
    if sigma <= 0:
        bit = 1 if mean < calib.threshold_ns else 0
        llr = math.inf if bit else -math.inf
        if mean == calib.threshold_ns:
            llr = 0.0
        return bit, llr
    n = rtts.size
    llr = n * ((mean - calib.mean_miss_ns) ** 2 - (mean - calib.mean_hit_ns) ** 2) \
        / (2.0 * sigma * sigma)
    return (1 if llr > 0 else 0), float(llr)


def dispersion(samples) -> tuple[float, float, float]:
    """Sample mean, sample standard deviation, and the fraction of samples
    within three estimated sigmas of the mean."""
    rtts = _rtts(samples)
    if rtts.size < 2:
        raise ValueError("need at least 2 samples")
    mean = float(rtts.mean())
    std = float(rtts.std(ddof=1))
    if std == 0.0:
        return mean, 0.0, 1.0
    frac = float(np.mean(np.abs(rtts - mean) <= 3.0 * std))
    return mean, std, frac


def error_rate(recovered, truth) -> float:
    """Hamming distance over length for two equal-length bit sequences."""
    a = np.asarray(recovered, dtype=int)
    b = np.asarray(truth, dtype=int)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    return float(np.mean(a != b))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_samples_csv(path, rtts_ns, phase: str = "unknown") -> None:
    """Sample dump: header ``sequence,rtt_ns,phase``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence", "rtt_ns", "phase"])
        for i, rtt in enumerate(np.asarray(rtts_ns, dtype=float)):
            writer.writerow([i, f"{rtt:.3f}", phase])


def write_histogram_csv(path, hist: Histogram) -> None:
    """Histogram dump: header ``bin_start_ns,count,smoothed_count``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start_ns", "count", "smoothed_count"])
        for start, count, sm in zip(hist.bin_edges_ns[:-1], hist.counts,
                                    hist.smoothed):
            writer.writerow([f"{start:.3f}", int(count), f"{sm:.6f}"])
