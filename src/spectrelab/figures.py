"""Desk-scale datasets for the standard experiment plots, written as CSV.

Each generator builds a fresh seeded loopback victim, runs the relevant
measurement loop, and writes one or more CSV files under an output
directory.  Histogram figures use a reduced latency sigma so the effect
is visible at small sample counts; the extraction figures use the real
presets.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from . import attacker, stats, uarch, wire
from .attacker import ExtractionPlan
from .stats import HistogramSpec
from .victim import VictimConfig
from .wire import LatencyModel

# sigma small enough that a 160-cycle (80 ns) gap shows up in a histogram
_VISIBLE_SIGMA_NS = 20.0
_VISIBLE_SPEC = HistogramSpec(bin_width_ns=10.0, smoothing_window=11)


def _session(seed: int, sigma_ns: float, config: VictimConfig | None = None):
    cfg = config or VictimConfig()
    cfg.latency = LatencyModel(base_ns=10_000.0, sigma_ns=sigma_ns,
                               name="figure")
    return attacker.loopback_session(cfg, seed)


def _write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _corners(out_dir: str, stem: str, channel: str, seed: int, n: int) -> None:
    """Histograms of ``channel``'s hit and miss corners, one CSV each."""
    session = _session(seed, _VISIBLE_SIGMA_NS)
    for corner in ("hit", "miss"):
        hist = stats.histogram(session.collect_corner(channel, corner, n),
                               _VISIBLE_SPEC)
        stats.write_histogram_csv(
            os.path.join(out_dir, f"{stem}_{corner}.csv"), hist)


def fig3(out_dir: str, seed: int, n: int = 100_000) -> None:
    """Cache-channel corner histograms: cached vs evicted transmit times."""
    _corners(out_dir, "fig3", "cache", seed, n)


def fig4(out_dir: str, seed: int, trials: int = 10_000) -> None:
    """Eviction probability vs transfer size: model curve and empirical
    frequency over seeded trials."""
    rng = np.random.default_rng(seed)
    state = uarch.MicroarchState()
    sizes = [50_000, 150_000, 300_000, 590_000, 1_000_000]
    rows = []
    for size in sizes:
        model_p = uarch.thrash_probability(size)
        hits = 0
        for _ in range(trials):
            state.cache.flag_cached = True
            if state.thrash(size, rng):
                hits += 1
        rows.append([size, f"{model_p:.6f}", f"{hits / trials:.6f}"])
    _write_rows(os.path.join(out_dir, "fig4.csv"),
                ["bytes", "model_probability", "empirical_probability"], rows)


def fig5(out_dir: str, seed: int, n: int = 100_000) -> None:
    """SIMD power-state histograms: warm vs fully powered-down unit."""
    _corners(out_dir, "fig5", "avx", seed, n)


def fig6(out_dir: str, seed: int) -> None:
    """Power-down penalty vs idle time; knees at the decay start and end."""
    rows = []
    for idle_us in np.arange(0.0, 1500.0 + 1e-9, 10.0):
        penalty = uarch.avx_penalty(idle_us * 1000.0)
        rows.append([f"{idle_us:.1f}", penalty])
    _write_rows(os.path.join(out_dir, "fig6.csv"),
                ["idle_us", "penalty_cycles"], rows)


def fig7(out_dir: str, seed: int, n: int = 100_000) -> None:
    """Per-bit histograms for the planted byte: eight extraction runs."""
    session = _session(seed, _VISIBLE_SIGMA_NS)
    plan = ExtractionPlan(channel="cache", measurements_per_bit=n)
    calib = attacker.calibrate(session, plan, n=n)
    secrets = session.transport.victim.config.secrets
    start = secrets.bitstream_length
    plan.target_bit_range = (start, start + 8)

    def sink(pos: int, rtts: np.ndarray) -> None:
        hist = stats.histogram(rtts, _VISIBLE_SPEC)
        stats.write_histogram_csv(
            os.path.join(out_dir, f"fig7_bit{pos}.csv"), hist)

    result = attacker.leak_range(session, plan, calib, sample_sink=sink)
    _write_rows(os.path.join(out_dir, "fig7_bits.csv"),
                ["bit", "value", "confidence"],
                [[i, b, f"{c:.3f}"] for i, (b, c) in
                 enumerate(zip(result.bits, result.confidences))])


def fig8(out_dir: str, seed: int, planted_bits: int = 64) -> None:
    """Bit error rate vs measurements per bit, local preset."""
    rng = np.random.default_rng(seed)
    secret = bytes(rng.integers(0, 256, size=planted_bits // 8, dtype=np.uint8))
    rows = []
    for n in (1000, 4000, 16000, 64000):
        cfg = VictimConfig(secrets=uarch.SecretStore.with_secret(
            b"\x00" * 16, secret))
        session = _session(seed + n, wire.PRESET_SIGMAS_NS["local"], cfg)
        secrets = cfg.secrets
        plan = ExtractionPlan(channel="cache", measurements_per_bit=n,
                              target_bit_range=(secrets.bitstream_length,
                                                secrets.bitstream_length
                                                + planted_bits))
        # a ~72 ns gap after the clamp at 0, sigma ~14.4 us: at 4e6 samples
        # the 4 sigma / sqrt(n) gate is 29 ns and fails about once in 1e5
        calib = attacker.calibrate(session, plan, n=4_000_000)
        result = attacker.leak_range(session, plan, calib)
        truth = [secrets.bit(secrets.bitstream_length + i)
                 for i in range(planted_bits)]
        ber = stats.error_rate(result.bits, truth)
        rows.append([n, f"{ber:.6f}"])
    _write_rows(os.path.join(out_dir, "fig8.csv"),
                ["measurements_per_bit", "bit_error_rate"], rows)


def fig10(out_dir: str, seed: int, n: int = 200_000) -> None:
    """Smoothed leak histograms for a 1 and a 0 bit under the local preset;
    the separation is in the smoothed mass, not the raw mode."""
    cfg = VictimConfig(secrets=uarch.SecretStore.with_secret(
        b"\x00" * 16, bytes([0b10000000])))
    session = _session(seed, wire.PRESET_SIGMAS_NS["local"], cfg)
    start = cfg.secrets.bitstream_length
    plan = ExtractionPlan(channel="cache", measurements_per_bit=n)
    one = session.collect_bit(plan, start)       # planted 1
    zero = session.collect_bit(plan, start + 1)  # planted 0
    spec = HistogramSpec(bin_width_ns=1000.0, smoothing_window=11,
                         range_ns=(0.0, 120_000.0))
    for label, rtts in (("one", one), ("zero", zero)):
        stats.write_histogram_csv(
            os.path.join(out_dir, f"fig10_{label}.csv"),
            stats.histogram(rtts, spec))


_GENERATORS = {f.__name__: f for f in (fig3, fig4, fig5, fig6, fig7, fig8,
                                        fig10)}
FIGURE_IDS = tuple(_GENERATORS)


def generate(figure_id: str, out_dir: str, seed: int) -> None:
    if figure_id not in _GENERATORS:
        raise ValueError(f"unknown figure id {figure_id!r}; "
                         f"choose from {', '.join(FIGURE_IDS)}")
    os.makedirs(out_dir, exist_ok=True)
    _GENERATORS[figure_id](out_dir, seed)
