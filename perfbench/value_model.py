"""Gaussian model of one round of the value search at the ``search``
workload's operating point, outside the library: the per-round error and
the share of rounds that need more than one comparison.

    python3 perfbench/value_model.py

Each simulated round draws its own calibration (threshold offset and gap
estimate), shrinks the half-gap by two threshold standard errors as
``value_threshold_search`` does, and repeats n-sample comparisons until
the log-likelihood ratio 2·δ·Σ(threshold − rtt)/σ² leaves ±log((1−α)/α),
α = 0.05/16.
"""

import math

import numpy as np

SIGMA_NS = 15_600.0
GAP_NS = 0.99 * 80.0          # cache-style gap: eviction probability × 80 ns
N = 3_000_000                 # measurements per comparison
CAL_N = 8_000_000             # measurements per calibration corner
ALPHA = 0.05 / 16
CHUNK = 2_000_000
ROUNDS = 40_000_000            # simulated rounds, in whole chunks
SEED = 1


def main() -> None:
    rng = np.random.default_rng(SEED)
    bound = math.log((1 - ALPHA) / ALPHA)
    se_t = SIGMA_NS / math.sqrt(2 * CAL_N)
    sd_mean = SIGMA_NS / math.sqrt(N)
    wrong = extra = 0
    chunks = ROUNDS // CHUNK
    for _ in range(chunks):
        t = rng.normal(0.0, se_t, CHUNK)
        gap = GAP_NS + rng.normal(0.0, SIGMA_NS * math.sqrt(2 / CAL_N), CHUNK)
        half_gap = 0.5 * gap - 2.0 * se_t
        side = np.where(rng.random(CHUNK) < 0.5, 1.0, -1.0)   # +1: fast
        shortfall = np.zeros(CHUNK)
        decided = np.zeros(CHUNK, bool)
        verdict = np.zeros(CHUNK)
        for k in range(8):
            shortfall += N * (side * GAP_NS / 2 + t
                              + rng.normal(0.0, sd_mean, CHUNK))
            llr = 2.0 * half_gap * shortfall / SIGMA_NS ** 2
            new = ~decided & (np.abs(llr) >= bound)
            verdict[new] = np.sign(llr[new])
            decided |= new
            if k == 0:
                extra += int((~decided).sum())
        wrong += int((decided & (verdict != side)).sum())
    total = chunks * CHUNK
    print(f"{total} rounds: {wrong / total:.2e} wrong per round "
          f"({16 * wrong / total:.1e} per 16-bit value), "
          f"{extra / total:.2e} need a second comparison")


if __name__ == "__main__":
    main()
