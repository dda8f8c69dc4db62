#!/usr/bin/env python3
"""Recover a randomized memory offset by remote binary search.

The victim keeps one valid offset in a 2^M slot space. A range-check
gadget speculatively touches a probe line only when the guessed range
still contains the valid offset, so each timed probe answers "is the
offset in [lo, mid)?" and M rounds pin it down exactly.

Run:  python3 demos/break_layout_randomization.py [--space-bits 16]
"""

import argparse

import numpy as np

from spectrelab.attacker import (ExtractionPlan, break_aslr, calibrate,
                                 loopback_session)
from spectrelab.victim import VictimConfig
from spectrelab.wire import LatencyModel


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--space-bits", type=int, default=16)
    ap.add_argument("--n", type=int, default=100_000,
                    help="measurements per probe")
    ap.add_argument("--sigma-ns", type=float, default=2_000.0)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    offset = int(rng.integers(0, 1 << args.space_bits))
    cfg = VictimConfig(
        valid_aslr_offset=offset, aslr_space_bits=args.space_bits,
        latency=LatencyModel(base_ns=100_000.0, sigma_ns=args.sigma_ns))
    session = loopback_session(cfg, args.seed)

    calib = calibrate(session, ExtractionPlan(), n=1_000_000, channel="aslr")
    result = break_aslr(session, args.space_bits, args.n, calib=calib)

    for i, r in enumerate(result.rounds):
        half = "lower" if r.went_left else "upper"
        print(f"  round {i:2d}: [{r.lo:6d}, {r.hi:6d})  "
              f"left {r.mean_left_ns:10.1f} ns vs "
              f"right {r.mean_right_ns:10.1f} ns  -> {half} half")
    print(f"recovered offset {result.offset} "
          f"(truth {offset}, {'match' if result.offset == offset else 'MISS'})"
          f" in {len(result.rounds)} rounds, "
          f"{result.requests_total} requests")


if __name__ == "__main__":
    main()
