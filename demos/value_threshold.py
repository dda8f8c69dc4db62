#!/usr/bin/env python3
"""Recover a hidden 16-bit value with speculative comparisons.

The victim exposes a comparison gadget that speculatively touches a
probe line when guess < secret. Each batch of timed probes answers one
comparison, so a binary search over the value space recovers the number
in 16 rounds without the victim ever returning it. A round repeats its
comparison until the evidence is strong enough; the demo prints how many
comparisons each round took.

Run:  python3 demos/value_threshold.py [--secret 31337]
"""

import argparse

from spectrelab.attacker import (ExtractionPlan, calibrate, loopback_session,
                                 value_threshold_search)
from spectrelab.victim import VictimConfig
from spectrelab.wire import LatencyModel


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--secret", type=int, default=31337)
    ap.add_argument("--n", type=int, default=100_000,
                    help="measurements per comparison")
    ap.add_argument("--sigma-ns", type=float, default=2_000.0)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    cfg = VictimConfig(
        value_secret=args.secret, value_bits=16,
        latency=LatencyModel(base_ns=100_000.0, sigma_ns=args.sigma_ns))
    session = loopback_session(cfg, args.seed)

    plan = ExtractionPlan(measurements_per_bit=args.n)
    calib = calibrate(session, plan, n=1_000_000)
    result = value_threshold_search(session, 16, plan, calib)

    for i, r in enumerate(result.rounds):
        verdict = "below" if r.above else "at or above"
        print(f"  round {i:2d}: guess {r.guess:5d} is {verdict} the secret "
              f"(z={r.confidence:+6.1f}, comparisons={r.comparisons})")
    match = "match" if result.value == args.secret else "MISS"
    print(f"recovered value {result.value} (truth {args.secret}, {match}) "
          f"with {result.requests_total} requests")


if __name__ == "__main__":
    main()
