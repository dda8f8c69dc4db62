#!/usr/bin/env python3
"""Leak one planted byte from the victim purely through round-trip times.

Walks the full attack loop on a loopback transport with realistic LAN
jitter: calibrate the two corner cases, then for each secret bit run
mistrain -> evict -> speculative leak -> timed transmit, and decide the
bit from the mean RTT against the calibrated threshold.

Run:  python3 demos/leak_byte.py [--channel cache|avx] [--n 200000]
"""

import argparse

from spectrelab.attacker import (ExtractionPlan, calibrate, leak_range,
                                 loopback_session)
from spectrelab.uarch import SecretStore
from spectrelab.victim import VictimConfig
from spectrelab.wire import LatencyModel


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--channel", choices=("cache", "avx"), default="cache")
    ap.add_argument("--n", type=int, default=200_000,
                    help="measurements per bit")
    ap.add_argument("--sigma-ns", type=float, default=2_000.0,
                    help="network jitter sigma (ns); 15600 is a local LAN")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    secret = b"d"
    cfg = VictimConfig(
        secrets=SecretStore.with_secret(b"\x00" * 16, secret),
        latency=LatencyModel(base_ns=100_000.0, sigma_ns=args.sigma_ns))
    session = loopback_session(cfg, args.seed)

    start = cfg.secrets.bitstream_length          # first secret bit
    plan = ExtractionPlan(channel=args.channel,
                          measurements_per_bit=args.n,
                          target_bit_range=(start, start + 8))

    print(f"channel={args.channel}  sigma={args.sigma_ns:.0f} ns  "
          f"N={args.n} per bit")
    calib = calibrate(session, plan, n=max(args.n, 100_000))
    print(f"calibrated: hit {calib.mean_hit_ns:.1f} ns, "
          f"miss {calib.mean_miss_ns:.1f} ns, "
          f"threshold {calib.threshold_ns:.1f} ns")

    result = leak_range(session, plan, calib)
    truth = [cfg.secrets.bit(start + i) for i in range(8)]
    for i, (bit, z, t) in enumerate(zip(result.bits, result.confidences,
                                        truth)):
        mark = "ok" if bit == t else "FLIP"
        print(f"  bit {start + i:3d}: read {bit}  "
              f"(truth {t}, z={z:+6.1f}) {mark}")
    print(f"recovered: {''.join(map(str, result.bits))} = "
          f"0x{result.data.hex()} ({result.data!r})")
    print(f"requests: {result.requests_total} total, "
          f"{result.requests_per_bit:.0f} per bit; projected "
          f"{result.projected_seconds_per_bit:.1f} s/bit on a real link")


if __name__ == "__main__":
    main()
