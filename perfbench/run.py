"""spectrelab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload leak --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  A run sets up and runs whole rounds of its workload until the
next round would not fit in ``--seconds`` (at least one round), checks
every output, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every round is traced
and the metrics are the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 9     # extra set-ups timed at each point, for setup_s

WORKLOAD_IDS = {"leak": 1, "search": 2, "request": 3}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_IDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spectrelab", "__init__.py")):
        print(f"error: no spectrelab sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np

    import checks
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    def build_round(r):
        inputs = workloads.make_inputs(
            wl, np.random.SeedSequence([args.seed, WORKLOAD_IDS[wl.name], r]))
        t0 = time.perf_counter()
        targets = workloads.build(wl, inputs)
        return targets, time.perf_counter() - t0

    # Set-up takes about 0.1 ms, so it is timed on fresh copies of a
    # round's objects before the first round and again after every step,
    # spreading the samples over the run; the copies are discarded.
    setup_times = []

    def time_setups(r, k):
        for _ in range(k):
            setup_times.append(build_round(r)[1])

    time_setups(0, SETUP_REPEATS)
    walls, outcomes = [], []
    attempted = failed = attack_requests = bits = measurements = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        targets, dt = build_round(len(walls))
        setup_times.append(dt)
        if tracer is not None:
            for t in targets:
                tracer.instrument(t.session)
        wall = 0.0
        round_outcomes = []
        for t in targets:
            t0 = time.perf_counter()
            round_outcomes.append(workloads.run_step(t, tracer))
            wall += time.perf_counter() - t0
            time_setups(len(walls), SETUP_REPEATS)
        for o in round_outcomes:
            a, f, p = checks.check(o)
            attempted += a
            failed += f
            problems += p
            if o.error is not None:
                print(f"operation failed: {type(o.error).__name__}: {o.error}",
                      file=sys.stderr)
                continue
            measurements += 2 * o.target.step.cal_n + \
                workloads.attack_measurements(o.target.step, o.result)
            attack_requests += o.result.requests_total
            bits += workloads.recovered_bits(o.target.step)
        walls.append(wall)
        if len(walls) == 1:
            # later rounds repeat the same work; only heap reuse moves them
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes += round_outcomes
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(walls) > args.seconds:
            break

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not bits:
        print("error: every operation failed; nothing was measured",
              file=sys.stderr)
        return 1
    if tracer is None:
        per_bit = attack_requests / bits
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.fmean(walls), "s"),
            "measurements_per_s": (measurements / sum(walls), "1/s"),
            "requests_per_bit": (per_bit, "count"),
            "bits_per_hour": (3600e9 / (per_bit * workloads.PACKET_NS), "bit/h"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layer = tracer.metrics(len(walls), outcomes)
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}
        metrics["tracer.wall_s"] = (statistics.fmean(walls), "s")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{wl.name}-{args.seed}.jsonl"),
                     {"workload": wl.name, "seed": args.seed,
                      "rounds": len(walls), "round_walls_s": walls})
        if wl.name == "request":
            import udp
            from spectrelab.wire import WireError
            try:
                ref = json.dumps(udp.reference(args.seed))
            except (OSError, RuntimeError, WireError) as err:
                ref = f"unavailable ({type(err).__name__}: {err})"
            print("udp reference: " + ref)

    print(f"workload {wl.name}, seed {args.seed}, {len(walls)} round(s), "
          f"{attempted} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith(".ns_per_sample"):
        return "ns"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(".ms_per_bit"):
        return "ms"
    if name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
