"""Print one digest line per step of the benchmark's first rounds, and
compare the bit confidences two runs of it wrote.

Each workload's rounds are set up and run as ``perfbench/run.py`` runs
them, through ``perfbench/workloads.py`` (seed sequence ``[seed, workload
id, round]``), untraced.  Per step, the line holds short sha256 digests of:

- ``result``: the step's result (``wall_seconds`` zeroed) or its error,
  with every bit and value-round confidence left out;
- ``calib``: the calibration;
- ``counters``: the session's and the victim's request counters;
- ``state``: the clock, the predictor, cache and SIMD state;
- ``draws``: the next draw of the victim's and the transport's generators.

Two checkouts that print the same lines decide, count and draw the same;
``--confidences`` writes the confidences as JSON, keyed like the lines,
and ``--compare`` reports the largest relative difference between two
such files:

    python3 tools/round_digest.py --root old --confidences old.json > old.txt
    python3 tools/round_digest.py --root new --confidences new.json > new.txt
    diff old.txt new.txt
    python3 tools/round_digest.py --compare old.json new.json

``--root`` is the checkout whose ``src/`` and ``perfbench/`` are run (by
default the one holding this file).  Rounds 0-1 of ``leak``, ``search``
and ``request`` at seeds 1-2 take about a minute on a 2-core host.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _split(result) -> tuple[object, list[float]]:
    """The result as plain data without its confidences, and those."""
    if result is None:
        return None, []
    data = dataclasses.asdict(result)
    if "confidences" in data:                 # a leak
        data["wall_seconds"] = 0.0
        return data, data.pop("confidences")
    rounds = data.get("rounds", [])           # a layout break or a value
    confidences = [r.pop("confidence") for r in rounds if "confidence" in r]
    return data, confidences


def _step_line(outcome) -> tuple[str, list[float]]:
    target = outcome.target
    session, victim = target.session, target.victim
    st = victim.state
    result, confidences = _split(outcome.result)
    error = (None if outcome.error is None
             else (type(outcome.error).__name__, str(outcome.error)))
    calib = (None if outcome.calib is None
             else dataclasses.asdict(outcome.calib))
    counters = (sorted(session.counters.items()),
                sorted(victim.counters.items()))
    state = (st.clock.now, sorted(st.predictor.counters.items()),
             st.cache.flag_cached, st.cache.flag_value,
             st.cache.aslr_cached_offset, st.avx.last_use_ns)
    draws = (victim.rng.random(), session.transport.rng.random())
    return (f"result {_digest((result, error))} calib {_digest(calib)} "
            f"counters {_digest(counters)} state {_digest(state)} "
            f"draws {_digest(draws)}"), confidences


def run(root: str, workloads_: list[str], seeds: list[int],
        rounds: list[int]) -> dict:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import numpy as np
    import workloads
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(root, "perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    confidences = {}
    for name in workloads_:
        wl = workloads.WORKLOADS[name]
        for seed in seeds:
            for r in rounds:
                inputs = workloads.make_inputs(wl, np.random.SeedSequence(
                    [seed, bench.WORKLOAD_IDS[name], r]))
                for i, target in enumerate(workloads.build(wl, inputs)):
                    key = f"{name} seed {seed} round {r} step {i}"
                    line, conf = _step_line(workloads.run_step(target))
                    confidences[key] = conf
                    print(f"{key} {line}", flush=True)
    return confidences


def _relative(a: float, b: float) -> float:
    if a == b:                                # equal infinities included
        return 0.0
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a.keys() != b.keys() or any(len(a[k]) != len(b[k]) for k in a):
        print("the files hold different steps or confidence counts")
        return 1
    worst, where, count = 0.0, None, 0
    for key in a:
        for i, (x, y) in enumerate(zip(a[key], b[key])):
            count += 1
            d = _relative(x, y)
            if d > worst:
                worst, where = d, f"{key} #{i}"
    print(f"{count} confidences; largest relative difference {worst:.3g}"
          + (f" at {where}" if worst else ""))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=os.path.dirname(HERE))
    p.add_argument("--workloads", nargs="+",
                   default=["leak", "search", "request"])
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    p.add_argument("--rounds", nargs="+", type=int, default=[0, 1])
    p.add_argument("--confidences", metavar="FILE")
    p.add_argument("--compare", nargs=2, metavar="FILE")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    confidences = run(os.path.abspath(args.root), args.workloads, args.seeds,
                      args.rounds)
    if args.confidences:
        with open(args.confidences, "w") as fh:
            json.dump(confidences, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
