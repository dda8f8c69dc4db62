"""Error of the ``search`` workload's value recovery, measured on seeds the
benchmark never uses (its own inputs come from SeedSequence([seed, 1..3,
round])).

    python3 perfbench/value_error.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HELD_OUT = 99
VALUES = 100


def main() -> int:
    search = workloads.WORKLOADS["search"]
    step = next(s for s in search.steps if isinstance(s, workloads.Value))
    wl = workloads.Workload("value", search.sigma_ns, search.batched, (step,))
    wrong = comparisons = failed = 0
    for k in range(VALUES):
        target, = workloads.build(wl, workloads.make_inputs(
            wl, np.random.SeedSequence([k, HELD_OUT])))
        out = workloads.run_step(target)
        if out.error is not None:
            failed += 1
            continue
        wrong += out.result.value != target.inputs.value
        comparisons += sum(r.comparisons for r in out.result.rounds)
    done = VALUES - failed
    print(f"{VALUES} values at n = {step.n} per comparison, calibration "
          f"{step.cal_n} per corner: {wrong} wrong, {failed} raised, "
          f"{comparisons / max(done, 1):.2f} comparisons per value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
