"""The single-device oracle: ``LocalNetwork`` plus the same ``SGD``.

    python3 perfbench/oracle.py --workload W --seed S --steps K

Trains on the same seeded batches, from the same initial parameters, as
the distributed run, and prints one JSON line: the first ``K`` losses
(``run.py`` compares every world's first ``K`` against them) and the
wall time of every step taken.  It keeps stepping until at least
``MIN_SECONDS`` have passed so the oracle's step time is a median, not
one cold sample.  It runs in its own interpreter, before the distributed
run, never beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.nn import SGD, LocalNetwork  # noqa: E402

from workloads import INIT_SEED, LEARNING_RATE, WORKLOADS  # noqa: E402

MIN_SECONDS = 1.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--steps", type=int, required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    pool = workload.batches(args.seed)
    net = LocalNetwork(workload.spec(), seed=INIT_SEED)
    opt = SGD(lr=LEARNING_RATE)
    losses, step_s = [], []
    t_begin = perf_counter()
    while len(losses) < args.steps or perf_counter() - t_begin < MIN_SECONDS:
        x, t = pool[len(losses) % len(pool)]
        t0 = perf_counter()
        loss, grads = net.loss_and_grad(x, t)
        opt.step(net.params, grads)
        step_s.append(perf_counter() - t0)
        losses.append(loss)
    print(json.dumps({"losses": losses[: args.steps], "step_s": step_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
