"""Drive one workload's ``DistTrainer`` loops and print raw records as JSON.

    python3 perfbench/measure.py --workload W --seed S --seconds T --trace 0|1

``run.py`` starts this in a fresh interpreter with BLAS pinned to one
thread, so nothing the benchmark did before (the oracle, another workload)
inflates the ranks' memory or set-up time.  Each *world* is one
``run_spmd`` launch: build ``DistNetwork`` and ``DistTrainer``, take a
warm-up step and ``CAL_STEPS`` calibration steps, then a closed loop of
timed steps sized to the world's share of ``--seconds``.  Untraced runs
launch ``UNTRACED_WORLDS`` worlds.  ``--trace 1`` launches
``TRACE_UNTRACED_WORLDS`` untraced worlds and then one world with the
:class:`~tracing.Tracer` installed, which it removes afterwards.

The last stdout line is one JSON object; ``run.py`` checks and reduces it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.comm import run_spmd  # noqa: E402
from repro.core import DistNetwork, DistTrainer  # noqa: E402
from repro.nn import SGD  # noqa: E402
from repro.perfmodel.machine import MachineSpec  # noqa: E402
from repro.perfmodel.network_cost import NetworkCostModel  # noqa: E402

from tracing import Tracer, write_chrome_trace  # noqa: E402
from workloads import INIT_SEED, LEARNING_RATE, NRANKS, WORKLOADS  # noqa: E402

UNTRACED_WORLDS = 5
TRACE_UNTRACED_WORLDS = 2
CAL_STEPS = 2
MIN_STEPS = 5
#: Peak RSS is read after this many timed steps, not at the end: the
#: thread and process transports keep one empty mailbox queue per
#: drained (source, tag) pair, so RSS grows with the step count, and a
#: time-bounded loop would tie the memory figure to the speed.
RSS_STEPS = 20
#: Where the traced run's span file goes, relative to the checkout root.
OUT_DIR = ".perfbench"


def conv_flops(spec, batch: int) -> int:
    """FLOPs of one training step's convolutions, computed from the layer
    shapes: forward ``2*N*F*C*Kh*Kw*Ho*Wo``, backward data and backward
    filter the same again each."""
    shapes = spec.infer_shapes()
    total = 0
    for layer in spec.topo_order():
        if layer.kind != "conv":
            continue
        c = shapes[layer.parents[0]][0]
        f, ho, wo = shapes[layer.name]
        k = layer.params["kernel"]
        kh, kw = (k, k) if isinstance(k, int) else k
        total += 3 * 2 * batch * f * c * kh * kw * ho * wo
    return total


def run_world(workload, spec, strategy, pool, budget_s, tracer=None) -> dict:
    """One ``run_spmd`` launch; returns per-rank records."""
    cpu_clock = time.thread_time if workload.backend == "thread" else time.process_time

    def prog(comm):
        t_start = monotonic()
        net = DistNetwork(spec, comm, strategy, seed=INIT_SEED)
        trainer = DistTrainer(net, SGD(lr=LEARNING_RATE))
        t_built = monotonic()
        losses = []

        def step() -> float:
            x, t = pool[len(losses) % len(pool)]
            loss = trainer.step(x, t)
            losses.append(loss)
            return loss

        step()
        t_warm = monotonic()
        cal = []
        for _ in range(CAL_STEPS):
            t0 = perf_counter()
            step()
            cal.append(perf_counter() - t0)
        nsteps = comm.bcast(
            max(MIN_STEPS, round(budget_s * CAL_STEPS / sum(cal)))
            if comm.rank == 0 else None
        )
        stats = comm.stats
        if tracer is not None:
            tracer.reset()
        before = (
            stats.bytes_sent + stats.total_wire_sent(),
            stats.total_wait_seconds(),
            stats.total_overlap_seconds(),
        )
        wall, cpu = [], []
        maxrss_kb = None
        for i in range(nsteps):
            c0 = cpu_clock()
            t0 = perf_counter()
            step()
            t1 = perf_counter()
            cpu.append(cpu_clock() - c0)
            wall.append(t1 - t0)
            if i + 1 == min(nsteps, RSS_STEPS):
                maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec = {
            "rank": comm.rank,
            "t_start": t_start,
            "t_built": t_built,
            "t_warm": t_warm,
            "losses": losses,
            "wall": wall,
            "cpu": cpu,
            "maxrss_kb": maxrss_kb,
        }
        if tracer is not None:
            rec["trace"] = tracer.snapshot()
            rec["wire_bytes"] = stats.bytes_sent + stats.total_wire_sent() - before[0]
            rec["wait_s"] = stats.total_wait_seconds() - before[1]
            rec["hidden_s"] = stats.total_overlap_seconds() - before[2]
            rec["step_peak_b"] = peak_step(comm, step, workload.backend)
        return rec

    t_launch = monotonic()
    ranks = run_spmd(NRANKS, prog, backend=workload.backend)
    return {"t_launch": t_launch, "traced": tracer is not None, "ranks": ranks}


def peak_step(comm, step, backend: str) -> int | None:
    """``tracemalloc`` peak of one extra step.  On the thread backend both
    ranks share one process, so rank 0 alone reads the shared peak."""
    owner = backend != "thread" or comm.rank == 0
    comm.barrier()
    if owner:
        tracemalloc.start()
    comm.barrier()
    step()
    comm.barrier()
    peak = None
    if owner:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    spec = workload.spec()
    strategy = workload.strategy(spec)
    pool = workload.batches(args.seed)
    out = {"workload": workload.name, "worlds": [], "error": None}
    plan = (
        [(args.seconds / 2 / TRACE_UNTRACED_WORLDS, False)] * TRACE_UNTRACED_WORLDS
        + [(args.seconds / 2, True)]
        if args.trace
        else [(args.seconds / UNTRACED_WORLDS, False)] * UNTRACED_WORLDS
    )
    try:
        for budget, traced in plan:
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                out["worlds"].append(
                    run_world(workload, spec, strategy, pool, budget, tracer)
                )
            finally:
                if tracer is not None:
                    tracer.remove()
    except Exception as exc:  # the run is reported as failed, not hidden
        out["error"] = f"{type(exc).__name__}: {exc}"

    if args.trace:
        out["predicted_step_s"] = NetworkCostModel(spec, MachineSpec()).minibatch_time(
            workload.batch, strategy
        )
        out["conv_flops"] = conv_flops(spec, workload.batch)
        traced = [w for w in out["worlds"] if w["traced"]]
        if traced:
            snaps = [r.pop("trace") for r in traced[0]["ranks"]]
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
            write_chrome_trace(path, snaps)
            print(f"spans written to {path}", file=sys.stderr)
            for rec, snap in zip(traced[0]["ranks"], snaps):
                rec["agg"] = snap["agg"]
                rec["zero_byte_calls"] = snap["zero_byte_calls"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
