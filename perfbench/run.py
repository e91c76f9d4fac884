"""The repository benchmark: oracle-checked 2-rank training-step time.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  Workloads are defined in
``workloads.py``; metrics, their units and what moves them are listed in
``NOTES.md``.  The run

1. pins BLAS to one thread per rank (2 ranks x 1 thread, sized for a
   2-core host) in the environment of every child interpreter;
2. runs the single-device oracle (``oracle.py``) in its own interpreter;
3. runs the distributed training loops (``measure.py``) in another;
4. checks every step: a step fails if its world raised, its loss is not
   finite, the ranks' losses differ, or one of the first
   ``ORACLE_STEPS`` losses of a world differs from the oracle's by more
   than ``ORACLE_RTOL`` relative;
5. prints one line per metric, then, as the last stdout line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
   the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
   traced run with ``--trace 1``.

The exit code is 0 only when every step passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

ORACLE_STEPS = 4
#: Uniform strategies match the oracle bitwise or to the last ulp; mixed
#: per-layer strategies change reduction order (a few 1e-16 observed).
ORACLE_RTOL = 1e-9
#: Every child must finish inside this many seconds from the start.
DEADLINE_S = 170.0
#: One BLAS thread per rank, set before any child imports numpy.
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Kernel self times: metric -> span names.
NN_GROUPS = {
    "nn.conv_fwd_ms": ("nn.conv2d_forward",),
    "nn.conv_bwd_ms": ("nn.conv2d_backward_filter", "nn.conv2d_backward_data"),
    "nn.bn_ms": ("nn.batchnorm_forward", "nn.batchnorm_backward", "nn.batchnorm_stats"),
    # Pooling shares a metric with the elementwise kernels: mesh-spatial
    # has no pool, and a time metric must not read a constant 0.
    "nn.other_ms": (
        "nn.maxpool2d_forward", "nn.maxpool2d_backward",
        "nn.avgpool2d_forward", "nn.avgpool2d_backward",
        "nn.global_avgpool_forward", "nn.global_avgpool_backward",
        "nn.relu_forward", "nn.relu_backward",
        "nn.linear_forward", "nn.linear_backward",
        "nn.softmax_cross_entropy", "nn.sigmoid_bce_with_logits",
    ),
}
#: Inclusive times: metric -> span names.
INCLUSIVE_GROUPS = {
    "core.fwd_ms": ("core.DistNetwork.forward",),
    "core.bwd_ms": ("core.DistNetwork.backward",),
    "core.grad_drain_ms": ("core.BucketedGradReducer.drain",),
    "core.optimizer_ms": ("optim.SGD.step",),
    # One time for all three exchange kinds, each of which some workload
    # bypasses; the per-kind call counts below show which ones ran.
    "tensor.exchange_ms": (
        "tensor.start_region_exchange", "tensor.RegionExchange.finish",
        "tensor.shuffle", "tensor.start_shuffle",
        "tensor.ShuffleExchange.start", "tensor.ShuffleExchange.finish",
        "tensor.DistTensor.start_scatter_region_add", "tensor.ScatterAddExchange.finish",
    ),
    "comm.allreduce_ms": ("comm.Communicator.allreduce",),
}
#: Call-count metrics: completed exchanges / blocking calls per step.
CALL_GROUPS = {
    "tensor.halo_calls": ("tensor.RegionExchange.finish",),
    "tensor.shuffle_calls": ("tensor.shuffle", "tensor.ShuffleExchange.finish"),
    "tensor.scatter_calls": ("tensor.ScatterAddExchange.finish",),
    "comm.allreduce_calls": ("comm.Communicator.allreduce",),
}


class ChildFailed(RuntimeError):
    pass


def run_child(script: str, args: list[str], env: dict, deadline: float) -> dict:
    """Run ``perfbench/<script>`` in a fresh interpreter; return the JSON of
    its last stdout line.  The child gets its own process group so that a
    timeout also stops the ranks it forked."""
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{script} exceeded the time limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray ranks, if any
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{script} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def check_steps(measured: dict, oracle_losses: list[float]) -> tuple[int, int, list[str]]:
    """Count attempted and failed steps across all worlds."""
    attempted = failed = 0
    problems = []
    for w, world in enumerate(measured["worlds"]):
        per_rank = [r["losses"] for r in world["ranks"]]
        for i, losses in enumerate(zip(*per_rank)):
            attempted += 1
            bad = None
            if not all(math.isfinite(v) for v in losses):
                bad = f"non-finite loss {losses}"
            elif len(set(losses)) > 1:
                bad = f"ranks disagree {losses}"
            elif i < len(oracle_losses):
                ref = oracle_losses[i]
                if abs(losses[0] - ref) > ORACLE_RTOL * max(1.0, abs(ref)):
                    bad = f"loss {losses[0]!r} != oracle {ref!r}"
            if bad:
                failed += 1
                problems.append(f"world {w} step {i}: {bad}")
    if measured["error"]:
        attempted += 1
        failed += 1
        problems.append(f"run raised {measured['error']}")
    return attempted, failed, problems


def world_times(world: dict) -> dict:
    """Per-world set-up times (max over ranks) and per-step samples."""
    ranks = world["ranks"]
    t0 = world["t_launch"]
    return {
        "launch_s": max(r["t_start"] - t0 for r in ranks),
        "build_s": max(r["t_built"] - r["t_start"] for r in ranks),
        "warmup_s": max(r["t_warm"] - r["t_built"] for r in ranks),
        "setup_s": max(r["t_warm"] - t0 for r in ranks),
        # A step's time is the slowest rank's; its CPU cost is all ranks'.
        "step_s": [max(v) for v in zip(*(r["wall"] for r in ranks))],
        "cpu_s": [sum(v) for v in zip(*(r["cpu"] for r in ranks))],
        "maxrss_kb": max(r["maxrss_kb"] for r in ranks),
    }


def end_to_end(measured: dict) -> tuple[dict, dict]:
    """Gated metrics as ``{name: (value, unit)}``, and printed-only counts."""
    worlds = [world_times(w) for w in measured["worlds"]]
    steps = [s for w in worlds for s in w["step_s"]]
    cpu = [s for w in worlds for s in w["cpu_s"]]
    q90 = p90(steps)
    return {
        "step_ms_p50": (statistics.median(steps) * 1e3, "ms"),
        "cpu_ms_per_step": (statistics.median(cpu) * 1e3, "ms"),
        "peak_rss_mb": (max(w["maxrss_kb"] for w in worlds) / 1024, "MB"),
        "setup_s": (statistics.median(w["setup_s"] for w in worlds), "s"),
    }, {
        "steps": len(steps),
        # Printed, not gated: hypervisor steal moves it by more than any
        # bound BENCHMARK.json may set (see NOTES.md).
        "step_ms_p90": f"{q90 * 1e3:.3f} ms",
        "beyond_p90": sum(s > q90 for s in steps),
        "worlds": len(worlds),
    }


def per_layer(measured: dict, oracle: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced world, and printed-only counts."""
    untraced = [world_times(w) for w in measured["worlds"] if not w["traced"]]
    (traced_world,) = [w for w in measured["worlds"] if w["traced"]]
    traced = world_times(traced_world)
    ranks = traced_world["ranks"]
    nsteps = len(traced["step_s"])

    def per_step(values) -> float:
        """Mean over ranks of a per-rank total, per timed step."""
        return sum(values) / len(ranks) / nsteps

    def span_sum(r, names, col) -> float:
        return sum(r["agg"].get(n, (0, 0.0, 0.0))[col] for n in names)

    m = {}
    for metric, names in NN_GROUPS.items():
        m[metric] = (per_step(span_sum(r, names, 2) for r in ranks) * 1e3, "ms")
    for metric, names in INCLUSIVE_GROUPS.items():
        m[metric] = (per_step(span_sum(r, names, 1) for r in ranks) * 1e3, "ms")
    for metric, names in CALL_GROUPS.items():
        m[metric] = (per_step(span_sum(r, names, 0) for r in ranks), "count")
    conv_s = sum(
        span_sum(r, NN_GROUPS["nn.conv_fwd_ms"] + NN_GROUPS["nn.conv_bwd_ms"], 2)
        for r in ranks
    ) / nsteps
    m["nn.conv_gflops"] = (measured["conv_flops"] / conv_s / 1e9, "GFLOP/s")
    local_ms = statistics.median(oracle["step_s"]) * 1e3
    m["nn.local_step_ms"] = (local_ms, "ms")
    m["nn.step_peak_mb"] = (
        max(r["step_peak_b"] for r in ranks if r["step_peak_b"] is not None) / 2**20,
        "MB",
    )
    m["core.self_ms"] = (
        per_step(
            sum(v[2] for n, v in r["agg"].items() if n.startswith("core."))
            for r in ranks
        ) * 1e3,
        "ms",
    )
    m["core.build_ms"] = (statistics.median(w["build_s"] for w in untraced) * 1e3, "ms")
    m["core.warmup_step_ms"] = (
        statistics.median(w["warmup_s"] for w in untraced) * 1e3, "ms"
    )
    untraced_p50 = statistics.median(s for w in untraced for s in w["step_s"]) * 1e3
    m["core.scaling_eff"] = (local_ms / (len(ranks) * untraced_p50), "ratio")
    m["comm.zero_byte_calls"] = (per_step(r["zero_byte_calls"] for r in ranks), "count")
    m["comm.wait_ms"] = (per_step(r["wait_s"] for r in ranks) * 1e3, "ms")
    m["comm.hidden_ms"] = (per_step(r["hidden_s"] for r in ranks) * 1e3, "ms")
    m["comm.wire_bytes"] = (per_step(r["wire_bytes"] for r in ranks), "B")
    m["comm.launch_ms"] = (statistics.median(w["launch_s"] for w in untraced) * 1e3, "ms")
    predicted_ms = measured["predicted_step_s"] * 1e3
    m["perfmodel.measured_over_predicted"] = (untraced_p50 / predicted_ms, "ratio")
    m["trace.step_ms_p50"] = (statistics.median(traced["step_s"]) * 1e3, "ms")
    m["trace.untraced_step_ms_p50"] = (untraced_p50, "ms")
    return m, {
        "traced_steps": nsteps,
        "untraced_steps": sum(len(w["step_s"]) for w in untraced),
        # A model output, the same on every run: printed, not a metric.
        "perfmodel.predicted_step_ms": f"{predicted_ms:.4f} ms",
    }


def negative_self_times(measured: dict) -> list[str]:
    return [
        f"rank {r['rank']} {name}: self {v[2]!r} s"
        for w in measured["worlds"] if w["traced"]
        for r in w["ranks"]
        for name, v in r["agg"].items()
        if v[2] < 0
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a name from workloads.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **BLAS_PINS)
    print("BLAS threads per rank: "
          + " ".join(f"{k}={v}" for k, v in BLAS_PINS.items()))

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        oracle = run_child("oracle.py", common + ["--steps", str(ORACLE_STEPS)],
                           env, deadline)
        measured = run_child(
            "measure.py",
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check_steps(measured, oracle["losses"])
    correct = failed == 0
    if args.trace and measured["worlds"] and measured["worlds"][-1]["traced"]:
        negative = negative_self_times(measured)
        problems += negative
        correct = correct and not negative
        metrics, counts = per_layer(measured, oracle) if correct else ({}, {})
    elif not args.trace and correct:
        metrics, counts = end_to_end(measured)
    else:
        metrics, counts = {}, {}
    for p in problems[:20]:
        print(f"FAILED {p}")
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted} steps, "
          f"failed {failed} (failed_frac {failed / max(attempted, 1):.4g}); "
          + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
