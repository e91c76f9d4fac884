"""Elastic-recovery costs of the PR 10 supervisor: what a mid-run rank
kill charges end to end, and how the replay bill scales with checkpoint
cadence.

One measured section, swept over ``checkpoint_every``:

* a 2-rank training run is killed by an injected hard crash mid-step on
  the process backend, supervised by :class:`ElasticRunner`;
* the supervisor classifies the failure, relaunches, and the relaunched
  world resumes from the newest common checkpoint — **bitwise** identical
  to an uninterrupted run (that contract lives in
  ``tests/test_elastic.py``; here we only price it);
* per cadence we record the resumed step, the steps replayed (work done
  once, paid twice), the supervisor's failure-detection time, and the
  whole-job recovery overhead versus an uninterrupted reference run.

Sparse checkpointing is cheap per step but bills more replayed steps per
failure — the sweep makes that trade concrete for ROADMAP's checkpoint
cadence guidance.

Emits a table and ``benchmarks/results/BENCH_elastic.json`` (smoke runs
write ``BENCH_elastic_smoke.json`` so the tracked trajectory is never
clobbered by reduced sizes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile
from time import monotonic

import numpy as np

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.core.elastic import ElasticRunner
from repro.nn import NetworkSpec, SGD

try:
    from benchmarks.common import RESULTS_DIR, render_table
except ImportError:
    from common import RESULTS_DIR, render_table

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_elastic.json")

NRANKS = 2
CRASH_RANK = 1
# The bench net compiles 3 "#alg"-tagged sends per rank per training
# step, so a send-count fault placed at 3*k + 2 fires mid-step k.
SENDS_PER_STEP = 3

FULL_EVERY = (1, 2, 4)
FULL_NSTEPS = 8
FULL_CRASH_STEP = 7
SMOKE_EVERY = (2,)
SMOKE_NSTEPS = 4
SMOKE_CRASH_STEP = 3


def _spec() -> NetworkSpec:
    spec = NetworkSpec("elastic_bench")
    spec.add("input", "input", channels=1, height=8, width=8)
    spec.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
    spec.add("b1", "bn", ["c1"])
    spec.add("r1", "relu", ["b1"])
    spec.add("gap", "gap", ["r1"])
    spec.add("fc", "fc", ["gap"], units=3)
    spec.add("loss", "softmax_ce", ["fc"])
    return spec


def _etrain(comm, ckdir: str, nsteps: int, every: int):
    """Elastic entry point: resume from whatever checkpoints exist, train
    to ``nsteps``, report where the resume landed plus a bitwise digest of
    the final parameters (so CI can compare runs without shipping them)."""
    net = DistNetwork(_spec(), comm, LayerParallelism(sample=comm.size), seed=0)
    trainer = DistTrainer(
        net,
        SGD(lr=0.05, momentum=0.9, weight_decay=1e-4),
        checkpoint_dir=ckdir,
        checkpoint_every=every,
        rng=np.random.default_rng(42),
    )
    resumed = trainer.resume_elastic()
    resumed_step = resumed[0] if resumed else 0
    for _ in range(trainer.step_index, nsteps):
        x = trainer.rng.standard_normal((4, 1, 8, 8))
        t = trainer.rng.integers(0, 3, size=4)
        trainer.step(x, t)
    digest = hashlib.sha256()
    for layer in sorted(net.params):
        for pname in sorted(net.params[layer]):
            digest.update(np.ascontiguousarray(net.params[layer][pname]))
    return resumed_step, trainer.step_index, digest.hexdigest()


def _timed_reference(nsteps: int, every: int) -> float:
    with tempfile.TemporaryDirectory() as ckdir:
        t0 = monotonic()
        run_spmd(
            NRANKS, _etrain, ckdir, nsteps, every,
            backend="process", timeout=120.0,
        )
        return monotonic() - t0


def _timed_recovery(nsteps: int, crash_step: int, every: int):
    """Kill mid-step ``crash_step``, let the supervisor heal the job."""
    fault = (
        f"crash@rank{CRASH_RANK}:tag=#alg:"
        f"after={crash_step * SENDS_PER_STEP + 2}"
    )
    with tempfile.TemporaryDirectory() as ckdir:
        t0 = monotonic()
        report = ElasticRunner(
            NRANKS, backend="process", backoff=0.0, sleep=lambda s: None,
            faults=[fault], checkpoint_dir=ckdir,
            detect_interval=0.2, timeout=120.0,
        ).run(_etrain, ckdir, nsteps, every)
        elapsed = monotonic() - t0
    if not report.ok or report.total_restarts != 1:
        raise RuntimeError(f"elastic bench run misbehaved: {report.describe()}")
    [rec] = report.restarts
    resumed_step = max(r[0] for r in report.results)
    return elapsed, rec.detect_seconds, resumed_step


def measure_cadence(every_values, nsteps: int, crash_step: int, repeats: int):
    rows = []
    for every in every_values:
        ref_s = min(_timed_reference(nsteps, every) for _ in range(repeats))
        best = None
        for _ in range(repeats):
            run = _timed_recovery(nsteps, crash_step, every)
            if best is None or run[0] < best[0]:
                best = run
        elapsed, detect_s, resumed_step = best
        rows.append({
            "checkpoint_every": every,
            "resumed_step": resumed_step,
            "steps_replayed": crash_step - resumed_step,
            "detect_s": detect_s,
            "reference_s": ref_s,
            "elastic_s": elapsed,
            "recovery_overhead_s": elapsed - ref_s,
        })
    return rows


def generate_elastic(
    every_values=FULL_EVERY,
    nsteps: int = FULL_NSTEPS,
    crash_step: int = FULL_CRASH_STEP,
    repeats: int = 3,
    json_path: str = JSON_PATH,
):
    cadence = measure_cadence(every_values, nsteps, crash_step, repeats)

    table = render_table(
        f"Elastic recovery cost vs checkpoint cadence (process backend, "
        f"{NRANKS} ranks, rank {CRASH_RANK} killed mid-step {crash_step} "
        f"of {nsteps}, auto-resumed bitwise)",
        ("every", "resumed step", "replayed", "detect (ms)",
         "recovery overhead (ms)"),
        [
            (
                str(r["checkpoint_every"]),
                str(r["resumed_step"]),
                str(r["steps_replayed"]),
                f"{r['detect_s'] * 1e3:.0f}",
                f"{r['recovery_overhead_s'] * 1e3:.0f}",
            )
            for r in cadence
        ],
    )

    data = {
        "benchmark": "elastic",
        "nranks": NRANKS,
        "nsteps": nsteps,
        "crash_step": crash_step,
        "cadence": cadence,
    }
    os.makedirs(os.path.dirname(json_path), exist_ok=True)
    with open(json_path, "w") as f:
        json.dump(data, f, indent=1)
    table += f"\n[JSON written to {json_path}]"
    return table, data


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="single cadence, 4 steps, 1 repeat; JSON to a scratch path",
    )
    args = parser.parse_args()
    try:
        from benchmarks.common import emit
    except ImportError:
        from common import emit
    if args.smoke:
        emit("bench_elastic", generate_elastic(
            every_values=SMOKE_EVERY, nsteps=SMOKE_NSTEPS,
            crash_step=SMOKE_CRASH_STEP, repeats=1,
            json_path=os.path.join(RESULTS_DIR, "BENCH_elastic_smoke.json"),
        )[0])
    else:
        emit("bench_elastic", generate_elastic()[0])


if __name__ == "__main__":
    main()
