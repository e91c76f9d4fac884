"""Wall-clock microbenchmark: synchronous vs overlapped halo exchange.

Runs real training steps of the in-process engine under spatial and hybrid
partitionings with the overlapped halo exchange on (the default) and off.
Both modes run the same point-to-point exchange and the identical
interior/boundary kernel decomposition; "sync" finishes each exchange
right after posting it, before the interior kernel, while "overlap"
finishes it after the interior kernel.  The measured delta is therefore
purely where the wait for the halo strips falls.

Also reports the measured exposed-vs-hidden halo time split from
:class:`~repro.comm.stats.CommStats` (the empirical counterpart of the
cost model's ``max(interior, halo)`` term) and emits
``benchmarks/results/BENCH_halo_overlap.json`` so the step-time trajectory
is tracked from PR to PR.

Both world backends are measured (``--backend both``, the default): on
the thread backend the ranks time-share the interpreter, so the delta is
removed synchronization; on the process backend the strips are real
messages between processes, and the overlapped mode hides their latency
behind the interior kernel.

Run:  PYTHONPATH=src python benchmarks/bench_halo_overlap.py [--backend both]
"""

from __future__ import annotations

import json
import os
from time import perf_counter

import numpy as np

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.nn import NetworkSpec, SGD
from repro.tensor.halo import HALO_OP

try:
    from benchmarks.common import (
        BENCH_BACKENDS, RESULTS_DIR, emit, multi_backend_main, render_table,
    )
except ImportError:
    from common import (
        BENCH_BACKENDS, RESULTS_DIR, emit, multi_backend_main, render_table,
    )

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_halo_overlap.json")

#: Geometry chosen to be halo-bound on the thread backend: several stacked
#: 3x3/5x5 convolutions on a modest image so each step performs many halo
#: exchanges whose synchronous form costs four barrier waits per gather
#: (two collective all-to-alls), while the overlapped form costs none.
HW = 16
CHANNELS = 4
DEPTH = 4
BATCH = 4

CONFIGS = [
    ("spatial 2x2", LayerParallelism(height=2, width=2)),
    ("hybrid 2x(2x1)", LayerParallelism(sample=2, height=2)),
]


def halo_model() -> NetworkSpec:
    """A conv stack dominated by spatially partitioned halo exchanges."""
    net = NetworkSpec("halo-bench")
    net.add("input", "input", channels=3, height=HW, width=HW)
    prev = "input"
    for i in range(DEPTH):
        k = 5 if i == 1 else 3
        net.add(
            f"c{i}", "conv", [prev],
            filters=CHANNELS, kernel=k, pad=k // 2, bias=True,
        )
        net.add(f"r{i}", "relu", [f"c{i}"])
        prev = f"r{i}"
    net.add("gap", "gap", [prev])
    net.add("fc", "fc", ["gap"], units=10, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def _measure(
    par: LayerParallelism, overlap_halo: bool, steps: int, backend: str
) -> tuple[float, dict]:
    """Max-over-ranks seconds/step plus rank-0 halo wait/overlap totals."""
    spec = halo_model()
    rng = np.random.default_rng(11)
    x = rng.standard_normal((BATCH, 3, HW, HW))
    t = rng.integers(0, 10, size=BATCH)

    def prog(comm):
        net = DistNetwork(
            spec, comm, par, seed=0, overlap_halo=overlap_halo
        )
        trainer = DistTrainer(net, SGD(lr=0.05))
        trainer.step(x, t)  # warmup: builds sub-communicators and pools
        comm.stats.reset()
        comm.barrier()
        t0 = perf_counter()
        for _ in range(steps):
            trainer.step(x, t)
        elapsed = perf_counter() - t0
        return (
            elapsed,
            comm.stats.wait_seconds.get(HALO_OP, 0.0),
            comm.stats.overlap_seconds.get(HALO_OP, 0.0),
        )

    results = run_spmd(par.nranks, prog, backend=backend)
    per_step = max(r[0] for r in results) / steps
    detail = {
        "halo_exposed_s": results[0][1] / steps,
        "halo_hidden_s": results[0][2] / steps,
    }
    return per_step, detail


def generate_halo_overlap(
    steps: int = 6,
    repeats: int = 3,
    json_path: str | None = JSON_PATH,
    backends: tuple[str, ...] = BENCH_BACKENDS,
) -> tuple[str, dict]:
    """``json_path=None`` skips the JSON emission; smoke runs pass a scratch
    path so reduced-size numbers never overwrite the tracked trajectory."""
    rows, configs = [], []
    for backend in backends:
        for label, par in CONFIGS:
            sync = min(
                _measure(par, overlap_halo=False, steps=steps, backend=backend)[0]
                for _ in range(repeats)
            )
            best = None
            detail: dict = {}
            for _ in range(repeats):
                per_step, d = _measure(
                    par, overlap_halo=True, steps=steps, backend=backend
                )
                if best is None or per_step < best:
                    best, detail = per_step, d
            speedup = sync / best
            configs.append(
                {
                    "backend": backend,
                    "label": label,
                    "nranks": par.nranks,
                    "sync_step_s": sync,
                    "overlap_step_s": best,
                    "speedup": speedup,
                    **detail,
                }
            )
            rows.append(
                [
                    backend,
                    label,
                    str(par.nranks),
                    f"{sync * 1e3:8.2f}",
                    f"{best * 1e3:8.2f}",
                    f"{speedup:5.2f}x",
                    f"{detail['halo_hidden_s'] * 1e3:7.2f}",
                    f"{detail['halo_exposed_s'] * 1e3:7.2f}",
                ]
            )
    text = render_table(
        "Wall clock — synchronous vs overlapped halo exchange "
        f"(measured ms/step, {steps} steps, batch {BATCH}, {HW}x{HW})",
        ["backend", "config", "ranks", "sync", "overlapped", "speedup",
         "hidden", "exposed"],
        rows,
    )
    payload = {"steps": steps, "batch": BATCH, "image": HW, "configs": configs}
    if json_path is not None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(json_path, "w") as f:
            json.dump(payload, f, indent=2)
    return text, payload


def test_halo_overlap_bench_smoke():
    """The benchmark runs and overlap is never a serious regression (the
    measured speedup itself goes into the JSON on full runs).  The collected
    tier-1 counterpart lives in tests/test_halo_overlap.py."""
    text, payload = generate_halo_overlap(
        steps=2, repeats=1, json_path=None, backends=("thread",)
    )
    for cfg in payload["configs"]:
        assert cfg["overlap_step_s"] > 0 and cfg["sync_step_s"] > 0
        assert cfg["speedup"] > 0.8, text
        # The halo split is actually measured on the overlapped path.
        assert cfg["halo_hidden_s"] + cfg["halo_exposed_s"] > 0, text


if __name__ == "__main__":
    multi_backend_main(__doc__, "bench_halo_overlap", generate_halo_overlap)
