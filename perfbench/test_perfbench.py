"""Tests of the benchmark's own machinery: tracing and step checks.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import run  # noqa: E402
from tracing import Tracer, write_chrome_trace  # noqa: E402


def test_span_stacks_are_per_thread():
    """Two threads interleaving nested spans keep their own stacks: every
    self time is non-negative and each parent's self excludes only its own
    child."""
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.02), "nn.inner", "nn")

    def outer_fn():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap(outer_fn, "core.outer", "core")
    snaps = {}
    barrier = threading.Barrier(2)

    def worker(key):
        barrier.wait()
        for _ in range(5):
            outer()
        snaps[key] = tracer.snapshot()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    for snap in snaps.values():
        calls, incl, self_s = snap["agg"]["core.outer"]
        assert calls == 5
        assert 0 <= self_s < incl
        assert 0.04 <= self_s <= incl - snap["agg"]["nn.inner"][1] + 1e-9
        assert len(snap["spans"]) == 10


def test_same_layer_calls_nest_into_the_outer_span():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "comm.leaf", "comm")
    outer = tracer.wrap(lambda: leaf(), "comm.outer", "comm")
    outer()
    agg = tracer.snapshot()["agg"]
    assert agg["comm.outer"][0] == 1
    assert "comm.leaf" not in agg


def test_remove_restores_unpatched_code():
    from repro.core import dist_network
    from repro.core.dist_conv import DistConv2d
    from repro.comm.communicator import Communicator
    from repro.nn import functional

    originals = {
        "conv": functional.conv2d_forward,
        "fwd": DistConv2d.__dict__["forward"],
        "allreduce": Communicator.__dict__["allreduce"],
        "shuffle": dist_network.shuffle,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert functional.conv2d_forward is not originals["conv"]
        assert dist_network.shuffle is not originals["shuffle"]
    finally:
        tracer.remove()
    assert functional.conv2d_forward is originals["conv"]
    assert DistConv2d.__dict__["forward"] is originals["fwd"]
    assert Communicator.__dict__["allreduce"] is originals["allreduce"]
    assert dist_network.shuffle is originals["shuffle"]


def _traced_thread_run():
    """A 2-rank hybrid step of a small net on the thread backend."""
    from repro.comm import run_spmd
    from repro.core import DistNetwork, DistTrainer, LayerParallelism
    from repro.core import ParallelStrategy
    from repro.nn import SGD
    from repro.nn.resnet import build_resnet_tiny

    spec = build_resnet_tiny(image_size=16)
    names = [layer.name for layer in spec.topo_order()]
    strategy = ParallelStrategy(
        {n: LayerParallelism(height=2) for n in names[:6]},
        default=LayerParallelism(sample=2),
    )
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 16, 16))
    t = rng.integers(0, 10, size=4)
    tracer = Tracer()

    def prog(comm):
        trainer = DistTrainer(DistNetwork(spec, comm, strategy, seed=1), SGD(lr=1e-3))
        trainer.step(x, t)
        tracer.reset()
        trainer.step(x, t)
        return tracer.snapshot()

    tracer.install()
    try:
        return run_spmd(2, prog, backend="thread")
    finally:
        tracer.remove()


def test_traced_thread_backend_run_has_no_negative_self_time(tmp_path):
    snaps = _traced_thread_run()
    for snap in snaps:
        agg = snap["agg"]
        assert agg["core.DistNetwork.forward"][0] == 1
        assert agg["nn.conv2d_forward"][0] > 0
        assert agg["tensor.ShuffleExchange.finish"][0] > 0
        assert min(v[2] for v in agg.values()) >= 0
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), snaps)
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["pid"] for e in events} == {0, 1}
    assert len(events) == sum(len(s["spans"]) for s in snaps)


def test_check_steps_counts_oracle_mismatch_and_disagreement():
    good = [1.0, 2.0, 3.0]
    measured = {
        "error": None,
        "worlds": [
            {"ranks": [{"losses": good}, {"losses": good}]},
            {"ranks": [{"losses": [1.0, 2.5, 3.0]}, {"losses": [1.0, 2.5, 3.0]}]},
            {"ranks": [{"losses": [1.0, 2.0, 3.0]}, {"losses": [1.0, 2.0, 3.5]}]},
            {"ranks": [{"losses": [1.0, 2.0, float("nan")]},
                       {"losses": [1.0, 2.0, float("nan")]}]},
        ],
    }
    attempted, failed, problems = run.check_steps(measured, [1.0, 2.0])
    assert attempted == 12
    assert failed == 3
    assert "oracle" in problems[0] and "disagree" in problems[1]
    # Drift inside the stated tolerance is not a failure.
    near = {"error": None, "worlds": [
        {"ranks": [{"losses": [1.0 + 4e-16]}, {"losses": [1.0 + 4e-16]}]}
    ]}
    assert run.check_steps(near, [1.0])[1] == 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "mesh-spatial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _bench(trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "mesh-spatial",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_prints_every_listed_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        listed = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _bench(trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert sorted(metrics) == sorted(m["name"] for m in listed[key])
        for m in listed[key]:
            assert metrics[m["name"]]["unit"] == m["unit"]
    # mesh-spatial has no pool and no shuffle; it halos every 3x3 conv.
    assert metrics["tensor.shuffle_calls"]["value"] == 0
    assert metrics["tensor.scatter_calls"]["value"] == 0
    assert metrics["tensor.halo_calls"]["value"] > 0
    for name in ("tensor.halo_calls", "comm.allreduce_calls", "comm.wire_bytes"):
        assert metrics[name]["value"] == int(metrics[name]["value"])
