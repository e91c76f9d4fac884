"""Overlapped inter-layer shuffle: bitwise equivalence and accounting.

The engine's overlapped redistribution (nonblocking
:class:`~repro.tensor.shuffle.ShuffleExchange`, launched when an activation
is produced and finished where it is consumed) must be *bitwise* identical
to the blocking all-to-all path — same pieces placed into the same
zero-initialized blocks, only the communication discipline differs.  These
tests assert that over entire training runs with per-layer strategies, that
the wait/overlap split and traffic volumes are recorded under the
``"shuffle"`` op, and that plans are cached across steps.
"""

import os
import sys

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.core.parallelism import ParallelStrategy
from repro.nn import NetworkSpec, SGD
from repro.tensor import DistTensor, Distribution, ProcessGrid
from repro.tensor.shuffle import SHUFFLE_OP, shuffle_plan_stats, start_shuffle


def mixed_model() -> NetworkSpec:
    spec = NetworkSpec("shuffle-eq")
    spec.add("input", "input", channels=2, height=9, width=11)
    spec.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
    spec.add("r1", "relu", ["c1"])
    spec.add("c2", "conv", ["r1"], filters=4, kernel=3, pad=1)
    spec.add("r2", "relu", ["c2"])
    spec.add("c3", "conv", ["r2"], filters=4, kernel=3, pad=1)
    spec.add("j", "add", ["c3", "c1"])  # skip edge crosses a strategy change
    spec.add("gap", "gap", ["j"])
    spec.add("fc", "fc", ["gap"], units=3)
    spec.add("loss", "softmax_ce", ["fc"])
    return spec


STRATEGIES = {
    "sample->spatial": ParallelStrategy(
        {
            "input": LayerParallelism(sample=4),
            "c1": LayerParallelism(sample=4),
            "r1": LayerParallelism(sample=4),
        },
        default=LayerParallelism(height=2, width=2),
    ),
    "spatial->hybrid": ParallelStrategy(
        {
            "c2": LayerParallelism(sample=2, height=2),
            "r2": LayerParallelism(sample=2, height=2),
            "c3": LayerParallelism(sample=2, height=2),
        },
        default=LayerParallelism(height=2, width=2),
    ),
}


def train(strategy: ParallelStrategy, overlap_shuffle: bool, steps: int = 4):
    spec = mixed_model()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2, 9, 11))
    t = rng.integers(0, 3, size=4)

    def prog(comm):
        net = DistNetwork(
            spec, comm, strategy, seed=0, overlap_shuffle=overlap_shuffle
        )
        trainer = DistTrainer(net, SGD(lr=0.05))
        for _ in range(steps):
            trainer.step(x, t)
        params = {
            layer: {p: a.copy() for p, a in v.items()}
            for layer, v in net.params.items()
        }
        stats = comm.stats
        return (
            trainer.stats.losses,
            params,
            net.shuffle_count,
            stats.collectives.get(SHUFFLE_OP, 0),
            stats.collective_bytes.get(SHUFFLE_OP, 0),
            shuffle_plan_stats(comm),
        )

    return run_spmd(4, prog)


class TestShuffleOverlapBitwiseEquivalence:
    @pytest.mark.parametrize("label", list(STRATEGIES))
    def test_training_run_bitwise_equal(self, label):
        """Loss trajectories and final parameters of whole training runs
        are bitwise identical with the overlapped shuffle on and off."""
        strategy = STRATEGIES[label]
        overlapped = train(strategy, overlap_shuffle=True)
        blocking = train(strategy, overlap_shuffle=False)
        for ovl, blk in zip(overlapped, blocking):
            assert ovl[0] == blk[0]  # losses
            for layer in blk[1]:
                for pname in blk[1][layer]:
                    np.testing.assert_array_equal(
                        ovl[1][layer][pname], blk[1][layer][pname]
                    )
            assert ovl[2] == blk[2]  # shuffle_count parity
            # Identical traffic volume recorded under the "shuffle" op.
            assert ovl[3] == blk[3] and ovl[4] == blk[4]

    def test_overlap_is_default_and_exchanges_in_flight(self):
        """DistNetwork defaults to the overlapped path, and forward really
        launches exchanges before their consumers run."""
        spec = mixed_model()
        strategy = STRATEGIES["sample->spatial"]
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 2, 9, 11))

        def prog(comm):
            net = DistNetwork(spec, comm, strategy, seed=0)
            assert net.overlap_shuffle
            launched = []
            orig = net._start_child_shuffles

            def spy(name):
                orig(name)
                launched.append((name, len(net._pending_fwd)))

            net._start_child_shuffles = spy
            net.forward(x)
            assert max(n for _, n in launched) >= 1  # something was in flight
            return True

        assert all(run_spmd(4, prog))


class TestBlockingIsOverlapFinishedAtOnce:
    """``overlap_shuffle=False`` starts the same exchanges and finishes each
    one at once, so a training step moves identical traffic in both modes."""

    @pytest.mark.parametrize("label", list(STRATEGIES))
    def test_training_step_traffic_identical(self, label):
        spec = mixed_model()
        strategy = STRATEGIES[label]
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 2, 9, 11))
        t = rng.integers(0, 3, size=4)

        def prog(comm, overlap):
            net = DistNetwork(spec, comm, strategy, seed=0, overlap_shuffle=overlap)
            trainer = DistTrainer(net, SGD(lr=0.05))
            comm.stats.reset()
            trainer.step(x, t)
            s = comm.stats
            return (
                s.sends,
                s.recvs,
                s.bytes_sent,
                s.bytes_received,
                dict(s.collectives),
                dict(s.collective_bytes),
            )

        blocking = run_spmd(4, prog, False)
        overlapped = run_spmd(4, prog, True)
        assert all(b[4].get(SHUFFLE_OP, 0) > 0 for b in blocking)
        assert overlapped == blocking

    def test_second_finish_returns_cached_result(self):
        """Finishing an exchange twice neither re-waits nor re-assembles:
        the blocking path may finish an exchange its consumer finishes
        again."""
        x = np.arange(48.0).reshape(6, 8)

        def prog(comm):
            src = DistTensor.from_global(
                ProcessGrid(comm, (4, 1)), Distribution.make((4, 1)), x
            )
            dst_grid = ProcessGrid(comm, (1, 4))
            ex = start_shuffle(src, dst_grid, Distribution.make((1, 4)))
            first = ex.finish()
            comm.stats.reset()
            again = ex.finish()
            assert again is first
            assert (comm.stats.sends, comm.stats.recvs) == (0, 0)
            assert comm.stats.collectives == {}
            return first.to_global()

        for got in run_spmd(4, prog):
            np.testing.assert_array_equal(got, x)


class TestShuffleAccounting:
    def test_plan_cache_hits_across_training_steps(self):
        """Regression: repeated steps reuse cached plans — the number of
        plan constructions (misses) must not grow with the step count."""
        strategy = STRATEGIES["sample->spatial"]
        after_2 = train(strategy, overlap_shuffle=True, steps=2)
        after_6 = train(strategy, overlap_shuffle=True, steps=6)
        for r2, r6 in zip(after_2, after_6):
            hits2, misses2 = r2[5]
            hits6, misses6 = r6[5]
            assert misses6 == misses2  # no re-planning, ever
            assert hits6 > hits2  # later steps served from the cache

    def test_wait_and_overlap_measured(self):
        """CommStats separates exposed (waited) from hidden (in flight
        behind other work) shuffle time on the overlapped path."""
        spec = mixed_model()
        strategy = STRATEGIES["sample->spatial"]
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 2, 9, 11))
        t = rng.integers(0, 3, size=4)

        def prog(comm):
            net = DistNetwork(spec, comm, strategy, seed=0)
            trainer = DistTrainer(net, SGD(lr=0.05))
            comm.stats.reset()
            trainer.step(x, t)
            s = comm.stats
            split = s.wait_seconds.get(SHUFFLE_OP, 0.0) + s.overlap_seconds.get(
                SHUFFLE_OP, 0.0
            )
            return split, trainer.comm_report()

        for split, report in run_spmd(4, prog):
            assert split > 0.0  # the timing split is actually recorded
            assert "shuffle" in report
            assert "hidden behind adjacent compute" in report


def test_shuffle_overlap_benchmark_regression():
    """Tier-1 guard on the shuffle benchmark (benchmarks/bench_*.py is not
    collected by pytest): the benchmark must run end-to-end, measure the
    exposed/hidden shuffle split, and the overlapped path must not be
    *catastrophically* slower (which would indicate a serialization bug,
    not jitter).  Tight speedup floors live in the benchmark's own smoke
    check, not here — on 1-2 core runners the honest engine-level delta
    drowns in scheduler noise, and a tier-1 suite must be deterministic."""
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
    )
    try:
        import bench_shuffle_overlap as bs
    finally:
        sys.path.pop(0)
    text, payload = bs.generate_shuffle_overlap(
        steps=2, repeats=1, json_path=None, backends=("thread",)
    )
    for cfg in payload["configs"]:
        assert cfg["sync_step_s"] > 0 and cfg["overlap_step_s"] > 0
        assert cfg["speedup"] > 0.4, text
        assert cfg["shuffle_hidden_s"] + cfg["shuffle_exposed_s"] > 0, text
    assert payload["collective"]["thread"]["collective_speedup"] > 0.4, text
