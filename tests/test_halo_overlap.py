"""Overlapped halo exchange: bitwise equivalence and accounting (§IV-A).

The engine's overlapped path (nonblocking strips + interior/boundary kernel
decomposition) must be *bitwise* identical to the synchronous path — same
floating-point operations in the same per-element order, only the
communication discipline differs.  These tests assert that at the layer
level across strategies/kernels/strides, and over entire training runs.

The equivalence tests run on both world backends (the ``backend``
fixture); the process backend covers a reduced rank/geometry matrix.
"""

import os
import sys

import numpy as np
import pytest

from conftest import reduce_for_process
from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.core.dist_conv import DistConv2d
from repro.core.dist_layers import DistPool2d
from repro.core.parallelism import activation_dist
from repro.nn import NetworkSpec, SGD
from repro.nn import functional as F
from repro.tensor import DistTensor, Distribution, ProcessGrid
from repro.tensor.halo import HALO_OP, start_region_exchange
from repro.tensor.indexing import extract_padded


def run_dist_conv(
    nranks, grid_shape, x, w, stride, pad, overlap, bias=None, backend="thread"
):
    """Distributed fwd+bwd; returns per-rank (y_local, dx_local, dw, db)."""

    def prog(comm):
        grid = ProcessGrid(comm, grid_shape)
        xd = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
        conv = DistConv2d(
            grid, w, stride=stride, pad=pad, bias=bias, overlap_halo=overlap
        )
        y = conv.forward(xd)
        rng = np.random.default_rng(99)
        dy_global = rng.standard_normal(y.global_shape)
        dy = DistTensor.from_global(grid, y.dist, dy_global)
        dx, dw_partial, db_partial = conv.backward(dy)
        return y.local.copy(), dx.local.copy(), dw_partial, db_partial

    return run_spmd(nranks, prog, backend=backend)


GEOMETRIES = [
    # (grid_shape, N, C, H, W, F, K, S, P) — spatial / hybrid / edge cases
    ((1, 1, 2, 2), 2, 3, 8, 8, 5, 3, 1, 1),     # 2x2 spatial
    ((1, 1, 4, 1), 1, 3, 16, 8, 5, 3, 1, 1),    # 4x1 spatial
    ((2, 1, 2, 1), 2, 3, 8, 8, 4, 3, 1, 1),     # hybrid 2 samples x 2-way
    ((2, 1, 2, 2), 2, 2, 8, 8, 4, 3, 1, 1),     # hybrid 2 x 2x2 (8 ranks)
    ((1, 1, 2, 2), 1, 3, 9, 11, 4, 3, 1, 1),    # odd sizes, uneven partitions
    ((1, 1, 2, 2), 1, 2, 12, 12, 4, 5, 2, 2),   # K=5 S=2
    ((1, 1, 2, 2), 2, 3, 8, 8, 5, 1, 1, 0),     # 1x1: no halo at all
    ((1, 1, 2, 2), 1, 2, 11, 13, 3, 3, 2, 1),   # odd sizes + stride 2
    ((1, 1, 2, 2), 1, 2, 9, 9, 3, 5, 1, 2),     # K=5 halo of 2, odd image
    ((4, 1, 1, 1), 4, 3, 8, 8, 5, 3, 1, 1),     # pure sample: local fast path
]


class TestOverlapBitwiseEquivalence:
    @pytest.mark.parametrize("grid_shape,n,c,h,w_,f,k,s,p", GEOMETRIES)
    def test_layer_overlap_equals_sync(self, grid_shape, n, c, h, w_, f, k, s, p, backend):
        nranks = int(np.prod(grid_shape))
        reduce_for_process(backend, nranks > 4, "nranks <= 4")
        rng = np.random.default_rng(42)
        x = rng.standard_normal((n, c, h, w_))
        w = rng.standard_normal((f, c, k, k))
        b = rng.standard_normal(f)

        sync = run_dist_conv(
            nranks, grid_shape, x, w, s, p, overlap=False, bias=b, backend=backend
        )
        ovl = run_dist_conv(
            nranks, grid_shape, x, w, s, p, overlap=True, bias=b, backend=backend
        )
        for (y_s, dx_s, dw_s, db_s), (y_o, dx_o, dw_o, db_o) in zip(sync, ovl):
            np.testing.assert_array_equal(y_o, y_s)
            np.testing.assert_array_equal(dx_o, dx_s)
            np.testing.assert_array_equal(dw_o, dw_s)
            np.testing.assert_array_equal(db_o, db_s)

    @pytest.mark.parametrize(
        "par",
        [
            LayerParallelism(height=2, width=2),
            LayerParallelism(sample=2, height=2),
            LayerParallelism(sample=4),
        ],
        ids=["spatial2x2", "hybrid2x2", "sample4"],
    )
    def test_training_run_bitwise_equal(self, par, backend):
        """Loss trajectories and final parameters of whole training runs are
        bitwise identical with the overlapped exchange on and off."""
        reduce_for_process(
            backend, (par.sample, par.height, par.width) != (1, 2, 2),
            "spatial 2x2 only",
        )
        spec = NetworkSpec("halo-eq")
        spec.add("input", "input", channels=2, height=9, width=11)
        spec.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
        spec.add("r1", "relu", ["c1"])
        spec.add("c2", "conv", ["r1"], filters=4, kernel=5, pad=2)
        spec.add("r2", "relu", ["c2"])
        spec.add("c3", "conv", ["r2"], filters=4, kernel=3, stride=2, pad=1)
        spec.add("gap", "gap", ["c3"])
        spec.add("fc", "fc", ["gap"], units=3)
        spec.add("loss", "softmax_ce", ["fc"])
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2, 9, 11))
        t = rng.integers(0, 3, size=4)

        def run(overlap):
            def prog(comm):
                net = DistNetwork(spec, comm, par, seed=0, overlap_halo=overlap)
                trainer = DistTrainer(net, SGD(lr=0.05))
                for _ in range(4):
                    trainer.step(x, t)
                params = {
                    layer: {p: a.copy() for p, a in v.items()}
                    for layer, v in net.params.items()
                }
                return trainer.stats.losses, params

            return run_spmd(par.nranks, prog, backend=backend)

        for (losses_o, params_o), (losses_s, params_s) in zip(run(True), run(False)):
            assert losses_o == losses_s
            for layer in params_s:
                for pname in params_s[layer]:
                    np.testing.assert_array_equal(
                        params_o[layer][pname], params_s[layer][pname]
                    )


class TestPoolOverlapEquivalence:
    """DistPool2d's overlapped forward gather (interior windows behind the
    in-flight halo strips, boundary strips after assembly) must be bitwise
    identical to the synchronous fused kernel — pooling windows are reduced
    per output element, so the decomposition cannot change accumulation
    order."""

    POOL_GEOMS = [
        # (grid_shape, N, C, H, W, K, S, P)
        ((1, 1, 2, 2), 2, 3, 9, 11, 3, 2, 1),   # classic 3x3/2 overlap pool
        ((1, 1, 2, 2), 2, 3, 8, 8, 3, 1, 1),    # K > S on every boundary
        ((2, 1, 2, 1), 2, 2, 8, 8, 2, 2, 0),    # K == S: no halo at all
        ((1, 1, 4, 1), 1, 2, 16, 8, 3, 2, 1),   # deep 1D spatial split
    ]

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("grid_shape,n,c,h,w_,k,s,p", POOL_GEOMS)
    def test_pool_overlap_equals_sync(
        self, grid_shape, n, c, h, w_, k, s, p, mode, backend
    ):
        nranks = int(np.prod(grid_shape))
        reduce_for_process(
            backend, (grid_shape, mode) != ((1, 1, 2, 2), "max"),
            "one representative geometry",
        )
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, c, h, w_))

        def prog(comm, overlap):
            grid = ProcessGrid(comm, grid_shape)
            xd = DistTensor.from_global(
                grid, activation_dist(grid_shape, x.shape), x
            )
            pool = DistPool2d(grid, mode, k, s, p, overlap_halo=overlap)
            y = pool.forward(xd)
            rng2 = np.random.default_rng(7)
            dy = DistTensor.from_global(
                grid, y.dist, rng2.standard_normal(y.global_shape)
            )
            dx = pool.backward(dy)
            return y.local.copy(), dx.local.copy()

        sync = run_spmd(nranks, prog, False, backend=backend)
        ovl = run_spmd(nranks, prog, True, backend=backend)
        for (y_s, dx_s), (y_o, dx_o) in zip(sync, ovl):
            np.testing.assert_array_equal(y_o, y_s)
            np.testing.assert_array_equal(dx_o, dx_s)

    def test_pool_halo_time_recorded_when_windows_overlap(self):
        """With K > S the overlapped pool forward drives real nonblocking
        strips: the halo_exchange wait/overlap split must be measured."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 12, 12))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 2, 2))
            xd = DistTensor.from_global(
                grid, activation_dist(grid.shape, x.shape), x
            )
            pool = DistPool2d(grid, "max", 3, 1, 1, overlap_halo=True)
            comm.stats.reset()
            pool.forward(xd)
            s = comm.stats
            return (
                s.wait_seconds.get(HALO_OP, 0.0)
                + s.overlap_seconds.get(HALO_OP, 0.0),
                s.collectives.get("region_data", 0),
            )

        for halo_time, exchanges in run_spmd(4, prog):
            assert halo_time > 0.0
            assert exchanges == 1  # the forward gather, nonblocking


class TestNothingToExchange:
    """A layer whose regions are all local makes no communication call."""

    @staticmethod
    def _assert_silent(stats) -> None:
        assert stats.collectives == {}, stats.collectives
        assert (stats.sends, stats.recvs) == (0, 0)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_sample_parallel_pool(self, mode, overlap, backend):
        """Forward and backward of a sample-parallel pool: the reverse
        scatter is all local, so no zero-byte all-to-all is issued."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 2, 9, 9))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 1, 1, 1))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            pool = DistPool2d(grid, mode, 3, 2, 1, overlap_halo=overlap)
            comm.stats.reset()
            y = pool.forward(xd)
            dy = DistTensor.from_global(grid, y.dist, np.ones(y.global_shape))
            dx = pool.backward(dy)
            self._assert_silent(comm.stats)
            return y.local.copy(), dx.local.copy()

        (y0, dx0), (y1, dx1) = run_spmd(2, prog, backend=backend)
        if mode == "max":
            y_ref, argmax = F.maxpool2d_forward(x, (3, 3), (2, 2), 1)
            dx_ref = F.maxpool2d_backward(
                np.ones(y_ref.shape), argmax, x.shape, (3, 3), (2, 2), 1
            )
        else:
            y_ref = F.avgpool2d_forward(x, (3, 3), (2, 2), 1)
            dx_ref = F.avgpool2d_backward(
                np.ones(y_ref.shape), x.shape, (3, 3), (2, 2), 1
            )
        np.testing.assert_array_equal(np.concatenate([y0, y1]), y_ref)
        np.testing.assert_array_equal(np.concatenate([dx0, dx1]), dx_ref)

    def test_sample_parallel_conv_without_overlap(self, backend):
        """With ``overlap_halo=False`` a sample-parallel conv still reads its
        regions locally: no gather collective in forward or backward."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 1, 1, 1))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            conv = DistConv2d(grid, w, stride=1, pad=1, overlap_halo=False)
            comm.stats.reset()
            y = conv.forward(xd)
            dy = DistTensor.from_global(grid, y.dist, np.ones(y.global_shape))
            conv.backward(dy)
            self._assert_silent(comm.stats)
            return True

        assert all(run_spmd(2, prog, backend=backend))


def traffic(stats) -> tuple:
    """Everything a rank put on or took off the wire, per op."""
    return (
        stats.sends,
        stats.recvs,
        stats.bytes_sent,
        stats.bytes_received,
        dict(stats.collectives),
        dict(stats.collective_bytes),
    )


class TestBlockingIsOverlapFinishedAtOnce:
    """``overlap_halo=False`` only moves ``finish()`` next to the start: the
    layer sends the same messages with the same bytes in both modes."""

    @pytest.mark.parametrize("grid_shape,n,c,h,w_,f,k,s,p", GEOMETRIES[:3])
    def test_conv_traffic_identical(self, grid_shape, n, c, h, w_, f, k, s, p):
        nranks = int(np.prod(grid_shape))
        rng = np.random.default_rng(21)
        x = rng.standard_normal((n, c, h, w_))
        w = rng.standard_normal((f, c, k, k))

        def prog(comm, overlap):
            grid = ProcessGrid(comm, grid_shape)
            xd = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
            conv = DistConv2d(grid, w, stride=s, pad=p, overlap_halo=overlap)
            comm.stats.reset()
            y = conv.forward(xd)
            conv.backward(DistTensor.from_global(grid, y.dist, np.ones(y.global_shape)))
            return traffic(comm.stats)

        blocking = run_spmd(nranks, prog, False)
        overlapped = run_spmd(nranks, prog, True)
        assert any(t[0] for t in blocking)  # the geometry does exchange halos
        assert overlapped == blocking

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_pool_traffic_identical(self, mode):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 3, 9, 11))

        def prog(comm, overlap):
            grid = ProcessGrid(comm, (1, 1, 2, 2))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            pool = DistPool2d(grid, mode, 3, 2, 1, overlap_halo=overlap)
            comm.stats.reset()
            y = pool.forward(xd)
            pool.backward(DistTensor.from_global(grid, y.dist, np.ones(y.global_shape)))
            return traffic(comm.stats)

        blocking = run_spmd(4, prog, False)
        overlapped = run_spmd(4, prog, True)
        assert any(t[0] for t in blocking)
        assert overlapped == blocking


class TestRegionExchange:
    def test_matches_gather_region(self, backend):
        """The overlapped exchange assembles exactly the region of the
        global array — including virtual padding and uneven partitions."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 9, 11))
        grid_shape = (1, 1, 2, 2)
        dist = Distribution.make(grid_shape)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            dt = DistTensor.from_global(grid, dist, x)
            # Every rank gathers its block extended by one halo cell on the
            # split axes (reaching into virtual padding at the edges).
            regions = []
            for r in range(comm.size):
                b = dist.local_bounds(x.shape, grid.coords_of(r))
                regions.append(
                    (
                        (b[0][0], b[1][0], b[2][0] - 1, b[3][0] - 1),
                        (b[0][1], b[1][1], b[2][1] + 1, b[3][1] + 1),
                    )
                )
            lo, hi = regions[comm.rank]
            ex = start_region_exchange(dt, lo, hi, regions)
            got = ex.finish().copy()
            want = extract_padded(x, lo, hi)
            np.testing.assert_array_equal(got, want)
            return True

        assert all(run_spmd(4, prog, backend=backend))

    def test_halo_traffic_volume_matches_sync(self):
        """The overlapped exchange moves exactly the bytes the synchronous
        gather moves (recorded under the same region_data stat)."""
        n, c, h, w_, f, k = 1, 2, 16, 8, 3, 3
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, c, h, w_))
        w = rng.standard_normal((f, c, k, k))

        def prog_for(overlap):
            def prog(comm):
                grid = ProcessGrid(comm, (1, 1, 4, 1))
                xd = DistTensor.from_global(
                    grid, activation_dist(grid.shape, x.shape), x
                )
                conv = DistConv2d(grid, w, stride=1, pad=1, overlap_halo=overlap)
                comm.stats.reset()
                conv.forward(xd)
                return comm.stats.collective_bytes.get("region_data", 0)

            return prog

        sync_bytes = run_spmd(4, prog_for(False))
        ovl_bytes = run_spmd(4, prog_for(True))
        assert ovl_bytes == sync_bytes
        halo_row = n * c * w_ * 8  # O=1 row of float64
        assert ovl_bytes == [halo_row, 2 * halo_row, 2 * halo_row, halo_row]

    def test_halo_wait_and_overlap_measured(self):
        """CommStats separates exposed (waited) from hidden (in flight
        behind the interior conv) halo time on the overlapped path."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 2, 12, 12))
        w = rng.standard_normal((3, 2, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 2, 2))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            conv = DistConv2d(grid, w, pad=1, overlap_halo=True)
            comm.stats.reset()
            y = conv.forward(xd)
            dy = DistTensor.from_global(grid, y.dist, np.ones(y.global_shape))
            conv.backward(dy)
            s = comm.stats
            return (
                s.wait_seconds.get(HALO_OP, 0.0) + s.overlap_seconds.get(HALO_OP, 0.0),
                s.collectives.get("region_data", 0),
            )

        for halo_time, exchanges in run_spmd(4, prog):
            assert halo_time > 0.0  # the timing split is actually recorded
            assert exchanges == 2  # one forward + one backward exchange

    def test_send_strips_recycled_across_steps(self):
        """The conv layer's BufferPool recycles the staged halo send strips
        (deferred reclamation) as well as the assembly buffers."""
        spec = NetworkSpec("pool-halo")
        spec.add("input", "input", channels=2, height=8, width=8)
        spec.add("c1", "conv", ["input"], filters=3, kernel=3, pad=1)
        spec.add("gap", "gap", ["c1"])
        spec.add("fc", "fc", ["gap"], units=2)
        spec.add("loss", "softmax_ce", ["fc"])
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2, 8, 8))
        t = rng.integers(0, 2, size=2)

        def prog(comm):
            net = DistNetwork(
                spec, comm, LayerParallelism(height=2, width=2), seed=0
            )
            trainer = DistTrainer(net, SGD(lr=0.01))
            for _ in range(4):
                trainer.step(x, t)
                comm.barrier()  # peers drain mailboxes -> strips reclaimable
            return net._layers["c1"]._pool.stats()

        for hits, misses in run_spmd(4, prog):
            # Steps 2-4 should recycle the assembly buffers AND the send
            # strips staged in steps 1-3; far more hits than cold misses.
            assert hits > misses, (hits, misses)


def test_halo_overlap_benchmark_regression():
    """Tier-1 guard on the halo benchmark (benchmarks/bench_*.py is not
    collected by pytest): the overlapped path must never seriously regress
    versus the synchronous path, and the exposed/hidden halo split must be
    measured.  The floor is lenient — on shared CI runners the in-process
    overlap win is synchronization-bound and noisy."""
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
    )
    try:
        import bench_halo_overlap as bh
    finally:
        sys.path.pop(0)
    text, payload = bh.generate_halo_overlap(
        steps=2, repeats=1, json_path=None, backends=("thread",)
    )
    for cfg in payload["configs"]:
        assert cfg["sync_step_s"] > 0 and cfg["overlap_step_s"] > 0
        assert cfg["speedup"] > 0.7, text
        assert cfg["halo_hidden_s"] + cfg["halo_exposed_s"] > 0, text
