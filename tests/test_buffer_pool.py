"""BufferPool recycling: immediate reuse, deferred send-strip reclaim, and
pooled region-exchange strips and scatter-add payloads."""

import numpy as np

from repro.comm import BufferPool, run_spmd
from repro.core.dist_layers import DistPool2d
from repro.core.parallelism import activation_dist
from repro.nn import functional as F
from repro.tensor import DistTensor, Distribution, ProcessGrid, start_region_exchange


def gather(dt, comm, lo, hi, pool=None):
    """Blocking region gather: the region exchange finished at once."""
    return start_region_exchange(
        dt, lo, hi, peer_regions=comm.allgather((lo, hi)), pool=pool
    ).finish()


class TestImmediateReuse:
    def test_take_give_roundtrip(self):
        pool = BufferPool()
        a = pool.take((4, 4), np.float64)
        pool.give(a)
        b = pool.take((4, 4), np.float64)
        assert b is a
        assert pool.stats() == (1, 1)

    def test_mismatched_shape_allocates(self):
        pool = BufferPool()
        pool.give(pool.take((4, 4), np.float64))
        c = pool.take((8, 2), np.float64)
        assert c.shape == (8, 2)
        assert pool.stats() == (0, 2)

    def test_views_and_readonly_rejected(self):
        pool = BufferPool()
        a = np.zeros((4, 4))
        pool.give(a[:2])  # view: base is not None
        ro = np.zeros((4, 4))
        ro.flags.writeable = False
        pool.give(ro)
        assert pool.take((2, 4), np.float64) is not None
        assert pool.stats() == (0, 1)


class TestDeferredReclaim:
    def test_reclaims_only_after_view_dropped(self):
        pool = BufferPool()
        buf = pool.take((8,), np.float64)
        view = buf.view()
        view.flags.writeable = False
        pool.give_deferred(buf, view)
        # The view is still alive (simulating a mailbox holding it): the
        # buffer must NOT come back.
        again = pool.take((8,), np.float64)
        assert again is not buf
        del view
        reclaimed = pool.take((8,), np.float64)
        assert reclaimed is buf

    def test_halo_exchange_strips_reused(self):
        """A pooled halo exchange recycles both the extended assembly buffer
        and the contiguous send strips across calls."""
        x = np.arange(64.0).reshape(8, 8)
        dist = Distribution.make((2, 2))
        iters = 5

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.from_global(grid, dist, x)
            pool = BufferPool()
            (hlo, hhi), (wlo, whi) = dt.bounds
            for _ in range(iters):
                out = gather(dt, comm, (hlo - 1, wlo - 1), (hhi + 1, whi + 1), pool=pool)
                comm.barrier()  # peers have drained their mailboxes
                pool.give(out)
            return pool.stats()

        for hits, misses in run_spmd(4, prog):
            # Per iteration: 1 extended buffer + 3 send strips (one edge per
            # split axis and the corner for the diagonal peer on a 2x2
            # grid).  Everything after the cold first iteration should hit;
            # allow a strip or two still in flight.
            assert misses <= 4, (hits, misses)
            assert hits >= 4 * (iters - 1) - 2, (hits, misses)

    def test_halo_exchange_pooled_matches_unpooled(self):
        x = np.arange(144.0).reshape(12, 12)
        dist = Distribution.make((2, 2))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.from_global(grid, dist, x)
            pool = BufferPool()
            (hlo, hhi), (wlo, whi) = dt.bounds
            region = ((hlo - 2, wlo - 2), (hhi + 2, whi + 2))
            for _ in range(3):
                got = gather(dt, comm, *region, pool=pool)
                want = gather(dt, comm, *region)
                np.testing.assert_array_equal(got, want)
                pool.give(got)
            return True

        assert all(run_spmd(4, prog))


class TestGatherScatterPayloadPooling:
    """Region-exchange send strips and scatter-add contributions are
    staged through the pool and recycled across calls."""

    def test_gather_region_reply_payloads_recycled(self):
        x = np.arange(144.0).reshape(12, 12)
        dist = Distribution.make((2, 2))
        iters = 6

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.from_global(grid, dist, x)
            pool = BufferPool(max_buffers_per_key=16)
            (hlo, hhi), (wlo, whi) = dt.bounds
            for _ in range(iters):
                out = gather(dt, comm, (hlo - 2, wlo - 2), (hhi + 2, whi + 2), pool=pool)
                comm.barrier()  # peers drain -> strip views reclaimable
                pool.give(out)
            return pool.stats()

        for hits, misses in run_spmd(4, prog):
            # O(1) allocations over O(iters) takes: only the warmup
            # populations miss, everything afterwards recycles.
            assert hits > misses, (hits, misses)

    def test_gather_region_pooled_matches_unpooled(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 13))
        dist = Distribution.make((2, 2))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.from_global(grid, dist, x)
            pool = BufferPool()
            (hlo, hhi), (wlo, whi) = dt.bounds
            region = ((hlo - 1, wlo - 2), (hhi + 2, whi + 1))
            for _ in range(3):
                got = gather(dt, comm, *region, pool=pool)
                want = gather(dt, comm, *region)
                np.testing.assert_array_equal(got, want)
                pool.give(got)
            return True

        assert all(run_spmd(4, prog))

    def test_scatter_region_add_pooled_matches_unpooled(self):
        rng = np.random.default_rng(8)
        contributions = rng.standard_normal((4, 7, 7))
        dist = Distribution.make((2, 2))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            pool = BufferPool()
            outs = []
            for pooled in (True, False):
                dt = DistTensor.zeros(grid, dist, (10, 10))
                for _ in range(2):
                    dt.start_scatter_region_add(
                        contributions[comm.rank], (comm.rank, comm.rank),
                        pool=pool if pooled else None,
                    ).finish()
                outs.append(dt.to_global())
            np.testing.assert_array_equal(outs[0], outs[1])
            return True

        assert all(run_spmd(4, prog))

    def test_dist_pool2d_numerics_unchanged_under_pooling(self):
        """DistPool2d now routes its gather/scatter traffic through an
        internal pool; forward/backward must replicate the single-device
        result exactly, and repeated steps must recycle buffers."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 8, 8))
        y_ref, argmax = F.maxpool2d_forward(x, (2, 2), (2, 2), 0)
        dy = rng.standard_normal(y_ref.shape)
        dx_ref = F.maxpool2d_backward(dy, argmax, x.shape, (2, 2), (2, 2), 0)
        grid_shape = (1, 1, 2, 2)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            dist = activation_dist(grid_shape, x.shape)
            xd = DistTensor.from_global(grid, dist, x)
            layer = DistPool2d(grid, "max", 2, 2)
            for _ in range(3):
                y = layer.forward(xd)
                dyd = DistTensor.from_global(grid, y.dist, dy)
                dx = layer.backward(dyd)
                comm.barrier()
            return y.to_global(), dx.to_global(), layer._pool.stats()

        for y, dx, (hits, misses) in run_spmd(4, prog):
            np.testing.assert_array_equal(y, y_ref)
            np.testing.assert_array_equal(dx, dx_ref)
            assert hits > 0, (hits, misses)  # later steps recycled buffers
