"""Collective operations and sub-communicators, on every SPMD backend.

Every blocking collective here runs through the communicator's one
point-to-point ``"direct"`` exchange (or a compiled schedule) over each
backend's transport, so the suite holds thread, process and socket ranks to
the same results.  Rooted and reduce-scatter cases run both the default
(``"auto"``) and the ``"direct"`` algorithm.
"""

import numpy as np
import pytest

from repro.comm import CommAborted, run_spmd
from tests.conftest import reduce_for_process

ALGS = ("auto", "direct")


class TestBasicCollectives:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 8])
    def test_barrier(self, nranks, backend):
        reduce_for_process(backend, nranks > 4, "barrier on <= 4 ranks")

        def prog(comm):
            for _ in range(3):
                comm.barrier()
            return comm.rank

        assert run_spmd(nranks, prog, backend=backend) == list(range(nranks))

    @pytest.mark.parametrize("alg", ALGS)
    @pytest.mark.parametrize("nranks", [2, 4, 5])
    def test_bcast(self, nranks, alg, backend):
        reduce_for_process(backend, nranks > 4, "bcast on <= 4 ranks")

        def prog(comm):
            payload = np.arange(10) if comm.rank == 1 else None
            return comm.bcast(payload, root=1, algorithm=alg)

        for got in run_spmd(nranks, prog, backend=backend):
            np.testing.assert_array_equal(got, np.arange(10))

    @pytest.mark.parametrize("alg", ALGS)
    def test_bcast_result_is_private_copy(self, alg, backend):
        def prog(comm):
            got = comm.bcast(np.zeros(4), root=0, algorithm=alg)
            got += comm.rank  # must not leak to other ranks
            comm.barrier()
            return float(got[0])

        assert run_spmd(3, prog, backend=backend) == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("nranks", [2, 4, 7])
    def test_allgather(self, nranks, backend):
        reduce_for_process(backend, nranks > 4, "allgather on <= 4 ranks")

        def prog(comm):
            return comm.allgather(comm.rank**2)

        for got in run_spmd(nranks, prog, backend=backend):
            assert got == [r**2 for r in range(nranks)]

    @pytest.mark.parametrize("alg", ALGS)
    def test_gather_scatter(self, alg, backend):
        def prog(comm):
            gathered = comm.gather(comm.rank + 10, root=2, algorithm=alg)
            if comm.rank == 2:
                assert gathered == [10, 11, 12, 13]
            else:
                assert gathered is None
            out = comm.scatter(
                [f"item{i}" for i in range(comm.size)] if comm.rank == 2 else None,
                root=2,
                algorithm=alg,
            )
            return out

        assert run_spmd(4, prog, backend=backend) == [f"item{i}" for i in range(4)]

    def test_scatter_wrong_length(self, backend):
        def prog(comm):
            comm.scatter(["only-one"], root=0)

        with pytest.raises(ValueError, match="exactly 2"):
            run_spmd(2, prog, timeout=10, backend=backend)


class TestReductions:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 6])
    def test_allreduce_sum_scalar(self, nranks, backend):
        reduce_for_process(backend, nranks > 4, "allreduce on <= 4 ranks")

        def prog(comm):
            return comm.allreduce(comm.rank + 1)

        expected = sum(range(1, nranks + 1))
        assert run_spmd(nranks, prog, backend=backend) == [expected] * nranks

    def test_allreduce_sum_array(self, backend):
        def prog(comm):
            return comm.allreduce(np.full(5, float(comm.rank)))

        for got in run_spmd(4, prog, backend=backend):
            np.testing.assert_array_equal(got, np.full(5, 6.0))

    @pytest.mark.parametrize("op,expected", [("max", 3), ("min", 0), ("prod", 0)])
    def test_allreduce_ops(self, op, expected, backend):
        def prog(comm):
            return comm.allreduce(comm.rank, op=op)

        assert run_spmd(4, prog, backend=backend) == [expected] * 4

    def test_allreduce_deterministic_order(self, backend):
        """Summation happens in comm-rank order, so results are identical
        across ranks even for floating point."""

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.allreduce(rng.standard_normal(64))

        results = run_spmd(4, prog, backend=backend)
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])

    def test_allreduce_unknown_op(self, backend):
        def prog(comm):
            comm.allreduce(1, op="xor")

        with pytest.raises(ValueError, match="unknown reduction"):
            run_spmd(2, prog, timeout=10, backend=backend)

    @pytest.mark.parametrize("alg", ALGS)
    def test_reduce(self, alg, backend):
        def prog(comm):
            return comm.reduce(comm.rank, root=1, algorithm=alg)

        assert run_spmd(3, prog, backend=backend) == [None, 3, None]

    @pytest.mark.parametrize("alg", ALGS)
    def test_reduce_scatter(self, alg, backend):
        def prog(comm):
            # Rank r contributes value (r+1)*10 + j for destination j.
            parts = [np.array([(comm.rank + 1) * 10 + j]) for j in range(comm.size)]
            return comm.reduce_scatter(parts, algorithm=alg)

        results = run_spmd(3, prog, backend=backend)
        # Destination j receives sum over r of (r+1)*10 + j = 60 + 3j.
        for j, got in enumerate(results):
            np.testing.assert_array_equal(got, np.array([60 + 3 * j]))


class TestAlltoall:
    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_alltoall_matrix_transpose(self, nranks, backend):
        def prog(comm):
            sends = [(comm.rank, j) for j in range(comm.size)]
            return comm.alltoall(sends)

        results = run_spmd(nranks, prog, backend=backend)
        for j, got in enumerate(results):
            assert got == [(i, j) for i in range(nranks)]

    def test_alltoall_wrong_length(self, backend):
        def prog(comm):
            comm.alltoall([1])

        with pytest.raises(ValueError, match="exactly 2"):
            run_spmd(2, prog, timeout=10, backend=backend)


class TestSplit:
    def test_split_even_odd(self, backend):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            total = sub.allreduce(comm.rank)
            return (sub.rank, sub.size, total)

        results = run_spmd(4, prog, backend=backend)
        # Evens {0,2} and odds {1,3}.
        assert results[0] == (0, 2, 2)
        assert results[2] == (1, 2, 2)
        assert results[1] == (0, 2, 4)
        assert results[3] == (1, 2, 4)

    def test_split_with_key_reorders(self, backend):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reverse order
            return sub.rank

        assert run_spmd(3, prog, backend=backend) == [2, 1, 0]

    def test_split_undefined_color(self, backend):
        def prog(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            if comm.rank == 0:
                assert sub is None
                return -1
            return sub.size

        assert run_spmd(3, prog, backend=backend) == [-1, 2, 2]

    def test_nested_split_grid(self, backend):
        """4 ranks as a 2x2 grid: row comms and column comms coexist."""

        def prog(comm):
            row, col = divmod(comm.rank, 2)
            row_comm = comm.split(color=row)
            col_comm = comm.split(color=col)
            row_sum = row_comm.allreduce(comm.rank)
            col_sum = col_comm.allreduce(comm.rank)
            return (row_sum, col_sum)

        results = run_spmd(4, prog, backend=backend)
        assert results == [(1, 2), (1, 4), (5, 2), (5, 4)]

    def test_traffic_isolated_between_split_comms(self, backend):
        """Messages on a sub-communicator don't collide with the parent's."""

        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            partner = 1 - sub.rank
            got_sub = sub.sendrecv(("sub", comm.rank), dest=partner, source=partner)
            got_world = comm.sendrecv(
                ("world", comm.rank),
                dest=(comm.rank + 1) % comm.size,
                source=(comm.rank - 1) % comm.size,
            )
            return got_sub, got_world

        results = run_spmd(4, prog, backend=backend)
        assert results[0][0] == ("sub", 1)
        assert results[3][1] == ("world", 2)

    def test_dup_is_independent(self, backend):
        def prog(comm):
            dup = comm.dup()
            dup.send("on-dup", dest=comm.rank, tag=9)
            assert dup.recv(source=comm.rank, tag=9) == "on-dup"
            return comm.allreduce(1)

        assert run_spmd(2, prog, backend=backend) == [2, 2]


class TestWorldRankMapping:
    def test_translate(self, backend):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            return [sub.translate(i) for i in range(sub.size)]

        results = run_spmd(4, prog, backend=backend)
        assert results[0] == [0, 2]
        assert results[1] == [1, 3]


class TestDirectExchange:
    """The ``"direct"`` path is one point-to-point exchange per collective."""

    def test_inbox_keeps_no_drained_queues(self, backend):
        """Every collective uses a fresh sequence tag; a drained
        ``(source, tag)`` queue must leave the inbox, or the inbox grows by
        one entry per message for the life of the job."""

        def prog(comm):
            for i in range(200):
                comm.allreduce(np.full(4, float(i)), algorithm="direct")
            world = comm._world
            inbox = getattr(world, "_inbox", None)
            entries = (
                inbox._buffered
                if inbox is not None
                else world._mailboxes[comm.world_rank]._queues
            )
            return len(entries), sum(1 for q in entries.values() if not q)

        assert run_spmd(2, prog, backend=backend) == [(0, 0), (0, 0)]

    def test_thread_timeout_names_op_seq_and_awaited_rank(self):
        """A wedged direct collective on the thread backend names the
        operation, its sequence number and the world rank it waited for."""

        def prog(comm):
            comm.allreduce(1.0)  # seq 0 completes on both ranks
            if comm.rank == 0:
                return None  # never contributes to seq 1
            return comm.allreduce(np.ones(4), algorithm="direct")

        with pytest.raises(
            CommAborted,
            match=(
                r"allreduce\[seq=1\] at world rank 1, waiting for the "
                r"contribution of world rank 0.*timed out"
            ),
        ):
            run_spmd(2, prog, timeout=1.0, backend="thread")
