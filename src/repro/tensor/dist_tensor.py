"""Distributed tensors: local shards with a partitioned global view.

A :class:`DistTensor` is the Python analogue of the paper's C++ distributed
tensor: each rank stores the block of the global tensor selected by its grid
coordinates under a :class:`~repro.tensor.distribution.Distribution`.  The
class owns the layout algebra the exchanges are built from — which ranks
own which part of a global region (:meth:`DistTensor._owners_of_region`) —
and the reverse halo exchange:

* :meth:`DistTensor.start_scatter_region_add` — scatter contributions
  computed for a region back to their owners and *accumulate* them
  (pooling backpropagation, where windows straddle partitions).  It is
  nonblocking; a caller that needs the result at once calls
  :meth:`ScatterAddExchange.finish` right away.

The forward direction, fetching an arbitrary region of the global tensor
(the *generalized halo exchange*), is
:func:`repro.tensor.halo.start_region_exchange`.  Regions may extend past
the global tensor boundary; out-of-range parts are dropped on scatter.

Replication is respected: when a dimension is replicated across a grid axis,
regions resolve to the replica in the caller's own replica group, and
scatter-adds stay within the caller's replica group, so replicas remain
bitwise consistent without extra synchronization.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.comm.communicator import Communicator
from repro.tensor.distribution import Distribution
from repro.tensor.grid import ProcessGrid
from repro.tensor.indexing import (
    block_coords_of_interval,
    intersect,
    interval_is_empty,
    place_region,
)


class DistTensor:
    """One rank's view of a globally distributed dense tensor."""

    def __init__(
        self,
        grid: ProcessGrid,
        dist: Distribution,
        global_shape: Sequence[int],
        local: np.ndarray,
    ) -> None:
        global_shape = tuple(int(s) for s in global_shape)
        if dist.ndim != len(global_shape):
            raise ValueError(
                f"distribution has {dist.ndim} dims, tensor has {len(global_shape)}"
            )
        if dist.grid_shape != grid.shape:
            raise ValueError(
                f"distribution grid {dist.grid_shape} != process grid {grid.shape}"
            )
        expected = dist.local_shape(global_shape, grid.coords)
        if tuple(local.shape) != expected:
            raise ValueError(
                f"local shard shape {local.shape} != expected {expected} at "
                f"coords {grid.coords}"
            )
        self.grid = grid
        self.dist = dist
        self.global_shape = global_shape
        self.local = local

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_global(
        cls,
        grid: ProcessGrid,
        dist: Distribution,
        global_array: np.ndarray,
    ) -> "DistTensor":
        """Shard a replicated global array (no communication: every rank
        holds ``global_array`` and slices its own block)."""
        bounds = dist.local_bounds(global_array.shape, grid.coords)
        sl = tuple(slice(lo, hi) for lo, hi in bounds)
        return cls(grid, dist, global_array.shape, np.ascontiguousarray(global_array[sl]))

    @classmethod
    def zeros(
        cls,
        grid: ProcessGrid,
        dist: Distribution,
        global_shape: Sequence[int],
        dtype=np.float64,
    ) -> "DistTensor":
        shape = dist.local_shape(global_shape, grid.coords)
        return cls(grid, dist, global_shape, np.zeros(shape, dtype=dtype))

    # -- basic properties ---------------------------------------------------------
    @property
    def comm(self) -> Communicator:
        return self.grid.comm

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Per-dimension global intervals owned by this rank (``I_p(D)``)."""
        return self.dist.local_bounds(self.global_shape, self.grid.coords)

    @property
    def dtype(self):
        return self.local.dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistTensor(global={self.global_shape}, dist={self.dist}, "
            f"bounds={self.bounds})"
        )

    # -- ownership resolution ----------------------------------------------------
    def _owners_of_region(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        coords: Sequence[int] | None = None,
    ) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """Ranks owning parts of global region ``[lo, hi)`` and their overlaps.

        Replicated dimensions resolve to the replica group of ``coords`` (the
        caller's own coordinates by default) — passing another rank's
        coordinates answers "whom would *that* rank fetch this region from",
        which is what the sender side of the overlapped halo exchange needs
        to mirror the receive side without a request round-trip.
        Returns ``[(comm_rank, per-dim clipped interval), ...]``.
        """
        if coords is None:
            coords = self.grid.coords
        per_dim: list[list[tuple[int, tuple[int, int]]]] = []
        for d in range(self.dist.ndim):
            n = self.global_shape[d]
            clipped = intersect((int(lo[d]), int(hi[d])), (0, n))
            if interval_is_empty(clipped):
                return []
            if self.dist.is_split(d):
                c0, c1 = block_coords_of_interval(
                    n, self.dist.grid_shape[d], clipped[0], clipped[1]
                )
                options = []
                for c in range(c0, c1 + 1):
                    overlap = intersect(
                        clipped, self.dist.dim_bounds(self.global_shape, d, c)
                    )
                    if not interval_is_empty(overlap):
                        options.append((c, overlap))
                per_dim.append(options)
            else:
                # Unsplit: stay within the requester's replica group.
                per_dim.append([(coords[d], clipped)])

        owners = []
        for combo in itertools.product(*per_dim):
            coords = tuple(c for c, _ in combo)
            overlap = tuple(iv for _, iv in combo)
            owners.append((self.grid.rank_of(coords), overlap))
        return owners

    @staticmethod
    def _stage_payload(arr: np.ndarray, pool) -> np.ndarray:
        """Stage an off-rank alltoall payload through ``pool``.

        Without a pool the raw view is returned (the communicator copies or
        freezes it as needed).  With a pool, the data is copied into a
        recycled contiguous buffer whose read-only view crosses the
        boundary; the buffer returns to the pool (deferred) once every
        receiver drops the view — the halo send-strip discipline.
        """
        if pool is None:
            return arr
        buf = pool.take(arr.shape, arr.dtype)
        np.copyto(buf, arr)
        view = buf.view()
        view.flags.writeable = False
        pool.give_deferred(buf, view)
        return view

    def _local_slice_of(self, region: tuple[tuple[int, int], ...]) -> np.ndarray:
        """View of the local shard covering global ``region`` (must be owned)."""
        my = self.bounds
        sl = []
        for (g_lo, g_hi), (m_lo, m_hi) in zip(region, my):
            if g_lo < m_lo or g_hi > m_hi:
                raise ValueError(
                    f"region {region} not owned locally (bounds {my})"
                )
            sl.append(slice(g_lo - m_lo, g_hi - m_lo))
        return self.local[tuple(sl)]

    # -- collective region primitives ------------------------------------------
    def scatter_add_plan(
        self, lo: Sequence[int], shape: Sequence[int]
    ) -> list[tuple[int, tuple[tuple[int, int], ...], tuple[slice, ...]]]:
        """Precompute the scatter-add routing for region ``[lo, lo+shape)``.

        Returns ``[(comm_rank, owned overlap, slice into the region), ...]``
        — pure layout algebra, no communication.  The plan depends only on
        the grid, distribution, and global shape, so it is reusable across
        steps *and* across :class:`DistTensor` instances with identical
        layout (a layer's freshly-zeroed gradient tensor every backward),
        which is why :class:`~repro.core.dist_layers.DistPool2d` caches it
        alongside its forward geometry.
        """
        lo = tuple(int(v) for v in lo)
        hi = tuple(b + int(s) for b, s in zip(lo, shape))
        plan = []
        for rank, overlap in self._owners_of_region(lo, hi):
            sl = tuple(
                slice(iv[0] - b, iv[1] - b) for iv, b in zip(overlap, lo)
            )
            plan.append((rank, overlap, sl))
        return plan

    def accumulate_regions(self, contributions) -> None:
        """Add each ``(owned global region, data)`` into the local shard."""
        my = self.bounds
        for overlap, data in contributions:
            offset = tuple(iv[0] - b[0] for iv, b in zip(overlap, my))
            place_region(self.local, data, offset, accumulate=True)

    def start_scatter_region_add(
        self,
        region: np.ndarray,
        lo: Sequence[int],
        pool=None,
        plan=None,
    ) -> "ScatterAddExchange":
        """Scatter ``region`` (anchored at global ``lo``) to its owners,
        *adding* into their local shards; nonblocking.

        Launches the contribution all-to-all and accumulates the *own*
        contribution immediately; the returned handle's
        :meth:`~ScatterAddExchange.finish` waits for the peers' deposits
        and folds in the remote contributions.  All grid ranks must call
        together.  Parts of the region outside the global tensor are
        dropped (they correspond to virtual padding).  The accumulation
        order is fixed — own contribution first (it overlaps the in-flight
        transfer), then remote contributions in ascending comm rank — so
        finishing at once or later gives the same bits.  ``pool`` stages
        the off-rank payloads (deferred recycling); ``plan`` is an optional
        precomputed :meth:`scatter_add_plan` (it must match ``lo`` and
        ``region.shape``); layers cache it across steps.
        """
        lo = tuple(int(v) for v in lo)
        if plan is None:
            plan = self.scatter_add_plan(lo, region.shape)
        comm = self.comm

        sends: list[list[tuple[tuple[tuple[int, int], ...], np.ndarray]]] = [
            [] for _ in range(comm.size)
        ]
        own: list[tuple[tuple[tuple[int, int], ...], np.ndarray]] = []
        for rank, overlap, sl in plan:
            piece = region[sl]
            if rank != comm.rank:
                sends[rank].append((overlap, self._stage_payload(piece, pool)))
            else:
                own.append((overlap, piece))

        comm.stats.record_collective(
            "region_data",
            sum(
                arr.nbytes
                for j, pieces in enumerate(sends)
                for _, arr in pieces
                if j != comm.rank
            ),
        )
        request = comm.ialltoall(sends)
        # Own contribution accumulates while peers are still depositing.
        self.accumulate_regions(own)
        return ScatterAddExchange(self, request)

    # -- whole-tensor collectives (test/debug helpers) -----------------------------
    def to_global(self) -> np.ndarray:
        """Assemble the full global tensor on every rank (allgather)."""
        pieces = self.comm.allgather((self.grid.coords, self.local))
        out = np.zeros(self.global_shape, dtype=self.dtype)
        for coords, local in pieces:
            bounds = self.dist.local_bounds(self.global_shape, coords)
            sl = tuple(slice(lo, hi) for lo, hi in bounds)
            out[sl] = local
        return out

    def allreduce_replicas(self) -> None:
        """Sum-reduce the shard across its replica group, in place.

        No-op for purely partitioned tensors.  Used when replicas hold
        partial contributions that must be combined (e.g. error signals
        produced by layers that reduce over a replicated dimension).
        """
        axes = tuple(
            d
            for d in range(self.dist.ndim)
            if not self.dist.is_split(d) and self.grid.shape[d] > 1
        )
        if not axes:
            return
        sub = self.grid.axes_comm(axes)
        self.local = sub.allreduce(self.local)


class ScatterAddExchange:
    """In-flight nonblocking scatter-add (:meth:`DistTensor.start_scatter_region_add`).

    The owner's own contribution is already accumulated by the time the
    handle exists; :meth:`finish` waits for the peers' deposits and folds
    in the remote contributions in ascending comm rank — completing the
    documented accumulation order.
    """

    __slots__ = ("_tensor", "_request")

    def __init__(self, tensor: DistTensor, request) -> None:
        self._tensor = tensor
        self._request = request

    def finish(self) -> None:
        received = self._request.wait()
        tensor = self._tensor
        for j, contributions in enumerate(received):
            if j != tensor.comm.rank:
                tensor.accumulate_regions(contributions)
