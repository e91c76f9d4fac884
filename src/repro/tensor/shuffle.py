"""Data redistribution between two distributions (the paper's §III-C).

When adjacent layers use different distributions (e.g. a spatially
partitioned convolution feeding a sample-parallel convolution, or a
convolutional layer feeding a model-parallel FC layer), the activations and
error signals must be shuffled: "a processor sends indices it no longer
owns, and receives its new indices" via an all-to-all collective.

Replication is handled on both sides:

* if the *source* replicates a dimension, only the canonical replica (grid
  coordinate 0 along every replicated axis) sends, so each global element is
  shipped exactly once;
* if the *destination* replicates a dimension, every replica receives its
  copy.

The subsystem mirrors the overlapped halo exchange of
:mod:`repro.tensor.halo`:

* :class:`ShufflePlan` — the static send/receive schedule of one
  redistribution.  Which regions of this rank's shard go to which peers,
  and which pieces arrive from which canonical owners, is a pure function
  of (src grid+distribution, dst grid+distribution, global shape), so the
  plan is computed once per communicator (:func:`plan_shuffle`, cached on
  the communicator keyed by exactly that tuple) instead of re-intersecting
  every rank pair on every training step.
* :class:`ShuffleExchange` (via :func:`start_shuffle`) — the *overlapped*
  redistribution: the shuffle is treated as a first-class nonblocking
  collective (:meth:`~repro.comm.communicator.Communicator.ialltoall`, the
  in-process analogue of an Aluminum/NCCL nonblocking all-to-all).
  :meth:`~ShuffleExchange.start` deposits this rank's payloads and returns
  immediately, so the caller can run independent computation (the next
  layer's kernels on another branch, gradient bucketing, ...) before
  :meth:`~ShuffleExchange.finish` drains and assembles.
* :func:`shuffle` — the blocking form, which is the same exchange
  finished at once (``start_shuffle(...).finish()``); bitwise equal to
  finishing later because pieces land in disjoint sub-regions of a
  zero-initialized destination block.

Send payloads can be staged through a :class:`~repro.comm.buffers.BufferPool`
(deferred reclamation once the receivers drop the zero-copy views), the same
discipline the halo send strips use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.comm.communicator import Request
from repro.obs import tracer as _trace
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.distribution import Distribution
from repro.tensor.grid import ProcessGrid
from repro.tensor.indexing import intersect, interval_is_empty, place_region

#: CommStats op name under which shuffle traffic and its wait/overlap split
#: are recorded.
SHUFFLE_OP = "shuffle"

Region = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ShufflePlan:
    """Static schedule of one redistribution, from this rank's viewpoint.

    Mirrors :class:`repro.tensor.halo.ExchangePlan`: everything here is a
    pure function of (src grid+distribution, dst grid+distribution, global
    shape) — independent of the tensor *values* and of dtype — so one plan
    serves every training step of a layer boundary.
    """

    global_shape: tuple[int, ...]
    #: This rank's destination block (``I_p(D_dst)``) and its shape.
    dst_bounds: Region
    out_shape: tuple[int, ...]
    #: ``(peer comm-rank, region of my src shard to send)`` in peer order.
    sends: tuple[tuple[int, Region], ...] = ()
    #: ``(canonical owner comm-rank, region of my dst block to receive)``.
    recvs: tuple[tuple[int, Region], ...] = ()
    #: Regions of my dst block served from my own (canonical) src shard.
    local: tuple[Region, ...] = ()
    #: Cells shipped off-rank by this rank (bytes = cells * itemsize).
    sent_cells: int = 0


class _PlanCache:
    """Per-communicator plan cache with hit/miss counters."""

    __slots__ = ("plans", "hits", "misses")

    def __init__(self) -> None:
        self.plans: dict = {}
        self.hits = 0
        self.misses = 0


def _plan_cache(comm) -> _PlanCache:
    cache = getattr(comm, "_shuffle_plans", None)
    if cache is None:
        cache = _PlanCache()
        comm._shuffle_plans = cache
    return cache


def shuffle_plan_stats(comm) -> tuple[int, int]:
    """``(hits, misses)`` of the communicator's shuffle-plan cache."""
    cache = _plan_cache(comm)
    return cache.hits, cache.misses


def _validate(src: DistTensor, dst_grid: ProcessGrid, dst_dist: Distribution) -> None:
    comm = src.comm
    if dst_grid.comm.size != comm.size or dst_grid.comm.members != comm.members:
        raise ValueError("shuffle requires src and dst grids over the same ranks")
    if dst_dist.ndim != src.dist.ndim:
        raise ValueError(
            f"distribution rank mismatch: {src.dist.ndim} vs {dst_dist.ndim}"
        )


def _is_canonical(dist: Distribution, grid_shape, coords) -> bool:
    """Is ``coords`` the canonical replica (coordinate 0 on replicated axes)?"""
    return all(
        coords[d] == 0
        for d in range(dist.ndim)
        if not dist.is_split(d) and grid_shape[d] > 1
    )


def _cells(region: Region) -> int:
    return math.prod(hi - lo for lo, hi in region)


def plan_shuffle(
    src: DistTensor, dst_grid: ProcessGrid, dst_dist: Distribution
) -> ShufflePlan:
    """Build (or fetch from the communicator's cache) the redistribution plan.

    The cache key is ``(src grid shape, src dist, dst grid shape, dst dist,
    global shape)`` — every quantity the schedule depends on; coordinates
    derive from the comm rank, so identical keys give identical plans.
    """
    _validate(src, dst_grid, dst_dist)
    comm = src.comm
    cache = _plan_cache(comm)
    key = (src.grid.shape, src.dist, dst_grid.shape, dst_dist, src.global_shape)
    plan = cache.plans.get(key)
    if plan is not None:
        cache.hits += 1
        return plan
    cache.misses += 1

    global_shape = src.global_shape
    my_src_bounds = src.bounds
    sends: list[tuple[int, Region]] = []
    local: list[Region] = []
    sent_cells = 0
    if _is_canonical(src.dist, src.grid.shape, src.grid.coords):
        for j in range(comm.size):
            dst_b = dst_dist.local_bounds(global_shape, dst_grid.coords_of(j))
            overlap = tuple(
                intersect(a, b) for a, b in zip(my_src_bounds, dst_b)
            )
            if any(interval_is_empty(iv) for iv in overlap):
                continue
            if j == comm.rank:
                local.append(overlap)
            else:
                sends.append((j, overlap))
                sent_cells += _cells(overlap)

    my_dst_bounds = dst_dist.local_bounds(global_shape, dst_grid.coords)
    recvs: list[tuple[int, Region]] = []
    for i in range(comm.size):
        if i == comm.rank:
            continue
        if not _is_canonical(src.dist, src.grid.shape, src.grid.coords_of(i)):
            continue
        src_b = src.dist.local_bounds(global_shape, src.grid.coords_of(i))
        overlap = tuple(intersect(a, b) for a, b in zip(src_b, my_dst_bounds))
        if any(interval_is_empty(iv) for iv in overlap):
            continue
        recvs.append((i, overlap))

    plan = ShufflePlan(
        global_shape,
        my_dst_bounds,
        tuple(hi - lo for lo, hi in my_dst_bounds),
        tuple(sends),
        tuple(recvs),
        tuple(local),
        sent_cells,
    )
    cache.plans[key] = plan
    return plan


def _stage_payloads(src: DistTensor, plan: ShufflePlan, pool) -> list:
    """Per-peer payload list for the plan's sends (pooled when possible)."""
    payloads: list[np.ndarray | None] = [None] * src.comm.size
    for peer, region in plan.sends:
        payloads[peer] = DistTensor._stage_payload(
            src._local_slice_of(region), pool
        )
    return payloads


class ShuffleExchange:
    """An in-flight overlapped redistribution.

    Constructed (not yet started) with the source tensor and destination
    placement; :meth:`start` deposits this rank's payloads into a
    nonblocking all-to-all and places the locally served pieces, after
    which the caller is free to run any computation that does not need the
    redistributed tensor.  :meth:`finish` drains the collective, assembles
    the received pieces, verifies the destination block was covered
    exactly, and returns the new
    :class:`~repro.tensor.dist_tensor.DistTensor`.  :func:`start_shuffle`
    is the construct-and-start convenience used on the hot path.
    """

    def __init__(
        self,
        src: DistTensor,
        dst_grid: ProcessGrid,
        dst_dist: Distribution,
        pool=None,
        plan: ShufflePlan | None = None,
    ) -> None:
        _validate(src, dst_grid, dst_dist)
        self.src = src
        self.dst_grid = dst_grid
        self.dst_dist = dst_dist
        self.plan = plan if plan is not None else plan_shuffle(src, dst_grid, dst_dist)
        self._pool = pool
        self._out: np.ndarray | None = None
        self._request: Request | None = None
        self._filled = 0
        self._result: DistTensor | None = None

    @property
    def started(self) -> bool:
        return self._out is not None

    @property
    def remaining(self) -> int:
        """Pieces not yet received and placed."""
        if self._result is not None or self._request is None:
            return 0
        return len(self.plan.recvs)

    def start(self) -> "ShuffleExchange":
        """Deposit payloads into the nonblocking all-to-all and place the
        locally served pieces.

        Collective: every rank must start the same shuffle at the same
        logical point (nonblocking collectives on a communicator are
        sequence-matched in program order).  Depositing never blocks.
        Returns ``self`` for chaining.
        """
        if self._out is not None:
            raise RuntimeError("ShuffleExchange already started")
        with _trace.span(
            "shuffle.start",
            cat="exchange",
            bytes=int(self.plan.sent_cells * self.src.dtype.itemsize),
        ):
            return self._start()

    def _start(self) -> "ShuffleExchange":
        src = self.src
        comm = src.comm
        plan = self.plan

        self._request = comm.ialltoall(
            _stage_payloads(src, plan, self._pool),
            opname=SHUFFLE_OP,
            count_stats=False,
        )
        comm.stats.record_collective(
            SHUFFLE_OP, plan.sent_cells * src.dtype.itemsize
        )

        # Zero-init the new block and place what we already own; remote
        # pieces are assembled when the collective completes.
        self._out = np.zeros(plan.out_shape, dtype=src.dtype)
        for region in plan.local:
            self._place(region, src._local_slice_of(region))
        return self

    def _place(self, region: Region, data: np.ndarray) -> None:
        offset = tuple(
            r[0] - b[0] for r, b in zip(region, self.plan.dst_bounds)
        )
        place_region(self._out, data, offset)
        self._filled += _cells(region)

    def _assemble(self, received: list) -> None:
        for rank, region in self.plan.recvs:
            self._place(region, received[rank])
        self._check_coverage()
        self._result = DistTensor(
            self.dst_grid, self.dst_dist, self.plan.global_shape, self._out
        )

    def poll(self) -> int:
        """Assemble if every peer has deposited; never blocks.

        Returns the number of pieces still outstanding.
        """
        if self._result is None and self._request is not None:
            if self._request.test():
                self._assemble(self._request.wait())
        return self.remaining

    def finish(self) -> DistTensor:
        """Drain the collective and return the redistributed tensor.

        Pieces target disjoint sub-regions of the destination block, so
        assembly order cannot change the result.  A second call returns
        the same tensor.
        """
        if self._result is not None:
            return self._result
        if self._out is None:
            self.start()
        with _trace.span("shuffle.finish", cat="exchange", pending=self.remaining):
            self._assemble(self._request.wait())
        return self._result

    def _check_coverage(self) -> None:
        expected = self._out.size
        if self._filled != expected:
            raise RuntimeError(
                f"shuffle assembled {self._filled} elements but local block "
                f"has {expected}; source distribution did not cover the tensor"
            )


def start_shuffle(
    src: DistTensor,
    dst_grid: ProcessGrid,
    dst_dist: Distribution,
    pool=None,
    plan: ShufflePlan | None = None,
) -> ShuffleExchange:
    """Begin an overlapped redistribution of ``src`` to ``dst_dist``.

    Returns a started :class:`ShuffleExchange`; call
    :meth:`~ShuffleExchange.finish` where the redistributed tensor is
    consumed.  ``pool`` stages the send payloads through a
    :class:`~repro.comm.buffers.BufferPool` (deferred reclamation).
    """
    return ShuffleExchange(src, dst_grid, dst_dist, pool=pool, plan=plan).start()


def shuffle(
    src: DistTensor,
    dst_grid: ProcessGrid,
    dst_dist: Distribution,
    pool=None,
) -> DistTensor:
    """Redistribute ``src`` to ``dst_dist`` over ``dst_grid``, blocking.

    Both grids must be built over the same communicator (the same set of
    ranks in the same order); the grid *shapes* may differ arbitrarily.
    Collective: every rank must call.  This is :func:`start_shuffle`
    finished at once.
    """
    return start_shuffle(src, dst_grid, dst_dist, pool=pool).finish()


def shuffle_cost_bytes(
    src: DistTensor, dst_grid: ProcessGrid, dst_dist: Distribution
) -> int:
    """Bytes this rank ships in :func:`shuffle` (for model validation tests)."""
    plan = plan_shuffle(src, dst_grid, dst_dist)
    return plan.sent_cells * src.dtype.itemsize
