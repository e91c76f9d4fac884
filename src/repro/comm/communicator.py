"""MPI-style communicator over a pluggable SPMD world backend.

The interface mirrors mpi4py's lower-case (object) API: payloads are Python
objects, collectives combine contributions in deterministic comm-rank order
so runs are bit-reproducible for a fixed rank count — on *every* backend.
The world is transport only (:class:`~repro.comm.backend.BaseWorld`:
``deliver``/``collect``/``try_collect``/``abort``/``rank_stats``); every
collective here is a schedule over those point-to-point primitives
(:mod:`repro.comm.algorithms`), so the same messages, tags and ``combine``
arithmetic run whether ranks are threads, processes or socket peers.

Array payloads cross the communication boundary **zero-copy** where
possible on the thread backend: a C-contiguous ndarray is shared as a
read-only view instead of being deep-copied (non-contiguous arrays are
still copied; see :func:`set_zero_copy` to disable the fast path when
chasing a suspected aliasing bug).  The process backend copies through a
shared-memory arena instead.  The contract is MPI's either way: a buffer
handed to ``send``/``isend`` or contributed to a collective must not be
mutated afterwards.  Received arrays may be read-only; treat them as
immutable (``bcast``/``scatter`` results are exempt — they are private
writable copies, since they commonly carry small control state the
receiver updates in place).

Semantics implemented:

* eager buffered ``send``/``recv``/``sendrecv`` matched on ``(source, tag)``;
* ``barrier``, ``bcast``, ``gather``, ``scatter``, ``allgather``,
  ``alltoall``, ``reduce``, ``allreduce``, ``reduce_scatter``;
* **nonblocking** ``isend``/``irecv``/``iallreduce``/``ialltoall`` returning
  :class:`Request` handles with MPI-style ``wait()``/``test()``; any number
  of requests may be in flight per communicator and they may be completed
  out of order.  This is the primitive the training engine uses to overlap
  the dL/dw allreduces with backpropagation (paper §IV);
* ``split(color, key)`` creating sub-communicators, the building block for
  the sample-group × spatial-group process grids of the paper's hybrid
  sample/spatial parallelism;
* **algorithmic wire schedules**: the reduction and rooted collectives take
  an ``algorithm=`` knob (``"auto"`` → the cost model's Thakur-style
  selection; ``REPRO_COLLECTIVE_ALG`` overrides globally) that compiles
  ring / Rabenseifner / recursive-doubling / binomial-tree schedules onto
  the point-to-point transport (:mod:`repro.comm.algorithms`), cutting an
  allreduce's per-rank wire volume from ``n(p-1)`` to ``2n(p-1)/p``;
  ``"direct"`` — one round in which each member sends its contribution
  to the members that read it (:class:`~repro.comm.algorithms.DirectExchange`)
  and folds the slots in comm-rank order — is the bitwise-reference mode.
  A blocking ``"direct"`` collective is the nonblocking exchange finished
  at once, under the same per-communicator sequence counter.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

from repro.comm import algorithms as _alg
from repro.comm.backend import BaseWorld
from repro.comm.buffers import BufferPool
from repro.comm.collective_models import (
    HIERARCHICAL_ALGORITHM,
    TwoTierTopology,
    resolve_allreduce_algorithm,
    segment_sizes,
    select_inter_algorithm,
    select_segment_bytes,
)
from repro.comm.stats import CommStats
from repro.obs import tracer as _trace

_REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": lambda a, b: np.maximum(a, b),
    "min": lambda a, b: np.minimum(a, b),
}

#: The binary ufunc behind each reduction op — handed to
#: :class:`~repro.comm.algorithms.ScheduleRunner` so scheduled reductions
#: accumulate in place (``ufunc(a, b, out=a)``) instead of allocating a
#: temporary per receive.  Operand order still follows the compiled
#: schedule's ``acc_first``, so results stay bitwise identical to the
#: generic-callable path.
_REDUCE_UFUNCS: dict[str, Any] = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}

#: Environment override for every ``algorithm=`` collective knob: set to
#: ``direct`` for the bitwise-reference mode (every collective runs the
#: one-round direct exchange), to ``ring`` / ``rabenseifner`` /
#: ``recursive_doubling`` to force the reduction schedules, to
#: ``binomial`` to force the rooted trees, or to ``auto`` for model-driven
#: selection.  Values that are meaningless for an op (e.g. ``binomial``
#: for an allreduce) leave that op on its own default resolution.
COLLECTIVE_ALG_ENV = "REPRO_COLLECTIVE_ALG"

#: Environment override for the reduction collectives' ``segment_bytes=``
#: pipelining knob: ``auto`` applies the cost model's
#: :func:`~repro.comm.collective_models.select_segment_bytes` minimization,
#: ``none``/``off``/``0`` disables segmentation, and a positive integer
#: forces that segment size in bytes.  Anything else fails loudly.
SEGMENT_BYTES_ENV = "REPRO_SEGMENT_BYTES"

_REDUCTION_ALG_CHOICES = {
    "auto", "direct", HIERARCHICAL_ALGORITHM, *_alg.REDUCTION_ALGORITHMS
}
_TREE_ALG_CHOICES = {"auto", "direct", "binomial"}
_RS_ALG_CHOICES = {"auto", "direct", "ring"}
_AG_ALG_CHOICES = {"auto", "direct", "ring", "recursive_doubling"}
#: Every name the env override may legally carry; anything else is a typo
#: and must fail loudly rather than silently disable the override.
_ALL_ALG_CHOICES = (
    _REDUCTION_ALG_CHOICES
    | _TREE_ALG_CHOICES
    | _RS_ALG_CHOICES
    | _AG_ALG_CHOICES
)


def _parse_segment_bytes(text: str) -> int | str | None:
    """Parse a ``segment_bytes`` knob/env value; raise loudly on typos."""
    t = text.strip().lower()
    if t in ("none", "off", "0"):
        return None
    if t == "auto":
        return "auto"
    try:
        value = int(t)
    except ValueError:
        raise ValueError(
            f"{SEGMENT_BYTES_ENV}={text!r} is not a segment size; expected "
            f"'auto', 'none', or a positive integer byte count"
        ) from None
    if value < 1:
        raise ValueError(
            f"{SEGMENT_BYTES_ENV}={text!r} must be a positive byte count"
        )
    return value

#: When True (default), C-contiguous arrays are shared across the boundary
#: as read-only views instead of deep copies.
_ZERO_COPY = True


def set_zero_copy(enabled: bool) -> bool:
    """Enable/disable the zero-copy send fast path; returns the old setting.

    Turning it off restores the historical copy-on-send semantics, which is
    useful as a bisection tool when debugging a suspected aliasing bug (a
    behavioral difference between the two modes indicates a sender mutating
    a buffer after handing it to the communicator).
    """
    global _ZERO_COPY
    prev = _ZERO_COPY
    _ZERO_COPY = bool(enabled)
    return prev


def _freeze(payload: Any) -> Any:
    """Make an array payload safe to hand across the communication boundary.

    C-contiguous ndarrays become read-only *views* (zero-copy): the receiver
    cannot write through them, and the sender promises not to mutate the
    buffer after the send — the MPI contract.  Everything else that needs
    protecting is copied.
    """
    if isinstance(payload, np.ndarray):
        if _ZERO_COPY and payload.flags.c_contiguous:
            if not payload.flags.writeable:
                return payload
            view = payload.view()
            view.flags.writeable = False
            return view
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(_freeze(p) for p in payload)
    if isinstance(payload, list):
        return [_freeze(p) for p in payload]
    return payload


def _private(payload: Any) -> Any:
    """A writable private copy of a (possibly frozen) payload."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(_private(p) for p in payload)
    if isinstance(payload, list):
        return [_private(p) for p in payload]
    return payload


def _schedulable_array(payload: Any) -> bool:
    """True if a payload can run through the chunked reduction schedules."""
    return isinstance(payload, np.ndarray) and payload.dtype != object


def payload_nbytes(payload: Any) -> int:
    """Approximate wire size of a payload (numpy arrays dominate in practice)."""
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    return 64  # nominal envelope for small control messages


class Request:
    """Handle to an in-flight nonblocking operation (MPI_Request analogue).

    ``wait()`` blocks until the operation completes and returns its result
    (``None`` for sends).  ``test()`` polls without blocking and returns
    whether the operation has completed; once it returns True the result is
    available from ``wait()`` immediately.  Requests may be completed in any
    order.  If the world aborts, both raise :class:`CommAborted`.
    """

    _done: bool = False
    _result: Any = None

    @property
    def complete(self) -> bool:
        return self._done

    def wait(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def test(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class _CompletedRequest(Request):
    """A request born complete (eager ``isend``)."""

    def __init__(self, result: Any = None) -> None:
        self._done = True
        self._result = result

    def wait(self) -> Any:
        return self._result

    def test(self) -> bool:
        return True


class _RecvRequest(Request):
    """Pending point-to-point receive."""

    def __init__(
        self, comm: "Communicator", source: int, tag: int, opname: str = "irecv"
    ) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._opname = opname
        self._t_launch = perf_counter()

    def _finish(self, payload: Any, waited: float) -> None:
        comm = self._comm
        nbytes = payload_nbytes(payload)
        comm.stats.record_recv(nbytes)
        overlapped = (perf_counter() - self._t_launch) - waited
        comm.stats.record_async(self._opname, nbytes, waited, overlapped, collective=False)
        if _trace.is_on():
            _trace.flow_in(comm._members[self._source], comm._tag_key(self._tag))
            _trace.wait_span(self._opname, waited, overlapped, nbytes)
        self._result = payload
        self._done = True

    def wait(self) -> Any:
        if self._done:
            return self._result
        comm = self._comm
        t0 = perf_counter()
        payload = comm._world.collect(
            comm.world_rank,
            comm._members[self._source],
            comm._tag_key(self._tag),
            opname=self._opname,
        )
        self._finish(payload, waited=perf_counter() - t0)
        return self._result

    def test(self) -> bool:
        if self._done:
            return True
        comm = self._comm
        got, payload = comm._world.try_collect(
            comm.world_rank, comm._members[self._source], comm._tag_key(self._tag)
        )
        if got:
            self._finish(payload, waited=0.0)
        return self._done


class _DirectRequest(Request):
    """Pending nonblocking ``"direct"`` collective on one communicator.

    The contribution went out with the eager sends of its
    :class:`~repro.comm.algorithms.DirectExchange` at issue time, so
    waiting never requires peers to have *read* anything: a fast rank can
    fire-and-forget many collectives and drain them later, out of order.
    The *combine* arithmetic runs here, identically on every backend.
    """

    def __init__(
        self,
        comm: "Communicator",
        exchange: "_alg.DirectExchange",
        combine: Callable[[list[Any]], Any],
        opname: str,
        count_stats: bool = True,
        wire: tuple[int, int | Callable[[Any], int]] | None = None,
    ) -> None:
        self._comm = comm
        self._exchange = exchange
        self._combine = combine
        self._opname = opname
        self._count_stats = count_stats
        #: (sent bytes, received bytes or fn(result) -> received bytes):
        #: the notional wire volume of the direct exchange, recorded at
        #: completion under the op's wire counters.
        self._wire = wire
        self._t_launch = perf_counter()

    def _complete(self, slots: list[Any], waited: float) -> None:
        comm = self._comm
        t0 = perf_counter()
        result = self._combine(slots)
        self._exchange = None  # release the received slots
        # The caller is blocked while the reduction arithmetic runs, so
        # combine time counts as wait, never as hidden communication.
        waited += perf_counter() - t0
        overlapped = (perf_counter() - self._t_launch) - waited
        comm.stats.record_async(
            self._opname,
            payload_nbytes(result),
            waited,
            overlapped,
            collective=self._count_stats,
        )
        if self._wire is not None:
            sent, recv = self._wire
            comm.stats.record_wire(
                self._opname, sent, recv(result) if callable(recv) else recv
            )
        if _trace.is_on():
            _trace.wait_span(self._opname, waited, overlapped, payload_nbytes(result))
        self._result = result
        self._done = True

    def wait(self) -> Any:
        if self._done:
            return self._result
        t0 = perf_counter()
        slots = self._exchange.finish()
        self._complete(slots, waited=perf_counter() - t0)
        return self._result

    def test(self) -> bool:
        if self._done:
            return True
        if self._exchange.progress():
            self._complete(self._exchange.slots, waited=0.0)
        return self._done


class _ScheduleRequest(Request):
    """Pending algorithmic (scheduled) nonblocking collective.

    The compiled schedule is driven *progressively*: issue time performs
    every step up to the first unsatisfied receive (all sends are eager),
    ``test()`` advances with nonblocking probes, ``wait()`` blocks through
    the rest.  Because later steps of a schedule depend on peers making
    progress on the *same* schedule, waiting on a request first completes
    any earlier in-flight scheduled collectives on the communicator (they
    cache their results in their own request objects) — the liveness rule
    that lets requests be waited in any order, mirroring an MPI progress
    engine.  The reduction order is fixed at compile time, so results are
    independent of when progress happens.
    """

    def __init__(
        self, comm: "Communicator", runner: "_alg.ScheduleRunner", opname: str
    ) -> None:
        self._comm = comm
        self._runner = runner
        self._opname = opname
        self._t_launch = perf_counter()
        runner.launch()
        comm._alg_inflight.append(self)

    def _complete(self, result: Any, waited: float) -> None:
        comm = self._comm
        runner = self._runner
        comm.stats.record_wire(
            self._opname, runner.wire_sent, runner.wire_recv,
            inter_sent=runner.wire_sent_inter,
            inter_recv=runner.wire_recv_inter,
        )
        overlapped = (perf_counter() - self._t_launch) - waited
        comm.stats.record_async(
            self._opname, payload_nbytes(result), waited, overlapped
        )
        if _trace.is_on():
            _trace.wait_span(self._opname, waited, overlapped, payload_nbytes(result))
        try:
            comm._alg_inflight.remove(self)
        except ValueError:  # pragma: no cover - defensive
            pass
        self._result = result
        self._done = True

    def _drain_predecessors(self, blocking: bool) -> None:
        for req in list(self._comm._alg_inflight):
            if req is self:
                break
            if blocking:
                req.wait()
            else:
                req.test()

    def wait(self) -> Any:
        if self._done:
            return self._result
        t0 = perf_counter()
        self._drain_predecessors(blocking=True)
        result = self._runner.finish()
        self._complete(result, waited=perf_counter() - t0)
        return self._result

    def test(self) -> bool:
        if self._done:
            return True
        self._drain_predecessors(blocking=False)
        if self._runner.progress():
            self._complete(self._runner.finish(), waited=0.0)
        return self._done


class Communicator:
    """A group of ranks with point-to-point and collective operations."""

    def __init__(
        self,
        world: BaseWorld,
        members: tuple[int, ...],
        rank: int,
        key: Any,
    ) -> None:
        self._world = world
        self._members = members
        self.rank = rank
        self.size = len(members)
        self._key = key
        self._coll_seq = 0  # direct-collective sequence (matched across ranks)
        self._xchg_seq = 0  # pt2pt exchange-pattern sequence (matched across ranks)
        self._alg_seq = 0  # algorithmic-schedule sequence (matched across ranks)
        #: Staging buffers for the schedules' send segments (recycled once
        #: receivers drop their zero-copy views).
        self._alg_pool = BufferPool(max_buffers_per_key=4)
        #: In-flight algorithmic nonblocking collectives, in issue order.
        self._alg_inflight: list["_ScheduleRequest"] = []
        #: Lazy caches for the node-hierarchy view of this communicator
        #: (``False`` = not yet computed; the layout is immutable).
        self._hierarchy_cache: Any = False
        self._inter_flags_cache: tuple[bool, ...] | None = None
        self.stats: CommStats = world.rank_stats(members[rank])

    # -- construction -------------------------------------------------------
    @classmethod
    def _world_comm(cls, world: BaseWorld, rank: int) -> "Communicator":
        return cls(world, tuple(range(world.size)), rank, key=("world",))

    # -- identity ------------------------------------------------------------
    @property
    def world_rank(self) -> int:
        """This rank's id in the global (world) communicator."""
        return self._members[self.rank]

    @property
    def members(self) -> tuple[int, ...]:
        """World ranks of this communicator's members, in comm-rank order."""
        return self._members

    @property
    def backend(self) -> str:
        """Name of the world backend this communicator runs on."""
        return self._world.backend_name

    def translate(self, comm_rank: int) -> int:
        """Map a rank of this communicator to its world rank."""
        return self._members[comm_rank]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Communicator(rank={self.rank}/{self.size}, "
            f"world_rank={self.world_rank}, backend={self.backend}, "
            f"key={self._key!r})"
        )

    # -- point-to-point -------------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Eagerly send ``payload`` to comm-rank ``dest`` (never blocks).

        Contiguous arrays are handed over zero-copy: the buffer must not be
        mutated after the call.  Self-sends (``dest == self.rank``) are
        legal, as in buffered MPI.
        """
        self._check_peer(dest, "dest")
        frozen = _freeze(payload)
        nbytes = payload_nbytes(frozen)
        self.stats.record_send(nbytes)
        tag_key = self._tag_key(tag)
        with _trace.span("send", cat="pt2pt", dest=dest, bytes=nbytes):
            _trace.flow_out(self._members[dest], tag_key)
            self._world.deliver(self.world_rank, self._members[dest], tag_key, frozen)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Block until a message from comm-rank ``source`` with ``tag`` arrives."""
        self._check_peer(source, "source")
        tag_key = self._tag_key(tag)
        with _trace.span("recv", cat="pt2pt", source=source) as sp:
            payload = self._world.collect(self.world_rank, self._members[source], tag_key)
            _trace.flow_in(self._members[source], tag_key)
            nbytes = payload_nbytes(payload)
            sp.set(bytes=nbytes)
        self.stats.record_recv(nbytes)
        return payload

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send.  Sends are eager, so the request is born complete."""
        self.send(payload, dest, tag=tag)
        return _CompletedRequest()

    def irecv(self, source: int, tag: int = 0, *, opname: str = "irecv") -> Request:
        """Nonblocking receive; ``wait()`` returns the payload.

        ``opname`` labels the request in :class:`~repro.comm.stats.CommStats`
        so structured exchange patterns (e.g. the overlapped halo exchange)
        can surface their wait-vs-overlap split separately from generic
        point-to-point traffic.
        """
        self._check_peer(source, "source")
        return _RecvRequest(self, source, tag, opname=opname)

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        send_tag: int = 0,
        recv_tag: int = 0,
    ) -> Any:
        """Combined send+receive; safe in any order because sends are eager."""
        self.send(payload, dest, tag=send_tag)
        return self.recv(source, tag=recv_tag)

    def _check_peer(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(
                f"{what}={peer} out of range for communicator of size {self.size}"
            )

    def next_exchange_seq(self) -> int:
        """Sequence number for one symmetric point-to-point exchange pattern.

        Structured exchanges (halo gathers) tag their messages with this
        sequence so concurrent or skewed exchanges on the same communicator
        can never mis-match.  Every rank must call it at the same logical
        point (once per exchange, in program order) — the same discipline
        MPI imposes on collective call order.
        """
        seq = self._xchg_seq
        self._xchg_seq += 1
        return seq

    def _tag_key(self, tag: int) -> Any:
        # Namespacing tags by communicator key keeps traffic on different
        # communicators (e.g. spatial group vs sample group) from colliding.
        return (self._key, tag)

    # -- algorithm selection --------------------------------------------------
    def _next_alg_seq(self) -> int:
        """Sequence number for one algorithmic (scheduled) collective.

        Matched across ranks the same way nonblocking-collective sequences
        are: every member issues a group's collectives in the same program
        order, so the pt2pt tags the schedules exchange under line up.
        """
        seq = self._alg_seq
        self._alg_seq += 1
        return seq

    def _knob(self, algorithm: Any, choices: set, opname: str) -> str:
        """Validate an ``algorithm=`` knob and apply the env override.

        ``REPRO_COLLECTIVE_ALG`` overrides every call site when its value
        is meaningful for the op (``direct`` always is — the global
        bitwise-reference mode); meaningless combinations (``binomial``
        for an allreduce) leave the op on its own resolution.
        """
        name = "auto" if algorithm is None else getattr(algorithm, "value", algorithm)
        if name not in choices:
            raise ValueError(
                f"unknown {opname} algorithm {name!r}; "
                f"expected one of {sorted(choices)}"
            )
        env = os.environ.get(COLLECTIVE_ALG_ENV)
        if env:
            if env not in _ALL_ALG_CHOICES:
                raise ValueError(
                    f"{COLLECTIVE_ALG_ENV}={env!r} names no collective "
                    f"algorithm; expected one of {sorted(_ALL_ALG_CHOICES)}"
                )
            if env in choices:
                name = env
        return name

    # -- node hierarchy -------------------------------------------------------
    def hierarchy(self) -> tuple[tuple[int, ...], ...] | None:
        """This communicator's comm ranks grouped by logical node.

        Groups follow the world's host map (:meth:`BaseWorld.node_of`),
        ordered by node id with comm ranks ascending inside each group.
        Returns ``None`` unless the layout is *usable* for a two-level
        schedule: at least two nodes, at least two members per node, and
        the same member count on every node.  Without a host map all
        members share node 0, so flat single-machine runs see ``None``.
        """
        if self._hierarchy_cache is False:
            groups: dict[int, list[int]] = {}
            for comm_rank, member in enumerate(self._members):
                groups.setdefault(self._world.node_of(member), []).append(comm_rank)
            layout = tuple(tuple(groups[n]) for n in sorted(groups))
            usable = (
                len(layout) >= 2
                and len(layout[0]) >= 2
                and all(len(g) == len(layout[0]) for g in layout)
            )
            self._hierarchy_cache = layout if usable else None
        return self._hierarchy_cache

    def _two_tier(self) -> TwoTierTopology | None:
        """Two-tier cost-model topology of this communicator, or ``None``."""
        h = self.hierarchy()
        if h is None:
            return None
        return TwoTierTopology(nnodes=len(h), ranks_per_node=len(h[0]))

    def _inter_flags(self) -> tuple[bool, ...] | None:
        """Per-comm-rank flag: does that member live on another node?

        ``None`` when every member shares this rank's node (no inter-node
        wire to meter) — the schedule runners then skip the inter tally.
        """
        if self._inter_flags_cache is None:
            my_node = self._world.node_of(self.world_rank)
            flags = tuple(
                self._world.node_of(m) != my_node for m in self._members
            )
            self._inter_flags_cache = flags if any(flags) else ()
        return self._inter_flags_cache or None

    def _resolve_reduction(self, algorithm: Any, payload: Any, opname: str) -> str:
        name = self._knob(algorithm, _REDUCTION_ALG_CHOICES, opname)
        if self.size == 1 or not _schedulable_array(payload):
            return "direct"
        if name == "auto":
            return resolve_allreduce_algorithm(
                "auto", self.size, payload.nbytes, self._two_tier()
            )
        if name == HIERARCHICAL_ALGORITHM and self.hierarchy() is None:
            # Forced hierarchical without a usable node layout (no host
            # map, non-uniform groups, or a single node): fall back to the
            # flat model-driven choice rather than fail the collective.
            return resolve_allreduce_algorithm("auto", self.size, payload.nbytes)
        return name

    def _resolve_segment_bytes(
        self, segment_bytes: Any, value: np.ndarray, alg: str
    ) -> int | None:
        """Normalize a ``segment_bytes`` knob to a concrete byte count.

        ``None`` → unsegmented (the pre-segmentation schedules, bitwise);
        ``"auto"`` → the cost model's
        :func:`~repro.comm.collective_models.select_segment_bytes`
        minimization for this ``(p, nbytes, algorithm)``; an integer
        forces that size.  :data:`SEGMENT_BYTES_ENV` overrides the call
        site.  ``"direct"`` has no schedule to segment and always returns
        ``None``.
        """
        env = os.environ.get(SEGMENT_BYTES_ENV)
        if env is not None and env.strip() != "":
            segment_bytes = _parse_segment_bytes(env)
        elif isinstance(segment_bytes, str):
            segment_bytes = _parse_segment_bytes(segment_bytes)
        if segment_bytes is None or alg == "direct":
            return None
        if segment_bytes == "auto":
            return select_segment_bytes(self.size, value.nbytes, algorithm=alg)
        seg = int(segment_bytes)
        if seg < 1:
            raise ValueError(
                f"segment_bytes must be a positive byte count, got {seg}"
            )
        return seg

    def _reduction_runner(
        self,
        opname: str,
        alg: str,
        value: Any,
        fn: Callable[[Any, Any], Any],
        segment_bytes: Any = None,
        ufunc: Any = None,
    ) -> "_alg.ScheduleRunner":
        """Build the schedule runner for one scheduled reduction.

        With a resolved ``segment_bytes`` that splits the payload into
        ``nseg >= 2`` segments, the compiled schedule is expanded
        step-major over the :func:`~repro.comm.algorithms.segmented_offsets`
        table (:func:`~repro.comm.algorithms.segment_steps`), so segment
        ``k+1`` is on the wire while ``k`` reduces; ``nseg <= 1`` leaves
        the base schedule untouched — bitwise-identical to the
        unsegmented path.
        """
        if alg == HIERARCHICAL_ALGORITHM:
            h = self.hierarchy()
            assert h is not None  # _resolve_reduction guarantees it
            inter = select_inter_algorithm(
                len(h), max(1.0, value.nbytes / len(h[0]))
            )
            steps = _alg.compile_hierarchical_allreduce(h, inter.value)[self.rank]
        else:
            steps = _alg.compile_allreduce(self.size, alg)[self.rank]
        offsets = None
        seg = self._resolve_segment_bytes(segment_bytes, value, alg)
        if seg:
            nseg = len(segment_sizes(value.nbytes, seg))
            if nseg > 1:
                steps = _alg.segment_steps(steps, self.size, nseg)
                offsets = _alg.segmented_offsets(value.size, self.size, nseg)
                self.stats.record_segments(opname, nseg)
        return _alg.ScheduleRunner(
            self, opname, steps, value, fn, self._next_alg_seq(),
            offsets=offsets, inter_peers=self._inter_flags(), ufunc=ufunc,
        )

    def _resolve_tree(self, algorithm: Any, opname: str) -> str:
        name = self._knob(algorithm, _TREE_ALG_CHOICES, opname)
        if self.size == 1:
            return "direct"
        return "binomial" if name == "auto" else name

    def _progress_inflight_schedules(self) -> None:
        """Advance pending scheduled collectives without blocking.

        Called on entry to the blocking direct collectives: a rank about
        to block on its peers' contributions first pushes its in-flight
        schedules as far as the already-arrived messages allow, so peers
        driving those schedules keep receiving segments.  (The SPMD discipline still
        requires every rank to eventually wait each scheduled request —
        a rank that abandons one can starve peers that wait it.)
        """
        for req in list(self._alg_inflight):
            req.test()

    # -- collectives ------------------------------------------------------------
    def barrier(self) -> None:
        self._collective(None, lambda slots: None, "barrier")

    def bcast(
        self, payload: Any, root: int = 0, *, algorithm: str | None = None
    ) -> Any:
        """Broadcast ``root``'s payload to every member.

        ``algorithm``: ``"binomial"`` (the default via ``"auto"``) routes
        the payload down a binomial tree in ``⌈lg p⌉`` point-to-point
        rounds, so the root sends ``⌈lg p⌉`` copies instead of ``p - 1``;
        ``"direct"`` sends from the root to every member.  Both are pure
        routing — results are bitwise identical either way.
        """
        self._check_peer(root, "root")
        alg = self._resolve_tree(algorithm, "bcast")
        if alg == "binomial":
            node = _alg.compile_tree(self.size, root)[self.rank]
            with _trace.span("bcast", cat="coll", alg="binomial"):
                got, t = _alg.run_tree_bcast(
                    self,
                    node,
                    _freeze(payload) if self.rank == root else None,
                    "bcast",
                    self._next_alg_seq(),
                )
            result = _private(got)
            self.stats.record_wire("bcast", t.wire_sent, t.wire_recv)
        else:
            def combine(slots: list[Any]) -> Any:
                return _private(slots[root])

            # Every rank reads only the root's slot, so message-passing
            # backends route root -> everyone instead of a full allgather.
            result = self._collective(
                payload if self.rank == root else None, combine, "bcast",
                needs=lambda r: (root,),
            )
            n = payload_nbytes(result)
            if self.rank == root:
                self.stats.record_wire("bcast", sent=n * (self.size - 1))
            else:
                self.stats.record_wire("bcast", recv=n)
        self.stats.record_collective("bcast", payload_nbytes(result))
        return result

    def gather(
        self, payload: Any, root: int = 0, *, algorithm: str | None = None
    ) -> list[Any] | None:
        """Gather every member's payload at ``root`` (comm-rank order).

        ``"binomial"`` (the default via ``"auto"``) merges subtree bundles
        up a binomial tree; ``"direct"`` ships every contribution straight
        to the root.  Pure routing — bitwise identical either way.  The
        root's stats row accounts the full gathered volume (non-roots
        their own contribution), so ``comm_report`` rows line up with the
        transport counters.
        """
        self._check_peer(root, "root")
        alg = self._resolve_tree(algorithm, "gather")
        own = payload_nbytes(payload)
        if alg == "binomial":
            node = _alg.compile_tree(self.size, root)[self.rank]
            with _trace.span("gather", cat="coll", alg="binomial"):
                gathered, t = _alg.run_tree_gather(
                    self, node, _freeze(payload), "gather", self._next_alg_seq()
                )
            self.stats.record_wire("gather", t.wire_sent, t.wire_recv)
        else:
            all_ranks = tuple(range(self.size))

            def combine(slots: list[Any]) -> list[Any]:
                return list(slots)

            gathered = self._collective(
                payload, combine, "gather",
                needs=lambda r: all_ranks if r == root else (),
            )
            if self.rank == root:
                self.stats.record_wire(
                    "gather",
                    recv=sum(
                        payload_nbytes(s)
                        for i, s in enumerate(gathered)
                        if i != self.rank
                    ),
                )
            else:
                self.stats.record_wire("gather", sent=own)
        if self.rank == root:
            self.stats.record_collective(
                "gather", sum(payload_nbytes(s) for s in gathered)
            )
            return gathered
        self.stats.record_collective("gather", own)
        return None

    def scatter(
        self,
        payloads: Sequence[Any] | None,
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> Any:
        """Distribute ``payloads[j]`` from ``root`` to comm-rank ``j``.

        ``"binomial"`` (the default via ``"auto"``) sends each child its
        subtree's bundle down a binomial tree; ``"direct"`` ships from the
        root directly.  Pure routing — bitwise identical either way.  The
        root's stats row accounts all scattered pieces (non-roots their
        received piece).
        """
        self._check_peer(root, "root")
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError(
                    f"scatter root must supply exactly {self.size} payloads"
                )
        alg = self._resolve_tree(algorithm, "scatter")
        if alg == "binomial":
            node = _alg.compile_tree(self.size, root)[self.rank]
            with _trace.span("scatter", cat="coll", alg="binomial"):
                own, t = _alg.run_tree_scatter(
                    self,
                    node,
                    _freeze(list(payloads)) if self.rank == root else None,
                    root,
                    "scatter",
                    self._next_alg_seq(),
                )
            result = _private(own)
            self.stats.record_wire("scatter", t.wire_sent, t.wire_recv)
        else:
            def combine(slots: list[Any]) -> Any:
                return _private(slots[root][self.rank])

            result = self._collective(
                payloads if self.rank == root else None, combine, "scatter",
                needs=lambda r: (root,),
            )
            if self.rank == root:
                self.stats.record_wire(
                    "scatter",
                    sent=sum(
                        payload_nbytes(p)
                        for i, p in enumerate(payloads)
                        if i != self.rank
                    ),
                )
            else:
                self.stats.record_wire("scatter", recv=payload_nbytes(result))
        self.stats.record_collective(
            "scatter",
            sum(payload_nbytes(p) for p in payloads)
            if self.rank == root
            else payload_nbytes(result),
        )
        return result

    def allgather(
        self, payload: Any, *, algorithm: str | None = None
    ) -> list[Any]:
        """Gather every member's payload at every member (comm-rank order).

        ``algorithm``: ``"auto"`` (the default) stays on the ``"direct"``
        exchange (one frozen payload fanned out to every peer — the
        cheapest control-plane shape).  The compiled schedules
        are opt-in: ``"recursive_doubling"`` doubles ``(source rank,
        payload)`` bundles over ``lg p`` rounds (power-of-two groups;
        other sizes fall back to ``"ring"``), ``"ring"`` circulates them
        neighbour-to-neighbour in ``p - 1`` steps.  All modes are pure
        routing — heterogeneous payloads of any type route unchanged and
        results are bitwise identical; only the message structure (and
        the wire counters) differ.

        Unlike allreduce, ``"auto"`` must *not* pick a schedule from the
        payload size: allgather payloads are per-rank (uneven shards,
        even empty ones), so a size-based choice can diverge across ranks
        and deadlock the collective.  Explicit knobs and the
        ``REPRO_COLLECTIVE_ALG`` override are the same on every rank, so
        those may name a schedule safely.
        """
        alg = self._resolve_allgather(algorithm, payload)
        if alg == "direct":
            def combine(slots: list[Any]) -> list[Any]:
                return list(slots)

            result = self._collective(payload, combine, "allgather")
            own = payload_nbytes(payload)
            self.stats.record_wire(
                "allgather",
                sent=own * (self.size - 1),
                recv=sum(
                    payload_nbytes(s)
                    for i, s in enumerate(result)
                    if i != self.rank
                ),
            )
        else:
            self._progress_inflight_schedules()
            run = (
                _alg.run_rd_allgather
                if alg == "recursive_doubling"
                else _alg.run_ring_allgather
            )
            with _trace.span("allgather", cat="coll", alg=alg):
                result, t = run(self, payload, "allgather", self._next_alg_seq())
            own = payload_nbytes(payload)
            self.stats.record_wire("allgather", t.wire_sent, t.wire_recv)
        self.stats.record_collective("allgather", own)
        return result

    def _resolve_allgather(self, algorithm: Any, payload: Any) -> str:
        name = self._knob(algorithm, _AG_ALG_CHOICES, "allgather")
        if self.size == 1:
            return "direct"
        if name == "auto":
            # Never size-select here: allgather payload sizes are
            # per-rank, and a choice that differs across ranks mixes the
            # direct exchange with a multi-round schedule and deadlocks.
            # Knob and env override are rank-symmetric, so only they pick
            # schedules.
            return "direct"
        if name == "recursive_doubling" and not _alg.is_power_of_two(self.size):
            name = "ring"  # schedule-level fallback, like rabenseifner's
        return name

    def alltoall(
        self,
        payloads: Sequence[Any],
        *,
        count_stats: bool = True,
        opname: str = "alltoall",
    ) -> list[Any]:
        """``payloads[j]`` is sent to comm-rank ``j``; returns what each rank sent us.

        ``count_stats=False`` skips the generic "alltoall" accounting —
        used by structured patterns (the blocking shuffle) that record
        their traffic under their own op name, keeping per-op counters
        comparable between the blocking and nonblocking paths.  ``opname``
        labels the wire-byte counters (structured patterns pass their own
        name so logical and wire rows line up in ``comm_report``).
        """
        if len(payloads) != self.size:
            raise ValueError(f"alltoall requires exactly {self.size} payloads")

        # ``parts``: the channel routes piece j to rank j only (and hands
        # back the received pieces), so message-passing backends move
        # MPI-alltoall volume instead of shipping every full payload list
        # to every peer.
        def combine(received: list[Any]) -> list[Any]:
            return list(received)

        result = self._collective(list(payloads), combine, opname, parts=True)
        sent = sum(
            payload_nbytes(p) for i, p in enumerate(payloads) if i != self.rank
        )
        self.stats.record_wire(
            opname,
            sent=sent,
            recv=sum(
                payload_nbytes(r) for i, r in enumerate(result) if i != self.rank
            ),
        )
        if count_stats:
            self.stats.record_collective("alltoall", sent)
        return result

    def ialltoall(
        self,
        payloads: Sequence[Any],
        *,
        opname: str = "ialltoall",
        count_stats: bool = True,
    ) -> Request:
        """Nonblocking all-to-all: sends immediately, returns a handle.

        ``wait()`` blocks only until every member's piece for this rank has
        arrived (never until they have read this rank's pieces) — bitwise
        identical to :meth:`alltoall`, so a fast rank keeps computing while
        peers are still producing their payloads.  All members must issue
        their direct collectives (blocking and nonblocking) on a
        communicator in the same order.

        ``opname``/``count_stats`` label the request in
        :class:`~repro.comm.stats.CommStats`: structured patterns (e.g. the
        overlapped shuffle) pass their own op name and account volume
        themselves, keeping per-op counters comparable between the blocking
        and nonblocking paths.
        """
        if len(payloads) != self.size:
            raise ValueError(f"alltoall requires exactly {self.size} payloads")

        def combine(received: list[Any]) -> list[Any]:
            return list(received)

        rank = self.rank
        sent = sum(payload_nbytes(p) for i, p in enumerate(payloads) if i != rank)

        def wire_recv(result: list[Any]) -> int:
            return sum(
                payload_nbytes(r) for i, r in enumerate(result) if i != rank
            )

        return self._icollective(
            list(payloads), combine, opname, count_stats, parts=True,
            wire=(sent, wire_recv),
        )

    def reduce(
        self,
        value: Any,
        op: str = "sum",
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> Any | None:
        """Rooted reduction: the result lands at ``root``, ``None`` elsewhere.

        Historically this ran a full allreduce and threw the result away
        on non-roots — allreduce wire volume for a rooted op.  It is now a
        genuinely rooted collective recorded under its own ``"reduce"``
        stats: ``"direct"`` routes every contribution to the root only
        (non-roots move just their own payload) and folds in comm-rank
        order — bitwise identical to the historical result — while
        ``"binomial"`` (the default via ``"auto"`` for array payloads)
        folds up a binomial tree, each node combining its children in
        ascending relative rank, so non-roots move ``O(n log p)`` and the
        root receives ``⌈lg p⌉`` messages instead of ``p - 1``.
        """
        self._check_peer(root, "root")
        try:
            fn = _REDUCE_OPS[op]
        except KeyError:
            raise ValueError(f"unknown reduction op {op!r}") from None
        alg = self._resolve_tree(algorithm, "reduce")
        if alg == "binomial" and not _schedulable_array(value):
            alg = "direct"
        n = payload_nbytes(value)
        if alg == "binomial":
            node = _alg.compile_tree(self.size, root)[self.rank]
            with _trace.span("reduce", cat="coll", alg="binomial", bytes=n):
                result, t = _alg.run_tree_reduce(
                    self, node, value, fn, "reduce", self._next_alg_seq()
                )
            self.stats.record_wire("reduce", t.wire_sent, t.wire_recv)
        else:
            all_ranks = tuple(range(self.size))
            fold = self._reduce_combine(fn)
            root_here = self.rank == root

            def combine(slots: list[Any]) -> Any:
                return fold(slots) if root_here else None

            result = self._collective(
                value, combine, "reduce",
                needs=lambda r: all_ranks if r == root else (),
            )
            if root_here:
                self.stats.record_wire("reduce", recv=n * (self.size - 1))
            else:
                self.stats.record_wire("reduce", sent=n)
        self.stats.record_collective("reduce", n)
        return result if self.rank == root else None

    @staticmethod
    def _reduce_combine(fn: Callable[[Any, Any], Any]) -> Callable[[list[Any]], Any]:
        """Fold slots in comm-rank order (bitwise-deterministic)."""

        def combine(slots: list[Any]) -> Any:
            if len(slots) == 1:
                return _private(slots[0])
            acc = fn(slots[0], slots[1])
            for s in slots[2:]:
                acc = fn(acc, s)
            return acc

        return combine

    def allreduce(
        self,
        value: Any,
        op: str = "sum",
        *,
        algorithm: str | None = None,
        segment_bytes: int | str | None = None,
    ) -> Any:
        """Element-wise reduction over every member.

        ``segment_bytes`` pipelines a *scheduled* algorithm: the payload is
        split into near-equal segments (the cost model's ``segment_sizes``)
        and every schedule step runs per segment, so segment ``k+1`` is on
        the wire while ``k`` reduces.  ``None`` (default) keeps the whole
        schedule — bitwise-identical to the unsegmented path; ``"auto"``
        applies the model's ``select_segment_bytes`` minimization; an
        integer forces that segment size.  The ``REPRO_SEGMENT_BYTES``
        environment variable overrides the knob globally.  Segmentation
        never changes the per-segment reduction order (the base
        algorithm's documented order applies to each segment
        independently), so segmented results remain allclose to
        ``"direct"`` and deterministic for a given
        ``(algorithm, p, nseg)``; ``"direct"`` itself never segments.

        ``algorithm`` selects how the payload moves on the wire:

        * ``None``/``"auto"`` — model-driven selection (the same
          Thakur-style rule the cost model prices): recursive doubling for
          small payloads, Rabenseifner for large power-of-two groups, ring
          otherwise;
        * ``"ring"`` / ``"rabenseifner"`` / ``"recursive_doubling"`` —
          force one of the chunked point-to-point schedules
          (:mod:`repro.comm.algorithms`), ``2n(p-1)/p`` bytes per rank for
          the bandwidth-optimal pair;
        * ``"hierarchical"`` — the two-level composition (intra-node ring
          reduce-scatter → inter-node allreduce over same-local-index
          counterparts → intra-node allgather), same ``2n(p-1)/p`` total
          volume but only ``2(n/k)(m-1)/m`` of it on the inter-node wire.
          Requires a usable node layout (:meth:`hierarchy`); without one
          it falls back to the flat ``"auto"`` choice.  ``"auto"`` picks
          it by itself when the world carries a host map and the two-tier
          cost model favors the composition;
        * ``"direct"`` — one round in which every member sends its payload
          to every other, folding in comm-rank order: the bitwise-reference
          mode (``n(p-1)`` per rank on a message-passing backend).

        Non-array payloads (scalars, tuples, object arrays) always take
        ``"direct"``.  Every mode is deterministic across runs and
        backends; the scheduled modes match ``"direct"`` to floating-point
        *allclose* (their documented reduction orders differ).  The
        ``REPRO_COLLECTIVE_ALG`` environment variable overrides the knob
        globally.
        """
        try:
            fn = _REDUCE_OPS[op]
        except KeyError:
            raise ValueError(f"unknown reduction op {op!r}") from None

        alg = self._resolve_reduction(algorithm, value, "allreduce")
        if alg == "direct":
            result = self._collective(value, self._reduce_combine(fn), "allreduce")
            n = payload_nbytes(result)
            inter_peers = sum(self._inter_flags() or ())
            self.stats.record_wire(
                "allreduce", n * (self.size - 1), n * (self.size - 1),
                inter_sent=n * inter_peers, inter_recv=n * inter_peers,
            )
        else:
            runner = self._reduction_runner(
                "allreduce", alg, value, fn, segment_bytes,
                ufunc=_REDUCE_UFUNCS.get(op),
            )
            with _trace.span("allreduce", cat="coll", alg=alg, bytes=value.nbytes):
                result = runner.finish()
            self.stats.record_wire(
                "allreduce", runner.wire_sent, runner.wire_recv,
                inter_sent=runner.wire_sent_inter,
                inter_recv=runner.wire_recv_inter,
            )
        self.stats.record_collective("allreduce", payload_nbytes(result))
        return result

    def iallreduce(
        self,
        value: Any,
        op: str = "sum",
        *,
        algorithm: str | None = None,
        segment_bytes: int | str | None = None,
    ) -> Request:
        """Nonblocking allreduce: returns a handle immediately.

        ``algorithm`` and ``segment_bytes`` select the wire path exactly
        as in :meth:`allreduce` — a segmented schedule gives ``test()``
        finer progress granularity on top of the in-schedule pipelining
        (each probe can land one segment instead of one whole chunk).
        With ``"direct"``, the call sends its contribution to every member
        and ``wait()`` blocks only until every member's contribution has
        arrived, then combines in comm-rank order — bitwise identical to
        the blocking ``"direct"`` allreduce.  With a scheduled algorithm,
        the first segments are sent eagerly at issue time and the
        remaining steps progress on ``test()``/``wait()``; requests may be
        waited in any order (waiting one first completes earlier in-flight
        scheduled collectives — see :class:`_ScheduleRequest`).  All
        members must issue their nonblocking collectives in the same
        order, as always — and, unlike the fire-and-forget-able
        ``"direct"`` exchanges, every member must eventually ``wait()`` (or
        ``test()`` to completion) each *scheduled* request: later segments
        only move when their owner drives them, so a rank that abandons
        one can starve peers that wait it.
        """
        try:
            fn = _REDUCE_OPS[op]
        except KeyError:
            raise ValueError(f"unknown reduction op {op!r}") from None
        alg = self._resolve_reduction(algorithm, value, "iallreduce")
        if alg == "direct":
            n = payload_nbytes(value)
            return self._icollective(
                value, self._reduce_combine(fn), "iallreduce",
                wire=(n * (self.size - 1), n * (self.size - 1)),
            )
        runner = self._reduction_runner(
            "iallreduce", alg, value, fn, segment_bytes,
            ufunc=_REDUCE_UFUNCS.get(op),
        )
        return _ScheduleRequest(self, runner, "iallreduce")

    def reduce_scatter(
        self, parts: Sequence[Any], op: str = "sum", *, algorithm: str | None = None
    ) -> Any:
        """``parts[j]`` is this rank's contribution destined for rank ``j``.

        Returns the reduction, over all ranks, of their contribution for
        *this* rank — the primitive that combines partial sums over a
        channel group in channel-parallel convolution (paper §III-D).

        ``algorithm``: ``"ring"`` (the default via ``"auto"`` when every
        part is an ndarray of one dtype) circulates partial sums around
        the ring — part ``j`` is folded in ring order starting at rank
        ``j + 1`` — moving the same ``(p-1)/p`` volume as ``"direct"`` but
        as a pipelined schedule; ``"direct"`` ships each piece to its
        destination and folds in comm-rank order (bitwise reference).
        """
        if len(parts) != self.size:
            raise ValueError(f"reduce_scatter requires exactly {self.size} parts")
        try:
            fn = _REDUCE_OPS[op]
        except KeyError:
            raise ValueError(f"unknown reduction op {op!r}") from None

        alg = self._knob(algorithm, _RS_ALG_CHOICES, "reduce_scatter")
        if (
            self.size == 1
            or not all(_schedulable_array(x) for x in parts)
            or len({x.dtype for x in parts}) != 1
        ):
            alg = "direct"
        elif alg == "auto":
            alg = "ring"

        if alg == "ring":
            flat = np.concatenate(
                [np.ascontiguousarray(x).reshape(-1) for x in parts]
            )
            offsets = [0]
            for x in parts:
                offsets.append(offsets[-1] + x.size)
            steps = _alg.compile_reduce_scatter(self.size)[self.rank]
            runner = _alg.ScheduleRunner(
                self, "reduce_scatter", steps, flat, fn,
                self._next_alg_seq(), offsets=tuple(offsets),
                owns_buffer=True,  # the concatenation above is fresh
                inter_peers=self._inter_flags(),
                ufunc=_REDUCE_UFUNCS.get(op),
            )
            with _trace.span("reduce_scatter", cat="coll", alg="ring", bytes=flat.nbytes):
                out = runner.finish()
            result = out[offsets[self.rank] : offsets[self.rank + 1]].reshape(
                parts[self.rank].shape
            )
            self.stats.record_wire(
                "reduce_scatter", runner.wire_sent, runner.wire_recv,
                inter_sent=runner.wire_sent_inter,
                inter_recv=runner.wire_recv_inter,
            )
        else:
            # ``parts`` routing: each member receives only the pieces
            # destined for it; the fold below runs over the same values in
            # the same comm-rank order as the historical full-slot form,
            # so results are bitwise identical.
            def combine(received: list[Any]) -> Any:
                if len(received) == 1:
                    return _private(received[0])
                acc = fn(received[0], received[1])
                for piece in received[2:]:
                    acc = fn(acc, piece)
                return acc

            result = self._collective(
                list(parts), combine, "reduce_scatter", parts=True
            )
            self.stats.record_wire(
                "reduce_scatter",
                sent=sum(
                    payload_nbytes(x)
                    for i, x in enumerate(parts)
                    if i != self.rank
                ),
                recv=(self.size - 1) * payload_nbytes(result),
            )
        self.stats.record_collective("reduce_scatter", payload_nbytes(result))
        return result

    # -- sub-communicators ----------------------------------------------------
    def split(self, color: int | None, key: int | None = None) -> "Communicator | None":
        """Partition the communicator by ``color``; order new ranks by ``key``.

        Ranks passing ``color=None`` receive ``None`` (MPI_UNDEFINED).  All
        members must call ``split`` (it is collective).
        """
        seq = self._coll_seq  # captured before the allgather consumes a slot
        sort_key = key if key is not None else self.rank
        infos = self.allgather((color, sort_key))

        if color is None:
            return None
        group = sorted(
            (
                (info_key, comm_rank)
                for comm_rank, (info_color, info_key) in enumerate(infos)
                if info_color == color
            ),
        )
        new_members = tuple(self._members[comm_rank] for _, comm_rank in group)
        new_rank = new_members.index(self.world_rank)
        new_key = (self._key, "split", seq, color)
        return Communicator(self._world, new_members, new_rank, new_key)

    def dup(self) -> "Communicator":
        """Duplicate this communicator (fresh collective context and tags)."""
        seq = self._coll_seq
        self.barrier()
        return Communicator(
            self._world, self._members, self.rank, key=(self._key, "dup", seq)
        )

    # -- internals -----------------------------------------------------------
    def _exchange(
        self,
        contribution: Any,
        opname: str,
        needs: Callable[[int], Any] | None = None,
        parts: bool = False,
    ) -> "_alg.DirectExchange":
        """Start one ``"direct"`` exchange under the next collective sequence."""
        seq = self._coll_seq
        self._coll_seq += 1
        return _alg.DirectExchange(
            self, opname, seq, _freeze(contribution), needs=needs, parts=parts
        )

    def _collective(
        self,
        contribution: Any,
        combine: Callable[[list[Any]], Any],
        opname: str = "collective",
        needs: Callable[[int], Any] | None = None,
        parts: bool = False,
    ) -> Any:
        sp = _trace.span(opname, cat="coll", alg="direct")
        with sp:
            if _trace.is_on():
                sp.set(bytes=payload_nbytes(contribution))
            self._progress_inflight_schedules()
            exchange = self._exchange(contribution, opname, needs, parts)
            return combine(exchange.finish())

    def _icollective(
        self,
        contribution: Any,
        combine: Callable[[list[Any]], Any],
        opname: str,
        count_stats: bool = True,
        parts: bool = False,
        wire: tuple[int, int | Callable[[Any], int]] | None = None,
    ) -> Request:
        exchange = self._exchange(contribution, opname, parts=parts)
        return _DirectRequest(self, exchange, combine, opname, count_stats, wire)
