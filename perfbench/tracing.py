"""Outside-in span tracing of the program's layers, installed from here.

The benchmark does not use the program's own tracer (``repro.obs``),
whose measured overhead is 20-38%.  Instead :class:`Tracer` wraps the
public entry points of four layers and changes nothing under ``src/``:

* ``nn``     -- the kernels of :mod:`repro.nn.functional` (plus ``SGD.step``
  under the name ``optim``);
* ``core``   -- ``DistNetwork.forward``/``backward``, every ``Dist*`` layer's
  ``forward``/``backward``/``forward_loss`` and the gradient reducer;
* ``tensor`` -- halo region exchanges, pool scatter-adds and shuffles;
* ``comm``   -- every :class:`~repro.comm.Communicator` operation and
  ``Request.wait``.

Each wrapped call is a span.  Stacks, aggregates and span lists are kept
per thread, because the thread backend runs every rank as a thread of one
process: a shared stack would attribute one rank's children to the other
rank's parent and yield negative self times.  A call into ``nn``,
``tensor`` or ``comm`` made from inside a call of the same layer is part
of the outer call and records no span of its own; ``core`` calls nest.
A span's self time is its duration minus the durations of its direct
child spans.

:meth:`Tracer.remove` restores every patched attribute to the original
object, so untraced runs execute unpatched code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from time import perf_counter

#: Spans kept per thread for the trace file; aggregates cover every call.
MAX_SPANS = 20000

NN_KERNELS = (
    "conv2d_forward",
    "conv2d_backward_filter",
    "conv2d_backward_data",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "avgpool2d_forward",
    "avgpool2d_backward",
    "global_avgpool_forward",
    "global_avgpool_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "batchnorm_stats",
    "relu_forward",
    "relu_backward",
    "linear_forward",
    "linear_backward",
    "softmax_cross_entropy",
    "sigmoid_bce_with_logits",
)

COMM_METHODS = (
    "send",
    "recv",
    "isend",
    "irecv",
    "sendrecv",
    "barrier",
    "bcast",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "ialltoall",
    "reduce",
    "allreduce",
    "iallreduce",
    "reduce_scatter",
)


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "zero_byte_calls")

    def __init__(self) -> None:
        #: Open spans: [name, layer, child seconds].
        self.stack: list[list] = []
        #: name -> [calls, inclusive seconds, self seconds].
        self.agg: dict[str, list] = {}
        #: (name, start, end, depth), at most MAX_SPANS.
        self.spans: list[tuple] = []
        self.zero_byte_calls = 0


class Tracer:
    """Wraps the layers' entry points; records spans per thread."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "state", None)
        if st is None:
            st = self._tls.state = _ThreadState()
        return st

    def reset(self) -> None:
        """Forget the calling thread's aggregates, spans and counts."""
        self._tls.state = _ThreadState()

    def snapshot(self) -> dict:
        """The calling thread's records, as plain data."""
        st = self._state()
        return {
            "agg": {k: list(v) for k, v in st.agg.items()},
            "spans": list(st.spans),
            "zero_byte_calls": st.zero_byte_calls,
        }

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn, name: str, layer: str):
        """``fn`` timed as span ``name`` of ``layer``."""
        state = self._state
        nest = layer == "core"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            if not nest and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            frame = [name, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                rec = st.agg.get(name)
                if rec is None:
                    rec = st.agg[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if len(st.spans) < MAX_SPANS:
                    st.spans.append((name, t0, t1, len(stack)))

        return traced

    def _count_zero_bytes(self, fn):
        """Wrap ``CommStats.record_collective``: count records of zero
        bytes made from inside a communicator call."""
        state = self._state

        @functools.wraps(fn)
        def record(stats, name, nbytes, *args, **kwargs):
            st = state()
            if nbytes == 0 and any(f[1] == "comm" for f in st.stack):
                st.zero_byte_calls += 1
            return fn(stats, name, nbytes, *args, **kwargs)

        return record

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, fn, name: str, layer: str) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it
        (``from x import f`` copies the reference)."""
        wrapped = self.wrap(fn, name, layer)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapped)

    def _patch_method(self, cls, attr: str, name: str, layer: str) -> None:
        self._patch(cls, attr, self.wrap(cls.__dict__[attr], name, layer))

    def install(self) -> None:
        """Wrap every traced entry point (once; remove before reinstalling)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import_module, not ``import a.b as c``: ``repro.tensor.shuffle``
        # is also the name of a function the package re-exports.
        communicator = importlib.import_module("repro.comm.communicator")
        dist_conv = importlib.import_module("repro.core.dist_conv")
        dist_layers = importlib.import_module("repro.core.dist_layers")
        dist_tensor = importlib.import_module("repro.tensor.dist_tensor")
        halo = importlib.import_module("repro.tensor.halo")
        shuffle = importlib.import_module("repro.tensor.shuffle")
        from repro.comm.stats import CommStats
        from repro.core.dist_network import DistNetwork
        from repro.core.grad_reducer import BucketedGradReducer
        from repro.nn import functional
        from repro.nn.optim import SGD

        for kernel in NN_KERNELS:
            self._patch_function(getattr(functional, kernel), f"nn.{kernel}", "nn")
        self._patch_method(SGD, "step", "optim.SGD.step", "optim")

        for attr in ("forward", "backward"):
            self._patch_method(DistNetwork, attr, f"core.DistNetwork.{attr}", "core")
        for mod in (dist_conv, dist_layers):
            for cname, cls in vars(mod).items():
                if not (inspect.isclass(cls) and cname.startswith("Dist")):
                    continue
                if cls.__module__ != mod.__name__:
                    continue
                for attr in ("forward", "backward", "forward_loss"):
                    if attr in cls.__dict__:
                        self._patch_method(cls, attr, f"core.{cname}.{attr}", "core")
        for attr in ("add", "poll", "drain"):
            self._patch_method(
                BucketedGradReducer, attr, f"core.BucketedGradReducer.{attr}", "core"
            )

        self._patch_function(
            halo.start_region_exchange, "tensor.start_region_exchange", "tensor"
        )
        self._patch_method(
            halo.RegionExchange, "finish", "tensor.RegionExchange.finish", "tensor"
        )
        self._patch_method(
            dist_tensor.DistTensor, "start_scatter_region_add",
            "tensor.DistTensor.start_scatter_region_add", "tensor",
        )
        self._patch_method(
            dist_tensor.ScatterAddExchange, "finish",
            "tensor.ScatterAddExchange.finish", "tensor",
        )
        self._patch_function(shuffle.shuffle, "tensor.shuffle", "tensor")
        self._patch_function(shuffle.start_shuffle, "tensor.start_shuffle", "tensor")
        for attr in ("start", "finish"):
            self._patch_method(
                shuffle.ShuffleExchange, attr, f"tensor.ShuffleExchange.{attr}", "tensor"
            )

        for attr in COMM_METHODS:
            self._patch_method(
                communicator.Communicator, attr, f"comm.Communicator.{attr}", "comm"
            )
        pending = [communicator.Request]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "wait" in cls.__dict__:
                self._patch_method(cls, "wait", "comm.Request.wait", "comm")
        self._patch(
            CommStats, "record_collective",
            self._count_zero_bytes(CommStats.__dict__["record_collective"]),
        )

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_chrome_trace(path: str, ranks: list[dict]) -> None:
    """Write each rank's kept spans as Chrome trace events (one file, at
    exit).  ``ranks[r]`` is the :meth:`Tracer.snapshot` of rank ``r``."""
    events = []
    t_base = min(
        (s[1] for snap in ranks for s in snap["spans"]), default=0.0
    )
    for rank, snap in enumerate(ranks):
        for name, t0, t1, depth in snap["spans"]:
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": rank,
                "tid": 0,
                "ts": (t0 - t_base) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "args": {"depth": depth},
            })
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
