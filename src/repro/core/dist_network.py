"""Distributed execution of a :class:`NetworkSpec` under a parallel strategy.

This is the LBANN-analogue training pipeline (paper §IV): every layer runs
under its assigned :class:`~repro.core.parallelism.LayerParallelism`; when
adjacent layers use different distributions, activations and error signals
are redistributed with an all-to-all shuffle (§III-C); weight-gradient
partials are completed with an allreduce over each layer's gradient group
(the sub-communicator spanning the grid axes along which the layer's data is
actually partitioned — the whole grid in the standard replicated-weights
case, exactly the paper's Eq. 2 allreduce).

Gradient reduction is **overlapped and bucketed by default**: as each
layer's backward-filter pass produces its ``dw`` partials, they are handed
to a :class:`~repro.core.grad_reducer.BucketedGradReducer`, which coalesces
them into per-gradient-group buckets and launches nonblocking
``iallreduce``s that proceed concurrently with the remaining
backpropagation; everything is drained before :meth:`backward` returns —
the paper's §IV communication-hiding discipline.  ``overlap_grad_reduce=
False`` restores the serial blocking path (one allreduce per parameter
tensor after the layer's backward).  Both paths perform identical
floating-point additions in identical order, so loss trajectories are
bitwise equal (verified by ``tests/test_overlap_reducer.py``); the measured
wait-vs-overlap split is recorded in ``comm.stats``.

Halo exchanges of spatially partitioned convolutions are likewise
**overlapped by default** (``overlap_halo=True``): each
:class:`~repro.core.dist_conv.DistConv2d` posts its halo strips as
nonblocking sends/receives, convolves the interior of its block while they
travel, and completes the boundary strips as the receives land (paper
§IV-A).  ``overlap_halo=False`` runs the same exchange finished right after
it is posted, so the two modes are bitwise equal (verified by
``tests/test_halo_overlap.py``).

Inter-layer *shuffles* (§III-C redistributions at layer boundaries whose
distributions differ) are **overlapped by default** too
(``overlap_shuffle=True``): a layer's activation is launched toward each
child's distribution as a nonblocking
:class:`~repro.tensor.shuffle.ShuffleExchange` the moment it is produced
and finished only where the child consumes it, so the pieces travel behind
whatever runs in between (sibling branches of a DAG, the reducer's gradient
bucketing in backward); in backward the error-signal shuffle toward a
parent is started before the layer's weight-gradient allreduce is queued.
Plans (the per-rank send/receive schedules) are cached on the communicator
across steps, and send payloads are staged through a network-level
:class:`~repro.comm.buffers.BufferPool`.  ``overlap_shuffle=False``
finishes each shuffle right after it is started; both modes assemble the
same pieces into the same zero-initialized blocks and are bitwise equal
(verified by ``tests/test_shuffle_overlap.py`` /
``tests/test_shuffle_property.py``).

Parameters are replicated on every rank and initialized identically to
:class:`repro.nn.network.LocalNetwork` (seeded by layer name), so
distributed runs replicate single-device runs to floating-point
accumulation order — the exactness property claimed in §III and verified by
``tests/test_dist_exactness.py``.
"""

from __future__ import annotations

import numpy as np

from repro.comm.buffers import BufferPool
from repro.comm.communicator import Communicator
from repro.nn import init as I
from repro.nn.graph import NetworkSpec
from repro.obs import tracer as _trace
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
# ``shuffle`` stays importable from this module: perfbench/tracing.py
# patches it here by name.
from repro.tensor.shuffle import ShuffleExchange, shuffle, start_shuffle  # noqa: F401
from repro.core.parallelism import LayerParallelism, ParallelStrategy, activation_dist
from repro.core.dist_conv import DistConv2d
from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES, BucketedGradReducer
from repro.core.dist_layers import (
    DistAdd,
    DistBatchNorm,
    DistBCEWithLogits,
    DistFC,
    DistGlobalAvgPool,
    DistPool2d,
    DistReLU,
    DistSoftmaxCrossEntropy,
)


class DistNetwork:
    """One rank's instance of a distributed CNN."""

    def __init__(
        self,
        spec: NetworkSpec,
        comm: Communicator,
        strategy: ParallelStrategy | LayerParallelism,
        seed: int = 0,
        dtype=np.float64,
        bn_aggregate: str = "global",
        overlap_grad_reduce: bool = True,
        grad_bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        overlap_halo: bool = True,
        overlap_shuffle: bool = True,
        collective_algorithm: str | None = None,
        grad_segment_bytes: int | str | None = None,
    ) -> None:
        if isinstance(strategy, LayerParallelism):
            strategy = ParallelStrategy.uniform(strategy)
        if strategy.nranks != comm.size:
            raise ValueError(
                f"strategy uses {strategy.nranks} ranks but communicator has "
                f"{comm.size}"
            )
        self.spec = spec
        self.comm = comm
        self.strategy = strategy
        self.seed = seed
        self.dtype = dtype
        self.bn_aggregate = bn_aggregate
        self.overlap_grad_reduce = overlap_grad_reduce
        self.grad_bucket_bytes = grad_bucket_bytes
        self.overlap_halo = overlap_halo
        self.overlap_shuffle = overlap_shuffle
        #: Wire algorithm for the gradient allreduces (the
        #: :meth:`~repro.comm.communicator.Communicator.allreduce` knob):
        #: None == "auto" (model-driven schedule selection); "direct" pins
        #: the bitwise-reference deposit-combine path, making the
        #: overlapped and blocking reducers bitwise-identical.
        self.collective_algorithm = collective_algorithm
        #: Segment size for the bucketed gradient allreduces (the
        #: ``segment_bytes`` knob of
        #: :meth:`~repro.comm.communicator.Communicator.iallreduce`):
        #: segmented buckets complete one pipeline segment per reducer
        #: poll, so a ``backward(grad_hook=...)`` caller sees early
        #: buckets while later segments are still on the wire.
        self.grad_segment_bytes = grad_segment_bytes
        self.shapes = spec.infer_shapes()
        # Recycles the staged shuffle send payloads across steps (deferred
        # reclamation once the receivers drop their zero-copy views).
        self._shuffle_pool = BufferPool()
        # In-flight forward shuffles keyed by (child layer, parent index).
        self._pending_fwd: dict[tuple[str, int], ShuffleExchange] = {}

        self._grids: dict[tuple[int, ...], ProcessGrid] = {}
        self.params: dict[str, dict[str, np.ndarray]] = {}
        self.grads: dict[str, dict[str, np.ndarray]] = {}
        self._layers: dict[str, object] = {}
        self._build()

        self._acts: dict[str, DistTensor] = {}
        self._fwd_dist: dict[str, tuple[ProcessGrid, object]] = {}
        self.loss: float | None = None
        self.shuffle_count = 0

    # -- construction ---------------------------------------------------------------
    def _grid(self, shape: tuple[int, ...]) -> ProcessGrid:
        grid = self._grids.get(shape)
        if grid is None:
            grid = ProcessGrid(self.comm, shape)
            self._grids[shape] = grid
        return grid

    def _build(self) -> None:
        for layer in self.spec.topo_order():
            name = layer.name
            grid = self._grid(self.strategy.for_layer(name).grid_shape)
            if layer.kind == "input":
                self._layers[name] = None
                continue
            parent_shape = self.shapes[layer.parents[0]]
            if layer.kind == "conv":
                c_in = parent_shape[0]
                k = layer.params["kernel"]
                kh, kw = (k, k) if isinstance(k, int) else k
                w = I.conv_weights(
                    layer.params["filters"], c_in, kh, kw, self.seed, name
                ).astype(self.dtype)
                b = (
                    I.zeros(layer.params["filters"]).astype(self.dtype)
                    if layer.params.get("bias", False)
                    else None
                )
                self.params[name] = {"w": w} | ({"b": b} if b is not None else {})
                self._layers[name] = DistConv2d(
                    grid,
                    w,
                    stride=layer.params.get("stride", 1),
                    pad=layer.params.get("pad", 0),
                    bias=b,
                    overlap_halo=self.overlap_halo,
                )
            elif layer.kind == "pool":
                self._layers[name] = DistPool2d(
                    grid,
                    layer.params.get("mode", "max"),
                    layer.params["kernel"],
                    layer.params.get("stride", layer.params["kernel"]),
                    layer.params.get("pad", 0),
                    overlap_halo=self.overlap_halo,
                )
            elif layer.kind == "bn":
                c = parent_shape[0]
                gamma = I.ones(c).astype(self.dtype)
                beta = I.zeros(c).astype(self.dtype)
                self.params[name] = {"gamma": gamma, "beta": beta}
                self._layers[name] = DistBatchNorm(
                    grid, gamma, beta, aggregate=self.bn_aggregate,
                    momentum=layer.params.get("momentum", 0.9),
                )
            elif layer.kind == "relu":
                self._layers[name] = DistReLU(grid)
            elif layer.kind == "add":
                self._layers[name] = DistAdd(grid)
            elif layer.kind == "gap":
                self._layers[name] = DistGlobalAvgPool(grid)
            elif layer.kind == "fc":
                c, h, w_ = parent_shape
                w = I.fc_weights(
                    layer.params["units"], c * h * w_, self.seed, name
                ).astype(self.dtype)
                b = (
                    I.zeros(layer.params["units"]).astype(self.dtype)
                    if layer.params.get("bias", True)
                    else None
                )
                self.params[name] = {"w": w} | ({"b": b} if b is not None else {})
                self._layers[name] = DistFC(grid, w, b)
            elif layer.kind == "softmax_ce":
                self._layers[name] = DistSoftmaxCrossEntropy(grid)
            elif layer.kind == "bce":
                self._layers[name] = DistBCEWithLogits(grid)
            else:  # pragma: no cover
                raise AssertionError(layer.kind)

    # -- execution ---------------------------------------------------------------------
    def _want_dist(self, act: DistTensor, grid: ProcessGrid):
        """The distribution a layer on ``grid`` expects ``act`` in, or
        ``None`` when no redistribution is needed."""
        want = activation_dist(grid.shape, act.global_shape)
        if act.dist == want and (act.grid is grid or act.grid.shape == grid.shape):
            return None
        return want

    def _start_child_shuffles(self, name: str) -> None:
        """Launch the redistributions every child of ``name`` will need.

        Called right after a layer's activation is produced: the exchanges
        travel behind whatever computes next — sibling branches of the DAG,
        the remaining forward layers — and are finished where each child
        consumes its input (at once without ``overlap_shuffle``).
        """
        act = self._acts[name]
        for child in self.spec.children_of(name):
            grid = self._grid(self.strategy.for_layer(child).grid_shape)
            want = self._want_dist(act, grid)
            if want is None:
                continue
            for idx, pname in enumerate(self.spec[child].parents):
                if pname == name:
                    ex = start_shuffle(act, grid, want, pool=self._shuffle_pool)
                    if not self.overlap_shuffle:
                        ex.finish()
                    self._pending_fwd[(child, idx)] = ex

    def forward(
        self,
        inputs: dict[str, np.ndarray] | np.ndarray,
        targets: np.ndarray | None = None,
        training: bool = True,
    ) -> float | None:
        """Run forward propagation; returns the loss when the network has a
        loss layer and ``targets`` is given.

        ``inputs``/``targets`` are *global* arrays (every rank passes the
        same ones); each rank slices its own shard.  Loss layers slice the
        targets by their logits' bounds.
        """
        if isinstance(inputs, np.ndarray):
            (inp,) = self.spec.inputs()
            inputs = {inp.name: inputs}
        self._acts = {}
        self._fwd_dist = {}
        self._pending_fwd = {}
        self.loss = None

        for layer in self.spec.topo_order():
            name = layer.name
            grid = self._grid(self.strategy.for_layer(name).grid_shape)
            if layer.kind == "input":
                x_global = np.asarray(inputs[name], dtype=self.dtype)
                dist = activation_dist(grid.shape, x_global.shape)
                self._acts[name] = DistTensor.from_global(grid, dist, x_global)
                self._start_child_shuffles(name)
                continue

            with _trace.span(f"fwd:{name}", cat="layer", kind=layer.kind):
                parents = [self._acts[p] for p in layer.parents]
                # Record the parent's original placement so backward can route
                # the error signal back through the same shuffle.
                self._fwd_dist[name] = [(p.grid, p.dist) for p in parents]
                resolved = []
                for idx, p in enumerate(parents):
                    ex = self._pending_fwd.pop((name, idx), None)
                    if ex is not None:
                        self.shuffle_count += 1
                        p = ex.finish()
                    resolved.append(p)
                parents = resolved
                impl = self._layers[name]

                if layer.kind == "conv":
                    y = impl.forward(parents[0])
                elif layer.kind == "pool":
                    y = impl.forward(parents[0])
                elif layer.kind == "bn":
                    y = impl.forward(parents[0], training=training)
                elif layer.kind in ("relu", "gap", "fc"):
                    y = impl.forward(parents[0])
                elif layer.kind == "add":
                    y = impl.forward(*parents)
                elif layer.kind == "softmax_ce":
                    if targets is not None:
                        self.loss = impl.forward_loss(parents[0], targets)
                    y = parents[0]
                elif layer.kind == "bce":
                    if targets is not None:
                        self.loss = impl.forward_loss(
                            parents[0], np.asarray(targets, dtype=self.dtype)
                        )
                    y = parents[0]
                else:  # pragma: no cover
                    raise AssertionError(layer.kind)
                self._acts[name] = y
                self._start_child_shuffles(name)
        return self.loss

    def backward(self, grad_hook=None) -> dict[str, dict[str, np.ndarray]]:
        """Backpropagate and complete weight gradients with allreduces.

        With ``overlap_grad_reduce`` (the default), each layer's partials
        are queued on a bucketed nonblocking reducer as soon as its filter
        gradients are computed, so the allreduces run concurrently with the
        rest of backpropagation and are drained just before returning.

        ``grad_hook(layer, grads)``, if given, is invoked once per layer
        as soon as that layer's *reduced* gradients are complete — for the
        overlapped reducer this happens mid-backpropagation as buckets
        finish (each layer's enqueue polls the in-flight requests, landing
        one more pipeline segment of each segmented allreduce), so an
        optimizer can apply early layers' updates while later gradients
        are still on the wire.  Every layer is hooked exactly once; layers
        still pending at the end are hooked after the final drain.  The
        returned dict is unchanged — hooking is observation, not
        consumption.

        With ``overlap_shuffle`` (the default), the error-signal shuffle
        toward a parent with a different distribution is *started* as soon
        as the layer's ``dx`` exists — before the layer's own gradient
        bucketing — and finished only when the parent consumes its error
        signal, so the pieces travel behind the reducer work and any
        sibling branches; without it the shuffle is finished at once.
        Contributions are accumulated in the same arrival order in both
        modes, so they perform identical floating-point additions.
        """
        grads: dict[str, dict[str, np.ndarray]] = {}
        #: Per-parent error contributions (DistTensor or in-flight
        #: ShuffleExchange), in route_back arrival order.
        pending: dict[str, list] = {}
        reducer = (
            BucketedGradReducer(
                self.grad_bucket_bytes,
                algorithm=self.collective_algorithm,
                segment_bytes=self.grad_segment_bytes,
            )
            if self.overlap_grad_reduce
            else None
        )
        hooked: set[str] = set()

        def hook(name: str, g: dict[str, np.ndarray]) -> None:
            if grad_hook is not None and name not in hooked:
                hooked.add(name)
                grad_hook(name, g)

        def complete_grads(name: str, g: dict[str, np.ndarray]) -> None:
            if reducer is not None:
                reducer.add(name, g, self._grad_comm(self._acts[name]))
                done = reducer._done.get(name)
                if done is not None:
                    # Singleton gradient group: add() passed the partials
                    # straight through — complete now.
                    hook(name, done)
                elif grad_hook is not None:
                    for lname, lg in reducer.poll().items():
                        hook(lname, lg)
            else:
                g = self._reduce_grads(g, self._acts[name])
                grads[name] = g
                hook(name, g)

        def route_back(name: str, idx: int, dx: DistTensor) -> None:
            """Undo the forward shuffle for parent #idx of layer `name`."""
            pgrid, pdist = self._fwd_dist[name][idx]
            pname = self.spec[name].parents[idx]
            if dx.dist != pdist or dx.grid.shape != pgrid.shape:
                self.shuffle_count += 1
                dx = start_shuffle(dx, pgrid, pdist, pool=self._shuffle_pool)
                if not self.overlap_shuffle:
                    dx.finish()
            pending.setdefault(pname, []).append(dx)

        def consume_dy(name: str) -> DistTensor | None:
            """Materialize a layer's accumulated error signal.

            Entries are folded in arrival order.  ``route_back`` lands every
            entry in the layer's forward placement, so they all share one
            distribution.
            """
            entries = pending.pop(name, None)
            if not entries:
                return None
            out: DistTensor | None = None
            for e in entries:
                dx = e.finish() if isinstance(e, ShuffleExchange) else e
                if out is None:
                    out = DistTensor(
                        dx.grid, dx.dist, dx.global_shape, dx.local.copy()
                    )
                else:
                    out.local += dx.local
            return out

        for layer in reversed(self.spec.topo_order()):
            name = layer.name
            impl = self._layers[name]
            if layer.kind == "input":
                continue
            with _trace.span(f"bwd:{name}", cat="layer", kind=layer.kind):
                if layer.kind in ("softmax_ce", "bce"):
                    route_back(name, 0, impl.backward())
                    continue
                dy = consume_dy(name)
                if dy is None:
                    continue  # no path to the loss

                if layer.kind == "conv":
                    # A network input's error signal is never consumed.
                    need_dx = self.spec[layer.parents[0]].kind != "input"
                    dx, dw, db = impl.backward(dy, need_dx=need_dx)
                    g = {"w": dw}
                    if db is not None:
                        g["b"] = db
                    # The dx shuffle first: it is in flight while the reducer
                    # coalesces and launches this layer's gradient allreduce.
                    if need_dx:
                        route_back(name, 0, dx)
                    complete_grads(name, g)
                elif layer.kind == "pool":
                    route_back(name, 0, impl.backward(dy))
                elif layer.kind == "bn":
                    dx, dgamma, dbeta = impl.backward(dy)
                    route_back(name, 0, dx)
                    complete_grads(name, {"gamma": dgamma, "beta": dbeta})
                elif layer.kind == "relu":
                    route_back(name, 0, impl.backward(dy))
                elif layer.kind == "gap":
                    route_back(name, 0, impl.backward(dy))
                elif layer.kind == "fc":
                    dx, dw, db = impl.backward(dy)
                    g = {"w": dw}
                    if db is not None:
                        g["b"] = db
                    route_back(name, 0, dx)
                    complete_grads(name, g)
                elif layer.kind == "add":
                    for idx in range(len(layer.parents)):
                        route_back(name, idx, dy)
                else:  # pragma: no cover
                    raise AssertionError(layer.kind)

        # Error signals routed to input layers are never consumed; drain
        # their in-flight exchanges so no irecv outlives the step.
        for entries in pending.values():
            for e in entries:
                if isinstance(e, ShuffleExchange):
                    e.finish()

        if reducer is not None:
            grads.update(reducer.drain())
            if grad_hook is not None:
                for name, g in grads.items():
                    hook(name, g)
        self.grads = grads
        return grads

    def _grad_comm(self, y: DistTensor) -> Communicator | None:
        """The gradient group of a layer with output ``y`` (paper Eq. 2).

        Spans the grid axes along which the layer's output data is
        partitioned; ``None`` when the layer's partials are already complete
        (replicas along other axes hold identical partials).
        """
        axes = [d for d in range(y.dist.ndim) if y.dist.is_split(d)]
        if not axes:
            return None
        return y.grid.axes_comm(axes)

    def _reduce_grads(
        self, partials: dict[str, np.ndarray], y: DistTensor
    ) -> dict[str, np.ndarray]:
        """Blocking completion of weight-gradient partials (Eq. 2's allreduce)."""
        comm = self._grad_comm(y)
        if comm is None:
            return partials
        return {
            k: comm.allreduce(v, algorithm=self.collective_algorithm)
            for k, v in partials.items()
        }

    # -- checkpointing ---------------------------------------------------------------
    def state_dict(self) -> dict:
        """All persistent state of this replica, as fresh arrays.

        Parameters plus batch-norm running statistics — everything a layer
        reads across steps.  Activations, caches, and in-flight exchanges
        are per-step and excluded.
        """
        params = {
            lname: {pname: arr.copy() for pname, arr in lparams.items()}
            for lname, lparams in self.params.items()
        }
        bn = {}
        for name, impl in self._layers.items():
            if isinstance(impl, DistBatchNorm):
                bn[name] = {
                    "running_mean": impl.running_mean.copy(),
                    "running_var": impl.running_var.copy(),
                }
        return {"params": params, "bn": bn}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output bitwise.

        Parameter data is copied *into* the existing arrays
        (``np.copyto``), because the layer objects hold references to the
        same buffers the optimizer updates in place — rebinding would
        silently detach them.  BN running stats are rebound instead, since
        ``DistBatchNorm.forward`` rebinds them every training step anyway.
        """
        for lname, lparams in state["params"].items():
            mine = self.params[lname]
            for pname, arr in lparams.items():
                np.copyto(mine[pname], arr)
        for name, stats in state["bn"].items():
            impl = self._layers[name]
            impl.running_mean = stats["running_mean"].copy()
            impl.running_var = stats["running_var"].copy()

    # -- convenience -----------------------------------------------------------------
    def loss_and_grad(
        self, inputs, targets, grad_hook=None
    ) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
        loss = self.forward(inputs, targets=targets, training=True)
        if loss is None:
            raise RuntimeError("network has no loss layer or targets missing")
        return loss, self.backward(grad_hook=grad_hook)

    def local_activation(self, name: str) -> DistTensor:
        return self._acts[name]

    def gather_activation(self, name: str) -> np.ndarray:
        """Assemble a layer's global output on every rank (test helper)."""
        return self._acts[name].to_global()
