"""Distributed pooling, batch norm, ReLU, add, GAP, FC, and loss layers.

"The extension to an entire CNN is relatively straightforward.  Each
convolutional layer can be parallelized as above.  Pooling layers are
parallelized similarly.  Element-wise operations such as ReLUs parallelize
trivially regardless of distribution." (§III-B)

Batch normalization offers the paper's design choice explicitly: purely
local statistics, statistics aggregated over the spatial group of each
sample ("a variant that aggregates over the spatial distribution of a
sample"), or fully global statistics (which exactly replicates single-device
training and is what the exactness tests use).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.buffers import BufferPool
from repro.nn import functional as F
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
from repro.tensor.halo import (
    ExchangePlan,
    any_region_remote,
    local_region,
    plan_region_exchange,
    start_region_exchange,
)
from repro.tensor.indexing import ceil_div
from repro.core.dist_conv import _frame_pieces, _fwd_region_builder, _run_pieces
from repro.core.parallelism import activation_dist


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


@dataclass(frozen=True)
class _PoolGeometry:
    """Static forward geometry of one pooling layer, cached across steps
    (same discipline as :class:`~repro.core.dist_conv._ConvGeometry`)."""

    y_dist: object
    y_shape: tuple[int, ...]
    bounds: tuple            # this rank's output bounds
    lo: tuple[int, ...]      # gathered dependency region, inclusive start
    hi: tuple[int, ...]      # gathered dependency region, exclusive end
    exchanged: bool          # does any rank need remote data?
    pieces: tuple            # ((rows, cols, is_interior), ...) decomposition
    plan: ExchangePlan | None
    scatter_plan: list       # backward scatter-add routing of [lo, hi)


class DistPool2d:
    """Distributed max/average pooling.

    Forward gathers the same dependency region as convolution; backward
    computes gradients on the extended region and *scatter-adds* them back
    to their owners (windows straddling a partition boundary contribute to
    a neighbor's cells — the reverse halo exchange).

    When some rank needs remote data, forward drives the gather through the
    nonblocking :class:`~repro.tensor.halo.RegionExchange` (plan cached per
    layer) and decomposes the output into interior windows — those reading
    only locally owned input (or virtual padding) — plus boundary strips
    completed after assembly.  ``overlap_halo`` (the default) finishes the
    exchange after the interior windows; ``overlap_halo=False`` finishes it
    right after the start.  Pooling windows are reduced per output element,
    so the piecewise kernels are bitwise identical to the fused kernel a
    layer with nothing to exchange runs on its local region.  The backward
    scatter-add (:meth:`~repro.tensor.dist_tensor.DistTensor.
    start_scatter_region_add`, routing plan cached with the forward
    geometry) accumulates the rank's own contribution while the boundary
    strips travel, then folds in the remote ones (ascending comm rank);
    when no rank's region is remote it is all local and exchanges nothing.
    """

    def __init__(
        self,
        grid: ProcessGrid,
        mode: str,
        kernel,
        stride=None,
        pad=0,
        overlap_halo: bool = True,
    ) -> None:
        if mode not in ("max", "avg"):
            raise ValueError(f"unknown pooling mode {mode!r}")
        self.grid = grid
        self.mode = mode
        self.kernel = _pair(kernel)
        self.stride = _pair(stride if stride is not None else kernel)
        self.pad = _pair(pad)
        self.overlap_halo = bool(overlap_halo)
        self._cache: dict = {}
        # Recycles the gathered extended region and the exchange payloads
        # (halo send strips, scatter-add contributions) across steps.
        self._pool = BufferPool()
        self._geom: dict = {}

    def output_global_shape(self, x_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = x_shape
        oh, ow = F.conv2d_output_shape((h, w), self.kernel, self.stride, self.pad)
        return (n, c, oh, ow)

    def _interior(self, x: DistTensor, yb) -> tuple:
        """Output rows/cols whose windows need only locally owned input
        (windows past the global edge read virtual padding — local
        knowledge, so global-boundary ranks keep a full interior)."""
        xb = x.dist.local_bounds(x.global_shape, self.grid.coords)
        spans = []
        for axis, k, s, p in (
            (2, self.kernel[0], self.stride[0], self.pad[0]),
            (3, self.kernel[1], self.stride[1], self.pad[1]),
        ):
            b_lo, b_hi = xb[axis]
            o_lo, o_hi = yb[axis]
            extent = x.global_shape[axis]
            lo = o_lo if b_lo == 0 else max(o_lo, ceil_div(b_lo + p, s))
            hi = o_hi if b_hi == extent else min(o_hi, (b_hi + p - k) // s + 1)
            spans.append((lo, hi))
        return tuple(spans)

    def _fwd_geom(self, x: DistTensor) -> _PoolGeometry:
        key = (x.global_shape, x.dist)
        geom = self._geom.get(key)
        if geom is not None:
            return geom
        y_shape = self.output_global_shape(x.global_shape)
        y_dist = activation_dist(self.grid.shape, y_shape)
        for d in (2, 3):
            if x.dist.is_split(d) and not y_dist.is_split(d):
                raise ValueError(
                    "pooling output too small for the spatial decomposition "
                    f"(axis {d}: {y_shape[d]} rows over {self.grid.shape[d]} "
                    "parts); assign this layer a smaller spatial parallelism"
                )
        yb = y_dist.local_bounds(y_shape, self.grid.coords)
        # Same dependency-region algebra as convolution; pooling keeps its
        # channel block, so the dim-1 slot comes from the output bounds.
        region_of = _fwd_region_builder(
            self.kernel, self.stride, self.pad, y_dist, y_shape,
            lambda coords: y_dist.local_bounds(y_shape, coords)[1],
        )
        regions = [
            region_of(self.grid.coords_of(r)) for r in range(self.grid.comm.size)
        ]
        lo, hi = regions[self.grid.comm.rank]
        exchanged = any_region_remote(x, regions)
        pieces: tuple = ()
        plan = None
        if exchanged:
            inner_h, inner_w = self._interior(x, yb)
            pieces = tuple(_frame_pieces(yb[2], yb[3], inner_h, inner_w))
            plan = plan_region_exchange(x, lo, hi, regions)
        # The gradient DistTensor is rebuilt every backward; the routing
        # plan depends only on the layout, so it is cached here.
        scatter_plan = x.scatter_add_plan(lo, [h - b for b, h in zip(lo, hi)])
        geom = _PoolGeometry(
            y_dist, y_shape, yb, lo, hi, exchanged, pieces, plan, scatter_plan
        )
        self._geom[key] = geom
        return geom

    def _pool_piece(
        self, x_ext, yb, rows, cols, y_local, argmax
    ) -> None:
        """Pool one output sub-rectangle from its slice of ``x_ext``.

        Window reductions are per output element, so piecewise evaluation
        is bitwise identical to the fused kernel."""
        (a, b), (c, d) = rows, cols
        kh, kw = self.kernel
        sh, sw = self.stride
        _, _, (oh_lo, _), (ow_lo, _) = yb
        hs = (a - oh_lo) * sh
        ws = (c - ow_lo) * sw
        xs = x_ext[
            :, :, hs : hs + (b - a - 1) * sh + kh, ws : ws + (d - c - 1) * sw + kw
        ]
        dst = (slice(None), slice(None), slice(a - oh_lo, b - oh_lo), slice(c - ow_lo, d - ow_lo))
        if self.mode == "max":
            y_piece, a_piece = F.maxpool2d_forward(xs, self.kernel, self.stride, 0)
            y_local[dst] = y_piece
            argmax[dst] = a_piece  # in-window flat indices: offset-free
        else:
            y_local[dst] = F.avgpool2d_forward(xs, self.kernel, self.stride, 0)

    def forward(self, x: DistTensor) -> DistTensor:
        g = self._fwd_geom(x)
        yb = g.bounds
        # Max pooling must not let virtual padding win: fill with -inf-like.
        fill = -np.inf if self.mode == "max" else 0.0

        if g.exchanged:
            (n_lo, n_hi), (c_lo, c_hi), (oh_lo, oh_hi), (ow_lo, ow_hi) = yb
            y_local = np.empty(
                (n_hi - n_lo, c_hi - c_lo, oh_hi - oh_lo, ow_hi - ow_lo),
                dtype=x.dtype,
            )
            argmax = (
                np.empty(y_local.shape, dtype=np.int64)
                if self.mode == "max"
                else None
            )
            ex = start_region_exchange(
                x, g.lo, g.hi, fill=fill, pool=self._pool, plan=g.plan
            )
            if not self.overlap_halo:
                ex.finish()
            x_ext = ex.out
            _run_pieces(
                g.pieces, ex,
                lambda rows, cols: self._pool_piece(
                    x_ext, yb, rows, cols, y_local, argmax
                ),
            )
        else:
            # No rank needs remote data: one fused kernel on local data.
            x_ext = local_region(x, g.lo, g.hi, fill=fill, pool=self._pool)
            if self.mode == "max":
                y_local, argmax = F.maxpool2d_forward(x_ext, self.kernel, self.stride, 0)
            else:
                y_local = F.avgpool2d_forward(x_ext, self.kernel, self.stride, 0)
                argmax = None
        self._cache = {"argmax": argmax, "geom": g, "x": x}
        self._pool.give(x_ext)  # backward needs only the geometry (and argmax)
        return DistTensor(self.grid, g.y_dist, g.y_shape, y_local)

    def backward(self, dy: DistTensor) -> DistTensor:
        cache = self._cache
        if not cache:
            raise RuntimeError("backward() before forward()")
        g: _PoolGeometry = cache["geom"]
        x_ext_shape = tuple(h - b for b, h in zip(g.lo, g.hi))
        if self.mode == "max":
            dx_ext = F.maxpool2d_backward(
                dy.local, cache["argmax"], x_ext_shape,
                self.kernel, self.stride, 0,
            )
        else:
            dx_ext = F.avgpool2d_backward(
                dy.local, x_ext_shape, self.kernel, self.stride, 0
            )
        x: DistTensor = cache["x"]
        dx = DistTensor.zeros(x.grid, x.dist, x.global_shape, dtype=dy.dtype)
        if g.exchanged:
            dx.start_scatter_region_add(
                dx_ext, g.lo, pool=self._pool, plan=g.scatter_plan
            ).finish()
        else:
            # Every piece of the plan is this rank's own: nothing to send.
            dx.accumulate_regions(
                (overlap, dx_ext[sl]) for _, overlap, sl in g.scatter_plan
            )
        # Replicated output dims mean every replica scattered identical
        # contributions into disjoint replica groups — already consistent.
        return dx


class DistBatchNorm:
    """Distributed batch normalization with selectable aggregation (§III-B).

    * ``aggregate='local'``  — statistics over the local shard only ("batch
      normalization is typically computed locally on each processor");
    * ``aggregate='spatial'`` — allreduce statistics over the spatial group,
      so each sample group normalizes over complete samples;
    * ``aggregate='global'`` — allreduce over every rank holding distinct
      data: statistics over the full mini-batch, exactly replicating
      single-device batch norm.
    """

    AGGREGATES = ("local", "spatial", "global")

    def __init__(
        self,
        grid: ProcessGrid,
        gamma: np.ndarray,
        beta: np.ndarray,
        aggregate: str = "global",
        eps: float = 1e-5,
        momentum: float = 0.9,
    ) -> None:
        if aggregate not in self.AGGREGATES:
            raise ValueError(
                f"aggregate must be one of {self.AGGREGATES}, got {aggregate!r}"
            )
        self.grid = grid
        self.gamma = gamma
        self.beta = beta
        self.aggregate = aggregate
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros_like(gamma)
        self.running_var = np.ones_like(gamma)
        self._cache: dict = {}

    def _stats_comm(self, dist):
        """Communicator over which statistics are aggregated."""
        if self.aggregate == "local":
            return None
        if self.aggregate == "spatial":
            axes = [d for d in (2, 3) if dist.is_split(d)]
        else:  # global: every axis along which data is partitioned
            axes = [d for d in (0, 2, 3) if dist.is_split(d)]
        if not axes:
            return None
        return self.grid.axes_comm(axes)

    def forward(self, x: DistTensor, training: bool = True) -> DistTensor:
        if not training:
            y_local, bn_cache = F.batchnorm_forward(
                x.local, self.gamma, self.beta, eps=self.eps,
                mean=self.running_mean, var=self.running_var,
            )
            self._cache = {"bn": bn_cache, "count": 1.0, "dist": x.dist}
            return DistTensor(self.grid, x.dist, x.global_shape, y_local)
        s, ss, count = F.batchnorm_stats(x.local)
        comm = self._stats_comm(x.dist)
        if comm is not None:
            # [s, ss, count] travel as one allreduce.
            c = s.shape[0]
            buf = comm.allreduce(
                np.concatenate([s, ss, np.array([count], dtype=s.dtype)])
            )
            s, ss, count = buf[:c], buf[c : 2 * c], float(buf[2 * c])
        mean = s / count
        var = ss / count - mean**2
        mom = self.momentum
        self.running_mean = mom * self.running_mean + (1 - mom) * mean
        self.running_var = mom * self.running_var + (1 - mom) * var
        y_local, bn_cache = F.batchnorm_forward(
            x.local, self.gamma, self.beta, eps=self.eps, mean=mean, var=var
        )
        self._cache = {"bn": bn_cache, "count": count, "dist": x.dist}
        return DistTensor(self.grid, x.dist, x.global_shape, y_local)

    def backward(
        self, dy: DistTensor
    ) -> tuple[DistTensor, np.ndarray, np.ndarray]:
        """Returns ``(dx, dgamma_partial, dbeta_partial)``; the partials
        still need the layer-gradient allreduce (like conv's ``dw``)."""
        cache = self._cache
        if not cache:
            raise RuntimeError("backward() before forward()")
        local_dgamma, local_dbeta = F.batchnorm_grad_sums(dy.local, cache["bn"])
        dg, db = local_dgamma, local_dbeta
        comm = self._stats_comm(cache["dist"])
        if comm is not None:
            # [dgamma, dbeta] travel as one allreduce.
            c = dg.shape[0]
            buf = comm.allreduce(np.concatenate([dg, db]))
            dg, db = buf[:c], buf[c:]
        dx_local, _, _ = F.batchnorm_backward(
            dy.local, cache["bn"], stat_sums=(dg, db, cache["count"])
        )
        dx = DistTensor(self.grid, dy.dist, dy.global_shape, dx_local)
        return dx, local_dgamma, local_dbeta


class DistReLU:
    """Element-wise, so 'parallelizes trivially regardless of distribution'."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid
        self._mask: np.ndarray | None = None

    def forward(self, x: DistTensor) -> DistTensor:
        y_local, self._mask = F.relu_forward(x.local)
        return DistTensor(self.grid, x.dist, x.global_shape, y_local)

    def backward(self, dy: DistTensor) -> DistTensor:
        if self._mask is None:
            raise RuntimeError("backward() before forward()")
        return DistTensor(
            self.grid, dy.dist, dy.global_shape, F.relu_backward(dy.local, self._mask)
        )


class DistAdd:
    """Element-wise sum of identically distributed parents (residual join)."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid

    def forward(self, *xs: DistTensor) -> DistTensor:
        first = xs[0]
        for x in xs[1:]:
            if x.dist != first.dist or x.global_shape != first.global_shape:
                raise ValueError("DistAdd parents must share shape and distribution")
        out = first.local.copy()
        for x in xs[1:]:
            out += x.local
        return DistTensor(self.grid, first.dist, first.global_shape, out)

    def backward(self, dy: DistTensor, nparents: int) -> list[DistTensor]:
        return [dy for _ in range(nparents)]


class DistGlobalAvgPool:
    """Global average pooling: local spatial sums + allreduce over the
    spatial group; the (N, C, 1, 1) output is replicated over the spatial
    axes so no rank holds an empty shard."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid
        self._cache: dict = {}

    def forward(self, x: DistTensor) -> DistTensor:
        n, c, h, w = x.global_shape
        local_sum = x.local.sum(axis=(2, 3))
        axes = [d for d in (2, 3) if x.dist.is_split(d)]
        if axes:
            comm = self.grid.axes_comm(axes)
            local_sum = comm.allreduce(local_sum)
        y_local = (local_sum / (h * w))[:, :, None, None]
        y_shape = (n, c, 1, 1)
        y_dist = activation_dist(self.grid.shape, y_shape)
        self._cache = {"x": x}
        return DistTensor(self.grid, y_dist, y_shape, y_local)

    def backward(self, dy: DistTensor) -> DistTensor:
        x: DistTensor = self._cache["x"]
        n, c, h, w = x.global_shape
        # d/dx of the mean spreads dy/(H*W) uniformly; every spatial replica
        # of dy is identical, so each rank fills its own block directly.
        grad = dy.local[:, :, 0, 0][:, :, None, None] / (h * w)
        dx_local = np.broadcast_to(grad, x.local.shape).copy()
        return DistTensor(self.grid, x.dist, x.global_shape, dx_local)


class DistFC:
    """Sample-parallel fully connected layer (weights replicated).

    The paper's *model-parallel* FC (Elemental-style distributed GEMM) is
    equivalent to a filter-parallel 1x1 convolution, which is not
    implemented; cost-wise it is modeled in :mod:`repro.perfmodel`.  Here
    activations must not be spatially split (shuffle to a sample-only
    distribution first, as LBANN does before FC layers).
    """

    def __init__(
        self, grid: ProcessGrid, weights: np.ndarray, bias: np.ndarray | None
    ) -> None:
        self.grid = grid
        self.w = weights
        self.bias = bias
        self._cache: dict = {}

    def forward(self, x: DistTensor) -> DistTensor:
        if any(x.dist.is_split(d) for d in (1, 2, 3)):
            raise ValueError(
                "DistFC requires sample-only input distribution; shuffle first"
            )
        flat = x.local.reshape(x.local.shape[0], -1)
        y_local = F.linear_forward(flat, self.w, self.bias)[:, :, None, None]
        n = x.global_shape[0]
        y_shape = (n, self.w.shape[0], 1, 1)
        y_dist = activation_dist(self.grid.shape, y_shape)
        self._cache = {"flat": flat, "x": x}
        return DistTensor(self.grid, y_dist, y_shape, y_local)

    def backward(
        self, dy: DistTensor
    ) -> tuple[DistTensor, np.ndarray, np.ndarray | None]:
        flat = self._cache["flat"]
        x: DistTensor = self._cache["x"]
        dflat, dw, db = F.linear_backward(flat, self.w, dy.local[:, :, 0, 0])
        dx = DistTensor(
            self.grid, x.dist, x.global_shape, dflat.reshape(x.local.shape)
        )
        return dx, dw, (db if self.bias is not None else None)


class DistSoftmaxCrossEntropy:
    """Mean softmax cross-entropy over the global mini-batch.

    Each rank evaluates its local samples against its slice of the labels;
    the scalar loss is completed with an allreduce over the sample axis.
    """

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid
        self._cache: dict = {}

    def forward_loss(self, logits: DistTensor, labels: np.ndarray) -> float:
        n_global = logits.global_shape[0]
        (n_lo, n_hi) = logits.bounds[0]
        local_labels = labels[n_lo:n_hi]
        flat = logits.local.reshape(logits.local.shape[0], -1)
        if flat.shape[0] > 0:
            local_loss_sum, dlogits = F.softmax_cross_entropy(flat, local_labels)
            local_loss_sum *= flat.shape[0]
            dlogits = dlogits * flat.shape[0] / n_global
        else:  # pragma: no cover - empty shard edge case
            local_loss_sum, dlogits = 0.0, np.zeros_like(flat)
        # Sum each sample's loss exactly once: reduce over the sample axis.
        axes = [d for d in (0,) if logits.dist.is_split(d)]
        total = local_loss_sum
        if axes:
            total = self.grid.axes_comm(axes).allreduce(local_loss_sum)
        self._cache = {
            "dlogits": dlogits.reshape(logits.local.shape),
            "logits": logits,
        }
        return float(total) / n_global

    def backward(self) -> DistTensor:
        logits: DistTensor = self._cache["logits"]
        return DistTensor(
            self.grid, logits.dist, logits.global_shape, self._cache["dlogits"]
        )


class DistBCEWithLogits:
    """Per-pixel binary cross-entropy (the mesh-tangling loss).

    Targets are supplied globally; each rank slices its block.  The mean is
    completed by an allreduce over all split axes.
    """

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid
        self._cache: dict = {}

    def forward_loss(self, logits: DistTensor, targets: np.ndarray) -> float:
        b = logits.bounds
        t_local = targets[
            b[0][0] : b[0][1], b[1][0] : b[1][1], b[2][0] : b[2][1], b[3][0] : b[3][1]
        ]
        count_global = float(np.prod(logits.global_shape))
        if logits.local.size:
            local_loss, dlogits = F.sigmoid_bce_with_logits(logits.local, t_local)
            local_sum = local_loss * logits.local.size
            dlogits = dlogits * logits.local.size / count_global
        else:  # pragma: no cover
            local_sum, dlogits = 0.0, np.zeros_like(logits.local)
        axes = [d for d in range(4) if logits.dist.is_split(d)]
        total = local_sum
        if axes:
            total = self.grid.axes_comm(axes).allreduce(local_sum)
        self._cache = {"dlogits": dlogits, "logits": logits}
        return float(total) / count_global

    def backward(self) -> DistTensor:
        logits: DistTensor = self._cache["logits"]
        return DistTensor(
            self.grid, logits.dist, logits.global_shape, self._cache["dlogits"]
        )
