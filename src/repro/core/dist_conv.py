"""Distributed convolution: sample, spatial, and hybrid parallelism (§III-A).

The algorithm, exactly as in the paper with the region algebra made
explicit.  Let a rank own output rows ``[q_o, r_o)`` (block distribution of
the output's H dimension; W symmetric).  With kernel K, stride S, padding P:

* **forward** — output row ``j`` reads input rows ``[jS - P, jS - P + K)``,
  so the rank gathers input region ``[q_o S - P, (r_o - 1) S - P + K)``
  (its own block plus halo; out-of-range parts are virtual padding,
  zero-filled by the gather) and runs a *local* convolution with ``pad=0``.
  When S=1 the halo is exactly ``O = floor(K/2)`` rows on each side — the
  paper's halo exchange;
* **backward-filter** (Eq. 2) — reuses the forward's gathered input region
  against the local error signal, again with ``pad=0``; the partial ``dw``
  is then summed over the grid by an allreduce;
* **backward-data** (Eq. 3) — input row ``i`` is influenced by output rows
  ``[(i + P - K + 1)/S, (i + P)/S]``; the rank owning input rows
  ``[x_lo, x_hi)`` gathers the error-signal region
  ``[floor((x_lo + P - K + 1)/S), floor((x_hi - 1 + P)/S) + 1)`` and
  evaluates the transposed convolution with effective left padding
  ``p'' = x_lo + P - S*d_lo`` (>= K-1 by construction), which aligns the
  gathered region with the local block exactly.

**Overlapped halo exchange (§IV-A).**  When the layer is spatially
partitioned, the local output block is decomposed into an *interior* region
— output points whose input windows lie entirely in locally owned data (or
virtual padding) — and up to four *boundary* strips that depend on halo
cells.  The halo strips are posted as nonblocking ``isend``/``irecv`` up
front (:func:`start_region_exchange`), the interior kernel runs, received
pieces are assembled, and the boundary kernels complete the output; in
backward the error-signal exchange is posted before the filter convolution
(Eq. 2 needs no halo).  ``overlap_halo`` (the default) finishes the
exchange only after the interior kernel; ``overlap_halo=False`` finishes
it right after the start.  That is the only difference between the modes:
they run the same exchange and the same kernels on the same data, so they
are bitwise equal over entire training runs (BLAS kernels are not
sub-block invariant, which is why both modes run the decomposition rather
than one fused kernel).

A layer whose regions are all local (pure sample parallelism, replicated
spatial dims) exchanges nothing: it reads its region locally
(:func:`local_region`) and runs one fused kernel, in both modes, and so
replicates the single-device result to floating-point accumulation order.
The same region algebra handles pure spatial, hybrid, strides, uneven
partitions, and replicated dimensions.
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
from repro.core.parallelism import activation_dist


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _frame_pieces(
    outer_h: tuple[int, int],
    outer_w: tuple[int, int],
    inner_h: tuple[int, int],
    inner_w: tuple[int, int],
) -> list[tuple[tuple[int, int], tuple[int, int], bool]]:
    """Decompose rectangle ``outer`` into the ``inner`` core plus a frame.

    Returns ``[(rows, cols, is_interior), ...]`` in a fixed deterministic
    order (interior, top, bottom, left, right; empty pieces dropped).  When
    the interior is empty the whole outer rectangle is one boundary piece.
    """
    (oh_lo, oh_hi), (ow_lo, ow_hi) = outer_h, outer_w
    ih_lo = max(inner_h[0], oh_lo)
    ih_hi = min(inner_h[1], oh_hi)
    iw_lo = max(inner_w[0], ow_lo)
    iw_hi = min(inner_w[1], ow_hi)
    if oh_hi <= oh_lo or ow_hi <= ow_lo:
        return []
    if ih_hi <= ih_lo or iw_hi <= iw_lo:
        return [((oh_lo, oh_hi), (ow_lo, ow_hi), False)]
    pieces = [((ih_lo, ih_hi), (iw_lo, iw_hi), True)]
    if ih_lo > oh_lo:
        pieces.append(((oh_lo, ih_lo), (ow_lo, ow_hi), False))
    if oh_hi > ih_hi:
        pieces.append(((ih_hi, oh_hi), (ow_lo, ow_hi), False))
    if iw_lo > ow_lo:
        pieces.append(((ih_lo, ih_hi), (ow_lo, iw_lo), False))
    if ow_hi > iw_hi:
        pieces.append(((ih_lo, ih_hi), (iw_hi, ow_hi), False))
    return pieces


def _fwd_region_builder(kernel, stride, pad, y_dist, y_shape, chan_of):
    """Any rank's forward input region from its output bounds.

    ``chan_of(coords)`` supplies the dim-1 slot — the full (replicated) C
    extent for convolution, the rank's own channel block for pooling.
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad

    def region_of(coords):
        (n_lo, n_hi), _, (oh_lo, oh_hi), (ow_lo, ow_hi) = y_dist.local_bounds(
            y_shape, coords
        )
        c_lo, c_hi = chan_of(coords)
        lo = (n_lo, c_lo, oh_lo * sh - ph, ow_lo * sw - pw)
        hi = (
            n_hi,
            c_hi,
            (oh_hi - 1) * sh - ph + kh if oh_hi > oh_lo else oh_lo * sh - ph,
            (ow_hi - 1) * sw - pw + kw if ow_hi > ow_lo else ow_lo * sw - pw,
        )
        return lo, hi

    return region_of


def _bwd_region_builder(kernel, stride, pad, x_dist, x_shape, channels):
    """Any rank's backward-data dy region from its input bounds (Eq. 3),
    over all ``channels`` of dy."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad

    def region_of(coords):
        (n_lo, n_hi), _, (xh_lo, xh_hi), (xw_lo, xw_hi) = x_dist.local_bounds(
            x_shape, coords
        )
        dh_lo = _floor_div(xh_lo + ph - (kh - 1), sh)
        dh_hi = _floor_div(xh_hi - 1 + ph, sh) + 1 if xh_hi > xh_lo else dh_lo
        dw_lo = _floor_div(xw_lo + pw - (kw - 1), sw)
        dw_hi = _floor_div(xw_hi - 1 + pw, sw) + 1 if xw_hi > xw_lo else dw_lo
        return (n_lo, 0, dh_lo, dw_lo), (n_hi, channels, dh_hi, dw_hi)

    return region_of


def _run_pieces(pieces, ex, kernel) -> None:
    """Run ``kernel(rows, cols)`` on the interior pieces, finish the
    exchange ``ex``, then run the boundary pieces (§IV-A)."""
    for rows, cols, interior in pieces:
        if interior:
            kernel(rows, cols)
    ex.finish()
    for rows, cols, interior in pieces:
        if not interior:
            kernel(rows, cols)


@dataclass(frozen=True)
class _ConvGeometry:
    """Static per-layer execution geometry, cached across steps.

    Everything here is a pure function of (global shape, distribution,
    layer hyper-parameters), so it is computed once per layer and direction
    — including the halo :class:`ExchangePlan` — rather than per step.
    """

    bounds: tuple            # this rank's output (fwd) / input (bwd) bounds
    lo: tuple[int, ...]      # gathered dependency region, inclusive start
    hi: tuple[int, ...]      # gathered dependency region, exclusive end
    exchanged: bool          # does any rank need remote data?
    pieces: tuple            # ((rows, cols, is_interior), ...) decomposition
    plan: ExchangePlan | None
    y_dist: object = None    # forward only: output distribution
    y_shape: tuple[int, ...] | None = None


class DistConv2d:
    """A distributed 2D convolutional layer.

    Weights (and bias) are replicated on every rank of ``grid``; the
    activation tensors are distributed along (N, H, W) per the grid shape
    (channel parallelism, §III-D, is not implemented).

    ``overlap_halo`` finishes each halo exchange after the interior
    kernels; ``overlap_halo=False`` finishes it right after the start.
    Both modes run the same kernels, so they are bitwise equal.
    """

    def __init__(
        self,
        grid: ProcessGrid,
        weights: np.ndarray,
        stride=1,
        pad=0,
        bias: np.ndarray | None = None,
        overlap_halo: bool = True,
    ) -> None:
        if grid.ndim != 4:
            raise ValueError("DistConv2d expects a 4D (N, C, H, W) grid")
        if grid.shape[1] != 1:
            raise ValueError(
                "channel parallelism is not implemented: DistConv2d needs a "
                "grid with one part on the channel axis"
            )
        self.grid = grid
        self.w = weights
        self.bias = bias
        self.stride = _pair(stride)
        self.pad = _pair(pad)
        self.kernel = (weights.shape[2], weights.shape[3])
        self.overlap_halo = bool(overlap_halo)
        self._x_ext: np.ndarray | None = None
        self._x_global_shape: tuple[int, ...] | None = None
        self._x_dist = None
        # Recycles the gathered input / error-signal staging buffers across
        # steps, plus (deferred) the contiguous halo send strips of the
        # overlapped exchange.
        self._pool = BufferPool()
        # Static geometry (regions, decompositions, exchange plans) per
        # (direction, global shape, distribution).
        self._geom: dict = {}

    # -- geometry ------------------------------------------------------------------
    def output_global_shape(self, x_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = x_shape
        oh, ow = F.conv2d_output_shape(
            (h, w), self.kernel, self.stride, self.pad
        )
        return (n, self.w.shape[0], oh, ow)

    # -- interior/boundary decomposition (§IV-A) -----------------------------------
    def _fwd_interior(self, x: DistTensor, y_bounds) -> tuple:
        """Output rows/cols whose windows need only locally owned input
        (windows reaching past the global edge read virtual padding, which
        is local knowledge, so global-boundary ranks keep a full interior)."""
        xb = x.dist.local_bounds(x.global_shape, self.grid.coords)
        spans = []
        for axis, k, s, p in (
            (2, self.kernel[0], self.stride[0], self.pad[0]),
            (3, self.kernel[1], self.stride[1], self.pad[1]),
        ):
            b_lo, b_hi = xb[axis]
            o_lo, o_hi = y_bounds[axis]
            extent = x.global_shape[axis]
            lo = o_lo if b_lo == 0 else max(o_lo, ceil_div(b_lo + p, s))
            hi = o_hi if b_hi == extent else min(o_hi, (b_hi + p - k) // s + 1)
            spans.append((lo, hi))
        return tuple(spans)

    def _bwd_interior(self, dy: DistTensor, x_bounds) -> tuple:
        """Input rows/cols whose influencing output windows are locally
        owned in dy (Eq. 3's dependency, inverted)."""
        gb = dy.dist.local_bounds(dy.global_shape, self.grid.coords)
        spans = []
        for axis, k, s, p in (
            (2, self.kernel[0], self.stride[0], self.pad[0]),
            (3, self.kernel[1], self.stride[1], self.pad[1]),
        ):
            g_lo, g_hi = gb[axis]
            x_lo, x_hi = x_bounds[axis]
            extent = dy.global_shape[axis]
            lo = x_lo if g_lo == 0 else max(x_lo, s * (g_lo - 1) + k - p)
            hi = x_hi if g_hi == extent else min(x_hi, s * g_hi - p)
            spans.append((lo, hi))
        return tuple(spans)

    def _fwd_piece(self, x_ext, y_bounds, rows, cols, y_local) -> None:
        """Convolve one output sub-rectangle from its slice of ``x_ext``."""
        (a, b), (c, d) = rows, cols
        sh, sw = self.stride
        kh, kw = self.kernel
        _, _, (oh_lo, _), (ow_lo, _) = y_bounds
        hs = (a - oh_lo) * sh
        ws = (c - ow_lo) * sw
        piece = F.conv2d_forward(
            x_ext[:, :, hs : hs + (b - a - 1) * sh + kh, ws : ws + (d - c - 1) * sw + kw],
            self.w,
            stride=self.stride,
            pad=0,
            bias=self.bias,
        )
        y_local[:, :, a - oh_lo : b - oh_lo, c - ow_lo : d - ow_lo] = piece

    def _bwd_piece(self, dy_ext, dy_reg_lo, x_bounds, rows, cols, dx_local) -> None:
        """Transposed-convolve one input sub-rectangle from ``dy_ext``."""
        (a, b), (c, d) = rows, cols
        sh, sw = self.stride
        kh, kw = self.kernel
        ph, pw = self.pad
        _, _, (xh_lo, _), (xw_lo, _) = x_bounds
        dh_a = _floor_div(a + ph - (kh - 1), sh)
        dh_b = _floor_div(b - 1 + ph, sh) + 1
        dw_c = _floor_div(c + pw - (kw - 1), sw)
        dw_d = _floor_div(d - 1 + pw, sw) + 1
        piece = F.conv2d_backward_data(
            dy_ext[
                :, :, dh_a - dy_reg_lo[2] : dh_b - dy_reg_lo[2],
                dw_c - dy_reg_lo[3] : dw_d - dy_reg_lo[3],
            ],
            self.w,
            stride=self.stride,
            pad=(a + ph - sh * dh_a, c + pw - sw * dw_c),
            x_spatial=(b - a, d - c),
        )
        dx_local[:, :, a - xh_lo : b - xh_lo, c - xw_lo : d - xw_lo] = piece

    def _fwd_geom(self, x: DistTensor) -> _ConvGeometry:
        key = ("fwd", x.global_shape, x.dist)
        geom = self._geom.get(key)
        if geom is not None:
            return geom
        y_shape = self.output_global_shape(x.global_shape)
        y_dist = activation_dist(self.grid.shape, y_shape)
        y_bounds = y_dist.local_bounds(y_shape, self.grid.coords)
        c_in = x.global_shape[1]
        region_of = _fwd_region_builder(
            self.kernel, self.stride, self.pad, y_dist, y_shape,
            lambda coords: (0, c_in),
        )
        regions = [
            region_of(self.grid.coords_of(r)) for r in range(self.grid.comm.size)
        ]
        lo, hi = regions[self.grid.comm.rank]
        exchanged = any_region_remote(x, regions)
        pieces: tuple = ()
        plan = None
        if exchanged:
            inner_h, inner_w = self._fwd_interior(x, y_bounds)
            pieces = tuple(_frame_pieces(y_bounds[2], y_bounds[3], inner_h, inner_w))
            plan = plan_region_exchange(x, lo, hi, regions)
        geom = _ConvGeometry(
            y_bounds, lo, hi, exchanged, pieces, plan, y_dist, y_shape
        )
        self._geom[key] = geom
        return geom

    def _bwd_geom(self, dy: DistTensor, x_dist, x_shape) -> _ConvGeometry:
        key = ("bwd", dy.global_shape, dy.dist, x_shape, x_dist)
        geom = self._geom.get(key)
        if geom is not None:
            return geom
        xb = x_dist.local_bounds(x_shape, self.grid.coords)
        dy_channels = dy.global_shape[1]
        region_of = _bwd_region_builder(
            self.kernel, self.stride, self.pad, x_dist, x_shape, dy_channels
        )
        regions = [
            region_of(self.grid.coords_of(r)) for r in range(self.grid.comm.size)
        ]
        lo, hi = regions[self.grid.comm.rank]
        exchanged = any_region_remote(dy, regions)
        pieces: tuple = ()
        plan = None
        if exchanged:
            inner_h, inner_w = self._bwd_interior(dy, xb)
            pieces = tuple(_frame_pieces(xb[2], xb[3], inner_h, inner_w))
            plan = plan_region_exchange(dy, lo, hi, regions)
        geom = _ConvGeometry(xb, lo, hi, exchanged, pieces, plan)
        self._geom[key] = geom
        return geom

    # -- forward ---------------------------------------------------------------------
    def forward(self, x: DistTensor) -> DistTensor:
        g = self._fwd_geom(x)
        y_bounds = g.bounds

        if not g.exchanged:
            # Nothing to exchange (pure sample parallelism / replicated
            # spatial dims): a single fused kernel on local data.
            x_ext = local_region(x, g.lo, g.hi, pool=self._pool)
            y_local = F.conv2d_forward(
                x_ext, self.w, stride=self.stride, pad=0, bias=self.bias
            )
        else:
            (n_lo, n_hi), _, (oh_lo, oh_hi), (ow_lo, ow_hi) = y_bounds
            y_local = np.empty(
                (n_hi - n_lo, self.w.shape[0], oh_hi - oh_lo, ow_hi - ow_lo),
                dtype=np.result_type(x.dtype, self.w.dtype),
            )
            ex = start_region_exchange(x, g.lo, g.hi, pool=self._pool, plan=g.plan)
            if not self.overlap_halo:
                ex.finish()
            x_ext = ex.out
            _run_pieces(
                g.pieces, ex,
                lambda rows, cols: self._fwd_piece(x_ext, y_bounds, rows, cols, y_local),
            )

        self._x_ext = x_ext
        self._x_global_shape = x.global_shape
        self._x_dist = x.dist
        return DistTensor(self.grid, g.y_dist, g.y_shape, y_local)

    # -- backward --------------------------------------------------------------------
    def backward(
        self, dy: DistTensor, need_dx: bool = True
    ) -> tuple[DistTensor | None, np.ndarray, np.ndarray | None]:
        """Returns ``(dx, dw_partial, db_partial)``.

        The weight-gradient partials still need the allreduce over the
        layer's gradient group (paper Eq. 2's sum over N) — performed by the
        network so it can be overlapped/batched.  With ``overlap_halo`` the
        error-signal halo exchange is posted first and hides behind the
        filter convolution and the interior data convolution; with
        ``overlap_halo=False`` it is finished right after it is posted.

        ``need_dx=False`` (the input is a network input, whose error signal
        nobody consumes) computes only the partials: no dy halo exchange
        and no Eq. 3; ``dx`` is ``None``.
        """
        if self._x_ext is None:
            raise RuntimeError("backward() before forward()")

        x_dist = self._x_dist
        x_shape = self._x_global_shape
        assert x_dist is not None and x_shape is not None
        g = self._bwd_geom(dy, x_dist, x_shape)
        xb = g.bounds
        (n_lo, n_hi), (_, c_all), (xh_lo, xh_hi), (xw_lo, xw_hi) = xb
        lo, hi = g.lo, g.hi

        ex = None
        if need_dx and g.exchanged:
            # Post the dy halo exchange before Eq. 2: the filter convolution
            # needs no remote data, so the strips travel behind it.
            ex = start_region_exchange(dy, lo, hi, pool=self._pool, plan=g.plan)
            if not self.overlap_halo:
                ex.finish()

        # Eq. 2: local filter gradients from the saved extended input region.
        dw = F.conv2d_backward_filter(
            self._x_ext, dy.local, kernel=self.kernel, stride=self.stride, pad=0
        )
        db = dy.local.sum(axis=(0, 2, 3)) if self.bias is not None else None
        self._pool.give(self._x_ext)
        self._x_ext = None
        if not need_dx:
            return None, dw, db

        # Eq. 3: the dy dependency region of our input block.
        if ex is None:
            dy_ext = local_region(dy, lo, hi, pool=self._pool)
            pad_eff = (xh_lo + self.pad[0] - self.stride[0] * lo[2],
                       xw_lo + self.pad[1] - self.stride[1] * lo[3])
            dx_local = F.conv2d_backward_data(
                dy_ext,
                self.w,
                stride=self.stride,
                pad=pad_eff,
                x_spatial=(xh_hi - xh_lo, xw_hi - xw_lo),
            )
        else:
            dx_local = np.empty(
                (n_hi - n_lo, c_all, xh_hi - xh_lo, xw_hi - xw_lo),
                dtype=np.result_type(dy.dtype, self.w.dtype),
            )
            dy_ext = ex.out
            ex.poll()
            _run_pieces(
                g.pieces, ex,
                lambda rows, cols: self._bwd_piece(dy_ext, lo, xb, rows, cols, dx_local),
            )

        self._pool.give(dy_ext)
        dx = DistTensor(self.grid, x_dist, x_shape, dx_local)
        return dx, dw, db

    def halo_widths(self) -> tuple[int, int]:
        """Forward halo widths (O = floor(K/2) per spatial dim for S=1) —
        what the paper's cost model charges per exchange."""
        return (self.kernel[0] // 2, self.kernel[1] // 2)


def _floor_div(a: int, b: int) -> int:
    """Floor division that is explicit about negative numerators."""
    return a // b
