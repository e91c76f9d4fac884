"""Convolution kernels vs. naive references and adjoint identities."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import (
    conv2d_backward_data,
    conv2d_backward_filter,
    conv2d_forward,
    conv2d_output_shape,
)


def naive_conv2d(x, w, stride, pad):
    """Direct implementation of paper Eq. (1) with explicit loops."""
    sh, sw = stride
    ph, pw = pad
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = conv2d_output_shape((h, wd), (kh, kw), stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    y = np.zeros((n, f, oh, ow))
    for kk in range(n):
        for ff in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[kk, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    y[kk, ff, i, j] = (patch * w[ff]).sum()
    return y


def naive_conv2d_backward_data(dy, w, stride, pad, x_spatial):
    """Paper Eq. (3) with explicit loops: ``dx[i] = sum_a w[a] dy[(i + p - a)/s]``
    over the taps whose dy index is integral and in range."""
    sh, sw = stride
    ph, pw = pad
    n, f, oh, ow = dy.shape
    _, c, kh, kw = w.shape
    xh, xw = x_spatial
    dx = np.zeros((n, c, xh, xw))
    for i in range(xh):
        for j in range(xw):
            for a in range(kh):
                for b in range(kw):
                    qi, ri = divmod(i + ph - a, sh)
                    qj, rj = divmod(j + pw - b, sw)
                    if ri or rj or not (0 <= qi < oh and 0 <= qj < ow):
                        continue
                    dx[:, :, i, j] += dy[:, :, qi, qj] @ w[:, :, a, b]
    return dx


CASES = [
    # (N, C, H, W, F, K, S, P) — includes the paper's layer shapes scaled down
    (1, 1, 5, 5, 1, 3, 1, 1),
    (2, 3, 8, 8, 4, 3, 1, 1),
    (2, 3, 9, 9, 4, 3, 2, 1),   # odd size, stride 2
    (1, 2, 7, 7, 3, 1, 1, 0),   # 1x1 conv (res3b_branch2a shape class)
    (2, 3, 12, 12, 4, 7, 2, 3),  # conv1 shape class (K=7, S=2, P=3)
    (1, 2, 10, 10, 3, 5, 2, 2),  # mesh conv1_1 shape class (K=5, S=2, P=2)
    (1, 1, 6, 8, 2, 3, 3, 0),    # stride > pad, rectangular
    (2, 2, 5, 9, 3, 3, 2, 2),
]


class TestForward:
    @pytest.mark.parametrize("n,c,h,w,f,k,s,p", CASES)
    def test_matches_naive(self, n, c, h, w, f, k, s, p):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((f, c, k, k))
        got = conv2d_forward(x, wt, stride=s, pad=p)
        want = naive_conv2d(x, wt, (s, s), (p, p))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_bias(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 5))
        wt = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = conv2d_forward(x, wt, stride=1, pad=1, bias=b)
        want = conv2d_forward(x, wt, stride=1, pad=1) + b.reshape(1, 4, 1, 1)
        np.testing.assert_allclose(got, want)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_forward(np.zeros((1, 2, 5, 5)), np.zeros((1, 3, 3, 3)))

    def test_empty_output_raises(self):
        with pytest.raises(ValueError, match="empty"):
            conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)))

    def test_identity_kernel(self):
        x = np.random.default_rng(1).standard_normal((1, 1, 6, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        np.testing.assert_allclose(conv2d_forward(x, w, pad=1), x)

    def test_rectangular_stride_pad(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 9, 7))
        wt = rng.standard_normal((3, 2, 3, 3))
        got = conv2d_forward(x, wt, stride=(2, 1), pad=(0, 1))
        want = naive_conv2d(x, wt, (2, 1), (0, 1))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestBackwardAdjoint:
    """The backward kernels must be the exact adjoints of the forward map:
    <dy, conv(x, w)> == <bwd_data(dy, w), x> == <bwd_filter(x, dy), w>."""

    @pytest.mark.parametrize("n,c,h,w,f,k,s,p", CASES)
    def test_data_adjoint(self, n, c, h, w, f, k, s, p):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((f, c, k, k))
        y = conv2d_forward(x, wt, stride=s, pad=p)
        dy = rng.standard_normal(y.shape)
        dx = conv2d_backward_data(dy, wt, stride=s, pad=p, x_spatial=(h, w))
        assert dx.shape == x.shape
        np.testing.assert_allclose(
            (dy * y).sum(), (dx * x).sum() + (dy * conv2d_forward(np.zeros_like(x), wt, stride=s, pad=p)).sum(),
            rtol=1e-10,
        )
        # Pure bilinearity: <dy, A x> == <A^T dy, x>
        np.testing.assert_allclose((dy * y).sum(), (dx * x).sum(), rtol=1e-10)

    @pytest.mark.parametrize("n,c,h,w,f,k,s,p", CASES)
    def test_filter_adjoint(self, n, c, h, w, f, k, s, p):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((f, c, k, k))
        y = conv2d_forward(x, wt, stride=s, pad=p)
        dy = rng.standard_normal(y.shape)
        dw = conv2d_backward_filter(x, dy, kernel=k, stride=s, pad=p)
        assert dw.shape == wt.shape
        np.testing.assert_allclose((dy * y).sum(), (dw * wt).sum(), rtol=1e-10)

    def test_finite_difference_data(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 6, 6))
        wt = rng.standard_normal((3, 2, 3, 3))
        dy = rng.standard_normal(conv2d_forward(x, wt, stride=2, pad=1).shape)
        dx = conv2d_backward_data(dy, wt, stride=2, pad=1, x_spatial=(6, 6))
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 3, 2), (0, 0, 5, 5)]:
            xp = x.copy()
            xp[idx] += eps
            xm = x.copy()
            xm[idx] -= eps
            num = (
                (conv2d_forward(xp, wt, stride=2, pad=1) * dy).sum()
                - (conv2d_forward(xm, wt, stride=2, pad=1) * dy).sum()
            ) / (2 * eps)
            np.testing.assert_allclose(dx[idx], num, rtol=1e-5, atol=1e-7)

    def test_finite_difference_filter(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 2, 5, 5))
        wt = rng.standard_normal((2, 2, 3, 3))
        dy = rng.standard_normal(conv2d_forward(x, wt, pad=1).shape)
        dw = conv2d_backward_filter(x, dy, kernel=3, stride=1, pad=1)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)]:
            wp, wm = wt.copy(), wt.copy()
            wp[idx] += eps
            wm[idx] -= eps
            num = (
                (conv2d_forward(x, wp, pad=1) * dy).sum()
                - (conv2d_forward(x, wm, pad=1) * dy).sum()
            ) / (2 * eps)
            np.testing.assert_allclose(dw[idx], num, rtol=1e-5, atol=1e-7)


class TestBackwardDataOffsets:
    """The region formulation used by spatial parallelism: computing dx for a
    sub-block via a gathered dy region and effective padding must equal the
    corresponding slice of the full backward pass."""

    @pytest.mark.parametrize("s,p,k", [(1, 1, 3), (2, 1, 3), (2, 2, 5), (2, 3, 7), (1, 0, 1)])
    def test_region_equivalence(self, s, p, k):
        rng = np.random.default_rng(11)
        h = w = 12
        x = rng.standard_normal((1, 2, h, w))
        wt = rng.standard_normal((3, 2, k, k))
        y = conv2d_forward(x, wt, stride=s, pad=p)
        dy = rng.standard_normal(y.shape)
        full_dx = conv2d_backward_data(dy, wt, stride=s, pad=p, x_spatial=(h, w))

        # Block of x rows [xlo, xhi): gather dy rows [dlo, dhi) and use the
        # effective left padding  p'' = xlo + p - s*dlo  (paper §III-A region
        # algebra; see repro.core.dist_conv).
        for xlo, xhi in [(0, 6), (6, 12), (3, 9)]:
            dlo = (xlo + p - (k - 1)) // s  # floor division handles negatives
            dhi = (xhi - 1 + p) // s + 1
            oh = y.shape[2]
            dy_region = np.zeros((1, 3, dhi - dlo, y.shape[3]))
            src_lo, src_hi = max(dlo, 0), min(dhi, oh)
            if src_lo < src_hi:
                dy_region[:, :, src_lo - dlo : src_hi - dlo, :] = dy[:, :, src_lo:src_hi, :]
            pad_eff = xlo + p - s * dlo
            dx_block = conv2d_backward_data(
                dy_region, wt, stride=s, pad=(pad_eff, p), x_spatial=(xhi - xlo, w)
            )
            np.testing.assert_allclose(
                dx_block, full_dx[:, :, xlo:xhi, :], rtol=1e-10, atol=1e-12
            )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2),
    c=st.integers(1, 3),
    f=st.integers(1, 3),
    h=st.integers(3, 10),
    w=st.integers(3, 10),
    k=st.sampled_from([1, 3, 5]),
    s=st.integers(1, 3),
    p=st.integers(0, 3),
)
def test_conv_adjoint_property(n, c, f, h, w, k, s, p):
    """Adjoint identity over random geometries (skipping empty outputs)."""
    if h + 2 * p < k or w + 2 * p < k:
        return
    rng = np.random.default_rng(n * 1000 + h * 100 + w * 10 + k)
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((f, c, k, k))
    y = conv2d_forward(x, wt, stride=s, pad=p)
    dy = rng.standard_normal(y.shape)
    dx = conv2d_backward_data(dy, wt, stride=s, pad=p, x_spatial=(h, w))
    dw = conv2d_backward_filter(x, dy, kernel=k, stride=s, pad=p)
    np.testing.assert_allclose((dy * y).sum(), (dx * x).sum(), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose((dy * y).sum(), (dw * wt).sum(), rtol=1e-9, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2),
    c=st.integers(1, 3),
    f=st.integers(1, 3),
    oh=st.integers(1, 5),
    ow=st.integers(1, 5),
    kh=st.integers(1, 7),
    kw=st.integers(1, 7),
    s=st.integers(1, 3),
    data=st.data(),
)
def test_backward_data_matches_eq3_loops(n, c, f, oh, ow, kh, kw, s, data):
    """Eq. (3) over left offsets up to ``k + 3`` and output extents both
    shorter and longer than the rows the dy block reaches."""
    ph = data.draw(st.integers(0, kh + 3), label="ph")
    pw = data.draw(st.integers(0, kw + 3), label="pw")
    # dx rows reached by dy: i + p < (oh - 1)*s + k.
    reach_h, reach_w = (oh - 1) * s + kh - ph, (ow - 1) * s + kw - pw
    xh = max(0, reach_h + data.draw(st.integers(-3, 3), label="dh"))
    xw = max(0, reach_w + data.draw(st.integers(-3, 3), label="dw"))
    rng = np.random.default_rng(n + 10 * c + 100 * f + 1000 * kh + 10000 * kw)
    dy = rng.standard_normal((n, f, oh, ow))
    wt = rng.standard_normal((f, c, kh, kw))
    got = conv2d_backward_data(dy, wt, stride=s, pad=(ph, pw), x_spatial=(xh, xw))
    want = naive_conv2d_backward_data(dy, wt, (s, s), (ph, pw), (xh, xw))
    assert got.shape == (n, c, xh, xw)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("s,p,k", [(1, 1, 3), (2, 1, 3), (2, 3, 7), (3, 0, 2), (1, 0, 1)])
@pytest.mark.parametrize("integral", [True, False])
def test_backward_data_pieces_assemble_whole_block(s, p, k, integral):
    """Row/column pieces evaluated from their dy dependency regions with
    the ``DistConv2d._bwd_piece`` offsets tile the whole-block dx.

    With small-integer data every product and partial sum is exact, so the
    pieces must assemble to the whole block bitwise whatever the GEMM's
    blocking.  With real-valued data a piece can differ in the last ulp,
    because BLAS may round a GEMM element differently for a different
    column count (GEMV for a single column)."""
    rng = np.random.default_rng(12)
    h, w = 11, 9
    oh, ow = conv2d_output_shape((h, w), k, s, p)
    if integral:
        dy = rng.integers(-8, 9, (2, 5, oh, ow)).astype(float)
        wt = rng.integers(-8, 9, (5, 3, k, k)).astype(float)
    else:
        dy = rng.standard_normal((2, 5, oh, ow))
        wt = rng.standard_normal((5, 3, k, k))
    whole = conv2d_backward_data(dy, wt, stride=s, pad=p, x_spatial=(h, w))
    halo = k + 2  # zero frame: any dependency region can be sliced
    dy_pad = np.pad(dy, ((0, 0), (0, 0), (halo, halo), (halo, halo)))
    out = np.full_like(whole, np.nan)
    for a, b in [(0, 1), (1, 4), (4, 10), (10, 11)]:
        for c0, d in [(0, 3), (3, 8), (8, 9)]:
            dh_a, dh_b = (a + p - (k - 1)) // s, (b - 1 + p) // s + 1
            dw_c, dw_d = (c0 + p - (k - 1)) // s, (d - 1 + p) // s + 1
            out[:, :, a:b, c0:d] = conv2d_backward_data(
                dy_pad[:, :, dh_a + halo : dh_b + halo, dw_c + halo : dw_d + halo],
                wt,
                stride=s,
                pad=(a + p - s * dh_a, c0 + p - s * dw_c),
                x_spatial=(b - a, d - c0),
            )
    if integral:
        np.testing.assert_array_equal(out, whole)
    else:
        np.testing.assert_allclose(out, whole, rtol=1e-13, atol=1e-13)


def test_backward_data_stem_peak_memory():
    """The 7x7 stride-2 stem's backward-data (batch 8, 64 -> 3 channels)
    allocates a few MB; a stride-dilated im2col of dy would take ~205 MB."""
    rng = np.random.default_rng(13)
    dy = rng.standard_normal((8, 64, 16, 16))
    wt = rng.standard_normal((64, 3, 7, 7))
    tracemalloc.start()
    try:
        dx = conv2d_backward_data(dy, wt, stride=2, pad=3, x_spatial=(32, 32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dx.shape == (8, 3, 32, 32)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
