"""How a convolution is lowered: im2col / col2im and the one GEMM epilogue.

These are the standard lowering used by GPU convolution libraries: a window
gather turns convolution into one large GEMM.  The gather is a copy out of
a strided window view of the padded input; ``col2im`` uses ``np.add.at``
scatter-accumulation which is exact for overlapping windows.

Every lowered convolution, regular or deformable, ends in
:func:`gemm_epilogue`: one ``"ok,nkl->nol"`` einsum, a reshape and the
bias.  The einsum's bits depend on the *memory order* of its column
operand, not only on its values: the order decides whether einsum copies
the operand first, which BLAS transpose flags it passes, whether a size-1
dimension turns the GEMM into a GEMV, and which singleton dimensions it
drops.  So the producers here fix the memory order of what they return,
not just its shape (see :func:`im2col` and :func:`gemm_columns`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.channelwise import channel_ops, nhwc_dense

#: Output rows per band of :func:`gemm_columns`' per-tap copy: the taps of
#: one band re-read the same few input rows while they are still in cache.
ROWS_BAND = 4


def conv_output_size(size: int, kernel: int, stride: int, padding: int,
                     dilation: int = 1) -> int:
    """Output spatial extent of a convolution along one axis."""
    effective = dilation * (kernel - 1) + 1
    return (size + 2 * padding - effective) // stride + 1


def sample_grid(h: int, w: int, kh: int, kw: int, stride: int, padding: int,
                dilation: int = 1) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Integer sampling coordinates of every kernel tap at every output pixel.

    Returns ``(rows, cols, out_h, out_w)`` where ``rows``/``cols`` have shape
    ``(kh*kw, out_h*out_w)`` and index into the *padded* input.
    """
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    k_r = np.repeat(np.arange(kh) * dilation, kw)
    k_c = np.tile(np.arange(kw) * dilation, kh)
    o_r = stride * np.repeat(np.arange(out_h), out_w)
    o_c = stride * np.tile(np.arange(out_w), out_h)
    rows = k_r[:, None] + o_r[None, :]
    cols = k_c[:, None] + o_c[None, :]
    return rows, cols, out_h, out_w


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0,
           dilation: int = 1) -> np.ndarray:
    """Lower ``x`` of shape (N, C, H, W) to columns (N, C*kh*kw, out_h*out_w).

    The memory order is part of the result, since einsum's bits follow
    it: (K, L, N, C) when the kernel is 1x1 or C == 1, C order otherwise.
    That is the order of a fancy-index gather ``x[:, :, rows, cols]``
    reshaped to columns, the reference ``tests/lowering_reference.py``
    keeps.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"{kh}x{kw} window (dilation {dilation}) larger "
                         f"than the {h}x{w} input padded by {padding}")
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        x = xp
    # (N, C, out_h, out_w, kh, kw) view of every tap at every output pixel
    sn, sc, sh, sw = x.strides
    win = as_strided(x, (n, c, out_h, out_w, kh, kw),
                     (sn, sc, sh * stride, sw * stride, sh * dilation,
                      sw * dilation), writeable=False)
    k, l = kh * kw, out_h * out_w
    if k == 1 or c == 1:
        buf = np.empty((kh, kw, out_h, out_w, n, c), dtype=x.dtype)
        buf[...] = win.transpose(4, 5, 2, 3, 0, 1)
        patches = buf.reshape(k, l, n, c).transpose(2, 3, 0, 1)
    else:
        patches = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
        patches[...] = win.transpose(0, 1, 4, 5, 2, 3)
    return patches.reshape(n, c * k, l)


def gemm_columns(x: np.ndarray, kh: int, kw: int, stride: int = 1,
                 padding: int = 0, dilation: int = 1) -> np.ndarray:
    """The (N, C*kh*kw, L) column operand of a dense convolution's GEMM.

    Values equal :func:`im2col`'s, and so do the bits and the memory
    order of :func:`gemm_epilogue`'s result.  For N > 1 einsum copies
    im2col's columns before its GEMM; this builds the C-order (N*L, C*K)
    rows matrix instead and returns its transposed view, which einsum
    contracts without a copy.  With N == 1 einsum takes im2col's columns
    as they are, and with C == 1 their layout is (K, L, N, C), which
    einsum's result follows; both keep :func:`im2col`.  An NHWC-dense
    input of more than one pixel under a 1x1, stride-1, unpadded kernel
    is already the rows matrix, and its view is returned without a copy.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    if n == 1 or c == 1:
        return im2col(x, kh, kw, stride, padding, dilation)
    if (kh == kw == 1 and stride == 1 and padding == 0 and h * w > 1
            and nhwc_dense(x)):
        # a 1x1 conv's rows matrix is its NHWC-dense input itself
        return x.transpose(0, 2, 3, 1).reshape(n, h * w, c).transpose(0, 2, 1)
    # NHWC copy of the padded input, then one strided copy per tap and
    # band of output rows into rows[n, y, x, c, i, j]
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    rows = np.empty((n, out_h, out_w, c, kh, kw), dtype=x.dtype)
    band = out_h if kh * kw == 1 else ROWS_BAND  # one tap: nothing re-read
    w_span = stride * (out_w - 1) + 1
    for r0 in range(0, out_h, band):
        r1 = min(out_h, r0 + band)
        h_span = stride * (r1 - r0 - 1) + 1
        for i in range(kh):
            top = i * dilation + stride * r0
            for j in range(kw):
                left = j * dilation
                rows[:, r0:r1, :, :, i, j] = xp[:, top:top + h_span:stride,
                                                left:left + w_span:stride]
    return rows.reshape(n, out_h * out_w, c * kh * kw).transpose(0, 2, 1)


def gemm_epilogue(w2: np.ndarray, cols: np.ndarray, bias: Optional[np.ndarray],
                  out_hw: Tuple[int, int],
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Contract (O, K) weights with (N, K, L) columns, reshape, add bias.

    Returns a fresh (N, O, out_h, out_w) array in the memory order
    einsum's result has (often not C order); later layers' reductions
    depend on it.  ``out`` is an optional preallocated (N, O, L) buffer
    for the contraction; it is a work buffer and is never returned.
    """
    n, o = cols.shape[0], w2.shape[0]
    res = np.einsum("ok,nkl->nol", w2, cols, optimize=True, out=out)
    res = res.reshape(n, o, *out_hw)
    if bias is not None:
        # in place only on einsum's own result, and only without size-1
        # dims, whose strides a fresh ``res + bias`` would choose anew
        return channel_ops(res, ((np.add, bias),),
                           in_place=out is None and min(res.shape) > 1)
    return res if out is None else res.copy()


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int,
           stride: int = 1, padding: int = 0, dilation: int = 1) -> np.ndarray:
    """Adjoint of :func:`im2col` — scatter-add columns back to an image.

    ``cols`` has shape (N, C*kh*kw, out_h*out_w); returns (N, C, H, W).
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    rows, cols_idx, out_h, out_w = sample_grid(h, w, kh, kw, stride, padding, dilation)
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, c, kh * kw, out_h * out_w)
    np.add.at(x_padded, (slice(None), slice(None), rows, cols_idx), patches)
    if padding:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded
