"""How a convolution is lowered: im2col / col2im and the one GEMM epilogue.

These are the standard lowering used by GPU convolution libraries: a window
gather turns convolution into one large GEMM.  The gather is a copy out of
a strided window view of the padded input; ``col2im`` uses ``np.add.at``
scatter-accumulation which is exact for overlapping windows.

Every lowered convolution, regular or deformable, ends in
:func:`gemm_epilogue`: one ``"ok,nkl->nol"`` contraction, a reshape and
the bias.  :func:`contract` runs it as the one ``np.matmul`` that
``np.einsum`` would end in, on the same operands, so the bits and
strides are einsum's, without its per-call path search or its copy of
batch-1 columns; with a NumPy whose einsum ends elsewhere it is
``np.einsum`` itself.  The bits depend on the *memory order* of the column
operand, not only on its values: the order decides which BLAS transpose
flags the GEMM gets, whether a size-1 dimension turns it into a GEMV,
and which singleton dimensions the result keeps.  So the producers here
fix the memory order of what they return, not just its shape (see
:func:`im2col` and :func:`gemm_columns`).
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.channelwise import channel_ops

#: Output rows per band of :func:`gemm_columns`' per-tap copy: the taps of
#: one band re-read the same few input rows while they are still in cache.
ROWS_BAND = 4


def _einsum_ends_in_matmul() -> bool:
    try:
        from numpy._core.einsumfunc import bmm_einsum  # noqa: F401
    except ImportError:
        return False
    return True


#: Whether ``np.einsum(optimize=True)`` hands a two-operand contraction to
#: NumPy's ``bmm_einsum``, one ``matmul`` or ``multiply``, whose steps
#: :func:`contract` takes itself.  A NumPy without it contracts through
#: ``tensordot`` or einsum's C loops; there :func:`contract` calls einsum,
#: since only einsum itself gives einsum's bits and strides.
EINSUM_ENDS_IN_MATMUL = _einsum_ends_in_matmul()


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

    The memory order is part of the result, since the GEMM's bits
    follow it: (K, L, N, C) when the kernel is 1x1 or C == 1, C order
    otherwise.  That is the order of a fancy-index gather
    ``x[:, :, rows, cols]`` reshaped to columns, the reference
    ``tests/lowering_reference.py`` keeps.
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
    order of :func:`gemm_epilogue`'s result, since BLAS gets the same
    (N*L, C*K) matrix either way.  For N > 1 the contraction would copy
    im2col's columns into that C-order rows matrix; this builds the rows
    matrix instead and returns its transposed view.  At N = 1 it takes
    im2col's columns as their (L, C*K) view, and with C == 1 their
    layout is (K, L, N, C), which the result follows; both keep
    :func:`im2col`.  The input of a 1x1, stride-1, unpadded kernel that
    is NHWC-contiguous by NumPy's flags is already the rows matrix, at
    any N, and its view is returned without a copy.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    if c == 1:
        return im2col(x, kh, kw, stride, padding, dilation)
    nhwc = x.transpose(0, 2, 3, 1)
    if (kh == kw == 1 and stride == 1 and padding == 0
            and nhwc.flags.c_contiguous):
        # a 1x1 conv's rows matrix is its NHWC-contiguous input itself
        return nhwc.reshape(n, h * w, c).transpose(0, 2, 1)
    if n == 1:
        return im2col(x, kh, kw, stride, padding, dilation)
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


def _dense(a: np.ndarray) -> bool:
    """Whether ``a`` fills one gap-free block in some axis order, so its
    K-order copy would lie exactly as it does."""
    step = a.itemsize
    for stride, size in sorted(zip(a.strides, a.shape)):
        if size > 1:
            if stride != step:
                return False
            step *= size
    return True


def _view(ix: str, want: List[str]):
    """(index, axis order, whether it drops an axis) turning an operand
    indexed ``ix`` into one indexed ``want``; dropped axes have size 1."""
    sel = tuple(slice(None) if i in want else 0 for i in ix)
    kept = [i for i in ix if i in want]
    return sel, tuple(kept.index(i) for i in want), len(kept) < len(ix)


@functools.lru_cache(maxsize=1024)
def _contraction_plan(subscripts: str, w_shape: Tuple[int, ...],
                      cols_shape: Tuple[int, ...]):
    """The steps of ``np.einsum(subscripts, w, cols, optimize=True)`` at
    these shapes, as NumPy's ``bmm_einsum`` takes them (it gets the
    columns first): every size-1 dim dropped, then one ``matmul`` of the
    (batch, kept, contracted) columns by the (batch, contracted, kept)
    weights, its product reshaped and transposed to the output; or, with
    no contracted dim left, one broadcast ``multiply``."""
    inputs, out = subscripts.split("->")
    w_ix, c_ix = inputs.split(",")
    size = dict(zip(w_ix + c_ix, w_shape + cols_shape))
    big = [i for i in c_ix + w_ix if size[i] != 1]
    con = [i for i in c_ix if i in big and i in w_ix and i not in out]
    if not con:
        # each operand in the output's index order, a 1 for each it lacks
        return tuple(_view(ix, [i for i in out if i in ix])
                     + (tuple(size[i] if i in ix else 1 for i in out),)
                     for ix in (c_ix, w_ix)) + (None, None)
    bat = [i for i in c_ix if i in big and i in w_ix and i in out]
    a_keep = [i for i in c_ix if i in big and i not in w_ix]
    b_keep = [i for i in w_ix if i in big and i not in c_ix]
    lead = [bat] if bat else []

    def fused(groups):
        if all(len(g) == 1 for g in groups):
            return None
        return tuple(math.prod(size[i] for i in g) for g in groups)

    a = _view(c_ix, bat + a_keep + con) + (fused(lead + [a_keep, con]),)
    b = _view(w_ix, bat + con + b_keep) + (fused(lead + [con, b_keep]),)
    made = [i for i in out if size[i] == 1] + bat + a_keep + b_keep
    return (a, b, tuple(size[i] for i in made),
            tuple(made.index(i) for i in out))


def _prepare(x: np.ndarray, sel, perm, drops: bool, shape,
             multiply: bool) -> np.ndarray:
    x = x[sel].transpose(perm)
    if drops:
        # einsum sums away the size-1 dims it drops, into a fresh K-order
        # array: 0 + x, which turns -0.0 into +0.0.  A multiply keeps
        # that sign, so it gets the sum; a GEMM's zero-started accumulators
        # erase it, so there only an operand with gaps, which lies
        # differently from the fresh array, is copied
        if multiply:
            x = x + 0
        elif not _dense(x):
            x = x.copy(order="K")
    return x if shape is None else x.reshape(shape)


def contract(subscripts: str, w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, w, cols, optimize=True)`` without einsum,
    bit for bit and stride for stride.

    NumPy's einsum ends this contraction in one ``np.matmul`` (a GEMM, or
    a GEMV where a dimension is 1) or, with nothing left to contract, one
    ``np.multiply``; this makes the same call on the same operands and
    reshapes the product as einsum does.  Two costs go: the contraction
    path search per call (the plan is cached per subscripts and shapes),
    and einsum's copy of an operand whose size-1 dims it drops, such as
    the (L, K) columns at N = 1, wherever that copy would lie exactly as
    the operand does.  ``subscripts`` name each index once per operand,
    and every index is either in the output or in both operands, as in
    the conv contractions ``"ok,nkl->nol"`` and ``"gok,ngkl->ngol"``.
    Without :data:`EINSUM_ENDS_IN_MATMUL` this calls ``np.einsum``.
    """
    if not EINSUM_ENDS_IN_MATMUL:
        return np.einsum(subscripts, w, cols, optimize=True)
    a_plan, b_plan, ab_shape, perm = _contraction_plan(
        subscripts, w.shape, cols.shape)
    multiply = ab_shape is None
    a = _prepare(cols, *a_plan, multiply)
    b = _prepare(w, *b_plan, multiply)
    if multiply:
        return np.multiply(a, b)
    return np.matmul(a, b).reshape(ab_shape).transpose(perm)


def gemm_epilogue(w2: np.ndarray, cols: np.ndarray, bias: Optional[np.ndarray],
                  out_hw: Tuple[int, int]) -> np.ndarray:
    """Contract (O, K) weights with (N, K, L) columns, reshape, add bias.

    Returns a fresh (N, O, out_h, out_w) array in the memory order
    ``np.einsum("ok,nkl->nol")``'s result has (often not C order); later
    layers' reductions depend on it.
    """
    n, o = cols.shape[0], w2.shape[0]
    res = contract("ok,nkl->nol", w2, cols).reshape(n, o, *out_hw)
    if bias is not None:
        # in place only without size-1 dims, whose strides a fresh
        # ``res + bias`` would choose anew
        return channel_ops(res, ((np.add, bias),),
                           in_place=min(res.shape) > 1)
    return res


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
