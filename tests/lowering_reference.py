"""Reference lowering: the fancy-index im2col and the einsum epilogues
that ``repro.nn.im2col`` replaced, kept verbatim.

``im2col`` gathers with ``x[:, :, rows, cols]`` and reshapes; the
forwards below contract its columns with the einsum expressions whose
matmul the program calls directly (:func:`repro.nn.im2col.contract`).
The new lowering must match these bit for bit (``tests/test_lowering.py``).
Everything here is independent of ``repro`` so the comparison is against
separate code.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


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
    """Lower ``x`` of shape (N, C, H, W) to columns (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    rows, cols, out_h, out_w = sample_grid(h, w, kh, kw, stride, padding, dilation)
    # Gather: (N, C, kh*kw, out_h*out_w)
    patches = x[:, :, rows, cols]
    return patches.reshape(n, c * kh * kw, out_h * out_w)


def gemm_epilogue(w2: np.ndarray, cols: np.ndarray, bias: Optional[np.ndarray],
                  out_hw: Tuple[int, int],
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """The einsum + reshape + bias every lowered convolution ended in."""
    n, o = cols.shape[0], w2.shape[0]
    if out is None:
        res = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
    else:
        np.einsum("ok,nkl->nol", w2, cols, optimize=True, out=out)
        res = out
    res = res.reshape(n, o, *out_hw)
    if bias is not None:
        return res + bias.reshape(1, o, 1, 1)
    return res if out is None else res.copy()


def conv2d(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None,
           stride: int = 1, padding: int = 0, dilation: int = 1,
           groups: int = 1) -> np.ndarray:
    """The convolution forward on arrays."""
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)

    cols = im2col(x, kh, kw, stride, padding, dilation)  # (N, C*K, L)
    l = out_h * out_w
    if groups == 1:
        w2 = weight.reshape(c_out, c_in_g * kh * kw)
        out = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
    else:
        cols_g = cols.reshape(n, groups, c_in_g * kh * kw, l)
        w_g = weight.reshape(groups, c_out // groups, c_in_g * kh * kw)
        out = np.einsum("gok,ngkl->ngol", w_g, cols_g, optimize=True)
        out = out.reshape(n, c_out, l)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out


def max_pool2d(x: np.ndarray, kernel: int = 2,
               stride: Optional[int] = None) -> np.ndarray:
    """Max pooling forward on arrays."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x, kernel, kernel, stride, 0)  # (N, C*K*K, L)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
    return out.reshape(n, c, out_h, out_w)


def avg_pool2d(x: np.ndarray, kernel: int = 2,
               stride: Optional[int] = None) -> np.ndarray:
    """Average pooling forward on arrays."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x, kernel, kernel, stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    return cols.mean(axis=2).reshape(n, c, out_h, out_w)
