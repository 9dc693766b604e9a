"""Deformable convolution — forward and backward (paper Eq. 2 + 3).

The operator is lowered exactly the way the GPU kernels in
:mod:`repro.kernels` (and mmcv/torchvision CUDA kernels) do it:

1. *deformable im2col*: for every output pixel and kernel tap, sample the
   input at ``p0 + p_k + Δp_k`` with bilinear interpolation (zero out of
   bounds), producing a column matrix;
2. a GEMM of the columns with the flattened filter.

The backward pass produces gradients w.r.t. the input (bilinear scatter),
the offsets (analytic derivative of the interpolation weights) and the
filter — all fully vectorised.  Offset layout follows torchvision:
``offset[:, 2*(g*K + k)]`` is Δy and ``offset[:, 2*(g*K + k) + 1]`` is Δx
for deformable group ``g`` and tap ``k``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.tensor import Tensor, backward_op
from repro.nn.im2col import conv_output_size, gemm_epilogue


@lru_cache(maxsize=32)
def _base_positions(h: int, w: int, kh: int, kw: int, stride: int,
                    padding: int, dilation: int
                    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Undeformed sampling positions ``p0 + p_k`` relative to the input.

    Returns float32 arrays of shape (K, OH*OW) — may be negative or exceed
    the image (the padding band), which the bilinear sampler zero-fills.
    They depend on the geometry alone, so they are built once per
    geometry and shared read-only.
    """
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    k_r = np.repeat(np.arange(kh) * dilation, kw).astype(np.float32)
    k_c = np.tile(np.arange(kw) * dilation, kh).astype(np.float32)
    o_r = (stride * np.repeat(np.arange(out_h), out_w) - padding).astype(np.float32)
    o_c = (stride * np.tile(np.arange(out_w), out_h) - padding).astype(np.float32)
    base_y = k_r[:, None] + o_r[None, :]
    base_x = k_c[:, None] + o_c[None, :]
    base_y.flags.writeable = base_x.flags.writeable = False
    return base_y, base_x, out_h, out_w


def sampling_positions(offset: np.ndarray, in_hw: Tuple[int, int],
                       kernel_size: int, stride: int, padding: int,
                       dilation: int, deformable_groups: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Absolute fractional sampling positions for every tap.

    Returns ``(py, px)`` of shape (N, dg, K, OH*OW).  This is the access
    pattern handed to the GPU simulator's memory model — the irregularity
    the paper's texture optimisation targets comes from exactly these
    arrays.
    """
    n = offset.shape[0]
    k = kernel_size * kernel_size
    h, w = in_hw
    base_y, base_x, out_h, out_w = _base_positions(
        h, w, kernel_size, kernel_size, stride, padding, dilation)
    off = offset.reshape(n, deformable_groups, k, 2, out_h * out_w)
    py = base_y[None, None] + off[:, :, :, 0]
    px = base_x[None, None] + off[:, :, :, 1]
    return py.astype(np.float32, copy=False), px.astype(np.float32, copy=False)


def _corners(py: np.ndarray, px: np.ndarray):
    y0 = np.floor(py).astype(np.int64)
    x0 = np.floor(px).astype(np.int64)
    wy = py - y0
    wx = px - x0
    return y0, x0, wy, wx


def _gather_corners(x5: np.ndarray, y0, x0, wy, wx, h: int, w: int):
    """Gather the four corner values for every (n, g, c, k, l) sample.

    ``x5``: (N, dg, cpg, H*W) flattened input; index arrays have shape
    (N, dg, KL).  Returns corner values of shape (N, dg, cpg, KL) each plus
    the per-corner validity masks.
    """
    def gather(yi, xi):
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        idx = np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1)
        vals = np.take_along_axis(x5, idx[:, :, None, :], axis=-1)
        return vals * valid[:, :, None, :], valid, idx

    v00, m00, i00 = gather(y0, x0)
    v01, m01, i01 = gather(y0, x0 + 1)
    v10, m10, i10 = gather(y0 + 1, x0)
    v11, m11, i11 = gather(y0 + 1, x0 + 1)
    return (v00, v01, v10, v11), (m00, m01, m10, m11), (i00, i01, i10, i11)


def deform_im2col_arrays(x: np.ndarray, offset: np.ndarray, kernel_size: int,
                         stride: int, padding: int, dilation: int,
                         deformable_groups: int,
                         mask: Optional[np.ndarray] = None):
    """Raw-array deformable im2col; returns columns plus saved intermediates.

    ``x``: (N, C, H, W); ``offset``: (N, 2*dg*K, OH, OW);
    ``mask`` (modulation, DCNv2): (N, dg*K, OH, OW) or None.
    Columns come back as (N, C*K, L) ready for the filter GEMM.
    """
    n, c, h, w = x.shape
    dg = deformable_groups
    if c % dg:
        raise ValueError(f"channels {c} not divisible by deformable_groups {dg}")
    cpg = c // dg
    k = kernel_size * kernel_size
    py, px = sampling_positions(offset, (h, w), kernel_size, stride, padding,
                                dilation, dg)
    kl = py.shape[-1] * k
    py2 = py.reshape(n, dg, kl)
    px2 = px.reshape(n, dg, kl)
    y0, x0, wy, wx = _corners(py2, px2)
    x5 = x.reshape(n, dg, cpg, h * w)
    (v00, v01, v10, v11), masks, idxs = _gather_corners(x5, y0, x0, wy, wx, h, w)
    wy_b = wy[:, :, None, :]
    wx_b = wx[:, :, None, :]
    vals = ((1 - wy_b) * (1 - wx_b) * v00 + (1 - wy_b) * wx_b * v01
            + wy_b * (1 - wx_b) * v10 + wy_b * wx_b * v11)
    if mask is not None:
        m = mask.reshape(n, dg, 1, kl)
        raw_vals = vals
        vals = vals * m
    else:
        raw_vals = None
    l = kl // k
    # (N, dg, cpg, K, L) -> (N, C, K, L) -> (N, C*K, L)
    cols = vals.reshape(n, dg, cpg, k, l).reshape(n, c, k, l).reshape(n, c * k, l)
    saved = dict(y0=y0, x0=x0, wy=wy, wx=wx, corners=(v00, v01, v10, v11),
                 masks=masks, idxs=idxs, raw_vals=raw_vals, k=k, l=l,
                 cpg=cpg, dg=dg, hw=(h, w))
    return cols, saved


def deform_conv2d(x: Tensor, offset: Tensor, weight: Tensor,
                  bias: Optional[Tensor] = None, stride: int = 1,
                  padding: int = 0, dilation: int = 1,
                  deformable_groups: int = 1,
                  mask: Optional[Tensor] = None) -> Tensor:
    """Differentiable deformable convolution (Eq. 2).

    ``x``: (N, C_in, H, W); ``offset``: (N, 2*dg*K, OH, OW);
    ``weight``: (C_out, C_in, kh, kw); ``mask``: optional DCNv2 modulation
    (N, dg*K, OH, OW), typically passed through a sigmoid by the caller.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if kh != kw:
        raise ValueError("only square kernels are supported")
    if c_in_w != c_in:
        raise ValueError(f"weight expects {c_in_w} input channels, x has {c_in}")
    dg = deformable_groups
    k = kh * kw
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    if offset.shape != (n, 2 * dg * k, out_h, out_w):
        raise ValueError(
            f"offset shape {offset.shape} != expected "
            f"{(n, 2 * dg * k, out_h, out_w)}"
        )
    mask_data = mask.data if mask is not None else None
    cols, saved = deform_im2col_arrays(
        x.data, offset.data, kh, stride, padding, dilation, dg, mask_data)
    l = out_h * out_w
    w2 = weight.data.reshape(c_out, c_in * k)
    out = gemm_epilogue(w2, cols, None if bias is None else bias.data,
                        (out_h, out_w))

    parents = [x, offset, weight]
    if bias is not None:
        parents.append(bias)
    if mask is not None:
        parents.append(mask)

    def grad_fn(g):
        g2 = g.reshape(n, c_out, l)
        grad_w = np.einsum("nol,nkl->ok", g2, cols, optimize=True).reshape(
            weight.shape)
        grad_cols = np.einsum("ok,nol->nkl", w2, g2, optimize=True)
        cpg = saved["cpg"]
        kl = k * l
        # (N, C*K, L) -> (N, dg, cpg, KL)
        gc = grad_cols.reshape(n, dg, cpg, k, l).reshape(n, dg, cpg, kl)
        v00, v01, v10, v11 = saved["corners"]
        wy = saved["wy"][:, :, None, :]
        wx = saved["wx"][:, :, None, :]
        if mask is not None:
            m = mask_data.reshape(n, dg, 1, kl)
            grad_mask = (gc * (saved["raw_vals"])).sum(axis=2)  # (N, dg, KL)
            gc_eff = gc * m
        else:
            grad_mask = None
            gc_eff = gc

        # --- grad wrt offsets ------------------------------------------
        d_py = (1 - wx) * (v10 - v00) + wx * (v11 - v01)
        d_px = (1 - wy) * (v01 - v00) + wy * (v11 - v10)
        if mask is not None:
            # corners are raw values; modulation scales the derivative
            g_py = (gc * d_py).sum(axis=2) * mask_data.reshape(n, dg, kl)
            g_px = (gc * d_px).sum(axis=2) * mask_data.reshape(n, dg, kl)
        else:
            g_py = (gc_eff * d_py).sum(axis=2)
            g_px = (gc_eff * d_px).sum(axis=2)
        grad_off = np.empty((n, dg, k, 2, l), dtype=np.float32)
        grad_off[:, :, :, 0] = g_py.reshape(n, dg, k, l)
        grad_off[:, :, :, 1] = g_px.reshape(n, dg, k, l)
        grad_off = grad_off.reshape(offset.shape)

        # --- grad wrt input: bilinear scatter --------------------------
        hw = saved["hw"][0] * saved["hw"][1]
        weights4 = ((1 - wy) * (1 - wx), (1 - wy) * wx,
                    wy * (1 - wx), wy * wx)
        # global flat index base for (n, g, c): ((n*dg+g)*cpg+c)*HW
        base = (np.arange(n * dg * cpg) * hw).reshape(n, dg, cpg, 1)
        grad_x_flat = np.zeros(n * dg * cpg * hw, dtype=np.float64)
        for corner_w, valid, idx in zip(weights4, saved["masks"], saved["idxs"]):
            contrib = gc_eff * corner_w * valid[:, :, None, :]
            flat_idx = (base + idx[:, :, None, :]).ravel()
            grad_x_flat += np.bincount(flat_idx, weights=contrib.ravel(),
                                       minlength=grad_x_flat.size)
        grad_x = grad_x_flat.reshape(x.shape).astype(np.float32)

        grads = [grad_x, grad_off, grad_w]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        if mask is not None:
            grads.append(grad_mask.reshape(mask.shape))
        return grads

    return backward_op(out, tuple(parents), grad_fn, "deform_conv2d")
