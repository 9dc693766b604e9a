"""Differentiable functional ops built on the autograd engine.

Convolutions are implemented as autograd *primitives* (custom backward via
:func:`repro.tensor.backward_op`) using the im2col lowering — this is both
much faster than composing them from indexing ops and mirrors how the GPU
kernels in :mod:`repro.kernels` are organised (gather → GEMM).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor import Tensor, backward_op
from repro.nn.im2col import (col2im, contract, conv_output_size,
                              gemm_columns, gemm_epilogue, im2col)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0, dilation: int = 1,
           groups: int = 1) -> Tensor:
    """2-D convolution (paper Eq. 1).

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in/groups, kh, kw);
    ``bias``: (C_out,) or None.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if c_in != c_in_g * groups:
        raise ValueError(
            f"conv2d channel mismatch: x has {c_in}, weight expects "
            f"{c_in_g}*{groups}"
        )
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)

    l = out_h * out_w
    if groups == 1:
        cols = gemm_columns(x.data, kh, kw, stride, padding, dilation)
        w2 = weight.data.reshape(c_out, c_in_g * kh * kw)
        out = gemm_epilogue(w2, cols, None if bias is None else bias.data,
                            (out_h, out_w))
    else:
        cols = im2col(x.data, kh, kw, stride, padding, dilation)
        cols_g = cols.reshape(n, groups, c_in_g * kh * kw, l)
        w_g = weight.data.reshape(groups, c_out // groups, c_in_g * kh * kw)
        out = contract("gok,ngkl->ngol", w_g, cols_g)
        # via (N, O, L): the strides of size-1 dims can decide whether a
        # later matmul calls BLAS, so they are part of the result
        out = out.reshape(n, c_out, l).reshape(n, c_out, out_h, out_w)
        if bias is not None:
            out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def grad_fn(g):
        g2 = g.reshape(n, c_out, l)
        if groups == 1:
            w2_ = weight.data.reshape(c_out, c_in_g * kh * kw)
            grad_cols = np.einsum("ok,nol->nkl", w2_, g2, optimize=True)
            grad_w = np.einsum("nol,nkl->ok", g2, cols, optimize=True).reshape(
                weight.shape
            )
        else:
            g_g = g2.reshape(n, groups, c_out // groups, l)
            cols_g_ = cols.reshape(n, groups, c_in_g * kh * kw, l)
            w_g_ = weight.data.reshape(groups, c_out // groups, c_in_g * kh * kw)
            grad_cols = np.einsum("gok,ngol->ngkl", w_g_, g_g, optimize=True)
            grad_cols = grad_cols.reshape(n, c_in * kh * kw, l)
            grad_w = np.einsum("ngol,ngkl->gok", g_g, cols_g_, optimize=True)
            grad_w = grad_w.reshape(weight.shape)
        grad_x = col2im(grad_cols, x.shape, kh, kw, stride, padding, dilation)
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return grads

    return backward_op(out, parents, grad_fn, "conv2d")


def depthwise_conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Depth-wise convolution — the lightweight offset operator of Eq. 9.

    ``weight``: (C, 1, kh, kw).  Equivalent to ``conv2d(..., groups=C)``.
    """
    return conv2d(x, weight, bias, stride=stride, padding=padding,
                  groups=x.shape[1])


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``; x: (..., in), weight: (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling via im2col + max primitive."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data, kernel, kernel, stride, 0)  # (N, C*K*K, L)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def grad_fn(g):
        g2 = g.reshape(n, c, 1, out_h * out_w)
        grad_cols = np.zeros((n, c, kernel * kernel, out_h * out_w), dtype=g.dtype)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], g2, axis=2)
        grad_cols = grad_cols.reshape(n, c * kernel * kernel, out_h * out_w)
        return (col2im(grad_cols, x.shape, kernel, kernel, stride, 0),)

    return backward_op(out, (x,), grad_fn, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data, kernel, kernel, stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)
    scale = 1.0 / (kernel * kernel)

    def grad_fn(g):
        g2 = np.broadcast_to(
            g.reshape(n, c, 1, out_h * out_w) * scale,
            (n, c, kernel * kernel, out_h * out_w),
        ).reshape(n, c * kernel * kernel, out_h * out_w)
        return (col2im(np.ascontiguousarray(g2), x.shape, kernel, kernel, stride, 0),)

    return backward_op(out, (x,), grad_fn, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dims, keeping (N, C)."""
    return x.mean(axis=(2, 3))


def interpolate_nearest2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2× upsampling (used by the FPN top-down path)."""
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def grad_fn(g):
        g4 = g.reshape(n, c, h, 2, w, 2)
        return (g4.sum(axis=(3, 5)),)

    return backward_op(out, (x,), grad_fn, "up2x")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy; ``labels`` are integer class indices (N,)."""
    labels = np.asarray(labels)
    log_p = logits.log_softmax(axis=-1)
    n = log_p.shape[0]
    picked = log_p[np.arange(n), labels]
    return -picked.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable BCE on raw logits (used for mask losses)."""
    targets_t = Tensor(np.asarray(targets, dtype=np.float32))
    x = logits
    # max(x,0) - x*t + log(1 + exp(-|x|))
    relu_x = x.relu()
    loss = relu_x - x * targets_t + ((-x.abs()).exp() + 1.0).log()
    return loss.mean()


def smooth_l1(pred: Tensor, target: np.ndarray, beta: float = 1.0) -> Tensor:
    """Huber / smooth-L1 loss used by detection box regression."""
    target_t = Tensor(np.asarray(target, dtype=np.float32))
    diff = (pred - target_t).abs()
    quad = (diff * diff) * (0.5 / beta)
    lin = diff - 0.5 * beta
    mask = diff.data < beta
    out = quad.data * mask + lin.data * (~mask)

    def grad_fn(g):
        d = pred.data - target_t.data
        grad = np.where(np.abs(d) < beta, d / beta, np.sign(d))
        return (g * grad, None)

    combined = backward_op(out, (pred, target_t), grad_fn, "smooth_l1")
    return combined.mean()
