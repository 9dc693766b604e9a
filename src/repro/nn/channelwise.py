"""Per-channel elementwise ops walked in an activation's memory order.

NumPy walks a (C,)-vector op on an NHWC-ordered activation (what a
batched conv returns) in inner loops one pixel's C channels long.
:func:`channel_ops` runs BatchNorm's affine steps and a conv's bias on
whole (W, C) rows instead, in one buffer.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def channel_ops(x: np.ndarray, steps: Sequence[Tuple[np.ufunc, np.ndarray]],
                in_place: bool = False) -> np.ndarray:
    """``x`` with each ``(ufunc, v)`` of ``steps`` applied in turn, ``v``
    a (C,) vector broadcast along axis 1.

    Bits, dtype and strides equal those of the chain of NumPy ops
    ``a = ufunc(a, v.reshape(1, C, 1, 1))``, each allocating its result.
    A step writes in place instead when it keeps the dtype and its
    operand is an array NumPy allocated in this call, or ``x`` itself
    when ``in_place`` says the caller owns it.  NumPy gives the next
    step's result the strides of its own fresh result; an array from
    elsewhere may differ in the strides of its size-1 dims, so pass
    ``in_place`` only for an array without them.

    The ops run on the (N·H, W·C) view only when C, H and W exceed 1
    and ``x`` is NHWC-dense: there NumPy's own result is NHWC-dense too.
    At N = 1 that holds whatever the N stride (a conv's result at N = 1
    carries one of its own), as NumPy's contiguity flags have it.
    """
    n, c, h, w = x.shape
    nhwc = x.transpose(0, 2, 3, 1)
    wide = min(c, h, w) > 1 and nhwc.flags.c_contiguous
    a = nhwc.reshape(n * h, w * c) if wide else x
    for ufunc, v in steps:
        # v[None].repeat(w, 0) is np.tile(v, w) at a fifth of the cost
        v = v[None].repeat(w, 0).ravel() if wide else v.reshape(1, c, 1, 1)
        if in_place and np.result_type(a, v) == a.dtype:
            ufunc(a, v, out=a)
        else:
            a = ufunc(a, v)
            in_place = True
    return a.reshape(n, h, w, c).transpose(0, 3, 1, 2) if wide else a
