"""Reference texture filtering: the bilinear tap resolution and the
fused plans' tap tables as they were before the taps shared their rows,
columns and (1 - alpha), (1 - beta) factors, kept verbatim.

The program's :func:`repro.gpusim.texture.linear_filter_taps` and
:func:`repro.kernels.fused.tap_tables` must match these bit for bit
(``tests/test_dcn_miss_path.py``).  Everything here is independent of
``repro`` so the comparison is against separate code.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: CUDA linear filtering stores blend fractions in 1.8 fixed point.
FIXED_POINT_FRACTION_BITS = 8
_FXP_SCALE = float(1 << FIXED_POINT_FRACTION_BITS)


def quantize_fraction(frac: np.ndarray) -> np.ndarray:
    """Quantise a fractional blend weight to 1.8 fixed point (round-to-nearest)."""
    return np.round(frac * _FXP_SCALE) / _FXP_SCALE


def linear_filter_taps(y: np.ndarray, x: np.ndarray, h: int, w: int,
                       address_mode: str, normalized: bool):
    """The four bilinear taps of CUDA linear filtering, fully resolved.

    ``y``/``x`` are the *texture-space* coordinates (after any fp16
    quantisation).  Returns four ``(iy, jx, weight)`` tuples — resolved
    texel indices plus the 1.8 fixed-point blend weight with the
    out-of-bounds mask already folded in (border reads contribute zero).
    Both the eager fetch path and the fused execution plans consume this
    helper, so their corner numerics can never drift apart.
    """
    # Linear filtering: xB = x − 0.5; i = floor(xB); α = frac(xB) in 1.8
    # fixed point (CUDA Programming Guide, appendix on texture fetching).
    yb = y - 0.5
    xb = x - 0.5
    i0 = np.floor(yb)
    j0 = np.floor(xb)
    alpha = quantize_fraction(yb - i0)
    beta = quantize_fraction(xb - j0)
    i0 = i0.astype(np.int64)
    j0 = j0.astype(np.int64)
    taps = []
    for dy, dx, wq in ((0, 0, (1 - alpha) * (1 - beta)),
                       (0, 1, (1 - alpha) * beta),
                       (1, 0, alpha * (1 - beta)),
                       (1, 1, alpha * beta)):
        iy, ok_y = _apply_address_mode(i0 + dy, h, address_mode, normalized)
        jx, ok_x = _apply_address_mode(j0 + dx, w, address_mode, normalized)
        taps.append((iy, jx, wq * (ok_y & ok_x)))
    return taps


def _apply_address_mode(coord: np.ndarray, extent: int, mode: str,
                        normalized: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve coordinates to texel indices; returns (index, in_bounds)."""
    if normalized:
        if mode == "wrap":
            coord = coord - np.floor(coord)
        elif mode == "mirror":
            f = np.floor(coord)
            frac = coord - f
            coord = np.where(f.astype(np.int64) % 2 == 0, frac, 1.0 - frac)
        coord = coord * extent
    coord = np.asarray(coord)
    if coord.dtype.kind == "f":
        idx = np.floor(coord).astype(np.int64)
    else:
        idx = coord.astype(np.int64)
    if mode in ("wrap", "mirror"):
        # Already folded into [0, extent); clamp guards the extent edge.
        clamped = np.clip(idx, 0, extent - 1)
        return clamped, np.ones_like(coord, dtype=bool)
    if mode == "clamp":
        return np.clip(idx, 0, extent - 1), np.ones_like(coord, dtype=bool)
    # border: out-of-range reads return the border colour (zero).
    in_bounds = (idx >= 0) & (idx <= extent - 1)
    return np.clip(idx, 0, extent - 1), in_bounds


def tap_tables(py: np.ndarray, px: np.ndarray, h: int, w: int,
               fp16: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Corner index/weight tables for arbitrary (N, dg, ...) positions.

    The one compilation step shared by :func:`build_fused_plan` (full
    layer) and the per-shard gather plans of
    :mod:`repro.kernels.shards` (a row-band or channel slice of the same
    positions): pixel coords → texture coords (+0.5), the tex2D++ fp16
    coordinate quantisation, then
    :func:`~repro.gpusim.texture.linear_filter_taps` — exactly
    ``fetch_at_pixel_coords`` + ``fetch``.  Because every operation is
    elementwise, tables built from a *slice* of the positions are
    bitwise equal to the same slice of the full tables, which is what
    makes stitched shard outputs bit-identical to the unsharded forward.

    Returns ``idx`` of shape (4, N·dg, S) — flat corner texel indices —
    and ``wts`` of shape (4, N·dg, 1, S), the fixed-point blend weights
    with the border mask folded in, where S flattens every trailing
    position axis.
    """
    n, dg = py.shape[0], py.shape[1]
    s = int(np.prod(py.shape[2:], dtype=np.int64))
    y = (py.reshape(n, dg, 1, s) + 0.5).astype(np.float32)
    x = (px.reshape(n, dg, 1, s) + 0.5).astype(np.float32)
    if fp16:
        y = y.astype(np.float16).astype(np.float32)
        x = x.astype(np.float16).astype(np.float32)
    taps = linear_filter_taps(y, x, h, w, "border", False)
    idx = np.stack([(iy * w + jx).reshape(n * dg, s)
                    for iy, jx, _ in taps])
    wts = np.stack([wq.astype(np.float32, copy=False).reshape(
        n * dg, 1, s) for _, _, wq in taps])
    return idx, wts
