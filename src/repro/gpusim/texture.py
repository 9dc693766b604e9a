"""Functional model of the GPU texture unit (paper Section III-B).

Reproduces the *numerics* of CUDA's texture fetch path so the claim that
texture-hardware interpolation "does not result in any negative impact on
accuracy" is testable:

* **layered 2-D textures** — a stack of same-sized layers; DEFCON stores one
  feature-map channel per layer and folds batch into the layer index
  (``batch_idx × channels + c``), subject to the 2048-layer device limit;
* **addressing modes** — border (out-of-bounds reads return zero — exactly
  the deformable-conv boundary rule), clamp, wrap, mirror;
* **filtering modes** — point (nearest) and linear; linear filtering uses
  the documented CUDA behaviour: the sample position is shifted by 0.5 and
  the fractional blend weights are stored in **1.8 fixed point** (8
  fractional bits), so hardware bilinear differs from fp32 software
  bilinear by at most ~2⁻⁸ per coordinate;
* **fp16 coordinate path (tex2D++)** — coordinates quantised to half
  precision before the fetch.  fp16 keeps 10 mantissa bits, more than the
  8 the filtering unit uses, which is why tex2D++ loses no accuracy while
  halving offset-load bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec

#: CUDA linear filtering stores blend fractions in 1.8 fixed point.
FIXED_POINT_FRACTION_BITS = 8
_FXP_SCALE = float(1 << FIXED_POINT_FRACTION_BITS)

ADDRESS_MODES = ("border", "clamp", "wrap", "mirror")
FILTER_MODES = ("point", "linear")


@dataclass(frozen=True)
class TextureDescriptor:
    """Read/addressing/filtering configuration of a texture object."""

    address_mode: str = "border"
    filter_mode: str = "linear"
    normalized_coords: bool = False
    #: quantise fetch coordinates to fp16 before filtering (tex2D++)
    fp16_coords: bool = False
    #: store the texels themselves in fp16 — *quantisation*, the thing the
    #: paper contrasts tex2D++ against ("results in an information loss
    #: from input feature maps"); halves texture memory and doubles the
    #: filter rate, at a real numerical cost to the feature map
    fp16_texels: bool = False

    def __post_init__(self):
        if self.address_mode not in ADDRESS_MODES:
            raise ValueError(f"address_mode must be one of {ADDRESS_MODES}")
        if self.filter_mode not in FILTER_MODES:
            raise ValueError(f"filter_mode must be one of {FILTER_MODES}")
        if self.address_mode in ("wrap", "mirror") and not self.normalized_coords:
            raise ValueError(
                "wrap/mirror addressing requires normalized coordinates "
                "(CUDA restriction)")


def quantize_fraction(frac: np.ndarray) -> np.ndarray:
    """Quantise a fractional blend weight to 1.8 fixed point (round-to-nearest)."""
    return np.round(frac * _FXP_SCALE) / _FXP_SCALE


def linear_filter_taps(y: np.ndarray, x: np.ndarray, h: int, w: int,
                       address_mode: str, normalized: bool):
    """The four bilinear taps of CUDA linear filtering, fully resolved.

    ``y``/``x`` are the *texture-space* coordinates (after any fp16
    quantisation; float16 coordinates are filtered in float32, as the
    float32 round trip would be).  Returns four ``(iy, jx, weight)``
    tuples — resolved texel indices plus the 1.8 fixed-point blend
    weight with the out-of-bounds mask already folded in (border reads
    contribute zero).
    Both the eager fetch path and the fused execution plans consume this
    corner math (:func:`filter_axis`), so their numerics can never drift
    apart.  Each axis is resolved once and its two corners are shared by
    the taps that use them.
    """
    iy, wy = filter_axis(y, h, address_mode, normalized)
    jx, wx = filter_axis(x, w, address_mode, normalized)
    # corners (0, 0), (0, 1), (1, 0), (1, 1)
    return [(iy[a], jx[b], wy[a] * wx[b]) for a in (0, 1) for b in (0, 1)]


def filter_axis(coord: np.ndarray, extent, address_mode: str,
                normalized: bool) -> Tuple[np.ndarray, np.ndarray]:
    """One axis of CUDA linear filtering, resolved once.

    Returns ``(idx, wts)``, each of shape ``(2,) + coord.shape``: along
    the first axis the floor corner and the ``+1`` corner, as int64 texel
    indices (address mode applied) and 1.8 fixed-point weights ``1 − α``
    and ``α``, an out-of-bounds border corner's weight zeroed.  A row's
    weight times a column's is bit-identical to masking the product, as
    weights are never negative, so every bilinear corner is one product
    of these.

    Unnormalised coordinates (every deformable kernel's) are resolved on
    the two buffers in place: one floor, one int64 cast, one unsigned
    compare for both corners' bounds, one clamp.  ``extent`` may be an
    array broadcasting against ``coord``: a stack of several axes, each
    with its own extent, then resolves in one pass.
    """
    # Linear filtering: xB = x − 0.5; i = floor(xB); α = frac(xB) in 1.8
    # fixed point (CUDA Programming Guide, appendix on texture fetching).
    frac = np.asarray(np.subtract(
        coord, 0.5, dtype=np.result_type(coord, np.float32)))
    floor = np.floor(frac)
    frac -= floor
    alpha = quantize_fraction(frac)
    wts = np.empty((2,) + alpha.shape, dtype=alpha.dtype)
    np.subtract(1, alpha, out=wts[0, ...])
    wts[1] = alpha
    idx = np.empty(wts.shape, dtype=np.int64)
    idx[0] = floor                  # the float → int64 cast of astype
    np.add(idx[0, ...], 1, out=idx[1, ...])
    if normalized:
        for d in (0, 1):
            idx[d], ok = _apply_address_mode(idx[d], extent, address_mode,
                                             True)
            wts[d] *= ok
        return idx, wts
    # Pixel coordinates: wrap and mirror fold nothing, so every mode
    # clamps, and border zeroes the out-of-range corners — viewed
    # unsigned, a negative index is out of range too.
    if address_mode == "border":
        wts *= idx.view(np.uint64) < np.asarray(extent, dtype=np.uint64)
    np.minimum(np.maximum(idx, 0, out=idx), np.subtract(extent, 1), out=idx)
    return idx, wts


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


class LayeredTexture2D:
    """A 2-D layered texture bound over a (layers, H, W) array.

    This is the storage construct the paper selects over mipmapped arrays
    and surface memory (Section III-B): every layer is an independent 2-D
    texture of identical extent, so per-channel bilinear interpolation never
    mixes neighbouring channels.
    """

    def __init__(self, data: np.ndarray, desc: TextureDescriptor = None,
                 spec: DeviceSpec = None):
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3:
            raise ValueError(f"layered texture needs (layers, H, W), got {data.shape}")
        if spec is not None:
            max_h, max_w, max_layers = spec.max_texture_extent
            layers, h, w = data.shape
            if h > max_h or w > max_w or layers > max_layers:
                raise ValueError(
                    f"texture extent {data.shape} exceeds device limit "
                    f"{spec.max_texture_extent} — partition the mini-batch "
                    f"(paper Section III-B)")
        self.desc = desc if desc is not None else TextureDescriptor()
        if self.desc.fp16_texels:
            data = data.astype(np.float16).astype(np.float32)
        self.data = data

    @classmethod
    def from_feature_map(cls, x: np.ndarray, desc: TextureDescriptor = None,
                         spec: DeviceSpec = None) -> "LayeredTexture2D":
        """Bind an (N, C, H, W) feature map: layer index = n·C + c."""
        n, c, h, w = x.shape
        return cls(x.reshape(n * c, h, w), desc=desc, spec=spec)

    @property
    def num_layers(self) -> int:
        return self.data.shape[0]

    @property
    def extent(self) -> Tuple[int, int]:
        return self.data.shape[1:]

    # ------------------------------------------------------------------
    def fetch(self, layer: np.ndarray, y: np.ndarray, x: np.ndarray
              ) -> np.ndarray:
        """``tex2DLayered`` — fetch with the configured addressing/filtering.

        ``layer``/``y``/``x`` are broadcastable arrays; coordinates follow
        CUDA's unnormalised convention where texel centres sit at
        ``i + 0.5``.  Returns filtered values of the broadcast shape.
        """
        desc = self.desc
        h, w = self.extent
        layer = np.asarray(layer, dtype=np.int64)
        y = np.asarray(y, dtype=np.float32)
        x = np.asarray(x, dtype=np.float32)
        if desc.fp16_coords:
            y = y.astype(np.float16).astype(np.float32)
            x = x.astype(np.float16).astype(np.float32)
        layer = np.clip(layer, 0, self.num_layers - 1)

        if desc.filter_mode == "point":
            # Raw coordinates go in — normalisation/wrap scaling must happen
            # before the truncation to a texel index.
            yi, y_ok = _apply_address_mode(y, h, desc.address_mode,
                                           desc.normalized_coords)
            xi, x_ok = _apply_address_mode(x, w, desc.address_mode,
                                           desc.normalized_coords)
            vals = self.data[layer, yi, xi]
            return vals * (y_ok & x_ok)

        taps = linear_filter_taps(y, x, h, w, desc.address_mode,
                                  desc.normalized_coords)
        out = None
        for iy, jx, wq in taps:
            term = wq * self.data[layer, iy, jx]
            out = term if out is None else out + term
        return out

    def fetch_at_pixel_coords(self, layer: np.ndarray, py: np.ndarray,
                              px: np.ndarray) -> np.ndarray:
        """Fetch using *pixel* coordinates (texel i at integer i).

        The deformable-conv kernels compute sampling positions in pixel
        space; CUDA code adds 0.5 before calling ``tex2DLayered`` so the
        hardware's −0.5 shift cancels.  This helper applies that shift.
        """
        return self.fetch(layer, py + 0.5, px + 0.5)


def texture_footprint_bytes(x_shape: Tuple[int, int, int, int],
                            dtype_bytes: int = 4) -> int:
    """Bytes needed to stage an (N, C, H, W) feature map as a layered texture."""
    n, c, h, w = x_shape
    return n * c * h * w * dtype_bytes


def fits_texture_limits(x_shape: Tuple[int, int, int, int],
                        spec: DeviceSpec) -> bool:
    """Check the paper's layered-texture constraint: N·C ≤ 2048 etc."""
    n, c, h, w = x_shape
    max_h, max_w, max_layers = spec.max_texture_extent
    return h <= max_h and w <= max_w and n * c <= max_layers
