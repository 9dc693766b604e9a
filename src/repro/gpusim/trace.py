"""Access-trace construction for the deformable kernels.

The irregularity that hurts the PyTorch deformable kernel is *data
dependent*: it comes from the learned offsets.  These helpers turn the
actual sampling positions (from :func:`repro.deform.sampling_positions`)
into the warp-shaped global-memory address arrays and CTA-tagged texture
fetch streams that the coalescing and cache models consume.

Large layers are sampled: a seeded subset of warps / CTAs is simulated and
counters are scaled by the inverse sampling fraction.  Sampling error on the
aggregate counters is O(1/√warps) and irrelevant next to the modelling
error, while keeping even 512-channel × 138² layers sub-second.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import CoalescingStats, coalescing_stats


@dataclass(frozen=True)
class SamplePlan:
    """How much of a trace to simulate exactly."""

    max_warps: int = 4096
    max_fetches: int = 2_000_000
    seed: int = 0


def warp_addresses_for_corner(py: np.ndarray, px: np.ndarray, corner: Tuple[int, int],
                              width: int, dtype_bytes: int, spec: DeviceSpec,
                              plan: Optional[SamplePlan] = None
                              ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Byte addresses of one bilinear corner's loads, shaped into warps.

    The reference ("PyTorch") kernel assigns one thread per output pixel of
    one (channel, tap) pair, so a warp's 32 lanes are 32 *consecutive output
    pixels* of the same tap — exactly mmcv's ``deformable_im2col`` mapping.

    ``py``/``px``: (K, L) fractional positions for one deformable group.
    Returns ``(addresses, active_mask, scale)`` where scale is the factor by
    which the (possibly sampled) stats must be multiplied.
    """
    plan = plan or SamplePlan()
    dy, dx = corner
    k, l = py.shape
    warp = spec.warp_size
    pad = (-l) % warp
    if pad:
        py = np.pad(py, ((0, 0), (0, pad)), mode="edge")
        px = np.pad(px, ((0, 0), (0, pad)), mode="edge")
    y = np.floor(py).astype(np.int64) + dy
    x = np.floor(px).astype(np.int64) + dx
    y = y.reshape(-1, warp)
    x = x.reshape(-1, warp)
    num_warps = y.shape[0]
    scale = 1.0
    if num_warps > plan.max_warps:
        rng = np.random.default_rng(plan.seed)
        pick = rng.choice(num_warps, size=plan.max_warps, replace=False)
        pick.sort()
        y, x = y[pick], x[pick]
        scale = num_warps / plan.max_warps
    # Height bound is checked by the caller through the active mask.
    addresses = (y * width + x) * dtype_bytes
    return addresses, (y, x), scale


def deform_input_coalescing(py: np.ndarray, px: np.ndarray, h: int, w: int,
                            channels: int, dtype_bytes: int, spec: DeviceSpec,
                            plan: Optional[SamplePlan] = None
                            ) -> CoalescingStats:
    """Coalescing counters for the reference kernel's input gathers.

    Simulates the four corner loads for one representative channel of one
    deformable group and scales by ``channels`` (all channels in a group
    share positions, so their per-warp sector counts are identical — only
    base addresses differ).
    """
    plan = plan or SamplePlan()
    total = None
    for corner in ((0, 0), (0, 1), (1, 0), (1, 1)):
        addresses, (y, x), scale = warp_addresses_for_corner(
            py, px, corner, w, dtype_bytes, spec, plan)
        active = (y >= 0) & (y < h) & (x >= 0) & (x < w)
        stats = coalescing_stats(np.where(active, addresses, 0), dtype_bytes,
                                 spec, active_mask=active)
        stats = stats.scaled(scale * channels)
        total = stats if total is None else total.merged(stats)
    return total


def cta_ids_for_tile(out_h: int, out_w: int,
                     tile: Tuple[int, int]) -> np.ndarray:
    """Output-pixel → CTA id mapping for one (ty, tx) CTA tiling.

    Returns an ``(out_h * out_w,)`` int array in row-major pixel order.
    This is the *only* tile-dependent ingredient of a texture fetch trace,
    which is what makes one-pass re-tiling
    (:meth:`~repro.gpusim.cache.TextureCacheModel.simulate_retiled`) work.
    The map is built once per (out_h, out_w, tile) and shared read-only.
    """
    return _cta_ids(int(out_h), int(out_w), int(tile[0]), int(tile[1]))


@lru_cache(maxsize=64)
def _cta_ids(out_h: int, out_w: int, ty: int, tx: int) -> np.ndarray:
    oy = np.repeat(np.arange(out_h), out_w)
    ox = np.tile(np.arange(out_w), out_h)
    tiles_x = -(-out_w // tx)
    ids = (oy // ty) * tiles_x + (ox // tx)
    ids.flags.writeable = False
    return ids


def fetch_pixels(k: int, l: int) -> np.ndarray:
    """Fetch → issuing output pixel for a (K, L) tap-major fetch trace:
    ``(k * l,)`` ints, ``arange(l)`` once per tap.  Built once per
    (k, l) and shared read-only, like :func:`cta_ids_for_tile`."""
    return _fetch_pixels(int(k), int(l))


@lru_cache(maxsize=64)
def _fetch_pixels(k: int, l: int) -> np.ndarray:
    pixels = np.tile(np.arange(l), k)
    pixels.flags.writeable = False
    return pixels


def sample_trace_ctas(y0: np.ndarray, x0: np.ndarray, cta: np.ndarray,
                      num_fetches: int, plan: SamplePlan
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Subsample a fetch trace by whole CTAs when it exceeds the plan.

    Sampling whole CTAs preserves intra-CTA locality; ``num_fetches`` is
    the unsampled trace length the returned ``scale`` restores.  A trace
    within budget passes through untouched (``scale == 1.0``).
    """
    scale = 1.0
    if y0.size > plan.max_fetches:
        rng = np.random.default_rng(plan.seed)
        num_ctas = int(cta.max()) + 1
        keep = max(1, int(num_ctas * plan.max_fetches / y0.size))
        chosen = rng.choice(num_ctas, size=keep, replace=False)
        mask = np.isin(cta, chosen)
        y0, x0, cta = y0[mask], x0[mask], cta[mask]
        scale = num_fetches / max(1, y0.size)
    return y0, x0, cta, scale


def texture_fetch_trace(py: np.ndarray, px: np.ndarray, out_w: int,
                        tile: Tuple[int, int],
                        plan: Optional[SamplePlan] = None
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """CTA-tagged texture fetch stream for the tex2D kernels.

    The texture kernels tile the *output* plane: CTA (i, j) covers a
    ``tile`` = (ty, tx) block of output pixels and issues one bilinear fetch
    per tap per pixel (per channel — channels share the trace and are
    handled by the cache model's concurrency divisor).

    ``py``/``px``: (K, L) positions; returns ``(y0, x0, cta_ids, scale)``
    with the top-left corner texel of each fetch.
    """
    plan = plan or SamplePlan()
    k, l = py.shape
    out_h = l // out_w
    cta_of_pixel = cta_ids_for_tile(out_h, out_w, tile)
    cta = np.broadcast_to(cta_of_pixel, (k, l)).ravel()
    y0 = np.floor(py).ravel().astype(np.int64)
    x0 = np.floor(px).ravel().astype(np.int64)
    # Sample whole CTAs so intra-CTA locality is preserved.
    return sample_trace_ctas(y0, x0, cta, k * l, plan)
