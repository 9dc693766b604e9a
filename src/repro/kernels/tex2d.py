"""tex2D / tex2D++ deformable kernels — hardware bilinear via layered textures.

The DEFCON inference path (paper Section III-B):

* the input feature map is staged into a **2-D layered texture** (one layer
  per channel, batch folded into the layer index);
* CTAs tile the output plane; every thread issues one ``tex2DLayered``
  fetch per tap — the texture unit performs the bilinear blend in hardware
  (1.8 fixed-point weights) so the kernel's own FLOPs drop to coordinate
  arithmetic (~4× fewer — Fig. 10);
* out-of-bounds taps are handled by border addressing (zero), removing the
  branch divergence of the software kernel;
* the only global-memory traffic is the perfectly coalesced offset stream —
  GLD efficiency is 100 % by construction (Fig. 10);
* **tex2D++** stores the offsets in fp16: the texture unit only keeps 8
  fractional bits, so no accuracy is lost while the offset-load bandwidth
  halves (the paper's "reduced-bit bilinear interpolation").

The functional output uses the fixed-point filtering model of
:mod:`repro.gpusim.texture`, so tex2D's small numerical deviation from the
fp32 reference is faithfully reproduced (and bounded by tests).
"""

from __future__ import annotations

from functools import lru_cache
from typing import (TYPE_CHECKING, Callable, List, NamedTuple, Optional,
                    Tuple)

import numpy as np

from repro.deform.deform_conv import sampling_positions
from repro.gpusim.cache import TextureCacheModel, TextureCacheStats
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelCost, LaunchConfig, estimate_time_ms
from repro.gpusim.memory import strided_stats
from repro.gpusim.profiler import KernelStats
from repro.gpusim.texture import LayeredTexture2D, TextureDescriptor
from repro.gpusim.trace import SamplePlan, texture_fetch_trace
from repro.kernels import plancache
from repro.kernels.config import LayerConfig, OpResult
from repro.kernels.fused import FusedPlan, build_fused_plan, slice_bounds
from repro.kernels.reference import COORD_FLOPS, gemm_kernel_stats

if TYPE_CHECKING:
    from repro.kernels.plancache import PlanCache
    from repro.kernels.shards import ShardSpec

#: Default CTA tile (output pixels per block) — overridden by the autotuner.
DEFAULT_TILE = (16, 16)


def run_tex2d(x: Optional[np.ndarray], offset: np.ndarray,
              weight: Optional[np.ndarray], bias: Optional[np.ndarray],
              cfg: LayerConfig, spec: DeviceSpec,
              tile: Tuple[int, int] = DEFAULT_TILE, fp16_offsets: bool = False,
              plan: Optional[SamplePlan] = None,
              plan_cache: Optional["PlanCache"] = None) -> OpResult:
    """Execute the texture-hardware deformable conv (tex2D / tex2D++).

    ``fp16_offsets=True`` selects the tex2D++ variant.  One
    :func:`launch` of the whole layer, then its
    :class:`~repro.kernels.fused.FusedPlan` runs gather → blend → GEMM
    (see docs/performance.md).  ``plan_cache`` (a
    :class:`~repro.kernels.plancache.PlanCache`) memoises that plan, the
    fetch trace and the cache simulation across calls with identical
    offsets, geometry and tile; without one, a one-shot plan is compiled
    and the trace simulated for this call — the uncached reference.
    Outputs and kernel stats are bit-identical either way, and the
    outputs bit-identical to :func:`eager_tex2d_forward`.

    A call with ``x=None`` is a price: it returns the kernel stats and no
    output, and reads neither ``weight`` nor ``bias``.
    """
    fplan, kernels, _ = launch(x, offset, cfg, spec, tile, fp16_offsets,
                               plan, plan_cache)
    output = None if fplan is None else fplan.execute(x, weight, bias)
    return OpResult(output=output, kernels=kernels)


class Launch(NamedTuple):
    """One texture launch of a whole layer or one shard of it."""

    #: the slice's gather plan — None for a price (no input)
    plan: Optional[FusedPlan]
    #: [sampling kernel, implicit GEMM]
    kernels: List[KernelStats]
    #: the full (N, dg, K, L) sampling positions, computed on first call
    positions: Callable[[], Tuple[np.ndarray, np.ndarray]]


def launch(x: Optional[np.ndarray], offset: np.ndarray, cfg: LayerConfig,
           spec: DeviceSpec, tile: Tuple[int, int], fp16: bool,
           plan: Optional[SamplePlan], plan_cache: Optional["PlanCache"],
           shard: Optional["ShardSpec"] = None,
           digest: Optional[str] = None) -> Launch:
    """The tex2D sampling kernel plus the implicit GEMM over one slice of
    a layer: the whole layer (``shard=None``) or one
    :class:`~repro.kernels.shards.ShardSpec`.

    Checks the CTA tile, quantises the offsets for tex2D++ (``fp16``;
    :func:`texture_offsets`) and hashes them once — or takes ``digest``,
    :func:`~repro.kernels.plancache.offsets_digest` of those quantised
    offsets, from a caller that prices many tiles on one tensor.  When
    ``x`` is given, the slice's :class:`~repro.kernels.fused.FusedPlan`
    comes from the plan cache (or is compiled for this call without
    one); a price (``x=None``) builds no plan.  The texture counters come
    from one representative channel's fetch trace: the layer's, which a
    channel slice shares, or for a row band the band's own trace (its
    own offsets rows, so its own digest; top-aligned against the full
    CTA grid — a deterministic approximation the planner and executor
    share).  A launch whose plan and counters hang off one trace entry —
    a whole layer, a channel slice, any price but a band's — settles
    both in one :meth:`~repro.kernels.plancache.PlanCache.lookup`.  The
    kernel stats cover the slice's channels, pixels and rows; a shard's
    GEMM is its own slice of the product, which it ships to the
    coordinator.

    Sampling positions are needed only to compile a plan or build a
    trace, so they are computed lazily, once: steady-state cache hits
    skip them.
    """
    ty, tx = tile
    if ty <= 0 or tx <= 0 or ty * tx > spec.max_threads_per_block:
        raise ValueError(f"tile {tile} invalid for {spec.name}")
    tile = (int(ty), int(tx))
    plan = plan or SamplePlan()
    c0, c1, l0, l1 = slice_bounds(cfg, shard)
    off = texture_offsets(offset, fp16)
    memo: list = []

    def positions() -> Tuple[np.ndarray, np.ndarray]:
        if not memo:
            memo.append(sampling_positions(
                off, (cfg.height, cfg.width), cfg.kernel_size, cfg.stride,
                cfg.padding, cfg.dilation, cfg.deformable_groups))
        return memo[0]

    layers = min(cfg.in_channels // cfg.deformable_groups, 4)
    fplan = None
    if plan_cache is None:
        if x is not None:
            fplan = build_fused_plan(cfg, spec, fp16, positions, shard)
        py, px = (p[0, 0][:, l0:l1] for p in positions())
        y0, x0, cta, scale = texture_fetch_trace(py, px, cfg.out_width,
                                                 tile, plan)
        cache = TextureCacheModel(spec, concurrent_layers=layers)
        texture = cache.simulate(y0, x0, cta, cfg.height, cfg.width), scale
    elif shard is not None and shard.kind == "rows":
        if x is not None:
            fplan = plan_cache.fused_plan(
                digest or plancache.offsets_digest(off), cfg, spec, fp16,
                plan, positions, shard)
        band = np.ascontiguousarray(off[:, :, shard.lo:shard.hi])
        texture = plan_cache.tex_stats(
            plancache.offsets_digest(band), cfg, spec, tile, fp16, plan,
            layers, positions, slice(l0, l1))
    else:
        fplan, texture = plan_cache.lookup(
            digest or plancache.offsets_digest(off), cfg, spec, fp16, plan,
            positions, fused=x is not None, shard=shard, tile=tile,
            concurrent_layers=layers)

    n, k, csel, lsel = cfg.batch, cfg.taps, c1 - c0, l1 - l0
    suffix = "" if shard is None else "_shard"
    name = ("deformable_tex2dpp" if fp16 else "deformable_tex2d") + suffix
    sample = sample_kernel_stats(cfg, spec, texture, csel, lsel,
                                 lsel // cfg.out_width, tile, fp16, name)
    # A row band contracts all reduction rows over its pixels; a channel
    # slice takes a partial product over its reduction rows, full-size
    # and summed at the stitch.  Either way a shard's output ships back;
    # a whole layer's stays on its device.
    gemm = gemm_kernel_stats(
        cfg.out_channels, n * lsel, cfg.deformable_groups * csel * k, spec,
        "implicit_gemm" + suffix,
        0.0 if shard is None else float(n * cfg.out_channels * lsel * 4))
    return Launch(fplan, [sample, gemm], positions)


def texture_offsets(offset: np.ndarray, fp16: bool) -> np.ndarray:
    """The offsets a launch samples through: float16 for tex2D++ (whose
    texture unit keeps 8 fractional bits, so nothing is lost), as given
    for tex2D.  Positions computed from float16 offsets are bit-equal to
    those of the float32 round trip — the float32 sum converts each
    float16 exactly — and the digest reads half the bytes."""
    return offset.astype(np.float16, copy=False) if fp16 else offset


def sample_kernel_stats(cfg: LayerConfig, spec: DeviceSpec,
                        texture: Tuple[TextureCacheStats, float],
                        channels: int, pixels: int, rows: int,
                        tile: Tuple[int, int], fp16: bool,
                        name: str) -> KernelStats:
    """The tex2D sampling kernel over ``channels`` per-group input
    channels × ``pixels`` output pixels spanning ``rows`` output rows —
    a whole layer, or one shard of it.

    ``texture`` is the (counters, trace scale) of :func:`launch`'s
    representative channel; every channel of every (batch, group)
    shares that trace, so its counters scale by ``n·dg·channels`` (cache
    behaviour per layer is identical — each layer's lines are distinct
    but isomorphic).  Everything that does not read the counters — the
    offset stream, the coordinate FLOPs, the launch grid — comes from a
    per-geometry memo.
    """
    tex_stats, scale = texture
    n, dg = cfg.batch, cfg.deformable_groups
    tex_stats = tex_stats.scaled(scale * n * dg * channels)
    offs, offs_traffic, coord_flops, col_bytes, grid = _sample_geometry(
        cfg, spec, channels, pixels, rows, tile, fp16)
    sample_cost = KernelCost(
        flops=coord_flops,
        dram_bytes=tex_stats.miss_bytes + offs_traffic,
        tex_fetches=float(tex_stats.requests),
        tex_rate_divisor=float(spec.tex_fp32_rate_divisor),
        cta_prologue_cycles=500.0,
        compute_efficiency=0.35,
    )
    return KernelStats(
        name=name,
        duration_ms=estimate_time_ms(sample_cost, grid, spec),
        flop_count_sp=coord_flops,
        gld_requests=offs.requests,
        gld_transactions=offs.transactions,
        gld_bytes_requested=offs.bytes_requested,
        tex_cache_requests=tex_stats.requests,
        tex_texel_reads=tex_stats.texel_reads,
        tex_cache_hits=tex_stats.hits,
        dram_read_bytes=tex_stats.miss_bytes + offs_traffic,
        dram_write_bytes=col_bytes,
    )


@lru_cache(maxsize=256)
def _sample_geometry(cfg: LayerConfig, spec: DeviceSpec, channels: int,
                     pixels: int, rows: int, tile: Tuple[int, int],
                     fp16: bool):
    """The sampling kernel's offset stream, re-read traffic, coordinate
    FLOPs, column bytes and launch grid — a function of the geometry."""
    n, k, dg = cfg.batch, cfg.taps, cfg.deformable_groups
    ty, tx = tile
    # Channel blocks are spread across the grid's z dimension so channel
    # count contributes parallelism, not per-CTA serialisation.
    channel_blocks = max(1, -(-channels // spec.offset_channel_block))

    # Offsets are re-read once per channel block a CTA processes; fp16
    # storage (tex2D++) halves this stream — the paper's bandwidth saving.
    # The re-read count is the *ceil* block count, matching the launch
    # grid: a partial trailing block still issues a full offset read.
    offset_bytes = 2 if fp16 else 4
    offs = strided_stats(n * 2 * k * pixels * dg, offset_bytes, spec)
    offs_traffic = offs.bytes_transferred * channel_blocks
    col_bytes = float(n * dg * channels * k * pixels * 4)

    coord_flops = float(n * dg * channels * k * pixels * COORD_FLOPS)
    tiles = -(-rows // ty) * -(-cfg.out_width // tx)
    grid = LaunchConfig(grid=max(1, tiles * n * dg * channel_blocks),
                        block=ty * tx)
    return offs, offs_traffic, coord_flops, col_bytes, grid


def eager_tex2d_forward(x: np.ndarray, offset: np.ndarray,
                        weight: np.ndarray, bias: Optional[np.ndarray],
                        cfg: LayerConfig, spec: DeviceSpec,
                        fp16_offsets: bool = False) -> np.ndarray:
    """The eager tex2D/tex2D++ forward — the reference fused execution
    is checked against; no production path calls it.

    Stages ``x`` into a :class:`~repro.gpusim.texture.LayeredTexture2D`
    (one layer per channel, batch folded into the layer index), fetches
    every tap through the border-addressed 1.8 fixed-point bilinear
    filter, and contracts the columns with the ``"ok,nkl->nol"`` einsum
    whose matmul :meth:`~repro.kernels.fused.FusedPlan.execute` calls
    directly on the same operands.  The
    conformance check ``plancache.fused_bit_identical.*``,
    ``tests/test_fused.py`` and ``benchmarks/bench_perf_model.py``
    require :func:`run_tex2d` outputs to equal it bit for bit.
    """
    n, c, k, l = cfg.batch, cfg.in_channels, cfg.taps, cfg.out_pixels
    dg, cpg = cfg.deformable_groups, cfg.in_channels // cfg.deformable_groups
    off = offset
    if fp16_offsets:
        off = offset.astype(np.float16).astype(np.float32)
    py, px = sampling_positions(off, (cfg.height, cfg.width),
                                cfg.kernel_size, cfg.stride, cfg.padding,
                                cfg.dilation, dg)
    desc = TextureDescriptor(address_mode="border", filter_mode="linear",
                             fp16_coords=fp16_offsets)
    tex = LayeredTexture2D.from_feature_map(x, desc=desc, spec=spec)
    # layer index of (n, g, cpg_idx): n*C + g*cpg + c_idx
    layer = (np.arange(n)[:, None, None] * c
             + np.arange(dg)[None, :, None] * cpg
             + np.arange(cpg)[None, None, :])  # (N, dg, cpg)
    vals = tex.fetch_at_pixel_coords(layer[..., None],
                                     py.reshape(n, dg, 1, k * l),
                                     px.reshape(n, dg, 1, k * l))
    cols = vals.reshape(n, c * k, l)
    w2 = weight.reshape(cfg.out_channels, c * k)
    out = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
    out = out.reshape(n, cfg.out_channels, cfg.out_height, cfg.out_width)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out
