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

from typing import Callable, Optional, Tuple

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
from repro.kernels.fused import build_fused_plan
from repro.kernels.reference import COORD_FLOPS, gemm_kernel_stats

#: Default CTA tile (output pixels per block) — overridden by the autotuner.
DEFAULT_TILE = (16, 16)


def run_tex2d(x: np.ndarray, offset: np.ndarray, weight: np.ndarray,
              bias: Optional[np.ndarray], cfg: LayerConfig, spec: DeviceSpec,
              tile: Tuple[int, int] = DEFAULT_TILE, fp16_offsets: bool = False,
              plan: Optional[SamplePlan] = None,
              compute_output: bool = True,
              plan_cache: Optional["PlanCache"] = None) -> OpResult:
    """Execute the texture-hardware deformable conv (tex2D / tex2D++).

    ``fp16_offsets=True`` selects the tex2D++ variant.  The functional
    forward runs through a compiled :class:`~repro.kernels.fused.FusedPlan`:
    precomputed tap coordinates and fixed-point blend weights, per-call
    scratch, one gather → blend → GEMM pass (see
    docs/performance.md).  ``plan_cache`` (a
    :class:`~repro.kernels.plancache.PlanCache`) memoises that plan, the
    fetch trace and the cache simulation across calls with identical
    offsets, geometry and tile; without one, a one-shot plan is compiled
    and the trace simulated for this call — the uncached reference.
    Outputs and kernel stats are bit-identical either way, and the
    outputs bit-identical to :func:`eager_tex2d_forward`.
    """
    plan = plan or SamplePlan()
    off, positions = launch_inputs(offset, cfg, spec, tile, fp16_offsets)
    # one hash of the quantised offsets keys both lookups
    digest = None if plan_cache is None else plancache.offsets_digest(off)

    # ------------------------------------------------------------------
    # functional result through the texture unit
    # ------------------------------------------------------------------
    output = None
    if compute_output:
        if plan_cache is not None:
            fplan = plan_cache.fused_plan(off, cfg, spec, fp16_offsets, plan,
                                          positions, digest=digest)
        else:
            fplan = build_fused_plan(cfg, spec, fp16_offsets, positions)
        output = fplan.execute(x, weight, bias)

    # ------------------------------------------------------------------
    # performance model: kernel 1 — tex2d sampling, kernel 2 — the
    # implicit GEMM (identical to the reference backend)
    # ------------------------------------------------------------------
    texture = texture_stats(
        off, cfg, spec, tile, fp16_offsets, plan, plan_cache,
        lambda: tuple(p[0, 0] for p in positions()), digest=digest)
    name = "deformable_tex2dpp" if fp16_offsets else "deformable_tex2d"
    sample_stats = sample_kernel_stats(
        cfg, spec, texture, cfg.in_channels // cfg.deformable_groups,
        cfg.out_pixels, cfg.out_height, tile, fp16_offsets, name)
    gemm_stats = gemm_kernel_stats(cfg.out_channels,
                                   cfg.batch * cfg.out_pixels,
                                   cfg.in_channels * cfg.taps, spec)
    return OpResult(output=output, kernels=[sample_stats, gemm_stats])


def launch_inputs(offset: np.ndarray, cfg: LayerConfig, spec: DeviceSpec,
                  tile: Tuple[int, int], fp16: bool
                  ) -> Tuple[np.ndarray, Callable[[], Tuple[np.ndarray,
                                                            np.ndarray]]]:
    """Check one texture launch's CTA tile and prepare its offsets.

    Returns the offsets as sampled — fp16-quantised for tex2D++ — and a
    ``positions()`` callable giving their full (N, dg, K, L) sampling
    positions.  The positions are needed only to compile a plan or build
    a trace, so they are computed lazily, once: steady-state cache hits
    skip them.
    """
    ty, tx = tile
    if ty <= 0 or tx <= 0 or ty * tx > spec.max_threads_per_block:
        raise ValueError(f"tile {tile} invalid for {spec.name}")
    off = offset.astype(np.float16).astype(np.float32) if fp16 else offset
    memo: list = []

    def positions() -> Tuple[np.ndarray, np.ndarray]:
        if not memo:
            memo.append(sampling_positions(
                off, (cfg.height, cfg.width), cfg.kernel_size, cfg.stride,
                cfg.padding, cfg.dilation, cfg.deformable_groups))
        return memo[0]

    return off, positions


def texture_stats(off: np.ndarray, cfg: LayerConfig, spec: DeviceSpec,
                  tile: Tuple[int, int], fp16: bool, plan: SamplePlan,
                  plan_cache: Optional["PlanCache"],
                  rep: Callable[[], Tuple[np.ndarray, np.ndarray]],
                  digest: Optional[str] = None
                  ) -> Tuple[TextureCacheStats, float]:
    """Texture-cache counters of one representative channel, and the
    trace's sampling scale.

    ``rep`` lazily supplies that channel's (K, pixels) sampling
    positions.  With a plan cache the result is memoised under ``off``
    (the *quantised* offsets the launch samples through — two fp32
    offset tensors that quantise to the same fp16 values are the same
    tex2D++ launch and share one entry); without one, the fetch trace is
    built and simulated for this call, the uncached reference the cache
    is bit-identical to.
    """
    layers = min(cfg.in_channels // cfg.deformable_groups, 4)
    if plan_cache is not None:
        return plan_cache.tex_stats(off, cfg, spec, tile, fp16, plan, layers,
                                    rep, digest=digest)
    py, px = rep()
    y0, x0, cta, scale = texture_fetch_trace(py, px, cfg.out_width, tile,
                                             plan)
    cache = TextureCacheModel(spec, concurrent_layers=layers)
    return cache.simulate(y0, x0, cta, cfg.height, cfg.width), scale


def sample_kernel_stats(cfg: LayerConfig, spec: DeviceSpec,
                        texture: Tuple[TextureCacheStats, float],
                        channels: int, pixels: int, rows: int,
                        tile: Tuple[int, int], fp16: bool,
                        name: str) -> KernelStats:
    """The tex2D sampling kernel over ``channels`` per-group input
    channels × ``pixels`` output pixels spanning ``rows`` output rows —
    a whole layer, or one shard of it.

    ``texture`` is :func:`texture_stats`'s representative-channel result;
    every channel of every (batch, group) shares that trace, so its
    counters scale by ``n·dg·channels`` (cache behaviour per layer is
    identical — each layer's lines are distinct but isomorphic).
    """
    n, k, dg = cfg.batch, cfg.taps, cfg.deformable_groups
    ty, tx = tile
    tex_stats, scale = texture
    tex_stats = tex_stats.scaled(scale * n * dg * channels)

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
    launch = LaunchConfig(grid=max(1, tiles * n * dg * channel_blocks),
                          block=ty * tx)
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
        duration_ms=estimate_time_ms(sample_cost, launch, spec),
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


def run_tex2dpp(x: np.ndarray, offset: np.ndarray, weight: np.ndarray,
                bias: Optional[np.ndarray], cfg: LayerConfig,
                spec: DeviceSpec, tile: Tuple[int, int] = DEFAULT_TILE,
                plan: Optional[SamplePlan] = None,
                compute_output: bool = True,
                plan_cache: Optional["PlanCache"] = None) -> OpResult:
    """The tex2D++ variant: fp16 offsets, half the offset bandwidth."""
    return run_tex2d(x, offset, weight, bias, cfg, spec, tile=tile,
                     fp16_offsets=True, plan=plan,
                     compute_output=compute_output, plan_cache=plan_cache)


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
