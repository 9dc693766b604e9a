"""The baseline ("PyTorch") deformable-conv kernel — software bilinear.

Models mmcv/torchvision's two-kernel CUDA lowering:

1. ``deformable_im2col``: one thread per (channel, output pixel); each
   thread walks the K taps, loads the offsets, performs a *software*
   bilinear interpolation (four scattered global loads + 4 muls + 3 adds)
   and writes a column entry.  Irregular offsets wreck coalescing here —
   this kernel is what Fig. 10's low GLD efficiency belongs to.
2. an implicit GEMM of the columns with the filter (cuBLAS-grade).

The functional output is the exact fp32 software-interpolation result.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.deform.deform_conv import deform_im2col_arrays, sampling_positions
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import (KernelCost, LaunchConfig, estimate_time_ms,
                                 gemm_cost)
from repro.gpusim.memory import strided_stats
from repro.gpusim.profiler import KernelStats
from repro.gpusim.trace import SamplePlan, deform_input_coalescing
from repro.kernels.config import LayerConfig, OpResult
from repro.nn.im2col import gemm_epilogue

#: FLOPs per tap for software bilinear: 4 mul + 3 add (paper Section II-B).
SOFTWARE_INTERP_FLOPS = 7
#: FLOPs per tap to form the fractional coordinates (offset add, floor/frac).
COORD_FLOPS = 2


def run_reference(x: Optional[np.ndarray], offset: np.ndarray,
                  weight: Optional[np.ndarray], bias: Optional[np.ndarray],
                  cfg: LayerConfig, spec: DeviceSpec,
                  plan: Optional[SamplePlan] = None) -> OpResult:
    """Execute the baseline deformable conv; returns output + kernel stats.

    A call with ``x=None`` is a price: no output, and ``weight`` and
    ``bias`` are not read; the kernel stats depend on the offsets and
    geometry alone.
    """
    plan = plan or SamplePlan()
    n, c, k, l = cfg.batch, cfg.in_channels, cfg.taps, cfg.out_pixels
    cpg = c // cfg.deformable_groups

    # ------------------------------------------------------------------
    # functional result (exact software bilinear + GEMM)
    # ------------------------------------------------------------------
    output = None
    if x is not None:
        cols, _ = deform_im2col_arrays(
            x, offset, cfg.kernel_size, cfg.stride, cfg.padding,
            cfg.dilation, cfg.deformable_groups)
        w2 = weight.reshape(cfg.out_channels, c * k)
        output = gemm_epilogue(w2, cols, bias,
                               (cfg.out_height, cfg.out_width))

    # ------------------------------------------------------------------
    # performance model: kernel 1 — deformable_im2col
    # ------------------------------------------------------------------
    py, px = sampling_positions(offset, (cfg.height, cfg.width),
                                cfg.kernel_size, cfg.stride, cfg.padding,
                                cfg.dilation, cfg.deformable_groups)
    # One representative deformable group; groups have iid patterns so the
    # counters scale linearly in dg (and in batch).
    gather = deform_input_coalescing(py[0, 0], px[0, 0], cfg.height,
                                     cfg.width, channels=cpg, dtype_bytes=4,
                                     spec=spec, plan=plan)
    gather = gather.scaled(cfg.deformable_groups * n)

    # Offset loads: 2K values per output pixel per group.  Every channel's
    # thread re-reads the same offsets; the L2 absorbs the re-reads down to
    # roughly one pass per channel block.
    offs = strided_stats(n * 2 * k * l * cfg.deformable_groups, 4, spec)
    offs_l2 = offs.bytes_transferred * (cpg / spec.offset_channel_block)
    # Column stores: C·K·L floats (write traffic; no gld counters).
    col_bytes = float(n * c * k * l * 4)

    # Traffic split: all gathered sectors cross the L2 crossbar (at its
    # bandwidth, derated by the scattered-access penalty); the DRAM only
    # sees the compulsory input footprint times a bounded tap-reuse factor.
    input_footprint = float(n * c * cfg.height * cfg.width * 4)
    gather_l2 = gather.bytes_transferred / max(spec.scattered_penalty, 1e-6)
    gather_dram = min(gather.bytes_transferred,
                      input_footprint * spec.gather_dram_reuse)

    interp_flops = n * c * k * l * (SOFTWARE_INTERP_FLOPS + COORD_FLOPS)
    threads = n * c * l  # one thread per (channel, output pixel)
    launch = LaunchConfig(grid=max(1, -(-threads // 256)), block=256)
    sample_cost = KernelCost(
        flops=float(interp_flops),
        dram_bytes=gather_dram + offs.bytes_transferred,
        l2_bytes=gather_l2 + offs_l2,
        cta_prologue_cycles=300.0,
        compute_efficiency=0.25,  # scalar gather/interpolate code
    )
    # The stock framework path pays ATen dispatch + auxiliary launches the
    # fused DEFCON kernels avoid (dominant for small layers on Jetson).
    framework_ms = (spec.framework_extra_launches
                    * spec.kernel_launch_overhead_us / 1e3)
    sample_stats = KernelStats(
        name="deformable_im2col",
        duration_ms=estimate_time_ms(sample_cost, launch, spec) + framework_ms,
        flop_count_sp=float(interp_flops),
        gld_requests=gather.requests + offs.requests,
        gld_transactions=gather.transactions + offs.transactions,
        gld_bytes_requested=gather.bytes_requested + offs.bytes_requested,
        dram_read_bytes=gather.bytes_transferred + offs.bytes_transferred,
        dram_write_bytes=col_bytes,
    )

    # ------------------------------------------------------------------
    # kernel 2 — implicit GEMM (identical across backends)
    # ------------------------------------------------------------------
    gemm_stats = gemm_kernel_stats(cfg.out_channels, n * l, c * k, spec)
    return OpResult(output=output, kernels=[sample_stats, gemm_stats])


def gemm_kernel_stats(m: int, n: int, k: int, spec: DeviceSpec,
                      name: str = "implicit_gemm",
                      write_bytes: float = 0.0) -> KernelStats:
    """The implicit GEMM every backend launches after its sampling kernel.

    An (m × k)·(k × n) product — filters times the (C·K, N·L) column
    matrix, or a shard's slice of it — at cuBLAS-grade efficiency, one
    256-thread CTA per 128×64 output tile.  ``write_bytes`` is the output
    a shard ships to the coordinator; a whole layer's output stays on
    its device and is not priced here.  The counters are a function of
    the shape, memoised per geometry; each call returns its own record.
    """
    return KernelStats(**_gemm_fields(m, n, k, spec, name, write_bytes))


@lru_cache(maxsize=256)
def _gemm_fields(m: int, n: int, k: int, spec: DeviceSpec, name: str,
                 write_bytes: float) -> dict:
    gemm = gemm_cost(m, n, k)
    launch = LaunchConfig(grid=max(1, -(-(m * n) // (128 * 64))), block=256)
    loads = strided_stats(int(gemm.dram_bytes // 4), 4, spec)
    return dict(
        name=name,
        duration_ms=estimate_time_ms(gemm, launch, spec),
        flop_count_sp=gemm.flops,
        gld_requests=loads.requests,
        gld_transactions=loads.transactions,
        gld_bytes_requested=gemm.dram_bytes,
        dram_read_bytes=gemm.dram_bytes,
        dram_write_bytes=write_bytes,
    )


def conv_ms(cfg: LayerConfig, spec: DeviceSpec) -> float:
    """Latency of a regular convolution of this shape: the im2col GEMM of
    (O, C·K) filters by (C·K, N·L) columns."""
    return gemm_kernel_stats(cfg.out_channels, cfg.batch * cfg.out_pixels,
                             cfg.in_channels * cfg.taps, spec).duration_ms
