"""End-to-end inference latency model (Table III, Fig. 9).

Walks a :class:`~repro.pipeline.geometry.NetworkGeometry` and prices every
layer on the simulated device:

* fixed convs  → im2col-GEMM latency;
* candidate sites without a DCN → regular 3×3 conv latency;
* candidate sites with a DCN    → offset-head convs (regular or
  lightweight) + the deformable operator on the selected backend
  (pytorch / tex2d / tex2dpp), with optionally autotuned tiles.

Per-layer kernel-launch overhead is included — on the Jetson it is a real
part of why fewer DCN layers (interval search) means a faster network.

Two calibrated rebalancing constants reproduce the composition the paper's
Table III implies (the baseline YOLACT++ spends nearly all its time in the
deformable layers and their offset heads):

* ``ENGINE_SPEEDUP`` — the non-DCN workload (standard convs and the filter
  GEMM) runs through an optimised inference engine (TensorRT-style fp16,
  as in YOLACTEdge on the same Jetson target); DCN sampling and the offset
  head fall back to the slow framework path.
* ``DCN_SAMPLE_SCALE`` — the framework's deformable sampling kernel on the
  Jetson is latency-bound well below the throughput model's estimate; this
  factor scales all three backends identically, so every backend-to-backend
  ratio (Table II / Fig. 7) is untouched.

Both were fitted once against the speedup column of Table III
(`tools/calibrate_devices.py` documents the procedure); per-configuration
differences still come from the mechanistic model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.autotune.tuner import TileTuner
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import LaunchConfig, estimate_time_ms, gemm_cost
from repro.kernels.config import LayerConfig, synth_offsets
from repro.kernels.dispatch import run_deform_op
from repro.kernels.reference import conv_ms
from repro.kernels.tex2d import DEFAULT_TILE
from repro.pipeline.geometry import NetworkGeometry

#: see module docstring — calibrated against Table III's speedup column
DCN_SAMPLE_SCALE = 12.0
ENGINE_SPEEDUP = 24.0


@dataclass
class LatencyBreakdown:
    """Where the milliseconds went."""

    fixed_ms: float = 0.0
    regular_site_ms: float = 0.0
    offset_head_ms: float = 0.0
    deform_op_ms: float = 0.0
    per_site: List[Dict[str, float]] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return (self.fixed_ms + self.regular_site_ms + self.offset_head_ms
                + self.deform_op_ms)


def offset_head_ms(site: LayerConfig, spec: DeviceSpec,
                   lightweight: bool) -> float:
    """Latency of the offset-prediction convs for one DCN site (step ①).

    Regular head: a full 3×3 conv C → 2·k²·dg.  Lightweight head (Eq. 9):
    depthwise 3×3 (C→C) + pointwise 1×1 (C → 2·k²·dg).
    """
    out_ch = site.offset_channels
    if not lightweight:
        head = LayerConfig(site.in_channels, out_ch, site.height, site.width,
                           kernel_size=3, stride=site.stride)
        return conv_ms(head, spec)
    # Depthwise 3×3: per-channel filters; model as GEMM-equivalent workload
    # with C independent single-channel convolutions.
    dw_l = site.out_pixels * site.batch
    dw = gemm_cost(site.in_channels, dw_l, 9, efficiency=0.45)
    dw_launch = LaunchConfig(
        grid=max(1, -(-(site.in_channels * dw_l) // 256)), block=256)
    dw_ms = estimate_time_ms(dw, dw_launch, spec)
    pw = LayerConfig(site.in_channels, out_ch, site.out_height,
                     site.out_width, kernel_size=1, padding=0)
    return dw_ms + conv_ms(pw, spec)


def deform_op_ms(site: LayerConfig, spec: DeviceSpec, backend: str,
                 bound: Optional[float], tile: Tuple[int, int] = DEFAULT_TILE,
                 seed: int = 0) -> float:
    """Latency of the deformable operator itself (step ②).

    The sampling kernel takes the slow fallback path (× DCN_SAMPLE_SCALE,
    identically for every backend); the filter GEMM rides the optimised
    engine (÷ ENGINE_SPEEDUP).
    """
    off = synth_offsets(site, sigma=2.0, bound=bound, seed=seed)
    res = run_deform_op(backend, None, off, None, None, site, spec,
                        tile=tile)
    sample, gemm = res.kernels[0], res.kernels[1]
    return (sample.duration_ms * DCN_SAMPLE_SCALE
            + gemm.duration_ms / ENGINE_SPEEDUP)


def profile_network(geometry: NetworkGeometry, placement: Sequence[bool],
                    spec: DeviceSpec, backend: str = "pytorch",
                    lightweight: bool = False,
                    bound: Optional[float] = None, seed: int = 0):
    """nvprof-style trace of one full inference: a ProfileLog whose records
    are every deformable sampling/GEMM kernel the network launches, so
    Fig. 10-style counter analysis works at network granularity."""
    from repro.gpusim.profiler import ProfileLog

    if len(placement) != geometry.num_sites:
        raise ValueError("placement length mismatch")
    log = ProfileLog()
    for cfg, use_dcn in zip(geometry.candidate_sites, placement):
        if not use_dcn:
            continue
        off = synth_offsets(cfg, sigma=2.0, bound=bound, seed=seed)
        res = run_deform_op(backend, None, off, None, None, cfg, spec)
        for k in res.kernels:
            log.add(k)
    return log


def network_latency_ms(geometry: NetworkGeometry, placement: Sequence[bool],
                       spec: DeviceSpec, backend: str = "pytorch",
                       lightweight: bool = False,
                       bound: Optional[float] = None,
                       tuner: Optional[TileTuner] = None,
                       seed: int = 0) -> LatencyBreakdown:
    """Price a full inference of the network under one configuration."""
    if len(placement) != geometry.num_sites:
        raise ValueError(
            f"placement has {len(placement)} entries; geometry has "
            f"{geometry.num_sites} sites")
    launch_ms = spec.kernel_launch_overhead_us / 1e3
    bd = LatencyBreakdown()
    for cfg in geometry.fixed_convs:
        bd.fixed_ms += (conv_ms(cfg, spec) + launch_ms) / ENGINE_SPEEDUP
    tile_cache: Dict[LayerConfig, Tuple[int, int]] = {}
    for cfg, use_dcn in zip(geometry.candidate_sites, placement):
        if not use_dcn:
            bd.regular_site_ms += (conv_ms(cfg, spec)
                                   + launch_ms) / ENGINE_SPEEDUP
            continue
        head = offset_head_ms(cfg, spec, lightweight) + launch_ms
        tile = DEFAULT_TILE
        if tuner is not None and backend in ("tex2d", "tex2dpp"):
            if cfg not in tile_cache:
                tile_cache[cfg] = tuner.best_tile(cfg)
            tile = tile_cache[cfg]
        op = deform_op_ms(cfg, spec, backend, bound, tile=tile, seed=seed)
        bd.offset_head_ms += head
        bd.deform_op_ms += op
        bd.per_site.append({
            "label": cfg.label(), "offset_head_ms": head, "deform_op_ms": op,
        })
    return bd
