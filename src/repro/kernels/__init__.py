"""Deformable-convolution kernel backends over the GPU simulator.

Three backends mirror the paper's comparison:

* ``pytorch`` — software bilinear interpolation, global-memory gathers
  (:func:`run_reference`);
* ``tex2d`` — layered-texture fetches with hardware bilinear filtering
  (:func:`run_tex2d`);
* ``tex2dpp`` — tex2D plus fp16 offset storage
  (:func:`run_tex2d` with ``fp16_offsets=True``).

Each run returns the functional output and nvprof-style per-kernel stats;
a run without an input (``x=None``) is a price and returns the stats
alone.  Both texture backends, and every fleet shard of a layer
(:mod:`repro.kernels.shards`), go through one launch,
:func:`repro.kernels.tex2d.launch`.
"""

from repro.kernels.config import (LayerConfig, OpResult, TABLE2_LAYERS,
                                  synth_offsets)
from repro.kernels.dispatch import BACKENDS, run_deform_op, run_layer_all_backends
from repro.kernels.fused import FusedPlan, build_fused_plan
from repro.kernels.plancache import PlanCache, PlanCacheStats, offsets_digest
from repro.kernels.reference import run_reference
from repro.kernels.tex2d import DEFAULT_TILE, run_tex2d
from repro.kernels.tiling import (CANDIDATE_EXTENTS, enumerate_tiles,
                                  heuristic_tile, tile_footprint_bytes)
from repro.kernels.upsample import run_upsample_reference, run_upsample_tex2d

__all__ = [
    "LayerConfig", "OpResult", "TABLE2_LAYERS", "synth_offsets",
    "BACKENDS", "run_deform_op", "run_layer_all_backends",
    "FusedPlan", "build_fused_plan",
    "PlanCache", "PlanCacheStats", "offsets_digest",
    "run_reference", "run_tex2d", "DEFAULT_TILE",
    "enumerate_tiles", "heuristic_tile", "tile_footprint_bytes",
    "CANDIDATE_EXTENTS",
    "run_upsample_reference", "run_upsample_tex2d",
]
