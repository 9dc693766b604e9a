"""Backend dispatch and convenience runners for the deformable operator."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import SamplePlan
from repro.kernels.config import LayerConfig, OpResult, synth_offsets
from repro.kernels.reference import run_reference
from repro.kernels.tex2d import DEFAULT_TILE, run_tex2d, run_tex2dpp

BACKENDS = ("pytorch", "tex2d", "tex2dpp")


def run_deform_op(backend: str, x: np.ndarray, offset: np.ndarray,
                  weight: np.ndarray, bias: Optional[np.ndarray],
                  cfg: LayerConfig, spec: DeviceSpec,
                  tile: Tuple[int, int] = DEFAULT_TILE,
                  plan: Optional[SamplePlan] = None,
                  compute_output: bool = True,
                  layer: str = "",
                  plan_cache=None) -> OpResult:
    """Run one deformable conv through the selected backend.

    ``layer`` attributes the launched kernels to a model layer (a dotted
    module name): every :class:`~repro.gpusim.profiler.KernelStats` in the
    result is stamped with it, plus the geometry label, so per-layer
    profiling (``ProfileLog.by_layer``) works downstream.

    ``plan_cache`` (a :class:`~repro.kernels.plancache.PlanCache`) lets
    the texture backends reuse their compiled
    :class:`~repro.kernels.fused.FusedPlan`, fetch trace and cache
    simulation for repeated (offsets, geometry, tile) combinations; the
    reference backend ignores it.
    """
    if backend == "pytorch":
        res = run_reference(x, offset, weight, bias, cfg, spec, plan=plan,
                            compute_output=compute_output)
    elif backend == "tex2d":
        res = run_tex2d(x, offset, weight, bias, cfg, spec, tile=tile,
                        plan=plan, compute_output=compute_output,
                        plan_cache=plan_cache)
    elif backend == "tex2dpp":
        res = run_tex2dpp(x, offset, weight, bias, cfg, spec, tile=tile,
                          plan=plan, compute_output=compute_output,
                          plan_cache=plan_cache)
    else:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    for k in res.kernels:
        if layer:
            k.layer = layer
        if not k.geometry:
            k.geometry = cfg.label()
    return res


def run_layer_all_backends(cfg: LayerConfig, spec: DeviceSpec,
                           tile: Tuple[int, int] = DEFAULT_TILE,
                           offset_sigma: float = 2.0,
                           bound: Optional[float] = None, seed: int = 0,
                           compute_output: bool = False,
                           plan: Optional[SamplePlan] = None,
                           plan_cache=None) -> Dict[str, OpResult]:
    """Run one layer shape through all three backends with shared data.

    This is the workhorse of the Table II / Table IV / Fig. 7 benches:
    identical input, weights and (synthesised) offsets per backend, so the
    latency differences are purely the execution strategy.

    ``plan_cache`` is forwarded to the texture backends so repeated sweeps
    over the same layer reuse the fetch trace and cache simulation; both
    outputs and perf counters are bit-identical to an uncached run (the
    conformance suite and tests/test_determinism.py assert this).
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=cfg.input_shape()).astype(np.float32)
    w = (rng.normal(size=cfg.weight_shape()) / np.sqrt(cfg.in_channels * 9)
         ).astype(np.float32)
    b = rng.normal(size=(cfg.out_channels,)).astype(np.float32)
    off = synth_offsets(cfg, sigma=offset_sigma, bound=bound, seed=seed)
    return {
        backend: run_deform_op(backend, x, off, w, b, cfg, spec, tile=tile,
                               plan=plan, compute_output=compute_output,
                               plan_cache=plan_cache)
        for backend in BACKENDS
    }
