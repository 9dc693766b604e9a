"""Hot-path speedups from the plan cache and one-pass re-tiled simulation.

Not a paper figure — this bench guards the wall-time wins documented in
docs/performance.md:

* **steady state**: repeated ``run_tex2d`` calls with identical offsets /
  geometry / tile (the serving loop) through a
  :class:`~repro.kernels.plancache.PlanCache` must be ≥2× faster than the
  uncached path, with bit-identical kernel stats;
* **tuner sweep**: an exhaustive tile search on the re-tiled fast path
  (one trace + K cheap regroupings, fanned over a process pool) must be
  ≥3× faster than the legacy per-candidate full simulation, and land on
  the same best tile;
* **fused serving**: the full functional forward (``compute_output=True``)
  through a compiled :class:`~repro.kernels.fused.FusedPlan` must be ≥2×
  faster than the eager reference
  (:func:`~repro.kernels.tex2d.eager_tex2d_forward` plus the same
  warm-cache stats lookup) *with the plan cache already warm*, with
  bit-identical outputs and kernel stats.  The two sides are timed in
  interleaved pairs; the speedup is the median pair ratio and the
  reported times are per-side medians.

The CI ``perf-smoke`` job runs this on every push and fails if the cached
paths stop being faster.  It pins BLAS to one thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS`` and
``NUMEXPR_NUM_THREADS`` set to 1, as ``perfbench/run.py`` does): the fused
side is GEMM-bound, and a GEMM spread over both cores of a small CI box
stalls whenever another process takes one of them.  On a two-core Xeon,
24 fresh-process runs of the fused-serving pairs per setting, half of
them beside a one-process busy loop, read 1 run below 2x with default
threads (lowest 1.82x) and none pinned (lowest 2.34x).
"""

import time

import numpy as np

from repro.autotune import TileTuner, grid_search
from repro.gpusim import XAVIER
from repro.gpusim.trace import SamplePlan
from repro.kernels import LayerConfig, PlanCache, synth_offsets
from repro.kernels.tex2d import eager_tex2d_forward, run_tex2d
from repro.pipeline import format_table

from common import run_once, write_bench_json, write_result

LAYER = LayerConfig(128, 128, 69, 69)     # a paper Table II geometry
#: the sweep tunes a small model's worth of distinct layer geometries, so
#: the persistent worker pool's spawn cost is amortised as in real use
SWEEP_LAYERS = (LayerConfig(128, 128, 69, 69),
                LayerConfig(256, 256, 35, 35),
                LayerConfig(64, 64, 138, 138))
STEADY_ITERS = 10
#: fused-vs-eager runs the full functional forward (~hundreds of ms per
#: eager call at this geometry), timed in a few interleaved pairs
FUSED_PAIRS = 5


def _steady_state(cfg):
    """Repeated identical run_tex2d calls, uncached vs plan-cached."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=cfg.input_shape()).astype(np.float32)
    w = rng.normal(size=cfg.weight_shape()).astype(np.float32)
    off = synth_offsets(cfg, seed=0)

    def loop(plan_cache):
        stats = None
        t0 = time.perf_counter()
        for _ in range(STEADY_ITERS):
            res = run_tex2d(x, off, w, None, cfg, XAVIER,
                            compute_output=False, plan_cache=plan_cache)
            stats = res.sample_kernel
        return time.perf_counter() - t0, stats

    uncached_s, uncached_stats = loop(None)
    cache = PlanCache()
    cached_s, cached_stats = loop(cache)
    assert cached_stats == uncached_stats, "plan cache drifted from simulate"
    assert cache.stats.hits == STEADY_ITERS - 1
    return uncached_s, cached_s


def _fused_serving(cfg):
    """Steady-state *functional* serving: the eager reference vs the
    fused plan, shared warm plan cache, outputs and stats bit-identical
    by assertion."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=cfg.input_shape()).astype(np.float32)
    w = rng.normal(size=cfg.weight_shape()).astype(np.float32)
    b = rng.normal(size=(cfg.out_channels,)).astype(np.float32)
    off = synth_offsets(cfg, seed=0)
    cache = PlanCache()

    def eager():
        # the eager texture fetch plus the perf-model half of a call: the
        # same warm-cache stats lookup the fused run_tex2d makes
        stats = run_tex2d(x, off, w, b, cfg, XAVIER, compute_output=False,
                          plan_cache=cache)
        return eager_tex2d_forward(x, off, w, b, cfg, XAVIER), stats.kernels

    def fused():
        res = run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=cache)
        return res.output, res.kernels

    # warm-up calls compile the plan and warm the trace entry, so the
    # timed calls measure the steady state of both sides.  The sides run
    # in interleaved pairs, alternating which goes first, so a slow
    # phase of a shared CI box lands on both sides of a pair instead of
    # on one side's whole block; the speedup is the median pair ratio.
    results = {eager: eager(), fused: fused()}
    times = {eager: [], fused: []}
    for i in range(FUSED_PAIRS):
        for call in (eager, fused) if i % 2 == 0 else (fused, eager):
            t0 = time.perf_counter()
            results[call] = call()
            times[call].append(time.perf_counter() - t0)
    (eager_out, eager_kernels), (fused_out, fused_kernels) = \
        results[eager], results[fused]
    assert np.array_equal(fused_out, eager_out), \
        "fused output drifted from eager"
    assert [k.__dict__ for k in fused_kernels] == \
        [k.__dict__ for k in eager_kernels], \
        "fused kernel stats drifted from eager"
    assert cache.stats.fused_builds == 1
    speedup = float(np.median(np.divide(times[eager], times[fused])))
    return float(np.median(times[eager])), float(np.median(times[fused])), \
        speedup


def _uncached_grid(cfg):
    """The legacy baseline: a grid search over the tuner's tile space
    that runs one full, uncached simulation per candidate tile (the
    tuner's own objective inputs: seed 0, its offset sigma and bound)."""
    tuner = TileTuner(XAVIER, seed=0)
    off = synth_offsets(cfg, sigma=tuner.offset_sigma, bound=tuner.bound,
                        seed=0)
    x = np.zeros(cfg.input_shape(), dtype=np.float32)
    w = np.zeros(cfg.weight_shape(), dtype=np.float32)
    plan = SamplePlan(seed=0)

    def objective(tile):
        return run_tex2d(x, off, w, None, cfg, XAVIER, tile=tuple(tile),
                         plan=plan, compute_output=False
                         ).sample_kernel.duration_ms

    return grid_search(tuner.space(cfg), objective)


def _tuner_sweep(layers):
    """Exhaustive tile search over a model's layer geometries: legacy
    full-sim grid vs the re-tiled sweep (serial, and fanned over a
    2-worker persistent process pool)."""
    def timed(make_tuner, method):
        tuner = make_tuner()
        t0 = time.perf_counter()
        results = [tuner.tune(cfg, method) for cfg in layers]
        elapsed = time.perf_counter() - t0
        tuner.close()
        return elapsed, results

    t0 = time.perf_counter()
    legacy = [_uncached_grid(cfg) for cfg in layers]
    legacy_s = time.perf_counter() - t0
    serial_s, serial = timed(lambda: TileTuner(XAVIER, seed=0), "sweep")
    fast_s, fast = timed(lambda: TileTuner(XAVIER, seed=0, workers=2),
                         "sweep")
    tiles = 0
    for ref, ser, par in zip(legacy, serial, fast):
        assert par.best_point == ref.best_point, "fast sweep changed winner"
        assert dict(par.history) == dict(ref.history) == \
            dict(ser.history), "re-tiled sweep drifted from full simulation"
        tiles += len(ref.history)
    return legacy_s, serial_s, fast_s, tiles


def regenerate():
    uncached_s, cached_s = _steady_state(LAYER)
    eager_s, fused_s, fused_x = _fused_serving(LAYER)
    legacy_s, serial_s, fast_s, tiles = _tuner_sweep(SWEEP_LAYERS)
    steady_x = uncached_s / cached_s
    serial_x = legacy_s / serial_s
    sweep_x = legacy_s / fast_s
    rows = [
        ["steady-state run_tex2d × %d" % STEADY_ITERS,
         f"{uncached_s * 1e3:.1f}", f"{cached_s * 1e3:.1f}",
         f"{steady_x:.1f}x"],
        ["fused serving forward (median of %d pairs)" % FUSED_PAIRS,
         f"{eager_s * 1e3:.1f}", f"{fused_s * 1e3:.1f}",
         f"{fused_x:.1f}x"],
        ["%d-layer tile sweep, serial (%d tiles)" % (len(SWEEP_LAYERS),
                                                     tiles),
         f"{legacy_s * 1e3:.1f}", f"{serial_s * 1e3:.1f}",
         f"{serial_x:.1f}x"],
        ["%d-layer tile sweep, 2 workers (%d tiles)" % (len(SWEEP_LAYERS),
                                                        tiles),
         f"{legacy_s * 1e3:.1f}", f"{fast_s * 1e3:.1f}",
         f"{sweep_x:.1f}x"],
    ]
    text = format_table(
        ["hot path", "baseline ms", "optimised ms", "speedup"],
        rows,
        title=f"Perf-model hot paths — {LAYER.label()} on {XAVIER.name}; "
              "plan cache + fused execution + one-pass re-tiling + "
              "process-parallel sweep (outputs & stats bit-identical)")
    write_result("perf_model", text)
    write_bench_json(
        "perf_model",
        {"layer": LAYER.label(),
         "sweep_layers": [cfg.label() for cfg in SWEEP_LAYERS],
         "steady_state": {"iters": STEADY_ITERS,
                          "uncached_ms": uncached_s * 1e3,
                          "cached_ms": cached_s * 1e3,
                          "speedup": steady_x},
         "fused_serving": {"iters": FUSED_PAIRS,
                           "eager_ms": eager_s * 1e3,
                           "fused_ms": fused_s * 1e3,
                           "speedup": fused_x},
         "tuner_sweep": {"tiles": tiles,
                         "legacy_ms": legacy_s * 1e3,
                         "serial_ms": serial_s * 1e3,
                         "serial_speedup": serial_x,
                         "fast_ms": fast_s * 1e3,
                         "speedup": sweep_x}},
        device=XAVIER.name)
    return steady_x, fused_x, serial_x, sweep_x


def test_perf_model_hot_paths(benchmark):
    steady_x, fused_x, serial_x, sweep_x = run_once(benchmark, regenerate)
    assert steady_x >= 2.0, f"plan cache speedup {steady_x:.2f}x < 2x"
    assert fused_x >= 2.0, f"fused serving speedup {fused_x:.2f}x < 2x"
    # the re-tiled sweep must clear 3x both serially and with the pool
    # (at this geometry the pool's spawn cost eats part of the win)
    assert serial_x >= 3.0, f"re-tiled sweep speedup {serial_x:.2f}x < 3x"
    assert sweep_x >= 3.0, f"parallel sweep speedup {sweep_x:.2f}x < 3x"
