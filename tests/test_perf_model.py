"""Hot-path perf-model invariants: plan cache, one-pass re-tiling,
process-parallel sweep.

The optimisations in docs/performance.md are pure wall-time wins — every
test here pins the *bit-identical* contract: cached, re-tiled and parallel
paths must reproduce the uncached simulation exactly, not approximately.
"""

import numpy as np
import pytest

from repro.gpusim import XAVIER
from repro.gpusim.cache import TextureCacheModel
from repro.gpusim.trace import (SamplePlan, cta_ids_for_tile,
                                texture_fetch_trace)
from repro.autotune import TileTuner, grid_search
from repro.deform.deform_conv import sampling_positions
from repro.kernels import LayerConfig, PlanCache, offsets_digest, synth_offsets
from repro.kernels.tex2d import run_tex2d
from repro.obs import MetricsRegistry, SpanTracer

from helpers import rng

GEOMETRIES = [
    LayerConfig(8, 8, 20, 20),
    LayerConfig(4, 4, 17, 23, stride=2),
    LayerConfig(8, 8, 14, 14, dilation=2, padding=2),
    LayerConfig(8, 8, 16, 16, deformable_groups=2),
]
TILES = [(4, 4), (8, 8), (16, 16), (8, 32), (2, 2)]


def _positions(cfg, seed=0, sigma=2.0):
    off = synth_offsets(cfg, sigma=sigma, seed=seed)
    py, px = sampling_positions(off, (cfg.height, cfg.width),
                                cfg.kernel_size, cfg.stride, cfg.padding,
                                cfg.dilation, cfg.deformable_groups)
    return off, py[0, 0], px[0, 0]


def _inputs(cfg, seed=0):
    g = rng(seed)
    x = g.normal(size=cfg.input_shape()).astype(np.float32)
    w = g.normal(size=cfg.weight_shape()).astype(np.float32)
    off = synth_offsets(cfg, seed=seed)
    return x, off, w


# ----------------------------------------------------------------------
# one-pass re-tiling == fresh simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cfg", GEOMETRIES, ids=lambda c: c.label())
def test_retiled_simulation_bit_identical(cfg):
    """precompute + simulate_retiled replays simulate() exactly, for every
    tile, on random (smooth) offsets."""
    _, py, px = _positions(cfg)
    model = TextureCacheModel(XAVIER)
    y0 = np.floor(py).ravel().astype(np.int64)
    x0 = np.floor(px).ravel().astype(np.int64)
    k, l = py.shape
    pixel = np.broadcast_to(np.arange(l), (k, l)).ravel()
    trace = model.precompute(y0, x0, pixel, cfg.height, cfg.width)
    for tile in TILES:
        ty0, tx0, cta, scale = texture_fetch_trace(py, px, cfg.out_width,
                                                   tile, SamplePlan())
        assert scale == 1.0
        fresh = model.simulate(ty0, tx0, cta, cfg.height, cfg.width)
        retiled = model.simulate_retiled(
            trace, cta_ids_for_tile(cfg.out_height, cfg.out_width, tile))
        assert retiled == fresh          # bit-identical, not approx


def test_retiled_simulation_all_corners_out_of_bounds():
    cfg = LayerConfig(4, 4, 8, 8)
    model = TextureCacheModel(XAVIER)
    y0 = np.full(cfg.taps * cfg.out_pixels, -10, dtype=np.int64)
    x0 = np.full_like(y0, -10)
    pixel = np.broadcast_to(np.arange(cfg.out_pixels),
                            (cfg.taps, cfg.out_pixels)).ravel()
    trace = model.precompute(y0, x0, pixel, cfg.height, cfg.width)
    st = model.simulate_retiled(
        trace, cta_ids_for_tile(cfg.out_height, cfg.out_width, (4, 4)))
    assert st.texel_reads == 0 and st.misses == 0 and st.hits == 0


# ----------------------------------------------------------------------
# plan cache == uncached run_tex2d
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fp16", [False, True], ids=["tex2d", "tex2dpp"])
@pytest.mark.parametrize("cfg", GEOMETRIES[:2], ids=lambda c: c.label())
def test_plan_cache_stats_bit_identical(cfg, fp16):
    x, off, w = _inputs(cfg)
    cache = PlanCache()
    for tile in TILES[:3]:
        ref = run_tex2d(x, off, w, None, cfg, XAVIER, tile=tile,
                        fp16_offsets=fp16, compute_output=False)
        for _ in range(2):               # miss then hit: both identical
            got = run_tex2d(x, off, w, None, cfg, XAVIER, tile=tile,
                            fp16_offsets=fp16, compute_output=False,
                            plan_cache=cache)
            assert got.sample_kernel == ref.sample_kernel
            assert got.kernels[1] == ref.kernels[1]
    # 3 tiles × 2 runs: one trace build, misses on first sight of each
    # (tile, layers) combo, hits after
    assert cache.stats.trace_builds == 1
    assert cache.stats.misses == 3
    assert cache.stats.hits == 3


def test_plan_cache_distinguishes_offsets():
    cfg = GEOMETRIES[0]
    x, off_a, w = _inputs(cfg, seed=0)
    off_b = synth_offsets(cfg, seed=99)
    assert offsets_digest(off_a) != offsets_digest(off_b)
    cache = PlanCache()
    for off in (off_a, off_b):
        ref = run_tex2d(x, off, w, None, cfg, XAVIER,
                        compute_output=False)
        got = run_tex2d(x, off, w, None, cfg, XAVIER,
                        compute_output=False, plan_cache=cache)
        assert got.sample_kernel == ref.sample_kernel
    assert cache.stats.trace_builds == 2


def test_plan_cache_lru_eviction_stays_correct():
    cfg = GEOMETRIES[0]
    x, _, w = _inputs(cfg)
    registry = MetricsRegistry()
    cache = PlanCache(max_entries=1, registry=registry)
    offs = [synth_offsets(cfg, seed=s) for s in range(3)]
    refs = [run_tex2d(x, off, w, None, cfg, XAVIER, compute_output=False)
            for off in offs]
    # cycle twice through 3 offset tensors with capacity 1: every lookup
    # misses and rebuilds, but results never drift
    for _ in range(2):
        for off, ref in zip(offs, refs):
            got = run_tex2d(x, off, w, None, cfg, XAVIER,
                            compute_output=False, plan_cache=cache)
            assert got.sample_kernel == ref.sample_kernel
    assert len(cache) == 1
    assert cache.stats.trace_builds == 6   # evicted every time
    assert cache.stats.hits == 0
    # every eviction lands on the registry the cache counts on
    assert cache.stats.evictions == 5
    assert registry.counter("plan_cache_evictions").value() == \
        cache.stats.evictions


def test_plan_cache_sampled_trace_fallback_bit_identical():
    """Beyond plan.max_fetches the trace is CTA-sampled (tile-dependent);
    the cache must replay that sampling exactly per tile."""
    cfg = LayerConfig(4, 4, 40, 40)
    x, off, w = _inputs(cfg)
    plan = SamplePlan(max_fetches=cfg.taps * cfg.out_pixels // 4)
    cache = PlanCache()
    for tile in ((8, 8), (4, 16), (16, 16)):
        ref = run_tex2d(x, off, w, None, cfg, XAVIER, tile=tile, plan=plan,
                        compute_output=False)
        got = run_tex2d(x, off, w, None, cfg, XAVIER, tile=tile, plan=plan,
                        compute_output=False, plan_cache=cache)
        assert got.sample_kernel == ref.sample_kernel
    assert cache.stats.trace_builds == 1


def test_plan_cache_functional_output_unchanged():
    cfg = GEOMETRIES[0]
    x, off, w = _inputs(cfg)
    ref = run_tex2d(x, off, w, None, cfg, XAVIER)
    got = run_tex2d(x, off, w, None, cfg, XAVIER, plan_cache=PlanCache())
    np.testing.assert_array_equal(got.output, ref.output)
    assert got.sample_kernel == ref.sample_kernel


def test_plan_cache_observability():
    cfg = GEOMETRIES[0]
    x, off, w = _inputs(cfg)
    registry = MetricsRegistry()
    tracer = SpanTracer()
    cache = PlanCache(registry=registry, tracer=tracer)
    for _ in range(3):
        run_tex2d(x, off, w, None, cfg, XAVIER, compute_output=False,
                  plan_cache=cache)
    snap = registry.snapshot()
    lookups = {tuple(sorted(s["labels"].items())): s["value"]
               for s in snap["plan_cache_lookups"]["series"]}
    assert lookups[(("result", "hit"),)] == 2.0
    assert lookups[(("result", "miss"),)] == 1.0
    assert snap["plan_cache_trace_builds"]["series"][0]["value"] == 1.0
    names = {e["name"] for e in tracer.chrome_trace()["traceEvents"]
             if e.get("cat") == "plancache"}
    assert names == {"plancache.build_trace", "plancache.retile"}
    assert cache.stats.hit_rate == pytest.approx(100.0 * 2 / 3)


def test_shared_plan_cache_keeps_first_registry():
    """An engine receiving an already-bound shared cache must not re-bind
    its counters onto its own registry (which would hijack subsequent
    increments away from the registry ``--metrics-out`` writes)."""
    from repro.models import build_classifier
    from repro.nas import manual_interval_placement
    from repro.pipeline import DefconEngine

    model = build_classifier("r50s",
                             placement=manual_interval_placement(9, 3),
                             bound=7.0, seed=0)
    imgs = rng(0).uniform(0, 1, size=(1, 3, 64, 64)).astype(np.float32)
    first = DefconEngine(model, XAVIER, backend="tex2dpp")
    first.classify(imgs)
    second = DefconEngine(model, XAVIER, backend="tex2dpp",
                          plan_cache=first.plan_cache)
    second.classify(imgs)
    assert second.plan_cache is first.plan_cache
    snap = first.registry.snapshot()
    total = sum(s["value"] for s in snap["plan_cache_lookups"]["series"])
    assert total == float(first.plan_cache.stats.lookups)
    assert "plan_cache_lookups" not in second.registry.snapshot()


def test_plan_cache_counts_on_its_registry_from_the_first_call():
    """A cache counts every lookup on the registry it is built with from
    the first call; one built without a registry counts on its own
    ``cache.registry``; ``cache.stats`` reads both back as ints."""
    cfg = GEOMETRIES[0]
    x, off, w = _inputs(cfg)
    registry = MetricsRegistry()
    bound = PlanCache(registry=registry)
    private = PlanCache()
    assert bound.registry is registry
    assert private.registry is not registry
    for cache in (bound, private):
        lookups = cache.registry.get("plan_cache_lookups")
        for call in range(2):
            run_tex2d(x, off, w, None, cfg, XAVIER, compute_output=False,
                      plan_cache=cache)
            assert lookups.value(result="miss") == 1.0
            assert lookups.value(result="hit") == float(call)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.trace_builds) == (1, 1, 1)
        assert all(type(getattr(stats, name)) is int
                   for name in ("hits", "misses", "trace_builds",
                                "fused_builds", "delta_hits",
                                "delta_rejects", "evictions"))
    # the private cache's lookups never reached the other registry
    assert registry.get("plan_cache_lookups").value(result="miss") == 1.0


# ----------------------------------------------------------------------
# tuner: re-tiled sweep and process-parallel sweep
# ----------------------------------------------------------------------
def _uncached_grid(cfg):
    """Grid search with one full, uncached simulation per candidate tile
    (the tuner's objective inputs, no plan cache)."""
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


def test_sweep_matches_legacy_grid_exactly():
    cfg = LayerConfig(16, 16, 28, 28)
    fast = TileTuner(XAVIER, seed=0).tune(cfg, "sweep")
    legacy = _uncached_grid(cfg)
    assert fast.best_point == legacy.best_point
    assert fast.best_value == legacy.best_value
    assert dict(fast.history) == dict(legacy.history)


def test_parallel_sweep_identical_to_serial():
    cfg = LayerConfig(16, 16, 28, 28)
    serial = TileTuner(XAVIER, seed=0).tune(cfg, "sweep")
    parallel = TileTuner(XAVIER, seed=0, workers=2).tune(cfg, "sweep")
    assert parallel.best_point == serial.best_point
    assert parallel.history == serial.history


def test_tuner_uncached_mode_removed():
    with pytest.raises(ValueError, match="uncached mode was removed"):
        TileTuner(XAVIER, plan_cache=False)


def test_parallel_sweep_falls_back_to_serial(monkeypatch):
    """A dead pool (sandbox, pickling failure...) degrades to the serial
    sweep with identical results instead of erroring out."""
    import repro.autotune.tuner as tuner_mod

    cfg = LayerConfig(8, 8, 20, 20)
    serial = TileTuner(XAVIER, seed=0).tune(cfg, "sweep")
    monkeypatch.setattr(tuner_mod.TileTuner, "_sweep_parallel",
                        lambda self, cfg, tiles: None)
    broken = TileTuner(XAVIER, seed=0, workers=4).tune(cfg, "sweep")
    assert broken.history == serial.history


def test_parallel_pool_persists_across_sweeps():
    cfgs = [LayerConfig(8, 8, 20, 20), LayerConfig(8, 8, 16, 16)]
    with TileTuner(XAVIER, seed=0, workers=2) as tuner:
        tuner.tune(cfgs[0], "sweep")
        pool = tuner._pool
        assert pool is not None          # spawned lazily on first sweep
        tuner.tune(cfgs[1], "sweep")
        assert tuner._pool is pool       # ... and reused, not respawned
    assert tuner._pool is None           # context exit shuts it down


def test_sweep_shares_plan_cache_instance():
    cfg = LayerConfig(8, 8, 20, 20)
    cache = PlanCache()
    tuner = TileTuner(XAVIER, seed=0, plan_cache=cache)
    result = tuner.tune(cfg, "sweep")
    assert cache.stats.trace_builds == 1          # one trace for the sweep
    assert cache.stats.misses == len(result.history)
    # a second search over the same layer reuses every tile's stats
    tuner2 = TileTuner(XAVIER, seed=0, plan_cache=cache)
    tuner2.tune(cfg, "sweep")
    assert cache.stats.trace_builds == 1
    assert cache.stats.hits == len(result.history)
