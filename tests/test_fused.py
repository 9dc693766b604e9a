"""Fused execution == the eager texture-fetch reference, bit for bit.

Fused execution (docs/performance.md) is the texture backends' only
functional path: a compiled :class:`~repro.kernels.fused.FusedPlan`
replays the exact gather/blend/contract sequence of the eager reference
(:func:`~repro.kernels.tex2d.eager_tex2d_forward`) into per-call
scratch.  Every test here pins the bit-identical contract — outputs
against the reference, KernelStats against the uncached run, for both
the plan-cached and the one-shot (no cache) plan — plus the plan-cache
mechanics the plans ride on: shared LRU lifetime with the trace entry,
clean rebuild after eviction, coalesced concurrent builds, resident
bytes, and digest-on-quantised-offsets keying for tex2D++.
"""

import sys
import threading

import numpy as np
import pytest

from repro.gpusim import XAVIER
from repro.gpusim.trace import SamplePlan
from repro.kernels import LayerConfig, PlanCache, run_deform_op, synth_offsets
from repro.kernels.fused import build_fused_plan
from repro.kernels.shards import enumerate_shards, run_shard
from repro.kernels.tex2d import eager_tex2d_forward, run_tex2d

from helpers import rng

GEOMETRIES = [
    LayerConfig(8, 8, 20, 20),
    LayerConfig(4, 4, 17, 23, stride=2),
    LayerConfig(8, 8, 14, 14, dilation=2, padding=2),
    LayerConfig(8, 8, 16, 16, deformable_groups=2),
    LayerConfig(8, 6, 12, 18, batch=2, deformable_groups=4, stride=2),
]
TILES = [(4, 4), (8, 8), (8, 32)]


def _inputs(cfg, seed=0, sigma=2.0):
    g = rng(seed)
    x = g.normal(size=cfg.input_shape()).astype(np.float32)
    w = g.normal(size=cfg.weight_shape()).astype(np.float32)
    b = g.normal(size=(cfg.out_channels,)).astype(np.float32)
    off = synth_offsets(cfg, sigma=sigma, seed=seed)
    return x, off, w, b


def _stats_dicts(res):
    return [k.__dict__ for k in res.kernels]


# ----------------------------------------------------------------------
# fuzz: fused == eager reference over geometries × backends × tiles ×
# offsets × (plan-cached, one-shot)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cfg", GEOMETRIES, ids=lambda c: c.label())
@pytest.mark.parametrize("backend", ["tex2d", "tex2dpp"])
def test_fused_bit_identical_random_offsets(cfg, backend):
    """Random offsets, several seeds and tiles, with and without a plan
    cache: outputs match the eager reference exactly and every kernel
    stat matches the uncached run (fp32 and fp16-offset variants)."""
    for seed in range(3):
        # wild offsets too — border-clipped taps exercise the folded mask
        sigma = 2.0 if seed < 2 else 25.0
        x, off, w, b = _inputs(cfg, seed=seed, sigma=sigma)
        eager = eager_tex2d_forward(x, off, w, b, cfg, XAVIER,
                                    fp16_offsets=backend == "tex2dpp")
        for tile in TILES:
            oneshot = run_deform_op(backend, x, off, w, b, cfg, XAVIER,
                                    tile=tile)
            cached = run_deform_op(backend, x, off, w, b, cfg, XAVIER,
                                   tile=tile, plan_cache=PlanCache())
            for res in (oneshot, cached):
                assert np.array_equal(res.output, eager)
            assert _stats_dicts(cached) == _stats_dicts(oneshot)


def test_fused_bias_free_and_fresh_output():
    """No-bias path matches too (one-shot and cached), and repeated calls
    hand out independent arrays."""
    cfg = GEOMETRIES[0]
    x, off, w, _ = _inputs(cfg)
    eager = eager_tex2d_forward(x, off, w, None, cfg, XAVIER)
    for pc in (None, PlanCache()):
        first = run_tex2d(x, off, w, None, cfg, XAVIER, plan_cache=pc).output
        assert np.array_equal(first, eager)
        snapshot = first.copy()
        second = run_tex2d(x, off, w, None, cfg, XAVIER,
                           plan_cache=pc).output
        second += 1.0  # mutating one result must not corrupt the other
        assert np.array_equal(first, snapshot)


# ----------------------------------------------------------------------
# plan-cache mechanics: shared lifetime, eviction, reuse accounting
# ----------------------------------------------------------------------
def test_fused_plan_reused_across_calls():
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    pc = PlanCache()
    for _ in range(4):
        run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc)
    assert pc.stats.fused_builds == 1
    assert pc.stats.trace_builds == 1


def test_fused_plan_evicted_mid_stream_rebuilds_cleanly():
    """LRU eviction of the shared trace entry drops the FusedPlan with
    it; the next call rebuilds and stays bit-identical."""
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    pc = PlanCache(max_entries=1)
    expected = run_tex2d(x, off, w, b, cfg, XAVIER).output
    run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc)
    # a different offset tensor claims the only slot → eviction
    other = synth_offsets(cfg, seed=99)
    run_tex2d(x, other, w, b, cfg, XAVIER, plan_cache=pc)
    assert len(pc) == 1
    out = run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc).output
    assert np.array_equal(out, expected)
    assert pc.stats.fused_builds == 3  # original + other + rebuild


def test_fused_plans_per_channel_shape_share_entry():
    """Same offsets, different in/out channels: one trace entry carries
    one FusedPlan per (in_channels, out_channels)."""
    base = LayerConfig(8, 8, 20, 20)
    wide = LayerConfig(8, 12, 20, 20)
    x, off, w, b = _inputs(base)
    g = rng(7)
    w2 = g.normal(size=wide.weight_shape()).astype(np.float32)
    b2 = g.normal(size=(wide.out_channels,)).astype(np.float32)
    pc = PlanCache()
    run_tex2d(x, off, w, b, base, XAVIER, plan_cache=pc)
    run_tex2d(x, off, w2, b2, wide, XAVIER, plan_cache=pc)
    assert pc.stats.fused_builds == 2
    assert pc.stats.trace_builds == 1    # the trace itself is shared
    assert len(pc) == 1


def test_cached_plan_holds_only_its_tap_tables():
    """A fresh 16→16, 32×32, batch-4 tex2D++ layer (the first DCN site of
    the benchmark's detect model): its cached plan keeps the corner
    indices and blend weights, and no execution scratch."""
    cfg = LayerConfig(16, 16, 32, 32, batch=4)
    x, off, w, b = _inputs(cfg)
    pc = PlanCache()
    run_tex2d(x, off, w, b, cfg, XAVIER, fp16_offsets=True, plan_cache=pc)
    (entry,) = pc._entries.values()
    (plan,) = entry.fused.values()
    assert plan.nbytes == plan.idx.nbytes + plan.wts.nbytes == 1_769_472
    assert entry.y0 is None and entry.x0 is None   # exact trace: lines only
    assert _resident(pc) == entry.nbytes


def test_build_fused_plan_rejects_oversize_texture():
    cfg = LayerConfig(8, 8, 20, 20, batch=XAVIER.max_texture_extent[2])
    off = synth_offsets(cfg, seed=0)
    from repro.deform.deform_conv import sampling_positions
    with pytest.raises(ValueError, match="texture extent"):
        build_fused_plan(cfg, XAVIER, False, lambda: sampling_positions(
            off, (cfg.height, cfg.width), cfg.kernel_size, cfg.stride,
            cfg.padding, cfg.dilation, cfg.deformable_groups))


# ----------------------------------------------------------------------
# tex2D++ keys on *quantised* offsets
# ----------------------------------------------------------------------
def test_fp16_digest_dedupes_quantisation_equivalent_offsets():
    """Two distinct fp32 offset tensors that quantise to the same fp16
    values are the same tex2D++ launch — one entry, one trace build."""
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    # perturb far below fp16 resolution, then revert the rare elements
    # that sat exactly on a rounding boundary — off2 differs in fp32 but
    # quantises identically by construction
    off2 = off + np.float32(1e-6)
    boundary = off.astype(np.float16) != off2.astype(np.float16)
    off2[boundary] = off[boundary]
    assert not np.array_equal(off, off2)
    assert np.array_equal(off.astype(np.float16), off2.astype(np.float16))
    pc = PlanCache()
    r1 = run_deform_op("tex2dpp", x, off, w, b, cfg, XAVIER, plan_cache=pc)
    r2 = run_deform_op("tex2dpp", x, off2, w, b, cfg, XAVIER, plan_cache=pc)
    assert pc.stats.trace_builds == 1
    assert len(pc) == 1
    assert pc.stats.hits == 2            # fused plan + perf stats
    assert np.array_equal(r1.output, r2.output)
    # plain tex2d must still see them as distinct offset tensors
    pc32 = PlanCache()
    run_deform_op("tex2d", x, off, w, b, cfg, XAVIER, plan_cache=pc32)
    run_deform_op("tex2d", x, off2, w, b, cfg, XAVIER, plan_cache=pc32)
    assert pc32.stats.trace_builds == 2


# ----------------------------------------------------------------------
# concurrency: misses coalesce onto one build; mixed traffic stays exact
# ----------------------------------------------------------------------
def _resident(pc):
    return pc.registry.get("plan_cache_resident_bytes").value()


def _hammer(n_threads, fn):
    start = threading.Barrier(n_threads)
    errors = []

    def work(i):
        start.wait()
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "worker hung"
    assert not errors, errors


def test_concurrent_misses_build_trace_exactly_once():
    """The double-build race: N threads missing the same key must
    coalesce onto one ``_build_entry`` — ``trace_builds`` stays exact."""
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    for trial in range(5):
        pc = PlanCache()
        _hammer(8, lambda i: run_tex2d(x, off, w, b, cfg, XAVIER,
                                       compute_output=False, plan_cache=pc))
        assert pc.stats.trace_builds == 1, f"trial {trial}"
        assert len(pc) == 1


def test_concurrent_fused_calls_compile_once_and_agree():
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    expected = run_tex2d(x, off, w, b, cfg, XAVIER).output
    for trial in range(3):
        pc = PlanCache()
        outs = []

        def call(i):
            outs.append(run_tex2d(x, off, w, b, cfg, XAVIER,
                                  plan_cache=pc).output)

        _hammer(6, call)
        assert pc.stats.fused_builds == 1, f"trial {trial}"
        assert pc.stats.trace_builds == 1
        for out in outs:
            assert np.array_equal(out, expected)


def test_concurrent_distinct_keys_still_build_each():
    """Coalescing must be per key — distinct offsets build separately."""
    cfg = GEOMETRIES[0]
    x, _, w, b = _inputs(cfg)
    offsets = [synth_offsets(cfg, seed=s) for s in range(4)]
    pc = PlanCache()
    _hammer(8, lambda i: run_tex2d(x, offsets[i % len(offsets)], w, b, cfg,
                                   XAVIER, compute_output=False,
                                   plan_cache=pc))
    assert pc.stats.trace_builds == len(offsets)
    assert len(pc) == len(offsets)


def test_concurrent_mixed_lookups_with_evictions_stay_exact():
    """8 threads drive ``run_tex2d`` calls on shared and on per-thread
    perturbed offsets plus ``run_shard`` calls, over more offset tensors
    than the cache holds, so entries are evicted mid-run.  Every output
    and every whole-layer KernelStats equals the one-shot (no cache)
    run, every lookup counts exactly one hit or miss, and no in-flight
    guard is left."""
    cfg = LayerConfig(8, 8, 16, 16, deformable_groups=2)
    x, _, w, b = _inputs(cfg)
    offsets = [synth_offsets(cfg, sigma=2.0, seed=s) for s in range(6)]
    shards = [s for kind in ("rows", "channels")
              for s in enumerate_shards(cfg, kind, (1, 1))]
    pc = PlanCache(max_entries=8)
    issued = [0] * 8
    checks = []

    def frames(i):
        # each thread's own sequence of slightly perturbed offsets
        g = rng(100 + i)
        base = offsets[i % len(offsets)]
        for f in range(4):
            yield base + g.uniform(-0.1, 0.1, size=base.shape).astype(
                np.float32) * np.float32(f > 0)

    def work(i):
        for step, frame in enumerate(frames(i)):
            # every thread's plain call of a step shares one key, so
            # misses race and coalesce
            off = offsets[step % len(offsets)]
            res = run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc)
            checks.append(("plain", off, None, res))
            res = run_tex2d(x, frame, w, b, cfg, XAVIER, plan_cache=pc)
            checks.append(("frame", frame, None, res))
            off = offsets[(i + step) % len(offsets)]
            shard = shards[(i + step) % len(shards)]
            res = run_shard(x, off, cfg, XAVIER, shard, plan_cache=pc)
            checks.append(("shard", off, shard, res))
            issued[i] += 6   # two lookups per call

    _hammer(8, work)
    stats = pc.stats
    assert stats.hits + stats.misses == sum(issued)
    assert stats.evictions > 0
    assert len(pc) <= pc.max_entries
    assert not pc._building, "in-flight build guard left behind"
    resident = sum(e.nbytes for e in pc._entries.values())
    assert resident > 0 and any(e.shards for e in pc._entries.values())
    assert _resident(pc) == resident
    for kind, off, shard, res in checks:
        if kind == "shard":
            ref = run_shard(x, off, cfg, XAVIER, shard)
            assert np.array_equal(res.cols, ref.cols)
            assert res.sample == ref.sample and res.gemm == ref.gemm
            continue
        ref = run_tex2d(x, off, w, b, cfg, XAVIER)
        assert np.array_equal(res.output, ref.output), kind
        assert _stats_dicts(res) == _stats_dicts(ref), kind
    pc.clear()
    assert _resident(pc) == 0 == sum(e.nbytes for e in pc._entries.values())


# ----------------------------------------------------------------------
# sample-plan interaction: fused path works with a sampled trace too
# ----------------------------------------------------------------------
def test_fused_with_sampling_plan_bit_identical():
    cfg = LayerConfig(8, 8, 24, 24)
    x, off, w, b = _inputs(cfg)
    plan = SamplePlan(max_fetches=64, max_warps=8)
    oneshot = run_tex2d(x, off, w, b, cfg, XAVIER, plan=plan)
    cached = run_tex2d(x, off, w, b, cfg, XAVIER, plan=plan,
                       plan_cache=PlanCache())
    eager = eager_tex2d_forward(x, off, w, b, cfg, XAVIER)
    assert np.array_equal(oneshot.output, eager)
    assert np.array_equal(cached.output, eager)
    assert _stats_dicts(cached) == _stats_dicts(oneshot)
