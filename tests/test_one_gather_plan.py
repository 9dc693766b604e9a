"""One gather plan and one launch model for whole layers and shards.

A fleet shard is a slice :class:`~repro.kernels.fused.FusedPlan` built by
the same :func:`~repro.kernels.fused.build_fused_plan` as a whole layer,
and every backend prices its kernels through one sampling-kernel and one
implicit-GEMM builder.  These tests pin both against the former shard
path and KernelStats construction, kept verbatim in
``shard_reference.py``: columns, ``ShardResult`` fields, stitched and
whole-layer outputs, every ``KernelStats`` field and the plan-cache
counters must match — uncached, cold and warm.  ``stitch_columns`` must
also refuse shards that do not tile the layer.
"""

import numpy as np
import pytest

import lowering_reference
import shard_reference as ref
from repro.deform.deform_conv import deform_im2col_arrays, sampling_positions
from repro.gpusim import RTX_2080TI, XAVIER
from repro.gpusim.trace import SamplePlan
from repro.kernels import LayerConfig, PlanCache, plancache, synth_offsets
from repro.kernels.fused import FusedPlan, build_fused_plan
from repro.kernels.reference import run_reference
from repro.kernels.shards import (SHARD_KINDS, ShardSpec, enumerate_shards,
                                  run_shard, stitch_columns)
from repro.kernels.tex2d import eager_tex2d_forward, launch, run_tex2d
from repro.nas.latency_table import deform_shard_latency_split_ms
from repro.nn.im2col import gemm_epilogue

from helpers import rng

GEOMETRIES = {
    "base": LayerConfig(8, 6, 12, 12),
    "stride2": LayerConfig(8, 6, 13, 11, stride=2),
    "dilation2-dg2": LayerConfig(8, 6, 12, 12, padding=2, dilation=2,
                                 deformable_groups=2),
    "batch3": LayerConfig(4, 6, 10, 10, batch=3),
}
DEVICES = {"xavier": XAVIER, "2080ti": RTX_2080TI}
TILE = (4, 8)
RESULT_FIELDS = ("shard", "l0", "l1", "in_bytes", "out_bytes", "halo_rows")


def _inputs(cfg, seed=0):
    g = rng(seed)
    x = g.normal(size=cfg.input_shape()).astype(np.float32)
    w = g.normal(size=cfg.weight_shape()).astype(np.float32)
    b = g.normal(size=(cfg.out_channels,)).astype(np.float32)
    return x, synth_offsets(cfg, sigma=2.0, seed=seed), w, b


def _same_array(got, want):
    """Same dtype, shape, strides and bits."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def _same_result(got, want):
    for name in RESULT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    _same_array(got.cols, want.cols)
    if want.dest_rows is None:
        assert got.dest_rows is None
    else:
        _same_array(got.dest_rows, want.dest_rows)
    assert got.sample.__dict__ == want.sample.__dict__
    assert got.gemm.__dict__ == want.gemm.__dict__


def _counters(cache):
    return {name: getattr(cache.stats, name) for name in plancache.COUNTERS}


def _former_whole_output(x, off, w, b, cfg, spec, fp16):
    """The former whole-layer forward: its gather loop (the full-height
    row band of the former shard plan) and the reference GEMM epilogue
    into a preallocated buffer."""
    shard = ShardSpec("rows", 0, 1, 0, cfg.out_height)
    if fp16:
        off = off.astype(np.float16).astype(np.float32)
    plan = ref.build_shard_gather_plan(cfg, fp16, shard, lambda: (
        sampling_positions(off, (cfg.height, cfg.width), cfg.kernel_size,
                           cfg.stride, cfg.padding, cfg.dilation,
                           cfg.deformable_groups)))
    w2 = w.reshape(cfg.out_channels, cfg.in_channels * cfg.taps)
    out = np.empty((cfg.batch, cfg.out_channels, cfg.out_pixels),
                   dtype=np.float32)
    return lowering_reference.gemm_epilogue(
        w2, plan.execute(x), b, (cfg.out_height, cfg.out_width), out=out)


def _check_shards(cfg, spec, kind, fp16, split, plan=None):
    x, off, w, b = _inputs(cfg)
    shards = [s for s in enumerate_shards(cfg, kind, split) if s is not None]
    whole = run_tex2d(x, off, w, b, cfg, spec, tile=TILE, fp16_offsets=fp16,
                      plan=plan).output
    cache, former_cache = PlanCache(), ref.ReferencePlanCache()
    for mode in ("uncached", "cold", "warm"):
        pc, former_pc = ((None, None) if mode == "uncached"
                         else (cache, former_cache))
        got, want = [], []
        for s in shards:
            got.append(run_shard(x, off, cfg, spec, s, tile=TILE,
                                 fp16_offsets=fp16, plan=plan,
                                 plan_cache=pc))
            want.append(ref.run_shard(x, off, cfg, spec, s, tile=TILE,
                                      fp16_offsets=fp16, plan=plan,
                                      plan_cache=former_pc))
            _same_result(got[-1], want[-1])
        stitched = stitch_columns(got, w, b, cfg, spec)
        former = stitch_columns(want, w, b, cfg, spec)
        _same_array(stitched.output, former.output)
        assert np.array_equal(stitched.output, whole), mode
        assert stitched.kernels[0].__dict__ == former.kernels[0].__dict__
        if pc is not None:
            assert _counters(cache) == _counters(former_cache), mode
    assert cache.stats.shard_builds == len(shards)
    assert cache.stats.fused_builds == 0


@pytest.mark.parametrize("split", [(2, 1), (1, 1, 1)], ids=["2-1", "1-1-1"])
@pytest.mark.parametrize("fp16", [False, True], ids=["tex2d", "tex2dpp"])
@pytest.mark.parametrize("kind", SHARD_KINDS)
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("device", sorted(DEVICES))
def test_shards_match_former_shard_path(device, geometry, kind, fp16, split):
    _check_shards(GEOMETRIES[geometry], DEVICES[device], kind, fp16, split)


@pytest.mark.parametrize("kind", SHARD_KINDS)
def test_shards_match_former_shard_path_on_sampled_trace(kind):
    """A sampled fetch trace scales its counters by a fraction, so the
    order of the slice's scale product shows in the bits."""
    _check_shards(LayerConfig(8, 6, 24, 24), XAVIER, kind, True, (2, 1),
                  plan=SamplePlan(max_fetches=64, max_warps=8))


@pytest.mark.parametrize("backend", ["pytorch", "tex2d", "tex2dpp"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("device", sorted(DEVICES))
def test_whole_layer_matches_former_launch_model(device, geometry, backend):
    cfg, spec = GEOMETRIES[geometry], DEVICES[device]
    x, off, w, b = _inputs(cfg)
    if backend == "pytorch":
        res = run_reference(x, off, w, b, cfg, spec)
        cols, _ = deform_im2col_arrays(x, off, cfg.kernel_size, cfg.stride,
                                       cfg.padding, cfg.dilation,
                                       cfg.deformable_groups)
        w2 = w.reshape(cfg.out_channels, cfg.in_channels * cfg.taps)
        _same_array(res.output, gemm_epilogue(
            w2, cols, b, (cfg.out_height, cfg.out_width)))
        want = ref.reference_kernels(off, cfg, spec)
        assert [k.__dict__ for k in res.kernels] == [k.__dict__ for k in want]
        return
    fp16 = backend == "tex2dpp"
    former = _former_whole_output(x, off, w, b, cfg, spec, fp16)
    assert np.array_equal(
        former, eager_tex2d_forward(x, off, w, b, cfg, spec, fp16))
    want = [k.__dict__ for k in ref.tex2d_kernels(off, cfg, spec, TILE, fp16)]
    cache = PlanCache()
    for pc in (None, cache, cache):   # uncached, cold, warm
        res = run_tex2d(x, off, w, b, cfg, spec, tile=TILE,
                        fp16_offsets=fp16, plan_cache=pc)
        _same_array(res.output, former)
        assert [k.__dict__ for k in res.kernels] == want
    assert cache.stats.hits == 2 and cache.stats.fused_builds == 1


def test_shard_columns_belong_to_the_caller():
    """Two ``run_shard`` calls on one cache, same shard and offsets, new
    input: the second call's gather leaves the first result's columns
    as they were."""
    cfg = GEOMETRIES["dilation2-dg2"]
    x, off, _, _ = _inputs(cfg)
    x2 = _inputs(cfg, seed=1)[0]
    cache = PlanCache()
    for kind in SHARD_KINDS:
        shard = enumerate_shards(cfg, kind, (1, 2))[0]
        r1 = run_shard(x, off, cfg, XAVIER, shard, tile=TILE,
                       plan_cache=cache)
        before = r1.cols.copy()
        r2 = run_shard(x2, off, cfg, XAVIER, shard, tile=TILE,
                       plan_cache=cache)
        assert r2.cols is not r1.cols
        assert np.array_equal(r1.cols, before)
        assert not np.array_equal(r2.cols, before)
    assert cache.stats.shard_builds == 2   # each second call hit


def test_shard_plan_is_a_gather_only_slice():
    """A shard's plan is the layer's plan over its slice: same tables as
    that slice of the whole layer's, and no GEMM.  A plan holds no
    scratch: ``nbytes`` counts the tap tables, plus a channel slice's
    destination rows."""
    cfg = GEOMETRIES["dilation2-dg2"]
    x, off, w, b = _inputs(cfg)
    pos = sampling_positions(off, (cfg.height, cfg.width), cfg.kernel_size,
                             cfg.stride, cfg.padding, cfg.dilation,
                             cfg.deformable_groups)
    whole = build_fused_plan(cfg, XAVIER, False, lambda: pos)
    cpg = cfg.in_channels // cfg.deformable_groups
    assert (whole.c0, whole.c1, whole.l0, whole.l1) == \
        (0, cpg, 0, cfg.out_pixels)
    assert whole.dest_rows is None
    assert whole.nbytes == whole.idx.nbytes + whole.wts.nbytes
    full = whole.gather(x)
    for kind in SHARD_KINDS:
        for shard in enumerate_shards(cfg, kind, (1, 2)):
            plan = build_fused_plan(cfg, XAVIER, False, lambda: pos, shard)
            rows = 0 if plan.dest_rows is None else plan.dest_rows.nbytes
            assert (kind == "channels") == (rows > 0)
            assert plan.nbytes == plan.idx.nbytes + plan.wts.nbytes + rows
            cols = plan.gather(x)
            if kind == "rows":
                expect = full[:, :, plan.l0:plan.l1]
            else:
                expect = full[:, plan.dest_rows, :]
            assert np.array_equal(cols, expect)
            with pytest.raises(ValueError, match="only gathers"):
                plan.execute(x, w, b)


def test_slice_ranges_are_checked_when_the_plan_is_built():
    cfg = GEOMETRIES["base"]
    _, off, _, _ = _inputs(cfg)
    pos = sampling_positions(off, (cfg.height, cfg.width), cfg.kernel_size,
                             cfg.stride, cfg.padding, cfg.dilation, 1)
    with pytest.raises(ValueError, match="exceeds out_height"):
        build_fused_plan(cfg, XAVIER, False, lambda: pos,
                         ShardSpec("rows", 0, 1, 0, cfg.out_height + 1))
    with pytest.raises(ValueError, match="exceeds channels-per-group"):
        build_fused_plan(cfg, XAVIER, False, lambda: pos,
                         ShardSpec("channels", 0, 1, 0, cfg.in_channels + 1))


@pytest.mark.parametrize("kind, hashes_per_call",
                         [("channels", 1), ("rows", 2)])
def test_shard_call_hashes_each_offsets_key_once(kind, hashes_per_call,
                                                 monkeypatch):
    """A channel slice keys its plan and its trace on the layer's
    offsets: one hash.  A row band keys its plan on the layer's offsets
    and its trace on the band's: two.  Cold and warm alike."""
    cfg = GEOMETRIES["base"]
    x, off, _, _ = _inputs(cfg)
    shard = enumerate_shards(cfg, kind, (1, 1))[1]
    hashes = []
    real_digest = plancache.offsets_digest

    def counting_digest(offset):
        hashes.append(offset.shape)
        return real_digest(offset)

    monkeypatch.setattr(plancache, "offsets_digest", counting_digest)
    cache = PlanCache()
    for _ in ("cold", "warm"):
        hashes.clear()
        run_shard(x, off, cfg, XAVIER, shard, plan_cache=cache)
        assert len(hashes) == hashes_per_call
    assert (cache.stats.hits, cache.stats.misses) == (2, 2)
    hashes.clear()
    run_shard(x, off, cfg, XAVIER, shard)
    assert hashes == []


# ----------------------------------------------------------------------
# one launch: a price is a launch with no input
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fp16", [False, True], ids=["tex2d", "tex2dpp"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_full_slices_launch_the_whole_layers_sampling_kernel(geometry,
                                                             fp16):
    """A full-height row band and a full-width channel slice sample what
    the whole layer samples: every field of the sampling kernel but its
    name is equal — uncached, cold and warm."""
    cfg = GEOMETRIES[geometry]
    _, off, _, _ = _inputs(cfg)
    full = (ShardSpec("rows", 0, 1, 0, cfg.out_height),
            ShardSpec("channels", 0, 1, 0,
                      cfg.in_channels // cfg.deformable_groups))

    def sampling(pc, shard=None):
        stats = launch(None, off, cfg, XAVIER, TILE, fp16, None, pc,
                       shard).kernels[0]
        return {k: v for k, v in stats.__dict__.items() if k != "name"}

    cache = PlanCache()
    for pc in (None, cache, cache):
        whole = sampling(pc)
        for shard in full:
            assert sampling(pc, shard) == whole, (shard.kind, pc)


@pytest.mark.parametrize("kind", SHARD_KINDS)
def test_shard_price_gathers_nothing_and_draws_no_input(kind, monkeypatch):
    """The shard planner's price returns the former shard path's (sample
    ms, GEMM ms), which it computed after drawing a random input and
    gathering its columns; now it calls no gather and draws no input."""
    cfg = LayerConfig(16, 16, 12, 12)
    shards = enumerate_shards(cfg, kind, (1, 1))
    x = rng(0).normal(size=cfg.input_shape()).astype(np.float32)
    off = synth_offsets(cfg, bound=7.0, seed=0)
    want = [ref.run_shard(x, off, cfg, XAVIER, s, fp16_offsets=True)
            for s in shards]

    def no_gather(self, x):
        raise AssertionError("a price gathered columns")

    drawn = []
    real_rng = np.random.default_rng

    class RecordingRng:
        def __init__(self, *args, **kwargs):
            self._rng = real_rng(*args, **kwargs)

        def normal(self, *args, size=None, **kwargs):
            drawn.append(size)
            return self._rng.normal(*args, size=size, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(FusedPlan, "gather", no_gather)
    monkeypatch.setattr(np.random, "default_rng", RecordingRng)
    for shard, former in zip(shards, want):
        assert deform_shard_latency_split_ms(cfg, XAVIER, shard) == \
            (former.sample.duration_ms, former.gemm.duration_ms)
    assert drawn and cfg.input_shape() not in drawn


# ----------------------------------------------------------------------
# stitch_columns takes only shards that tile the layer
# ----------------------------------------------------------------------
def _stitch(kind, spans):
    cfg = LayerConfig(8, 6, 12, 12)   # 12 output rows, 8 channels a group
    x, off, w, b = _inputs(cfg)
    results = [run_shard(x, off, cfg, XAVIER,
                         ShardSpec(kind, i, len(spans), lo, hi))
               for i, (lo, hi) in enumerate(spans)]
    return stitch_columns(results, w, b, cfg, XAVIER), \
        run_tex2d(x, off, w, b, cfg, XAVIER).output


@pytest.mark.parametrize("kind, spans", [
    ("rows", [(0, 6), (0, 6)]),          # duplicate band, half uncovered
    ("rows", [(0, 6), (5, 11)]),         # overlap + gap, count matches
    ("rows", [(0, 7), (6, 12)]),         # overlap
    ("rows", [(0, 5), (6, 12)]),         # gap
    ("rows", [(0, 6)]),                  # missing band
    ("channels", [(0, 4), (2, 6)]),      # overlap + gap, count matches
    ("channels", [(0, 4), (0, 4)]),      # duplicate slice
    ("channels", [(0, 5), (4, 8)]),      # overlap
    ("channels", [(0, 4), (5, 8)]),      # gap
])
def test_stitch_rejects_shards_that_do_not_tile(kind, spans):
    with pytest.raises(ValueError, match="non-tiling"):
        _stitch(kind, spans)


def test_stitch_rejects_mixed_kinds():
    cfg = LayerConfig(8, 6, 12, 12)
    x, off, w, b = _inputs(cfg)
    results = [run_shard(x, off, cfg, XAVIER,
                         ShardSpec("rows", 0, 1, 0, cfg.out_height)),
               run_shard(x, off, cfg, XAVIER,
                         ShardSpec("channels", 0, 1, 0, cfg.in_channels))]
    with pytest.raises(ValueError, match="non-tiling"):
        stitch_columns(results, w, b, cfg, XAVIER)
    with pytest.raises(ValueError, match="non-tiling"):
        stitch_columns([], w, b, cfg, XAVIER)


@pytest.mark.parametrize("kind, spans", [
    ("rows", [(6, 12), (0, 6)]),
    ("rows", [(0, 12)]),
    ("channels", [(5, 8), (0, 2), (2, 5)]),
])
def test_stitch_accepts_tilings_in_any_order(kind, spans):
    stitched, whole = _stitch(kind, spans)
    assert np.array_equal(stitched.output, whole)
