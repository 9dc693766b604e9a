"""The DCN plan-cache miss path: exact counting in place of hash-sorts,
one offsets hash per call, geometry tables built once, each axis
resolved once for the tap tables and the line trace, and one plan-cache
transaction per launch.

Every change here must leave the same bits: the trace's deduplicated
(pixel, line) pairs equal ``np.unique``'s arrays, dtype included, the
line trace equals the verbatim copy in ``tests/trace_reference.py``, and
the texture taps and tap tables equal the verbatim copies in
``tests/texture_reference.py``.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import repro.kernels.plancache as plancache
import repro.kernels.tex2d as tex2d
import repro.pipeline.engine as engine
import texture_reference as ref
import trace_reference
from repro.deform import DeformConv2d
from repro.deform.deform_conv import _base_positions, sampling_positions
from repro.gpusim import XAVIER
from repro.gpusim.cache import TABLE_BOUND, TextureCacheModel, unique_keys
from repro.gpusim.profiler import ProfileLog
from repro.gpusim.texture import ADDRESS_MODES, linear_filter_taps
from repro.gpusim.trace import cta_ids_for_tile, texture_fetch_trace
from repro.autotune import TileTuner
from repro.kernels import LayerConfig, PlanCache, synth_offsets
from repro.kernels.fused import build_fused_plan, tap_tables
from repro.kernels.shards import ShardSpec
from repro.kernels.tex2d import run_tex2d
from repro.tensor import Tensor

from helpers import rng


def _bits(a):
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


def _assert_same(got, expect, case):
    assert got.dtype == expect.dtype, case
    assert got.shape == expect.shape, case
    assert np.array_equal(_bits(got), _bits(expect)), case


def _trace(model, y, x, pixel, h, w):
    """``(trace, pixel, lines)``: the line trace and the raw (pixel,
    line) stream it reduces, expanded here the way ``simulate`` does —
    four corners per fetch, the bounds mask, then ``line_ids``."""
    y, x, pixel = (np.asarray(a, dtype=np.int64) for a in (y, x, pixel))
    trace = model.precompute(y, x, pixel, h, w)
    y4 = np.concatenate([y, y, y + 1, y + 1])
    x4 = np.concatenate([x, x + 1, x, x + 1])
    valid = (y4 >= 0) & (y4 < h) & (x4 >= 0) & (x4 < w)
    lines = model.line_ids(y4[valid], x4[valid], w)
    return trace, np.concatenate([pixel] * 4)[valid], lines


def _assert_dedup_is_np_unique(traced, case):
    trace, pixel, lines = traced
    assert trace.texel_reads == lines.size, case
    if trace.texel_reads:
        assert trace.line_space == int(lines.max()) + 1, case
    key = np.unique(pixel * trace.line_space + lines)
    _assert_same(trace.dedup_pixel, key // trace.line_space, case)
    _assert_same(trace.dedup_lines, key % trace.line_space, case)


# ----------------------------------------------------------------------
# (pixel, line) dedup by table
# ----------------------------------------------------------------------
def test_precompute_dedup_equals_np_unique_on_random_traces():
    model = TextureCacheModel(XAVIER)
    g = rng(17)
    for case in range(60):
        h, w = (int(v) for v in g.integers(1, 40, size=2))
        m = int(g.integers(1, 400))
        y = g.integers(-3, h + 3, size=m)
        x = g.integers(-3, w + 3, size=m)
        pixel = g.integers(0, int(g.integers(1, 300)), size=m)
        _assert_dedup_is_np_unique(_trace(model, y, x, pixel, h, w), case)


@pytest.mark.parametrize("y,x", [([], []), ([-9, 40, 3], [2, 2, -9])],
                         ids=["empty", "all-out-of-bounds"])
def test_precompute_dedup_of_a_trace_without_reads(y, x):
    traced = _trace(TextureCacheModel(XAVIER), y, x, np.arange(len(y)),
                    16, 16)
    assert traced[0].texel_reads == 0
    _assert_dedup_is_np_unique(traced, (y, x))


def test_precompute_over_the_table_bound_sorts(monkeypatch):
    """A key space beyond the bound and beyond 16 slots per key falls
    back to np.unique, with the same arrays."""
    model = TextureCacheModel(XAVIER)
    g = rng(5)
    h = w = 8192
    m = 64
    y, x = g.integers(0, h, size=m), g.integers(0, w, size=m)
    pixel = g.integers(0, 50_000, size=m)
    lines = model.line_ids(y, x, w)
    space = (int(pixel.max()) + 1) * (int(lines.max()) + 1)
    assert space > max(TABLE_BOUND, 16 * 4 * m)
    sorts = []
    real_unique = np.unique

    def counting_unique(*args, **kwargs):
        sorts.append(1)
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    traced = _trace(model, y, x, pixel, h, w)
    assert sorts == [1]
    monkeypatch.setattr(np, "unique", real_unique)
    _assert_dedup_is_np_unique(traced, "fallback")


def test_unique_keys_equals_np_unique_in_both_branches():
    g = rng(3)
    for space, size in ((1, 5), (64, 0), (64, 1000), (TABLE_BOUND * 4, 10)):
        keys = g.integers(0, space, size=size).astype(np.int64)
        _assert_same(unique_keys(keys, space), np.unique(keys), space)


@pytest.mark.parametrize("tile", [(2, 2), (4, 8), (16, 16)])
def test_retiled_per_cta_reads_drive_the_thrash_term(tile):
    """On a device whose cache share holds two lines, every CTA's
    re-reads partly miss, so the per-CTA read counts reach the result."""
    spec = dataclasses.replace(XAVIER, tex_cache_kb_per_sm=1)
    cfg = LayerConfig(4, 4, 24, 24)
    off = synth_offsets(cfg, sigma=3.0, seed=2)
    py, px = sampling_positions(off, (cfg.height, cfg.width),
                                cfg.kernel_size, cfg.stride, cfg.padding,
                                cfg.dilation, 1)
    py, px = py[0, 0], px[0, 0]
    model = TextureCacheModel(spec)
    k, l = py.shape
    trace, _, _ = _trace(model, np.floor(py).ravel(), np.floor(px).ravel(),
                         np.broadcast_to(np.arange(l), (k, l)).ravel(),
                         cfg.height, cfg.width)
    y0, x0, cta, _ = texture_fetch_trace(py, px, cfg.out_width, tile)
    fresh = model.simulate(y0, x0, cta, cfg.height, cfg.width)
    retiled = model.simulate_retiled(
        trace, cta_ids_for_tile(cfg.out_height, cfg.out_width, tile))
    assert retiled == fresh
    # the thrash term is live: more misses than with a cache that holds
    # every CTA's lines (compulsory misses only)
    roomy = dataclasses.replace(XAVIER, tex_cache_kb_per_sm=1 << 20)
    compulsory = TextureCacheModel(roomy).simulate(y0, x0, cta, cfg.height,
                                                   cfg.width).misses
    assert fresh.misses > compulsory


# ----------------------------------------------------------------------
# one hash per call, geometry tables built once, no copies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fp16", [False, True], ids=["tex2d", "tex2dpp"])
def test_run_tex2d_miss_hashes_offsets_once(fp16, monkeypatch):
    cfg = LayerConfig(4, 4, 12, 12)
    g = rng(9)
    x = g.normal(size=cfg.input_shape()).astype(np.float32)
    w = g.normal(size=cfg.weight_shape()).astype(np.float32)
    off = synth_offsets(cfg, seed=9)
    hashes = []
    real_digest = plancache.offsets_digest

    def counting_digest(offset):
        hashes.append(1)
        return real_digest(offset)

    monkeypatch.setattr(plancache, "offsets_digest", counting_digest)
    cache = PlanCache()
    run_tex2d(x, off, w, None, cfg, XAVIER, fp16_offsets=fp16,
              plan_cache=cache)
    stats = cache.stats
    assert len(hashes) == 1
    assert (stats.lookups, stats.misses) == (2, 2)
    assert (stats.trace_builds, stats.fused_builds) == (1, 1)


def test_execute_direct_hands_float32_arrays_through(monkeypatch):
    """float32 inputs and offsets reach the backend as they are, and the
    backend's fresh output is the layer's output, strides included."""
    g = rng(4)
    layer = DeformConv2d(4, 6, rng=g)
    runtime = engine.TextureRuntime(spec=XAVIER, backend="tex2dpp",
                                    log=ProfileLog(), plan_cache=PlanCache())
    x = Tensor(g.normal(size=(1, 4, 9, 9)).astype(np.float32))
    offsets = Tensor(g.normal(size=(1, 18, 9, 9)).astype(np.float32))
    seen = []
    real_run = engine.run_deform_op

    def spy(backend, xa, oa, *args, **kwargs):
        res = real_run(backend, xa, oa, *args, **kwargs)
        seen.append((xa, oa, res.output))
        return res

    monkeypatch.setattr(engine, "run_deform_op", spy)
    out = runtime.execute_direct(layer, runtime.layer_config(layer, x), x,
                                 offsets)
    (xa, oa, output), = seen
    assert xa is x.data and oa is offsets.data
    assert out.data is output


def test_geometry_tables_are_shared_read_only():
    base_y, base_x, _, _ = _base_positions(9, 7, 3, 3, 2, 1, 1)
    cta = cta_ids_for_tile(5, 4, (2, 4))
    assert cta_ids_for_tile(5, 4, [2, 4]) is cta
    assert _base_positions(9, 7, 3, 3, 2, 1, 1)[0] is base_y
    for table in (base_y, base_x, cta):
        with pytest.raises(ValueError):
            table[0] = 1
        with pytest.raises(ValueError):
            table += 1


# ----------------------------------------------------------------------
# bilinear taps against the verbatim reference
# ----------------------------------------------------------------------
H, W = 7, 9


def _coords(g, extent, normalized):
    """Texel edges and centres in and around the texture, then random
    positions well out of bounds on both sides."""
    grid = np.arange(-2.0, extent + 2.5, 0.5)
    rand = g.uniform(-3 * extent, 4 * extent, size=3 * grid.size)
    c = np.concatenate([grid, rand]).astype(np.float32)
    return c / np.float32(extent) if normalized else c


@pytest.mark.parametrize("fp16", [False, True], ids=["fp32", "fp16"])
@pytest.mark.parametrize("normalized", [False, True],
                         ids=["pixel", "normalized"])
@pytest.mark.parametrize("mode", ADDRESS_MODES)
def test_linear_filter_taps_bit_identical_to_reference(mode, normalized,
                                                       fp16):
    g = rng(ADDRESS_MODES.index(mode) + 4 * normalized + 8 * fp16)
    y = _coords(g, H, normalized)[:, None]
    x = _coords(g, W, normalized)[None, :]
    if fp16:
        y = y.astype(np.float16).astype(np.float32)
        x = x.astype(np.float16).astype(np.float32)
    got = linear_filter_taps(y, x, H, W, mode, normalized)
    expect = ref.linear_filter_taps(y, x, H, W, mode, normalized)
    assert len(got) == len(expect) == 4
    for corner, (g_tap, e_tap) in enumerate(zip(got, expect)):
        for part, (a, b) in enumerate(zip(g_tap, e_tap)):
            _assert_same(np.asarray(a), np.asarray(b), (corner, part))


@pytest.mark.parametrize("fp16", [False, True], ids=["tex2d", "tex2dpp"])
def test_tap_tables_bit_identical_to_reference(fp16):
    g = rng(21 + fp16)
    for n, dg, k, l in itertools.product((1, 2), (1, 3), (1, 9), (1, 30)):
        py = g.uniform(-4, H + 4, size=(n, dg, k, l)).astype(np.float32)
        px = g.uniform(-4, W + 4, size=(n, dg, k, l)).astype(np.float32)
        # texel edges and centres
        py.flat[::3] = np.round(py.flat[::3] * 2) / 2
        px.flat[::4] = np.round(px.flat[::4])
        for got, expect in zip(tap_tables(py, px, H, W, fp16),
                               ref.tap_tables(py, px, H, W, fp16)):
            _assert_same(got, expect, (n, dg, k, l))


# ----------------------------------------------------------------------
# the line trace against the verbatim reference
# ----------------------------------------------------------------------
def _positions(g, n, dg, k, l, h, w):
    """Random sampling positions in and around an (h, w) texture, with
    texel edges, texel centres, and a few far beyond ±2**31."""
    py = g.uniform(-4, h + 4, size=(n, dg, k, l)).astype(np.float32)
    px = g.uniform(-4, w + 4, size=(n, dg, k, l)).astype(np.float32)
    py.flat[::3] = np.round(py.flat[::3] * 2) / 2
    px.flat[::4] = np.round(px.flat[::4])
    far = np.float32([-3e12, -2.5e9, -2.0 ** 31, 2.0 ** 31, 2.5e9, 3e12])
    py.flat[1::17] = g.choice(far, size=py.flat[1::17].size)
    px.flat[2::13] = g.choice(far, size=px.flat[2::13].size)
    return py, px


def _assert_trace_equals_reference(model, y, x, pixel, h, w, case):
    """``precompute`` on the floors as the miss path passes them (float)
    and as integers, against the reference on the int64 floors the old
    miss path passed."""
    expect = trace_reference.TraceModel(model.spec.tex_line_tile).precompute(
        y.astype(np.int64), x.astype(np.int64), pixel, h, w)
    for floors in ((y, x), (y.astype(np.int64), x.astype(np.int64))):
        got = model.precompute(*floors, pixel, h, w)
        assert (got.requests, got.texel_reads, got.line_space) == (
            expect.requests, expect.texel_reads, expect.line_space), case
        for name in ("dedup_pixel", "dedup_lines", "pixel_counts"):
            _assert_same(getattr(got, name), getattr(expect, name),
                         (case, name))


def test_precompute_bit_identical_to_reference_on_random_positions():
    """The trace of batch 0, group 0 of random positions (several
    batches and groups drawn), over the whole layer and over a row band
    of it, as the miss path builds it."""
    model = TextureCacheModel(XAVIER)
    g = rng(31)
    for case in range(40):
        h, w = (int(v) for v in g.integers(1, 40, size=2))
        n, dg = (int(v) for v in g.integers(1, 3, size=2))
        k, rows, cols = int(g.choice([1, 9])), *(
            int(v) for v in g.integers(1, 12, size=2))
        py, px = _positions(g, n, dg, k, rows * cols, h, w)
        band = slice(cols * int(g.integers(0, rows)), None)
        for pixels in (slice(None), band):
            ry, rx = py[0, 0][:, pixels], px[0, 0][:, pixels]
            kk, ll = ry.shape
            _assert_trace_equals_reference(
                model, np.floor(ry).ravel(), np.floor(rx).ravel(),
                np.tile(np.arange(ll), kk), h, w, (case, pixels))


def test_precompute_matches_reference_past_the_table_bound():
    """A key space past ``TABLE_BOUND`` and 16 slots per key: both sort,
    and agree."""
    model = TextureCacheModel(XAVIER)
    g = rng(8)
    h = w = 4096
    y = np.floor(g.uniform(-2, h + 2, size=300)).astype(np.float32)
    x = np.floor(g.uniform(-2, w + 2, size=300)).astype(np.float32)
    pixel = g.integers(0, 40_000, size=300)
    lines = model.line_ids(y.astype(np.int64), x.astype(np.int64), w)
    assert (int(pixel.max()) + 1) * (int(lines.max()) + 1) > max(
        TABLE_BOUND, 16 * 4 * y.size)
    _assert_trace_equals_reference(model, y, x, pixel, h, w, "sorted")


@pytest.mark.parametrize("y,x", [([], []), ([-9, 40, 3], [2, 2, -9]),
                                 ([-np.inf, np.inf], [3, 4])],
                         ids=["empty", "all-out-of-bounds", "infinite"])
def test_precompute_reference_without_reads(y, x):
    model = TextureCacheModel(XAVIER)
    y, x = np.float32(y).reshape(-1), np.float32(x).reshape(-1)
    with np.errstate(invalid="ignore"):
        _assert_trace_equals_reference(model, y, x, np.arange(y.size), 16,
                                       16, (y, x))


# ----------------------------------------------------------------------
# the tap tables of whole layers and shard slices, far positions too
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fp16", [False, True], ids=["tex2d", "tex2dpp"])
def test_tap_tables_of_far_positions_match_reference(fp16):
    """Positions beyond ±2**31 (beyond fp16's range for tex2D++): the
    int64 floors, clamps and bounds, and their zero weights, match."""
    g = rng(40 + fp16)
    for n, dg in ((1, 1), (2, 3)):
        py, px = _positions(g, n, dg, 9, 30, H, W)
        with np.errstate(invalid="ignore"):
            got = tap_tables(py, px, H, W, fp16)
            expect = ref.tap_tables(py, px, H, W, fp16)
        for a, b in zip(got, expect):
            _assert_same(a, b, (n, dg))


@pytest.mark.parametrize("fp16", [False, True], ids=["tex2d", "tex2dpp"])
def test_shard_plan_tables_match_reference_slices(fp16):
    """A row band's plan holds the reference tables of its pixels; a
    channel slice's holds the whole layer's."""
    cfg = LayerConfig(6, 4, 9, 8, deformable_groups=2, batch=2)
    off = synth_offsets(cfg, sigma=3.0, seed=12)
    py, px = sampling_positions(off, (cfg.height, cfg.width),
                                cfg.kernel_size, cfg.stride, cfg.padding,
                                cfg.dilation, cfg.deformable_groups)

    def positions():
        return py, px

    ow = cfg.out_width
    for shard in (None, ShardSpec("rows", 0, 2, 2, 5),
                  ShardSpec("channels", 1, 2, 1, 3)):
        plan = build_fused_plan(cfg, XAVIER, fp16, positions, shard)
        l0, l1 = (2 * ow, 5 * ow) if shard is not None \
            and shard.kind == "rows" else (0, cfg.out_pixels)
        expect = ref.tap_tables(py[..., l0:l1], px[..., l0:l1], cfg.height,
                                cfg.width, fp16)
        for got, want in zip((plan.idx, plan.wts), expect):
            _assert_same(got, want, shard)


# ----------------------------------------------------------------------
# one positions pass and one plan-cache transaction per launch
# ----------------------------------------------------------------------
def test_whole_layer_miss_is_one_pass_with_todays_counters(monkeypatch):
    cfg = LayerConfig(8, 8, 16, 16, batch=2)
    g = rng(13)
    x = g.normal(size=cfg.input_shape()).astype(np.float32)
    w = g.normal(size=cfg.weight_shape()).astype(np.float32)
    off = synth_offsets(cfg, seed=13)
    calls = []
    real_positions = tex2d.sampling_positions

    def counting_positions(*args):
        calls.append(1)
        return real_positions(*args)

    monkeypatch.setattr(tex2d, "sampling_positions", counting_positions)
    cache = PlanCache()
    got = run_tex2d(x, off, w, None, cfg, XAVIER, fp16_offsets=True,
                    plan_cache=cache)
    assert len(calls) == 1
    stats = cache.stats
    assert (stats.lookups, stats.hits, stats.misses) == (2, 0, 2)
    assert (stats.trace_builds, stats.fused_builds) == (1, 1)
    assert (stats.shard_builds, stats.evictions) == (0, 0)
    monkeypatch.undo()
    want = run_tex2d(x, off, w, None, cfg, XAVIER, fp16_offsets=True)
    assert np.array_equal(got.output, want.output)
    assert got.kernels == want.kernels


def test_grid_search_hashes_its_offsets_once(monkeypatch):
    hashes = []
    real_digest = plancache.offsets_digest

    def counting_digest(offset):
        hashes.append(1)
        return real_digest(offset)

    monkeypatch.setattr(plancache, "offsets_digest", counting_digest)
    result = TileTuner(XAVIER, backend="tex2dpp", seed=0).tune(
        LayerConfig(8, 8, 20, 20), "grid")
    assert len(result.history) > 1
    assert len(hashes) == 1
