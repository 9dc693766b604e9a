"""Sharded execution tests (docs/fleet.md): halo helper, interconnect,
planner math, shard-aware routing, bit-identity and scheduler integration.

The interconnect / band-math / tie-break tests are exact unit tests over
the planner's own arithmetic; the integration slice runs real
DefconEngines on the Xavier/2080Ti presets through ``build_fleet`` so the
shard decision table, metrics and end-to-end results are pinned against
the unsharded fleet.
"""

import numpy as np
import pytest

from repro.fleet import (EngineCostModel, Interconnect, LinkSpec,
                         ShardAwareCostRouter, ShardPlan, ShardPlanner,
                         build_fleet, default_interconnect, make_router)
from repro.fleet.shard import DEFAULT_LINK, _FRACTION_DEN, \
    ShardAssignment, _fractions, _stage_bounds
from repro.gpusim import RTX_2080TI, XAVIER
from repro.kernels import LayerConfig, PlanCache, run_deform_op, \
    synth_offsets, tile_footprint_bytes
from repro.kernels.shards import (SHARD_KINDS, ShardSpec, band_bounds,
                                  enumerate_shards, run_shard,
                                  stitch_columns)
from repro.kernels.tiling import deformation_halo

pytestmark = pytest.mark.fleet

SMALL = LayerConfig(8, 8, 14, 14)
#: at N > 1 a GEMM product's memory order is not C order
BATCHED = LayerConfig(16, 16, 16, 16, batch=4)


@pytest.fixture(scope="module")
def small_model():
    from repro.models import build_classifier
    from repro.nas import manual_interval_placement

    return build_classifier("r50s", input_size=32,
                            placement=manual_interval_placement(9, 3),
                            bound=7.0, seed=0)


# ----------------------------------------------------------------------
# the one deformation-halo formula, pinned at both callers
# ----------------------------------------------------------------------
class TestDeformationHalo:
    def test_formula(self):
        # int(bound) reachable texels + half the kernel footprint + one
        # texel of bilinear support
        assert deformation_halo(3, 7.0) == 7 + 1 + 1
        assert deformation_halo(5, 7.0) == 7 + 2 + 1
        assert deformation_halo(3, 0.0) == 0 + 1 + 1

    def test_tile_footprint_caller(self):
        # tuner working set: (tile * stride + 2 * halo)^2 texels
        for bound in (0.0, 7.0):
            halo = deformation_halo(SMALL.kernel_size, bound)
            span = 8 * SMALL.stride + 2 * halo
            assert tile_footprint_bytes(SMALL, (8, 8), bound=bound) \
                == span * span * 4

    @pytest.mark.parametrize("bound", [0.0, 7.0])
    def test_shard_planner_caller(self, bound):
        # solve the halo back out of the planner's row-shard input bytes:
        # it must be the very same helper value, for every bound
        cfg = LayerConfig(8, 8, 64, 64)
        planner = ShardPlanner(Interconnect(), bound=bound)
        frac, offb = 0.25, 2
        band_h = frac * cfg.out_height
        off_bytes = (cfg.batch * cfg.deformable_groups * 2 * cfg.taps
                     * band_h * cfg.out_width * offb)
        got = planner._in_bytes(cfg, "rows", frac, offb)
        rows_in = (got - off_bytes) / (cfg.batch * cfg.in_channels
                                       * cfg.width * 4)
        implied_halo = (rows_in - band_h * cfg.stride) / 2
        assert implied_halo == deformation_halo(cfg.kernel_size, bound)

    def test_rows_in_clamps_to_input_height(self):
        # a band covering the whole plane cannot ship more rows than exist
        planner = ShardPlanner(Interconnect(), bound=7.0)
        whole = planner._in_bytes(SMALL, "rows", 1.0, 2)
        off_bytes = (SMALL.batch * SMALL.deformable_groups * 2 * SMALL.taps
                     * SMALL.out_height * SMALL.out_width * 2)
        assert whole == SMALL.batch * SMALL.in_channels * SMALL.height \
            * SMALL.width * 4 + off_bytes

    def test_out_bytes_rows_band_vs_channels_partial(self):
        planner = ShardPlanner(Interconnect())
        full = SMALL.batch * SMALL.out_channels * SMALL.out_pixels * 4.0
        # a row shard ships only its band; a channel shard ships a
        # full-size partial product for the stitch to reduce
        assert planner._out_bytes(SMALL, "rows", 0.25) == 0.25 * full
        assert planner._out_bytes(SMALL, "channels", 0.25) == full


# ----------------------------------------------------------------------
# interconnect
# ----------------------------------------------------------------------
class TestInterconnect:
    def test_transfer_ms_latency_plus_bytes_over_bandwidth(self):
        link = LinkSpec(latency_ms=0.01, bandwidth_gbps=10.0)
        # 10 GB/s = 1e7 bytes/ms
        assert link.transfer_ms(1e7) == pytest.approx(0.01 + 1.0)
        assert link.transfer_ms(0) == 0.0
        assert link.transfer_ms(-5) == 0.0

    def test_links_are_symmetric_and_default_falls_back(self):
        fast = LinkSpec(latency_ms=0.001, bandwidth_gbps=100.0)
        ic = Interconnect({("b", "a"): fast})
        assert ic.link("a", "b") is fast
        assert ic.link("b", "a") is fast
        assert ic.link("a", "c") is DEFAULT_LINK
        assert ic.transfer_ms(1e6, "a", "b") \
            == ic.transfer_ms(1e6, "b", "a")

    def test_default_interconnect_is_nvlink_class(self):
        ic = default_interconnect([XAVIER, RTX_2080TI])
        cross = ic.link(XAVIER.name, RTX_2080TI.name)
        slower = min(XAVIER.dram_bandwidth_gbps,
                     RTX_2080TI.dram_bandwidth_gbps)
        assert cross.bandwidth_gbps == pytest.approx(slower / 2.0, abs=1e-3)
        assert cross.latency_ms == 0.003
        same = ic.link(XAVIER.name, XAVIER.name)
        assert same.latency_ms == 0.002
        assert same.bandwidth_gbps \
            == pytest.approx(XAVIER.dram_bandwidth_gbps / 2.0, abs=1e-3)

    def test_rows_view_lists_every_pair_once(self):
        ic = default_interconnect([XAVIER, RTX_2080TI])
        rows = ic.rows([XAVIER.name, RTX_2080TI.name])
        pairs = [r["pair"] for r in rows]
        assert pairs == sorted(pairs) and len(pairs) == len(set(pairs))
        assert len(rows) == 3            # (a,a), (a,b), (b,b)
        assert all(r["explicit"] for r in rows)


# ----------------------------------------------------------------------
# band / fraction / stage arithmetic
# ----------------------------------------------------------------------
class TestBandMath:
    @pytest.mark.parametrize("total,weights", [
        (14, (1.0, 1.0)), (14, (3.0, 1.0)), (7, (1.0, 1.0, 1.0)),
        (5, (0.9, 0.05, 0.05)), (720, (2.3, 1.1, 0.6)),
    ])
    def test_band_bounds_tile_exactly(self, total, weights):
        bounds = band_bounds(total, weights)
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo            # contiguous, no gap or overlap
        assert all(lo <= hi for lo, hi in bounds)

    def test_band_bounds_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            band_bounds(0, (1.0,))
        with pytest.raises(ValueError):
            band_bounds(4, ())
        with pytest.raises(ValueError):
            band_bounds(4, (0.0, 0.0))

    def test_fractions_cover_denominator_with_no_zero_share(self):
        for weights in ((1.0, 1.0), (5.0, 1.0), (1.0, 1e-6, 1.0)):
            fracs = _fractions(weights)
            assert sum(num for num, _ in fracs) == _FRACTION_DEN
            assert all(den == _FRACTION_DEN for _, den in fracs)
            assert all(num >= 1 for num, _ in fracs)

    def test_stage_bounds_partition_contiguous_nonempty(self):
        for costs, k in (([1.0, 1.0, 1.0], 2), ([5.0, 1.0, 1.0, 1.0], 3),
                         ([1.0] * 6, 3)):
            stages = _stage_bounds(costs, k)
            assert len(stages) == k
            assert stages[0][0] == 0 and stages[-1][1] == len(costs)
            for lo, hi in stages:
                assert hi > lo
            for (_, hi), (lo, _) in zip(stages, stages[1:]):
                assert hi == lo

    def test_enumerate_shards_tile_and_skip_empty(self):
        shards = enumerate_shards(SMALL, "rows", (1.0, 1.0))
        assert [s.label() for s in shards] == ["rows[0:7]", "rows[7:14]"]
        # a vanishing weight rounds to an empty band -> None placeholder
        shards = enumerate_shards(SMALL, "rows", (1.0, 1e-9))
        assert shards[0].hi == SMALL.out_height and shards[1] is None

    def test_shard_spec_validates(self):
        with pytest.raises(ValueError):
            ShardSpec("diagonal", 0, 2, 0, 4)
        with pytest.raises(ValueError):
            ShardSpec("rows", 0, 2, 4, 4)


# ----------------------------------------------------------------------
# cost-model shard descriptors + memo keys
# ----------------------------------------------------------------------
class TestEngineCostModelShards:
    @pytest.fixture(scope="class")
    def cm(self, small_model):
        from repro.pipeline import DefconEngine

        return EngineCostModel(DefconEngine(small_model, RTX_2080TI))

    def test_descriptor_arithmetic(self, cm):
        shape = (3, 32, 32)
        whole = cm(shape)
        sites = len(cm.site_configs(shape))
        assert cm(shape, shard=("stage", 0, sites)) \
            == pytest.approx(whole)
        stages = sum(cm(shape, shard=("stage", i, i + 1))
                     for i in range(sites))
        assert stages == pytest.approx(whole)

    def test_memo_keys_carry_the_descriptor(self, cm):
        shape = (3, 32, 32)
        cm(shape)
        cm(shape, shard=("stage", 0, 1))
        keys = set(cm._cache)
        assert (shape, 1, None) in keys
        assert (shape, 1, ("stage", 0, 1)) in keys

    def test_unknown_descriptor_rejected(self, cm):
        # a row or channel split is priced per worker by shard_site_ms,
        # never by a fraction of the whole
        for shard in (("diagonal", 1, 2), ("rows", 360, 720)):
            with pytest.raises(ValueError):
                cm((3, 32, 32), shard=shard)

    def test_shard_site_ms_exact_and_memoised(self, cm):
        shape = (3, 32, 32)
        sites = len(cm.site_configs(shape))
        first = cm.shard_site_ms(shape, 1, "channels", (1, 1), 0)
        assert len(first) == sites
        assert all(s > 0 and g > 0 for s, g in first)
        assert cm.shard_site_ms(shape, 1, "channels", (1, 1), 0) is first
        # the two halves of an even split price identically per site
        other = cm.shard_site_ms(shape, 1, "channels", (1, 1), 1)
        assert other == pytest.approx(first)

    def test_small_shard_gemm_does_not_scale_linearly(self, cm):
        # the wave-quantisation effect that forced exact shard pricing: a
        # half-row shard's GEMM costs clearly more than half the whole
        # GEMM, so fraction-scaled pricing would systematically lie
        shape = (3, 32, 32)
        whole = sum(g for _, g in cm.site_split_ms(shape))
        half = sum(g for _, g in
                   cm.shard_site_ms(shape, 1, "rows", (1, 1), 0))
        assert half > 0.55 * whole


# ----------------------------------------------------------------------
# routing determinism + tie-breaking
# ----------------------------------------------------------------------
def _plan(label_worker, ms, kind="rows", n=2):
    assignments = tuple(
        ShardAssignment(worker=f"{label_worker}{i}", device="d",
                        weight=1.0, fraction=(360, 720))
        for i in range(n))
    return ShardPlan(kind=kind, coordinator=f"{label_worker}0",
                     assignments=assignments, predicted_ms=ms)


class TestRoutingDeterminism:
    def _worker(self, name, ms):
        from repro.fleet import FleetWorker

        class _Engine:
            def classify(self, images):
                return np.zeros(images.shape[0], dtype=np.int64)

        return FleetWorker(name, _Engine(),
                           predictor=lambda shape, batch, ms=ms: ms * batch)

    def test_equal_ects_tie_break_by_worker_name(self):
        workers = [self._worker(n, 1.0) for n in ("wb", "wa", "wc")]
        router = make_router("cost")
        assert router.choose(workers, (3, 8, 8), 0.0).name == "wa"
        table = router.ect_table(workers, (3, 8, 8), 0.0)
        assert table == {"wa": 1.0, "wb": 1.0, "wc": 1.0}
        # determinism: repeated evaluation yields the identical table
        assert router.ect_table(workers, (3, 8, 8), 0.0) == table

    def test_unbound_shard_router_degrades_to_cost(self):
        workers = [self._worker(n, 1.0) for n in ("wb", "wa")]
        router = make_router("shard-cost")
        assert isinstance(router, ShardAwareCostRouter)
        assert router.choose(workers, (3, 8, 8), 0.0).name == "wa"
        assert not any(k.startswith("plan:")
                       for k in router.ect_table(workers, (3, 8, 8), 0.0))

    def test_equal_cost_plans_tie_break_by_label(self, monkeypatch):
        planner = ShardPlanner(Interconnect())
        a = _plan("a", 1.0, kind="rows")
        b = _plan("b", 1.0, kind="channels")
        monkeypatch.setattr(planner, "plan_space",
                            lambda *args, **kw: [a, b])
        best = planner.best_plan([], (3, 8, 8), 1, 0.0)
        assert best.label == min(a.label, b.label)
        assert best is (a if a.label < b.label else b)

    def test_always_mode_picks_widest_split_then_cheapest(self, monkeypatch):
        planner = ShardPlanner(Interconnect(), mode="always")
        single = ShardPlan(kind="single", coordinator="c", assignments=(),
                           predicted_ms=0.1)
        narrow = _plan("n", 0.2, n=2)
        wide_slow = _plan("s", 5.0, n=3)
        wide_fast = _plan("f", 4.0, n=3)
        coord = type("W", (), {"shardable": True})()
        monkeypatch.setattr(
            planner, "plan_space",
            lambda *args, **kw: [single, narrow, wide_slow, wide_fast])
        got = planner.resolve([], coord, (3, 8, 8), 1, 0.0)
        assert got is wide_fast

    def test_cost_mode_may_resolve_single(self, monkeypatch):
        planner = ShardPlanner(Interconnect(), mode="cost")
        single = ShardPlan(kind="single", coordinator="c", assignments=(),
                           predicted_ms=0.1)
        split = _plan("s", 0.5)
        coord = type("W", (), {"shardable": True})()
        monkeypatch.setattr(planner, "plan_space",
                            lambda *args, **kw: [single, split])
        assert planner.resolve([], coord, (3, 8, 8), 1, 0.0) is single

    def test_unshardable_coordinator_resolves_none(self):
        planner = ShardPlanner(Interconnect())
        coord = type("W", (), {"shardable": False})()
        assert planner.resolve([], coord, (3, 8, 8), 1, 0.0) is None

    def test_planner_rejects_unknown_mode_and_kind(self):
        with pytest.raises(ValueError):
            ShardPlanner(Interconnect(), mode="sometimes")
        with pytest.raises(ValueError):
            ShardPlanner(Interconnect(), kinds=("diagonal",))

    def test_real_plan_space_rows_in_ect_table(self, small_model):
        sched = build_fleet(small_model, ("xavier", "2080ti"), shard="cost")
        table = sched.router.ect_table(sched.workers, (3, 32, 32), 0.0)
        plan_rows = {k: v for k, v in table.items()
                     if k.startswith("plan:")}
        assert plan_rows, "shard-aware router exposed no plan rows"
        assert all(v > 0 for v in plan_rows.values())
        assert sched.router.ect_table(sched.workers, (3, 32, 32), 0.0) \
            == table


# ----------------------------------------------------------------------
# bit-identity of stitched shards (fast unit slice of the conformance
# group's shard.bit_identical.* checks)
# ----------------------------------------------------------------------
class TestShardBitIdentity:
    @staticmethod
    def _arrays(cfg):
        g = np.random.default_rng(3)
        x = g.normal(size=cfg.input_shape()).astype(np.float32)
        w = g.normal(size=cfg.weight_shape()).astype(np.float32)
        b = g.normal(size=(cfg.out_channels,)).astype(np.float32)
        off = synth_offsets(cfg, bound=7.0, seed=3)
        base = run_deform_op("tex2dpp", x, off, w, b, cfg, XAVIER).output
        return x, off, w, b, base

    @pytest.fixture(scope="class")
    def arrays(self):
        return self._arrays(SMALL)

    @pytest.mark.parametrize("kind", SHARD_KINDS)
    @pytest.mark.parametrize("weights", [(2.0, 1.0), (1.0, 1.0, 1.0)])
    def test_stitched_equals_unsharded(self, arrays, kind, weights):
        """Same bits and same strides as the unsharded output, at N = 1
        and at N = 4."""
        for cfg, (x, off, w, b, base) in ((SMALL, arrays),
                                          (BATCHED, self._arrays(BATCHED))):
            pc = PlanCache()
            for _ in ("cold", "warm"):
                shards = [s for s in enumerate_shards(cfg, kind, weights)
                          if s is not None]
                results = [run_shard(x, off, cfg, XAVIER, s,
                                     fp16_offsets=True, plan_cache=pc)
                           for s in shards]
                out = stitch_columns(results, w, b, cfg, XAVIER).output
                assert np.array_equal(out, base)
                assert out.strides == base.strides

    def test_stitch_refuses_priced_shards(self, arrays):
        """A price (no input) gathers no columns: nothing to stitch."""
        x, off, w, b, _ = arrays
        shards = enumerate_shards(SMALL, "rows", (1.0, 1.0))
        results = [run_shard(x, off, SMALL, XAVIER, shards[0]),
                   run_shard(None, off, SMALL, XAVIER, shards[1])]
        assert results[1].cols is None
        with pytest.raises(ValueError, match="priced"):
            stitch_columns(results, w, b, SMALL, XAVIER)

    def test_shard_stats_shape(self, arrays):
        x, off, w, b, _ = arrays
        spec = ShardSpec("rows", 0, 2, 0, 7)
        res = run_shard(x, off, SMALL, XAVIER, spec, fp16_offsets=True)
        assert res.sample.duration_ms > 0 and res.gemm.duration_ms > 0
        assert res.out_bytes > 0 and res.in_bytes > 0
        assert res.halo_rows >= 0


# ----------------------------------------------------------------------
# scheduler integration (real engines)
# ----------------------------------------------------------------------
class TestSchedulerIntegration:
    def _images(self, n, size=32):
        rng = np.random.default_rng(0)
        return [rng.uniform(0, 1, (3, size, size)).astype(np.float32)
                for _ in range(n)]

    def test_always_mode_shards_and_accounts(self, small_model):
        sched = build_fleet(small_model, ("xavier", "2080ti"),
                            shard="always", max_batch_size=1)
        futs = [sched.submit(img) for img in self._images(2)]
        sched.drain()
        snap = sched.snapshot()
        shard = snap["shard"]
        assert shard["mode"] == "always"
        assert snap["completed"] == 2 and not sched.unresolved()
        assert all(f.exception() is None for f in futs)
        assert shard["sharded_batches"] > 0
        assert shard["traffic_bytes"].get("scatter", 0) > 0
        assert shard["traffic_bytes"].get("gather", 0) > 0
        # both workers' device timelines advanced: the non-coordinator
        # participant was genuinely busy during the split
        assert all(w["busy_until_ms"] > 0 for w in snap["workers"])
        applied = [d for d in sched.shard_decisions if d["applied"]]
        assert applied
        for d in applied:
            assert d["kind"] in SHARD_KINDS + ("pipeline",)
            assert d["simulated_ms"] is not None
            assert len(d["workers"]) >= 2

    def test_sharded_results_match_unsharded(self, small_model):
        images = self._images(3)
        plain = build_fleet(small_model, ("xavier", "2080ti"),
                            max_batch_size=1)
        sharded = build_fleet(small_model, ("xavier", "2080ti"),
                              shard="always", max_batch_size=1)
        want, got = [], []
        for sched, out in ((plain, want), (sharded, got)):
            futs = [sched.submit(img) for img in images]
            sched.drain()
            out.extend(f.result() for f in futs)
        assert [np.asarray(a).tolist() for a in want] \
            == [np.asarray(a).tolist() for a in got]

    def test_sharded_layer_output_is_the_stitched_array(self, small_model,
                                                        monkeypatch):
        """A sharded layer hands on the stitch's fresh float32 C-ordered
        output as it is: no second copy, the same bits and strides."""
        import repro.fleet.shard as shard_mod

        stitched, returned = [], []
        real_stitch = shard_mod.stitch_columns
        real_execute = shard_mod.ShardContext.execute_layer

        def spy_stitch(*args, **kwargs):
            res = real_stitch(*args, **kwargs)
            stitched.append((res.output, res.output.copy()))
            return res

        def spy_execute(self, *args, **kwargs):
            out = real_execute(self, *args, **kwargs)
            returned.append(out)
            return out

        monkeypatch.setattr(shard_mod, "stitch_columns", spy_stitch)
        monkeypatch.setattr(shard_mod.ShardContext, "execute_layer",
                            spy_execute)
        sched = build_fleet(small_model, ("xavier", "2080ti"),
                            shard="always", max_batch_size=1)
        futs = [sched.submit(img) for img in self._images(2)]
        sched.drain()
        assert all(f.exception() is None for f in futs)
        assert stitched
        for output, bits in stitched:
            (layer,) = [t for t in returned
                        if t is not None and t.data is output]
            assert layer.data.dtype == np.float32
            assert layer.data.flags.c_contiguous
            assert layer.data.strides == bits.strides
            assert np.array_equal(layer.data.view(np.uint32),
                                  bits.view(np.uint32))

    def test_cost_mode_records_every_decision(self, small_model):
        sched = build_fleet(small_model, ("xavier", "2080ti"),
                            shard="cost", max_batch_size=2)
        futs = [sched.submit(img) for img in self._images(4)]
        sched.drain()
        assert all(f.exception() is None for f in futs)
        assert sched.snapshot()["shard"]["mode"] == "cost"
        assert sched.shard_decisions
        for d in sched.shard_decisions:
            assert d["plan"] and d["predicted_ms"] >= 0
            assert d["kind"] in ("single",) + SHARD_KINDS + ("pipeline",)

    def test_shard_off_leaves_planner_unset(self, small_model):
        sched = build_fleet(small_model, ("xavier", "2080ti"))
        assert sched.shard_planner is None
        assert sched.snapshot()["shard"] is None

    def test_pipeline_plans_priced_for_batches(self, small_model):
        sched = build_fleet(small_model, ("xavier", "2080ti"),
                            shard="cost", max_batch_size=4)
        planner = sched.shard_planner
        plans = planner.plan_space(sched.workers, (3, 32, 32), 2, 0.0)
        pipes = [p for p in plans if p.kind == "pipeline"]
        assert pipes, "no pipeline plan priced for a batched request"
        sites = len(sched.workers[0].site_configs((3, 32, 32), 2))
        for p in pipes:
            assert p.predicted_ms > 0
            stages = [a.fraction for a in p.assignments]
            assert stages[0][0] == 0 and stages[-1][1] == sites
            for (_, hi), (lo, _) in zip(stages, stages[1:]):
                assert hi == lo
