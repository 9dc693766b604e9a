"""DefconEngine: trained models on the simulated texture backends."""

import numpy as np
import pytest

from repro.gpusim import RTX_2080TI, XAVIER
from repro.models import build_classifier, build_yolact
from repro.nas import manual_interval_placement
from repro.pipeline import DefconEngine

from helpers import rng

PLACEMENT = manual_interval_placement(9, 3)


@pytest.fixture(scope="module")
def yolact():
    return build_yolact("r50s", placement=PLACEMENT, bound=7.0, seed=0)


@pytest.fixture(scope="module")
def images():
    return rng(0).uniform(0, 1, size=(2, 3, 64, 64)).astype(np.float32)


class TestEngineBasics:
    def test_counts_deformable_layers(self, yolact):
        eng = DefconEngine(yolact, XAVIER)
        assert eng.num_deformable_layers == sum(PLACEMENT)

    def test_context_installs_and_removes_runtime(self, yolact):
        from repro.deform.layers import DeformConv2d

        eng = DefconEngine(yolact, XAVIER)
        layers = [m for m in yolact.modules()
                  if isinstance(m, DeformConv2d)]
        with eng:
            assert all(l.texture_runtime is not None for l in layers)
        assert all(l.texture_runtime is None for l in layers)

    def test_detect_accumulates_kernel_log(self, yolact, images):
        eng = DefconEngine(yolact, XAVIER, backend="tex2dpp")
        eng.detect(images, score_threshold=0.05)
        # 2 kernels per deformable layer per forward
        assert len(eng.log.records) == 2 * sum(PLACEMENT)
        assert eng.deformable_latency_ms() > 0
        names = {r["kernel"] for r in eng.nvprof_rows()}
        assert "deformable_tex2dpp" in names

    def test_autotune_binds_tiles(self, yolact):
        eng = DefconEngine(yolact, XAVIER, backend="tex2d", autotune=True,
                           tune_budget=6)
        assert len(eng.tiles) == sum(PLACEMENT)
        for (c, h, w, s), (ty, tx) in eng.tiles.items():
            assert ty * tx <= XAVIER.max_threads_per_block


class TestTileCacheKeyUnification:
    """Regression: runtime lookups must see the tuned tiles (ISSUE 1)."""

    @pytest.fixture(scope="class")
    def tuned_engine(self):
        model = build_classifier("r50s", placement=PLACEMENT, bound=7.0,
                                 seed=0)
        return DefconEngine(model, XAVIER, backend="tex2d", autotune=True,
                            tune_budget=3)

    def test_nominal_input_hits_every_lookup(self, tuned_engine):
        xs = rng(2).uniform(0, 1, size=(2, 3, 64, 64)).astype(np.float32)
        tuned_engine.classify(xs)
        stats = tuned_engine.tile_cache_stats
        assert stats.hits > 0
        assert stats.misses == 0

    def test_non_nominal_input_uses_tuned_tiles(self):
        """Resized inputs must run with tuned tiles, not DEFAULT_TILE —
        the silent fallback this PR fixes."""
        model = build_classifier("r50s", placement=PLACEMENT, bound=7.0,
                                 seed=0)
        eng = DefconEngine(model, XAVIER, backend="tex2d", autotune=True,
                           tune_budget=3)
        xs = rng(3).uniform(0, 1, size=(1, 3, 48, 48)).astype(np.float32)
        eng.classify(xs)
        stats = eng.tile_cache_stats
        assert stats.misses == 0, "non-nominal shapes fell back silently"
        assert stats.near_hits > 0
        # every substituted tile comes from the tuned set
        tuned = set(eng.tiles.values())
        assert set(eng._runtime.resolved.values()) <= tuned

    def test_untuned_engine_counts_misses(self, yolact, images):
        eng = DefconEngine(yolact, XAVIER, backend="tex2d")
        eng.detect(images, score_threshold=0.05)
        stats = eng.tile_cache_stats
        assert stats.hits == 0 and stats.near_hits == 0
        assert stats.misses == sum(PLACEMENT)

    def test_engines_on_one_registry_share_its_totals(self, yolact,
                                                      images):
        """Tile-cache stats are a view over the engine's registry: two
        engines built on one registry read the same totals, an engine on
        its own registry reads only its own lookups."""
        from repro.obs import MetricsRegistry

        shared = MetricsRegistry()
        a = DefconEngine(yolact, XAVIER, backend="tex2d", registry=shared)
        b = DefconEngine(yolact, XAVIER, backend="tex2d", registry=shared)
        alone = DefconEngine(yolact, XAVIER, backend="tex2d")
        for eng in (a, b, alone):
            eng.detect(images, score_threshold=0.05)
        n = sum(PLACEMENT)
        assert a.tile_cache_stats.misses == b.tile_cache_stats.misses == 2 * n
        assert alone.tile_cache_stats.misses == n
        assert shared.get("engine_tile_cache_lookups").value(
            result="miss") == 2 * n
        # each engine built its own plan cache on the shared registry
        assert a.plan_cache_stats.misses == b.plan_cache_stats.misses \
            == 2 * alone.plan_cache_stats.misses

    def test_bad_backend_rejected_at_construction(self, yolact):
        with pytest.raises(ValueError, match="unknown backend 'cuda'"):
            DefconEngine(yolact, XAVIER, backend="cuda")

    def test_uncached_mode_removed(self, yolact):
        """The engine always caches; asking for the old uncached mode
        fails loudly instead of silently caching anyway."""
        with pytest.raises(ValueError, match="uncached mode was removed"):
            DefconEngine(yolact, XAVIER, plan_cache=False)
        eng = DefconEngine(yolact, XAVIER)
        assert eng.plan_cache is not None
        assert eng.plan_cache_stats is eng.plan_cache.stats
        assert eng.end_session("never-started") == 0


class TestTileStoreWarmStart:
    def test_second_engine_performs_zero_tuner_evaluations(self, tmp_path):
        from repro.autotune import TileStore

        path = tmp_path / "tiles.json"
        model = build_classifier("r50s", placement=PLACEMENT, bound=7.0,
                                 seed=0)
        cold = DefconEngine(model, XAVIER, backend="tex2d", autotune=True,
                            tune_budget=3, tile_store=TileStore(path))
        assert cold.tune_evaluations > 0
        assert len(cold.tiles) == 3   # one per distinct site geometry

        warm = DefconEngine(model, XAVIER, backend="tex2d", autotune=True,
                            tune_budget=3, tile_store=TileStore(path))
        assert warm.tune_evaluations == 0
        assert warm.tiles == cold.tiles

        # the warm engine also *uses* the tiles at a non-nominal size
        xs = rng(4).uniform(0, 1, size=(1, 3, 48, 48)).astype(np.float32)
        warm.classify(xs)
        assert warm.tile_cache_stats.misses == 0
        assert warm.tile_cache_stats.near_hits > 0


class TestNumericalParity:
    def test_texture_detections_match_software(self, yolact, images):
        """The accuracy claim on a real trained stack: identical inputs
        through the tex2D++ path yield the same detections (fixed-point
        filtering is below decision thresholds)."""
        sw = yolact.detect(images, score_threshold=0.05)
        eng = DefconEngine(yolact, XAVIER, backend="tex2dpp")
        hw = eng.detect(images, score_threshold=0.05)
        assert len(sw) == len(hw)
        for a, b in zip(sorted(sw, key=lambda d: -d.score),
                        sorted(hw, key=lambda d: -d.score)):
            assert a.label == b.label
            assert a.score == pytest.approx(b.score, abs=0.02)
            assert np.abs(a.box - b.box).max() < 2.0

    def test_classifier_predictions_match(self):
        model = build_classifier("r50s", placement=PLACEMENT, bound=7.0,
                                 seed=0)
        xs = rng(1).uniform(0, 1, size=(6, 3, 64, 64)).astype(np.float32)
        sw = model.predict(xs)
        eng = DefconEngine(model, XAVIER, backend="tex2d")
        hw = eng.classify(xs)
        assert (sw == hw).mean() >= 5 / 6   # fixed-point flips at most one


class TestBackendsAndDevices:
    def test_pytorch_backend_no_texture_requests(self, yolact, images):
        eng = DefconEngine(yolact, XAVIER, backend="pytorch")
        eng.detect(images, score_threshold=0.05)
        sample = eng.log.by_name()["deformable_im2col"]
        assert sample.tex_cache_requests == 0

    def test_2080ti_deformable_time_lower(self, yolact, images):
        xa = DefconEngine(yolact, XAVIER, backend="tex2d")
        xa.detect(images, score_threshold=0.05)
        ti = DefconEngine(yolact, RTX_2080TI, backend="tex2d")
        ti.detect(images, score_threshold=0.05)
        assert ti.deformable_latency_ms() < xa.deformable_latency_ms()

    def test_modulated_layers_rejected(self, images):
        from repro.tensor import Tensor, no_grad

        model = build_yolact("r50s", placement=PLACEMENT, seed=0)
        from repro.deform.layers import DeformConv2d

        for m in model.modules():
            if isinstance(m, DeformConv2d):
                # retrofit a modulated head to trip the guard
                import numpy as _np

                from repro.nn import Conv2d

                m.mask_head = Conv2d(m.in_channels,
                                     m.deformable_groups * 9, 3, padding=1)
                m.modulated = True
        eng = DefconEngine(model, XAVIER)
        with pytest.raises(NotImplementedError):
            with eng, no_grad():
                model(Tensor(images))
