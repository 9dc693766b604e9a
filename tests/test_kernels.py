"""Kernel backend tests: numerics, nvprof-counter structure, speedup bands."""

import numpy as np
import pytest

from repro.gpusim import RTX_2080TI, XAVIER
from repro.kernels import (BACKENDS, DEFAULT_TILE, LayerConfig,
                           TABLE2_LAYERS, enumerate_tiles, heuristic_tile,
                           run_deform_op, run_layer_all_backends,
                           synth_offsets, tile_footprint_bytes)

from helpers import rng

SMALL = LayerConfig(8, 8, 14, 14)


@pytest.fixture(scope="module")
def small_results():
    return run_layer_all_backends(SMALL, XAVIER, bound=7.0,
                                  compute_output=True, seed=3)


class TestFunctionalOutputs:
    def test_all_backends_produce_output(self, small_results):
        for backend in BACKENDS:
            out = small_results[backend].output
            assert out is not None
            assert out.shape == (1, 8, 14, 14)
            assert np.isfinite(out).all()

    def test_tex2d_matches_reference_within_fixed_point(self, small_results):
        ref = small_results["pytorch"].output
        tex = small_results["tex2d"].output
        scale = np.abs(ref).max()
        assert np.abs(tex - ref).max() < 0.02 * scale

    def test_tex2dpp_close_to_tex2d(self, small_results):
        """fp16 offsets lose nothing beyond fixed-point noise — the paper's
        'no negative impact on accuracy' claim."""
        t2 = small_results["tex2d"].output
        tp = small_results["tex2dpp"].output
        assert np.abs(tp - t2).max() < 0.03 * np.abs(t2).max()


class TestCounters:
    def test_reference_uses_no_texture(self, small_results):
        s = small_results["pytorch"].sample_kernel
        assert s.tex_cache_requests == 0

    def test_tex_backends_use_texture(self, small_results):
        for backend in ("tex2d", "tex2dpp"):
            s = small_results[backend].sample_kernel
            assert s.tex_cache_requests > 0

    def test_tex_gld_efficiency_is_100(self, small_results):
        """The texture kernels' only global loads are coalesced offsets —
        GLD efficiency 100 % (paper Fig. 10)."""
        for backend in ("tex2d", "tex2dpp"):
            s = small_results[backend].sample_kernel
            assert s.gld_efficiency > 99.0  # only the tail warp is partial

    def test_reference_gld_efficiency_low(self, small_results):
        s = small_results["pytorch"].sample_kernel
        assert s.gld_efficiency < 80.0

    def test_mflop_ratio_about_four(self, small_results):
        """Hardware interpolation removes ~4× of the sampling FLOPs."""
        ref = small_results["pytorch"].sample_kernel.flop_count_sp
        tex = small_results["tex2d"].sample_kernel.flop_count_sp
        assert 3.5 < ref / tex < 5.5

    def test_transactions_per_request_lower_for_tex(self, small_results):
        ref = small_results["pytorch"].sample_kernel
        tex = small_results["tex2d"].sample_kernel
        assert (tex.gld_transactions_per_request
                < ref.gld_transactions_per_request)

    def test_tex2dpp_fewer_offset_bytes(self):
        res = run_layer_all_backends(LayerConfig(16, 16, 20, 20), XAVIER,
                                     bound=7.0, compute_output=False)
        b2 = res["tex2d"].sample_kernel.gld_bytes_requested
        bp = res["tex2dpp"].sample_kernel.gld_bytes_requested
        assert bp == pytest.approx(b2 / 2)


class TestSpeedupBands:
    """The headline reproduction targets of Table II / Table IV / Fig. 7."""

    @pytest.fixture(scope="class")
    def table_results(self):
        out = {}
        for spec in (XAVIER, RTX_2080TI):
            rows = []
            for cfg in TABLE2_LAYERS:
                res = run_layer_all_backends(cfg, spec, bound=7.0,
                                             compute_output=False)
                bl = res["pytorch"].sample_kernel.duration_ms
                rows.append((bl / res["tex2d"].sample_kernel.duration_ms,
                             bl / res["tex2dpp"].sample_kernel.duration_ms))
            out[spec.name] = np.array(rows)
        return out

    def test_texture_always_wins_on_xavier(self, table_results):
        assert (table_results["jetson-agx-xavier"] > 1.0).all()

    def test_xavier_speedups_in_band(self, table_results):
        sp = table_results["jetson-agx-xavier"]
        assert 1.15 < sp[:, 0].mean() < 1.55   # paper tex2D avg 1.27
        assert 1.2 < sp[:, 1].mean() < 1.6     # paper tex2D++ avg 1.39

    def test_2080ti_speedups_in_band(self, table_results):
        sp = table_results["rtx-2080ti"]
        assert 1.0 < sp[:, 0].mean() < 1.45    # paper avg ≈ 1.2
        assert (sp > 0.95).all()

    def test_tex2dpp_at_least_tex2d(self, table_results):
        for name, sp in table_results.items():
            assert (sp[:, 1] >= sp[:, 0] - 1e-6).all()

    def test_xavier_gains_exceed_2080ti(self, table_results):
        """The memory-starved edge GPU benefits more (paper §IV-C)."""
        xavier = table_results["jetson-agx-xavier"][:, 1].mean()
        ti = table_results["rtx-2080ti"][:, 1].mean()
        assert xavier > ti


class TestTiling:
    def test_enumerate_tiles_legal(self):
        tiles = enumerate_tiles(LayerConfig(64, 64, 32, 32), XAVIER)
        assert tiles
        for ty, tx in tiles:
            assert 32 <= ty * tx <= XAVIER.max_threads_per_block

    def test_heuristic_tile_reasonable(self):
        tile = heuristic_tile(LayerConfig(64, 64, 32, 32), XAVIER)
        assert tile[0] * tile[1] >= 64

    def test_tile_footprint_grows_with_tile(self):
        cfg = LayerConfig(64, 64, 32, 32)
        assert tile_footprint_bytes(cfg, (32, 32)) > \
            tile_footprint_bytes(cfg, (8, 8))

    def test_tile_size_affects_latency(self):
        cfg = LayerConfig(64, 64, 48, 48)
        off = synth_offsets(cfg, bound=7.0)
        times = []
        for tile in ((2, 16), (16, 16), (32, 32)):
            res = run_deform_op("tex2d", None, off, None, None, cfg, XAVIER,
                                tile=tile)
            times.append(res.sample_kernel.duration_ms)
        assert max(times) / min(times) > 1.05

    def test_invalid_tile_rejected(self):
        cfg = LayerConfig(8, 8, 8, 8)
        off = synth_offsets(cfg)
        with pytest.raises(ValueError):
            run_deform_op("tex2d", None, off, None, None, cfg, XAVIER,
                          tile=(64, 64))


class TestDispatch:
    def test_unknown_backend(self):
        cfg = SMALL
        g = rng(2)
        x = g.normal(size=cfg.input_shape()).astype(np.float32)
        w = g.normal(size=cfg.weight_shape()).astype(np.float32)
        off = synth_offsets(cfg)
        with pytest.raises(ValueError):
            run_deform_op("cudnn", x, off, w, None, cfg, XAVIER)

    def test_latency_is_sum_of_kernels(self, small_results):
        r = small_results["pytorch"]
        assert r.latency_ms == pytest.approx(
            sum(k.duration_ms for k in r.kernels))

    def test_merged_stats(self, small_results):
        r = small_results["tex2d"]
        merged = r.merged_stats()
        assert merged.flop_count_sp == pytest.approx(
            sum(k.flop_count_sp for k in r.kernels))


class TestSynthOffsets:
    def test_deterministic(self):
        cfg = SMALL
        a = synth_offsets(cfg, seed=5)
        b = synth_offsets(cfg, seed=5)
        assert np.array_equal(a, b)

    def test_bound_respected(self):
        off = synth_offsets(SMALL, sigma=5.0, bound=3.0)
        assert np.abs(off).max() <= 3.0

    def test_sigma_controls_spread(self):
        small = synth_offsets(SMALL, sigma=0.5)
        large = synth_offsets(SMALL, sigma=4.0)
        assert large.std() > 3 * small.std()

    def test_spatial_smoothness(self):
        """Correlated fields: neighbouring offsets should be similar."""
        cfg = LayerConfig(4, 4, 32, 32)
        off = synth_offsets(cfg, sigma=2.0, correlation=4.0)
        diff = np.abs(np.diff(off, axis=-1)).mean()
        assert diff < 0.5 * off.std()

    def test_layer_config_properties(self):
        cfg = LayerConfig(16, 32, 20, 20, stride=2)
        assert cfg.out_height == 10 and cfg.out_pixels == 100
        assert cfg.offset_channels == 18
        assert cfg.offset_shape() == (1, 18, 10, 10)
        assert cfg.weight_shape() == (32, 16, 3, 3)
        assert "16x32x20x20" == cfg.label()
