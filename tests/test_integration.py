"""Integration tests: small end-to-end flows across subsystems.

Kept deliberately tiny (seconds each) — the full-size experiment flows live
in benchmarks/.
"""

import numpy as np
import pytest

from repro.autotune import TileTuner
from repro.data import ShapesDataset
from repro.gpusim import XAVIER
from repro.models import build_classifier, build_yolact, dual_path_sites
from repro.nas import IntervalSearch, SearchConfig
from repro.pipeline import (AccuracyExperiment, DefconConfig,
                            ExperimentSettings, TrainConfig,
                            evaluate_detector, train_detector)
from repro.pipeline.losses import classification_loss
from repro.tensor import Tensor

from helpers import rng

TINY_TRAIN = TrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=0)


@pytest.fixture(scope="module")
def tiny_data():
    return (ShapesDataset.generate(32, size=64, seed=0),
            ShapesDataset.generate(16, size=64, seed=100))


class TestDetectionTraining:
    def test_loss_decreases(self, tiny_data):
        train_set, _ = tiny_data
        model = build_yolact("r50s", seed=0)
        log = train_detector(model, train_set, TINY_TRAIN)
        first = np.mean(log.losses[:3])
        last = np.mean(log.losses[-3:])
        assert last < first

    def test_evaluate_detector_returns_result(self, tiny_data):
        train_set, val_set = tiny_data
        model = build_yolact("r50s", seed=0)
        train_detector(model, train_set, TINY_TRAIN)
        result = evaluate_detector(model, val_set)
        assert 0.0 <= result.mask_map <= 1.0
        assert 0.0 <= result.box_map <= 1.0

    def test_dcn_detector_trains(self, tiny_data):
        train_set, _ = tiny_data
        model = build_yolact("r50s", placement=[True] * 9, lightweight=True,
                             bound=7.0, seed=0)
        log = train_detector(model, train_set, TINY_TRAIN)
        assert np.isfinite(log.losses).all()

    def test_regularized_training_runs(self, tiny_data):
        train_set, _ = tiny_data
        settings = ExperimentSettings(
            task="detection", train_samples=16, val_samples=8,
            train=TrainConfig(epochs=1, batch_size=8))
        exp = AccuracyExperiment(settings)
        row = exp.run_fixed("reg", [True] * 9,
                            DefconConfig(boundary=True, lightweight=True,
                                         regularization=True))
        assert np.isfinite(row.mask_map)


class TestSearchIntegration:
    def test_classification_search_end_to_end(self):
        settings = ExperimentSettings(
            task="classification", train_samples=24, val_samples=8,
            train=TrainConfig(epochs=1, batch_size=8, lr=1e-2),
            search=SearchConfig(search_epochs=1, finetune_epochs=1,
                                beta=0.01))
        exp = AccuracyExperiment(settings)
        result = exp.run_search()
        assert len(result.placement) == settings.num_sites
        assert result.search_losses and result.finetune_losses
        row = exp.evaluate_searched(result)
        assert row.accuracy is not None

    def test_supernet_detection_search_step(self):
        """One search step over the detection supernet wires losses,
        penalty, and both optimizers together."""
        supernet = build_yolact("r50s", supernet=True, bound=7.0, seed=0)
        sites = dual_path_sites(supernet)
        assert len(sites) == 9
        ds = ShapesDataset.generate(8, size=64, seed=0)

        from repro.pipeline.losses import detection_loss

        def batches():
            return ds.batches(8)

        def loss_fn(model, batch):
            images, samples = batch
            return detection_loss(model(Tensor(images)), samples, 64)

        cfg = SearchConfig(search_epochs=1, finetune_epochs=0, beta=0.01,
                           target_latency_ms=10.0)
        result = IntervalSearch(supernet, sites, [1.0] * 9, cfg).run(
            batches, loss_fn)
        assert len(result.search_losses) == 1

    def test_site_latencies_paper_scale(self):
        settings = ExperimentSettings(train_samples=4, val_samples=4)
        exp = AccuracyExperiment(settings)
        lats = exp.site_latencies_ms()
        assert len(lats) == settings.num_sites
        assert all(l > 0 for l in lats)


class TestTunerIntegration:
    def test_tuned_tile_not_worse_than_default(self):
        from repro.kernels import DEFAULT_TILE, LayerConfig, run_deform_op
        from repro.kernels import synth_offsets

        cfg = LayerConfig(32, 32, 34, 34)
        tuner = TileTuner(XAVIER, budget=10, seed=0)
        best = tuner.best_tile(cfg)
        off = synth_offsets(cfg, bound=7.0, seed=0)
        t_best = run_deform_op("tex2d", None, off, None, None, cfg, XAVIER,
                               tile=best).sample_kernel.duration_ms
        t_default = run_deform_op("tex2d", None, off, None, None, cfg,
                                  XAVIER, tile=DEFAULT_TILE
                                  ).sample_kernel.duration_ms
        assert t_best <= t_default * 1.001


class TestTextureInferenceEquivalence:
    def test_trained_dcn_layer_through_texture_path(self):
        """Run a trained DeformConv2d's offsets through the tex2D kernel —
        outputs must agree to fixed-point tolerance (the 'no accuracy
        impact' claim on real, non-synthetic offsets)."""
        from repro.deform.layers import DeformConv2d
        from repro.kernels import LayerConfig, run_deform_op

        layer = DeformConv2d(8, 8, bound=7.0, bias=False, rng=rng(1))
        # give it non-trivial offsets
        layer.offset_head.conv.weight.data[:] = \
            0.05 * rng(2).normal(size=layer.offset_head.conv.weight.shape)
        x = rng(3).normal(size=(1, 8, 12, 12)).astype(np.float32)
        out_soft = layer(Tensor(x))
        off = layer.last_offsets.data
        cfg = LayerConfig(8, 8, 12, 12)
        res = run_deform_op("tex2d", x, off, layer.weight.data, None, cfg,
                            XAVIER)
        err = np.abs(res.output - out_soft.data).max()
        assert err < 0.02 * np.abs(out_soft.data).max()
