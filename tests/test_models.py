"""Backbone / FPN / heads / YolactLite / classifier model tests."""

import numpy as np
import pytest

from repro.deform.layers import DeformConv2d
from repro.models import (STAGE_BLOCKS, FPNLite, PredictionHead, ProtoNet,
                          ResNetBackbone, ShapeClassifier, YolactLite,
                          build_backbone, build_classifier, build_yolact,
                          dual_path_sites)
from repro.models.yolact import _crop_to_box, _per_class_nms, _sigmoid
from repro.nas import DualPathLayer, manual_interval_placement
from repro.nn import Conv2d
from repro.tensor import Tensor

from helpers import rng


class TestBackbone:
    def test_stage_feature_shapes(self):
        bb = build_backbone("r50s", input_size=64)
        x = Tensor(rng(0).normal(size=(2, 3, 64, 64)))
        feats = bb(x)
        assert feats["c2"].shape[2:] == (32, 32)
        assert feats["c3"].shape[2:] == (16, 16)
        assert feats["c4"].shape[2:] == (8, 8)
        assert feats["c5"].shape[2:] == (4, 4)

    def test_candidate_sites_count(self):
        assert build_backbone("r50s").num_candidate_sites() == \
            sum(STAGE_BLOCKS["r50s"][1:])
        assert build_backbone("r101s").num_candidate_sites() == \
            sum(STAGE_BLOCKS["r101s"][1:])

    def test_downsampling_sites_marked(self):
        bb = build_backbone("r50s")
        specs = [s for s, _ in bb.candidate_sites()]
        down = [s for s in specs if s.is_downsampling]
        # one stride-2 site at the entry of each searchable stage
        assert len(down) == 3
        assert all(s.block == 0 for s in down)

    def test_site_layer_configs_match_feature_geometry(self):
        bb = build_backbone("r50s", input_size=64)
        cfgs = bb.site_layer_configs()
        specs = [s for s, _ in bb.candidate_sites()]
        for cfg, spec in zip(cfgs, specs):
            assert cfg.height == spec.feature_size
            assert cfg.stride == spec.stride

    def test_unknown_arch(self):
        with pytest.raises(KeyError):
            build_backbone("resnet152")

    def test_custom_blocks_tuple(self):
        bb = ResNetBackbone(arch=(1, 1, 1, 1), base_width=4, input_size=32)
        assert bb.num_candidate_sites() == 3

    def test_placement_controls_dcn_modules(self):
        placement = manual_interval_placement(9, 3)
        bb = build_backbone("r50s", placement=placement)
        mods = [m for _, m in bb.candidate_sites()]
        for use, mod in zip(placement, mods):
            if use:
                assert isinstance(mod, DeformConv2d)
            else:
                assert isinstance(mod, Conv2d)

    def test_placement_length_validated(self):
        with pytest.raises(ValueError):
            bb = build_backbone("r50s", placement=[True])
            Tensor  # placate linters; construction itself raises

    def test_supernet_sites_are_dual_path(self):
        bb = build_backbone("r50s", supernet=True)
        mods = [m for _, m in bb.candidate_sites()]
        assert all(isinstance(m, DualPathLayer) for m in mods)

    def test_supernet_and_placement_mutually_exclusive(self):
        with pytest.raises(ValueError):
            build_backbone("r50s", supernet=True, placement=[True] * 9)


class TestNeckAndHeads:
    def test_fpn_output_at_c3_scale(self):
        fpn = FPNLite(8, 16, 32, out_channels=12, rng=rng(1))
        feats = {
            "c3": Tensor(rng(2).normal(size=(1, 8, 16, 16))),
            "c4": Tensor(rng(3).normal(size=(1, 16, 8, 8))),
            "c5": Tensor(rng(4).normal(size=(1, 32, 4, 4))),
        }
        assert fpn(feats).shape == (1, 12, 16, 16)

    def test_protonet_upsamples_and_is_nonnegative(self):
        proto = ProtoNet(12, num_prototypes=5, rng=rng(5))
        out = proto(Tensor(rng(6).normal(size=(1, 12, 16, 16))))
        assert out.shape == (1, 5, 32, 32)
        assert (out.data >= 0).all()

    def test_prediction_head_branches(self):
        head = PredictionHead(12, num_classes=4, num_prototypes=5,
                              rng=rng(7))
        out = head(Tensor(rng(8).normal(size=(2, 12, 16, 16))))
        assert out["obj"].shape == (2, 1, 16, 16)
        assert out["cls"].shape == (2, 4, 16, 16)
        assert out["box"].shape == (2, 4, 16, 16)
        assert out["coef"].shape == (2, 5, 16, 16)


class TestYolact:
    @pytest.fixture(scope="class")
    def model(self):
        return build_yolact("r50s", seed=0)

    def test_forward_output_shapes(self, model):
        x = Tensor(rng(9).normal(size=(2, 3, 64, 64)))
        out = model(x)
        assert out["proto"].shape == (2, 6, 32, 32)
        assert out["cls"].shape == (2, 4, 16, 16)

    def test_detect_returns_detections(self, model):
        images = rng(10).uniform(0, 1, size=(2, 3, 64, 64)).astype(
            np.float32)
        dets = model.detect(images, score_threshold=0.01, max_dets=4)
        for d in dets:
            assert d.image_id in (0, 1)
            assert 0 <= d.label < 4
            assert d.mask.shape == (64, 64)
            assert d.box[0] <= d.box[2] and d.box[1] <= d.box[3]

    def test_detect_respects_image_ids(self, model):
        images = rng(11).uniform(0, 1, size=(2, 3, 64, 64)).astype(
            np.float32)
        dets = model.detect(images, score_threshold=0.01,
                            image_ids=[42, 43])
        assert {d.image_id for d in dets} <= {42, 43}

    def test_high_threshold_fewer_detections(self, model):
        images = rng(12).uniform(0, 1, size=(1, 3, 64, 64)).astype(
            np.float32)
        low = model.detect(images, score_threshold=0.001)
        high = model.detect(images, score_threshold=0.9)
        assert len(high) <= len(low)

    def test_assemble_masks_sigmoid_range(self, model):
        proto = rng(13).normal(size=(6, 16, 16))
        coefs = rng(14).normal(size=(3, 6))
        masks = model.assemble_masks(proto, coefs, [2, 0])
        assert masks.shape == (2, 16, 16)
        assert (masks > 0).all() and (masks < 1).all()
        every = model.assemble_masks(proto, coefs, [0, 1, 2])
        assert np.array_equal(masks, every[[2, 0]])


class TestDetectHelpers:
    def test_sigmoid_stable(self):
        v = _sigmoid(np.array([1000.0, -1000.0, 0.0]))
        assert np.allclose(v, [1.0, 0.0, 0.5])

    def test_nms_suppresses_overlaps(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [30, 30, 40, 40]],
                         dtype=np.float64)
        scores = np.array([0.9, 0.8, 0.7])
        labels = np.array([0, 0, 0])
        keep = _per_class_nms(boxes, scores, labels, 0.5)
        assert keep == [0, 2]

    def test_nms_keeps_across_classes(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]], dtype=np.float64)
        scores = np.array([0.9, 0.8])
        labels = np.array([0, 1])
        keep = _per_class_nms(boxes, scores, labels, 0.5)
        assert sorted(keep) == [0, 1]

    def test_crop_to_box(self):
        mask = np.ones((10, 10), dtype=bool)
        out = _crop_to_box(mask, np.array([2.0, 3.0, 6.0, 7.0]))
        assert out[4, 4] and not out[0, 0] and not out[9, 9]

    def test_crop_degenerate_box(self):
        mask = np.ones((5, 5), dtype=bool)
        out = _crop_to_box(mask, np.array([3.0, 3.0, 3.0, 3.0]))
        assert not out.any()


class TestClassifier:
    def test_logits_shape_and_accuracy(self):
        model = build_classifier("r50s", seed=0)
        xs = rng(15).uniform(0, 1, size=(4, 3, 64, 64)).astype(np.float32)
        logits = model(Tensor(xs))
        assert logits.shape == (4, 4)
        preds = model.predict(xs)
        assert preds.shape == (4,)
        acc = model.accuracy(xs, preds)
        assert acc == pytest.approx(1.0)

    def test_dcn_classifier_builds(self):
        model = build_classifier("r50s", placement=[True] * 9,
                                 lightweight=True, bound=7.0)
        assert any(isinstance(m, DeformConv2d) for m in model.modules())
