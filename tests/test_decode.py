"""Decode against the reference that finished every candidate, bit for bit.

``YolactLite.detect`` combines every candidate's mask coefficients but
runs the sigmoid only on the rows NMS keeps, the sigmoid takes one exp
over the whole array instead of masked halves, and NMS reads one IoU
matrix instead of calling ``box_iou`` per surviving box.
``tests/decode_reference.py`` keeps the decode that did none of this.
"""

import warnings

import numpy as np
import pytest

from repro.data.iou import box_iou
from repro.gpusim import XAVIER
from repro.models.yolact import YolactLite, _per_class_nms, _sigmoid
from repro.pipeline import DefconEngine

import decode_reference as ref
from helpers import rng


def _detect(model, images, max_dets):
    engine = DefconEngine(model, XAVIER, backend="tex2dpp")
    return engine.detect(images, score_threshold=0.05, max_dets=max_dets)


@pytest.mark.parametrize("max_dets", (8, 3))
@pytest.mark.parametrize("batch", (1, 4))
def test_whole_detect_bit_identical_to_reference_decode(
        detect_model, batch, max_dets, monkeypatch):
    images = rng(30 + batch).uniform(0, 1, size=(batch, 3, 64, 64)).astype(
        np.float32)
    got = _detect(detect_model, images, max_dets)
    with monkeypatch.context() as m:
        m.setattr(YolactLite, "detect", ref.detect)
        expect = _detect(detect_model, images, max_dets)
    assert expect, "no detections to compare"
    # NMS kept more than max_dets somewhere, so the dropped rows matter
    assert any(sum(d.image_id == i for d in expect) == max_dets
               for i in range(batch))
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert (a.image_id, a.label) == (b.image_id, b.label)
        assert a.score == b.score
        assert np.array_equal(a.box, b.box)
        assert np.array_equal(a.mask, b.mask)


def _boxes(g, m, grid=4.0):
    """Random x1y1x2y2 boxes on a coarse grid, so IoUs repeat exactly."""
    xy = np.round(g.uniform(0, 40, size=(m, 2)) / grid) * grid
    wh = np.round(g.uniform(0, 20, size=(m, 2)) / grid) * grid
    return np.concatenate([xy, xy + wh], axis=1)


NMS_CASES = {
    "score ties": (
        np.array([[0, 0, 10, 10], [0, 0, 10, 10], [20, 20, 30, 30],
                  [1, 1, 11, 11], [20, 20, 30, 30]], dtype=np.float64),
        np.full(5, 0.5), np.zeros(5, dtype=np.int64)),
    "single box": (np.array([[2.0, 3.0, 7.0, 9.0]]), np.array([0.7]),
                   np.array([2])),
    # IoU exactly 0.5: at the threshold a box is suppressed
    "iou at threshold": (
        np.array([[0, 0, 10, 10], [0, 0, 10, 5], [0, 5, 10, 10]],
                 dtype=np.float64),
        np.array([0.9, 0.8, 0.7]), np.zeros(3, dtype=np.int64)),
    # empty boxes: 0/0 IoU, which box_iou maps to 0
    "empty boxes": (
        np.array([[5, 5, 5, 5], [5, 5, 5, 5], [0, 0, 4, 4]],
                 dtype=np.float64),
        np.array([0.9, 0.8, 0.7]), np.zeros(3, dtype=np.int64)),
}


@pytest.mark.parametrize("case", NMS_CASES)
def test_nms_matches_reference_on_edge_cases(case):
    boxes, scores, labels = NMS_CASES[case]
    with np.errstate(invalid="ignore"):
        expect = ref._per_class_nms(boxes, scores, labels, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _per_class_nms(boxes, scores, labels, 0.5) == expect


def test_nms_iou_exactly_at_threshold_suppresses():
    boxes, scores, labels = NMS_CASES["iou at threshold"]
    assert _per_class_nms(boxes, scores, labels, 0.5) == [0]
    assert _per_class_nms(boxes, scores, labels, np.nextafter(0.5, 1)) == [
        0, 1, 2]


@pytest.mark.parametrize("seed", range(6))
def test_nms_matches_reference_over_several_classes(seed):
    g = rng(40 + seed)
    m = 32
    boxes = _boxes(g, m)
    scores = np.round(g.uniform(0.3, 1.0, size=m), 1)   # many ties
    labels = g.integers(0, 4, size=m)
    for thr in (0.3, 0.5, 0.7):
        with np.errstate(invalid="ignore"):
            expect = ref._per_class_nms(boxes, scores, labels, thr)
        assert _per_class_nms(boxes, scores, labels, thr) == expect


def test_iou_matrix_rows_equal_per_row_calls():
    boxes = rng(50).uniform(0, 64, size=(24, 4))
    boxes[:, 2:] += boxes[:, :2]
    matrix = box_iou(boxes, boxes)
    for i in range(len(boxes)):
        row = box_iou(boxes[i][None], boxes[i + 1:])[0]
        assert np.array_equal(matrix[i, i + 1:].view(np.uint64),
                              row.view(np.uint64))


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_sigmoid_bits_match_reference(dtype):
    """One exp over |x| gives each branch's bits of the masked form."""
    g = rng(60)
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 88.0, -88.0, 1e4, -1e4],
        g.normal(size=4000) * 30, g.normal(size=4000)]).astype(dtype)
    grid = x[:8000].reshape(4, 2, 1000)[:, 0]   # strided, like a head map
    for v in (x, grid):
        got, expect = _sigmoid(v), ref._sigmoid(v)
        assert got.dtype == expect.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
