"""Synthetic instance-segmentation data + COCO-style metrics.

The MS-COCO substitute of the reproduction: a procedural dataset of
geometrically deformed shapes (:mod:`~repro.data.shapes`) with full
instance annotations, and a faithful COCO mAP evaluator
(:mod:`~repro.data.coco_map`).
"""

from repro.data.shapes import (CLASS_NAMES, NUM_CLASSES, Instance, Sample,
                               make_sample, render_instance)
from repro.data.dataset import (ShapesDataset, StreamingShapesDataset,
                                classification_arrays)
from repro.data.iou import box_from_mask, box_iou, mask_iou
from repro.data.coco_map import (COCO_IOU_THRESHOLDS, Detection, EvalResult,
                                 GroundTruth, average_precision, evaluate_map)

__all__ = [
    "CLASS_NAMES", "NUM_CLASSES", "Instance", "Sample", "make_sample",
    "render_instance",
    "ShapesDataset", "StreamingShapesDataset", "classification_arrays",
    "box_iou", "mask_iou", "box_from_mask",
    "Detection", "GroundTruth", "EvalResult", "evaluate_map",
    "average_precision", "COCO_IOU_THRESHOLDS",
]
