"""Reference decode: ``YolactLite.detect`` and its helpers as they were
before decode finished only the detections it returns, kept verbatim.

``assemble_masks`` runs the sigmoid over every candidate's mask, and
``_per_class_nms`` calls ``box_iou`` once per surviving box.  The
methods are module functions here, so a test can install ``detect`` on
``YolactLite`` in place of the program's (``tests/test_decode.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.coco_map import Detection
from repro.data.iou import box_iou
from repro.tensor import Tensor, no_grad

CELL_RANGE = 3.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assemble_masks(self, proto: np.ndarray, coefs: np.ndarray
                   ) -> np.ndarray:
    """Linear combination + sigmoid: (K, Hp, Wp) × (M, K) → (M, Hp, Wp)."""
    logits = np.tensordot(coefs, proto, axes=(1, 0))
    return _sigmoid(logits + float(self.mask_bias.data[0]))


def detect(self, images: np.ndarray, score_threshold: float = 0.35,
           nms_iou: float = 0.5, max_dets: int = 8,
           image_ids: Optional[Sequence[int]] = None) -> List[Detection]:
    """Decode detections for a batch of (N, 3, H, W) images."""
    self.eval()
    with no_grad():
        out = self(Tensor(images))
    n = images.shape[0]
    size = images.shape[-1]
    obj = _sigmoid(out["obj"].data[:, 0])                   # (N, G, G)
    cls = out["cls"].data                                   # (N, C, G, G)
    cls = np.exp(cls - cls.max(axis=1, keepdims=True))
    cls = cls / cls.sum(axis=1, keepdims=True)
    box = _sigmoid(out["box"].data)                         # (N, 4, G, G)
    coef = out["coef"].data                                 # (N, K, G, G)
    proto = out["proto"].data                               # (N, K, Hp, Wp)
    ids = list(image_ids) if image_ids is not None else list(range(n))

    detections: List[Detection] = []
    for i in range(n):
        score_map = obj[i][None] * cls[i]                   # (C, G, G)
        labels, gys, gxs = np.nonzero(score_map > score_threshold)
        if len(labels) == 0:
            continue
        scores = score_map[labels, gys, gxs]
        order = np.argsort(-scores)[: 4 * max_dets]
        labels, gys, gxs, scores = (labels[order], gys[order],
                                    gxs[order], scores[order])
        grid = obj.shape[-1]
        cell = size / grid
        cx = (gxs + 0.5
              + (box[i, 0, gys, gxs] - 0.5) * CELL_RANGE) * cell
        cy = (gys + 0.5
              + (box[i, 1, gys, gxs] - 0.5) * CELL_RANGE) * cell
        bw = np.maximum(box[i, 2, gys, gxs] * size, 2.0)
        bh = np.maximum(box[i, 3, gys, gxs] * size, 2.0)
        boxes = np.stack([cx - bw / 2, cy - bh / 2,
                          cx + bw / 2, cy + bh / 2], axis=1)
        boxes = np.clip(boxes, 0, size)
        coefs = coef[i, :, gys, gxs]                        # (M, K)
        masks_small = assemble_masks(self, proto[i], coefs)  # (M, Hp, Wp)
        keep = _per_class_nms(boxes, scores, labels, nms_iou)[:max_dets]
        up = size // masks_small.shape[-1]
        for j in keep:
            mask = np.repeat(np.repeat(masks_small[j], up, axis=0),
                             up, axis=1) > 0.5
            mask = _crop_to_box(mask, boxes[j])
            detections.append(Detection(
                image_id=ids[i], label=int(labels[j]),
                score=float(scores[j]), box=boxes[j].astype(np.float64),
                mask=mask))
    return detections


def _per_class_nms(boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray,
                   iou_thr: float) -> List[int]:
    """Greedy NMS within each class; returns kept indices, best first."""
    keep: List[int] = []
    for label in np.unique(labels):
        idx = np.nonzero(labels == label)[0]
        idx = idx[np.argsort(-scores[idx])]
        while len(idx):
            best = idx[0]
            keep.append(int(best))
            if len(idx) == 1:
                break
            ious = box_iou(boxes[best][None], boxes[idx[1:]])[0]
            idx = idx[1:][ious < iou_thr]
    keep.sort(key=lambda j: -scores[j])
    return keep


def _crop_to_box(mask: np.ndarray, box: np.ndarray) -> np.ndarray:
    """YOLACT's crop: zero the assembled mask outside the predicted box."""
    out = np.zeros_like(mask)
    x1, y1, x2, y2 = (int(np.floor(box[0])), int(np.floor(box[1])),
                      int(np.ceil(box[2])), int(np.ceil(box[3])))
    h, w = mask.shape
    x1, y1 = max(0, x1), max(0, y1)
    x2, y2 = min(w, x2), min(h, y2)
    if x2 > x1 and y2 > y1:
        out[y1:y2, x1:x2] = mask[y1:y2, x1:x2]
    return out
