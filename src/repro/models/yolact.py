"""YolactLite — the instance-segmentation model of the reproduction.

Backbone (ResNet-style, with DCN candidate sites) → FPN → {ProtoNet,
PredictionHead}, plus YOLACT's inference recipe: score thresholding,
per-class NMS, prototype mask assembly, crop-to-box.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.tensor import Tensor, no_grad
from repro.nn import Module
from repro.data.coco_map import Detection
from repro.data.iou import box_iou
from repro.models.fpn import FPNLite
from repro.models.prediction_head import PredictionHead
from repro.models.protonet import ProtoNet
from repro.models.resnet import ResNetBackbone


#: Box centres are predicted relative to the owning grid cell (a conv head
#: carries no absolute position): decoded centre = cell centre +
#: (sigmoid(raw) − 0.5) × CELL_RANGE cells.
CELL_RANGE = 3.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic, as float64: ``1 / (1 + e)`` for x >= 0 and
    ``e / (1 + e)`` below, both with ``e = exp(-|x|)`` in x's dtype."""
    e = np.exp(-np.abs(x))
    return (np.where(x >= 0, 1.0, e) / (1.0 + e)).astype(np.float64)


class YolactLite(Module):
    """End-to-end model; ``forward`` returns raw heads, ``detect`` decodes."""

    def __init__(self, backbone: ResNetBackbone, num_classes: int = 4,
                 num_prototypes: int = 6, fpn_channels: int = 24,
                 seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed + 1)
        self.backbone = backbone
        self.fpn = FPNLite(backbone.stage_channels[3],
                           backbone.stage_channels[4],
                           backbone.stage_channels[5],
                           out_channels=fpn_channels, rng=rng)
        self.protonet = ProtoNet(fpn_channels, num_prototypes=num_prototypes,
                                 rng=rng)
        self.head = PredictionHead(fpn_channels, num_classes=num_classes,
                                   num_prototypes=num_prototypes, rng=rng)
        self.num_classes = num_classes
        self.num_prototypes = num_prototypes
        self.input_size = backbone.input_size
        # Prototypes are ReLU'd (non-negative), so background pixels sit at
        # logit 0 (= p 0.5) without a bias; start masks empty instead.
        from repro.nn.module import Parameter

        self.mask_bias = Parameter(np.array([-2.0], dtype=np.float32))

    # ------------------------------------------------------------------
    def forward(self, images: Tensor) -> Dict[str, Tensor]:
        feats = self.backbone(images)
        p3 = self.fpn(feats)
        out = self.head(p3)
        out["proto"] = self.protonet(p3)   # (N, K, H/2, W/2)
        out["mask_bias"] = self.mask_bias
        return out

    # ------------------------------------------------------------------
    def assemble_masks(self, proto: np.ndarray, coefs: np.ndarray,
                       rows: Sequence[int]) -> np.ndarray:
        """Linear combination + sigmoid of the kept candidates ``rows``:
        (K, Hp, Wp) × (M, K) → (len(rows), Hp, Wp).

        The combination runs over all M candidates: a GEMM over a subset
        of rows may round differently.  Only the elementwise sigmoid is
        restricted to ``rows``.
        """
        logits = np.tensordot(coefs, proto, axes=(1, 0))
        return _sigmoid(logits[rows] + float(self.mask_bias.data[0]))

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
            keep = _per_class_nms(boxes, scores, labels, nms_iou)[:max_dets]
            fg = self.assemble_masks(proto[i], coefs, keep) > 0.5
            up = size // fg.shape[-1]
            for j, fg_small in zip(keep, fg):
                mask = np.repeat(np.repeat(fg_small, up, axis=0), up, axis=1)
                mask = _crop_to_box(mask, boxes[j])
                detections.append(Detection(
                    image_id=ids[i], label=int(labels[j]),
                    score=float(scores[j]), box=boxes[j].astype(np.float64),
                    mask=mask))
        return detections


def _per_class_nms(boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray,
                   iou_thr: float) -> List[int]:
    """Greedy NMS within each class; returns kept indices, best first.

    Reads one IoU matrix over all boxes; its entries are elementwise the
    values per-row ``box_iou`` calls give.  Pairs of empty boxes divide
    0 by 0 there, and ``box_iou`` maps them to 0.
    """
    with np.errstate(invalid="ignore"):
        iou = box_iou(boxes, boxes)
    keep: List[int] = []
    for label in np.unique(labels):
        idx = np.nonzero(labels == label)[0]
        idx = idx[np.argsort(-scores[idx])]
        while len(idx):
            best = idx[0]
            keep.append(int(best))
            idx = idx[1:][iou[best, idx[1:]] < iou_thr]
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
