"""Reference outputs stored with the benchmark, and the comparisons.

``references/<workload>.json`` holds, per pool input, what the program
returned when the benchmark was defined (``make_refs.py`` rewrites
them).  Every timed request is checked against them:

* ``detect`` (batch 4, fixed composition): a digest of every detection's
  label, score, box and mask, and a digest of every simulated kernel
  launch's counters — both exact;
* ``serve``: batch composition varies with arrival timing, and a batch
  of four re-rounds the GEMMs of a batch of one; through the fp16
  offsets and 1.8 fixed-point texture weights that moves scores by up
  to ~3e-3 and boxes by up to ~0.5 px.  A request passes when its top
  detection and at least :data:`SERVE_MIN_MATCHED` of the reference
  detections each match a returned detection of the same label within
  :data:`SCORE_TOL`, :data:`BOX_TOL` and a mask area within one box
  perimeter of pixels, and the detection counts differ by at most one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields
from typing import Dict, List, Sequence

import numpy as np

from repro.gpusim.profiler import KernelStats

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "references")

SCORE_TOL = 5e-3
BOX_TOL = 1.0
SERVE_MIN_MATCHED = 0.75

_COUNTERS = [f.name for f in fields(KernelStats)
             if f.name not in ("name", "layer", "geometry")]


def kernels_digest(kernels: Sequence[KernelStats]) -> str:
    """Exact digest of every launch's identity and counters, in order."""
    h = hashlib.blake2b(digest_size=16)
    for k in kernels:
        h.update(f"{k.name}|{k.layer}|{k.geometry}|".encode())
        h.update(np.array([getattr(k, c) for c in _COUNTERS],
                          dtype=np.float64).tobytes())
    return h.hexdigest()


def detections_digest(dets) -> str:
    """Exact digest of labels, scores, boxes and masks, in order."""
    h = hashlib.blake2b(digest_size=16)
    for d in dets:
        h.update(np.array([d.image_id, d.label], dtype=np.int64).tobytes())
        h.update(np.array([d.score, *d.box], dtype=np.float64).tobytes())
        h.update(np.packbits(d.mask).tobytes())
    return h.hexdigest()


def detection_rows(dets) -> List[list]:
    """[label, score, x1, y1, x2, y2, mask area] per detection."""
    return [[int(d.label), round(float(d.score), 7),
             *[round(float(v), 4) for v in d.box], int(d.mask.sum())]
            for d in dets]


def _close(ref: list, got: list) -> bool:
    if ref[0] != got[0] or abs(ref[1] - got[1]) > SCORE_TOL:
        return False
    if max(abs(a - b) for a, b in zip(ref[2:6], got[2:6])) > BOX_TOL:
        return False
    perimeter = 2.0 * ((ref[4] - ref[2]) + (ref[5] - ref[3])) + 4.0
    return abs(ref[6] - got[6]) <= perimeter


def rows_match(ref: List[list], got: List[list],
               min_matched: float = SERVE_MIN_MATCHED) -> bool:
    """The tolerant ``serve`` comparison (see the module docstring)."""
    if abs(len(ref) - len(got)) > 1:
        return False
    if not ref:
        return True
    used = set()
    matched = 0
    top_ok = False
    for i, r in enumerate(ref):
        for j, g in enumerate(got):
            if j not in used and _close(r, g):
                used.add(j)
                matched += 1
                top_ok = top_ok or i == 0
                break
    return top_ok and matched >= min_matched * len(ref)


def path(workload: str) -> str:
    return os.path.join(REF_DIR, f"{workload}.json")


def load(workload: str) -> Dict:
    with open(path(workload)) as fh:
        return json.load(fh)


def save(workload: str, data: Dict) -> None:
    os.makedirs(REF_DIR, exist_ok=True)
    tmp = path(workload) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    os.replace(tmp, path(workload))
