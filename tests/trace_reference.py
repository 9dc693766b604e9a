"""Reference texel→line trace: ``TextureCacheModel.precompute`` as it was
before each axis was resolved once, kept verbatim.

It expands every fetch to its four corners, filters them by bounds and
maps the survivors to lines, the way ``simulate`` does.  The program's
:meth:`repro.gpusim.cache.TextureCacheModel.precompute` must return the
same arrays, dtypes included (``tests/test_dcn_miss_path.py``).  As the
program's miss path did then, callers cast the floored positions to
int64 first.  Everything here is independent of ``repro`` so the
comparison is against separate code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: largest key space :func:`unique_keys` tabulates regardless of key count
TABLE_BOUND = 1 << 24


def unique_keys(keys: np.ndarray, space: int) -> np.ndarray:
    """``np.unique(keys)`` for int64 ``keys`` in ``[0, space)``.

    A key space within :data:`TABLE_BOUND`, or within 16 slots per key,
    is marked in a boolean table and read back in ascending order by
    ``np.flatnonzero``: exact counting, no sort, the same values and
    dtype as ``np.unique``.  A sparser space sorts.
    """
    if space > max(TABLE_BOUND, 16 * keys.size):
        return np.unique(keys)
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen)


@dataclass(frozen=True)
class TexelLineTrace:
    requests: int            # bilinear fetches in the trace (pre-expansion)
    texel_reads: int         # valid corner texels in the raw stream
    #: unique (pixel, line) pairs of the trace, pixel-major ascending
    dedup_pixel: np.ndarray
    dedup_lines: np.ndarray
    #: raw texel reads issued per output pixel (length = max pixel + 1)
    pixel_counts: np.ndarray
    #: line-id space bound: every line id in the trace is < ``line_space``
    line_space: int


class TraceModel:
    """The line mapping and trace precomputation of one line tile."""

    def __init__(self, line_tile: Tuple[int, int]):
        self.line_th, self.line_tw = line_tile

    def line_ids(self, y: np.ndarray, x: np.ndarray, tex_w: int) -> np.ndarray:
        """Map texel coordinates to block-linear line IDs."""
        lines_per_row = -(-tex_w // self.line_tw)  # ceil
        return (y // self.line_th) * lines_per_row + (x // self.line_tw)

    def precompute(self, y: np.ndarray, x: np.ndarray, pixel: np.ndarray,
                   tex_h: int, tex_w: int, corners: bool = True
                   ) -> TexelLineTrace:
        """One-pass step 1: the texel→line mapping of a fetch trace.

        Same corner expansion and bounds filtering as :meth:`simulate`, but
        tagged with the issuing *output pixel* instead of a CTA, so any CTA
        tiling can be applied afterwards via :meth:`simulate_retiled`.
        """
        y = np.asarray(y, dtype=np.int64).ravel()
        x = np.asarray(x, dtype=np.int64).ravel()
        pixel = np.asarray(pixel, dtype=np.int64).ravel()
        if not (y.size == x.size == pixel.size):
            raise ValueError("y, x, pixel must have equal length")
        requests = y.size
        if corners:
            y4 = np.concatenate([y, y, y + 1, y + 1])
            x4 = np.concatenate([x, x + 1, x, x + 1])
            pix4 = np.concatenate([pixel] * 4)
        else:
            y4, x4, pix4 = y, x, pixel
        valid = (y4 >= 0) & (y4 < tex_h) & (x4 >= 0) & (x4 < tex_w)
        y4, x4, pix4 = y4[valid], x4[valid], pix4[valid]
        if y4.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return TexelLineTrace(requests=requests, texel_reads=0,
                                  dedup_pixel=empty, dedup_lines=empty,
                                  pixel_counts=empty, line_space=1)
        lines = self.line_ids(y4, x4, tex_w)
        # Pixel-granular reductions, paid once per trace: the deduplicated
        # (pixel, line) pair set and the raw per-pixel read counts are all
        # any CTA grouping of pixels needs.
        line_space = int(lines.max()) + 1
        pair_key = unique_keys(pix4 * line_space + lines,
                               (int(pix4.max()) + 1) * line_space)
        return TexelLineTrace(requests=requests, texel_reads=int(lines.size),
                              dedup_pixel=pair_key // line_space,
                              dedup_lines=pair_key % line_space,
                              pixel_counts=np.bincount(pix4),
                              line_space=line_space)
