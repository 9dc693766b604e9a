"""Fused execution plans: the texture backends' functional path.

The eager formulation of the tex2D forward
(:func:`~repro.kernels.tex2d.eager_tex2d_forward`, kept as the
reference) re-derives everything per call: sampling positions, a freshly
staged :class:`~repro.gpusim.texture.LayeredTexture2D`, four
fancy-indexed corner gathers with address-mode resolution, a column
reshape, and an einsum GEMM — each step allocating new temporaries.

A :class:`FusedPlan` compiles the offset-dependent half of that work
once per (offset digest, geometry, device, fp16) plan-cache entry — or
once per call when no plan cache is supplied:

* **flattened tap coordinates** — the four bilinear corner texel indices
  per tap, address mode already resolved to flat ``iy * W + jx`` form;
* **fixed-point blend weights** — the 1.8 fixed-point corner weights
  with the out-of-bounds (border) mask folded in, via the same
  :func:`~repro.gpusim.texture.filter_axis` corner math the eager
  fetch's :func:`~repro.gpusim.texture.linear_filter_taps` uses, so the
  numerics cannot drift.

A plan holds those tables and nothing else: the corner buffer and the
im2col columns are allocated per call, like
:func:`~repro.nn.im2col.im2col`'s rows, so a cached plan keeps only
what a later call reads, and the columns a call returns are its
caller's.

One plan covers any (channel, pixel) slice of the column matrix.  A
whole layer is the full slice: :meth:`FusedPlan.execute` runs
gather → blend → GEMM as one preplanned pass — four ``np.take`` gathers
blended in place into the call's column buffer, then
:func:`layer_epilogue`: a single contraction through
:func:`~repro.nn.im2col.gemm_epilogue` (the matmul that the eager
reference's ``"ok,nkl->nol"`` einsum ends in, on the same operands, so
the contraction order — and therefore every output bit — is identical)
and one copy into C order.  A fleet shard (:mod:`repro.kernels.shards`)
is a row band or channel slice of the same design:
:meth:`FusedPlan.gather` fills only its slice of the columns, bitwise
equal to that slice of the whole layer's, for the coordinator to stitch
and finish in the same :func:`layer_epilogue`.  The conformance suite's
``plancache.fused_bit_identical.*`` and ``shard.bit_identical.*`` checks
and ``tests/test_fused.py`` pin bit-identical outputs against the eager
reference.

Both kinds of plan come from the one texture launch,
:func:`~repro.kernels.tex2d.launch`, and hang off the
:class:`~repro.kernels.plancache.PlanCache` trace entry of the layer's
offsets, sharing one LRU lifetime and one digest key with the memoised
fetch trace; eviction drops the tables and the next call rebuilds
cleanly.  A price (a launch with no input) builds no plan.  A plan never
changes after it is built, so the serving worker thread and the
caller's thread may run one plan concurrently without a lock.
"""

from __future__ import annotations

from math import prod
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.texture import filter_axis
from repro.kernels.config import LayerConfig
from repro.nn.im2col import gemm_epilogue

if TYPE_CHECKING:
    from repro.kernels.shards import ShardSpec


class FusedPlan:
    """One compiled tex2D/tex2D++ gather for a fixed (offsets, geometry,
    slice), plus the GEMM when the slice is the whole layer.

    A plan covers one (channel, pixel) slice of the layer's im2col
    column matrix: per-group input channels ``[c0, c1)`` by output pixels
    ``[l0, l1)``.  The whole layer is the full slice; a
    :class:`~repro.kernels.shards.ShardSpec` selects a row band (the
    pixels of output rows ``[lo, hi)``) or a channel slice (the same
    channels in every deformable group).  All offset-dependent work —
    coordinate quantisation, address-mode resolution, fixed-point blend
    weights — happened at build time (:func:`build_fused_plan`);
    :meth:`gather` only gathers and blends, and :meth:`execute` (whole
    layers) adds the contraction.
    """

    def __init__(self, cfg: LayerConfig, fp16: bool,
                 idx: np.ndarray, wts: np.ndarray,
                 shard: Optional["ShardSpec"] = None):
        n, dg, k = cfg.batch, cfg.deformable_groups, cfg.taps
        self.cfg = cfg
        self.shard = shard
        self.fp16 = bool(fp16)
        self.n, self.dg, self.cpg = n, dg, cfg.in_channels // dg
        self.hw = cfg.height * cfg.width
        self.c0, self.c1, self.l0, self.l1 = slice_bounds(cfg, shard)
        self.csel, self.lsel = self.c1 - self.c0, self.l1 - self.l0
        #: (4, n·dg, K·lsel) flat corner texel indices into one layer
        self.idx = idx
        #: (4, n·dg, 1, K·lsel) blend weights, border mask folded in
        self.wts = wts
        #: rows of the full column matrix a channel slice fills
        self.dest_rows = None
        if shard is not None and shard.kind == "channels":
            self.dest_rows = np.concatenate([
                np.arange((g * self.cpg + self.c0) * k,
                          (g * self.cpg + self.c1) * k) for g in range(dg)])

    @property
    def nbytes(self) -> int:
        """Resident bytes: the tap tables (and a channel slice's rows)."""
        return (self.idx.nbytes + self.wts.nbytes
                + (self.dest_rows.nbytes if self.dest_rows is not None
                   else 0))

    # ------------------------------------------------------------------
    def gather(self, x: np.ndarray) -> np.ndarray:
        """Gather/blend this plan's column slice from the full input.

        Returns a fresh (N, dg·csel·K, lsel) column matrix, owned by the
        caller.  Execution is against the *full* input feature map:
        border addressing is resolved in the tap tables against
        full-image extents, so a physically cropped input would change
        semantics.
        """
        cols = np.empty(self._cols_shape(), dtype=np.float32)
        corner = np.empty(self._corner_shape(), dtype=np.float32)
        return self._gather(self._texels(x), cols, corner)

    def execute(self, x: np.ndarray, weight: np.ndarray,
                bias: Optional[np.ndarray]) -> np.ndarray:
        """Run a whole layer's forward; returns a fresh (N, OC, OH, OW)
        array.

        Bit-identical to the eager reference: the gather/blend replays
        :meth:`LayeredTexture2D.fetch`'s corner accumulation order and
        the contraction is the matmul the reference's einsum ends in.
        """
        if self.shard is not None:
            raise ValueError(f"shard plan {self.shard.label()} only "
                             f"gathers; stitch its columns instead")
        return layer_epilogue(self.cfg, self.gather(x), weight, bias)

    def _texels(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.cfg.input_shape():
            raise ValueError(f"fused plan compiled for input "
                             f"{self.cfg.input_shape()}, got {x.shape}")
        return np.ascontiguousarray(x, dtype=np.float32).reshape(
            self.n * self.dg, self.cpg, self.hw)

    def _cols_shape(self) -> Tuple[int, int, int]:
        return self.n, self.dg * self.csel * self.cfg.taps, self.lsel

    def _corner_shape(self) -> Tuple[int, int]:
        return self.csel, self.cfg.taps * self.lsel

    def _gather(self, xf: np.ndarray, cols: np.ndarray,
                corner: np.ndarray) -> np.ndarray:
        """The gather/blend loop over the slice, into ``cols``."""
        cols_bg = cols.reshape(self.n * self.dg, self.csel, -1)
        c0, c1 = self.c0, self.c1
        for b in range(self.n * self.dg):
            xb, acc = xf[b, c0:c1], cols_bg[b]
            # corner 0 lands straight in the column buffer; corners 1-3
            # stage through ``corner`` and accumulate — the same
            # ((t0 + t1) + t2) + t3 order as the eager fetch.
            np.take(xb, self.idx[0, b], axis=1, out=acc, mode="clip")
            acc *= self.wts[0, b]
            for q in (1, 2, 3):
                np.take(xb, self.idx[q, b], axis=1, out=corner, mode="clip")
                np.multiply(corner, self.wts[q, b], out=corner)
                acc += corner
        return cols


def layer_epilogue(cfg: LayerConfig, cols: np.ndarray, weight: np.ndarray,
                   bias: Optional[np.ndarray]) -> np.ndarray:
    """A whole layer's output from its full (N, C·K, L) column matrix:
    the GEMM epilogue, then one copy into C order.

    :meth:`FusedPlan.execute` and the shard stitch
    (:func:`~repro.kernels.shards.stitch_columns`) both end here, so a
    stitched output has the unsharded output's bits and strides.
    """
    w2 = weight.reshape(cfg.out_channels, cfg.in_channels * cfg.taps)
    res = gemm_epilogue(w2, cols, bias, (cfg.out_height, cfg.out_width))
    # later layers' bits follow the result's strides: one copy puts it in
    # C order, whatever the product's layout
    return res.copy(order="C")


def slice_bounds(cfg: LayerConfig, shard: Optional["ShardSpec"]
                 ) -> Tuple[int, int, int, int]:
    """``(c0, c1, l0, l1)``: the per-group channel and output-pixel ranges
    of a plan's slice — everything for a whole layer (``shard=None``)."""
    cpg = cfg.in_channels // cfg.deformable_groups
    if shard is None:
        return 0, cpg, 0, cfg.out_pixels
    if shard.kind == "rows":
        if shard.hi > cfg.out_height:
            raise ValueError(f"row shard {shard.label()} exceeds "
                             f"out_height {cfg.out_height}")
        return 0, cpg, shard.lo * cfg.out_width, shard.hi * cfg.out_width
    if shard.hi > cpg:
        raise ValueError(f"channel shard {shard.label()} exceeds "
                         f"channels-per-group {cpg}")
    return shard.lo, shard.hi, 0, cfg.out_pixels


def build_fused_plan(cfg: LayerConfig, spec: DeviceSpec, fp16: bool,
                     positions: Callable[[], Tuple[np.ndarray, np.ndarray]],
                     shard: Optional["ShardSpec"] = None) -> FusedPlan:
    """Compile a :class:`FusedPlan` for a whole layer or one shard of it.

    ``positions`` supplies the full (N, dg, K, L) fractional sampling
    positions (already fp16-quantised offsets for tex2D++).  A row band
    slices them along L before building its tables; a channel slice
    keeps them whole (all channels of a group share them).  The corner
    indices and weights reproduce the eager reference exactly: pixel →
    texture coordinate shift, fp16 coordinate quantisation, then
    :func:`~repro.gpusim.texture.linear_filter_taps`.  Only whole-layer
    plans check the device's texture extent.
    """
    n, dg = cfg.batch, cfg.deformable_groups
    h, w = cfg.height, cfg.width
    if cfg.in_channels % dg:
        raise ValueError(f"in_channels {cfg.in_channels} not divisible by "
                         f"deformable_groups {dg}")
    max_h, max_w, max_layers = spec.max_texture_extent
    if shard is None and (h > max_h or w > max_w
                          or n * cfg.in_channels > max_layers):
        raise ValueError(
            f"texture extent {(n * cfg.in_channels, h, w)} exceeds device "
            f"limit {spec.max_texture_extent} — partition the mini-batch "
            f"(paper Section III-B)")
    _, _, l0, l1 = slice_bounds(cfg, shard)
    py, px = positions()
    idx, wts = tap_tables(py[..., l0:l1], px[..., l0:l1], h, w, fp16)
    return FusedPlan(cfg, fp16, idx, wts, shard)


def tap_tables(py: np.ndarray, px: np.ndarray, h: int, w: int,
               fp16: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Corner index/weight tables for arbitrary (N, dg, ...) positions.

    The one compilation step of :func:`build_fused_plan` (a whole layer
    or a row-band or channel slice of the same positions): pixel coords →
    texture coords (+0.5), the tex2D++ fp16 coordinate quantisation, then
    :func:`~repro.gpusim.texture.filter_axis` — exactly
    ``fetch_at_pixel_coords`` + ``fetch``.  Rows and columns are one
    stacked array, so each axis is resolved once, in one pass over both,
    with one fp16 cast; each corner's index and weight rows are then one
    broadcast product of a row corner and a column corner, written
    straight into the tables.  Because every operation is elementwise,
    tables built from a *slice* of the positions are bitwise equal to
    the same slice of the full tables, which is what makes stitched
    shard outputs bit-identical to the unsharded forward.

    Returns ``idx`` of shape (4, N·dg, S) — flat corner texel indices —
    and ``wts`` of shape (4, N·dg, 1, S), the fixed-point blend weights
    with the border mask folded in, where S flattens every trailing
    position axis.
    """
    n, dg = py.shape[0], py.shape[1]
    s = prod(py.shape[2:])
    # both axes as one (2, N·dg, S) stack: float32 texture coords, one
    # fp16 quantisation for tex2D++, then each axis's two corners
    # resolved in one pass (widening fp16 back to float32 on the way in)
    t = np.empty((2, n * dg, s), dtype=np.float32)
    for axis, p in enumerate((py, px)):
        np.add(p.reshape(n * dg, s), 0.5, out=t[axis])
    if fp16:
        t = t.astype(np.float16)
    i, wq = filter_axis(t, np.array([[[h]], [[w]]]), "border", False)
    # corner (a, b) = row corner a × column corner b, q = 2a + b
    idx = np.empty((4, n * dg, s), dtype=np.int64)
    wts = np.empty((4, n * dg, 1, s), dtype=np.float32)
    corners = idx.reshape(2, 2, n * dg, s)
    np.multiply(i[:, 0, None], w, out=corners)
    corners += i[None, :, 1]
    np.multiply(wq[:, 0, None], wq[None, :, 1],
                out=wts.reshape(2, 2, n * dg, s))
    return idx, wts
