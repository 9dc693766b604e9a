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
  :func:`~repro.gpusim.texture.linear_filter_taps` helper the eager
  fetch uses, so the numerics cannot drift;
* **preallocated buffers** — a per-corner gather buffer, the im2col
  column buffer, and the GEMM output buffer, reused across calls.

:meth:`FusedPlan.execute` then runs offset-quantise → gather → blend →
GEMM as one preplanned pass writing into those buffers: four
``np.take`` gathers blended in place into the column buffer and a
single contraction through :func:`~repro.nn.im2col.gemm_epilogue` (the
*same* ``"ok,nkl->nol"`` einsum the eager reference spells out, so the
contraction order — and therefore every output bit — is identical).
The conformance suite's ``plancache.fused_bit_identical.*`` check and
``tests/test_fused.py`` pin bit-identical outputs against the eager
reference.

Plans hang off the :class:`~repro.kernels.plancache.PlanCache` trace
entry for their offsets, sharing one LRU lifetime and one digest key
with the memoised fetch trace; eviction drops the buffers and the next
call rebuilds cleanly.  Execution is serialised per plan (the buffers
are shared mutable state), so one plan may be driven from the serving
worker thread and the caller's thread concurrently.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.texture import linear_filter_taps
from repro.kernels.config import LayerConfig
from repro.nn.im2col import gemm_epilogue


class FusedPlan:
    """One compiled tex2D/tex2D++ forward for a fixed (offsets, geometry).

    Built from the full sampling-position arrays by
    :func:`build_fused_plan`; executed against per-call ``(x, weight,
    bias)`` tensors by :meth:`execute`.  All offset-dependent work —
    coordinate quantisation, address-mode resolution, fixed-point blend
    weights — happened at build time; execute only gathers, blends and
    contracts.
    """

    def __init__(self, cfg: LayerConfig, fp16: bool,
                 idx: np.ndarray, wts: np.ndarray):
        n, dg = cfg.batch, cfg.deformable_groups
        c, k, l = cfg.in_channels, cfg.taps, cfg.out_pixels
        self.cfg = cfg
        self.fp16 = bool(fp16)
        self.n, self.dg, self.cpg = n, dg, c // dg
        self.kl = k * l
        self.hw = cfg.height * cfg.width
        #: (4, n·dg, K·L) flat corner texel indices into one layer
        self.idx = idx
        #: (4, n·dg, 1, K·L) blend weights, border mask folded in
        self.wts = wts
        # Preallocated execution buffers, reused across calls.  ``cols``
        # is the im2col column matrix the GEMM consumes; viewed per
        # (batch, group) for the blend.  ``corner`` stages one corner's
        # gathered texels; ``out`` receives the einsum contraction.
        self.cols = np.empty((n, c * k, l), dtype=np.float32)
        self._cols_bg = self.cols.reshape(n * dg, self.cpg, self.kl)
        self.corner = np.empty((self.cpg, self.kl), dtype=np.float32)
        self.out = np.empty((n, cfg.out_channels, l), dtype=np.float32)
        #: buffers are shared mutable state — one execution at a time
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Resident bytes of the precomputed state + reusable buffers."""
        return (self.idx.nbytes + self.wts.nbytes + self.cols.nbytes
                + self.corner.nbytes + self.out.nbytes)

    def retarget(self, idx: np.ndarray, wts: np.ndarray) -> "FusedPlan":
        """Swap in freshly computed tap tables, keeping the buffers.

        The delta-keyed streaming path of the plan cache recomputes the
        corner indices and fixed-point blend weights for every frame (the
        exactness guarantee) but reuses this plan's preallocated
        gather/column/output buffers across the stream.  Taken under the
        execution lock, so an in-flight :meth:`execute` never sees a
        half-swapped table pair.
        """
        if idx.shape != self.idx.shape or wts.shape != self.wts.shape:
            raise ValueError(
                f"retarget tables {idx.shape}/{wts.shape} do not match the "
                f"compiled plan {self.idx.shape}/{self.wts.shape} — the "
                f"session anchor should have pinned the geometry")
        with self._lock:
            self.idx = idx
            self.wts = wts
        return self

    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray, weight: np.ndarray,
                bias: Optional[np.ndarray]) -> np.ndarray:
        """Run the fused forward; returns a fresh (N, OC, OH, OW) array.

        Bit-identical to the eager reference: the gather/blend replays
        :meth:`LayeredTexture2D.fetch`'s corner accumulation order and
        the contraction is the same einsum expression.
        """
        cfg = self.cfg
        if x.shape != cfg.input_shape():
            raise ValueError(f"fused plan compiled for input "
                             f"{cfg.input_shape()}, got {x.shape}")
        xf = np.ascontiguousarray(x, dtype=np.float32).reshape(
            self.n * self.dg, self.cpg, self.hw)
        w2 = weight.reshape(cfg.out_channels, cfg.in_channels * cfg.taps)
        with self._lock:
            cols, corner = self._cols_bg, self.corner
            for b in range(self.n * self.dg):
                xb, acc = xf[b], cols[b]
                # corner 0 lands straight in the column buffer; corners
                # 1-3 stage through ``corner`` and accumulate — the same
                # ((t0 + t1) + t2) + t3 order as the eager fetch.
                np.take(xb, self.idx[0, b], axis=1, out=acc, mode="clip")
                acc *= self.wts[0, b]
                for q in (1, 2, 3):
                    np.take(xb, self.idx[q, b], axis=1, out=corner,
                            mode="clip")
                    np.multiply(corner, self.wts[q, b], out=corner)
                    acc += corner
            return gemm_epilogue(w2, self.cols, bias,
                                 (cfg.out_height, cfg.out_width),
                                 out=self.out)


def build_fused_plan(cfg: LayerConfig, spec: DeviceSpec, fp16: bool,
                     positions: Callable[[], Tuple[np.ndarray, np.ndarray]]
                     ) -> FusedPlan:
    """Compile a :class:`FusedPlan` from the full sampling positions.

    ``positions`` supplies the (N, dg, K, L) fractional sampling
    positions (already fp16-quantised offsets for tex2D++).  The corner
    indices and weights reproduce the eager reference exactly: pixel →
    texture coordinate shift, fp16 coordinate quantisation, then
    :func:`~repro.gpusim.texture.linear_filter_taps`.
    """
    n, dg = cfg.batch, cfg.deformable_groups
    h, w = cfg.height, cfg.width
    if cfg.in_channels % dg:
        raise ValueError(f"in_channels {cfg.in_channels} not divisible by "
                         f"deformable_groups {dg}")
    max_h, max_w, max_layers = spec.max_texture_extent
    if h > max_h or w > max_w or n * cfg.in_channels > max_layers:
        raise ValueError(
            f"texture extent {(n * cfg.in_channels, h, w)} exceeds device "
            f"limit {spec.max_texture_extent} — partition the mini-batch "
            f"(paper Section III-B)")
    py, px = positions()
    idx, wts = tap_tables(py, px, h, w, fp16)
    return FusedPlan(cfg, fp16, idx, wts)


def tap_tables(py: np.ndarray, px: np.ndarray, h: int, w: int,
               fp16: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Corner index/weight tables for arbitrary (N, dg, ...) positions.

    The one compilation step shared by :func:`build_fused_plan` (full
    layer) and the per-shard gather plans of
    :mod:`repro.kernels.shards` (a row-band or channel slice of the same
    positions): pixel coords → texture coords (+0.5), the tex2D++ fp16
    coordinate quantisation, then
    :func:`~repro.gpusim.texture.linear_filter_taps` — exactly
    ``fetch_at_pixel_coords`` + ``fetch``.  Because every operation is
    elementwise, tables built from a *slice* of the positions are
    bitwise equal to the same slice of the full tables, which is what
    makes stitched shard outputs bit-identical to the unsharded forward.

    Returns ``idx`` of shape (4, N·dg, S) — flat corner texel indices —
    and ``wts`` of shape (4, N·dg, 1, S), the fixed-point blend weights
    with the border mask folded in, where S flattens every trailing
    position axis.
    """
    n, dg = py.shape[0], py.shape[1]
    s = int(np.prod(py.shape[2:], dtype=np.int64))
    y = (py.reshape(n, dg, 1, s) + 0.5).astype(np.float32)
    x = (px.reshape(n, dg, 1, s) + 0.5).astype(np.float32)
    if fp16:
        y = y.astype(np.float16).astype(np.float32)
        x = x.astype(np.float16).astype(np.float32)
    idx = np.empty((4, n * dg, s), dtype=np.int64)
    wts = np.empty((4, n * dg, 1, s), dtype=np.float32)
    for q, (iy, jx, wq) in enumerate(
            linear_filter_taps(y, x, h, w, "border", False)):
        flat = idx[q].reshape(y.shape)
        np.multiply(iy, w, out=flat)
        flat += jx
        wts[q] = wq.reshape(n * dg, 1, s)
    return idx, wts
