"""Band/channel-slice execution of one deformable layer (fleet sharding).

The fleet's intra-request parallelism (:mod:`repro.fleet.shard`) splits a
deformable layer across workers either **spatially** — contiguous bands
of output rows, each worker fetching its band plus the offset-dependent
deformation halo — or by **channel groups** — a contiguous slice of the
per-group input channels, every worker covering the full output plane.

The decomposition point is the im2col column matrix.  The texture
backends lower a deformable layer as *gather/blend → columns → one
GEMM* (:func:`~repro.kernels.tex2d.run_tex2d`).  The gather and
blend are purely elementwise, so a shard that computes a **slice of the
column matrix** produces bits equal to the same slice of the full
matrix; the coordinator stitches the slices back into one (N, C·K, L)
buffer and runs the *same full-shape GEMM* as the unsharded path.
Bit-identical output for every split is therefore a property of the
construction, not a tolerance — the conformance suite pins it.

(The tempting alternative — each shard running its own partial GEMM over
sliced weights or columns — is **not** bit-identical: BLAS picks
different reduction orders for small shapes, and summing partial
products reorders the accumulation.  Slice the columns, never the GEMM.)

A shard is a slice of the layer, not a second kind of launch: it runs
the same :func:`~repro.kernels.tex2d.launch` as the whole layer, over its
slice.  Its gather compiles into a slice
:class:`~repro.kernels.fused.FusedPlan` through the same
:func:`~repro.kernels.fused.build_fused_plan` (a row band slices the
positions along L before the tap tables; a channel slice keeps them
all), memoised by the same
:meth:`~repro.kernels.plancache.PlanCache.fused_plan` lookup on the
layer's trace entry (one digest key, one LRU lifetime).
Its KernelStats come from the same sampling-kernel and implicit-GEMM
builders over the shard's channels, pixels and rows, and reuse the
plan-cache texture simulation: a row band simulates its sliced fetch
trace; a channel slice *shares the full-layer trace entry* and scales
the counters by its channel fraction.  ``run_shard(None, …)`` prices a
shard without gathering anything.

Traffic accounting for the interconnect model is computed here from the
actual tap footprint: a row band's input bytes span exactly the input
rows its (floored, bilinear-widened) taps touch — the realised version
of the :func:`~repro.kernels.tiling.deformation_halo` planning bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelCost, LaunchConfig, estimate_time_ms
from repro.gpusim.memory import strided_stats
from repro.gpusim.profiler import KernelStats
from repro.gpusim.trace import SamplePlan
from repro.kernels.config import LayerConfig, OpResult
from repro.kernels.fused import layer_epilogue, slice_bounds
from repro.kernels.tex2d import DEFAULT_TILE, launch

#: Shard kinds the planner may emit.
SHARD_KINDS = ("rows", "channels")


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of one deformable layer.

    ``kind="rows"``: output rows ``[lo, hi)`` of the layer — a contiguous
    band of the output plane (column-matrix slice along L).
    ``kind="channels"``: per-deformable-group input channels ``[lo, hi)``
    out of ``in_channels // deformable_groups`` — the same channel range
    in every group (column-matrix slice along C·K rows).
    """

    kind: str
    index: int
    count: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.kind not in SHARD_KINDS:
            raise ValueError(f"unknown shard kind {self.kind!r}; "
                             f"choose from {SHARD_KINDS}")
        if not 0 <= self.lo < self.hi:
            raise ValueError(f"empty or inverted shard range "
                             f"[{self.lo}, {self.hi})")

    def label(self) -> str:
        return f"{self.kind}[{self.lo}:{self.hi}]"


def band_bounds(total: int, weights: Sequence[float]) -> List[Tuple[int, int]]:
    """Partition ``range(total)`` into contiguous bands ∝ ``weights``.

    Cumulative rounding, so the bands exactly cover ``[0, total)`` with no
    gaps or overlap for any weight vector; a band may come out empty when
    its weight share rounds below one unit (callers skip those).
    """
    if total < 1 or not weights:
        raise ValueError("need total >= 1 and at least one weight")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise ValueError("weights must sum to > 0")
    edges = [0]
    acc = 0.0
    for w in weights[:-1]:
        acc += float(w)
        edges.append(max(edges[-1], min(total, round(total * acc / wsum))))
    edges.append(total)
    return [(edges[i], edges[i + 1]) for i in range(len(weights))]


def enumerate_shards(cfg: LayerConfig, kind: str,
                     weights: Sequence[float]) -> List[Optional[ShardSpec]]:
    """The per-layer shard list for one plan, one entry per participant.

    ``weights`` are the participants' relative compute shares (the
    planner weights by predicted speed so the fast device takes the
    bigger band).  An entry is ``None`` where the participant's share
    rounded to an empty band — that participant simply sits this layer
    out.  The non-None shards always tile the layer exactly.
    """
    total = (cfg.out_height if kind == "rows"
             else cfg.in_channels // cfg.deformable_groups)
    count = len(weights)
    shards: List[Optional[ShardSpec]] = []
    for i, (lo, hi) in enumerate(band_bounds(total, weights)):
        shards.append(ShardSpec(kind, i, count, lo, hi) if hi > lo else None)
    return shards


@dataclass
class ShardResult:
    """One executed shard: its column slice plus traffic/perf accounting.

    ``cols`` is the shard's own column slice, fresh from the gather —
    None, with ``dest_rows``, for a price (``run_shard(None, …)``),
    which :func:`stitch_columns` refuses.

    The *timing* model prices the distributed realisation of the split:
    each shard runs sampling plus **its own slice of the GEMM** on its
    device (``sample`` + ``gemm``) and ships its output — a band of the
    output plane for a row shard, a full-size partial product for a
    channel shard — so ``out_bytes`` is activation-sized, not
    column-sized.  The *functional* path still stitches column slices
    and contracts once at the coordinator
    (:func:`stitch_columns`), which is what keeps every split
    bit-identical; simulated time comes from KernelStats, never from
    how the simulator itself computes the numbers.

    ``in_bytes`` is the scatter traffic (input slice + offset slice);
    for row bands it counts only the input rows the taps actually touch
    (band + realised halo).
    """

    shard: ShardSpec
    cols: Optional[np.ndarray]
    dest_rows: Optional[np.ndarray]
    l0: int
    l1: int
    sample: KernelStats
    gemm: KernelStats
    in_bytes: float
    out_bytes: float
    halo_rows: int


def run_shard(x: Optional[np.ndarray], offset: np.ndarray,
              cfg: LayerConfig, spec: DeviceSpec, shard: ShardSpec,
              tile: Tuple[int, int] = DEFAULT_TILE,
              fp16_offsets: bool = False,
              plan: Optional[SamplePlan] = None,
              plan_cache: Optional["PlanCache"] = None) -> ShardResult:
    """Execute one shard of a deformable layer on one (simulated) device.

    One :func:`~repro.kernels.tex2d.launch` of the shard's slice: its
    (plan-cache-memoised) slice plan gathers the shard's columns, and
    its kernel stats are the sampling kernel and the shard's slice of
    the GEMM.  ``x=None`` prices the shard: the same stats and traffic,
    no gather.
    """
    fplan, (sample, gemm), positions = launch(
        x, offset, cfg, spec, tile, fp16_offsets, plan, plan_cache, shard)
    n, c, k = cfg.batch, cfg.in_channels, cfg.taps
    dg, h, w = cfg.deformable_groups, cfg.height, cfg.width
    c0, c1, l0, l1 = slice_bounds(cfg, shard)
    band_h = shard.hi - shard.lo if shard.kind == "rows" else cfg.out_height
    offset_bytes = 2 if fp16_offsets else 4

    # ------------------------------------------------------------------
    # interconnect traffic from the actual tap footprint
    # ------------------------------------------------------------------
    off_slice_bytes = float(n * dg * 2 * k * band_h * cfg.out_width
                            * offset_bytes)
    if shard.kind == "rows":
        band = positions()[0][..., l0:l1]
        lo_in = int(max(0, np.floor(band.min())))
        hi_in = int(min(h - 1, np.floor(band.max()) + 1)) + 1
        rows_in = max(1, hi_in - lo_in)
        halo_rows = max(0, rows_in - band_h * cfg.stride)
        in_bytes = float(n * c * rows_in * w * 4) + off_slice_bytes
    else:
        halo_rows = 0
        in_bytes = float(n * dg * (c1 - c0) * h * w * 4) + off_slice_bytes

    return ShardResult(
        shard=shard, cols=None if fplan is None else fplan.gather(x),
        dest_rows=None if fplan is None else fplan.dest_rows, l0=l0, l1=l1,
        sample=sample, gemm=gemm, in_bytes=in_bytes,
        # the shard's slice of the output, shipped to the coordinator
        out_bytes=gemm.dram_write_bytes, halo_rows=halo_rows)


def stitch_columns(results: Sequence[ShardResult], weight: np.ndarray,
                   bias: Optional[np.ndarray], cfg: LayerConfig,
                   spec: DeviceSpec) -> OpResult:
    """Reassemble shard column slices into the bit-identical output.

    The coordinator-side half of a sharded layer, functionally: write
    every column slice into one (N, C·K, L) buffer and end in the *same*
    full-shape :func:`~repro.kernels.fused.layer_epilogue` as the
    unsharded forward — the same reduction order, so the same bits, and
    the same C-ordered strides.  The shards must be of one kind, every
    one executed (a priced shard has no columns), and their ranges must
    tile the layer — disjoint, with no gap — or this raises
    ``ValueError``.

    The returned kernel prices what the coordinator of the distributed
    realisation actually runs: a memory-bound **stitch pass** over the
    gathered shard outputs (a concat of output bands for a row split, a
    reduction of partial products for a channel split).  The GEMM time
    itself lives on the shards (:attr:`ShardResult.gemm`), because each
    shard contracts its own slice on its own device.
    """
    n, c, k, l = cfg.batch, cfg.in_channels, cfg.taps, cfg.out_pixels
    kinds = {r.shard.kind for r in results}
    if len(kinds) != 1:
        raise ValueError(f"shards of kinds {sorted(kinds)} cannot tile one "
                         f"layer — the planner emitted a non-tiling split")
    kind = kinds.pop()
    total = (cfg.out_height if kind == "rows"
             else cfg.in_channels // cfg.deformable_groups)
    # sorted by start, the ranges tile [0, total) iff each one starts
    # where the previous one ended and the last ends at ``total``
    spans = sorted((r.shard.lo, r.shard.hi) for r in results)
    if ([lo for lo, _ in spans] != [0] + [hi for _, hi in spans[:-1]]
            or spans[-1][1] != total):
        raise ValueError(
            f"{kind} shards {sorted(r.shard.label() for r in results)} do "
            f"not tile [0, {total}) — the planner emitted a non-tiling "
            f"split")
    priced = sorted(r.shard.label() for r in results if r.cols is None)
    if priced:
        raise ValueError(f"shards {priced} were priced, not executed: no "
                         f"columns to stitch")
    cols = np.empty((n, c * k, l), dtype=np.float32)
    for r in results:
        if r.dest_rows is not None:
            cols[:, r.dest_rows, :] = r.cols
        else:
            cols[:, :, r.l0:r.l1] = r.cols
    output = layer_epilogue(cfg, cols, weight, bias)

    out_bytes = float(n * cfg.out_channels * l * 4)
    gathered = float(sum(r.out_bytes for r in results))
    stitch_cost = KernelCost(flops=float(n * cfg.out_channels * l),
                             dram_bytes=gathered + out_bytes)
    stitch_launch = LaunchConfig(
        grid=max(1, -(-(cfg.out_channels * n * l) // (256 * 64))),
        block=256)
    stitch_loads = strided_stats(max(1, int(gathered // 4)), 4, spec)
    stitch_stats = KernelStats(
        name="shard_stitch",
        duration_ms=estimate_time_ms(stitch_cost, stitch_launch, spec),
        flop_count_sp=stitch_cost.flops,
        gld_requests=stitch_loads.requests,
        gld_transactions=stitch_loads.transactions,
        gld_bytes_requested=gathered,
        dram_read_bytes=gathered,
        dram_write_bytes=out_bytes,
    )
    return OpResult(output=output, kernels=[stitch_stats])
