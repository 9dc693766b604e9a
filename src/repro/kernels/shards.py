"""Band/channel-slice execution of one deformable layer (fleet sharding).

The fleet's intra-request parallelism (:mod:`repro.fleet.shard`) splits a
deformable layer across workers either **spatially** — contiguous bands
of output rows, each worker fetching its band plus the offset-dependent
deformation halo — or by **channel groups** — a contiguous slice of the
per-group input channels, every worker covering the full output plane.

The decomposition point is the im2col column matrix.  The texture
backends lower a deformable layer as *gather/blend → columns → one
einsum GEMM* (:func:`~repro.kernels.tex2d.run_tex2d`).  The gather and
blend are purely elementwise, so a shard that computes a **slice of the
column matrix** produces bits equal to the same slice of the full
matrix; the coordinator stitches the slices back into one (N, C·K, L)
buffer and runs the *same full-shape einsum* as the unsharded path.
Bit-identical output for every split is therefore a property of the
construction, not a tolerance — the conformance suite pins it.

(The tempting alternative — each shard running its own partial GEMM over
sliced weights or columns — is **not** bit-identical: BLAS picks
different reduction orders for small shapes, and summing partial
products reorders the accumulation.  Slice the columns, never the GEMM.)

Each shard's gather is compiled into a :class:`ShardGatherPlan` via the
same :func:`~repro.kernels.fused.tap_tables` step as the fused full-layer
plan, memoised on the layer's :class:`~repro.kernels.plancache.PlanCache`
trace entry (one digest key, one LRU lifetime).  Per-shard KernelStats
reuse the plan-cache texture simulation: a row band simulates its sliced
fetch trace; a channel slice *shares the full-layer trace entry* and
scales the counters by its channel fraction.

Traffic accounting for the interconnect model is computed here from the
actual tap footprint: a row band's input bytes span exactly the input
rows its (floored, bilinear-widened) taps touch — the realised version
of the :func:`~repro.kernels.tiling.deformation_halo` planning bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import (KernelCost, LaunchConfig, estimate_time_ms,
                                 gemm_cost)
from repro.gpusim.memory import strided_stats
from repro.gpusim.profiler import KernelStats
from repro.gpusim.trace import SamplePlan
from repro.kernels.config import LayerConfig, OpResult
from repro.kernels.fused import tap_tables
from repro.kernels.reference import COORD_FLOPS
from repro.kernels.tex2d import DEFAULT_TILE
from repro.nn.im2col import gemm_epilogue

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

    def descriptor(self) -> Tuple:
        """Hashable identity used in plan-cache and cost-model memo keys."""
        return (self.kind, self.index, self.count, self.lo, self.hi)

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


class ShardGatherPlan:
    """One compiled gather for one (offsets, geometry, shard) triple.

    The shard-sized sibling of :class:`~repro.kernels.fused.FusedPlan`:
    tap tables from :func:`~repro.kernels.fused.tap_tables` (on the
    position slice for a row band, the full positions for a channel
    slice) plus preallocated gather buffers.  :meth:`execute` replays the
    fused gather/blend verbatim on the slice, so the produced columns
    are bitwise the corresponding slice of the full column matrix.
    """

    def __init__(self, cfg: LayerConfig, shard: ShardSpec, fp16: bool,
                 idx: np.ndarray, wts: np.ndarray):
        n, dg = cfg.batch, cfg.deformable_groups
        cpg = cfg.in_channels // dg
        k = cfg.taps
        self.cfg = cfg
        self.shard = shard
        self.fp16 = bool(fp16)
        self.n, self.dg, self.cpg = n, dg, cpg
        self.hw = cfg.height * cfg.width
        if shard.kind == "rows":
            self.c0, self.c1 = 0, cpg
            self.l0 = shard.lo * cfg.out_width
            self.l1 = shard.hi * cfg.out_width
        else:
            if shard.hi > cpg:
                raise ValueError(f"channel shard {shard.label()} exceeds "
                                 f"channels-per-group {cpg}")
            self.c0, self.c1 = shard.lo, shard.hi
            self.l0, self.l1 = 0, cfg.out_pixels
        self.csel = self.c1 - self.c0
        self.lsel = self.l1 - self.l0
        self.s = k * self.lsel
        #: (4, n·dg, S) flat corner texel indices / (4, n·dg, 1, S) weights
        self.idx = idx
        self.wts = wts
        #: destination rows of the full column matrix (channel shards)
        if shard.kind == "channels":
            self.dest_rows = np.concatenate([
                np.arange((g * cpg + self.c0) * k, (g * cpg + self.c1) * k)
                for g in range(dg)])
        else:
            self.dest_rows = None
        self.cols = np.empty((n, dg * self.csel * k, self.lsel),
                             dtype=np.float32)
        self._cols_bg = self.cols.reshape(n * dg, self.csel, self.s)
        self.corner = np.empty((self.csel, self.s), dtype=np.float32)
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        return (self.idx.nbytes + self.wts.nbytes + self.cols.nbytes
                + self.corner.nbytes)

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Gather/blend this shard's column slice from the full input.

        The buffer is reused across calls — callers must consume (stitch)
        it before executing the same plan again.  Execution is against
        the *full* input feature map: border addressing is resolved in
        the tap tables against full-image extents, so a physically
        cropped input would change semantics; the interconnect model
        charges only the halo rows actually touched (``in_bytes`` of
        :class:`ShardResult`), not what this simulation holds in memory.
        """
        cfg = self.cfg
        if x.shape != cfg.input_shape():
            raise ValueError(f"shard plan compiled for input "
                             f"{cfg.input_shape()}, got {x.shape}")
        xf = np.ascontiguousarray(x, dtype=np.float32).reshape(
            self.n * self.dg, self.cpg, self.hw)
        with self._lock:
            cols, corner = self._cols_bg, self.corner
            for b in range(self.n * self.dg):
                xb, acc = xf[b, self.c0:self.c1], cols[b]
                np.take(xb, self.idx[0, b], axis=1, out=acc, mode="clip")
                acc *= self.wts[0, b]
                for q in (1, 2, 3):
                    np.take(xb, self.idx[q, b], axis=1, out=corner,
                            mode="clip")
                    np.multiply(corner, self.wts[q, b], out=corner)
                    acc += corner
            return self.cols


def build_shard_gather_plan(
        cfg: LayerConfig, fp16: bool, shard: ShardSpec,
        positions: Callable[[], Tuple[np.ndarray, np.ndarray]]
        ) -> ShardGatherPlan:
    """Compile a :class:`ShardGatherPlan` from the full sampling positions.

    A row band slices the position arrays along L before building its
    tables; a channel slice keeps the full positions (all channels of a
    group share them).  Both go through the shared
    :func:`~repro.kernels.fused.tap_tables` step, so the tables are
    bitwise slices of the full-layer tables.
    """
    if cfg.in_channels % cfg.deformable_groups:
        raise ValueError(f"in_channels {cfg.in_channels} not divisible by "
                         f"deformable_groups {cfg.deformable_groups}")
    py, px = positions()
    if shard.kind == "rows":
        if shard.hi > cfg.out_height:
            raise ValueError(f"row shard {shard.label()} exceeds "
                             f"out_height {cfg.out_height}")
        l0, l1 = shard.lo * cfg.out_width, shard.hi * cfg.out_width
        py, px = py[..., l0:l1], px[..., l0:l1]
    idx, wts = tap_tables(py, px, cfg.height, cfg.width, fp16)
    return ShardGatherPlan(cfg, shard, fp16, idx, wts)


@dataclass
class ShardResult:
    """One executed shard: its column slice plus traffic/perf accounting.

    ``cols`` aliases the gather plan's reusable buffer — stitch it before
    the plan runs again.

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
    cols: np.ndarray
    dest_rows: Optional[np.ndarray]
    l0: int
    l1: int
    sample: KernelStats
    gemm: KernelStats
    in_bytes: float
    out_bytes: float
    halo_rows: int


def run_shard(x: np.ndarray, offset: np.ndarray, cfg: LayerConfig,
              spec: DeviceSpec, shard: ShardSpec,
              tile: Tuple[int, int] = DEFAULT_TILE,
              fp16_offsets: bool = False,
              plan: Optional[SamplePlan] = None,
              plan_cache: Optional["PlanCache"] = None) -> ShardResult:
    """Execute one shard of a deformable layer on one (simulated) device.

    The functional half gathers the shard's column slice through a
    (plan-cache-memoised) :class:`ShardGatherPlan`; the performance half
    mirrors :func:`~repro.kernels.tex2d.run_tex2d`'s sampling kernel with
    the launch grid, offset stream and counters restricted to the shard.
    A channel slice reuses the full-layer plan-cache trace entry and
    scales counters by its channel fraction; a row band simulates its own
    sliced trace (top-aligned against the full CTA grid — a deterministic
    approximation the planner and executor share).
    """
    plan = plan or SamplePlan()
    ty, tx = tile
    if ty <= 0 or tx <= 0 or ty * tx > spec.max_threads_per_block:
        raise ValueError(f"tile {tile} invalid for {spec.name}")
    n, c, k = cfg.batch, cfg.in_channels, cfg.taps
    dg, cpg = cfg.deformable_groups, cfg.in_channels // cfg.deformable_groups
    h, w = cfg.height, cfg.width

    off = offset
    if fp16_offsets:
        off = offset.astype(np.float16).astype(np.float32)

    _pos: list = []

    def positions() -> Tuple[np.ndarray, np.ndarray]:
        if not _pos:
            from repro.deform.deform_conv import sampling_positions
            _pos.append(sampling_positions(
                off, (h, w), cfg.kernel_size, cfg.stride,
                cfg.padding, cfg.dilation, dg))
        return _pos[0]

    # ------------------------------------------------------------------
    # functional: the shard's slice of the column matrix
    # ------------------------------------------------------------------
    if plan_cache is not None:
        gplan = plan_cache.shard_plan(off, cfg, spec, fp16_offsets, plan,
                                      shard, positions)
    else:
        gplan = build_shard_gather_plan(cfg, fp16_offsets, shard, positions)
    cols = gplan.execute(x)

    csel, lsel = gplan.csel, gplan.lsel
    band_h = shard.hi - shard.lo if shard.kind == "rows" else cfg.out_height
    offset_bytes = 2 if fp16_offsets else 4

    # ------------------------------------------------------------------
    # performance: the sampling kernel restricted to the shard
    # ------------------------------------------------------------------
    concurrent_layers = min(cpg, 4)
    if shard.kind == "rows":
        # The band's own offsets rows → a distinct trace entry keyed by
        # the sliced digest (shape is part of the digest, so it can never
        # alias the full-layer entry).
        sub_off = np.ascontiguousarray(off[:, :, shard.lo:shard.hi, :])
        l0 = shard.lo * cfg.out_width

        def rep() -> Tuple[np.ndarray, np.ndarray]:
            py, px = positions()
            return (py[0, 0][:, l0:l0 + lsel], px[0, 0][:, l0:l0 + lsel])
    else:
        # All channels of a group share the trace — reuse (and warm) the
        # full-layer entry, scaling counters by the channel fraction.
        sub_off = off

        def rep() -> Tuple[np.ndarray, np.ndarray]:
            py, px = positions()
            return (py[0, 0], px[0, 0])

    if plan_cache is not None:
        tex_stats, scale = plan_cache.tex_stats(
            sub_off, cfg, spec, tile, fp16_offsets, plan,
            concurrent_layers, rep)
    else:
        from repro.gpusim.cache import TextureCacheModel
        from repro.gpusim.trace import texture_fetch_trace
        py_r, px_r = rep()
        y0, x0, cta, scale = texture_fetch_trace(py_r, px_r, cfg.out_width,
                                                 tile, plan)
        cache = TextureCacheModel(spec, concurrent_layers=concurrent_layers)
        tex_stats = cache.simulate(y0, x0, cta, h, w)
    tex_stats = tex_stats.scaled(scale * n * dg * csel)

    channel_blocks = max(1, -(-csel // spec.offset_channel_block))
    offs = strided_stats(n * 2 * k * lsel * dg, offset_bytes, spec)
    offs_traffic = offs.bytes_transferred * channel_blocks
    col_bytes = float(n * dg * csel * k * lsel * 4)

    coord_flops = float(n * dg * csel * k * lsel * COORD_FLOPS)
    tiles = -(-band_h // ty) * -(-cfg.out_width // tx)
    launch = LaunchConfig(grid=max(1, tiles * n * dg * channel_blocks),
                          block=ty * tx)
    sample_cost = KernelCost(
        flops=coord_flops,
        dram_bytes=tex_stats.miss_bytes + offs_traffic,
        tex_fetches=float(tex_stats.requests),
        tex_rate_divisor=float(spec.tex_fp32_rate_divisor),
        cta_prologue_cycles=500.0,
        compute_efficiency=0.35,
    )
    name = ("deformable_tex2dpp_shard" if fp16_offsets
            else "deformable_tex2d_shard")
    sample_stats = KernelStats(
        name=name,
        duration_ms=estimate_time_ms(sample_cost, launch, spec),
        flop_count_sp=coord_flops,
        gld_requests=offs.requests,
        gld_transactions=offs.transactions,
        gld_bytes_requested=offs.bytes_requested,
        tex_cache_requests=tex_stats.requests,
        tex_texel_reads=tex_stats.texel_reads,
        tex_cache_hits=tex_stats.hits,
        dram_read_bytes=tex_stats.miss_bytes + offs_traffic,
        dram_write_bytes=col_bytes,
    )

    # ------------------------------------------------------------------
    # the shard's slice of the GEMM, on this shard's device
    # ------------------------------------------------------------------
    if shard.kind == "rows":
        gemm = gemm_cost(cfg.out_channels, n * lsel, c * k)
        out_bytes = float(n * cfg.out_channels * lsel * 4)
    else:
        # partial product over this slice's reduction rows; the output is
        # full-size and summed at the stitch
        gemm = gemm_cost(cfg.out_channels, n * cfg.out_pixels,
                         dg * csel * k)
        out_bytes = float(n * cfg.out_channels * cfg.out_pixels * 4)
    gemm_launch = LaunchConfig(
        grid=max(1, -(-(cfg.out_channels * n * lsel) // (128 * 64))),
        block=256)
    gemm_loads = strided_stats(max(1, int(gemm.dram_bytes // 4)), 4, spec)
    gemm_stats = KernelStats(
        name="implicit_gemm_shard",
        duration_ms=estimate_time_ms(gemm, gemm_launch, spec),
        flop_count_sp=gemm.flops,
        gld_requests=gemm_loads.requests,
        gld_transactions=gemm_loads.transactions,
        gld_bytes_requested=gemm.dram_bytes,
        dram_read_bytes=gemm.dram_bytes,
        dram_write_bytes=out_bytes,
    )

    # ------------------------------------------------------------------
    # interconnect traffic from the actual tap footprint
    # ------------------------------------------------------------------
    off_slice_bytes = float(n * dg * 2 * k * band_h * cfg.out_width
                            * offset_bytes)
    if shard.kind == "rows":
        py, _ = positions()
        band = py[..., gplan.l0:gplan.l1]
        lo_in = int(max(0, np.floor(band.min())))
        hi_in = int(min(h - 1, np.floor(band.max()) + 1)) + 1
        rows_in = max(1, hi_in - lo_in)
        halo_rows = max(0, rows_in - band_h * cfg.stride)
        in_bytes = float(n * c * rows_in * w * 4) + off_slice_bytes
    else:
        halo_rows = 0
        in_bytes = float(n * dg * csel * h * w * 4) + off_slice_bytes

    return ShardResult(shard=shard, cols=cols, dest_rows=gplan.dest_rows,
                       l0=gplan.l0, l1=gplan.l1, sample=sample_stats,
                       gemm=gemm_stats, in_bytes=in_bytes,
                       out_bytes=out_bytes, halo_rows=halo_rows)


def stitch_columns(results: Sequence[ShardResult], weight: np.ndarray,
                   bias: Optional[np.ndarray], cfg: LayerConfig,
                   spec: DeviceSpec) -> OpResult:
    """Reassemble shard column slices into the bit-identical output.

    The coordinator-side half of a sharded layer, functionally: write
    every column slice into one (N, C·K, L) buffer and contract it with
    the *same* full-shape einsum expression — and therefore the same
    reduction order, and the same bits — as the unsharded forward.

    The returned kernel prices what the coordinator of the distributed
    realisation actually runs: a memory-bound **stitch pass** over the
    gathered shard outputs (a concat of output bands for a row split, a
    reduction of partial products for a channel split).  The GEMM time
    itself lives on the shards (:attr:`ShardResult.gemm`), because each
    shard contracts its own slice on its own device.
    """
    n, c, k, l = cfg.batch, cfg.in_channels, cfg.taps, cfg.out_pixels
    cols = np.empty((n, c * k, l), dtype=np.float32)
    covered = 0
    for r in results:
        if r.dest_rows is not None:
            cols[:, r.dest_rows, :] = r.cols
            covered += r.cols.shape[1] * (r.l1 - r.l0)
        else:
            cols[:, :, r.l0:r.l1] = r.cols
            covered += c * k * (r.l1 - r.l0)
    if covered != c * k * l:
        raise ValueError(f"shards cover {covered} of {c * k * l} column "
                         f"elements — the planner emitted a non-tiling "
                         f"split")
    w2 = weight.reshape(cfg.out_channels, c * k)
    output = gemm_epilogue(w2, cols, bias, (cfg.out_height, cfg.out_width))

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
