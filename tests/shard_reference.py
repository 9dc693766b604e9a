"""The sharded execution and launch model as they were before shards
became slices of one gather plan, kept verbatim.

``ShardGatherPlan``, ``build_shard_gather_plan`` and ``run_shard`` are
the former shard path of :mod:`repro.kernels.shards`;
``ReferencePlanCache.shard_plan`` is the former ``PlanCache.shard_plan``
that built them.  ``tex2d_kernels`` and ``reference_kernels`` are the
KernelStats construction of the former ``run_tex2d`` and
``run_reference``, each written out in full.
``tests/test_one_gather_plan.py`` requires today's slice plans, shared
launch model and plan-cache counters to match these bit for bit and
count for count.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.deform.deform_conv import sampling_positions
from repro.gpusim.cache import TextureCacheModel, TextureCacheStats
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import (KernelCost, LaunchConfig, estimate_time_ms,
                                 gemm_cost)
from repro.gpusim.memory import strided_stats
from repro.gpusim.profiler import KernelStats
from repro.gpusim.trace import (SamplePlan, deform_input_coalescing,
                                texture_fetch_trace)
from repro.kernels.config import LayerConfig
from repro.kernels.fused import tap_tables
from repro.kernels.plancache import PlanCache, _TraceEntry, offsets_digest
from repro.kernels.reference import COORD_FLOPS, SOFTWARE_INTERP_FLOPS
from repro.kernels.shards import ShardResult, ShardSpec
from repro.kernels.tex2d import DEFAULT_TILE
from repro.obs.tracer import maybe_span


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
            offsets_digest(sub_off), cfg, spec, tile, fp16_offsets, plan,
            concurrent_layers, rep)
    else:
        from repro.gpusim.cache import TextureCacheModel, TextureCacheStats
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


class ReferencePlanCache(PlanCache):
    """A :class:`PlanCache` whose shard lookups compile the former
    :class:`ShardGatherPlan`, through the former get-or-build sequence
    (one lookup per slot, per-slot in-flight events), kept verbatim here
    with the trace build and the ``tex_stats`` lookup it used; entry
    keys, storage, tile simulation and counters are today's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._building: Dict[tuple, threading.Event] = {}

    def tex_stats(self, digest: str, cfg: LayerConfig, spec: DeviceSpec,
                  tile: Tuple[int, int], fp16: bool,
                  plan: Optional[SamplePlan], concurrent_layers: int,
                  positions: Callable[[], Tuple[np.ndarray, np.ndarray]]
                  ) -> Tuple[TextureCacheStats, float]:
        """Memoised equivalent of trace-build + ``simulate`` for one call.

        ``digest`` is :func:`offsets_digest` of the offsets the trace
        samples through — the *quantised* ones for tex2D++, so two fp32
        offset tensors that quantise to the same fp16 values are the same
        launch and share one entry.  ``positions`` lazily supplies the
        representative ``(py, px)`` arrays of shape (K, L) — it is only
        invoked when the trace entry has to be built, so steady-state
        hits never touch the sampling positions at all.  Returns
        ``(stats, trace_scale)`` exactly as the uncached path would
        produce them.  A known digest with an unseen (tile, concurrency)
        combination is a miss that simulates against its own cached
        trace.
        """
        plan = plan or SamplePlan()
        tile = (int(tile[0]), int(tile[1]))
        layers = int(concurrent_layers)
        return self._get_or_build(
            self._trace_key(digest, cfg, spec, fp16, plan),
            "stats", (tile, layers),
            lambda entry: self._simulate_tile(entry, cfg, spec, tile, plan,
                                              layers),
            lambda: self._build_entry(cfg, spec, plan, positions))

    def _get_or_build(self, key: tuple, slot: Optional[str], sub,
                      build: Callable, trace: Optional[Callable] = None):
        """The one lookup → in-flight wait → build → store sequence.

        ``slot=None`` resolves the trace entry of ``key`` itself:
        ``build()`` returns a new :class:`_TraceEntry`, stored at the LRU
        bound (the only eviction site).  Otherwise ``slot`` names one of
        the entry's memo dicts (``stats``/``fused``) and
        ``sub`` the key inside it; a miss first resolves the entry (built
        by ``trace()`` if absent), then ``build(entry)`` computes the
        value.  Every slot lookup counts exactly one hit or miss;
        resolving the entry counts nothing.

        Concurrent misses on one ``(key, slot, sub)`` coalesce: the first
        thread builds under an in-flight event and the rest wait, then
        re-check (looping guards against builder failure or instant
        eviction, in which case a waiter becomes the builder).
        """
        guard = (key, slot, sub)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    value = entry if slot is None \
                        else getattr(entry, slot).get(sub)
                    if value is not None:
                        if slot is not None:
                            self.stats.record("hits")
                        return value
                event = self._building.get(guard)
                if event is None:
                    event = self._building[guard] = threading.Event()
                    break
            event.wait()
        try:
            if slot is None:
                value = build()
                with self._lock:
                    self._entries[key] = value
                    self._resident.inc(value.nbytes)
                    while len(self._entries) > self.max_entries:
                        _, dropped = self._entries.popitem(last=False)
                        self._resident.dec(dropped.nbytes)
                        self.stats.record("evictions")
                return value
            self.stats.record("misses")
            entry = self._get_or_build(key, None, None, trace)
            built = build(entry)
            with self._lock:
                value = getattr(entry, slot).setdefault(sub, built)
                # a kept plan counts once, and only on a live entry
                if (value is built and slot != "stats"
                        and self._entries.get(key) is entry):
                    self._resident.inc(built.nbytes)
            return value
        finally:
            with self._lock:
                del self._building[guard]
            event.set()

    @contextmanager
    def _timed_build(self, kind: str, cfg: LayerConfig, **args):
        """One ``<kind>_builds`` build: counted, spanned as
        ``plancache.build_<kind>`` and timed into the build-ms window."""
        self.stats.record(f"{kind}_builds")
        t0 = time.perf_counter()
        try:
            with maybe_span(self.tracer, f"plancache.build_{kind}",
                            cat="plancache", geometry=cfg.label(), **args):
                yield
        finally:
            self.stats.record_build_ms(
                kind, (time.perf_counter() - t0) * 1e3)

    def _build_entry(self, cfg: LayerConfig, spec: DeviceSpec,
                     plan: SamplePlan,
                     positions: Callable[[], Tuple[np.ndarray, np.ndarray]]
                     ) -> _TraceEntry:
        """Build the tile-independent trace state (the expensive half)."""
        with self._timed_build("trace", cfg):
            py, px = positions()
            k, l = py.shape
            y0 = np.floor(py).ravel().astype(np.int64)
            x0 = np.floor(px).ravel().astype(np.int64)
            lines = None
            if y0.size <= plan.max_fetches:
                # Within the sampling budget the trace is exact, so the
                # texel→line mapping is tile-independent and
                # precomputable.  (Beyond it, whole-CTA sampling depends
                # on the tile and each tile replays the sampling step
                # instead.)
                pixel = np.broadcast_to(np.arange(l), (k, l)).ravel()
                model = TextureCacheModel(spec)
                lines = model.precompute(y0, x0, pixel, cfg.height,
                                         cfg.width)
                # every tile reads the line trace alone
                y0 = x0 = None
            return _TraceEntry(y0=y0, x0=x0, lines=lines, k=k, l=l,
                               out_h=cfg.out_height, out_w=cfg.out_width)


    def shard_plan(self, offset: np.ndarray, cfg: LayerConfig,
                   spec: DeviceSpec, fp16: bool,
                   plan: Optional[SamplePlan], shard: ShardSpec,
                   positions: Callable[[], Tuple[np.ndarray, np.ndarray]]
                   ) -> ShardGatherPlan:
        """Get-or-compile the gather plan for one shard of one layer.

        Keyed off the **full-layer** trace entry (full-offset digest +
        geometry), with the shard descriptor — kind, index/count and the
        concrete [lo, hi) range — inside the entry key, so a row band
        and a channel slice of the same layer, or two different bands,
        can never collide with each other or with the whole-layer fused
        plan.  Same LRU lifetime and in-flight build coalescing as
        :meth:`fused_plan`.
        """
        plan = plan or SamplePlan()

        def build(entry: _TraceEntry) -> ShardGatherPlan:
            with self._timed_build("shard", cfg, shard=shard.label()):
                return build_shard_gather_plan(cfg, fp16, shard, positions)

        return self._get_or_build(
            self._trace_key(offsets_digest(offset), cfg, spec, fp16, plan),
            "fused", (shard, cfg.in_channels, cfg.out_channels), build,
            lambda: self._build_entry(cfg, spec, plan, lambda: tuple(
                p[0, 0] for p in positions())))


def tex2d_kernels(offset: np.ndarray, cfg: LayerConfig, spec: DeviceSpec,
                  tile: Tuple[int, int] = DEFAULT_TILE,
                  fp16_offsets: bool = False,
                  plan: Optional[SamplePlan] = None,
                  plan_cache: Optional[PlanCache] = None):
    """The former ``run_tex2d``'s [sample, GEMM] KernelStats."""
    plan = plan or SamplePlan()
    ty, tx = tile
    if ty <= 0 or tx <= 0 or ty * tx > spec.max_threads_per_block:
        raise ValueError(f"tile {tile} invalid for {spec.name}")
    n, c, k, l = cfg.batch, cfg.in_channels, cfg.taps, cfg.out_pixels
    dg, cpg = cfg.deformable_groups, cfg.in_channels // cfg.deformable_groups

    off = offset
    if fp16_offsets:
        off = offset.astype(np.float16).astype(np.float32)

    # Sampling positions are needed only to compile a plan or build a
    # trace — compute lazily so steady-state cache hits skip them.
    _pos: list = []

    def positions() -> Tuple[np.ndarray, np.ndarray]:
        if not _pos:
            _pos.append(sampling_positions(
                off, (cfg.height, cfg.width), cfg.kernel_size, cfg.stride,
                cfg.padding, cfg.dilation, dg))
        return _pos[0]

    digest = None
    if plan_cache is not None:
        # one hash of the quantised offsets keys both lookups (imported
        # here: plancache imports this module through kernels.shards)
        from repro.kernels.plancache import offsets_digest
        digest = offsets_digest(off)

    # ------------------------------------------------------------------
    # performance model: kernel 1 — tex2d sampling
    # ------------------------------------------------------------------
    concurrent_layers = min(cpg, 4)
    if plan_cache is not None:
        # Key on the *quantised* offsets (``off``) — the functional path
        # samples through them, so two fp32 offset tensors that quantise
        # to the same fp16 values must share one cache entry and one
        # trace build (they are the same tex2D++ launch).
        tex_stats, scale = plan_cache.tex_stats(
            digest, cfg, spec, tile, fp16_offsets, plan, concurrent_layers,
            lambda: (positions()[0][0, 0], positions()[1][0, 0]))
    else:
        py, px = positions()
        y0, x0, cta, scale = texture_fetch_trace(py[0, 0], px[0, 0],
                                                 cfg.out_width, tile, plan)
        cache = TextureCacheModel(spec, concurrent_layers=concurrent_layers)
        tex_stats = cache.simulate(y0, x0, cta, cfg.height, cfg.width)
    # One representative (batch, group, channel); all channels share the
    # trace, so counters scale by n·dg·cpg (cache behaviour per layer is
    # identical — each layer's lines are distinct but isomorphic).
    tex_stats = tex_stats.scaled(scale * n * dg * cpg)

    # Channel blocks are spread across the grid's z dimension so channel
    # count contributes parallelism, not per-CTA serialisation.
    channel_blocks = max(1, -(-cpg // spec.offset_channel_block))

    # Offsets are re-read once per channel block a CTA processes; fp16
    # storage (tex2D++) halves this stream — the paper's bandwidth saving.
    # The re-read count is the *ceil* block count, matching the launch
    # grid: a partial trailing block still issues a full offset read.
    offset_bytes = 2 if fp16_offsets else 4
    offs = strided_stats(n * 2 * k * l * dg, offset_bytes, spec)
    offs_traffic = offs.bytes_transferred * channel_blocks
    col_bytes = float(n * c * k * l * 4)

    coord_flops = float(n * c * k * l * COORD_FLOPS)
    tiles = -(-cfg.out_height // ty) * -(-cfg.out_width // tx)
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
    name = "deformable_tex2dpp" if fp16_offsets else "deformable_tex2d"
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
    # kernel 2 — implicit GEMM (identical to the reference backend)
    # ------------------------------------------------------------------
    gemm = gemm_cost(cfg.out_channels, n * l, c * k)
    gemm_launch = LaunchConfig(
        grid=max(1, -(-(cfg.out_channels * n * l) // (128 * 64))), block=256)
    gemm_loads = strided_stats(int(gemm.dram_bytes // 4), 4, spec)
    gemm_stats = KernelStats(
        name="implicit_gemm",
        duration_ms=estimate_time_ms(gemm, gemm_launch, spec),
        flop_count_sp=gemm.flops,
        gld_requests=gemm_loads.requests,
        gld_transactions=gemm_loads.transactions,
        gld_bytes_requested=gemm.dram_bytes,
        dram_read_bytes=gemm.dram_bytes,
    )
    return [sample_stats, gemm_stats]


def reference_kernels(offset: np.ndarray, cfg: LayerConfig,
                      spec: DeviceSpec, plan: Optional[SamplePlan] = None):
    """The former ``run_reference``'s [sample, GEMM] KernelStats."""
    plan = plan or SamplePlan()
    n, c, k, l = cfg.batch, cfg.in_channels, cfg.taps, cfg.out_pixels
    cpg = c // cfg.deformable_groups

    # ------------------------------------------------------------------
    # performance model: kernel 1 — deformable_im2col
    # ------------------------------------------------------------------
    py, px = sampling_positions(offset, (cfg.height, cfg.width),
                                cfg.kernel_size, cfg.stride, cfg.padding,
                                cfg.dilation, cfg.deformable_groups)
    # One representative deformable group; groups have iid patterns so the
    # counters scale linearly in dg (and in batch).
    gather = deform_input_coalescing(py[0, 0], px[0, 0], cfg.height,
                                     cfg.width, channels=cpg, dtype_bytes=4,
                                     spec=spec, plan=plan)
    gather = gather.scaled(cfg.deformable_groups * n)

    # Offset loads: 2K values per output pixel per group.  Every channel's
    # thread re-reads the same offsets; the L2 absorbs the re-reads down to
    # roughly one pass per channel block.
    offs = strided_stats(n * 2 * k * l * cfg.deformable_groups, 4, spec)
    offs_l2 = offs.bytes_transferred * (cpg / spec.offset_channel_block)
    # Column stores: C·K·L floats (write traffic; no gld counters).
    col_bytes = float(n * c * k * l * 4)

    # Traffic split: all gathered sectors cross the L2 crossbar (at its
    # bandwidth, derated by the scattered-access penalty); the DRAM only
    # sees the compulsory input footprint times a bounded tap-reuse factor.
    input_footprint = float(n * c * cfg.height * cfg.width * 4)
    gather_l2 = gather.bytes_transferred / max(spec.scattered_penalty, 1e-6)
    gather_dram = min(gather.bytes_transferred,
                      input_footprint * spec.gather_dram_reuse)

    interp_flops = n * c * k * l * (SOFTWARE_INTERP_FLOPS + COORD_FLOPS)
    threads = n * c * l  # one thread per (channel, output pixel)
    launch = LaunchConfig(grid=max(1, -(-threads // 256)), block=256)
    sample_cost = KernelCost(
        flops=float(interp_flops),
        dram_bytes=gather_dram + offs.bytes_transferred,
        l2_bytes=gather_l2 + offs_l2,
        cta_prologue_cycles=300.0,
        compute_efficiency=0.25,  # scalar gather/interpolate code
    )
    # The stock framework path pays ATen dispatch + auxiliary launches the
    # fused DEFCON kernels avoid (dominant for small layers on Jetson).
    framework_ms = (spec.framework_extra_launches
                    * spec.kernel_launch_overhead_us / 1e3)
    sample_stats = KernelStats(
        name="deformable_im2col",
        duration_ms=estimate_time_ms(sample_cost, launch, spec) + framework_ms,
        flop_count_sp=float(interp_flops),
        gld_requests=gather.requests + offs.requests,
        gld_transactions=gather.transactions + offs.transactions,
        gld_bytes_requested=gather.bytes_requested + offs.bytes_requested,
        dram_read_bytes=gather.bytes_transferred + offs.bytes_transferred,
        dram_write_bytes=col_bytes,
    )

    # ------------------------------------------------------------------
    # kernel 2 — implicit GEMM (identical across backends)
    # ------------------------------------------------------------------
    gemm = gemm_cost(cfg.out_channels, n * l, c * k)
    gemm_launch = LaunchConfig(
        grid=max(1, -(-(cfg.out_channels * n * l) // (128 * 64))), block=256)
    gemm_stats = KernelStats(
        name="implicit_gemm",
        duration_ms=estimate_time_ms(gemm, gemm_launch, spec),
        flop_count_sp=gemm.flops,
        gld_requests=strided_stats(int(gemm.dram_bytes // 4), 4, spec).requests,
        gld_transactions=strided_stats(int(gemm.dram_bytes // 4), 4,
                                       spec).transactions,
        gld_bytes_requested=gemm.dram_bytes,
        dram_read_bytes=gemm.dram_bytes,
    )
    return [sample_stats, gemm_stats]
