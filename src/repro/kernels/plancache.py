"""Memoised perf-model plans for the texture backends (the "plan cache").

Every :func:`~repro.kernels.tex2d.run_tex2d` call used to re-derive the
same expensive analytic state: rebuild the texture fetch trace from the
sampling positions and re-run :class:`~repro.gpusim.cache.TextureCacheModel`
from scratch — even when the offsets, geometry and tile were identical to
the previous step, which is exactly the steady state of serving and of
repeated benchmark iterations.

The :class:`PlanCache` memoises that state at two levels:

* a **trace entry** per (offset digest, geometry, device, sample plan,
  fp16) — the tile-independent texel→line mapping
  (:class:`~repro.gpusim.cache.TexelLineTrace`), or for a sampled trace
  the floored fetch positions, computed once per distinct offset tensor;
* **per-entry memos** inside each entry — the simulated
  :class:`~repro.gpusim.cache.TextureCacheStats` for every CTA tile ever
  requested against that trace, and the compiled
  :class:`~repro.kernels.fused.FusedPlan` of the whole layer and of each
  fleet shard slice of it.  New tiles are served by the one-pass
  re-tiled simulation (one cheap regrouping, no trace rebuild), so a
  tuner sweep over K tiles costs one trace plus K regroupings instead of
  K full simulations.

An entry keeps only what a later lookup reads (execution scratch is per
call); the ``plan_cache_resident_bytes`` gauge sums
:attr:`_TraceEntry.nbytes` over live entries.

Returned stats are **bit-identical** to an uncached simulation — the
re-tiled path replays the exact accounting of ``simulate()`` — so the
cache is a pure wall-time optimisation with no modelling drift (tests
assert this property over random offsets, geometries and tiles).

Every lookup is one transaction, :meth:`PlanCache.lookup`: a launch
whose gather plan and texture counters hang off one trace entry settles
both at once — one key, one lock, one in-flight guard, one build of
whatever is missing (trace, plan, tile counters), one store with the
LRU eviction.  :meth:`PlanCache.tex_stats` and
:meth:`PlanCache.fused_plan` are the one-value forms (a price, a row
band's two entries).  Lookups are keyed exactly, by the
:func:`offsets_digest` the caller (:func:`~repro.kernels.tex2d.launch`)
computed once: a call reuses cached state only for the very offsets it
was built from, so the simulated counters a call returns are always
those of its own launch.

Observability: the :data:`COUNTERS` (``plan_cache_lookups{result=hit|miss}``,
``plan_cache_trace_builds``, ``plan_cache_evictions``, ...;
``repro serve --metrics-out`` surfaces them) and the
``plan_cache_resident_bytes`` gauge count only on the
:class:`~repro.obs.registry.MetricsRegistry` the cache is built with — a
private one, exposed as ``cache.registry``, when none is passed — and
``cache.stats`` reads the counters back from there.  Pass a
:class:`~repro.obs.tracer.SpanTracer` to see ``plancache.build_trace`` /
``plancache.build_fused`` / ``plancache.build_shard`` /
``plancache.retile`` spans on the wall timeline.  See
``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.gpusim.cache import (TexelLineTrace, TextureCacheModel,
                                TextureCacheStats)
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import (SamplePlan, cta_ids_for_tile, fetch_pixels,
                                sample_trace_ctas)
from repro.kernels.config import LayerConfig
from repro.kernels.fused import FusedPlan, build_fused_plan
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.kernels.shards import ShardSpec

#: Default bound on distinct (offsets, geometry) trace entries kept live.
DEFAULT_MAX_ENTRIES = 64

_LOOKUPS_HELP = "perf-model plan cache lookups by result (hit/miss)"

#: :class:`PlanCacheStats` counter → (registry counter, labels, help).
COUNTERS = {
    "hits": ("plan_cache_lookups", {"result": "hit"}, _LOOKUPS_HELP),
    "misses": ("plan_cache_lookups", {"result": "miss"}, _LOOKUPS_HELP),
    "trace_builds": (
        "plan_cache_trace_builds", {},
        "fetch traces built by the plan cache (one per distinct "
        "offsets+geometry)"),
    "fused_builds": (
        "plan_cache_fused_builds", {},
        "fused execution plans compiled by the plan cache"),
    "shard_builds": (
        "plan_cache_shard_builds", {},
        "shard gather plans compiled by the plan cache (one per distinct "
        "offsets+geometry+shard)"),
    "evictions": (
        "plan_cache_evictions", {},
        "trace entries dropped at the LRU bound (a high rate means "
        "max_entries is too small for the working set of offset "
        "tensors)"),
}


def offsets_digest(offset: np.ndarray) -> str:
    """Content digest of an offset tensor (dtype + shape + bytes).

    SHA-256 over the raw buffer, read in place (no ``tobytes()`` copy of
    a C-contiguous tensor): about twice as fast as blake2b on an x86
    Xeon with the SHA extensions (~30 µs for a 32×32 layer's fp16
    offsets), and collision-safe for cache keying.  Digests are never
    persisted, so the choice of hash is free to change.
    """
    arr = np.ascontiguousarray(offset)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr)
    return h.hexdigest()


@dataclass
class _TraceEntry:
    """Cached per-(offsets, geometry) trace state + per-tile stats.

    One entry owns everything memoised for one (offset digest, geometry,
    device, fp16) key: the fetch trace, the per-tile cache stats, *and*
    the gather plans of the layer and of its shards — one LRU lifetime,
    one digest key, so a plan can never outlive (or lag behind) the
    trace it belongs to.
    """

    #: (k·l,) floored fetch rows/cols — kept only for a sampled trace
    #: (``lines is None``), whose tiles replay the sampling from them
    y0: Optional[np.ndarray]
    x0: Optional[np.ndarray]
    lines: Optional[TexelLineTrace]    # None when the trace needs sampling
    k: int
    l: int
    out_h: int
    out_w: int
    #: (tile, concurrent_layers) → (stats, trace scale)
    stats: Dict[Tuple[Tuple[int, int], int],
                Tuple[TextureCacheStats, float]] = field(default_factory=dict)
    #: (shard or None, in_channels, out_channels) → compiled gather plan
    fused: Dict[tuple, FusedPlan] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Resident bytes: trace arrays plus every gather plan (per-tile
        stats are a few ints each and are not counted)."""
        total = (self.lines.nbytes if self.lines is not None
                 else self.y0.nbytes + self.x0.nbytes)
        for p in self.fused.values():
            total += p.nbytes
        return total


class PlanCacheStats:
    """Hit/miss/build counters of one :class:`PlanCache`.

    The registry is the only store: each :data:`COUNTERS` name (``hits``,
    ``misses``, ``trace_builds``, ...) reads back as an ``int`` from its
    registry counter, which :meth:`record` advances (``Counter.inc`` holds
    the metric's lock).  Two caches on one registry share its totals.
    """

    def __init__(self, registry: MetricsRegistry):
        #: counter name → (registry Counter, labels)
        self._counters = {
            name: (registry.counter(metric, help=text), labels)
            for name, (metric, labels, text) in COUNTERS.items()}
        self._build_window = registry.windowed_histogram(
            "plan_cache_build_ms",
            help="wall ms spent compiling plans (trace/fused), "
                 "windowed on the wall clock — a build spike in a "
                 "serving window means new offset digests arrived")

    def __getattr__(self, name: str) -> int:
        if name not in COUNTERS:
            raise AttributeError(name)
        counter, labels = self._counters[name]
        return int(counter.value(**labels))

    # Lookups are exact-keyed, so nothing is ever a delta hit or reject:
    # both read 0 and have no registry series.  perfbench still reads
    # them; a later benchmark change drops them together with their two
    # BENCHMARK.json rows.
    @property
    def delta_hits(self) -> int:
        return 0

    @property
    def delta_rejects(self) -> int:
        return 0

    def record(self, name: str, count: int = 1) -> None:
        """Count ``count`` events on the :data:`COUNTERS` counter
        ``name``."""
        counter, labels = self._counters[name]
        counter.inc(count, **labels)

    def record_build_ms(self, kind: str, duration_ms: float) -> None:
        """Windowed build-duration sample (``kind`` = trace|fused|...)."""
        self._build_window.observe(float(duration_ms), kind=kind)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return 100.0 * self.hits / total if total else 0.0

    def __repr__(self) -> str:
        counts = ", ".join(f"{name}={getattr(self, name)}"
                           for name in COUNTERS)
        return f"PlanCacheStats({counts})"


class PlanCache:
    """LRU-bounded memo of texture perf-model state.

    A miss builds the trace entry from one pass over the sampling
    positions: each axis is resolved once for the line trace
    (:meth:`~repro.gpusim.cache.TextureCacheModel.precompute`) and once
    for the tap tables (:func:`~repro.kernels.fused.tap_tables`), and
    the counters a launch records are exactly those of one lookup per
    requested value (a whole-layer miss: two lookups, two misses, one
    trace build, one fused build).

    Parameters
    ----------
    max_entries:
        Distinct (offset digest, geometry, plan, fp16) trace entries kept
        live; least-recently-used entries are evicted beyond this (each
        eviction counts on ``stats.evictions``).  Each entry additionally
        holds one stats record per tile requested against it (the legal
        tile space is small, so this inner dict is naturally bounded).
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` the cache counts
        on (a private one when None); exposed as ``registry``.
    tracer:
        Optional span hook — see the module docstring.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 registry: Optional[MetricsRegistry] = None, tracer=None):
        if max_entries < 1:
            raise ValueError("plan cache needs max_entries >= 1")
        self.max_entries = max_entries
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.stats = PlanCacheStats(self.registry)
        self._resident = self.registry.gauge(
            "plan_cache_resident_bytes",
            help="bytes held by live plan-cache entries: trace arrays "
                 "plus the tap tables of fused and shard plans")
        self.tracer = tracer
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _TraceEntry]" = OrderedDict()
        #: keys with a build in flight — concurrent misses on one entry
        #: coalesce onto one build instead of racing; waiters sleep on
        #: ``_built``, notified whenever a build ends
        self._building: Set[tuple] = set()
        self._built = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._resident.dec(sum(e.nbytes for e in self._entries.values()))
            self._entries.clear()

    @staticmethod
    def _trace_key(digest: str, cfg: LayerConfig, spec: DeviceSpec,
                   fp16: bool, plan: SamplePlan) -> tuple:
        # Everything the trace + line mapping depends on.  Cache-geometry
        # fields of the spec are keyed explicitly so two specs sharing a
        # name but differing in cache shape cannot alias.
        return (digest, cfg.height, cfg.width, cfg.kernel_size, cfg.stride,
                cfg.padding, cfg.dilation, bool(fp16), spec.name,
                spec.tex_cache_kb_per_sm, spec.tex_cache_line_bytes,
                tuple(spec.tex_line_tile), plan.max_warps, plan.max_fetches,
                plan.seed)

    # ------------------------------------------------------------------
    def tex_stats(self, digest: str, cfg: LayerConfig, spec: DeviceSpec,
                  tile: Tuple[int, int], fp16: bool,
                  plan: Optional[SamplePlan], concurrent_layers: int,
                  positions: Callable[[], Tuple[np.ndarray, np.ndarray]],
                  pixels: slice = slice(None)
                  ) -> Tuple[TextureCacheStats, float]:
        """Memoised equivalent of trace-build + ``simulate`` for one call:
        :meth:`lookup` of the texture counters alone."""
        return self.lookup(digest, cfg, spec, fp16, plan, positions,
                           tile=tile, concurrent_layers=concurrent_layers,
                           pixels=pixels)[1]

    def fused_plan(self, digest: str, cfg: LayerConfig, spec: DeviceSpec,
                   fp16: bool, plan: Optional[SamplePlan],
                   positions: Callable[[], Tuple[np.ndarray, np.ndarray]],
                   shard: Optional["ShardSpec"] = None) -> FusedPlan:
        """Get-or-compile the gather plan of a whole layer or of one shard
        of it: :meth:`lookup` of the plan alone."""
        return self.lookup(digest, cfg, spec, fp16, plan, positions,
                           fused=True, shard=shard)[0]

    def lookup(self, digest: str, cfg: LayerConfig, spec: DeviceSpec,
               fp16: bool, plan: Optional[SamplePlan],
               positions: Callable[[], Tuple[np.ndarray, np.ndarray]], *,
               fused: bool = False, shard: Optional["ShardSpec"] = None,
               tile: Optional[Tuple[int, int]] = None,
               concurrent_layers: int = 4, pixels: slice = slice(None)
               ) -> Tuple[Optional[FusedPlan],
                          Optional[Tuple[TextureCacheStats, float]]]:
        """One launch's lookups on one trace entry, in one transaction.

        ``digest`` is :func:`offsets_digest` of the offsets the launch
        samples through — the *quantised* ones for tex2D++, so two fp32
        offset tensors that quantise to the same fp16 values are the same
        launch and share one entry.  ``positions`` lazily supplies the
        full (N, dg, K, L) sampling positions; it runs only on a build,
        so a launch that hits never computes them.

        Returns ``(plan, texture)``.  With ``fused``, ``plan`` is the
        gather plan of the whole layer or of ``shard``, keyed inside the
        entry by (shard, in_channels, out_channels) — so a row band and a
        channel slice of the same layer, two bands and the whole layer
        never collide; a shard's compile counts on ``shard_builds``, a
        whole layer's on ``fused_builds``.  With ``tile``, ``texture`` is
        the ``(stats, trace_scale)`` of that CTA tiling at
        ``concurrent_layers``, exactly as the uncached simulation
        produces it; a known entry with an unseen (tile, concurrency)
        is a miss that re-tiles its own trace.  The entry's trace covers
        batch 0, group 0 of the positions over the output pixels
        ``pixels`` (a row band's trace entry is keyed by the band's own
        digest).

        Each requested value counts exactly one hit or one miss.  The
        key is built once, and one in-flight guard per entry makes
        concurrent misses coalesce: the first thread builds whatever is
        missing — the trace, the plan, the tile's counters — and stores
        it in one step (the LRU bound is the only eviction site); the
        rest wait, then re-check, and a waiter becomes the builder if
        the build failed or its entry was evicted at once.
        """
        plan = plan or SamplePlan()
        key = self._trace_key(digest, cfg, spec, fp16, plan)
        fused_key = (shard, cfg.in_channels, cfg.out_channels)
        if tile is not None:
            tile = (int(tile[0]), int(tile[1]))
            stats_key = (tile, int(concurrent_layers))
        with self._lock:
            while True:
                entry = self._entries.get(key)
                fplan = texture = None
                if entry is not None:
                    self._entries.move_to_end(key)
                    if fused:
                        fplan = entry.fused.get(fused_key)
                    if tile is not None:
                        texture = entry.stats.get(stats_key)
                missing = ((fused and fplan is None)
                           + (tile is not None and texture is None))
                hits = fused + (tile is not None) - missing
                if not missing:
                    self.stats.record("hits", hits)
                    return fplan, texture
                if key not in self._building:
                    self._building.add(key)
                    break
                self._built.wait()
        try:
            if hits:
                self.stats.record("hits", hits)
            self.stats.record("misses", missing)
            new = entry is None
            if new:
                entry = self._timed_build("trace", cfg, lambda: self._trace(
                    cfg, spec, plan, positions, pixels))
            built = None
            if fused and fplan is None:
                label = {} if shard is None else {"shard": shard.label}
                fplan = built = self._timed_build(
                    "fused" if shard is None else "shard", cfg,
                    lambda: build_fused_plan(cfg, spec, fp16, positions,
                                             shard), **label)
            if tile is not None and texture is None:
                texture = self._spanned(
                    "plancache.retile", cfg, lambda: self._simulate_tile(
                        entry, cfg, spec, tile, plan, int(concurrent_layers)),
                    tile=lambda: f"{tile[0]}x{tile[1]}")
            with self._lock:
                if fused:
                    entry.fused[fused_key] = fplan
                if tile is not None:
                    entry.stats[stats_key] = texture
                if new:
                    self._entries[key] = entry
                    self._resident.inc(entry.nbytes)
                    while len(self._entries) > self.max_entries:
                        _, dropped = self._entries.popitem(last=False)
                        self._resident.dec(dropped.nbytes)
                        self.stats.record("evictions")
                elif built is not None and self._entries.get(key) is entry:
                    # a plan added to a live entry counts once
                    self._resident.inc(built.nbytes)
            return fplan, texture
        finally:
            with self._lock:
                self._building.discard(key)
                self._built.notify_all()

    # ------------------------------------------------------------------
    def _timed_build(self, kind: str, cfg: LayerConfig, build: Callable,
                     **args):
        """``build()`` as one ``<kind>_builds`` build: counted, spanned as
        ``plancache.build_<kind>`` and timed into the build-ms window."""
        self.stats.record(f"{kind}_builds")
        t0 = time.perf_counter()
        try:
            return self._spanned(f"plancache.build_{kind}", cfg, build,
                                 **args)
        finally:
            self.stats.record_build_ms(
                kind, (time.perf_counter() - t0) * 1e3)

    def _spanned(self, name: str, cfg: LayerConfig, run: Callable, **args):
        """``run()``, inside a ``name`` span when the cache has a tracer
        (the span's labels are built only then)."""
        if self.tracer is None:
            return run()
        with self.tracer.span(name, cat="plancache", geometry=cfg.label(),
                              **{k: v() for k, v in args.items()}):
            return run()

    def _trace(self, cfg: LayerConfig, spec: DeviceSpec, plan: SamplePlan,
               positions: Callable[[], Tuple[np.ndarray, np.ndarray]],
               pixels: slice) -> _TraceEntry:
        """Build the tile-independent trace state (the expensive half)
        from batch 0, group 0 of the positions over ``pixels``."""
        py, px = positions()
        py, px = py[0, 0][:, pixels], px[0, 0][:, pixels]
        k, l = py.shape
        # the trace's own floor of each position: the top-left texel of
        # its fetch
        y0, x0 = np.floor(py).ravel(), np.floor(px).ravel()
        if y0.size > plan.max_fetches:
            # Beyond the sampling budget whole-CTA sampling depends on the
            # tile, so each tile replays it from the floors.
            return _TraceEntry(y0=y0.astype(np.int64),
                               x0=x0.astype(np.int64), lines=None, k=k,
                               l=l, out_h=cfg.out_height,
                               out_w=cfg.out_width)
        # Within it the trace is exact, so the texel→line mapping is
        # tile-independent and every tile reads it alone.
        lines = TextureCacheModel(spec).precompute(
            y0, x0, fetch_pixels(k, l), cfg.height, cfg.width)
        return _TraceEntry(y0=None, x0=None, lines=lines, k=k, l=l,
                           out_h=cfg.out_height, out_w=cfg.out_width)

    def _simulate_tile(self, entry: _TraceEntry, cfg: LayerConfig,
                       spec: DeviceSpec, tile: Tuple[int, int],
                       plan: SamplePlan, concurrent_layers: int
                       ) -> Tuple[TextureCacheStats, float]:
        """Simulate one CTA tiling against a cached trace entry."""
        model = TextureCacheModel(spec, concurrent_layers=concurrent_layers)
        cta_of_pixel = cta_ids_for_tile(entry.out_h, entry.out_w, tile)
        if entry.lines is not None:
            return model.simulate_retiled(entry.lines, cta_of_pixel), 1.0
        # Sampled trace: CTA sampling depends on the tile, so replay it
        # exactly as texture_fetch_trace would (bit-identical fallback; a
        # row band's trace covers the top-aligned first ``l`` pixels of
        # the grid).
        cta = np.broadcast_to(cta_of_pixel[:entry.l],
                              (entry.k, entry.l)).ravel()
        y0, x0, cta, scale = sample_trace_ctas(
            entry.y0, entry.x0, cta, entry.k * entry.l, plan)
        return model.simulate(y0, x0, cta, cfg.height, cfg.width), scale
