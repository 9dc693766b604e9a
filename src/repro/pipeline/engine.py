"""DefconEngine — run a *trained* model through the simulated GPU backends.

This is the deployment story of the paper, end to end: take the network
the interval search produced, bind its deformable layers to the tex2D /
tex2D++ kernels (with autotuned tiles), and run real inference — the
layers execute with their *learned* offsets through the functional texture
unit, so the engine simultaneously produces:

* the model's actual detections (numerics go through 1.8 fixed-point
  hardware filtering — accuracy parity is observable, not assumed), and
* an nvprof-style :class:`~repro.gpusim.profiler.ProfileLog` of every
  deformable kernel launch — each record attributed to the model layer
  that launched it, so ``per_layer_rows()`` reproduces the paper's
  Table II/IV per-layer breakdown for any model.

Observability (docs/observability.md): the engine counts only on the
:class:`~repro.obs.registry.MetricsRegistry` it is built with (a private
one when none is passed) — its tile-cache, plan-cache and autotune
counters live there and ``tile_cache_stats`` / ``plan_cache_stats`` read
them back from there; pass the serving layer's registry to share one
metrics home.  A :class:`~repro.obs.tracer.SpanTracer` streams every
kernel launch onto the simulated-GPU trace timeline.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.autotune.tuner import TileTuner
from repro.deform.layers import DeformConv2d
from repro.gpusim.device import DeviceSpec
from repro.gpusim.profiler import ProfileLog
from repro.kernels.config import LayerConfig
from repro.kernels.dispatch import BACKENDS, run_deform_op
from repro.kernels.plancache import PlanCache, PlanCacheStats
from repro.kernels.tex2d import DEFAULT_TILE
from repro.kernels.tiling import TileKey, nearest_tile_key, tile_key
from repro.nn import Module
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import SpanTracer, maybe_span
from repro.tensor import Tensor

logger = logging.getLogger(__name__)


class TileCacheStats:
    """Observability for the tuned-tile lookup (nothing falls back silently).

    * ``hits`` — exact tuned-geometry matches;
    * ``near_hits`` — no exact match, but a tile tuned for the nearest
      geometry with the same channels/stride was substituted (resized or
      otherwise non-nominal inputs land here);
    * ``misses`` — nothing tuned is applicable and the untuned
      ``DEFAULT_TILE`` ran (each distinct geometry is also logged once).

    A view over ``engine_tile_cache_lookups{result=...}`` on a
    :class:`~repro.obs.registry.MetricsRegistry` (a private one when none
    is passed): lookups count there and the attributes read back from
    there, so two views over one registry share its totals.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry if registry is not None else MetricsRegistry()
        self._lookups = registry.counter(
            "engine_tile_cache_lookups",
            help="runtime tile lookups by result (hit/near_hit/miss)")

    def record_hit(self) -> None:
        self._lookups.inc(result="hit")

    def record_near_hit(self) -> None:
        self._lookups.inc(result="near_hit")

    def record_miss(self) -> None:
        self._lookups.inc(result="miss")

    @property
    def hits(self) -> int:
        return int(self._lookups.value(result="hit"))

    @property
    def near_hits(self) -> int:
        return int(self._lookups.value(result="near_hit"))

    @property
    def misses(self) -> int:
        return int(self._lookups.value(result="miss"))

    @property
    def lookups(self) -> int:
        return self.hits + self.near_hits + self.misses

    def __repr__(self) -> str:
        return (f"TileCacheStats(hits={self.hits}, "
                f"near_hits={self.near_hits}, misses={self.misses})")


@dataclass
class TextureRuntime:
    """Per-layer execution binding installed on DeformConv2d modules."""

    spec: DeviceSpec
    backend: str
    log: ProfileLog
    #: perf-model plan cache shared by every layer execution
    plan_cache: PlanCache
    tiles: Dict[TileKey, Tuple[int, int]] = field(default_factory=dict)
    cache_stats: TileCacheStats = field(default_factory=TileCacheStats)
    #: fleet shard-execution hook (a
    #: :class:`~repro.fleet.shard.ShardContext`): when set, each layer is
    #: offered to it first and only falls through to the local backend
    #: when the hook declines (returns None)
    shard_executor: Optional[object] = None
    #: near-hit resolutions memoised per runtime geometry
    resolved: Dict[TileKey, Tuple[int, int]] = field(default_factory=dict)
    _warned: Set[TileKey] = field(default_factory=set)
    #: guards the mutable lookup caches under concurrent engine use
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def lookup_tile(self, cfg: LayerConfig) -> Tuple[int, int]:
        """Resolve the CTA tile for one runtime geometry, counting misses."""
        key = tile_key(cfg)
        with self._lock:
            tile = self.tiles.get(key)
            if tile is not None:
                self.cache_stats.record_hit()
                return tile
            tile = self.resolved.get(key)
            if tile is not None:
                self.cache_stats.record_near_hit()
                return tile
            near = nearest_tile_key(key, self.tiles)
            if near is not None:
                tile = self.tiles[near]
                self.resolved[key] = tile
                self.cache_stats.record_near_hit()
                logger.info("tile cache near-hit: geometry %s served with "
                            "tile %s tuned for %s", key, tile, near)
                return tile
            self.cache_stats.record_miss()
            if self.tiles and key not in self._warned:
                self._warned.add(key)
                logger.warning("tile cache miss: no tuned tile for geometry "
                               "%s (have %d tuned entries); falling back to "
                               "the untuned default %s", key, len(self.tiles),
                               DEFAULT_TILE)
            return DEFAULT_TILE

    @staticmethod
    def layer_config(layer: DeformConv2d, x: Tensor) -> LayerConfig:
        n, c, h, w = x.shape
        return LayerConfig(
            in_channels=c, out_channels=layer.out_channels,
            height=h, width=w, kernel_size=layer.kernel_size,
            stride=layer.stride, padding=layer.padding,
            dilation=layer.dilation,
            deformable_groups=layer.deformable_groups, batch=n)

    def execute(self, layer: DeformConv2d, x: Tensor,
                offsets: Tensor) -> Tensor:
        cfg = self.layer_config(layer, x)
        executor = self.shard_executor
        if executor is not None:
            out = executor.execute_layer(self, layer, cfg, x, offsets)
            if out is not None:
                return out
        return self.execute_direct(layer, cfg, x, offsets)

    def execute_direct(self, layer: DeformConv2d, cfg: LayerConfig,
                       x: Tensor, offsets: Tensor) -> Tensor:
        """Run one layer on this runtime's own backend (no sharding)."""
        tile = self.lookup_tile(cfg)
        bias = layer.bias.data if layer.bias is not None else None
        res = run_deform_op(self.backend,
                            x.data.astype(np.float32, copy=False),
                            offsets.data.astype(np.float32, copy=False),
                            layer.weight.data, bias, cfg, self.spec,
                            tile=tile, layer=getattr(layer, "layer_name", ""),
                            plan_cache=self.plan_cache)
        for k in res.kernels:
            self.log.add(k)
        return Tensor(res.output.astype(np.float32, copy=False))


class DefconEngine:
    """Bind a model's deformable layers to a simulated kernel backend.

    ``tile_store`` (a :class:`repro.autotune.store.TileStore`) makes the
    autotuned tiles a persistent deployment artifact: a warm start against a
    populated store binds every tile with **zero** tuner objective
    evaluations, and fresh tuning results are written back for the next
    engine.  ``tune_evaluations`` records how much tuning work construction
    actually performed, so warm starts are verifiable.

    ``registry`` (optional) is the engine's metrics home — one is created
    when not supplied; ``tracer`` (optional) streams every simulated kernel
    launch onto the trace's simGPU timeline and wraps ``classify``/
    ``detect`` calls in wall-time spans.

    Texture-backend layers execute through compiled
    :class:`~repro.kernels.fused.FusedPlan` objects.  ``plan_cache``
    memoises them together with the texture perf model (fetch trace +
    cache simulation) across steps with identical offsets/geometry/tile —
    the steady state of serving.  ``None`` (default) creates a private
    :class:`~repro.kernels.plancache.PlanCache`; pass an existing one to
    share plans across engines (e.g. a batched and a sequential engine
    over the same model).  The cache is always on: the uncached
    simulation it is bit-identical to is ``run_tex2d(plan_cache=None)``,
    the reference that conformance and tests compare against.  Hit/miss
    counters land as ``plan_cache_lookups{result=...}`` on the registry
    the cache was built with — the engine's own when the engine built it.
    """

    def __init__(self, model: Module, spec: DeviceSpec,
                 backend: str = "tex2dpp", autotune: bool = False,
                 tune_budget: int = 10, seed: int = 0,
                 tile_store: Optional[object] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanTracer] = None,
                 plan_cache: Optional[PlanCache] = None):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.model = model
        self.spec = spec
        self.backend = backend
        self.log = ProfileLog()
        self.tile_store = tile_store
        self.tune_evaluations = 0
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        if plan_cache is None:
            self.plan_cache = PlanCache(registry=self.registry, tracer=tracer)
        elif not isinstance(plan_cache, PlanCache):
            raise ValueError(f"plan_cache={plan_cache!r}: the uncached mode "
                             f"was removed; pass None or a PlanCache")
        else:
            # a shared cache counts on the registry it was built with
            self.plan_cache = plan_cache
        self._runtime = TextureRuntime(
            spec=spec, backend=backend, log=self.log,
            plan_cache=self.plan_cache,
            cache_stats=TileCacheStats(self.registry))
        self._layers = [m for m in model.modules()
                        if isinstance(m, DeformConv2d)]
        self._name_deformable_layers(model)
        if tracer is not None:
            tracer.attach(self.log)
        if autotune and backend in ("tex2d", "tex2dpp"):
            self._autotune_tiles(tune_budget, seed)

    @staticmethod
    def _name_deformable_layers(model: Module) -> None:
        """Stamp each DeformConv2d with its dotted path inside ``model``.

        Pre-existing names (e.g. from a previous engine over the same
        model) are left alone, so attribution stays stable across engines.
        """
        for name, mod in model.named_modules():
            if isinstance(mod, DeformConv2d) and not mod.layer_name:
                mod.layer_name = name or type(mod).__name__

    # ------------------------------------------------------------------
    def _autotune_tiles(self, budget: int, seed: int) -> None:
        """Tune one tile per distinct layer geometry (offline, Fig. 8).

        With a backing store, geometries already tuned for this device and
        backend load straight from disk — the tuner objective is never
        evaluated for them.
        """
        tuner = TileTuner(self.spec, backend=self.backend, budget=budget,
                          seed=seed, store=self.tile_store,
                          registry=self.registry,
                          plan_cache=self.plan_cache)
        backbone = getattr(self.model, "backbone", None)
        if backbone is None:
            return
        input_size = getattr(self.model, "input_size",
                             getattr(backbone, "input_size", None))
        if input_size is None:
            return
        for spec_site, mod in backbone.candidate_sites():
            if not isinstance(mod, DeformConv2d):
                continue
            cfg = spec_site.layer_config()
            key = tile_key(cfg)
            if key not in self._runtime.tiles:
                try:
                    self._runtime.tiles[key] = tuner.best_tile(cfg)
                except ValueError as exc:
                    # e.g. the output plane is too small for any legal CTA
                    # tile — the site runs DEFAULT_TILE and counts as a miss
                    logger.warning("autotune skipped %s: %s",
                                   cfg.label(), exc)
        self.tune_evaluations = tuner.objective_evaluations

    @property
    def num_deformable_layers(self) -> int:
        return len(self._layers)

    @property
    def tiles(self) -> Dict[TileKey, Tuple[int, int]]:
        return dict(self._runtime.tiles)

    def lookup_tile(self, cfg: LayerConfig) -> Tuple[int, int]:
        """Resolve this engine's CTA tile for one geometry (the fleet's
        shard executor runs kernels on participant engines directly and
        needs each device's own tuned tile)."""
        return self._runtime.lookup_tile(cfg)

    @property
    def tile_cache_stats(self) -> TileCacheStats:
        """Hit/near-hit/miss counters of the runtime tile lookup."""
        return self._runtime.cache_stats

    @property
    def plan_cache_stats(self) -> PlanCacheStats:
        """Hit/miss/build counters of the perf-model plan cache."""
        return self.plan_cache.stats

    # ------------------------------------------------------------------
    def __enter__(self) -> "DefconEngine":
        for layer in self._layers:
            layer.texture_runtime = self._runtime
        return self

    def __exit__(self, *exc) -> None:
        for layer in self._layers:
            layer.texture_runtime = None

    # ------------------------------------------------------------------
    def detect(self, images: np.ndarray, **kwargs):
        """Run detection with the deformable layers on the bound backend."""
        with maybe_span(self.tracer, "engine.detect", cat="engine",
                        batch=len(images)), self:
            return self.model.detect(images, **kwargs)

    def classify(self, images: np.ndarray) -> np.ndarray:
        with maybe_span(self.tracer, "engine.classify", cat="engine",
                        batch=len(images)), self:
            return self.model.predict(images)

    def deformable_latency_ms(self) -> float:
        """Accumulated simulated time of all deformable kernel launches."""
        return self.log.total_ms

    def nvprof_rows(self):
        return self.log.summary_rows()

    def per_layer_rows(self) -> List[dict]:
        """Table II/IV-style per-layer latency breakdown (see ProfileLog)."""
        return self.log.per_layer_rows()
