"""Tile-size autotuning for the tex2D kernels (paper Fig. 8).

The paper searches tile sizes offline with the ytopt Bayesian-optimisation
framework; :class:`TileTuner` plays that role against the simulator's
latency.  Results are cached per (layer, device, backend) so a model's
tiles are tuned once and reused at inference.

Hot-path design (docs/performance.md): every objective evaluation routes
through a :class:`~repro.kernels.plancache.PlanCache`, so a search over K
candidate tiles builds the fetch trace **once** and re-buckets it per tile
(one-pass re-tiling) instead of running K full simulations.  The
exhaustive ``grid`` search, the oracle the Bayesian search is checked
against, therefore costs one trace plus one regrouping per tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.autotune.bayesopt import BayesianOptimizer, TuneResult
from repro.autotune.random_search import grid_search, random_search
from repro.autotune.space import SearchSpace
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import SamplePlan
from repro.kernels import plancache
from repro.kernels.config import LayerConfig, synth_offsets
from repro.kernels.plancache import PlanCache
from repro.kernels.tex2d import launch, texture_offsets
from repro.kernels.tiling import enumerate_tiles
from repro.obs.registry import MetricsRegistry

#: the search methods :meth:`TileTuner.tune` accepts
METHODS = ("bayes", "random", "grid")


@dataclass(frozen=True)
class TuneKey:
    layer: LayerConfig
    device: str
    backend: str


class TileTuner:
    """Search the (ty, tx) tile space for minimum simulated latency.

    ``store`` plugs in a persistent backing store
    (:class:`repro.autotune.store.TileStore`): tuning consults it before
    evaluating the objective — a populated store means **zero** objective
    evaluations — and writes fresh results back.
    ``objective_evaluations`` counts every simulator call this tuner
    actually made, so warm starts are observable.  It is a per-tuner int
    on purpose: an engine reads it as its own warm-start evidence, which
    must not include another tuner's work on a shared registry.  The
    registry (a private one when None) carries
    ``autotune_objective_evaluations`` and ``autotune_store_warm_hits``.

    ``plan_cache`` controls trace reuse across candidate tiles:
    ``None`` (default) gives each search a private
    :class:`~repro.kernels.plancache.PlanCache`; pass a shared instance to
    pool traces with an engine.  The uncached reference the cache is
    bit-identical to is ``run_tex2d(plan_cache=None)``.
    """

    def __init__(self, spec: DeviceSpec, backend: str = "tex2d",
                 budget: int = 16, seed: int = 0,
                 offset_sigma: float = 2.0, bound: Optional[float] = 7.0,
                 store=None, registry=None, plan_cache=None):
        if backend not in ("tex2d", "tex2dpp"):
            raise ValueError("tile tuning applies to the texture backends")
        if budget < 1:
            raise ValueError(f"budget={budget}: a search needs at least one "
                             f"evaluation")
        if plan_cache is not None and not isinstance(plan_cache, PlanCache):
            raise ValueError(f"plan_cache={plan_cache!r}: the uncached mode "
                             f"was removed; pass None or a PlanCache")
        self.spec = spec
        self.backend = backend
        self.budget = budget
        self.seed = seed
        self.offset_sigma = offset_sigma
        self.bound = bound
        self.store = store
        self.plan_cache = plan_cache
        self.objective_evaluations = 0
        self._cache: Dict[TuneKey, TuneResult] = {}
        registry = registry if registry is not None else MetricsRegistry()
        self._eval_counter = registry.counter(
            "autotune_objective_evaluations",
            help="simulator calls made by the tile tuner")
        self._warm_counter = registry.counter(
            "autotune_store_warm_hits",
            help="tunings satisfied from the tile store (zero evals)")

    # ------------------------------------------------------------------
    def _search_plan_cache(self) -> PlanCache:
        """The plan cache one search should evaluate through."""
        if self.plan_cache is None:
            # Private per-search cache: candidate tiles share one trace.
            return PlanCache()
        return self.plan_cache

    def objective(self, cfg: LayerConfig):
        """Build the latency objective for one layer.

        Every candidate tile is priced on the same synthetic offsets: each
        evaluation is a texture launch with no input (``x=None``), so no
        input or weight array is built and no output computed.  The
        offsets are quantised (tex2D++) and hashed once per search, and
        every launch takes that digest.
        """
        fp16 = self.backend == "tex2dpp"
        off = texture_offsets(synth_offsets(
            cfg, sigma=self.offset_sigma, bound=self.bound, seed=self.seed),
            fp16)
        digest = plancache.offsets_digest(off)
        plan = SamplePlan(seed=self.seed)
        plan_cache = self._search_plan_cache()

        def latency(tile: Tuple[int, int]) -> float:
            self.objective_evaluations += 1
            self._eval_counter.inc(backend=self.backend)
            sample, _ = launch(None, off, cfg, self.spec, tuple(tile), fp16,
                               plan, plan_cache, digest=digest).kernels
            return sample.duration_ms

        return latency

    def space(self, cfg: LayerConfig) -> SearchSpace:
        return SearchSpace.from_tiles(enumerate_tiles(cfg, self.spec))

    # ------------------------------------------------------------------
    def tune(self, cfg: LayerConfig, method: str = "bayes") -> TuneResult:
        """Tune one layer; ``method`` is one of :data:`METHODS`.

        Lookup order: in-memory cache → backing store (warm start, zero
        objective evaluations) → fresh search (written back to the store).
        ``grid`` is the exhaustive oracle: it prices every legal tile,
        through the search's plan cache.
        """
        if method not in METHODS:
            raise ValueError(f"unknown tuning method {method!r}; choose "
                             f"from {METHODS}")
        key = TuneKey(cfg, self.spec.name, f"{self.backend}:{method}")
        if key in self._cache:
            return self._cache[key]
        if self.store is not None:
            stored = self.store.get(cfg, self.spec.name, self.backend)
            if stored is not None:
                self._warm_counter.inc(backend=self.backend)
                self._cache[key] = stored
                return stored
        if method == "bayes":
            result = BayesianOptimizer(self.space(cfg), seed=self.seed
                                       ).minimize(self.objective(cfg),
                                                  budget=self.budget)
        elif method == "random":
            result = random_search(self.space(cfg), self.objective(cfg),
                                   budget=self.budget, seed=self.seed)
        else:
            result = grid_search(self.space(cfg), self.objective(cfg))
        self._cache[key] = result
        if self.store is not None:
            self.store.put(cfg, self.spec.name, self.backend, result)
        return result

    def best_tile(self, cfg: LayerConfig) -> Tuple[int, int]:
        return tuple(self.tune(cfg).best_point)

    def tune_layers(self, layers) -> Dict[LayerConfig, Tuple[int, int]]:
        """Tune a whole model's deformable layer shapes (deduplicated)."""
        return {cfg: self.best_tile(cfg) for cfg in dict.fromkeys(layers)}
