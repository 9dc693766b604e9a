"""Tile-size autotuning for the tex2D kernels (paper Fig. 8).

The paper searches tile sizes offline with the ytopt Bayesian-optimisation
framework; :class:`TileTuner` plays that role against the simulator's
latency.  Results are cached per (layer, device, backend) so a model's
tiles are tuned once and reused at inference.

Hot-path design (docs/performance.md): every objective evaluation routes
through a :class:`~repro.kernels.plancache.PlanCache`, so a search over K
candidate tiles builds the fetch trace **once** and re-buckets it per tile
(one-pass re-tiling) instead of running K full simulations.  The
exhaustive ``sweep`` method additionally fans candidate tiles out over a
``concurrent.futures`` process pool (``workers > 1``) with a deterministic
serial fallback — parallel and serial sweeps produce identical results.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autotune.bayesopt import BayesianOptimizer, TuneResult
from repro.autotune.random_search import grid_search, random_search
from repro.autotune.space import SearchSpace
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import SamplePlan
from repro.kernels.config import LayerConfig, synth_offsets
from repro.kernels.dispatch import run_deform_op
from repro.kernels.plancache import PlanCache
from repro.kernels.tiling import enumerate_tiles
from repro.obs.registry import MetricsRegistry

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TuneKey:
    layer: LayerConfig
    device: str
    backend: str


def _evaluate_tiles(spec: DeviceSpec, backend: str, cfg: LayerConfig,
                    tiles: Sequence[Tuple[int, int]], seed: int,
                    offset_sigma: float, bound: Optional[float],
                    plan_cache: PlanCache) -> List[float]:
    """Simulated sampling-kernel latency for each candidate tile.

    Deterministic given (spec, backend, cfg, seed, sigma, bound): the
    synthetic offsets are regenerated from the seed and the perf model
    never reads the input/weight values, so any process can compute any
    tile's latency and get the same number.
    """
    off = synth_offsets(cfg, sigma=offset_sigma, bound=bound, seed=seed)
    x = np.zeros(cfg.input_shape(), dtype=np.float32)
    w = np.zeros(cfg.weight_shape(), dtype=np.float32)
    plan = SamplePlan(seed=seed)
    out = []
    for tile in tiles:
        res = run_deform_op(backend, x, off, w, None, cfg, spec,
                            tile=tuple(tile), plan=plan,
                            compute_output=False, plan_cache=plan_cache)
        out.append(float(res.sample_kernel.duration_ms))
    return out


def _sweep_worker(payload) -> List[float]:
    """Process-pool entry point: evaluate one chunk of candidate tiles.

    Each worker owns a private plan cache, so a chunk costs one trace
    build plus one cheap regrouping per tile.
    """
    spec, backend, cfg, tiles, seed, sigma, bound = payload
    return _evaluate_tiles(spec, backend, cfg, tiles, seed, sigma, bound,
                           PlanCache(max_entries=2))


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
    ``workers`` > 1 evaluates ``sweep`` candidates on a process pool.
    """

    def __init__(self, spec: DeviceSpec, backend: str = "tex2d",
                 budget: int = 16, seed: int = 0,
                 offset_sigma: float = 2.0, bound: Optional[float] = 7.0,
                 store=None, registry=None, plan_cache=None,
                 workers: int = 0):
        if backend not in ("tex2d", "tex2dpp"):
            raise ValueError("tile tuning applies to the texture backends")
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
        self.workers = int(workers)
        self.objective_evaluations = 0
        self._pool = None                  # lazy, persistent process pool
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
            return PlanCache(max_entries=4)
        return self.plan_cache

    def _count_evaluations(self, n: int) -> None:
        self.objective_evaluations += n
        self._eval_counter.inc(n, backend=self.backend)

    def objective(self, cfg: LayerConfig):
        """Build the latency objective for one layer (shared inputs)."""
        rng = np.random.default_rng(self.seed)
        x = rng.normal(size=cfg.input_shape()).astype(np.float32)
        w = rng.normal(size=cfg.weight_shape()).astype(np.float32)
        off = synth_offsets(cfg, sigma=self.offset_sigma, bound=self.bound,
                            seed=self.seed)
        plan = SamplePlan(seed=self.seed)
        plan_cache = self._search_plan_cache()

        def latency(tile: Tuple[int, int]) -> float:
            self._count_evaluations(1)
            res = run_deform_op(self.backend, x, off, w, None, cfg,
                                self.spec, tile=tuple(tile), plan=plan,
                                compute_output=False, plan_cache=plan_cache)
            return res.sample_kernel.duration_ms

        return latency

    def space(self, cfg: LayerConfig) -> SearchSpace:
        return SearchSpace.from_tiles(enumerate_tiles(cfg, self.spec))

    # ------------------------------------------------------------------
    # exhaustive sweep (one-pass re-tiling + optional process pool)
    # ------------------------------------------------------------------
    def sweep(self, cfg: LayerConfig,
              tiles: Optional[Sequence[Tuple[int, int]]] = None
              ) -> TuneResult:
        """Evaluate every legal tile; the oracle search, made cheap.

        The re-tiled plan-cache path prices the whole space at one trace
        plus one regrouping per tile; with ``workers > 1`` the tile list
        is chunked across a process pool (results are position-stable and
        identical to the serial sweep).
        """
        tiles = [tuple(t) for t in (tiles if tiles is not None
                                    else enumerate_tiles(cfg, self.spec))]
        values = None
        if self.workers > 1 and len(tiles) > 1:
            values = self._sweep_parallel(cfg, tiles)
        if values is None:
            values = _evaluate_tiles(self.spec, self.backend, cfg, tiles,
                                     self.seed, self.offset_sigma,
                                     self.bound, self._search_plan_cache())
        self._count_evaluations(len(tiles))
        history = list(zip(tiles, values))
        best_point, best_value = min(history, key=lambda kv: kv[1])
        return TuneResult(best_point=best_point, best_value=best_value,
                          history=history)

    def _sweep_parallel(self, cfg: LayerConfig,
                        tiles: List[Tuple[int, int]]
                        ) -> Optional[List[float]]:
        """Fan tile chunks out over a process pool; None = use serial.

        The pool is created lazily and kept alive for the tuner's
        lifetime, so a multi-layer tune pays the worker spawn cost once.
        """
        from concurrent.futures import ProcessPoolExecutor

        nw = min(self.workers, len(tiles))
        chunks = [tiles[i::nw] for i in range(nw)]
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            futures = [
                self._pool.submit(_sweep_worker,
                                  (self.spec, self.backend, cfg, chunk,
                                   self.seed, self.offset_sigma, self.bound))
                for chunk in chunks]
            per_chunk = [f.result() for f in futures]
        except Exception as exc:  # pool unavailable (sandbox, pickling...)
            logger.warning("parallel tile sweep failed (%s); falling back "
                           "to the serial sweep", exc)
            self.close()
            return None
        values: List[Optional[float]] = [None] * len(tiles)
        for i, chunk_values in enumerate(per_chunk):
            values[i::nw] = chunk_values
        return values  # type: ignore[return-value]

    def close(self) -> None:
        """Shut the worker pool down (no-op when none was spawned)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "TileTuner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def tune(self, cfg: LayerConfig, method: str = "bayes") -> TuneResult:
        """Tune one layer; ``method`` in {'bayes', 'random', 'grid',
        'sweep'}.

        Lookup order: in-memory cache → backing store (warm start, zero
        objective evaluations) → fresh search (written back to the store).
        ``sweep`` is the exhaustive oracle on the one-pass re-tiled fast
        path; ``grid`` calls the objective once per candidate.
        """
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
        elif method == "grid":
            result = grid_search(self.space(cfg), self.objective(cfg))
        elif method == "sweep":
            result = self.sweep(cfg)
        else:
            raise ValueError(f"unknown tuning method {method!r}")
        self._cache[key] = result
        if self.store is not None:
            self.store.put(cfg, self.spec.name, self.backend, result)
        return result

    def best_tile(self, cfg: LayerConfig) -> Tuple[int, int]:
        return tuple(self.tune(cfg).best_point)

    def tune_layers(self, layers) -> Dict[LayerConfig, Tuple[int, int]]:
        """Tune a whole model's deformable layer shapes (deduplicated)."""
        return {cfg: self.best_tile(cfg) for cfg in dict.fromkeys(layers)}
