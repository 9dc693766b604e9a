"""Routing policies: cost-model, round-robin and random placement.

The cost-model router operationalises the paper's per-device latency
model at serving time: for every candidate worker it computes an

    expected completion time (ECT)
        = current backlog (busy device time still owed + predicted
          service time of everything already queued)
        + predicted service time of the new request on *that* device

and places the request on the worker with the smallest ECT (ties broken
by worker name, so decisions are deterministic).  Predicted service
times come from :class:`EngineCostModel`, which walks the model's
deformable sites through the same gpusim cost path the NAS latency table
(Eq. 6) uses — per device, per backend, per geometry — and memoises each
(shape, batch) query.

Round-robin and random placement are the baselines the fleet bench
compares against; on a heterogeneous fleet they waste the fast device by
construction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: predicted service milliseconds for (image shape, batch size)
Predictor = Callable[[Tuple[int, ...], int], float]


class EngineCostModel:
    """Predict per-device deformable latency for a DefconEngine's model.

    For every deformable site of the engine's model (the same candidate
    sites the autotuner walks) the predictor runs the gpusim latency path
    — :func:`repro.nas.latency_table.deform_latency_ms` — on this
    worker's device and backend, scaling the nominal site geometry to the
    request's image extent.  Results are memoised per (shape, batch), so
    steady-state routing costs a dict lookup.
    """

    #: the shard planner checks this before passing ``shard=`` descriptors
    supports_shards = True

    def __init__(self, engine, backend: Optional[str] = None):
        from repro.deform.layers import DeformConv2d

        self.spec = engine.spec
        self.backend = backend if backend is not None else engine.backend
        model = engine.model
        backbone = getattr(model, "backbone", None)
        self._sites = []
        if backbone is not None and hasattr(backbone, "candidate_sites"):
            for spec_site, mod in backbone.candidate_sites():
                if isinstance(mod, DeformConv2d):
                    self._sites.append(spec_site.layer_config())
        self._nominal = getattr(model, "input_size",
                                getattr(backbone, "input_size", None))
        #: (shape, batch, shard descriptor | None) → predicted ms.  The
        #: shard descriptor is part of the key so a split-layer prediction
        #: can never collide with (or be served as) a whole-layer one.
        self._cache: Dict[Tuple[Tuple[int, ...], int, Optional[tuple]],
                          float] = {}
        self._site_cache: Dict[Tuple[Tuple[int, ...], int], list] = {}
        self._split_cache: Dict[Tuple[Tuple[int, ...], int],
                                List[Tuple[float, float]]] = {}
        self._shard_site_cache: Dict[tuple,
                                     List[Tuple[float, float]]] = {}

    def site_configs(self, shape: Tuple[int, ...], batch: int = 1) -> list:
        """The model's deformable sites scaled to this request's extent."""
        key = (tuple(shape), int(batch))
        cached = self._site_cache.get(key)
        if cached is not None:
            return cached
        scale = 1.0
        if self._nominal and len(shape) == 3:
            scale = shape[-1] / float(self._nominal)
        cfgs = [replace(cfg,
                        height=max(4, int(round(cfg.height * scale))),
                        width=max(4, int(round(cfg.width * scale))),
                        batch=batch)
                for cfg in self._sites]
        self._site_cache[key] = cfgs
        return cfgs

    def site_split_ms(self, shape: Tuple[int, ...],
                      batch: int = 1) -> List[Tuple[float, float]]:
        """Per-site (sampling ms, GEMM ms) on this device and backend.

        The shard planner prices a split from the halves: the sampling
        kernel divides across shard workers while the GEMM stays whole at
        the stitch.  A model with no deformable sites prices as one
        pseudo-site of ``float(batch)`` sampling ms (matching the
        whole-layer fallback).
        """
        from repro.nas.latency_table import deform_latency_split_ms

        key = (tuple(shape), int(batch))
        cached = self._split_cache.get(key)
        if cached is not None:
            return cached
        if not self._sites:
            splits = [(float(batch), 0.0)]
        else:
            splits = [deform_latency_split_ms(cfg, self.spec,
                                              backend=self.backend)
                      for cfg in self.site_configs(shape, batch)]
        self._split_cache[key] = splits
        return splits

    def shard_site_ms(self, shape: Tuple[int, ...], batch: int, kind: str,
                      nums: Tuple[int, ...],
                      index: int) -> List[Tuple[float, float]]:
        """Per-site (sampling ms, GEMM ms) of *this worker's* shard.

        ``nums`` are the plan's integer band weights and ``index`` this
        worker's position; the shard bounds per site come from the same
        :func:`~repro.kernels.shards.band_bounds` rounding the executor
        uses, and each shard is priced by the executor's own launch —
        :func:`~repro.kernels.shards.run_shard` with no input, on
        synthetic offsets
        (:func:`~repro.nas.latency_table.deform_shard_latency_split_ms`)
        — exact launch grids, not fraction-scaled approximations.  Sites
        where this worker's band rounds empty price as (0, 0).
        """
        from repro.kernels.shards import ShardSpec, band_bounds
        from repro.nas.latency_table import deform_shard_latency_split_ms

        key = (tuple(shape), int(batch), str(kind), tuple(nums), int(index))
        cached = self._shard_site_cache.get(key)
        if cached is not None:
            return cached
        out: List[Tuple[float, float]] = []
        for cfg in self.site_configs(shape, batch):
            total = (cfg.out_height if kind == "rows"
                     else cfg.in_channels // max(1, cfg.deformable_groups))
            lo, hi = band_bounds(total, nums)[index]
            if hi <= lo:
                out.append((0.0, 0.0))
                continue
            shard = ShardSpec(kind, index, len(nums), lo, hi)
            out.append(deform_shard_latency_split_ms(
                cfg, self.spec, shard, backend=self.backend))
        self._shard_site_cache[key] = out
        return out

    def __call__(self, shape: Tuple[int, ...], batch: int = 1,
                 shard: Optional[tuple] = None) -> float:
        """Predicted ms for (shape, batch), optionally for one shard of it.

        ``shard`` descriptors (all hashable, all part of the memo key):

        * ``None`` — the whole model, sampling + GEMM (the original ECT
          predictor);
        * ``("stage", lo, hi)`` — sites ``[lo, hi)`` whole (one pipeline
          stage).

        Row and channel splits are priced exactly per worker by
        :meth:`shard_site_ms`.
        """
        if shard is not None:
            shard = tuple(shard)
        key = (tuple(shape), int(batch), shard)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        splits = self.site_split_ms(shape, batch)
        if shard is None:
            ms = sum(s + g for s, g in splits)
        elif shard[0] == "stage":
            _, lo, hi = shard
            ms = sum(s + g for s, g in splits[int(lo):int(hi)])
        else:
            raise ValueError(f"unknown shard descriptor {shard!r}")
        self._cache[key] = ms
        return ms


class Router:
    """Pick a worker for one request among the routable candidates."""

    name = "base"

    def choose(self, candidates: Sequence["FleetWorker"],  # noqa: F821
               shape: Tuple[int, ...], now_ms: float):
        raise NotImplementedError

    def ect_table(self, candidates, shape: Tuple[int, ...],
                  now_ms: float) -> Dict[str, float]:
        """Expected completion time per candidate (for observability —
        every policy records it so routing decisions stay inspectable)."""
        return {w.name: w.estimated_completion_ms(shape, now_ms)
                for w in candidates}


class CostModelRouter(Router):
    """Lowest expected completion time wins (ties by worker name)."""

    name = "cost"

    def choose(self, candidates, shape, now_ms):
        return min(candidates,
                   key=lambda w: (w.estimated_completion_ms(shape, now_ms),
                                  w.name))


class ShardAwareCostRouter(CostModelRouter):
    """Cost routing over a plan space that includes sharded splits.

    With a bound :class:`~repro.fleet.shard.ShardPlanner` the router
    prices every plan the planner can emit for this request — single
    workers, row-band and channel-group splits, pipeline stages — and
    places the request on the cheapest plan's *coordinator* (the split
    itself is resolved again at serve time against live device
    timelines).  ``ect_table`` carries the sharded plan rows alongside
    the per-worker ECTs (``plan:<label>`` keys), so the ``repro fleet
    plan`` view and the bench decision table show exactly what the
    router compared.  Unbound (``planner=None``) it degrades to plain
    cost routing.
    """

    name = "shard-cost"

    def __init__(self, planner=None):
        self.planner = planner

    def bind_planner(self, planner) -> "ShardAwareCostRouter":
        self.planner = planner
        return self

    def choose(self, candidates, shape, now_ms):
        if self.planner is not None:
            plan = self.planner.best_plan(candidates, shape, 1, now_ms)
            if plan is not None:
                by_name = {w.name: w for w in candidates}
                coord = by_name.get(plan.coordinator)
                if coord is not None:
                    return coord
        return super().choose(candidates, shape, now_ms)

    def ect_table(self, candidates, shape, now_ms):
        table = super().ect_table(candidates, shape, now_ms)
        if self.planner is not None:
            for plan in self.planner.plan_space(candidates, shape, 1,
                                                now_ms):
                if plan.kind != "single":
                    table[f"plan:{plan.label}"] = plan.predicted_ms
        return table


class RoundRobinRouter(Router):
    """Cycle through workers by name, skipping unroutable ones."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def choose(self, candidates, shape, now_ms):
        ordered = sorted(candidates, key=lambda w: w.name)
        worker = ordered[self._next % len(ordered)]
        self._next += 1
        return worker


class RandomRouter(Router):
    """Seeded uniform placement (deterministic for a fixed seed)."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def choose(self, candidates, shape, now_ms):
        ordered = sorted(candidates, key=lambda w: w.name)
        return ordered[int(self._rng.integers(len(ordered)))]


def make_router(policy, seed: int = 0) -> Router:
    """Resolve a policy name (or pass a Router through unchanged)."""
    if isinstance(policy, Router):
        return policy
    table = {
        "cost": CostModelRouter,
        "shard-cost": ShardAwareCostRouter,
        "round-robin": RoundRobinRouter,
        "roundrobin": RoundRobinRouter,
        "random": lambda: RandomRouter(seed=seed),
    }
    try:
        factory = table[str(policy)]
    except KeyError:
        raise ValueError(f"unknown routing policy {policy!r}; choose from "
                         f"('cost', 'shard-cost', 'round-robin', "
                         f"'random')") from None
    return factory()
