"""Intra-request parallelism: shard planner, interconnect, executor.

Three pieces turn the fleet's workers into a sharded execution substrate:

* :class:`Interconnect` — the simulated fabric between (simulated)
  devices: a :class:`LinkSpec` (latency + bandwidth) per DeviceSpec
  pair, with deterministic defaults derived from the device presets.
  Every byte a sharded plan moves — input slices with their deformation
  halo, offset slices, shipped output bands / partial products,
  pipeline activations — is charged through it; transfers between
  co-located shards (same worker) are free.

* :class:`ShardPlanner` — prices the plan space for one request:
  single-worker plans, row-band and channel-group splits (2..N workers,
  bands weighted by each device's predicted sampling speed), and
  pipeline partitions of the backbone's deformable sites for batched
  requests.  Pricing reuses the workers' own
  :class:`~repro.fleet.router.EngineCostModel` shard descriptors, so
  the ECT framework and the shard planner speak one latency model.
  The serialisation structure mirrors execution: the coordinator
  scatters shard inputs one link at a time, shards compute in parallel
  on their own device timelines, the coordinator gathers and stitches.

* :class:`ShardContext` — the serve-time executor.  Installed on the
  coordinator engine's :class:`~repro.pipeline.engine.TextureRuntime`
  for the duration of one batch, it intercepts each deformable layer,
  runs one :func:`~repro.kernels.shards.run_shard` per participant
  (against that participant's device spec, tuned tile and plan cache),
  stitches the column slices with
  :func:`~repro.kernels.shards.stitch_columns` — bit-identical to the
  unsharded forward by construction — and finally replays the
  scatter/compute/gather timeline against the interconnect to produce
  the batch's simulated duration and every participant's new
  ``busy_until_ms``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpusim.device import DeviceSpec
from repro.kernels.shards import (SHARD_KINDS, ShardSpec, band_bounds,
                                  enumerate_shards, run_shard,
                                  stitch_columns)
from repro.kernels.tiling import deformation_halo
from repro.tensor import Tensor

#: backends whose layers the shard executor can split
_TEXTURE_BACKENDS = ("tex2d", "tex2dpp")

#: denominator for the rational band fractions carried in descriptors —
#: highly divisible so common speed ratios stay exact
_FRACTION_DEN = 720


# ----------------------------------------------------------------------
# interconnect
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkSpec:
    """One direction-symmetric link between two devices."""

    latency_ms: float
    bandwidth_gbps: float           # GB/s, i.e. bytes/ms = gbps * 1e6

    def transfer_ms(self, nbytes: float) -> float:
        if nbytes <= 0:
            return 0.0
        return self.latency_ms + float(nbytes) / (self.bandwidth_gbps * 1e6)


#: fallback for device pairs without an explicit link (PCIe 3.0 x16-ish)
DEFAULT_LINK = LinkSpec(latency_ms=0.02, bandwidth_gbps=12.0)


class Interconnect:
    """Per-DeviceSpec-pair links; symmetric, keyed by sorted name pair."""

    def __init__(self, links: Optional[Dict[Tuple[str, str], LinkSpec]] = None,
                 default: LinkSpec = DEFAULT_LINK):
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self.default = default
        for (a, b), link in (links or {}).items():
            self._links[self._key(a, b)] = link

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def link(self, a: str, b: str) -> LinkSpec:
        return self._links.get(self._key(a, b), self.default)

    def transfer_ms(self, nbytes: float, a: str, b: str) -> float:
        """Milliseconds to move ``nbytes`` from device ``a`` to ``b``.

        Callers are responsible for skipping transfers between shards on
        the *same worker*; two distinct workers of the same device model
        still pay their (a, a) link.
        """
        return self.link(a, b).transfer_ms(nbytes)

    def rows(self, names: Optional[Sequence[str]] = None) -> List[dict]:
        """Link table for the CLI devices view (sorted, deduplicated)."""
        pairs = set()
        if names:
            ordered = sorted(set(names))
            for i, a in enumerate(ordered):
                for b in ordered[i:]:
                    pairs.add(self._key(a, b))
        pairs.update(self._links)
        out = []
        for a, b in sorted(pairs):
            link = self.link(a, b)
            out.append({"pair": f"{a}<->{b}",
                        "latency_ms": link.latency_ms,
                        "bandwidth_gbps": link.bandwidth_gbps,
                        "explicit": self._key(a, b) in self._links})
        return out

    def __repr__(self) -> str:
        return (f"Interconnect({len(self._links)} explicit links, "
                f"default={self.default})")


def default_interconnect(specs: Sequence[DeviceSpec]) -> Interconnect:
    """Deterministic links derived from the device presets.

    The default fabric is NVLink/NVSwitch-class: link bandwidth is half
    the *slower* endpoint's DRAM bandwidth — a fast fabric still cannot
    outrun either endpoint's memory system — and latency is a few
    microseconds, growing slightly for mixed pairs (switch hop between
    unlike devices).
    """
    links: Dict[Tuple[str, str], LinkSpec] = {}
    ordered = sorted({s.name: s for s in specs}.values(), key=lambda s: s.name)
    for i, a in enumerate(ordered):
        for b in ordered[i:]:
            bw = round(min(a.dram_bandwidth_gbps,
                           b.dram_bandwidth_gbps) / 2.0, 3)
            latency = 0.002 if a.name == b.name else 0.003
            links[(a.name, b.name)] = LinkSpec(latency_ms=latency,
                                               bandwidth_gbps=max(1.0, bw))
    return Interconnect(links)


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardAssignment:
    """One participant's role in a plan.

    ``fraction`` is the participant's share: ``(num, den)`` of the band
    for rows/channels plans, which sizes its transfers, or the
    ``(lo, hi)`` site range the cost model prices for a pipeline stage.
    """

    worker: str
    device: str
    weight: float
    fraction: Tuple[int, int]


@dataclass(frozen=True)
class ShardPlan:
    """One priced way to serve a request (single, split or pipeline)."""

    kind: str                       # "single" | "rows" | "channels" | "pipeline"
    coordinator: str
    assignments: Tuple[ShardAssignment, ...]
    predicted_ms: float
    breakdown: Tuple[Tuple[str, float], ...] = ()

    @property
    def label(self) -> str:
        if self.kind == "single":
            return f"single[{self.coordinator}]"
        names = "+".join(a.worker for a in self.assignments)
        return f"{self.kind}x{len(self.assignments)}[{names}]"

    @property
    def workers(self) -> Tuple[str, ...]:
        if self.kind == "single":
            return (self.coordinator,)
        return tuple(a.worker for a in self.assignments)


def _fractions(weights: Sequence[float]) -> List[Tuple[int, int]]:
    """Rational band shares ∝ weights over the common denominator."""
    nums = [hi - lo for lo, hi in band_bounds(_FRACTION_DEN, weights)]
    for i, v in enumerate(nums):
        if v == 0:
            j = max(range(len(nums)), key=lambda q: nums[q])
            nums[j] -= 1
            nums[i] = 1
    return [(v, _FRACTION_DEN) for v in nums]


def _stage_bounds(costs: Sequence[float], k: int) -> List[Tuple[int, int]]:
    """Partition sites into ``k`` contiguous non-empty stages ∝ cost."""
    s = len(costs)
    prefix = [0.0]
    for c in costs:
        prefix.append(prefix[-1] + float(c))
    total = prefix[-1] or 1.0
    edges = [0]
    for j in range(1, k):
        target = total * j / k
        i = edges[-1] + 1
        while i < s and prefix[i] < target:
            i += 1
        edges.append(min(max(i, edges[-1] + 1), s - (k - j)))
    edges.append(s)
    return [(edges[i], edges[i + 1]) for i in range(k)]


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class ShardPlanner:
    """Price and pick sharded execution plans against live timelines.

    ``mode`` selects the serve-time policy:

    * ``"cost"`` — resolve to whichever plan (including the unsharded
      single) the interconnect-aware cost model predicts cheapest;
    * ``"always"`` — the fixed always-max-split baseline: the widest
      split available, regardless of predicted cost.
    """

    def __init__(self, interconnect: Interconnect, mode: str = "cost",
                 kinds: Sequence[str] = SHARD_KINDS, pipeline: bool = True,
                 bound: float = 7.0):
        if mode not in ("cost", "always"):
            raise ValueError(f"unknown shard mode {mode!r}; "
                             f"choose 'cost' or 'always'")
        for kind in kinds:
            if kind not in SHARD_KINDS:
                raise ValueError(f"unknown shard kind {kind!r}")
        self.interconnect = interconnect
        self.mode = mode
        self.kinds = tuple(kinds)
        self.pipeline = pipeline
        self.bound = bound

    # -- eligibility ---------------------------------------------------
    @staticmethod
    def _eligible(workers) -> List:
        elig = [w for w in workers
                if getattr(w, "shardable", False) and w.spec is not None]
        return sorted(elig, key=lambda w: w.name)

    @staticmethod
    def _by_speed(workers, shape) -> List:
        return sorted(workers,
                      key=lambda w: (w.predict_ms(shape, 1), w.name))

    # -- traffic model -------------------------------------------------
    def _in_bytes(self, cfg, kind: str, frac: float, offb: int) -> float:
        n, c, k = cfg.batch, cfg.in_channels, cfg.taps
        dg = cfg.deformable_groups
        if kind == "rows":
            band_h = frac * cfg.out_height
            halo = deformation_halo(cfg.kernel_size, self.bound)
            rows_in = min(float(cfg.height), band_h * cfg.stride + 2 * halo)
            off_bytes = n * dg * 2 * k * band_h * cfg.out_width * offb
            return n * c * rows_in * cfg.width * 4 + off_bytes
        csel = frac * (c // dg)
        off_bytes = n * dg * 2 * k * cfg.out_pixels * offb
        return n * dg * csel * cfg.height * cfg.width * 4 + off_bytes

    @staticmethod
    def _out_bytes(cfg, kind: str, frac: float) -> float:
        # a row shard ships its output band; a channel shard ships a
        # full-size partial product the stitch reduces
        out = cfg.batch * cfg.out_channels * cfg.out_pixels * 4.0
        return frac * out if kind == "rows" else out

    # -- pricing -------------------------------------------------------
    def _price_split(self, kind: str, parts, shape, batch: int,
                     now: float, avail) -> Optional[ShardPlan]:
        coord = parts[0]
        cfgs = coord.site_configs(shape, batch)
        if not cfgs:
            return None
        splits = {}
        for p in parts:
            ms = p.site_split_ms(shape, batch)
            if ms is None or len(ms) != len(cfgs):
                return None
            splits[p.name] = ms
        weights = [1.0 / max(1e-9, sum(s + g for s, g in splits[p.name]))
                   for p in parts]
        fracs = _fractions(weights)
        nums = tuple(num for num, _ in fracs)
        # exact per-shard pricing: each participant runs the shard the
        # executor's band_bounds rounding would hand it
        shard_ms = {}
        for j, p in enumerate(parts):
            sms = p.shard_site_ms(shape, batch, kind, nums, j)
            if sms is None or len(sms) != len(cfgs):
                return None
            shard_ms[p.name] = sms
        offb = 2 if coord.backend == "tex2dpp" else 4
        ic = self.interconnect
        a = {p.name: avail(p) for p in parts}
        t = now
        for i, cfg in enumerate(cfgs):
            cursor = t
            done = {}
            gathered = 0.0
            for p, (num, den) in zip(parts, fracs):
                frac = num / float(den)
                if p is not coord:
                    cursor += ic.transfer_ms(
                        self._in_bytes(cfg, kind, frac, offb),
                        coord.spec.name, p.spec.name)
                s_ms, g_ms = shard_ms[p.name][i]
                done[p.name] = max(cursor, a[p.name]) + s_ms + g_ms
            g = cursor
            for p, (num, den) in zip(parts, fracs):
                g = max(g, done[p.name])
                out = self._out_bytes(cfg, kind, num / float(den))
                gathered += out
                if p is not coord:
                    g += ic.transfer_ms(out, p.spec.name, coord.spec.name)
                a[p.name] = done[p.name]
            # memory-bound stitch pass at the coordinator: read every
            # shard's shipped output, write the assembled plane
            out_total = cfg.batch * cfg.out_channels * cfg.out_pixels * 4.0
            t = g + (gathered + out_total) / (
                coord.spec.effective_dram_gbps * 1e6)
            a[coord.name] = t
        assignments = tuple(
            ShardAssignment(worker=p.name, device=p.spec.name,
                            weight=float(w), fraction=frac)
            for p, w, frac in zip(parts, weights, fracs))
        return ShardPlan(kind=kind, coordinator=coord.name,
                         assignments=assignments, predicted_ms=t - now)

    def _price_pipeline(self, parts, shape, batch: int, now: float,
                        avail) -> Optional[ShardPlan]:
        coord = parts[0]
        cfgs = coord.site_configs(shape, batch)
        k = min(len(parts), len(cfgs))
        if batch < 2 or k < 2:
            return None
        parts = parts[:k]
        site_full = [s + g for s, g in coord.site_split_ms(shape, batch)]
        stages = _stage_bounds(site_full, k)
        ic = self.interconnect
        micro = []
        for i, ((lo, hi), p) in enumerate(zip(stages, parts)):
            stage_ms = p.predict_shard_ms(shape, batch, ("stage", lo, hi))
            if stage_ms is None:
                return None
            m = stage_ms / batch
            nxt = parts[i + 1] if i + 1 < k else coord
            if nxt is not p:
                boundary = cfgs[hi - 1]
                act = boundary.out_channels * boundary.out_pixels * 4.0
                m += ic.transfer_ms(act, p.spec.name, nxt.spec.name)
            micro.append(m)
        wait = max(0.0, max(avail(p) for p in parts) - now)
        predicted = wait + sum(micro) + (batch - 1) * max(micro)
        assignments = tuple(
            ShardAssignment(worker=p.name, device=p.spec.name,
                            weight=float(hi - lo), fraction=(lo, hi))
            for (lo, hi), p in zip(stages, parts))
        return ShardPlan(kind="pipeline", coordinator=coord.name,
                         assignments=assignments, predicted_ms=predicted)

    # -- plan spaces ---------------------------------------------------
    def plan_space(self, workers, shape, batch: int, now: float,
                   coordinator=None) -> List[ShardPlan]:
        """Every plan the planner would consider for this request.

        At routing time (``coordinator=None``) availability is each
        worker's full backlog; at serve time the coordinator is pinned
        and available immediately (its batch is starting now), while
        other participants still owe their device backlog *and* their
        queued work — co-opting a busy peer delays that peer's own
        requests, and the pricing must carry that opportunity cost.
        """
        if coordinator is None:
            def avail(w):
                return now + w.backlog_ms(now)
        else:
            def avail(w):
                return now if w is coordinator \
                    else max(now, w.busy_until_ms) + w.queue.pending_ms
        plans: List[ShardPlan] = []
        if coordinator is None:
            for w in workers:
                plans.append(ShardPlan(
                    kind="single", coordinator=w.name, assignments=(),
                    predicted_ms=w.estimated_completion_ms(shape, now)))
        else:
            plans.append(ShardPlan(
                kind="single", coordinator=coordinator.name, assignments=(),
                predicted_ms=coordinator.predict_ms(shape, batch)))
        elig = self._eligible(workers)
        if coordinator is not None:
            if coordinator not in elig:
                return plans
            others = self._by_speed(
                [w for w in elig if w is not coordinator], shape)
            ordered = [coordinator] + others
        else:
            ordered = self._by_speed(elig, shape)
        for k in range(2, len(ordered) + 1):
            parts = ordered[:k]
            for kind in self.kinds:
                plan = self._price_split(kind, parts, shape, batch, now,
                                         avail)
                if plan is not None:
                    plans.append(plan)
            if self.pipeline:
                plan = self._price_pipeline(parts, shape, batch, now, avail)
                if plan is not None:
                    plans.append(plan)
        return plans

    def best_plan(self, workers, shape, batch: int,
                  now: float) -> Optional[ShardPlan]:
        """Routing-time winner over the full plan space (ties by label)."""
        plans = self.plan_space(workers, shape, batch, now)
        if not plans:
            return None
        return min(plans, key=lambda p: (p.predicted_ms, p.label))

    def resolve(self, workers, coordinator, shape, batch: int,
                now: float) -> Optional[ShardPlan]:
        """Serve-time decision for a batch already placed at ``coordinator``.

        Returns the plan to execute — ``kind="single"`` means serve
        unsharded (the scheduler still records the decision) — or None
        when the coordinator cannot participate in sharding at all.
        """
        if not getattr(coordinator, "shardable", False):
            return None
        plans = self.plan_space(workers, shape, batch, now,
                                coordinator=coordinator)
        if not plans:
            return None
        if self.mode == "always":
            splits = [p for p in plans if p.kind in SHARD_KINDS]
            if splits:
                widest = max(len(p.assignments) for p in splits)
                return min((p for p in splits
                            if len(p.assignments) == widest),
                           key=lambda p: (p.predicted_ms, p.label))
        return min(plans, key=lambda p: (p.predicted_ms, p.label))


# ----------------------------------------------------------------------
# serve-time executor
# ----------------------------------------------------------------------
class ShardContext:
    """Execute one batch under a :class:`ShardPlan` and re-simulate time.

    Created by the scheduler per sharded batch, installed on the
    coordinator's engine runtime for the duration of the serve.  The
    functional outputs come from stitched column slices (bit-identical
    to unsharded execution); the temporal outcome comes from
    :meth:`finalize`, which replays the plan's scatter → parallel
    compute → gather → stitch structure against the interconnect and
    the participants' live device timelines.
    """

    def __init__(self, plan: ShardPlan, workers: Dict[str, object],
                 interconnect: Interconnect, now_ms: float, batch: int = 1,
                 tracer=None):
        self.plan = plan
        self.workers = workers
        self.interconnect = interconnect
        self.now_ms = float(now_ms)
        self.batch = max(1, int(batch))
        self.tracer = tracer
        #: per sharded layer: shards served, stitch cost, traffic
        self.records: List[dict] = []
        #: per deformable site (pipeline plans): measured stage pieces
        self.sites: List[dict] = []
        self.applied = False
        self.fallback_layers = 0
        #: serial time of layers that declined sharding (charged on top)
        self.local_ms = 0.0
        self.sim_ms = 0.0
        self.participant_busy: Dict[str, float] = {}
        self.scatter_bytes = 0.0
        self.gather_bytes = 0.0
        self.halo_rows = 0
        self.decision_row: Optional[dict] = None

    # -- installation --------------------------------------------------
    @contextlib.contextmanager
    def install(self, engine):
        """Temporarily intercept the engine's deformable layer execution."""
        runtime = getattr(engine, "_runtime", None)
        if runtime is None:        # test stand-ins without a TextureRuntime
            yield self
            return
        prev = runtime.shard_executor
        runtime.shard_executor = self
        try:
            yield self
        finally:
            runtime.shard_executor = prev

    # -- execution hook (called by TextureRuntime.execute) -------------
    def execute_layer(self, runtime, layer, cfg, x: Tensor,
                      offsets: Tensor) -> Optional[Tensor]:
        if self.plan.kind == "pipeline":
            t0 = float(runtime.log.total_ms)
            out = runtime.execute_direct(layer, cfg, x, offsets)
            self.sites.append({
                "layer": getattr(layer, "layer_name", ""),
                "ms": float(runtime.log.total_ms) - t0,
                "act_bytes": float(cfg.out_channels * cfg.out_pixels * 4)})
            self.applied = True
            return out
        if runtime.backend not in _TEXTURE_BACKENDS:
            return None
        kind = self.plan.kind
        # the plan's integer band weights — the same numbers the planner
        # priced with, so bounds round identically here and there
        weights = [a.fraction[0] for a in self.plan.assignments]
        total = (cfg.out_height if kind == "rows"
                 else cfg.in_channels // max(1, cfg.deformable_groups))
        if total < 2 or cfg.in_channels % cfg.deformable_groups:
            self.fallback_layers += 1
            return self._run_local(runtime, layer, cfg, x, offsets)
        shards = enumerate_shards(cfg, kind, weights)
        live = [(a, s) for a, s in zip(self.plan.assignments, shards)
                if s is not None]
        if len(live) < 2:
            self.fallback_layers += 1
            return self._run_local(runtime, layer, cfg, x, offsets)

        fp16 = runtime.backend == "tex2dpp"
        xd = x.data
        od = offsets.data
        layer_name = getattr(layer, "layer_name", "")
        results = []
        shard_rows = []
        for a, sspec in zip(self.plan.assignments, shards):
            if sspec is None:
                continue
            w = self.workers[a.worker]
            eng = w.engine
            res = run_shard(xd, od, cfg, eng.spec, sspec,
                            tile=eng.lookup_tile(cfg),
                            fp16_offsets=fp16,
                            plan_cache=eng.plan_cache)
            res.sample.layer = layer_name
            res.sample.geometry = cfg.label()
            eng.log.add(res.sample)
            res.gemm.layer = layer_name
            res.gemm.geometry = cfg.label()
            eng.log.add(res.gemm)
            results.append(res)
            shard_rows.append({
                "worker": a.worker, "device": eng.spec.name,
                "shard": sspec.label(),
                "sample_ms": res.sample.duration_ms,
                "compute_ms": (res.sample.duration_ms
                               + res.gemm.duration_ms),
                "in_bytes": res.in_bytes, "out_bytes": res.out_bytes,
                "halo_rows": res.halo_rows})
        bias = layer.bias.data if layer.bias is not None else None
        stitched = stitch_columns(results, layer.weight.data, bias, cfg,
                                  runtime.spec)
        gemm = stitched.kernels[0]
        gemm.layer = layer_name
        gemm.geometry = cfg.label()
        runtime.log.add(gemm)
        self.records.append({"layer": layer_name, "geometry": cfg.label(),
                             "stitch_ms": gemm.duration_ms,
                             "shards": shard_rows})
        if self.tracer is not None:
            self.tracer.instant(
                "fleet.shard_layer", cat="fleet", layer=layer_name,
                plan=self.plan.label,
                shards=[r["shard"] for r in shard_rows])
        self.applied = True
        # the stitch's fresh, C-ordered float32 output is the layer's
        return Tensor(stitched.output)

    def _run_local(self, runtime, layer, cfg, x, offsets) -> Tensor:
        """Unsplittable layer: run on the coordinator, charge serially."""
        t0 = float(runtime.log.total_ms)
        out = runtime.execute_direct(layer, cfg, x, offsets)
        self.local_ms += float(runtime.log.total_ms) - t0
        return out

    # -- timeline replay ----------------------------------------------
    def finalize(self) -> float:
        """Simulated batch duration + participant timeline updates."""
        if self.plan.kind == "pipeline":
            return self._finalize_pipeline()
        coord = self.plan.coordinator
        coord_dev = self.workers[coord].spec.name
        ic = self.interconnect
        a: Dict[str, float] = {}
        for ass in self.plan.assignments:
            w = self.workers[ass.worker]
            a[ass.worker] = (self.now_ms if ass.worker == coord
                             else max(self.now_ms, w.busy_until_ms))
        t = self.now_ms
        for rec in self.records:
            cursor = t
            for s in rec["shards"]:
                if s["worker"] != coord:
                    cursor += ic.transfer_ms(s["in_bytes"], coord_dev,
                                             s["device"])
                    self.scatter_bytes += s["in_bytes"]
                s["done_ms"] = (max(cursor, a[s["worker"]])
                                + s["compute_ms"])
                a[s["worker"]] = s["done_ms"]
                self.halo_rows += int(s.get("halo_rows", 0))
            g = cursor
            for s in rec["shards"]:
                g = max(g, s["done_ms"])
                if s["worker"] != coord:
                    g += ic.transfer_ms(s["out_bytes"], s["device"],
                                        coord_dev)
                    self.gather_bytes += s["out_bytes"]
            t = g + rec["stitch_ms"]
            a[coord] = t
        t += self.local_ms
        self.sim_ms = t - self.now_ms
        self.participant_busy = {name: v for name, v in a.items()
                                 if name != coord}
        return self.sim_ms

    def _finalize_pipeline(self) -> float:
        plan = self.plan
        coord = plan.coordinator
        ic = self.interconnect
        n_sites = len(self.sites)
        b = self.batch
        micro: List[Tuple[str, float]] = []
        for i, ass in enumerate(plan.assignments):
            lo, hi = min(ass.fraction[0], n_sites), min(ass.fraction[1],
                                                        n_sites)
            m = sum(s["ms"] for s in self.sites[lo:hi]) / b
            nxt = (plan.assignments[i + 1].worker
                   if i + 1 < len(plan.assignments) else coord)
            if nxt != ass.worker and hi > lo:
                act = self.sites[hi - 1]["act_bytes"] / b
                nxt_dev = (self.workers[nxt].spec.name if nxt != ass.worker
                           else ass.device)
                m += ic.transfer_ms(act, ass.device, nxt_dev)
                self.gather_bytes += self.sites[hi - 1]["act_bytes"]
            micro.append((ass.worker, m))
        others = [self.workers[ass.worker].busy_until_ms
                  for ass in plan.assignments if ass.worker != coord]
        wait = max(0.0, max(others, default=self.now_ms) - self.now_ms)
        peak = max((m for _, m in micro), default=0.0)
        self.sim_ms = wait + sum(m for _, m in micro) \
            + (b - 1) * peak + self.local_ms
        cursor = self.now_ms + wait
        busy: Dict[str, float] = {}
        for worker, m in micro:
            cursor += m
            busy[worker] = max(busy.get(worker, 0.0),
                               cursor + (b - 1) * m)
        self.participant_busy = {name: v for name, v in busy.items()
                                 if name != coord}
        return self.sim_ms

    # -- observability -------------------------------------------------
    def summary(self) -> dict:
        layers = (len(self.records) if self.plan.kind != "pipeline"
                  else len(self.sites))
        return {"plan": self.plan.label, "kind": self.plan.kind,
                "applied": self.applied, "sharded_layers": layers,
                "fallback_layers": self.fallback_layers,
                "scatter_bytes": self.scatter_bytes,
                "gather_bytes": self.gather_bytes,
                "halo_rows": self.halo_rows}
