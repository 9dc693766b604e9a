"""FleetScheduler — cost-model routing across heterogeneous workers.

The fleet is a **synchronous event-driven simulation** on a
:class:`SimClock` (milliseconds): each :meth:`FleetScheduler.step` picks
the non-idle worker whose next batch would start earliest, advances the
clock to that start time, sheds expired requests, serves one EDF batch
and charges the worker's virtual device timeline with the simulated
batch latency.  No scheduler thread exists, which is what makes routing
decisions, retries, breaker walks and every metric bit-stable for a
fixed seed — the acceptance criterion for the fleet's determinism test.

Request lifecycle (every future *always* resolves):

``submit()`` → route (cost model / round-robin / random) → bounded EDF
queue → serve (primary engine, half-open probe, or pytorch fallback
while degraded) → ``future.set_result`` — or, on engine failure,
retry-with-rerouting away from the failed worker until ``max_attempts``,
after which the future carries the original error; admission-control,
deadline and shutdown drops carry an explicit
:class:`~repro.fleet.queueing.FleetRejection`.  Requests queued on a
worker whose breaker opens with no fallback are rerouted to servable
workers — or held until the half-open probe when no one else can take
them — never dispatched into an unservable worker.

:func:`build_fleet` assembles the real thing: one
:class:`~repro.pipeline.engine.DefconEngine` per device preset (own plan
cache, optional tile-store warm start per device) with a reference
pytorch-backend fallback for graceful degradation.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fleet.breaker import CircuitBreaker
from repro.fleet.faults import FaultInjector, FaultSpec, parse_fault
from repro.fleet.queueing import (REASON_CLOSED, REASON_EXPIRED,
                                  REASON_NO_WORKER, REASON_QUEUE_FULL,
                                  REASON_RETRIES, FleetRejection,
                                  FleetRequest)
from repro.fleet.router import Router, make_router
from repro.fleet.worker import BatchOutcome, FleetWorker
from repro.obs.registry import MetricsRegistry


class SimClock:
    """Monotonic simulated time in milliseconds."""

    def __init__(self, start_ms: float = 0.0):
        self.now_ms = float(start_ms)

    def advance_to(self, t_ms: float) -> None:
        if t_ms > self.now_ms:
            self.now_ms = float(t_ms)

    def advance(self, dt_ms: float) -> None:
        if dt_ms < 0:
            raise ValueError("time only moves forward")
        self.now_ms += dt_ms

    def __repr__(self) -> str:
        return f"SimClock({self.now_ms:.3f}ms)"


class FleetScheduler:
    """Route requests across workers, serve them, survive failures."""

    def __init__(self, workers: Sequence[FleetWorker],
                 router: Union[str, Router] = "cost", *,
                 clock: Optional[SimClock] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None, max_attempts: int = 3, seed: int = 0,
                 shard_planner=None, interconnect=None):
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate worker names: {names}")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.workers: List[FleetWorker] = list(workers)
        self.router = make_router(router, seed=seed)
        self.clock = clock if clock is not None else SimClock()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer
        self.max_attempts = max_attempts
        #: intra-request parallelism (None = sharding off); the planner
        #: resolves a plan per batch at serve time, and a shard-aware
        #: router additionally prices split plans at routing time
        self.shard_planner = shard_planner
        self.interconnect = interconnect if interconnect is not None \
            else getattr(shard_planner, "interconnect", None)
        if shard_planner is not None \
                and hasattr(self.router, "bind_planner") \
                and getattr(self.router, "planner", None) is None:
            self.router.bind_planner(shard_planner)
        #: every serve-time shard-plan resolution, in order — the bench's
        #: per-request decision table
        self.shard_decisions: List[dict] = []
        #: every routing decision, in order — the ``repro fleet plan`` view
        self.decisions: List[dict] = []
        #: every request ever submitted (futures audited by tests/bench)
        self.requests: List[FleetRequest] = []
        #: completion latencies in resolution order (sim ms) — the raw
        #: samples behind the snapshot's p50/p99
        self.latencies_ms: List[float] = []
        self._next_id = 0
        self._closed = False

        self._submitted = self.registry.counter(
            "fleet_requests_submitted", help="requests offered to the fleet")
        self._completed = self.registry.counter(
            "fleet_requests_completed",
            help="requests resolved with a result, by serving worker")
        self._rejected = self.registry.counter(
            "fleet_requests_rejected",
            help="requests resolved with an explicit rejection, by reason")
        self._retried = self.registry.counter(
            "fleet_requests_retried",
            help="failed requests rerouted for another attempt, by the "
                 "worker that failed them")
        self._rerouted = self.registry.counter(
            "fleet_requests_rerouted",
            help="queued requests moved off a breaker-pinned worker, by "
                 "the worker routed away from")
        self._shard_plans = self.registry.counter(
            "fleet_shard_plans",
            help="serve-time shard-plan resolutions by plan kind")
        self._shard_batches = self.registry.counter(
            "fleet_shard_batches",
            help="batches actually served through a sharded plan")
        self._shard_traffic = self.registry.counter(
            "fleet_shard_traffic_bytes",
            help="interconnect bytes moved by sharded batches, by "
                 "direction (scatter/gather)")
        self._shard_halo = self.registry.counter(
            "fleet_shard_halo_rows",
            help="deformation-halo input rows shipped by row-band shards")
        self._shard_sim_ms = self.registry.histogram(
            "fleet_shard_sim_ms",
            help="simulated duration of sharded batches (ms)")
        # per-worker series: workers hold no registry, so the scheduler
        # publishes what each served batch did (see _serve)
        self._batches = self.registry.counter(
            "fleet_batches",
            help="served fleet batches by worker and engine kind")
        self._batch_sim_ms = self.registry.histogram(
            "fleet_batch_sim_ms",
            help="simulated device milliseconds per fleet batch")
        self._batch_failures = self.registry.counter(
            "fleet_batch_failures", help="failed fleet batches by worker")
        self._queue_depth = self.registry.gauge(
            "fleet_queue_depth", help="queued requests per worker")
        self._breaker_transitions = self.registry.counter(
            "fleet_breaker_transitions",
            help="breaker state transitions by worker and target state")
        self._breaker_open = self.registry.gauge(
            "fleet_breaker_open",
            help="1 while a worker's breaker is open or half-open")
        for w in self.workers:
            self._publish_breaker(w)

    # ------------------------------------------------------------------
    # submission + routing
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray,
               deadline_ms: Optional[float] = None, *,
               priority: int = 0) -> Future:
        """Offer one (C, H, W) image; ``deadline_ms`` is relative to now.

        Returns a future that always resolves: a task result, the
        original engine error (retries exhausted), or a
        :class:`FleetRejection` naming why the fleet dropped it.
        ``priority`` breaks EDF ties between equal deadlines (higher
        serves first) — the multi-tenant request-class knob.
        """
        if self._closed:
            raise FleetRejection(REASON_CLOSED, "fleet is closed")
        img = np.asarray(image, dtype=np.float32)
        if img.ndim != 3:
            raise ValueError(f"expected one (C, H, W) image, got shape "
                             f"{img.shape}")
        now = self.clock.now_ms
        deadline = now + float(deadline_ms) if deadline_ms is not None \
            else None
        req = FleetRequest(self._next_id, img, now, deadline,
                           priority=priority)
        self._next_id += 1
        self.requests.append(req)
        self._submitted.inc()

        worker, ects = self._select(req.shape, now, frozenset())
        self._record_decision(req, worker, ects, now)
        if worker is None:
            routable = any(w.routable(now) for w in self.workers)
            self._reject(req, REASON_QUEUE_FULL if routable
                         else REASON_NO_WORKER,
                         "all routable queues at capacity" if routable
                         else "no worker is routable")
        else:
            self._enqueue(worker, req)
        return req.future

    def _select(self, shape: Tuple[int, ...], now: float,
                exclude: FrozenSet[str]):
        candidates = [w for w in self.workers
                      if w.name not in exclude and w.routable(now)
                      and not w.queue.full]
        if not candidates:
            return None, {}
        worker = self.router.choose(candidates, shape, now)
        ects = self.router.ect_table(candidates, shape, now)
        return worker, ects

    def _record_decision(self, req: FleetRequest,
                         worker: Optional[FleetWorker],
                         ects: Dict[str, float], now: float) -> None:
        self.decisions.append({
            "request": req.id,
            "attempt": req.attempts,
            "sim_ms": round(now, 3),
            "policy": self.router.name,
            "worker": worker.name if worker is not None else None,
            "ect_ms": {name: round(ms, 3)
                       for name, ms in sorted(ects.items())},
        })

    def _enqueue(self, worker: FleetWorker, req: FleetRequest) -> None:
        try:
            worker.enqueue(req)
        except FleetRejection as exc:       # defensive: capacity raced away
            self._reject(req, exc.reason, exc.detail)
        else:
            self._publish_depth(worker)

    def _publish_depth(self, worker: FleetWorker) -> None:
        self._queue_depth.set(len(worker.queue), worker=worker.name)

    def _publish_breaker(self, worker: FleetWorker) -> None:
        self._breaker_open.set(0.0 if worker.breaker.closed else 1.0,
                               worker=worker.name)

    def _serve(self, worker: FleetWorker, batch: List[FleetRequest],
               start: float, ctx) -> BatchOutcome:
        """Serve one batch on ``worker`` and publish what it did: the
        outcome's batch series, the breaker transitions it caused and
        the queue depth it left."""
        seen = len(worker.breaker.transitions)
        outcome = worker.serve_batch(batch, start, shard_ctx=ctx)
        name = worker.name
        self._batches.inc(worker=name, engine=outcome.engine,
                          ok=str(outcome.ok).lower())
        self._batch_sim_ms.observe(outcome.sim_ms, worker=name)
        if not outcome.ok:
            self._batch_failures.inc(worker=name)
        for _, _, to_state in worker.breaker.transitions[seen:]:
            self._breaker_transitions.inc(worker=name, to=to_state)
        self._publish_breaker(worker)
        self._publish_depth(worker)
        return outcome

    def _reject(self, req: FleetRequest, reason: str,
                detail: str = "") -> None:
        if not req.future.done():
            req.future.set_exception(FleetRejection(reason, detail))
        self._rejected.inc(reason=reason)

    # ------------------------------------------------------------------
    # the simulation loop
    # ------------------------------------------------------------------
    def pending(self) -> int:
        return sum(len(w.queue) for w in self.workers)

    def _start_ms(self, worker: FleetWorker, now: float) -> float:
        """When could ``worker`` actually start its next batch?

        Usually when its device goes idle — but a worker whose breaker is
        open with no fallback can only run again as a half-open probe, so
        its queue is pinned until the cooldown elapses.  Dispatching to it
        any earlier would hit serve_batch()'s not-servable guard.
        """
        start = max(worker.busy_until_ms, now)
        b = worker.breaker
        if b.closed or worker.can_degrade or b.probe_due(start):
            return start
        if b.opened_at_ms is not None:
            return max(start, b.opened_at_ms + b.cooldown_ms)
        return start

    def step(self) -> bool:
        """Serve one batch on the worker that can start earliest.

        Returns False when every queue is empty (nothing to simulate).
        """
        busy = [w for w in self.workers if len(w.queue)]
        if not busy:
            return False
        now = self.clock.now_ms
        worker = min(busy, key=lambda w: (self._start_ms(w, now), w.name))
        start = self._start_ms(worker, now)
        if start > max(worker.busy_until_ms, now):
            # breaker-pinned: the queue cannot move before the probe is
            # due.  First offer the queued requests to workers that could
            # serve them sooner; only sleep until the probe when nothing
            # changed.
            if self._reroute_pinned(worker, now):
                return True
        self.clock.advance_to(start)

        for r in worker.queue.shed_expired(start):
            self._reject(r, REASON_EXPIRED,
                         f"deadline {r.deadline_ms:.1f}ms passed at "
                         f"{start:.1f}ms while queued on {worker.name}")
        self._publish_depth(worker)
        if not len(worker.queue):
            return True

        batch = worker.queue.pop_batch(worker.max_batch_size)
        ctx = self._plan_shards(worker, batch, start)
        outcome = self._serve(worker, batch, start, ctx)
        worker.busy_until_ms = start + outcome.sim_ms
        done = worker.busy_until_ms
        if ctx is not None:
            self._finish_shards(ctx, outcome)
        if outcome.ok:
            for r, res in zip(batch, outcome.results):
                if not r.future.done():
                    r.future.set_result(res)
                self._completed.inc(worker=worker.name)
                self.latencies_ms.append(max(0.0, done - r.submit_ms))
        else:
            for r in batch:
                self._handle_failure(r, worker, outcome.error, done)
        return True

    def _plan_shards(self, worker: FleetWorker, batch: List[FleetRequest],
                     start: float):
        """Resolve the serve-time shard plan for one batch.

        Returns a :class:`~repro.fleet.shard.ShardContext` when the plan
        actually splits work (None for unsharded serving — including
        ``kind="single"`` resolutions, which are still recorded so the
        decision table shows why the planner kept the batch local).
        """
        if self.shard_planner is None:
            return None
        plan = self.shard_planner.resolve(self.workers, worker,
                                          batch[0].shape, len(batch), start)
        if plan is None:
            return None
        from repro.fleet.shard import ShardContext

        self._shard_plans.inc(kind=plan.kind)
        row = {"requests": [r.id for r in batch],
               "sim_ms": round(start, 3),
               "worker": worker.name,
               "plan": plan.label,
               "kind": plan.kind,
               "workers": list(plan.workers),
               "predicted_ms": round(plan.predicted_ms, 3),
               "simulated_ms": None,
               "applied": False}
        self.shard_decisions.append(row)
        if plan.kind == "single":
            return None
        ctx = ShardContext(plan, {w.name: w for w in self.workers},
                           self.interconnect, start, batch=len(batch),
                           tracer=self.tracer)
        ctx.decision_row = row
        return ctx

    def _finish_shards(self, ctx, outcome) -> None:
        """Account a sharded serve: participant timelines + metrics."""
        row = ctx.decision_row
        if row is not None:
            row["applied"] = bool(ctx.applied and outcome.ok)
            if outcome.ok:
                row["simulated_ms"] = round(outcome.sim_ms, 3)
        if not (outcome.ok and ctx.applied):
            return
        for name, busy in sorted(ctx.participant_busy.items()):
            w = next(w for w in self.workers if w.name == name)
            w.busy_until_ms = max(w.busy_until_ms, busy)
        self._shard_batches.inc(kind=ctx.plan.kind)
        self._shard_sim_ms.observe(outcome.sim_ms, kind=ctx.plan.kind)
        if ctx.scatter_bytes:
            self._shard_traffic.inc(int(ctx.scatter_bytes),
                                    direction="scatter")
        if ctx.gather_bytes:
            self._shard_traffic.inc(int(ctx.gather_bytes),
                                    direction="gather")
        if ctx.halo_rows:
            self._shard_halo.inc(int(ctx.halo_rows))

    def drain(self, max_steps: int = 100_000) -> int:
        """Run the simulation until every queue is empty; returns steps."""
        steps = 0
        while self.step():
            steps += 1
            if steps >= max_steps:
                raise RuntimeError(
                    f"fleet did not drain within {max_steps} steps "
                    f"({self.pending()} requests still queued)")
        return steps

    def _reroute_pinned(self, worker: FleetWorker, now: float) -> bool:
        """Drain a breaker-pinned worker's queue through the reroute path.

        Requests another worker can take move there; already-expired ones
        are shed; the rest stay queued for the half-open probe.  Returns
        True when anything changed (the caller re-plans instead of
        advancing the clock).
        """
        changed = False
        for r in worker.queue.shed_expired(now):
            self._reject(r, REASON_EXPIRED,
                         f"deadline {r.deadline_ms:.1f}ms passed at "
                         f"{now:.1f}ms while queued on pinned {worker.name}")
            changed = True
        kept = []
        for r in worker.queue.drain():
            target, ects = self._select(
                r.shape, now, frozenset({worker.name}) | r.failed_on)
            if target is None:
                target, ects = self._select(r.shape, now,
                                            frozenset({worker.name}))
            if target is None:
                kept.append(r)
                continue
            self._record_decision(r, target, ects, now)
            self._rerouted.inc(worker=worker.name)
            self._enqueue(target, r)
            changed = True
        for r in kept:
            worker.queue.push(r)
        self._publish_depth(worker)
        return changed

    def _handle_failure(self, req: FleetRequest, worker: FleetWorker,
                        error: BaseException, now: float) -> None:
        """Retry-with-rerouting after a failed batch."""
        req.attempts += 1
        req.failed_on.add(worker.name)
        if req.expired(now):
            self._reject(req, REASON_EXPIRED,
                         f"expired during failed attempt on {worker.name}")
            return
        if req.attempts >= self.max_attempts:
            # terminal: surface the real engine error, count it as a
            # retries_exhausted drop
            if not req.future.done():
                req.future.set_exception(error)
            self._rejected.inc(reason=REASON_RETRIES)
            return
        target, ects = self._select(req.shape, now,
                                    frozenset(req.failed_on))
        if target is None:
            # nobody else can take it — returning to a worker that failed
            # it is still better than dropping (it may now be degraded to
            # its fallback, or past its breaker cooldown)
            target, ects = self._select(req.shape, now, frozenset())
        self._record_decision(req, target, ects, now)
        if target is None:
            self._reject(req, REASON_NO_WORKER,
                         f"no worker available after failure: {error}")
            return
        self._retried.inc(worker=worker.name)
        self._enqueue(target, req)

    # ------------------------------------------------------------------
    # introspection + shutdown
    # ------------------------------------------------------------------
    def explain(self, image: np.ndarray) -> List[dict]:
        """Per-worker routing view for one image — what would the router
        see *right now*?  (Does not enqueue anything.)"""
        img = np.asarray(image, dtype=np.float32)
        shape = tuple(img.shape)
        now = self.clock.now_ms
        rows = []
        for w in self.workers:
            rows.append({
                "worker": w.name,
                "device": w.spec.name if w.spec is not None else "?",
                "backend": w.backend or "?",
                "breaker": w.breaker.state,
                "degraded": w.degraded,
                "routable": w.routable(now),
                "queue_depth": len(w.queue),
                "backlog_ms": round(w.backlog_ms(now), 3),
                "predicted_ms": round(w.predict_ms(shape, 1), 3),
                "ect_ms": round(w.estimated_completion_ms(shape, now), 3),
            })
        return sorted(rows, key=lambda r: (r["ect_ms"], r["worker"]))

    def _per_label(self, counter, label: str) -> Dict[str, float]:
        return {labels.get(label, ""): counter.value(**labels)
                for labels in counter.label_sets()}

    def snapshot(self) -> dict:
        """Deterministic summary of the run (bench + tests read this)."""
        completed = self._per_label(self._completed, "worker")
        rejected = self._per_label(self._rejected, "reason")
        retried = self._per_label(self._retried, "worker")
        rerouted = self._per_label(self._rerouted, "worker")
        shard = None
        if self.shard_planner is not None:
            plans = self._per_label(self._shard_plans, "kind")
            batches = self._per_label(self._shard_batches, "kind")
            traffic = self._per_label(self._shard_traffic, "direction")
            shard = {
                "mode": self.shard_planner.mode,
                "plans_by_kind": {k: int(v)
                                  for k, v in sorted(plans.items())},
                "sharded_batches": int(sum(batches.values())),
                "sharded_batches_by_kind": {
                    k: int(v) for k, v in sorted(batches.items())},
                "traffic_bytes": {k: int(v)
                                  for k, v in sorted(traffic.items())},
                "halo_rows": int(self._shard_halo.value()),
            }
        lat = self.latencies_ms
        return {
            "sim_ms": round(self.clock.now_ms, 3),
            # makespan: when the last worker's device goes idle — the
            # denominator for fleet throughput
            "makespan_ms": round(max(w.busy_until_ms
                                     for w in self.workers), 3),
            "latency_p50_ms": round(float(np.percentile(lat, 50)), 3)
            if lat else None,
            "latency_p99_ms": round(float(np.percentile(lat, 99)), 3)
            if lat else None,
            "router": self.router.name,
            "submitted": int(self._submitted.value()),
            "completed": int(sum(completed.values())),
            "completed_by_worker": {k: int(v)
                                    for k, v in sorted(completed.items())},
            "rejected_by_reason": {k: int(v)
                                   for k, v in sorted(rejected.items())},
            "retries": int(sum(retried.values())),
            "retried_by_worker": {k: int(v)
                                  for k, v in sorted(retried.items())},
            "rerouted_by_worker": {k: int(v)
                                   for k, v in sorted(rerouted.items())},
            "shard": shard,
            "workers": [{
                "worker": w.name,
                "device": w.spec.name if w.spec is not None else "?",
                "backend": w.backend or "?",
                "breaker": w.breaker.state,
                "breaker_transitions": len(w.breaker.transitions),
                "degraded": w.degraded,
                "busy_until_ms": round(w.busy_until_ms, 3),
                "queue_depth": len(w.queue),
            } for w in self.workers],
        }

    def unresolved(self) -> List[FleetRequest]:
        """Requests whose future has not resolved (must be [] after
        drain + close — the zero-lost-futures audit)."""
        return [r for r in self.requests if not r.future.done()]

    def close(self) -> None:
        """Reject everything still queued and shut the workers down."""
        if self._closed:
            return
        self._closed = True
        for w in self.workers:
            for r in w.queue.drain():
                self._reject(r, REASON_CLOSED, "fleet closed while queued")
            self._publish_depth(w)
            w.batcher.close(flush=False)
            if w._fallback_batcher is not None:
                w._fallback_batcher.close(flush=False)

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_fleet(model, devices: Sequence[Union[str, object]] = ("xavier",
                                                                "2080ti"),
                *, backend: str = "tex2dpp", task: str = "classify",
                router: Union[str, Router] = "cost",
                registry: Optional[MetricsRegistry] = None, tracer=None,
                faults: Sequence[Union[str, FaultSpec]] = (),
                tile_store=None, autotune: bool = False,
                queue_capacity: int = 16, max_batch_size: int = 4,
                max_attempts: int = 3, degrade: bool = True,
                breaker_threshold: int = 3, breaker_cooldown_ms: float = 50.0,
                wedge_timeout_ms: float = 100.0, seed: int = 0,
                clock: Optional[SimClock] = None,
                shard: str = "off", interconnect=None,
                **task_kwargs) -> FleetScheduler:
    """Assemble a heterogeneous fleet over real DefconEngines.

    One engine per device preset (name or
    :class:`~repro.gpusim.device.DeviceSpec`), each warm-startable from a
    shared ``tile_store`` (entries are keyed per device, so every worker
    loads its own tuned tiles) and — unless ``degrade=False`` or the
    fleet already runs the reference backend — paired with a lazily built
    pytorch-backend fallback engine for graceful degradation.  Workers
    are named ``w{i}-{device}`` (the names fault specs address) and hold
    no registry: the scheduler publishes their series.

    ``shard`` turns on intra-request parallelism: ``"cost"`` shards a
    batch whenever the interconnect-aware cost model predicts the split
    beats serving it whole, ``"always"`` is the fixed always-max-split
    baseline, ``"off"`` (default) disables sharding entirely.  With
    ``shard="cost"`` and the default cost router, routing upgrades to the
    :class:`~repro.fleet.router.ShardAwareCostRouter` so placement and
    splitting price plans with the same model.  ``interconnect``
    (a :class:`~repro.fleet.shard.Interconnect`) overrides the
    deterministic default links derived from the device presets.
    """
    from repro.gpusim.device import get_device
    from repro.pipeline.engine import DefconEngine

    registry = registry if registry is not None else MetricsRegistry()
    specs = [get_device(d) if isinstance(d, str) else d for d in devices]
    if shard not in ("off", "cost", "always"):
        raise ValueError(f"unknown shard mode {shard!r}; "
                         f"choose 'off', 'cost' or 'always'")
    shard_planner = None
    if shard != "off":
        from repro.fleet.shard import ShardPlanner, default_interconnect

        if interconnect is None:
            interconnect = default_interconnect(specs)
        shard_planner = ShardPlanner(interconnect, mode=shard)
        if shard == "cost" and router == "cost":
            router = "shard-cost"
    fault_specs = [parse_fault(f) if isinstance(f, str) else f
                   for f in faults]
    injector = FaultInjector(fault_specs, registry=registry) \
        if fault_specs else None

    workers = []
    for i, spec in enumerate(specs):
        name = f"w{i}-{spec.name}"
        engine = DefconEngine(model, spec, backend=backend,
                              autotune=autotune or tile_store is not None,
                              tile_store=tile_store, tracer=tracer)
        fallback_factory = None
        if degrade and backend != "pytorch":
            fallback_factory = (
                lambda spec=spec: DefconEngine(model, spec,
                                               backend="pytorch"))
        breaker = CircuitBreaker(name, failure_threshold=breaker_threshold,
                                 cooldown_ms=breaker_cooldown_ms)
        workers.append(FleetWorker(
            name, engine, task=task, max_batch_size=max_batch_size,
            queue_capacity=queue_capacity, breaker=breaker,
            injector=injector, tracer=tracer,
            fallback_factory=fallback_factory,
            wedge_timeout_ms=wedge_timeout_ms, **task_kwargs))
    return FleetScheduler(workers, router=router, clock=clock,
                          registry=registry, tracer=tracer,
                          max_attempts=max_attempts, seed=seed,
                          shard_planner=shard_planner,
                          interconnect=interconnect)
