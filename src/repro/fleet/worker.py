"""FleetWorker — one simulated device serving its own queue.

A worker owns:

* an **engine** (a :class:`~repro.pipeline.engine.DefconEngine` bound to
  one :class:`~repro.gpusim.device.DeviceSpec` and backend, with its own
  plan cache and tile-store warm start — or any ``classify``/``detect``
  stand-in in tests), wrapped in a
  :class:`~repro.fleet.faults.FaultyEngine` proxy when a fault injector
  is present;
* a :class:`~repro.serve.RequestBatcher` + private
  :class:`~repro.serve.ServingMetrics` — fleet batches flow through the
  same serving machinery as the single-engine stack, so engine failures
  exercise the real future/metrics failure path;
* a :class:`~repro.fleet.queueing.BoundedDeadlineQueue` (admission
  control, EDF, shedding);
* a :class:`~repro.fleet.breaker.CircuitBreaker` guarding the primary
  engine, plus an optional **reference fallback** (the pytorch backend)
  the worker degrades to while the breaker is open;
* a virtual device timeline: ``busy_until_ms`` on the scheduler's
  simulated clock, which is what the router's backlog term reads.

``predict_ms(shape, batch)`` is the per-worker cost model — an
:class:`~repro.fleet.router.EngineCostModel` for real engines, or any
injected callable in tests.

A worker holds no metrics registry: the
:class:`~repro.fleet.scheduler.FleetScheduler` that drives it publishes
its batch, queue-depth and breaker series from each :class:`BatchOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.fleet.breaker import CircuitBreaker
from repro.fleet.faults import FaultInjector, FaultyEngine, WorkerWedged
from repro.fleet.queueing import BoundedDeadlineQueue, FleetRequest
from repro.fleet.router import EngineCostModel, Predictor
from repro.obs.tracer import maybe_span
from repro.serve import RequestBatcher, ServingMetrics


@dataclass
class BatchOutcome:
    """What one served (or failed) batch did to the simulation."""

    requests: List[FleetRequest]
    results: Optional[List[object]]     # None on failure
    error: Optional[BaseException]
    sim_ms: float                       # simulated device time charged
    engine: str                         # "primary" | "fallback"
    probe: bool = False                 # half-open breaker probe batch
    #: tracer span id of the ``fleet.batch`` span that served this batch
    #: (None without a tracer) — the exemplar link SLO windows print
    span_id: Optional[str] = None
    #: shard-execution summary when the batch ran under a ShardContext
    #: that actually split at least one layer (None otherwise)
    shard: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _default_predictor(shape: Tuple[int, ...], batch: int) -> float:
    """Constant per-request cost — ECT then reduces to queue backlog."""
    return float(batch)


class FleetWorker:
    """One heterogeneous-fleet member: engine + queue + breaker + costs."""

    def __init__(self, name: str, engine, *, task: str = "classify",
                 max_batch_size: int = 4, queue_capacity: int = 16,
                 predictor: Optional[Predictor] = None,
                 fallback_engine=None,
                 fallback_factory: Optional[Callable[[], object]] = None,
                 fallback_predictor: Optional[Predictor] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 injector: Optional[FaultInjector] = None,
                 tracer=None,
                 wedge_timeout_ms: float = 100.0,
                 failure_ms: float = 1.0,
                 **task_kwargs):
        self.name = name
        self.engine = engine
        self.task = task
        self.max_batch_size = max_batch_size
        self.queue = BoundedDeadlineQueue(queue_capacity)
        self.breaker = breaker if breaker is not None \
            else CircuitBreaker(name)
        self.injector = injector
        self.tracer = tracer
        self.wedge_timeout_ms = wedge_timeout_ms
        #: sim time charged for a fast failure (crash detection/abort cost)
        self.failure_ms = failure_ms
        self.task_kwargs = task_kwargs
        #: virtual device timeline (absolute sim ms)
        self.busy_until_ms = 0.0
        #: warm-up gate (absolute sim ms): an autoscaled worker is not
        #: routable — and its timeline accepts no dispatch — before this
        #: (tile-store warm start vs cold tune set different delays)
        self.ready_at_ms = 0.0
        #: scale-down drains the queue instead of killing the worker: a
        #: draining worker takes no new routing but serves what it holds
        #: (the zero-lost-futures invariant survives elasticity)
        self.draining = False
        #: sim time FaultyEngine sees — updated at each serve
        self._now_ms = 0.0

        self.spec = getattr(engine, "spec", None)
        self.backend = getattr(engine, "backend", "")
        if predictor is None and self.spec is not None:
            predictor = EngineCostModel(engine)
        self._predictor: Predictor = predictor or _default_predictor
        self._fallback_predictor = fallback_predictor

        self._fallback_engine = fallback_engine
        self._fallback_factory = fallback_factory
        self._fallback_batcher: Optional[RequestBatcher] = None

        served_engine = engine
        if injector is not None:
            served_engine = FaultyEngine(engine, injector, name,
                                         lambda: self._now_ms)
        #: each worker drains its own batcher; metrics are private to the
        #: worker (one ServingMetrics home per device)
        self.serving_metrics = ServingMetrics()
        self.batcher = RequestBatcher(
            served_engine, task=task, max_batch_size=max_batch_size,
            max_wait_s=0.0, metrics=self.serving_metrics, tracer=tracer,
            **task_kwargs)

    # ------------------------------------------------------------------
    # routing views
    # ------------------------------------------------------------------
    @property
    def can_degrade(self) -> bool:
        return (self._fallback_engine is not None
                or self._fallback_factory is not None)

    @property
    def degraded(self) -> bool:
        """Serving on the reference fallback (breaker not closed)."""
        return not self.breaker.closed and self.can_degrade

    def routable(self, now_ms: float) -> bool:
        """May the router place new work here?"""
        if self.draining or now_ms < self.ready_at_ms:
            return False
        if self.breaker.closed:
            return True
        if self.can_degrade:
            return True
        return self.breaker.probe_due(now_ms)

    def predict_ms(self, shape: Tuple[int, ...], batch: int = 1) -> float:
        """Predicted service time of ``batch`` same-shaped requests on the
        engine that would actually run them (fallback while degraded)."""
        if self.degraded:
            return self._get_fallback_predictor()(shape, batch)
        return self._predictor(shape, batch)

    # -- sharding views (used by the fleet shard planner) --------------
    @property
    def shardable(self) -> bool:
        """May this worker take part in a sharded plan right now?

        Requires a real device (engine with a spec), a closed breaker
        (degraded fallback engines run the reference backend — no column
        slices to contribute), not draining towards removal, and a
        shard-capable cost model.
        """
        return (self.spec is not None and self.breaker.closed
                and not self.degraded and not self.draining
                and getattr(self._predictor, "supports_shards", False))

    def predict_shard_ms(self, shape: Tuple[int, ...], batch: int,
                         shard: Tuple) -> Optional[float]:
        """Predicted ms of one shard descriptor here (None if unpriceable)."""
        if not self.shardable:
            return None
        return self._predictor(shape, batch, shard)

    def site_configs(self, shape: Tuple[int, ...], batch: int = 1):
        """Deformable site geometries scaled to this request (planner view)."""
        if not getattr(self._predictor, "supports_shards", False):
            return []
        return self._predictor.site_configs(shape, batch)

    def site_split_ms(self, shape: Tuple[int, ...], batch: int = 1):
        """Per-site (sampling ms, GEMM ms) on this device, or None."""
        if not self.shardable:
            return None
        return self._predictor.site_split_ms(shape, batch)

    def shard_site_ms(self, shape: Tuple[int, ...], batch: int, kind: str,
                      nums: Tuple[int, ...], index: int):
        """Per-site (sampling ms, GEMM ms) of this worker's exact shard."""
        if not self.shardable or not hasattr(self._predictor,
                                             "shard_site_ms"):
            return None
        return self._predictor.shard_site_ms(shape, batch, kind, nums,
                                             index)

    def backlog_ms(self, now_ms: float) -> float:
        """Device time owed before a new arrival could start."""
        return max(0.0, self.busy_until_ms - now_ms) + self.queue.pending_ms

    def estimated_completion_ms(self, shape: Tuple[int, ...],
                                now_ms: float) -> float:
        """The router's ECT: backlog + this request's predicted service."""
        return self.backlog_ms(now_ms) + self.predict_ms(shape, 1)

    # ------------------------------------------------------------------
    # queue management (driven by the scheduler)
    # ------------------------------------------------------------------
    def enqueue(self, req: FleetRequest) -> None:
        req.predicted_ms = self.predict_ms(req.shape, 1)
        self.queue.push(req)        # raises FleetRejection when full

    def end_session(self, session: str) -> int:
        """Release this worker's per-session plan-cache state for one
        ended video stream (docs/streaming.md); returns the number of
        anchors dropped.  Engines without session support (test doubles,
        the pytorch fallback) are a no-op.
        """
        end = getattr(self.engine, "end_session", None)
        if callable(end):
            return int(end(session))
        cache = getattr(self.engine, "plan_cache", None)
        if cache is not None and hasattr(cache, "end_session"):
            return int(cache.end_session(session))
        return 0

    # ------------------------------------------------------------------
    # fallback plumbing
    # ------------------------------------------------------------------
    def _get_fallback_batcher(self) -> RequestBatcher:
        if self._fallback_batcher is None:
            if self._fallback_engine is None:
                self._fallback_engine = self._fallback_factory()
            self._fallback_batcher = RequestBatcher(
                self._fallback_engine, task=self.task,
                max_batch_size=self.max_batch_size, max_wait_s=0.0,
                metrics=ServingMetrics(), tracer=self.tracer,
                **self.task_kwargs)
        return self._fallback_batcher

    def _get_fallback_predictor(self) -> Predictor:
        if self._fallback_predictor is None:
            if self._fallback_engine is None and self.spec is not None \
                    and self._fallback_factory is not None:
                self._fallback_engine = self._fallback_factory()
            fb = self._fallback_engine
            if fb is not None and getattr(fb, "spec", None) is not None:
                self._fallback_predictor = EngineCostModel(fb)
            else:
                self._fallback_predictor = self._predictor
        return self._fallback_predictor

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_batch(self, batch: List[FleetRequest], now_ms: float,
                    shard_ctx=None) -> BatchOutcome:
        """Run one same-shaped EDF batch; returns the outcome with the
        simulated time charged to this worker's device timeline.

        ``shard_ctx`` (a :class:`~repro.fleet.shard.ShardContext`) splits
        the batch's deformable layers across fleet participants; it is
        only honoured on the primary engine — a degraded or probing
        worker serves unsharded.
        """
        if not batch:
            raise ValueError("serve_batch() needs a non-empty batch")
        self._now_ms = now_ms
        probe = False
        use_primary = self.breaker.closed
        if not use_primary and self.breaker.probe_due(now_ms):
            self.breaker.begin_probe(now_ms)
            use_primary = True
            probe = True
        if not use_primary and not self.can_degrade:
            # the scheduler only routes here when routable(); be explicit
            # if that contract is ever violated
            raise RuntimeError(
                f"worker {self.name}: breaker {self.breaker.state} and no "
                "fallback — not servable")
        if not use_primary or probe:
            shard_ctx = None

        with maybe_span(self.tracer, "fleet.batch", cat="fleet",
                        worker=self.name, size=len(batch),
                        requests=[r.id for r in batch],
                        engine="primary" if use_primary else "fallback",
                        probe=probe, start_sim_ms=round(now_ms, 3),
                        shard_plan=(shard_ctx.plan.label
                                    if shard_ctx is not None else None)):
            outcome = self._serve_batch_inner(batch, now_ms, use_primary,
                                              probe, shard_ctx)
            if self.tracer is not None:
                outcome.span_id = self.tracer.current_span_id()
        return outcome

    def _serve_batch_inner(self, batch: List[FleetRequest], now_ms: float,
                           use_primary: bool, probe: bool,
                           shard_ctx=None) -> BatchOutcome:
        batcher = self.batcher if use_primary \
            else self._get_fallback_batcher()
        log = getattr(batcher.engine, "log", None)
        sim0 = float(log.total_ms) if log is not None else 0.0
        if shard_ctx is not None:
            with shard_ctx.install(self.engine):
                futures = [batcher.submit(r.image) for r in batch]
                batcher.flush()
        else:
            futures = [batcher.submit(r.image) for r in batch]
            batcher.flush()

        error = next((f.exception() for f in futures
                      if f.exception() is not None), None)
        shape = batch[0].shape
        if error is not None:
            sim_ms = (self.wedge_timeout_ms
                      if isinstance(error, WorkerWedged)
                      else self.failure_ms)
            if use_primary:
                self.breaker.record_failure(now_ms)
            outcome = BatchOutcome(batch, None, error, sim_ms,
                                   "primary" if use_primary else "fallback",
                                   probe)
        else:
            results = [f.result() for f in futures]
            shard_summary = None
            if shard_ctx is not None and shard_ctx.applied:
                # the interconnect-aware timeline replay replaces the
                # serial log delta: shard compute overlapped across
                # participant devices, scatter/gather serialised here
                sim_ms = shard_ctx.finalize()
                shard_summary = shard_ctx.summary()
            else:
                delta = (float(log.total_ms) - sim0) \
                    if log is not None else 0.0
                sim_ms = delta if delta > 0.0 \
                    else self.predict_ms(shape, len(batch))
            if use_primary and self.injector is not None:
                sim_ms *= self.injector.latency_factor(self.name, now_ms)
            if use_primary:
                self.breaker.record_success(now_ms)
            outcome = BatchOutcome(batch, results, None, sim_ms,
                                   "primary" if use_primary else "fallback",
                                   probe, shard=shard_summary)
        return outcome

    def __repr__(self) -> str:
        return (f"FleetWorker({self.name!r}, backend={self.backend!r}, "
                f"queue={len(self.queue)}, breaker={self.breaker.state})")
