"""Heterogeneous fleet scheduler tests (docs/fleet.md).

Most tests drive the scheduler with deterministic fake engines and
injected predictors — the fleet is a synchronous simulation, so every
assertion here (routing decisions, breaker walks, shed/reject counts) is
exact, not statistical.  A small integration slice runs real
DefconEngines on the Xavier/2080Ti presets.
"""

import numpy as np
import pytest

from repro.fleet import (CLOSED, HALF_OPEN, OPEN, REASON_CLOSED,
                         REASON_EXPIRED, REASON_QUEUE_FULL, REASON_RETRIES,
                         BoundedDeadlineQueue, CircuitBreaker,
                         EngineCostModel, FaultInjector, FaultSpec,
                         FleetRejection, FleetRequest, FleetScheduler,
                         FleetWorker, SimClock, WorkerCrashed, WorkerWedged,
                         build_fleet, make_router, parse_fault)
from repro.obs import MetricsRegistry, SpanTracer

pytestmark = pytest.mark.fleet

IMG = np.zeros((3, 8, 8), dtype=np.float32)
IMG16 = np.zeros((3, 16, 16), dtype=np.float32)


class FakeEngine:
    """Deterministic classify stub; returns the batch index per image."""

    def __init__(self):
        self.batch_shapes = []

    def classify(self, images):
        self.batch_shapes.append(images.shape)
        return np.arange(images.shape[0], dtype=np.int64)


def req(rid, image=IMG, submit_ms=0.0, deadline_ms=None, predicted_ms=1.0):
    r = FleetRequest(rid, image, submit_ms, deadline_ms)
    r.predicted_ms = predicted_ms
    return r


def worker(name, ms, **kw):
    """Fake worker whose predicted latency is ``ms`` per image."""
    return FleetWorker(name, FakeEngine(),
                       predictor=lambda shape, batch, ms=ms: ms * batch,
                       **kw)


# ----------------------------------------------------------------------
# queueing
# ----------------------------------------------------------------------
class TestBoundedDeadlineQueue:
    def test_admission_control_rejects_when_full(self):
        q = BoundedDeadlineQueue(capacity=2)
        q.push(req(0))
        q.push(req(1))
        assert q.full
        with pytest.raises(FleetRejection) as exc:
            q.push(req(2))
        assert exc.value.reason == REASON_QUEUE_FULL

    def test_edf_pop_order_then_submission_order(self):
        q = BoundedDeadlineQueue()
        q.push(req(0, deadline_ms=50.0))
        q.push(req(1, deadline_ms=10.0))
        q.push(req(2))                      # no deadline → last
        q.push(req(3, deadline_ms=10.0))    # same deadline as 1 → by id
        ids = [r.id for r in q.pop_batch(max_batch=4)]
        assert ids == [1, 3, 0, 2]

    def test_pop_batch_only_stacks_same_shapes(self):
        q = BoundedDeadlineQueue()
        q.push(req(0, IMG))
        q.push(req(1, IMG16))
        q.push(req(2, IMG))
        batch = q.pop_batch(max_batch=4)
        assert [r.id for r in batch] == [0, 2]
        assert [r.id for r in q.pop_batch(4)] == [1]

    def test_shed_expired_removes_only_late_requests(self):
        q = BoundedDeadlineQueue()
        q.push(req(0, deadline_ms=5.0))
        q.push(req(1, deadline_ms=20.0))
        q.push(req(2))
        shed = q.shed_expired(now_ms=10.0)
        assert [r.id for r in shed] == [0]
        assert len(q) == 2

    def test_pending_ms_sums_predictions(self):
        q = BoundedDeadlineQueue()
        q.push(req(0, predicted_ms=2.0))
        q.push(req(1, predicted_ms=3.5))
        assert q.pending_ms == pytest.approx(5.5)


class TestQueueUnderOpenLoopBursts:
    """The queue's robustness rules under generated bursty traffic —
    previously only exercised with hand-built request lists."""

    def test_shed_boundary_is_strictly_after_deadline(self):
        """Expiry at the exact deadline tick: ``now == deadline`` is
        still servable; the next representable instant is not."""
        q = BoundedDeadlineQueue()
        q.push(req(0, deadline_ms=10.0))
        assert q.shed_expired(now_ms=10.0) == []
        assert len(q) == 1
        just_after = float(np.nextafter(10.0, np.inf))
        assert [r.id for r in q.shed_expired(now_ms=just_after)] == [0]
        assert len(q) == 0

    def test_bursty_arrivals_trigger_admission_control_and_shedding(self):
        """Open-loop burst against a fixed-rate consumer: the bounded
        queue must reject pushes at capacity and shed exactly the
        requests whose deadline tick passed — and only during the flash
        crowd, since the envelope is well-provisioned outside it."""
        # seeded piecewise Poisson arrivals: 0.6 req/ms with an 8x flash
        # crowd over [20, 26) ms; every request has a 3 ms deadline
        rng = np.random.default_rng(9)
        arrivals = []
        for start, end, rate in ((0.0, 20.0, 0.6), (20.0, 26.0, 4.8),
                                 (26.0, 60.0, 0.6)):
            n = rng.poisson(rate * (end - start))
            arrivals += sorted(rng.uniform(start, end, n).tolist())
        q = BoundedDeadlineQueue(capacity=8)
        service_ms = 0.5                    # consumer: one request / 0.5ms
        next_pop = 0.0
        rejected, shed, served = [], [], []
        for i, t_ms in enumerate(arrivals):
            while next_pop <= t_ms and len(q):
                shed += [r.id for r in q.shed_expired(next_pop)]
                served += [r.id for r in q.pop_batch(1)]
                next_pop += service_ms
            if not len(q):
                next_pop = max(next_pop, t_ms)
            r = FleetRequest(i, IMG, t_ms, t_ms + 3.0)
            r.predicted_ms = service_ms
            try:
                q.push(r)
            except FleetRejection as exc:
                assert exc.reason == REASON_QUEUE_FULL
                rejected.append((i, t_ms))
        while len(q):
            shed += [r.id for r in q.shed_expired(next_pop)]
            served += [r.id for r in q.pop_batch(1)]
            next_pop += service_ms

        assert rejected, "the burst must overflow a capacity-8 queue"
        assert all(20.0 <= t < 28.0 for _, t in rejected), \
            "admission control should only fire around the flash crowd"
        assert shed, "3ms deadlines must expire while queued in the burst"
        # conservation: every arrival is served, shed, or rejected once
        ids = set(served) | set(shed) | {i for i, _ in rejected}
        assert len(served) + len(shed) + len(rejected) == len(ids)
        assert len(ids) == len(arrivals)

    def test_expiry_at_exact_boundary_inside_scheduler(self):
        """A request whose deadline equals the batch start tick is still
        served; one queued behind it expires and is shed with reason
        ``deadline_expired``."""
        sched = FleetScheduler([worker("w0", ms=5.0)], router="cost")
        f_exact = sched.submit(IMG, deadline_ms=5.0)    # served at 0.0
        f_late = sched.submit(IMG16, deadline_ms=5.0)   # starts at 5.0,
        sched.drain()                                    # 5.0 == deadline
        assert f_exact.result() is not None
        # the 16px request starts at t=5.0 — exactly its deadline — and
        # is still served (strictly-after semantics)
        assert f_late.result() is not None
        sched2 = FleetScheduler([worker("w0", ms=5.0)], router="cost")
        g0 = sched2.submit(IMG, deadline_ms=4.0)        # EDF head
        g1 = sched2.submit(IMG16, deadline_ms=4.999)    # expires at 5.0
        sched2.drain()
        assert g0.result() is not None
        with pytest.raises(FleetRejection) as exc:
            g1.result()
        assert exc.value.reason == REASON_EXPIRED


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_k_consecutive_failures(self):
        b = CircuitBreaker("w", failure_threshold=3)
        b.record_failure(1.0)
        b.record_failure(2.0)
        b.record_success(3.0)           # resets the streak
        b.record_failure(4.0)
        b.record_failure(5.0)
        assert b.state == CLOSED
        b.record_failure(6.0)
        assert b.state == OPEN and b.opened_at_ms == 6.0

    def test_half_open_probe_closes_on_success(self):
        b = CircuitBreaker("w", failure_threshold=1, cooldown_ms=10.0)
        b.record_failure(0.0)
        assert b.state == OPEN
        assert not b.probe_due(5.0)
        assert b.probe_due(10.0)
        b.begin_probe(10.0)
        assert b.state == HALF_OPEN
        b.record_success(11.0)
        assert b.state == CLOSED
        assert [(f, t) for _, f, t in b.transitions] == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        b = CircuitBreaker("w", failure_threshold=1, cooldown_ms=10.0)
        b.record_failure(0.0)
        b.begin_probe(10.0)
        b.record_failure(12.0)
        assert b.state == OPEN and b.opened_at_ms == 12.0
        assert not b.probe_due(21.0) and b.probe_due(22.0)

    def test_begin_probe_requires_open(self):
        b = CircuitBreaker("w")
        with pytest.raises(RuntimeError):
            b.begin_probe(0.0)

    def test_registry_mirrors_transitions(self):
        # the breaker holds no registry: the scheduler publishes the
        # transitions a served batch caused, and the gauge from join on
        reg = MetricsRegistry()
        w = worker("w", 1.0,
                   injector=FaultInjector([parse_fault("w=crash")]),
                   breaker=CircuitBreaker("w", failure_threshold=1))
        sched = FleetScheduler([w], registry=reg, max_attempts=1)
        assert reg.get("fleet_breaker_open").value(worker="w") == 0.0
        sched.submit(IMG)
        sched.step()
        counter = reg.get("fleet_breaker_transitions")
        assert counter.value(worker="w", to=OPEN) == 1
        assert reg.get("fleet_breaker_open").value(worker="w") == 1.0


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
class TestFaults:
    def test_parse_fault_full_form(self):
        f = parse_fault("w1-rtx-2080ti=latency:5-20:x8")
        assert f == FaultSpec("w1-rtx-2080ti", "latency", 5.0, 20.0, 8.0)

    def test_parse_fault_defaults_to_always_active(self):
        f = parse_fault("w0=crash")
        assert f.active(0.0) and f.active(1e9)

    @pytest.mark.parametrize("text", ["w0", "w0=melt", "w0=crash:9-3"])
    def test_parse_fault_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_fault(text)

    def test_injector_windows_and_counters(self):
        reg = MetricsRegistry()
        inj = FaultInjector([parse_fault("a=crash:10-20"),
                             parse_fault("a=latency:0-5:x4")], registry=reg)
        inj.check("a", 5.0)                      # outside crash window
        with pytest.raises(WorkerCrashed):
            inj.check("a", 10.0)
        assert inj.latency_factor("a", 2.0) == 4.0
        assert inj.latency_factor("a", 6.0) == 1.0
        counter = reg.get("fleet_faults_injected")
        assert counter.value(worker="a", kind="crash") == 1
        assert counter.value(worker="a", kind="latency") == 1

    def test_wedge_takes_precedence(self):
        inj = FaultInjector([parse_fault("a=wedge"), parse_fault("a=crash")])
        with pytest.raises(WorkerWedged):
            inj.check("a", 0.0)


# ----------------------------------------------------------------------
# routers
# ----------------------------------------------------------------------
class TestRouters:
    def test_cost_router_picks_lowest_ect_with_name_tiebreak(self):
        a = worker("a", 2.0)
        b = worker("b", 2.0)
        c = worker("c", 5.0)
        r = make_router("cost")
        assert r.choose([c, b, a], (3, 8, 8), 0.0) is a

    def test_cost_router_accounts_for_backlog(self):
        a = worker("a", 1.0)
        b = worker("b", 3.0)
        a.busy_until_ms = 10.0          # fast worker is busy
        r = make_router("cost")
        assert r.choose([a, b], (3, 8, 8), 0.0) is b

    def test_round_robin_cycles_by_name(self):
        a, b = worker("a", 1.0), worker("b", 1.0)
        r = make_router("round-robin")
        picks = [r.choose([b, a], (3, 8, 8), 0.0).name for _ in range(4)]
        assert picks == ["a", "b", "a", "b"]

    def test_random_router_is_seed_deterministic(self):
        a, b = worker("a", 1.0), worker("b", 1.0)
        picks = [
            [make_router("random", seed=7).choose([a, b], (3, 8, 8), 0.0).name
             for _ in range(1)][0] for _ in range(3)]
        assert len(set(picks)) == 1

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_router("magic")


# ----------------------------------------------------------------------
# scheduler on fake engines
# ----------------------------------------------------------------------
def two_worker_fleet(router="cost", **kw):
    fast = worker("a-fast", 1.0)
    slow = worker("b-slow", 5.0)
    return FleetScheduler([fast, slow], router=router,
                          registry=MetricsRegistry(), **kw), fast, slow


class TestFleetScheduler:
    def test_cost_routing_prefers_fast_worker(self):
        sched, fast, slow = two_worker_fleet()
        futs = [sched.submit(IMG) for _ in range(10)]
        sched.drain()
        snap = sched.snapshot()
        assert snap["completed"] == 10 and not sched.unresolved()
        assert snap["completed_by_worker"]["a-fast"] \
            > snap["completed_by_worker"]["b-slow"]
        assert all(f.result() is not None for f in futs)

    def test_admission_control_rejects_with_reason(self):
        a = worker("a", 1.0, queue_capacity=2)
        sched = FleetScheduler([a], registry=MetricsRegistry())
        futs = [sched.submit(IMG) for _ in range(4)]
        # rejections resolve synchronously at submit time
        rejected = [f for f in futs if f.done() and f.exception() is not None]
        assert len(rejected) == 2
        for f in rejected:
            assert isinstance(f.exception(), FleetRejection)
            assert f.exception().reason == REASON_QUEUE_FULL
        sched.drain()
        assert not sched.unresolved()
        assert sched.snapshot()["rejected_by_reason"] == {
            REASON_QUEUE_FULL: 2}

    def test_expired_requests_are_shed_not_served(self):
        a = worker("a", 10.0)
        sched = FleetScheduler([a], registry=MetricsRegistry())
        kept = sched.submit(IMG)        # served at t=0, device busy to 10ms
        sched.drain()
        assert kept.result() is not None
        # cannot start before 10ms, but its deadline is 5ms → shed
        doomed = sched.submit(IMG16, deadline_ms=5.0)
        sched.drain()
        exc = doomed.exception()
        assert isinstance(exc, FleetRejection)
        assert exc.reason == REASON_EXPIRED
        # the engine never saw the 16px image
        assert all(s[-1] == 8 for s in a.engine.batch_shapes)

    def test_crash_reroutes_with_zero_lost_futures(self):
        reg = MetricsRegistry()
        inj = FaultInjector([parse_fault("a-fast=crash:0-inf")],
                            registry=reg)
        fast = FleetWorker("a-fast", FakeEngine(),
                           predictor=lambda s, b: 1.0 * b, injector=inj,
                           breaker=CircuitBreaker("a-fast",
                                                  failure_threshold=2))
        slow = worker("b-slow", 5.0)
        sched = FleetScheduler([fast, slow], registry=reg, max_attempts=3)
        futs = [sched.submit(IMG) for _ in range(8)]
        sched.drain()
        snap = sched.snapshot()
        assert snap["completed"] == 8
        assert snap["retries"] > 0
        assert not sched.unresolved()
        assert all(f.exception() is None for f in futs)
        assert fast.breaker.state == OPEN
        # shed/reject/transition counts are observable on the registry
        assert reg.get("fleet_breaker_transitions").value(
            worker="a-fast", to=OPEN) == 1
        assert reg.get("fleet_requests_retried").value(worker="a-fast") \
            == snap["retries"]

    def test_open_breaker_no_fallback_holds_queue_for_probe(self):
        # Reviewer repro: request already queued on a worker whose
        # breaker opens with no fallback.  step() must not dispatch into
        # serve_batch()'s not-servable guard (which crashed drain() and
        # lost the future) — the queue waits for the half-open probe.
        inj = FaultInjector([parse_fault("a=crash:0-inf")])
        a = FleetWorker("a", FakeEngine(), predictor=lambda s, b: 1.0 * b,
                        max_batch_size=1, injector=inj,
                        breaker=CircuitBreaker("a", failure_threshold=1,
                                               cooldown_ms=50.0))
        sched = FleetScheduler([a], registry=MetricsRegistry(),
                               max_attempts=2)
        futs = [sched.submit(IMG), sched.submit(IMG)]
        sched.drain()                   # must not raise
        assert not sched.unresolved()
        for f in futs:
            assert f.exception() is not None
        # the second request was held until the probe at 50ms, served as
        # the half-open probe (which failed and re-opened the breaker)
        assert a.breaker.state == OPEN
        assert [(f, t) for _, f, t in a.breaker.transitions] == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, OPEN)]
        assert sched.clock.now_ms >= 50.0

    def test_pinned_worker_reroutes_queue_to_healthy_worker(self):
        # Queued work on a breaker-pinned worker moves to a worker that
        # can serve sooner instead of waiting out the whole cooldown.
        reg = MetricsRegistry()
        inj = FaultInjector([parse_fault("a=crash:0-inf")], registry=reg)
        a = FleetWorker("a", FakeEngine(), predictor=lambda s, b: 1.0 * b,
                        max_batch_size=1, injector=inj,
                        breaker=CircuitBreaker("a", failure_threshold=1,
                                               cooldown_ms=1000.0))
        b = worker("b", 100.0)          # slow, so cost routing picks a
        sched = FleetScheduler([a, b], registry=reg, max_attempts=3)
        futs = [sched.submit(IMG), sched.submit(IMG)]
        sched.drain()
        assert not sched.unresolved()
        assert all(f.result() is not None for f in futs)
        snap = sched.snapshot()
        # request 0 failed on a and retried on b; request 1 never ran on
        # a — it was rerouted off the pinned queue
        assert snap["completed_by_worker"] == {"b": 2}
        assert snap["rerouted_by_worker"] == {"a": 1}
        assert reg.get("fleet_requests_rerouted").value(worker="a") == 1
        # a attempted exactly one batch (the crash); the rerouted request
        # never touched it, and the fleet finished long before a's
        # 1000ms cooldown
        assert reg.get("fleet_batch_failures").value(worker="a") == 1
        assert sched.clock.now_ms < 1000.0

    def test_pinned_worker_sheds_expired_before_probe(self):
        # A deadline that passes while pinned is shed with an explicit
        # rejection, not served late by the eventual probe.
        inj = FaultInjector([parse_fault("a=crash:0-inf")])
        a = FleetWorker("a", FakeEngine(), predictor=lambda s, b: 1.0 * b,
                        max_batch_size=1, injector=inj,
                        breaker=CircuitBreaker("a", failure_threshold=1,
                                               cooldown_ms=50.0))
        sched = FleetScheduler([a], registry=MetricsRegistry(),
                               max_attempts=2)
        crashed = sched.submit(IMG, deadline_ms=5.0)
        tight = sched.submit(IMG, deadline_ms=10.0)
        sched.drain()
        assert not sched.unresolved()
        assert crashed.exception() is not None
        exc = tight.exception()
        assert isinstance(exc, FleetRejection)
        assert exc.reason == REASON_EXPIRED
        # only the crashing attempt consumed device time: the expired
        # request was shed at the probe wake-up, no probe batch ran
        assert a.busy_until_ms == pytest.approx(a.failure_ms)
        assert [(f, t) for _, f, t in a.breaker.transitions] == [
            (CLOSED, OPEN)]

    def test_retries_exhausted_surfaces_engine_error(self):
        inj = FaultInjector([parse_fault("a=crash")])
        a = FleetWorker("a", FakeEngine(), predictor=lambda s, b: 1.0,
                        injector=inj)
        sched = FleetScheduler([a], registry=MetricsRegistry(),
                               max_attempts=2)
        fut = sched.submit(IMG)
        sched.drain()
        assert isinstance(fut.exception(), WorkerCrashed)
        assert sched.snapshot()["rejected_by_reason"] == {REASON_RETRIES: 1}

    def test_wedge_charges_detection_timeout(self):
        inj = FaultInjector([parse_fault("a=wedge:0-1")])
        a = FleetWorker("a", FakeEngine(), predictor=lambda s, b: 1.0,
                        injector=inj, wedge_timeout_ms=42.0)
        sched = FleetScheduler([a], registry=MetricsRegistry(),
                               max_attempts=5)
        fut = sched.submit(IMG)
        sched.drain()
        # first attempt wedges (42ms charged), retry at t=42 succeeds
        assert fut.result() is not None
        assert a.busy_until_ms == pytest.approx(43.0)

    def test_degradation_to_fallback_then_probe_recovery(self):
        inj = FaultInjector([parse_fault("a=crash:0-10")])
        primary = FakeEngine()
        fallback = FakeEngine()
        a = FleetWorker("a", primary, predictor=lambda s, b: 2.0 * b,
                        injector=inj, fallback_engine=fallback,
                        breaker=CircuitBreaker("a", failure_threshold=1,
                                               cooldown_ms=20.0))
        sched = FleetScheduler([a], registry=MetricsRegistry(),
                               max_attempts=5)
        first = sched.submit(IMG)
        sched.drain()
        # attempt 1 crashed the primary (breaker opens), retry served on
        # the reference fallback while degraded
        assert first.result() is not None
        assert a.breaker.state == OPEN and a.degraded
        assert fallback.batch_shapes == [(1, 3, 8, 8)]
        # past the cooldown (and the fault window) the next batch is a
        # half-open probe on the primary, which closes the breaker
        sched.clock.advance_to(30.0)
        second = sched.submit(IMG)
        sched.drain()
        assert second.result() is not None
        assert a.breaker.state == CLOSED
        assert len(primary.batch_shapes) == 1
        assert [(f, t) for _, f, t in a.breaker.transitions] == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]

    def test_latency_fault_stretches_worker_timeline(self):
        inj = FaultInjector([parse_fault("a=latency:0-100:x4")])
        a = FleetWorker("a", FakeEngine(), predictor=lambda s, b: 2.0 * b,
                        injector=inj)
        sched = FleetScheduler([a], registry=MetricsRegistry())
        sched.submit(IMG)
        sched.drain()
        assert a.busy_until_ms == pytest.approx(8.0)   # 2ms × x4

    def test_close_rejects_queued_and_blocks_submit(self):
        sched, fast, slow = two_worker_fleet()
        fut = sched.submit(IMG)
        sched.close()
        exc = fut.exception()
        assert isinstance(exc, FleetRejection)
        assert exc.reason == REASON_CLOSED
        with pytest.raises(FleetRejection):
            sched.submit(IMG)
        assert not sched.unresolved()

    def test_batches_group_same_shape_edf(self):
        a = worker("a", 1.0, max_batch_size=4)
        sched = FleetScheduler([a], registry=MetricsRegistry())
        for img in (IMG, IMG16, IMG, IMG):
            sched.submit(img)
        sched.drain()
        assert a.engine.batch_shapes == [(3, 3, 8, 8), (1, 3, 16, 16)]

    def test_tracer_spans_record_fleet_batches(self):
        tracer = SpanTracer()
        a = worker("a", 1.0, tracer=None)
        sched = FleetScheduler([a], registry=MetricsRegistry(),
                               tracer=tracer)
        a.tracer = tracer
        sched.submit(IMG)
        sched.drain()
        names = [e["name"] for e in tracer.chrome_trace()["traceEvents"]
                 if e.get("ph") == "X"]
        assert "fleet.batch" in names

    def test_scheduler_publishes_series_of_a_late_member(self):
        # workers and breakers hold no registry: the scheduler that
        # serves a member publishes its batch and queue-depth series
        reg = MetricsRegistry()
        sched = FleetScheduler([worker("a", 1.0), worker("b", 0.5)],
                               registry=reg)
        sched.submit(IMG)               # the cost router picks faster b
        depth = reg.get("fleet_queue_depth")
        assert depth.value(worker="b") == 1.0
        sched.drain()
        assert reg.get("fleet_batches").value(
            worker="b", engine="primary", ok="true") == 1.0
        assert reg.get("fleet_batch_sim_ms").count(worker="b") == 1
        assert depth.value(worker="b") == 0.0
        with pytest.raises(TypeError):
            CircuitBreaker("c", registry=reg)
        with pytest.raises(TypeError, match="registry"):
            worker("c", 1.0, registry=reg)

    def test_worker_rejects_unknown_task_keyword_at_construction(self):
        with pytest.raises(TypeError, match="max_batch"):
            worker("a", 1.0, task="detect", max_batch=2)
        with pytest.raises(TypeError, match="max_batch"):
            worker("a", 1.0, max_batch=2)
        assert worker("a", 1.0, task="detect",
                      score_threshold=0.05).batcher.task_kwargs == {
            "score_threshold": 0.05}

    def test_determinism_same_seed_same_run(self):
        def run():
            sched, _, _ = two_worker_fleet(router="random", seed=3)
            for i in range(12):
                sched.submit(IMG if i % 3 else IMG16,
                             deadline_ms=4.0 if i % 4 == 0 else None)
            sched.drain()
            return sched.decisions, sched.snapshot()

        d1, s1 = run()
        d2, s2 = run()
        assert d1 == d2
        assert s1 == s2


# ----------------------------------------------------------------------
# real engines (integration slice)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_model():
    from repro.models import build_classifier
    from repro.nas import manual_interval_placement

    return build_classifier("r50s", input_size=32,
                            placement=manual_interval_placement(9, 3),
                            bound=7.0, seed=0)


class TestRealEngineFleet:
    def test_cost_model_orders_devices_correctly(self, small_model):
        from repro.gpusim.device import RTX_2080TI, XAVIER
        from repro.pipeline import DefconEngine

        shape = (3, 32, 32)
        xavier = EngineCostModel(DefconEngine(small_model, XAVIER))
        ti = EngineCostModel(DefconEngine(small_model, RTX_2080TI))
        assert ti(shape) < xavier(shape)
        assert ti(shape) == ti(shape)       # memoised, stable

    def test_build_fleet_serves_and_routes_by_cost(self, small_model):
        rng = np.random.default_rng(0)
        sched = build_fleet(small_model, ("xavier", "2080ti"),
                            max_batch_size=2)
        futs = [sched.submit(rng.uniform(0, 1, (3, 32, 32)
                                         ).astype(np.float32))
                for _ in range(6)]
        sched.drain()
        snap = sched.snapshot()
        assert snap["completed"] == 6 and not sched.unresolved()
        # the faster 2080Ti must take the larger share under cost routing
        assert snap["completed_by_worker"]["w1-rtx-2080ti"] \
            >= snap["completed_by_worker"]["w0-jetson-agx-xavier"]
        assert all(f.result() is not None for f in futs)

    def test_build_fleet_no_degrade_survives_open_breaker(self,
                                                          small_model):
        # degrade=False + crash: the faulted worker's breaker opens with
        # no fallback; its queued requests must reroute to the healthy
        # device instead of crashing drain()
        rng = np.random.default_rng(0)
        sched = build_fleet(small_model, ("xavier", "2080ti"),
                            max_batch_size=1, breaker_threshold=1,
                            degrade=False,
                            faults=["w1-rtx-2080ti=crash:0-inf"])
        futs = [sched.submit(rng.uniform(0, 1, (3, 32, 32)
                                         ).astype(np.float32))
                for _ in range(4)]
        sched.drain()                   # must not raise
        snap = sched.snapshot()
        assert snap["completed"] == 4 and not sched.unresolved()
        assert snap["completed_by_worker"] == {"w0-jetson-agx-xavier": 4}
        assert all(f.exception() is None for f in futs)

    def test_build_fleet_survives_worker_fault(self, small_model):
        rng = np.random.default_rng(0)
        sched = build_fleet(small_model, ("xavier", "2080ti"),
                            max_batch_size=2, breaker_threshold=1,
                            faults=["w1-rtx-2080ti=crash:0-0.3"])
        futs = [sched.submit(rng.uniform(0, 1, (3, 32, 32)
                                         ).astype(np.float32))
                for _ in range(6)]
        sched.drain()
        snap = sched.snapshot()
        assert snap["completed"] == 6 and not sched.unresolved()
        assert snap["retries"] > 0
        assert all(f.exception() is None for f in futs)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFleetCli:
    def test_devices_shows_dcn_latency_column(self, capsys):
        from repro.cli import main

        assert main(["devices", "--dcn-layer", "16,16,20,20"]) == 0
        out = capsys.readouterr().out
        assert "DCN 16x16x20x20" in out and "rtx-2080ti" in out

    def test_fleet_plan(self, capsys):
        from repro.cli import main

        assert main(["fleet", "plan"]) == 0
        out = capsys.readouterr().out
        assert "ECT ms" in out and "w1-rtx-2080ti" in out

    def test_fleet_run_with_fault_resolves_everything(self, capsys):
        from repro.cli import main

        assert main(["fleet", "run", "--requests", "5", "--max-batch", "2",
                     "--fault", "w1-rtx-2080ti=crash:0-0.2"]) == 0
        out = capsys.readouterr().out
        assert "futures audit: 5 submitted, 5 resolved, 0 unresolved" in out
        assert "Routing decisions" in out
