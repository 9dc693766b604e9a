"""Elastic autoscaling: grow and shrink the fleet against live SLO burn.

The :class:`ElasticAutoscaler` rides the fleet's synchronous simulation:
:meth:`FleetScheduler.run_load` calls :meth:`evaluate` every
``interval_ms`` of simulated time, and each evaluation may

* **scale up** — provision one worker from the
  :mod:`repro.gpusim.device` preset catalogue when the windowed
  p99-vs-SLO **burn rate** (the same
  :func:`repro.obs.slo.evaluate_slo` machinery ``repro fleet run
  --slo`` prints) or the mean **queue depth** per worker crosses its
  threshold.  A burn-triggered upscale picks the *fastest* catalogue
  class, a depth-triggered one the *cheapest* — the accelerator-
  partitioning trade-off at fleet granularity.  The new worker pays a
  **warm-up cost** before its timeline accepts dispatch: a device class
  the autoscaler has provisioned before warm-starts from its tile store
  (``warm_ms``), a first-ever class pays the cold autotune
  (``cold_ms``); until ``ready_at_ms`` the worker is not routable.
* **scale down** — after ``down_intervals`` consecutive healthy
  evaluations, mark the youngest worker **draining**: it takes no new
  routing, serves out its queue, and is only removed from the scheduler
  once idle — the zero-lost-futures invariant survives elasticity.

``min_workers``/``max_workers`` bound the active (non-draining) count
at all times, cooldowns damp flapping, and every action lands in
:attr:`events` plus ``fleet_autoscale_actions`` on the registry.  The
worker **ledger** records each member's provision/retire times, so
:meth:`worker_ms` prices the run in worker-milliseconds — the
worker-hours axis of ``benchmarks/bench_fleet_autoscale.py``'s
SLO-attainment curves.

Policy grammar (``repro fleet run --autoscale POLICY``)::

    min=1,max=4,catalogue=xavier|2080ti,p99=0.5,burn=1.0,depth=4,
    interval=1.0,warm=1,cold=6,up-cooldown=2,down-cooldown=4,settle=3

See docs/fleet.md ("Elastic autoscaling").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.fleet.worker import FleetWorker
from repro.obs.slo import SLO, evaluate_slo

#: builds one fleet member for a device preset: ``(name, spec) → worker``
WorkerProvider = Callable[[str, "object"], FleetWorker]


@dataclass(frozen=True)
class AutoscalePolicy:
    """When to grow, when to shrink, and what each move costs."""

    min_workers: int = 1
    max_workers: int = 4
    #: device presets the autoscaler may provision, ordered cheap → fast
    catalogue: Tuple[str, ...] = ("xavier",)
    #: p99 threshold (sim ms) of the SLO whose burn rate drives upscaling
    p99_ms: float = 0.5
    #: scale up when the 1-window burn rate exceeds this (1.0 = burning
    #: budget exactly as fast as the SLO allows)
    burn_up: float = 1.0
    #: ... or when mean queued requests per active worker exceeds this
    depth_up: float = 4.0
    #: scale down only while burn and depth sit below the quiet line
    burn_down: float = 0.25
    depth_down: float = 0.5
    #: consecutive quiet evaluations required before a scale-down
    down_intervals: int = 3
    #: evaluation cadence on the simulated clock
    interval_ms: float = 1.0
    up_cooldown_ms: float = 2.0
    down_cooldown_ms: float = 4.0
    #: ready-delay for a device class whose tiles are already warm
    warm_ms: float = 1.0
    #: ready-delay for a first-ever device class (cold autotune)
    cold_ms: float = 6.0

    def __post_init__(self):
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if not self.catalogue:
            raise ValueError("the device catalogue cannot be empty")
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be > 0")
        if self.warm_ms < 0 or self.cold_ms < 0:
            raise ValueError("warm-up delays must be >= 0")
        if self.down_intervals < 1:
            raise ValueError("down_intervals must be >= 1")

    @property
    def slo(self) -> SLO:
        """The p99 objective whose burn rate triggers upscaling."""
        return SLO(name="autoscale-p99",
                   metric="fleet_request_latency_ms",
                   objective="quantile", quantile=99.0,
                   threshold_ms=self.p99_ms)


def parse_autoscale(spec: str) -> AutoscalePolicy:
    """Parse the ``--autoscale`` grammar into an :class:`AutoscalePolicy`."""
    keys = {
        "min": ("min_workers", int),
        "max": ("max_workers", int),
        "p99": ("p99_ms", float),
        "burn": ("burn_up", float),
        "burn-down": ("burn_down", float),
        "depth": ("depth_up", float),
        "depth-down": ("depth_down", float),
        "interval": ("interval_ms", float),
        "up-cooldown": ("up_cooldown_ms", float),
        "down-cooldown": ("down_cooldown_ms", float),
        "settle": ("down_intervals", int),
        "warm": ("warm_ms", float),
        "cold": ("cold_ms", float),
    }
    kwargs: Dict[str, object] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"bad autoscale token {token!r}; "
                             f"expected key=value")
        key, value = token.split("=", 1)
        key = key.strip().lower()
        if key == "catalogue":
            kwargs["catalogue"] = tuple(d for d in value.split("|") if d)
        elif key in keys:
            field_name, cast = keys[key]
            kwargs[field_name] = cast(value)
        else:
            raise ValueError(f"unknown autoscale key {key!r}; known: "
                             f"{sorted(list(keys) + ['catalogue'])}")
    return AutoscalePolicy(**kwargs)


class ElasticAutoscaler:
    """Drive fleet membership from queue depth and windowed SLO burn."""

    def __init__(self, policy: AutoscalePolicy, provider: WorkerProvider):
        self.policy = policy
        self.provider = provider
        #: every action, in order: scale-up / scale-down / remove rows
        self.events: List[dict] = []
        #: name → {device, added_ms, ready_ms, removed_ms} for every
        #: worker that was ever a member (worker-hours accounting)
        self.ledger: Dict[str, dict] = {}
        #: device classes provisioned before → tile store is warm
        self._warm_devices: set = set()
        self._next_eval = 0.0
        self._last_up = -math.inf
        self._last_down = -math.inf
        self._quiet_streak = 0
        self._seq = 0
        self.sched = None
        self._actions = None
        self._active_gauge = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, sched) -> "ElasticAutoscaler":
        """Bind to a scheduler and enrol its current workers."""
        self.sched = sched
        now = sched.clock.now_ms
        self._next_eval = now
        for w in sched.workers:
            self.ledger.setdefault(w.name, {
                "device": w.spec.name if w.spec is not None else "?",
                "added_ms": now, "ready_ms": now, "removed_ms": None,
            })
            if w.spec is not None:
                # the fleet's initial members already carry tuned tiles
                self._warm_devices.add(w.spec.name)
        self._actions = sched.registry.counter(
            "fleet_autoscale_actions",
            help="autoscaler decisions by action (scale-up/scale-down/"
                 "remove)")
        self._active_gauge = sched.registry.gauge(
            "fleet_active_workers",
            help="non-draining fleet members at the last evaluation")
        self._active_gauge.set(len(self._active()))
        return self

    @property
    def next_eval_ms(self) -> float:
        return self._next_eval

    def _active(self) -> List[FleetWorker]:
        return [w for w in self.sched.workers if not w.draining]

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------
    def burn_1w(self) -> float:
        """Burn rate over the most recent retained SLO window."""
        report = evaluate_slo(self.policy.slo, self.sched.registry)
        return report.burn_rates.get("1w", 0.0)

    def evaluate(self, now_ms: float) -> None:
        """One control step: finish drains, then grow or shrink."""
        if self.sched is None:
            raise RuntimeError("attach() the autoscaler to a fleet first")
        pol = self.policy
        self._next_eval = now_ms + pol.interval_ms
        self._finish_drains(now_ms)
        active = self._active()
        depth = self.sched.pending() / max(1, len(active))
        burn = self.burn_1w()

        reason = None
        if burn > pol.burn_up:
            reason = "burn"
        elif depth > pol.depth_up:
            reason = "depth"
        if reason is not None:
            self._quiet_streak = 0
            if (len(active) < pol.max_workers
                    and now_ms - self._last_up >= pol.up_cooldown_ms):
                self._scale_up(now_ms, reason, burn, depth)
        elif burn <= pol.burn_down and depth <= pol.depth_down:
            self._quiet_streak += 1
            if (self._quiet_streak >= pol.down_intervals
                    and len(active) > pol.min_workers
                    and now_ms - self._last_down >= pol.down_cooldown_ms):
                self._scale_down(now_ms, burn, depth)
                self._quiet_streak = 0
        else:
            self._quiet_streak = 0
        self._active_gauge.set(len(self._active()))

    def _scale_up(self, now_ms: float, reason: str, burn: float,
                  depth: float) -> None:
        from repro.gpusim.device import get_device

        pol = self.policy
        # burn says the tail is on fire — buy the fastest class; a pure
        # depth backlog is cleared by the cheapest
        device = pol.catalogue[-1] if reason == "burn" else pol.catalogue[0]
        spec = get_device(device)
        warm = spec.name in self._warm_devices
        delay = pol.warm_ms if warm else pol.cold_ms
        name = f"a{self._seq}-{spec.name}"
        self._seq += 1
        worker = self.provider(name, spec)
        worker.ready_at_ms = now_ms + delay
        worker.busy_until_ms = max(worker.busy_until_ms, worker.ready_at_ms)
        self.sched.add_worker(worker)
        self._warm_devices.add(spec.name)
        self._last_up = now_ms
        self.ledger[name] = {"device": spec.name, "added_ms": now_ms,
                             "ready_ms": worker.ready_at_ms,
                             "removed_ms": None}
        self._record(now_ms, "scale-up", name, device=spec.name,
                     reason=reason, warm=warm,
                     ready_ms=round(worker.ready_at_ms, 3),
                     burn_1w=round(burn, 3), depth=round(depth, 3))

    def _scale_down(self, now_ms: float, burn: float, depth: float) -> None:
        # retire the youngest member (LIFO keeps the long-lived base
        # fleet stable); ties broken by name for determinism
        victim = max(self._active(),
                     key=lambda w: (self.ledger[w.name]["added_ms"], w.name))
        victim.draining = True
        self.ledger[victim.name]["drain_ms"] = now_ms
        self._last_down = now_ms
        self._record(now_ms, "scale-down", victim.name,
                     device=self.ledger[victim.name]["device"],
                     reason="quiet", queued=len(victim.queue),
                     burn_1w=round(burn, 3), depth=round(depth, 3))

    def _finish_drains(self, now_ms: float) -> None:
        """Retire draining workers whose queue emptied and device idled."""
        for w in list(self.sched.workers):
            if not w.draining or len(w.queue):
                continue
            if w.busy_until_ms > now_ms:
                continue
            self._retire(w, self._retire_ms(w))

    def _retire_ms(self, worker: FleetWorker) -> float:
        """A drained worker is billed until it finished its last batch or
        the drain was ordered, whichever came later."""
        row = self.ledger[worker.name]
        return max(worker.busy_until_ms,
                   row.get("drain_ms", row["added_ms"]))

    def _retire(self, worker: FleetWorker, at_ms: float) -> None:
        self.sched.remove_worker(worker.name)
        self.ledger[worker.name]["removed_ms"] = at_ms
        self._record(at_ms, "remove", worker.name,
                     device=self.ledger[worker.name]["device"])

    def _record(self, now_ms: float, action: str, worker: str,
                **detail) -> None:
        self.events.append({"sim_ms": round(now_ms, 3), "action": action,
                            "worker": worker, **detail})
        if self._actions is not None:
            self._actions.inc(action=action)

    def finalize(self, end_ms: float) -> None:
        """End-of-run accounting: retire every drained worker."""
        for w in list(self.sched.workers):
            if w.draining and not len(w.queue):
                self._retire(w, self._retire_ms(w))
        self._active_gauge.set(len(self._active()))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def worker_ms(self, end_ms: float) -> float:
        """Total provisioned worker-milliseconds (the fleet's cost axis)."""
        total = 0.0
        for row in self.ledger.values():
            stop = row["removed_ms"] if row["removed_ms"] is not None \
                else max(end_ms, row["added_ms"])
            total += stop - row["added_ms"]
        return total

    def concurrency_bounds(self) -> Tuple[int, int]:
        """(min, max) concurrent members over the whole run, from the
        ledger boundary sweep (the flash-crowd bounds audit)."""
        edges = []
        for row in self.ledger.values():
            edges.append((row["added_ms"], 1))
            if row["removed_ms"] is not None:
                edges.append((row["removed_ms"], -1))
        level = 0
        lo, hi = math.inf, 0
        for _, delta in sorted(edges, key=lambda e: (e[0], -e[1])):
            level += delta
            lo, hi = min(lo, level), max(hi, level)
        return (0 if lo is math.inf else lo), hi

    def scale_ups(self) -> int:
        return sum(1 for e in self.events if e["action"] == "scale-up")

    def scale_downs(self) -> int:
        return sum(1 for e in self.events if e["action"] == "scale-down")

    def snapshot(self, end_ms: Optional[float] = None) -> dict:
        """Deterministic summary (bench + CLI read this)."""
        end = end_ms if end_ms is not None else self.sched.clock.now_ms
        lo, hi = self.concurrency_bounds()
        return {
            "policy": {"min": self.policy.min_workers,
                       "max": self.policy.max_workers,
                       "catalogue": list(self.policy.catalogue),
                       "p99_ms": self.policy.p99_ms},
            "scale_ups": self.scale_ups(),
            "scale_downs": self.scale_downs(),
            "peak_workers": hi,
            "min_workers_seen": lo,
            "final_workers": len(self.sched.workers),
            "worker_ms": round(self.worker_ms(end), 3),
            "events": list(self.events),
        }


# ----------------------------------------------------------------------
# worker providers
# ----------------------------------------------------------------------
class _SimServeEngine:
    """Deterministic classify stub for simulation-only fleets: results
    are byte-stable per batch, no numerics run — the worker's sim time
    comes from its injected gpusim-priced predictor instead."""

    def __init__(self):
        self.batches = 0

    def classify(self, images):
        import numpy as np

        self.batches += 1
        return np.arange(images.shape[0], dtype=np.int64)


def sim_worker_provider(*, layer=None, backend: str = "tex2dpp",
                        max_batch_size: int = 4, queue_capacity: int = 64,
                        tracer=None) -> WorkerProvider:
    """Workers with stub engines but *real* gpusim-priced latency.

    Each provisioned worker predicts (and is charged) the
    :func:`repro.nas.latency_table.deform_latency_ms` of ``layer`` on its
    device preset, scaled by the request's pixel count and batch size —
    so the autoscaler's catalogue trade-off (cheap Xavier vs fast
    2080 Ti) is priced by the same latency model the cost router uses,
    while serving stays fast enough for load sweeps.
    """
    from repro.kernels.config import LayerConfig

    cfg = layer if layer is not None else LayerConfig(64, 64, 32, 32)
    base_ms: Dict[str, float] = {}

    def provider(name: str, spec) -> FleetWorker:
        from repro.gpusim.device import get_device
        from repro.nas.latency_table import deform_latency_ms

        spec = get_device(spec) if isinstance(spec, str) else spec
        if spec.name not in base_ms:
            base_ms[spec.name] = deform_latency_ms(cfg, spec,
                                                   backend=backend)
        per_image = base_ms[spec.name]
        ref_pixels = float(cfg.height * cfg.width)

        def predictor(shape, batch, per_image=per_image):
            pixels = float(shape[-1] * shape[-2])
            return per_image * batch * pixels / ref_pixels

        worker = FleetWorker(name, _SimServeEngine(), predictor=predictor,
                             max_batch_size=max_batch_size,
                             queue_capacity=queue_capacity, tracer=tracer)
        worker.spec = spec          # routable introspection keeps the name
        return worker

    return provider


def engine_worker_provider(model, *, backend: str = "tex2dpp",
                           task: str = "classify", tile_store=None,
                           autotune: bool = False,
                           max_batch_size: int = 4,
                           queue_capacity: int = 16,
                           degrade: bool = True,
                           breaker_threshold: int = 3,
                           breaker_cooldown_ms: float = 50.0,
                           wedge_timeout_ms: float = 100.0,
                           injector=None, tracer=None,
                           **task_kwargs) -> WorkerProvider:
    """Workers with full :class:`~repro.pipeline.engine.DefconEngine`
    stacks — what ``repro fleet run --autoscale`` provisions (same
    assembly as :func:`~repro.fleet.scheduler.build_fleet`)."""

    def provider(name: str, spec) -> FleetWorker:
        from repro.fleet.scheduler import build_worker
        from repro.gpusim.device import get_device

        spec = get_device(spec) if isinstance(spec, str) else spec
        return build_worker(name, spec, model, backend=backend, task=task,
                            tile_store=tile_store, autotune=autotune,
                            max_batch_size=max_batch_size,
                            queue_capacity=queue_capacity, degrade=degrade,
                            breaker_threshold=breaker_threshold,
                            breaker_cooldown_ms=breaker_cooldown_ms,
                            wedge_timeout_ms=wedge_timeout_ms,
                            injector=injector, tracer=tracer,
                            **task_kwargs)

    return provider
