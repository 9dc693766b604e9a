"""Heterogeneous fleet scheduler (docs/fleet.md).

Routes serving requests across N simulated devices — each worker owns a
:class:`~repro.pipeline.engine.DefconEngine` on its own
:class:`~repro.gpusim.device.DeviceSpec` — using cost-model routing
(expected completion time from the gpusim latency model), bounded EDF
queues with deadlines and load shedding, per-worker circuit breakers,
fault injection, retry-with-rerouting and graceful degradation to the
reference pytorch backend.  The whole thing is a deterministic
synchronous simulation on a :class:`~repro.fleet.scheduler.SimClock`.
"""

from repro.fleet.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.fleet.faults import (FaultInjector, FaultSpec, FaultyEngine,
                                WorkerCrashed, WorkerWedged, parse_fault)
from repro.fleet.queueing import (REASON_CLOSED, REASON_EXPIRED,
                                  REASON_NO_WORKER, REASON_QUEUE_FULL,
                                  REASON_RETRIES, BoundedDeadlineQueue,
                                  FleetRejection, FleetRequest)
from repro.fleet.router import (CostModelRouter, EngineCostModel,
                                RandomRouter, Router, RoundRobinRouter,
                                ShardAwareCostRouter, make_router)
from repro.fleet.scheduler import FleetScheduler, SimClock, build_fleet
from repro.fleet.shard import (Interconnect, LinkSpec, ShardContext,
                               ShardPlan, ShardPlanner,
                               default_interconnect)
from repro.fleet.worker import BatchOutcome, FleetWorker

__all__ = [
    "BatchOutcome", "BoundedDeadlineQueue", "CircuitBreaker",
    "CostModelRouter", "EngineCostModel", "FaultInjector", "FaultSpec",
    "FaultyEngine", "FleetRejection", "FleetRequest", "FleetScheduler",
    "FleetWorker", "Interconnect", "LinkSpec", "RandomRouter", "Router",
    "RoundRobinRouter", "ShardAwareCostRouter", "ShardContext", "ShardPlan",
    "ShardPlanner", "SimClock", "WorkerCrashed", "WorkerWedged",
    "build_fleet", "default_interconnect", "make_router", "parse_fault",
    "CLOSED", "OPEN", "HALF_OPEN",
    "REASON_CLOSED", "REASON_EXPIRED", "REASON_NO_WORKER",
    "REASON_QUEUE_FULL", "REASON_RETRIES",
]
