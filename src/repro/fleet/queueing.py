"""Bounded per-worker queues with deadlines, EDF dequeue and load shedding.

Every fleet request carries an optional *absolute* deadline on the
scheduler's simulated clock.  The queue enforces the robustness rules a
real serving tier needs:

* **admission control / backpressure** — the queue is bounded; a push
  beyond ``capacity`` raises :class:`FleetRejection` with reason
  ``queue_full`` instead of growing without bound, and the caller
  propagates that rejection to the request's future;
* **earliest-deadline-first dequeue** — :meth:`pop_batch` serves the
  request whose deadline is nearest (ties broken by request id, so the
  order is total and deterministic), batching only same-shaped requests
  with it;
* **load shedding** — :meth:`shed_expired` removes requests whose
  deadline has already passed so the fleet never spends device time on
  work nobody is still waiting for; shed requests are returned to the
  caller, which must resolve their futures with an explicit rejection
  (no future is ever silently dropped).
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

#: rejection reasons (the ``reason`` label on ``fleet_requests_rejected``)
REASON_QUEUE_FULL = "queue_full"
REASON_EXPIRED = "deadline_expired"
REASON_NO_WORKER = "no_worker_available"
REASON_RETRIES = "retries_exhausted"
REASON_CLOSED = "fleet_closed"


class FleetRejection(RuntimeError):
    """Explicit, reasoned rejection of a request (admission control, load
    shedding, retry exhaustion...).  Set on the request's future, so a
    rejected request still *resolves* — callers always get an answer."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        msg = reason if not detail else f"{reason}: {detail}"
        super().__init__(msg)


@dataclass
class FleetRequest:
    """One image travelling through the fleet, with its promise."""

    id: int
    image: np.ndarray                       # (C, H, W)
    submit_ms: float                        # simulated submission time
    deadline_ms: Optional[float] = None     # absolute sim-time deadline
    future: Future = field(default_factory=Future)
    #: per-request predicted service time on the worker currently holding
    #: it (set at enqueue time; feeds the queue's backlog estimate)
    predicted_ms: float = 0.0
    attempts: int = 0
    #: workers that already failed this request (rerouting avoids them)
    failed_on: Set[str] = field(default_factory=set)
    #: multi-tenant priority class (higher serves first among equal
    #: deadlines; a pure-priority order would starve, so the deadline
    #: stays the primary key)
    priority: int = 0

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.image.shape)

    @property
    def edf_key(self) -> Tuple[float, int, int]:
        """Total EDF order: nearest deadline first, then priority (higher
        first), then submission order."""
        deadline = self.deadline_ms if self.deadline_ms is not None \
            else math.inf
        return (deadline, -self.priority, self.id)

    def expired(self, now_ms: float) -> bool:
        return self.deadline_ms is not None and now_ms > self.deadline_ms


class BoundedDeadlineQueue:
    """A bounded request queue with EDF dequeue and expiry shedding.

    Not thread-safe by itself — the fleet scheduler is a synchronous
    event-driven simulation, which is what makes routing decisions and
    metrics bit-stable under a fixed seed.
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._reqs: List[FleetRequest] = []

    def __len__(self) -> int:
        return len(self._reqs)

    @property
    def full(self) -> bool:
        return len(self._reqs) >= self.capacity

    @property
    def pending_ms(self) -> float:
        """Predicted service time of everything queued (backlog input to
        the router's expected-completion-time estimate)."""
        return sum(r.predicted_ms for r in self._reqs)

    def push(self, req: FleetRequest) -> None:
        if self.full:
            raise FleetRejection(
                REASON_QUEUE_FULL,
                f"queue at capacity {self.capacity}")
        self._reqs.append(req)

    def shed_expired(self, now_ms: float) -> List[FleetRequest]:
        """Remove and return every request whose deadline already passed."""
        expired = [r for r in self._reqs if r.expired(now_ms)]
        if expired:
            self._reqs = [r for r in self._reqs if not r.expired(now_ms)]
        return sorted(expired, key=lambda r: r.edf_key)

    def pop_batch(self, max_batch: int) -> List[FleetRequest]:
        """Pop the EDF head plus up to ``max_batch - 1`` same-shaped
        requests, in EDF order (only same shapes stack into one tensor)."""
        if not self._reqs:
            return []
        ordered = sorted(self._reqs, key=lambda r: r.edf_key)
        head = ordered[0]
        batch = [head]
        for r in ordered[1:]:
            if len(batch) >= max_batch:
                break
            if r.shape == head.shape:
                batch.append(r)
        taken = {r.id for r in batch}
        self._reqs = [r for r in self._reqs if r.id not in taken]
        return batch

    def drain(self) -> List[FleetRequest]:
        """Remove and return everything (fleet shutdown path)."""
        reqs, self._reqs = self._reqs, []
        return sorted(reqs, key=lambda r: r.edf_key)
