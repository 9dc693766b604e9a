"""Per-worker circuit breaker (closed → open → half-open → closed).

The classic pattern, on the fleet's simulated clock:

* **closed** — the worker's primary engine serves normally; ``K``
  *consecutive* batch failures trip the breaker;
* **open** — the primary engine is quarantined.  A worker with a
  reference-backend fallback keeps serving in degraded mode; one without
  becomes unroutable.  After ``cooldown_ms`` of simulated time the next
  dequeue runs as a half-open probe;
* **half-open** — exactly one probe batch runs on the primary engine:
  success closes the breaker (worker restored), failure re-opens it and
  restarts the cooldown.

Every transition is appended to :attr:`CircuitBreaker.transitions`
(timestamped, so tests can assert the exact state machine walk).  The
breaker holds no registry: the
:class:`~repro.fleet.scheduler.FleetScheduler` publishes the entries a
batch added as ``fleet_breaker_transitions{worker=,to=}`` and the state
as the ``fleet_breaker_open{worker=}`` gauge.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting breaker for one worker's primary engine."""

    def __init__(self, name: str = "", failure_threshold: int = 3,
                 cooldown_ms: float = 50.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_ms < 0:
            raise ValueError("cooldown_ms must be >= 0")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_ms: Optional[float] = None
        #: (sim_ms, from_state, to_state) history of every transition
        self.transitions: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    def _transition(self, now_ms: float, to_state: str) -> None:
        if to_state == self.state:
            return
        self.transitions.append((now_ms, self.state, to_state))
        self.state = to_state

    # ------------------------------------------------------------------
    # outcomes
    # ------------------------------------------------------------------
    def record_success(self, now_ms: float) -> None:
        self.consecutive_failures = 0
        if self.state in (HALF_OPEN, OPEN):
            self.opened_at_ms = None
            self._transition(now_ms, CLOSED)

    def record_failure(self, now_ms: float) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # failed probe: back to open, cooldown restarts
            self.opened_at_ms = now_ms
            self._transition(now_ms, OPEN)
        elif (self.state == CLOSED
              and self.consecutive_failures >= self.failure_threshold):
            self.opened_at_ms = now_ms
            self._transition(now_ms, OPEN)

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe_due(self, now_ms: float) -> bool:
        """True when the cooldown has elapsed and a half-open probe may run."""
        return (self.state == OPEN and self.opened_at_ms is not None
                and now_ms >= self.opened_at_ms + self.cooldown_ms)

    def begin_probe(self, now_ms: float) -> None:
        """Enter half-open for the probe batch about to run."""
        if self.state != OPEN:
            raise RuntimeError(
                f"begin_probe() in state {self.state!r}; only an open "
                "breaker can probe")
        self._transition(now_ms, HALF_OPEN)

    @property
    def closed(self) -> bool:
        return self.state == CLOSED

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.name!r}, state={self.state}, "
                f"failures={self.consecutive_failures}/"
                f"{self.failure_threshold})")
