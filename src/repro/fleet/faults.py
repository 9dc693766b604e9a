"""Fault-injection harness for the fleet (crash, latency spike, wedge).

Faults are *scripted* against the simulated clock, so every fault run is
reproducible: a :class:`FaultSpec` names a worker, a kind and an active
``[start_ms, end_ms)`` window on the scheduler's clock.

* ``crash``   — the worker's primary engine raises
  :class:`WorkerCrashed` on every call inside the window (drives the
  circuit breaker, retry-with-rerouting and graceful degradation);
* ``latency`` — the worker's simulated batch latency is multiplied by
  ``factor`` inside the window (a slow worker; cost-model routing steers
  new work away as its backlog stretches);
* ``wedge``   — the worker hangs: the engine call raises
  :class:`WorkerWedged`, and the scheduler charges the worker its
  ``wedge_timeout_ms`` of simulated time before failing the batch over
  to the retry path (a hung worker costs detection time, not forever).

Faults apply to the worker's **primary** engine only — the reference
pytorch fallback models the known-good path a degraded worker retreats
to, which is exactly the recovery story the scheduler is exercising.

:class:`FaultyEngine` is the injection point: a transparent proxy
installed between the worker's batcher and its engine, so engine
failures flow through the *real* serving failure path
(batcher futures + :class:`~repro.serve.metrics.ServingMetrics`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry


class WorkerCrashed(RuntimeError):
    """Injected crash of a fleet worker's engine."""


class WorkerWedged(RuntimeError):
    """Injected hang of a fleet worker (detected via wedge timeout)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: ``kind`` on ``worker`` during ``[start, end)``."""

    worker: str
    kind: str                       # "crash" | "latency" | "wedge"
    start_ms: float = 0.0
    end_ms: float = math.inf
    factor: float = 4.0             # latency multiplier (kind="latency")

    KINDS = ("crash", "latency", "wedge")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {self.KINDS}")
        if self.end_ms <= self.start_ms:
            raise ValueError("fault window must satisfy start_ms < end_ms")
        if self.kind == "latency" and self.factor <= 1.0:
            raise ValueError("latency fault factor must be > 1")

    def active(self, now_ms: float) -> bool:
        return self.start_ms <= now_ms < self.end_ms


_FAULT_RE = re.compile(
    r"^(?P<worker>[^=]+)=(?P<kind>crash|latency|wedge)"
    r"(?::(?P<start>[0-9.]+)-(?P<end>[0-9.]+|inf))?"
    r"(?::x(?P<factor>[0-9.]+))?$")


def parse_fault(text: str) -> FaultSpec:
    """Parse ``WORKER=KIND[:START-END][:xFACTOR]`` (times in sim ms).

    Examples: ``w1-rtx-2080ti=crash``, ``w0-jetson=latency:0-50:x8``,
    ``w1=wedge:10-inf``.
    """
    m = _FAULT_RE.match(text.strip())
    if m is None:
        raise ValueError(
            f"cannot parse fault {text!r}; expected "
            "WORKER=KIND[:START-END][:xFACTOR] with KIND in "
            f"{FaultSpec.KINDS}")
    kwargs = dict(worker=m.group("worker"), kind=m.group("kind"))
    if m.group("start") is not None:
        kwargs["start_ms"] = float(m.group("start"))
        kwargs["end_ms"] = float(m.group("end"))
    if m.group("factor") is not None:
        kwargs["factor"] = float(m.group("factor"))
    return FaultSpec(**kwargs)


class FaultInjector:
    """Evaluates the scripted faults against a worker + sim time."""

    def __init__(self, faults: Sequence[FaultSpec] = (),
                 registry: Optional[MetricsRegistry] = None):
        self.faults: List[FaultSpec] = list(faults)
        registry = registry if registry is not None else MetricsRegistry()
        self._counter = registry.counter(
            "fleet_faults_injected",
            help="fault activations by worker and kind")

    def _active(self, worker: str, now_ms: float,
                kind: str) -> Iterable[FaultSpec]:
        return (f for f in self.faults
                if f.worker == worker and f.kind == kind
                and f.active(now_ms))

    def crash_active(self, worker: str, now_ms: float) -> bool:
        return next(iter(self._active(worker, now_ms, "crash")), None) \
            is not None

    def wedge_active(self, worker: str, now_ms: float) -> bool:
        return next(iter(self._active(worker, now_ms, "wedge")), None) \
            is not None

    def latency_factor(self, worker: str, now_ms: float) -> float:
        factor = 1.0
        for f in self._active(worker, now_ms, "latency"):
            factor *= f.factor
        if factor != 1.0:
            self._counter.inc(worker=worker, kind="latency")
        return factor

    def check(self, worker: str, now_ms: float) -> None:
        """Raise the active crash/wedge fault for ``worker``, if any."""
        if self.wedge_active(worker, now_ms):
            self._counter.inc(worker=worker, kind="wedge")
            raise WorkerWedged(f"worker {worker} wedged (injected)")
        if self.crash_active(worker, now_ms):
            self._counter.inc(worker=worker, kind="crash")
            raise WorkerCrashed(f"worker {worker} crashed (injected)")


class FaultyEngine:
    """Transparent engine proxy consulting the injector on every call.

    Sits between a worker's :class:`~repro.serve.RequestBatcher` and its
    primary engine, so injected failures exercise the genuine batcher
    failure path (futures + metrics) rather than a side channel.
    """

    def __init__(self, engine, injector: FaultInjector, worker: str,
                 clock: Callable[[], float]):
        self.engine = engine
        self.injector = injector
        self.worker = worker
        self._clock = clock

    @property
    def log(self):
        return getattr(self.engine, "log", None)

    def classify(self, images):
        self.injector.check(self.worker, self._clock())
        return self.engine.classify(images)

    def detect(self, images, **kwargs):
        self.injector.check(self.worker, self._clock())
        return self.engine.detect(images, **kwargs)
