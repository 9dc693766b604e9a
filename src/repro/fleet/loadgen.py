"""Open-loop trace-driven load generation on the fleet's SimClock.

A :class:`LoadSpec` describes production-shaped traffic as a
*non-homogeneous Poisson process* over a simulated interval:

* **Poisson arrivals** — interarrival gaps are exponential, so the
  stream is open-loop: arrivals do not wait for the fleet to catch up,
  which is exactly the regime where queues grow, deadlines expire and
  autoscaling matters;
* a **diurnal rate envelope** — ``1 + amplitude * sin(...)`` over
  ``cycles`` periods, the day/night swell every consumer service sees;
* **correlated burst episodes** — multiplicative flash-crowd windows
  (``[start, end) × factor``); overlapping bursts compound;
* **multi-tenant request classes** — a weighted mix of
  :class:`RequestClass` entries with distinct geometries (image extent),
  relative deadlines and priorities.

The envelope is *normalised so it integrates to the configured request
count*: ``rate(t) = scale · diurnal(t) · burst(t)`` with ``scale``
chosen such that ``∫₀^D rate = requests`` (exact, via per-segment
analytic integration — no quadrature).  The realised arrival count is
then Poisson around ``requests``.

Everything is seeded and deterministic **across processes**: arrival
times, class draws and per-request image seeds come from one
``numpy`` PCG64 stream, so two workers generating the same spec produce
byte-identical event streams (see :meth:`LoadSpec.stream_digest` and
``tests/test_loadgen.py``).

CLI grammar (``repro fleet run --loadgen SPEC``)::

    n=400,duration=50,diurnal=0.5,cycles=2,seed=3,
    burst=10-14x4,burst=30-31x8,
    classes=small:3:16:2.0:0|large:1:32:8.0:1

``classes`` entries are ``name:weight:size[:deadline_ms[:priority]]``
(deadline ``-`` = none).  Unknown trailing fields are rejected with an
explicit error.  See docs/fleet.md ("Open-loop load generation").
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class RequestClass:
    """One tenant class of the traffic mix."""

    name: str
    weight: float = 1.0             # relative share of the mix
    input_size: int = 32            # square (channels, s, s) images
    deadline_ms: Optional[float] = None   # relative to arrival time
    priority: int = 0               # EDF tie-break (higher serves first)
    channels: int = 3

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"class {self.name!r}: weight must be > 0")
        if self.input_size < 4:
            raise ValueError(f"class {self.name!r}: input_size must be >= 4")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"class {self.name!r}: deadline must be > 0")


@dataclass(frozen=True)
class BurstEpisode:
    """A flash-crowd window: rate × ``factor`` over ``[start_ms, end_ms)``."""

    start_ms: float
    end_ms: float
    factor: float

    def __post_init__(self):
        if self.end_ms <= self.start_ms:
            raise ValueError(f"burst window [{self.start_ms}, {self.end_ms})"
                             " is empty")
        if self.factor <= 0:
            raise ValueError("burst factor must be > 0")

    def active(self, t_ms: float) -> bool:
        return self.start_ms <= t_ms < self.end_ms


@dataclass(frozen=True)
class Arrival:
    """One generated request: when it lands, what it asks for."""

    index: int
    t_ms: float
    cls: RequestClass
    image_seed: int

    def image(self) -> np.ndarray:
        """The deterministic payload (regenerable from ``image_seed``)."""
        rng = np.random.default_rng(self.image_seed)
        size = (self.cls.channels, self.cls.input_size, self.cls.input_size)
        return rng.uniform(0.0, 1.0, size=size).astype(np.float32)

    def stream_line(self) -> str:
        """Canonical text form (float hex — byte-exact, locale-free)."""
        deadline = ("-" if self.cls.deadline_ms is None
                    else float(self.cls.deadline_ms).hex())
        return (f"{self.index} {float(self.t_ms).hex()} {self.cls.name} "
                f"{self.cls.input_size} {deadline} {self.cls.priority} "
                f"{self.image_seed}")


@dataclass(frozen=True)
class LoadSpec:
    """A normalised non-homogeneous Poisson workload description."""

    requests: int                   # expected total arrivals (envelope mass)
    duration_ms: float
    diurnal_amplitude: float = 0.0  # 0 = flat; must stay < 1 (rate > 0)
    diurnal_cycles: float = 1.0     # sine periods across the duration
    bursts: Tuple[BurstEpisode, ...] = ()
    classes: Tuple[RequestClass, ...] = (RequestClass("default"),)
    seed: int = 0

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")
        if self.diurnal_cycles <= 0:
            raise ValueError("diurnal_cycles must be > 0")
        if not self.classes:
            raise ValueError("at least one request class is required")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        for b in self.bursts:
            if b.start_ms < 0 or b.end_ms > self.duration_ms:
                raise ValueError(
                    f"burst [{b.start_ms}, {b.end_ms}) outside "
                    f"[0, {self.duration_ms})")

    # ------------------------------------------------------------------
    # the rate function
    # ------------------------------------------------------------------
    def _diurnal(self, t_ms: float) -> float:
        omega = 2.0 * math.pi * self.diurnal_cycles / self.duration_ms
        return 1.0 + self.diurnal_amplitude * math.sin(omega * t_ms)

    def burst_factor(self, t_ms: float) -> float:
        f = 1.0
        for b in self.bursts:
            if b.active(t_ms):
                f *= b.factor
        return f

    def _segments(self) -> List[Tuple[float, float, float]]:
        """``(t0, t1, burst_factor)`` pieces covering ``[0, duration)``."""
        cuts = {0.0, self.duration_ms}
        for b in self.bursts:
            cuts.add(b.start_ms)
            cuts.add(b.end_ms)
        edges = sorted(cuts)
        return [(t0, t1, self.burst_factor(0.5 * (t0 + t1)))
                for t0, t1 in zip(edges, edges[1:]) if t1 > t0]

    def _envelope_mass(self) -> float:
        """``∫₀^D diurnal(t)·burst(t) dt`` — analytic per segment."""
        omega = 2.0 * math.pi * self.diurnal_cycles / self.duration_ms
        a = self.diurnal_amplitude
        mass = 0.0
        for t0, t1, f in self._segments():
            # ∫ 1 + a·sin(ωt) dt = Δt − (a/ω)(cos(ωt1) − cos(ωt0))
            mass += f * ((t1 - t0) - (a / omega)
                         * (math.cos(omega * t1) - math.cos(omega * t0)))
        return mass

    @property
    def rate_scale(self) -> float:
        """The normaliser making the envelope integrate to ``requests``."""
        return self.requests / self._envelope_mass()

    def rate(self, t_ms: float) -> float:
        """Instantaneous arrival rate (requests per simulated ms)."""
        if not 0.0 <= t_ms < self.duration_ms:
            return 0.0
        return self.rate_scale * self._diurnal(t_ms) * self.burst_factor(t_ms)

    def peak_rate(self) -> float:
        """An upper bound on ``rate`` (the thinning envelope λ_max)."""
        worst = max((f for _, _, f in self._segments()), default=1.0)
        return self.rate_scale * (1.0 + self.diurnal_amplitude) * worst

    @property
    def offered_rpms(self) -> float:
        """Mean offered load, requests per simulated ms."""
        return self.requests / self.duration_ms

    def scaled(self, factor: float) -> "LoadSpec":
        """Same traffic shape at ``factor`` × the offered load."""
        if factor <= 0:
            raise ValueError("load factor must be > 0")
        return replace(self, requests=max(1, int(round(self.requests
                                                       * factor))))

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def events(self) -> List[Arrival]:
        """Generate the arrival stream (Lewis–Shedler thinning).

        Gaps are drawn exponentially at ``peak_rate`` and accepted with
        probability ``rate(t)/peak_rate`` — an exact non-homogeneous
        Poisson sampler.  One seeded PCG64 stream drives gaps, thinning,
        class draws and image seeds, so identical specs yield
        byte-identical streams in any process.
        """
        rng = np.random.default_rng(self.seed)
        lam = self.peak_rate()
        weights = np.cumsum([c.weight for c in self.classes])
        weights = weights / weights[-1]
        out: List[Arrival] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / lam)
            if t >= self.duration_ms:
                break
            if rng.random() * lam > self.rate(t):
                continue                      # thinned away
            cls = self.classes[int(np.searchsorted(weights, rng.random(),
                                                   side="right"))]
            out.append(Arrival(len(out), float(t), cls,
                               int(rng.integers(0, 2 ** 32))))
        return out

    def stream_bytes(self, events: Optional[Sequence[Arrival]] = None
                     ) -> bytes:
        """Canonical byte serialisation of the event stream."""
        if events is None:
            events = self.events()
        return "\n".join(a.stream_line() for a in events).encode("ascii")

    def stream_digest(self, events: Optional[Sequence[Arrival]] = None
                      ) -> str:
        """blake2b digest of :meth:`stream_bytes` (determinism audits)."""
        return hashlib.blake2b(self.stream_bytes(events),
                               digest_size=16).hexdigest()

    def describe(self) -> str:
        parts = [f"{self.requests} req over {self.duration_ms:g} sim-ms "
                 f"({self.offered_rpms:.2f} req/ms)"]
        if self.diurnal_amplitude:
            parts.append(f"diurnal ±{self.diurnal_amplitude:g} "
                         f"× {self.diurnal_cycles:g} cycles")
        for b in self.bursts:
            parts.append(f"burst [{b.start_ms:g}, {b.end_ms:g})"
                         f" ×{b.factor:g}")
        parts.append("classes " + "/".join(c.name for c in self.classes))
        return ", ".join(parts)


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
_CLASS_GRAMMAR = "name:weight:size[:deadline_ms[:priority]]"


def _parse_class(token: str) -> RequestClass:
    fields = token.split(":")
    if len(fields) > 5:
        raise ValueError(
            f"bad class {token!r}: unknown trailing fields "
            f"{fields[5:]!r} — the grammar is {_CLASS_GRAMMAR}")
    if len(fields) < 2 or not fields[0]:
        raise ValueError(
            f"bad class {token!r}; expected {_CLASS_GRAMMAR}")
    name, weight = fields[0], float(fields[1])
    size = int(fields[2]) if len(fields) > 2 else 32
    deadline = None
    if len(fields) > 3 and fields[3] not in ("-", ""):
        deadline = float(fields[3])
    priority = int(fields[4]) if len(fields) > 4 else 0
    return RequestClass(name, weight, size, deadline, priority)


def _parse_burst(token: str) -> BurstEpisode:
    try:
        window, factor = token.split("x")
        start, end = window.split("-")
        return BurstEpisode(float(start), float(end), float(factor))
    except ValueError as exc:
        raise ValueError(f"bad burst {token!r}; expected START-ENDxFACTOR "
                         f"(e.g. 10-14x4)") from exc


def parse_loadgen(spec: str) -> LoadSpec:
    """Parse the ``--loadgen`` grammar into a :class:`LoadSpec`."""
    kwargs = {"requests": 64, "duration_ms": 32.0}
    bursts: List[BurstEpisode] = []
    classes: Optional[Tuple[RequestClass, ...]] = None
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"bad loadgen token {token!r}; expected key=value")
        key, value = token.split("=", 1)
        key = key.strip().lower()
        if key in ("n", "requests"):
            kwargs["requests"] = int(value)
        elif key == "duration":
            kwargs["duration_ms"] = float(value)
        elif key == "diurnal":
            kwargs["diurnal_amplitude"] = float(value)
        elif key == "cycles":
            kwargs["diurnal_cycles"] = float(value)
        elif key == "seed":
            kwargs["seed"] = int(value)
        elif key == "burst":
            bursts.append(_parse_burst(value))
        elif key == "classes":
            classes = tuple(_parse_class(tok)
                            for tok in value.split("|") if tok)
        else:
            raise ValueError(
                f"unknown loadgen key {key!r}; known: n/requests, duration, "
                f"diurnal, cycles, seed, burst, classes")
    if bursts:
        kwargs["bursts"] = tuple(bursts)
    if classes:
        kwargs["classes"] = classes
    return LoadSpec(**kwargs)
