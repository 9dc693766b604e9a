"""Windowed time-series metrics — the *time* axis `repro.obs` was missing.

:class:`~repro.obs.registry.MetricsRegistry` histograms aggregate over the
lifetime of a process: great for "what was p99 overall", useless for "in
which 20 ms window did p99 blow past the SLO".  This module adds that
axis as three composable pieces:

* :class:`QuantileSketch` — a t-digest-style bounded quantile sketch.
  Count / sum / min / max are exact; quantiles interpolate between merged
  centroids whose width is limited by ``4·W·q·(1-q)/compression``, so
  rank error concentrates at the tails exactly where SLOs look.  Memory
  is O(compression) regardless of how many observations arrive.
* :class:`WindowedSeries` — observations bucketed into fixed-width
  windows on an **injectable clock** (the fleet passes its
  :class:`~repro.fleet.scheduler.SimClock`, serving uses the wall clock),
  ring-buffered so only the most recent ``retention`` windows are held:
  memory is O(windows retained), never O(observations).  Each window
  keeps exact count/sum/min/max, a sketch, and a bounded set of
  **exemplars** (trace span ids attached to the worst observations) so a
  violated window can be traced back to concrete spans.
* :class:`WindowedHistogram` — the labeled
  :class:`~repro.obs.registry.Metric` wrapper the registry hands out via
  ``registry.windowed_histogram(...)``; one :class:`WindowedSeries` per
  label set, same locking discipline as the other metric kinds.

See docs/observability.md ("Time-series windows") and
:mod:`repro.obs.slo` for the SLO engine evaluated on top of these
windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.registry import Metric

#: default fixed window width (ms) and number of retained windows
DEFAULT_WINDOW_MS = 1000.0
DEFAULT_RETENTION = 120
#: default t-digest compression (number of retained centroids, roughly)
DEFAULT_COMPRESSION = 64
#: exemplars retained per window (the worst observations win)
DEFAULT_EXEMPLARS_PER_WINDOW = 4


def wall_clock_ms() -> float:
    """Default clock: monotonic wall time in milliseconds."""
    return time.monotonic() * 1e3


@dataclass(frozen=True)
class Exemplar:
    """One concrete observation linked back to its trace span."""

    value: float
    span_id: str
    labels: Tuple[Tuple[str, str], ...] = ()
    ts_ms: float = 0.0

    def snapshot(self) -> dict:
        return {"value": self.value, "span_id": self.span_id,
                "labels": dict(self.labels), "ts_ms": self.ts_ms}


class QuantileSketch:
    """Bounded-memory quantile sketch (merging t-digest, k0/k1 hybrid).

    Incoming values buffer unmerged; once the buffer reaches
    ``4 × compression`` everything is sorted and greedily merged into
    centroids whose weight may not exceed ``4·W·q·(1-q)/compression``
    (``W`` total weight, ``q`` the centroid's mid-quantile).  That keeps
    centroid count O(compression) while forcing tail centroids to stay
    tiny — tail quantiles (the SLO ones) are near-exact.

    ``quantile()`` interpolates linearly between adjacent centroid means
    (exact min/max at the extremes); ``cdf()`` is the inverse — the
    estimated fraction of observations ``<= x`` — which is what
    error-budget accounting needs.
    """

    def __init__(self, compression: int = DEFAULT_COMPRESSION):
        if compression < 8:
            raise ValueError("sketch compression must be >= 8")
        self.compression = int(compression)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: merged (mean, weight) centroids, sorted by mean
        self._centroids: List[Tuple[float, float]] = []
        self._buffer: List[float] = []

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self._buffer.append(value)
        if len(self._buffer) >= 4 * self.compression:
            self._compress()

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch into this one (window → total roll-ups)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = other.min if self.min is None \
            else min(self.min, other.min)
        self.max = other.max if self.max is None \
            else max(self.max, other.max)
        self._centroids.extend(other._centroids)
        self._buffer.extend(other._buffer)
        self._compress()

    # ------------------------------------------------------------------
    def _compress(self) -> None:
        pending = self._centroids + [(v, 1.0) for v in self._buffer]
        self._buffer = []
        if not pending:
            return
        pending.sort()
        total = sum(w for _, w in pending)
        merged: List[Tuple[float, float]] = []
        cur_mean, cur_weight = pending[0]
        seen = 0.0          # weight fully to the left of the open centroid
        for mean, weight in pending[1:]:
            q = (seen + (cur_weight + weight) / 2.0) / total
            limit = max(1.0, 4.0 * total * q * (1.0 - q) / self.compression)
            if cur_weight + weight <= limit:
                new_weight = cur_weight + weight
                cur_mean += (mean - cur_mean) * weight / new_weight
                cur_weight = new_weight
            else:
                merged.append((cur_mean, cur_weight))
                seen += cur_weight
                cur_mean, cur_weight = mean, weight
        merged.append((cur_mean, cur_weight))
        self._centroids = merged

    @property
    def num_centroids(self) -> int:
        self._compress()
        return len(self._centroids)

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimated value at percentile ``q`` (0..100)."""
        if self.count == 0:
            return 0.0
        self._compress()
        q = min(100.0, max(0.0, float(q))) / 100.0
        if q <= 0.0:
            return float(self.min)
        if q >= 1.0:
            return float(self.max)
        target = q * self.count
        # centroid i spans cumulative weight (cum - w/2, cum + w/2)
        cum = 0.0
        prev_mid, prev_mean = 0.0, float(self.min)
        for mean, weight in self._centroids:
            mid = cum + weight / 2.0
            if target <= mid:
                span = mid - prev_mid
                frac = (target - prev_mid) / span if span > 0 else 0.0
                return prev_mean + frac * (mean - prev_mean)
            cum += weight
            prev_mid, prev_mean = mid, mean
        span = self.count - prev_mid
        frac = (target - prev_mid) / span if span > 0 else 1.0
        return prev_mean + frac * (float(self.max) - prev_mean)

    def cdf(self, x: float) -> float:
        """Estimated fraction of observations ``<= x`` (0..1)."""
        if self.count == 0:
            return 0.0
        x = float(x)
        if x < self.min:
            return 0.0
        if x >= self.max:
            return 1.0
        self._compress()
        cum = 0.0
        prev_mid, prev_mean = 0.0, float(self.min)
        for mean, weight in self._centroids:
            mid = cum + weight / 2.0
            if x < mean:
                span = mean - prev_mean
                frac = (x - prev_mean) / span if span > 0 else 0.0
                return (prev_mid + frac * (mid - prev_mid)) / self.count
            cum += weight
            prev_mid, prev_mean = mid, mean
        span = float(self.max) - prev_mean
        frac = (x - prev_mean) / span if span > 0 else 1.0
        return (prev_mid + frac * (self.count - prev_mid)) / self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "p99": self.quantile(99),
        }

    def __repr__(self) -> str:
        return (f"QuantileSketch(count={self.count}, "
                f"centroids={len(self._centroids)}+{len(self._buffer)})")


class WindowStats:
    """One fixed-width window: exact aggregates + sketch + exemplars."""

    def __init__(self, index: int, window_ms: float,
                 compression: int = DEFAULT_COMPRESSION,
                 max_exemplars: int = DEFAULT_EXEMPLARS_PER_WINDOW):
        self.index = index
        self.start_ms = index * window_ms
        self.end_ms = (index + 1) * window_ms
        self.sketch = QuantileSketch(compression)
        self.max_exemplars = max_exemplars
        #: kept sorted ascending by value; the *worst* observations win
        self.exemplars: List[Exemplar] = []

    def observe(self, value: float,
                exemplar: Optional[Exemplar] = None) -> None:
        self.sketch.add(value)
        if exemplar is not None:
            self.exemplars.append(exemplar)
            self.exemplars.sort(key=lambda e: (-e.value, e.span_id))
            del self.exemplars[self.max_exemplars:]

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def sum(self) -> float:
        return self.sketch.total

    @property
    def min(self) -> Optional[float]:
        return self.sketch.min

    @property
    def max(self) -> Optional[float]:
        return self.sketch.max

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def snapshot(self) -> dict:
        snap = {"window_start_ms": self.start_ms,
                "window_end_ms": self.end_ms, **self.sketch.snapshot()}
        if self.exemplars:
            snap["exemplars"] = [e.snapshot() for e in self.exemplars]
        return snap


class WindowedSeries:
    """Ring buffer of :class:`WindowStats` over an injectable clock.

    Observations land in the window covering their timestamp; the ring
    retains the ``retention`` most recent windows ever observed into.
    Out-of-order arrivals are fine (concurrent producers rarely observe
    in global time order); only observations older than a window the
    ring already *evicted* are counted on ``dropped`` instead of
    resurrecting it (memory stays O(retention) under any input).
    """

    def __init__(self, window_ms: float = DEFAULT_WINDOW_MS,
                 retention: int = DEFAULT_RETENTION,
                 clock: Callable[[], float] = wall_clock_ms,
                 compression: int = DEFAULT_COMPRESSION,
                 max_exemplars: int = DEFAULT_EXEMPLARS_PER_WINDOW):
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.window_ms = float(window_ms)
        self.retention = int(retention)
        self.clock = clock
        self.compression = int(compression)
        self.max_exemplars = int(max_exemplars)
        #: window index -> WindowStats, ascending insertion order
        self._windows: Dict[int, WindowStats] = {}
        self.dropped = 0        # too-late observations refused
        self.evicted = 0        # windows rolled out of the ring
        #: indexes below this were evicted and may never come back
        self._evict_watermark: Optional[int] = None

    # ------------------------------------------------------------------
    def _index(self, ts_ms: float) -> int:
        return int(ts_ms // self.window_ms)

    def observe(self, value: float, ts_ms: Optional[float] = None,
                exemplar: Optional[Exemplar] = None) -> None:
        ts = float(ts_ms) if ts_ms is not None else float(self.clock())
        idx = self._index(ts)
        win = self._windows.get(idx)
        if win is None:
            if (self._evict_watermark is not None
                    and idx < self._evict_watermark):
                # older than an evicted window — never resurrect
                self.dropped += 1
                return
            win = WindowStats(idx, self.window_ms, self.compression,
                              self.max_exemplars)
            self._windows[idx] = win
            self._prune()
        win.observe(value, exemplar)

    def _prune(self) -> None:
        while len(self._windows) > self.retention:
            oldest = min(self._windows)
            del self._windows[oldest]
            self.evicted += 1
            self._evict_watermark = max(self._evict_watermark or 0,
                                        oldest + 1)

    # ------------------------------------------------------------------
    def windows(self) -> List[WindowStats]:
        """Retained windows, oldest first."""
        return [self._windows[i] for i in sorted(self._windows)]

    def __len__(self) -> int:
        return len(self._windows)

    @property
    def count(self) -> int:
        """Total observations across retained windows."""
        return sum(w.count for w in self._windows.values())

    def latest(self) -> Optional[WindowStats]:
        if not self._windows:
            return None
        return self._windows[max(self._windows)]

    def total_sketch(self) -> QuantileSketch:
        """All retained windows folded into one sketch."""
        total = QuantileSketch(self.compression)
        for w in self.windows():
            total.merge(w.sketch)
        return total

    def quantile_series(self, q: float) -> List[Tuple[float, float]]:
        """``[(window_start_ms, quantile_value), ...]`` oldest first."""
        return [(w.start_ms, w.quantile(q)) for w in self.windows()]

    def snapshot(self) -> dict:
        wins = self.windows()
        return {
            "window_ms": self.window_ms,
            "retention": self.retention,
            "windows": [w.snapshot() for w in wins],
            "count": sum(w.count for w in wins),
            "sum": sum(w.sum for w in wins),
            "dropped": self.dropped,
            "evicted": self.evicted,
        }


class WindowedHistogram(Metric):
    """Labeled windowed-histogram metric (one series per label set).

    Registered via
    :meth:`~repro.obs.registry.MetricsRegistry.windowed_histogram`; the
    clock is shared by every series, so a fleet registry built on a
    :class:`~repro.fleet.scheduler.SimClock` buckets everything in
    simulated time while a serving registry buckets in wall time.
    """

    kind = "windowed_histogram"

    def __init__(self, name: str, help: str = "",
                 window_ms: float = DEFAULT_WINDOW_MS,
                 retention: int = DEFAULT_RETENTION,
                 clock: Callable[[], float] = wall_clock_ms,
                 compression: int = DEFAULT_COMPRESSION,
                 max_exemplars: int = DEFAULT_EXEMPLARS_PER_WINDOW):
        super().__init__(name, help)
        self.window_ms = float(window_ms)
        self.retention = int(retention)
        self.clock = clock
        self.compression = int(compression)
        self.max_exemplars = int(max_exemplars)

    def _new_series(self) -> WindowedSeries:
        return WindowedSeries(self.window_ms, self.retention, self.clock,
                              self.compression, self.max_exemplars)

    def observe(self, value: float, ts_ms: Optional[float] = None,
                exemplar: Optional[Exemplar] = None, **labels) -> None:
        with self._lock:
            self._get_series(labels).observe(value, ts_ms, exemplar)

    def series(self, **labels) -> WindowedSeries:
        with self._lock:
            return self._read_series(labels)

    def count(self, **labels) -> int:
        with self._lock:
            return self._read_series(labels).count

    def _series_snapshot(self, series: WindowedSeries) -> dict:
        return series.snapshot()
