"""Labeled metrics registry — one home for every subsystem's counters.

Prometheus-shaped but dependency-free: a :class:`MetricsRegistry` owns
named metrics, each metric owns one series per label set, and everything
is thread-safe.  ``snapshot()`` / ``to_json()`` give a stable,
machine-readable view (the ``metrics.json`` the ``repro trace`` CLI
writes).

:class:`Histogram` series are backed by :class:`BoundedReservoir`:
**count / sum / min / max are exact forever**, while the per-series sample
buffer is capped (uniform reservoir sampling, seeded → deterministic), so
percentiles are approximate but memory never grows with the number of
observations — the property long-running serving needs.
"""

from __future__ import annotations

import json
import random
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    # most series carry no label or one: nothing to sort
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class BoundedReservoir:
    """Exact running aggregates + a bounded uniform sample.

    ``add()`` is O(1); the sample follows Vitter's algorithm R, so after
    ``n`` observations every value had probability ``capacity / n`` of
    being retained — percentiles computed from the sample are unbiased
    estimates.  The RNG is seeded, so a fixed observation sequence yields
    a fixed sample (deterministic tests).
    """

    def __init__(self, capacity: int = 1024, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._sample: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._sample) < self.capacity:
            self._sample.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < self.capacity:
                self._sample[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def values(self) -> List[float]:
        """The retained sample (NOT all observations once count > capacity)."""
        return list(self._sample)

    def percentile(self, q: float) -> float:
        if not self._sample:
            return 0.0
        return float(np.percentile(
            np.asarray(self._sample, dtype=np.float64), q))

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "sample_size": len(self._sample),
        }


class Metric:
    """Base: one named metric holding one series per label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, object] = {}

    def _get_series(self, labels: Dict[str, str]):
        """The label set's series, created on first use (writers only)."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._new_series()
            self._series[key] = series
        return series

    def _read_series(self, labels: Dict[str, str]):
        """The label set's series, or an empty one that is *not* stored —
        reading never adds a series, so snapshots reflect observations
        only."""
        series = self._series.get(_label_key(labels))
        return series if series is not None else self._new_series()

    def _new_series(self):
        raise NotImplementedError

    def label_sets(self) -> List[Dict[str, str]]:
        """Label sets with at least one series, in snapshot order (sorted
        by the series' label-key tuples — see :meth:`snapshot`)."""
        with self._lock:
            return [dict(k) for k in sorted(self._series)]

    def snapshot(self) -> dict:
        """One metric's snapshot, in the documented stable order.

        Series are sorted by their label-key tuples (label names and
        values, both ascending), so two runs that record the same
        observations produce byte-identical snapshots regardless of
        insertion order — the property snapshot diffs and the
        bench-compare flight recorder rely on.
        """
        with self._lock:
            series = [{"labels": dict(key), **self._series_snapshot(s)}
                      for key, s in sorted(self._series.items())]
        return {"kind": self.kind, "help": self.help, "series": series}

    def _series_snapshot(self, series) -> dict:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def _new_series(self):
        return [0.0]

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._get_series(labels)[0] += amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._read_series(labels)[0])

    def _series_snapshot(self, series) -> dict:
        return {"value": series[0]}


class Gauge(Metric):
    """A value that can go up and down (queue depth, cache size, ...)."""

    kind = "gauge"

    def _new_series(self):
        return [0.0]

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._get_series(labels)[0] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        with self._lock:
            self._get_series(labels)[0] += amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels) -> None:
        """Atomically raise the gauge to ``value`` if it is higher."""
        with self._lock:
            series = self._get_series(labels)
            series[0] = max(series[0], float(value))

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._read_series(labels)[0])

    def _series_snapshot(self, series) -> dict:
        return {"value": series[0]}


class Histogram(Metric):
    """Distribution metric: exact totals, reservoir-bounded percentiles."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 reservoir_size: int = 1024, seed: int = 0):
        super().__init__(name, help)
        self.reservoir_size = reservoir_size
        self.seed = seed

    def _new_series(self) -> BoundedReservoir:
        return BoundedReservoir(self.reservoir_size, seed=self.seed)

    def observe(self, value: float, **labels) -> None:
        with self._lock:
            self._get_series(labels).add(value)

    def reservoir(self, **labels) -> BoundedReservoir:
        with self._lock:
            return self._read_series(labels)

    def count(self, **labels) -> int:
        with self._lock:
            return self._read_series(labels).count

    def sum(self, **labels) -> float:
        with self._lock:
            return self._read_series(labels).total

    def mean(self, **labels) -> float:
        with self._lock:
            return self._read_series(labels).mean

    def percentile(self, q: float, **labels) -> float:
        with self._lock:
            return self._read_series(labels).percentile(q)

    def _series_snapshot(self, series: BoundedReservoir) -> dict:
        return series.snapshot()


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe collection of named metrics.

    Registration is idempotent — asking twice for the same (name, kind)
    returns the same object, so independent subsystems can share series
    without coordination; asking for an existing name with a *different*
    kind raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _register(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help=help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  reservoir_size: int = 1024, seed: int = 0) -> Histogram:
        return self._register(Histogram, name, help,
                              reservoir_size=reservoir_size, seed=seed)

    def windowed_histogram(self, name: str, help: str = "", **kwargs):
        """A :class:`~repro.obs.timeseries.WindowedHistogram` — per-window
        count/sum/min/max + quantile sketches on an injectable clock
        (``window_ms= retention= clock= compression=`` keyword args;
        see :mod:`repro.obs.timeseries`).  Like every other kind,
        registration is idempotent: the first caller's window/clock
        configuration wins."""
        from repro.obs.timeseries import WindowedHistogram
        return self._register(WindowedHistogram, name, help, **kwargs)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def snapshot(self) -> dict:
        """``{metric_name: {kind, help, series: [{labels, ...}]}}``.

        **Stable order contract** (snapshot diffs and the bench-compare
        flight recorder depend on it): metric names ascending, each
        metric's series sorted by its label-key tuples (label names and
        values ascending), and :meth:`to_json` serialises with
        ``sort_keys=True`` — so two runs recording the same observations
        emit byte-identical JSON regardless of registration or
        observation interleaving.
        """
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    # ------------------------------------------------------------------
    # Prometheus-style text exposition
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus-style text exposition of every metric.

        Counters and gauges expose one sample per label set; histograms
        and windowed histograms expose summary-style ``quantile`` samples
        plus exact ``_count`` / ``_sum`` samples.  Windowed-histogram
        quantiles aggregate the retained windows, and their worst
        retained exemplar rides the p99 sample as an OpenMetrics-style
        ``# {span_id="..."}`` annotation — the hook SLO tooling and
        scrape-side dashboards use to jump into the trace.  Output order
        follows the :meth:`snapshot` contract, so it is byte-stable.
        """
        return prometheus_from_snapshot(self.snapshot())

    def write_prometheus(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())


def prometheus_from_snapshot(snapshot: Dict[str, dict]) -> str:
    """Prometheus text exposition from a :meth:`MetricsRegistry.snapshot`
    dict — live (what :meth:`MetricsRegistry.to_prometheus` passes) or
    re-loaded from a ``metrics.json`` file (what ``repro metrics export``
    passes), so any saved snapshot is scrapeable after the fact."""
    lines: List[str] = []
    for name, snap in sorted(snapshot.items()):
        kind = snap["kind"]
        prom_type = {"counter": "counter", "gauge": "gauge",
                     "histogram": "summary",
                     "windowed_histogram": "summary"}.get(kind, "untyped")
        if snap.get("help"):
            lines.append(f"# HELP {name} {snap['help']}")
        lines.append(f"# TYPE {name} {prom_type}")
        for series in snap["series"]:
            labels = series["labels"]
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_fmt_labels(labels)} "
                             f"{_fmt_value(series['value'])}")
                continue
            for q_key, q in (("p50", "0.5"), ("p95", "0.95"),
                             ("p99", "0.99")):
                value = series.get(q_key)
                if value is None and kind == "windowed_histogram":
                    value = _windowed_quantile(series, q_key)
                sample = (f"{name}"
                          f"{_fmt_labels(labels, quantile=q)} "
                          f"{_fmt_value(value or 0.0)}")
                if q_key == "p99":
                    exemplar = _worst_exemplar(series)
                    if exemplar is not None:
                        sample += (f" # {{span_id=\""
                                   f"{exemplar['span_id']}\"}} "
                                   f"{_fmt_value(exemplar['value'])}")
                lines.append(sample)
            lines.append(f"{name}_count{_fmt_labels(labels)} "
                         f"{_fmt_value(series['count'])}")
            lines.append(f"{name}_sum{_fmt_labels(labels)} "
                         f"{_fmt_value(series['sum'])}")
    return "\n".join(lines) + "\n"


def _fmt_value(value) -> str:
    return f"{float(value):.10g}"


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _fmt_labels(labels: Dict[str, str], **extra) -> str:
    items = sorted({**labels, **extra}.items())
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


def _windowed_quantile(series_snap: dict, q_key: str) -> float:
    """Aggregate a windowed-histogram series snapshot to one quantile.

    Snapshot-level fallback (count-weighted mean of per-window
    quantiles); live series use the exact merged sketch instead.
    """
    wins = [w for w in series_snap.get("windows", []) if w.get("count")]
    total = sum(w["count"] for w in wins)
    if not total:
        return 0.0
    return sum(w[q_key] * w["count"] for w in wins) / total


def _worst_exemplar(series_snap: dict) -> Optional[dict]:
    worst = None
    for win in series_snap.get("windows", []):
        for ex in win.get("exemplars", []):
            if worst is None or ex["value"] > worst["value"]:
                worst = ex
    return worst
