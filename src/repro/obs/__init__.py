"""``repro.obs`` — the unified observability layer.

Its parts (docs/observability.md):

* :mod:`repro.obs.registry` — a labeled metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`) every subsystem
  registers onto instead of hand-rolling counters.  Histograms are backed
  by :class:`BoundedReservoir`, so totals stay exact while memory stays
  bounded no matter how long a serving process runs.
* :mod:`repro.obs.tracer` — :class:`SpanTracer`: nested wall-time spans
  interleaved with simulated-GPU kernel spans, exportable as Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto) or a text flame
  summary.
* per-layer kernel attribution — ``layer``/``geometry`` tags threaded from
  :class:`~repro.deform.layers.DeformConv2d` through the dispatch layer
  into :class:`~repro.gpusim.profiler.KernelStats`, surfaced by
  ``ProfileLog.by_layer()`` and ``DefconEngine.per_layer_rows()``.
* ``registry.to_prometheus()`` / :func:`prometheus_from_snapshot` —
  Prometheus-style text exposition of a live registry or a saved
  ``metrics.json`` (``repro metrics export``).
* :mod:`repro.obs.flightrec` — the bench-regression flight recorder:
  noise-aware comparison of ``results/BENCH_*.json`` snapshots
  (``repro bench compare``).
"""

from repro.obs.flightrec import (FlightReport, MetricRule, compare,
                                 run_compare)
from repro.obs.registry import (BoundedReservoir, Counter, Gauge, Histogram,
                                MetricsRegistry, prometheus_from_snapshot)
from repro.obs.tracer import SpanTracer

__all__ = [
    "BoundedReservoir", "Counter", "FlightReport", "Gauge", "Histogram",
    "MetricRule", "MetricsRegistry", "SpanTracer", "compare",
    "prometheus_from_snapshot", "run_compare",
]
