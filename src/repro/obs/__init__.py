"""``repro.obs`` — the unified observability layer.

Three pillars (docs/observability.md):

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
* :mod:`repro.obs.timeseries` — windowed time series on an injectable
  clock: per-window exact aggregates + bounded quantile sketches, with
  exemplars linking observations back to tracer spans.
* :mod:`repro.obs.slo` — declarative :class:`SLO` specs evaluated per
  window into attainment tables, multi-window burn rates and error
  budgets; ``registry.to_prometheus()`` exposes everything as a
  Prometheus-style text exposition.
* :mod:`repro.obs.flightrec` — the bench-regression flight recorder:
  noise-aware comparison of ``results/BENCH_*.json`` snapshots
  (``repro bench compare``).
"""

from repro.obs.flightrec import (FlightReport, MetricRule, compare,
                                 run_compare)
from repro.obs.registry import (BoundedReservoir, Counter, Gauge, Histogram,
                                MetricsRegistry, prometheus_from_snapshot)
from repro.obs.slo import (SLO, SLOReport, evaluate_slo, evaluate_slos,
                           format_slo_table)
from repro.obs.timeseries import (Exemplar, QuantileSketch, WindowedHistogram,
                                  WindowedSeries)
from repro.obs.tracer import SpanTracer

__all__ = [
    "BoundedReservoir", "Counter", "Exemplar", "FlightReport", "Gauge",
    "Histogram", "MetricRule", "MetricsRegistry", "QuantileSketch", "SLO",
    "SLOReport", "SpanTracer", "WindowedHistogram", "WindowedSeries",
    "compare", "evaluate_slo", "evaluate_slos", "format_slo_table",
    "prometheus_from_snapshot", "run_compare",
]
