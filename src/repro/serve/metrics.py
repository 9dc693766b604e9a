"""Per-request serving metrics: queue depth, batching, stage latencies.

The batcher records three stages for every served batch:

* **queue wait** — wall time between a request's submission and the start
  of its batch's inference (includes the deliberate coalescing wait);
* **inference wall time** — host-side time spent inside the engine call;
* **simulated GPU time** — the engine's :class:`ProfileLog` delta for the
  batch, i.e. the deformable kernel milliseconds the GPU model charged.

Everything lives on a :class:`~repro.obs.registry.MetricsRegistry` —
pass one in to share a metrics home with the engine (``repro trace``
does), or let the constructor create a private one.  Stage latencies are
:class:`~repro.obs.registry.Histogram` series backed by bounded
reservoirs: **counts and sums stay exact forever** while per-observation
memory is capped, so a serving process that handles millions of requests
holds steady-state memory (this replaces the unbounded per-request lists
that grew for the life of the process).

``snapshot()`` returns plain numbers so the CLI and benches can print or
assert without touching internals.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.obs.registry import MetricsRegistry


class ServingMetrics:
    """Metrics for one :class:`~repro.serve.RequestBatcher`.

    ``reservoir_size`` caps the per-stage latency sample buffers (totals
    and counts remain exact; percentiles become reservoir estimates once
    the cap is exceeded).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 reservoir_size: int = 1024):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        r = self.registry
        self._submitted = r.counter(
            "serve_requests_submitted", help="requests accepted by submit()")
        self._completed = r.counter(
            "serve_requests_completed", help="requests whose batch ran")
        self._failed = r.counter(
            "serve_requests_failed",
            help="requests whose batch raised in the engine")
        self._batch_failures = r.counter(
            "serve_batch_failures", help="batches that raised in the engine")
        self._depth = r.gauge(
            "serve_queue_depth", help="requests currently queued")
        self._peak_depth = r.gauge(
            "serve_peak_queue_depth", help="high-water queue depth")
        self._batches = r.counter(
            "serve_batches", help="served batches, labeled by batch size")
        self._queue_wait = r.histogram(
            "serve_queue_wait_seconds", reservoir_size=reservoir_size,
            help="submit-to-inference-start wall time per request")
        self._infer_wall = r.histogram(
            "serve_infer_wall_seconds", reservoir_size=reservoir_size,
            help="host wall time inside the engine call per batch")
        self._sim_ms = r.histogram(
            "serve_sim_ms_per_batch", reservoir_size=reservoir_size,
            help="simulated deformable GPU milliseconds per batch")

    # ------------------------------------------------------------------
    # recording hooks (called by the batcher)
    # ------------------------------------------------------------------
    def record_submit(self) -> None:
        with self._lock:
            self._submitted.inc()
            self._depth.inc()
            self._peak_depth.set_max(self._depth.value())

    def record_batch(self, size: int, queue_waits_s: List[float],
                     infer_wall_s: float, sim_ms: float,
                     failed: bool = False) -> None:
        """Record one attempted batch; ``failed=True`` when the engine call
        raised (the batch's requests count as failures, not completions)."""
        with self._lock:
            self._depth.dec(size)
            if failed:
                self._failed.inc(size)
                self._batch_failures.inc()
            else:
                self._completed.inc(size)
                self._batches.inc(size=size)
            for wait in queue_waits_s:
                self._queue_wait.observe(wait)
            self._infer_wall.observe(infer_wall_s)
            if not failed:
                self._sim_ms.observe(sim_ms)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def requests_submitted(self) -> int:
        return int(self._submitted.value())

    @property
    def requests_completed(self) -> int:
        return int(self._completed.value())

    @property
    def requests_failed(self) -> int:
        return int(self._failed.value())

    @property
    def batch_failures(self) -> int:
        return int(self._batch_failures.value())

    @property
    def queue_depth(self) -> int:
        return int(self._depth.value())

    @property
    def peak_queue_depth(self) -> int:
        return int(self._peak_depth.value())

    @property
    def num_batches(self) -> int:
        return sum(self.batch_size_histogram().values())

    @property
    def mean_batch_size(self) -> float:
        hist = self.batch_size_histogram()
        total = sum(s * n for s, n in hist.items())
        count = sum(hist.values())
        return total / count if count else 0.0

    @property
    def sim_ms_per_image(self) -> float:
        """Simulated deformable milliseconds per served image."""
        done = self.requests_completed
        return self._sim_ms.sum() / done if done else 0.0

    def batch_size_histogram(self) -> Dict[int, int]:
        hist = {int(labels["size"]): int(self._batches.value(**labels))
                for labels in self._batches.label_sets()}
        return dict(sorted(hist.items()))

    def snapshot(self) -> dict:
        """A flat, JSON-friendly view of everything recorded so far."""
        hist = self.batch_size_histogram()
        batches = sum(hist.values())
        completed = self.requests_completed
        waits = self._queue_wait.reservoir()
        infer = self._infer_wall.reservoir()
        sim_total = self._sim_ms.sum()
        return {
            "requests_submitted": self.requests_submitted,
            "requests_completed": completed,
            "requests_failed": self.requests_failed,
            "batch_failures": self.batch_failures,
            "queue_depth": self.queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "batches": batches,
            "batch_size_histogram": hist,
            "mean_batch_size": (completed / batches) if batches else 0.0,
            "queue_wait_ms_mean": 1e3 * waits.mean,
            "queue_wait_ms_p95": 1e3 * waits.percentile(95),
            "infer_wall_ms_mean": 1e3 * infer.mean,
            "sim_ms_total": float(sim_total),
            "sim_ms_per_image": (float(sim_total) / completed
                                 if completed else 0.0),
        }

    def summary(self, nvprof_rows: Optional[List[dict]] = None) -> str:
        """Human-readable report (optionally with the engine's nvprof table)."""
        from repro.pipeline.reporting import format_table

        snap = self.snapshot()
        rows = [[k, (f"{v:.4f}" if isinstance(v, float) else str(v))]
                for k, v in snap.items() if k != "batch_size_histogram"]
        hist = snap["batch_size_histogram"]
        rows.append(["batch_size_histogram",
                     " ".join(f"{s}:{n}" for s, n in hist.items()) or "-"])
        text = format_table(["metric", "value"], rows,
                            title="Serving metrics")
        if nvprof_rows:
            keys = list(nvprof_rows[0])
            text += "\n" + format_table(
                keys, [[r[k] for k in keys] for r in nvprof_rows],
                title="Engine nvprof counters")
        return text
