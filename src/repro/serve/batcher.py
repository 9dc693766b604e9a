"""Dynamic request batching for :class:`~repro.pipeline.engine.DefconEngine`.

Individual images arrive one at a time (a detection request per camera
frame, a classification request per upload); the simulated GPU — like the
real one — amortises its fixed per-launch overhead over the batch
dimension, so serving them one by one wastes most of the device.  The
batcher coalesces requests into batched ``detect`` / ``classify`` calls:

* pending requests are bucketed **per image shape** (only same-shaped
  images can stack into one tensor), so a stream of interleaved shapes
  does not suffer head-of-line blocking: a differently-shaped arrival
  joins its own bucket instead of force-closing the current batch;
* within a bucket the classic size-or-deadline policy applies: a batch
  closes when its bucket reaches ``max_batch_size`` **or** when the
  oldest request in any bucket has waited ``max_wait_s``;
* buckets are served oldest-request-first, so cross-shape fairness is
  FIFO in submission order;
* every request gets a :class:`concurrent.futures.Future`, so callers can
  block, poll, or fan out; engine failures propagate to exactly the
  futures of the failed batch.

The batching core is synchronous and deterministic — ``flush()`` drains the
queue on the caller's thread, which is what the tests and throughput bench
use.  ``start()`` adds a daemon worker thread for live serving, where the
``max_wait_s`` deadline actually matters.

Shutdown is fail-fast: once :meth:`close` runs, every still-queued request
is either served (``flush=True``, the default) or has its future resolved
with :class:`BatcherClosedError`; later ``submit()`` / ``start()`` calls
raise :class:`BatcherClosedError` immediately instead of silently
enqueueing work no thread will ever drain.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.yolact import YolactLite
from repro.obs.tracer import maybe_span
from repro.serve.metrics import ServingMetrics

#: keyword options each task forwards to the engine: ``detect`` takes
#: ``YolactLite.detect``'s, bar the images and the ids the batcher sets
TASK_OPTIONS = {
    "classify": frozenset(),
    "detect": frozenset(inspect.signature(YolactLite.detect).parameters)
    - {"self", "images", "image_ids"},
}


class BatcherClosedError(RuntimeError):
    """Raised by ``submit()``/``start()`` after ``close()``, and set on the
    futures of requests the batcher discarded instead of serving."""


@dataclass
class _Request:
    """One submitted image and its promise."""

    id: int
    image: np.ndarray                 # (C, H, W)
    future: Future = field(default_factory=Future)
    submit_t: float = 0.0


class RequestBatcher:
    """Coalesce single-image requests into batched engine calls.

    Parameters
    ----------
    engine:
        Anything with ``classify(images)`` (``task='classify'``) or
        ``detect(images, **kwargs)`` (``task='detect'``) over an
        (N, C, H, W) array, plus — optionally — a ``log.total_ms`` for
        simulated-latency accounting (``DefconEngine`` has all three).
    task:
        'classify' → each future resolves to that image's predicted label;
        'detect'  → each future resolves to the list of
        :class:`~repro.data.coco_map.Detection` for that image, with
        ``image_id`` rewritten to the request id.
    max_batch_size / max_wait_s:
        The size-or-deadline batching policy (applied per shape bucket).
    task_kwargs:
        Options forwarded to every engine call, from the task's
        :data:`TASK_OPTIONS`; any other keyword raises ``TypeError`` here.
    """

    def __init__(self, engine, task: str = "classify",
                 max_batch_size: int = 8, max_wait_s: float = 0.02,
                 metrics: Optional[ServingMetrics] = None,
                 clock: Callable[[], float] = time.monotonic,
                 tracer=None, **task_kwargs):
        if task not in TASK_OPTIONS:
            raise ValueError(f"unknown task {task!r}; "
                             f"choose from {tuple(TASK_OPTIONS)}")
        unknown = sorted(set(task_kwargs) - TASK_OPTIONS[task])
        if unknown:
            raise TypeError(
                f"task {task!r} takes no option {', '.join(unknown)}; it "
                f"takes {sorted(TASK_OPTIONS[task]) or 'none'}")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.engine = engine
        self.task = task
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.metrics = metrics if metrics is not None else ServingMetrics()
        #: optional repro.obs.SpanTracer — wraps every served batch in a
        #: wall-time span (pass the same tracer to the engine to interleave
        #: the simulated kernel spans underneath)
        self.tracer = tracer
        self.task_kwargs = task_kwargs
        self._clock = clock
        #: per-shape FIFO sub-queues; insertion order of the dict is the
        #: order buckets first appeared, but service order is decided by
        #: the oldest request id across bucket heads
        self._buckets: "OrderedDict[Tuple[int, ...], deque]" = OrderedDict()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._next_id = 0
        self._worker: Optional[threading.Thread] = None
        self._stopping = False
        self._closed = False

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray) -> Future:
        """Enqueue one (C, H, W) image; returns the result future."""
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 3:
            raise ValueError(
                f"submit() takes one (C, H, W) image, got shape "
                f"{image.shape}; batching is the batcher's job")
        with self._lock:
            if self._closed or self._stopping:
                raise BatcherClosedError(
                    "batcher is closed; submit() after close() would "
                    "enqueue work no thread will drain")
            req = _Request(id=self._next_id, image=image,
                           submit_t=self._clock())
            self._next_id += 1
            bucket = self._buckets.get(image.shape)
            if bucket is None:
                bucket = deque()
                self._buckets[image.shape] = bucket
            bucket.append(req)
            self.metrics.record_submit()
            self._wakeup.notify()
        return req.future

    def submit_many(self, images: Sequence[np.ndarray]) -> List[Future]:
        return [self.submit(img) for img in images]

    def serve_all(self, images: Sequence[np.ndarray]) -> List[object]:
        """Submit everything, drain synchronously, return ordered results."""
        futures = self.submit_many(images)
        if self._worker is None:
            self.flush()
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # batching core (synchronous, deterministic)
    # ------------------------------------------------------------------
    def _pending_count_locked(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def _oldest_bucket_locked(self) -> Optional[Tuple[int, ...]]:
        """The shape whose head request was submitted first (lowest id)."""
        oldest_shape = None
        oldest_id = None
        for shape, bucket in self._buckets.items():
            if bucket and (oldest_id is None or bucket[0].id < oldest_id):
                oldest_id = bucket[0].id
                oldest_shape = shape
        return oldest_shape

    def _take_batch(self) -> List[_Request]:
        """Pop the next batch: the oldest bucket's head run, capped at
        max_batch_size.  Requests of other shapes stay queued in their own
        buckets (no head-of-line blocking across shapes)."""
        with self._lock:
            shape = self._oldest_bucket_locked()
            if shape is None:
                return []
            bucket = self._buckets[shape]
            batch = [bucket.popleft()]
            while bucket and len(batch) < self.max_batch_size:
                batch.append(bucket.popleft())
            if not bucket:
                del self._buckets[shape]
            return batch

    def _serve_batch(self, batch: List[_Request]) -> None:
        with maybe_span(self.tracer, "serve.batch", cat="serve",
                        size=len(batch), first_request=batch[0].id):
            images = np.stack([r.image for r in batch])
            t0 = self._clock()
            waits = [t0 - r.submit_t for r in batch]
            sim0 = self._engine_sim_ms()
            try:
                if self.task == "classify":
                    labels = self.engine.classify(images)
                    results = [labels[i] for i in range(len(batch))]
                else:
                    dets = self.engine.detect(images, **self.task_kwargs)
                    results = self._split_detections(dets, batch)
            except BaseException as exc:   # propagate to exactly this batch
                for r in batch:
                    r.future.set_exception(exc)
                self.metrics.record_batch(len(batch), waits,
                                          self._clock() - t0, 0.0,
                                          failed=True)
                return
            sim_ms = self._engine_sim_ms() - sim0
            self.metrics.record_batch(len(batch), waits, self._clock() - t0,
                                      sim_ms)
            for r, res in zip(batch, results):
                r.future.set_result(res)

    def _engine_sim_ms(self) -> float:
        log = getattr(self.engine, "log", None)
        return float(log.total_ms) if log is not None else 0.0

    @staticmethod
    def _split_detections(dets, batch: List[_Request]) -> List[list]:
        """Group a batched detect()'s flat list back per request."""
        from dataclasses import replace

        per_image: List[list] = [[] for _ in batch]
        for det in dets:
            idx = int(det.image_id)
            per_image[idx].append(replace(det, image_id=batch[idx].id))
        return per_image

    def flush(self) -> int:
        """Serve every pending request now (caller's thread); returns the
        number of requests served."""
        served = 0
        while True:
            batch = self._take_batch()
            if not batch:
                return served
            self._serve_batch(batch)
            served += len(batch)

    # ------------------------------------------------------------------
    # threaded front-end
    # ------------------------------------------------------------------
    def start(self) -> "RequestBatcher":
        """Run a daemon worker that applies the size-or-deadline policy."""
        with self._lock:
            if self._closed:
                raise BatcherClosedError("batcher is closed; create a new "
                                         "one instead of restarting")
        if self._worker is not None:
            return self
        self._stopping = False
        self._worker = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-batcher")
        self._worker.start()
        return self

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._pending_count_locked() and not self._stopping:
                    self._wakeup.wait(timeout=0.05)
                if self._stopping and not self._pending_count_locked():
                    return
                shape = self._oldest_bucket_locked()
                oldest = self._buckets[shape][0].submit_t
            # Coalesce: wait until some bucket is full or the oldest
            # request's deadline passes (closing immediately when told to
            # stop).
            deadline = oldest + self.max_wait_s
            while not self._stopping:
                with self._lock:
                    full = any(len(b) >= self.max_batch_size
                               for b in self._buckets.values())
                if full or self._clock() >= deadline:
                    break
                time.sleep(min(0.001, max(0.0, deadline - self._clock())))
            batch = self._take_batch()
            if batch:
                self._serve_batch(batch)

    def close(self, flush: bool = True) -> None:
        """Stop the worker and seal the batcher (idempotent).

        ``flush=True`` (default) serves whatever is still queued on the
        caller's thread; ``flush=False`` resolves every in-flight future
        with :class:`BatcherClosedError` — either way no future is left
        dangling, and subsequent ``submit()``/``start()`` raise.
        """
        worker = self._worker
        with self._lock:
            self._stopping = True
            self._closed = True
            self._wakeup.notify_all()
        if worker is not None:
            worker.join(timeout=5.0)
            self._worker = None
        if flush:
            self.flush()
        else:
            while True:
                batch = self._take_batch()
                if not batch:
                    break
                for r in batch:
                    r.future.set_exception(BatcherClosedError(
                        "batcher closed before serving this request"))

    def __enter__(self) -> "RequestBatcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
