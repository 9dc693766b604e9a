"""Span tracer — wall-time spans interleaved with simulated-GPU kernel spans.

Two timelines share one trace:

* **host** (pid 1): nested wall-clock spans opened with
  :meth:`SpanTracer.span` — serve → batch → engine call.  One Chrome track
  per thread.
* **simGPU** (pid 2): one span per simulated kernel launch
  (:class:`~repro.gpusim.profiler.KernelStats`), laid out back-to-back on
  a virtual timeline whose unit is the *simulated* microsecond.  Each span
  carries the kernel name plus its ``layer``/``geometry`` attribution, so
  the paper's per-layer tables are visible directly in the trace viewer.

``chrome_trace()`` emits the Chrome trace-event JSON format (complete
``"X"`` events + ``"M"`` metadata), loadable in ``chrome://tracing`` and
Perfetto; ``flame_summary()`` renders an aggregated text flame view for
terminals and CI logs.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

#: Chrome trace pids for the two timelines.
WALL_PID = 1
SIM_PID = 2


def maybe_span(tracer: Optional["SpanTracer"], name: str,
               cat: str = "wall", **args):
    """``tracer.span(name, cat, **args)``, or a no-op context manager
    when ``tracer`` is None — so traced and untraced callers share one
    code path."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cat=cat, **args)


class SpanTracer:
    """Collects spans; thread-safe; export via :meth:`chrome_trace`.

    ``clock`` is injectable (seconds, monotonic) so tests can drive a fake
    clock and get byte-identical traces.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._events: List[dict] = []
        self._sim_cursor_us = 0.0
        self._sim_launches = 0
        #: thread ident -> (compact tid, thread name)
        self._tids: Dict[int, int] = {}
        self._thread_names: Dict[int, str] = {}
        self._stacks: Dict[int, List[str]] = {}
        #: flame aggregation: "a;b;c" -> [total_us, count]
        self._flame: Dict[str, List[float]] = {}
        #: monotonically increasing span ids ("s1", "s2", ...) — the
        #: handles exemplars carry so a violated SLO window can name the
        #: exact span that served the offending request
        self._next_span_id = 0
        self._span_stacks: Dict[int, List[str]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _now_us(self) -> float:
        return (self._clock() - self._t0) * 1e6

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[ident] = tid
            self._thread_names[tid] = threading.current_thread().name
        return tid

    def _record_flame(self, path: str, dur_us: float) -> None:
        agg = self._flame.setdefault(path, [0.0, 0])
        agg[0] += dur_us
        agg[1] += 1

    @contextmanager
    def span(self, name: str, cat: str = "wall", **args):
        """Open a nested wall-time span on the current thread.

        Every span gets a process-unique id (``"s1"``, ``"s2"``, ...)
        recorded in its ``args`` — :meth:`current_span_id` reads the
        innermost open one, which is what metric exemplars carry.
        """
        with self._lock:
            tid = self._tid()
            stack = self._stacks.setdefault(tid, [])
            stack.append(name)
            path = ";".join(stack)
            ts = self._now_us()
            self._next_span_id += 1
            span_id = f"s{self._next_span_id}"
            self._span_stacks.setdefault(tid, []).append(span_id)
        try:
            yield self
        finally:
            with self._lock:
                dur = max(0.0, self._now_us() - ts)
                self._events.append({
                    "name": name, "cat": cat, "ph": "X",
                    "ts": ts, "dur": dur, "pid": WALL_PID, "tid": tid,
                    "args": {"span_id": span_id,
                             **{str(k): v for k, v in args.items()}},
                })
                self._record_flame(path, dur)
                stack = self._stacks.get(tid)
                if stack and stack[-1] == name:
                    stack.pop()
                ids = self._span_stacks.get(tid)
                if ids and ids[-1] == span_id:
                    ids.pop()

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost span open on the current thread (or None)."""
        with self._lock:
            ids = self._span_stacks.get(self._tids.get(
                threading.get_ident(), -1))
            return ids[-1] if ids else None

    def record_kernel(self, stats) -> None:
        """Append one simulated kernel launch to the simGPU timeline.

        Accepts any object with ``name``/``duration_ms`` and optional
        ``layer``/``geometry``/``mflop`` attributes (KernelStats).
        """
        layer = getattr(stats, "layer", "") or "(unattributed)"
        geometry = getattr(stats, "geometry", "")
        with self._lock:
            ts = self._sim_cursor_us
            dur = max(0.0, float(stats.duration_ms) * 1e3)
            self._sim_cursor_us = ts + dur
            self._sim_launches += 1
            self._events.append({
                "name": stats.name or "kernel", "cat": "sim_kernel",
                "ph": "X", "ts": ts, "dur": dur, "pid": SIM_PID, "tid": 1,
                "args": {
                    "layer": layer, "geometry": geometry,
                    "mflop": round(getattr(stats, "mflop", 0.0), 3),
                },
            })
            self._record_flame(
                f"simGPU;{layer};{stats.name or 'kernel'}", dur)

    def attach(self, log) -> "SpanTracer":
        """Subscribe to a :class:`~repro.gpusim.profiler.ProfileLog` so
        every future kernel launch lands on the simGPU timeline."""
        log.subscribe(self.record_kernel)
        return self

    def instant(self, name: str, cat: str = "mark", **args) -> None:
        """A zero-duration instant event on the current thread's track."""
        with self._lock:
            self._events.append({
                "name": name, "cat": cat, "ph": "i", "s": "t",
                "ts": self._now_us(), "pid": WALL_PID, "tid": self._tid(),
                "args": {str(k): v for k, v in args.items()},
            })

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def sim_time_us(self) -> float:
        """Total simulated-GPU time placed on the simGPU track."""
        with self._lock:
            return self._sim_cursor_us

    def _metadata_events(self) -> List[dict]:
        meta = [
            {"name": "process_name", "ph": "M", "pid": WALL_PID, "tid": 0,
             "args": {"name": "host (wall time)"}},
            {"name": "process_name", "ph": "M", "pid": SIM_PID, "tid": 0,
             "args": {"name": "simGPU (simulated time)"}},
            {"name": "thread_name", "ph": "M", "pid": SIM_PID, "tid": 1,
             "args": {"name": "kernel launches"}},
        ]
        for tid, tname in sorted(self._thread_names.items()):
            meta.append({"name": "thread_name", "ph": "M", "pid": WALL_PID,
                         "tid": tid, "args": {"name": tname}})
        return meta

    def chrome_trace(self) -> dict:
        """The Chrome trace-event JSON object (``{"traceEvents": [...]}``).

        Events are sorted by (pid, tid, ts, -dur, name), so export order is
        a pure function of the recorded spans — deterministic under a
        deterministic clock.
        """
        with self._lock:
            events = sorted(
                self._events,
                key=lambda e: (e["pid"], e["tid"], e["ts"],
                               -e.get("dur", 0.0), e["name"]))
            meta = self._metadata_events()
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def flame_summary(self, min_us: float = 0.0,
                      top: Optional[int] = None) -> str:
        """Aggregated text flame view: one line per span path.

        Host paths aggregate wall time; ``simGPU;...`` paths aggregate
        simulated time — the two units share the table but never mix in
        one row.  Rows sort by total time descending with the span path
        as a deterministic tie-break, so equal-duration rows (common
        under fake clocks and in CI logs) always print in the same
        order.  ``top`` keeps only the N largest rows after the
        ``min_us`` filter.
        """
        with self._lock:
            rows = sorted(self._flame.items(),
                          key=lambda kv: (-kv[1][0], kv[0]))
        kept = [(path, us, count) for path, (us, count) in rows
                if us >= min_us]
        if top is not None:
            kept = kept[:max(0, int(top))]
        lines = ["flame summary (self+children us, count, path)"]
        for path, us, count in kept:
            depth = path.count(";")
            leaf = path.rsplit(";", 1)[-1]
            lines.append(f"{us:12.1f}  {int(count):6d}  "
                         f"{'  ' * depth}{leaf}")
        return "\n".join(lines)
