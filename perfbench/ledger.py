"""The traced run's per-layer ledger.

Spans come from two places.  The program already emits some through the
:class:`~repro.obs.tracer.SpanTracer` handed to ``DefconEngine`` and
``RequestBatcher`` (``engine.*``, ``plancache.build_*``/``retile``,
``serve.batch`` and the simGPU kernel spans).  The benchmark adds the
rest from outside: :class:`Ledger` wraps the public entry points of each
module listed in :data:`ENTRY_POINTS` for the duration of a traced run.
Spans stay in memory until the run writes the Chrome trace at the end.

A span's self time is its duration minus the part its child spans cover.
Self times are summed per layer metric over every span under a timed
root (``bench.call`` on the closed loops, ``serve.batch`` on ``serve``),
so the layer metrics add up to the traced total exactly.  A span whose
name maps to no metric (a span added inside the program later) is
transparent: its self time stays with the nearest ancestor that has one.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.autotune.tuner import TileTuner
from repro.deform.layers import DeformConv2d
from repro.gpusim.cache import TextureCacheModel
from repro.kernels.fused import FusedPlan
from repro.kernels.plancache import PlanCache
from repro.models.fpn import FPNLite
from repro.models.prediction_head import PredictionHead
from repro.models.protonet import ProtoNet
from repro.models.resnet import ResNetBackbone
from repro.models.yolact import YolactLite
from repro.nn import BatchNorm2d
from repro.nn import functional as F
from repro.nn.im2col import conv_output_size
from repro.obs.tracer import WALL_PID, SpanTracer
from repro.pipeline.engine import TextureRuntime

#: (owner, attribute, span name): the public entry points timed from
#: outside.  ``YolactLite.detect`` minus its nested sub-module forwards
#: is decode (NMS and mask assembly).
ENTRY_POINTS = (
    (F, "conv2d", "nn.conv2d"),
    (BatchNorm2d, "forward", "nn.batchnorm"),
    (ResNetBackbone, "forward", "models.backbone"),
    (FPNLite, "forward", "models.fpn"),
    (ProtoNet, "forward", "models.protonet"),
    (PredictionHead, "forward", "models.head"),
    (YolactLite, "detect", "models.decode"),
    (DeformConv2d, "forward", "deform.layer"),
    (TextureRuntime, "execute", "pipeline.dispatch"),
    (PlanCache, "tex_stats", "kernels.plancache"),
    (PlanCache, "fused_plan", "kernels.plancache"),
    (FusedPlan, "execute", "kernels.fused_execute"),
    (TextureCacheModel, "precompute", "gpusim.trace"),
    (TextureCacheModel, "simulate_retiled", "gpusim.trace"),
    (TileTuner, "best_tile", "autotune.tune"),
)

#: span name → self-time metric; names ending in "." match as prefixes
#: (the program's own ``engine.*``, ``plancache.*`` and ``serve.*`` spans)
SPAN_METRICS = {
    "nn.conv2d": "nn.conv2d_ms",
    "nn.batchnorm": "nn.batchnorm_ms",
    "models.backbone": "models.backbone_ms",
    "models.fpn": "models.fpn_ms",
    "models.protonet": "models.protonet_ms",
    "models.head": "models.head_ms",
    "models.decode": "models.decode_ms",
    "deform.layer": "deform.layer_ms",
    "pipeline.dispatch": "pipeline.dispatch_ms",
    "kernels.plancache": "kernels.plancache_ms",
    "kernels.fused_execute": "kernels.fused_execute_ms",
    "gpusim.trace": "gpusim.trace_ms",
    "bench.call": "bench.harness_ms",
    "engine.": "pipeline.engine_ms",
    "plancache.": "kernels.plancache_ms",
    "serve.": "serve.batch_ms",
}
SELF_TIME_METRICS = tuple(dict.fromkeys(SPAN_METRICS.values()))

#: root span name → the span argument holding its image count
ROOTS = {"bench.call": "images", "serve.batch": "size"}

#: slack (µs) when deciding whether a span ended before the next began
_EPS_US = 1e-6


class GatedTracer(SpanTracer):
    """A SpanTracer that records only while :attr:`enabled` is set.

    The traced run alternates traced and untraced requests in one
    process, so the difference between the two latency medians is the
    tracing overhead measured under identical conditions.
    """

    def __init__(self):
        super().__init__()
        self.enabled = False

    def span(self, name: str, cat: str = "wall", **args):
        if not self.enabled:
            return nullcontext(self)
        return SpanTracer.span(self, name, cat, **args)

    def record_kernel(self, stats) -> None:
        if self.enabled:
            super().record_kernel(stats)


def metric_of(name: str) -> Optional[str]:
    metric = SPAN_METRICS.get(name)
    if metric is None:
        for prefix, m in SPAN_METRICS.items():
            if prefix.endswith(".") and name.startswith(prefix):
                return m
    return metric


def self_times(events: List[dict]) -> Tuple[Dict[str, float], float, int]:
    """Per-metric self µs, traced total µs and images under timed roots.

    ``events`` are Chrome trace events; only complete host-timeline
    spans count.  Spans nest per thread, so a stack over each thread's
    spans sorted by (start, -duration) recovers every span's parent.
    """
    by_tid: Dict[int, List[dict]] = defaultdict(list)
    for e in events:
        if e.get("ph") == "X" and e.get("pid") == WALL_PID:
            by_tid[e["tid"]].append(e)
    totals: Dict[str, float] = defaultdict(float)
    traced_us = 0.0
    images = 0
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        frames = []       # [end, child_us, metric, timed, dur]
        stack = []
        for e in spans:
            while stack and stack[-1][0] <= e["ts"] + _EPS_US:
                stack.pop()
            parent = stack[-1] if stack else None
            if parent is None:
                timed = e["name"] in ROOTS
                if timed:
                    traced_us += e["dur"]
                    images += int(e["args"].get(ROOTS[e["name"]], 0))
            else:
                timed = parent[3]
                parent[1] += e["dur"]
            metric = metric_of(e["name"]) or (parent[2] if parent else None)
            frame = [e["ts"] + e["dur"], 0.0, metric, timed, e["dur"]]
            frames.append(frame)
            stack.append(frame)
        for _, child_us, metric, timed, dur in frames:
            if timed:
                totals[metric] += dur - child_us
    return dict(totals), traced_us, images


class Ledger:
    """Wraps the entry points while installed and keeps the counters the
    spans cannot: regular-conv calls and FLOPs of traced requests, and
    the wall time of tile tuning during set-up (traced or not)."""

    def __init__(self):
        self.tracer = GatedTracer()
        self.conv_calls = 0
        self.conv_flop = 0.0
        self.autotune_ms = 0.0
        self._saved = []

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self.tracer
        count = self._count_conv if name == "nn.conv2d" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                count(*args, **kwargs)
            with tracer.span(name, cat="bench"):
                return fn(*args, **kwargs)

        return traced

    def _wrap_tuner(self, fn, name: str):
        """Tile tuning runs inside set-up, where the gate is off: its wall
        time is kept whether or not the span is recorded."""
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                with tracer.span(name, cat="bench"):
                    return fn(*args, **kwargs)
            finally:
                self.autotune_ms += (time.perf_counter() - t0) * 1e3

        return traced

    def _count_conv(self, x, weight, bias=None, stride=1, padding=0,
                    dilation=1, groups=1):
        n, _, h, w = x.shape
        c_out, c_in_g, kh, kw = weight.shape
        oh = conv_output_size(h, kh, stride, padding, dilation)
        ow = conv_output_size(w, kw, stride, padding, dilation)
        self.conv_calls += 1
        self.conv_flop += 2.0 * n * c_out * oh * ow * c_in_g * kh * kw

    def install(self) -> "Ledger":
        for owner, attr, name in ENTRY_POINTS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            wrap = self._wrap_tuner if name == "autotune.tune" else self._wrap
            setattr(owner, attr, wrap(fn, name))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------
    def layer_times(self) -> Dict[str, float]:
        """Self ms per image for every layer metric, plus the traced
        total (``obs.traced_total_ms``) and per-image conv counts."""
        totals, traced_us, images = self_times(
            self.tracer.chrome_trace()["traceEvents"])
        per = max(images, 1)
        out = {m: totals.get(m, 0.0) / 1e3 / per for m in SELF_TIME_METRICS}
        out["obs.traced_total_ms"] = traced_us / 1e3 / per
        out["nn.conv2d_calls"] = self.conv_calls / per
        out["nn.conv2d_gflop"] = self.conv_flop / 1e9 / per
        out["traced_images"] = images
        return out
