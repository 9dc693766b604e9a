"""Streaming serving: delta-keyed plan cache vs exact keying.

Not a paper figure — this bench guards the streaming-video subsystem
(docs/streaming.md).  A video stream produces a *new* offset digest every
frame, so the exact-keyed plan cache rebuilds its fetch trace, re-runs
the cache simulation and recompiles the fused plan per frame.  The
delta-keyed mode anchors each session once and serves in-bound frames by
compiling only each frame's tap tables, run on the session's warm work
buffers — outputs stay bit-identical (the tables come from each frame's
real offsets), only the memoised perf simulation is reused.

Three measurements:

* **steady state** — per-frame fused serving of one stream at stride 1:
  delta keying must be ≥1.5× faster than exact keying, with every
  frame's output bit-identical between the two modes;
* **hit rate vs stride** — sampling every s-th frame grows the offset
  delta, so the delta-hit-rate must fall monotonically with stride;
* **concurrent streams** — K round-robin streams against a plan cache
  with ``max_entries`` < K: LRU pressure evicts anchors (counted), and
  the hit rate degrades as K grows past the cache capacity.

The CI ``streaming-smoke`` job runs this on every push.
"""

import time

import numpy as np

from repro.data.video import VideoStream
from repro.gpusim import XAVIER
from repro.kernels import LayerConfig, PlanCache
from repro.kernels.tex2d import run_tex2d
from repro.pipeline import format_table

from common import run_once, write_bench_json, write_result

#: geometry bound to the stream's offset tensor: 3x3, dg=1 → 18 offset
#: channels on the 32x32 output grid
CFG = LayerConfig(32, 32, 32, 32)
OFFSET_SHAPE = (1, 18, 32, 32)
FRAMES = 12
STRIDES = (1, 2, 4, 8)
STREAM_COUNTS = (2, 4, 6)
MAX_ENTRIES = 4
#: frame-to-frame offsets move ≤0.25; the bound gives ~2.6× headroom so
#: a session re-anchors only every few frames of accumulated drift
FRAME_DELTA = 0.25
DELTA_BOUND = 0.65
ROUNDS = 2


def _stream(seed=0):
    return VideoStream(num_frames=None, seed=seed,
                       offset_shape=OFFSET_SHAPE,
                       offset_sigma=2.0, frame_delta=FRAME_DELTA)


def _inputs(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=CFG.input_shape()).astype(np.float32)
    w = (rng.normal(size=CFG.weight_shape()) / np.sqrt(CFG.in_channels * 9)
         ).astype(np.float32)
    b = rng.normal(size=(CFG.out_channels,)).astype(np.float32)
    return x, w, b


def _serve(x, w, b, offs, pc, session):
    """Fused-serve one offset sequence; per-frame seconds + outputs."""
    times, outs = [], []
    for off in offs:
        t0 = time.perf_counter()
        res = run_tex2d(x, off, w, b, CFG, XAVIER, plan_cache=pc,
                        session=session)
        times.append(time.perf_counter() - t0)
        outs.append(res.output)
    return times, outs


def _steady_state():
    """Stride-1 fused serving, exact keying vs delta keying."""
    x, w, b = _inputs()
    offs = [_stream().offsets(t) for t in range(FRAMES)]
    best = {"exact": float("inf"), "delta": float("inf")}
    hits = 0
    for _ in range(ROUNDS):
        # fresh caches each round: every round pays the same anchor
        # frame, and the steady state is frames 1..N-1; the per-round
        # *minimum* is the statistic (CI load only inflates samples)
        t_exact, out_exact = _serve(x, w, b, offs,
                                    PlanCache(max_entries=64), None)
        pc = PlanCache(max_entries=64, delta_bound=DELTA_BOUND)
        t_delta, out_delta = _serve(x, w, b, offs, pc, "bench")
        for t, (a, d) in enumerate(zip(out_exact, out_delta)):
            assert np.array_equal(a, d), f"delta output drifted, frame {t}"
        hits = pc.stats.delta_hits
        assert hits > 0, "delta keying never hit"
        best["exact"] = min(best["exact"], sum(t_exact[1:]))
        best["delta"] = min(best["delta"], sum(t_delta[1:]))
    exact_ms = best["exact"] * 1e3 / (FRAMES - 1)
    delta_ms = best["delta"] * 1e3 / (FRAMES - 1)
    return exact_ms, delta_ms, exact_ms / delta_ms, hits


def _hit_rate_vs_stride():
    """Delta-hit-rate sampling every s-th frame of one stream."""
    x, w, b = _inputs()
    stream = _stream()
    rates = {}
    for s in STRIDES:
        offs = [stream.offsets(t * s) for t in range(FRAMES)]
        pc = PlanCache(max_entries=64, delta_bound=DELTA_BOUND)
        _serve(x, w, b, offs, pc, f"stride-{s}")
        # each fused frame makes two delta-able lookups (fused plan +
        # memoised perf stats); the anchor frame makes none
        rates[s] = pc.stats.delta_hits / (2 * (FRAMES - 1))
    return rates


def _concurrent_streams():
    """K round-robin streams vs a cache with max_entries < max(K)."""
    x, w, b = _inputs()
    out = {}
    for k in STREAM_COUNTS:
        streams = [_stream(seed=s) for s in range(k)]
        pc = PlanCache(max_entries=MAX_ENTRIES, delta_bound=DELTA_BOUND)
        t0 = time.perf_counter()
        lookups = 0
        for t in range(FRAMES):
            for st in streams:
                run_tex2d(x, st.offsets(t), w, b, CFG, XAVIER,
                          plan_cache=pc, session=st.session)
                lookups += 1
        elapsed = time.perf_counter() - t0
        out[k] = {
            "per_frame_ms": elapsed * 1e3 / lookups,
            # two delta-able cache lookups per fused frame
            "hit_rate": pc.stats.delta_hits / (2 * lookups),
            "evictions": pc.stats.evictions,
        }
    return out


def regenerate():
    exact_ms, delta_ms, speedup, hits = _steady_state()
    rates = _hit_rate_vs_stride()
    streams = _concurrent_streams()
    rows = [["steady state (stride 1)", f"{exact_ms:.1f}",
             f"{delta_ms:.1f}", f"{speedup:.1f}x",
             f"{hits}/{FRAMES - 1} delta hits"]]
    rows += [[f"stride {s}", "-", "-", "-",
              f"hit rate {rates[s]:.2f}"] for s in STRIDES]
    rows += [[f"{k} streams, {MAX_ENTRIES} entries", "-",
              f"{streams[k]['per_frame_ms']:.1f}", "-",
              f"hit rate {streams[k]['hit_rate']:.2f}, "
              f"{streams[k]['evictions']} evictions"]
             for k in STREAM_COUNTS]
    text = format_table(
        ["scenario", "exact ms/frame", "delta ms/frame", "speedup",
         "cache behaviour"],
        rows,
        title=f"Streaming serving — {CFG.label()} on {XAVIER.name}; "
              f"delta-keyed plan cache (bound {DELTA_BOUND}) vs exact "
              "keying, outputs bit-identical")
    write_result("streaming", text)
    write_bench_json(
        "streaming",
        {"layer": CFG.label(),
         "frames": FRAMES,
         "delta_bound": DELTA_BOUND,
         "steady_state": {"exact_ms": exact_ms, "delta_ms": delta_ms,
                          "speedup": speedup, "delta_hits": hits},
         "stride_hit_rate": {str(s): rates[s] for s in STRIDES},
         "concurrent_streams": {str(k): streams[k]
                                for k in STREAM_COUNTS}},
        device=XAVIER.name)
    return speedup, rates, streams


def test_streaming_serving(benchmark):
    speedup, rates, streams = run_once(benchmark, regenerate)
    assert speedup >= 1.5, \
        f"delta-keyed steady-state speedup {speedup:.2f}x < 1.5x"
    ordered = [rates[s] for s in STRIDES]
    assert all(a >= b for a, b in zip(ordered, ordered[1:])), \
        f"hit rate not monotone in stride: {rates}"
    assert ordered[0] > ordered[-1], \
        f"hit rate flat across strides: {rates}"
    assert ordered[0] >= 0.6, \
        f"stride-1 hit rate {ordered[0]:.2f} too low for streaming reuse"
    # LRU pressure: more streams than entries must evict and degrade
    assert streams[STREAM_COUNTS[-1]]["evictions"] > 0
    assert streams[STREAM_COUNTS[0]]["hit_rate"] >= \
        streams[STREAM_COUNTS[-1]]["hit_rate"]
