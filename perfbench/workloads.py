"""The two whole-forward workloads: inputs, set-up and the timed loops.

``detect``  closed loop, one client: YolactLite (3 DCNs), batch 4, fresh
            shapes images every call.  No two requests share offsets, so
            every DCN plan-cache lookup misses and rebuilds; regular convs
            dominate host time.
``serve``   open loop: Poisson arrivals at a fixed 4 req/s (about a quarter
            of the batch-1 capacity) of single images into a started
            ``RequestBatcher`` over the detect model; every request is
            timed from its due time, so queueing shows.  At 8 req/s, half
            the capacity, queueing amplified the shared machine's speed
            drift: two ten-seed sets read p50 85 and 113 ms.  Its
            ``images_per_s`` counts completions per second of batcher busy
            time (engine calls), so it moves with service time instead of
            echoing the offered rate.

Inputs are drawn from fixed pools whose reference outputs are stored in
``references/``; the run seed picks which pool inputs run and in what
order.  No input repeats within a run: a repeat would be a plan-cache hit
that a bigger cache could turn into a fake gain.
"""

from __future__ import annotations

import functools
import gc
import resource
import sys
import threading
import time
import traceback
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.shapes import make_sample
from repro.serve import RequestBatcher

import model as M
import refs as R

DETECT_BATCH = 4
#: a 50 s run uses about 250 detect batches or 200 serve images today;
#: the pools leave room for a faster program
DETECT_POOL = 640
SERVE_POOL = 512
SERVE_RATE = 4.0
SERVE_MAX_BATCH = 4
#: pools, warm-up inputs and arrival times come from their own seed
#: spaces, never from the run seed
POOL_SEED = 2024
WARMUP_SEED = 4096
ARRIVAL_SEED = 8192
#: warm-up requests per set-up (detect: batches of 4; serve: one image
#: each), about half a second to a second of work
WARMUP_CALLS = {"detect": 4, "serve": 8}
#: set-ups per run before and after the timed phase; ``setup_s`` is
#: their median, so one slow stretch of a shared machine moves it less
SETUPS = (3, 2)
#: latency percentiles need at least this many samples (p90 then has at
#: least 10 beyond it); a closed loop runs past --seconds until it has
#: them, but never more than MAX_EXTRA_S past it
MIN_SAMPLES = 100
MAX_EXTRA_S = 60.0
#: the simulated-clock metrics of ``detect`` cover this fixed prefix of
#: the timed calls, so they repeat exactly between runs of one seed
SIM_CALLS = 100
#: machine-speed probe cadence on the closed loops (every Nth call)
PROBE_EVERY = 4
#: open loop: first arrival this long after the timed phase starts, and
#: idle work (gc, probe, trace gate) only when the next arrival is at
#: least IDLE_WORK_S away
START_DELAY_S = 0.05
IDLE_WORK_S = 0.03
#: the traced serve run alternates traced and untraced blocks of arrivals
TRACE_BLOCK_S = 0.25
COMPLETION_TIMEOUT_S = 60.0


# -- inputs -------------------------------------------------------------
def detect_input(j: int) -> np.ndarray:
    rng = np.random.default_rng([POOL_SEED, 1, j])
    return np.stack([make_sample(M.INPUT_SIZE, rng=rng).image
                     for _ in range(DETECT_BATCH)])


def serve_input(j: int) -> np.ndarray:
    rng = np.random.default_rng([POOL_SEED, 2, j])
    return make_sample(M.INPUT_SIZE, rng=rng).image


def warmup_image(k: int) -> np.ndarray:
    rng = np.random.default_rng([WARMUP_SEED, k])
    return make_sample(M.INPUT_SIZE, rng=rng).image


def serve_schedule(seed: int, seconds: float, pool: List[int]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Pool ids and due times (s) of one open-loop run.

    The arrivals are one fixed Poisson realization conditioned on its
    count — exactly rate × seconds arrivals spread uniformly over the
    window — drawn from the benchmark's own seed; the run seed picks the
    images.  An open loop's p90 is set mostly by the burst pattern of its
    arrivals: re-drawing them per run spread p90 by 24% across five seeds.
    """
    n = int(round(SERVE_RATE * seconds))
    if not 1 <= n <= len(pool):
        raise ValueError(f"--seconds {seconds} gives {n} serve requests; "
                         f"the reference pool holds {len(pool)}")
    ids = np.random.default_rng([seed, 3]).permutation(np.asarray(pool))[:n]
    due = np.sort(np.random.default_rng([ARRIVAL_SEED, n]).uniform(
        0.0, seconds, size=n))
    return ids, due


class Probe:
    """Fixed NumPy + Python work: a gather, a copy, an einsum and a loop.

    Its time tells a slow machine from a slow program; it is reported,
    never gated.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.src = rng.random(1 << 18, dtype=np.float32)
        self.idx = rng.integers(0, 1 << 18, size=1 << 18)
        self.dst = np.empty_like(self.src)
        self.a = rng.random((64, 576), dtype=np.float32)
        self.b = rng.random((576, 1024), dtype=np.float32)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.take(self.src, self.idx, out=self.dst)
        self.dst[...] = self.src
        np.einsum("ok,kl->ol", self.a, self.b, optimize=True)
        acc = 0
        for i in range(20000):
            acc += i & 7
        return (time.perf_counter() - t0) * 1e3


# -- workloads ----------------------------------------------------------
class Workload:
    """One set-up of a workload: ``setup()`` builds model, engine and
    warm-up; the closed loop then ``call()``s and ``check()``s requests."""

    name = ""
    images_per_call = 1

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.engine = None

    def close(self) -> None:
        """Stop whatever the set-up started."""


class Detect(Workload):
    name = "detect"
    images_per_call = DETECT_BATCH

    def setup(self) -> None:
        engine = M.build_engine(M.build_detect_model(), tracer=self.tracer)
        for k in range(WARMUP_CALLS["detect"]):
            engine.detect(np.stack([warmup_image(DETECT_BATCH * k + i)
                                    for i in range(DETECT_BATCH)]))
        self.engine = engine

    def requests(self, seed: int) -> Iterator:
        for j in np.random.default_rng([seed, 1]).permutation(DETECT_POOL):
            yield int(j), functools.partial(detect_input, int(j))

    def call(self, x):
        return self.engine.detect(x)

    @staticmethod
    def check(ref: Dict, key, out, kernels) -> bool:
        return ref["calls"][key] == [R.detections_digest(out),
                                     R.kernels_digest(kernels)]


class Serve(Workload):
    name = "serve"
    batcher = None

    def setup(self) -> None:
        engine = M.build_engine(M.build_detect_model(), tracer=self.tracer)
        batcher = RequestBatcher(engine, task="detect",
                                 max_batch_size=SERVE_MAX_BATCH,
                                 tracer=self.tracer)
        batcher.start()
        try:
            for k in range(WARMUP_CALLS["serve"]):
                batcher.submit(warmup_image(k)).result(
                    timeout=COMPLETION_TIMEOUT_S)
        except BaseException:
            batcher.close(flush=False)
            raise
        self.engine, self.batcher = engine, batcher

    def close(self) -> None:
        if self.batcher is not None:
            self.batcher.close(flush=False)
            self.batcher = None


WORKLOADS = {"detect": Detect, "serve": Serve}


# -- shared measurement helpers -----------------------------------------
_PLAN = ("hits", "misses", "trace_builds", "fused_builds", "delta_hits",
         "delta_rejects", "evictions")
_TILE = ("hits", "near_hits", "misses")


def _counters(engine) -> Dict[str, int]:
    """The plan-cache and tile-cache counters the engine publishes."""
    pc, tc = engine.plan_cache_stats, engine.tile_cache_stats
    out = {f"plan.{k}": getattr(pc, k) for k in _PLAN}
    out.update({f"tile.{k}": getattr(tc, k) for k in _TILE})
    return out


def _counter_metrics(start: Dict[str, int], end: Dict[str, int],
                     images: int) -> Dict[str, float]:
    d = {k: end[k] - start[k] for k in end}
    per = max(images, 1)
    lookups = d["plan.hits"] + d["plan.misses"] + d["plan.delta_hits"]
    tiles = sum(d[f"tile.{k}"] for k in _TILE)
    out = {"kernels.plancache.lookups": lookups / per}
    for k in _PLAN[1:]:
        out[f"kernels.plancache.{k}"] = d[f"plan.{k}"] / per
    out["kernels.plancache.reuse_ratio"] = (
        (d["plan.hits"] + d["plan.delta_hits"]) / lookups if lookups else 0.0)
    out["kernels.tile_hit_ratio"] = d["tile.hits"] / tiles if tiles else 0.0
    return out


def _sim_metrics(kernels, images: int) -> Dict[str, float]:
    per = max(images, 1)
    reads = sum(k.tex_texel_reads for k in kernels)
    return {
        "sim_dcn_ms_per_image": sum(k.duration_ms for k in kernels) / per,
        "gpusim.tex_hit_rate": (sum(k.tex_cache_hits for k in kernels)
                                / reads if reads else 0.0),
        "gpusim.dram_mb_per_image": sum(
            k.dram_read_bytes + k.dram_write_bytes for k in kernels)
        / 1e6 / per,
        "gpusim.gflop_per_image": sum(k.flop_count_sp for k in kernels)
        / 1e9 / per,
        "gpusim.launches_per_image": len(kernels) / per,
    }


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) \
        if len(values) else 0.0


def _results(lat: Dict[bool, List[float]], images_per_s: float,
             counters: Tuple[Dict, Dict], images: int, sim_kernels,
             sim_images: int, probes: List[float], attempted: int,
             failed: int) -> Dict:
    """End-to-end metrics from the untraced requests, the counters and
    simulated counts as per-layer metrics, and the tracing overhead when
    some requests were traced."""
    untraced, traced = lat[False], lat[True]
    e2e = {"images_per_s": images_per_s,
           "latency_ms_p50": _pct(untraced, 50) * 1e3,
           "latency_ms_p90": _pct(untraced, 90) * 1e3}
    layer = _counter_metrics(*counters, images)
    layer.update(_sim_metrics(sim_kernels, sim_images))
    e2e["sim_dcn_ms_per_image"] = layer.pop("sim_dcn_ms_per_image")
    layer["bench.probe_ms"] = _pct(probes, 50)
    if traced and untraced:
        layer["obs.tracing_overhead_pct"] = 100.0 * (
            _pct(traced, 50) / _pct(untraced, 50) - 1.0)
    return {"e2e": e2e, "layer": layer, "attempted": attempted,
            "failed": failed, "samples": len(untraced),
            "traced_samples": len(traced), "images": images}


def _report_failure(what: str) -> None:
    print(f"perfbench: FAILED {what}", file=sys.stderr)


# -- closed loops -------------------------------------------------------
def run_closed(wl: Workload, seed: int, seconds: float, ledger=None,
               min_samples: int = MIN_SAMPLES,
               sim_calls: Optional[int] = None) -> Dict:
    """Drive one client through ``wl`` for ``seconds``; see module doc.

    With a ledger, odd calls are traced and even calls are not, so the
    tracing overhead is measured in the same process and minute.
    """
    ref = R.load(wl.name)
    sim_calls = SIM_CALLS if sim_calls is None else sim_calls
    engine = wl.engine
    kernels: List = []
    engine.log.subscribe(kernels.append)
    start = _counters(engine)
    probe = Probe()
    lat = {False: [], True: []}
    sim_kernels: List = []
    probes: List[float] = []
    attempted = failed = 0
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        t_start = time.perf_counter()
        for i, (key, make_input) in enumerate(wl.requests(seed)):
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds and (i >= min_samples
                                       or elapsed >= seconds + MAX_EXTRA_S):
                break
            x = make_input()
            gc.collect()
            del kernels[:]
            traced = ledger is not None and i % 2 == 1
            attempted += 1
            try:
                if traced:
                    ledger.tracer.enabled = True
                    t0 = time.perf_counter()
                    with ledger.tracer.span("bench.call", cat="bench",
                                            images=wl.images_per_call):
                        out = wl.call(x)
                else:
                    t0 = time.perf_counter()
                    out = wl.call(x)
                dt = time.perf_counter() - t0
            except Exception:
                failed += 1
                _report_failure(f"{wl.name} request {key}:\n"
                                + traceback.format_exc())
                continue
            finally:
                if ledger is not None:
                    ledger.tracer.enabled = False
            lat[traced].append(dt)
            if i < sim_calls:
                sim_kernels.extend(kernels)
            try:
                ok = wl.check(ref, key, out, list(kernels))
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            if not ok:
                failed += 1
                _report_failure(f"{wl.name} request {key}: output differs "
                                f"from references/{wl.name}.json")
            if i % PROBE_EVERY == 0:
                probes.append(probe())
    finally:
        gc.enable()
        gc.unfreeze()
    n = wl.images_per_call
    untraced = lat[False]
    result = _results(
        lat, len(untraced) * n / sum(untraced) if untraced else 0.0,
        (start, _counters(engine)), (len(untraced) + len(lat[True])) * n,
        sim_kernels, min(sim_calls, attempted) * n, probes, attempted, failed)
    result["layer"]["bench.generator_lag_ms_p90"] = 0.0
    return result


# -- open loop ----------------------------------------------------------
def run_serve(wl: Serve, seed: int, seconds: float, ledger=None) -> Dict:
    """Submit single images on a Poisson schedule; see module doc.

    With a ledger, alternate blocks of arrivals are traced; the trace
    gate only flips while nothing is in flight, so no batch is half
    traced.
    """
    ref = R.load("serve")
    ids, due = serve_schedule(seed, seconds,
                              sorted(int(k) for k in ref["images"]))
    n = len(ids)
    images = [serve_input(int(j)) for j in ids]
    batcher, engine = wl.batcher, wl.engine
    metrics = batcher.metrics
    waits = metrics.registry.get("serve_queue_wait_seconds")
    infer = metrics.registry.get("serve_infer_wall_seconds")
    waits0, infer0, busy0 = waits.count(), infer.count(), infer.sum()
    batches0 = metrics.num_batches
    kernels: List = []
    engine.log.subscribe(kernels.append)
    start = _counters(engine)
    probe = Probe()
    done_at: List[Optional[float]] = [None] * n
    lock = threading.Lock()
    in_flight = [0]
    idle = threading.Event()
    idle.set()

    def finished(i, _future):
        with lock:
            done_at[i] = time.perf_counter()
            in_flight[0] -= 1
            if not in_flight[0]:
                idle.set()

    futures = []
    lags: List[float] = []
    traced_req: List[bool] = []
    probes: List[float] = []
    gate = False
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        t_start = time.perf_counter() + START_DELAY_S
        for i in range(n):
            t_due = t_start + float(due[i])
            if idle.wait(max(0.0, t_due - time.perf_counter())):
                if ledger is not None:
                    gate = int(due[i] // TRACE_BLOCK_S) % 2 == 1
                    ledger.tracer.enabled = gate
                if t_due - time.perf_counter() > IDLE_WORK_S:
                    gc.collect()
                    probes.append(probe())
            delay = t_due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - t_due)
            with lock:
                in_flight[0] += 1
                idle.clear()
            fut = batcher.submit(images[i])
            fut.add_done_callback(functools.partial(finished, i))
            futures.append(fut)
            traced_req.append(gate)
        # every completion callback has run once nothing is in flight
        idle.wait(COMPLETION_TIMEOUT_S)
    finally:
        gc.enable()
        gc.unfreeze()
        if ledger is not None:
            ledger.tracer.enabled = False
    failed = 0
    lat = {False: [], True: []}
    with lock:
        ends = list(done_at)
    for i, fut in enumerate(futures):
        if ends[i] is None:
            failed += 1
            _report_failure(f"serve request {i}: unresolved")
            continue
        lat[traced_req[i]].append(ends[i] - (t_start + float(due[i])))
        if fut.exception() is not None:
            failed += 1
            _report_failure(f"serve request {i}: {fut.exception()!r}")
        elif not R.rows_match(ref["images"][str(int(ids[i]))],
                              R.detection_rows(fut.result())):
            failed += 1
            _report_failure(f"serve request {i} (pool image {ids[i]}): "
                            "detections outside tolerance")
    done = sum(t is not None for t in ends)
    busy = infer.sum() - busy0
    result = _results(
        lat, done / busy if busy > 0 else 0.0,
        (start, _counters(engine)), done, kernels, done, probes, n, failed)
    batches = metrics.num_batches - batches0
    result["layer"].update({
        "serve.queue_wait_ms_p50": _pct(waits.reservoir().values()[waits0:],
                                        50) * 1e3,
        "serve.queue_wait_ms_p90": _pct(waits.reservoir().values()[waits0:],
                                        90) * 1e3,
        "serve.infer_ms_p50": _pct(infer.reservoir().values()[infer0:],
                                   50) * 1e3,
        "serve.batch_fill": (done / batches / SERVE_MAX_BATCH
                             if batches else 0.0),
        "serve.peak_queue_depth": float(metrics.peak_queue_depth),
        "bench.generator_lag_ms_p90": _pct(lags, 90) * 1e3,
    })
    return result


# -- one run ------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, ledger=None,
        setups: Tuple[int, int] = SETUPS, **loop_kwargs) -> Dict:
    """Set up ``setups[0]`` times, measure with the last set-up, then set
    up ``setups[1]`` more times; ``setup_s`` is the median of them all."""
    wl = WORKLOADS[workload](tracer=ledger.tracer if ledger else None)
    setup_times = []

    def set_up():
        wl.close()
        wl.engine = None
        gc.collect()
        if ledger is not None:
            ledger.autotune_ms = 0.0
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    try:
        for _ in range(setups[0]):
            set_up()
        if workload == "serve":
            result = run_serve(wl, seed, seconds, ledger)
        else:
            result = run_closed(wl, seed, seconds, ledger, **loop_kwargs)
        result["e2e"]["peak_rss_mb"] = peak_rss_mb()
        result["layer"]["autotune.evaluations"] = float(
            wl.engine.tune_evaluations)
        if ledger is not None:
            result["layer"]["autotune.tune_ms"] = ledger.autotune_ms
            result["layer"].update(ledger.layer_times())
        for _ in range(setups[1]):
            set_up()
        result["e2e"]["setup_s"] = float(np.median(setup_times))
        result["setup_times"] = setup_times
        return result
    finally:
        wl.close()
