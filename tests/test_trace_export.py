"""Integration tests for the observability pillars working together.

Trace export from a real engine run (wall + sim spans with layer
attribution), exact per-layer accounting, bounded-memory ProfileLog /
ServingMetrics under load, thread-safety, and the ``repro trace`` CLI.
"""

import json
import threading

import numpy as np
import pytest

from repro.gpusim import XAVIER
from repro.gpusim.profiler import KernelStats, ProfileLog
from repro.models import build_classifier
from repro.nas import manual_interval_placement
from repro.obs import MetricsRegistry, SpanTracer
from repro.obs.tracer import SIM_PID, WALL_PID
from repro.pipeline import DefconEngine
from repro.pipeline.engine import TileCacheStats
from repro.serve import RequestBatcher, ServingMetrics

from helpers import rng

PLACEMENT = manual_interval_placement(9, 3)


@pytest.fixture(scope="module")
def model():
    return build_classifier("r50s", placement=PLACEMENT, bound=7.0, seed=0)


@pytest.fixture(scope="module")
def images():
    return rng(0).uniform(0, 1, size=(2, 3, 64, 64)).astype(np.float32)


# ----------------------------------------------------------------------
# engine + tracer
# ----------------------------------------------------------------------
def test_engine_trace_has_wall_and_sim_spans(model, images):
    tracer = SpanTracer()
    eng = DefconEngine(model, XAVIER, backend="tex2dpp", tracer=tracer)
    eng.classify(images)
    trace = tracer.chrome_trace()
    wall = [e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == WALL_PID]
    sim = [e for e in trace["traceEvents"]
           if e["ph"] == "X" and e["pid"] == SIM_PID]
    # wall track: the classify span plus the plan cache building its
    # per-geometry trace state and fused plans on this cold first run
    assert [e["name"] for e in wall if e.get("cat") != "plancache"
            ] == ["engine.classify"]
    plancache_spans = [e for e in wall if e.get("cat") == "plancache"]
    assert {e["name"] for e in plancache_spans} <= {
        "plancache.build_trace", "plancache.build_fused",
        "plancache.retile"}
    assert plancache_spans, "cold run must build plan-cache traces"
    # one sim span per kernel launch, each attributed to a real module path
    assert len(sim) == len(eng.log.records)
    layer_names = {name for name, _ in model.named_modules()}
    for e in sim:
        assert e["args"]["layer"] in layer_names
        assert e["args"]["geometry"]
    # the sim track's total equals the engine's deformable latency
    assert tracer.sim_time_us == pytest.approx(
        eng.deformable_latency_ms() * 1e3)


def test_per_layer_rows_sum_to_total(model, images):
    eng = DefconEngine(model, XAVIER, backend="tex2dpp")
    eng.classify(images)
    rows = eng.per_layer_rows()
    assert len(rows) == sum(PLACEMENT)       # one row per deformable layer
    assert all(r["layer"] != "(unattributed)" for r in rows)
    total = sum(r["time_ms"] for r in rows)
    assert total == pytest.approx(eng.log.total_ms, abs=1e-9)
    assert sum(r["share_pct"] for r in rows) == pytest.approx(100.0)
    # by_layer agrees with the row view
    by_layer = eng.log.by_layer()
    assert sum(s.duration_ms for s in by_layer.values()) == pytest.approx(
        eng.log.total_ms, abs=1e-9)


def test_layer_names_are_dotted_module_paths(model):
    from repro.deform.layers import DeformConv2d

    DefconEngine(model, XAVIER)   # construction stamps layer names
    named = {name: mod for name, mod in model.named_modules()
             if isinstance(mod, DeformConv2d)}
    assert named                  # the placement enables some DCNs
    for name, mod in named.items():
        assert mod.layer_name == name


# ----------------------------------------------------------------------
# bounded memory, exact totals
# ----------------------------------------------------------------------
def test_profile_log_rollover_keeps_totals_exact():
    log = ProfileLog(max_records=8)
    n = 100
    for i in range(n):
        log.add(KernelStats(name="k", layer=f"l{i % 2}",
                            duration_ms=1.0, flop_count_sp=10.0))
    assert len(log.records) <= 8              # live window stays bounded
    assert log.num_launches == n              # ... but counts are exact
    assert log.total_ms == pytest.approx(n * 1.0)
    by_layer = log.by_layer()
    assert set(by_layer) == {"l0", "l1"}
    assert by_layer["l0"].duration_ms == pytest.approx(n / 2)
    assert by_layer["l0"].flop_count_sp == pytest.approx(10.0 * n / 2)
    # summary/per-layer views keep working across the rollover boundary
    assert sum(r["time_ms"] for r in log.per_layer_rows()) == pytest.approx(
        log.total_ms)


def test_profile_log_unbounded_when_disabled():
    log = ProfileLog(max_records=None)
    for _ in range(50):
        log.add(KernelStats(name="k", duration_ms=1.0))
    assert len(log.records) == 50


def test_serving_metrics_bounded_with_exact_totals():
    metrics = ServingMetrics(reservoir_size=16)
    n = 500
    for _ in range(n):
        metrics.record_submit()
    for i in range(n):
        metrics.record_batch(1, queue_waits_s=[0.001 * i],
                             infer_wall_s=0.01, sim_ms=2.0)
    snap = metrics.snapshot()
    assert snap["requests_submitted"] == n
    assert snap["requests_completed"] == n    # exact despite the reservoir
    assert snap["batches"] == n
    assert snap["sim_ms_total"] == pytest.approx(2.0 * n)
    assert snap["sim_ms_per_image"] == pytest.approx(2.0)
    # the reservoirs backing the histograms stay capped
    for name in ("serve_queue_wait_seconds", "serve_infer_wall_seconds",
                 "serve_sim_ms_per_batch"):
        hist = metrics.registry.get(name)
        assert len(hist.reservoir().values()) <= 16
        assert hist.count() == n


# ----------------------------------------------------------------------
# thread-safety
# ----------------------------------------------------------------------
def test_profile_log_concurrent_adds():
    log = ProfileLog(max_records=32)

    def work():
        for _ in range(200):
            log.add(KernelStats(name="k", layer="l", duration_ms=0.5))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert log.num_launches == 8 * 200
    assert log.total_ms == pytest.approx(8 * 200 * 0.5)


def test_tile_cache_stats_concurrent_increments():
    stats = TileCacheStats()

    def work():
        for _ in range(300):
            stats.record_hit()
            stats.record_miss()

    threads = [threading.Thread(target=work) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert stats.hits == 6 * 300
    assert stats.misses == 6 * 300
    assert stats.lookups == 2 * 6 * 300


def test_plan_cache_stats_concurrent_records():
    """The registry counter's own lock is the stats' only lock: many
    threads recording on one registry lose no update."""
    import sys

    from repro.kernels import PlanCacheStats

    stats = PlanCacheStats(MetricsRegistry())
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=30)          # all threads contend at once
        for _ in range(1000):
            stats.record("hits")
            stats.record("evictions")

    threads = [threading.Thread(target=work) for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert stats.hits == stats.evictions == 8 * 1000
    assert stats.lookups == 8 * 1000


# ----------------------------------------------------------------------
# serving + registry end to end
# ----------------------------------------------------------------------
def test_traced_serving_session_unifies_registry(model):
    registry = MetricsRegistry()
    tracer = SpanTracer()
    eng = DefconEngine(model, XAVIER, backend="tex2dpp",
                       registry=registry, tracer=tracer)
    batcher = RequestBatcher(eng, max_batch_size=2,
                             metrics=ServingMetrics(registry=registry),
                             tracer=tracer)
    imgs = [rng(i).uniform(0, 1, size=(3, 64, 64)).astype(np.float32)
            for i in range(4)]
    batcher.serve_all(imgs)
    snap = registry.snapshot()
    # serving and engine metrics land in the same registry
    assert "serve_requests_completed" in snap
    assert "engine_tile_cache_lookups" in snap
    assert snap["serve_requests_completed"]["series"][0]["value"] == 4.0
    # trace shows batches nesting the engine call on the wall track
    names = [e["name"] for e in tracer.chrome_trace()["traceEvents"]
             if e["ph"] == "X" and e["pid"] == WALL_PID]
    assert "serve.batch" in names and "engine.classify" in names


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_trace_writes_trace_and_metrics(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.json"
    mout = tmp_path / "metrics.json"
    rc = main(["trace", "--model", "r50s", "--requests", "3",
               "--max-batch", "2", "--input-size", "32",
               "--out", str(out), "--metrics-out", str(mout), "--flame"])
    assert rc == 0
    trace = json.loads(out.read_text())
    assert trace["displayTimeUnit"] == "ms"
    sim = [e for e in trace["traceEvents"]
           if e.get("ph") == "X" and e["pid"] == SIM_PID]
    wall = [e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["pid"] == WALL_PID]
    assert sim and wall
    assert all(e["args"]["layer"] != "(unattributed)" for e in sim)
    metrics = json.loads(mout.read_text())
    assert metrics["serve_requests_completed"]["series"][0]["value"] == 3.0
    captured = capsys.readouterr().out
    assert "Per-layer deformable latency" in captured
    assert "flame summary" in captured


def test_cli_serve_trace_flag(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "serve_trace.json"
    rc = main(["serve", "--arch", "r50s", "--requests", "2",
               "--max-batch", "2", "--input-size", "32",
               "--trace", str(out)])
    assert rc == 0
    trace = json.loads(out.read_text())
    assert any(e.get("pid") == SIM_PID for e in trace["traceEvents"])
