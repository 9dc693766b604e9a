"""Unit tests for the observability building blocks (repro.obs).

Covers the bounded reservoir's exact-totals contract, the labeled metrics
registry, and the span tracer's Chrome-trace export under a fake clock
(deterministic, schema-valid output).
"""

import json
import threading

import numpy as np
import pytest

from repro.gpusim.profiler import KernelStats
from repro.obs import (BoundedReservoir, Counter, Gauge, Histogram,
                       MetricsRegistry, SpanTracer)
from repro.obs.tracer import SIM_PID, WALL_PID


# ----------------------------------------------------------------------
# BoundedReservoir
# ----------------------------------------------------------------------
def test_reservoir_exact_totals_bounded_sample():
    res = BoundedReservoir(capacity=32, seed=0)
    values = list(range(1, 1001))
    for v in values:
        res.add(v)
    # exact aggregates survive arbitrarily many observations
    assert res.count == 1000
    assert res.total == pytest.approx(sum(values))
    assert res.min == 1.0 and res.max == 1000.0
    assert res.mean == pytest.approx(np.mean(values))
    # ... while the sample stays capped
    assert len(res.values()) == 32
    snap = res.snapshot()
    assert snap["count"] == 1000 and snap["sample_size"] == 32
    # reservoir percentiles are approximate but in-range
    assert 1.0 <= snap["p50"] <= 1000.0


def test_reservoir_deterministic_under_seed():
    a, b = BoundedReservoir(8, seed=7), BoundedReservoir(8, seed=7)
    for v in range(200):
        a.add(v)
        b.add(v)
    assert a.values() == b.values()
    assert a.percentile(95) == b.percentile(95)


def test_reservoir_small_counts_are_exact():
    res = BoundedReservoir(capacity=100, seed=0)
    for v in (3.0, 1.0, 2.0):
        res.add(v)
    assert res.values() == [3.0, 1.0, 2.0]
    assert res.percentile(50) == pytest.approx(2.0)


def test_reservoir_rejects_bad_capacity():
    with pytest.raises(ValueError):
        BoundedReservoir(capacity=0)


def test_reservoir_empty_percentile_is_zero():
    res = BoundedReservoir(capacity=4, seed=0)
    assert res.percentile(50) == 0.0
    snap = res.snapshot()
    assert snap["count"] == 0 and snap["sample_size"] == 0
    assert snap["min"] == 0.0 and snap["max"] == 0.0
    assert snap["mean"] == 0.0 and snap["p99"] == 0.0


def test_reservoir_single_observation():
    res = BoundedReservoir(capacity=4, seed=0)
    res.add(7.5)
    assert res.count == 1 and res.values() == [7.5]
    assert res.min == 7.5 and res.max == 7.5 and res.mean == 7.5
    for q in (0, 50, 100):
        assert res.percentile(q) == 7.5


def test_reservoir_exactly_at_capacity_keeps_everything():
    res = BoundedReservoir(capacity=5, seed=0)
    values = [9.0, 2.0, 4.0, 8.0, 6.0]
    for v in values:
        res.add(v)
    # at exactly capacity nothing has been sampled out yet
    assert res.values() == values
    assert res.percentile(50) == pytest.approx(6.0)
    # the very next add may displace, but never grows the sample
    res.add(1.0)
    assert len(res.values()) == 5
    assert res.count == 6 and res.min == 1.0


def test_reservoir_multithreaded_adds_stay_exact_and_bounded():
    # interleaved add() under the histogram's lock: aggregates stay
    # exact, the seeded sample stays bounded and drawn from real values
    h = Histogram("lat", reservoir_size=8, seed=3)
    per_thread = 400

    def work(tid):
        for i in range(per_thread):
            h.observe(tid * per_thread + i)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    res = h.reservoir()
    assert res.count == 4 * per_thread
    assert res.total == pytest.approx(sum(range(4 * per_thread)))
    assert res.min == 0.0 and res.max == 4 * per_thread - 1
    sample = res.values()
    assert len(sample) == 8
    assert all(0.0 <= v < 4 * per_thread for v in sample)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_counter_labels_and_monotonicity():
    c = Counter("requests")
    c.inc()
    c.inc(2, backend="tex2d")
    c.inc(3, backend="tex2d")
    assert c.value() == 1.0
    assert c.value(backend="tex2d") == 5.0
    with pytest.raises(ValueError):
        c.inc(-1)
    snap = c.snapshot()
    assert snap["kind"] == "counter"
    assert {tuple(s["labels"].items()): s["value"]
            for s in snap["series"]} == {(): 1.0, (("backend", "tex2d"),): 5.0}


def test_gauge_set_max():
    g = Gauge("depth")
    g.inc(4)
    g.dec()
    assert g.value() == 3.0
    g.set_max(10)
    g.set_max(5)          # lower value must not win
    assert g.value() == 10.0


def test_histogram_exact_totals_per_label_set():
    h = Histogram("wait", reservoir_size=4, seed=0)
    for v in range(100):
        h.observe(v, task="classify")
    h.observe(5.0, task="detect")
    assert h.count(task="classify") == 100
    assert h.sum(task="classify") == pytest.approx(sum(range(100)))
    assert h.count(task="detect") == 1
    assert len(h.reservoir(task="classify").values()) == 4


def test_registry_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    c1 = reg.counter("hits", help="tile cache hits")
    c2 = reg.counter("hits")
    assert c1 is c2
    with pytest.raises(ValueError):
        reg.gauge("hits")
    assert reg.names() == ["hits"]
    assert reg.get("hits") is c1
    assert reg.get("missing") is None


def test_registry_snapshot_and_json(tmp_path):
    reg = MetricsRegistry()
    reg.counter("a").inc(2)
    reg.gauge("b").set(7)
    reg.histogram("c").observe(1.5)
    snap = reg.snapshot()
    assert set(snap) == {"a", "b", "c"}
    assert snap["a"]["series"][0]["value"] == 2.0
    assert snap["c"]["series"][0]["count"] == 1
    # to_json round-trips and write() produces the same payload
    assert json.loads(reg.to_json()) == json.loads(json.dumps(snap))
    path = tmp_path / "metrics.json"
    reg.write(path)
    assert json.loads(path.read_text()) == json.loads(reg.to_json())


def test_snapshot_json_is_byte_stable_across_insertion_order():
    def build(order):
        reg = MetricsRegistry()
        for kind, name in order:
            getattr(reg, kind)(name)
        reg.get("hits").inc(3, backend="tex2d")
        reg.get("hits").inc(1, backend="pytorch")
        reg.get("depth").set(2)
        reg.get("wait").observe(1.5, task="detect")
        reg.get("wait").observe(0.5, task="classify")
        return reg

    a = build([("counter", "hits"), ("gauge", "depth"),
               ("histogram", "wait")])
    b = build([("histogram", "wait"), ("counter", "hits"),
               ("gauge", "depth")])
    # documented sort order (metric name, then label-key tuples) makes
    # the serialised snapshot byte-identical regardless of creation or
    # observation order
    assert a.to_json() == b.to_json()
    assert a.to_prometheus() == b.to_prometheus()


def test_reads_of_unseen_label_sets_create_no_series():
    """Reading a label set nobody observed returns an empty value and
    leaves the snapshot as it was — only observations create series."""
    reg = MetricsRegistry()
    reg.counter("c").inc(worker="a")
    reg.gauge("g").set(2.0, worker="a")
    reg.histogram("h").observe(1.0, worker="a")
    reg.windowed_histogram("w").observe(1.0, worker="a")
    before = reg.to_json()
    assert reg.get("c").value(worker="w") == 0.0
    assert reg.get("g").value(worker="w") == 0.0
    h = reg.get("h")
    assert (h.count(worker="w"), h.sum(worker="w"), h.mean(worker="w"),
            h.percentile(99, worker="w")) == (0, 0.0, 0.0, 0.0)
    assert h.reservoir(worker="w").count == 0
    w = reg.get("w")
    assert w.count(worker="w") == 0 and not len(w.series(worker="w"))
    assert reg.to_json() == before
    # reads of an observed label set still see its series
    assert reg.get("c").value(worker="a") == 1.0
    assert w.count(worker="a") == 1


def test_prometheus_exposition_basics():
    reg = MetricsRegistry()
    reg.counter("hits", help="tile cache hits").inc(5, backend="tex2d")
    reg.gauge("depth").set(3)
    reg.histogram("wait_ms").observe(2.0)
    text = reg.to_prometheus()
    assert "# HELP hits tile cache hits" in text
    assert "# TYPE hits counter" in text
    assert 'hits{backend="tex2d"} 5' in text
    assert "# TYPE depth gauge" in text
    assert "depth 3" in text
    assert "# TYPE wait_ms summary" in text
    assert "wait_ms_count 1" in text
    assert text.endswith("\n")


def test_metrics_thread_safety():
    reg = MetricsRegistry()
    c = reg.counter("n")
    h = reg.histogram("h", reservoir_size=16)

    def work():
        for _ in range(500):
            c.inc()
            h.observe(1.0)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value() == 8 * 500
    assert h.count() == 8 * 500
    assert h.sum() == pytest.approx(8 * 500)


# ----------------------------------------------------------------------
# SpanTracer
# ----------------------------------------------------------------------
class FakeClock:
    """Monotonic fake clock advancing a fixed step per call."""

    def __init__(self, step_s: float = 0.001):
        self.t = 0.0
        self.step = step_s

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def _wall_events(trace):
    return [e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == WALL_PID]


def _sim_events(trace):
    return [e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == SIM_PID]


def _make_trace():
    tracer = SpanTracer(clock=FakeClock())
    with tracer.span("serve.session", cat="serve", requests=2):
        with tracer.span("serve.batch", cat="serve", size=2):
            tracer.record_kernel(KernelStats(
                name="tex2dpp_deform", layer="backbone.stage0",
                geometry="64x64x16x16", duration_ms=1.5, flop_count_sp=2e6))
            tracer.record_kernel(KernelStats(
                name="offset_head", layer="backbone.stage1",
                duration_ms=0.5))
    return tracer


def test_chrome_trace_schema():
    trace = _make_trace().chrome_trace()
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    # metadata names both processes
    meta = [e for e in events if e["ph"] == "M"]
    assert {(e["name"], e["pid"]) for e in meta} >= {
        ("process_name", WALL_PID), ("process_name", SIM_PID)}
    # every complete event carries the required Chrome trace fields
    for e in events:
        assert {"name", "ph", "pid", "tid"} <= set(e)
        if e["ph"] == "X":
            assert isinstance(e["ts"], float) and e["ts"] >= 0.0
            assert isinstance(e["dur"], float) and e["dur"] >= 0.0
    # the whole trace must be JSON-serialisable (Perfetto-loadable)
    json.dumps(trace)


def test_trace_wall_nesting_and_sim_layout():
    tracer = _make_trace()
    trace = tracer.chrome_trace()
    wall = _wall_events(trace)
    assert [e["name"] for e in wall] == ["serve.session", "serve.batch"]
    outer, inner = wall
    # the child span nests inside the parent on the same track
    assert outer["tid"] == inner["tid"]
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    # sim kernels are laid back-to-back, tagged with their layer
    sim = _sim_events(trace)
    assert [e["name"] for e in sim] == ["tex2dpp_deform", "offset_head"]
    assert sim[0]["ts"] == 0.0 and sim[0]["dur"] == pytest.approx(1500.0)
    assert sim[1]["ts"] == pytest.approx(sim[0]["dur"])
    assert sim[0]["args"]["layer"] == "backbone.stage0"
    assert sim[0]["args"]["geometry"] == "64x64x16x16"
    assert tracer.sim_time_us == pytest.approx(2000.0)


def test_trace_export_deterministic():
    a = json.dumps(_make_trace().chrome_trace(), sort_keys=True)
    b = json.dumps(_make_trace().chrome_trace(), sort_keys=True)
    assert a == b


def test_trace_write_and_flame(tmp_path):
    tracer = _make_trace()
    path = tmp_path / "trace.json"
    tracer.write(path)
    trace = json.loads(path.read_text())
    assert len(_sim_events(trace)) == 2
    flame = tracer.flame_summary()
    assert "serve.session" in flame
    assert "tex2dpp_deform" in flame
    # min_us filter drops the short kernel but keeps the long one
    filtered = tracer.flame_summary(min_us=1000.0)
    assert "tex2dpp_deform" in filtered and "offset_head" not in filtered


def test_flame_top_and_deterministic_tiebreak():
    tracer = SpanTracer(clock=FakeClock())
    # three equal-duration kernels: only the path tie-break orders them
    for name in ("zeta", "alpha", "midway"):
        tracer.record_kernel(KernelStats(name=name, layer="l0",
                                         duration_ms=1.0))
    tracer.record_kernel(KernelStats(name="big", layer="l0",
                                     duration_ms=9.0))
    full = tracer.flame_summary()
    order = [ln.split()[-1] for ln in full.splitlines()[1:]]
    assert order == ["big", "alpha", "midway", "zeta"]
    # --top keeps the N largest rows after sorting
    top2 = tracer.flame_summary(top=2)
    rows = top2.splitlines()[1:]
    assert len(rows) == 2
    assert [ln.split()[-1] for ln in rows] == ["big", "alpha"]
    assert tracer.flame_summary(top=0).splitlines()[1:] == []


def test_tracer_attach_to_profile_log():
    from repro.gpusim.profiler import ProfileLog

    tracer = SpanTracer(clock=FakeClock())
    log = ProfileLog()
    tracer.attach(log)
    log.add(KernelStats(name="k", layer="l0", duration_ms=2.0))
    assert tracer.sim_time_us == pytest.approx(2000.0)
    assert tracer.num_events == 1


def test_tracer_threads_get_distinct_tracks():
    tracer = SpanTracer(clock=FakeClock())
    barrier = threading.Barrier(3)   # keep all threads alive at once so
                                     # the OS cannot recycle thread idents

    def work(i):
        with tracer.span(f"job{i}"):
            barrier.wait()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    tids = {e["tid"] for e in _wall_events(tracer.chrome_trace())}
    assert len(tids) == 3
