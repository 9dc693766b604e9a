"""Tests of the benchmark itself:  python -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import ledger as L  # noqa: E402
import model as M  # noqa: E402
import refs as R  # noqa: E402
import workloads as W  # noqa: E402
from repro.data.shapes import make_sample  # noqa: E402
from repro.tensor import Tensor, no_grad  # noqa: E402


def test_benchmark_json_reports_every_workload_and_self_time():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(L.SELF_TIME_METRICS) <= layer_names


def _span(name, ts, dur, tid=1, **args):
    return {"name": name, "ph": "X", "pid": L.WALL_PID, "tid": tid,
            "ts": ts, "dur": dur, "args": args}


def test_self_times_nest_and_unknown_spans_stay_with_their_parent():
    events = [
        _span("bench.call", 0.0, 100.0, images=2),
        _span("nn.conv2d", 10.0, 30.0),
        _span("inner.unmapped", 50.0, 40.0),
        _span("nn.batchnorm", 60.0, 10.0),
        # not under a timed root: excluded
        _span("engine.detect", 200.0, 10.0),
        _span("nn.conv2d", 202.0, 5.0),
        # a second thread's root
        _span("serve.batch", 0.0, 50.0, tid=2, size=3),
        _span("engine.detect", 5.0, 40.0, tid=2),
    ]
    totals, traced_us, images = L.self_times(events)
    assert traced_us == 150.0 and images == 5
    assert totals == {"bench.harness_ms": 60.0, "nn.conv2d_ms": 30.0,
                      "nn.batchnorm_ms": 10.0, "serve.batch_ms": 10.0,
                      "pipeline.engine_ms": 40.0}
    assert sum(totals.values()) == traced_us


@pytest.fixture(scope="module")
def traced_detect():
    with L.Ledger() as ledger:
        yield W.run("detect", seed=3, seconds=0.1, ledger=ledger,
                    setups=(1, 0), min_samples=6, sim_calls=4)


def test_every_timed_dcn_lookup_on_detect_misses(traced_detect):
    layer = traced_detect["layer"]
    # 3 deformable sites x (fused plan + perf stats) lookups per batch of 4
    assert layer["kernels.plancache.lookups"] == pytest.approx(6 / 4)
    assert layer["kernels.plancache.misses"] == layer[
        "kernels.plancache.lookups"]
    assert layer["kernels.plancache.reuse_ratio"] == 0.0
    assert layer["kernels.plancache.trace_builds"] == pytest.approx(3 / 4)


def test_traced_self_times_sum_to_the_traced_total(traced_detect):
    layer = traced_detect["layer"]
    total = sum(layer[m] for m in L.SELF_TIME_METRICS)
    assert total == pytest.approx(layer["obs.traced_total_ms"], rel=1e-9)
    assert layer["nn.conv2d_ms"] > 0 and layer["kernels.plancache_ms"] > 0
    assert layer["traced_images"] == 3 * W.DETECT_BATCH
    assert "obs.tracing_overhead_pct" in layer


def test_detect_outputs_match_the_references(traced_detect):
    assert traced_detect["attempted"] == 6
    assert traced_detect["failed"] == 0


def test_simulated_counts_repeat_exactly_for_one_seed():
    runs = [W.run("detect", seed=5, seconds=0.1, setups=(1, 0),
                  min_samples=3, sim_calls=3) for _ in range(2)]
    assert runs[0]["e2e"]["sim_dcn_ms_per_image"] == \
        runs[1]["e2e"]["sim_dcn_ms_per_image"]
    for name in ("gpusim.tex_hit_rate", "gpusim.dram_mb_per_image",
                 "gpusim.gflop_per_image", "gpusim.launches_per_image"):
        assert runs[0]["layer"][name] == runs[1]["layer"][name]


def test_serve_outputs_match_the_references():
    res = W.run("serve", seed=4, seconds=1.0, setups=(1, 0))
    assert res["attempted"] == int(W.SERVE_RATE) and res["failed"] == 0
    assert res["layer"]["serve.batch_fill"] > 0
    # per second of batcher busy time, not the offered rate
    assert res["e2e"]["images_per_s"] > 2 * W.SERVE_RATE


def test_serve_tolerance_accepts_rounding_and_rejects_other_outputs():
    ref = json.load(open(R.path("serve")))["images"]
    a, b = list(ref.values())[:2]
    assert R.rows_match(a, a)
    nudged = [[r[0], r[1] + 1e-3, *[v + 0.3 for v in r[2:6]], r[6] + 5]
              for r in a]
    assert R.rows_match(a, nudged)
    assert R.rows_match(a, a[:-1])
    assert not R.rows_match(a, b)
    relabeled = [[r[0] + 1, *r[1:]] for r in a]
    assert not R.rows_match(a, relabeled)


def test_offset_heads_give_realistic_offsets():
    model = M.build_detect_model()
    rng = np.random.default_rng(99)
    images = np.stack([make_sample(M.INPUT_SIZE, rng=rng).image
                       for _ in range(4)])
    with no_grad():
        model(Tensor(images))
    for layer in M.deform_layers(model):
        off = layer.last_offsets.data
        assert 1.5 < off.std() < 3.0
        assert np.mean(np.abs(off) < M.BOUND) > 0.95
        assert not np.allclose(off[0], off[1])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
