"""Tests for the bench-regression flight recorder (repro.obs.flightrec)."""

import json
from pathlib import Path

import pytest

from repro.obs.flightrec import (DEFAULT_RULES, IMPROVED, MISSING, NEW, OK,
                                 REGRESSED, UNTRACKED, MetricRule,
                                 collect_benches, compare, flatten_metrics,
                                 run_compare)


def _bench(name, metrics, **extra):
    return {"schema_version": 1, "bench": name, "device": "xavier",
            "git_rev": "abc1234", "timestamp": "2026-08-07T00:00:00+00:00",
            "metrics": metrics, **extra}


def _write(tmp_path, sub, payloads):
    d = tmp_path / sub
    d.mkdir(parents=True, exist_ok=True)
    for p in payloads:
        (d / f"BENCH_{p['bench']}.json").write_text(json.dumps(p))
    return d


# ----------------------------------------------------------------------
# flattening + loading
# ----------------------------------------------------------------------
def test_flatten_metrics_dotted_paths():
    flat = flatten_metrics(_bench("x", {
        "a": {"speedup": 2.0, "note": "text", "flag": True},
        "list": [1.0, {"ms": 3.0}],
        "top": 7,
    }))
    assert flat == {"a.speedup": 2.0, "list.0": 1.0, "list.1.ms": 3.0,
                    "top": 7.0}


def test_collect_benches_dir_and_file(tmp_path):
    d = _write(tmp_path, "snap", [_bench("one", {"v_ms": 1.0}),
                                  _bench("two", {"v_ms": 2.0})])
    benches = collect_benches(d)
    assert sorted(benches) == ["one", "two"]
    single = collect_benches(d / "BENCH_one.json")
    assert list(single) == ["one"]
    (d / "BENCH_bad.json").write_text("{}")
    with pytest.raises(ValueError):
        collect_benches(d)


# ----------------------------------------------------------------------
# rules + comparison outcomes
# ----------------------------------------------------------------------
def test_rule_matching_first_wins():
    rules = [MetricRule("*.speedup", "higher"), MetricRule("*", "ignore")]
    from repro.obs.flightrec import _match_rule
    assert _match_rule("perf.fused.speedup", rules).direction == "higher"
    assert _match_rule("perf.iters", rules).direction == "ignore"


def test_halved_speedup_regresses_jitter_does_not():
    base = {"perf": _bench("perf", {"fused": {"speedup": 2.6}})}

    halved = {"perf": _bench("perf", {"fused": {"speedup": 1.3}})}
    report = compare(base, halved)
    (row,) = report.rows
    assert row.outcome == REGRESSED and report.exit_code == 1
    assert report.verdict == "regress"

    jitter = {"perf": _bench("perf", {"fused": {"speedup": 2.4}})}
    report = compare(base, jitter)
    assert report.rows[0].outcome == OK and report.exit_code == 0


def _fleet(metrics):
    # names matter: DEFAULT_RULES key tight gates off the bench prefix
    return {"fleet_scheduler": _bench("fleet_scheduler", metrics)}


def test_direction_lower_better_and_improvement():
    base = _fleet({"routing": {"makespan_ms": 1.0}})
    slower = _fleet({"routing": {"makespan_ms": 1.5}})
    faster = _fleet({"routing": {"makespan_ms": 0.5}})
    assert compare(base, slower).rows[0].outcome == REGRESSED
    assert compare(base, faster).rows[0].outcome == IMPROVED


def test_fleet_latency_percentiles_gated_against_the_baseline():
    """The simulated p50/p99 of every routing policy and of the fault run
    are in the committed baseline and gated like the makespan, not
    reported as new or left to the loose wall-clock ``*_ms`` rule."""
    baseline = collect_benches(Path(__file__).resolve().parents[1] / "results"
                               / "baselines" / "BENCH_fleet_scheduler.json")
    paths = [p for p in flatten_metrics(baseline["fleet_scheduler"])
             if p.endswith(("latency_p50_ms", "latency_p99_ms"))]
    assert len(paths) == 8
    base = _fleet({"fault": {"latency_p99_ms": 1.54}})
    slower = _fleet({"fault": {"latency_p99_ms": 1.75}})
    assert compare(base, slower).rows[0].outcome == REGRESSED


def test_abs_floor_suppresses_tiny_relative_deltas():
    # 0.01 -> 0.02 ms is +100% relative but far below the 0.05 floor
    base = _fleet({"routing": {"makespan_ms": 0.01}})
    cur = _fleet({"routing": {"makespan_ms": 0.02}})
    assert compare(base, cur).rows[0].outcome == OK


def test_exact_gate_on_counts():
    base = _fleet({"routing": {"completed": 12, "unresolved": 0}})
    cur = _fleet({"routing": {"completed": 11, "unresolved": 1}})
    report = compare(base, cur)
    outcomes = {r.path: r.outcome for r in report.rows}
    assert outcomes["fleet_scheduler.routing.completed"] == REGRESSED
    assert outcomes["fleet_scheduler.routing.unresolved"] == REGRESSED


def test_untracked_new_and_missing_never_gate():
    base = {"f": _bench("f", {"iters": 3, "gone_ms": 1.0}),
            "old": _bench("old", {"v_ms": 1.0})}
    cur = {"f": _bench("f", {"iters": 9, "fresh_ms": 2.0}),
           "brand": _bench("brand", {"v_ms": 1.0})}
    report = compare(base, cur)
    outcomes = {r.path: r.outcome for r in report.rows}
    assert outcomes["f.iters"] == UNTRACKED       # no rule matches
    assert outcomes["f.gone_ms"] == MISSING
    assert outcomes["f.fresh_ms"] == NEW
    assert outcomes["old"] == MISSING
    assert outcomes["brand"] == NEW
    assert report.exit_code == 0


def test_report_json_and_markdown():
    base = {"f": _bench("f", {"speedup": 2.0})}
    cur = {"f": _bench("f", {"speedup": 0.5})}
    report = compare(base, cur)
    payload = json.loads(report.to_json())
    assert payload["verdict"] == "regress"
    assert payload["counts"] == {"regressed": 1}
    assert payload["baseline"]["f"]["git_rev"] == "abc1234"
    assert payload["baseline"]["f"]["timestamp"]
    md = report.to_markdown()
    assert "**REGRESSED**" in md and "f.speedup" in md


# ----------------------------------------------------------------------
# CLI driver (the acceptance path: perturb a copy -> non-zero exit)
# ----------------------------------------------------------------------
def test_run_compare_pass_then_perturbed_regression(tmp_path):
    baseline_payload = _bench("perf_model", {
        "fused_serving": {"speedup": 2.6, "fused_ms": 60.0},
        "steady_state": {"speedup": 5.4},
    })
    baseline = _write(tmp_path, "baselines", [baseline_payload])
    current = _write(tmp_path, "results", [baseline_payload])
    lines = []
    assert run_compare(str(baseline), str(current),
                       print_fn=lines.append) == 0
    assert any("no tracked regressions" in ln for ln in lines)

    # perturb a *copy* of the bench JSON: halve the fused speedup
    perturbed = json.loads((current / "BENCH_perf_model.json").read_text())
    perturbed["metrics"]["fused_serving"]["speedup"] /= 2
    (current / "BENCH_perf_model.json").write_text(json.dumps(perturbed))
    verdict = tmp_path / "verdict.json"
    md = tmp_path / "verdict.md"
    lines = []
    code = run_compare(str(baseline), str(current), json_out=str(verdict),
                       markdown_out=str(md), print_fn=lines.append)
    assert code == 1
    payload = json.loads(verdict.read_text())
    assert payload["verdict"] == "regress"
    regressed = [r for r in payload["rows"] if r["outcome"] == "regressed"]
    assert [r["path"] for r in regressed] == \
        ["perf_model.fused_serving.speedup"]
    assert "REGRESSED" in md.read_text()


def test_run_compare_unusable_inputs(tmp_path):
    lines = []
    assert run_compare(str(tmp_path / "nope"), str(tmp_path),
                       print_fn=lines.append) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_compare(str(empty), str(empty), print_fn=lines.append) == 2


def test_default_rules_cover_repo_metric_families():
    tracked = ["fleet_scheduler.routing.cost.makespan_ms",
               "fleet_scheduler.fault.throughput_rps",
               "fleet_scheduler.fault.completed",
               "perf_model.fused_serving.speedup",
               "perf_model.steady_state.cached_ms"]
    from repro.obs.flightrec import _match_rule
    for path in tracked:
        rule = _match_rule(path, DEFAULT_RULES)
        assert rule is not None and rule.direction != "ignore", path
