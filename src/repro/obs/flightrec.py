"""Bench-regression flight recorder — compare ``BENCH_*.json`` snapshots.

Every benchmark already writes a machine-readable
``results/BENCH_<name>.json`` (see ``benchmarks/common.py``), but until
now nobody tracked the trajectory: a PR could halve the fused-path
speedup and nothing would notice unless a hard-coded bar happened to
trip.  This module is the missing comparator:

* :func:`collect_benches` loads one snapshot set (a directory of
  ``BENCH_*.json`` files, or a single file);
* :func:`flatten_metrics` lowers each snapshot's nested ``metrics`` dict
  into dotted scalar paths (``fused_serving.speedup``);
* :func:`compare` walks baseline vs current metric-by-metric under
  **noise-aware rules**: each metric matches the first
  :class:`MetricRule` whose glob pattern fits its
  ``bench.dotted.path``, giving it a direction (higher/lower is better),
  a relative threshold, and a minimum absolute floor — a delta gates
  only when it exceeds *both*, so micro-jitter on tiny values never
  fails CI while a real regression cannot hide;
* the resulting :class:`FlightReport` renders as a verdict JSON
  (``to_json``) and a markdown table (``to_markdown``) and carries the
  process exit code (non-zero iff any tracked metric regressed).

Wall-clock metrics (``*_ms`` on a CI box) are inherently noisy, so the
default rules gate tightly only on machine-independent numbers —
simulated makespans/throughputs and speedup *ratios* — and treat raw
millisecond samples with wide thresholds.  Untracked metrics are
reported informationally but never gate.

Entry points: ``repro bench compare`` (CLI) and
``tools/bench_compare.py`` (standalone script, what CI runs).
"""

from __future__ import annotations

import fnmatch
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: bump when the verdict JSON envelope changes shape
VERDICT_SCHEMA_VERSION = 1

#: comparison outcomes
OK = "ok"
REGRESSED = "regressed"
IMPROVED = "improved"
MISSING = "missing"        # in baseline, absent from current
NEW = "new"                # in current, absent from baseline
UNTRACKED = "untracked"    # no rule matched — informational only


@dataclass(frozen=True)
class MetricRule:
    """How one family of metrics is judged.

    ``pattern`` is a glob over ``bench.dotted.metric.path``.
    ``direction`` is ``"higher"`` (bigger is better: speedups,
    throughput), ``"lower"`` (latencies, makespans) or ``"ignore"``
    (report, never gate).  A change gates only when it is worse by more
    than ``rel_tol`` *relative* AND more than ``abs_floor`` *absolute* —
    the floor keeps noise on near-zero values from tripping the
    relative test.
    """

    pattern: str
    direction: str                  # "higher" | "lower" | "ignore"
    rel_tol: float = 0.25
    abs_floor: float = 0.0

    def matches(self, path: str) -> bool:
        return fnmatch.fnmatchcase(path, self.pattern)


#: first match wins; order from specific to generic.
DEFAULT_RULES: Tuple[MetricRule, ...] = (
    # deterministic simulation outputs — tight gates, they cannot jitter
    MetricRule("fleet_scheduler.*.makespan_ms", "lower",
               rel_tol=0.10, abs_floor=0.05),
    MetricRule("fleet_scheduler.*.latency_p*_ms", "lower",
               rel_tol=0.10, abs_floor=0.05),
    MetricRule("fleet_scheduler.*.throughput_rps", "higher",
               rel_tol=0.10, abs_floor=1.0),
    MetricRule("fleet_scheduler.*.completed", "higher",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_scheduler.*.unresolved", "lower",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_scheduler.*.futures_failed", "lower",
               rel_tol=0.0, abs_floor=0.0),
    # fleet sharding bench — a deterministic simulation, but the latency
    # model it prices with is allowed to evolve: exact gates on the shard
    # counters (how many batches sharded, everything completed, nothing
    # lost), tolerant gates on simulated milliseconds, and the raw
    # per-request decision table is informational only
    MetricRule("fleet_sharding.*.decisions.*", "ignore"),
    MetricRule("fleet_sharding.*.sharded_batches", "higher",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_sharding.*.completed", "higher",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_sharding.*.unresolved", "lower",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_sharding.*.makespan_ms", "lower",
               rel_tol=0.10, abs_floor=0.02),
    MetricRule("fleet_sharding.*speedup*", "higher",
               rel_tol=0.05, abs_floor=0.02),
    MetricRule("fleet_sharding.*_bytes", "ignore"),
    MetricRule("fleet_sharding.*", "ignore"),
    # fleet autoscale bench — a deterministic simulation priced by the
    # evolving latency model: exact gates on resolution and on the
    # peak-load SLO verdicts, tolerant gates on simulated latency and
    # worker-hours, everything else informational
    MetricRule("fleet_autoscale.*.unresolved", "lower",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_autoscale.*.futures_failed", "lower",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_autoscale.*.completed", "higher",
               rel_tol=0.15, abs_floor=2.0),
    MetricRule("fleet_autoscale.peak.*attained", "higher",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_autoscale.peak.deterministic", "higher",
               rel_tol=0.0, abs_floor=0.0),
    MetricRule("fleet_autoscale.peak.auto_worker_ms", "lower",
               rel_tol=0.30, abs_floor=1.0),
    MetricRule("fleet_autoscale.*.p99_ms", "lower",
               rel_tol=0.50, abs_floor=0.25),
    MetricRule("fleet_autoscale.*", "ignore"),
    # wall-clock speedup ratios — machine-sensitive but dimensionless;
    # a halved speedup must fail, scheduler jitter must not
    MetricRule("*speedup", "higher", rel_tol=0.40, abs_floor=0.25),
    # raw wall-clock samples — informational-to-loose (CI boxes vary)
    MetricRule("*_ms", "lower", rel_tol=1.50, abs_floor=50.0),
    MetricRule("*_s", "lower", rel_tol=1.50, abs_floor=5.0),
)


@dataclass
class ComparisonRow:
    """One metric's verdict."""

    path: str                       # "bench.dotted.metric"
    baseline: Optional[float]
    current: Optional[float]
    outcome: str                    # OK/REGRESSED/IMPROVED/...
    direction: str = "ignore"
    rel_delta: Optional[float] = None   # signed, vs baseline
    rule: Optional[str] = None      # the pattern that matched

    def snapshot(self) -> dict:
        return {
            "path": self.path,
            "baseline": self.baseline,
            "current": self.current,
            "outcome": self.outcome,
            "direction": self.direction,
            "rel_delta": (round(self.rel_delta, 6)
                          if self.rel_delta is not None else None),
            "rule": self.rule,
        }


@dataclass
class FlightReport:
    """Everything one baseline-vs-current comparison produced."""

    rows: List[ComparisonRow] = field(default_factory=list)
    baseline_meta: Dict[str, dict] = field(default_factory=dict)
    current_meta: Dict[str, dict] = field(default_factory=dict)

    @property
    def regressions(self) -> List[ComparisonRow]:
        return [r for r in self.rows if r.outcome == REGRESSED]

    @property
    def verdict(self) -> str:
        return "regress" if self.regressions else "pass"

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for row in self.rows:
            counts[row.outcome] = counts.get(row.outcome, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> str:
        payload = {
            "schema_version": VERDICT_SCHEMA_VERSION,
            "verdict": self.verdict,
            "counts": self.counts(),
            "rows": [r.snapshot() for r in self.rows],
            "baseline": self.baseline_meta,
            "current": self.current_meta,
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        lines = [
            f"## Bench flight recorder — verdict: **{self.verdict}**",
            "",
            "| metric | baseline | current | Δ rel | direction | outcome |",
            "|---|---:|---:|---:|---|---|",
        ]
        order = {REGRESSED: 0, IMPROVED: 1, OK: 2, MISSING: 3, NEW: 4,
                 UNTRACKED: 5}
        for row in sorted(self.rows,
                          key=lambda r: (order.get(r.outcome, 9), r.path)):
            base = "-" if row.baseline is None else f"{row.baseline:.4g}"
            cur = "-" if row.current is None else f"{row.current:.4g}"
            rel = ("-" if row.rel_delta is None
                   else f"{100 * row.rel_delta:+.1f}%")
            mark = ("**REGRESSED**" if row.outcome == REGRESSED
                    else row.outcome)
            lines.append(f"| `{row.path}` | {base} | {cur} | {rel} | "
                         f"{row.direction} | {mark} |")
        counts = ", ".join(f"{k}: {v}" for k, v in self.counts().items())
        lines += ["", f"{len(self.rows)} metrics compared ({counts})."]
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# loading + flattening
# ----------------------------------------------------------------------
def load_bench(path: Union[str, Path]) -> dict:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "bench" not in payload:
        raise ValueError(f"{path}: not a BENCH_*.json payload")
    return payload


def collect_benches(path: Union[str, Path]) -> Dict[str, dict]:
    """``{bench_name: payload}`` from a directory or a single file."""
    p = Path(path)
    if p.is_dir():
        benches = {}
        for f in sorted(p.glob("BENCH_*.json")):
            payload = load_bench(f)
            benches[str(payload["bench"])] = payload
        return benches
    payload = load_bench(p)
    return {str(payload["bench"]): payload}


def flatten_metrics(payload: dict) -> Dict[str, float]:
    """Numeric leaves of ``payload['metrics']`` as dotted paths.

    Booleans and strings are skipped (they are labels, not trajectory);
    lists flatten by index.
    """
    flat: Dict[str, float] = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            flat[prefix] = float(value)
        elif isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(f"{prefix}.{i}", v)

    walk("", payload.get("metrics", {}))
    return flat


def _match_rule(path: str,
                rules: Sequence[MetricRule]) -> Optional[MetricRule]:
    for rule in rules:
        if rule.matches(path):
            return rule
    return None


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def compare(baseline: Dict[str, dict], current: Dict[str, dict],
            rules: Sequence[MetricRule] = DEFAULT_RULES) -> FlightReport:
    """Compare two snapshot sets metric-by-metric.

    Benches present only on one side are reported (``missing`` /
    ``new``) but never gate — a baseline can lag behind a newly added
    bench without blocking it.
    """
    report = FlightReport(
        baseline_meta={name: _meta(p) for name, p in sorted(baseline.items())},
        current_meta={name: _meta(p) for name, p in sorted(current.items())})

    for bench in sorted(set(baseline) | set(current)):
        base_payload = baseline.get(bench)
        cur_payload = current.get(bench)
        if base_payload is None:
            report.rows.append(ComparisonRow(bench, None, None, NEW))
            continue
        if cur_payload is None:
            report.rows.append(ComparisonRow(bench, None, None, MISSING))
            continue
        base_flat = flatten_metrics(base_payload)
        cur_flat = flatten_metrics(cur_payload)
        for key in sorted(set(base_flat) | set(cur_flat)):
            path = f"{bench}.{key}"
            b = base_flat.get(key)
            c = cur_flat.get(key)
            if b is None:
                report.rows.append(ComparisonRow(path, None, c, NEW))
                continue
            if c is None:
                report.rows.append(ComparisonRow(path, b, None, MISSING))
                continue
            report.rows.append(_compare_metric(path, b, c, rules))
    return report


def _compare_metric(path: str, baseline: float, current: float,
                    rules: Sequence[MetricRule]) -> ComparisonRow:
    rule = _match_rule(path, rules)
    rel = ((current - baseline) / abs(baseline)
           if baseline != 0 else (0.0 if current == 0 else None))
    if rule is None or rule.direction == "ignore":
        return ComparisonRow(path, baseline, current, UNTRACKED,
                             rel_delta=rel,
                             rule=rule.pattern if rule else None)
    # signed "worseness": positive when the change hurts
    if rule.direction == "higher":
        worse_abs = baseline - current
    else:
        worse_abs = current - baseline
    # baseline 0: any change is infinitely-relative, so the relative
    # test is vacuous and the abs floor alone decides (0 -> 1 failures
    # on a clean baseline must gate)
    worse_rel = (worse_abs / abs(baseline) if baseline != 0
                 else math.copysign(math.inf, worse_abs) if worse_abs
                 else 0.0)
    if worse_abs > rule.abs_floor and worse_rel > rule.rel_tol:
        outcome = REGRESSED
    elif worse_abs < -rule.abs_floor and worse_rel < -rule.rel_tol:
        outcome = IMPROVED
    else:
        outcome = OK
    return ComparisonRow(path, baseline, current, outcome,
                         direction=rule.direction, rel_delta=rel,
                         rule=rule.pattern)


def _meta(payload: dict) -> dict:
    return {k: payload.get(k) for k in
            ("schema_version", "device", "git_rev", "timestamp")
            if payload.get(k) is not None}


# ----------------------------------------------------------------------
# CLI driver (shared by `repro bench compare` and tools/bench_compare.py)
# ----------------------------------------------------------------------
def run_compare(baseline_path: str, current_path: str, *,
                json_out: Optional[str] = None,
                markdown_out: Optional[str] = None,
                rules: Sequence[MetricRule] = DEFAULT_RULES,
                print_fn=print) -> int:
    """Load, compare, emit artifacts; returns the process exit code."""
    try:
        baseline = collect_benches(baseline_path)
        current = collect_benches(current_path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print_fn(f"error: {exc}")
        return 2
    if not baseline:
        print_fn(f"error: no BENCH_*.json under {baseline_path}")
        return 2
    report = compare(baseline, current, rules)
    print_fn(report.to_markdown())
    if json_out:
        Path(json_out).write_text(report.to_json())
        print_fn(f"[verdict json saved to {json_out}]")
    if markdown_out:
        Path(markdown_out).write_text(report.to_markdown())
        print_fn(f"[markdown saved to {markdown_out}]")
    if report.regressions:
        print_fn(f"FLIGHT RECORDER: {len(report.regressions)} tracked "
                 f"metric(s) regressed beyond threshold")
    else:
        print_fn("FLIGHT RECORDER: no tracked regressions")
    return report.exit_code
