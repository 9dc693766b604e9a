"""Command-line interface: ``python -m repro.cli <command>``.

Thin, scriptable entry points over the library — the commands a downstream
user reaches for first:

* ``devices``       — list the simulated GPU presets with each one's
  predicted 3×3 DCN latency (the latency-table number the fleet router
  and NAS search consume);
* ``layers``        — per-layer backend comparison (Table II/IV rows);
* ``end-to-end``    — the Table III trajectory for a device;
* ``tune``          — autotune the CTA tile for one layer shape;
* ``latency-table`` — build (and optionally save) the NAS latency table;
* ``profile``       — nvprof-style counters for one layer on all backends;
* ``serve``         — batched serving demo: tile-store warm start, request
  batching, per-stage metrics, batched-vs-sequential latency (``--trace``
  exports a Chrome trace of the run);
* ``tiles``         — inspect / export / import the persistent tile store;
* ``conformance``   — cross-backend conformance suite: differential
  oracles, metamorphic invariants and a shrinking fuzzer
  (``run`` generates + checks cases, ``replay`` re-runs a failure JSON);
* ``fleet``         — heterogeneous fleet scheduler demo: cost-model
  routing across simulated devices, deadlines, fault injection, circuit
  breakers and graceful degradation (``run`` serves a request stream,
  ``plan`` shows the router's per-worker ECT view);
* ``trace``         — run a model preset under the span tracer and write
  Perfetto-loadable ``trace.json`` + ``metrics.json`` plus the per-layer
  latency table (paper Table II/IV style); ``--open PATH`` lists the
  spans of an existing trace and ``--span-id ID`` expands one of them;
* ``metrics``       — ``export`` converts a saved ``metrics.json``
  snapshot (or re-emits a live registry) to Prometheus text exposition;
* ``bench``         — ``compare`` runs the bench-regression flight
  recorder over two ``BENCH_*.json`` snapshot sets (baseline vs current)
  and exits non-zero on a tracked regression (the CI perf gate).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.autotune.tuner import METHODS
from repro.gpusim.device import DEVICES, DeviceSpec, get_device
from repro.kernels.config import TABLE2_LAYERS, LayerConfig
from repro.kernels.dispatch import BACKENDS
from repro.pipeline.reporting import format_table


def _positive_ints(text: str) -> List[int]:
    """Comma-separated positive integers; [] when ``text`` is not."""
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        return []
    return parts if min(parts) >= 1 else []


def _layer_from_arg(text: str) -> LayerConfig:
    """Parse ``CIN,COUT,H,W[,STRIDE]`` into a LayerConfig (an argparse
    ``type``: a malformed layer is a usage error)."""
    parts = _positive_ints(text)
    if len(parts) not in (4, 5):
        raise argparse.ArgumentTypeError(
            f"layer {text!r} must be CIN,COUT,H,W[,STRIDE], all positive "
            f"integers")
    stride = parts[4] if len(parts) == 5 else 1
    return LayerConfig(parts[0], parts[1], parts[2], parts[3],
                       stride=stride)


def _device_from_arg(name: str) -> DeviceSpec:
    """Resolve a device preset name or alias (an argparse ``type``)."""
    try:
        return get_device(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _positive_int(text: str) -> int:
    """An integer >= 1 (an argparse ``type``)."""
    parts = _positive_ints(text)
    if len(parts) != 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer")
    return parts[0]


def cmd_devices(args) -> int:
    """``repro devices`` — list the simulated GPU presets.

    Alongside the hardware columns, each preset gets its predicted 3×3
    DCN latency for one reference layer shape — the same per-device
    latency-table path (``deform_latency_ms``) the NAS search and the
    fleet scheduler's cost-model router consume, so the column is
    literally the number routing decisions are made from.
    """
    from repro.nas.latency_table import deform_latency_ms

    cfg = args.dcn_layer
    rows = [[s.name, s.num_sms, s.core_clock_ghz, s.dram_bandwidth_gbps,
             s.tex_cache_kb_per_sm, round(s.peak_gflops / 1000, 2),
             round(deform_latency_ms(cfg, s, backend=args.backend), 3)]
            for s in DEVICES.values()]
    print(format_table(
        ["device", "SMs", "clock (GHz)", "DRAM (GB/s)", "tex $ (KB/SM)",
         "peak (TFLOP/s)", f"DCN {cfg.label()} (ms)"], rows,
        title=f"Simulated GPU presets — DCN column on {args.backend}"))

    from repro.fleet import default_interconnect
    ic = default_interconnect(list(DEVICES.values()))
    ic_rows = [[r["pair"], f"{r['latency_ms']:.3f}",
                f"{r['bandwidth_gbps']:.1f}"]
               for r in ic.rows([s.name for s in DEVICES.values()])]
    print("\n" + format_table(
        ["device pair", "link latency (ms)", "link bandwidth (GB/s)"],
        ic_rows,
        title="Default interconnect — links the fleet shard planner "
              "prices transfers over"))
    return 0


def cmd_layers(args) -> int:
    """``repro layers`` — per-layer backend latency comparison."""
    from repro.kernels.dispatch import run_layer_all_backends

    spec = args.device
    layers = [args.layer] if args.layer else list(TABLE2_LAYERS)
    rows = []
    for cfg in layers:
        res = run_layer_all_backends(cfg, spec, bound=args.bound,
                                     compute_output=False)
        bl = res["pytorch"].sample_kernel.duration_ms
        t2 = res["tex2d"].sample_kernel.duration_ms
        tp = res["tex2dpp"].sample_kernel.duration_ms
        rows.append([cfg.label(), round(bl, 3), round(t2, 3), round(tp, 3),
                     f"{bl / tp:.2f}x"])
    print(format_table(
        ["layer", "PyTorch (ms)", "tex2D (ms)", "tex2D++ (ms)", "speedup"],
        rows, title=f"Deformable operation on {spec.name}"))
    return 0


def cmd_end_to_end(args) -> int:
    """``repro end-to-end`` — the Table III latency trajectory."""
    from repro.nas.search import manual_interval_placement
    from repro.pipeline.geometry import paper_scale_geometry
    from repro.pipeline.inference import network_latency_ms

    spec = args.device
    geo = paper_scale_geometry(args.arch)
    manual = manual_interval_placement(geo.num_sites, 3)
    searched = list(manual)
    on = [i for i, v in enumerate(searched) if v]
    searched[on[1]] = False
    baseline = network_latency_ms(geo, manual, spec).total_ms
    rows = []
    for label, placement, kw in (
            ("YOLACT++ baseline", manual, {}),
            ("interval search", searched, {}),
            ("search+tex2d", searched, dict(backend="tex2d")),
            ("search+light+bound+tex2dpp", searched,
             dict(backend="tex2dpp", lightweight=True, bound=7.0))):
        t = network_latency_ms(geo, placement, spec, **kw).total_ms
        rows.append([label, sum(placement), round(t, 1),
                     f"{baseline / t:.2f}x"])
    print(format_table(["configuration", "# DCNs", "ms", "speedup"], rows,
                       title=f"End-to-end {geo.name} on {spec.name}"))
    return 0


def cmd_tune(args) -> int:
    """``repro tune`` — Bayesian tile-size search for one layer."""
    from repro.autotune.store import TileStore
    from repro.autotune.tuner import TileTuner

    spec = args.device
    cfg = args.layer
    store = TileStore(args.store) if args.store else None
    tuner = TileTuner(spec, backend=args.backend, budget=args.budget,
                      store=store)
    result = tuner.tune(cfg, args.method)
    warm = " (from tile store)" if tuner.objective_evaluations == 0 else ""
    print(f"best tile for {cfg.label()} on {spec.name} [{args.backend}]: "
          f"{result.best_point} @ {result.best_value:.4f} ms "
          f"({result.evaluations} evaluations{warm})")
    if store is not None:
        print(f"tile store {args.store}: {len(store)} entries")
    return 0


def cmd_latency_table(args) -> int:
    """``repro latency-table`` — build (and save) the NAS t(w_n) table."""
    from repro.nas.latency_table import LatencyTable
    from repro.pipeline.geometry import candidate_site_configs

    spec = args.device
    table = LatencyTable(spec, backend=args.backend)
    table.build(candidate_site_configs(args.arch))
    rows = [[cfg.label(), round(lat.regular_ms, 3),
             round(lat.deform_ms, 3), round(lat.extra_ms, 3)]
            for cfg, lat in table.items()]
    print(format_table(
        ["site", "regular (ms)", "deformable (ms)", "extra (ms)"], rows,
        title=f"t(w_n) lookup table for {args.arch} on {spec.name}"))
    if args.save:
        table.save(args.save)
        print(f"saved to {args.save}")
    return 0


def cmd_profile(args) -> int:
    """``repro profile`` — nvprof-style counters for one layer."""
    from repro.kernels.dispatch import run_layer_all_backends

    spec = args.device
    cfg = args.layer
    res = run_layer_all_backends(cfg, spec, bound=args.bound,
                                 compute_output=False)
    rows = []
    for backend in ("pytorch", "tex2d", "tex2dpp"):
        s = res[backend].sample_kernel
        rows.append([backend, round(s.duration_ms, 4), round(s.mflop, 2),
                     round(s.gld_efficiency, 1),
                     round(s.gld_transactions_per_request, 2),
                     int(s.tex_cache_requests),
                     round(s.tex_cache_hit_rate, 1)])
    print(format_table(
        ["kernel", "ms", "MFLOP", "GLD eff %", "trans/req", "tex req",
         "tex hit %"], rows,
        title=f"nvprof-style counters for {cfg.label()} on {spec.name}"))
    return 0


def _build_task_model(arch: str, task: str, input_size: int, seed: int):
    """Shared model construction for ``serve`` and ``trace``."""
    from repro.models import build_classifier, build_yolact
    from repro.nas import manual_interval_placement

    placement = manual_interval_placement(9 if arch == "r50s" else 14, 3)
    if task == "detect":
        model = build_yolact(arch, input_size=input_size,
                             placement=placement, bound=7.0, seed=seed)
        task_kwargs = {"score_threshold": 0.05}
    else:
        model = build_classifier(arch, input_size=input_size,
                                 placement=placement, bound=7.0, seed=seed)
        task_kwargs = {}
    return model, task_kwargs


def cmd_serve(args) -> int:
    """``repro serve`` — batched serving demo with tile-store warm start."""
    import numpy as np

    from repro.autotune.store import TileStore
    from repro.obs import MetricsRegistry, SpanTracer
    from repro.pipeline import DefconEngine
    from repro.serve import RequestBatcher, ServingMetrics

    if args.max_batch < 1 or args.requests < 1:
        import sys as _sys
        print("error: --max-batch and --requests must be >= 1",
              file=_sys.stderr)
        return 1
    spec = args.device
    model, task_kwargs = _build_task_model(args.arch, args.task,
                                           args.input_size, args.seed)
    registry = MetricsRegistry()
    store = TileStore(args.store, registry=registry) if args.store else None
    autotune = args.autotune or store is not None
    tracer = SpanTracer() if args.trace else None

    engine = DefconEngine(model, spec, backend=args.backend,
                          autotune=autotune, tune_budget=args.tune_budget,
                          tile_store=store, registry=registry, tracer=tracer)
    if autotune:
        print(f"autotune: {len(engine.tiles)} tile(s) bound, "
              f"{engine.tune_evaluations} objective evaluation(s)"
              + (" — warm start" if engine.tune_evaluations == 0 else ""))

    rng = np.random.default_rng(args.seed)
    images = [rng.uniform(0, 1, size=(3, args.input_size, args.input_size)
                          ).astype(np.float32) for _ in range(args.requests)]

    batcher = RequestBatcher(engine, task=args.task,
                             max_batch_size=args.max_batch,
                             max_wait_s=args.max_wait,
                             metrics=ServingMetrics(registry=registry),
                             tracer=tracer, **task_kwargs)
    batcher.serve_all(images)
    batched_ms = batcher.metrics.sim_ms_per_image

    # sequential baseline: one engine call per request, same tiles (and the
    # same plan cache, so both measurements see warmed steady-state plans)
    seq_engine = DefconEngine(model, spec, backend=args.backend,
                              autotune=autotune,
                              tune_budget=args.tune_budget, tile_store=store,
                              plan_cache=engine.plan_cache)
    for img in images:
        if args.task == "detect":
            seq_engine.detect(img[None], **task_kwargs)
        else:
            seq_engine.classify(img[None])
    seq_ms = seq_engine.deformable_latency_ms() / len(images)

    print(batcher.metrics.summary(nvprof_rows=engine.nvprof_rows()))
    if batched_ms > 0:
        print(f"\nper-image simulated deformable latency on {spec.name}: "
              f"sequential {seq_ms:.4f} ms, batched {batched_ms:.4f} ms "
              f"({seq_ms / batched_ms:.2f}x)")
    stats = engine.tile_cache_stats
    print(f"tile cache: {stats.hits} hits, {stats.near_hits} near-hits, "
          f"{stats.misses} misses")
    pstats = engine.plan_cache_stats
    print(f"plan cache: {pstats.hits} hits, {pstats.misses} misses, "
          f"{pstats.trace_builds} trace builds "
          f"({pstats.hit_rate:.1f}% hit rate)")
    if tracer is not None:
        tracer.write(args.trace)
        print(f"wrote Chrome trace to {args.trace} "
              f"({tracer.num_events} events)")
    if args.metrics_out:
        registry.write(args.metrics_out)
        print(f"wrote metrics registry to {args.metrics_out}")
    return 0


def _unprintable_span_field(event: dict) -> Optional[str]:
    """The first field of a trace span that ``trace --open`` cannot
    print — a ``name`` that is no string, a ``ts`` or ``dur`` that is no
    number — or None."""
    if not isinstance(event.get("name"), str):
        return "name"
    for key in ("ts", "dur"):
        if not isinstance(event.get(key, 0.0), (int, float)):
            return key
    return None


def _open_trace_span(path: str, span_id: Optional[str]) -> int:
    """``repro trace --open`` — inspect spans of an existing trace JSON.

    With ``--span-id`` prints the one span of that id (its timing,
    thread, and args); without, lists every span id in the file so the
    ids are discoverable — numerically when every id is ``s<N>`` (what
    :class:`~repro.obs.tracer.SpanTracer` writes), in file order
    otherwise.
    """
    import json
    import re
    import sys as _sys

    try:
        with open(path) as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {path}: {exc}", file=_sys.stderr)
        return 1
    events = trace.get("traceEvents", []) if isinstance(trace, dict) \
        else None
    if not isinstance(events, list):
        print(f"error: {path} is not a Chrome trace (a JSON object with "
              f"a traceEvents list)", file=_sys.stderr)
        return 1
    spans = [e for e in events
             if isinstance(e, dict) and e.get("ph") == "X"
             and isinstance(e.get("args"), dict) and e["args"].get("span_id")]
    if span_id is not None:
        matches = [e for e in spans if e["args"]["span_id"] == span_id]
        if not matches:
            print(f"error: no span {span_id!r} in {path} "
                  f"({len(spans)} spans present)", file=_sys.stderr)
            return 1
        spans = matches[:1]
    for e in spans:
        field = _unprintable_span_field(e)
        if field is not None:
            value = repr(e[field]) if field in e else "missing"
            print(f"error: span {e['args']['span_id']!r} in {path}: "
                  f"field {field!r} is {value}; a span needs a string "
                  f"name and numeric ts and dur", file=_sys.stderr)
            return 1
    if span_id is None:
        if all(re.fullmatch(r"s\d+", str(e["args"]["span_id"]))
               for e in spans):
            spans.sort(key=lambda e: int(e["args"]["span_id"][1:]))
        rows = [[e["args"]["span_id"], e["name"], e.get("cat", ""),
                 round(e.get("ts", 0.0), 1), round(e.get("dur", 0.0), 1)]
                for e in spans]
        print(format_table(["span", "name", "cat", "ts (us)", "dur (us)"],
                           rows, title=f"Spans in {path}"))
        print("\npass --span-id ID to expand one span")
        return 0
    event = spans[0]
    print(f"span {span_id}: {event['name']} [{event.get('cat', '')}]")
    print(f"  ts: {event.get('ts', 0.0):.1f} us   "
          f"dur: {event.get('dur', 0.0):.1f} us   "
          f"pid: {event.get('pid')}   tid: {event.get('tid')}")
    for key, value in sorted(event.get("args", {}).items()):
        if key != "span_id":
            print(f"  {key}: {value}")
    return 0


def cmd_trace(args) -> int:
    """``repro trace`` — trace a serving session, export trace + metrics."""
    if args.open:
        return _open_trace_span(args.open, args.span_id)
    if args.span_id:
        import sys as _sys
        print("error: --span-id requires --open PATH", file=_sys.stderr)
        return 1

    import numpy as np

    from repro.autotune.store import TileStore
    from repro.obs import MetricsRegistry, SpanTracer
    from repro.pipeline import DefconEngine
    from repro.serve import RequestBatcher, ServingMetrics

    spec = args.device
    model, task_kwargs = _build_task_model(args.model, args.task,
                                           args.input_size, args.seed)
    registry = MetricsRegistry()
    store = TileStore(args.store, registry=registry) if args.store else None
    tracer = SpanTracer()

    engine = DefconEngine(model, spec, backend=args.backend,
                          autotune=args.autotune or store is not None,
                          tune_budget=args.tune_budget, tile_store=store,
                          registry=registry, tracer=tracer)
    rng = np.random.default_rng(args.seed)
    images = [rng.uniform(0, 1, size=(3, args.input_size, args.input_size)
                          ).astype(np.float32) for _ in range(args.requests)]
    batcher = RequestBatcher(engine, task=args.task,
                             max_batch_size=args.max_batch,
                             metrics=ServingMetrics(registry=registry),
                             tracer=tracer, **task_kwargs)
    with tracer.span("serve.session", cat="serve",
                     requests=args.requests, model=args.model,
                     backend=args.backend, device=spec.name):
        batcher.serve_all(images)

    tracer.write(args.out)
    registry.write(args.metrics_out)

    rows = engine.per_layer_rows()
    if rows:
        keys = list(rows[0])
        print(format_table(keys,
                           [[round(r[k], 4) if isinstance(r[k], float)
                             else r[k] for k in keys] for r in rows],
                           title=f"Per-layer deformable latency — "
                                 f"{args.model}/{args.backend} on "
                                 f"{spec.name}"))
    total = engine.deformable_latency_ms()
    print(f"\n{args.requests} request(s), {batcher.metrics.num_batches} "
          f"batch(es); simulated deformable time {total:.4f} ms "
          f"across {engine.log.num_launches} kernel launches")
    print(f"wrote Chrome trace to {args.out} ({tracer.num_events} events) "
          f"and metrics to {args.metrics_out}")
    if args.flame:
        print("\n" + tracer.flame_summary(top=args.top))
    return 0


def cmd_metrics(args) -> int:
    """``repro metrics`` — convert metrics snapshots between formats."""
    import json
    import sys as _sys

    from repro.obs.registry import prometheus_from_snapshot

    if args.action != "export":
        raise ValueError(f"unknown metrics action {args.action!r}")
    try:
        with open(args.snapshot) as fh:
            snapshot = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read metrics snapshot {args.snapshot}: {exc}",
              file=_sys.stderr)
        return 1
    if not isinstance(snapshot, dict) or not all(
            isinstance(v, dict) and "kind" in v for v in snapshot.values()):
        print(f"error: {args.snapshot} is not a metrics registry snapshot",
              file=_sys.stderr)
        return 1
    try:
        text = prometheus_from_snapshot(snapshot)
    except ValueError as exc:
        print(f"error: {args.snapshot}: {exc}", file=_sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote Prometheus exposition for {len(snapshot)} metric(s) "
              f"to {args.out}")
    else:
        _sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    """``repro bench`` — bench-regression flight recorder."""
    from repro.obs.flightrec import run_compare

    if args.action != "compare":
        raise ValueError(f"unknown bench action {args.action!r}")
    return run_compare(args.baseline, args.current,
                       json_out=args.json_out,
                       markdown_out=args.markdown_out)


def cmd_tiles(args) -> int:
    """``repro tiles`` — show / export / import the persistent tile store."""
    import json
    import sys as _sys

    from repro.autotune.store import TileStore

    store = TileStore(args.store)
    if args.action == "show":
        rows = [[r["device"], r["backend"], f"v{r['tuner_version']}",
                 r["geometry"], f"{r['tile']}",
                 round(r["best_ms"], 4) if r["best_ms"] is not None else "-",
                 r["evaluations"] or "-"] for r in store.rows()]
        print(format_table(
            ["device", "backend", "ver", "geometry", "tile", "best (ms)",
             "evals"], rows,
            title=f"Tile store {args.store} ({len(store)} entries)"))
        return 0
    if args.action == "export":
        payload = json.dumps(store.export_payload(), indent=1, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
            print(f"exported {len(store)} entries to {args.out}")
        else:
            _sys.stdout.write(payload + "\n")
        return 0
    if args.action == "import":
        src = getattr(args, "from")
        try:
            with open(src) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read tile payload {src}: {exc}",
                  file=_sys.stderr)
            return 1
        try:
            added = store.merge(payload, overwrite=args.overwrite)
        except ValueError as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return 1
        print(f"imported {added} entries into {args.store} "
              f"({len(store)} total)")
        return 0
    raise ValueError(f"unknown tiles action {args.action!r}")


def cmd_conformance(args) -> int:
    """``repro conformance`` — cross-backend conformance suite."""
    import contextlib
    import sys as _sys

    from repro.conformance import (CaseGenerator, ConformanceRunner,
                                   inject_fault, load_repro)

    spec = args.device
    runner = ConformanceRunner(spec)
    inject = (inject_fault(args.inject) if args.inject
              else contextlib.nullcontext())

    if args.action == "replay":
        try:
            case = load_repro(args.repro)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load repro {args.repro}: {exc}",
                  file=_sys.stderr)
            return 1
        with inject:
            report = runner.run_case(case)
        rows = [[r.name,
                 "skip" if r.skipped else "pass" if r.passed else "FAIL",
                 f"{r.max_err:.3e}", f"{r.tolerance:.3e}", r.detail[:60]]
                for r in report.results]
        print(format_table(
            ["check", "result", "max err", "tolerance", "detail"], rows,
            title=f"Replay of case {case.case_id()} "
                  f"({case.height}x{case.width}x{case.in_channels}, "
                  f"{case.offset_regime}) on {spec.name}"))
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nreplay {verdict}: {len(report.failures)} failing "
              f"check(s) of {len(report.results)}")
        return 0 if report.passed else 1

    from repro.obs import MetricsRegistry

    cases = CaseGenerator(seed=args.seed).generate(args.cases)
    registry = MetricsRegistry()
    with inject:
        suite = runner.run_suite(cases, shrink=not args.no_shrink,
                                 out_dir=args.out)
    suite.bind_registry(registry)
    print(format_table(
        ["check", "runs", "pass", "fail", "skip", "worst margin"],
        suite.check_rows(),
        title=f"Conformance: {suite.num_cases} cases, seed {args.seed}, "
              f"{spec.name}" + (f", fault={args.inject}" if args.inject
                                else "")))
    pstats = runner.plan_cache.stats
    if pstats.lookups:
        print(f"plan cache: {pstats.hits} hits / {pstats.lookups} lookups "
              f"({pstats.hit_rate:.1f}%)")
    if args.metrics_out:
        registry.write(args.metrics_out)
        print(f"wrote metrics registry to {args.metrics_out}")
    failed = suite.failed_reports
    if failed:
        print(f"\nFAIL: {len(failed)}/{suite.num_cases} case(s) failed; "
              f"{len(suite.artifacts)} repro artifact(s):")
        for path in suite.artifacts:
            print(f"  {path}")
        print(f"replay one with: repro conformance replay <path> "
              f"--device {spec.name}")
        return 1
    print(f"\nPASS: {suite.num_cases} cases, all checks within bounds")
    return 0


def _build_fleet_from_args(args):
    """Shared fleet assembly for ``fleet run`` / ``fleet plan``."""
    from repro.autotune.store import TileStore
    from repro.fleet import build_fleet
    from repro.obs import MetricsRegistry, SpanTracer

    model, task_kwargs = _build_task_model(args.arch, args.task,
                                           args.input_size, args.seed)
    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    registry = MetricsRegistry()
    store = TileStore(args.store, registry=registry) \
        if getattr(args, "store", None) else None
    tracer = SpanTracer() if getattr(args, "trace", None) else None
    sched = build_fleet(
        model, devices, backend=args.backend, task=args.task,
        router=args.router, registry=registry, tracer=tracer,
        faults=list(getattr(args, "fault", None) or ()),
        tile_store=store, queue_capacity=args.queue_capacity,
        max_batch_size=args.max_batch, max_attempts=args.max_attempts,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_ms=args.breaker_cooldown,
        seed=args.seed, shard=getattr(args, "shard", "off"),
        **task_kwargs)
    return sched, registry, tracer


def cmd_fleet(args) -> int:
    """``repro fleet`` — heterogeneous fleet scheduler demo."""
    import sys as _sys

    import numpy as np

    try:
        sched, registry, tracer = _build_fleet_from_args(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    image = rng.uniform(0, 1, size=(3, args.input_size, args.input_size)
                        ).astype(np.float32)

    plan_rows = [[r["worker"], r["device"], r["backend"], r["breaker"],
                  r["queue_depth"], r["backlog_ms"], r["predicted_ms"],
                  r["ect_ms"]] for r in sched.explain(image)]
    print(format_table(
        ["worker", "device", "backend", "breaker", "queued", "backlog ms",
         "predicted ms", "ECT ms"], plan_rows,
        title=f"Fleet routing view — router={sched.router.name}, "
              f"one {args.input_size}px {args.task} request"))
    if sched.shard_planner is not None:
        srows = [[p.label, p.kind, len(p.assignments) or 1,
                  round(p.predicted_ms, 3)]
                 for p in sorted(
                     sched.shard_planner.plan_space(
                         sched.workers, image.shape, 1,
                         sched.clock.now_ms),
                     key=lambda p: (p.predicted_ms, p.label))]
        print("\n" + format_table(
            ["plan", "kind", "workers", "predicted ms"], srows,
            title=f"Shard plan space — mode={sched.shard_planner.mode}, "
                  f"cheapest wins at serve time"))
    if args.action == "plan":
        print("\nlowest expected completion time wins; `fleet run` serves "
              "a full request stream through this router.")
        return 0

    images = [rng.uniform(0, 1, size=(3, args.input_size, args.input_size)
                          ).astype(np.float32)
              for _ in range(args.requests)]
    futures = [sched.submit(img, deadline_ms=args.deadline) for img in images]
    sched.drain()
    sched.close()

    shown = sched.decisions[:args.show_decisions]
    dec_rows = [[d["request"], d["attempt"], d["sim_ms"],
                 d["worker"] or "(rejected)",
                 "  ".join(f"{n}={ms}" for n, ms in d["ect_ms"].items())]
                for d in shown]
    print("\n" + format_table(
        ["req", "try", "sim ms", "routed to", "candidate ECTs (ms)"],
        dec_rows,
        title=f"Routing decisions (first {len(shown)} of "
              f"{len(sched.decisions)})"))

    if sched.shard_decisions:
        sd_rows = [[d["worker"], d["plan"], d["kind"], d["requests"],
                    d["predicted_ms"],
                    d["simulated_ms"] if d["simulated_ms"] is not None
                    else "-",
                    "yes" if d["applied"] else "no"]
                   for d in sched.shard_decisions[:args.show_decisions]]
        print("\n" + format_table(
            ["coordinator", "plan", "kind", "reqs", "predicted ms",
             "simulated ms", "sharded"], sd_rows,
            title=f"Shard decisions (first {len(sd_rows)} of "
                  f"{len(sched.shard_decisions)})"))

    snap = sched.snapshot()
    worker_rows = [[w["worker"], w["device"], w["backend"], w["breaker"],
                    "yes" if w["degraded"] else "no",
                    snap["completed_by_worker"].get(
                        w["worker"], 0), w["busy_until_ms"]]
                   for w in snap["workers"]]
    print("\n" + format_table(
        ["worker", "device", "backend", "breaker", "degraded", "completed",
         "busy until (ms)"], worker_rows, title="Workers after the run"))

    rejected = sum(snap["rejected_by_reason"].values())
    print(f"\n{snap['submitted']} submitted: {snap['completed']} completed, "
          f"{rejected} rejected {snap['rejected_by_reason']}, "
          f"{snap['retries']} retries; makespan {snap['makespan_ms']} ms "
          f"simulated")
    unresolved = len(sched.unresolved())
    resolved = sum(1 for f in futures if f.done())
    print(f"futures audit: {len(futures)} submitted, {resolved} resolved, "
          f"{unresolved} unresolved")
    if tracer is not None and args.trace:
        tracer.write(args.trace)
        print(f"wrote Chrome trace to {args.trace} "
              f"({tracer.num_events} events)")
    if args.metrics_out:
        registry.write(args.metrics_out)
        print(f"wrote metrics registry to {args.metrics_out}")
    return 0 if unresolved == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DEFCON reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "devices", help="list simulated GPU presets with DCN latency")
    p.add_argument("--dcn-layer", default="128,128,69,69",
                   type=_layer_from_arg,
                   help="CIN,COUT,H,W[,STRIDE] for the predicted 3x3 DCN "
                        "latency column (default: 128,128,69,69)")
    p.add_argument("--backend", default="tex2dpp",
                   choices=BACKENDS,
                   help="backend for the DCN latency column")

    p = sub.add_parser("layers", help="per-layer backend comparison")
    p.add_argument("--device", default="xavier", type=_device_from_arg)
    p.add_argument("--layer", default=None, type=_layer_from_arg,
                   help="CIN,COUT,H,W[,STRIDE]; default: Table II shapes")
    p.add_argument("--bound", type=float, default=7.0)

    p = sub.add_parser("end-to-end", help="Table III trajectory")
    p.add_argument("--device", default="xavier", type=_device_from_arg)
    p.add_argument("--arch", default="r101s")

    p = sub.add_parser("tune", help="autotune the CTA tile for a layer")
    p.add_argument("--device", default="xavier", type=_device_from_arg)
    p.add_argument("--layer", required=True, type=_layer_from_arg)
    p.add_argument("--backend", default="tex2d",
                   choices=["tex2d", "tex2dpp"])
    p.add_argument("--budget", type=_positive_int, default=14)
    p.add_argument("--method", default="bayes", choices=METHODS)
    p.add_argument("--store", default=None,
                   help="persist/reuse results in this tile-store JSON")

    p = sub.add_parser("serve", help="batched serving demo with metrics")
    p.add_argument("--device", default="xavier", type=_device_from_arg)
    p.add_argument("--arch", default="r50s")
    p.add_argument("--task", default="classify",
                   choices=["classify", "detect"])
    p.add_argument("--backend", default="tex2dpp",
                   choices=BACKENDS)
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--max-batch", type=int, default=4)
    p.add_argument("--max-wait", type=float, default=0.01)
    p.add_argument("--input-size", type=int, default=64)
    p.add_argument("--store", default=None,
                   help="tile-store path (implies --autotune; warm start "
                        "when populated)")
    p.add_argument("--autotune", action="store_true")
    p.add_argument("--tune-budget", type=_positive_int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="also export a Chrome trace JSON of the run")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="also export the metrics registry as JSON")

    p = sub.add_parser(
        "trace", help="trace a serving session (Chrome trace + metrics)")
    p.add_argument("--model", default="r50s",
                   help="model preset (r50s/r101s)")
    p.add_argument("--device", default="xavier", type=_device_from_arg)
    p.add_argument("--task", default="classify",
                   choices=["classify", "detect"])
    p.add_argument("--backend", default="tex2dpp",
                   choices=BACKENDS)
    p.add_argument("--requests", type=int, default=4)
    p.add_argument("--max-batch", type=int, default=2)
    p.add_argument("--input-size", type=int, default=64)
    p.add_argument("--autotune", action="store_true")
    p.add_argument("--tune-budget", type=_positive_int, default=6)
    p.add_argument("--store", default=None,
                   help="tile-store path (implies autotune)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace output path (Perfetto-loadable)")
    p.add_argument("--metrics-out", default="metrics.json",
                   help="metrics registry JSON output path")
    p.add_argument("--flame", action="store_true",
                   help="print the text flame summary")
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="keep only the N largest flame rows")
    p.add_argument("--open", default=None, metavar="TRACE_JSON",
                   help="inspect an existing trace instead of running: "
                        "list its span ids, or expand one with --span-id")
    p.add_argument("--span-id", default=None, metavar="SID",
                   help="with --open: print the one span of this id "
                        "(e.g. s17)")

    p = sub.add_parser("tiles", help="inspect/export/import the tile store")
    tiles_sub = p.add_subparsers(dest="action", required=True)
    ps = tiles_sub.add_parser("show", help="list stored tiles")
    ps.add_argument("--store", required=True)
    pe = tiles_sub.add_parser("export", help="write a portable JSON dump")
    pe.add_argument("--store", required=True)
    pe.add_argument("--out", default=None, help="output path (default stdout)")
    pi = tiles_sub.add_parser("import", help="merge an exported dump")
    pi.add_argument("--store", required=True)
    pi.add_argument("from", metavar="FROM", help="exported JSON to merge")
    pi.add_argument("--overwrite", action="store_true",
                    help="replace existing entries on key collision")

    p = sub.add_parser(
        "conformance",
        help="differential conformance suite for the deform kernels")
    conf_sub = p.add_subparsers(dest="action", required=True)
    pr = conf_sub.add_parser(
        "run", help="generate cases and run the full check catalogue")
    pr.add_argument("--device", default="xavier", type=_device_from_arg)
    pr.add_argument("--cases", type=int, default=200,
                    help="number of cases to generate (default 200)")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", default="results/conformance",
                    help="directory for failure repro JSONs")
    pr.add_argument("--no-shrink", action="store_true",
                    help="serialise failures without minimising them")
    pr.add_argument("--inject", default=None,
                    choices=["flip-bilinear", "drop-quantization"],
                    help="inject a known kernel fault (suite self-test; "
                         "the run is expected to FAIL)")
    pr.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="also export the metrics registry as JSON")
    pp = conf_sub.add_parser(
        "replay", help="re-run one failure repro JSON deterministically")
    pp.add_argument("repro", metavar="REPRO_JSON",
                    help="path written by a failing `conformance run`")
    pp.add_argument("--device", default="xavier", type=_device_from_arg)
    pp.add_argument("--inject", default=None,
                    choices=["flip-bilinear", "drop-quantization"],
                    help="replay under the same injected fault")

    p = sub.add_parser(
        "fleet", help="heterogeneous fleet scheduler (docs/fleet.md)")
    fleet_sub = p.add_subparsers(dest="action", required=True)
    fleet_common = argparse.ArgumentParser(add_help=False)
    fleet_common.add_argument("--devices", default="xavier,2080ti",
                              help="comma-separated device presets, one "
                                   "worker each (default: xavier,2080ti)")
    fleet_common.add_argument("--backend", default="tex2dpp",
                              choices=BACKENDS)
    fleet_common.add_argument("--router", default="cost",
                              choices=["cost", "shard-cost", "round-robin",
                                       "random"])
    fleet_common.add_argument("--shard", default="off",
                              choices=["off", "cost", "always"],
                              help="intra-request parallelism: split "
                                   "deformable layers across workers when "
                                   "the interconnect-aware cost model says "
                                   "it wins (cost), always take the widest "
                                   "split (always), or never (off)")
    fleet_common.add_argument("--arch", default="r50s")
    fleet_common.add_argument("--task", default="classify",
                              choices=["classify", "detect"])
    fleet_common.add_argument("--input-size", type=int, default=32)
    fleet_common.add_argument("--max-batch", type=int, default=4)
    fleet_common.add_argument("--queue-capacity", type=int, default=16)
    fleet_common.add_argument("--max-attempts", type=int, default=3)
    fleet_common.add_argument("--breaker-threshold", type=int, default=3)
    fleet_common.add_argument("--breaker-cooldown", type=float, default=50.0,
                              metavar="MS")
    fleet_common.add_argument("--seed", type=int, default=0)
    fr = fleet_sub.add_parser(
        "run", parents=[fleet_common],
        help="serve a request stream across the fleet")
    fr.add_argument("--requests", type=int, default=8)
    fr.add_argument("--deadline", type=float, default=None, metavar="MS",
                    help="per-request deadline in simulated ms "
                         "(default: none)")
    fr.add_argument("--fault", action="append", default=None,
                    metavar="WORKER=KIND[:START-END][:xFACTOR]",
                    help="inject a fault (kinds: crash, latency, wedge; "
                         "times in sim ms); repeatable. Workers are named "
                         "w<i>-<device>, e.g. w1-rtx-2080ti=crash:0-20")
    fr.add_argument("--store", default=None,
                    help="tile-store path for per-device warm start")
    fr.add_argument("--show-decisions", type=int, default=12)
    fr.add_argument("--trace", default=None, metavar="PATH",
                    help="also export a Chrome trace JSON of the run")
    fr.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="also export the metrics registry as JSON")
    fleet_sub.add_parser(
        "plan", parents=[fleet_common],
        help="show the router's per-worker ECT view without serving")

    p = sub.add_parser(
        "metrics", help="convert metrics snapshots (Prometheus exposition)")
    metrics_sub = p.add_subparsers(dest="action", required=True)
    pm = metrics_sub.add_parser(
        "export", help="metrics.json snapshot -> Prometheus text")
    pm.add_argument("snapshot", metavar="METRICS_JSON",
                    help="snapshot written by --metrics-out / registry.write")
    pm.add_argument("--out", default=None,
                    help="output path (default stdout)")

    p = sub.add_parser(
        "bench", help="bench-regression flight recorder (docs/observability.md)")
    bench_sub = p.add_subparsers(dest="action", required=True)
    pb = bench_sub.add_parser(
        "compare",
        help="compare BENCH_*.json snapshot sets; exit 1 on regression")
    pb.add_argument("baseline", metavar="BASELINE",
                    help="baseline BENCH_*.json file or directory")
    pb.add_argument("current", metavar="CURRENT",
                    help="current BENCH_*.json file or directory")
    pb.add_argument("--json-out", default=None, metavar="PATH",
                    help="write the verdict JSON here")
    pb.add_argument("--markdown-out", default=None, metavar="PATH",
                    help="write the markdown table here")

    p = sub.add_parser("latency-table", help="build the NAS t(w_n) table")
    p.add_argument("--device", default="xavier", type=_device_from_arg)
    p.add_argument("--arch", default="r101s")
    p.add_argument("--backend", default="pytorch", choices=BACKENDS)
    p.add_argument("--save", default=None, help="write JSON to this path")

    p = sub.add_parser("profile", help="nvprof counters for one layer")
    p.add_argument("--device", default="xavier", type=_device_from_arg)
    p.add_argument("--layer", required=True, type=_layer_from_arg)
    p.add_argument("--bound", type=float, default=7.0)
    return parser


COMMANDS = {
    "devices": cmd_devices,
    "layers": cmd_layers,
    "end-to-end": cmd_end_to_end,
    "tune": cmd_tune,
    "latency-table": cmd_latency_table,
    "profile": cmd_profile,
    "serve": cmd_serve,
    "tiles": cmd_tiles,
    "trace": cmd_trace,
    "conformance": cmd_conformance,
    "fleet": cmd_fleet,
    "metrics": cmd_metrics,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        # a closed pipe shows on this flush, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed early (``repro ... | head``).  Point stdout at
        # devnull so the flush at exit fails no more, as the ``signal``
        # module's docs recommend, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
