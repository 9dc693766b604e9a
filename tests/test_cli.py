"""CLI tests (in-process main() invocation)."""

import pytest

from repro.cli import _layer_from_arg, build_parser, main


class TestArgParsing:
    def test_layer_parse(self):
        cfg = _layer_from_arg("128,128,69,69")
        assert cfg.in_channels == 128 and cfg.height == 69
        assert cfg.stride == 1

    def test_layer_parse_with_stride(self):
        cfg = _layer_from_arg("64,64,32,32,2")
        assert cfg.stride == 2

    def test_layer_parse_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _layer_from_arg("1,2,3")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "jetson-agx-xavier" in out and "rtx-2080ti" in out

    def test_layers_single(self, capsys):
        assert main(["layers", "--layer", "16,16,20,20"]) == 0
        out = capsys.readouterr().out
        assert "16x16x20x20" in out and "tex2D++" in out

    def test_end_to_end(self, capsys):
        assert main(["end-to-end", "--arch", "r50s"]) == 0
        out = capsys.readouterr().out
        assert "YOLACT++ baseline" in out
        assert "speedup" in out

    def test_tune(self, capsys):
        assert main(["tune", "--layer", "16,16,24,24", "--budget", "6"]) == 0
        out = capsys.readouterr().out
        assert "best tile" in out

    def test_tune_sweep_and_workers_removed(self, capsys):
        for argv in (["--method", "sweep"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["tune", "--layer", "16,16,24,24"] + argv)
            assert exc.value.code == 2
            assert argv[0] in capsys.readouterr().err

    def test_latency_table_save(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main(["latency-table", "--arch", "r50s",
                     "--save", str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "t(w_n)" in out

    def test_profile(self, capsys):
        assert main(["profile", "--layer", "16,16,20,20"]) == 0
        out = capsys.readouterr().out
        assert "pytorch" in out and "tex2dpp" in out

    def test_unknown_device_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["layers", "--device", "tpu"])
        assert exc.value.code == 2
        assert "unknown device 'tpu'" in capsys.readouterr().err


#: one argv per subcommand that takes ``--device``, valid apart from it
DEVICE_COMMANDS = (
    ["layers"], ["end-to-end"], ["tune", "--layer", "8,8,8,8"], ["serve"],
    ["trace"], ["conformance", "run"], ["conformance", "replay", "r.json"],
    ["latency-table"], ["profile", "--layer", "8,8,8,8"])


def _usage_error(argv, capsys):
    """``main(argv)`` stops at parse time: exit 2, a usage line, the
    error on stderr and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err
    return err


class TestParseTimeErrors:
    @pytest.mark.parametrize("argv", DEVICE_COMMANDS,
                             ids=lambda a: " ".join(a[:2]))
    def test_unknown_device(self, argv, capsys):
        err = _usage_error(argv + ["--device", "nope"], capsys)
        assert "argument --device: unknown device 'nope'" in err

    @pytest.mark.parametrize("layer", ["8,8,8", "a,b,c,d", "8,8,0,8",
                                       "8,-8,8,8", "8,8,8,8,0", ""])
    @pytest.mark.parametrize("argv", [["layers", "--layer"],
                                      ["tune", "--layer"],
                                      ["profile", "--layer"],
                                      ["devices", "--dcn-layer"]],
                             ids=lambda a: a[0])
    def test_malformed_layer(self, argv, layer, capsys):
        err = _usage_error(argv + [layer], capsys)
        assert "must be CIN,COUT,H,W[,STRIDE], all positive" in err

    def test_latency_table_backend_choices(self, capsys):
        err = _usage_error(["latency-table", "--backend", "foo"], capsys)
        assert "argument --backend: invalid choice: 'foo'" in err

    @pytest.mark.parametrize("budget", ["0", "-3", "two"])
    @pytest.mark.parametrize("argv", [["tune", "--layer", "8,8,8,8",
                                       "--budget"],
                                      ["serve", "--tune-budget"],
                                      ["trace", "--tune-budget"]],
                             ids=lambda a: a[0])
    def test_tuning_budget_must_be_positive(self, argv, budget, capsys):
        err = _usage_error(argv + [budget], capsys)
        assert f"argument {argv[-1]}: {budget!r} is not a positive" in err


class TestServeAndTiles:
    def test_tune_with_store_then_warm(self, tmp_path, capsys):
        store = str(tmp_path / "tiles.json")
        assert main(["tune", "--layer", "16,16,24,24", "--budget", "4",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["tune", "--layer", "16,16,24,24", "--budget", "4",
                     "--store", store]) == 0
        assert "from tile store" in capsys.readouterr().out

    def test_tiles_show_export_import(self, tmp_path, capsys):
        store = str(tmp_path / "tiles.json")
        main(["tune", "--layer", "16,16,24,24", "--budget", "4",
              "--store", store])
        capsys.readouterr()
        assert main(["tiles", "show", "--store", store]) == 0
        assert "c16x16_h24w24" in capsys.readouterr().out

        dump = str(tmp_path / "dump.json")
        assert main(["tiles", "export", "--store", store, "--out", dump]) == 0
        other = str(tmp_path / "other.json")
        capsys.readouterr()
        assert main(["tiles", "import", "--store", other, dump]) == 0
        assert "imported 1 entries" in capsys.readouterr().out

    def test_trace_open_lists_and_expands_spans(self, tmp_path, capsys):
        import json

        trace = {"traceEvents": [
            {"ph": "X", "name": "fleet.batch", "cat": "fleet",
             "ts": 10.0, "dur": 250.0, "pid": 1, "tid": 2,
             "args": {"span_id": "s3", "worker": "w0"}},
            {"ph": "X", "name": "fleet.batch", "cat": "fleet",
             "ts": 300.0, "dur": 100.0, "pid": 1, "tid": 2,
             "args": {"span_id": "s11"}},
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0},
        ]}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))

        assert main(["trace", "--open", str(path)]) == 0
        out = capsys.readouterr().out
        assert "s3" in out and "s11" in out and "--span-id" in out

        assert main(["trace", "--open", str(path), "--span-id", "s3"]) == 0
        out = capsys.readouterr().out
        assert "span s3: fleet.batch" in out
        assert "worker: w0" in out and "dur: 250.0" in out

        assert main(["trace", "--open", str(path),
                     "--span-id", "s99"]) == 1
        assert "no span 's99'" in capsys.readouterr().err

    def test_trace_span_id_requires_open(self, capsys):
        assert main(["trace", "--span-id", "s1"]) == 1
        assert "--span-id requires --open" in capsys.readouterr().err

    @staticmethod
    def _listed_ids(out):
        """Span ids in the order ``trace --open`` lists them."""
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.lstrip().startswith("-")) + 1
        return [line.split()[0] for line in lines[start:] if line.strip()
                and not line.startswith("pass --span-id")]

    def test_trace_open_lists_foreign_ids_in_file_order(self, tmp_path,
                                                         capsys):
        import json

        trace = {"traceEvents": [
            {"ph": "X", "name": "first", "ts": 5.0, "dur": 1.0,
             "args": {"span_id": "s2"}},
            {"ph": "X", "name": "second", "ts": 1.0, "dur": 1.0,
             "args": {"span_id": "x", "step": 7}},
            # events that are not objects with object args are skipped
            1, {"ph": "X", "name": "listargs", "args": ["s9"]},
            {"ph": "X", "name": "third", "ts": 3.0, "dur": 1.0,
             "args": {"span_id": "s1"}},
        ]}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))

        assert main(["trace", "--open", str(path)]) == 0
        assert self._listed_ids(capsys.readouterr().out) == ["s2", "x", "s1"]
        assert main(["trace", "--open", str(path), "--span-id", "x"]) == 0
        out = capsys.readouterr().out
        assert "span x: second" in out and "step: 7" in out

    @pytest.mark.parametrize("trace", [
        [{"ph": "X", "name": "a", "args": {"span_id": "s1"}}],
        {"traceEvents": 5},
    ], ids=["list", "events-not-a-list"])
    def test_trace_open_rejects_a_file_that_is_not_a_chrome_trace(
            self, tmp_path, capsys, trace):
        import json

        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        assert main(["trace", "--open", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0]

    @pytest.mark.parametrize("span, field, span_id", [
        ({"ts": 1.0, "dur": 1.0}, "name", None),
        ({"name": "op", "ts": "12", "dur": 1.0}, "ts", None),
        ({"name": "op", "ts": "12", "dur": 1.0}, "ts", "s1"),
    ], ids=["no-name", "string-ts", "string-ts-span-id"])
    def test_trace_open_rejects_a_span_it_cannot_print(
            self, tmp_path, capsys, span, field, span_id):
        """A span another tool wrote with no name, or with a string ts,
        ends in one ``error:`` line naming the span and the field."""
        import json

        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": [
            dict(span, ph="X", args={"span_id": "s1"})]}))
        argv = ["trace", "--open", str(path)]
        assert main(argv + (["--span-id", span_id] if span_id else [])) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'s1'" in err[0] and f"field '{field}'" in err[0]
        assert captured.out == ""

    def test_a_reader_that_closes_early_gets_no_traceback(self, tmp_path):
        """``repro trace --open`` on a 3,000-span trace into a reader that
        stops after three lines, as ``| head -3`` does: the CLI exits 1
        with nothing on stderr."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "name": f"op{i}", "cat": "test", "ts": float(i),
             "dur": 1.0, "pid": 1, "tid": 1, "args": {"span_id": f"s{i}"}}
            for i in range(3000)]}))
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "trace", "--open",
             str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env)
        try:
            head = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert b"Spans in" in head[0]
        assert proc.returncode == 1
        assert err == b""

    def test_trace_open_expands_a_span_a_tracer_wrote(self, tmp_path,
                                                       capsys):
        """A real SpanTracer, nested spans on two threads: every ``X``
        event carries its own ``s<N>`` id, and ``--span-id`` finds it."""
        import json
        import re
        import threading

        from repro.obs import SpanTracer

        tracer = SpanTracer()
        barrier = threading.Barrier(2)

        def work(name):
            barrier.wait()
            with tracer.span(f"{name}.outer", cat="test"):
                for step in range(3):
                    with tracer.span(f"{name}.inner", cat="test",
                                     step=step):
                        pass

        threads = [threading.Thread(target=work, args=(n,))
                   for n in ("t0", "t1")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        path = tmp_path / "trace.json"
        tracer.write(str(path))

        spans = [e for e in json.loads(path.read_text())["traceEvents"]
                 if e["ph"] == "X"]
        ids = [e["args"]["span_id"] for e in spans]
        assert len(spans) == 8 and len(set(ids)) == 8
        assert all(re.fullmatch(r"s\d+", i) for i in ids)
        assert len({e["tid"] for e in spans}) == 2

        assert main(["trace", "--open", str(path)]) == 0
        assert self._listed_ids(capsys.readouterr().out) == sorted(
            ids, key=lambda i: int(i[1:]))
        inner = next(e for e in spans
                     if e["name"] == "t1.inner" and e["args"]["step"] == 2)
        sid = inner["args"]["span_id"]
        assert main(["trace", "--open", str(path), "--span-id", sid]) == 0
        out = capsys.readouterr().out
        assert f"span {sid}: t1.inner [test]" in out
        assert f"tid: {inner['tid']}" in out and "step: 2" in out

    def test_metrics_export_prometheus(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("hits", help="cache hits").inc(4, backend="tex2d")
        snap = tmp_path / "metrics.json"
        reg.write(snap)

        assert main(["metrics", "export", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE hits counter" in out
        assert 'hits{backend="tex2d"} 4' in out

        dest = tmp_path / "metrics.prom"
        assert main(["metrics", "export", str(snap),
                     "--out", str(dest)]) == 0
        assert "# TYPE hits counter" in dest.read_text()

        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a snapshot"}')
        assert main(["metrics", "export", str(bad)]) == 1
        assert "not a metrics registry snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"kind": "foo", "series": [{"labels": {}}]},
        {"kind": "counter"},
        {"kind": "counter", "series": [{"labels": [], "value": 1.0}]},
        {"kind": "histogram", "series": [{"labels": {}, "p50": 1.0,
                                          "p95": 1.0, "p99": 1.0}]},
        # what metrics.json held for a windowed series, which no
        # registry writes any more
        {"kind": "windowed_histogram", "help": "per-request wall latency",
         "series": [{"labels": {}, "count": 1, "sum": 2.5,
                     "window_ms": 1000.0, "retention": 4, "windows": [
                         {"count": 1, "sum": 2.5, "p50": 2.5, "p95": 2.5,
                          "p99": 2.5, "window_start_ms": 0.0,
                          "window_end_ms": 1000.0}]}]},
    ], ids=["unknown-kind", "no-series", "labels-not-an-object",
            "histogram-without-count", "windowed"])
    def test_metrics_export_rejects_an_entry_it_cannot_read(
            self, tmp_path, capsys, entry):
        import json

        snap = tmp_path / "metrics.json"
        snap.write_text(json.dumps({
            "hits": {"kind": "counter", "help": "",
                     "series": [{"labels": {}, "value": 1.0}]},
            "x": entry}))
        dest = tmp_path / "metrics.prom"
        assert main(["metrics", "export", str(snap),
                     "--out", str(dest)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'x'" in err[0] and repr(entry["kind"]) in err[0]
        assert captured.out == "" and not dest.exists()

    def test_bench_compare_pass_and_regress(self, tmp_path, capsys):
        import json

        payload = {"schema_version": 1, "bench": "perf_model",
                   "metrics": {"fused_serving": {"speedup": 2.6}}}
        baseline = tmp_path / "baselines"
        current = tmp_path / "results"
        for d in (baseline, current):
            d.mkdir()
            (d / "BENCH_perf_model.json").write_text(json.dumps(payload))

        assert main(["bench", "compare", str(baseline), str(current)]) == 0
        assert "no tracked regressions" in capsys.readouterr().out

        perturbed = dict(payload,
                         metrics={"fused_serving": {"speedup": 1.0}})
        (current / "BENCH_perf_model.json").write_text(
            json.dumps(perturbed))
        verdict = tmp_path / "verdict.json"
        assert main(["bench", "compare", str(baseline), str(current),
                     "--json-out", str(verdict)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert json.loads(verdict.read_text())["verdict"] == "regress"

    def test_serve_classify_reports_batching(self, tmp_path, capsys):
        store = str(tmp_path / "tiles.json")
        assert main(["serve", "--requests", "4", "--max-batch", "2",
                     "--tune-budget", "3", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "Serving metrics" in out
        assert "tile cache:" in out
        assert "sequential" in out and "batched" in out
        # warm second run: tiles load from the store, no tuning
        capsys.readouterr()
        assert main(["serve", "--requests", "2", "--max-batch", "2",
                     "--tune-budget", "3", "--store", store]) == 0
        assert "warm start" in capsys.readouterr().out

    def test_serve_always_reports_plan_cache(self, capsys):
        assert main(["serve", "--requests", "1", "--max-batch", "1"]) == 0
        out = capsys.readouterr().out
        assert "plan cache: 6 hits, 6 misses, 3 trace builds" in out

    def test_serve_no_plan_cache_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--no-plan-cache"])
        assert exc.value.code == 2
        assert "--no-plan-cache" in capsys.readouterr().err

    def test_fleet_run_store_counts_on_the_fleet_registry(self, tmp_path,
                                                           capsys):
        """A fleet's shared tile store counts on the fleet's registry, so
        ``--metrics-out`` carries its lookups (not one worker's private
        engine registry)."""
        import json

        metrics = tmp_path / "m.json"
        assert main(["fleet", "run", "--requests", "4", "--max-batch", "2",
                     "--store", str(tmp_path / "tiles.json"),
                     "--metrics-out", str(metrics)]) == 0
        snap = json.loads(metrics.read_text())
        lookups = sum(s["value"]
                      for s in snap["tile_store_lookups"]["series"])
        assert lookups > 0
        saves = snap["tile_store_saves"]["series"]
        assert saves and saves[0]["value"] > 0
