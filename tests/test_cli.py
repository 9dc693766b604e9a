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

    def test_fleet_run_slo_without_trace_writes_metrics(self, tmp_path,
                                                        capsys):
        """``--slo`` builds a tracer for its exemplars even without
        ``--trace``; the run still exits 0 and writes ``--metrics-out``."""
        metrics = tmp_path / "m.json"
        assert main(["fleet", "run", "--requests", "12",
                     "--fault", "w1-rtx-2080ti=crash:0-0.3", "--slo",
                     "--metrics-out", str(metrics)]) == 0
        assert metrics.exists()
        assert "SLO fleet-p99-latency" in capsys.readouterr().out
