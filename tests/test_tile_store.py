"""Persistent tile store: round-trips, warm starts, corruption, versioning."""

import json
import os

import pytest

from repro.autotune import (TUNER_VERSION, TileStore, TileTuner, TuneResult,
                            geometry_key)
from repro.autotune.store import FORMAT_VERSION, entry_key
from repro.gpusim import RTX_2080TI, XAVIER
from repro.kernels import LayerConfig
from repro.obs import MetricsRegistry

CFG = LayerConfig(16, 16, 24, 24)
CFG2 = LayerConfig(32, 32, 12, 12)


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "tiles.json"


class TestRoundTrip:
    def test_put_get_roundtrip(self, store_path):
        store = TileStore(store_path)
        result = TuneResult(best_point=(8, 16), best_value=0.125,
                            history=[((8, 16), 0.125), ((4, 8), 0.25)])
        store.put(CFG, XAVIER.name, "tex2d", result)
        reloaded = TileStore(store_path).get(CFG, XAVIER.name, "tex2d")
        assert reloaded.best_point == (8, 16)
        assert reloaded.best_value == pytest.approx(0.125)
        assert reloaded.history == result.history

    def test_keys_are_fully_qualified(self, store_path):
        store = TileStore(store_path)
        result = TuneResult(best_point=(8, 8), best_value=1.0)
        store.put(CFG, XAVIER.name, "tex2d", result)
        # a different device, backend, or geometry is a distinct entry
        assert store.get(CFG, RTX_2080TI.name, "tex2d") is None
        assert store.get(CFG, XAVIER.name, "tex2dpp") is None
        assert store.get(CFG2, XAVIER.name, "tex2d") is None

    def test_save_is_atomic_no_temp_left_behind(self, store_path):
        store = TileStore(store_path)
        store.put(CFG, XAVIER.name, "tex2d",
                  TuneResult(best_point=(8, 8), best_value=1.0))
        leftovers = [p for p in store_path.parent.iterdir()
                     if p.name != store_path.name]
        assert leftovers == []
        assert json.loads(store_path.read_text())["format_version"] \
            == FORMAT_VERSION

    def test_memory_store_without_path(self):
        store = TileStore()
        store.put(CFG, XAVIER.name, "tex2d",
                  TuneResult(best_point=(4, 8), best_value=2.0))
        assert store.get_tile(CFG, XAVIER.name, "tex2d") == (4, 8)


class TestWarmStart:
    def test_tuner_reload_makes_zero_objective_evaluations(self, store_path):
        cold = TileTuner(XAVIER, budget=5, seed=0, store=TileStore(store_path))
        first = cold.tune(CFG)
        assert cold.objective_evaluations > 0

        warm = TileTuner(XAVIER, budget=5, seed=0, store=TileStore(store_path))
        second = warm.tune(CFG)
        assert warm.objective_evaluations == 0
        assert second.best_point == first.best_point
        assert second.best_value == pytest.approx(first.best_value)

    def test_fresh_results_written_back(self, store_path):
        tuner = TileTuner(XAVIER, budget=4, seed=0,
                          store=TileStore(store_path))
        tuner.tune(CFG)
        tuner.tune(CFG2)
        assert len(TileStore(store_path)) == 2


    def test_store_counts_on_its_own_registry_not_the_tuners(self):
        """A store counts on the registry it is built with; a tuner with
        another registry (an engine's) never re-binds it, and the tuner's
        own counters stay on the tuner's registry."""
        store_reg, tuner_reg = MetricsRegistry(), MetricsRegistry()
        store = TileStore(registry=store_reg)
        for _ in range(2):
            TileTuner(XAVIER, budget=3, seed=0, store=store,
                      registry=tuner_reg).tune(CFG)
        lookups = store_reg.get("tile_store_lookups")
        assert lookups.value(result="miss") == 1.0
        assert lookups.value(result="hit") == 1.0
        assert store_reg.get("tile_store_saves").value() == 1.0
        assert store_reg.get("tile_store_lookup_events").count(
            result="hit") == 1
        assert tuner_reg.get("tile_store_lookups") is None
        assert tuner_reg.get("autotune_store_warm_hits").value(
            backend="tex2d") == 1.0
        assert store_reg.get("autotune_objective_evaluations") is None


class TestCorruptionAndStaleness:
    def test_corrupt_file_tolerated_and_quarantined(self, store_path):
        store_path.write_text("{this is not json")
        store = TileStore(store_path)
        assert len(store) == 0
        assert store_path.with_suffix(".json.corrupt").exists()
        # the store remains usable after quarantine
        store.put(CFG, XAVIER.name, "tex2d",
                  TuneResult(best_point=(8, 8), best_value=1.0))
        assert len(TileStore(store_path)) == 1

    def test_wrong_format_version_ignored(self, store_path):
        store_path.write_text(json.dumps(
            {"format_version": 999, "entries": {"x": {"tile": [8, 8]}}}))
        assert len(TileStore(store_path)) == 0

    def test_stale_tuner_version_not_served(self, store_path):
        store = TileStore(store_path)
        stale_key = entry_key(CFG, XAVIER.name, "tex2d",
                              tuner_version=TUNER_VERSION - 1)
        store._entries[stale_key] = {"tile": [8, 8], "tuner_version":
                                     TUNER_VERSION - 1}
        store.save()
        reloaded = TileStore(store_path)
        assert len(reloaded) == 1              # preserved on disk...
        assert reloaded.get(CFG, XAVIER.name, "tex2d") is None  # ...unserved

    def test_malformed_entry_values_dropped_on_load(self, store_path):
        store_path.write_text(json.dumps({
            "format_version": FORMAT_VERSION,
            "entries": {"a": {"tile": [0, 8]}, "b": "nope",
                        "c": {"tile": [8]},
                        "good": {"tile": [8, 16]}}}))
        store = TileStore(store_path)
        assert store.keys() == ["good"]


class TestExportImport:
    def test_merge_round_trip(self, store_path, tmp_path):
        src = TileStore(store_path)
        src.put(CFG, XAVIER.name, "tex2d",
                TuneResult(best_point=(8, 16), best_value=0.5))
        dst = TileStore(tmp_path / "other.json")
        assert dst.merge(src.export_payload()) == 1
        assert dst.get_tile(CFG, XAVIER.name, "tex2d") == (8, 16)
        # second merge is a no-op without overwrite
        assert dst.merge(src.export_payload()) == 0

    def test_merge_rejects_unknown_format(self, store_path):
        store = TileStore(store_path)
        assert store.merge({"format_version": 42, "entries": {}}) == 0

    def test_geometry_key_covers_shape_fields(self):
        a = geometry_key(CFG)
        assert geometry_key(LayerConfig(16, 16, 24, 24, stride=2)) != a
        assert geometry_key(LayerConfig(16, 16, 24, 24, dilation=2)) != a
        # batch is deliberately excluded
        assert geometry_key(LayerConfig(16, 16, 24, 24, batch=4)) == a
