"""Ablation — texture-cache capacity and the tile-size sweet spot.

DESIGN.md's cache model drives Fig. 8's tile sensitivity through two
mechanisms: halo re-fetch (small tiles) and capacity thrash (big tiles).
This ablation sweeps the per-SM texture cache size and records, at a fixed
large tile, the hit rate and kernel latency — and shows the autotuned best
tile growing with cache capacity.
"""

import pytest

from repro.autotune import TileTuner
from repro.gpusim import XAVIER
from repro.kernels import LayerConfig, run_deform_op, synth_offsets
from repro.pipeline import format_table

from common import run_once, write_bench_json, write_result

CACHE_KB = (4, 16, 32, 128)
CFG = LayerConfig(128, 128, 69, 69)
BIG_TILE = (32, 32)


def regenerate():
    off = synth_offsets(CFG, sigma=2.0, bound=7.0, seed=0)
    rows, data = [], []
    for kb in CACHE_KB:
        spec = XAVIER.with_overrides(tex_cache_kb_per_sm=kb)
        res = run_deform_op("tex2d", None, off, None, None, CFG, spec,
                            tile=BIG_TILE)
        s = res.sample_kernel
        tuner = TileTuner(spec, budget=12, seed=0)
        best_tile = tuner.best_tile(CFG)
        rows.append([kb, round(s.tex_cache_hit_rate, 2),
                     round(s.duration_ms, 3), f"{best_tile}"])
        data.append((kb, s.tex_cache_hit_rate, s.duration_ms,
                     best_tile[0] * best_tile[1]))
    text = format_table(
        ["tex cache (KB/SM)", f"hit rate @ {BIG_TILE} (%)", "latency (ms)",
         "autotuned tile"],
        rows,
        title=f"Ablation — texture cache capacity ({CFG.label()}, Xavier "
              "variants)",
    )
    write_result("ablation_texture_cache", text)
    write_bench_json(
        "ablation_texture_cache",
        {"rows": [{"tex_cache_kb_per_sm": kb, "hit_rate_pct": h,
                   "latency_ms": t, "autotuned_tile_pixels": p}
                  for kb, h, t, p in data]},
        device=XAVIER.name, layer=CFG.label())
    return data


def test_texture_cache_ablation(benchmark):
    data = run_once(benchmark, regenerate)
    hits = [h for _, h, _, _ in data]
    times = [t for _, _, t, _ in data]
    tiles = [p for _, _, _, p in data]
    # more cache -> better hit rate at the big tile, never slower
    assert hits == sorted(hits)
    assert times[0] >= times[-1]
    # the autotuned tile footprint never shrinks as the cache grows
    assert tiles == sorted(tiles)
