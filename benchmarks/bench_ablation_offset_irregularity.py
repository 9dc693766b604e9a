"""Ablation — offset irregularity drives the texture win.

The paper's core performance mechanism: learned offsets make the input
gathers irregular, wrecking coalescing for the software kernel while the
texture path rides its 2-D-local cache.  This ablation sweeps the *spatial
correlation length* of the synthetic offsets from i.i.d. noise (worst
case) to smooth fields (trained-offset-like) and records, per setting:

* the PyTorch kernel's GLD efficiency (coalescing quality),
* the tex2D++ speedup over PyTorch.

Expected shape: GLD efficiency rises with smoothness; the texture speedup
is largest for irregular offsets and shrinks (but stays >1) as the
baseline's accesses become coalesced.
"""

import pytest

from repro.gpusim import XAVIER
from repro.kernels import LayerConfig, run_deform_op, synth_offsets
from repro.pipeline import format_table

from common import run_once, write_bench_json, write_result

CORRELATIONS = (0.0, 1.0, 2.0, 4.0, 8.0)
CFG = LayerConfig(128, 128, 69, 69)


def regenerate():
    rows, data = [], []
    for corr in CORRELATIONS:
        off = synth_offsets(CFG, sigma=2.0, bound=7.0, seed=0,
                            correlation=corr)
        ref = run_deform_op("pytorch", None, off, None, None, CFG, XAVIER)
        tex = run_deform_op("tex2dpp", None, off, None, None, CFG, XAVIER)
        eff = ref.sample_kernel.gld_efficiency
        speedup = (ref.sample_kernel.duration_ms
                   / tex.sample_kernel.duration_ms)
        rows.append([("iid" if corr == 0 else f"{corr:.0f} px"),
                     round(eff, 1), round(speedup, 2)])
        data.append((corr, eff, speedup))
    text = format_table(
        ["offset correlation", "PyTorch GLD eff (%)", "tex2D++ speedup"],
        rows,
        title="Ablation — offset spatial smoothness vs coalescing and "
              f"texture speedup ({CFG.label()}, Xavier)",
    )
    write_result("ablation_offset_irregularity", text)
    write_bench_json(
        "ablation_offset_irregularity",
        {"rows": [{"correlation_px": c, "pytorch_gld_efficiency_pct": e,
                   "tex2dpp_speedup": s} for c, e, s in data]},
        device=XAVIER.name, layer=CFG.label())
    return data


def test_offset_irregularity_ablation(benchmark):
    data = run_once(benchmark, regenerate)
    effs = [e for _, e, _ in data]
    speedups = [s for _, _, s in data]
    # coalescing quality improves monotonically with smoothness
    assert effs == sorted(effs)
    assert effs[0] < 30.0          # iid offsets are badly uncoalesced
    assert effs[-1] > 1.5 * effs[0]
    # the texture path wins everywhere, and wins most on irregular offsets
    assert all(s > 1.0 for s in speedups)
    assert speedups[0] == max(speedups)
