"""Exact-keyed plan cache under frame-to-frame offset deltas.

Several offset streams share one small cache, and each stream's next
frame perturbs its offsets slightly.  Lookups are keyed on the exact
offsets digest, so a perturbed frame is a miss with its own trace, never
a reuse of its predecessor's plan: outputs stay bit-identical to a cold,
uncached run, and every LRU eviction counts on the cache's registry.
"""

import numpy as np

from repro.gpusim import XAVIER
from repro.kernels import LayerConfig, PlanCache, synth_offsets
from repro.kernels.tex2d import run_tex2d
from repro.obs import MetricsRegistry

from helpers import bound_for_entries, entry_bytes, rng

CFG = LayerConfig(8, 8, 20, 20)


def _perturb(off, eps, seed=1):
    g = rng(seed)
    return (off + g.uniform(-eps, eps, size=off.shape)
            .astype(np.float32)).astype(np.float32)


class TestMultiStreamPressure:
    """K concurrent offset streams against a byte bound that holds 2 of
    their entries."""

    K = 4

    def _stream_inputs(self):
        g = rng(0)
        x = g.normal(size=CFG.input_shape()).astype(np.float32)
        w = g.normal(size=CFG.weight_shape()).astype(np.float32)
        b = g.normal(size=(CFG.out_channels,)).astype(np.float32)
        offs = [synth_offsets(CFG, sigma=2.0, seed=10 + s)
                for s in range(self.K)]
        return x, offs, w, b

    def test_evictions_counted_and_outputs_exact(self):
        x, offs, w, b = self._stream_inputs()
        frames = {(s, frame): offs[s] if frame == 0
                  else _perturb(offs[s], 0.1, seed=100 + s)
                  for frame in range(2) for s in range(self.K)}
        reg = MetricsRegistry()
        pc = PlanCache(max_bytes=bound_for_entries(
            [entry_bytes(lambda c: run_tex2d(x, off, w, b, CFG, XAVIER,
                                             plan_cache=c))
             for off in frames.values()], 2), registry=reg)
        outs = {}
        for key, off in frames.items():
            res = run_tex2d(x, off, w, b, CFG, XAVIER, plan_cache=pc)
            outs[key] = (off, res.output)
        # 2 live entries vs 2K distinct digests: the LRU must have evicted
        assert len(pc) == 2
        assert pc.stats.evictions == 2 * self.K - 2
        assert reg.counter("plan_cache_evictions").value() == \
            pc.stats.evictions
        # a perturbed frame is a new digest: one trace per frame, never a
        # near match served from another frame's entry
        assert pc.stats.trace_builds == 2 * self.K
        # every output is exact
        for (s, frame), (off, out) in outs.items():
            cold = run_tex2d(x, off, w, b, CFG, XAVIER)
            assert np.array_equal(out, cold.output), (s, frame)
