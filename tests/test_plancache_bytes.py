"""The plan cache's one bound: the live entries' resident bytes.

After every store (a new entry, or a plan added to a live entry) the
cache evicts least-recently-used entries until the live entries'
``nbytes`` fits ``max_bytes``, and never the entry just stored.  These
tests drive it under pressure: many distinct digests, an entry larger
than the bound, a plan that grows a live entry past it, eight threads at
the bound, and shard plans, whose tap tables count like a whole layer's.
"""

import numpy as np
import pytest

from repro.gpusim import XAVIER
from repro.kernels import LayerConfig, PlanCache, synth_offsets
from repro.kernels.shards import enumerate_shards, run_shard
from repro.kernels.tex2d import run_tex2d

from helpers import entry_bytes, hammer, resident_bytes, rng

SMALL = LayerConfig(4, 4, 8, 8)
GEOMETRIES = (SMALL, LayerConfig(8, 8, 16, 16), LayerConfig(8, 8, 20, 20))
LARGE = LayerConfig(16, 16, 32, 32)


def _arrays(cfg, seed=0):
    g = rng(seed)
    return (g.normal(size=cfg.input_shape()).astype(np.float32),
            g.normal(size=cfg.weight_shape()).astype(np.float32),
            g.normal(size=(cfg.out_channels,)).astype(np.float32))


def _live_bytes(pc):
    return sum(e.nbytes for e in pc._entries.values())


def _run(pc, cfg, seed, price=False):
    """One whole-layer call (one store) on fresh offsets of ``seed``."""
    off = synth_offsets(cfg, sigma=2.0, seed=seed)
    if price:
        return run_tex2d(None, off, None, None, cfg, XAVIER, plan_cache=pc)
    x, w, b = _arrays(cfg)
    return run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc)


def test_many_digests_stay_within_the_bound():
    """Thirty distinct digests over three geometries, through a bound
    that holds about three entries: after every store the live bytes are
    at or under the bound and equal the gauge, and every entry dropped
    counts one eviction."""
    bound = 3 * entry_bytes(lambda c: _run(c, GEOMETRIES[-1], 0))
    pc = PlanCache(max_bytes=bound)
    for seed in range(30):
        _run(pc, GEOMETRIES[seed % len(GEOMETRIES)], seed)
        assert _live_bytes(pc) == resident_bytes(pc) <= bound, seed
        assert pc.stats.evictions == pc.stats.trace_builds - len(pc)
    assert pc.stats.trace_builds == 30 and pc.stats.hits == 0
    assert pc.stats.evictions > 0


def test_a_hit_keeps_an_entry_from_eviction():
    """Least recently *used*: an entry read since the others were stored
    outlives them."""
    sizes = [entry_bytes(lambda c: _run(c, SMALL, s)) for s in range(3)]
    pc = PlanCache(max_bytes=sum(sizes) - 1)
    _run(pc, SMALL, 0)
    _run(pc, SMALL, 1)
    _run(pc, SMALL, 0)                       # a hit: 0 is now the newest
    assert pc.stats.hits == 2
    _run(pc, SMALL, 2)                       # one entry must go: 1
    assert pc.stats.evictions == 1 and len(pc) == 2
    _run(pc, SMALL, 0)
    assert pc.stats.hits == 4 and pc.stats.trace_builds == 3


def test_an_entry_larger_than_the_bound_stays_alone():
    """A store larger than the whole bound evicts every other entry and
    keeps itself; the next store evicts it in turn."""
    small = entry_bytes(lambda c: _run(c, SMALL, 0))
    large = entry_bytes(lambda c: _run(c, LARGE, 0))
    bound = 4 * small
    assert large > bound
    pc = PlanCache(max_bytes=bound)
    for seed in range(3):
        _run(pc, SMALL, seed)
    assert len(pc) == 3 and pc.stats.evictions == 0
    x, w, b = _arrays(LARGE)
    off = synth_offsets(LARGE, sigma=2.0, seed=0)
    expected = run_tex2d(x, off, w, b, LARGE, XAVIER).output
    assert np.array_equal(_run(pc, LARGE, 0).output, expected)
    assert len(pc) == 1 and pc.stats.evictions == 3
    assert resident_bytes(pc) == _live_bytes(pc) == large > bound
    _run(pc, LARGE, 0)                       # it serves hits while live
    assert pc.stats.hits == 2
    _run(pc, SMALL, 9)
    assert len(pc) == 1 and pc.stats.evictions == 4
    assert resident_bytes(pc) == _live_bytes(pc) <= bound


def test_a_plan_added_to_a_live_entry_evicts_others_never_it():
    """A price stores a trace-only entry; the first functional call on
    the same offsets adds its gather plan to that live entry.  That store
    grows the entry past the bound: the other entries go, it stays."""
    sizes = [entry_bytes(lambda c: _run(c, SMALL, s)) for s in (1, 2)]
    trace_only = entry_bytes(lambda c: _run(c, LARGE, 0, price=True))
    bound = trace_only + sum(sizes)
    pc = PlanCache(max_bytes=bound)
    _run(pc, LARGE, 0, price=True)
    _run(pc, SMALL, 1)
    _run(pc, SMALL, 2)
    assert len(pc) == 3 and resident_bytes(pc) == bound
    _run(pc, LARGE, 0)
    assert pc.stats.trace_builds == 3 and pc.stats.fused_builds == 3
    assert pc.stats.evictions == 2 and len(pc) == 1
    (entry,) = pc._entries.values()
    assert entry.fused and entry.out_h == LARGE.out_height
    assert resident_bytes(pc) == entry.nbytes > bound


def test_concurrent_distinct_digests_at_the_bound_stay_exact():
    """8 threads, each building its own 4 digests through a bound that
    holds about 4 entries: every gauge reading is at or under the bound,
    the gauge ends equal to the live entries' bytes, every store's
    evictions are counted, and every output is bit-identical to the
    uncached run."""
    cfg = GEOMETRIES[1]
    x, w, b = _arrays(cfg)
    offsets = [synth_offsets(cfg, sigma=2.0, seed=s) for s in range(32)]
    bound = 4 * entry_bytes(lambda c: run_tex2d(x, offsets[0], w, b, cfg,
                                                XAVIER, plan_cache=c))
    pc = PlanCache(max_bytes=bound)
    outputs, readings = {}, []

    def work(i):
        for s in range(i * 4, i * 4 + 4):
            outputs[s] = run_tex2d(x, offsets[s], w, b, cfg, XAVIER,
                                   plan_cache=pc).output
            readings.append(resident_bytes(pc))

    hammer(8, work)
    assert len(outputs) == len(readings) == 32
    assert max(readings) <= bound
    assert resident_bytes(pc) == _live_bytes(pc) <= bound
    assert pc.stats.trace_builds == 32 and pc.stats.fused_builds == 32
    assert pc.stats.evictions == 32 - len(pc) > 0
    assert not pc._building, "in-flight build guard left behind"
    for s, out in outputs.items():
        ref = run_tex2d(x, offsets[s], w, b, cfg, XAVIER).output
        assert np.array_equal(out, ref), s


@pytest.mark.parametrize("kind", ["rows", "channels"])
def test_shard_plans_count_in_the_bytes(kind):
    """Each shard's gather plan adds its tap tables to its entry's bytes
    (a row band's own entry, or the layer's entry that a channel slice
    shares), and the bound evicts on them as on a whole layer's."""
    cfg = LayerConfig(8, 8, 16, 16, deformable_groups=2)
    x, _, _ = _arrays(cfg)
    off = synth_offsets(cfg, sigma=2.0, seed=0)
    shards = [s for s in enumerate_shards(cfg, kind, (1, 1))
              if s is not None]
    pc = PlanCache()
    for shard in shards:
        before = resident_bytes(pc)
        res = run_shard(x, off, cfg, XAVIER, shard, plan_cache=pc)
        plans = [p for e in pc._entries.values() for p in e.fused.values()
                 if p.shard == shard]
        assert len(plans) == 1 and plans[0].nbytes > 0
        assert resident_bytes(pc) - before >= plans[0].nbytes
        ref = run_shard(x, off, cfg, XAVIER, shard)
        assert np.array_equal(res.cols, ref.cols)
    shard_bytes = resident_bytes(pc)
    assert shard_bytes == _live_bytes(pc)
    # bounded at what the shards hold, a cache that held another entry
    # first drops it once the last shard plan is stored
    bounded = PlanCache(max_bytes=shard_bytes)
    _run(bounded, SMALL, 0)
    for shard in shards:
        run_shard(x, off, cfg, XAVIER, shard, plan_cache=bounded)
    assert bounded.stats.evictions == 1
    assert resident_bytes(bounded) == _live_bytes(bounded) == shard_bytes
