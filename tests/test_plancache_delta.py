"""Delta-keyed plan cache: the streaming-session reuse semantics.

These tests pin the contract of docs/streaming.md:

* a delta hit (exact-digest miss within ``delta_bound`` of the session's
  anchor) reuses the anchor's memoised trace simulation, but outputs
  stay **bit-identical** to a cold, uncached run of the same offsets;
* every fused frame of a session runs on the work buffers its anchor
  keeps, while the cached plans hold only their tap tables;
* a delta probe only fires on an exact-digest miss — a known digest
  with an unseen tile is a plain miss against its own trace;
* deltas over the bound are rejected (and counted);
* session state is bounded: ``end_session`` drops the anchors, LRU
  eviction drops an entry's anchors in the same step, and the stream
  re-anchors exactly afterwards.

A texture call with a plan cache makes two lookups — the fused plan and
the perf stats — so an in-bound frame counts two delta hits.
"""

import threading

import numpy as np
import pytest

from repro.gpusim import XAVIER
from repro.kernels import LayerConfig, PlanCache, synth_offsets
from repro.kernels.tex2d import eager_tex2d_forward, run_tex2d, run_tex2dpp
from repro.models import build_classifier
from repro.obs import MetricsRegistry
from repro.pipeline.engine import DefconEngine

from helpers import rng

pytestmark = pytest.mark.streaming

CFG = LayerConfig(8, 8, 20, 20)


def _inputs(cfg=CFG, seed=0):
    g = rng(seed)
    x = g.normal(size=cfg.input_shape()).astype(np.float32)
    w = g.normal(size=cfg.weight_shape()).astype(np.float32)
    b = g.normal(size=(cfg.out_channels,)).astype(np.float32)
    off = synth_offsets(cfg, sigma=2.0, seed=seed)
    return x, off, w, b


def _perturb(off, eps, seed=1):
    g = rng(seed)
    return (off + g.uniform(-eps, eps, size=off.shape)
            .astype(np.float32)).astype(np.float32)


def _rows(res):
    return [k.__dict__ for k in res.kernels]


class TestDeltaHit:
    @pytest.mark.parametrize("runner", [run_tex2d, run_tex2dpp],
                             ids=["tex2d", "tex2dpp"])
    def test_eager_delta_hit_bit_identical(self, runner):
        """One in-bound frame: the delta hit's output equals the eager
        texture-fetch reference of that frame's offsets bit for bit,
        while its perf counters are the anchor's and nothing rebuilds."""
        x, off0, w, b = _inputs()
        off1 = _perturb(off0, 0.2)
        pc = PlanCache(delta_bound=0.3)
        anchor = runner(x, off0, w, b, CFG, XAVIER, plan_cache=pc,
                        session="s0")
        hit = runner(x, off1, w, b, CFG, XAVIER, plan_cache=pc,
                     session="s0")
        eager = eager_tex2d_forward(x, off1, w, b, CFG, XAVIER,
                                    fp16_offsets=runner is run_tex2dpp)
        assert pc.stats.delta_hits == 2        # plan + stats lookups
        assert pc.stats.trace_builds == 1      # frame 1 never rebuilt
        # outputs are exact (recomputed from frame-1 offsets) ...
        assert np.array_equal(hit.output, eager)
        # ... while the perf counters are the anchor's memoised simulation
        assert _rows(hit) == _rows(anchor)

    @pytest.mark.parametrize("runner", [run_tex2d, run_tex2dpp],
                             ids=["tex2d", "tex2dpp"])
    def test_fused_delta_hit_bit_identical(self, runner):
        x, off0, w, b = _inputs()
        pc = PlanCache(delta_bound=0.3)
        anchor = runner(x, off0, w, b, CFG, XAVIER, plan_cache=pc,
                        session="s0")
        for t in range(1, 4):      # several frames reuse one fused plan
            off_t = _perturb(off0, 0.2, seed=t)
            hit = runner(x, off_t, w, b, CFG, XAVIER, plan_cache=pc,
                         session="s0")
            cold = runner(x, off_t, w, b, CFG, XAVIER)
            # outputs are exact (recomputed from frame-t offsets) ...
            assert np.array_equal(hit.output, cold.output), f"frame {t}"
            # ... while the perf counters are the anchor's memoised
            # simulation
            assert _rows(hit) == _rows(anchor), f"frame {t}"
        assert pc.stats.delta_hits == 2 * 3
        assert pc.stats.trace_builds == 1      # frames never rebuilt
        assert pc.stats.fused_builds == 1      # no new compiles

    def test_delta_reject_over_bound(self):
        x, off0, w, b = _inputs()
        pc = PlanCache(delta_bound=0.3)
        run_tex2d(x, off0, w, b, CFG, XAVIER, plan_cache=pc, session="s0")
        far = _perturb(off0, 2.0)
        assert float(np.max(np.abs(far - off0))) > 0.3
        run_tex2d(x, far, w, b, CFG, XAVIER, plan_cache=pc, session="s0")
        assert pc.stats.delta_rejects == 1
        assert pc.stats.delta_hits == 0
        assert pc.stats.trace_builds == 2      # rejected frame rebuilt

    def test_known_digest_unseen_tile_is_plain_miss(self):
        """The delta probe applies only on an exact-digest *miss* — the
        same offsets at a new tile simulate against their own trace."""
        x, off0, w, b = _inputs()
        pc = PlanCache(delta_bound=0.3)
        run_tex2d(x, off0, w, b, CFG, XAVIER, tile=(8, 8), plan_cache=pc,
                  session="s0")
        run_tex2d(x, off0, w, b, CFG, XAVIER, tile=(4, 4), plan_cache=pc,
                  session="s0")
        assert pc.stats.delta_hits == 0
        assert pc.stats.trace_builds == 1      # same trace, new tile sim

    def test_sessionless_and_unbounded_caches_never_probe(self):
        x, off0, w, b = _inputs()
        off1 = _perturb(off0, 0.1)
        # no session on the call
        pc = PlanCache(delta_bound=0.3)
        run_tex2d(x, off0, w, b, CFG, XAVIER, plan_cache=pc)
        run_tex2d(x, off1, w, b, CFG, XAVIER, plan_cache=pc)
        assert pc.stats.delta_hits == 0 and pc.session_count == 0
        # no delta_bound on the cache
        pc2 = PlanCache()
        run_tex2d(x, off0, w, b, CFG, XAVIER, plan_cache=pc2, session="s")
        run_tex2d(x, off1, w, b, CFG, XAVIER, plan_cache=pc2, session="s")
        assert pc2.stats.delta_hits == 0 and pc2.session_count == 0

    def test_delta_bound_validation(self):
        with pytest.raises(ValueError):
            PlanCache(delta_bound=0.0)
        with pytest.raises(ValueError):
            PlanCache(delta_bound=-1.0)


class TestSessionLifecycle:
    def test_end_session_drops_anchors_and_rebuilds_exactly(self):
        x, off0, w, b = _inputs()
        pc = PlanCache(delta_bound=0.3)
        run_tex2d(x, off0, w, b, CFG, XAVIER, plan_cache=pc, session="s0")
        assert pc.session_count == 1
        assert pc.end_session("s0") == 1
        assert pc.session_count == 0
        assert pc.end_session("s0") == 0       # idempotent
        # next frame is a plain miss again (no stale anchor to probe)
        off1 = _perturb(off0, 0.1)
        res = run_tex2d(x, off1, w, b, CFG, XAVIER, plan_cache=pc,
                        session="s0")
        cold = run_tex2d(x, off1, w, b, CFG, XAVIER)
        assert pc.stats.delta_hits == 0
        assert np.array_equal(res.output, cold.output)
        # the trace entries survive (exact-keyed lookups still hit them)
        assert len(pc) == 2

    def test_stream_frames_run_on_the_sessions_buffers(self):
        """Anchor frame, delta hits and an exact hit of one stream all
        run on one set of work buffers kept by the session's anchor; each
        output is still fresh and exact, the cached plans hold only their
        tap tables, and ``end_session`` drops the buffers."""
        x, off0, w, b = _inputs()
        pc = PlanCache(delta_bound=0.3)
        frames = [off0, _perturb(off0, 0.2), _perturb(off0, 0.2, seed=2),
                  off0]
        outs, buffers = [], []
        for off in frames:
            outs.append(run_tex2d(x, off, w, b, CFG, XAVIER, plan_cache=pc,
                                  session="s0").output)
            (anchor,) = pc._anchors.values()
            ((_, bufs),) = anchor.scratch.values()
            buffers.append(bufs)
        assert pc.stats.delta_hits == 4 and pc.stats.hits == 2
        assert all(bufs is buffers[0] for bufs in buffers)
        for off, out in zip(frames, outs):
            assert np.array_equal(out, eager_tex2d_forward(x, off, w, b, CFG,
                                                           XAVIER))
            assert not any(np.shares_memory(out, buf) for buf in buffers[0])
        (entry,) = pc._entries.values()
        (plan,) = entry.fused.values()
        assert plan.nbytes == plan.idx.nbytes + plan.wts.nbytes
        pc.end_session("s0")
        assert not pc._anchors

    def test_clear_drops_sessions(self):
        x, off0, w, b = _inputs()
        pc = PlanCache(delta_bound=0.3)
        run_tex2d(x, off0, w, b, CFG, XAVIER, plan_cache=pc, session="s0")
        pc.clear()
        assert pc.session_count == 0 and len(pc) == 0


class TestMultiStreamPressure:
    """Satellite: K concurrent sessions against max_entries < K."""

    K = 4

    def _session_inputs(self):
        x, _, w, b = _inputs()
        offs = [synth_offsets(CFG, sigma=2.0, seed=10 + s)
                for s in range(self.K)]
        return x, offs, w, b

    def test_evictions_counted_and_outputs_exact(self):
        x, offs, w, b = self._session_inputs()
        reg = MetricsRegistry()
        pc = PlanCache(max_entries=2, registry=reg, delta_bound=0.3)
        outs = {}
        for frame in range(2):
            for s in range(self.K):
                off = offs[s] if frame == 0 \
                    else _perturb(offs[s], 0.1, seed=100 + s)
                res = run_tex2d(x, off, w, b, CFG, XAVIER, plan_cache=pc,
                                session=f"s{s}")
                outs[(s, frame)] = (off, res.output)
        # 2 live entries vs 4+ distinct digests: the LRU must have evicted
        assert len(pc) == 2
        assert pc.stats.evictions > 0
        assert reg.counter("plan_cache_evictions").value() == \
            pc.stats.evictions
        # registry mirrors the delta counters too (satellite: metrics)
        assert reg.counter("plan_cache_delta_hits").value() == \
            pc.stats.delta_hits
        assert reg.counter("plan_cache_delta_rejects").value() == \
            pc.stats.delta_rejects
        # every output — delta hit, re-anchor or plain miss — is exact
        for (s, frame), (off, out) in outs.items():
            cold = run_tex2d(x, off, w, b, CFG, XAVIER)
            assert np.array_equal(out, cold.output), (s, frame)

    def test_anchor_eviction_forces_exact_rebuild_then_reanchors(self):
        x, offs, w, b = self._session_inputs()
        pc = PlanCache(max_entries=1, delta_bound=0.3)
        run_tex2d(x, offs[0], w, b, CFG, XAVIER, plan_cache=pc,
                  session="s0")
        # a competing stream evicts s0's single-entry trace
        run_tex2d(x, offs[1], w, b, CFG, XAVIER, plan_cache=pc,
                  session="s1")
        assert pc.stats.evictions == 1
        # s0's anchor died with its entry, so its next in-bound frame
        # cannot delta-hit: the frame rebuilds exactly ...
        assert pc.session_count == 1
        off1 = _perturb(offs[0], 0.1)
        res = run_tex2d(x, off1, w, b, CFG, XAVIER, plan_cache=pc,
                        session="s0")
        assert pc.stats.delta_hits == 0
        assert np.array_equal(
            res.output, run_tex2d(x, off1, w, b, CFG, XAVIER).output)
        # ... and re-anchors: the following frame delta-hits again
        off2 = _perturb(off1, 0.1, seed=2)
        res2 = run_tex2d(x, off2, w, b, CFG, XAVIER, plan_cache=pc,
                         session="s0")
        assert pc.stats.delta_hits == 2
        assert np.array_equal(
            res2.output, run_tex2d(x, off2, w, b, CFG, XAVIER).output)

    def test_anchors_die_with_their_entry(self):
        """Many short streams through a tiny cache: each evicted entry
        takes its anchors (and their work buffers) with it, so live
        anchors never outnumber live entries."""
        x, _, w, b = _inputs()
        pc = PlanCache(max_entries=2, delta_bound=0.3)
        for s in range(50):
            off = synth_offsets(CFG, sigma=2.0, seed=1000 + s)
            for frame in (off, _perturb(off, 0.1, seed=s)):
                run_tex2d(x, frame, w, b, CFG, XAVIER, plan_cache=pc,
                          session=f"s{s}")
        assert pc.stats.evictions == 48
        assert pc.stats.delta_hits == 2 * 50
        assert pc.session_count <= len(pc)

    def test_concurrent_sessions_coalesce_shared_builds(self):
        """K sessions racing the same digest still build the trace once
        (the ``_acquire_entry`` in-flight guard is session-agnostic)."""
        x, off0, w, b = _inputs()
        for trial in range(3):
            pc = PlanCache(max_entries=2, delta_bound=0.3)
            start = threading.Barrier(self.K)
            errors = []

            def work(s):
                start.wait()
                try:
                    run_tex2d(x, off0, w, b, CFG, XAVIER, plan_cache=pc,
                              session=f"s{s}")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(s,))
                       for s in range(self.K)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            assert pc.stats.trace_builds == 1, f"trial {trial}"
            assert pc.session_count == self.K


class TestEngineSessions:
    def _engine(self, **kw):
        model = build_classifier(lightweight=True, input_size=32)
        return DefconEngine(model, XAVIER, **kw)

    def test_delta_bound_requires_plan_cache(self):
        with pytest.raises(ValueError):
            self._engine(plan_cache=False, delta_bound=0.3)

    def test_shared_cache_bound_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._engine(plan_cache=PlanCache(), delta_bound=0.3)

    def test_set_and_end_session_roundtrip(self):
        eng = self._engine(delta_bound=0.3)
        assert eng.plan_cache.delta_bound == 0.3
        eng.set_session("vid-0")
        assert eng._runtime.session == "vid-0"
        assert eng.end_session("vid-0") == 0   # nothing anchored yet
        assert eng._runtime.session is None    # active session cleared
