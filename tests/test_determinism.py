"""Reproducibility guarantees: seeded flows give identical results."""

import numpy as np
import pytest

from repro.data import ShapesDataset
from repro.gpusim import XAVIER
from repro.kernels import LayerConfig, run_layer_all_backends
from repro.models import build_classifier
from repro.pipeline import TrainConfig, train_classifier

from helpers import rng


class TestSeededFlows:
    def test_kernel_latencies_deterministic(self):
        cfg = LayerConfig(32, 32, 28, 28)
        a = run_layer_all_backends(cfg, XAVIER, bound=7.0, seed=4,
                                   compute_output=False)
        b = run_layer_all_backends(cfg, XAVIER, bound=7.0, seed=4,
                                   compute_output=False)
        for backend in a:
            assert a[backend].sample_kernel.duration_ms == \
                b[backend].sample_kernel.duration_ms

    def test_training_deterministic(self):
        ds = ShapesDataset.generate(32, seed=0, num_objects=1)
        cfg = TrainConfig(epochs=1, batch_size=16, optimizer="sgd",
                          lr=1e-2, seed=3)
        logs = []
        for _ in range(2):
            model = build_classifier("r50s", seed=5)
            logs.append(train_classifier(model, ds, cfg).losses)
        assert logs[0] == logs[1]

    def test_search_deterministic(self):
        from repro.nas import DualPathLayer, IntervalSearch, SearchConfig
        from repro.tensor import Tensor

        def one_run():
            sites = [DualPathLayer(2, 2, rng=np.random.default_rng(30 + i))
                     for i in range(3)]

            class S:
                training = True

                def parameters(self):
                    for s in sites:
                        yield from s.parameters()

                def train(self, mode=True):
                    return self

            xs = [np.random.default_rng(7).normal(
                size=(2, 2, 6, 6)).astype(np.float32)]

            def batches():
                return iter(xs)

            def loss_fn(model, batch):
                h = Tensor(batch)
                for s in sites:
                    h = s(h)
                return (h * h).mean()

            cfg = SearchConfig(search_epochs=2, finetune_epochs=1,
                               beta=0.05, target_latency_ms=2.0, seed=11)
            return IntervalSearch(S(), sites, [1.0, 1.0, 1.0], cfg).run(
                batches, loss_fn)

        a, b = one_run(), one_run()
        assert a.placement == b.placement
        assert a.search_losses == b.search_losses

    def test_no_global_numpy_seed_dependence(self):
        """The library never consumes the global NumPy RNG state."""
        np.random.seed(123)
        before = np.random.get_state()[1][:5].copy()
        ds = ShapesDataset.generate(4, seed=0)
        model = build_classifier("r50s", seed=0)
        cfg = LayerConfig(8, 8, 10, 10)
        run_layer_all_backends(cfg, XAVIER, compute_output=False)
        after = np.random.get_state()[1][:5]
        assert np.array_equal(before, after)


def _stats_rows(result):
    """Numeric KernelStats fields of every launched kernel."""
    import dataclasses

    from repro.gpusim.profiler import KernelStats

    names = [f.name for f in dataclasses.fields(KernelStats)
             if f.name not in ("name", "layer", "geometry")]
    return [[getattr(k, f) for f in names] for k in result.kernels]


class TestPlanCacheDeterminism:
    """Plan caching is a wall-time optimisation, never a numerics one."""

    def test_all_backends_cached_vs_uncached_bit_identical(self):
        """Regression (ISSUE 4 satellite): run_layer_all_backends must
        thread plan_cache through, and cached runs — cold and warm — must
        reproduce uncached outputs and perf counters bit for bit."""
        from repro.kernels.plancache import PlanCache

        cfg = LayerConfig(8, 8, 12, 12, deformable_groups=2)
        base = run_layer_all_backends(cfg, XAVIER, bound=7.0, seed=3,
                                      compute_output=True)
        cache = PlanCache()
        cold = run_layer_all_backends(cfg, XAVIER, bound=7.0, seed=3,
                                      compute_output=True, plan_cache=cache)
        warm = run_layer_all_backends(cfg, XAVIER, bound=7.0, seed=3,
                                      compute_output=True, plan_cache=cache)
        assert cache.stats.hits > 0, "warm pass never hit the plan cache"
        for backend in base:
            for cached in (cold, warm):
                assert np.array_equal(base[backend].output,
                                      cached[backend].output)
                assert _stats_rows(base[backend]) == _stats_rows(
                    cached[backend])

    def test_engine_plan_cache_on_off_bit_identical(self, monkeypatch):
        """Same-seed engine runs are bit-identical in outputs and latency
        on a cold plan cache, on a warm second pass over that cache, and
        uncached — every layer call made with ``plan_cache=None``, the
        reference the cache must reproduce."""
        import repro.pipeline.engine as engine_mod
        from repro.nas import manual_interval_placement
        from repro.pipeline import DefconEngine

        images = rng(9).uniform(0, 1, size=(2, 3, 64, 64)
                                ).astype(np.float32)
        outputs, latencies = [], []

        def run(plan_cache=None):
            model = build_classifier(
                "r50s", placement=manual_interval_placement(9, 3),
                bound=7.0, seed=5)
            eng = DefconEngine(model, XAVIER, backend="tex2dpp",
                               plan_cache=plan_cache)
            outputs.append(eng.classify(images))
            latencies.append(eng.deformable_latency_ms())
            return eng

        cold = run()
        misses = cold.plan_cache_stats.misses
        run(cold.plan_cache)
        assert cold.plan_cache_stats.misses == misses
        assert cold.plan_cache_stats.hits == misses

        real_op = engine_mod.run_deform_op

        def uncached_op(*args, **kwargs):
            kwargs["plan_cache"] = None
            return real_op(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "run_deform_op", uncached_op)
        uncached = run()
        assert uncached.plan_cache_stats.lookups == 0
        assert latencies[0] > 0
        for out, latency in zip(outputs[1:], latencies[1:]):
            assert np.array_equal(outputs[0], out)
            assert latencies[0] == latency
