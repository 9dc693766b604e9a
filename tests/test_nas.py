"""Interval-search tests: Gumbel sampling, penalty (Eq. 6/8), Algorithm 1."""

import numpy as np
import pytest

from repro.nas import (DEFORM, REGULAR, DualPathLayer, IntervalSearch,
                       LatencyTable, SearchConfig, anneal_tau,
                       deform_latency_ms,
                       estimated_deform_latency, gumbel_softmax,
                       latency_penalty, latency_penalty_gradient,
                       manual_interval_placement, sample_noise)
from repro.gpusim import XAVIER
from repro.kernels import LayerConfig
from repro.kernels.reference import conv_ms
from repro.nn.module import Parameter
from repro.tensor import Tensor

from helpers import rng


class TestGumbel:
    def test_weights_sum_to_one(self):
        alpha = Tensor(np.array([0.3, -0.7], dtype=np.float32))
        w = gumbel_softmax(alpha, tau=1.0, rng=rng(0))
        assert w.data.sum() == pytest.approx(1.0, abs=1e-5)
        assert (w.data >= 0).all()

    def test_low_temperature_sharpens(self):
        alpha = Tensor(np.array([2.0, 0.0], dtype=np.float32))
        eps = np.zeros(2, dtype=np.float32)
        soft = gumbel_softmax(alpha, tau=5.0, rng=rng(0), eps=eps)
        sharp = gumbel_softmax(alpha, tau=0.1, rng=rng(0), eps=eps)
        assert sharp.data[0] > soft.data[0]
        assert sharp.data[0] > 0.99

    def test_gradient_flows_to_alpha(self):
        alpha = Parameter(np.zeros(2, dtype=np.float32))
        w = gumbel_softmax(alpha, tau=1.0, rng=rng(1))
        (w * Tensor(np.array([1.0, -1.0]))).sum().backward()
        assert alpha.grad is not None and np.abs(alpha.grad).sum() > 0

    def test_hard_mode_one_hot_forward(self):
        alpha = Parameter(np.array([0.0, 3.0], dtype=np.float32))
        w = gumbel_softmax(alpha, tau=1.0, rng=rng(2),
                           eps=np.zeros(2, dtype=np.float32), hard=True)
        assert np.allclose(sorted(w.data), [0.0, 1.0])

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            gumbel_softmax(Tensor(np.zeros(2)), tau=0.0, rng=rng(0))

    def test_noise_variants(self):
        u = sample_noise((1000,), rng(3), "uniform")
        assert 0.0 <= u.min() and u.max() <= 1.0
        g = sample_noise((1000,), rng(3), "gumbel")
        assert g.mean() == pytest.approx(0.577, abs=0.15)  # Euler–Mascheroni
        with pytest.raises(ValueError):
            sample_noise((2,), rng(3), "gaussian")

    def test_anneal_tau_endpoints(self):
        assert anneal_tau(0, 100, 5.0, 0.5) == pytest.approx(5.0)
        assert anneal_tau(99, 100, 5.0, 0.5) == pytest.approx(0.5)
        assert anneal_tau(50, 100, 5.0, 0.5) < 5.0


class TestLatencyPenalty:
    def _alphas(self, values):
        return [Parameter(np.array(v, dtype=np.float32)) for v in values]

    def test_zero_when_no_deform_selected(self):
        alphas = self._alphas([[1.0, 0.0], [2.0, -1.0]])
        pen = latency_penalty(alphas, [5.0, 3.0], target_ms=0.0)
        assert pen.item() == pytest.approx(0.0)

    def test_value_matches_eq6(self):
        alphas = self._alphas([[0.0, 0.5], [1.0, 0.2]])
        # only site 0 has alpha1 > alpha0: sum = sigma(0.5)·4.0; T = 1.0
        pen = latency_penalty(alphas, [4.0, 10.0], target_ms=1.0)
        from repro.nas.penalty import SELECTION_SHARPNESS

        sel = 4.0 / (1.0 + np.exp(-SELECTION_SHARPNESS * 0.5))
        assert pen.item() == pytest.approx((sel - 1.0) ** 2, rel=1e-4)

    def test_autograd_gradient_matches_eq8_closed_form(self):
        values = [[0.1, 0.8], [0.9, 0.3], [-0.2, 0.4]]
        lat = [2.0, 5.0, 3.0]
        target = 1.5
        alphas = self._alphas(values)
        pen = latency_penalty(alphas, lat, target)
        pen.backward()
        closed = latency_penalty_gradient(
            [np.array(v) for v in values], lat, target)
        for a, want in zip(alphas, closed):
            got = a.grad[1] if a.grad is not None else 0.0
            assert got == pytest.approx(want, rel=1e-4, abs=1e-6)

    def test_no_gradient_to_regular_alpha(self):
        alphas = self._alphas([[0.0, 0.5]])
        latency_penalty(alphas, [4.0], 0.0).backward()
        assert alphas[0].grad[0] == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            latency_penalty(self._alphas([[0, 1]]), [1.0, 2.0], 0.0)

    def test_estimated_latency_counts_selected(self):
        alphas = [np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                  np.array([0.2, 0.3])]
        assert estimated_deform_latency(alphas, [5.0, 7.0, 2.0]) == 7.0


class TestDualPathLayer:
    def test_search_forward_blends(self):
        layer = DualPathLayer(4, 4, rng=rng(4))
        layer.set_search_state(1.0, rng(5))
        x = Tensor(rng(6).normal(size=(1, 4, 6, 6)))
        out = layer(x)
        assert out.shape == (1, 4, 6, 6)

    def test_frozen_choice_uses_single_branch(self):
        layer = DualPathLayer(4, 4, rng=rng(7))
        layer.freeze_choice(REGULAR)
        x = Tensor(rng(8).normal(size=(1, 4, 6, 6)))
        out = layer(x)
        want = layer.regular(Tensor(x.data))
        assert np.allclose(out.data, want.data, atol=1e-6)
        assert not layer.uses_deform

    def test_freeze_defaults_to_argmax(self):
        layer = DualPathLayer(4, 4, rng=rng(9))
        layer.alpha.data[:] = [0.1, 0.9]
        assert layer.freeze_choice() == DEFORM
        assert layer.uses_deform

    def test_invalid_choice(self):
        layer = DualPathLayer(4, 4, rng=rng(10))
        with pytest.raises(ValueError):
            layer.freeze_choice(2)

    def test_alpha_receives_gradient_in_search(self):
        layer = DualPathLayer(2, 2, rng=rng(11))
        layer.set_search_state(1.0, rng(12))
        x = Tensor(rng(13).normal(size=(1, 2, 5, 5)))
        (layer(x) ** 2).mean().backward()
        assert layer.alpha.grad is not None

    def test_stride_two(self):
        layer = DualPathLayer(2, 4, stride=2, rng=rng(14))
        layer.set_search_state(1.0, rng(15))
        x = Tensor(rng(16).normal(size=(1, 2, 8, 8)))
        assert layer(x).shape == (1, 4, 4, 4)


class TestManualPlacement:
    def test_interval_three_pattern(self):
        p = manual_interval_placement(9, 3)
        assert sum(p) == 3
        assert p[-1]  # the final block is deformable (YOLACT++ policy)
        idx = [i for i, v in enumerate(p) if v]
        assert all(b - a == 3 for a, b in zip(idx, idx[1:]))

    def test_interval_one_is_all(self):
        assert all(manual_interval_placement(5, 1))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            manual_interval_placement(5, 0)

    def test_explicit_offset(self):
        p = manual_interval_placement(6, 2, offset=0)
        assert p == [True, False, True, False, True, False]


class TestLatencyTable:
    def test_lookup_caches(self):
        table = LatencyTable(XAVIER)
        cfg = LayerConfig(8, 8, 10, 10)
        first = table.lookup(cfg)
        assert table.lookup(cfg) is first
        assert len(table) == 1

    def test_deform_slower_than_regular(self):
        table = LatencyTable(XAVIER)
        lat = table.lookup(LayerConfig(32, 32, 24, 24))
        assert lat.deform_ms > lat.regular_ms
        assert lat.extra_ms > 0

    def test_build_and_items(self):
        table = LatencyTable(XAVIER)
        layers = [LayerConfig(8, 8, 10, 10), LayerConfig(16, 16, 10, 10)]
        table.build(layers)
        assert len(list(table.items())) == 2

    def test_conv_latency_positive_and_monotone(self):
        small = conv_ms(LayerConfig(8, 8, 10, 10), XAVIER)
        large = conv_ms(LayerConfig(64, 64, 40, 40), XAVIER)
        assert 0 < small < large

    def test_regular_latency_is_the_conv_price(self):
        table = LatencyTable(XAVIER)
        for cfg in (LayerConfig(8, 8, 10, 10),
                    LayerConfig(16, 32, 9, 7, stride=2, batch=3)):
            assert table.lookup(cfg).regular_ms == conv_ms(cfg, XAVIER)

    def test_deform_latency_backends(self):
        cfg = LayerConfig(8, 8, 10, 10)
        ref = deform_latency_ms(cfg, XAVIER, backend="pytorch")
        tex = deform_latency_ms(cfg, XAVIER, backend="tex2d")
        assert ref > 0 and tex > 0


class TestIntervalSearchDriver:
    """A miniature synthetic search: 3 sites, a separable toy objective."""

    def _toy(self, beta, target, epochs=2):
        g = rng(20)
        supernet_sites = [DualPathLayer(2, 2, rng=rng(30 + i))
                          for i in range(3)]

        class Supernet:
            training = True

            def parameters(self):
                for s in supernet_sites:
                    yield from s.parameters()

            def train(self, mode=True):
                return self

        xs = [g.normal(size=(2, 2, 6, 6)).astype(np.float32)
              for _ in range(2)]

        def batches():
            return iter(xs)

        def loss_fn(model, batch):
            out = Tensor(np.zeros(1, dtype=np.float32))
            h = Tensor(batch)
            for s in supernet_sites:
                h = s(h)
            return (h * h).mean()

        cfg = SearchConfig(search_epochs=epochs, finetune_epochs=1,
                           beta=beta, target_latency_ms=target, seed=0)
        search = IntervalSearch(Supernet(), supernet_sites,
                                [1.0, 1.0, 1.0], cfg)
        return search.run(batches, loss_fn)

    def test_runs_and_reports(self):
        result = self._toy(beta=0.1, target=1.0)
        assert len(result.placement) == 3
        assert len(result.search_losses) == 4   # 2 epochs × 2 batches
        assert len(result.finetune_losses) == 2
        assert result.num_dcn == sum(result.placement)
        assert len(result.placement_string()) == 3

    def test_beta_pressure_reduces_selected_latency(self):
        """A large β with T = 0 cannot *increase* the selected deformable
        budget relative to an unconstrained search (Eq. 6 only ever pushes
        α¹ of selected sites down; α⁰ carries no latency gradient, Eq. 7)."""
        free = self._toy(beta=0.0, target=0.0, epochs=4)
        constrained = self._toy(beta=1e4, target=0.0, epochs=4)
        assert (constrained.estimated_latency_ms
                <= free.estimated_latency_ms + 1e-9)

    def test_penalty_pushes_selected_alpha_down(self):
        """Directly: one gated site, huge β — its α¹ must decrease."""
        site = DualPathLayer(2, 2, rng=rng(40))
        site.alpha.data[:] = [0.0, 0.5]   # deform selected
        before = float(site.alpha.data[1])
        pen = latency_penalty([site.alpha], [3.0], target_ms=0.0)
        pen.backward()
        assert site.alpha.grad[1] > 0     # gradient points up → SGD down

    def test_site_latency_length_check(self):
        with pytest.raises(ValueError):
            IntervalSearch(object(), [DualPathLayer(2, 2)], [1.0, 2.0])

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError):
            IntervalSearch(object(), [], [])
