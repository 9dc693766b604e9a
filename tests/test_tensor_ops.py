"""Unit tests for the tensor arithmetic / reduction / shape primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor
from repro.tensor.autograd import unbroadcast
from repro.tensor.tensor import concat, stack

from helpers import check_gradients, float64_tensors, rng


class TestArithmetic:
    def test_add_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])

    def test_add_broadcast_gradients(self):
        a = Tensor(rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng(1).normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: a + b, [a, b])

    def test_scalar_radd_rmul(self):
        a = Tensor([2.0])
        assert (1.0 + a).data[0] == pytest.approx(3.0)
        assert (3.0 * a).data[0] == pytest.approx(6.0)

    def test_sub_and_rsub(self):
        a = Tensor([5.0])
        assert (a - 2.0).data[0] == pytest.approx(3.0)
        assert (2.0 - a).data[0] == pytest.approx(-3.0)

    def test_mul_gradients(self):
        a = Tensor(rng(2).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng(3).normal(size=(2, 3)), requires_grad=True)
        check_gradients(lambda: a * b, [a, b])

    def test_div_gradients(self):
        a = Tensor(rng(4).normal(size=(5,)), requires_grad=True)
        b = Tensor(rng(5).uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        check_gradients(lambda: a / b, [a, b])

    def test_pow_gradient(self):
        a = Tensor(rng(6).uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        check_gradients(lambda: a ** 3, [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_matmul_2d(self):
        a = Tensor(rng(7).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng(8).normal(size=(4, 5)), requires_grad=True)
        out = a @ b
        assert np.allclose(out.data, a.data @ b.data, atol=1e-5)
        check_gradients(lambda: a @ b, [a, b])

    def test_matmul_batched(self):
        a = Tensor(rng(9).normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng(10).normal(size=(2, 4, 5)), requires_grad=True)
        check_gradients(lambda: a @ b, [a, b])

    def test_comparisons_detached(self):
        a = Tensor([1.0, 3.0], requires_grad=True)
        m = a > 2.0
        assert m.data.dtype == np.bool_
        assert not m.requires_grad


class TestElementwise:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid",
                                    "abs", "relu"])
    def test_unary_gradients(self, op):
        data = rng(11).uniform(0.3, 2.0, size=(6,))
        if op == "relu" or op == "abs" or op == "tanh" or op == "sigmoid":
            data = rng(11).uniform(-2.0, 2.0, size=(6,)) + 0.05
        a = Tensor(data, requires_grad=True)
        check_gradients(lambda: getattr(a, op)(), [a])

    def test_relu_zeroes_negatives(self):
        a = Tensor([-1.0, 0.5])
        assert np.allclose(a.relu().data, [0.0, 0.5])

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_relu_bits_are_the_mask_product(self, dtype):
        """ReLU is ``x * (x > 0)``: negatives give -0.0 and -inf gives
        NaN, where ``np.maximum(x, 0)`` gives +0.0 and 0.0; detections
        are pinned to these bits."""
        x = np.array([-1.0, -0.0, 0.0, 1.0, np.inf, -np.inf, 1e-45, -1e-45],
                     dtype=dtype)
        with float64_tensors(), np.errstate(invalid="ignore"):
            got = Tensor(x).relu().data
            expect = x * (x > 0)
        assert got.dtype == dtype
        uint = f"u{x.itemsize}"
        assert np.array_equal(got.view(uint), expect.view(uint))

    def test_clamp_values_and_gradient(self):
        a = Tensor([-3.0, 0.0, 5.0], requires_grad=True)
        out = a.clamp(-1.0, 2.0)
        assert np.allclose(out.data, [-1.0, 0.0, 2.0])
        out.sum().backward()
        # gradient zero outside the clamp range (bounded-deformation rule)
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_clamp_one_sided(self):
        a = Tensor([-3.0, 3.0])
        assert np.allclose(a.clamp(lo=0.0).data, [0.0, 3.0])
        assert np.allclose(a.clamp(hi=1.0).data, [-3.0, 1.0])

    @pytest.mark.parametrize("lo,hi", [(-1.5, 2.0), (-1.5, None),
                                       (None, 2.0)])
    def test_clamp_mask_only_when_the_result_needs_grad(self, lo, hi,
                                                        monkeypatch):
        """Under ``no_grad`` (the bounded offsets of every DCN at
        inference) no backward mask is built; the forward keeps its bits
        either way and training-mode gradients are the in-range mask."""
        from repro.tensor import no_grad

        x = (3 * rng(6).normal(size=(4, 7))).astype(np.float32)
        x[0, :4] = [-1.5, 2.0, np.nextafter(np.float32(-1.5), 0),
                    np.nextafter(np.float32(2.0), 3)]
        want = np.clip(x, lo, hi)
        masks = []
        real_ones_like = np.ones_like

        def counting_ones_like(*args, **kwargs):
            masks.append(1)
            return real_ones_like(*args, **kwargs)

        monkeypatch.setattr(np, "ones_like", counting_ones_like)
        with no_grad():
            out = Tensor(x, requires_grad=True).clamp(lo, hi)
        assert not masks and not out.requires_grad
        assert np.array_equal(out.data.view(np.uint32), want.view(np.uint32))
        monkeypatch.undo()
        a = Tensor(x, requires_grad=True)
        out = a.clamp(lo, hi)
        assert np.array_equal(out.data.view(np.uint32), want.view(np.uint32))
        out.sum().backward()
        inside = np.ones_like(x, dtype=bool)
        if lo is not None:
            inside &= x >= lo
        if hi is not None:
            inside &= x <= hi
        assert np.array_equal(a.grad, inside.astype(np.float32))


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(rng(12).normal(size=(2, 3, 4)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        check_gradients(lambda: a.sum(axis=1, keepdims=True), [a])

    def test_sum_all(self):
        a = Tensor(rng(13).normal(size=(3, 3)), requires_grad=True)
        check_gradients(lambda: a.sum(), [a])

    def test_mean_matches_numpy(self):
        a = Tensor(rng(14).normal(size=(4, 5)))
        assert a.mean(axis=0).data == pytest.approx(
            a.data.mean(axis=0), abs=1e-6)

    def test_var(self):
        a = Tensor(rng(15).normal(size=(64,)))
        assert a.var().item() == pytest.approx(float(a.data.var()), abs=1e-5)

    def test_max_gradient_splits_ties(self):
        a = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_max_axis_gradient(self):
        a = Tensor(rng(16).normal(size=(3, 7)), requires_grad=True)
        check_gradients(lambda: a.max(axis=1), [a], tol=5e-2)


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        a = Tensor(rng(17).normal(size=(2, 6)), requires_grad=True)
        check_gradients(lambda: a.reshape(3, 4), [a])

    def test_transpose(self):
        a = Tensor(rng(18).normal(size=(2, 3, 4)), requires_grad=True)
        assert a.transpose(2, 0, 1).shape == (4, 2, 3)
        check_gradients(lambda: a.transpose(2, 0, 1), [a])

    def test_t_property(self):
        a = Tensor(rng(19).normal(size=(2, 5)))
        assert a.T.shape == (5, 2)

    def test_getitem_gradient_accumulates_duplicates(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        idx = np.array([0, 0, 2])
        a[idx].sum().backward()
        assert np.allclose(a.grad, [2.0, 0.0, 1.0])

    def test_pad2d(self):
        a = Tensor(rng(20).normal(size=(1, 1, 3, 3)), requires_grad=True)
        out = a.pad2d(2)
        assert out.shape == (1, 1, 7, 7)
        assert np.allclose(out.data[0, 0, :2], 0.0)
        check_gradients(lambda: a.pad2d(2), [a])

    def test_stack_and_concat(self):
        a = Tensor(rng(21).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng(22).normal(size=(2, 3)), requires_grad=True)
        assert stack([a, b], axis=0).shape == (2, 2, 3)
        assert concat([a, b], axis=1).shape == (2, 6)
        check_gradients(lambda: stack([a, b], axis=1), [a, b])
        check_gradients(lambda: concat([a, b], axis=0), [a, b])


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        a = Tensor(rng(23).normal(size=(4, 7)))
        assert np.allclose(a.softmax(axis=1).data.sum(axis=1), 1.0,
                           atol=1e-5)

    def test_softmax_gradient(self):
        a = Tensor(rng(24).normal(size=(3, 5)), requires_grad=True)
        check_gradients(lambda: (a.softmax(axis=1)
                                 * Tensor(rng(25).normal(size=(3, 5)))),
                        [a])

    def test_log_softmax_stability(self):
        a = Tensor(np.array([[1000.0, 0.0]]))
        out = a.log_softmax(axis=1)
        assert np.isfinite(out.data).all()

    def test_log_softmax_gradient(self):
        a = Tensor(rng(26).normal(size=(2, 4)), requires_grad=True)
        check_gradients(
            lambda: (a.log_softmax(axis=1)
                     * Tensor(rng(27).normal(size=(2, 4)))), [a])


class TestUnbroadcast:
    @given(st.sampled_from([(3, 4), (1, 4), (3, 1), (1, 1), (4,), (1,)]))
    @settings(max_examples=20, deadline=None)
    def test_unbroadcast_restores_shape(self, shape):
        grad = np.ones((3, 4))
        out = unbroadcast(grad, shape)
        assert out.shape == tuple(shape)

    def test_unbroadcast_sums(self):
        grad = np.ones((2, 3))
        assert np.allclose(unbroadcast(grad, (3,)), [2.0, 2.0, 2.0])
        assert np.allclose(unbroadcast(grad, (1, 3)), [[2.0, 2.0, 2.0]])
