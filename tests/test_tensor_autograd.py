"""Graph-mechanics tests: accumulation, reuse, grad mode, topology."""

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad
from repro.tensor.autograd import topo_sort

from helpers import rng


class TestBackwardMechanics:
    def test_leaf_accumulates_across_backwards(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).sum().backward()
        (x * x).sum().backward()
        assert np.allclose(x.grad, [8.0])  # 4 + 4

    def test_variable_used_twice_in_one_graph(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x + x).sum().backward()
        assert np.allclose(x.grad, [7.0])  # 2x + 1

    def test_diamond_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        (a * b).sum().backward()
        # d/dx (2x(x+1)) = 4x + 2
        assert np.allclose(x.grad, [6.0, 10.0])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):  # beyond default recursion limit
            y = y + 0.001
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])

    def test_backward_grad_shape_check(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError):
            y.backward(np.ones(3))

    def test_explicit_upstream_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [3.0, 30.0])

    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert is_grad_enabled()
        assert y._backward is None and y._prev == ()

    def test_no_grad_nests(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x).detach()
        (y * 3.0).sum().backward()
        assert x.grad is None

    def test_non_required_parent_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0], requires_grad=False)
        (x * c).sum().backward()
        assert np.allclose(x.grad, [5.0])
        assert c.grad is None

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None


class TestTopoSort:
    def test_root_first(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y + 1.0
        order = topo_sort(z)
        assert order[0] is z
        assert order.index(y) < order.index(x)

    def test_shared_subgraph_visited_once(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y + y
        order = topo_sort(z)
        assert sum(1 for node in order if node is y) == 1


class TestConstruction:
    def test_float64_demoted_to_float32(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float32

    def test_integer_preserved(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.integer)

    @pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
    @pytest.mark.parametrize("data,dtype", [
        (np.array([True]), np.bool_),
        *[(np.array([1], t), t) for t in (np.int8, np.int16, np.int32,
                                          np.int64, np.uint8, np.uint16,
                                          np.uint32, np.uint64)],
        (np.array([1], np.float16), np.float16),
        (np.array([1], np.float32), np.float32),
        (np.array([1], np.float64), np.float32),
        (np.array([1], ">f8"), np.dtype(">f8")),
        (np.float64(1.5), np.float32),
        (np.array([1], np.longdouble), np.longdouble),
        (np.array([1 + 2j], np.complex64), np.float32),
        (np.array([1 + 2j], np.complex128), np.float32),
        (np.array([1], "m8[s]"), np.dtype("m8[s]")),
        (np.array(["2020-01-01"], "M8[D]"), np.float32),
        (np.array([1.5, 2], dtype=object), np.float32),
        (np.array(["1.5"]), np.float32),
        (np.array([b"1.5"]), np.float32),
        (True, np.bool_),
        (3, np.int_),
        (2.5, np.float32),
        (1 + 1j, np.float32),
        ([1, 2], np.int_),
        ([1.0, 2], np.float32),
    ], ids=repr)
    def test_stored_dtype(self, data, dtype):
        """Floats other than float64, integers (timedelta64 counts as one)
        and bools keep their dtype; float64 and everything else become
        float32."""
        assert Tensor(data).dtype == np.dtype(dtype)

    def test_repr_and_basic_props(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert t.ndim == 2 and t.size == 6 and len(t) == 2

    def test_item_and_numpy(self):
        t = Tensor([4.5])
        assert t.item() == pytest.approx(4.5)
        assert t.numpy() is t.data

    def test_copy_is_independent(self):
        t = Tensor([1.0])
        c = t.copy()
        c.data[0] = 9.0
        assert t.data[0] == pytest.approx(1.0)
