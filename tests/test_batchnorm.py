"""Eval-mode BatchNorm against the composed graph it replaced, bit for bit.

``BatchNorm2d`` in eval mode is one primitive that keeps its four float
ops in one buffer and walks NHWC-dense activations as (N·H, W·C) rows.
Later layers' reductions follow an activation's memory order, so the
sweep checks dtype and strides as well as bits, over every memory order
an activation takes and size-1 dims, where a fresh allocation may choose
other strides.
"""

import itertools

import numpy as np
import pytest

from repro.nn import BatchNorm2d
from repro.nn.channelwise import channel_ops
from repro.tensor import Tensor

import batchnorm_reference as ref
from helpers import check_gradients, float64_tensors, rng

DTYPES = (np.float32, np.float64)
#: memory order of the (N, C, H, W) activation, as the axis order of
#: the C-contiguous buffer it views
ORDERS = {"NCHW": (0, 1, 2, 3), "NHWC": (0, 2, 3, 1),
          "HWNC": (2, 3, 0, 1), "CNHW": (1, 0, 2, 3)}


def _activation(g, shape, order, dtype):
    """A (N, C, H, W) array whose memory follows ``order``."""
    buf = g.normal(size=[shape[a] for a in order]).astype(dtype)
    return buf.transpose(np.argsort(order))


def _bn(g, c):
    bn = BatchNorm2d(c)
    bn.running_mean[...] = g.normal(size=c)
    bn.running_var[...] = g.uniform(0.2, 3.0, size=c)
    bn.gamma.data[...] = g.normal(size=c)
    bn.beta.data[...] = g.normal(size=c)
    return bn.eval()


def _bits(a):
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


def _assert_same(got, expect, case):
    assert got.dtype == expect.dtype, case
    assert got.shape == expect.shape, case
    assert got.strides == expect.strides, case
    assert np.array_equal(_bits(got), _bits(expect)), case


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", (1, 2, 4))
def test_eval_forward_bit_identical_to_composed_graph(n, order, dtype):
    g = rng(n)
    for c, h, w in itertools.product((1, 3, 8, 16), (1, 2, 7, 16),
                                     (1, 2, 7, 16)):
        bn = _bn(g, c)
        x = _activation(g, (n, c, h, w), ORDERS[order], dtype)
        with float64_tensors():
            got = bn(Tensor(x)).data
            expect = ref.batchnorm_eval(bn, Tensor(x)).data
        _assert_same(got, expect, (c, h, w))


@pytest.mark.parametrize("shape,order", [
    ((2, 3, 4, 5), "NCHW"), ((2, 3, 4, 5), "NHWC"), ((4, 8, 1, 7), "NHWC"),
    ((1, 3, 2, 2), "HWNC"), ((3, 1, 2, 4), "CNHW")])
def test_eval_gradients_match_composed_graph(shape, order):
    """x, gamma and beta gradients equal the composed graph's bits."""
    g = rng(len(shape) + shape[0])
    bn = _bn(g, shape[1])
    data = _activation(g, shape, ORDERS[order], np.float32)
    upstream = g.normal(size=shape).astype(np.float32)
    grads = []
    for forward in (bn, lambda t: ref.batchnorm_eval(bn, t)):
        bn.zero_grad()
        x = Tensor(data, requires_grad=True)
        forward(x).backward(upstream)
        grads.append((x.grad, bn.gamma.grad, bn.beta.grad))
    for got, expect in zip(*grads):
        _assert_same(got, expect, (shape, order))


@pytest.mark.parametrize("order", ("NCHW", "NHWC"))
def test_eval_gradients_match_finite_differences(order):
    g = rng(3)
    bn = _bn(g, 3)
    x = Tensor(_activation(g, (2, 3, 4, 5), ORDERS[order], np.float32),
               requires_grad=True)
    check_gradients(lambda: bn(x), [x, bn.gamma, bn.beta])


def test_channel_ops_writes_the_callers_array_only_when_asked():
    g = rng(5)
    x = _activation(g, (2, 3, 4, 5), ORDERS["NHWC"], np.float32)
    bias = g.normal(size=3).astype(np.float32)
    expect = x + bias.reshape(1, 3, 1, 1)
    _assert_same(channel_ops(x, ((np.add, bias),)), expect, "allocated")
    assert not np.array_equal(x, expect)
    owned = x.copy(order="K")
    in_place = channel_ops(owned, ((np.add, bias),), in_place=True)
    _assert_same(in_place, expect, "in place")
    assert np.shares_memory(in_place, owned)
    # a step that widens the dtype allocates, as NumPy would
    bias64 = bias.astype(np.float64)
    _assert_same(channel_ops(x, ((np.add, bias64),), in_place=True),
                 x + bias64.reshape(1, 3, 1, 1), "widened")
