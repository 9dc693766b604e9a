"""The window-gather lowering against the fancy-index reference, bit for bit.

``tests/lowering_reference.py`` keeps the gather and einsum epilogues the
lowering replaced.  einsum's bits depend on the memory order of its
column operand, and later layers' reductions depend on the memory order
of a conv's output, so the sweep checks strides as well as values.  It
covers the layouts where a simpler rule would drift: 1x1 kernels at
N = 1, C == 1 with a 1x1 output at N > 1, C == 1 with a 1x1 kernel at
N > 1, grouped 1x1 convs at N = 1.
"""

import itertools

import numpy as np
import pytest

import repro.deform.deform_conv
import repro.kernels.fused
import repro.kernels.reference
import repro.kernels.shards
import repro.nn.im2col
from repro.gpusim import XAVIER
from repro.nn import functional as F
from repro.nn.im2col import (EINSUM_ENDS_IN_MATMUL, gemm_columns,
                             gemm_epilogue, im2col)
from repro.pipeline import DefconEngine
from repro.tensor import Tensor

import lowering_reference as ref
from helpers import check_gradients, float64_tensors, rng

DTYPES = (np.float32, np.float64)
#: (H, W): 1x1 inputs and 3x3 inputs under a 3x3 kernel give 1x1 outputs
SIZES = ((1, 1), (3, 3), (7, 6))
#: (stride, padding, dilation)
GEOMETRIES = tuple(itertools.product((1, 2), (0, 1), (1, 2)))


def _conv_cases(c, sizes=SIZES):
    """(out_channels, kernel, groups, size, geometry) valid for ``c``."""
    for o, k, groups, size, geo in itertools.product(
            sorted({1, 4, c}), (1, 3), sorted({1, 2, c}), sizes, GEOMETRIES):
        stride, padding, dilation = geo
        if c % groups or o % groups:
            continue
        if any(ref.conv_output_size(s, k, stride, padding, dilation) < 1
               for s in size):
            continue
        yield o, k, groups, size, geo


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("c", (1, 3, 8))
@pytest.mark.parametrize("n", (1, 2, 4))
def test_conv2d_forward_bit_identical_to_reference(n, c, dtype):
    g = rng(100 * n + c)
    with float64_tensors():
        _sweep_conv2d(g, n, c, dtype)


#: (H, W) of NHWC-ordered inputs: H·W == 1, and size-1 dims with H·W > 1
NHWC_SIZES = ((1, 1), (1, 5), (4, 1), (3, 3), (7, 6))


def _input(g, shape, layout, dtype):
    """A (N, C, H, W) array laid out as ``layout``: "NCHW" (C order),
    "NHWC" (einsum's result order) or "sliced" (a view into a larger
    buffer, offset in C, H and W, with W read backwards)."""
    n, c, h, w = shape
    if layout == "NHWC":
        return g.normal(size=(n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    if layout == "sliced":
        big = g.normal(size=(n, c + 1, h + 2, 2 * w + 1)).astype(dtype)
        return big[:, 1:, 1:-1, -2::-2]
    return g.normal(size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("c", (1, 3, 8))
@pytest.mark.parametrize("n", (1, 2, 4))
def test_conv2d_nhwc_inputs_bit_identical_to_reference(n, c, dtype):
    """Batched convs mostly read NHWC-ordered activations (einsum's
    result order); a 1x1 conv contracts such an input as it lies.  At
    N = 1 the window view reads its strides from the input itself, so
    NHWC-ordered and sliced, non-contiguous inputs sweep it too."""
    g = rng(200 * n + c)
    with float64_tensors():
        for layout in ("NHWC", "sliced"):
            _sweep_conv2d(g, n, c, dtype, NHWC_SIZES, layout)


def _sweep_conv2d(g, n, c, dtype, sizes=SIZES, layout="NCHW"):
    for o, k, groups, (h, w), (stride, padding, dilation) in _conv_cases(
            c, sizes):
        x = _input(g, (n, c, h, w), layout, dtype)
        wt = g.normal(size=(o, c // groups, k, k)).astype(dtype)
        b = g.normal(size=(o,)).astype(dtype)
        for bias in (None, b):
            expect = ref.conv2d(x, wt, bias, stride, padding, dilation, groups)
            got = F.conv2d(Tensor(x), Tensor(wt),
                           None if bias is None else Tensor(bias),
                           stride=stride, padding=padding,
                           dilation=dilation, groups=groups).data
            case = (layout, o, k, groups, h, w, stride, padding, dilation,
                    bias is None)
            assert got.dtype == expect.dtype, case
            assert got.strides == expect.strides, case
            assert np.array_equal(got, expect), case


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("c", (1, 3, 8))
@pytest.mark.parametrize("n", (1, 2, 4))
def test_im2col_keeps_reference_values_and_memory_order(n, c, dtype):
    x = rng(7 * n + c).normal(size=(n, c, 7, 6)).astype(dtype)
    for k, (stride, padding, dilation) in itertools.product((1, 2, 3),
                                                            GEOMETRIES):
        expect = ref.im2col(x, k, k, stride, padding, dilation)
        got = im2col(x, k, k, stride, padding, dilation)
        case = (k, stride, padding, dilation)
        assert got.strides == expect.strides, case
        assert np.array_equal(got, expect), case
        # the dense GEMM operand: same values, whatever its layout
        assert np.array_equal(
            gemm_columns(x, k, k, stride, padding, dilation), expect), case


def test_im2col_rejects_a_window_larger_than_its_padded_input():
    x = np.zeros((1, 2, 3, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        im2col(x, 4, 4, padding=0)      # no output pixel: (3 - 4) // 1 + 1
    with pytest.raises(ValueError):
        im2col(x, 5, 5, padding=0)
    with pytest.raises(ValueError):
        im2col(x, 3, 3, padding=0, dilation=2)
    assert im2col(x, 5, 5, padding=1).shape == (1, 50, 1)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("n", (1, 2, 4))
def test_pooling_bit_identical_to_reference(n, dtype):
    g = rng(n)
    for layout, c, (h, w), kernel, stride in itertools.product(
            ("NCHW", "NHWC", "sliced"), (1, 3, 8),
            ((1, 1), (1, 5), (4, 4), (7, 6)), (1, 2, 3), (None, 1, 2)):
        if min(h, w) < kernel:
            continue
        x = _input(g, (n, c, h, w), layout, dtype)
        case = (layout, c, h, w, kernel, stride)
        for pool, expect in ((F.max_pool2d, ref.max_pool2d(x, kernel, stride)),
                             (F.avg_pool2d, ref.avg_pool2d(x, kernel, stride))):
            with float64_tensors():
                got = pool(Tensor(x), kernel, stride).data
            assert got.dtype == expect.dtype, case
            assert got.strides == expect.strides, case
            assert np.array_equal(got, expect), case


def _columns(g, n, k, l, layout, dtype):
    """(N, K, L) columns laid out as ``layout``: "C" (C order), "KLNC"
    (im2col's 1x1 layout), "KLN1" (im2col's C == 1 layout), "rows" (the
    transposed rows view of :func:`gemm_columns`) or "sliced" (a
    reversed, gapped slice of a larger buffer).  A third of the entries
    are signed zeros, whose sign a multiply keeps and einsum's copy does
    not."""
    memory = {"C": (n, k, l), "KLNC": (l, n, k), "KLN1": (k, l, n),
              "rows": (n, l, k), "sliced": (n, 2 * k, l + 1)}[layout]
    x = g.normal(size=memory)
    x[g.uniform(size=memory) < 0.3] = -0.0
    x = x.astype(dtype)
    if layout == "sliced":
        return x[:, ::-2, 1:]
    return x.transpose({"C": (0, 1, 2), "KLNC": (1, 2, 0), "KLN1": (2, 0, 1),
                        "rows": (0, 2, 1)}[layout])


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("n", (1, 2, 4))
def test_gemm_epilogue_bit_identical_to_reference(n, dtype):
    """The contraction calls matmul (a multiply where K == 1) on einsum's
    own operands: bytes and strides match the einsum epilogue for every
    size-1 case of O, K and L, every column layout, with and without a
    bias and an ``out=`` work buffer."""
    g = rng(300 + n)
    for o, k, (l, out_hw), layout in itertools.product(
            (1, 4, 16), (1, 5), ((1, (1, 1)), (6, (2, 3))),
            ("C", "KLNC", "KLN1", "rows", "sliced")):
        cols = _columns(g, n, k, l, layout, dtype)
        w2 = _columns(g, 1, o, k, "C", dtype)[0]
        for bias, use_out in itertools.product(
                (None, g.normal(size=o).astype(dtype)), (False, True)):
            bufs = [np.empty((n, o, l), dtype=dtype) if use_out else None
                    for _ in range(2)]
            expect = ref.gemm_epilogue(w2, cols, bias, out_hw, out=bufs[0])
            got = gemm_epilogue(w2, cols, bias, out_hw, out=bufs[1])
            case = (o, k, l, layout, bias is None, use_out)
            assert got.dtype == expect.dtype, case
            assert got.strides == expect.strides, case
            assert got.tobytes() == expect.tobytes(), case
            assert not np.shares_memory(got, cols), case
            if use_out:
                assert not np.shares_memory(got, bufs[1]), case


def test_empty_batch_conv_matches_reference():
    """A batch of no images contracts as einsum does, a zero-size dim
    kept rather than dropped like a size-1 one: dense and depthwise."""
    x = np.zeros((0, 3, 5, 5), dtype=np.float32)
    for groups, o in ((1, 4), (3, 3)):
        wt = rng(groups).normal(size=(o, 3 // groups, 3, 3)).astype(
            np.float32)
        expect = ref.conv2d(x, wt, None, padding=1, groups=groups)
        got = F.conv2d(Tensor(x), Tensor(wt), padding=1, groups=groups).data
        assert got.shape == expect.shape == (0, o, 5, 5), groups
        assert got.strides == expect.strides, groups


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
def test_batched_conv_gradients(k, padding):
    """N > 1 contracts a transposed view of the rows matrix; its
    backward still matches finite differences."""
    g = rng(11 + k)
    x = Tensor(g.normal(size=(2, 3, 5, 5)), requires_grad=True)
    w = Tensor(g.normal(size=(4, 3, k, k)), requires_grad=True)
    b = Tensor(g.normal(size=(4,)), requires_grad=True)
    check_gradients(lambda: F.conv2d(x, w, b, stride=1, padding=padding),
                    [x, w, b])


# ----------------------------------------------------------------------
# whole forward
# ----------------------------------------------------------------------
def _reference_conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1,
                      groups=1):
    return Tensor(ref.conv2d(x.data, weight.data,
                             None if bias is None else bias.data,
                             stride, padding, dilation, groups))


def _detect(model, images):
    engine = DefconEngine(model, XAVIER, backend="tex2dpp")
    return engine.detect(images, score_threshold=0.05)


@pytest.mark.parametrize("batch", (1, 4))
def test_whole_detect_bit_identical_to_reference_lowering(
        detect_model, batch, monkeypatch):
    images = rng(batch).uniform(0, 1, size=(batch, 3, 64, 64)).astype(
        np.float32)
    got = _detect(detect_model, images)
    with monkeypatch.context() as m:
        m.setattr(F, "conv2d", _reference_conv2d)
        m.setattr(F, "im2col", ref.im2col)
        for module in (repro.deform.deform_conv, repro.kernels.fused,
                       repro.kernels.reference, repro.kernels.shards):
            m.setattr(module, "gemm_epilogue", ref.gemm_epilogue)
        expect = _detect(detect_model, images)
    assert expect, "no detections to compare"
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert (a.image_id, a.label) == (b.image_id, b.label)
        assert a.score == b.score
        assert np.array_equal(a.box, b.box)
        assert np.array_equal(a.mask, b.mask)


@pytest.mark.skipif(not EINSUM_ENDS_IN_MATMUL,
                    reason="this NumPy's einsum has no matmul plan to take")
@pytest.mark.parametrize("batch", (1, 4))
def test_forward_calls_no_einsum(detect_model, batch, monkeypatch):
    """Every conv GEMM, dense, grouped or deformable, calls matmul
    itself: no einsum (its path search per call, its copy of batch-1
    columns) is left in the forward."""
    images = rng(batch).uniform(0, 1, size=(batch, 3, 64, 64)).astype(
        np.float32)
    engine = DefconEngine(detect_model, XAVIER, backend="tex2dpp")
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    assert engine.detect(images, score_threshold=0.05)
    assert calls == []


def test_contract_is_einsum_where_einsum_ends_elsewhere(monkeypatch):
    """With a NumPy whose einsum does not end in ``bmm_einsum``, every conv
    GEMM calls einsum itself, dense and grouped, with and without
    ``out=``, and keeps the reference's bits and strides."""
    monkeypatch.setattr(repro.nn.im2col, "EINSUM_ENDS_IN_MATMUL", False)
    g = rng(400)
    cols = _columns(g, 2, 5, 6, "rows", np.float32)
    w2 = _columns(g, 1, 4, 5, "C", np.float32)[0]
    x = g.normal(size=(2, 4, 5, 5)).astype(np.float32)
    wt = g.normal(size=(4, 2, 3, 3)).astype(np.float32)
    expect = [ref.gemm_epilogue(w2, cols, None, (2, 3)),
              ref.gemm_epilogue(w2, cols, None, (2, 3),
                                out=np.empty((2, 4, 6), np.float32)),
              ref.conv2d(x, wt, padding=1, groups=2)]
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    got = [gemm_epilogue(w2, cols, None, (2, 3)),
           gemm_epilogue(w2, cols, None, (2, 3),
                         out=np.empty((2, 4, 6), np.float32)),
           F.conv2d(Tensor(x), Tensor(wt), padding=1, groups=2).data]
    assert calls == ["ok,nkl->nol", "ok,nkl->nol", "gok,ngkl->ngol"]
    for a, b in zip(got, expect):
        assert a.strides == b.strides
        assert a.tobytes() == b.tobytes()
