"""The :class:`Tensor` class: a NumPy array with reverse-mode autograd.

Design notes
------------
* Data is always a ``numpy.ndarray`` (float32 by default for parameters and
  activations; integer tensors are supported for labels/indices but are not
  differentiable).
* The graph is built eagerly by the primitive ops; ``backward()`` walks it in
  reverse-topological order, freeing each node's closure as it goes so large
  training graphs do not pin memory across steps.
* Gradients accumulate into ``.grad`` (call :meth:`zero_grad` or use the
  optimizers in :mod:`repro.nn.optim`, which do this for you).
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.tensor.autograd import backward_op, topo_sort, unbroadcast

_GRAD_ENABLED = [True]


def is_grad_enabled() -> bool:
    """True when operations should record the autograd graph."""
    return _GRAD_ENABLED[-1]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


Scalar = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]


def _coerce(value: TensorLike) -> "Tensor":
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float32))


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Floating point data is kept in its
        dtype (default float32); python scalars/lists become float32.
    requires_grad:
        Whether gradients should be accumulated for this leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        # float64 becomes float32; other floats, integers (timedelta64
        # among them) and bools keep their dtype; the rest become float32
        if arr.dtype == np.float64 or arr.dtype.kind not in "fiumb":
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._prev: tuple = ()
        self._backward = None
        self._op = ""

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Shape tuple of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    @property
    def dtype(self):
        """NumPy dtype of the data."""
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's data, cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # autograd driver
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (so scalars need no argument).  Closures are
        released after use to keep peak memory proportional to the frontier,
        not the whole tape.
        """
        if grad is None:
            grad = np.ones_like(self.data, dtype=self.data.dtype)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"backward grad shape {grad.shape} != tensor shape {self.data.shape}"
                )
        order = topo_sort(self)  # root-first
        grads = {id(self): grad}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._prev:
                # Leaf: accumulate.
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad += g
            if node._backward is not None:
                node._push_parent_grads(g, grads)
                node._backward = None  # free closure memory

    def _push_parent_grads(self, grad_out: np.ndarray, grads: dict) -> None:
        """Run this node's backward closure, accumulating into ``grads``."""
        # The closure writes into parent.grad; for interior nodes we instead
        # route through the dict.  To keep primitives simple they always write
        # parent.grad, so temporarily intercept.
        saved = []
        for p in self._prev:
            saved.append(p.grad)
            p.grad = None
        self._backward(grad_out)
        for p, old in zip(self._prev, saved):
            produced = p.grad
            p.grad = old
            if produced is None:
                continue
            if p._prev or not p.requires_grad:
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + produced
                else:
                    grads[key] = produced
            else:
                # Leaf with requires_grad: accumulate immediately.
                if p.grad is None:
                    p.grad = produced
                else:
                    p.grad = p.grad + produced

    # ------------------------------------------------------------------
    # arithmetic primitives
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = _coerce(other)
        return backward_op(
            self.data + other.data,
            (self, other),
            lambda g: (unbroadcast(g, self.shape), unbroadcast(g, other.shape)),
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = _coerce(other)
        return backward_op(
            self.data - other.data,
            (self, other),
            lambda g: (unbroadcast(g, self.shape), unbroadcast(-g, other.shape)),
            "sub",
        )

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return _coerce(other) - self

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = _coerce(other)
        return backward_op(
            self.data * other.data,
            (self, other),
            lambda g: (
                unbroadcast(g * other.data, self.shape),
                unbroadcast(g * self.data, other.shape),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = _coerce(other)
        return backward_op(
            self.data / other.data,
            (self, other),
            lambda g: (
                unbroadcast(g / other.data, self.shape),
                unbroadcast(-g * self.data / (other.data**2), other.shape),
            ),
            "div",
        )

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return _coerce(other) / self

    def __neg__(self) -> "Tensor":
        return backward_op(-self.data, (self,), lambda g: (-g,), "neg")

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        out = self.data**exponent
        return backward_op(
            out,
            (self,),
            lambda g: (g * exponent * self.data ** (exponent - 1),),
            "pow",
        )

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other = _coerce(other)

        def grad_fn(g):
            a, b = self.data, other.data
            if a.ndim == 2 and b.ndim == 2:
                return g @ b.T, a.T @ g
            # Batched matmul: contract over batch dims with unbroadcast.
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)

        return backward_op(self.data @ other.data, (self, other), grad_fn, "matmul")

    # ------------------------------------------------------------------
    # comparisons (non-differentiable, return detached bool tensors)
    # ------------------------------------------------------------------
    def __gt__(self, other: TensorLike) -> "Tensor":
        return Tensor(self.data > _coerce(other).data)

    def __lt__(self, other: TensorLike) -> "Tensor":
        return Tensor(self.data < _coerce(other).data)

    def __ge__(self, other: TensorLike) -> "Tensor":
        return Tensor(self.data >= _coerce(other).data)

    def __le__(self, other: TensorLike) -> "Tensor":
        return Tensor(self.data <= _coerce(other).data)

    # ------------------------------------------------------------------
    # elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise e**x."""
        out = np.exp(self.data)
        return backward_op(out, (self,), lambda g: (g * out,), "exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return backward_op(
            np.log(self.data), (self,), lambda g: (g / self.data,), "log"
        )

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out = np.sqrt(self.data)
        return backward_op(out, (self,), lambda g: (g / (2.0 * out),), "sqrt")

    def abs(self) -> "Tensor":
        """Elementwise absolute value (sign subgradient at 0)."""
        return backward_op(
            np.abs(self.data), (self,), lambda g: (g * np.sign(self.data),), "abs"
        )

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out = np.tanh(self.data)
        return backward_op(out, (self,), lambda g: (g * (1.0 - out**2),), "tanh")

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic function."""
        out = 1.0 / (1.0 + np.exp(-self.data))
        return backward_op(out, (self,), lambda g: (g * out * (1.0 - out),), "sigmoid")

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        mask = self.data > 0
        return backward_op(
            self.data * mask, (self,), lambda g: (g * mask,), "relu"
        )

    def clamp(self, lo: Optional[Scalar] = None, hi: Optional[Scalar] = None) -> "Tensor":
        """Clamp values into ``[lo, hi]``; gradient is zero outside the range.

        This is exactly the bounded-deformation operator of paper Section
        III-A-c (offsets restricted to ``[0, P]`` before the deformable
        kernel is applied).
        """
        out = np.clip(self.data, lo, hi)
        if not (self.requires_grad and is_grad_enabled()):
            # nothing would read the backward mask
            return Tensor(out)
        mask = np.ones_like(self.data, dtype=bool)
        if lo is not None:
            mask &= self.data >= lo
        if hi is not None:
            mask &= self.data <= hi
        return backward_op(out, (self,), lambda g: (g * mask,), "clamp")

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when None)."""
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).astype(self.dtype),)
            gg = g
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            return (np.broadcast_to(gg, self.shape).astype(self.dtype),)

        return backward_op(out, (self,), grad_fn, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        n = self.size if axis is None else (
            np.prod([self.shape[a] for a in np.atleast_1d(axis)])
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance over ``axis``."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; ties share the gradient."""
        out = self.data.max(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            if axis is None:
                mask = self.data == out
                return (g * mask / mask.sum(),)
            gg, oo = g, out
            if not keepdims:
                gg = np.expand_dims(gg, axis)
                oo = np.expand_dims(oo, axis)
            mask = self.data == oo
            # Split gradient among ties for a well-defined subgradient.
            counts = mask.sum(axis=axis, keepdims=True)
            return (gg * mask / counts,)

        return backward_op(out, (self,), grad_fn, "max")

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (differentiable)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return backward_op(
            self.data.reshape(shape),
            (self,),
            lambda g: (g.reshape(self.shape),),
            "reshape",
        )

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (reversed order by default)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        return backward_op(
            self.data.transpose(axes),
            (self,),
            lambda g: (g.transpose(inverse),),
            "transpose",
        )

    @property
    def T(self) -> "Tensor":
        """Transposed view (all axes reversed)."""
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        out = self.data[idx]

        def grad_fn(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return (full,)

        return backward_op(out, (self,), grad_fn, "getitem")

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two (spatial) dims symmetrically by ``pad``."""
        if pad == 0:
            return self
        width = [(0, 0)] * (self.ndim - 2) + [(pad, pad), (pad, pad)]
        out = np.pad(self.data, width)
        sl = (Ellipsis, slice(pad, -pad), slice(pad, -pad))
        return backward_op(out, (self,), lambda g: (g[sl],), "pad2d")

    # ------------------------------------------------------------------
    # softmax family (implemented as primitives for numerical stability)
    # ------------------------------------------------------------------
    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_z
        softmax = np.exp(out)
        return backward_op(
            out,
            (self,),
            lambda g: (g - softmax * g.sum(axis=axis, keepdims=True),),
            "log_softmax",
        )

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)
        return backward_op(
            out,
            (self,),
            lambda g: (out * (g - (g * out).sum(axis=axis, keepdims=True)),),
            "softmax",
        )


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def grad_scale(x: Tensor, scale: float) -> Tensor:
    """Identity in the forward pass; multiplies the gradient by ``scale``.

    The standard trick for training offset heads in deformable networks
    (Dai et al. use an offset learning-rate multiplier of 0.1): the offsets
    flow forward unchanged, but their parameters learn ``scale``× slower.
    """
    return backward_op(x.data, (x,), lambda g: (g * scale,), "grad_scale")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = list(tensors)
    out = np.stack([t.data for t in tensors], axis=axis)

    def grad_fn(g):
        pieces = np.split(g, len(tensors), axis=axis)
        return [np.squeeze(p, axis=axis) for p in pieces]

    return backward_op(out, tuple(tensors), grad_fn, "stack")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return np.split(g, splits, axis=axis)

    return backward_op(out, tuple(tensors), grad_fn, "concat")
