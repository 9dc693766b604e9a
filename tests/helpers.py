"""Shared test utilities: finite-difference gradient checking, a thread
hammer and plan-cache byte bounds."""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from repro.tensor import Tensor


@contextmanager
def float64_tensors():
    """Keep float64 data float64 in every Tensor built inside the block.

    ``Tensor`` stores float64 input as float32, so every op result would
    drop back to float32; inside the block a graph built from float64
    leaves is evaluated in float64 end to end.
    """
    cast_init = Tensor.__init__

    def init(self, data, requires_grad=False):
        cast_init(self, data, requires_grad)
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data

    Tensor.__init__ = init
    try:
        yield
    finally:
        Tensor.__init__ = cast_init


def numerical_gradient(f: Callable[[], float], var: Tensor,
                       eps: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar ``f()`` w.r.t. ``var.data``.

    Evaluated in float64: ``var`` is perturbed as a float64 copy and the
    graph ``f`` rebuilds stays float64, so rounding does not swamp the
    O(eps^2) difference (float32 loses whole percents on steep functions
    such as exp(exp(x))).
    """
    data = var.data
    grad = np.zeros(data.shape, dtype=np.float64)
    var.data = data.astype(np.float64)
    try:
        with float64_tensors():
            for idx in np.ndindex(data.shape):
                old = var.data[idx]
                var.data[idx] = old + eps
                fp = f()
                var.data[idx] = old - eps
                fm = f()
                var.data[idx] = old
                grad[idx] = (fp - fm) / (2 * eps)
    finally:
        var.data = data
    return grad


def check_gradients(make_output: Callable[[], Tensor],
                    variables: Sequence[Tensor], tol: float = 3e-2,
                    eps: float = 1e-3) -> None:
    """Assert analytic gradients of ``sum(make_output())`` match numerics.

    ``make_output`` must rebuild the graph from the ``variables`` (reading
    their current ``.data``) on every call.
    """
    for v in variables:
        v.grad = None
    out = make_output()
    out.sum().backward()
    analytic = {id(v): (v.grad.copy() if v.grad is not None else None)
                for v in variables}
    for v in variables:
        assert analytic[id(v)] is not None, "missing analytic gradient"
        num = numerical_gradient(lambda: float(make_output().data.sum()),
                                 v, eps=eps)
        scale = max(1.0, np.abs(num).max())
        err = np.abs(num - analytic[id(v)]).max() / scale
        assert err < tol, f"gradient mismatch: rel err {err:.4g} > {tol}"


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def resident_bytes(cache) -> int:
    """A plan cache's ``plan_cache_resident_bytes`` gauge."""
    return int(cache.registry.get("plan_cache_resident_bytes").value())


def entry_bytes(run: Callable) -> int:
    """The resident bytes ``run(cache)`` leaves in a fresh plan cache:
    the size of the entries that call stores."""
    from repro.kernels.plancache import PlanCache

    cache = PlanCache()
    run(cache)
    return resident_bytes(cache)


def bound_for_entries(sizes: Sequence[int], n: int) -> int:
    """A ``PlanCache(max_bytes=...)`` bound that keeps exactly ``n``
    live entries of these byte sizes, whichever ``n`` they are: the ``n``
    largest fit, and no ``n + 1`` of them do."""
    sizes = sorted(sizes)
    bound = sum(sizes[-n:])
    assert bound < sum(sizes[:n + 1]), f"sizes too uneven to pin {n}"
    return bound


def hammer(n_threads: int, fn: Callable[[int], None]) -> None:
    """Run ``fn(i)`` on ``n_threads`` threads released together, with a
    short switch interval; fail on a hung worker or any exception."""
    start = threading.Barrier(n_threads)
    errors = []

    def work(i):
        start.wait()
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "worker hung"
    assert not errors, errors
