"""Reference eval-mode BatchNorm: the composed graph ``BatchNorm2d``
evaluated over its running statistics before eval mode became one
primitive, kept verbatim.

Four autograd ops, each allocating its result as NumPy does.  The
primitive must match it in bits, dtype and strides, and its gradients
must match this graph's (``tests/test_batchnorm.py``).
"""

from __future__ import annotations

from repro.tensor import Tensor


def batchnorm_eval(bn, x: Tensor) -> Tensor:
    """``bn``'s eval-mode forward of ``x`` as the composed graph."""
    c = bn.channels
    mean = Tensor(bn.running_mean.reshape(1, c, 1, 1))
    var = Tensor(bn.running_var.reshape(1, c, 1, 1))
    x_hat = (x - mean) / (var + bn.eps) ** 0.5
    return x_hat * bn.gamma.reshape(1, c, 1, 1) + bn.beta.reshape(1, c, 1, 1)
