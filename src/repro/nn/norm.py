"""Normalisation layers."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, backward_op
from repro.tensor.autograd import unbroadcast
from repro.nn.channelwise import channel_ops
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel.

    The paper applies BN + ReLU after the depthwise half of the lightweight
    offset head but *not* after the 1×1 (its outputs are the raw fractional
    offsets) — see Section III-A-b.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        c = self.channels
        if x.shape[1] != c:
            raise ValueError(f"BatchNorm2d expected {c} channels, got {x.shape[1]}")
        if not self.training:
            return self._normalize_running(x)
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        m = self.momentum
        self._update_buffer(
            "running_mean",
            (1 - m) * self.running_mean + m * mean.data.reshape(c),
        )
        self._update_buffer(
            "running_var",
            (1 - m) * self.running_var + m * var.data.reshape(c),
        )
        x_hat = (x - mean) / (var + self.eps) ** 0.5
        return x_hat * self.gamma.reshape(1, c, 1, 1) + self.beta.reshape(1, c, 1, 1)

    def _normalize_running(self, x: Tensor) -> Tensor:
        """Eval mode, one primitive: ``((x - mean) / std) * gamma + beta``
        with ``std = (running_var + eps) ** 0.5``, in one output buffer.

        The same four float ops in the same order as the graph that
        training mode composes from batch statistics, so bits, dtype and
        strides equal that graph's over the running statistics
        (``tests/batchnorm_reference.py`` keeps it).  Each vector passes
        through ``Tensor`` as it does there, which decides its dtype.
        """
        c = self.channels
        mean, var, gamma, beta = (Tensor(v).data for v in (
            self.running_mean, self.running_var, self.gamma.data,
            self.beta.data))
        std = (var + np.asarray(self.eps, dtype=np.float32)) ** 0.5
        out = channel_ops(x.data, ((np.subtract, mean), (np.divide, std),
                                   (np.multiply, gamma), (np.add, beta)))
        vec = (1, c, 1, 1)
        mean, std, gamma = (v.reshape(vec) for v in (mean, std, gamma))

        def grad_fn(g):
            x_hat = (x.data - mean) / std
            return (g * gamma / std,
                    unbroadcast(g * x_hat, vec).reshape(c),
                    unbroadcast(g, vec).reshape(c))

        return backward_op(out, (x, self.gamma, self.beta), grad_fn,
                           "batchnorm")

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.channels})"


class GroupNorm(Module):
    """Group normalisation — batch-size independent alternative used in heads."""

    def __init__(self, num_groups: int, channels: int, eps: float = 1e-5):
        super().__init__()
        if channels % num_groups != 0:
            raise ValueError("channels must be divisible by num_groups")
        self.num_groups = num_groups
        self.channels = channels
        self.eps = eps
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        g = self.num_groups
        xg = x.reshape(n, g, c // g, h, w)
        mean = xg.mean(axis=(2, 3, 4), keepdims=True)
        var = xg.var(axis=(2, 3, 4), keepdims=True)
        xg = (xg - mean) / (var + self.eps) ** 0.5
        out = xg.reshape(n, c, h, w)
        return out * self.gamma.reshape(1, c, 1, 1) + self.beta.reshape(1, c, 1, 1)

    def __repr__(self) -> str:
        return f"GroupNorm({self.num_groups}, {self.channels})"
