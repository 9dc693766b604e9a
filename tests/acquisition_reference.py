"""Expected improvement as it was while it read ``scipy.stats.norm``,
kept verbatim.

``repro.autotune.acquisition`` now computes the same function from
``scipy.special.ndtr`` and the normal PDF written out;
``tests/test_autotune.py`` requires it to match this one bit for bit, and
the Bayesian searches that read it to make the same decisions.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                         xi: float = 0.01) -> np.ndarray:
    """EI for *minimisation*: expected drop below the incumbent ``best``."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    improvement = best - mean - xi
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)
