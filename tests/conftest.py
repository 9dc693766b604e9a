"""Test configuration: make tests/ importable as a helper namespace, pick
the Hypothesis profile, and share the whole-detect model fixture.

Tier-1 runs the ``tier1`` profile: derandomized, so every run draws the
same examples and passes or fails the same way.  Randomised exploration,
with the example database kept under ``.hypothesis/``, runs with
``--hypothesis-profile explore``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.models import build_yolact
from repro.nas import manual_interval_placement

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture(scope="module")
def detect_model():
    """A 64 px r50s YolactLite with three deformable sites whose offset
    heads are non-zero, so the deformable layers sample between texels."""
    model = build_yolact("r50s", input_size=64,
                         placement=manual_interval_placement(9, 3),
                         lightweight=True, bound=7.0, seed=0)
    g = np.random.default_rng(5)
    for layer in model.modules():
        head = getattr(layer, "offset_head", None)
        if head is not None:
            head.pointwise.weight.data[...] = 0.05 * g.normal(
                size=head.pointwise.weight.shape)
    return model
