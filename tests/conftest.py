"""Test configuration: make tests/ importable as a helper namespace, and
pick the Hypothesis profile.

Tier-1 runs the ``tier1`` profile: derandomized, so every run draws the
same examples and passes or fails the same way.  Randomised exploration,
with the example database kept under ``.hypothesis/``, runs with
``--hypothesis-profile explore``.
"""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
