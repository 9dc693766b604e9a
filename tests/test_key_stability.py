"""Cache keys must be identical no matter which process computes them.

One process writes the tile store and another reads it: ``repro tune
--store`` fills it and a later ``repro serve --store`` loads it.  If
`PlanCache` digests or `TileStore` keys ever depended on process state
(hash randomisation, id(), dict order, ...), the reader would silently
miss every entry the writer made.  These tests compute each key in the
parent AND in a pool worker and require equality.
"""

import numpy as np
import pytest

from repro.autotune.store import TUNER_VERSION, entry_key, geometry_key
from repro.kernels.config import LayerConfig
from repro.kernels.plancache import offsets_digest
from repro.kernels.tiling import tile_key

CFG = LayerConfig(8, 4, 12, 10, stride=2, padding=2, dilation=2,
                  deformable_groups=2, batch=2)


def _offsets() -> np.ndarray:
    rng = np.random.default_rng(42)
    return rng.normal(0.0, 2.0, size=CFG.offset_shape()).astype(np.float32)


# Pool entry points must be module-level so they pickle.
def _worker_offsets_digest(_=None) -> str:
    return offsets_digest(_offsets())


def _worker_entry_key(_=None) -> str:
    return entry_key(CFG, "jetson-agx-xavier", "tex2d", TUNER_VERSION)


def _worker_tile_key(_=None):
    return tile_key(CFG)


def _in_worker(fn):
    """Run ``fn`` in a single pool worker; skip if pools are unavailable."""
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(fn).result(timeout=60)
    except Exception as exc:  # sandboxed CI without fork/spawn support
        pytest.skip(f"process pool unavailable: {exc}")


class TestCrossProcessKeyStability:
    def test_offsets_digest_stable_across_processes(self):
        assert _worker_offsets_digest() == _in_worker(_worker_offsets_digest)

    def test_offsets_digest_sensitivity(self):
        """Sanity: the digest actually depends on content, dtype, shape."""
        off = _offsets()
        assert offsets_digest(off) == offsets_digest(off.copy())
        bumped = off.copy()
        bumped.flat[0] += 1e-3
        assert offsets_digest(off) != offsets_digest(bumped)
        assert offsets_digest(off) != offsets_digest(
            off.astype(np.float64))
        assert offsets_digest(off) != offsets_digest(
            off.reshape(off.shape[0], -1))

    def test_tile_store_entry_key_stable_across_processes(self):
        assert _worker_entry_key() == _in_worker(_worker_entry_key)

    def test_tile_key_stable_across_processes(self):
        assert _worker_tile_key() == _in_worker(_worker_tile_key)

    def test_geometry_key_covers_all_tile_relevant_fields(self):
        """Every geometry field except batch must change the key."""
        base = geometry_key(CFG)
        for field, bump in [("in_channels", 16), ("out_channels", 8),
                            ("height", 13), ("width", 11),
                            ("kernel_size", 5), ("stride", 1),
                            ("padding", 1), ("dilation", 1),
                            ("deformable_groups", 1)]:
            cfg = LayerConfig(**{**CFG.__dict__, field: bump})
            assert geometry_key(cfg) != base, field
        assert geometry_key(LayerConfig(**{**CFG.__dict__, "batch": 1})) \
            == base
