"""Texture-cache model with a block-linear (2-D tiled) line layout.

GPU texture caches differ from ordinary data caches in two ways the paper's
optimisation exploits:

1. texels are stored *block-linear*: one cache line covers a small 2-D tile
   of texels, so spatially close fetches — even with fractional, irregular
   offsets — hit the same line;
2. the cache is optimised for streaming: per-CTA working sets are small and
   reuse is dominated by intra-tile locality.

The model is trace-driven but CTA-granular for speed: fetched texel
coordinates are mapped to line IDs, grouped by the CTA (output tile) that
issued them, and each CTA's misses are its unique lines — plus a thrashing
term when a CTA's working set exceeds the per-SM capacity share.  This is
what produces the tile-size sensitivity of paper Fig. 8: tiny tiles re-fetch
halo texels across CTAs, oversized tiles overflow the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.gpusim.device import DeviceSpec


#: largest key space :func:`unique_keys` tabulates regardless of key count
TABLE_BOUND = 1 << 24


def unique_keys(keys: np.ndarray, space: int) -> np.ndarray:
    """``np.unique(keys)`` for int64 ``keys`` in ``[0, space)``.

    A key space within :data:`TABLE_BOUND`, or within 16 slots per key,
    is marked in a boolean table and read back in ascending order by
    ``nonzero``: exact counting, no sort, the same values and dtype as
    ``np.unique``.  A sparser space sorts.
    """
    if space > max(TABLE_BOUND, 16 * keys.size):
        return np.unique(keys)
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    return seen.nonzero()[0]


#: line-id part of a texel outside the texture: any key it enters is
#: past every real (pixel, line) key
_OUT = 1 << 61


def _axis_lines(y: np.ndarray, x: np.ndarray, tex_h: int, tex_w: int,
                line_tile) -> np.ndarray:
    """Both axes of a bilinear fetch trace, resolved once.

    ``y``/``x``: the fetches' floor texels.  Returns (3, 2, n) int64:
    for rows (``[:, 0]``) and columns (``[:, 1]``), the line-id part of
    the floor texel and of its ``+1`` neighbour — line row × lines per
    row, or line column; :data:`_OUT` for a texel outside the texture —
    and how many of the two are inside.  One lookup in a per-geometry
    table: clamping a floor to ``[-2, extent]`` (NaN to −2) keeps every
    answer.
    """
    table, upper, base = _axis_table(tex_h, tex_w, *line_tile)
    j = np.empty((2, y.size), dtype=np.result_type(y, x))
    np.fmax(y, -2, out=j[0])
    np.fmax(x, -2, out=j[1])
    np.fmin(j, upper, out=j)
    j += base
    return table.take(j.astype(np.intp, copy=False), axis=1)


@lru_cache(maxsize=64)
def _axis_table(tex_h: int, tex_w: int, line_th: int, line_tw: int):
    """:func:`_axis_lines`' table of every clamped row ``-2 … tex_h``
    then every clamped column ``-2 … tex_w``, with each axis's clamp
    bound and row offset; built once per geometry, shared read-only."""
    lines_per_row = -(-tex_w // line_tw)
    axes = ((tex_h, line_th, lines_per_row), (tex_w, line_tw, 1))
    columns = []
    for extent, tile, stride in axes:
        t = np.arange(-2, extent + 1)
        parts = []
        inside = np.zeros(t.size, dtype=np.int64)
        for corner in (t, t + 1):
            ok = (corner >= 0) & (corner < extent)
            parts.append(np.where(ok, corner // tile * stride, _OUT))
            inside += ok
        columns.append(np.stack(parts + [inside]))
    table = np.concatenate(columns, axis=1)
    upper = np.array([[tex_h], [tex_w]])
    base = np.array([[2], [tex_h + 5]])
    for a in (table, upper, base):
        a.flags.writeable = False
    return table, upper, base


@dataclass(frozen=True)
class TextureCacheStats:
    """Aggregate results of a cache simulation."""

    requests: int          # bilinear fetch instructions (quads)
    texel_reads: int       # corner texels touched (≤ 4 per request)
    hits: int              # texel reads served by the cache
    misses: int            # line fills
    miss_bytes: float      # DRAM traffic caused by fills

    @property
    def hit_rate(self) -> float:
        if self.texel_reads == 0:
            return 0.0
        return 100.0 * self.hits / self.texel_reads

    def scaled(self, factor: float) -> "TextureCacheStats":
        # Rounding each counter independently can break the invariant
        # hits + misses == texel_reads; round reads and misses, then
        # *derive* hits so the identity survives any factor.
        texel_reads = int(round(self.texel_reads * factor))
        misses = min(int(round(self.misses * factor)), texel_reads)
        return TextureCacheStats(
            requests=int(round(self.requests * factor)),
            texel_reads=texel_reads,
            hits=texel_reads - misses,
            misses=misses,
            miss_bytes=self.miss_bytes * factor,
        )


@dataclass(frozen=True)
class TexelLineTrace:
    """The tile-independent half of a cache simulation, computed once.

    ``simulate()`` does two separable things: (1) map every in-bounds
    bilinear corner texel to a block-linear cache line, and (2) group those
    lines by issuing CTA and count per-CTA misses.  Step 1 depends only on
    the sampling positions and the texture geometry; step 2 is the only
    part the CTA tiling changes.  A ``TexelLineTrace`` captures step 1 so a
    tile sweep re-runs just the cheap regrouping
    (:meth:`TextureCacheModel.simulate_retiled`) per candidate tile.

    It keeps only what the per-tile accounting reads: counts and
    pixel-granular reductions of the raw (output pixel, line) stream over
    the valid corner texels, never that stream itself (up to 4·K·L
    entries).  Neighbouring taps of one output pixel mostly share lines,
    so the deduplicated ``(pixel, line)`` pair list is several times
    shorter than the raw stream, and per-tile work shrinks with it.
    """

    requests: int            # bilinear fetches in the trace (pre-expansion)
    texel_reads: int         # valid corner texels in the raw stream
    #: unique (pixel, line) pairs of the trace, pixel-major ascending
    dedup_pixel: np.ndarray
    dedup_lines: np.ndarray
    #: raw texel reads issued per output pixel (length = max pixel + 1)
    pixel_counts: np.ndarray
    #: line-id space bound: every line id in the trace is < ``line_space``
    line_space: int

    @property
    def nbytes(self) -> int:
        return (self.dedup_pixel.nbytes + self.dedup_lines.nbytes
                + self.pixel_counts.nbytes)


class TextureCacheModel:
    """CTA-granular texture cache simulation.

    Parameters
    ----------
    spec:
        Device description (cache capacity, line size, line tile shape).
    concurrent_layers:
        How many texture layers (feature-map channels) stream through one
        SM's cache concurrently; the per-CTA capacity share divides by it.
        The deformable kernels iterate channels of one deformable group in
        the inner loop, so a handful of layers are simultaneously live.
    """

    def __init__(self, spec: DeviceSpec, concurrent_layers: int = 4):
        self.spec = spec
        self.concurrent_layers = max(1, concurrent_layers)
        self.line_bytes = spec.tex_cache_line_bytes
        self.line_th, self.line_tw = spec.tex_line_tile
        capacity_bytes = spec.tex_cache_kb_per_sm * 1024
        self.capacity_lines = max(
            1, capacity_bytes // self.line_bytes // self.concurrent_layers)

    # ------------------------------------------------------------------
    def line_ids(self, y: np.ndarray, x: np.ndarray, tex_w: int) -> np.ndarray:
        """Map texel coordinates to block-linear line IDs."""
        lines_per_row = -(-tex_w // self.line_tw)  # ceil
        return (y // self.line_th) * lines_per_row + (x // self.line_tw)

    def simulate(self, y: np.ndarray, x: np.ndarray, cta_ids: np.ndarray,
                 tex_h: int, tex_w: int, corners: bool = True
                 ) -> TextureCacheStats:
        """Simulate a fetch trace for one texture layer.

        ``y``/``x``: int arrays of fetch positions (top-left corner of the
        bilinear quad when ``corners=True``); ``cta_ids``: the CTA each fetch
        belongs to.  Out-of-bounds corners are dropped (border texels are not
        read from memory — the paper notes boundary pixels are substituted
        as zero, not fetched).
        """
        y = np.asarray(y, dtype=np.int64).ravel()
        x = np.asarray(x, dtype=np.int64).ravel()
        cta = np.asarray(cta_ids, dtype=np.int64).ravel()
        if not (y.size == x.size == cta.size):
            raise ValueError("y, x, cta_ids must have equal length")
        requests = y.size
        if corners:
            # Expand each bilinear fetch to its (up to) four corner texels.
            y4 = np.concatenate([y, y, y + 1, y + 1])
            x4 = np.concatenate([x, x + 1, x, x + 1])
            cta4 = np.concatenate([cta] * 4)
        else:
            y4, x4, cta4 = y, x, cta
        valid = (y4 >= 0) & (y4 < tex_h) & (x4 >= 0) & (x4 < tex_w)
        y4, x4, cta4 = y4[valid], x4[valid], cta4[valid]
        texel_reads = int(y4.size)
        if texel_reads == 0:
            return TextureCacheStats(requests, 0, 0, 0, 0.0)

        lines = self.line_ids(y4, x4, tex_w)
        return self._account(lines, cta4, requests, texel_reads)

    def precompute(self, y: np.ndarray, x: np.ndarray, pixel: np.ndarray,
                   tex_h: int, tex_w: int) -> TexelLineTrace:
        """One-pass step 1: the texel→line mapping of a fetch trace.

        ``y``/``x`` are each bilinear fetch's top-left texel — integers,
        or the integer-valued floats ``np.floor`` returns — and ``pixel``
        the output pixel that issued it, so any CTA tiling can be applied
        afterwards via :meth:`simulate_retiled`.  The result equals what
        :meth:`simulate`'s corner expansion and bounds filtering would
        feed its accounting, tagged by pixel instead of CTA.

        Each axis is resolved once: a per-geometry table (see
        :func:`_axis_lines`) gives a fetch's line row (column) for its
        floor texel and its ``+1`` texel, and how many of the two are in
        bounds.  The four corners' (pixel, line) keys are one broadcast
        sum of those parts; a corner out of bounds on either axis lands
        on one sentinel key past the key space, dropped after the
        dedup — no 4·K·L corner concatenation and no compaction of it.
        """
        y, x = np.asarray(y).ravel(), np.asarray(x).ravel()
        pixel = np.asarray(pixel, dtype=np.intp).ravel()
        if not (y.size == x.size == pixel.size):
            raise ValueError("y, x, pixel must have equal length")
        requests = y.size
        lines = -(-tex_h // self.line_th) * -(-tex_w // self.line_tw)
        parts = _axis_lines(y, x, tex_h, tex_w, (self.line_th, self.line_tw))
        rows, cols = parts[:, 0], parts[:, 1]
        # valid corner texels per fetch: valid rows × valid columns
        reads = rows[2] * cols[2]
        texel_reads = int(np.add.reduce(reads))
        if texel_reads == 0:
            empty = np.empty(0, dtype=np.int64)
            return TexelLineTrace(requests=requests, texel_reads=0,
                                  dedup_pixel=empty, dedup_lines=empty,
                                  pixel_counts=empty, line_space=1)
        # Pixel-granular reductions, paid once per trace: the deduplicated
        # (pixel, line) pair set and the raw per-pixel read counts are all
        # any CTA grouping of pixels needs.
        counts = np.bincount(pixel, weights=reads)
        space = counts.size * lines
        keys = (rows[:2] + pixel * lines)[:, None] + cols[None, :2]
        np.minimum(keys, space, out=keys)
        pair_key = unique_keys(keys.ravel(), space + 1)
        if pair_key[-1] == space:
            pair_key = pair_key[:-1]
        dedup_pixel, dedup_lines = np.divmod(pair_key, lines)
        return TexelLineTrace(
            requests=requests, texel_reads=texel_reads,
            dedup_pixel=dedup_pixel, dedup_lines=dedup_lines,
            pixel_counts=counts[:counts.nonzero()[0][-1] + 1].astype(
                np.int64),
            line_space=int(np.maximum.reduce(dedup_lines)) + 1)

    def simulate_retiled(self, trace: TexelLineTrace,
                         cta_of_pixel: np.ndarray) -> TextureCacheStats:
        """One-pass step 2: re-bucket a precomputed trace under a tiling.

        ``cta_of_pixel`` maps output-pixel index → CTA id for the candidate
        tile (see :func:`repro.gpusim.trace.cta_ids_for_tile`).  The result
        is bit-identical to ``simulate()`` run on the same trace with that
        tiling, at a fraction of the cost: the corner expansion, bounds
        filtering and line mapping are never repeated, and the accounting
        runs counting-based over the trace's deduplicated (pixel, line)
        pairs instead of re-sorting the raw texel stream — the unique-pair
        set and per-CTA counts are invariant under the pixel→CTA grouping,
        so every counter (and the thrash term, summed over the identical
        per-CTA arrays) comes out exactly equal to ``_account``'s.
        """
        if trace.texel_reads == 0:
            return TextureCacheStats(trace.requests, 0, 0, 0, 0.0)
        cta_of_pixel = np.asarray(cta_of_pixel, dtype=np.int64)
        num_ctas = int(np.maximum.reduce(cta_of_pixel)) + 1
        space = trace.line_space
        # Raw per-CTA access counts: sum the per-pixel read counts of the
        # pixels each CTA owns (float64 sums of ints below 2**53: exact).
        accesses = np.bincount(cta_of_pixel[:trace.pixel_counts.size],
                               weights=trace.pixel_counts,
                               minlength=num_ctas).astype(np.int64)
        uniq = unique_keys(
            cta_of_pixel[trace.dedup_pixel] * space + trace.dedup_lines,
            num_ctas * space)
        uniq_per_cta = np.bincount(uniq // space, minlength=num_ctas)
        present = accesses > 0
        return self._finish(uniq.size, accesses[present],
                            uniq_per_cta[present].astype(np.int64),
                            trace.requests, trace.texel_reads)

    def _account(self, lines: np.ndarray, cta4: np.ndarray, requests: int,
                 texel_reads: int) -> TextureCacheStats:
        """Reference miss accounting over the raw (line, CTA) stream."""
        # Unique (cta, line) pairs = compulsory misses per CTA.
        key = cta4 * (lines.max() + 1) + lines
        uniq_keys, first_idx = np.unique(key, return_index=True)
        unique_pairs = uniq_keys.size
        # Per-CTA access and unique-line counts for the thrashing correction.
        cta_sorted = np.sort(cta4)
        cta_vals, accesses_per_cta = np.unique(cta_sorted, return_counts=True)
        uniq_cta_of_pairs = cta4[first_idx]
        _, uniq_lines_per_cta = np.unique(np.sort(uniq_cta_of_pairs),
                                          return_counts=True)
        return self._finish(unique_pairs, accesses_per_cta,
                            uniq_lines_per_cta, requests, texel_reads)

    def _finish(self, unique_pairs: int, accesses_per_cta: np.ndarray,
                uniq_lines_per_cta: np.ndarray, requests: int,
                texel_reads: int) -> TextureCacheStats:
        """Turn per-CTA counts into stats (shared by both accountings)."""
        # Thrash: when a CTA's working set exceeds its capacity share, the
        # overflowing fraction of its re-accesses also misses.
        cap = self.capacity_lines
        reaccesses = accesses_per_cta - uniq_lines_per_cta
        overflow = np.maximum(0.0, 1.0 - cap / np.maximum(uniq_lines_per_cta, 1))
        thrash = np.add.reduce(reaccesses * overflow)
        misses = int(unique_pairs + round(float(thrash)))
        misses = min(misses, texel_reads)
        hits = texel_reads - misses
        return TextureCacheStats(
            requests=requests,
            texel_reads=texel_reads,
            hits=hits,
            misses=misses,
            miss_bytes=float(misses * self.line_bytes),
        )
