"""Metamorphic invariants of the deformable operator.

Each invariant transforms a case's inputs in a way with a *known* effect
on the output and checks every backend honours it.  Two tiers:

* **bitwise** — transformations engineered so that no floating-point
  operation can round differently (integer-valued positions, fractions on
  the 1/128 grid, identical reduction order).  Any bit of disagreement is
  a bug.
* **bounded** — transformations that legitimately reorder fp32 arithmetic
  (in-channel permutations, fp16 coordinate re-quantisation under
  translation); checked against the derived bounds of
  :mod:`repro.conformance.oracle`.

Catalogue: zero-offset ≡ regular conv · integer offsets ≡ gather ·
translation equivariance · offset-clamp lattice stability · batch /
out-channel / in-channel permutation stability.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.conformance.oracle import (EPS32, oracle_run, sample_positions32,
                                      pairwise_coord_tolerance,
                                      ulp_tolerance)
from repro.conformance.report import (CheckResult, compare_exact,
                                      compare_within, skipped)
from repro.gpusim.device import DeviceSpec
from repro.kernels.config import LayerConfig
from repro.kernels.dispatch import run_deform_op

TEX_BACKENDS = ("tex2d", "tex2dpp")
ALL_BACKENDS = ("pytorch",) + TEX_BACKENDS


#: Sentinel distinguishing "use the case's bias" from an explicit None.
_UNSET = object()


def _run(backend: str, arrays: Dict[str, np.ndarray], cfg: LayerConfig,
         spec: DeviceSpec, tile: Tuple[int, int], offset=None, x=None,
         weight=None, bias=_UNSET, plan_cache=None) -> np.ndarray:
    """One backend execution returning the functional output."""
    res = run_deform_op(
        backend,
        arrays["x"] if x is None else x,
        arrays["offset"] if offset is None else offset,
        arrays["weight"] if weight is None else weight,
        arrays["bias"] if bias is _UNSET else bias,
        cfg, spec, tile=tile, compute_output=True, plan_cache=plan_cache)
    return res.output


# ----------------------------------------------------------------------
# expected-value helpers (independent integer-gather implementations)
# ----------------------------------------------------------------------
def _integer_gather_cols(x: np.ndarray, iy: np.ndarray, ix: np.ndarray,
                         cfg: LayerConfig) -> np.ndarray:
    """Zero-filled gather of x at integer positions → (N, C·K, L) fp32.

    ``iy``/``ix``: (N, dg, K, L) integer sampling positions.
    """
    n, c = x.shape[0], cfg.in_channels
    h, w = cfg.height, cfg.width
    dg = cfg.deformable_groups
    cpg = c // dg
    k, l = cfg.taps, cfg.out_pixels
    valid = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
    flat = (np.clip(iy, 0, h - 1) * w + np.clip(ix, 0, w - 1)
            ).reshape(n, dg, k * l)
    xg = x.reshape(n, dg, cpg, h * w)
    vals = np.take_along_axis(xg, flat[:, :, None, :], axis=-1)
    vals = vals * valid.reshape(n, dg, 1, k * l)
    return vals.reshape(n, dg, cpg, k, l).reshape(n, c * k, l
                                                  ).astype(np.float32)


def _gemm_like_backend(cols: np.ndarray, weight: np.ndarray,
                       bias: Optional[np.ndarray], cfg: LayerConfig
                       ) -> np.ndarray:
    """The backends' exact GEMM+bias epilogue: the einsum whose matmul
    their ``gemm_epilogue`` calls, so the same order."""
    n = cols.shape[0]
    w2 = weight.reshape(cfg.out_channels, -1)
    out = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
    out = out.reshape(n, cfg.out_channels, cfg.out_height, cfg.out_width)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def _expected_gather_outputs(arrays, cfg: LayerConfig, offset: np.ndarray
                             ) -> Dict[str, np.ndarray]:
    """Expected outputs when every sampling position is integral.

    The reference kernel blends in float64 (NumPy promotion), the texture
    kernels in float32 — the expected value replicates each element type
    so the comparison can be bitwise.
    """
    py, px = sample_positions32(offset, cfg)
    iy = py.astype(np.int64)
    ix = px.astype(np.int64)
    if not (np.array_equal(iy, py) and np.array_equal(ix, px)):
        raise ValueError("gather invariant needs integral positions")
    cols32 = _integer_gather_cols(arrays["x"], iy, ix, cfg)
    tex_out = _gemm_like_backend(cols32, arrays["weight"], arrays["bias"],
                                 cfg)
    ref_out = _gemm_like_backend(cols32.astype(np.float64),
                                 arrays["weight"], arrays["bias"], cfg)
    return {"pytorch": ref_out, "tex2d": tex_out, "tex2dpp": tex_out}


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
def check_zero_offset(arrays, cfg, spec, tile, plan_cache=None
                      ) -> List[CheckResult]:
    """Zero offsets ⇒ the operator IS a regular convolution (bitwise)."""
    zero = np.zeros(cfg.offset_shape(), dtype=np.float32)
    expected = _expected_gather_outputs(arrays, cfg, zero)
    return [
        compare_exact(f"inv.zero_offset.{bk}",
                      _run(bk, arrays, cfg, spec, tile, offset=zero,
                           plan_cache=plan_cache),
                      expected[bk], detail="vs independent im2col conv")
        for bk in ALL_BACKENDS
    ]


def check_integer_offsets(arrays, cfg, spec, tile, plan_cache=None
                          ) -> List[CheckResult]:
    """Integer offsets ⇒ a shifted zero-filled gather (bitwise)."""
    off = np.rint(np.clip(arrays["offset"], -64.0, 64.0)).astype(np.float32)
    expected = _expected_gather_outputs(arrays, cfg, off)
    return [
        compare_exact(f"inv.integer_offsets.{bk}",
                      _run(bk, arrays, cfg, spec, tile, offset=off,
                           plan_cache=plan_cache),
                      expected[bk], detail="vs independent integer gather")
        for bk in ALL_BACKENDS
    ]


def _translation_setup(case, cfg: LayerConfig):
    """Build the (shifted input, shifted offsets) pair for equivariance.

    Offsets are snapped to the 1/128 grid and clamped so every bilinear
    corner of both runs is strictly in bounds; returns None when the
    geometry leaves no interior room.
    """
    dy = 1 + case.seed % 2
    dx = 1 + (case.seed >> 1) % 2
    h, w = cfg.height, cfg.width
    lim_y = h - 2.0 - dy - 1.0 / 64.0
    lim_x = w - 2.0 - dx - 1.0 / 64.0
    if lim_y < 1.0 / 64.0 or lim_x < 1.0 / 64.0:
        return None
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(0x7A15, case.seed)))
    big = rng.normal(size=(cfg.batch, cfg.in_channels, h + dy, w + dx)
                     ).astype(np.float32)
    x_base = np.ascontiguousarray(big[:, :, :h, :w])
    x_shift = np.ascontiguousarray(big[:, :, dy:, dx:])

    raw = rng.normal(0.0, 2.0, size=cfg.offset_shape()).astype(np.float64)
    n, k = cfg.batch, cfg.taps
    o5 = raw.reshape(n, cfg.deformable_groups, k, 2, cfg.out_pixels)
    from repro.conformance.oracle import base_positions
    by, bx = base_positions(cfg)
    pos_y = np.clip(by[None, None] + o5[:, :, :, 0], 1.0 / 64.0, lim_y)
    pos_x = np.clip(bx[None, None] + o5[:, :, :, 1], 1.0 / 64.0, lim_x)
    o5[:, :, :, 0] = np.round((pos_y - by[None, None]) * 128.0) / 128.0
    o5[:, :, :, 1] = np.round((pos_x - bx[None, None]) * 128.0) / 128.0
    off = raw.astype(np.float32)
    off_shifted = o5.copy()
    off_shifted[:, :, :, 0] += dy
    off_shifted[:, :, :, 1] += dx
    off_shifted = off_shifted.reshape(cfg.offset_shape()).astype(np.float32)
    return x_base, x_shift, off, off_shifted, (dy, dx)


def check_translation(case, arrays, cfg, spec, tile, plan_cache=None
                      ) -> List[CheckResult]:
    """Shifting the input ≡ adding the shift to every offset.

    Bitwise for the fp32-coordinate backends; tex2D++ re-quantises the
    (different-magnitude) coordinates in fp16, so it is checked against
    the measured-coordinate-delta bound instead.
    """
    setup = _translation_setup(case, cfg)
    if setup is None:
        return [skipped("inv.translation", "no interior room at this "
                        f"geometry ({cfg.height}x{cfg.width})")]
    x_base, x_shift, off, off_shifted, (dy, dx) = setup
    results = []
    for bk in ("pytorch", "tex2d"):
        a = _run(bk, arrays, cfg, spec, tile, x=x_shift, offset=off,
                 plan_cache=plan_cache)
        b = _run(bk, arrays, cfg, spec, tile, x=x_base, offset=off_shifted,
                 plan_cache=plan_cache)
        results.append(compare_exact(
            f"inv.translation.{bk}", a, b,
            detail=f"shift=({dy},{dx})"))
    a = _run("tex2dpp", arrays, cfg, spec, tile, x=x_shift, offset=off,
             plan_cache=plan_cache)
    b = _run("tex2dpp", arrays, cfg, spec, tile, x=x_base,
             offset=off_shifted, plan_cache=plan_cache)
    ora = oracle_run(x_shift, off, arrays["weight"], arrays["bias"], cfg,
                     "tex2dpp")
    orb = oracle_run(x_base, off_shifted, arrays["weight"], arrays["bias"],
                     cfg, "tex2dpp")
    tol = pairwise_coord_tolerance(arrays["weight"], arrays["bias"], cfg,
                                   orb, ora, extra_shift=(dy, dx))
    results.append(compare_within(
        "inv.translation.tex2dpp", a, b, tol,
        detail=f"fp16 coords, shift=({dy},{dx})"))
    return results


def check_clamp(arrays, cfg, spec, tile, plan_cache=None
                ) -> List[CheckResult]:
    """Offset-clamp lattice stability and monotonicity.

    * clip(clip(off, P), Q) == clip(off, min(P, Q)) exactly;
    * re-clamping offsets already inside [-P, P] changes no output bit
      (catches hidden state keyed on array identity, e.g. cache bugs);
    * tightening the clamp never increases the out-of-bounds tap count.
    """
    off = arrays["offset"]
    p_bound, q_bound = 4.0, 1.5
    composed = np.clip(np.clip(off, -p_bound, p_bound), -q_bound, q_bound)
    direct = np.clip(off, -min(p_bound, q_bound), min(p_bound, q_bound))
    results = [compare_exact("inv.clamp.lattice", composed, direct,
                             detail="clip∘clip == clip(min)")]

    off_in = np.clip(off, -p_bound, p_bound)
    reclamped = np.clip(off_in, -p_bound, p_bound)
    for bk in ALL_BACKENDS:
        out1 = _run(bk, arrays, cfg, spec, tile, offset=off_in,
                    plan_cache=plan_cache)
        out2 = _run(bk, arrays, cfg, spec, tile, offset=reclamped,
                    plan_cache=plan_cache)
        results.append(compare_exact(
            f"inv.clamp.noop.{bk}", out2, out1,
            detail="re-clamp inside bound is a no-op"))

    # Monotonicity only holds for taps whose *undeformed* position is in
    # bounds (a large offset can rescue an out-of-bounds base tap, and a
    # tighter clamp undoes the rescue) — so count over those taps only.
    from repro.conformance.oracle import base_positions
    by, bx = base_positions(cfg)
    base_ok = ((by >= 0) & (by <= cfg.height - 1)
               & (bx >= 0) & (bx <= cfg.width - 1))[None, None]

    def oob_taps(offsets: np.ndarray) -> int:
        py, px = sample_positions32(offsets, cfg)
        oob = ((py < 0) | (py > cfg.height - 1)
               | (px < 0) | (px > cfg.width - 1))
        return int((oob & base_ok).sum())

    loose, tight = oob_taps(off_in), oob_taps(direct)
    results.append(CheckResult(
        "inv.clamp.monotone_oob", passed=tight <= loose,
        max_err=float(tight), tolerance=float(loose),
        detail=f"out-of-bounds taps (in-bounds base): clamp {q_bound} → "
               f"{tight}, clamp {p_bound} → {loose}"))
    return results


def check_permutations(arrays, cfg, spec, tile, seed: int = 0,
                       plan_cache=None) -> List[CheckResult]:
    """Batch / out-channel / in-channel permutations commute with the
    operator within 2× the accumulation bound.

    None of these are bitwise: the GEMM's block structure (BLAS micro-
    kernels, einsum path) legitimately changes with row/column ordering,
    so elements near block boundaries re-round at ULP scale even when the
    mathematical value is unchanged.  The 2× ULP envelope covers both
    sides of each comparison."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(0x9E21, seed)))
    results: List[CheckResult] = []
    base_out, tols = {}, {}
    for bk in ALL_BACKENDS:
        base_out[bk] = _run(bk, arrays, cfg, spec, tile,
                            plan_cache=plan_cache)
        ora = oracle_run(arrays["x"], arrays["offset"], arrays["weight"],
                         arrays["bias"], cfg, bk)
        eps = EPS32 if bk != "pytorch" else np.finfo(np.float64).eps
        tols[bk] = 2.0 * ulp_tolerance(arrays["weight"], arrays["bias"],
                                       ora, cfg, eps)

    if cfg.batch >= 2:
        perm = rng.permutation(cfg.batch)
        for bk in ALL_BACKENDS:
            got = _run(bk, arrays, cfg, spec, tile,
                       x=np.ascontiguousarray(arrays["x"][perm]),
                       offset=np.ascontiguousarray(arrays["offset"][perm]),
                       plan_cache=plan_cache)
            results.append(compare_within(
                f"inv.perm_batch.{bk}", got, base_out[bk][perm],
                tols[bk][perm], detail="GEMM blocking reorders; 2× ULP"))
    else:
        results.append(skipped("inv.perm_batch", "batch == 1"))

    if cfg.out_channels >= 2:
        perm = rng.permutation(cfg.out_channels)
        w_p = np.ascontiguousarray(arrays["weight"][perm])
        b_p = (np.ascontiguousarray(arrays["bias"][perm])
               if arrays["bias"] is not None else None)
        for bk in ALL_BACKENDS:
            got = _run(bk, arrays, cfg, spec, tile, weight=w_p, bias=b_p,
                       plan_cache=plan_cache)
            results.append(compare_within(
                f"inv.perm_out_channels.{bk}", got, base_out[bk][:, perm],
                tols[bk][:, perm],
                detail="GEMM blocking reorders; 2× ULP"))
    else:
        results.append(skipped("inv.perm_out_channels", "out_channels == 1"))

    cpg = cfg.in_channels // cfg.deformable_groups
    if cpg >= 2:
        block = rng.permutation(cpg)
        perm = np.concatenate([g * cpg + block
                               for g in range(cfg.deformable_groups)])
        x_p = np.ascontiguousarray(arrays["x"][:, perm])
        w_p = np.ascontiguousarray(arrays["weight"][:, perm])
        for bk in ALL_BACKENDS:
            got = _run(bk, arrays, cfg, spec, tile, x=x_p, weight=w_p,
                       plan_cache=plan_cache)
            results.append(compare_within(
                f"inv.perm_in_channels.{bk}", got, base_out[bk], tols[bk],
                detail="reduction order changes; 2× ULP bound"))
    else:
        results.append(skipped("inv.perm_in_channels",
                               "one channel per group"))
    return results
