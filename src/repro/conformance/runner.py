"""Conformance runner: differential + metamorphic checks over cases.

``ConformanceRunner.run_case`` executes one :class:`ConformanceCase`
through the full check catalogue:

=============================  =========================================
``oracle.<backend>``           backend output vs its independent float64
                               oracle, within the derived ULP bound
``pair.tex2d_vs_reference``    hardware-filtered vs software bilinear,
                               within the 1.8 fixed-point envelope
``pair.tex2dpp_vs_tex2d``      fp16 coordinate path vs fp32, within the
                               measured-coordinate-delta envelope
``plancache.bit_identical.*``  cached (cold + warm) runs reproduce the
                               uncached (one-shot plan) outputs and perf
                               counters bit for bit
``plancache.fused_bit_identical.*``
                               uncached, cold and warm fused outputs
                               equal the eager texture-fetch reference
                               (``eager_tex2d_forward``) bit for bit
``shard.bit_identical.*``      row-band and channel-group shard splits,
                               stitched back, reproduce the unsharded
                               output bit for bit (cold + warm shard
                               plan cache)
``stats.output_independent.*`` a price (no input, weights or bias)
                               yields the same perf counters as a full
                               run
``inv.*``                      metamorphic invariants — see
                               :mod:`repro.conformance.invariants`
=============================  =========================================

``run_suite`` adds greedy shrinking of failures and serialises each
minimal failing case to a replayable JSON artifact under
``results/conformance/``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import traceback
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.conformance import invariants
from repro.conformance.cases import CASE_SCHEMA_VERSION, ConformanceCase
from repro.conformance.oracle import (EPS32, EPS64, ORACLE_BACKENDS,
                                      fixed_point_tolerance, oracle_run,
                                      pairwise_coord_tolerance,
                                      ulp_tolerance)
from repro.conformance.report import (CaseReport, CheckResult, SuiteReport,
                                      compare_within)
from repro.conformance.shrink import shrink_case
from repro.gpusim.device import DeviceSpec
from repro.gpusim.profiler import KernelStats
from repro.kernels.dispatch import run_deform_op
from repro.kernels.plancache import PlanCache
from repro.kernels.tex2d import eager_tex2d_forward

#: Numeric KernelStats fields compared bit-for-bit by the cache checks.
STATS_FIELDS = tuple(f.name for f in dataclasses.fields(KernelStats)
                     if f.name not in ("name", "layer", "geometry"))

TEX_BACKENDS = ("tex2d", "tex2dpp")


def _stats_rows(kernels: Sequence[KernelStats]) -> List[List[float]]:
    return [[getattr(k, f) for f in STATS_FIELDS] for k in kernels]


class ConformanceRunner:
    """Executes the conformance check catalogue against a device spec."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        # Shared across the checks of one case: keys include offsets
        # digest, geometry and the fp16 flag, so sharing makes the many
        # repeated zero/integer-offset runs cheap.
        self.plan_cache = PlanCache()

    # ------------------------------------------------------------------
    def run_case(self, case: ConformanceCase) -> CaseReport:
        # Cached fused plans embed the texture unit's filter numerics
        # (what fault injection patches), so none may outlive a case.
        self.plan_cache.clear()
        cfg = case.layer_config()
        arrays = case.materialize()
        tile = case.tile
        groups = [
            ("oracle", lambda: self._differential(arrays, cfg, tile)),
            ("plancache", lambda: self._plan_cache_checks(
                arrays, cfg, tile)),
            ("shard", lambda: self._shard_checks(arrays, cfg, tile)),
            ("inv.zero_offset", lambda: invariants.check_zero_offset(
                arrays, cfg, self.spec, tile, plan_cache=self.plan_cache)),
            ("inv.integer_offsets",
             lambda: invariants.check_integer_offsets(
                 arrays, cfg, self.spec, tile,
                 plan_cache=self.plan_cache)),
            ("inv.translation", lambda: invariants.check_translation(
                case, arrays, cfg, self.spec, tile,
                plan_cache=self.plan_cache)),
            ("inv.clamp", lambda: invariants.check_clamp(
                arrays, cfg, self.spec, tile, plan_cache=self.plan_cache)),
            ("inv.perm", lambda: invariants.check_permutations(
                arrays, cfg, self.spec, tile, seed=case.seed,
                plan_cache=self.plan_cache)),
        ]
        results: List[CheckResult] = []
        for label, thunk in groups:
            try:
                results.extend(thunk())
            except Exception:
                results.append(CheckResult(
                    f"{label}.exception", False,
                    detail=traceback.format_exc(limit=4).strip()
                    .splitlines()[-1]))
        return CaseReport(case=case, results=results)

    # ------------------------------------------------------------------
    def _differential(self, arrays, cfg, tile) -> List[CheckResult]:
        """Backend-vs-oracle and backend-pair differential checks."""
        x, off = arrays["x"], arrays["offset"]
        w, b = arrays["weight"], arrays["bias"]
        outs: Dict[str, np.ndarray] = {}
        oracles = {}
        results = []
        for bk in ORACLE_BACKENDS:
            outs[bk] = run_deform_op(
                bk, x, off, w, b, cfg, self.spec, tile=tile,
                plan_cache=self.plan_cache).output
            oracles[bk] = oracle_run(x, off, w, b, cfg, bk)
            eps = EPS64 if bk == "pytorch" else EPS32
            results.append(compare_within(
                f"oracle.{bk}", outs[bk], oracles[bk].output,
                ulp_tolerance(w, b, oracles[bk], cfg, eps),
                detail="backend vs independent float64 oracle"))
        results.append(compare_within(
            "pair.tex2d_vs_reference", outs["tex2d"], outs["pytorch"],
            fixed_point_tolerance(w, b, cfg, oracles["pytorch"],
                                  oracles["tex2d"]),
            detail="1.8 fixed-point filtering envelope"))
        results.append(compare_within(
            "pair.tex2dpp_vs_tex2d", outs["tex2dpp"], outs["tex2d"],
            pairwise_coord_tolerance(w, b, cfg, oracles["tex2dpp"],
                                     oracles["tex2d"]),
            detail="fp16 coordinate quantisation envelope"))
        return results

    # ------------------------------------------------------------------
    def _plan_cache_checks(self, arrays, cfg, tile) -> List[CheckResult]:
        """Plan-cache transparency: outputs AND perf counters must be
        bit-identical across uncached / cold-cache / warm-cache runs, and
        every fused output must equal the eager reference."""
        x, off = arrays["x"], arrays["offset"]
        w, b = arrays["weight"], arrays["bias"]
        results = []
        for bk in TEX_BACKENDS:
            base = run_deform_op(bk, x, off, w, b, cfg, self.spec,
                                 tile=tile, plan_cache=None)
            pc = PlanCache()
            cold = run_deform_op(bk, x, off, w, b, cfg, self.spec,
                                 tile=tile, plan_cache=pc)
            warm = run_deform_op(bk, x, off, w, b, cfg, self.spec,
                                 tile=tile, plan_cache=pc)
            same_out = (np.array_equal(cold.output, base.output)
                        and np.array_equal(warm.output, base.output))
            rows = _stats_rows(base.kernels)
            same_stats = (_stats_rows(cold.kernels) == rows
                          and _stats_rows(warm.kernels) == rows)
            detail = ""
            if not same_out:
                detail = "cached output differs from uncached"
            elif not same_stats:
                detail = "cached perf counters differ from uncached"
            results.append(CheckResult(
                f"plancache.bit_identical.{bk}",
                passed=same_out and same_stats, detail=detail))

            price = run_deform_op(bk, None, off, None, None, cfg,
                                  self.spec, tile=tile, plan_cache=None)
            results.append(CheckResult(
                f"stats.output_independent.{bk}",
                passed=_stats_rows(price.kernels) == rows,
                detail="" if _stats_rows(price.kernels) == rows else
                "a price (no input) changes perf counters"))

            # Fused execution is an implementation strategy, not a model
            # change: the one-shot plan, the compile call (cold) and the
            # steady-state replay (warm) must all reproduce the eager
            # texture-fetch reference bit for bit.
            eager = eager_tex2d_forward(x, off, w, b, cfg, self.spec,
                                        fp16_offsets=bk == "tex2dpp")
            fused_out = all(np.array_equal(r.output, eager)
                            for r in (base, cold, warm))
            results.append(CheckResult(
                f"plancache.fused_bit_identical.{bk}", passed=fused_out,
                detail="" if fused_out else
                "fused output differs from the eager reference"))
        return results

    # ------------------------------------------------------------------
    def _shard_checks(self, arrays, cfg, tile) -> List[CheckResult]:
        """Sharded execution transparency: a layer split into row bands or
        channel groups, stitched back (:func:`stitch_columns`), must
        reproduce the unsharded output bit for bit — on a cold shard plan
        cache and again on a warm one."""
        from repro.kernels.shards import (enumerate_shards, run_shard,
                                          stitch_columns)

        x, off = arrays["x"], arrays["offset"]
        w, b = arrays["weight"], arrays["bias"]
        results = []
        for bk in TEX_BACKENDS:
            base = run_deform_op(bk, x, off, w, b, cfg, self.spec,
                                 tile=tile, plan_cache=None).output
            fp16 = bk == "tex2dpp"
            for kind in ("rows", "channels"):
                total = (cfg.out_height if kind == "rows"
                         else cfg.in_channels // cfg.deformable_groups)
                if total < 2 or cfg.in_channels % cfg.deformable_groups:
                    results.append(CheckResult(
                        f"shard.bit_identical.{bk}.{kind}", True,
                        detail="layer not splittable — vacuous"))
                    continue
                pc = PlanCache()
                ok, detail = True, ""
                for run in ("cold", "warm"):
                    shards = [s for s in enumerate_shards(cfg, kind, (2, 1))
                              if s is not None]
                    rs = [run_shard(x, off, cfg, self.spec, s, tile=tile,
                                    fp16_offsets=fp16, plan_cache=pc)
                          for s in shards]
                    out = stitch_columns(rs, w, b, cfg, self.spec).output
                    if not np.array_equal(out, base):
                        ok, detail = False, (f"{run}-cache stitched output "
                                             f"differs from unsharded")
                        break
                results.append(CheckResult(
                    f"shard.bit_identical.{bk}.{kind}", passed=ok,
                    detail=detail))
        return results

    # ------------------------------------------------------------------
    def run_suite(self, cases: Sequence[ConformanceCase],
                  shrink: bool = True, out_dir: Optional[str] = None,
                  progress: Optional[Callable[[int, int, CaseReport],
                                              None]] = None
                  ) -> SuiteReport:
        """Run every case; shrink + serialise failures as repro JSONs."""
        suite = SuiteReport()
        for i, case in enumerate(cases):
            report = self.run_case(case)
            suite.reports.append(report)
            if progress is not None:
                progress(i, len(cases), report)
            if report.passed or out_dir is None:
                continue
            minimal, mreport = (shrink_case(case, report, self)
                                if shrink else (case, report))
            suite.artifacts.append(
                write_repro(minimal, mreport, out_dir))
        return suite


# ----------------------------------------------------------------------
# repro artifacts
# ----------------------------------------------------------------------
def write_repro(case: ConformanceCase, report: CaseReport,
                out_dir: str) -> str:
    """Serialise a failing case to ``<out_dir>/<case_id>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "schema": CASE_SCHEMA_VERSION,
        "case": case.to_payload(),
        "failures": [
            {"name": r.name, "max_err": r.max_err,
             "tolerance": r.tolerance, "detail": r.detail}
            for r in report.failures],
    }
    path = os.path.join(out_dir, f"{case.case_id()}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return path


def load_repro(path: str) -> ConformanceCase:
    """Load a repro JSON back into a replayable case."""
    with open(path) as fh:
        payload = json.load(fh)
    schema = payload.get("schema", 0)
    if schema > CASE_SCHEMA_VERSION:
        raise ValueError(
            f"repro {path} uses schema {schema}; this build understands "
            f"<= {CASE_SCHEMA_VERSION}")
    return ConformanceCase.from_payload(payload["case"])
