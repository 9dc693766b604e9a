"""Whole-forward benchmark of the DEFCON reproduction.

    python3 perfbench/run.py --workload detect|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures with tracing off
and reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates traced and untraced requests, reports its per-layer metrics
and writes the Chrome trace to ``perfbench/out/``.  Every request's outputs are checked
against ``perfbench/references/``; a mismatch, an exception or an
unresolved future counts as a failure.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The BLAS and OpenMP pools are pinned to one thread before NumPy loads:
by default OpenBLAS spins both cores of a two-core box, so a co-tenant
on either core stalls every GEMM.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("detect", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro package under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import workloads
    from ledger import Ledger

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    ledger = Ledger() if args.trace else None
    if ledger is not None:
        ledger.install()
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               ledger=ledger)
        if ledger is not None:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            ledger.tracer.write(os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    finally:
        if ledger is not None:
            ledger.uninstall()

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layer"] if args.trace else result["e2e"]
    values = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                          "unit": m["unit"]} for m in table}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"  requests {attempted}  failed {failed}  fail_rate "
          f"{failed / max(attempted, 1):.4f}  latency samples "
          f"{result['samples']} (+{result['traced_samples']} traced)  "
          f"images {result['images']}  probe "
          f"{result['layer']['bench.probe_ms']:.2f} ms")
    print("  set-ups (s): " + " ".join(f"{t:.3f}"
                                       for t in result["setup_times"]))
    for name, v in values.items():
        print(f"  {name:34s} {v['value']:14.6f} {v['unit']}")
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
