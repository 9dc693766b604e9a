"""Regenerate the stored reference outputs in ``perfbench/references/``.

    python3 perfbench/make_refs.py [detect] [serve]

References pin what the program returned when the benchmark was
defined; rerun this only when the benchmark's own inputs or models
change, never to make a changed program pass.
"""

import os
import sys

import run

WORKLOAD_NAMES = ("detect", "serve")


def make_detect(W, M, R, np):
    wl = W.Detect()
    wl.setup()
    kernels = []
    wl.engine.log.subscribe(kernels.append)
    calls = []
    for j in range(W.DETECT_POOL):
        del kernels[:]
        out = wl.engine.detect(W.detect_input(j))
        calls.append([R.detections_digest(out), R.kernels_digest(kernels)])
    hits = wl.engine.plan_cache_stats.hits
    return {"calls": calls}, f"{len(calls)} batches, {hits} plan-cache hits"


def make_serve(W, M, R, np):
    """Batch-1 references for candidate images whose detections hold, to
    the strict tolerance, when batched with other candidates; the first
    SERVE_POOL stable candidates form the pool."""
    wl = W.Detect()
    wl.setup()
    engine = wl.engine
    candidates = int(W.SERVE_POOL * 1.25)
    images = [W.serve_input(j) for j in range(candidates)]
    rows = [R.detection_rows(engine.detect(im[None])) for im in images]
    rng = np.random.default_rng(0)
    order = rng.permutation(candidates)
    stable = set(range(candidates))
    i = 0
    while i < candidates:
        size = int(rng.integers(2, W.SERVE_MAX_BATCH + 1))
        batch = [int(j) for j in order[i:i + size]]
        i += size
        dets = engine.detect(np.stack([images[j] for j in batch]))
        for pos, j in enumerate(batch):
            got = R.detection_rows([d for d in dets if d.image_id == pos])
            if len(got) != len(rows[j]) or not R.rows_match(
                    rows[j], got, min_matched=1.0):
                stable.discard(j)
    keep = sorted(stable)[:W.SERVE_POOL]
    if len(keep) < W.SERVE_POOL:
        raise SystemExit(f"only {len(keep)} stable serve candidates")
    return ({"images": {str(j): rows[j] for j in keep}},
            f"{len(keep)} of {candidates} candidates kept "
            f"({candidates - len(stable)} unstable)")


def main(argv):
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import numpy as np

    import model as M
    import refs as R
    import workloads as W

    makers = {"detect": make_detect, "serve": make_serve}
    for name in argv or WORKLOAD_NAMES:
        data, summary = makers[name](W, M, R, np)
        data["meta"] = {"workload": name, "numpy": np.__version__,
                        "model_seed": M.MODEL_SEED, "arch": M.ARCH,
                        "input_size": M.INPUT_SIZE, "device": M.DEVICE.name,
                        "backend": M.BACKEND}
        R.save(name, data)
        print(f"{name}: {summary}")


if __name__ == "__main__":
    main(sys.argv[1:])
