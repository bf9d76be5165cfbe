"""Does this host give a paper-width training step a second core?

    PYTHONPATH=src python tests/check_step_threads.py [--trials N] [--steps N]

A paper-width step (`perfbench`'s `wide` workload: 180 rows, 64 -> 512 ->
512, 512-d heads) runs its two heads, its hidden layers' weight gradients
beside their dh, and the two halves of its AdamW pass as pairs on two
threads (`idml.model._run_pair`). That pays only where the process really
gets two cores. This script prints one JSON line with three figures, each
taken with one BLAS thread:

- `gemm_probe`: 2 x 20 products of 180 x 512 by 512 x 512, run on one
  thread and then on two, over `--trials` trials; the serial/threaded time
  ratio (median, min, max). About 2 means two cores; about 1 means one
  core's worth of CPU.
- `step_ms`: the median wall time of one contrastive `loss_and_grad` plus
  `AdamW.step` at that shape, inline (IDML_THREADS=1) and with the helper
  thread, over `--trials` steps each, alternating.
- `theta_identical`: whether theta and AdamW's two moments after `--steps`
  steps are byte-identical inline and with the helper.

On a process allowed one CPU the helper never starts by itself; this script
forces it there (`threads_forced`), so that its cost shows. The name keeps
pytest from collecting it: it takes a few seconds, outside the test suite.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import json
import statistics
import sys
import threading
import time

import numpy as np

from idml import model as model_mod
from idml.core import Batch, Rng, multi_hot
from idml.model import AdamW, init_model, loss_and_grad

ROWS, INPUT, HIDDEN, HEAD = 180, 64, (512, 512), 512


def gemm_probe(trials: int) -> dict:
    r = np.random.default_rng(0)
    A = r.normal(size=(ROWS, HEAD))
    Bs = [r.normal(size=(HEAD, HEAD)) for _ in range(2)]
    outs = [np.empty((ROWS, HEAD)) for _ in range(2)]

    def products(k):
        for _ in range(20):
            np.matmul(A, Bs[k], out=outs[k])

    ratios = []
    for _ in range(trials):
        t0 = time.perf_counter()
        products(0)
        products(1)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        helper = threading.Thread(target=products, args=(0,))
        helper.start()
        products(1)
        helper.join()
        ratios.append(serial / (time.perf_counter() - t0))
    return {
        "median": round(statistics.median(ratios), 3),
        "min": round(min(ratios), 3),
        "max": round(max(ratios), 3),
    }


def wide_step_setup():
    r = np.random.default_rng(1)
    Y, classes = multi_hot(r.integers(0, 20, size=ROWS))
    batch = Batch(r.normal(size=(ROWS, INPUT)), Y, classes)
    m = init_model(INPUT, hidden=HIDDEN, semantic_dim=HEAD, uncertainty_dim=HEAD, rng=Rng(2))
    spans = [(sl, 1.0) for sl in m.slices.values()]
    return m, batch, spans


def step(m, batch, spans, opt, rng):
    _, grad = loss_and_grad(m, batch, "contrastive", rng=rng)
    opt.step(m.theta, grad, spans)


def set_inline(inline: bool):
    if inline:
        os.environ["IDML_THREADS"] = "1"
    else:
        os.environ.pop("IDML_THREADS", None)


def step_times(trials: int) -> dict:
    m, batch, spans = wide_step_setup()
    opt, rng = AdamW(lr=1e-5), Rng(3)
    times = {"inline": [], "helper": []}
    for _ in range(2):  # warm-up, and the helper's start
        for inline in (True, False):
            set_inline(inline)
            step(m, batch, spans, opt, rng)
    for _ in range(trials):
        for inline in (True, False):
            set_inline(inline)
            t0 = time.perf_counter()
            step(m, batch, spans, opt, rng)
            times["inline" if inline else "helper"].append(time.perf_counter() - t0)
    return {k: round(1e3 * statistics.median(v), 2) for k, v in times.items()}


def trajectory(inline: bool, steps: int) -> bytes:
    set_inline(inline)
    m, batch, spans = wide_step_setup()
    opt, rng = AdamW(lr=1e-3, weight_decay=1e-2), Rng(4)
    for _ in range(steps):
        step(m, batch, spans, opt, rng)
    return m.theta.tobytes() + opt.m.tobytes() + opt.v.tobytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=30, help="probe trials and timed steps per side")
    parser.add_argument("--steps", type=int, default=10, help="steps of the byte-identity check")
    args = parser.parse_args()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    set_inline(False)
    forced = not model_mod._threads_allowed()
    if forced:
        model_mod._threads_allowed = lambda: True
    probe = gemm_probe(args.trials)
    times = step_times(args.trials)
    identical = trajectory(True, args.steps) == trajectory(False, args.steps)
    print(json.dumps({
        "nproc": os.cpu_count(),
        "affinity": cpus,
        "threads_forced": forced,
        "gemm_probe": probe,
        "step_ms": times,
        "step_speedup": round(times["inline"] / times["helper"], 3),
        "theta_identical": identical,
        "steps": args.steps,
    }))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
