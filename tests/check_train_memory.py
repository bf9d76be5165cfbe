"""Measure the training step's memory on the benchmark's `wide` configs.

    python tests/check_train_memory.py [--root CHECKOUT] [--seed N]

The `wide` workload (perfbench/workloads.py) trains five paper-width runs,
hidden (512, 512) with 512-d heads, one after another in one process. This
script trains them from CHECKOUT/src (default: this checkout) in two child
processes, each with one BLAS thread, and prints one JSON line:

- `fit_peak_theta`: the largest `tracemalloc` peak of a `_fit` call above
  its start, in units of that run's `theta.nbytes`. This child runs `idml
  train` with `_fit` traced. AdamW's two moments hold 2 theta for the whole
  fit and a step's gradient one more; a second gradient allocated while the
  last one is still bound shows here.
- `ru_maxrss_mib`: the second child's peak resident set. That child is the
  benchmark's own (perfbench/child.py, ruler ticks included), untraced, so
  this is the figure perfbench reports as `peak_rss_mib`.
- `eval_start_rss_mib`: the second child's largest resident set
  (/proc/self/statm) at the start of `_evaluate_test_split`. Any buffer or
  cache a fit keeps is still resident here, and so is heap that the fit
  freed but the allocator kept; the evaluation reuses the latter.
- `eval_tick_rss_mib`: its largest resident set just before one of the
  evaluation's long ruler ticks. The `wide` peak is set at such a tick:
  this figure plus the tick's 36 MB fresh array.

The per-loss values follow. The name keeps pytest from collecting it: the
two children take about 10 s, outside the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Trains the configs through `idml train` with `_fit` traced.
_TRACED = """
import json, sys, tempfile, tracemalloc
from pathlib import Path
root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path[:0] = [str(root / "src"), sys.argv[3]]
from workloads import build_configs
import idml.harness as harness
from idml.cli import main
out, loss = {}, None

def fit(cfg, model, *args):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stats = real_fit(cfg, model, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out[loss] = round((peak - start) / model.theta.nbytes, 3)
    return stats

real_fit, harness._fit = harness._fit, fit
with tempfile.TemporaryDirectory() as tmp:
    for cfg in build_configs("wide", seed):
        loss = cfg.loss
        path = Path(tmp) / f"{loss}.json"
        path.write_text(json.dumps(harness.config_to_json_dict(cfg)))
        if main(["train", "--config", str(path), "--output", str(Path(tmp) / loss)]) != 0:
            sys.exit(f"idml train failed on {loss}")
print(json.dumps(out))
"""

# Runs the benchmark's own child, ruler ticks included, so that the heap
# sees what it sees in the benchmark; reads the resident set at the start
# of each `_evaluate_test_split`.
_UNTRACED = """
import contextlib, json, os, sys, tempfile
from pathlib import Path
root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path[:0] = [str(root / "src"), sys.argv[3]]
import ruler
from child import main
from workloads import WORKLOADS, build_configs
import idml.harness as harness
page = os.sysconf("SC_PAGE_SIZE")
start, ticks, loss = {}, {}, None

def resident_mib():
    with open("/proc/self/statm") as f:
        return round(int(f.read().split()[1]) * page / 2**20, 2)

def evaluate_test_split(model, ds, cfg):
    global loss
    loss = cfg.loss
    start[loss] = resident_mib()
    try:
        return real_evaluate(model, ds, cfg)
    finally:
        loss = None

def tick(self, kind="step"):
    if kind == "long" and loss is not None:
        ticks[loss] = max(ticks.get(loss, 0.0), resident_mib())
    return real_tick(self, kind)

real_evaluate, harness._evaluate_test_split = harness._evaluate_test_split, evaluate_test_split
real_tick, ruler.Ruler.tick = ruler.Ruler.tick, tick
wide = WORKLOADS["wide"]
with tempfile.TemporaryDirectory() as tmp:
    paths = []
    for i, cfg in enumerate(build_configs("wide", seed)):
        paths.append(Path(tmp) / f"{i}-{cfg.loss}.json")
        paths[-1].write_text(json.dumps(harness.config_to_json_dict(cfg), sort_keys=True, indent=2))
    result = Path(tmp) / "child.json"
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):  # idml train's report lines
        main(["--root", str(root), "--out", str(result), "--mem-limit-mib", str(wide.mem_limit_mib),
              "--ruler", json.dumps(wide.ruler), "--trace", "0", *map(str, paths)])
    child = json.loads(result.read_text())
errors = [c["error"] for c in child["configs"] if c["error"]]
if errors:
    sys.exit(errors[0])
print(json.dumps({"start": start, "ticks": ticks, "ru_maxrss_mib": round(child["peak_rss_kib"] / 1024, 2)}))
"""


def run_child(program: str, root: Path, seed: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", program, str(root), str(seed), str(HERE.parent / "perfbench")],
        capture_output=True, text=True, env=env, cwd=root,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"a child exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE.parent, help="checkout whose src/idml to run")
    parser.add_argument("--seed", type=int, default=3, help="the workload seed")
    args = parser.parse_args()
    root = args.root.resolve()
    fit_peaks = run_child(_TRACED, root, args.seed)
    plain = run_child(_UNTRACED, root, args.seed)
    print(json.dumps({
        "seed": args.seed,
        "fit_peak_theta": max(fit_peaks.values()),
        "ru_maxrss_mib": plain["ru_maxrss_mib"],
        "eval_start_rss_mib": max(plain["start"].values()),
        "eval_tick_rss_mib": max(plain["ticks"].values()),
        "fit_peak_theta_by_loss": fit_peaks,
        "eval_start_rss_mib_by_loss": plain["start"],
        "eval_tick_rss_mib_by_loss": plain["ticks"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
