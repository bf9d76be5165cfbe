"""The idml benchmark: one command per workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mining|wide|eval --seed N --seconds S --trace 0|1

Run it inside a checkout that has src/idml. The workload's RunConfigs are
generated from --seed and written to .perfbench_work/. Child processes
(perfbench/child.py) then each train every config once through
``idml.cli.main``: one child after another (closed loop), each with one
BLAS thread, until --seconds are used up. There are
always at least two children, so that repeat runs of one seed can be
compared byte for byte.

With --trace 0 every child runs untraced and the JSON line carries the
end-to-end metrics: the median over the children of each child's times, each
scaled to the reference speed that the child's ruler ticks measured around
it (see ruler.py). With --trace 1 untraced and traced children alternate;
the JSON line carries the per-layer metrics of the traced ones, and
trace.overhead_s is the difference between the two kinds' median wall time,
less the untraced children's ruler ticks.

Human-readable lines come first: the environment, each config's record.json
digest and Recall@1, the error rate, any failure or failed check, and every
metric with its unit. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 2 when there is no
idml source to benchmark, and 1 when too few runs succeeded to report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import BLAS_VARS  # noqa: E402
from ruler import scaled_seconds  # noqa: E402
from tracing import PER_LAYER, clock, layer_metrics, median, self_times, train_loop_s  # noqa: E402
from workloads import WORKLOADS, build_configs  # noqa: E402

MIN_CHILDREN = 2
CHILD_TIMEOUT_S = 150
RUN_DEADLINE_S = 170

END_TO_END = {
    # name: (unit, better, bound). bound is the share of the parent commit's
    # median by which the metric may worsen before a change is rejected.
    "train_samples_per_s": ("rows/s", "higher", 0.25),
    "eval_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.05),
    "success_rate": ("fraction", "higher", 0.05),
}


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_configs(workload: str, seed: int, work: Path) -> list:
    from idml.harness import config_to_json_dict

    paths = []
    for i, cfg in enumerate(build_configs(workload, seed)):
        path = work / f"{i}-{cfg.loss}.json"
        path.write_text(json.dumps(config_to_json_dict(cfg), sort_keys=True, indent=2))
        paths.append(path)
    return paths


def run_child(index: int, traced: bool, configs: list, work: Path, workload, timeout: float):
    """Start one child, wait for it, return (spawn time, its result or None)."""
    out = work / f"child-{index}.json"
    log = work / f"child-{index}.log"
    env = dict(os.environ, **{v: "1" for v in BLAS_VARS})
    env.pop("IDML_THREADS", None)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--root", str(ROOT),
        "--out", str(out),
        "--mem-limit-mib", str(workload.mem_limit_mib),
        "--ruler", json.dumps(workload.ruler),
        "--trace", str(int(traced)),
        *map(str, configs),
    ]
    with open(log, "wb") as logf:
        t_spawn = clock()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=logf, stderr=logf)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode == 0 and out.is_file():
        return t_spawn, json.loads(out.read_text())
    tail = log.read_text(errors="replace")[-2000:]
    print(f"child {index} exited with {proc.returncode}; log tail:\n{tail}", file=sys.stderr)
    return t_spawn, None


def spawn_children(args, workload, configs: list, work: Path) -> list:
    """Run children one after another until --seconds are used; [(traced, t_spawn, result)].

    A child starts only while the median child so far still fits in the
    remaining time, so a run lasts about --seconds.
    """
    t0 = clock()
    children, durations = [], []
    while len(children) < MIN_CHILDREN or clock() - t0 + median(durations) <= args.seconds:
        elapsed = clock() - t0
        if elapsed > RUN_DEADLINE_S - 20:
            break
        traced = bool(args.trace) and len(children) % 2 == 1
        t_spawn, result = run_child(
            len(children), traced, configs, work, workload,
            timeout=min(CHILD_TIMEOUT_S, RUN_DEADLINE_S - elapsed),
        )
        durations.append(clock() - t_spawn)
        children.append((traced, t_spawn, result))
    return children


def count_outcomes(results: list, n_configs: int):
    """(attempted, failed, failures, problems, digests) over all children's config runs.

    A config run fails when the program failed (no child result, an error, a
    non-zero exit) or when its outputs failed a check (non-finite values,
    Recall@K outside [0, 1], a record.json that differs from the first
    successful run of the same config). Both count in `failed`; only the
    second kind makes the run incorrect.
    """
    attempted = failed = 0
    failures, problems, digests = [], [], {}
    for i, result in enumerate(results):
        attempted += n_configs
        if result is None:
            failed += n_configs
            failures.append(f"child {i} produced no result")
            continue
        for j, c in enumerate(result["configs"]):
            where = f"child {i} config {j} ({c['loss']})"
            if c["error"]:
                failures.append(f"{where}: {c['error']}")
            elif c["problems"]:
                problems.append(f"{where}: {'; '.join(c['problems'])}")
            elif digests.setdefault(j, c["digest"]) != c["digest"]:
                problems.append(f"{where}: record.json sha256 {c['digest']} != {digests[j]} of an earlier run")
            else:
                continue
            failed += 1
    return attempted, failed, failures, problems, digests


def first_step(result: dict):
    starts = [p["step_starts"][0] for p in result["recorded"]["configs"] if p["step_starts"]]
    return starts[0] if starts else None


def child_end_to_end(t_spawn: float, result: dict) -> dict:
    """One untraced child's end-to-end times, each scaled to reference speed.

    Each time has the ruler's own ticks taken out and is scaled by the speed
    the ticks in and next to it measured (ruler.scaled_seconds). Configs
    that failed add neither rows nor time.
    """
    ticks = result["recorded"]["ticks"]
    rows = loop_s = eval_s = 0.0
    for c, p in zip(result["configs"], result["recorded"]["configs"]):
        if c["error"] is None and p["step_starts"] and p["loop_end"] is not None:
            rows += p["rows"]
            loop_s += scaled_seconds([(p["step_starts"][0], p["loop_end"])], ticks)
            eval_s += scaled_seconds(p["eval_spans"], ticks)
    first = first_step(result)
    return {
        "train_samples_per_s": rows / loop_s if loop_s > 0 else 0.0,
        "eval_s": eval_s,
        "run_s": scaled_seconds([(t_spawn, result["t_end"])], ticks),
        "setup_s": scaled_seconds([(t_spawn, first)], ticks) if first is not None else 0.0,
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }


def end_to_end(untraced: list) -> dict:
    """Median over the untraced children [(t_spawn, result)] of their scaled times.

    Only children in which every config succeeded count, unless there are
    none; then every child does.
    """
    whole = [(t, r) for t, r in untraced if all(c["error"] is None for c in r["configs"])]
    per_child = [child_end_to_end(t, r) for t, r in whole or untraced]
    return {name: median([m[name] for m in per_child]) for name in per_child[0]}


def unticked_run_s(t_spawn: float, result: dict) -> float:
    """A child's wall time without the time its ruler ticks took."""
    return result["t_end"] - t_spawn - sum(t[1] - t[0] for t in result["recorded"]["ticks"])


def machine_speed(result: dict) -> float:
    """Reference over measured seconds of all of a child's ticks: 1.0 on a quiet machine."""
    ticks = result["recorded"]["ticks"]
    measured = sum(t[2] for t in ticks)
    return sum(t[3] for t in ticks) / measured if measured > 0 else float("nan")


def layer_shares(t_spawn: float, result: dict) -> tuple:
    """Each layer's self time as a share of the training loop and of run_s, for one traced child."""
    recorded = result["recorded"]
    own = self_times(recorded["spans"])
    loop, whole = Counter(), Counter()
    for sid, _parent, name, cfg, t0, _t1 in recorded["spans"]:
        layer = name.split(".", 1)[0]
        whole[layer] += own[sid]
        probe = recorded["configs"][cfg]
        if probe["step_starts"] and probe["step_starts"][0] <= t0 < (probe["loop_end"] or 0.0):
            loop[layer] += own[sid]
    loop_s = sum(train_loop_s(p) for p in recorded["configs"])
    run_s = result["t_end"] - t_spawn
    return (
        {k: v / loop_s for k, v in loop.items()} if loop_s else {},
        {k: v / run_s for k, v in whole.items()},
    )


def measure(args, workload, work: Path) -> int:
    configs = write_configs(args.workload, args.seed, work)
    children = spawn_children(args, workload, configs, work)
    attempted, failed, failures, problems, digests = count_outcomes(
        [r for _, _, r in children], len(configs)
    )
    untraced = [(t, r) for traced, t, r in children if r is not None and not traced]
    traced = [(t, r) for is_traced, t, r in children if r is not None and is_traced]
    untraced_ok = any(c["error"] is None for _, r in untraced for c in r["configs"])
    if not digests or not untraced_ok or (args.trace and not traced):
        for p in failures + problems:
            print(p, file=sys.stderr)
        print("error: too few successful runs to report", file=sys.stderr)
        return 1
    envs = [r["env"] for _, _, r in children if r is not None]
    if not all(e["blas_cap_ok"] for e in envs):
        problems.append("a child ran with a BLAS thread cap other than 1")

    if args.trace:
        metrics, count_problems = layer_metrics([r["recorded"] for _, r in traced])
        problems += count_problems
        metrics["trace.run_s"] = median([r["t_end"] - t for t, r in traced])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - median([unticked_run_s(t, r) for t, r in untraced])
        report = {name: (metrics[name], spec[0]) for name, spec in PER_LAYER.items()}
    else:
        metrics = end_to_end(untraced)
        metrics["success_rate"] = 1.0 - failed / attempted
        report = {name: (metrics[name], spec[0]) for name, spec in END_TO_END.items()}

    env = dict(envs[0], workload=args.workload, seed=args.seed, commit=git_commit(ROOT))
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"children: {len(untraced)} untraced, {len(traced)} traced, {len(configs)} configs each")
    print(f"untraced wall s per child: {[round(r['t_end'] - t, 4) for t, r in untraced]}")
    if not args.trace:
        print(f"machine speed per child (1.0 = reference): {[round(machine_speed(r), 3) for _, r in untraced]}")
    recalls = {}
    for _, r in untraced:
        for j, c in enumerate(r["configs"]):
            if c["error"] is None:
                recalls.setdefault(j, c["recall_at_1"])
    for j, path in enumerate(configs):
        print(f"config {j} {path.stem}: record.json sha256 {digests.get(j)}, recall@1 {recalls.get(j)}")
    if recalls:
        print(f"recall_at_1: {sum(recalls.values()) / len(recalls):.6g} fraction (mean over configs)")
    print(f"error_rate: {failed / attempted:.6g} fraction ({failed} of {attempted} config runs failed)")
    for p in failures:
        print(f"failure: {p}")
    for p in problems:
        print(f"incorrect: {p}")
    if args.trace:
        shares = [layer_shares(t, r) for t, r in traced]
        for i, what in enumerate(("training loop", "traced run_s")):
            layers = {k for s in shares for k in s[i]}
            parts = {k: median([s[i].get(k, 0.0) for s in shares]) for k in layers}
            text = ", ".join(f"{k} {v:.3f}" for k, v in sorted(parts.items(), key=lambda kv: -kv[1]))
            print(f"self-time share of {what}: {text}")
    for name, (value, unit) in report.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="idml benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (ROOT / "src" / "idml" / "__init__.py").is_file():
        print(f"error: no idml source under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    for v in BLAS_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
