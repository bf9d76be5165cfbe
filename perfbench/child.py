"""One benchmark child: trains configs through ``idml.cli.main`` and writes what it saw.

run.py starts one child per repetition, one after another:

    python3 perfbench/child.py --root DIR --out RESULT.json --mem-limit-mib N
        --ruler '{"step": {"python": 4}, "long": {"fault": 1}}' --trace 0|1
        CONFIG.json [CONFIG.json ...]

The child caps its own address space (RLIMIT_AS) so that running out of
memory raises MemoryError here, imports ``idml`` from DIR/src and nowhere
else, runs ``idml train --config C --output C.out`` once per config, checks
each run's outputs, and writes timestamps, output digests, the environment
and (with --trace 1) the recorded spans and counts to RESULT.json. With
--trace 0 and a --ruler it also runs ruler ticks (see ruler.py): a long tick
at start, before idml is imported, and the ones the Recorder runs while it
trains.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import traceback
from pathlib import Path

from ruler import Ruler
from tracing import Recorder, clock

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_memory_limit(mib: int):
    """Lower this process's RLIMIT_AS soft limit (never raises the hard one)."""
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = mib * 1024 * 1024
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def mem_available_mib() -> float:
    """MemAvailable from /proc/meminfo, or -1 where it cannot be read."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return -1.0


def import_idml(root: Path):
    """Import idml from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import idml.cli

    if Path(idml.cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"idml imported from {idml.cli.__file__}, not from {src}")
    return idml.cli


def record_problems(record: dict) -> list:
    """Output checks on one record.json: finite losses and report, Recall@K in [0, 1]."""
    problems = []

    def walk(value, where):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{where}.{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, f"{where}[{i}]")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{where} is {value}")

    for e in record["epochs"]:
        walk(e, f"epoch {e['epoch']}")
    walk(record["final"], "final")
    for k, r in record["final"]["recall_at_k"].items():
        if not 0.0 <= r <= 1.0:
            problems.append(f"recall@{k} = {r} lies outside [0, 1]")
    return problems


def run_config(cli, recorder, config_path: Path) -> dict:
    """Train one config through cli.main and check its outputs.

    A failure of the program (non-zero exit, MemoryError, any exception) is
    recorded, not raised, so the child goes on with the next config.
    """
    loss = json.loads(config_path.read_text())["loss"]
    recorder.begin_config(loss)
    out_dir = config_path.with_suffix(".out")
    out = {"loss": loss, "error": None, "problems": [], "digest": None, "recall_at_1": None}
    try:
        code = cli.main(["train", "--config", str(config_path), "--output", str(out_dir)])
        if code != 0:
            out["error"] = f"idml train exited with code {code}"
    except MemoryError:
        out["error"] = "MemoryError"
    except Exception:
        out["error"] = traceback.format_exc(limit=3)
    if out["error"] is None:
        raw = (out_dir / "record.json").read_bytes()
        record = json.loads(raw)
        out["digest"] = hashlib.sha256(raw).hexdigest()
        out["recall_at_1"] = record["final"]["recall_at_k"]["1"]
        out["problems"] = record_problems(record)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--mem-limit-mib", required=True, type=int)
    ap.add_argument("--ruler", type=json.loads, default=None, help="ruler mixes as JSON (see ruler.Ruler)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("configs", nargs="+", type=Path)
    args = ap.parse_args(argv)

    set_memory_limit(args.mem_limit_mib)
    env = {
        "mem_limit_mib": args.mem_limit_mib,
        "mem_available_mib_at_start": mem_available_mib(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    ruler = Ruler(args.ruler) if args.ruler and not args.trace else None
    if ruler is not None:
        ruler.tick("long")
    cli = import_idml(args.root)
    import numpy

    env["numpy"] = numpy.__version__
    env["blas_threads"] = {v: os.environ.get(v) for v in BLAS_VARS}
    env["blas_cap_ok"] = all(os.environ.get(v) == "1" for v in BLAS_VARS)

    recorder = Recorder(traced=bool(args.trace), ruler=ruler)
    with recorder:
        configs = [run_config(cli, recorder, p) for p in args.configs]
    t_end = clock()

    result = {
        "t_end": t_end,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": env,
        "configs": configs,
        "recorded": recorder.to_json_dict(),
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
