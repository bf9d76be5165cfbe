"""Command-line entry point.

Subcommands: synth, train, eval, sweep, gradcheck, diagnose. Every command
is deterministic under --seed. Exit codes: 0 success, 2 configuration or
input error, 3 numerical failure, 4 gradient-check failure. Importing this
module imports the ``idml`` package first, which caps BLAS at one thread
(see ``idml/__init__.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from idml import data as data_mod
from idml import harness
from idml.core import (
    FormatError,
    NumericalFailure,
    ParameterError,
    ShapeError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GRADCHECK = 4


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", help="RunConfig JSON file")
    p.add_argument("--seed", type=int, metavar="N", help="override every stream's seed")
    p.add_argument("--output", metavar="DIR", help="output directory")
    p.add_argument("--metric", metavar="NAME", help="training metric selector")
    p.add_argument("--loss", metavar="NAME", help="loss selector")
    p.add_argument("--tau", type=float, metavar="F", help="metric temperature")
    p.add_argument("--gamma", type=float, metavar="F", help="metric uncertainty bias")
    p.add_argument("--test-metric", metavar="NAME", help="retrieval metric at test time")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idml",
        description="Introspective deep metric learning toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    _add_common(p)

    p = sub.add_parser("train", help="train a model and write run outputs")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--data", required=True, metavar="PATH")

    p = sub.add_parser("sweep", help="run one config across a parameter grid")
    _add_common(p)
    p.add_argument("--param", required=True, metavar="NAME")
    p.add_argument("--values", required=True, metavar="V1,V2,...")

    p = sub.add_parser("gradcheck", help="finite-difference and attenuation checks")
    _add_common(p)

    p = sub.add_parser("diagnose", help="full report plus per-sample uncertainty")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--data", required=True, metavar="PATH")
    return ap


# Override flags and the config field path each one sets.
_OVERRIDES = (
    ("loss", "loss"),
    ("metric", "metric"),
    ("test_metric", "test_metric"),
    ("tau", "metric_params.tau"),
    ("gamma", "metric_params.gamma"),
    ("seed", "seed"),
    ("seed", "data.seed"),
)


def _load_config(args):
    """The --config object (empty without one) with each given override flag
    set at its field path, then built as one RunConfig: a field the object
    leaves out, loss_params included, takes its default from the final values."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as f:
                raw = json.load(f)
        except json.JSONDecodeError as e:
            raise FormatError(f"{args.config}: {e}") from None
    for flag, path in _OVERRIDES:
        if getattr(args, flag) is not None:
            harness.set_config_path(raw, path, getattr(args, flag))
    return harness.config_from_json_dict(raw)


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    ds = data_mod.generate(cfg.data)
    out_dir = args.output or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "dataset.csv")
    data_mod.save_csv(ds, path)
    n_train = int(ds.is_train.sum())
    print(f"wrote {path}: {len(ds)} samples, {n_train} train / {len(ds) - n_train} test")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    record = harness.train(cfg, output_dir=args.output)
    final = record.final
    r1 = final.recall_at_k.get(1)
    print(
        f"trained {cfg.loss}/{cfg.metric} for {cfg.epochs} epochs: "
        f"final loss {record.epochs[-1].loss:.6f}, R@1 {r1:.4f}, NMI {final.nmi:.4f}"
    )
    if args.output:
        print(f"outputs in {args.output}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    """eval and diagnose: the report on stdout; diagnose adds a row count on stderr."""
    cfg = _load_config(args)
    report, rows = harness.diagnose(args.checkpoint, args.data, cfg, output_dir=args.output)
    print(harness._json_text(report.to_json_dict()), end="")
    if args.command == "diagnose":
        print(f"{len(rows)} per-sample uncertainty rows", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) if "." in v or "e" in v.lower() else int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ParameterError(f"bad sweep values {args.values!r}") from None
    records = harness.sweep(cfg, args.param, values, output_dir=args.output)
    for v, rec in zip(values, records):
        print(f"{args.param}={v}: R@1 {rec.final.recall_at_k.get(1):.4f}, NMI {rec.final.nmi:.4f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    outcome = harness.gradcheck(cfg)
    print(outcome.summary())
    return EXIT_OK if outcome.passed else EXIT_GRADCHECK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "gradcheck": _cmd_gradcheck,
    "diagnose": _cmd_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        harness.worker_count()  # a bad IDML_THREADS fails before any command runs
        return _COMMANDS[args.command](args)
    except (ParameterError, FormatError, ShapeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
