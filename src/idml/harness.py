"""Experiment harness: runs, run grids, sweeps, gradient checks, diagnosis.

A run is fully described by a RunConfig (JSON round-trippable, exactly) and
a seed; everything downstream — data generation, init, batch order, mixing,
negative sampling, evaluation — draws from fixed Rng streams keyed on that
seed, so rerunning a config reproduces record.json byte for byte. Wall time
is the one nondeterministic output and lives in its own timing.json.

Output layout per run:
    output_dir/config.json       resolved config echo
    output_dir/record.json       per-epoch stats + final report (deterministic)
    output_dir/epochs.csv        one row of EpochStats fields per epoch
    output_dir/uncertainty.csv   id,label,is_mixed,u_norm over the test split
    output_dir/eval.json         final EvalReport
    output_dir/model.bin         checkpoint
    output_dir/timing.json       wall-clock seconds
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from idml.augment import AugmentConfig, augment_batch, mix_rows
from idml.core import (
    NONNEGATIVE,
    POSITIVE,
    SEED,
    SIZES,
    STREAM_AUGMENT,
    STREAM_BATCH,
    STREAM_EVAL,
    STREAM_INIT,
    STREAM_LOSS,
    Batch,
    Bound,
    MetricParams,
    ParameterError,
    Rng,
    ShapeError,
    at_least,
    check_fields,
    field_rules,
    label_ids,
    multi_hot,
    one_of,
    worker_count,
)
from idml.data import BINARY_MAGIC, Dataset, SynthConfig, generate, load_binary, load_csv
from idml.evaluation import EvalReport, check_scorable, evaluate, uncertainty_levels
from idml.losses import (
    LOSS_NAMES,
    PROXY_LOSSES,
    LossParams,
    default_loss_params,
)
from idml.metric import METRIC_NAMES
from idml.model import (
    finite_difference_check,
    forward,
    h_factor_check,
    init_model,
    load_checkpoint,
    loss_and_grad,
    make_optimizer,
    save_checkpoint,
)

__all__ = [
    "RunConfig",
    "EpochStats",
    "RunRecord",
    "SWEEP_PARAMS",
    "paper_config",
    "benchmark_data_config",
    "baseline_run_config",
    "introspective_run_config",
    "config_to_json_dict",
    "config_from_json_dict",
    "set_config_path",
    "load_dataset",
    "load_dataset_for",
    "train",
    "run_grid",
    "sweep",
    "GradcheckOutcome",
    "gradcheck",
    "diagnose",
    "worker_count",
]

OPTIMIZER_NAMES = ("adamw", "sgd")
UNCERTAINTY_MODES = ("train", "frozen_zero")
SWEEP_PARAMS = ("tau", "gamma", "batch_size", "semantic_dim", "uncertainty_dim")


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs; JSON round-trips exactly."""

    data: SynthConfig = SynthConfig()
    dataset_path: str = None
    loss: Annotated[str, one_of(LOSS_NAMES)] = "contrastive"
    metric: Annotated[str, one_of(METRIC_NAMES)] = "ism"
    test_metric: Annotated[str, one_of(METRIC_NAMES)] = "euclidean"
    metric_params: MetricParams = MetricParams()
    loss_params: LossParams = None
    augment: AugmentConfig = AugmentConfig()
    hidden: Annotated[tuple, SIZES] = (64,)
    semantic_dim: Annotated[int, at_least(1)] = 32
    uncertainty_dim: Annotated[int, at_least(1)] = 32
    uncertainty_mode: Annotated[str, one_of(UNCERTAINTY_MODES)] = "train"
    optimizer: Annotated[str, one_of(OPTIMIZER_NAMES)] = "adamw"
    lr: Annotated[float, POSITIVE] = 1e-2
    weight_decay: Annotated[float, NONNEGATIVE] = 1e-4
    momentum: Annotated[float, Bound(lambda v: 0 <= v < 1, "in [0, 1)")] = 0.9
    proxy_lr_scale: Annotated[float, POSITIVE] = 10.0
    uncert_lr_scale: Annotated[float, POSITIVE] = 1.0
    batch_size: Annotated[int, at_least(4)] = 32
    epochs: Annotated[int, at_least(1)] = 50
    seed: Annotated[int, SEED] = 0

    def __post_init__(self):
        check_fields(self)
        if self.loss_params is None:
            object.__setattr__(self, "loss_params", default_loss_params(self.loss))


def paper_config(**overrides) -> RunConfig:
    """Full-scale shape: batch 120, 512-dim embeddings, small learning rate."""
    base = dict(
        data=SynthConfig(n_classes=100, per_class=60, input_dim=64, seed=0),
        hidden=(512, 512),
        semantic_dim=512,
        uncertainty_dim=512,
        lr=1e-5,
        batch_size=120,
    )
    base.update(overrides)
    return RunConfig(**base)


def benchmark_data_config(seed: int = 0) -> SynthConfig:
    """The ambiguous synthetic benchmark: midpoint samples plus label noise."""
    return SynthConfig(ambiguous_frac=0.3, mislabel_frac=0.05, seed=seed)


def _paired_run_config(loss: str, seed: int, metric: str, augment: AugmentConfig, overrides) -> RunConfig:
    """One arm of a paired benchmark run. Both arms share the benchmark data
    and settings tuned once on it, so they differ only in `metric` and
    `augment`; `overrides` can still set any field."""
    tuned = dict(hidden=(64, 64), weight_decay=1e-2, uncert_lr_scale=0.3)
    base = dict(data=benchmark_data_config(seed), loss=loss, metric=metric, augment=augment, seed=seed, **tuned)
    return RunConfig(**{**base, **overrides})


def baseline_run_config(loss: str, seed: int = 0, **overrides) -> RunConfig:
    """Plain loss: Euclidean metric, no mixing, uncertainty head unused."""
    return _paired_run_config(loss, seed, "euclidean", AugmentConfig(mix_fraction=0.0), overrides)


def introspective_run_config(loss: str, seed: int = 0, metric: str = "ism", **overrides) -> RunConfig:
    """Same loss run through the introspective metric with mixing enabled."""
    augment = AugmentConfig(mix_fraction=0.5, mix_lambda_dist=2.0)
    return _paired_run_config(loss, seed, metric, augment, overrides)


# ---------------------------------------------------------------------------
# Config serialization
# ---------------------------------------------------------------------------

def config_to_json_dict(cfg: RunConfig) -> dict:
    return {**dataclasses.asdict(cfg), "hidden": list(cfg.hidden)}


def config_from_json_dict(d: dict) -> RunConfig:
    """The RunConfig a JSON object describes; a null loss_params section
    means the loss's defaults."""
    return _from_json(RunConfig, d)


def _from_json(cls, d):
    """The config dataclass `cls` from a JSON object, and each section from its own."""
    if not isinstance(d, dict):
        raise ParameterError(f"a config must be a JSON object, got {d!r}")
    rules = field_rules(cls)
    kwargs = {}
    for key, v in d.items():
        if key not in rules:
            raise ParameterError(f"unknown config key {key!r}")
        if dataclasses.is_dataclass(rules[key][0]) and v is not None:
            try:
                v = _from_json(rules[key][0], v)
            except ParameterError as e:
                raise ParameterError(f"bad {key} section: {e}") from None
        kwargs[key] = v
    return cls(**kwargs)


def set_config_path(d: dict, path: str, value):
    """Set the field at a dotted path (`"metric_params.tau"`) of a JSON
    config object, adding the sections it lacks. Values are checked when
    `config_from_json_dict(d)` builds the RunConfig; a field left out there,
    `loss_params` included, takes its default from the final values."""
    *sections, name = path.split(".")
    for key in sections:
        d = d.setdefault(key, {}) if isinstance(d, dict) else None
    if not isinstance(d, dict):
        raise ParameterError(f"cannot set {path}: a config and its sections must be JSON objects")
    d[name] = value


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    """One epoch's means; record.json's "epochs" entries and epochs.csv's
    columns are these fields."""

    epoch: int
    loss: float
    uncert_clean: float
    uncert_mixed: float
    grad_norm: float


@dataclass
class RunRecord:
    """Config echo, the per-epoch trace, and the final report.

    Wall time rides along for reporting but stays out of record.json so the
    record is a pure function of the config.
    """

    config: RunConfig
    epochs: list
    final: EvalReport
    wall_time_s: float = 0.0

    def record_json_dict(self) -> dict:
        return {
            "config": config_to_json_dict(self.config),
            "epochs": [dataclasses.asdict(e) for e in self.epochs],
            "final": self.final.to_json_dict(),
        }


def load_dataset_for(cfg: RunConfig) -> Dataset:
    if cfg.dataset_path is None:
        return generate(cfg.data)
    return load_dataset(cfg.dataset_path)


def load_dataset(path) -> Dataset:
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(4)
    if head == BINARY_MAGIC:
        return load_binary(path)
    return load_csv(path)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _epoch_stream(seed: int, epoch: int, stream: int) -> Rng:
    return Rng(seed, (epoch << 8) | stream)


def train(cfg: RunConfig, output_dir=None) -> RunRecord:
    """Mini-batch training per the config; writes run outputs if a dir is given."""
    t0 = time.perf_counter()
    worker_count()  # a bad IDML_THREADS fails before any work
    if output_dir is not None:  # an unusable output path fails before any work
        Path(output_dir).mkdir(parents=True, exist_ok=True)
    ds = load_dataset_for(cfg)
    train_side = ds.train_split()
    if len(train_side) < cfg.batch_size:
        raise ParameterError(
            f"training split has {len(train_side)} samples, fewer than batch_size={cfg.batch_size}"
        )
    check_scorable(ds.Y[~ds.is_train])  # an unscorable test split fails before training
    held = train_side.Y.any(axis=0)
    model = init_model(
        input_dim=ds.features.shape[1],
        hidden=cfg.hidden,
        semantic_dim=cfg.semantic_dim,
        uncertainty_dim=cfg.uncertainty_dim,
        rng=Rng(cfg.seed, STREAM_INIT),
        proxy_classes=[c for c, h in zip(ds.classes, held) if h] if cfg.loss in PROXY_LOSSES else (),
    )
    stats = _fit(cfg, model, train_side)
    report, u_rows = _evaluate_test_split(model, ds, cfg)
    record = RunRecord(
        config=cfg, epochs=stats, final=report, wall_time_s=time.perf_counter() - t0
    )
    if output_dir is not None:
        _write_run_outputs(Path(output_dir), record, model, u_rows)
    return record


def _fit(cfg: RunConfig, model, train_side: Batch) -> list:
    """Train `model.theta` in place on the rows of `train_side` for
    cfg.epochs; returns the EpochStats.

    Each epoch consumes fresh Rng streams for shuffling, mixing, and
    sampling. Partial trailing batches are dropped so every step sees the
    configured batch size. A step's loss result and gradient are dropped
    right after the optimizer step, so at most one gradient vector is live:
    the next step's is allocated only after the last one is freed. Nothing
    of a step outlives it, and the optimizer state is freed on return,
    before the evaluation.
    """
    # frozen_zero: the uncertainty head and proxy rows start at 0 and never move
    u_scale = 0.0 if cfg.uncertainty_mode == "frozen_zero" else cfg.uncert_lr_scale
    lr_scale = {
        "proxy.semantic": cfg.proxy_lr_scale,
        "proxy.uncertainty": cfg.proxy_lr_scale * u_scale,
        "head_u.W": u_scale,
        "head_u.b": u_scale,
    }
    spans = [(sl, lr_scale.get(name, 1.0)) for name, sl in model.slices.items()]
    for sl, scale in spans:
        if scale == 0.0:
            model.theta[sl] = 0.0
    opt = make_optimizer(cfg.optimizer, cfg.lr, cfg.weight_decay, cfg.momentum)

    mp, lp, n_train = cfg.metric_params, cfg.loss_params, len(train_side)
    stats = []
    for epoch in range(1, cfg.epochs + 1):
        perm = _epoch_stream(cfg.seed, epoch, STREAM_BATCH).permutation(n_train)
        aug_rng = _epoch_stream(cfg.seed, epoch, STREAM_AUGMENT)
        loss_rng = _epoch_stream(cfg.seed, epoch, STREAM_LOSS)
        ep_loss, ep_grad = [], []
        clean_norms, mixed_norms = [], []
        for b in range(n_train // cfg.batch_size):
            rows = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            batch = Batch(train_side.features[rows], train_side.Y[rows], train_side.classes)
            batch = augment_batch(batch, cfg.augment, aug_rng)
            res, grad = loss_and_grad(
                model, batch, cfg.loss, metric=cfg.metric, mp=mp, lp=lp, rng=loss_rng
            )
            norms = uncertainty_levels(res.uncertainty)
            clean_norms.extend(norms[~batch.is_mixed])
            mixed_norms.extend(norms[batch.is_mixed])
            ep_loss.append(res.value)
            ep_grad.append(float(np.linalg.norm(res.d_semantic, axis=1).mean()))
            opt.step(model.theta, grad, spans)
            del res, grad
        stats.append(
            EpochStats(
                epoch=epoch,
                loss=float(np.mean(ep_loss)),
                uncert_clean=float(np.mean(clean_norms)),
                uncert_mixed=float(np.mean(mixed_norms)) if mixed_norms else 0.0,
                grad_norm=float(np.mean(ep_grad)),
            )
        )
    return stats


def _evaluate_test_split(model, ds: Dataset, cfg: RunConfig):
    """Embed the test split and its mixed samples, then evaluate under the
    run's seed, test metric and metric parameters.

    The mixed samples are `mix_rows` of the test split under the run's
    AugmentConfig, on the eval stream; no corruption applies at eval time.

    Returns (EvalReport, uncertainty.csv rows). `forward` and `evaluate` are
    looked up in this module's globals, so wrapping them here wraps the
    evaluation of both `train` and `diagnose`.
    """
    test = ds.test_split()  # rejects non-finite features
    s_test, u_test = forward(model, test.features)
    eval_rng = Rng(cfg.seed, STREAM_EVAL)
    mixed_feats, mixed_Y = mix_rows(test, cfg.augment, eval_rng)
    if mixed_feats.shape[0]:
        _, u_mixed = forward(model, mixed_feats)
    else:
        u_mixed = None
    report = evaluate(
        s_test,
        u_test,
        test.Y,
        eval_rng,
        mixed_uncertainty=u_mixed,
        test_metric=cfg.test_metric,
        mp=cfg.metric_params,
    )
    return report, _uncertainty_rows(ds, test, u_test, mixed_Y, u_mixed)


def _uncertainty_rows(ds, test, u_test, mixed_Y, u_mixed):
    rows = []
    norms = uncertainty_levels(u_test).tolist()  # Python floats print as plain numbers
    idx_test = np.flatnonzero(~ds.is_train)
    for i, (row, ids) in enumerate(zip(idx_test, label_ids(test.Y, ds.classes))):
        rows.append(f"{int(row)},{'|'.join(map(str, ids))},0,{norms[i]!r}")
    if u_mixed is not None:
        mixed_norms = uncertainty_levels(u_mixed).tolist()
        for j, ids in enumerate(label_ids(mixed_Y, ds.classes)):
            rows.append(f"{len(ds) + j},{'|'.join(map(str, ids))},1,{mixed_norms[j]!r}")
    return rows


def _write_eval_outputs(out: Path, report: EvalReport, u_rows):
    """eval.json and uncertainty.csv, the outputs `train` and `diagnose` share."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval.json").write_text(_json_text(report.to_json_dict()))
    (out / "uncertainty.csv").write_text("\n".join(["id,label,is_mixed,u_norm"] + u_rows) + "\n")


def _write_run_outputs(out: Path, record: RunRecord, model, u_rows):
    _write_eval_outputs(out, record.final, u_rows)
    (out / "config.json").write_text(_json_text(config_to_json_dict(record.config)))
    (out / "record.json").write_text(_json_text(record.record_json_dict()))
    (out / "timing.json").write_text(_json_text({"wall_time_s": record.wall_time_s}))
    lines = [",".join(f.name for f in dataclasses.fields(EpochStats))]
    lines += [",".join(map(repr, dataclasses.astuple(e))) for e in record.epochs]
    (out / "epochs.csv").write_text("\n".join(lines) + "\n")
    save_checkpoint(out / "model.bin", model)


# ---------------------------------------------------------------------------
# Run grids and sweeps
# ---------------------------------------------------------------------------


def _one_thread_per_worker():
    # run_grid's processes already fill the thread budget: each worker's
    # budget is one thread, so its steps stay inline (model._run_pair).
    os.environ["IDML_THREADS"] = "1"


def run_grid(configs, output_dirs=None) -> list:
    """Train every config in min(worker_count(), len(configs)) processes, or
    in this one when that is 1. Records come back in config order, and an
    exception raised in a run reaches the caller with its type. Each worker
    process runs its steps on one thread. One output dir holds one run: two
    dirs that resolve to one directory are refused before any run starts."""
    configs = list(configs)
    dirs = [None] * len(configs) if output_dirs is None else list(output_dirs)
    if len(dirs) != len(configs):
        raise ParameterError(f"{len(configs)} configs but {len(dirs)} output dirs")
    real = [os.path.realpath(d) for d in dirs if d is not None]
    if len(set(real)) < len(real):
        raise ParameterError(f"each run needs its own output dir, got {[str(d) for d in dirs]}")
    n_workers = min(worker_count(), len(configs))
    if n_workers <= 1:
        return [train(cfg, d) for cfg, d in zip(configs, dirs)]
    # imported here: every other idml command would pay for them at import
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(
        n_workers, mp_context=get_context("spawn"), initializer=_one_thread_per_worker
    ) as pool:
        return list(pool.map(train, configs, dirs))


def sweep(cfg: RunConfig, param: str, values, output_dir=None):
    """One run per value, shared seed; returns the records, writes sweep.csv."""
    if param not in SWEEP_PARAMS:
        raise ParameterError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
    values = list(values)
    if not values:
        raise ParameterError("sweep needs at least one value")
    names = [f"{param}={v}" for v in values]
    if any(sep and sep in name for name in names for sep in (os.sep, os.altsep)):
        raise ParameterError(f"sweep values must not hold a path separator, got {values}")
    configs = []
    for v in values:
        d = config_to_json_dict(cfg)
        set_config_path(d, f"metric_params.{param}" if param in ("tau", "gamma") else param, v)
        configs.append(config_from_json_dict(d))
    if len(set(configs)) < len(values):
        raise ParameterError(f"sweep values must give distinct runs, got {values}")
    dirs = None if output_dir is None else [Path(output_dir) / name for name in names]
    records = run_grid(configs, dirs)
    if output_dir is not None:  # the runs have created it
        lines = [",".join([param, "final_loss"] + [c for c, _ in records[0].final.columns()])]
        for v, rec in zip(values, records):
            vals = [rec.epochs[-1].loss] + [x for _, x in rec.final.columns()]
            lines.append(",".join([str(v)] + [repr(float(x)) for x in vals]))
        (Path(output_dir) / "sweep.csv").write_text("\n".join(lines) + "\n")
    return records


# ---------------------------------------------------------------------------
# Gradient checking, diagnosis
# ---------------------------------------------------------------------------


@dataclass
class GradcheckOutcome:
    passed: bool
    fd_report: object
    h_report: object

    def summary(self) -> str:
        return (
            f"finite differences: {self.fd_report.summary()}\n"
            f"gradient attenuation: {self.h_report.summary()}"
        )


_GRADCHECK_Y, _GRADCHECK_CLASSES = multi_hot((0, 0, 1, 1, 2, 2, 3, 3))


def gradcheck(cfg: RunConfig) -> GradcheckOutcome:
    """Finite-difference check for the configured loss/metric, plus the
    attenuation-identity check; model kept deliberately tiny."""
    rng = Rng(cfg.seed, STREAM_LOSS)
    classes = (0, 1, 2, 3) if cfg.loss in PROXY_LOSSES else ()
    model = init_model(
        input_dim=6, hidden=(8,), semantic_dim=5, uncertainty_dim=4, rng=rng, proxy_classes=classes
    )

    def batch_fn(r):
        n = len(_GRADCHECK_Y)
        return Batch(features=r.normal(size=(n, 6)), Y=_GRADCHECK_Y, classes=_GRADCHECK_CLASSES)

    fd = finite_difference_check(
        model,
        batch_fn,
        cfg.loss,
        metric=cfg.metric,
        mp=cfg.metric_params,
        lp=cfg.loss_params,
        rng=rng,
    )
    hf = h_factor_check(Rng(cfg.seed, STREAM_EVAL), mp=MetricParams(tau=cfg.metric_params.tau))
    return GradcheckOutcome(passed=fd.passed and hf.passed, fd_report=fd, h_report=hf)


def diagnose(checkpoint_path, dataset_path, cfg: RunConfig = RunConfig(), output_dir=None):
    """Evaluate a saved model on a dataset's test split.

    Pass the training run's config to reproduce its eval.json and
    uncertainty.csv: its seed, test_metric, metric_params and augment are
    the ones read. Returns (EvalReport, uncertainty rows); writes eval.json
    and uncertainty.csv when an output directory is given.
    """
    model = load_checkpoint(checkpoint_path)
    ds = load_dataset(dataset_path)
    if ds.features.shape[1] != model.input_dim:
        raise ShapeError(
            f"dataset feature dim {ds.features.shape[1]} != model input dim {model.input_dim}"
        )
    report, rows = _evaluate_test_split(model, ds, cfg)
    if output_dir is not None:
        _write_eval_outputs(Path(output_dir), report, rows)
    return report, rows
