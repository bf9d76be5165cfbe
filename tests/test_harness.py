"""Tests for the training harness: configs, runs, sweeps, gradcheck, diagnose."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import idml
from idml.augment import AugmentConfig, mix_rows
from idml.core import STREAM_EVAL, Batch, MetricParams, NumericalFailure, ParameterError, Rng, ShapeError
from idml.data import SynthConfig, generate, save_binary, save_csv
from idml.evaluation import EvalReport
from idml.harness import (
    EpochStats,
    GradcheckOutcome,
    RunConfig,
    baseline_run_config,
    benchmark_data_config,
    config_from_json_dict,
    config_to_json_dict,
    diagnose,
    gradcheck,
    introspective_run_config,
    load_dataset,
    load_dataset_for,
    paper_config,
    run_grid,
    sweep,
    train,
    worker_count,
)
from idml.harness import _fit
from idml.losses import LOSS_NAMES, LossParams, default_loss_params
from idml.model import forward, init_model, load_checkpoint


def tiny_config(**overrides):
    """A run small enough that train() finishes in well under a second."""
    base = dict(
        data=SynthConfig(n_classes=4, per_class=8, input_dim=6, seed=1),
        loss="contrastive",
        hidden=(8,),
        semantic_dim=8,
        uncertainty_dim=8,
        batch_size=8,
        epochs=3,
        seed=1,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# Config validation and factories
# ---------------------------------------------------------------------------


def test_runconfig_defaults():
    cfg = RunConfig()
    assert cfg.loss == "contrastive"
    assert cfg.metric == "ism"
    assert cfg.test_metric == "euclidean"
    assert cfg.optimizer == "adamw"
    assert cfg.uncertainty_mode == "train"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(loss="hinge3"),
        dict(metric="cosine_ann"),
        dict(test_metric="manhattan"),
        dict(optimizer="rmsprop"),
        dict(uncertainty_mode="sometimes"),
        dict(batch_size=3),
        dict(epochs=0),
        dict(semantic_dim=0),
        dict(uncertainty_dim=-1),
        dict(lr=0.0),
        dict(proxy_lr_scale=-1.0),
        dict(uncert_lr_scale=0.0),
        dict(weight_decay=-1e-4),
        dict(seed=-1),
        dict(seed=2**64),
        dict(hidden=()),
        dict(hidden=(8, 0)),
        dict(batch_size=32.0),
        dict(seed=True),
        dict(lr=True),
        dict(hidden=(8.0,)),
        dict(data=None),
        dict(loss=None),
        dict(optimizer="sgd", momentum=-5.0),
        dict(optimizer="sgd", momentum=float("nan")),
        dict(optimizer="sgd", momentum=1.0),
        dict(optimizer="sgd", momentum=3),
        dict(lr=10**400),  # an int past the float range
    ],
)
def test_runconfig_rejects_bad_values(kwargs):
    with pytest.raises(ParameterError):
        RunConfig(**kwargs)


@pytest.mark.parametrize("momentum", [0, 0.9])
def test_runconfig_accepts_momentum_in_unit_interval(momentum):
    assert RunConfig(optimizer="sgd", momentum=momentum).momentum == momentum


def test_runconfig_fills_loss_params_per_loss():
    # Each loss gets its own margin default when none is supplied.
    assert RunConfig(loss="contrastive").loss_params.margin_delta == 1.0
    assert RunConfig(loss="triplet_sh").loss_params.margin_delta == 0.2
    custom = LossParams(margin_delta=0.25)
    assert RunConfig(loss="contrastive", loss_params=custom).loss_params.margin_delta == 0.25


def test_paper_config_shape():
    cfg = paper_config()
    assert cfg.hidden == (512, 512)
    assert cfg.semantic_dim == cfg.uncertainty_dim == 512
    assert cfg.batch_size == 120
    assert paper_config(epochs=2).epochs == 2


def test_benchmark_factories_differ_only_where_intended():
    base = baseline_run_config("contrastive", seed=3)
    intro = introspective_run_config("contrastive", seed=3)
    assert base.metric == "euclidean" and base.augment.mix_fraction == 0.0
    assert intro.metric == "ism" and intro.augment.mix_fraction == 0.5
    assert base.data == intro.data == benchmark_data_config(3)
    # The shared tuning must be identical across the two arms.
    for field in ("loss", "hidden", "weight_decay", "uncert_lr_scale", "lr", "seed"):
        assert getattr(base, field) == getattr(intro, field)
    dis = introspective_run_config("contrastive", seed=3, metric="ism_dis")
    assert dis.metric == "ism_dis"
    assert dis.augment == intro.augment


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_paired_arms_differ_only_in_metric_and_augment(loss):
    for seed in range(3):
        base = config_to_json_dict(baseline_run_config(loss, seed=seed))
        intro = config_to_json_dict(introspective_run_config(loss, seed=seed))
        assert base.keys() == intro.keys()
        assert {k for k in base if base[k] != intro[k]} == {"metric", "augment"}


# ---------------------------------------------------------------------------
# Config serialization
# ---------------------------------------------------------------------------


def test_config_json_round_trip_exact():
    cfg = introspective_run_config(
        "multi_similarity",
        seed=4,
        metric="ism_dis",
        metric_params=MetricParams(gamma=0.5, tau=3.0),
        hidden=(32, 16),
        epochs=7,
    )
    text = json.dumps(config_to_json_dict(cfg))
    back = config_from_json_dict(json.loads(text))
    assert back == cfg
    assert config_to_json_dict(back) == config_to_json_dict(cfg)


def test_config_from_json_rejects_unknown_key():
    d = config_to_json_dict(RunConfig())
    d["learning_rate"] = 0.1
    with pytest.raises(ParameterError, match="unknown config key"):
        config_from_json_dict(d)


def test_config_from_json_rejects_bad_nested_section():
    d = config_to_json_dict(RunConfig())
    d["data"] = {"n_classes": 10, "bogus_knob": 1}
    with pytest.raises(ParameterError, match="bad data section"):
        config_from_json_dict(d)


def test_config_from_json_null_loss_params_means_defaults():
    cfg = config_from_json_dict({"loss": "triplet_sh", "loss_params": None})
    assert cfg.loss_params == default_loss_params("triplet_sh")


def test_runconfig_accepts_an_int_for_a_float_and_numpy_ints():
    cfg = RunConfig(lr=1, seed=np.int64(3), hidden=[np.int32(8)], metric_params=MetricParams(tau=np.float64(5)))
    assert cfg.lr == 1 and cfg.seed == 3 and cfg.hidden == (8,)
    # each value is stored in its annotated type
    assert [type(v) for v in (cfg.lr, cfg.seed, cfg.metric_params.tau, cfg.hidden, *cfg.hidden)] == [
        float, int, float, tuple, int
    ]


def test_train_writes_the_config_of_numpy_valued_fields(tmp_path):
    cfg = tiny_config(epochs=1, batch_size=np.int64(8))
    train(cfg, output_dir=tmp_path)  # config.json is written after training
    assert config_from_json_dict(json.loads((tmp_path / "config.json").read_text())) == cfg


def test_an_int_and_a_float_echo_the_same_config():
    as_int = config_from_json_dict({"metric_params": {"tau": 5}, "lr": 1})
    as_float = config_from_json_dict({"metric_params": {"tau": 5.0}, "lr": 1.0})
    assert as_int == as_float
    assert json.dumps(config_to_json_dict(as_int)) == json.dumps(config_to_json_dict(as_float))


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


def test_train_returns_full_record():
    cfg = tiny_config()
    rec = train(cfg)
    assert rec.config == cfg
    assert len(rec.epochs) == cfg.epochs
    assert [e.epoch for e in rec.epochs] == [1, 2, 3]
    assert all(np.isfinite(e.loss) for e in rec.epochs)
    assert isinstance(rec.final, EvalReport)
    assert rec.wall_time_s > 0.0


def test_train_is_deterministic():
    cfg = tiny_config(augment=AugmentConfig(mix_fraction=0.5, mix_lambda_dist=2.0))
    a = train(cfg)
    b = train(cfg)
    assert a.record_json_dict() == b.record_json_dict()


def test_seed_changes_the_record():
    a = train(tiny_config(seed=1))
    b = train(tiny_config(seed=2))
    assert a.record_json_dict() != b.record_json_dict()


def test_first_epoch_independent_of_total_epochs():
    # Per-epoch RNG streams are keyed by (seed, epoch), so a longer run
    # reproduces the shorter run's early epochs exactly.
    short = train(tiny_config(epochs=1))
    long = train(tiny_config(epochs=3))
    assert short.epochs[0] == long.epochs[0]


def test_frozen_zero_ism_matches_euclidean():
    # With the uncertainty head pinned at zero and gamma=0 the introspective
    # metric must degenerate to the plain one, trajectory and all.
    common = dict(
        uncertainty_mode="frozen_zero",
        metric_params=MetricParams(gamma=0.0),
        augment=AugmentConfig(mix_fraction=0.5, mix_lambda_dist=2.0),
        epochs=4,
    )
    rec_ism = train(tiny_config(metric="ism", **common))
    rec_euc = train(tiny_config(metric="euclidean", **common))
    for e_i, e_e in zip(rec_ism.epochs, rec_euc.epochs):
        assert e_i.loss == pytest.approx(e_e.loss, abs=1e-10)
        assert e_i.grad_norm == pytest.approx(e_e.grad_norm, abs=1e-10)
        assert e_i.uncert_clean == 0.0 and e_e.uncert_clean == 0.0
    assert rec_ism.final.recall_at_k == rec_euc.final.recall_at_k


def test_train_calls_the_benchmark_probe_sites_in_order(monkeypatch):
    """perfbench times the training loop from two calls, patched at these
    names: `harness.loss_and_grad(model, batch, ...)` once per step, with the
    step's clean plus mixed rows in `batch`, and `Dataset.test_split` once,
    after the last step and before the evaluation."""
    import idml.data
    import idml.harness

    events = []
    loss_and_grad, test_split = idml.harness.loss_and_grad, idml.data.Dataset.test_split
    evaluate = idml.harness.evaluate

    def probe_step(*args, **kwargs):
        assert isinstance(args[1], Batch)
        events.append(("step", len(args[1])))
        return loss_and_grad(*args, **kwargs)

    def probe_split(self):
        events.append(("test_split",))
        return test_split(self)

    def probe_evaluate(*args, **kwargs):
        events.append(("evaluate",))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(idml.harness, "loss_and_grad", probe_step)
    monkeypatch.setattr(idml.data.Dataset, "test_split", probe_split)
    monkeypatch.setattr(idml.harness, "evaluate", probe_evaluate)
    cfg = introspective_run_config("contrastive", epochs=2)  # 250 train rows, batch 32 + 16
    rec = train(cfg)
    steps_per_epoch = 250 // cfg.batch_size
    assert events == [("step", 48)] * (2 * steps_per_epoch) + [("test_split",), ("evaluate",)]
    assert len(rec.epochs) == 2


def test_train_rejects_batch_larger_than_split():
    cfg = tiny_config(batch_size=32)  # train split has only 16 samples
    with pytest.raises(ParameterError, match="fewer than batch_size"):
        train(cfg)


def test_train_writes_run_outputs(tmp_path):
    cfg = tiny_config(augment=AugmentConfig(mix_fraction=0.5, mix_lambda_dist=2.0))
    rec = train(cfg, output_dir=tmp_path)
    for name in (
        "config.json",
        "record.json",
        "timing.json",
        "eval.json",
        "epochs.csv",
        "uncertainty.csv",
        "model.bin",
    ):
        assert (tmp_path / name).exists(), name

    assert config_from_json_dict(json.loads((tmp_path / "config.json").read_text())) == cfg

    record = json.loads((tmp_path / "record.json").read_text())
    assert record == rec.record_json_dict()
    # Wall time lives in timing.json only; the record is a pure function of
    # the config.
    assert "wall_time_s" not in json.dumps(record)
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert timing["wall_time_s"] > 0.0

    eval_json = json.loads((tmp_path / "eval.json").read_text())
    assert eval_json == rec.final.to_json_dict()
    assert list(eval_json) == sorted(f.name for f in dataclasses.fields(EvalReport))

    epoch_lines = (tmp_path / "epochs.csv").read_text().strip().split("\n")
    assert epoch_lines[0] == "epoch,loss,uncert_clean,uncert_mixed,grad_norm"
    assert epoch_lines[0].split(",") == [f.name for f in dataclasses.fields(EpochStats)]
    assert len(epoch_lines) == cfg.epochs + 1
    assert float(epoch_lines[1].split(",")[1]) == rec.epochs[0].loss

    u_lines = (tmp_path / "uncertainty.csv").read_text().strip().split("\n")
    assert u_lines[0] == "id,label,is_mixed,u_norm"
    flags = {line.split(",")[2] for line in u_lines[1:]}
    assert flags == {"0", "1"}  # clean test rows plus mixed eval rows

    # u_norm holds each row's norm as a plain number: the test split's rows,
    # then their mixes on the eval stream
    model = load_checkpoint(tmp_path / "model.bin")
    test = load_dataset_for(cfg).test_split()
    mixed, _ = mix_rows(test, cfg.augment, Rng(cfg.seed, STREAM_EVAL))
    norms = [np.linalg.norm(forward(model, x)[1], axis=1) for x in (test.features, mixed)]
    assert [float(line.split(",")[3]) for line in u_lines[1:]] == np.concatenate(norms).tolist()

    assert model.input_dim == cfg.data.input_dim
    assert model.proxies is None  # contrastive is not a proxy loss


def test_unusable_output_dir_fails_before_training(tmp_path, monkeypatch):
    a_file = tmp_path / "a_file"
    a_file.write_text("")

    def no_training(*args, **kwargs):
        raise RuntimeError("a training step ran")

    monkeypatch.setattr("idml.harness.loss_and_grad", no_training)
    with pytest.raises(FileExistsError):
        train(tiny_config(), output_dir=a_file)


@pytest.mark.parametrize(
    "data, message",
    [
        (SynthConfig(n_classes=4, per_class=2), "recall@8 needs more than 8"),
        (SynthConfig(n_classes=20, per_class=1), "no query has a same-label counterpart"),
    ],
    ids=["fewer_rows_than_recall_k", "single_sample_classes"],
)
def test_unscorable_test_split_fails_before_training(data, message, monkeypatch):
    def no_training(*args, **kwargs):
        raise RuntimeError("a training step ran")

    monkeypatch.setattr("idml.harness.loss_and_grad", no_training)
    with pytest.raises(ParameterError, match=message):
        train(RunConfig(data=data, batch_size=4))


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_a_diverging_step_fails_in_training_for_every_loss(loss, monkeypatch):
    # a triplet_sh miner finds no triplet among NaN distances, so without the
    # table check such a run trained on until its evaluation
    def no_evaluation(*args, **kwargs):
        raise RuntimeError("the test split was evaluated")

    monkeypatch.setattr("idml.harness._evaluate_test_split", no_evaluation)
    cfg = tiny_config(data=SynthConfig(n_classes=8, per_class=8, input_dim=6, seed=1), loss=loss, lr=1e200)
    # the overflow on the way is expected, and its warnings are not shown
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="non-finite ism metric table"):
        train(cfg)


def test_record_json_text_is_reproducible(tmp_path):
    cfg = tiny_config()
    train(cfg, output_dir=tmp_path / "a")
    train(cfg, output_dir=tmp_path / "b")
    assert (tmp_path / "a" / "record.json").read_bytes() == (
        tmp_path / "b" / "record.json"
    ).read_bytes()


def test_a_fit_keeps_one_gradient_live_and_nothing_past_its_end():
    # theta is 1.6 MB; AdamW's two moments hold 2 theta for the whole fit and
    # a step's gradient one more. A second gradient allocated while the last
    # one is still bound adds about 1.3 theta; one live gradient reads about
    # 4.3 (AdamW's two scratch buffer pairs, ADAMW_BLOCK entries per row, are
    # 0.65 of it). Any cache or buffer
    # kept past the fit shows in the growth after it; the step's helper
    # thread, started during the fit, keeps about 0.005.
    cfg = RunConfig(hidden=(256, 256), semantic_dim=256, uncertainty_dim=256, epochs=2)
    train_side = load_dataset_for(cfg).train_split()
    model = init_model(
        train_side.features.shape[1], hidden=cfg.hidden, semantic_dim=cfg.semantic_dim,
        uncertainty_dim=cfg.uncertainty_dim, rng=Rng(cfg.seed),
    )
    theta = model.theta.nbytes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stats = _fit(cfg, model, train_side)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stats) == 2
    assert peak - start < 4.5 * theta, (peak - start) / theta
    assert end - start < 0.01 * theta, (end - start) / theta


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------


def test_load_dataset_dispatches_on_format(tmp_path):
    ds = generate(SynthConfig(n_classes=4, per_class=5, input_dim=6, seed=9))
    bin_path = tmp_path / "d.bin"
    csv_path = tmp_path / "d.csv"
    save_binary(ds, bin_path)
    save_csv(ds, csv_path)
    for path in (bin_path, csv_path):
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert back.classes == ds.classes
        assert np.array_equal(back.Y, ds.Y)
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "missing.bin")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_tau_writes_per_value_runs(tmp_path):
    cfg = tiny_config(epochs=2)
    records = sweep(cfg, "tau", [1.0, 9.0], output_dir=tmp_path)
    assert [r.config.metric_params.tau for r in records] == [1.0, 9.0]
    # tau actually reaches the training loop.
    assert records[0].record_json_dict() != records[1].record_json_dict()
    for v in (1.0, 9.0):
        assert (tmp_path / f"tau={v}" / "record.json").exists()
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == (
        "tau,final_loss,recall@1,recall@2,recall@4,recall@8,nmi,r_precision,map_at_r,"
        "uncert_clean,uncert_mixed,corr_jaccard,corr_mrr,corr_cosine"
    )
    assert lines[1].split(",")[0] == "1.0"


def test_sweep_int_tau_values_keep_the_float_echo_and_the_csv(tmp_path):
    cfg = tiny_config(epochs=1)
    records = sweep(cfg, "tau", [1, 9], output_dir=tmp_path / "int")
    assert [type(r.config.metric_params.tau) for r in records] == [float, float]
    assert '"tau": 1.0' in (tmp_path / "int" / "tau=1" / "config.json").read_text()
    sweep(cfg, "tau", [1.0, 9.0], output_dir=tmp_path / "float")
    int_rows = (tmp_path / "int" / "sweep.csv").read_text().splitlines()
    float_rows = (tmp_path / "float" / "sweep.csv").read_text().splitlines()
    # the value column echoes the values as given; every other byte is the same
    assert [r.split(",", 1)[0] for r in int_rows[1:]] == ["1", "9"]
    assert [r.split(",", 1)[1] for r in int_rows] == [r.split(",", 1)[1] for r in float_rows]


def test_sweep_rejects_bad_requests(tmp_path):
    cfg = tiny_config()
    with pytest.raises(ParameterError, match="sweep param"):
        sweep(cfg, "lr", [1e-2])
    with pytest.raises(ParameterError, match="at least one value"):
        sweep(cfg, "tau", [])
    # values that would train one config twice fail before any run
    for values in ([1.0, 1.0], [1, 1.0], [3.0, 1.0, 3.0]):
        with pytest.raises(ParameterError, match="distinct runs"):
            sweep(cfg, "tau", values, output_dir=tmp_path / "sw")
    assert not (tmp_path / "sw").exists()


def test_sweep_rejects_a_value_whose_run_name_holds_a_path_separator(tmp_path):
    # Fraction(1, 3) would name its run directory "tau=1/3", two levels deep
    with pytest.raises(ParameterError, match="path separator"):
        sweep(tiny_config(), "tau", [2.0, Fraction(1, 3)], output_dir=tmp_path / "sw")
    assert list(tmp_path.iterdir()) == []


RUN_FILES = ("record.json", "model.bin", "eval.json", "uncertainty.csv")


def test_run_grid_serial_and_parallel_write_the_same_bytes(tmp_path, monkeypatch):
    configs = [tiny_config(epochs=2), tiny_config(epochs=2, loss="proxy_anchor")]
    outputs = {}
    for mode in ("serial", "parallel"):
        if mode == "serial":
            monkeypatch.setenv("IDML_THREADS", "1")
        else:
            monkeypatch.delenv("IDML_THREADS", raising=False)
        dirs = [tmp_path / mode / cfg.loss for cfg in configs]
        records = run_grid(configs, dirs)
        assert [rec.config for rec in records] == configs
        outputs[mode] = [{name: (d / name).read_bytes() for name in RUN_FILES} for d in dirs]
    assert outputs["serial"] == outputs["parallel"]


def test_run_grid_child_error_keeps_its_type(tmp_path, monkeypatch):
    monkeypatch.setenv("IDML_THREADS", "2")
    configs = [tiny_config(epochs=1), tiny_config(epochs=1, batch_size=1000)]
    with pytest.raises(ParameterError, match="fewer than batch_size=1000"):
        run_grid(configs)
    with pytest.raises(ParameterError, match="output dirs"):
        run_grid(configs, [tmp_path])


def test_run_grid_refuses_two_runs_in_one_output_dir(tmp_path, monkeypatch):
    # the second run would overwrite the first's files (or, on two workers,
    # write them at the same time); refused before any run or directory
    monkeypatch.setenv("IDML_THREADS", "1")
    d = tmp_path / "run"
    (tmp_path / "link").symlink_to(d, target_is_directory=True)
    configs = [tiny_config(epochs=1), tiny_config(epochs=1, seed=2)]
    for second in (d, tmp_path / "x" / ".." / "run", str(tmp_path / "link")):
        with pytest.raises(ParameterError, match="its own output dir"):
            run_grid(configs, [d, second])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]
    # two runs without output dirs share nothing
    assert len(run_grid(configs, [None, None])) == 2


def test_run_grid_workers_keep_each_step_on_one_thread(monkeypatch):
    # the grid's processes fill the CPUs: each worker starts with an
    # initializer that keeps its steps inline
    import concurrent.futures

    seen = {}

    class InlinePool:
        def __init__(self, n, mp_context=None, initializer=None):
            seen["initializer"] = initializer

        def __enter__(self):
            seen["initializer"]()
            seen["budget"] = worker_count()
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return [None for _ in zip(*iterables)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setenv("IDML_THREADS", "2")
    assert run_grid([tiny_config(), tiny_config(seed=1)]) == [None, None]
    assert seen["budget"] == 1
    assert os.environ["IDML_THREADS"] == "1"


# Only run_grid's process pool needs these two packages; an idml command that
# trains one run should not import them.
_NO_POOL_IMPORTS = """
import sys
import idml.cli
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""


def test_cli_import_does_not_load_the_process_pool():
    src = os.path.dirname(os.path.dirname(idml.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_POOL_IMPORTS], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("IDML_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("IDML_THREADS", " 01 ")
    assert worker_count() == 1
    for bad in ("0", "abc", "-2", "1.5"):
        monkeypatch.setenv("IDML_THREADS", bad)
        with pytest.raises(ParameterError, match="IDML_THREADS"):
            worker_count()
    monkeypatch.delenv("IDML_THREADS")
    assert worker_count() >= 1
    # unset, the budget is the CPUs this process may use, not the host's
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


def test_train_rejects_a_bad_idml_threads_before_any_work(tmp_path, monkeypatch):
    monkeypatch.setenv("IDML_THREADS", "0")
    out = tmp_path / "run"
    with pytest.raises(ParameterError, match="IDML_THREADS must be a positive integer, got '0'"):
        train(tiny_config(), out)
    assert not out.exists()


# ---------------------------------------------------------------------------
# Gradcheck and diagnose
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(),
        RunConfig(loss="proxy_anchor"),
        RunConfig(loss="multi_similarity", metric="ism_dis"),
    ],
    ids=["contrastive-ism", "proxy_anchor-ism", "multi_similarity-ism_dis"],
)
def test_gradcheck_passes(cfg):
    out = gradcheck(cfg)
    assert isinstance(out, GradcheckOutcome)
    assert out.passed
    assert out.fd_report.passed and out.h_report.passed
    assert out.h_report.h_at_zero == 1.0
    text = out.summary()
    assert "finite differences" in text and "gradient attenuation" in text


def test_diagnose_reproduces_training_eval(tmp_path):
    cfg = tiny_config(augment=AugmentConfig(mix_fraction=0.5, mix_lambda_dist=2.0))
    run_dir = tmp_path / "run"
    rec = train(cfg, output_dir=run_dir)

    ds_path = tmp_path / "data.bin"
    save_binary(generate(cfg.data), ds_path)
    report, rows = diagnose(run_dir / "model.bin", ds_path, cfg, output_dir=tmp_path / "diag")
    assert report.to_json_dict() == rec.final.to_json_dict()
    # Same uncertainty table as the training run wrote.
    trained = (run_dir / "uncertainty.csv").read_text().strip().split("\n")[1:]
    assert rows == trained
    assert json.loads((tmp_path / "diag" / "eval.json").read_text()) == report.to_json_dict()


def test_diagnose_rejects_dimension_mismatch(tmp_path):
    cfg = tiny_config()
    run_dir = tmp_path / "run"
    train(cfg, output_dir=run_dir)
    other = generate(SynthConfig(n_classes=4, per_class=5, input_dim=9, seed=0))
    ds_path = tmp_path / "other.bin"
    save_binary(other, ds_path)
    with pytest.raises(ShapeError, match="input dim"):
        diagnose(run_dir / "model.bin", ds_path)


def test_record_digests_counts_differing_keys_per_section():
    path = Path(__file__).resolve().parent / "record_digests.py"
    spec = importlib.util.spec_from_file_location("record_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    before = json.dumps(
        {"plan_sha256": {"a": "1", "b": "2"}, "io_sha256": {"csv": "3"}, "gone": {"x": 1}, "sweep_csv_sha256": "5"}
    )
    after = json.dumps({"plan_sha256": {"a": "1", "b": "9", "c": "4"}, "io_sha256": {"csv": "3"}, "sweep_csv_sha256": "6"})
    assert script.section_diff_counts(before, after) == [
        "gone: 1 of 1 keys differ",
        "io_sha256: 0 of 1 keys differ",
        "plan_sha256: 2 of 3 keys differ",
        "sweep_csv_sha256: 1 of 1 keys differ",
    ]
    # a nested value counts its key once, however many of its fields moved
    nested = json.dumps({"compute_loss": {"l/m": {"value": 1.0, "kink_margin": 2.0}}})
    moved = json.dumps({"compute_loss": {"l/m": {"value": 1.5, "kink_margin": 2.5}}})
    assert script.section_diff_counts(nested, moved) == ["compute_loss: 1 of 1 keys differ"]
    assert script.section_diff_counts(nested, nested) == ["compute_loss: 0 of 1 keys differ"]


# ---------------------------------------------------------------------------
# End-to-end sanity on easy data
# ---------------------------------------------------------------------------


def test_clean_data_baseline_recall():
    # Well-separated classes, no ambiguity, no label noise: the plain
    # baseline should retrieve almost perfectly. Slowest test in this file
    # (five full training runs).
    recalls = []
    for seed in range(5):
        cfg = baseline_run_config(
            "contrastive",
            seed=seed,
            data=SynthConfig(class_sep=8.0, within_sigma=0.5, seed=seed),
        )
        recalls.append(train(cfg).final.recall_at_k[1])
    assert min(recalls) > 0.95, recalls
