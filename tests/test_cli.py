"""End-to-end tests of the command-line interface.

Most tests drive `python -m idml.cli` in a subprocess so exit codes and
stdout/stderr are exactly what a shell user sees; one test checks the
installed `idml` console script produces identical output.
"""

import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from idml.cli import EXIT_CONFIG, EXIT_GRADCHECK, EXIT_NUMERICAL, EXIT_OK, _load_config, build_parser, main
from idml.core import ParameterError, Rng, label_ids
from idml.data import SynthConfig, generate, load_csv, save_csv
from idml.harness import RunConfig, config_to_json_dict, introspective_run_config
from idml.losses import LossParams
from idml.model import init_model, save_checkpoint


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "idml.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def write_config(path, **overrides):
    base = dict(
        data=SynthConfig(n_classes=4, per_class=8, input_dim=6, seed=1),
        loss="contrastive",
        hidden=(8,),
        semantic_dim=8,
        uncertainty_dim=8,
        batch_size=8,
        epochs=2,
        seed=1,
    )
    base.update(overrides)
    cfg = RunConfig(**base)
    path.write_text(json.dumps(config_to_json_dict(cfg)))
    return cfg


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == EXIT_CONFIG
    assert "usage" in proc.stderr.lower()


def test_synth_writes_dataset_csv(tmp_path):
    proc = run_cli("synth", "--seed", "3", "--output", str(tmp_path))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "500 samples, 250 train / 250 test" in proc.stdout
    ds = load_csv(tmp_path / "dataset.csv")
    ref = generate(SynthConfig(seed=3))
    assert np.array_equal(ds.features, ref.features)
    assert ds.classes == ref.classes
    assert np.array_equal(ds.Y, ref.Y)


def test_console_script_matches_module(tmp_path):
    assert shutil.which("idml"), "console script not installed"
    proc = subprocess.run(
        ["idml", "synth", "--seed", "3", "--output", str(tmp_path / "a")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    run_cli("synth", "--seed", "3", "--output", str(tmp_path / "b"))
    assert (tmp_path / "a" / "dataset.csv").read_bytes() == (
        tmp_path / "b" / "dataset.csv"
    ).read_bytes()


def test_train_eval_diagnose_pipeline(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    run_dir = tmp_path / "run"

    proc = run_cli("train", "--config", str(cfg_path), "--output", str(run_dir))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "R@1" in proc.stdout and "NMI" in proc.stdout
    assert (run_dir / "model.bin").exists()
    assert (run_dir / "record.json").exists()

    # Evaluate the checkpoint on the dataset the run was trained on.
    ds_path = tmp_path / "data.csv"
    from idml.data import save_csv

    save_csv(generate(SynthConfig(n_classes=4, per_class=8, input_dim=6, seed=1)), ds_path)
    proc = run_cli(
        "eval", "--checkpoint", str(run_dir / "model.bin"), "--data", str(ds_path)
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report) >= {"recall_at_k", "nmi", "r_precision", "map_at_r", "corr"}

    diag_dir = tmp_path / "diag"
    proc = run_cli(
        "diagnose",
        "--checkpoint", str(run_dir / "model.bin"),
        "--data", str(ds_path),
        "--output", str(diag_dir),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout) == report
    assert "uncertainty rows" in proc.stderr
    assert (diag_dir / "uncertainty.csv").exists()
    assert (diag_dir / "eval.json").exists()


def test_eval_reproduces_training_outputs(tmp_path):
    # eval takes the mixing settings of --config, so on the run's own config
    # and data it rewrites the run's eval.json and uncertainty.csv exactly,
    # and prints eval.json's bytes
    cfg = introspective_run_config("contrastive", seed=3, epochs=2)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_json_dict(cfg)))
    run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
    proc = run_cli("train", "--config", str(cfg_path), "--output", str(run_dir))
    assert proc.returncode == EXIT_OK, proc.stderr

    from idml.data import save_csv

    ds_path = tmp_path / "data.csv"
    save_csv(generate(cfg.data), ds_path)
    proc = run_cli(
        "eval", "--config", str(run_dir / "config.json"),
        "--checkpoint", str(run_dir / "model.bin"),
        "--data", str(ds_path),
        "--output", str(eval_dir),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == (run_dir / "eval.json").read_text()
    for name in ("eval.json", "uncertainty.csv"):
        assert (eval_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_train_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    for d in ("r1", "r2"):
        proc = run_cli("train", "--config", str(cfg_path), "--output", str(tmp_path / d))
        assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "r1" / "record.json").read_bytes() == (
        tmp_path / "r2" / "record.json"
    ).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    for d, seed in (("r7", "7"), ("r8", "8")):
        proc = run_cli(
            "train", "--config", str(cfg_path), "--seed", seed,
            "--output", str(tmp_path / d),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
    echoed = json.loads((tmp_path / "r7" / "config.json").read_text())
    assert echoed["seed"] == 7
    assert echoed["data"]["seed"] == 7  # the data stream follows the override
    assert (tmp_path / "r7" / "record.json").read_bytes() != (
        tmp_path / "r8" / "record.json"
    ).read_bytes()


@pytest.mark.parametrize(
    "content, named",
    [
        ('{"loss": "contrastive", "bogus_key": 1}', "bogus_key"),
        ('{"loss": "no_such_loss"}', "no_such_loss"),
        ("{not json", "config.json"),
        ('{"hidden": 64}', "hidden"),
        ('{"hidden": [8, true]}', "hidden"),
        ('{"batch_size": "32"}', "batch_size"),
        ('{"epochs": 1.5}', "epochs"),
        ('{"seed": true}', "seed"),
        ('{"lr": "0.01"}', "lr"),
        ('{"dataset_path": 3}', "dataset_path"),
        ('{"data": null}', "data"),
        ('{"metric_params": []}', "metric_params"),
        ('{"augment": 3}', "augment"),
        ('{"loss_params": "defaults"}', "loss_params"),
        ("[1, 2]", "JSON object"),
        ('{"data": {"per_class": true}}', "bad data section: per_class"),
        ('{"data": {"seed": 1.5}}', "bad data section: seed"),
        ('{"augment": {"lowres_factor": 2.5}}', "bad augment section: lowres_factor"),
        ('{"metric_params": {"tau": "5"}}', "bad metric_params section: tau"),
        ('{"loss_params": {"phi": "10"}}', "bad loss_params section: phi"),
        ('{"data": {"bogus": 1}}', "bad data section: unknown config key 'bogus'"),
    ],
    ids=[
        "unknown-key", "bad-loss", "malformed", "hidden-int", "hidden-bool", "batch-size-str",
        "epochs-float", "seed-bool", "lr-str", "path-int", "data-null", "metric-params-list",
        "augment-int", "loss-params-str", "top-list", "data-per-class-bool", "data-seed-float",
        "augment-lowres-float", "metric-params-tau-str", "loss-params-phi-str", "data-unknown-key",
    ],
)
def test_bad_config_file_exits_config(tmp_path, content, named):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(content)
    proc = run_cli("train", "--config", str(cfg_path))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("error: ") and named in proc.stderr


def test_missing_paths_exit_config(tmp_path):
    proc = run_cli("train", "--config", str(tmp_path / "nope.json"))
    assert proc.returncode == EXIT_CONFIG
    proc = run_cli(
        "eval", "--checkpoint", str(tmp_path / "no.bin"), "--data", str(tmp_path / "no.csv")
    )
    assert proc.returncode == EXIT_CONFIG


def test_unusable_paths_exit_config(tmp_path):
    # a directory where a file is read, and a file where the output directory goes
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, dataset_path=str(a_dir))
    proc = run_cli("train", "--config", str(cfg_path))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "a_dir" in proc.stderr and "Traceback" not in proc.stderr

    write_config(cfg_path)
    proc = run_cli("train", "--config", str(cfg_path), "--output", str(a_file))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "a_file" in proc.stderr and "Traceback" not in proc.stderr

    checkpoint = tmp_path / "model.bin"
    save_checkpoint(checkpoint, init_model(6, hidden=(8,), semantic_dim=4, uncertainty_dim=4, rng=Rng(0)))
    ds_path = tmp_path / "data.csv"
    from idml.data import save_csv

    save_csv(generate(SynthConfig(n_classes=4, per_class=8, input_dim=6, seed=1)), ds_path)
    for model_path, data_path in ((checkpoint, a_dir), (a_dir, ds_path)):
        proc = run_cli("eval", "--checkpoint", str(model_path), "--data", str(data_path))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "a_dir" in proc.stderr and "Traceback" not in proc.stderr


def test_truncated_binary_files_exit_config(tmp_path):
    good = tmp_path / "model.bin"
    save_checkpoint(good, init_model(6, hidden=(8,), semantic_dim=4, uncertainty_dim=4, rng=Rng(0)))
    short_model = tmp_path / "short_model.bin"
    short_model.write_bytes(good.read_bytes()[:6])
    short_data = tmp_path / "short_data.bin"
    short_data.write_bytes(b"IDMD\x01\x00")
    for checkpoint in (good, short_model):
        proc = run_cli("eval", "--checkpoint", str(checkpoint), "--data", str(short_data))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "truncated" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_corrupt_checkpoint_dims_exit_config(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, init_model(6, hidden=(8,), semantic_dim=4, uncertainty_dim=4, rng=Rng(0)))
    raw = bytearray(path.read_bytes())
    raw[12:20] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)  # input and hidden dims
    path.write_bytes(bytes(raw))
    proc = run_cli("eval", "--checkpoint", str(path), "--data", str(tmp_path / "unread.csv"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "parameter bytes" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_count_label_set_in_binary_dataset_exits_config(tmp_path):
    ds = generate(SynthConfig(n_classes=4, per_class=8, input_dim=6, seed=1))
    ds_path = tmp_path / "empty_label.bin"
    with open(ds_path, "wb") as f:
        f.write(b"IDMD" + struct.pack("<III", 1, *ds.features.shape))
        for i, ids in enumerate(label_ids(ds.Y, ds.classes)):
            ids = ids if i else []  # the first row names no class
            f.write(struct.pack(f"<I{len(ids)}I", len(ids), *ids))
        f.write(ds.features.astype("<f8").tobytes())
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, dataset_path=str(ds_path))
    proc = run_cli("train", "--config", str(cfg_path))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "label set must be nonempty" in proc.stderr


def test_class_id_past_u32_in_csv_dataset_exits_config_before_training(tmp_path):
    # a proxy loss stores its class ids in the checkpoint as u32: such an id
    # is rejected when the dataset loads, not after training
    ds = generate(SynthConfig(n_classes=4, per_class=8, input_dim=6, seed=1))
    ds_path = tmp_path / "big_id.csv"
    save_csv(ds, ds_path)
    head, *rows = ds_path.read_text().splitlines()
    cells = [row.split(",", 2) for row in rows]  # class c becomes class c + 2**32
    rows = [f"{i},{'|'.join(str(int(c) + 2**32) for c in label.split('|'))},{x}" for i, label, x in cells]
    ds_path.write_text("\n".join([head, *rows]) + "\n")
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, dataset_path=str(ds_path), loss="proxy_anchor", epochs=1)
    run_dir = tmp_path / "run"
    proc = run_cli("train", "--config", str(cfg_path), "--output", str(run_dir))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "below 2**32" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (run_dir / "model.bin").exists()


@pytest.mark.parametrize("momentum", ["-5", "NaN", "1.0", "3"])
def test_momentum_outside_unit_interval_exits_config(tmp_path, momentum):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, optimizer="sgd")
    # Python's json reads NaN, so the bound is what rejects it
    text = cfg_path.read_text().replace('"momentum": 0.9', f'"momentum": {momentum}')
    assert f'"momentum": {momentum}' in text
    cfg_path.write_text(text)
    run_dir = tmp_path / "run"
    proc = run_cli("train", "--config", str(cfg_path), "--output", str(run_dir))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "momentum must be in [0, 1)" in proc.stderr and "Traceback" not in proc.stderr
    assert not run_dir.exists()


def test_bad_flag_value_exits_config():
    proc = run_cli("train", "--loss", "wat")
    assert proc.returncode == EXIT_CONFIG
    assert "unknown loss" in proc.stderr


def test_dataset_with_no_rows_exits_config(tmp_path):
    ds_path = tmp_path / "empty.bin"
    ds_path.write_bytes(b"IDMD" + struct.pack("<III", 1, 0, 6))
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, dataset_path=str(ds_path))
    proc = run_cli("train", "--config", str(cfg_path))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "no data rows" in proc.stderr and "Traceback" not in proc.stderr


def test_unscorable_test_split_exits_config(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, data=SynthConfig(n_classes=20, per_class=1, input_dim=6), batch_size=4)
    proc = run_cli("train", "--config", str(cfg_path), "--output", str(tmp_path / "run"))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "no class has two rows in the split" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_loss_flag_trains_the_config_the_file_would(tmp_path):
    # --loss is set in the config object before defaults resolve, so
    # triplet_sh gets its own margin (0.2), not contrastive's resolved one.
    base = config_to_json_dict(write_config(tmp_path / "base.json", epochs=1))
    del base["loss_params"]
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "triplet.json").write_text(json.dumps({**base, "loss": "triplet_sh"}))
    flag, file = tmp_path / "flag", tmp_path / "file"
    assert main(["train", "--config", str(tmp_path / "base.json"), "--loss", "triplet_sh",
                 "--output", str(flag)]) == EXIT_OK
    assert main(["train", "--config", str(tmp_path / "triplet.json"), "--output", str(file)]) == EXIT_OK
    echo = (flag / "config.json").read_bytes()
    assert echo == (file / "config.json").read_bytes()
    assert json.loads(echo)["loss_params"]["margin_delta"] == 0.2


def test_explicit_loss_params_survive_the_loss_flag(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, epochs=1, loss_params=LossParams(margin_delta=0.7))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--loss", "triplet_sh", "--output", str(out)]) == EXIT_OK
    echo = json.loads((out / "config.json").read_text())
    assert (echo["loss"], echo["loss_params"]["margin_delta"]) == ("triplet_sh", 0.7)


def test_flags_set_their_field_paths(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    args = build_parser().parse_args(
        ["train", "--config", str(cfg_path), "--tau", "2", "--gamma", "0.5", "--seed", "9",
         "--metric", "ism_dis", "--test-metric", "ism"]
    )
    cfg = _load_config(args)
    assert (cfg.metric_params.tau, cfg.metric_params.gamma) == (2.0, 0.5)
    assert (cfg.seed, cfg.data.seed, cfg.metric, cfg.test_metric) == (9, 9, "ism_dis", "ism")
    assert cfg.data.n_classes == 4  # the file's other data fields stay
    for bad in (["--tau", "0"], ["--seed", "-1"], ["--metric", "wat"]):
        args = build_parser().parse_args(["train", "--config", str(cfg_path), *bad])
        with pytest.raises(ParameterError, match=bad[0].strip("-")):
            _load_config(args)


def test_non_finite_dataset_exits_numerical(tmp_path):
    # A dataset file with a nan feature loads fine but must stop the run
    # with the numerical-failure exit code, not a crash.
    from idml.data import save_csv

    ds = generate(SynthConfig(n_classes=4, per_class=8, input_dim=6, seed=1))
    ds_path = tmp_path / "bad.csv"
    save_csv(ds, ds_path)
    lines = ds_path.read_text().split("\n")
    first = lines[1].split(",")
    first[2] = "nan"
    lines[1] = ",".join(first)
    ds_path.write_text("\n".join(lines))

    cfg_path = tmp_path / "config.json"
    write_config(cfg_path, dataset_path=str(ds_path))
    proc = run_cli("train", "--config", str(cfg_path))
    assert proc.returncode == EXIT_NUMERICAL
    assert "numerical failure" in proc.stderr


def test_non_finite_test_split_exits_numerical_on_eval(tmp_path):
    # train on clean data, then evaluate on a copy whose test split holds a nan
    from idml.data import save_csv

    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    run_dir = tmp_path / "run"
    proc = run_cli("train", "--config", str(cfg_path), "--output", str(run_dir))
    assert proc.returncode == EXIT_OK, proc.stderr

    ds = generate(SynthConfig(n_classes=4, per_class=8, input_dim=6, seed=1))
    ds.features[np.flatnonzero(~ds.is_train)[0], 2] = np.nan
    ds_path = tmp_path / "bad.csv"
    save_csv(ds, ds_path)
    proc = run_cli(
        "eval", "--config", str(cfg_path),
        "--checkpoint", str(run_dir / "model.bin"),
        "--data", str(ds_path),
    )
    assert proc.returncode == EXIT_NUMERICAL
    assert "numerical failure" in proc.stderr


def test_gradcheck_ok_and_failure_mapping(tmp_path, monkeypatch, capsys):
    proc = run_cli("gradcheck", "--loss", "contrastive", "--seed", "0")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "finite differences" in proc.stdout
    assert "gradient attenuation" in proc.stdout

    # The failing branch maps to its own exit code; fake the outcome since a
    # correct implementation never fails its own check.
    from idml import harness

    class Failing:
        passed = False

        def summary(self):
            return "forced failure"

    monkeypatch.setattr(harness, "gradcheck", lambda cfg: Failing())
    assert main(["gradcheck"]) == EXIT_GRADCHECK
    assert "forced failure" in capsys.readouterr().out


def test_sweep_cli(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    proc = run_cli(
        "sweep", "--config", str(cfg_path),
        "--param", "tau", "--values", "1,5",
        "--output", str(tmp_path / "sw"),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "tau=1:" in proc.stdout and "tau=5:" in proc.stdout
    assert (tmp_path / "sw" / "sweep.csv").exists()

    proc = run_cli("sweep", "--config", str(cfg_path), "--param", "tau", "--values", "1,x")
    assert proc.returncode == EXIT_CONFIG
    proc = run_cli("sweep", "--config", str(cfg_path), "--param", "lr", "--values", "1")
    assert proc.returncode == EXIT_CONFIG


def test_sweep_cli_child_error_exits_config(tmp_path):
    # Two points and two workers, so the run whose batch_size exceeds the
    # train split fails in a pool process.
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    proc = run_cli(
        "sweep", "--config", str(cfg_path), "--param", "batch_size", "--values", "8,1000",
        env={**os.environ, "IDML_THREADS": "2"},
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "fewer than batch_size=1000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_cli_fractional_int_value_exits_config(tmp_path):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    out = tmp_path / "sw"
    proc = run_cli(
        "sweep", "--config", str(cfg_path), "--param", "batch_size", "--values", "32.5,64",
        "--output", str(out),
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "batch_size must be an int, got 32.5" in proc.stderr
    assert not out.exists()  # nothing trained


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_sweep_cli_bad_idml_threads_exits_config(tmp_path, threads):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    proc = run_cli(
        "sweep", "--config", str(cfg_path), "--param", "tau", "--values", "1,3",
        env={**os.environ, "IDML_THREADS": threads},
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert f"IDML_THREADS must be a positive integer, got '{threads}'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_cli_seed_past_u64_exits_config_before_training(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("train", "--seed", str(2**64), "--output", str(out))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert f"seed must be in [0, 2**64), got {2**64}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_train_cli_bad_idml_threads_exits_config_before_training(tmp_path, threads):
    cfg_path = tmp_path / "config.json"
    write_config(cfg_path)
    out = tmp_path / "run"
    proc = run_cli(
        "train", "--config", str(cfg_path), "--output", str(out),
        env={**os.environ, "IDML_THREADS": threads},
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert f"IDML_THREADS must be a positive integer, got '{threads}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()  # nothing trained


def test_blas_thread_cap(tmp_path):
    # Importing the CLI caps BLAS threads at 1 unless an explicit
    # *_NUM_THREADS variable says otherwise; IDML_THREADS, the thread budget,
    # leaves the cap alone. BLAS reads these variables once, when numpy loads
    # it, so the probe records them at the moment numpy is first imported
    # rather than after the import finishes.
    probe = (
        "import os, sys\n"
        "class NumpyImportProbe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            sys.meta_path.remove(self)\n"
        "            print(*(os.environ.get(v, '-') for v in\n"
        "                    ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))\n"
        "        return None\n"
        "sys.meta_path.insert(0, NumpyImportProbe())\n"
        "import idml.cli\n"
    )

    def run_probe(extra):
        env = {k: v for k, v in os.environ.items() if "NUM_THREADS" not in k and k != "IDML_THREADS"}
        env.update(extra)
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.split()

    assert run_probe({}) == ["1", "1", "1"]
    assert run_probe({"IDML_THREADS": "4"}) == ["1", "1", "1"]
    assert run_probe({"IDML_THREADS": "abc"}) == ["1", "1", "1"]
    assert run_probe({"IDML_THREADS": "0"}) == ["1", "1", "1"]
    assert run_probe({"OMP_NUM_THREADS": "2"}) == ["2", "1", "1"]
