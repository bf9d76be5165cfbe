"""Print the digests a pure refactor must leave unchanged, as JSON on stdout.

    PYTHONPATH=src python tests/record_digests.py > after.json

Run it on the parent commit and on the change (each from its own checkout,
with that checkout's src/ on PYTHONPATH) and diff the two outputs; a pure
refactor prints identical text. It covers:

- record_sha256: the sha256 of record.json for every loss under
  baseline_run_config and introspective_run_config at seeds 5 and 6;
- model_bin_sha256: the sha256 of model.bin from the same runs;
- uncertainty_csv_sha256: the sha256 of uncertainty.csv from the same runs,
  whose label column turns the test split's and the mixed rows' label rows
  back into class ids;
- eval_json_sha256 and epochs_csv_sha256: the sha256 of eval.json and of
  epochs.csv from the same runs;
- the same digests (keys `extra/...`) for five short runs on the paths
  those runs never take: the frozen uncertainty head
  (`uncertainty_mode="frozen_zero"`) and the momentum optimizer
  (`optimizer="sgd"`);
- sweep_csv_sha256: the sha256 of the sweep.csv of a two-point tau sweep
  of one short run;
- gradcheck: the summary of `harness.gradcheck(RunConfig(loss=L))` for
  every loss, which is what `idml gradcheck --loss L` prints;
- io_sha256: the sha256 of a CSV and of a binary dataset file written from
  a dataset with two-label rows (`write`), and of the same format written
  again after reading the first file back (`rewrite`);
- compute_loss: value, pair terms, all four gradients and kink margin for
  every loss x metric on one fixed batch that includes a mixed (two-label)
  row. Floats print in shortest round-trip form, so equal text means equal
  bits;
- augment_sha256: the sha256 of augment_batch's features, labels, mixed
  flags and next draw on one fixed batch under each channel (mixing, blur,
  occlusion, low resolution with and without padding, all at once);
- evaluate_sha256: the sha256 of `EvalReport.to_json_dict()` under every
  test metric on three fixed inputs. Two are on an integer grid, so that
  duplicate rows and distance ties at the ranking depth are common: 600
  rows with one single-sample class, and (keys `two_label/<metric>`) 300
  rows of which every third carries two classes, which exercises
  multi-label matching in the ranking metrics and the smallest-class rule
  of the NMI ids. The third (keys `gaussian/<metric>`) is 1,000 x 32
  Gaussian rows of 20 classes, whose products are not exact, so a distance
  panel that rounds unlike the whole product would move it. At
  `metric.PANEL_ROWS` = 256 and `core.TABLE_BLOCK` = 65,536 entries the
  inputs span 3 panels ranked in blocks of at most 109 rows, 2 panels in
  blocks of at most 218 rows, and 4 panels in blocks of at most 65 rows,
  so the blocked Gram epilogue, ranking and MRR count cross block and
  panel boundaries;
- plan_sha256: the sha256 of every `Plan` field (name, dtype, shape and
  bytes of each array, the repr of anything else) that `build_plan`
  returns for every loss x metric on one fixed 16-row batch on an integer
  grid, so that distance ties decide mined triplets and the `pos`/`neg`
  pair tables, with four two-label (mixed) rows. It also
  hashes the next draw of the plan's rng, which checks that margin_dw's
  sampling consumed exactly the draws it did before. Keys `paper/...` hash
  margin_dw's plan under every metric at paper shape: 120 clean rows over
  30 classes plus 60 two-label rows, 512-d, so rows have more than 128
  negatives and many distinct negative counts.
- kmeans_sha256: the sha256 of `evaluation.kmeans`' assignment (dtype,
  shape and bytes) and of the Rng's next draw after it, on one fixed input
  of clustered Gaussian rows at each of four shapes: the three workloads'
  evaluation shapes of perfbench (240 x 512 with k = 10, 1,000 x 32 with
  k = 20, 250 x 32 with k = 5) and paper shape (3,000 x 512 with k = 50).
  One more input, 300 rows of 12 distinct rows with k = 20, pins the seeds
  drawn as uniform integers once every distinct row is a center.

With `--values` it prints, instead of all of the above, the two sections
whose digests a float-changing change most often moves, value by value:
the `EvalReport` dict behind each `evaluate_sha256` digest and each
`compute_loss` entry, every one next to the sha256 of its JSON text (for
`evaluate` that is the digest itself), so two trees can be diffed field by
field:

    PYTHONPATH=src python tests/record_digests.py --values > values.json

With `--against REV` it does the diff itself, in one command:

    PYTHONPATH=src python tests/record_digests.py --against HEAD~1

It checks REV out as a detached `git worktree` under a temporary
directory, runs that checkout's own copy of this script with that
checkout's src/ first on PYTHONPATH, then runs this checkout's script with
this checkout's src/, and prints a unified diff of the two JSON texts.
After the diff it writes to stderr one line per top-level section saying
how many of its keys differ (`plan_sha256: 40 of 40 keys differ`). It
exits 0 when the texts are identical and 1 when they differ, and removes
the worktree either way.

Batches, plans and reports take multi-hot label rows; the fixed inputs
hold label sets and convert them once with `core.multi_hot`.

It imports `idml` before numpy, so that the package's cap of one BLAS
thread per calling thread applies and it prints one-thread bits on every
host. An explicit `OMP_NUM_THREADS`, `OPENBLAS_NUM_THREADS` or
`MKL_NUM_THREADS` wins over the cap and can change them (the `two_label/*`
evaluate digests move with OpenBLAS's thread count).

The name keeps pytest from collecting it. It trains its 33 small runs
through one `harness.run_grid` call, then the two sweep runs, and takes
about 14 s on two cores, or about 21 s with IDML_THREADS=1.
"""

from __future__ import annotations

import idml  # noqa: F401  (before numpy: the one-thread BLAS cap applies only then)

import dataclasses
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from idml import harness
from idml.augment import AugmentConfig, augment_batch
from idml.core import STREAM_AUGMENT, STREAM_LOSS, Batch, Rng, label_ids, multi_hot
from idml.data import Dataset, load_binary, load_csv, save_binary, save_csv
from idml.evaluation import evaluate, kmeans
from idml.losses import LOSS_NAMES, PROXY_LOSSES, ProxySet, build_plan, compute_loss, loss_tables
from idml.metric import METRIC_NAMES

SEEDS = (5, 6)
CONFIGS = {
    "baseline_run_config": harness.baseline_run_config,
    "introspective_run_config": harness.introspective_run_config,
}
# (loss, RunConfig overrides) of the short extra runs, all on
# introspective_run_config at seed 5.
EXTRA_RUNS = {
    "frozen_zero/contrastive": ("contrastive", dict(uncertainty_mode="frozen_zero")),
    "frozen_zero/proxy_anchor": ("proxy_anchor", dict(uncertainty_mode="frozen_zero")),
    "sgd/proxy_nca": ("proxy_nca", dict(optimizer="sgd")),
    "sgd/margin_dw": ("margin_dw", dict(optimizer="sgd")),
    "sgd/frozen_zero/multi_similarity": (
        "multi_similarity",
        dict(optimizer="sgd", uncertainty_mode="frozen_zero"),
    ),
}
EXTRA_EPOCHS = 5
RUN_FILES = ("record.json", "model.bin", "uncertainty.csv", "eval.json", "epochs.csv")
SWEEP_TAUS = (1.0, 9.0)
# (rows, columns, clusters) of the fixed k-means inputs
KMEANS_SHAPES = ((240, 512, 10), (1000, 32, 20), (250, 32, 5), (3000, 512, 50))


AUGMENT_CHANNELS = {
    "mix": AugmentConfig(mix_fraction=0.5, mix_lambda_dist=2.0),
    "blur": AugmentConfig(mix_fraction=0.0, blur_prob=0.5, noise_sigma=0.3),
    "occlusion": AugmentConfig(mix_fraction=0.0, occl_prob=0.5, occl_fraction=0.25),
    "lowres_divides": AugmentConfig(mix_fraction=0.0, lowres_factor=4),
    "lowres_pads": AugmentConfig(mix_fraction=0.0, lowres_factor=5),
    "all": AugmentConfig(
        mix_lambda_dist=0.5,
        mix_fraction=0.5,
        blur_prob=0.5,
        occl_prob=0.5,
        occl_fraction=0.25,
        lowres_factor=3,
        noise_sigma=0.2,
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record_digests() -> dict:
    """{file name: {run key: sha256}} for every file of RUN_FILES."""
    keys, configs = [], []
    for name, make in CONFIGS.items():
        for loss in LOSS_NAMES:
            for seed in SEEDS:
                keys.append(f"{name}/{loss}/seed={seed}")
                configs.append(make(loss, seed=seed))
    for name, (loss, overrides) in EXTRA_RUNS.items():
        keys.append(f"extra/{name}")
        configs.append(
            harness.introspective_run_config(loss, seed=5, epochs=EXTRA_EPOCHS, **overrides)
        )
    with tempfile.TemporaryDirectory() as tmp:
        run_dirs = [Path(tmp) / key.replace("/", "-") for key in keys]
        harness.run_grid(configs, run_dirs)
        return {
            name: {key: _sha256(run_dir / name) for key, run_dir in zip(keys, run_dirs)}
            for name in RUN_FILES
        }


def sweep_digest() -> str:
    cfg = harness.introspective_run_config("contrastive", seed=5, epochs=EXTRA_EPOCHS)
    with tempfile.TemporaryDirectory() as tmp:
        harness.sweep(cfg, "tau", SWEEP_TAUS, output_dir=tmp)
        return _sha256(Path(tmp) / "sweep.csv")


def gradcheck_summaries() -> dict:
    return {loss: harness.gradcheck(harness.RunConfig(loss=loss)).summary() for loss in LOSS_NAMES}


def fixed_batch():
    r = np.random.default_rng(20)
    S = r.normal(size=(7, 4))
    U = 0.3 * r.normal(size=(7, 3))
    Y, classes = multi_hot(({0}, {0}, {1}, {1}, {2}, {2}, {0, 1}))
    proxies = ProxySet(
        semantic=r.normal(size=(3, 4)),
        uncertainty=0.3 * r.normal(size=(3, 3)),
        classes=(0, 1, 2),
    )
    return S, U, Y, classes, proxies


def _floats(a):
    return None if a is None else np.asarray(a, dtype=np.float64).tolist()


def loss_outputs() -> dict:
    S, U, Y, classes, proxies = fixed_batch()
    out = {}
    for loss in LOSS_NAMES:
        for metric in METRIC_NAMES:
            res = compute_loss(
                loss,
                S,
                U,
                Y,
                classes,
                metric=metric,
                proxies=proxies if loss in PROXY_LOSSES else None,
                rng=Rng(31),
            )
            out[f"{loss}/{metric}"] = {
                "value": res.value,
                "pair_terms": _floats(res.pair_terms),
                "d_semantic": _floats(res.d_semantic),
                "d_uncertainty": _floats(res.d_uncertainty),
                "d_proxy_semantic": _floats(res.d_proxy_semantic),
                "d_proxy_uncertainty": _floats(res.d_proxy_uncertainty),
                "kink_margin": res.kink_margin,
            }
    return out


def augment_digests() -> dict:
    r = np.random.default_rng(21)
    Y, classes = multi_hot([{0}, {0}, {1}, {1}, {2}, {2}, {3}, {0, 1}, {3}])
    batch = Batch(
        features=r.normal(size=(9, 18)), Y=Y, classes=classes, is_mixed=[False] * 7 + [True, False]
    )
    out = {}
    for name, cfg in AUGMENT_CHANNELS.items():
        rng = Rng(41, STREAM_AUGMENT)
        res = augment_batch(batch, cfg, rng)
        h = hashlib.sha256(res.features.tobytes())
        h.update(repr(label_ids(res.Y, res.classes)).encode())
        h.update(res.is_mixed.tobytes())
        h.update(repr(rng.random()).encode())
        out[name] = h.hexdigest()
    return out


def evaluate_reports() -> dict:
    """{key: EvalReport.to_json_dict()} on the three fixed inputs."""
    r = np.random.default_rng(23)
    S = r.integers(-2, 3, size=(600, 4)).astype(np.float64)
    U = 0.5 * r.integers(-2, 3, size=(600, 3))
    ids = r.integers(0, 12, size=600)
    ids[-1] = 12  # a single-sample class: its query is skipped by R-precision
    out = _evaluate_reports(S, U, [{int(i)} for i in ids], "")
    # every third row carries a second, different class, listed first
    r = np.random.default_rng(25)
    S = r.integers(-2, 3, size=(300, 4)).astype(np.float64)
    U = 0.5 * r.integers(-2, 3, size=(300, 3))
    ids = r.integers(0, 8, size=300)
    other = (ids + r.integers(1, 8, size=300)) % 8
    labels = [[int(b), int(a)] if i % 3 == 0 else [int(a)] for i, (a, b) in enumerate(zip(ids, other))]
    out.update(_evaluate_reports(S, U, labels, "two_label/"))
    # Gaussian rows at the eval workload's shape: no tie, no exact product,
    # so a distance panel that rounds unlike the whole table shows here
    r = np.random.default_rng(28)
    ids = r.integers(0, 20, size=1000)
    S = r.normal(size=(20, 32))[ids] + r.normal(size=(1000, 32))
    U = r.normal(size=(1000, 32))
    out.update(_evaluate_reports(S, U, [{int(i)} for i in ids], "gaussian/"))
    return out


def _evaluate_reports(S, U, labels, prefix: str) -> dict:
    out = {}
    for metric in METRIC_NAMES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = evaluate(S, U, multi_hot(labels)[0], Rng(43), test_metric=metric)
        out[prefix + metric] = rep.to_json_dict()
    return out


def _json_sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def plan_digests() -> dict:
    r = np.random.default_rng(24)
    S = r.integers(-1, 2, size=(16, 3)).astype(np.float64)
    U = 0.5 * r.integers(0, 3, size=(16, 2))
    classes = [{int(c)} for c in r.integers(0, 4, size=12)]
    labels = classes + [{0, 1}, {1, 2}, {2, 3}, {0, 3}]
    proxies = ProxySet(
        semantic=r.integers(-1, 2, size=(4, 3)).astype(np.float64),
        uncertainty=0.5 * r.integers(0, 3, size=(4, 2)),
        classes=(0, 1, 2, 3),
    )
    out = {}
    for loss in LOSS_NAMES:
        for metric in METRIC_NAMES:
            out[f"{loss}/{metric}"] = _plan_hash(
                loss, S, U, labels, metric, proxies if loss in PROXY_LOSSES else None
            )
    r = np.random.default_rng(26)
    S = r.normal(size=(180, 512))
    U = 0.1 * r.normal(size=(180, 512))
    classes = r.integers(0, 30, size=180)
    labels = [{int(c)} for c in classes[:120]]
    labels += [{int(c), int((c + i) % 30)} for c, i in zip(classes[120:], r.integers(1, 30, size=60))]
    for metric in METRIC_NAMES:
        out[f"paper/margin_dw/{metric}"] = _plan_hash("margin_dw", S, U, labels, metric, None)
    return out


def _plan_hash(loss, S, U, labels, metric, proxies) -> str:
    rng = Rng(47, STREAM_LOSS)
    plan = build_plan(loss_tables(loss, S, U, metric=metric, proxies=proxies), *multi_hot(labels), rng=rng)
    h = hashlib.sha256()
    for f in dataclasses.fields(plan):
        v = getattr(plan, f.name)
        h.update(f.name.encode())
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    h.update(repr(rng.random()).encode())
    return h.hexdigest()


def kmeans_digests() -> dict:
    inputs = {}
    for seed, (n, d, k) in enumerate(KMEANS_SHAPES):
        r = np.random.default_rng(60 + seed)
        X = 0.7 * r.normal(size=(k, d))[r.integers(0, k, size=n)] + r.normal(size=(n, d))
        inputs[f"{n}x{d}/k={k}"] = X, k
    r = np.random.default_rng(64)
    inputs["300x32/12 distinct rows/k=20"] = r.normal(size=(12, 32))[r.integers(0, 12, size=300)], 20
    out = {}
    for key, (X, k) in inputs.items():
        rng = Rng(61)
        assign = kmeans(X, k, rng)
        h = hashlib.sha256(f"{assign.dtype.str}{assign.shape}".encode())
        h.update(assign.tobytes())
        h.update(repr(rng.random()).encode())
        out[key] = h.hexdigest()
    return out


def io_digests() -> dict:
    r = np.random.default_rng(27)
    ids = r.integers(0, 9, size=40)
    other = (ids + r.integers(1, 9, size=40)) % 9
    labels = [{int(a), int(b)} if i % 4 == 0 else {int(a)} for i, (a, b) in enumerate(zip(ids, other))]
    ds = Dataset(features=r.normal(size=(40, 5)), labels=labels)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, save, load in (("csv", save_csv, load_csv), ("binary", save_binary, load_binary)):
            first, second = Path(tmp) / f"first.{name}", Path(tmp) / f"second.{name}"
            save(ds, first)
            save(load(first), second)
            out[f"{name}/write"] = _sha256(first)
            out[f"{name}/rewrite"] = _sha256(second)
    return out


def digests_report() -> dict:
    runs = record_digests()
    return {
        "record_sha256": runs["record.json"],
        "model_bin_sha256": runs["model.bin"],
        "uncertainty_csv_sha256": runs["uncertainty.csv"],
        "eval_json_sha256": runs["eval.json"],
        "epochs_csv_sha256": runs["epochs.csv"],
        "sweep_csv_sha256": sweep_digest(),
        "io_sha256": io_digests(),
        "augment_sha256": augment_digests(),
        "evaluate_sha256": {key: _json_sha256(v) for key, v in evaluate_reports().items()},
        "plan_sha256": plan_digests(),
        "kmeans_sha256": kmeans_digests(),
        "gradcheck": gradcheck_summaries(),
        "compute_loss": loss_outputs(),
    }


def values_report() -> dict:
    """The evaluate reports and compute_loss outputs, each next to its sha256.

    An `evaluate_sha256` digest of the full report is the `sha256` of its
    `evaluate` entry here, so a changed digest can be traced to its fields.
    """
    return {
        section: {key: {"sha256": _json_sha256(v), "values": v} for key, v in values.items()}
        for section, values in (("evaluate", evaluate_reports()), ("compute_loss", loss_outputs()))
    }


def _script_output(root: Path) -> str:
    """stdout of `root`'s copy of this script, run with `root`'s src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "tests" / "record_digests.py")],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"record_digests.py in {root} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def diff_against(rev: str) -> int:
    """Print the unified diff of REV's output and this checkout's; 1 if any."""
    here = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        git = ["git", "-C", str(here), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            before = _script_output(tree)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
    after = _script_output(here)
    diff = list(difflib.unified_diff(
        before.splitlines(keepends=True), after.splitlines(keepends=True), rev, "working tree"
    ))
    sys.stdout.writelines(diff)
    sys.stderr.writelines(f"{line}\n" for line in section_diff_counts(before, after))
    return 1 if diff else 0


def section_diff_counts(before: str, after: str) -> list:
    """One line per top-level section of two outputs of this script: how many
    of the section's keys differ, a key present in one output only included.
    A section that is one value (`sweep_csv_sha256`) is one key."""
    a, b = json.loads(before), json.loads(after)
    lines = []
    for section in sorted(a.keys() | b.keys()):
        x, y = (v if isinstance(v, dict) else {section: v} for v in (a.get(section, {}), b.get(section, {})))
        keys = x.keys() | y.keys()
        n = sum(k not in x or k not in y or x[k] != y[k] for k in keys)
        lines.append(f"{section}: {n} of {len(keys)} keys differ")
    return lines


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--against"] and len(args) == 2:
        try:
            return diff_against(args[1])
        except (subprocess.CalledProcessError, RuntimeError) as e:
            sys.stderr.write(f"{e}\n")
            return 2
    if args not in ([], ["--values"]):
        sys.stderr.write("usage: record_digests.py [--values | --against REV]\n")
        return 2
    report = values_report() if args else digests_report()
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
