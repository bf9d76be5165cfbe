"""Print the digests a pure refactor must leave unchanged, as JSON on stdout.

    PYTHONPATH=src python tests/record_digests.py > after.json

Run it on the parent commit and on the change (each from its own checkout,
with that checkout's src/ on PYTHONPATH) and diff the two outputs; a pure
refactor prints identical text. It covers:

- record_sha256: the sha256 of record.json for every loss under
  baseline_run_config and introspective_run_config at seeds 5 and 6;
- model_bin_sha256: the sha256 of model.bin from the same runs;
- the same two digests (keys `extra/...`) for five short runs on the paths
  those runs never take: the frozen uncertainty head
  (`uncertainty_mode="frozen_zero"`) and the momentum optimizer
  (`optimizer="sgd"`);
- gradcheck: the `idml gradcheck --loss L` summary for every loss;
- compute_loss: value, pair terms, all four gradients and kink margin for
  every loss x metric on one fixed batch that includes a mixed (two-label)
  row. Floats print in shortest round-trip form, so equal text means equal
  bits;
- augment_sha256: the sha256 of augment_batch's features, labels, mixed
  flags and next draw on one fixed batch under each channel (mixing, blur,
  occlusion, low resolution with and without padding, all at once);
- evaluate_sha256: the sha256 of `EvalReport.to_json_dict()` under every
  test metric on two fixed inputs on an integer grid, so that duplicate
  rows and distance ties at the ranking depth are common: 600 rows with one
  single-sample class, and (keys `two_label/<metric>`) 300 rows of which
  every third carries two classes, which exercises multi-label matching in
  the ranking metrics and the smallest-class rule of the NMI ids;
- plan_sha256: the sha256 of every `Plan` field (name, dtype, shape and
  bytes of each array) that `build_plan` returns for every loss x metric on
  one fixed 16-row batch on an integer grid, so that distance ties decide
  mined triplets and masks, with four two-label (mixed) rows. It also
  hashes the next draw of the plan's rng, which checks that margin_dw's
  sampling consumed exactly the draws it did before.

The name keeps pytest from collecting it. It trains its 33 small runs
through one `harness.run_grid` call and takes about 20 s on two cores, or
about 35 s with IDML_THREADS=1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from idml import harness
from idml.augment import AugmentConfig, augment_batch
from idml.core import STREAM_AUGMENT, STREAM_LOSS, Batch, Rng
from idml.evaluation import evaluate
from idml.losses import LOSS_NAMES, PROXY_LOSSES, ProxySet, build_plan, compute_loss
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


def record_digests() -> tuple:
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
    records, models = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        run_dirs = [Path(tmp) / key.replace("/", "-") for key in keys]
        harness.run_grid(configs, run_dirs)
        for key, run_dir in zip(keys, run_dirs):
            records[key] = _sha256(run_dir / "record.json")
            models[key] = _sha256(run_dir / "model.bin")
    return records, models


def gradcheck_summaries() -> dict:
    return {
        loss: harness.gradcheck(dataclasses.replace(harness.desk_config(), loss=loss)).summary()
        for loss in LOSS_NAMES
    }


def fixed_batch():
    r = np.random.default_rng(20)
    S = r.normal(size=(7, 4))
    U = 0.3 * r.normal(size=(7, 3))
    labels = tuple(frozenset(c) for c in ({0}, {0}, {1}, {1}, {2}, {2}, {0, 1}))
    proxies = ProxySet(
        semantic=r.normal(size=(3, 4)),
        uncertainty=0.3 * r.normal(size=(3, 3)),
        classes=(0, 1, 2),
    )
    return S, U, labels, proxies


def _floats(a):
    return None if a is None else np.asarray(a, dtype=np.float64).tolist()


def loss_outputs() -> dict:
    S, U, labels, proxies = fixed_batch()
    out = {}
    for loss in LOSS_NAMES:
        for metric in METRIC_NAMES:
            res = compute_loss(
                loss,
                S,
                U,
                labels,
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
    labels = [{0}, {0}, {1}, {1}, {2}, {2}, {3}, {0, 1}, {3}]
    batch = Batch(features=r.normal(size=(9, 18)), labels=labels, is_mixed=[False] * 7 + [True, False])
    out = {}
    for name, cfg in AUGMENT_CHANNELS.items():
        rng = Rng(41, STREAM_AUGMENT)
        res = augment_batch(batch, cfg, rng)
        h = hashlib.sha256(res.features.tobytes())
        h.update(repr([sorted(ls) for ls in res.labels]).encode())
        h.update(res.is_mixed.tobytes())
        h.update(repr(rng.random()).encode())
        out[name] = h.hexdigest()
    return out


def evaluate_digests() -> dict:
    r = np.random.default_rng(23)
    S = r.integers(-2, 3, size=(600, 4)).astype(np.float64)
    U = 0.5 * r.integers(-2, 3, size=(600, 3))
    ids = r.integers(0, 12, size=600)
    ids[-1] = 12  # a single-sample class: its query is skipped by R-precision
    out = _evaluate_hashes(S, U, [{int(i)} for i in ids], "")
    # every third row carries a second, different class, listed first
    r = np.random.default_rng(25)
    S = r.integers(-2, 3, size=(300, 4)).astype(np.float64)
    U = 0.5 * r.integers(-2, 3, size=(300, 3))
    ids = r.integers(0, 8, size=300)
    other = (ids + r.integers(1, 8, size=300)) % 8
    labels = [[int(b), int(a)] if i % 3 == 0 else [int(a)] for i, (a, b) in enumerate(zip(ids, other))]
    out.update(_evaluate_hashes(S, U, labels, "two_label/"))
    return out


def _evaluate_hashes(S, U, labels, prefix: str) -> dict:
    out = {}
    for metric in METRIC_NAMES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = evaluate(S, U, labels, Rng(43), test_metric=metric)
        text = json.dumps(rep.to_json_dict(), sort_keys=True)
        out[prefix + metric] = hashlib.sha256(text.encode()).hexdigest()
    return out


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
            rng = Rng(47, STREAM_LOSS)
            plan = build_plan(
                loss,
                S,
                U,
                labels,
                metric=metric,
                proxies=proxies if loss in PROXY_LOSSES else None,
                rng=rng,
            )
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
            out[f"{loss}/{metric}"] = h.hexdigest()
    return out


def main() -> int:
    records, models = record_digests()
    report = {
        "record_sha256": records,
        "model_bin_sha256": models,
        "augment_sha256": augment_digests(),
        "evaluate_sha256": evaluate_digests(),
        "plan_sha256": plan_digests(),
        "gradcheck": gradcheck_summaries(),
        "compute_loss": loss_outputs(),
    }
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
