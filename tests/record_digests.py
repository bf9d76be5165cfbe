"""Print the digests a pure refactor must leave unchanged, as JSON on stdout.

    PYTHONPATH=src python tests/record_digests.py > after.json

Run it on the parent commit and on the change (each from its own checkout,
with that checkout's src/ on PYTHONPATH) and diff the two outputs; a pure
refactor prints identical text. It covers:

- record_sha256: the sha256 of record.json for every loss under
  baseline_run_config and introspective_run_config at seeds 5 and 6;
- gradcheck: the `idml gradcheck --loss L` summary for every loss;
- compute_loss: value, pair terms, all four gradients and kink margin for
  every loss x metric on one fixed batch that includes a mixed (two-label)
  row. Floats print in shortest round-trip form, so equal text means equal
  bits.

The name keeps pytest from collecting it. It trains 28 small runs and takes
under a minute on one core.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from idml import harness
from idml.core import Rng
from idml.losses import LOSS_NAMES, PROXY_LOSSES, ProxySet, compute_loss
from idml.metric import METRIC_NAMES

SEEDS = (5, 6)
CONFIGS = {
    "baseline_run_config": harness.baseline_run_config,
    "introspective_run_config": harness.introspective_run_config,
}


def record_digests() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in CONFIGS.items():
            for loss in LOSS_NAMES:
                for seed in SEEDS:
                    run_dir = Path(tmp) / f"{name}-{loss}-{seed}"
                    harness.train(make(loss, seed=seed), output_dir=run_dir)
                    data = (run_dir / "record.json").read_bytes()
                    out[f"{name}/{loss}/seed={seed}"] = hashlib.sha256(data).hexdigest()
    return out


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


def main() -> int:
    report = {
        "record_sha256": record_digests(),
        "gradcheck": gradcheck_summaries(),
        "compute_loss": loss_outputs(),
    }
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
