"""Virtual-sample synthesis and an uncertainty-inducing feature augmentation.

Mixup blends two feature vectors and gives the result the *union* of both
multi-hot label rows, so a mixed sample is a positive partner for either
source class. Blur, the image corruption that raises a model's
uncertainty, gets a feature-space analogue here: additive Gaussian noise.
Both steps work on the whole (N, D) batch array; only blur's per-row draws
loop over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

# label_set stays importable here: perfbench counts calls at this name.
from idml.core import NONNEGATIVE, POSITIVE, UNIT_INTERVAL, Batch, Rng, check_fields, label_set  # noqa: F401

__all__ = ["AugmentConfig", "mix_rows", "augment_batch"]


@dataclass(frozen=True)
class AugmentConfig:
    """Mixing and blur settings for a training batch.

    mix_lambda_dist is the Beta(a, a) shape for the mixing weight (1.0 is
    uniform); mix_fraction of each batch is synthesized on top of it. Blur
    applies per sample with probability blur_prob.
    """

    mix_lambda_dist: Annotated[float, POSITIVE] = 1.0
    mix_fraction: Annotated[float, UNIT_INTERVAL] = 0.5
    blur_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    noise_sigma: Annotated[float, NONNEGATIVE] = 0.1

    __post_init__ = check_fields


def mix_rows(batch: Batch, cfg: AugmentConfig, rng: Rng):
    """The (features, multi-hot label rows) of round(len(batch) * mix_fraction)
    mixed rows.

    Each row blends a random in-batch pair, lam * x_i + (1 - lam) * x_j with
    lam ~ Beta(a, a) for a = mix_lambda_dist, and carries the union of both
    label rows, Y[i] | Y[j]. Pairs with different label rows are preferred,
    so the union genuinely has two members.
    """
    n = len(batch)
    # one hashable key per row: equal keys iff equal label rows
    packed = np.packbits(batch.Y, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel().tolist()
    rows_i, rows_j, lams = [], [], []
    for _ in range(round(n * cfg.mix_fraction)):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        for _ in range(8):  # prefer a cross-class partner when one exists
            if j != i and keys[i] != keys[j]:
                break
            j = int(rng.integers(0, n))
        if j == i:
            j = (i + 1) % n
        rows_i.append(i)
        rows_j.append(j)
        lams.append(rng.beta(cfg.mix_lambda_dist, cfg.mix_lambda_dist))
    lam = np.array(lams, dtype=np.float64)[:, None]
    X, Y = batch.features, batch.Y
    return lam * X[rows_i] + (1.0 - lam) * X[rows_j], Y[rows_i] | Y[rows_j]


def augment_batch(batch: Batch, cfg: AugmentConfig, rng: Rng) -> Batch:
    """Append the mixed rows to a batch, then blur it.

    The clean rows are kept as they are and the mixed rows come last, so a
    run with mixing and one without see the same originals. Then each row
    in turn, with its own draws: blur adds Gaussian noise of std
    noise_sigma with probability blur_prob. The coin is drawn whenever
    blur_prob > 0, even when noise_sigma is 0.
    """
    mixed, mixed_Y = mix_rows(batch, cfg, rng)
    X = np.concatenate([batch.features, mixed])
    if cfg.blur_prob > 0:  # otherwise no row draws anything
        for r in range(len(X)):
            if rng.random() < cfg.blur_prob and cfg.noise_sigma > 0:
                X[r] += cfg.noise_sigma * rng.normal(size=X.shape[1])
    return Batch(
        features=X,
        Y=np.concatenate([batch.Y, mixed_Y]),
        classes=batch.classes,
        is_mixed=np.concatenate([batch.is_mixed, np.ones(len(mixed_Y), dtype=bool)]),
    )
