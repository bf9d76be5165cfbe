"""Virtual-sample synthesis and uncertainty-inducing feature augmentations.

Mixup blends two feature vectors and gives the result the *union* of both
multi-hot label rows, so a mixed sample is a positive partner for either
source class. The image corruptions that raise a model's uncertainty get
feature-space analogues here: blur becomes additive Gaussian noise,
occlusion zeroes a fraction of coordinates, and low resolution becomes
block averaging. Both steps work on the whole (N, D) batch array; only the
per-row draws of blur and occlusion loop over the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

# label_set stays importable here: perfbench counts calls at this name.
from idml.core import NONNEGATIVE, POSITIVE, UNIT_INTERVAL, Batch, Rng, at_least, check_fields, label_set  # noqa: F401

__all__ = ["AugmentConfig", "mix_rows", "augment_batch"]


@dataclass(frozen=True)
class AugmentConfig:
    """Mixing and corruption settings for a training batch.

    mix_lambda_dist is the Beta(a, a) shape for the mixing weight (1.0 is
    uniform); mix_fraction of each batch is synthesized on top of it.
    Corruptions apply per sample with their probabilities; lowres_factor 1
    disables block averaging.
    """

    mix_lambda_dist: Annotated[float, POSITIVE] = 1.0
    mix_fraction: Annotated[float, UNIT_INTERVAL] = 0.5
    blur_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    occl_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    occl_fraction: Annotated[float, UNIT_INTERVAL] = 0.25
    lowres_factor: Annotated[int, at_least(1)] = 1
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
    """Append the mixed rows to a batch, then apply the configured corruptions.

    The clean rows are kept as they are and the mixed rows come last, so a
    run with mixing and one without see the same originals. Low resolution
    replaces contiguous blocks of lowres_factor coordinates by their mean
    (a tail block that does not fill up is padded with its last value).
    Then each row in turn, with its own draws: blur adds Gaussian noise of
    std noise_sigma with probability blur_prob, and occlusion zeroes
    ceil(occl_fraction * D) uniformly chosen coordinates with probability
    occl_prob.
    """
    mixed, mixed_Y = mix_rows(batch, cfg, rng)
    X = np.concatenate([batch.features, mixed])
    n, d = X.shape
    f = cfg.lowres_factor
    if f > 1:
        pad = (-d) % f
        padded = np.concatenate([X, np.repeat(X[:, -1:], pad, axis=1)], axis=1)
        means = padded.reshape(n, -1, f).mean(axis=2)
        X = np.ascontiguousarray(np.repeat(means, f, axis=1)[:, :d])
    k = math.ceil(cfg.occl_fraction * d)
    if cfg.blur_prob > 0 or cfg.occl_prob > 0:  # otherwise no row draws anything
        for r in range(n):
            if cfg.blur_prob > 0 and rng.random() < cfg.blur_prob and cfg.noise_sigma > 0:
                X[r] += cfg.noise_sigma * rng.normal(size=d)
            if cfg.occl_prob > 0 and rng.random() < cfg.occl_prob and k:
                X[r, rng.choice(d, size=k, replace=False)] = 0.0
    return Batch(
        features=X,
        Y=np.concatenate([batch.Y, mixed_Y]),
        classes=batch.classes,
        is_mixed=np.concatenate([batch.is_mixed, np.ones(len(mixed_Y), dtype=bool)]),
    )
