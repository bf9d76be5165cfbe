"""Virtual-sample synthesis and uncertainty-inducing feature augmentations.

Mixup blends two feature vectors and gives the result the *union* of both
label sets, so a mixed sample is a positive partner for either source
class. The image corruptions that raise a model's uncertainty get
feature-space analogues here: blur becomes additive Gaussian noise,
occlusion zeroes a fraction of coordinates, and low resolution becomes
block averaging. Both steps work on the whole (N, D) batch array; only the
per-row draws of blur and occlusion loop over the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# label_set stays importable here: perfbench counts calls at this name.
from idml.core import Batch, ParameterError, Rng, label_set  # noqa: F401

__all__ = ["AugmentConfig", "mix_rows", "augment_batch"]


@dataclass(frozen=True)
class AugmentConfig:
    """Mixing and corruption settings for a training batch.

    mix_lambda_dist is the Beta(a, a) shape for the mixing weight (1.0 is
    uniform); mix_fraction of each batch is synthesized on top of it.
    Corruptions apply per sample with their probabilities; lowres_factor 1
    disables block averaging.
    """

    mix_lambda_dist: float = 1.0
    mix_fraction: float = 0.5
    blur_prob: float = 0.0
    occl_prob: float = 0.0
    occl_fraction: float = 0.25
    lowres_factor: int = 1
    noise_sigma: float = 0.1

    def __post_init__(self):
        for name in ("mix_fraction", "blur_prob", "occl_prob", "occl_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        if self.mix_lambda_dist <= 0:
            raise ParameterError(f"mix_lambda_dist must be positive, got {self.mix_lambda_dist}")
        if self.lowres_factor < 1:
            raise ParameterError(f"lowres_factor must be >= 1, got {self.lowres_factor}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def mix_rows(batch: Batch, cfg: AugmentConfig, rng: Rng):
    """The (features, labels) of round(len(batch) * mix_fraction) mixed rows.

    Each row blends a random in-batch pair, lam * x_i + (1 - lam) * x_j with
    lam ~ Beta(a, a) for a = mix_lambda_dist, and carries the union of both
    label sets, which `Batch` has already validated. Pairs with non-matching
    labels are preferred, so the union genuinely has two members.
    """
    n = len(batch)
    rows_i, rows_j, lams = [], [], []
    for _ in range(round(n * cfg.mix_fraction)):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        for _ in range(8):  # prefer a cross-class partner when one exists
            if j != i and batch.labels[i] != batch.labels[j]:
                break
            j = int(rng.integers(0, n))
        if j == i:
            j = (i + 1) % n
        rows_i.append(i)
        rows_j.append(j)
        lams.append(rng.beta(cfg.mix_lambda_dist, cfg.mix_lambda_dist))
    lam = np.array(lams, dtype=np.float64)[:, None]
    X, L = batch.features, batch.labels
    labels = tuple(L[i] | L[j] for i, j in zip(rows_i, rows_j))
    return lam * X[rows_i] + (1.0 - lam) * X[rows_j], labels


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
    mixed, mixed_labels = mix_rows(batch, cfg, rng)
    X = np.concatenate([batch.features, mixed])
    n, d = X.shape
    f = cfg.lowres_factor
    if f > 1:
        pad = (-d) % f
        padded = np.concatenate([X, np.repeat(X[:, -1:], pad, axis=1)], axis=1)
        means = padded.reshape(n, -1, f).mean(axis=2)
        X = np.ascontiguousarray(np.repeat(means, f, axis=1)[:, :d])
    k = math.ceil(cfg.occl_fraction * d)
    for r in range(n):
        if cfg.blur_prob > 0 and rng.random() < cfg.blur_prob and cfg.noise_sigma > 0:
            X[r] += cfg.noise_sigma * rng.normal(size=d)
        if cfg.occl_prob > 0 and rng.random() < cfg.occl_prob and k:
            X[r, rng.choice(d, size=k, replace=False)] = 0.0
    return Batch(
        features=X,
        labels=batch.labels + mixed_labels,
        is_mixed=np.concatenate([batch.is_mixed, np.ones(len(mixed_labels), dtype=bool)]),
    )
