"""Shared value types: vectors, label sets, metric parameters, batches, RNG.

Embeddings are plain 1-D float64 numpy arrays validated at the boundaries
(finite, nonempty). Labels are frozensets of nonnegative ints so that a
mixed sample can carry both of its source classes; inside a batch they
become rows of a boolean multi-hot matrix (:func:`multi_hot`), and every
"do these samples match?" question is answered by :func:`match_matrix`
over those rows.
All randomness flows through :class:`Rng`, a counter-based generator with
named substreams, so every run is replayable from a single 64-bit seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShapeError",
    "ParameterError",
    "FormatError",
    "DegenerateInputError",
    "NumericalFailure",
    "label_set",
    "labels_match",
    "multi_hot",
    "match_matrix",
    "MetricParams",
    "Batch",
    "Rng",
]


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class ParameterError(ValueError):
    """A parameter or configuration value is out of its documented range."""


class FormatError(ValueError):
    """A file being parsed violates its documented layout."""


class DegenerateInputError(ValueError):
    """An input is degenerate for the requested operation (e.g. a zero vector)."""


class NumericalFailure(RuntimeError):
    """A computation produced a non-finite value."""


def label_set(labels) -> frozenset[int]:
    """Validate a label collection: nonempty, nonnegative ints."""
    if isinstance(labels, (int, np.integer)):
        labels = (labels,)
    out = frozenset(int(l) for l in labels)
    if not out:
        raise ParameterError("label set must be nonempty")
    if any(l < 0 for l in out):
        raise ParameterError(f"label ids must be nonnegative, got {sorted(out)}")
    return out


def labels_match(a, b) -> bool:
    """Two label sets match iff they intersect.

    A mixed sample carries both source labels, so it matches either class.
    The relation is symmetric and reflexive but not transitive.
    """
    return not label_set(a).isdisjoint(label_set(b))


def multi_hot(labels):
    """Boolean (N, K) multi-hot rows over the sorted distinct label ids.

    Returns (Y, classes) with Y[i, k] true iff classes[k] is in sample i's
    label set. Each row is validated once with `label_set`; ids index
    columns through `classes`, so a large id does not widen Y.
    """
    sets = [label_set(l) for l in labels]
    classes = sorted(frozenset().union(*sets))
    col = {c: k for k, c in enumerate(classes)}
    Y = np.zeros((len(sets), len(classes)), dtype=bool)
    for i, s in enumerate(sets):
        Y[i, [col[c] for c in s]] = True
    return Y, classes


def match_matrix(Y) -> np.ndarray:
    """(N, N) boolean table of `labels_match` over every pair of multi-hot rows
    `Y` (from `multi_hot`), diagonal true."""
    Y = np.asarray(Y, dtype=np.float64)
    return Y @ Y.T > 0


@dataclass(frozen=True)
class MetricParams:
    """Introspective-metric knobs.

    gamma: bias added to the pair uncertainty even when the model reports none.
    tau: temperature controlling how strongly relative uncertainty attenuates
        the semantic discrepancy.
    alpha_min: clamp applied to the semantic distance before dividing by it.
    """

    gamma: float = 0.0
    tau: float = 5.0
    alpha_min: float = 1e-12

    def __post_init__(self):
        if self.gamma < 0:
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}")
        if self.tau <= 0:
            raise ParameterError(f"tau must be > 0, got {self.tau}")
        if self.alpha_min <= 0:
            raise ParameterError(f"alpha_min must be > 0, got {self.alpha_min}")


@dataclass
class Batch:
    """A stack of input features with per-sample label sets and mixed flags."""

    features: np.ndarray
    labels: tuple
    is_mixed: np.ndarray = field(default=None)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ShapeError(f"features must be a nonempty (N, D) array, got {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise NumericalFailure("batch features contain non-finite entries")
        self.labels = tuple(label_set(l) for l in self.labels)
        if len(self.labels) != self.features.shape[0]:
            raise ShapeError(
                f"{len(self.labels)} label sets for {self.features.shape[0]} features"
            )
        if self.is_mixed is None:
            self.is_mixed = np.zeros(len(self.labels), dtype=bool)
        else:
            self.is_mixed = np.asarray(self.is_mixed, dtype=bool)
            if self.is_mixed.shape != (len(self.labels),):
                raise ShapeError("is_mixed must have one flag per sample")

    def __len__(self) -> int:
        return self.features.shape[0]


# Fixed substream ids so every consumer draws from its own independent stream.
STREAM_ROOT = 0
STREAM_DATA = 1
STREAM_INIT = 2
STREAM_BATCH = 3
STREAM_AUGMENT = 4
STREAM_LOSS = 5
STREAM_EVAL = 6


class Rng:
    """Deterministic random stream backed by the counter-based Philox generator.

    Identical (seed, stream) pairs produce bit-identical draws across runs
    and platforms. Each consumer keys its own generator on (seed, stream id),
    so e.g. batching noise never perturbs init noise.
    """

    def __init__(self, seed: int, stream: int = STREAM_ROOT):
        seed = int(seed)
        if seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {seed}")
        self.seed = seed
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def random(self, size=None):
        """Uniform double(s) in [0, 1); random(n) equals n successive random() draws."""
        return self._gen.random(size=size)

    def normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def integers(self, lo: int, hi: int, size=None):
        """Integer draw(s) in [lo, hi)."""
        if not lo < hi:
            raise ParameterError(f"integers requires lo < hi, got [{lo}, {hi})")
        return self._gen.integers(lo, hi, size=size)

    def choice(self, n_or_items, size=None, replace: bool = True, p=None):
        return self._gen.choice(n_or_items, size=size, replace=replace, p=p)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def beta(self, a: float, b: float) -> float:
        return float(self._gen.beta(a, b))

