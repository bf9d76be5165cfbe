"""Shared pieces: vectors, label sets, metric parameters, batches, RNG, thread budget.

Embeddings are plain 1-D float64 numpy arrays validated at the boundaries
(finite, nonempty). A sample's labels are a set of nonnegative class ids,
so that a mixed sample can carry both of its source classes. Label sets
are validated and converted once, by :func:`multi_hot`, into rows of a
boolean multi-hot matrix Y over the sorted class ids; from the dataset to
the loss, those rows are the only label form (:func:`label_ids` turns them
back into ids for output files), and every "do these samples match?"
question is answered by :func:`match_matrix` over them.
All randomness flows through :class:`Rng`, a counter-based generator with
named substreams, so every run is replayable from a single 64-bit seed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import os
import typing
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

__all__ = [
    "ShapeError",
    "ParameterError",
    "FormatError",
    "DegenerateInputError",
    "NumericalFailure",
    "LABEL_ID_LIMIT",
    "label_set",
    "labels_match",
    "multi_hot",
    "label_rows",
    "label_ids",
    "match_matrix",
    "match_rows",
    "TABLE_BLOCK",
    "block_rows",
    "Bound",
    "field_rules",
    "check_fields",
    "MetricParams",
    "Batch",
    "Rng",
    "worker_count",
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


# Class ids are stored as u32 (checkpoints, binary datasets): every id is
# in [0, LABEL_ID_LIMIT).
LABEL_ID_LIMIT = 1 << 32


def label_set(labels) -> frozenset[int]:
    """Validate a label collection: nonempty ints in [0, 2**32), stored as u32."""
    if isinstance(labels, (int, np.integer)):
        labels = (labels,)
    out = frozenset(int(l) for l in labels)
    if not out:
        raise ParameterError("label set must be nonempty")
    if any(not 0 <= l < LABEL_ID_LIMIT for l in out):
        raise ParameterError(f"label ids must be nonnegative and below 2**32, got {sorted(out)}")
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
    rows = [i for i, s in enumerate(sets) for _ in s]
    cols = [col[c] for s in sets for c in s]
    Y = np.zeros((len(sets), len(classes)), dtype=bool)
    Y[rows, cols] = True
    return Y, classes


def label_rows(Y, n: int) -> np.ndarray:
    """`Y` as a boolean (n, K) multi-hot table (rows of `multi_hot`'s Y), with
    a label in every row; no label set is rebuilt."""
    Y = np.asarray(Y, dtype=bool)
    if Y.ndim != 2 or Y.shape[0] != n:
        raise ShapeError(f"expected ({n}, K) multi-hot label rows, got shape {Y.shape}")
    if not Y.any(axis=1).all():
        raise ParameterError("every sample needs at least one label")
    return Y


def label_ids(Y, classes) -> list:
    """Each multi-hot row's class ids, ascending: the inverse of `multi_hot`."""
    classes = np.asarray(classes)
    return [classes[row].tolist() for row in np.asarray(Y, dtype=bool)]


# Entries per row block of the passes over an N x M table: the Gram epilogue
# of `metric`, and the ranking, the MRR count and each query's R in
# `evaluation`. A block and its temporaries stay in cache, where
# whole-table passes did not, and no N x M temporary is made.
TABLE_BLOCK = 65536


def block_rows(m: int) -> int:
    """Rows of an (N, m) table per block of about TABLE_BLOCK entries (>= 1)."""
    return max(1, TABLE_BLOCK // max(m, 1))


def match_matrix(Y) -> np.ndarray:
    """(N, N) boolean table of `labels_match` over every pair of multi-hot rows
    `Y` (from `multi_hot`), diagonal true."""
    return match_rows(np.asarray(Y, dtype=np.float64), 0, len(Y))


def match_rows(Y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of `match_matrix` for float64 multi-hot rows `Y`. The
    shared-label counts are small integers, exact in any summation order."""
    return Y[lo:hi] @ Y.T > 0.0


def worker_count() -> int:
    """The thread budget: IDML_THREADS if set, else the CPUs this process may
    use. run_grid runs this many processes; a wide step pair uses its helper
    thread only if it is at least 2. BLAS keeps one thread per caller."""
    env = os.environ.get("IDML_THREADS", "").strip()
    if not env:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ParameterError(f"IDML_THREADS must be a positive integer, got {env!r}")
    return int(env)


# What a config field of each annotated type may hold, its name in errors,
# and how the value is stored.
_ACCEPTED = {
    int: (numbers.Integral, "an int", int),
    float: (numbers.Real, "a number", float),
    str: (str, "a string", str),
    tuple: ((tuple, list), "a list of ints", lambda v: tuple(int(h) for h in v)),
}


class Bound(typing.NamedTuple):
    """A rule on a config field's value, attached to its annotation:
    `tau: Annotated[float, POSITIVE]`. `text` completes "must be ..."."""

    ok: typing.Callable
    text: str


def at_least(lo) -> Bound:
    return Bound(lambda v: v >= lo, f">= {lo}")


def one_of(names) -> Bound:
    return Bound(lambda v: v in names, "one of " + ", ".join(names))


POSITIVE = Bound(lambda v: v > 0, "> 0")
NONNEGATIVE = at_least(0)
UNIT_INTERVAL = Bound(lambda v: 0 <= v <= 1, "in [0, 1]")
SIZES = Bound(lambda v: len(v) > 0 and min(v) >= 1, "a nonempty list of positive ints")
# Every seed keys a Philox generator as a u64 (`Rng`).
SEED = Bound(lambda v: 0 <= v < 1 << 64, "in [0, 2**64)")


def _holds(v, accepted) -> bool:
    return isinstance(v, accepted) and not isinstance(v, bool)


@functools.cache
def field_rules(cls) -> dict:
    """name -> (type, bounds, None allowed) for each field of a config
    dataclass, read once per class from its annotations."""
    hints = typing.get_type_hints(cls, include_extras=True)
    rules = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        want, *bounds = typing.get_args(hint) if typing.get_origin(hint) is typing.Annotated else (hint,)
        rules[f.name] = (want, bounds, f.default is None)
    return rules


def check_fields(cfg):
    """Reject a config dataclass field whose value lacks its annotated type
    or breaks one of its annotated bounds, naming the field, and store each
    value in its annotated type. An int stands in for a float and is stored
    as a float, a bool for neither, a tuple field takes a list of ints and
    stores a tuple of ints, a section must be an instance of its class,
    None passes only where the default is None, and a stored float must be
    finite."""
    for name, (want, bounds, none_ok) in field_rules(type(cfg)).items():
        v = getattr(cfg, name)
        if v is None and none_ok:
            continue
        accepted, label, store = _ACCEPTED.get(want, (want, f"a {want.__name__}", None))
        if not _holds(v, accepted) or want is tuple and not all(_holds(h, numbers.Integral) for h in v):
            raise ParameterError(f"{name} must be {label}, got {v!r}")
        for b in bounds:
            if not b.ok(v):  # a string here is a name off its list
                unknown = f"unknown {name}: " if isinstance(v, str) else ""
                raise ParameterError(f"{unknown}{name} must be {b.text}, got {v!r}")
        if store is not None:
            try:
                v = store(v)
            except OverflowError:  # an int past the float range
                raise ParameterError(f"{name} must be {label} in float range, got {v!r}") from None
            if want is float and not math.isfinite(v):
                raise ParameterError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(cfg, name, v)


@dataclass(frozen=True)
class MetricParams:
    """Introspective-metric knobs.

    gamma: bias added to the pair uncertainty even when the model reports none.
    tau: temperature controlling how strongly relative uncertainty attenuates
        the semantic discrepancy.
    alpha_min: clamp applied to the semantic distance before dividing by it.
    """

    gamma: Annotated[float, NONNEGATIVE] = 0.0
    tau: Annotated[float, POSITIVE] = 5.0
    alpha_min: Annotated[float, POSITIVE] = 1e-12

    __post_init__ = check_fields


@dataclass
class Batch:
    """A stack of input features with their multi-hot label rows and mixed flags.

    Y[i, k] is true iff sample i carries class classes[k] (see `multi_hot`).
    A `Dataset` and its two sides are batches too. Only the proxy losses
    read `classes`, to place Y's columns at their proxies.
    """

    features: np.ndarray
    Y: np.ndarray
    classes: tuple = None
    is_mixed: np.ndarray = field(default=None)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ShapeError(f"features must be a nonempty (N, D) array, got {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise NumericalFailure("features contain non-finite entries")
        n = self.features.shape[0]
        self.Y = label_rows(self.Y, n)
        if self.classes is not None:
            self.classes = tuple(self.classes)
            if len(self.classes) != self.Y.shape[1]:
                raise ShapeError(f"{len(self.classes)} class ids for {self.Y.shape[1]} label columns")
        if self.is_mixed is None:
            self.is_mixed = np.zeros(n, dtype=bool)
        else:
            self.is_mixed = np.asarray(self.is_mixed, dtype=bool)
            if self.is_mixed.shape != (n,):
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


class Rng(np.random.Generator):
    """Deterministic random stream: a numpy Generator on the counter-based
    Philox bit generator keyed on (seed, stream).

    Identical (seed, stream) pairs produce bit-identical draws across runs
    and platforms. Each consumer keys its own generator on (seed, stream id),
    so e.g. batching noise never perturbs init noise.
    """

    def __init__(self, seed: int, stream: int = STREAM_ROOT):
        seed = int(seed)
        if not SEED.ok(seed):
            raise ParameterError(f"seed must be {SEED.text}, got {seed}")
        self.seed = seed
        self.stream = int(stream)
        super().__init__(np.random.Philox(key=np.array([seed, self.stream], dtype=np.uint64)))

    normal = np.random.Generator.standard_normal

    def __reduce__(self):
        # Generator's own reduce rebuilds a plain Generator, without seed and stream
        return Rng, (self.seed, self.stream), self.bit_generator.state
