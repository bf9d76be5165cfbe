"""Synthetic datasets with controllable ambiguity, and dataset file I/O.

The generator stands in for the usual image benchmarks at desk scale: class
means sit on scaled orthonormal directions, samples are Gaussian clouds
around them, and ambiguity is injected two ways — geometrically (samples
placed at the midpoint of two class means but carrying only one of the two
labels) and through label noise (a fraction of training labels reassigned).

Splits follow the zero-shot retrieval convention: train and test share no
classes. The rule is canonical — sort the class ids, first ceil(K/2) are
train — so a dataset reloaded from disk reconstructs the same split without
storing it. A `Dataset` is a `Batch` of every row, and each side is one more.

CSV schema: header "id,label,f0..f{D-1}"; multi-label cells join ids with
"|". The binary format mirrors the checkpoint conventions (magic "IDMD",
little-endian, 64-bit floats).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from idml.core import (
    POSITIVE,
    SEED,
    STREAM_DATA,
    UNIT_INTERVAL,
    Batch,
    FormatError,
    ParameterError,
    Rng,
    ShapeError,
    at_least,
    check_fields,
    label_ids,
    label_set,
    multi_hot,
)

__all__ = [
    "SynthConfig",
    "Dataset",
    "train_class_ids",
    "generate",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
]

BINARY_MAGIC = b"IDMD"
BINARY_VERSION = 1


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic ambiguous-class generator."""

    # at least two classes on each side of the class-disjoint split
    n_classes: Annotated[int, at_least(4)] = 10
    per_class: Annotated[int, at_least(1)] = 50
    input_dim: Annotated[int, at_least(1)] = 16
    class_sep: Annotated[float, POSITIVE] = 4.0
    within_sigma: Annotated[float, POSITIVE] = 1.0
    ambiguous_frac: Annotated[float, UNIT_INTERVAL] = 0.0
    mislabel_frac: Annotated[float, UNIT_INTERVAL] = 0.0
    seed: Annotated[int, SEED] = 0

    __post_init__ = check_fields


def train_class_ids(all_class_ids) -> frozenset:
    """Canonical split rule: sorted class ids, first ceil(K/2) are train."""
    ids = sorted(set(int(c) for c in all_class_ids))
    if not ids:
        raise ParameterError("empty class id set")
    n_train = (len(ids) + 1) // 2
    return frozenset(ids[:n_train])


class Dataset(Batch):
    """A `Batch` of every row, with the class-disjoint split mask `is_train`.

    The label sets given at construction are validated and converted once,
    by `multi_hot`: Y[i, k] is true iff row i carries class classes[k], with
    `classes` the sorted distinct ids. `label_ids(ds.Y, ds.classes)` gives
    the sets back as id lists, for the file formats. A dataset has at least
    one row, and every feature is finite; no row is mixed.
    """

    def __init__(self, features, labels):
        if not len(labels):
            raise ParameterError("a dataset needs at least one row")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 2 and len(features) != len(labels):
            raise ShapeError(f"{len(features)} feature rows vs {len(labels)} label sets")
        Y, classes = multi_hot(labels)
        super().__init__(features, Y, classes)
        # a row's smallest class id is its first true column
        self.is_train = self.Y.argmax(axis=1) < len(train_class_ids(self.classes))

    def train_split(self) -> Batch:
        """The train side: the rows of the train classes, over all of `classes`."""
        return Batch(self.features[self.is_train], self.Y[self.is_train], self.classes)

    def test_split(self) -> Batch:
        return Batch(self.features[~self.is_train], self.Y[~self.is_train], self.classes)


def generate(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset per the config's own seed.

    Per class, round(ambiguous_frac * per_class) samples sit at the midpoint
    between that class mean and another same-split class mean, labeled with
    only the first class. round(mislabel_frac * n_train) training labels are
    then reassigned to a different train class.
    """
    rng = Rng(cfg.seed, STREAM_DATA)
    k, d = cfg.n_classes, cfg.input_dim

    # Class means: orthonormal directions when the ambient dim allows,
    # otherwise normalized Gaussian directions.
    g = rng.normal(size=(d, k))
    if k <= d:
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
        means = cfg.class_sep * q[:, :k].T
    else:
        means = cfg.class_sep * (g / np.linalg.norm(g, axis=0, keepdims=True)).T

    train_ids = train_class_ids(range(k))
    sides = {c: (c in train_ids) for c in range(k)}
    same_side = {c: [o for o in range(k) if sides[o] == sides[c] and o != c] for c in range(k)}

    n_amb_per_class = round(cfg.ambiguous_frac * cfg.per_class)
    feats, labels = [], []
    for c in range(k):
        noise = cfg.within_sigma * rng.normal(size=(cfg.per_class, d))
        centers = np.tile(means[c], (cfg.per_class, 1))
        for a in range(n_amb_per_class):
            partner = same_side[c][int(rng.integers(0, len(same_side[c])))]
            centers[a] = 0.5 * (means[c] + means[partner])
        feats.append(centers + noise)
        labels.extend([c] * cfg.per_class)
    features = np.vstack(feats)

    train_rows = [i for i, c in enumerate(labels) if c in train_ids]
    n_swap = round(cfg.mislabel_frac * len(train_rows))
    if n_swap:
        swap_rows = rng.choice(len(train_rows), size=n_swap, replace=False)
        train_id_list = sorted(train_ids)
        for r_i in np.sort(swap_rows):
            row = train_rows[int(r_i)]
            others = [c for c in train_id_list if c != labels[row]]
            labels[row] = others[int(rng.integers(0, len(others)))]

    return Dataset(features=features, labels=labels)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def save_csv(ds: Dataset, path):
    d = ds.features.shape[1]
    with open(path, "w") as f:
        cols = ",".join(f"f{i}" for i in range(d))
        f.write(f"id,label,{cols}\n")
        for i, ids in enumerate(label_ids(ds.Y, ds.classes)):
            row = ",".join(repr(float(x)) for x in ds.features[i])
            f.write(f"{i},{'|'.join(map(str, ids))},{row}\n")


def _parse_label_cell(cell: str, lineno: int) -> frozenset:
    try:
        return label_set(cell.split("|"))
    except ValueError as e:
        raise FormatError(f"line {lineno}: bad label cell {cell!r}: {e}") from None


def load_csv(path) -> Dataset:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise FormatError(f"line 1: expected header 'id,label,f0..', got {lines[0]!r}")
    d = len(header) - 2
    for j, name in enumerate(header[2:]):
        if name != f"f{j}":
            raise FormatError(f"line 1: feature column {j} named {name!r}, expected 'f{j}'")
    feats, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != d + 2:
            raise FormatError(f"line {lineno}: expected {d + 2} fields, got {len(cells)}")
        try:
            int(cells[0])
        except ValueError:
            raise FormatError(f"line {lineno}: bad id {cells[0]!r}") from None
        labels.append(_parse_label_cell(cells[1], lineno))
        try:
            feats.append([float(x) for x in cells[2:]])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric feature value") from None
    if not feats:
        raise FormatError(f"{path}: no data rows")
    return Dataset(features=np.array(feats, dtype=np.float64), labels=tuple(labels))


# ---------------------------------------------------------------------------
# Binary I/O
# ---------------------------------------------------------------------------


def save_binary(ds: Dataset, path):
    n, d = ds.features.shape
    with open(path, "wb") as f:
        f.write(BINARY_MAGIC)
        f.write(struct.pack("<III", BINARY_VERSION, n, d))
        for ids in label_ids(ds.Y, ds.classes):
            f.write(struct.pack(f"<I{len(ids)}I", len(ids), *ids))
        f.write(np.ascontiguousarray(ds.features, dtype="<f8").tobytes())


def load_binary(path) -> Dataset:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    try:
        version, n, d = struct.unpack_from("<III", raw, 4)
        if version != BINARY_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if n == 0:
            raise FormatError(f"{path}: no data rows")
        off = 16
        labels = []
        for _ in range(n):
            (cnt,) = struct.unpack_from("<I", raw, off)
            off += 4
            labels.append(frozenset(struct.unpack_from(f"<{cnt}I", raw, off)))
            off += 4 * cnt
    except struct.error:
        raise FormatError(f"{path}: truncated header or label block") from None
    need = 8 * n * d
    if len(raw) - off != need:
        raise FormatError(f"{path}: expected {need} feature bytes, found {len(raw) - off}")
    feats = np.frombuffer(raw, dtype="<f8", count=n * d, offset=off).reshape(n, d)
    return Dataset(features=feats.astype(np.float64), labels=tuple(labels))
