"""Synthetic datasets with controllable ambiguity, and dataset file I/O.

The generator stands in for the usual image benchmarks at desk scale: class
means sit on scaled orthonormal directions, samples are Gaussian clouds
around them, and ambiguity is injected two ways — geometrically (samples
placed at the midpoint of two class means but carrying only one of the two
labels) and through label noise (a fraction of training labels reassigned).

Splits follow the zero-shot retrieval convention: train and test share no
classes. The rule is canonical — sort the class ids, first ceil(K/2) are
train — so a dataset reloaded from disk reconstructs the same split without
storing it.

CSV schema: header "id,label,f0..f{D-1}"; multi-label cells join ids with
"|". The binary format mirrors the checkpoint conventions (magic "IDMD",
little-endian, 64-bit floats).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from idml.core import (
    STREAM_DATA,
    FormatError,
    ParameterError,
    Rng,
    ShapeError,
    label_set,
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

    n_classes: int = 10
    per_class: int = 50
    input_dim: int = 16
    class_sep: float = 4.0
    within_sigma: float = 1.0
    ambiguous_frac: float = 0.0
    mislabel_frac: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 4:
            raise ParameterError(
                f"need n_classes >= 4 for a two-sided class-disjoint split, got {self.n_classes}"
            )
        if self.per_class < 1:
            raise ParameterError(f"per_class must be positive, got {self.per_class}")
        if self.input_dim < 1:
            raise ParameterError(f"input_dim must be positive, got {self.input_dim}")
        if self.class_sep <= 0 or self.within_sigma <= 0:
            raise ParameterError("class_sep and within_sigma must be positive")
        for name in ("ambiguous_frac", "mislabel_frac"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")


def train_class_ids(all_class_ids) -> frozenset:
    """Canonical split rule: sorted class ids, first ceil(K/2) are train."""
    ids = sorted(set(int(c) for c in all_class_ids))
    if not ids:
        raise ParameterError("empty class id set")
    n_train = (len(ids) + 1) // 2
    return frozenset(ids[:n_train])


@dataclass
class Dataset:
    """Feature rows, per-row label sets, and the class-disjoint split mask."""

    features: np.ndarray
    labels: tuple
    is_train: np.ndarray = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be (N, D), got {self.features.shape}")
        if len(self.labels) != self.features.shape[0]:
            raise ShapeError(
                f"{self.features.shape[0]} feature rows vs {len(self.labels)} label sets"
            )
        self.labels = tuple(label_set(ls) for ls in self.labels)
        if self.is_train is None:
            train_ids = train_class_ids(self.all_class_ids())
            self.is_train = np.array([min(ls) in train_ids for ls in self.labels], dtype=bool)
        else:
            self.is_train = np.asarray(self.is_train, dtype=bool)
            if self.is_train.shape != (self.features.shape[0],):
                raise ShapeError("is_train mask must have one entry per row")

    def __len__(self) -> int:
        return self.features.shape[0]

    def all_class_ids(self) -> frozenset:
        out = set()
        for ls in self.labels:
            out |= ls
        return frozenset(out)

    def _side(self, mask):
        idx = np.nonzero(mask)[0]
        return self.features[idx], tuple(self.labels[i] for i in idx), idx

    def train_split(self):
        """(features, labels, original row indices) of the train side."""
        return self._side(self.is_train)

    def test_split(self):
        return self._side(~self.is_train)

    def train_classes(self) -> frozenset:
        out = set()
        for i in np.nonzero(self.is_train)[0]:
            out |= self.labels[i]
        return frozenset(out)


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
        labels.extend(frozenset({c}) for _ in range(cfg.per_class))
    features = np.vstack(feats)
    labels = list(labels)

    train_rows = [i for i, ls in enumerate(labels) if min(ls) in train_ids]
    n_swap = round(cfg.mislabel_frac * len(train_rows))
    if n_swap:
        swap_rows = rng.choice(len(train_rows), size=n_swap, replace=False)
        train_id_list = sorted(train_ids)
        for r_i in np.sort(swap_rows):
            row = train_rows[int(r_i)]
            current = min(labels[row])
            others = [c for c in train_id_list if c != current]
            labels[row] = frozenset({others[int(rng.integers(0, len(others)))]})

    return Dataset(features=features, labels=tuple(labels))


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def _format_label(ls: frozenset) -> str:
    return "|".join(str(c) for c in sorted(ls))


def save_csv(ds: Dataset, path):
    n, d = ds.features.shape
    with open(path, "w") as f:
        cols = ",".join(f"f{i}" for i in range(d))
        f.write(f"id,label,{cols}\n")
        for i in range(n):
            row = ",".join(repr(float(x)) for x in ds.features[i])
            f.write(f"{i},{_format_label(ds.labels[i])},{row}\n")


def _parse_label_cell(cell: str, lineno: int) -> frozenset:
    parts = cell.split("|")
    try:
        ids = frozenset(int(p) for p in parts)
    except ValueError:
        raise FormatError(f"line {lineno}: bad label cell {cell!r}") from None
    if not ids or any(c < 0 for c in ids):
        raise FormatError(f"line {lineno}: labels must be nonnegative ids, got {cell!r}")
    return ids


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
        for ls in ds.labels:
            ids = sorted(ls)
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
