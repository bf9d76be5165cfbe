"""Pair and triplet mining: semi-hard negatives and distance-weighted sampling.

Both strategies operate on a precomputed pairwise distance table (whatever
metric the caller trains with) plus per-sample label sets, so mixed samples
with two labels participate correctly: they are "positive" with either
source class and never get mined as negatives for them.
"""

from __future__ import annotations

import numpy as np

# labels_match stays importable here: perfbench counts calls at this name.
from idml.core import MiningExhausted, ParameterError, Rng, ShapeError, labels_match, match_matrix  # noqa: F401

__all__ = [
    "semi_hard_negative",
    "mine_triplets",
    "dw_log_weight",
    "dw_log_weights",
    "sample_negatives_dw",
    "sample_negatives_for_pairs",
]

# Distances between unit-norm embeddings live in (0, 2); the density edge
# values are clamped away from the poles before log evaluation.
D_CLAMP = 1e-4


def _check_dists(dists: np.ndarray, n_labels: int) -> np.ndarray:
    dists = np.asarray(dists, dtype=np.float64)
    if dists.ndim != 2 or dists.shape[0] != dists.shape[1]:
        raise ShapeError(f"distance table must be square, got {dists.shape}")
    if dists.shape[0] != n_labels:
        raise ShapeError(
            f"distance table is {dists.shape[0]}x{dists.shape[0]} for {n_labels} labels"
        )
    return dists


def _semi_hard_row(d_row: np.ndarray, match_row: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """Semi-hard negative per positive of one anchor, -1 where none qualifies.

    A candidate is a non-matching index n with d_row[n] > d_row[p]; the
    closest wins and ties go to the lowest index (argmin's first hit).
    Candidates at +inf or NaN never qualify.
    """
    neg_d = np.where(match_row, np.inf, d_row)
    cand = np.where(neg_d[None, :] > d_row[positives][:, None], neg_d[None, :], np.inf)
    best = np.argmin(cand, axis=1)
    return np.where(cand[np.arange(len(positives)), best] < np.inf, best, -1)


def semi_hard_negative(anchor: int, positive: int, dists, labels):
    """Closest negative still farther from the anchor than the positive.

    Returns the index minimizing D(a, n) subject to D(a, n) > D(a, p) and
    labels not matching, or None when no negative qualifies.
    """
    dists = _check_dists(dists, len(labels))
    best = _semi_hard_row(dists[anchor], match_matrix(labels)[anchor], np.array([positive]))[0]
    return None if best < 0 else int(best)


def mine_triplets(dists, labels):
    """Semi-hard triplets for every ordered (anchor, positive) pair.

    Returns (triplets, n_skipped): an (T, 3) int array of (a, p, n) rows,
    anchor-major with positives ascending, and the count of anchor-positive
    pairs whose qualifying negative set was empty (those contribute no loss
    term).
    """
    dists = _check_dists(dists, len(labels))
    m = match_matrix(labels)
    pos_m = m & ~np.eye(len(labels), dtype=bool)
    rows = []
    for a in np.flatnonzero(pos_m.any(axis=1)):
        pos = np.flatnonzero(pos_m[a])
        rows += [(a, p, n) for p, n in zip(pos, _semi_hard_row(dists[a], m[a], pos))]
    rows = np.array(rows, dtype=np.intp).reshape(-1, 3)
    found = rows[:, 2] >= 0
    return rows[found], int((~found).sum())


def dw_log_weight(d: float, n_dim: int, phi: float) -> float:
    """Log of the inverse-density sampling weight at distance d.

    The pairwise-distance density on the unit (n-1)-sphere is proportional
    to d^(n-2) * (1 - d^2/4)^((n-3)/2); sampling proportionally to its
    clamped inverse min(phi, 1/density) flattens the otherwise very peaked
    distance distribution. Evaluated fully in the log domain because
    d^(2-n) overflows for large n.
    """
    return float(dw_log_weights(np.array([d]), n_dim, phi)[0])


def dw_log_weights(d, n_dim: int, phi: float) -> np.ndarray:
    """Vectorized dw_log_weight; clamps d into [D_CLAMP, 2 - D_CLAMP]."""
    if n_dim < 1:
        raise ParameterError(f"n_dim must be positive, got {n_dim}")
    if phi <= 0:
        raise ParameterError(f"phi must be positive, got {phi}")
    d = np.clip(np.asarray(d, dtype=np.float64), D_CLAMP, 2.0 - D_CLAMP)
    lw = (2.0 - n_dim) * np.log(d) + ((3.0 - n_dim) / 2.0) * np.log1p(-0.25 * d * d)
    return np.minimum(np.log(phi), lw)


def sample_negatives_dw(anchor: int, dists, labels, n_dim: int, phi: float, rng: Rng) -> int:
    """Draw one negative for the anchor, distance-weighted.

    Selection probability is proportional to exp(dw_log_weight(D(a, n)))
    over the anchor's in-batch negatives, normalized after subtracting the
    max log weight for stability.
    """
    rows = sample_negatives_for_pairs([(anchor, anchor)], dists, labels, n_dim, phi, rng)
    if rows.shape[0] == 0:
        raise MiningExhausted(f"anchor {anchor} has no negatives in this batch")
    return int(rows[0, 1])


def sample_negatives_for_pairs(pos_pairs, dists, labels, n_dim: int, phi: float, rng: Rng):
    """One distance-weighted negative per positive pair, anchored at its first index.

    One `rng.choice` per pair, in pair order, as in `sample_negatives_dw`.
    Pairs whose anchor has no in-batch negative are skipped. Returns an
    (M, 2) int array of (anchor, negative) rows.
    """
    dists = _check_dists(dists, len(labels))
    m = match_matrix(labels)
    out = []
    for i in np.asarray(pos_pairs, dtype=np.intp).reshape(-1, 2)[:, 0]:
        neg = np.flatnonzero(~m[i])
        if neg.size == 0:
            continue
        lw = dw_log_weights(dists[i, neg], n_dim, phi)
        w = np.exp(lw - lw.max())
        p = w / w.sum()
        out.append((int(i), int(rng.choice(neg, p=p))))
    return np.array(out, dtype=np.intp).reshape(-1, 2)
