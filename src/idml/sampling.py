"""Pair and triplet mining: semi-hard negatives and distance-weighted sampling.

Both strategies operate on a precomputed pairwise distance table (whatever
metric the caller trains with) plus the batch's label match table
(`core.match_matrix`), so mixed samples with two labels participate
correctly: they are "positive" with either source class and never get mined
as negatives for them.

Distance-weighted negatives are drawn by inverse CDF from one table with a
row per distinct anchor: its negatives left-packed in index order, their
weights, and the CDF built from them the way `Generator.choice` builds it,
padded past each row's negative count. One uniform per pair from a single
RNG call then picks from the pair's anchor row, byte-identical to one
`Generator.choice(neg, p=p)` per pair in pair order.
"""

from __future__ import annotations

import numpy as np

# labels_match stays importable here: perfbench counts calls at this name.
from idml.core import ParameterError, Rng, ShapeError, labels_match  # noqa: F401

__all__ = [
    "mine_triplets",
    "dw_log_weights",
    "sample_negatives_for_pairs",
]

# Distances between unit-norm embeddings live in (0, 2); the density edge
# values are clamped away from the poles before log evaluation.
D_CLAMP = 1e-4


def _check_dists(dists: np.ndarray, match: np.ndarray) -> np.ndarray:
    dists = np.asarray(dists, dtype=np.float64)
    if dists.ndim != 2 or dists.shape[0] != dists.shape[1]:
        raise ShapeError(f"distance table must be square, got {dists.shape}")
    if dists.shape != match.shape:
        raise ShapeError(f"distance table is {dists.shape} for a {match.shape} match table")
    return dists


def mine_triplets(dists, match):
    """Semi-hard triplets for every ordered (anchor, positive) pair.

    `match` is the batch's `match_matrix`. The negative for (a, p) is the
    non-matching n closest to a with dists[a, n] > dists[a, p]; ties go to
    the lowest index, and a candidate at +inf or NaN never qualifies.
    Returns (triplets, n_skipped): an (T, 3) int array of (a, p, n) rows,
    anchor-major with positives ascending, and the count of anchor-positive
    pairs whose qualifying negative set was empty (those contribute no loss
    term).
    """
    dists = _check_dists(dists, match)
    a, p = np.nonzero(match & ~np.eye(len(match), dtype=bool))
    neg_d = np.where(match, np.inf, dists)[a]
    cand = np.where(neg_d > dists[a, p][:, None], neg_d, np.inf)
    n = np.argmin(cand, axis=1)
    found = cand[np.arange(len(a)), n] < np.inf
    return np.stack([a, p, n], axis=1)[found], int((~found).sum())


def dw_log_weights(d, n_dim: int, phi: float) -> np.ndarray:
    """Log of the inverse-density sampling weight at each distance in d.

    The pairwise-distance density on the unit (n-1)-sphere is proportional
    to d^(n-2) * (1 - d^2/4)^((n-3)/2); sampling proportionally to its
    clamped inverse min(phi, 1/density) flattens the otherwise very peaked
    distance distribution. d is clamped into [D_CLAMP, 2 - D_CLAMP] and the
    weight evaluated fully in the log domain, because d^(2-n) overflows for
    large n.
    """
    if n_dim < 1:
        raise ParameterError(f"n_dim must be positive, got {n_dim}")
    if phi <= 0:
        raise ParameterError(f"phi must be positive, got {phi}")
    d = np.clip(np.asarray(d, dtype=np.float64), D_CLAMP, 2.0 - D_CLAMP)
    lw = (2.0 - n_dim) * np.log(d) + ((3.0 - n_dim) / 2.0) * np.log1p(-0.25 * d * d)
    return np.minimum(np.log(phi), lw)


def sample_negatives_for_pairs(pos_pairs, dists, match, n_dim: int, phi: float, rng: Rng):
    """One distance-weighted negative per positive pair, anchored at its first index.

    Draws exactly what one `rng.choice(neg, p=p)` per pair, in pair order,
    would draw, from one `rng.random(M)` call. Pairs whose anchor has no
    in-batch negative are skipped and draw nothing. A NaN distance to a
    negative raises ValueError, as `choice` does. Returns an (M, 2) int
    array of (anchor, negative) rows. `match` is the batch's `match_matrix`.
    """
    dists = _check_dists(dists, match)
    n = len(match)
    anchors = np.asarray(pos_pairs, dtype=np.intp).reshape(-1, 2)[:, 0]
    anchors = anchors[~match.all(axis=1)[anchors]]
    rows = np.flatnonzero(np.bincount(anchors, minlength=n))  # distinct anchors, ascending
    # Row r holds anchor rows[r]'s k[r] negatives in index order, then its
    # matches; only the first k[r] entries of a row are live.
    negs = np.argsort(match[rows], axis=1, kind="stable")
    k = n - match[rows].sum(axis=1)
    live = np.arange(n) < k[:, None]
    lw = dw_log_weights(np.take_along_axis(dists[rows], negs, axis=1), n_dim, phi)
    lw = np.where(live, lw, -np.inf)
    w = np.exp(lw - lw.max(axis=1, initial=-np.inf)[:, None])
    # `choice` sums each row's own k entries; numpy's pairwise sum blocks by
    # length, so rows are summed per negative count, never over the padding
    total = np.empty(len(rows))
    for count in np.flatnonzero(np.bincount(k)):
        sel = k == count
        total[sel] = w[sel, :count].sum(axis=1)
    p = w / total[:, None]
    bad = ~np.isfinite(p).all(axis=1)  # w = exp(.) is never negative
    if bad.any():
        raise ValueError(f"anchor {rows[bad.argmax()]}: sampling probabilities must be finite")
    c = p.cumsum(axis=1)
    # padding is +inf, so it is never at or below a uniform in [0, 1)
    cdf = np.where(live, c / c[np.arange(len(rows)), k - 1][:, None], np.inf)
    u = rng.random(anchors.size)
    r = np.searchsorted(rows, anchors)
    # searchsorted(u, side="right") on a nondecreasing row
    picks = (cdf[r] <= u[:, None]).sum(axis=1)
    return np.stack([anchors, negs[r, picks]], axis=1)
