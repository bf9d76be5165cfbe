"""Retrieval / clustering metrics and the uncertainty diagnostics.

Everything here is deterministic: neighbor rankings break distance ties by
sample index (a stable top-k selection that ranks only as many neighbors as
the metrics read), and the k-means backend for NMI is seeded through the
shared Rng streams.

Test-time retrieval defaults to plain Euclidean distance over the semantic
embeddings; an alternate pair metric can be selected to measure how much
retrieval changes when uncertainty is kept in the loop at test time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from idml.core import (
    DegenerateInputError,
    MetricParams,
    NumericalFailure,
    ParameterError,
    Rng,
    ShapeError,
    label_set,  # noqa: F401  (stays importable: perfbench counts calls at this name)
    match_matrix,
    multi_hot,
)
from idml.metric import (
    METRIC_NAMES,
    _squared_distances,
    distance_table,
    pairwise_pair_uncertainty,
    pairwise_semantic_distance,
)

__all__ = [
    "EvalReport",
    "recall_at_k",
    "kmeans",
    "nmi",
    "r_precision_and_map_at_r",
    "uncertainty_levels",
    "pick_anchor_indices",
    "relative_embeddings",
    "correlation_stats",
    "neighbor_order",
    "evaluate",
]

DEFAULT_RECALL_KS = (1, 2, 4, 8)
DEFAULT_KNN_K = 10
DEFAULT_N_ANCHORS = 100


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def neighbor_order(dists: np.ndarray, k: int = None) -> np.ndarray:
    """(N, k) neighbor indices per row, nearest first, self excluded by index.

    Equal distances rank by sample index, so row i is the first k entries of
    a stable sort of row i without its diagonal; k = None ranks all N - 1.
    The k nearest are picked by partition and ordered by (distance, index).
    A row with more entries at or below its k-th value than k (a tie across
    the boundary) or a non-finite k-th value is stably sorted whole instead.
    An off-diagonal NaN or +inf raises NumericalFailure: it has no rank.
    """
    d = np.asarray(dists, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"expected a square distance matrix, got {d.shape}")
    n = d.shape[0]
    m = max(n - 1, 0)
    k = m if k is None else int(k)
    if not 0 <= k <= m:
        raise ParameterError(f"neighbor_order needs 0 <= k < n, got k={k}, n={n}")
    # row i without column i: column j of `off` is sample j + (j >= i)
    off = d[~np.eye(n, dtype=bool)].reshape(n, m)
    if not (off < np.inf).all():
        raise NumericalFailure("distance table has a NaN or +inf off the diagonal")
    if k == 0:
        return np.empty((n, 0), dtype=np.intp)
    top = np.argpartition(off, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(off, top, axis=1)
    kth = vals[:, k - 1]
    top = np.take_along_axis(top, np.lexsort((top, vals), axis=1), axis=1)
    ragged = ((off <= kth[:, None]).sum(axis=1) > k) | ~np.isfinite(kth)
    for i in np.nonzero(ragged)[0]:
        top[i] = np.argsort(off[i], kind="stable")[:k]
    return top + (top >= np.arange(n)[:, None])


# ---------------------------------------------------------------------------
# Retrieval metrics
# ---------------------------------------------------------------------------
#
# Both read the relevance table that `evaluate` gathers from its ranking:
# rel[i, j] is true iff query i shares a label with its (j + 1)-th nearest
# other sample.


def recall_at_k(rel: np.ndarray, k: int) -> float:
    """Fraction of queries whose k nearest others include a same-label sample."""
    n = rel.shape[0]
    if not 1 <= k < n:
        raise ParameterError(f"recall@k needs 1 <= k < n_samples, got k={k}, n={n}")
    if rel.shape[1] < k:
        raise ShapeError(f"recall@{k} needs {k} ranked neighbors, rel has {rel.shape[1]}")
    return int(rel[:, :k].any(axis=1).sum()) / n


def r_precision_and_map_at_r(rel: np.ndarray, counts: np.ndarray):
    """(R-precision, MAP@R) averaged over queries.

    counts[i] is query i's R, the number of other samples sharing a label
    with it; precision is measured among its top R neighbors, and MAP@R is
    (1/R)·Σ_{i≤R} P(i)·rel(i). Queries with no same-label counterpart are
    skipped (reported via a warning).
    """
    depth = int(counts.max(initial=0))
    if rel.shape[1] < depth:
        raise ShapeError(f"R = {depth} needs {depth} ranked neighbors, rel has {rel.shape[1]}")
    rps, maps = [], []
    n_skipped = 0
    for row, r in zip(rel, counts.tolist()):
        if r == 0:
            n_skipped += 1
            continue
        hit = row[:r]
        rps.append(hit.sum() / r)
        prec_at = np.cumsum(hit) / np.arange(1, r + 1)
        maps.append(float((prec_at * hit).sum() / r))
    if not rps:
        raise ParameterError("no query has a same-label counterpart")
    if n_skipped:
        warnings.warn(f"skipped {n_skipped} queries whose class has a single sample")
    return float(np.mean(rps)), float(np.mean(maps))


# ---------------------------------------------------------------------------
# Clustering / NMI
# ---------------------------------------------------------------------------


def _kmeanspp_init(X: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(0, n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(0, n))
        centers[c] = X[idx]
        d2 = np.minimum(d2, ((X - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans(X, k: int, rng: Rng, n_restarts: int = 10, max_iter: int = 100) -> np.ndarray:
    """Seeded Lloyd k-means with ++-style init; best of `n_restarts` by inertia."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected (N, D) points, got {X.shape}")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"kmeans needs 1 <= k <= n_samples, got k={k}, n={n}")
    best_assign, best_inertia = None, np.inf
    for _ in range(n_restarts):
        centers = _kmeanspp_init(X, k, rng)
        assign = None
        for _ in range(max_iter):
            d2 = _squared_distances(X, centers)
            new_assign = np.argmin(d2, axis=1)
            if assign is None:
                stale = np.ones(k, dtype=bool)
            else:
                moved = new_assign != assign
                if not moved.any():
                    break  # centers unchanged since d2: it scores this restart
                # a cluster no sample left or joined keeps its mean, bit for bit
                stale = np.zeros(k, dtype=bool)
                stale[assign[moved]] = True
                stale[new_assign[moved]] = True
            assign = new_assign
            stale |= np.bincount(assign, minlength=k) == 0
            for c in np.nonzero(stale)[0]:
                mask = assign == c
                if mask.any():
                    centers[c] = X[mask].mean(axis=0)
                else:
                    # re-seed an empty cluster at the worst-served point
                    centers[c] = X[int(np.argmax(d2.min(axis=1)))]
        else:
            d2 = _squared_distances(X, centers)
        inertia = float(d2.min(axis=1).sum())
        if inertia < best_inertia:
            best_inertia, best_assign = inertia, assign
    return best_assign


def nmi(labels, clusters) -> float:
    """Mutual information normalized by the arithmetic mean of the entropies."""
    labels = np.asarray(labels)
    clusters = np.asarray(clusters)
    if labels.shape != clusters.shape or labels.ndim != 1:
        raise ShapeError(f"label/cluster shape mismatch: {labels.shape} vs {clusters.shape}")
    n = labels.size
    if n == 0:
        raise ParameterError("nmi needs at least one sample")
    _, li = np.unique(labels, return_inverse=True)
    _, ci = np.unique(clusters, return_inverse=True)
    nl, nc = li.max() + 1, ci.max() + 1
    cont = np.zeros((nl, nc))
    np.add.at(cont, (li, ci), 1.0)
    p = cont / n
    pl = p.sum(axis=1)
    pc = p.sum(axis=0)
    hl = -float(np.sum(pl * np.log(pl, where=pl > 0, out=np.zeros_like(pl))))
    hc = -float(np.sum(pc * np.log(pc, where=pc > 0, out=np.zeros_like(pc))))
    if hl == 0.0 and hc == 0.0:
        return 1.0  # single label and single cluster carry the same (no) information
    nz = p > 0
    mi = float(np.sum(p[nz] * np.log(p[nz] / np.outer(pl, pc)[nz])))
    return 2.0 * mi / (hl + hc)


# ---------------------------------------------------------------------------
# Uncertainty diagnostics
# ---------------------------------------------------------------------------


def uncertainty_levels(U) -> np.ndarray:
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ShapeError(f"expected (N, D) uncertainty rows, got {U.shape}")
    return np.linalg.norm(U, axis=1)


def pick_anchor_indices(n: int, rng: Rng, k: int = DEFAULT_N_ANCHORS) -> np.ndarray:
    """k distinct sample indices drawn uniformly (clamped to the population)."""
    if n < 1:
        raise ParameterError("need at least one sample to pick anchors from")
    k = min(int(k), n)
    return np.sort(rng.choice(n, size=k, replace=False))


def relative_embeddings(E, anchors) -> np.ndarray:
    """Rows of cosine similarities against a fixed anchor set.

    A zero anchor is an error; a zero input row maps to the zero vector
    (cosine against everything taken as 0).
    """
    E = np.atleast_2d(np.asarray(E, dtype=np.float64))
    A = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    if A.shape[0] == 0:
        raise ParameterError("anchor set must be nonempty")
    if E.shape[1] != A.shape[1]:
        raise ShapeError(f"dim mismatch: embeddings {E.shape[1]} vs anchors {A.shape[1]}")
    anorm = np.linalg.norm(A, axis=1)
    bad = np.nonzero(anorm == 0.0)[0]
    if bad.size:
        raise DegenerateInputError(f"zero-norm anchor at index {bad[0]}")
    enorm = np.linalg.norm(E, axis=1)
    safe = np.where(enorm > 0.0, enorm, 1.0)
    rel = (E @ A.T) / (safe[:, None] * anorm[None, :])
    rel[enorm == 0.0] = 0.0
    return np.clip(rel, -1.0, 1.0)


def correlation_stats(rel_s, rel_u, knn_k: int = DEFAULT_KNN_K) -> dict:
    """How much the semantic and uncertainty neighborhoods agree.

    jaccard: mean top-k neighbor-set overlap between the two relative
    spaces; mrr: mean reciprocal rank, in the uncertainty-space ranking, of
    each sample's semantic-space nearest neighbor; cosine: mean cosine
    between paired relative rows.
    """
    rel_s = np.asarray(rel_s, dtype=np.float64)
    rel_u = np.asarray(rel_u, dtype=np.float64)
    if rel_s.shape[0] != rel_u.shape[0]:
        raise ShapeError(f"sample count mismatch: {rel_s.shape[0]} vs {rel_u.shape[0]}")
    n = rel_s.shape[0]
    if not 1 <= knn_k < n:
        raise ParameterError(f"knn_k must satisfy 1 <= k < n, got k={knn_k}, n={n}")
    order_s = neighbor_order(pairwise_semantic_distance(rel_s), knn_k)
    du = pairwise_semantic_distance(rel_u)
    order_u = neighbor_order(du, knn_k)
    # both top-k lists hold distinct indices: the overlap c gives |union| = 2k - c
    in_s = np.zeros((n, n), dtype=bool)
    np.put_along_axis(in_s, order_s, True, axis=1)
    common = np.take_along_axis(in_s, order_u, axis=1).sum(axis=1)
    jac = common / (2 * knn_k - common)
    # rank of the semantic nearest neighbor in the uncertainty ranking: the
    # entries before it in the stable order, self at +inf, plus one
    nn_s = order_s[:, 0]
    np.fill_diagonal(du, np.inf)
    t = du[np.arange(n), nn_s][:, None]
    earlier_tie = (du == t) & (np.arange(n)[None, :] < nn_s[:, None])
    rr = 1.0 / ((du < t).sum(axis=1) + earlier_tie.sum(axis=1) + 1)
    cos = []
    for i in range(n):  # row by row: a batched norm or dot rounds differently
        ns = np.linalg.norm(rel_s[i])
        nu = np.linalg.norm(rel_u[i])
        cos.append(float(rel_s[i] @ rel_u[i] / (ns * nu)) if ns > 0 and nu > 0 else 0.0)
    return {
        "jaccard": float(np.mean(jac)),
        "mrr": float(np.mean(rr)),
        "cosine": float(np.mean(cos)),
    }


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    """Retrieval, clustering, uncertainty, and correlation summary."""

    recall_at_k: dict
    nmi: float
    r_precision: float
    map_at_r: float
    mean_uncert_clean: float
    mean_uncert_mixed: float
    corr: dict

    def to_json_dict(self) -> dict:
        return {
            "recall_at_k": {str(k): v for k, v in sorted(self.recall_at_k.items())},
            "nmi": self.nmi,
            "r_precision": self.r_precision,
            "map_at_r": self.map_at_r,
            "mean_uncert_clean": self.mean_uncert_clean,
            "mean_uncert_mixed": self.mean_uncert_mixed,
            "corr": {k: self.corr[k] for k in ("jaccard", "mrr", "cosine")},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EvalReport":
        return cls(
            recall_at_k={int(k): float(v) for k, v in d["recall_at_k"].items()},
            nmi=float(d["nmi"]),
            r_precision=float(d["r_precision"]),
            map_at_r=float(d["map_at_r"]),
            mean_uncert_clean=float(d["mean_uncert_clean"]),
            mean_uncert_mixed=float(d["mean_uncert_mixed"]),
            corr={k: float(v) for k, v in d["corr"].items()},
        )

    def csv_header(self) -> str:
        ks = ",".join(f"recall@{k}" for k in sorted(self.recall_at_k))
        return (
            f"{ks},nmi,r_precision,map_at_r,uncert_clean,uncert_mixed,"
            "corr_jaccard,corr_mrr,corr_cosine"
        )

    def csv_row(self) -> str:
        vals = [self.recall_at_k[k] for k in sorted(self.recall_at_k)]
        vals += [
            self.nmi,
            self.r_precision,
            self.map_at_r,
            self.mean_uncert_clean,
            self.mean_uncert_mixed,
            self.corr["jaccard"],
            self.corr["mrr"],
            self.corr["cosine"],
        ]
        return ",".join(repr(float(v)) for v in vals)


def evaluate(
    semantic,
    uncertainty,
    labels,
    rng: Rng,
    ks=DEFAULT_RECALL_KS,
    knn_k: int = DEFAULT_KNN_K,
    n_anchors: int = DEFAULT_N_ANCHORS,
    mixed_uncertainty=None,
    test_metric: str = "euclidean",
    mp: MetricParams = None,
) -> EvalReport:
    """Full report over one (typically test) split.

    Ranking metrics run on `test_metric` distances (default: Euclidean over
    the semantic rows alone); k-means/NMI always clusters the semantic rows.
    `mixed_uncertainty` holds uncertainty rows of synthetically mixed
    samples; without them the mixed mean is reported as 0.
    """
    S = np.asarray(semantic, dtype=np.float64)
    U = np.asarray(uncertainty, dtype=np.float64)
    Y = multi_hot(labels)[0]
    if S.shape[0] != U.shape[0] or S.shape[0] != len(Y):
        raise ShapeError(
            f"sample count mismatch: {S.shape[0]} semantic, {U.shape[0]} "
            f"uncertainty, {len(Y)} labels"
        )
    if test_metric not in METRIC_NAMES:
        raise ParameterError(f"unknown test metric {test_metric!r}")
    mp = mp if mp is not None else MetricParams()

    A = pairwise_semantic_distance(S)
    if test_metric == "euclidean":
        D = A
    else:
        B = pairwise_pair_uncertainty(U, sumnorm=test_metric == "uncert_sumnorm")
        D, _, _ = distance_table(test_metric, A, B, mp)
    match = match_matrix(Y)
    counts = match.sum(axis=1) - 1  # R per query: a query is not its own counterpart
    # rank only as deep as recall@max(ks) and the largest R read
    depth = max([int(k) for k in ks] + [int(counts.max(initial=0))])
    rel = np.take_along_axis(match, neighbor_order(D, min(depth, len(Y) - 1)), axis=1)
    del match  # N² bytes that k-means and the correlation diagnostic do not need

    recalls = {int(k): recall_at_k(rel, int(k)) for k in ks}
    rp, map_r = r_precision_and_map_at_r(rel, counts)

    # NMI scores one class per sample: a multi-label row's first true column,
    # its smallest class id
    ids = Y.argmax(axis=1)
    clusters = kmeans(S, int(np.unique(ids).size), rng)
    nmi_val = nmi(ids, clusters)

    u_norms = uncertainty_levels(U)
    mean_clean = float(u_norms.mean())
    if mixed_uncertainty is not None and len(mixed_uncertainty) > 0:
        mean_mixed = float(uncertainty_levels(mixed_uncertainty).mean())
    else:
        mean_mixed = 0.0

    # Correlation between the two relative spaces, sharing one anchor index
    # set; rows that are zero in either space cannot anchor a cosine.
    valid = np.nonzero((np.linalg.norm(S, axis=1) > 0) & (u_norms > 0))[0]
    if valid.size == 0 or S.shape[0] <= knn_k:
        corr = {"jaccard": 0.0, "mrr": 0.0, "cosine": 0.0}
    else:
        picked = pick_anchor_indices(valid.size, rng, n_anchors)
        anchor_idx = valid[picked]
        rel_s = relative_embeddings(S, S[anchor_idx])
        rel_u = relative_embeddings(U, U[anchor_idx])
        corr = correlation_stats(rel_s, rel_u, knn_k=knn_k)

    return EvalReport(
        recall_at_k=recalls,
        nmi=nmi_val,
        r_precision=rp,
        map_at_r=map_r,
        mean_uncert_clean=mean_clean,
        mean_uncert_mixed=mean_mixed,
        corr=corr,
    )
