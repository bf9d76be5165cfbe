"""Retrieval / clustering metrics and the uncertainty diagnostics.

Everything here is deterministic: neighbor rankings break distance ties by
sample index (stable sort), and the k-means backend for NMI is seeded
through the shared Rng streams.

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
    ParameterError,
    Rng,
    ShapeError,
    label_set,
    match_matrix,
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
# Shared ranking plumbing
# ---------------------------------------------------------------------------


def _as_labelsets(labels) -> tuple:
    return tuple(ls if isinstance(ls, frozenset) else label_set(ls) for ls in labels)


def neighbor_order(dists: np.ndarray) -> np.ndarray:
    """(N, N-1) neighbor indices per row, nearest first, self excluded.

    Stable sort: equal distances rank by sample index.
    """
    d = np.array(dists, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"expected a square distance matrix, got {d.shape}")
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")
    return order[:, :-1]


def _semantic_order(embeddings) -> tuple:
    S = np.asarray(embeddings, dtype=np.float64)
    if S.ndim != 2:
        raise ShapeError(f"expected (N, D) embeddings, got {S.shape}")
    return neighbor_order(pairwise_semantic_distance(S)), S


# ---------------------------------------------------------------------------
# Retrieval metrics
# ---------------------------------------------------------------------------


def recall_at_k(
    embeddings, labels, k: int, order: np.ndarray = None, match: np.ndarray = None
) -> float:
    """Fraction of queries whose k nearest others include a same-label sample.

    `order` and `match` take a precomputed `neighbor_order` and
    `match_matrix(labels)`, so callers scoring several k build them once.
    """
    labelsets = _as_labelsets(labels)
    n = len(labelsets)
    if order is None:
        order, S = _semantic_order(embeddings)
        if S.shape[0] != n:
            raise ShapeError(f"{S.shape[0]} embeddings vs {n} labels")
    if not 1 <= k < n:
        raise ParameterError(f"recall@k needs 1 <= k < n_samples, got k={k}, n={n}")
    if match is None:
        match = match_matrix(labelsets)
    hits = int(match[np.arange(n)[:, None], order[:, :k]].any(axis=1).sum())
    return hits / n


def r_precision_and_map_at_r(
    embeddings, labels, order: np.ndarray = None, match: np.ndarray = None
):
    """(R-precision, MAP@R) averaged over queries.

    Per query, R counts same-label others; precision is measured among the
    top R neighbors, and MAP@R is (1/R)·Σ_{i≤R} P(i)·rel(i). Queries with no
    same-label counterpart are skipped (reported via a warning). `order`
    and `match` work as in `recall_at_k`.
    """
    labelsets = _as_labelsets(labels)
    n = len(labelsets)
    if order is None:
        order, S = _semantic_order(embeddings)
        if S.shape[0] != n:
            raise ShapeError(f"{S.shape[0]} embeddings vs {n} labels")
    if match is None:
        match = match_matrix(labelsets)
    # a query is not its own counterpart; `order` already leaves it out
    counts = match.sum(axis=1) - match.diagonal()
    rps, maps = [], []
    n_skipped = 0
    for i in range(n):
        r = int(counts[i])
        if r == 0:
            n_skipped += 1
            continue
        rel = match[i, order[i, :r]]
        rps.append(rel.sum() / r)
        prec_at = np.cumsum(rel) / np.arange(1, r + 1)
        maps.append(float((prec_at * rel).sum() / r))
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
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for c in range(k):
                mask = assign == c
                if mask.any():
                    centers[c] = X[mask].mean(axis=0)
                else:
                    # re-seed an empty cluster at the worst-served point
                    centers[c] = X[int(np.argmax(d2.min(axis=1)))]
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
    order_s = neighbor_order(pairwise_semantic_distance(rel_s))
    order_u = neighbor_order(pairwise_semantic_distance(rel_u))
    jac, rr, cos = [], [], []
    for i in range(n):
        top_s = set(order_s[i, :knn_k].tolist())
        top_u = set(order_u[i, :knn_k].tolist())
        jac.append(len(top_s & top_u) / len(top_s | top_u))
        nn_s = order_s[i, 0]
        rank = int(np.nonzero(order_u[i] == nn_s)[0][0]) + 1
        rr.append(1.0 / rank)
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


def _canonical_int_labels(labelsets) -> np.ndarray:
    return np.array([min(ls) for ls in labelsets], dtype=np.int64)


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
    labelsets = _as_labelsets(labels)
    if S.shape[0] != U.shape[0] or S.shape[0] != len(labelsets):
        raise ShapeError(
            f"sample count mismatch: {S.shape[0]} semantic, {U.shape[0]} "
            f"uncertainty, {len(labelsets)} labels"
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
    order = neighbor_order(D)

    match = match_matrix(labelsets)
    recalls = {int(k): recall_at_k(S, labelsets, int(k), order=order, match=match) for k in ks}
    rp, map_r = r_precision_and_map_at_r(S, labelsets, order=order, match=match)
    del match  # N² bytes that k-means and the correlation diagnostic do not need

    ints = _canonical_int_labels(labelsets)
    n_classes = int(np.unique(ints).size)
    clusters = kmeans(S, n_classes, rng)
    nmi_val = nmi(ints, clusters)

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
