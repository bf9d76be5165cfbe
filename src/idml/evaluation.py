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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from idml.core import (
    DegenerateInputError,
    MetricParams,
    NumericalFailure,
    ParameterError,
    Rng,
    ShapeError,
    block_rows,
    label_rows,
    label_set,  # noqa: F401  (stays importable: perfbench counts calls at this name)
    match_rows,
)
from idml.metric import METRIC_NAMES, _gram_distances, distance_panels, gram_panels
from idml.metric import (  # noqa: F401  (stay importable: perfbench wraps calls at these names)
    distance_table,
    pairwise_pair_uncertainty,
    pairwise_semantic_distance,
)

__all__ = [
    "EvalReport",
    "check_scorable",
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

# The fixed protocol: recall depths, correlation top-k, shared anchor count
RECALL_KS = (1, 2, 4, 8)
KNN_K = 10
N_ANCHORS = 100


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def neighbor_order(dists: np.ndarray, k: int = None) -> np.ndarray:
    """(N, k) neighbor indices per row, nearest first, self excluded.

    Equal distances rank by sample index, so row i is the first k entries of
    a stable sort of row i without its diagonal; k = None ranks all N - 1.
    The table is ranked one row block of `core.TABLE_BLOCK` entries at a
    time by `_ranked_blocks`, each block copied first, so the caller's table
    is never written. An off-diagonal NaN or +inf raises NumericalFailure: it
    has no rank. `evaluate` ranks the same way, block by block of each panel
    of distances it builds, and never calls this.
    """
    d = np.asarray(dists, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"expected a square distance matrix, got {d.shape}")
    n = d.shape[0]
    m = max(n - 1, 0)
    k = m if k is None else int(k)
    if not 0 <= k <= m:
        raise ParameterError(f"neighbor_order needs 0 <= k < n, got k={k}, n={n}")
    top = np.empty((n, k), dtype=np.intp)
    rows = block_rows(n)
    blocks = ((lo, d[lo : lo + rows].copy()) for lo in range(0, n, rows))
    for lo, b, t in _ranked_blocks(blocks, k):
        top[lo : lo + len(b)] = t
    return top


def _rank_block(b: np.ndarray, lo: int, k: int) -> np.ndarray:
    """`neighbor_order`'s rows lo:lo + len(b) of an (N, N) distance table
    whose rows `b` holds. It writes +inf on their diagonal entries, which
    ranks self last, where k < N leaves it. A row's k nearest are picked by
    partition, put in index order, then stably sorted by distance: (distance,
    index) order. A row with more entries at or below its k-th value than k
    (a tie across the boundary) or a non-finite k-th value is stably sorted
    whole instead. An off-diagonal NaN or +inf raises NumericalFailure.
    """
    n = b.shape[1]
    b[np.arange(len(b)), np.arange(lo, lo + len(b))] = np.inf
    if np.count_nonzero(b < np.inf) != len(b) * (n - 1):
        raise NumericalFailure("distance table has a NaN or +inf off the diagonal")
    if k == 0:
        return np.empty((len(b), 0), dtype=np.intp)
    t = np.argpartition(b, k - 1, axis=1)[:, :k]
    t.sort(axis=1)
    vals = np.take_along_axis(b, t, axis=1)
    t = np.take_along_axis(t, vals.argsort(axis=1, kind="stable"), axis=1)
    kth = vals.max(axis=1)
    ragged = ((b <= kth[:, None]).sum(axis=1) > k) | ~np.isfinite(kth)
    for i in np.nonzero(ragged)[0]:
        t[i] = np.argsort(b[i], kind="stable")[:k]
    return t


def _ranked_blocks(panels, k: int):
    """Yield (lo, block, order) for each row block of `core.TABLE_BLOCK`
    entries of each (lo, panel) of an (N, N) distance table: the block's
    rows, +inf on their diagonal, and their `_rank_block` order to depth k.
    Each panel is used up before the next is built."""
    for lo, panel in panels:
        rows = block_rows(panel.shape[1])
        for at in range(0, len(panel), rows):
            b = panel[at : at + rows]
            yield lo + at, b, _rank_block(b, lo + at, k)


# ---------------------------------------------------------------------------
# Retrieval metrics
# ---------------------------------------------------------------------------
#
# Both read the relevance table that `evaluate` gathers from its ranking:
# rel[i, j] is true iff query i shares a label with its (j + 1)-th nearest
# other sample.


def check_scorable(Y):
    """Raise ParameterError unless `evaluate` can score the multi-hot label
    rows `Y`: it needs more rows than the largest of RECALL_KS, and a class
    with two rows, so that some query has a counterpart."""
    n, k = len(Y), max(RECALL_KS)
    if n <= k:
        raise ParameterError(f"a split of {n} rows cannot be scored: recall@{k} needs more than {k}")
    if not (np.asarray(Y).sum(axis=0) >= 2).any():
        raise ParameterError("no class has two rows in the split: no query has a same-label counterpart")


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
    scored = counts > 0
    if not scored.any():
        raise ParameterError("no query has a same-label counterpart")
    # one block of queries per distinct R: each row sums exactly its R
    # entries, as a loop over queries would, and lands at its query's index
    rps, maps = np.empty(len(counts)), np.empty(len(counts))
    for r in np.flatnonzero(np.bincount(counts[scored])).tolist():
        sel = np.nonzero(counts == r)[0]
        hit = rel[sel, :r]
        rps[sel] = hit.sum(axis=1) / r
        prec_at = np.cumsum(hit, axis=1) / np.arange(1, r + 1)
        maps[sel] = (prec_at * hit).sum(axis=1) / r
    if not scored.all():
        warnings.warn(f"skipped {np.count_nonzero(~scored)} queries whose class has a single sample")
    return float(np.mean(rps[scored])), float(np.mean(maps[scored]))


# ---------------------------------------------------------------------------
# Clustering / NMI
# ---------------------------------------------------------------------------


def _distances_to(X: np.ndarray):
    """A function from (m, D) centers to their (N, m) squared distances from
    X's rows. X is centered at its mean and its norms are taken once; the
    centers are shifted by that mean for the shared Gram core, so a center on
    a point is exactly 0 from it."""
    mean = X.mean(axis=0)
    Xc = X - mean
    nx = np.einsum("ij,ij->i", Xc, Xc)

    def to(C: np.ndarray) -> np.ndarray:
        Cc = C - mean
        return _gram_distances(X, C, Xc, nx, Cc, np.einsum("ij,ij->i", Cc, Cc))

    return to


def _seed_count(X: np.ndarray, k: int) -> int:
    """min(k, the number of rows of X that differ in value): how many ++
    seeds of a restart are drawn from the squared distances. One column's
    distinct values bound the distinct rows from below, so whole rows are
    compared only when that column has fewer than k, as C-ordered bytes; adding
    0.0 makes -0.0 equal to 0.0 in bytes, as it is in the Gram distance."""
    col = np.sort(X[:, 0])
    if 1 + np.count_nonzero(col[1:] != col[:-1]) >= k:
        return k
    rows = np.ascontiguousarray(X) + 0.0
    rows = np.sort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())
    return min(k, 1 + int(np.count_nonzero(rows[1:] != rows[:-1])))


def _kmeanspp_seeds(X: np.ndarray, k: int, rng: Rng, n_restarts: int, dist_to) -> np.ndarray:
    """The (n_restarts, k, D) ++ seeds, drawn in restart order and chosen in
    lockstep across restarts.

    Restart by restart, each seed after the first is `rng.choice(n, p=d2/total)`
    while some row is not yet a center, and `rng.integers(0, n)` after, when
    the total is 0. Distinct rows are never 0 apart, so the first `m` =
    `_seed_count` seeds are the choices, and each choice consumes one uniform:
    a restart's whole stream is one `integers`, `random(m - 1)` and
    `integers(size=k - m)`. Each ++ step then takes one distance product for
    all restarts' new centers and picks through `choice`'s own CDF.
    """
    n = X.shape[0]
    m = _seed_count(X, k)
    picks = np.empty((n_restarts, k), dtype=np.intp)
    u = np.empty((n_restarts, m - 1))
    for r in range(n_restarts):
        picks[r, 0] = rng.integers(0, n)
        u[r] = rng.random(m - 1)
        picks[r, m:] = rng.integers(0, n, size=k - m)
    d2 = np.ascontiguousarray(dist_to(X[picks[:, 0]]).T)
    for c in range(1, m):
        total = d2.sum(axis=1)
        if not np.isfinite(total).all():
            raise NumericalFailure("kmeans distances overflowed: a ++ seeding total is not finite")
        if not (total > 0.0).all():
            raise NumericalFailure("kmeans distances underflowed: points that differ are 0 apart")
        cdf = np.cumsum(d2 / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(u, side="right") on each nondecreasing row, as `choice` does
        picks[:, c] = (cdf <= u[:, c - 1, None]).sum(axis=1)
        if c + 1 < m:
            np.minimum(d2, dist_to(X[picks[:, c]]).T, out=d2)
    return X[picks]


def kmeans(X, k: int, rng: Rng, n_restarts: int = 10, max_iter: int = 100) -> np.ndarray:
    """Seeded Lloyd k-means with ++-style init; best of `n_restarts` by inertia.

    Every restart's seeds are drawn first, in restart order, which is the Rng
    stream of seeding each restart just before its own Lloyd loop. Lloyd
    draws nothing, so the restarts then iterate in lockstep: one distance
    table per iteration against the stacked centers of every live restart,
    N x live·k floats, and a restart leaves once its assignment stops moving.
    A restart's clusters are read from one stable sort of its assignment.
    The first restart of least inertia wins.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ShapeError(f"expected (N, D) points with D >= 1, got {X.shape}")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"kmeans needs 1 <= k <= n_samples, got k={k}, n={n}")
    if n_restarts < 1 or max_iter < 1:
        raise ParameterError(
            f"kmeans needs n_restarts >= 1 and max_iter >= 1, got {n_restarts} and {max_iter}"
        )
    if not np.isfinite(X).all():
        raise NumericalFailure("kmeans points have a NaN or an infinity")
    dist_to = _distances_to(X)
    centers = _kmeanspp_seeds(X, k, rng, n_restarts, dist_to)
    assign = np.empty((n_restarts, n), dtype=np.intp)
    inertia = np.empty(n_restarts)
    live = list(range(n_restarts))
    for it in range(max_iter + 1):
        d2_all = dist_to(centers[live].reshape(-1, X.shape[1])).reshape(n, len(live), k)
        new_all = np.ascontiguousarray(np.argmin(d2_all, axis=2).T)
        moving = []
        for j, r in enumerate(live):
            d2, new_assign = d2_all[:, j], new_all[j]
            if it == 0:
                stale = np.ones(k, dtype=bool)
            else:
                moved = new_assign != assign[r]
                if it == max_iter or not moved.any():
                    # centers unchanged since d2: it scores this restart, summed
                    # as its own length-N vector (a sum down the live axis
                    # rounds differently and can flip a tie between restarts)
                    inertia[r] = d2.min(axis=1).sum()
                    continue
                # a cluster no sample left or joined keeps its mean, bit for bit
                stale = np.zeros(k, dtype=bool)
                stale[assign[r][moved]] = True
                stale[new_assign[moved]] = True
            assign[r] = new_assign
            counts = np.bincount(new_assign, minlength=k)
            stale &= counts > 0
            if stale.any():
                # each cluster's members in index order: the rows and the
                # order of X[mask], so its sum and mean are X[mask].mean's bits
                members = np.argsort(new_assign.astype(np.min_scalar_type(k)), kind="stable")
                ends = np.cumsum(counts)
                for c in np.flatnonzero(stale):
                    np.add.reduce(X[members[ends[c] - counts[c] : ends[c]]], axis=0, out=centers[r, c])
                centers[r, stale] /= counts[stale, None]
            if not counts.all():
                # re-seed every empty cluster at the worst-served point
                centers[r, counts == 0] = X[int(np.argmax(d2.min(axis=1)))]
            moving.append(r)
        if not moving:
            break
        live = moving
    if not np.isfinite(inertia).all():
        raise NumericalFailure("kmeans distances overflowed: a restart has no finite inertia")
    return assign[int(np.argmin(inertia))]


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


def pick_anchor_indices(n: int, rng: Rng) -> np.ndarray:
    """N_ANCHORS distinct sample indices drawn uniformly (all n if fewer)."""
    if n < 1:
        raise ParameterError("need at least one sample to pick anchors from")
    return np.sort(rng.choice(n, size=min(N_ANCHORS, n), replace=False))


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


def correlation_stats(rel_s, rel_u, knn_k: int = KNN_K) -> dict:
    """How much the semantic and uncertainty neighborhoods agree.

    jaccard: mean top-k neighbor-set overlap between the two relative
    spaces; mrr: mean reciprocal rank, in the uncertainty-space ranking, of
    each sample's semantic-space nearest neighbor; cosine: mean cosine
    between paired relative rows. Each space's Euclidean distances are built
    a row panel at a time (`metric.gram_panels`) and ranked as
    `neighbor_order` ranks them: first the semantic space, then the
    uncertainty space, whose panels also give the MRR ranks. No (N, N) table
    is made.
    """
    rel_s = np.asarray(rel_s, dtype=np.float64)
    rel_u = np.asarray(rel_u, dtype=np.float64)
    if rel_s.shape[0] != rel_u.shape[0]:
        raise ShapeError(f"sample count mismatch: {rel_s.shape[0]} vs {rel_u.shape[0]}")
    n = rel_s.shape[0]
    if not 1 <= knn_k < n:
        raise ParameterError(f"knn_k must satisfy 1 <= k < n, got k={knn_k}, n={n}")
    order_s = np.empty((n, knn_k), dtype=np.intp)
    for lo, _, t in _ranked_blocks(gram_panels(rel_s), knn_k):
        order_s[lo : lo + len(t)] = t
    # the uncertainty ranking, and in the same pass the rank of each row's
    # semantic nearest neighbor in it: the entries before it in the stable
    # order, self at +inf, plus one
    nn_s = order_s[:, 0, None]
    order_u = np.empty_like(order_s)
    before = np.empty(n, dtype=np.intp)
    j = np.arange(n)
    for lo, du, t in _ranked_blocks(gram_panels(rel_u), knn_k):
        hi = lo + len(t)
        order_u[lo:hi] = t
        at = np.take_along_axis(du, nn_s[lo:hi], axis=1)
        ahead = (du < at) | ((du == at) & (j < nn_s[lo:hi]))
        before[lo:hi] = np.count_nonzero(ahead, axis=1)
    # both top-k lists hold distinct indices: the overlap c gives |union| = 2k - c
    common = (order_u[:, :, None] == order_s[:, None, :]).sum(axis=(1, 2))
    jac = common / (2 * knn_k - common)
    rr = 1.0 / (before + 1)
    # stacked 1 x 1 products run the dot kernel of np.linalg.norm and @ on one
    # row, so each row's norms and cosine keep a per-row loop's bits
    ns = np.sqrt(np.matmul(rel_s[:, None, :], rel_s[:, :, None])[:, 0, 0])
    nu = np.sqrt(np.matmul(rel_u[:, None, :], rel_u[:, :, None])[:, 0, 0])
    su = np.matmul(rel_s[:, None, :], rel_u[:, :, None])[:, 0, 0]
    cos = np.divide(su, ns * nu, out=np.zeros(n), where=(ns > 0) & (nu > 0))
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
    """Retrieval, clustering, uncertainty, and correlation summary.

    eval.json's keys are these fields. sweep.csv's columns are too, in this
    order, under the `column` name a field's metadata gives; a dict field is
    one column per key, in the dict's own order, named by formatting the key.
    """

    recall_at_k: dict = field(metadata={"column": "recall@{}"})
    nmi: float
    r_precision: float
    map_at_r: float
    mean_uncert_clean: float = field(metadata={"column": "uncert_clean"})
    mean_uncert_mixed: float = field(metadata={"column": "uncert_mixed"})
    corr: dict = field(metadata={"column": "corr_{}"})

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["recall_at_k"] = {str(k): v for k, v in self.recall_at_k.items()}
        return d

    def columns(self) -> list:
        """sweep.csv's (column, value) pairs for this report."""
        out = []
        for f in fields(self):
            name, v = f.metadata.get("column", f.name), getattr(self, f.name)
            if isinstance(v, dict):
                out += [(name.format(k), x) for k, x in v.items()]
            else:
                out.append((name, v))
        return out


def evaluate(
    semantic,
    uncertainty,
    Y,
    rng: Rng,
    mixed_uncertainty=None,
    test_metric: str = "euclidean",
    mp: MetricParams = None,
) -> EvalReport:
    """Full report over one (typically test) split.

    `Y` holds the samples' multi-hot label rows (a `Dataset` split's). Ranking
    metrics run on `test_metric` distances (default: Euclidean over the
    semantic rows alone), built and ranked a row panel at a time
    (`metric.distance_panels`), so no (N, N) table is made; k-means/NMI
    always clusters the semantic rows.
    `mixed_uncertainty` holds uncertainty rows of synthetically mixed
    samples; without them the mixed mean is reported as 0.
    """
    S = np.asarray(semantic, dtype=np.float64)
    U = np.asarray(uncertainty, dtype=np.float64)
    if S.shape[0] != U.shape[0]:
        raise ShapeError(f"sample count mismatch: {S.shape[0]} semantic, {U.shape[0]} uncertainty")
    Y = label_rows(Y, S.shape[0])
    check_scorable(Y)
    if test_metric not in METRIC_NAMES:
        raise ParameterError(f"unknown test metric {test_metric!r}")
    mp = mp if mp is not None else MetricParams()

    # R per query, from one pass over the match table's row blocks: a query
    # is not its own counterpart
    Yf = Y.astype(np.float64)
    n, rows = len(Y), block_rows(len(Y))
    counts = np.concatenate([match_rows(Yf, lo, lo + rows).sum(axis=1) for lo in range(0, n, rows)]) - 1
    # rel[i, j] is true iff query i shares a label with its (j + 1)-th nearest
    # other sample, ranked only as deep as recall@max(RECALL_KS) and the
    # largest R read, one ranked block of each distance panel at a time. Each
    # ranked pair is matched from its two label rows, so only `depth` of a
    # query's N matches are computed
    depth = min(max(max(RECALL_KS), int(counts.max(initial=0))), n - 1)
    rel = np.empty((n, depth), dtype=bool)
    for lo, _, order in _ranked_blocks(distance_panels(test_metric, S, U, mp), depth):
        rel[lo : lo + len(order)] = (Y[order] & Y[lo : lo + len(order), None, :]).any(axis=2)

    recalls = {k: recall_at_k(rel, k) for k in RECALL_KS}
    rp, map_r = r_precision_and_map_at_r(rel, counts)

    # NMI scores one class per sample: a multi-label row's first true column,
    # its smallest class id (only the partition matters, not the id values)
    ids = Y.argmax(axis=1)
    clusters = kmeans(S, int(np.count_nonzero(np.bincount(ids))), rng)
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
    if valid.size == 0 or S.shape[0] <= KNN_K:
        corr = {"jaccard": 0.0, "mrr": 0.0, "cosine": 0.0}
    else:
        anchor_idx = valid[pick_anchor_indices(valid.size, rng)]
        rel_s = relative_embeddings(S, S[anchor_idx])
        rel_u = relative_embeddings(U, U[anchor_idx])
        corr = correlation_stats(rel_s, rel_u)

    return EvalReport(
        recall_at_k=recalls,
        nmi=nmi_val,
        r_precision=rp,
        map_at_r=map_r,
        mean_uncert_clean=mean_clean,
        mean_uncert_mixed=mean_mixed,
        corr=corr,
    )
