"""Reference implementations used to cross-check the library.

Everything here is written independently of src/idml: scalar formulas go
through mpmath at high precision, rankings and clustering scores go through
plain-Python loops. Tests compare library output against these values, so
none of these helpers may import library internals beyond plain data.
"""

import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

mp.dps = 40


# ---------------------------------------------------------------------------
# Scalar formulas (mpmath route)
# ---------------------------------------------------------------------------


def pair_geometry_ref(s1, s2, u1, u2, gamma=0.0, alpha_min=1e-12):
    alpha = mp.sqrt(mp.fsum((mpf(a) - mpf(b)) ** 2 for a, b in zip(s1, s2)))
    beta = mp.sqrt(mp.fsum((mpf(a) + mpf(b)) ** 2 for a, b in zip(u1, u2)))
    beta_rel = (beta + mpf(gamma)) / max(alpha, mpf(alpha_min))
    return float(alpha), float(beta), float(beta_rel)


def ism_distance_ref(alpha, beta, gamma, tau, alpha_min=1e-12):
    a = mpf(alpha)
    beta_rel = (mpf(beta) + mpf(gamma)) / max(a, mpf(alpha_min))
    return float(a * mp.exp(-beta_rel / mpf(tau)))


def ism_similarity_ref(c, beta_rel, tau):
    return float(1 - (1 - mpf(c)) * mp.exp(-mpf(beta_rel) / mpf(tau)))


def ism_dissim_ref(c, beta_rel, tau):
    return float(mpf(c) * mp.exp(-mpf(beta_rel) / mpf(tau)))


def ism_dis_distance_ref(alpha, beta, gamma, tau, alpha_min=1e-12):
    a = mpf(alpha)
    beta_rel = (mpf(beta) + mpf(gamma)) / max(a, mpf(alpha_min))
    return float(a * (2 - mp.exp(-beta_rel / mpf(tau))))


def gradient_weight_ref(alpha, beta, gamma, tau, alpha_min=1e-12):
    a = mpf(alpha)
    beta_rel = (mpf(beta) + mpf(gamma)) / max(a, mpf(alpha_min))
    x = beta_rel / mpf(tau)
    return float(mp.exp(-x) * (1 + x))


def dw_log_weight_ref(d, n_dim, phi):
    dd = min(max(mpf(d), mpf("1e-4")), mpf(2) - mpf("1e-4"))
    raw = (2 - n_dim) * mp.log(dd) + ((3 - n_dim) / mpf(2)) * mp.log(1 - dd**2 / 4)
    return float(min(mp.log(mpf(phi)), raw))


# ---------------------------------------------------------------------------
# Gram-form squared distances (whole-table route)
# ---------------------------------------------------------------------------


def gram_distances_ref(X, Y, Xc, nx, Yc, ny, ratio=1e-2, recompute_slice=2048):
    """The Gram core's squared distances, each pass over the whole table.

    Same arguments and same float operations per entry as the library's
    row-blocked core: nx + ny - 2 Xc.Yc from one product, entries at or
    below `ratio` * (nx + ny) recomputed from explicit differences of X and
    Y in slices of `recompute_slice` pairs, then a clamp at 0. The blocked
    core must equal it bit for bit.
    """
    scale = nx[:, None] + ny[None, :]
    d2 = Xc @ Yc.T
    d2 *= -2.0
    d2 += scale
    scale *= ratio
    small = d2 <= scale
    if small.any():
        rows, cols = np.nonzero(small)
        for lo in range(0, rows.size, recompute_slice):
            r, c = rows[lo : lo + recompute_slice], cols[lo : lo + recompute_slice]
            diff = X[r] - Y[c]
            d2[r, c] = np.einsum("ij,ij->i", diff, diff)
    return np.maximum(d2, 0.0, out=d2)


# ---------------------------------------------------------------------------
# Training-step expressions (one fresh array per operation)
# ---------------------------------------------------------------------------

_TINY = 1e-300


def encoder_forward_ref(trunk, head_s, head_u, X):
    """(S, U, activations) of the tanh trunk `trunk`, a list of (W, b), and
    the two linear heads (W, b), one numpy expression per layer. The
    library's in-place forward must equal it bit for bit."""
    hs = [X]
    h = X
    for w, b in trunk:
        h = np.tanh(h @ w + b)
        hs.append(h)
    return h @ head_s[0] + head_s[1], h @ head_u[0] + head_u[1], hs


def encoder_backward_ref(trunk, head_s, head_u, hs, dS, dU):
    """Parameter gradients by name ("trunk.0.W", "head_s.b", ...) of the
    same network, from the activations `hs` and the embedding gradients,
    one numpy expression per result."""
    g = {}
    h_last = hs[-1]
    g["head_s.W"] = h_last.T @ dS
    g["head_s.b"] = dS.sum(axis=0)
    g["head_u.W"] = h_last.T @ dU
    g["head_u.b"] = dU.sum(axis=0)
    dh = dS @ head_s[0].T + dU @ head_u[0].T
    for i in range(len(trunk) - 1, -1, -1):
        dz = dh * (1.0 - hs[i + 1] ** 2)
        g[f"trunk.{i}.W"] = hs[i].T @ dz
        g[f"trunk.{i}.b"] = dz.sum(axis=0)
        if i:
            dh = dz @ trunk[i][0].T
    return g


def row_side_ref(Wa, Wb, A, B, X, Y, U, V, cosine, sumnorm):
    """Row gradients (dX, dU) of tables over X, U against Y, V, given the
    weights Wa = dL/dA (dL/dC when cosine) and Wb = dL/dB, one numpy
    expression per result."""
    if cosine:
        dX = Wa @ Y
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            Ga = np.where(A > 0, Wa / np.maximum(A, _TINY), 0.0)
        dX = Ga.sum(axis=1, keepdims=True) * X - Ga @ Y
    if sumnorm:
        nu = np.linalg.norm(U, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return dX, np.where(nu > 0, Wb.sum(axis=1) / np.maximum(nu, _TINY), 0.0)[:, None] * U
    with np.errstate(invalid="ignore", divide="ignore"):
        Gb = np.where(B > 0, Wb / np.maximum(B, _TINY), 0.0)
    return dX, Gb.sum(axis=1, keepdims=True) * U + Gb @ V


def denormalize_grad_ref(dXhat, Xhat, norms):
    """A gradient on unit rows pulled back through x -> x / ||x||."""
    proj = np.sum(dXhat * Xhat, axis=1, keepdims=True)
    return (dXhat - proj * Xhat) / np.maximum(norms, _TINY)[:, None]


# ---------------------------------------------------------------------------
# Ranking / clustering scores (plain-Python route)
# ---------------------------------------------------------------------------


def _match(a, b):
    return bool(frozenset(a) & frozenset(b))


def _neighbor_order(X, i):
    """Indices sorted by distance to row i, ties by index, query excluded."""
    d = [(math.dist(X[i], X[j]), j) for j in range(len(X)) if j != i]
    d.sort()
    return [j for _, j in d]


def recall_at_k_ref(X, labels, k):
    X = np.asarray(X, dtype=float)
    hits = 0
    for i in range(len(X)):
        order = _neighbor_order(X, i)[:k]
        if any(_match(labels[i], labels[j]) for j in order):
            hits += 1
    return hits / len(X)


def nmi_ref(labels, clusters):
    """Arithmetic-mean normalized mutual information from the contingency table."""
    labels = [int(x) for x in labels]
    clusters = [int(x) for x in clusters]
    n = len(labels)
    ls, cs = sorted(set(labels)), sorted(set(clusters))
    if len(ls) == 1 and len(cs) == 1:
        return 1.0
    counts = {}
    for a, b in zip(labels, clusters):
        counts[(a, b)] = counts.get((a, b), 0) + 1
    pl = {a: labels.count(a) / n for a in ls}
    pc = {b: clusters.count(b) / n for b in cs}
    mi = mpf(0)
    for (a, b), c in counts.items():
        p = mpf(c) / n
        mi += p * mp.log(p / (mpf(pl[a]) * mpf(pc[b])))
    hl = -mp.fsum(mpf(p) * mp.log(mpf(p)) for p in pl.values())
    hc = -mp.fsum(mpf(p) * mp.log(mpf(p)) for p in pc.values())
    if hl + hc == 0:
        return 1.0
    return float(2 * mi / (hl + hc))


def rp_map_ref(X, labels):
    """R-precision and MAP@R averaged over queries; single-sample classes skipped."""
    X = np.asarray(X, dtype=float)
    rps, maps = [], []
    for i in range(len(X)):
        r = sum(1 for j in range(len(X)) if j != i and _match(labels[i], labels[j]))
        if r == 0:
            continue
        order = _neighbor_order(X, i)[:r]
        rel = [1 if _match(labels[i], labels[j]) else 0 for j in order]
        rps.append(sum(rel) / r)
        ap = mpf(0)
        seen = 0
        for rank, flag in enumerate(rel, start=1):
            if flag:
                seen += 1
                ap += mpf(seen) / rank
        maps.append(float(ap / r))
    if not rps:
        return None
    return sum(rps) / len(rps), sum(maps) / len(maps)


def _scaled_ints(rows):
    """Rows of floats times one power of two that makes every entry an int."""
    rows = [[Fraction(float(v)) for v in row] for row in rows]
    scale = max((f.denominator for row in rows for f in row), default=1)
    return [[int(f * scale) for f in row] for row in rows]


def retrieval_ref(D, labels, ks):
    """({k: recall@k}, R-precision, MAP@R) from a full distance table `D`:
    each query's other rows sorted by (distance, index) in plain Python, and
    queries without a same-label other skipped by R-precision and MAP@R."""
    D = np.asarray(D, dtype=float).tolist()
    n = len(D)
    hits = {k: 0 for k in ks}
    rps, maps = [], []
    for i in range(n):
        order = [j for _, j in sorted((D[i][j], j) for j in range(n) if j != i)]
        rel = [_match(labels[i], labels[j]) for j in order]
        for k in ks:
            hits[k] += any(rel[:k])
        r = sum(rel)
        if r:
            rps.append(sum(rel[:r]) / r)
            seen, ap = 0, mpf(0)
            for rank, flag in enumerate(rel[:r], start=1):
                if flag:
                    seen += 1
                    ap += mpf(seen) / rank
            maps.append(float(ap / r))
    return {k: h / n for k, h in hits.items()}, sum(rps) / len(rps), sum(maps) / len(maps)


def metric_distances_ref(metric, S, U, gamma, tau, alpha_min=1e-12):
    """The (N, N) test-metric distances from explicit row differences: alpha
    = ||s_i - s_j||, beta = ||u_i + u_j|| (||u_i|| + ||u_j|| for
    uncert_sumnorm), then each metric's formula entry by entry."""
    S, U = np.asarray(S, dtype=float), np.asarray(U, dtype=float)
    alpha = np.sqrt(((S[:, None, :] - S[None, :, :]) ** 2).sum(axis=2))
    if metric == "euclidean":
        return alpha
    if metric == "uncert_sumnorm":
        norms = np.sqrt((U**2).sum(axis=1))
        beta = norms[:, None] + norms[None, :]
    else:
        beta = np.sqrt(((U[:, None, :] + U[None, :, :]) ** 2).sum(axis=2))
    att = np.exp(-(beta + gamma) / np.maximum(alpha, alpha_min) / tau)
    return alpha * (2 - att) if metric == "ism_dis" else alpha * att


def correlation_ref(rel_s, rel_u, knn_k):
    """Mean top-k Jaccard, mean reciprocal rank and mean cosine of paired rows.

    Each ranking sorts the other rows by (exact squared distance, index), so
    ties are judged in exact arithmetic: every float is a dyadic rational, so
    each space's entries are exact Python ints over one power-of-two scale,
    which orders, ties and takes cosines as the rationals do. Jaccard
    compares plain-Python sets of the two top-k lists; the rank is the
    1-based position of the semantic nearest neighbor in the full
    uncertainty ranking. A zero row's cosine is 0.
    """
    rel_s, rel_u = _scaled_ints(rel_s), _scaled_ints(rel_u)
    n = len(rel_s)

    def ranking(rows, i):
        d = [(sum((a - b) ** 2 for a, b in zip(rows[i], rows[j])), j) for j in range(n) if j != i]
        return [j for _, j in sorted(d)]

    jac, rr, cos = [], [], []
    for i in range(n):
        order_s, order_u = ranking(rel_s, i), ranking(rel_u, i)
        top_s, top_u = set(order_s[:knn_k]), set(order_u[:knn_k])
        jac.append(len(top_s & top_u) / len(top_s | top_u))
        rr.append(1.0 / (order_u.index(order_s[0]) + 1))
        ss = sum(a * a for a in rel_s[i])
        uu = sum(b * b for b in rel_u[i])
        su = sum(a * b for a, b in zip(rel_s[i], rel_u[i]))
        cos.append(float(su) / math.sqrt(float(ss * uu)) if ss and uu else 0.0)
    return {
        "jaccard": math.fsum(jac) / n,
        "mrr": math.fsum(rr) / n,
        "cosine": math.fsum(cos) / n,
    }


def kmeanspp_ref(X, k, rng, squared_distances):
    """k-means++ seeding of one restart, one center at a time.

    Each center after a uniformly drawn first one is `rng.choice(n, p=d2/total)`
    over the squared distances to the nearest center so far, or a uniform
    `rng.integers(0, n)` once that total is 0 (every row is already a center).
    """
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(0, n))]
    d2 = squared_distances(X, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(0, n))
        centers[c] = X[idx]
        d2 = np.minimum(d2, squared_distances(X, centers[c : c + 1])[:, 0])
    return centers


def kmeans_ref(X, k, rng, squared_distances, n_restarts=10, max_iter=100, restarts=None):
    """Restart-by-restart k-means: ++ seeding, then the Lloyd loop that
    recomputes every center mean on every iteration.

    `squared_distances(X, centers)` is the library's distance helper, passed
    in: the seeding and the loop are the reference. Each restart is seeded
    just before its own loop. Every empty cluster is re-seeded at the
    worst-served point on every iteration, and the inertia of each restart
    comes from a fresh distance table. A list passed as `restarts` receives
    each restart's (inertia, assignment).
    """
    X = np.asarray(X, dtype=np.float64)
    best_assign, best_inertia = None, np.inf
    for _ in range(n_restarts):
        centers = kmeanspp_ref(X, k, rng, squared_distances)
        assign = None
        for _ in range(max_iter):
            d2 = squared_distances(X, centers)
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
        d2 = squared_distances(X, centers)
        inertia = float(d2.min(axis=1).sum())
        if restarts is not None:
            restarts.append((inertia, assign))
        if inertia < best_inertia:
            best_inertia, best_assign = inertia, assign
    return best_assign


def semi_hard_ref(d_pos, neg_dists):
    """Smallest negative distance strictly above d_pos; None when none qualifies."""
    qualifying = [(d, j) for j, d in neg_dists if d > d_pos]
    if not qualifying:
        return None
    return min(qualifying)[1]


def pair_tables_ref(labels):
    """Label-matched and unmatched pairs i < j, as two (N, N) boolean tables."""
    n = len(labels)
    pos = [[i < j and _match(labels[i], labels[j]) for j in range(n)] for i in range(n)]
    neg = [[i < j and not _match(labels[i], labels[j]) for j in range(n)] for i in range(n)]
    return pos, neg


def ms_masks_ref(sims, labels, eps):
    """Pair-keep masks for the mining step, one anchor at a time.

    Keep a negative pair iff its similarity beats the anchor's weakest kept
    positive minus eps; keep a positive iff it falls below the strongest
    negative plus eps. Anchors missing one side keep the other untouched.
    """
    n = len(labels)
    pos_keep = [[False] * n for _ in range(n)]
    neg_keep = [[False] * n for _ in range(n)]
    for i in range(n):
        pos = [j for j in range(n) if j != i and _match(labels[i], labels[j])]
        neg = [j for j in range(n) if j != i and not _match(labels[i], labels[j])]
        for j in neg:
            if not pos or sims[i][j] > min(sims[i][p] for p in pos) - eps:
                neg_keep[i][j] = True
        for j in pos:
            if not neg or sims[i][j] < max(sims[i][p] for p in neg) + eps:
                pos_keep[i][j] = True
    return pos_keep, neg_keep


def dw_weights_ref(dists, n_dim, phi):
    """Normalized sampling weights over one anchor's negatives."""
    logs = [mpf(dw_log_weight_ref(d, n_dim, phi)) for d in dists]
    m = max(logs)
    ws = [mp.exp(x - m) for x in logs]
    z = mp.fsum(ws)
    return [float(w / z) for w in ws]


def dw_probabilities_ref(a, dists, labels, n_dim, phi):
    """Anchor a's negatives, ascending, and the p that `dw_negatives_ref`
    hands to `choice` for them.

    The weights repeat the library's float recipe step for step (clamp, log
    weight, max shift, normalize), since a byte-identical draw needs
    bit-identical p; `dw_weights_ref` checks those weights against mpmath
    separately.
    """
    neg = [j for j in range(len(labels)) if not _match(labels[a], labels[j])]
    neg = np.array(neg, dtype=np.intp)
    if neg.size == 0:
        return neg, np.empty(0)
    d = np.clip(np.asarray(dists, dtype=np.float64)[a, neg], 1e-4, 2.0 - 1e-4)
    lw = (2.0 - n_dim) * np.log(d) + ((3.0 - n_dim) / 2.0) * np.log1p(-0.25 * d * d)
    lw = np.minimum(np.log(phi), lw)
    w = np.exp(lw - lw.max())
    return neg, w / w.sum()


def dw_negatives_ref(pos_pairs, dists, labels, n_dim, phi, gen):
    """Per-pair distance-weighted draws: one `gen.choice(neg, p=p)` per pair.

    `gen` is a numpy Generator and p is `dw_probabilities_ref`'s. Anchors
    without a negative draw nothing.
    """
    out = []
    for a, _ in pos_pairs:
        neg, p = dw_probabilities_ref(a, dists, labels, n_dim, phi)
        if neg.size:
            out.append([int(a), int(gen.choice(neg, p=p))])
    return np.array(out, dtype=np.intp).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Augmentation (per-row route)
# ---------------------------------------------------------------------------


def augment_batch_ref(
    features,
    labels,
    is_mixed,
    gen,
    mix_lambda_dist,
    mix_fraction,
    blur_prob,
    noise_sigma,
):
    """Mix and blur a batch one row at a time; returns (features, labels, is_mixed).

    `gen` is a numpy Generator. Each mixed row draws i, j (up to 8 redraws
    of j for a partner with a different label set) and lam ~ Beta(a, a) in
    that order, blends lam * x_i + (1 - lam) * x_j and takes the label
    union. Then every row in turn is blurred (one uniform, then D normals if
    noise_sigma > 0).
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    feats = [X[r].copy() for r in range(n)]
    out_labels = [frozenset(l) for l in labels]
    mixed = [bool(m) for m in is_mixed]
    for _ in range(round(n * mix_fraction)):
        i = int(gen.integers(0, n))
        j = int(gen.integers(0, n))
        for _ in range(8):
            if j != i and out_labels[i] != out_labels[j]:
                break
            j = int(gen.integers(0, n))
        if j == i:
            j = (i + 1) % n
        lam = float(gen.beta(mix_lambda_dist, mix_lambda_dist))
        feats.append(lam * X[i] + (1.0 - lam) * X[j])
        out_labels.append(out_labels[i] | out_labels[j])
        mixed.append(True)

    out = []
    for x in feats:
        if blur_prob > 0 and gen.uniform(0.0, 1.0) < blur_prob and noise_sigma > 0:
            x = x + noise_sigma * gen.standard_normal(size=x.size)
        out.append(x)
    return np.stack(out), tuple(out_labels), np.array(mixed, dtype=bool)
