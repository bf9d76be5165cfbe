"""The introspective similarity metric family and its reference baselines.

Each sample is embedded twice: a semantic vector s and an uncertainty
vector u. For a pair, alpha = ||s1 - s2|| is the semantic distance and
beta = ||u1 + u2|| the pair uncertainty (vectors are summed before the
norm, so opposed uncertainties can cancel). Relative uncertainty
beta_rel = (beta + gamma) / alpha then attenuates the metric:

    distance form    D = alpha * exp(-beta_rel / tau)
    similarity form  C' = 1 - (1 - C) * exp(-beta_rel / tau)

An uncertain pair looks closer / more similar, so it pulls on the model
more gently. The module also provides the strict (indicator) variant, the
"treat uncertain as dissimilar" ablation, the sum-of-norms uncertainty
ablation, and the gradient attenuation factor H = dD/dalpha.

Every formula has one implementation, over tables: pairwise_* build the
alpha and beta tables (gram_panels builds them a row panel at a time), and
distance_table / similarity_table evaluate the selected metric and its
partials on them, distance_values the distance alone; a single pair is a
2-row table.
gradient_weight is the one scalar: the closed form of H that the gradient
checks hold the tables' dD/dalpha against.

Note D is not a metric in the strict sense: it can violate the triangle
inequality (tests construct an explicit counterexample).
"""

from __future__ import annotations

import numpy as np

from idml.core import MetricParams, ParameterError, block_rows

__all__ = [
    "METRIC_NAMES",
    "gradient_weight",
    "pairwise_semantic_distance",
    "pairwise_pair_uncertainty",
    "gram_panels",
    "distance_panels",
    "distance_values",
    "distance_table",
    "similarity_table",
]

# Selector values accepted by the losses and the harness. "euclidean" is the
# uncertainty-blind baseline (plain distance / plain cosine); "uncert_sumnorm"
# is the ISM with beta = ||u1|| + ||u2|| instead of ||u1 + u2||.
METRIC_NAMES = ("euclidean", "ism", "ism_strict", "ism_dis", "uncert_sumnorm")


def gradient_weight(alpha: float, beta: float, mp: MetricParams) -> float:
    """Gradient attenuation H = exp(-bt/tau) * (1 + bt/tau), bt = (beta+gamma)/alpha.

    Equals dD/dalpha of the introspective distance; maximal value 1 at
    bt = 0, strictly decreasing in bt. This is the factor by which the
    introspective loss scales the baseline loss's semantic gradient.
    """
    if alpha < mp.alpha_min:
        raise ParameterError(f"alpha must be >= alpha_min={mp.alpha_min}, got {alpha}")
    x = (beta + mp.gamma) / alpha / mp.tau
    return float(np.exp(-x) * (1.0 + x))


# ---------------------------------------------------------------------------
# Vectorized tables (the losses' entry points)
# ---------------------------------------------------------------------------


# Gram-form entries at or below this fraction of ||x_c||^2 + ||y_c||^2 (the
# centered rows' squared norms) have lost too many digits to cancellation
# and are recomputed from explicit differences.
_RECOMPUTE_RATIO = 1e-2
# Pairs per slice of that recompute: bounds its temporaries to slice x D.
_RECOMPUTE_SLICE = 2048


# Rows per panel of an N x N table built a panel at a time (`gram_panels`).
# Xc @ Xc.T at 3,000 x 512 on one BLAS thread (best of 7) took 91 ms as one
# symmetric product, and 260 / 175 / 153 / 131 / 128 ms in panels of 21 / 64
# / 128 / 256 / 512 rows; a 256-row panel is 6 MB at N = 3,000. A table of at
# most this many rows is one panel, the whole product.
PANEL_ROWS = 256


def _gram_operands(X: np.ndarray, Y: np.ndarray = None) -> tuple:
    """`_gram_distances`' arguments for rows X and Y (Y = None: Y = X).

    The rows are centered at the mean of both sets, so a common offset
    cancels before the product. In the self case Xc is passed as Yc, so that
    the whole product runs as one symmetric product and is exactly symmetric.
    """
    same = Y is None
    Y = X if same else Y
    center = (X if same else np.concatenate([X, Y])).mean(axis=0)
    Xc = X - center
    Yc = Xc if same else Y - center
    nx = np.einsum("ij,ij->i", Xc, Xc)
    ny = nx if same else np.einsum("ij,ij->i", Yc, Yc)
    return X, Y, Xc, nx, Yc, ny


def _gram_distances(X, Y, Xc, nx, Yc, ny, lo: int = 0, hi: int = None, root: bool = False) -> np.ndarray:
    """Squared distances between rows lo:hi of X and all rows of Y, from
    their shifted copies; their square roots if `root` is set.

    Xc and Yc are X and Y shifted by one common vector, nx and ny their rows'
    squared norms. The bulk is the Gram form nx + ny - 2 Xc.Yc; entries small
    enough for that form to have cancelled are recomputed from differences of
    the original rows, so coincident rows give exactly 0. The threshold is
    never negative, so every negative Gram entry is recomputed, and no entry
    needs a clamp at 0. The product is one GEMM over rows lo:hi, or one
    symmetric product for all rows of the self case. A panel's product can
    round differently from the whole one (OpenBLAS 0.3.31, Haswell kernels):
    256-row panels matched it bit for bit on Gaussian rows at 1,000 x 32,
    1,000 x 100, 3,000 x 100 and 3,000 x 512, and for beta's U against -U at
    600 x 3, 1,000 x 32, 2,000 x 64 and 3,000 x 512, but not at 500 x 16
    (1,374 entries differ), 777 x 33 (573) or 8,131 x 512 (22,162 of 66M);
    N was a multiple of 8 in every shape that matched. The rest runs one row
    block of `core.TABLE_BLOCK` entries at a time, with the block's nx + ny
    and its small-entry mask in two reused block-sized buffers, each entry
    through the same operations as over the whole table, the root last.
    """
    d2 = Xc[lo:hi] @ Yc.T
    rows = block_rows(d2.shape[1])
    scale = np.empty((min(rows, d2.shape[0]), d2.shape[1]))
    small = np.empty(scale.shape, dtype=bool)
    for b in range(0, d2.shape[0], rows):
        blk = d2[b : b + rows]
        s, sm = scale[: len(blk)], small[: len(blk)]
        np.add(nx[lo + b : lo + b + len(blk), None], ny[None, :], out=s)
        blk *= -2.0
        blk += s
        s *= _RECOMPUTE_RATIO
        if np.less_equal(blk, s, out=sm).any():
            # flat indices: a 2-D nonzero costs ten times as much per block
            flat = np.flatnonzero(sm)
            for at in range(0, flat.size, _RECOMPUTE_SLICE):
                r, c = np.divmod(flat[at : at + _RECOMPUTE_SLICE], d2.shape[1])
                diff = X[r + lo + b] - Y[c]
                blk[r, c] = np.einsum("ij,ij->i", diff, diff)
        if root:
            np.sqrt(blk, out=blk)
    return d2


def gram_panels(X: np.ndarray, Y: np.ndarray = None):
    """Yield (lo, panel): the Euclidean distances between rows lo:lo +
    PANEL_ROWS of X and all rows of Y (default Y = X), panel by panel, so
    that no (N, M) table is made. Each entry is `pairwise_semantic_distance`'s
    wherever the panel's product rounds as the whole one does (see
    `_gram_distances`); a table of at most PANEL_ROWS rows is one panel."""
    ops = _gram_operands(X, Y)
    for lo in range(0, len(X), PANEL_ROWS):
        yield lo, _gram_distances(*ops, lo=lo, hi=lo + PANEL_ROWS, root=True)


def pairwise_semantic_distance(S: np.ndarray, T: np.ndarray = None) -> np.ndarray:
    """All alpha values between rows of S and rows of T (default T = S).

    Computed through BLAS with an exact recompute of near-zero entries (see
    `_gram_distances`), so tiny distances keep full precision for the
    derivative checks.
    """
    S = np.asarray(S, dtype=np.float64)
    T = None if T is None else np.asarray(T, dtype=np.float64)
    return _gram_distances(*_gram_operands(S, T), root=True)


def pairwise_pair_uncertainty(U: np.ndarray, V: np.ndarray = None, sumnorm: bool = False) -> np.ndarray:
    """All beta values between rows of U and rows of V (default V = U).

    beta[i, j] = ||u_i + v_j||, the distance from u_i to -v_j, or
    ||u_i|| + ||v_j|| when sumnorm is set (the ablation representation).
    Opposed rows u_j = -u_i give exactly 0.
    """
    U = np.asarray(U, dtype=np.float64)
    V = U if V is None else np.asarray(V, dtype=np.float64)
    if sumnorm:
        nu = np.linalg.norm(U, axis=1)
        nv = np.linalg.norm(V, axis=1)
        return nu[:, None] + nv[None, :]
    return _gram_distances(*_gram_operands(U, -V), root=True)


def distance_panels(metric: str, S: np.ndarray, U: np.ndarray, mp: MetricParams):
    """Yield (lo, panel): rows lo:lo + PANEL_ROWS of the selected metric's
    distance table over the rows of S and U, that is of `distance_values` on
    `pairwise_semantic_distance(S)` and the metric's
    `pairwise_pair_uncertainty(U)`, panel by panel (see `gram_panels`)."""
    alpha = gram_panels(S)
    if metric == "euclidean":
        yield from alpha
        return
    if metric == "uncert_sumnorm":
        nu = np.linalg.norm(U, axis=1)
        beta = ((lo, nu[lo : lo + PANEL_ROWS, None] + nu[None, :]) for lo in range(0, len(U), PANEL_ROWS))
    else:
        beta = gram_panels(U, -U)
    for (lo, A), (_, B) in zip(alpha, beta):
        yield lo, distance_values(metric, A, B, mp)


def _beta_rel_parts(A: np.ndarray, B: np.ndarray, mp: MetricParams):
    """Common pieces: clamped denominator, beta_rel, exp(-beta_rel/tau)."""
    denom = np.maximum(A, mp.alpha_min)
    bt = (B + mp.gamma) / denom
    E = np.exp(-bt / mp.tau)
    return denom, bt, E


def distance_values(metric: str, A: np.ndarray, B: np.ndarray, mp: MetricParams, E: np.ndarray = None):
    """The selected metric's distance D alone, with no partials: the one
    formula of each metric's D, which `distance_table` returns too.

    A and B are as for `distance_table`. E, when the caller holds it, is
    exp(-beta_rel / tau) of the same A and B. For "euclidean" D is A itself.
    """
    if metric == "euclidean":
        return A
    if metric == "ism_strict":
        return A * _covers(A, B, mp)
    if metric not in ("ism", "uncert_sumnorm", "ism_dis"):
        raise ParameterError(f"unknown metric {metric!r}")
    E = _beta_rel_parts(A, B, mp)[2] if E is None else E
    # Uncertain pairs pushed apart under ism_dis: D = alpha * (2 - E), in [alpha, 2*alpha].
    return A * (2.0 - E) if metric == "ism_dis" else A * E


def _covers(A: np.ndarray, B: np.ndarray, mp: MetricParams) -> np.ndarray:
    """ism_strict's indicator: 1.0 where the distance exceeds the pair's
    uncertainty, 0.0 where the uncertainty covers it."""
    return (A - B - mp.gamma > 0).astype(np.float64)


def distance_table(metric: str, A: np.ndarray, B: np.ndarray, mp: MetricParams):
    """Distance matrix for the selected metric plus partials dD/dA and dD/dB.

    A holds pairwise semantic distances, B pairwise uncertainties (already in
    the representation the metric expects). D is `distance_values`'. For
    "ism_strict" the indicator is treated as locally constant by the partials.
    """
    if metric == "euclidean":
        return A.copy(), np.ones_like(A), np.zeros_like(A)
    if metric == "ism_strict":
        return distance_values(metric, A, B, mp), _covers(A, B, mp), np.zeros_like(A)
    denom, bt, E = _beta_rel_parts(A, B, mp)
    D = distance_values(metric, A, B, mp, E)
    # dD/dA of alpha * E: E everywhere, plus the beta_rel/alpha response where
    # the clamp is inactive. dD/dB = -A * E / (tau * denom).
    live = A > mp.alpha_min
    dAE_dA = E * (1.0 + np.where(live, bt / mp.tau, 0.0))
    dAE_dB = -A * E / (mp.tau * denom)
    if metric == "ism_dis":
        return D, 2.0 - dAE_dA, -dAE_dB
    return D, dAE_dA, dAE_dB


def similarity_table(metric: str, C: np.ndarray, A: np.ndarray, B: np.ndarray, mp: MetricParams):
    """Similarity matrix for the selected metric plus partials dC'/dC, dC'/dB.

    C holds plain cosine similarities of L2-normalized semantic embeddings
    and A their chord distances sqrt(max(2 - 2C, 0)), the pairs' alpha, so
    beta_rel lives on the same sphere as C. Partials are total derivatives
    (the alpha(C) path included).
    """
    if metric == "euclidean":
        return C.copy(), np.ones_like(C), np.zeros_like(C)
    denom, bt, E = _beta_rel_parts(A, B, mp)
    live = A > mp.alpha_min
    # dE/dC through alpha: dalpha/dC = -1/alpha, so dbt/dC = (B+gamma)/alpha^3 where live.
    dbt_dC = np.where(live, (B + mp.gamma) / (denom * denom * denom), 0.0)
    dE_dC = -E / mp.tau * dbt_dC
    dE_dB = -E / (mp.tau * denom)
    if metric in ("ism", "uncert_sumnorm"):
        return 1.0 - (1.0 - C) * E, E - (1.0 - C) * dE_dC, -(1.0 - C) * dE_dB
    if metric == "ism_dis":
        return C * E, E + C * dE_dC, C * dE_dB
    if metric == "ism_strict":
        ind = A - B - mp.gamma <= 0  # uncertainty covers the distance: fully similar
        Cs = np.where(ind, 1.0, C)
        return Cs, np.where(ind, 0.0, 1.0), np.zeros_like(C)
    raise ParameterError(f"unknown metric {metric!r}")
