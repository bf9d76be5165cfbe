"""Seven metric-learning losses, each pluggable over the metric family.

Every loss works on a batch of embedding pairs (semantic rows S, uncertainty
rows U) with per-sample label sets, and reports its value together with
analytic gradients with respect to S, U, and (for proxy losses) the proxy
vectors. Swapping the metric selector between "euclidean" and the
introspective variants changes values and gradients but nothing structural,
so baseline and uncertainty-aware runs share one code path.

Discrete choices — mined triplets, distance-weighted negative draws, the
multi-similarity mask — are made once per batch by ``build_plan`` and then
held fixed, which makes the planned loss a (piecewise-)smooth function of
the embeddings; hinge and norm kinks are reported as ``kink_margin`` so the
gradient checker can resample batches that sit on a corner.

Every loss runs in three pieces. One table step (``_tables``), shared by
planning and evaluation, builds the semantic distance A, the pair
uncertainty B and the selected metric's table with its partials. A small
head per loss maps the tables and the plan to its terms and to weights on
dL/dA (or dL/dC) and dL/dB. One pull-back (``_pull_back``) turns those
weights into gradients on the rows and proxies.

Distance-form losses (contrastive, margin_dw, triplet_sh, proxy_nca) use
the raw semantic Euclidean distance; cosine-form losses (multi_similarity,
softmax_proxy, proxy_anchor) and margin_dw L2-normalize semantic embeddings
first (distance-weighted sampling assumes distances in (0, 2)), with the
pair's alpha taken as the chord distance on the sphere. Uncertainty
embeddings are never normalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# label_set stays importable here: perfbench counts calls at this name.
from idml.core import MetricParams, ParameterError, Rng, ShapeError, label_set, match_matrix, multi_hot  # noqa: F401
from idml.metric import (
    METRIC_NAMES,
    distance_table,
    pairwise_pair_uncertainty,
    pairwise_semantic_distance,
    similarity_table,
)
from idml.sampling import mine_triplets, sample_negatives_for_pairs

__all__ = [
    "LOSS_NAMES",
    "PROXY_LOSSES",
    "NORMALIZED_LOSSES",
    "LossParams",
    "default_loss_params",
    "ProxySet",
    "Plan",
    "LossResult",
    "build_plan",
    "evaluate_loss",
    "compute_loss",
]

LOSS_NAMES = (
    "contrastive",
    "margin_dw",
    "triplet_sh",
    "multi_similarity",
    "softmax_proxy",
    "proxy_nca",
    "proxy_anchor",
)
PROXY_LOSSES = frozenset({"softmax_proxy", "proxy_nca", "proxy_anchor"})
# Losses that L2-normalize semantic embeddings (cosine-form, plus margin_dw
# whose sampler needs unit-sphere distances).
NORMALIZED_LOSSES = frozenset({"margin_dw", "multi_similarity", "softmax_proxy", "proxy_anchor"})
# Losses whose head reads a similarity table C' of the cosine C.
_COSINE_LOSSES = NORMALIZED_LOSSES - {"margin_dw"}

_TINY = 1e-300  # safe-divide floor; gradients at exact norm kinks are defined as 0


@dataclass(frozen=True)
class LossParams:
    """Hyperparameters shared across the loss family.

    margin_delta doubles as the contrastive margin and the triplet ranking
    margin (conventional defaults differ; see default_loss_params).
    """

    margin_delta: float = 1.0
    margin_xi: float = 0.5
    margin_omega: float = 1.4
    phi: float = 10.0
    ms_eps: float = 0.1
    ms_alpha: float = 2.0
    ms_beta: float = 50.0
    ms_lambda: float = 1.0
    pa_alpha: float = 32.0
    pa_delta: float = 0.1

    def __post_init__(self):
        for name in ("phi", "ms_alpha", "ms_beta", "pa_alpha"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("margin_delta", "margin_xi", "margin_omega", "ms_eps", "pa_delta"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative, got {getattr(self, name)}")


def default_loss_params(loss: str, **overrides) -> LossParams:
    """LossParams with the loss's conventional margin (triplet uses 0.2)."""
    if loss == "triplet_sh":
        overrides.setdefault("margin_delta", 0.2)
    return LossParams(**overrides)


@dataclass
class ProxySet:
    """One learnable representative per class: a semantic and an uncertainty vector."""

    semantic: np.ndarray
    uncertainty: np.ndarray
    classes: tuple

    def __post_init__(self):
        self.semantic = np.asarray(self.semantic, dtype=np.float64)
        self.uncertainty = np.asarray(self.uncertainty, dtype=np.float64)
        self.classes = tuple(int(c) for c in self.classes)
        if self.semantic.ndim != 2 or self.uncertainty.ndim != 2:
            raise ShapeError("proxy arrays must be 2-D (one row per class)")
        if not (len(self.classes) == self.semantic.shape[0] == self.uncertainty.shape[0]):
            raise ShapeError("one semantic and one uncertainty row per proxy class")
        if len(set(self.classes)) != len(self.classes):
            raise ParameterError("proxy classes must be unique")

    def __len__(self) -> int:
        return len(self.classes)


@dataclass
class Plan:
    """Frozen per-batch choices; evaluate_loss is smooth given a fixed Plan."""

    loss: str
    pos_pairs: np.ndarray = None  # (P, 2) i<j label-matched pairs
    neg_pairs: np.ndarray = None  # (Q, 2) i<j unmatched pairs
    dw_negatives: np.ndarray = None  # (M, 2) (anchor, sampled negative)
    triplets: np.ndarray = None  # (T, 3) (anchor, positive, semi-hard negative)
    n_skipped: int = 0  # mining-exhausted (a, p) pairs for triplet_sh
    ms_pos_mask: np.ndarray = None  # (N, N) surviving positive pairs per anchor row
    ms_neg_mask: np.ndarray = None
    proxy_pos: np.ndarray = None  # (N, K) sample-proxy label matches
    proxy_neg: np.ndarray = None


@dataclass
class LossResult:
    """Loss value, per-term diagnostics, and analytic gradients."""

    value: float
    pair_terms: np.ndarray
    d_semantic: np.ndarray
    d_uncertainty: np.ndarray
    d_proxy_semantic: np.ndarray = None
    d_proxy_uncertainty: np.ndarray = None
    kink_margin: float = np.inf
    plan: Plan = field(default=None, repr=False)
    # Uncertainty rows the loss was evaluated at (set by model.loss_and_grad).
    uncertainty: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


def _pair_lists(match):
    """All unordered pairs, split by the label match table."""
    iu, ju = np.triu_indices(len(match), k=1)
    matched = match[iu, ju]
    pos = np.stack([iu[matched], ju[matched]], axis=1)
    neg = np.stack([iu[~matched], ju[~matched]], axis=1)
    return pos.astype(np.intp), neg.astype(np.intp)


def _normalize_rows(X: np.ndarray):
    norms = np.linalg.norm(X, axis=1)
    safe = np.maximum(norms, _TINY)
    return X / safe[:, None], norms


def _denormalize_grad(dXhat: np.ndarray, Xhat: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pull a gradient on unit rows back through x -> x/||x||."""
    proj = np.sum(dXhat * Xhat, axis=1, keepdims=True)
    return (dXhat - proj * Xhat) / np.maximum(norms, _TINY)[:, None]


class _Tables(NamedTuple):
    """One loss's rows and tables: batch rows X, U against proxy rows Y, V.

    Y and V are None when the batch is paired with itself.
    """

    X: np.ndarray  # semantic rows, unit rows for NORMALIZED_LOSSES
    U: np.ndarray
    Y: np.ndarray
    V: np.ndarray
    norms: np.ndarray  # raw row norms of X, None when not normalized
    pnorms: np.ndarray  # raw row norms of Y, likewise
    A: np.ndarray  # semantic distance
    B: np.ndarray  # pair uncertainty
    M: np.ndarray  # metric table: distance D, or similarity C' for _COSINE_LOSSES
    dM: np.ndarray  # dM/dA, or dC'/dC for _COSINE_LOSSES
    dMb: np.ndarray  # dM/dB


def _tables(loss, S, U, metric, mp, proxies) -> _Tables:
    """The one table step of planning and evaluation; nothing is cached between calls.

    Cosine-form losses take C = X Y^T and the chord distance A = sqrt(2 - 2C);
    the others take A = ||x_i - y_j||.
    """
    Y = V = norms = pnorms = None
    if loss in PROXY_LOSSES:
        Y, V = proxies.semantic, proxies.uncertainty
    if loss in NORMALIZED_LOSSES:
        S, norms = _normalize_rows(S)
        if Y is not None:
            Y, pnorms = _normalize_rows(Y)
    cosine = loss in _COSINE_LOSSES
    if cosine:
        C = np.clip(S @ (S if Y is None else Y).T, -1.0, 1.0)
        A = np.sqrt(np.maximum(2.0 - 2.0 * C, 0.0))
    else:
        A = pairwise_semantic_distance(S, Y)
    B = pairwise_pair_uncertainty(U, V, sumnorm=metric == "uncert_sumnorm")
    M = similarity_table(metric, C, A, B, mp) if cosine else distance_table(metric, A, B, mp)
    return _Tables(S, U, Y, V, norms, pnorms, A, B, *M)


def _row_side(Wa, Wb, A, B, X, Y, U, V, cosine: bool, sumnorm: bool):
    """Gradients on the rows X, U of tables built from X, U against Y, V.

    Wa[i, j] = dL/dA[i, j] (dL/dC[i, j] when cosine) and Wb[i, j] = dL/dB[i, j].
    Uses dA/dx_i = (x_i - y_j)/A, dC/dx_i = y_j and dB/du_i = (u_i + v_j)/B,
    or u_i/||u_i|| for the sum of norms; each is 0 at a zero denominator.
    """
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


def _pull_back(t: _Tables, Wa, Wb, cosine: bool, sumnorm: bool):
    """(dS, dU, dPS, dPU) from the head's weights on the tables.

    A self table takes the row side only: its heads mirror or symmetrize
    their weights, so row i carries every pair that i is in. A proxy table
    also takes its column side, onto the proxy rows.
    """
    Y, V = (t.X, t.U) if t.Y is None else (t.Y, t.V)
    dX, dU = _row_side(Wa, Wb, t.A, t.B, t.X, Y, t.U, V, cosine, sumnorm)
    dY = dV = None
    if t.Y is not None:
        dY, dV = _row_side(Wa.T, Wb.T, t.A.T, t.B.T, t.Y, t.X, t.V, t.U, cosine, sumnorm)
    if t.norms is not None:
        dX = _denormalize_grad(dX, t.X, t.norms)
        if t.Y is not None:
            dY = _denormalize_grad(dY, t.Y, t.pnorms)
    return dX, dU, dY, dV


def _accumulate_sym(W, idx_a, idx_b, weights):
    """Add each pair's weight at both (a, b) and (b, a)."""
    np.add.at(W, (idx_a, idx_b), weights)
    np.add.at(W, (idx_b, idx_a), weights)


def _min_or_inf(values) -> float:
    values = np.asarray(values, dtype=np.float64).ravel()
    return float(values.min()) if values.size else np.inf


def _proxy_masks(Y, classes, proxies: ProxySet):
    """(N, K) sample-proxy label matches: the batch's multi-hot columns placed at their proxies."""
    missing = set(classes) - set(proxies.classes)
    if missing:
        raise ParameterError(f"proxy set lacks classes {sorted(missing)}")
    col = {c: k for k, c in enumerate(proxies.classes)}
    pos = np.zeros((len(Y), len(proxies)), dtype=bool)
    pos[:, [col[c] for c in classes]] = Y
    return pos, ~pos


# ---------------------------------------------------------------------------
# Planning (the discrete choices, frozen per batch)
# ---------------------------------------------------------------------------


def build_plan(
    loss: str,
    S,
    U,
    labels,
    metric: str = "ism",
    mp: MetricParams = None,
    lp: LossParams = None,
    proxies: ProxySet = None,
    rng: Rng = None,
) -> Plan:
    """Make the batch's discrete choices for `loss` and freeze them.

    margin_dw and triplet_sh consult the selected metric's distance table
    for their sampling; multi_similarity computes its mining mask from the
    selected similarity table. The labels are converted once, to multi-hot
    rows: the pair losses build from them the match table that every one of
    these choices reads, and the proxy losses place them at their proxies.
    `rng` is only required for margin_dw.
    """
    if loss not in LOSS_NAMES:
        raise ParameterError(f"unknown loss {loss!r}")
    if metric not in METRIC_NAMES:
        raise ParameterError(f"unknown metric {metric!r}")
    S = np.asarray(S, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    if len(labels) != S.shape[0] or len(labels) == 0:
        raise ParameterError("need one label set per embedding row, batch nonempty")
    mp = mp or MetricParams()
    lp = lp or default_loss_params(loss)
    plan = Plan(loss=loss)
    Y, classes = multi_hot(labels)
    match = None if loss in PROXY_LOSSES else match_matrix(Y)

    if loss in ("contrastive", "margin_dw", "triplet_sh"):
        plan.pos_pairs, plan.neg_pairs = _pair_lists(match)

    if loss == "margin_dw":
        if plan.pos_pairs.shape[0] == 0:
            raise ParameterError("margin_dw needs at least one positive pair")
        if rng is None:
            raise ParameterError("margin_dw planning needs an rng for its negative sampling")
        D = _tables(loss, S, U, metric, mp, proxies).M
        plan.dw_negatives = sample_negatives_for_pairs(
            plan.pos_pairs, D, match, n_dim=S.shape[1], phi=lp.phi, rng=rng
        )
    elif loss == "triplet_sh":
        D = _tables(loss, S, U, metric, mp, proxies).M
        plan.triplets, plan.n_skipped = mine_triplets(D, match)
    elif loss == "multi_similarity":
        Cs = _tables(loss, S, U, metric, mp, proxies).M
        plan.ms_pos_mask, plan.ms_neg_mask = _ms_mining_masks(Cs, match, lp.ms_eps)
    elif loss in PROXY_LOSSES:
        if proxies is None or len(proxies) == 0:
            raise ParameterError(f"{loss} needs a nonempty proxy set")
        plan.proxy_pos, plan.proxy_neg = _proxy_masks(Y, classes, proxies)
        if loss in ("softmax_proxy", "proxy_nca") and not plan.proxy_neg.any(axis=1).all():
            raise ParameterError(f"{loss} needs at least one negative proxy per sample")
    return plan


def _ms_mining_masks(Cs: np.ndarray, match: np.ndarray, eps: float):
    """Surviving pairs per anchor under the informative-pair mining rule.

    A negative (i, j) survives iff Cs[i, j] > min over i's positives - eps
    (it is at least as hard as the weakest positive); a positive survives
    iff Cs[i, j] < max over i's negatives + eps. An anchor with no
    counterpart set keeps its pairs vacuously.
    """
    pos, neg = match & ~np.eye(len(match), dtype=bool), ~match
    min_pos = np.where(pos, Cs, np.inf).min(axis=1, keepdims=True)
    max_neg = np.where(neg, Cs, -np.inf).max(axis=1, keepdims=True)
    neg_keep = neg & ((Cs > min_pos - eps) | ~pos.any(axis=1, keepdims=True))
    pos_keep = pos & ((Cs < max_neg + eps) | ~neg.any(axis=1, keepdims=True))
    return pos_keep, neg_keep


# ---------------------------------------------------------------------------
# Evaluation (smooth given a plan)
# ---------------------------------------------------------------------------


def evaluate_loss(
    loss: str,
    S,
    U,
    plan: Plan,
    metric: str = "ism",
    mp: MetricParams = None,
    lp: LossParams = None,
    proxies: ProxySet = None,
) -> LossResult:
    """Value and analytic gradients of `loss` under the frozen `plan`."""
    S = np.asarray(S, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    mp = mp or MetricParams()
    lp = lp or default_loss_params(loss)
    if plan is None or plan.loss != loss:
        raise ParameterError("evaluate_loss needs a plan built for the same loss")
    t = _tables(loss, S, U, metric, mp, proxies)
    terms, Wa, Wb, used, gaps = _HEADS[loss](t, plan, lp)
    dS, dU, dPS, dPU = _pull_back(t, Wa, Wb, loss in _COSINE_LOSSES, metric == "uncert_sumnorm")
    if t.Y is None:
        used = used | used.T
    kinks = [np.abs(g) for g in gaps] + [n for n in (t.norms, t.pnorms) if n is not None]
    margin = min([_min_or_inf(k) for k in kinks] + [_kink_margin_tables(t.A, t.B, used, metric, mp)])
    return LossResult(
        value=float(np.sum(terms)),
        pair_terms=terms,
        d_semantic=dS,
        d_uncertainty=dU,
        d_proxy_semantic=dPS,
        d_proxy_uncertainty=dPU,
        kink_margin=margin,
        plan=plan,
    )


def compute_loss(
    loss: str,
    S,
    U,
    labels,
    metric: str = "ism",
    mp: MetricParams = None,
    lp: LossParams = None,
    proxies: ProxySet = None,
    rng: Rng = None,
) -> LossResult:
    """build_plan + evaluate_loss in one call (the training-step path)."""
    plan = build_plan(loss, S, U, labels, metric=metric, mp=mp, lp=lp, proxies=proxies, rng=rng)
    return evaluate_loss(loss, S, U, plan, metric=metric, mp=mp, lp=lp, proxies=proxies)


def _kink_margin_tables(A, B, used, metric: str, mp: MetricParams) -> float:
    """Distance-to-nearest-kink of the metric tables over the pairs in play.

    Norm kinks sit at alpha = 0 and (for metrics reading B) beta = 0; the
    strict variant adds its indicator boundary |alpha - beta - gamma|.
    """
    if not used.any():
        return np.inf
    m = _min_or_inf(A[used])
    if metric != "euclidean":
        m = min(m, _min_or_inf(B[used]))
    if metric == "ism_strict":
        m = min(m, _min_or_inf(np.abs(A[used] - B[used] - mp.gamma)))
    return m


# ---------------------------------------------------------------------------
# Loss heads: (tables, plan, params) -> (terms, dL/dA or dL/dC, dL/dB, pairs
# in play, hinge gaps). Distance heads mirror each pair's weight across the
# diagonal; multi_similarity symmetrizes after multiplying by the partials.
# A distance head's pairs in play are its nonzero weights: positive and
# negative pairs never share a cell, so +1 and -1 never cancel.
# ---------------------------------------------------------------------------


def _contrastive(t, plan, lp):
    pos, neg = plan.pos_pairs, plan.neg_pairs
    neg_gap = lp.margin_delta - t.M[neg[:, 0], neg[:, 1]]
    W = np.zeros_like(t.A)
    _accumulate_sym(W, pos[:, 0], pos[:, 1], np.ones(len(pos)))
    _accumulate_sym(W, neg[:, 0], neg[:, 1], np.where(neg_gap > 0, -1.0, 0.0))
    terms = np.concatenate([t.M[pos[:, 0], pos[:, 1]], np.maximum(neg_gap, 0.0)])
    return terms, W * t.dM, W * t.dMb, W != 0, [neg_gap]


def _margin_dw(t, plan, lp):
    pos, neg = plan.pos_pairs, plan.dw_negatives
    pos_gap = t.M[pos[:, 0], pos[:, 1]] - lp.margin_xi
    neg_gap = lp.margin_omega - t.M[neg[:, 0], neg[:, 1]]
    W = np.zeros_like(t.A)
    _accumulate_sym(W, pos[:, 0], pos[:, 1], np.where(pos_gap > 0, 1.0, 0.0))
    _accumulate_sym(W, neg[:, 0], neg[:, 1], np.where(neg_gap > 0, -1.0, 0.0))
    terms = np.concatenate([np.maximum(pos_gap, 0.0), np.maximum(neg_gap, 0.0)])
    return terms, W * t.dM, W * t.dMb, W != 0, [pos_gap, neg_gap]


def _triplet_sh(t, plan, lp):
    a, p, n = plan.triplets.T
    gap = t.M[a, p] - t.M[a, n] + lp.margin_delta
    w = np.where(gap > 0, 1.0, 0.0)
    W = np.zeros_like(t.A)
    _accumulate_sym(W, a, p, w)
    _accumulate_sym(W, a, n, -w)
    return np.maximum(gap, 0.0), W * t.dM, W * t.dMb, W != 0, [gap]


def _multi_similarity(t, plan, lp):
    n = t.M.shape[0]
    posm, negm = plan.ms_pos_mask, plan.ms_neg_mask
    ep = np.where(posm, np.exp(-lp.ms_alpha * (t.M - lp.ms_lambda)), 0.0)
    en = np.where(negm, np.exp(lp.ms_beta * (t.M - lp.ms_lambda)), 0.0)
    sp = ep.sum(axis=1)
    sn = en.sum(axis=1)
    terms = (np.log1p(sp) / lp.ms_alpha + np.log1p(sn) / lp.ms_beta) / n
    # dterm/dCs for kept pairs; anchors are rows.
    Wc = (-ep / (1.0 + sp)[:, None] + en / (1.0 + sn)[:, None]) / n
    Wa, Wb = Wc * t.dM, Wc * t.dMb
    return terms, Wa + Wa.T, Wb + Wb.T, posm | negm, []


def _softmax_proxy(t, plan, lp):
    posm, negm = plan.proxy_pos, plan.proxy_neg
    ep = np.where(posm, np.exp(t.M), 0.0)
    en = np.where(negm, np.exp(t.M), 0.0)
    sp = ep.sum(axis=1)
    sn = en.sum(axis=1)
    n = t.M.shape[0]
    Wc = (-ep / sp[:, None] + en / sn[:, None]) / n
    return (np.log(sn) - np.log(sp)) / n, Wc * t.dM, Wc * t.dMb, posm | negm, []


def _proxy_nca(t, plan, lp):
    posm, negm = plan.proxy_pos, plan.proxy_neg
    ep = np.where(posm, np.exp(-t.M), 0.0)
    en = np.where(negm, np.exp(-t.M), 0.0)
    sp = ep.sum(axis=1)
    sn = en.sum(axis=1)
    # d(-D) path: dterm/dD = +softmax within positives, -softmax within negatives.
    W = ep / sp[:, None] - en / sn[:, None]
    return np.log(sn) - np.log(sp), W * t.dM, W * t.dMb, posm | negm, []


def _proxy_anchor(t, plan, lp):
    posm, negm = plan.proxy_pos, plan.proxy_neg
    plus = posm.any(axis=0)  # proxies with a positive sample in the batch
    n_plus = max(int(plus.sum()), 1)
    n_all = posm.shape[1]
    ep = np.where(posm, np.exp(-lp.pa_alpha * (t.M - lp.pa_delta)), 0.0)
    en = np.where(negm, np.exp(lp.pa_alpha * (t.M + lp.pa_delta)), 0.0)
    sp = ep.sum(axis=0)  # per proxy
    sn = en.sum(axis=0)
    terms = np.concatenate([np.log1p(sp[plus]) / n_plus, np.log1p(sn) / n_all])
    Wc = np.zeros_like(t.M)
    Wc += np.where(posm & plus[None, :], -lp.pa_alpha * ep / (1.0 + sp)[None, :] / n_plus, 0.0)
    Wc += np.where(negm, lp.pa_alpha * en / (1.0 + sn)[None, :] / n_all, 0.0)
    return terms, Wc * t.dM, Wc * t.dMb, (posm & plus[None, :]) | negm, []


_HEADS = {
    "contrastive": _contrastive,
    "margin_dw": _margin_dw,
    "triplet_sh": _triplet_sh,
    "multi_similarity": _multi_similarity,
    "softmax_proxy": _softmax_proxy,
    "proxy_nca": _proxy_nca,
    "proxy_anchor": _proxy_anchor,
}
