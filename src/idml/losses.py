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

Distance-form losses (contrastive, margin_dw, triplet_sh, proxy_nca) use
the raw semantic Euclidean distance; cosine-form losses (multi_similarity,
softmax_proxy, proxy_anchor) and margin_dw L2-normalize semantic embeddings
first (distance-weighted sampling assumes distances in (0, 2)), with the
pair's alpha taken as the chord distance on the sphere. Uncertainty
embeddings are never normalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    mining_exhausted: bool = False
    plan: Plan = field(default=None, repr=False)
    # Uncertainty rows the loss was evaluated at (set by model.loss_and_grad).
    uncertainty: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


def _pair_lists(labels):
    """All unordered pairs, split by label match."""
    m = match_matrix(labels)
    iu, ju = np.triu_indices(len(labels), k=1)
    matched = m[iu, ju]
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


def _uncertainty_tables(U: np.ndarray, PU, metric: str):
    """Pair-uncertainty table(s) in the representation the metric expects."""
    sumnorm = metric == "uncert_sumnorm"
    B = pairwise_pair_uncertainty(U, None if PU is None else PU, sumnorm=sumnorm)
    return B, sumnorm


def _grad_from_pair_weights(Wa, Wb, S, U, A, B, sumnorm: bool):
    """Gradients on S and U from symmetric per-pair weight matrices.

    Wa[i, j] = dL/dA[i, j] and Wb[i, j] = dL/dB[i, j], with each unordered
    pair's weight mirrored across the diagonal. Uses dA/ds_i = (s_i - s_j)/A
    and dB/du_i = (u_i + u_j)/B (both defined as 0 at a zero denominator).
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        Ga = np.where(A > 0, Wa / np.maximum(A, _TINY), 0.0)
    dS = Ga.sum(axis=1, keepdims=True) * S - Ga @ S
    if sumnorm:
        # B = ||u_i|| + ||u_j||: dB/du_i = u_i/||u_i||.
        row = Wb.sum(axis=1)
        nu = np.linalg.norm(U, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(nu > 0, row / np.maximum(nu, _TINY), 0.0)
        dU = scale[:, None] * U
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            Gb = np.where(B > 0, Wb / np.maximum(B, _TINY), 0.0)
        dU = Gb.sum(axis=1, keepdims=True) * U + Gb @ U
    return dS, dU


def _grad_from_cross_weights(Wa, Wb, S, U, PS, PU, A, B, sumnorm: bool):
    """Gradients for sample-vs-proxy tables; returns (dS, dU, dPS, dPU)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        Ga = np.where(A > 0, Wa / np.maximum(A, _TINY), 0.0)
    dS = Ga.sum(axis=1, keepdims=True) * S - Ga @ PS
    dPS = Ga.sum(axis=0)[:, None] * PS - Ga.T @ S
    if sumnorm:
        nu = np.linalg.norm(U, axis=1)
        npu = np.linalg.norm(PU, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            su = np.where(nu > 0, Wb.sum(axis=1) / np.maximum(nu, _TINY), 0.0)
            sp = np.where(npu > 0, Wb.sum(axis=0) / np.maximum(npu, _TINY), 0.0)
        dU = su[:, None] * U
        dPU = sp[:, None] * PU
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            Gb = np.where(B > 0, Wb / np.maximum(B, _TINY), 0.0)
        dU = Gb.sum(axis=1, keepdims=True) * U + Gb @ PU
        dPU = Gb.sum(axis=0)[:, None] * PU + Gb.T @ U
    return dS, dU, dPS, dPU


def _accumulate_sym(W, idx_a, idx_b, weights):
    """Add each pair's weight at both (a, b) and (b, a)."""
    np.add.at(W, (idx_a, idx_b), weights)
    np.add.at(W, (idx_b, idx_a), weights)


def _min_or_inf(values) -> float:
    values = np.asarray(values, dtype=np.float64).ravel()
    return float(values.min()) if values.size else np.inf


def _proxy_masks(labels, proxies: ProxySet):
    """(N, K) sample-proxy label matches: the batch's multi-hot columns placed at their proxies."""
    Y, classes = multi_hot(labels)
    missing = set(classes) - set(proxies.classes)
    if missing:
        raise ParameterError(f"proxy set lacks classes {sorted(missing)}")
    col = {c: k for k, c in enumerate(proxies.classes)}
    pos = np.zeros((len(labels), len(proxies)), dtype=bool)
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
    selected similarity table. `rng` is only required for margin_dw.
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

    if loss in ("contrastive", "margin_dw", "triplet_sh"):
        plan.pos_pairs, plan.neg_pairs = _pair_lists(labels)

    if loss == "margin_dw":
        if plan.pos_pairs.shape[0] == 0:
            raise ParameterError("margin_dw needs at least one positive pair")
        if rng is None:
            raise ParameterError("margin_dw planning needs an rng for its negative sampling")
        Shat, _ = _normalize_rows(S)
        A = pairwise_semantic_distance(Shat)
        B, _ = _uncertainty_tables(U, None, metric)
        D, _, _ = distance_table(metric, A, B, mp)
        plan.dw_negatives = sample_negatives_for_pairs(
            plan.pos_pairs, D, labels, n_dim=S.shape[1], phi=lp.phi, rng=rng
        )
    elif loss == "triplet_sh":
        A = pairwise_semantic_distance(S)
        B, _ = _uncertainty_tables(U, None, metric)
        D, _, _ = distance_table(metric, A, B, mp)
        plan.triplets, plan.n_skipped = mine_triplets(D, labels)
    elif loss == "multi_similarity":
        Shat, _ = _normalize_rows(S)
        C = np.clip(Shat @ Shat.T, -1.0, 1.0)
        B, _ = _uncertainty_tables(U, None, metric)
        Cs, _, _ = similarity_table(metric, C, B, mp)
        plan.ms_pos_mask, plan.ms_neg_mask = _ms_mining_masks(Cs, labels, lp.ms_eps)
    elif loss in PROXY_LOSSES:
        if proxies is None or len(proxies) == 0:
            raise ParameterError(f"{loss} needs a nonempty proxy set")
        plan.proxy_pos, plan.proxy_neg = _proxy_masks(labels, proxies)
        if loss in ("softmax_proxy", "proxy_nca") and not plan.proxy_neg.any(axis=1).all():
            raise ParameterError(f"{loss} needs at least one negative proxy per sample")
    return plan


def _ms_mining_masks(Cs: np.ndarray, labels, eps: float):
    """Surviving pairs per anchor under the informative-pair mining rule.

    A negative (i, j) survives iff Cs[i, j] > min over i's positives - eps
    (it is at least as hard as the weakest positive); a positive survives
    iff Cs[i, j] < max over i's negatives + eps. An anchor with no
    counterpart set keeps its pairs vacuously.
    """
    m = match_matrix(labels)
    pos, neg = m & ~np.eye(m.shape[0], dtype=bool), ~m
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
    labels,
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
    fn = _EVALUATORS[loss]
    return fn(S, U, labels, plan, metric, mp, lp, proxies)


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
    return evaluate_loss(loss, S, U, labels, plan, metric=metric, mp=mp, lp=lp, proxies=proxies)


def _contrastive(S, U, labels, plan, metric, mp, lp, proxies):
    n = S.shape[0]
    A = pairwise_semantic_distance(S)
    B, sumnorm = _uncertainty_tables(U, None, metric)
    D, dDa, dDb = distance_table(metric, A, B, mp)

    pos, neg = plan.pos_pairs, plan.neg_pairs
    pos_d = D[pos[:, 0], pos[:, 1]]
    neg_d = D[neg[:, 0], neg[:, 1]]
    neg_gap = lp.margin_delta - neg_d
    neg_active = neg_gap > 0

    terms = np.concatenate([pos_d, np.maximum(neg_gap, 0.0)])
    W = np.zeros((n, n))
    _accumulate_sym(W, pos[:, 0], pos[:, 1], np.ones(len(pos)))
    _accumulate_sym(W, neg[:, 0], neg[:, 1], np.where(neg_active, -1.0, 0.0))

    dS, dU = _grad_from_pair_weights(W * dDa, W * dDb, S, U, A, B, sumnorm)
    used = np.zeros((n, n), dtype=bool)
    used[pos[:, 0], pos[:, 1]] = True
    used[neg[:, 0], neg[:, 1]] = neg_active
    margin = min(
        _min_or_inf(np.abs(neg_gap)),
        _kink_margin_tables(A, B, used | used.T, metric, mp),
    )
    return LossResult(
        value=float(np.sum(terms)),
        pair_terms=terms,
        d_semantic=dS,
        d_uncertainty=dU,
        kink_margin=margin,
        plan=plan,
    )


def _margin_dw(S, U, labels, plan, metric, mp, lp, proxies):
    n = S.shape[0]
    Shat, norms = _normalize_rows(S)
    A = pairwise_semantic_distance(Shat)
    B, sumnorm = _uncertainty_tables(U, None, metric)
    D, dDa, dDb = distance_table(metric, A, B, mp)

    pos, negs = plan.pos_pairs, plan.dw_negatives
    pos_gap = D[pos[:, 0], pos[:, 1]] - lp.margin_xi
    pos_active = pos_gap > 0
    terms = [np.maximum(pos_gap, 0.0)]
    W = np.zeros((n, n))
    _accumulate_sym(W, pos[:, 0], pos[:, 1], np.where(pos_active, 1.0, 0.0))

    neg_gap = np.array([])
    if negs.shape[0]:
        neg_gap = lp.margin_omega - D[negs[:, 0], negs[:, 1]]
        neg_active = neg_gap > 0
        terms.append(np.maximum(neg_gap, 0.0))
        _accumulate_sym(W, negs[:, 0], negs[:, 1], np.where(neg_active, -1.0, 0.0))

    dShat, dU = _grad_from_pair_weights(W * dDa, W * dDb, Shat, U, A, B, sumnorm)
    dS = _denormalize_grad(dShat, Shat, norms)
    used = np.zeros((n, n), dtype=bool)
    used[pos[:, 0], pos[:, 1]] = pos_active
    if negs.shape[0]:
        used[negs[:, 0], negs[:, 1]] = neg_active
    terms = np.concatenate(terms)
    margin = min(
        _min_or_inf(np.abs(pos_gap)),
        _min_or_inf(np.abs(neg_gap)),
        _min_or_inf(norms),
        _kink_margin_tables(A, B, used | used.T, metric, mp),
    )
    return LossResult(
        value=float(np.sum(terms)),
        pair_terms=terms,
        d_semantic=dS,
        d_uncertainty=dU,
        kink_margin=margin,
        plan=plan,
    )


def _triplet_sh(S, U, labels, plan, metric, mp, lp, proxies):
    n = S.shape[0]
    A = pairwise_semantic_distance(S)
    B, sumnorm = _uncertainty_tables(U, None, metric)
    D, dDa, dDb = distance_table(metric, A, B, mp)

    t = plan.triplets
    if t.shape[0] == 0:
        zero = np.zeros(0)
        return LossResult(
            value=0.0,
            pair_terms=zero,
            d_semantic=np.zeros_like(S),
            d_uncertainty=np.zeros_like(U),
            mining_exhausted=True,
            plan=plan,
        )
    gap = D[t[:, 0], t[:, 1]] - D[t[:, 0], t[:, 2]] + lp.margin_delta
    active = gap > 0
    terms = np.maximum(gap, 0.0)
    W = np.zeros((n, n))
    w = np.where(active, 1.0, 0.0)
    _accumulate_sym(W, t[:, 0], t[:, 1], w)
    _accumulate_sym(W, t[:, 0], t[:, 2], -w)

    dS, dU = _grad_from_pair_weights(W * dDa, W * dDb, S, U, A, B, sumnorm)
    used = np.zeros((n, n), dtype=bool)
    used[t[active, 0], t[active, 1]] = True
    used[t[active, 0], t[active, 2]] = True
    margin = min(
        _min_or_inf(np.abs(gap)),
        _kink_margin_tables(A, B, used | used.T, metric, mp),
    )
    return LossResult(
        value=float(np.sum(terms)),
        pair_terms=terms,
        d_semantic=dS,
        d_uncertainty=dU,
        kink_margin=margin,
        plan=plan,
    )


def _multi_similarity(S, U, labels, plan, metric, mp, lp, proxies):
    n = S.shape[0]
    Shat, norms = _normalize_rows(S)
    C = np.clip(Shat @ Shat.T, -1.0, 1.0)
    B, sumnorm = _uncertainty_tables(U, None, metric)
    Cs, dCdC, dCdB = similarity_table(metric, C, B, mp)

    posm, negm = plan.ms_pos_mask, plan.ms_neg_mask
    ep = np.where(posm, np.exp(-lp.ms_alpha * (Cs - lp.ms_lambda)), 0.0)
    en = np.where(negm, np.exp(lp.ms_beta * (Cs - lp.ms_lambda)), 0.0)
    sp = ep.sum(axis=1)
    sn = en.sum(axis=1)
    terms = (np.log1p(sp) / lp.ms_alpha + np.log1p(sn) / lp.ms_beta) / n

    # dterm/dCs for kept pairs; anchors are rows.
    Wc = (-ep / (1.0 + sp)[:, None] + en / (1.0 + sn)[:, None]) / n
    dL_dC = Wc * dCdC
    dL_dB = Wc * dCdB
    A = np.sqrt(np.maximum(2.0 - 2.0 * C, 0.0))
    dShat = (dL_dC + dL_dC.T) @ Shat
    _, dU = _grad_from_pair_weights(np.zeros_like(A), dL_dB + dL_dB.T, Shat, U, A, B, sumnorm)
    dS = _denormalize_grad(dShat, Shat, norms)

    used = posm | negm
    margin = min(
        _min_or_inf(norms),
        _kink_margin_tables(A, B, used | used.T, metric, mp),
    )
    return LossResult(
        value=float(np.sum(terms)),
        pair_terms=terms,
        d_semantic=dS,
        d_uncertainty=dU,
        kink_margin=margin,
        plan=plan,
    )


def _softmax_proxy(S, U, labels, plan, metric, mp, lp, proxies):
    n = S.shape[0]
    Shat, norms = _normalize_rows(S)
    Phat, pnorms = _normalize_rows(proxies.semantic)
    C = np.clip(Shat @ Phat.T, -1.0, 1.0)
    B, sumnorm = _uncertainty_tables(U, proxies.uncertainty, metric)
    Cs, dCdC, dCdB = similarity_table(metric, C, B, mp)

    posm, negm = plan.proxy_pos, plan.proxy_neg
    ep = np.where(posm, np.exp(Cs), 0.0)
    en = np.where(negm, np.exp(Cs), 0.0)
    sp = ep.sum(axis=1)
    sn = en.sum(axis=1)
    terms = (np.log(sn) - np.log(sp)) / n

    Wc = (-ep / sp[:, None] + en / sn[:, None]) / n
    dL_dC = Wc * dCdC
    dL_dB = Wc * dCdB
    A = np.sqrt(np.maximum(2.0 - 2.0 * C, 0.0))
    dShat = dL_dC @ Phat
    dPhat = dL_dC.T @ Shat
    _, dU, _, dPU = _grad_from_cross_weights(
        np.zeros_like(A), dL_dB, Shat, U, Phat, proxies.uncertainty, A, B, sumnorm
    )
    dS = _denormalize_grad(dShat, Shat, norms)
    dPS = _denormalize_grad(dPhat, Phat, pnorms)

    margin = min(
        _min_or_inf(norms),
        _min_or_inf(pnorms),
        _kink_margin_tables(A, B, posm | negm, metric, mp),
    )
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


def _proxy_nca(S, U, labels, plan, metric, mp, lp, proxies):
    A = pairwise_semantic_distance(S, proxies.semantic)
    B, sumnorm = _uncertainty_tables(U, proxies.uncertainty, metric)
    D, dDa, dDb = distance_table(metric, A, B, mp)

    posm, negm = plan.proxy_pos, plan.proxy_neg
    ep = np.where(posm, np.exp(-D), 0.0)
    en = np.where(negm, np.exp(-D), 0.0)
    sp = ep.sum(axis=1)
    sn = en.sum(axis=1)
    terms = np.log(sn) - np.log(sp)

    # d(-D) path: dterm/dD = +softmax within positives, -softmax within negatives.
    W = ep / sp[:, None] - en / sn[:, None]
    dS, dU, dPS, dPU = _grad_from_cross_weights(
        W * dDa, W * dDb, S, U, proxies.semantic, proxies.uncertainty, A, B, sumnorm
    )
    margin = _kink_margin_tables(A, B, posm | negm, metric, mp)
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


def _proxy_anchor(S, U, labels, plan, metric, mp, lp, proxies):
    n = S.shape[0]
    Shat, norms = _normalize_rows(S)
    Phat, pnorms = _normalize_rows(proxies.semantic)
    C = np.clip(Shat @ Phat.T, -1.0, 1.0)
    B, sumnorm = _uncertainty_tables(U, proxies.uncertainty, metric)
    Cs, dCdC, dCdB = similarity_table(metric, C, B, mp)

    posm, negm = plan.proxy_pos, plan.proxy_neg
    plus = posm.any(axis=0)  # proxies with a positive sample in the batch
    n_plus = max(int(plus.sum()), 1)
    n_all = len(proxies)
    ep = np.where(posm, np.exp(-lp.pa_alpha * (Cs - lp.pa_delta)), 0.0)
    en = np.where(negm, np.exp(lp.pa_alpha * (Cs + lp.pa_delta)), 0.0)
    sp = ep.sum(axis=0)  # per proxy
    sn = en.sum(axis=0)
    pos_terms = np.log1p(sp[plus]) / n_plus
    neg_terms = np.log1p(sn) / n_all
    terms = np.concatenate([pos_terms, neg_terms])

    Wc = np.zeros_like(Cs)
    Wc += np.where(posm & plus[None, :], -lp.pa_alpha * ep / (1.0 + sp)[None, :] / n_plus, 0.0)
    Wc += np.where(negm, lp.pa_alpha * en / (1.0 + sn)[None, :] / n_all, 0.0)
    dL_dC = Wc * dCdC
    dL_dB = Wc * dCdB
    A = np.sqrt(np.maximum(2.0 - 2.0 * C, 0.0))
    dShat = dL_dC @ Phat
    dPhat = dL_dC.T @ Shat
    _, dU, _, dPU = _grad_from_cross_weights(
        np.zeros_like(A), dL_dB, Shat, U, Phat, proxies.uncertainty, A, B, sumnorm
    )
    dS = _denormalize_grad(dShat, Shat, norms)
    dPS = _denormalize_grad(dPhat, Phat, pnorms)

    margin = min(
        _min_or_inf(norms),
        _min_or_inf(pnorms),
        _kink_margin_tables(A, B, (posm & plus[None, :]) | negm, metric, mp),
    )
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


def _kink_margin_tables(A, B, used, metric: str, mp: MetricParams) -> float:
    """Distance-to-nearest-kink of the metric tables over the pairs in play.

    Norm kinks sit at alpha = 0 and (for metrics reading B) beta = 0; the
    strict variant adds its indicator boundary |alpha - beta - gamma|.
    """
    if not used.any():
        return np.inf
    m = _min_or_inf(A[used])
    if metric in ("ism", "ism_dis", "ism_strict"):
        m = min(m, _min_or_inf(B[used]))
    if metric == "uncert_sumnorm":
        m = min(m, _min_or_inf(B[used]))
    if metric == "ism_strict":
        m = min(m, _min_or_inf(np.abs(A[used] - B[used] - mp.gamma)))
    return m


_EVALUATORS = {
    "contrastive": _contrastive,
    "margin_dw": _margin_dw,
    "triplet_sh": _triplet_sh,
    "multi_similarity": _multi_similarity,
    "softmax_proxy": _softmax_proxy,
    "proxy_nca": _proxy_nca,
    "proxy_anchor": _proxy_anchor,
}
