"""Seven metric-learning losses, each pluggable over the metric family.

Every loss works on a batch of embedding pairs (semantic rows S, uncertainty
rows U) with per-sample multi-hot label rows Y, and reports its value
together with analytic gradients with respect to S, U, and (for proxy
losses) the proxy vectors. Swapping the metric selector between "euclidean"
and the introspective variants changes values and gradients but nothing
structural, so baseline and uncertainty-aware runs share one code path.

Discrete choices — mined triplets, distance-weighted negative draws, the
multi-similarity mask — are made once per batch by ``build_plan`` and then
held fixed, which makes the planned loss a (piecewise-)smooth function of
the embeddings; hinge and norm kinks are reported as ``kink_margin`` so the
gradient checker can resample batches that sit on a corner.

Every loss runs in three pieces. One table step (``loss_tables``) builds
the semantic distance A, the pair uncertainty B and the selected metric's
table with its partials, and returns them as a ``LossTables``. A training
step (``compute_loss`` or ``model.loss_and_grad``) builds it once from its
embeddings and hands it to both ``build_plan``, whose mining losses
(margin_dw, triplet_sh, multi_similarity) plan on the metric table, and
``evaluate_loss``. Nothing keeps the tables past the call, so a frozen plan
re-evaluated on new embeddings reads fresh tables. A small head per loss
maps the tables and the plan to its terms and to weights on dL/dA (or
dL/dC) and dL/dB. One pull-back (``_pull_back``) turns those weights into
gradients on the rows and proxies.

Distance-form losses (contrastive, margin_dw, triplet_sh, proxy_nca) use
the raw semantic Euclidean distance; cosine-form losses (multi_similarity,
softmax_proxy, proxy_anchor) and margin_dw L2-normalize semantic embeddings
first (distance-weighted sampling assumes distances in (0, 2)), with the
pair's alpha taken as the chord distance on the sphere. Uncertainty
embeddings are never normalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

# label_set stays importable here: perfbench counts calls at this name.
from idml.core import MetricParams, ParameterError, Rng, ShapeError, label_rows, label_set, match_matrix  # noqa: F401
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
    "ProxySet",
    "Plan",
    "LossResult",
    "LossTables",
    "loss_tables",
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


# Each loss's hyperparameters, at that loss's usual settings; IDML tunes only
# the metric's tau and gamma.
CONTRASTIVE_MARGIN = 1.0  # Hadsell et al. 2006
TRIPLET_MARGIN = 0.2  # Schroff et al. 2015
DW_XI, DW_OMEGA, DW_PHI = 0.5, 1.4, 10.0  # margin_dw's hinges and sampling cutoff (Wu et al. 2017)
MS_EPS, MS_ALPHA, MS_BETA, MS_LAMBDA = 0.1, 2.0, 50.0, 1.0  # multi-similarity (Wang et al. 2019)
PA_ALPHA, PA_DELTA = 32.0, 0.1  # proxy-anchor (Kim et al. 2020)


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
    # Boolean tables of the pairs in play, over the loss's own table: i<j
    # label (mis)matches for contrastive and margin_dw (which has no neg),
    # each anchor row's surviving pairs for multi_similarity, and the (N, K)
    # sample-proxy label (mis)matches for the proxy losses.
    pos: np.ndarray = None
    neg: np.ndarray = None
    dw_negatives: np.ndarray = None  # (M, 2) (anchor, sampled negative)
    triplets: np.ndarray = None  # (T, 3) (anchor, positive, semi-hard negative)
    n_skipped: int = 0  # mining-exhausted (a, p) pairs for triplet_sh


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


def _normalize_rows(X: np.ndarray):
    norms = np.linalg.norm(X, axis=1)
    safe = np.maximum(norms, _TINY)
    return X / safe[:, None], norms


def _denormalize_grad(dXhat: np.ndarray, Xhat: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pull a gradient on unit rows back through x -> x/||x||: the float
    operations of (dXhat - <dXhat, xhat> xhat) / ||x||, in one array."""
    out = dXhat * Xhat
    proj = out.sum(axis=1, keepdims=True)
    np.multiply(proj, Xhat, out=out)
    np.subtract(dXhat, out, out=out)
    out /= np.maximum(norms, _TINY)[:, None]
    return out


class LossTables(NamedTuple):
    """One loss's rows and tables: batch rows X, U against proxy rows Y, V.

    Y and V are None when the batch is paired with itself. Built by
    `loss_tables`; `build_plan` and `evaluate_loss` read it.
    """

    loss: str
    metric: str
    mp: MetricParams
    proxies: ProxySet
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


def loss_tables(
    loss: str,
    S,
    U,
    *,
    metric: str = "ism",
    mp: MetricParams = None,
    proxies: ProxySet = None,
) -> LossTables:
    """The one table step of `loss` on semantic rows S and uncertainty rows U.

    A training step builds it once and hands the result to `build_plan` and
    `evaluate_loss`; nothing keeps it past that call. Proxy losses pair the
    batch with `proxies`, the others pair it with itself.

    Cosine-form losses take C = X Y^T and the chord distance A = sqrt(2 - 2C);
    the others take A = ||x_i - y_j||.
    """
    if loss not in LOSS_NAMES:
        raise ParameterError(f"unknown loss {loss!r}")
    if metric not in METRIC_NAMES:
        raise ParameterError(f"unknown metric {metric!r}")
    S = np.asarray(S, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    if S.shape[0] == 0:
        raise ParameterError("loss_tables needs a nonempty batch")
    mp = mp or MetricParams()
    Y = V = norms = pnorms = None
    if loss in PROXY_LOSSES:
        if proxies is None or len(proxies) == 0:
            raise ParameterError(f"{loss} needs a nonempty proxy set")
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
    return LossTables(loss, metric, mp, proxies, S, U, Y, V, norms, pnorms, A, B, *M)


def _row_side(Wa, Wb, A, B, X, Y, U, V, cosine: bool, sumnorm: bool):
    """Gradients on the rows X, U of tables built from X, U against Y, V.

    Wa[i, j] = dL/dA[i, j] (dL/dC[i, j] when cosine) and Wb[i, j] = dL/dB[i, j].
    Uses dA/dx_i = (x_i - y_j)/A, dC/dx_i = y_j and dB/du_i = (u_i + v_j)/B,
    or u_i/||u_i|| for the sum of norms; each is 0 at a zero denominator.
    Each gradient accumulates into its product's output.
    """
    if cosine:
        dX = Wa @ Y
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            Ga = np.where(A > 0, Wa / np.maximum(A, _TINY), 0.0)
        dX = Ga @ Y
        np.subtract(Ga.sum(axis=1, keepdims=True) * X, dX, out=dX)
    if sumnorm:
        nu = np.linalg.norm(U, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return dX, np.where(nu > 0, Wb.sum(axis=1) / np.maximum(nu, _TINY), 0.0)[:, None] * U
    with np.errstate(invalid="ignore", divide="ignore"):
        Gb = np.where(B > 0, Wb / np.maximum(B, _TINY), 0.0)
    dU = Gb @ V
    dU += Gb.sum(axis=1, keepdims=True) * U
    return dX, dU


def _pull_back(t: LossTables, Wa, Wb):
    """(dS, dU, dPS, dPU) from the head's weights on the tables.

    A self table takes the row side only: its heads mirror or symmetrize
    their weights, so row i carries every pair that i is in. A proxy table
    also takes its column side, onto the proxy rows.
    """
    cosine, sumnorm = t.loss in _COSINE_LOSSES, t.metric == "uncert_sumnorm"
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
    """(N, K) sample-proxy label matches: the batch's multi-hot columns placed
    at their proxies. Only the columns some row holds need a proxy."""
    if classes is None:
        raise ParameterError("proxy losses need the class id of each label column")
    used = Y.any(axis=0)
    held = [c for c, u in zip(classes, used.tolist()) if u]
    missing = set(held) - set(proxies.classes)
    if missing:
        raise ParameterError(f"proxy set lacks classes {sorted(missing)}")
    col = {c: k for k, c in enumerate(proxies.classes)}
    pos = np.zeros((len(Y), len(proxies)), dtype=bool)
    pos[:, [col[c] for c in held]] = Y[:, used]
    return pos, ~pos


# ---------------------------------------------------------------------------
# Planning (the discrete choices, frozen per batch)
# ---------------------------------------------------------------------------


def build_plan(t: LossTables, Y, classes=None, *, rng: Rng = None) -> Plan:
    """Make the batch's discrete choices for `t.loss` and freeze them.

    `t` is the batch's `loss_tables`. `Y` and `classes` are the batch's
    multi-hot label rows and the class id of each column (a `Batch`'s, or
    `multi_hot(label_sets)`). margin_dw and triplet_sh consult the selected
    metric's distance table for their sampling; multi_similarity computes
    its mining mask from the selected similarity table. The pair losses
    build from Y the match table that every one of these choices reads, and
    the proxy losses place Y's columns at their proxies. `rng` is only
    required for margin_dw, `classes` only for the proxy losses.
    """
    loss = t.loss
    Y = label_rows(Y, len(t.X))
    plan = Plan(loss=loss)
    match = None if loss in PROXY_LOSSES else match_matrix(Y)

    if loss == "contrastive":
        plan.pos, plan.neg = np.triu(match, 1), np.triu(~match, 1)
    elif loss == "margin_dw":
        plan.pos = np.triu(match, 1)
        if not plan.pos.any():
            raise ParameterError("margin_dw needs at least one positive pair")
        if rng is None:
            raise ParameterError("margin_dw planning needs an rng for its negative sampling")
        # argwhere lists the positive pairs in row-major (triu_indices) order
        plan.dw_negatives = sample_negatives_for_pairs(
            np.argwhere(plan.pos), t.M, match, n_dim=t.X.shape[1], phi=DW_PHI, rng=rng
        )
    elif loss == "triplet_sh":
        plan.triplets, plan.n_skipped = mine_triplets(t.M, match)
    elif loss == "multi_similarity":
        plan.pos, plan.neg = _ms_mining_masks(t.M, match, MS_EPS)
    elif loss in PROXY_LOSSES:
        plan.pos, plan.neg = _proxy_masks(Y, classes, t.proxies)
        if loss in ("softmax_proxy", "proxy_nca") and not plan.neg.any(axis=1).all():
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


def evaluate_loss(t: LossTables, plan: Plan) -> LossResult:
    """Value and analytic gradients of `t.loss` under the frozen `plan`,
    read from the tables `t`."""
    if plan is None or plan.loss != t.loss:
        raise ParameterError("evaluate_loss needs a plan built for the same loss")
    terms, Wa, Wb, used, gaps = _HEADS[t.loss](t, plan)
    dS, dU, dPS, dPU = _pull_back(t, Wa, Wb)
    if t.Y is None:
        used = used | used.T
    kinks = [np.abs(g) for g in gaps] + [n for n in (t.norms, t.pnorms) if n is not None]
    margin = min([_min_or_inf(k) for k in kinks] + [_kink_margin_tables(t, used)])
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
    Y,
    classes=None,
    *,
    metric: str = "ism",
    mp: MetricParams = None,
    proxies: ProxySet = None,
    rng: Rng = None,
) -> LossResult:
    """loss_tables, build_plan and evaluate_loss in one call (the
    training-step path): one table set serves the plan and the loss."""
    t = loss_tables(loss, S, U, metric=metric, mp=mp, proxies=proxies)
    return evaluate_loss(t, build_plan(t, Y, classes, rng=rng))


def _kink_margin_tables(t: LossTables, used) -> float:
    """Distance-to-nearest-kink of the metric tables over the pairs in play.

    Norm kinks sit at alpha = 0 and (for metrics reading B) beta = 0.
    """
    if not used.any():
        return np.inf
    m = _min_or_inf(t.A[used])
    if t.metric != "euclidean":
        m = min(m, _min_or_inf(t.B[used]))
    return m


# ---------------------------------------------------------------------------
# Loss heads: (tables, plan) -> (terms, dL/dA or dL/dC, dL/dB, pairs
# in play, hinge gaps). Distance heads mirror each pair's weight across the
# diagonal: a table's i<j weights by W += W.T (exact, the lower triangle is
# 0), a list that can repeat a pair by `_accumulate_sym`. multi_similarity
# symmetrizes after multiplying by the partials.
# A distance head's pairs in play are its nonzero weights: positive and
# negative pairs never share a cell, so +1 and -1 never cancel.
# ---------------------------------------------------------------------------


def _contrastive(t, plan):
    neg_gap = CONTRASTIVE_MARGIN - t.M[plan.neg]
    W = plan.pos.astype(np.float64)
    W[plan.neg] = np.where(neg_gap > 0, -1.0, 0.0)
    W += W.T
    terms = np.concatenate([t.M[plan.pos], np.maximum(neg_gap, 0.0)])
    return terms, W * t.dM, W * t.dMb, W != 0, [neg_gap]


def _margin_dw(t, plan):
    neg = plan.dw_negatives
    pos_gap = t.M[plan.pos] - DW_XI
    neg_gap = DW_OMEGA - t.M[neg[:, 0], neg[:, 1]]
    W = np.zeros_like(t.A)
    W[plan.pos] = np.where(pos_gap > 0, 1.0, 0.0)
    W += W.T
    _accumulate_sym(W, neg[:, 0], neg[:, 1], np.where(neg_gap > 0, -1.0, 0.0))
    terms = np.concatenate([np.maximum(pos_gap, 0.0), np.maximum(neg_gap, 0.0)])
    return terms, W * t.dM, W * t.dMb, W != 0, [pos_gap, neg_gap]


def _triplet_sh(t, plan):
    a, p, n = plan.triplets.T
    gap = t.M[a, p] - t.M[a, n] + TRIPLET_MARGIN
    w = np.where(gap > 0, 1.0, 0.0)
    W = np.zeros_like(t.A)
    _accumulate_sym(W, a, p, w)
    _accumulate_sym(W, a, n, -w)
    return np.maximum(gap, 0.0), W * t.dM, W * t.dMb, W != 0, [gap]


def _multi_similarity(t, plan):
    n = t.M.shape[0]
    posm, negm = plan.pos, plan.neg
    ep = np.where(posm, np.exp(-MS_ALPHA * (t.M - MS_LAMBDA)), 0.0)
    en = np.where(negm, np.exp(MS_BETA * (t.M - MS_LAMBDA)), 0.0)
    sp = ep.sum(axis=1)
    sn = en.sum(axis=1)
    terms = (np.log1p(sp) / MS_ALPHA + np.log1p(sn) / MS_BETA) / n
    # dterm/dCs for kept pairs; anchors are rows.
    Wc = (-ep / (1.0 + sp)[:, None] + en / (1.0 + sn)[:, None]) / n
    Wa, Wb = Wc * t.dM, Wc * t.dMb
    return terms, Wa + Wa.T, Wb + Wb.T, posm | negm, []


def _proxy_softmax(t, plan, sign: float, mean: bool):
    """softmax_proxy's head (sign +1, averaged over the batch) and proxy_nca's
    (sign -1, summed): per sample, log Σ_neg e^(sign·M) - log Σ_pos e^(sign·M)
    over its proxies."""
    posm, negm = plan.pos, plan.neg
    e = np.exp(sign * t.M)
    ep = np.where(posm, e, 0.0)
    en = np.where(negm, e, 0.0)
    sp = ep.sum(axis=1)
    sn = en.sum(axis=1)
    scale = t.M.shape[0] if mean else 1.0
    Wc = (sign * en / sn[:, None] - sign * ep / sp[:, None]) / scale
    return (np.log(sn) - np.log(sp)) / scale, Wc * t.dM, Wc * t.dMb, posm | negm, []


def _proxy_anchor(t, plan):
    posm, negm = plan.pos, plan.neg
    plus = posm.any(axis=0)  # proxies with a positive sample in the batch
    n_plus = max(int(plus.sum()), 1)
    n_all = posm.shape[1]
    ep = np.where(posm, np.exp(-PA_ALPHA * (t.M - PA_DELTA)), 0.0)
    en = np.where(negm, np.exp(PA_ALPHA * (t.M + PA_DELTA)), 0.0)
    sp = ep.sum(axis=0)  # per proxy
    sn = en.sum(axis=0)
    terms = np.concatenate([np.log1p(sp[plus]) / n_plus, np.log1p(sn) / n_all])
    Wc = np.zeros_like(t.M)
    Wc += np.where(posm & plus[None, :], -PA_ALPHA * ep / (1.0 + sp)[None, :] / n_plus, 0.0)
    Wc += np.where(negm, PA_ALPHA * en / (1.0 + sn)[None, :] / n_all, 0.0)
    return terms, Wc * t.dM, Wc * t.dMb, (posm & plus[None, :]) | negm, []


_HEADS = {
    "contrastive": _contrastive,
    "margin_dw": _margin_dw,
    "triplet_sh": _triplet_sh,
    "multi_similarity": _multi_similarity,
    "softmax_proxy": partial(_proxy_softmax, sign=1.0, mean=True),
    "proxy_nca": partial(_proxy_softmax, sign=-1.0, mean=False),
    "proxy_anchor": _proxy_anchor,
}
