"""Loss zoo: worked values, mining plans, gradients, and the certain-input
degeneration that every uncertainty-aware form must satisfy."""

import numpy as np
import pytest

import oracles
from idml.core import Batch, MetricParams, ParameterError, Rng
from idml.losses import (
    LOSS_NAMES,
    NORMALIZED_LOSSES,
    PROXY_LOSSES,
    LossParams,
    Plan,
    ProxySet,
    build_plan,
    compute_loss,
    default_loss_params,
    evaluate_loss,
)
from idml.metric import METRIC_NAMES
from idml.model import init_model, loss_and_grad

LOG2 = float(np.log(2.0))


def single_class_labels(n, cls=0):
    return tuple(frozenset({cls}) for _ in range(n))


def make_proxies(rng, n_classes, s_dim, u_dim=None, u_scale=0.0):
    u_dim = s_dim if u_dim is None else u_dim
    return ProxySet(
        semantic=rng.normal(size=(n_classes, s_dim)),
        uncertainty=u_scale * rng.normal(size=(n_classes, u_dim)),
        classes=tuple(range(n_classes)),
    )


def random_labeled(seed, n=10, dim=4, n_classes=3, u_scale=0.0):
    r = np.random.default_rng(seed)
    S = r.normal(size=(n, dim))
    U = u_scale * r.normal(size=(n, dim))
    labels = tuple(frozenset({int(c)}) for c in r.integers(0, n_classes, size=n))
    return S, U, labels


def loss_kwargs(loss, seed=0, s_dim=4, n_classes=3, u_scale=0.0):
    kw = {}
    if loss in PROXY_LOSSES:
        kw["proxies"] = make_proxies(np.random.default_rng(100 + seed), n_classes, s_dim, u_scale=u_scale)
    return kw


# ---------------------------------------------------------------------------
# Contrastive
# ---------------------------------------------------------------------------


def test_contrastive_worked_values():
    U = np.zeros((2, 1))
    same = single_class_labels(2)
    diff = (frozenset({0}), frozenset({1}))
    # positive pair pays its distance
    r = compute_loss("contrastive", np.array([[0.0], [0.8]]), U, same, metric="euclidean")
    assert r.value == pytest.approx(0.8, rel=1e-15)
    # negative beyond the margin is free, inside it pays the deficit
    assert compute_loss(
        "contrastive", np.array([[0.0], [1.5]]), U, diff, metric="euclidean"
    ).value == pytest.approx(0.0, abs=0.0)
    assert compute_loss(
        "contrastive", np.array([[0.0], [0.4]]), U, diff, metric="euclidean"
    ).value == pytest.approx(0.6, rel=1e-15)


def test_contrastive_uncertainty_discounts_positive_distance():
    # same geometry, growing pair uncertainty: the softened distance shrinks
    same = single_class_labels(2)
    S = np.array([[0.0, 0.0], [2.0, 0.0]])
    vals = []
    for b in (0.0, 0.5, 2.0):
        U = np.array([[b / 2, 0.0], [b / 2, 0.0]])
        vals.append(compute_loss("contrastive", S, U, same, metric="ism").value)
    assert vals[0] == pytest.approx(2.0, rel=1e-15)
    assert vals[0] > vals[1] > vals[2]


def test_contrastive_gradient_ratio_is_gradient_weight():
    """On a positive pair the uncertainty-aware pull is the plain pull scaled
    by the closed-form slope factor."""
    from idml.metric import gradient_weight

    S = np.array([[0.0, 0.0], [2.0, 0.0]])
    U = np.array([[0.4, 0.3], [0.1, 0.2]])
    same = single_class_labels(2)
    mp_ = MetricParams(tau=5.0)
    g_ism = compute_loss("contrastive", S, U, same, metric="ism", mp=mp_).d_semantic
    g_euc = compute_loss("contrastive", S, U, same, metric="euclidean", mp=mp_).d_semantic
    alpha, beta, _ = oracles.pair_geometry_ref(S[0], S[1], U[0], U[1])
    h = gradient_weight(alpha, beta, mp_)
    assert h < 1.0
    np.testing.assert_allclose(g_ism, h * g_euc, rtol=1e-12)


# ---------------------------------------------------------------------------
# Margin loss with distance-weighted negatives
# ---------------------------------------------------------------------------


def unit_points_at_chords(chords):
    """Unit vectors whose chord distance to (1, 0) equals each requested value."""
    pts = [(1.0, 0.0)]
    for i, c in enumerate(chords):
        t = 2 * np.arcsin(c / 2)
        sign = 1.0 if i % 2 == 0 else -1.0
        pts.append((np.cos(t), sign * np.sin(t)))
    return np.array(pts)


def test_margin_dw_positive_hinge_values():
    same = single_class_labels(2)
    U = np.zeros((2, 2))
    # chord exactly at the inner margin: no pull
    S = unit_points_at_chords([0.5])
    assert compute_loss("margin_dw", S, U, same, metric="euclidean", rng=Rng(0)).value == pytest.approx(0.0, abs=1e-15)
    # 0.3 beyond it: pays 0.3
    S = unit_points_at_chords([0.8])
    assert compute_loss("margin_dw", S, U, same, metric="euclidean", rng=Rng(0)).value == pytest.approx(0.3, rel=1e-12)


def test_margin_dw_far_negative_is_free():
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    S = unit_points_at_chords([0.8, 1.5])
    U = np.zeros((3, 2))
    r = compute_loss("margin_dw", S, U, labels, metric="euclidean", rng=Rng(0))
    # the only negative sits past the outer margin, so just the positive pays
    assert r.value == pytest.approx(0.3, rel=1e-12)
    assert r.plan.dw_negatives.tolist() == [[0, 2]]


def test_margin_dw_scale_invariant():
    # operates on the unit sphere: rescaling the embeddings changes nothing
    same = single_class_labels(2)
    U = np.zeros((2, 2))
    S = unit_points_at_chords([0.8])
    a = compute_loss("margin_dw", S, U, same, metric="euclidean", rng=Rng(0)).value
    b = compute_loss("margin_dw", 10 * S, U, same, metric="euclidean", rng=Rng(0)).value
    assert a == pytest.approx(b, rel=1e-12)


def test_margin_dw_requires_rng():
    S, U, labels = random_labeled(0)
    with pytest.raises(ParameterError):
        build_plan("margin_dw", S, U, labels, metric="euclidean")


# ---------------------------------------------------------------------------
# Semi-hard triplet
# ---------------------------------------------------------------------------


def test_triplet_hinge_arithmetic_on_fixed_plan():
    # hand-built plan isolates the hinge from the mining policy
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    U = np.zeros((3, 1))
    plan = Plan(loss="triplet_sh", triplets=np.array([[0, 1, 2]]), n_skipped=0)
    lp = LossParams(margin_delta=0.2)
    S = np.array([[0.0], [1.0], [0.9]])
    r = evaluate_loss("triplet_sh", S, U, plan, metric="euclidean", lp=lp)
    assert r.value == pytest.approx(0.3, rel=1e-12)
    # fully coincident degenerate triplet pays exactly the margin
    S0 = np.zeros((3, 1))
    r0 = evaluate_loss("triplet_sh", S0, U, plan, metric="euclidean", lp=lp)
    assert r0.value == pytest.approx(0.2, rel=1e-15)


def test_triplet_mined_negative_already_satisfied():
    # semi-hard mining guarantees D(a, n) > D(a, p); with delta below the gap
    # the mined triplet is free
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    S = np.array([[0.0], [0.5], [1.0]])
    U = np.zeros((3, 1))
    r = compute_loss("triplet_sh", S, U, labels, metric="euclidean", lp=LossParams(margin_delta=0.2))
    assert r.value == pytest.approx(0.0, abs=0.0)
    assert r.plan.triplets.tolist() == [[0, 1, 2]]
    assert r.plan.n_skipped == 1  # anchor 1's negative is nearer than its positive


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_triplet_exhausted_mining_is_a_zero_loss(metric):
    # no (anchor, positive) pair has a negative farther than its positive
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    S = np.array([[0.0], [1.0], [0.1]])
    U = np.zeros((3, 1))
    direct = compute_loss("triplet_sh", S, U, labels, metric=metric)
    model = init_model(1, hidden=(), semantic_dim=1, uncertainty_dim=1, rng=Rng(0))
    model.head_s_w[:] = 1.0
    model.head_u_w[:] = 0.0
    via_model, grad = loss_and_grad(model, Batch(features=S, labels=labels), "triplet_sh", metric=metric)
    np.testing.assert_array_equal(via_model.uncertainty, U)
    for r in (direct, via_model):
        assert r.value == 0.0
        assert r.pair_terms.size == 0
        assert r.kink_margin == np.inf
        assert r.plan.triplets.shape[0] == 0
        assert r.plan.n_skipped == 2  # both ordered positive pairs, (0, 1) and (1, 0)
        assert not np.any(r.d_semantic) and not np.any(r.d_uncertainty)
    assert not np.any(grad)


def test_triplet_default_margin():
    assert default_loss_params("triplet_sh").margin_delta == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Multi-similarity
# ---------------------------------------------------------------------------


def test_multi_similarity_single_positive_at_lambda():
    # lone positive at C = lambda contributes log(2)/alpha; the missing
    # negative side must not erase it
    lp = default_loss_params("multi_similarity")
    S = np.array([[1.0, 0.0], [1.0, 0.0]])
    r = compute_loss("multi_similarity", S, np.zeros((2, 2)), single_class_labels(2), metric="euclidean")
    assert r.value == pytest.approx(LOG2 / lp.ms_alpha, rel=1e-12)


def test_multi_similarity_pos_and_neg_at_lambda():
    # coincident pos and neg with alpha = beta = 1: the two anchors of class 0
    # each pay 2*log 2, the stray anchor pays log 3 over its two negatives
    lp = LossParams(ms_alpha=1.0, ms_beta=1.0, ms_lambda=1.0, ms_eps=0.1)
    S = np.array([[1.0, 0.0]] * 3)
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    r = compute_loss("multi_similarity", S, np.zeros((3, 2)), labels, metric="euclidean", lp=lp)
    want = (2 * (2 * LOG2) + np.log(3.0)) / 3
    assert r.value == pytest.approx(want, rel=1e-12)
    assert r.pair_terms.sum() == pytest.approx(r.value, rel=1e-12)


def test_multi_similarity_masks_match_loop_oracle():
    r = np.random.default_rng(4)
    batches = []
    for _ in range(25):
        n = int(r.integers(4, 12))
        # one or two classes per sample, as after mixing
        labels = tuple(
            frozenset(int(c) for c in r.integers(0, 3, size=int(r.integers(1, 3))))
            for _ in range(n)
        )
        batches.append((r.normal(size=(n, 3)), labels))
    # a single class: no anchor has a negative, so every positive is kept
    batches.append((r.normal(size=(5, 3)), (frozenset({2}),) * 5))
    for S, labels in batches:
        n = len(labels)
        plan = build_plan("multi_similarity", S, np.zeros((n, 2)), labels, metric="euclidean")
        Sn = S / np.linalg.norm(S, axis=1, keepdims=True)
        C = Sn @ Sn.T
        posm, negm = oracles.ms_masks_ref(C.tolist(), labels, 0.1)
        assert np.array_equal(plan.ms_pos_mask, np.array(posm))
        assert np.array_equal(plan.ms_neg_mask, np.array(negm))


def test_multi_similarity_mining_drops_easy_pairs():
    # anchor far from everything else of its class, negatives even farther:
    # with a tiny eps nothing survives for that anchor
    S = np.array([[1.0, 0.0], [0.9994, 0.0346], [-1.0, 0.0], [-0.9994, -0.0346]])
    S = S / np.linalg.norm(S, axis=1, keepdims=True)
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}))
    plan = build_plan(
        "multi_similarity", S, np.zeros((4, 2)), labels, metric="euclidean",
        lp=LossParams(ms_eps=0.01),
    )
    # positives hug each other, negatives sit on the far side of the sphere
    assert not plan.ms_neg_mask[0].any()
    assert not plan.ms_pos_mask[0].any()


def test_multi_similarity_large_eps_keeps_everything():
    S, U, labels = random_labeled(9, n=8)
    plan = build_plan("multi_similarity", S, U, labels, metric="euclidean", lp=LossParams(ms_eps=10.0))
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if labels[i] & labels[j]:
                assert plan.ms_pos_mask[i, j]
            else:
                assert plan.ms_neg_mask[i, j]


# ---------------------------------------------------------------------------
# Proxy losses
# ---------------------------------------------------------------------------


def test_proxy_anchor_at_margin_pays_log2():
    lp = default_loss_params("proxy_anchor")
    prox = ProxySet(semantic=np.array([[1.0, 0.0]]), uncertainty=np.zeros((1, 2)), classes=(0,))
    d = lp.pa_delta
    S = np.array([[d, np.sqrt(1 - d * d)]])  # cosine with the proxy = delta
    r = compute_loss("proxy_anchor", S, np.zeros((1, 2)), (frozenset({0}),), metric="euclidean", proxies=prox)
    assert r.value == pytest.approx(LOG2, rel=1e-12)


def test_proxy_anchor_saturates_when_aligned():
    prox = ProxySet(semantic=np.array([[1.0, 0.0]]), uncertainty=np.zeros((1, 2)), classes=(0,))
    S = np.array([[1.0, 0.0]])
    r = compute_loss("proxy_anchor", S, np.zeros((1, 2)), (frozenset({0}),), metric="euclidean", proxies=prox)
    assert r.value == pytest.approx(0.0, abs=1e-10)


def test_softmax_proxy_worked_values():
    U = np.zeros((1, 2))
    labels = (frozenset({0}),)
    S = np.array([[1.0, 0.0]])
    # pos at +1, neg at -1: minus the similarity gap
    prox = ProxySet(semantic=np.array([[1.0, 0.0], [-1.0, 0.0]]), uncertainty=np.zeros((2, 2)), classes=(0, 1))
    assert compute_loss("softmax_proxy", S, U, labels, metric="euclidean", proxies=prox).value == pytest.approx(-2.0, rel=1e-12)
    # pos and neg tied: zero
    prox_tied = ProxySet(semantic=np.array([[1.0, 0.0], [1.0, 0.0]]), uncertainty=np.zeros((2, 2)), classes=(0, 1))
    assert compute_loss("softmax_proxy", S, U, labels, metric="euclidean", proxies=prox_tied).value == pytest.approx(0.0, abs=1e-12)
    # two tied negatives: the extra option costs log 2
    prox_two = ProxySet(semantic=np.array([[1.0, 0.0]] * 3), uncertainty=np.zeros((3, 2)), classes=(0, 1, 2))
    assert compute_loss("softmax_proxy", S, U, labels, metric="euclidean", proxies=prox_two).value == pytest.approx(LOG2, rel=1e-12)


def test_proxy_nca_worked_values():
    U = np.zeros((1, 2))
    labels = (frozenset({0}),)
    # pos proxy on top of the sample, neg one unit away
    prox = ProxySet(semantic=np.array([[0.0, 0.0], [1.0, 0.0]]), uncertainty=np.zeros((2, 2)), classes=(0, 1))
    S = np.array([[0.0, 0.0]])
    assert compute_loss("proxy_nca", S, U, labels, metric="euclidean", proxies=prox).value == pytest.approx(-1.0, rel=1e-12)
    # pos and both negs equidistant: log of the option count
    prox_eq = ProxySet(
        semantic=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        uncertainty=np.zeros((3, 2)),
        classes=(0, 1, 2),
    )
    assert compute_loss("proxy_nca", S, U, labels, metric="euclidean", proxies=prox_eq).value == pytest.approx(LOG2, rel=1e-12)


def test_proxy_losses_require_proxies():
    S, U, labels = random_labeled(1)
    for loss in PROXY_LOSSES:
        with pytest.raises(ParameterError):
            compute_loss(loss, S, U, labels, metric="euclidean")


def test_mixed_label_sample_is_positive_for_both_parents():
    r = np.random.default_rng(3)
    prox = make_proxies(r, 3, 4)
    S = r.normal(size=(1, 4))
    U = np.zeros((1, 4))
    plan = build_plan("proxy_anchor", S, U, (frozenset({0, 2}),), metric="euclidean", proxies=prox)
    assert plan.proxy_pos[0, 0] and plan.proxy_pos[0, 2]
    assert not plan.proxy_pos[0, 1]
    assert plan.proxy_neg[0, 1]


# ---------------------------------------------------------------------------
# Cross-cutting properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_certain_inputs_reduce_to_plain_loss(loss):
    """u = 0 and gamma = 0 must collapse the uncertainty-aware form onto its
    classical counterpart, gradients included."""
    for seed in range(5):
        S, U, labels = random_labeled(seed, u_scale=0.0)
        kw = loss_kwargs(loss, seed=seed)
        a = compute_loss(loss, S, U, labels, metric="ism", mp=MetricParams(gamma=0.0), rng=Rng(seed), **kw)
        b = compute_loss(loss, S, U, labels, metric="euclidean", mp=MetricParams(gamma=0.0), rng=Rng(seed), **kw)
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(a.d_semantic, b.d_semantic, rtol=1e-12, atol=1e-12)
        assert np.all(a.d_uncertainty == 0.0)


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_loss_finite_and_hinges_nonnegative(loss):
    hinge_losses = {"contrastive", "margin_dw", "triplet_sh", "multi_similarity", "proxy_anchor"}
    for seed in range(8):
        S, U, labels = random_labeled(seed, n=12, u_scale=0.3)
        kw = loss_kwargs(loss, seed=seed, u_scale=0.3)
        r = compute_loss(loss, S, U, labels, metric="ism", rng=Rng(seed), **kw)
        assert np.isfinite(r.value)
        assert np.all(np.isfinite(r.d_semantic))
        assert np.all(np.isfinite(r.d_uncertainty))
        if loss in hinge_losses:
            assert r.value >= 0.0


@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("metric", ["euclidean", "ism", "ism_dis", "uncert_sumnorm"])
def test_losses_accept_every_metric(loss, metric):
    S, U, labels = random_labeled(2, u_scale=0.2)
    kw = loss_kwargs(loss, seed=2, u_scale=0.2)
    r = compute_loss(loss, S, U, labels, metric=metric, rng=Rng(2), **kw)
    assert np.isfinite(r.value)
    assert r.d_semantic.shape == S.shape
    assert r.d_uncertainty.shape == U.shape


def test_plan_freeze_makes_evaluation_deterministic():
    # the same frozen plan must give bit-identical values on re-evaluation
    S, U, labels = random_labeled(7, u_scale=0.2)
    plan = build_plan("margin_dw", S, U, labels, metric="ism", rng=Rng(3))
    a = evaluate_loss("margin_dw", S, U, plan, metric="ism")
    b = evaluate_loss("margin_dw", S, U, plan, metric="ism")
    assert a.value == b.value
    assert np.array_equal(a.d_semantic, b.d_semantic)


def test_compute_loss_deterministic_under_seed():
    S, U, labels = random_labeled(8, u_scale=0.2)
    a = compute_loss("margin_dw", S, U, labels, metric="ism", rng=Rng(5))
    b = compute_loss("margin_dw", S, U, labels, metric="ism", rng=Rng(5))
    assert a.value == b.value
    assert a.plan.dw_negatives.tolist() == b.plan.dw_negatives.tolist()


def test_unknown_loss_rejected():
    S, U, labels = random_labeled(0)
    with pytest.raises(ParameterError):
        compute_loss("npair", S, U, labels)


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_invalid_labels_rejected_by_build_plan(loss):
    S, U, labels = random_labeled(0)
    for bad in (frozenset(), frozenset({-1})):
        with pytest.raises(ParameterError):
            build_plan(loss, S, U, labels[:-1] + (bad,), rng=Rng(0), **loss_kwargs(loss))


def test_kink_margin_reports_distance_to_nearest_kink():
    # distinct points, euclidean route: margin is the smallest pair distance
    S = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    U = np.zeros((3, 2))
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    r = compute_loss("contrastive", S, U, labels, metric="euclidean")
    assert r.kink_margin == pytest.approx(1.0, rel=1e-12)
    # the uncertainty route adds the beta = 0 kink, which u = 0 sits on
    r2 = compute_loss("contrastive", S, U, labels, metric="ism")
    assert r2.kink_margin == 0.0
