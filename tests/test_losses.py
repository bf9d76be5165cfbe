"""Loss zoo: worked values, mining plans, gradients, and the certain-input
degeneration that every uncertainty-aware form must satisfy."""

import re

import numpy as np
import pytest

import idml.losses
import oracles
from idml.core import Batch, MetricParams, ParameterError, Rng, ShapeError, multi_hot
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
    loss_tables,
)
from idml.metric import METRIC_NAMES
from idml.model import forward, init_model, loss_and_grad

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
    r = compute_loss("contrastive", np.array([[0.0], [0.8]]), U, *multi_hot(same), metric="euclidean")
    assert r.value == pytest.approx(0.8, rel=1e-15)
    # negative beyond the margin is free, inside it pays the deficit
    assert compute_loss(
        "contrastive", np.array([[0.0], [1.5]]), U, *multi_hot(diff), metric="euclidean"
    ).value == pytest.approx(0.0, abs=0.0)
    assert compute_loss(
        "contrastive", np.array([[0.0], [0.4]]), U, *multi_hot(diff), metric="euclidean"
    ).value == pytest.approx(0.6, rel=1e-15)


def test_contrastive_uncertainty_discounts_positive_distance():
    # same geometry, growing pair uncertainty: the softened distance shrinks
    same = single_class_labels(2)
    S = np.array([[0.0, 0.0], [2.0, 0.0]])
    vals = []
    for b in (0.0, 0.5, 2.0):
        U = np.array([[b / 2, 0.0], [b / 2, 0.0]])
        vals.append(compute_loss("contrastive", S, U, *multi_hot(same), metric="ism").value)
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
    g_ism = compute_loss("contrastive", S, U, *multi_hot(same), metric="ism", mp=mp_).d_semantic
    g_euc = compute_loss("contrastive", S, U, *multi_hot(same), metric="euclidean", mp=mp_).d_semantic
    alpha, beta, _ = oracles.pair_geometry_ref(S[0], S[1], U[0], U[1])
    h = gradient_weight(alpha, beta, mp_)
    assert h < 1.0
    np.testing.assert_allclose(g_ism, h * g_euc, rtol=1e-12)


@pytest.mark.parametrize("loss", ["contrastive", "margin_dw"])
def test_pair_tables_match_loop_oracle(loss):
    r = np.random.default_rng(5)
    for _ in range(25):
        # one or two of three classes per sample, as after mixing; four rows
        # or more always hold a positive pair, which margin_dw needs
        n = int(r.integers(4, 12))
        labels = tuple(
            frozenset(int(c) for c in r.integers(0, 3, size=int(r.integers(1, 3))))
            for _ in range(n)
        )
        S = r.normal(size=(n, 3))
        plan = build_plan(loss_tables(loss, S, np.zeros((n, 2))), *multi_hot(labels), rng=Rng(0))
        pos, neg = oracles.pair_tables_ref(labels)
        assert np.array_equal(plan.pos, np.array(pos))
        if loss == "contrastive":
            assert np.array_equal(plan.neg, np.array(neg))
        else:
            assert plan.neg is None  # its negatives are the sampled dw_negatives


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
    assert compute_loss("margin_dw", S, U, *multi_hot(same), metric="euclidean", rng=Rng(0)).value == pytest.approx(0.0, abs=1e-15)
    # 0.3 beyond it: pays 0.3
    S = unit_points_at_chords([0.8])
    assert compute_loss("margin_dw", S, U, *multi_hot(same), metric="euclidean", rng=Rng(0)).value == pytest.approx(0.3, rel=1e-12)


def test_margin_dw_far_negative_is_free():
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    S = unit_points_at_chords([0.8, 1.5])
    U = np.zeros((3, 2))
    r = compute_loss("margin_dw", S, U, *multi_hot(labels), metric="euclidean", rng=Rng(0))
    # the only negative sits past the outer margin, so just the positive pays
    assert r.value == pytest.approx(0.3, rel=1e-12)
    assert r.plan.dw_negatives.tolist() == [[0, 2]]


def test_margin_dw_scale_invariant():
    # operates on the unit sphere: rescaling the embeddings changes nothing
    same = single_class_labels(2)
    U = np.zeros((2, 2))
    S = unit_points_at_chords([0.8])
    a = compute_loss("margin_dw", S, U, *multi_hot(same), metric="euclidean", rng=Rng(0)).value
    b = compute_loss("margin_dw", 10 * S, U, *multi_hot(same), metric="euclidean", rng=Rng(0)).value
    assert a == pytest.approx(b, rel=1e-12)


def test_margin_dw_repeated_negatives_count_per_listing():
    # a hand-built plan lists one negative pair from both ends and another
    # twice: each listing is a term of its own, and the mirrored positive
    # weights compose with the negatives' per-listing accumulation
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}), frozenset({0, 1}))
    r = np.random.default_rng(11)
    S, U = r.normal(size=(5, 3)), 0.3 * r.normal(size=(5, 2))
    Y, _ = multi_hot(labels)
    negs = np.array([[0, 2], [2, 0], [1, 3], [1, 3]])
    plan = Plan(loss="margin_dw", pos=np.triu(Y @ Y.T, 1), dw_negatives=negs)
    # every hinge open: positives pay D - 0, negatives 2.5 - D (D <= 2 on the sphere)
    lp = LossParams(margin_xi=0.0, margin_omega=2.5)

    def value(S, U):
        return evaluate_loss(loss_tables("margin_dw", S, U, metric="ism"), plan, lp).value

    t = loss_tables("margin_dw", S, U, metric="ism")
    res = evaluate_loss(t, plan, lp)
    want = t.M[plan.pos].sum() + sum(2.5 - t.M[a, n] for a, n in negs)
    assert res.pair_terms.size == int(plan.pos.sum()) + len(negs)
    assert res.value == pytest.approx(want, rel=1e-12)
    h = 1e-6
    for X, grad, at in ((S, res.d_semantic, lambda X: value(X, U)), (U, res.d_uncertainty, lambda X: value(S, X))):
        fd = np.zeros_like(X)
        for idx in np.ndindex(X.shape):
            up, dn = X.copy(), X.copy()
            up[idx] += h
            dn[idx] -= h
            fd[idx] = (at(up) - at(dn)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_margin_dw_requires_rng():
    S, U, labels = random_labeled(0)
    with pytest.raises(ParameterError):
        build_plan(loss_tables("margin_dw", S, U, metric="euclidean"), *multi_hot(labels))


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
    r = evaluate_loss(loss_tables("triplet_sh", S, U, metric="euclidean"), plan, lp)
    assert r.value == pytest.approx(0.3, rel=1e-12)
    # fully coincident degenerate triplet pays exactly the margin
    S0 = np.zeros((3, 1))
    r0 = evaluate_loss(loss_tables("triplet_sh", S0, U, metric="euclidean"), plan, lp)
    assert r0.value == pytest.approx(0.2, rel=1e-15)


def test_triplet_mined_negative_already_satisfied():
    # semi-hard mining guarantees D(a, n) > D(a, p); with delta below the gap
    # the mined triplet is free
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    S = np.array([[0.0], [0.5], [1.0]])
    U = np.zeros((3, 1))
    r = compute_loss("triplet_sh", S, U, *multi_hot(labels), metric="euclidean", lp=LossParams(margin_delta=0.2))
    assert r.value == pytest.approx(0.0, abs=0.0)
    assert r.plan.triplets.tolist() == [[0, 1, 2]]
    assert r.plan.n_skipped == 1  # anchor 1's negative is nearer than its positive


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_triplet_exhausted_mining_is_a_zero_loss(metric):
    # no (anchor, positive) pair has a negative farther than its positive
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    S = np.array([[0.0], [1.0], [0.1]])
    U = np.zeros((3, 1))
    direct = compute_loss("triplet_sh", S, U, *multi_hot(labels), metric=metric)
    model = init_model(1, hidden=(), semantic_dim=1, uncertainty_dim=1, rng=Rng(0))
    model.head_s_w[:] = 1.0
    model.head_u_w[:] = 0.0
    via_model, grad = loss_and_grad(model, Batch(S, *multi_hot(labels)), "triplet_sh", metric=metric)
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
    r = compute_loss("multi_similarity", S, np.zeros((2, 2)), *multi_hot(single_class_labels(2)), metric="euclidean")
    assert r.value == pytest.approx(LOG2 / lp.ms_alpha, rel=1e-12)


def test_multi_similarity_pos_and_neg_at_lambda():
    # coincident pos and neg with alpha = beta = 1: the two anchors of class 0
    # each pay 2*log 2, the stray anchor pays log 3 over its two negatives
    lp = LossParams(ms_alpha=1.0, ms_beta=1.0, ms_lambda=1.0, ms_eps=0.1)
    S = np.array([[1.0, 0.0]] * 3)
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    r = compute_loss("multi_similarity", S, np.zeros((3, 2)), *multi_hot(labels), metric="euclidean", lp=lp)
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
        t = loss_tables("multi_similarity", S, np.zeros((n, 2)), metric="euclidean")
        plan = build_plan(t, *multi_hot(labels))
        Sn = S / np.linalg.norm(S, axis=1, keepdims=True)
        C = Sn @ Sn.T
        posm, negm = oracles.ms_masks_ref(C.tolist(), labels, 0.1)
        assert np.array_equal(plan.pos, np.array(posm))
        assert np.array_equal(plan.neg, np.array(negm))


def test_multi_similarity_mining_drops_easy_pairs():
    # anchor far from everything else of its class, negatives even farther:
    # with a tiny eps nothing survives for that anchor
    S = np.array([[1.0, 0.0], [0.9994, 0.0346], [-1.0, 0.0], [-0.9994, -0.0346]])
    S = S / np.linalg.norm(S, axis=1, keepdims=True)
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}))
    t = loss_tables("multi_similarity", S, np.zeros((4, 2)), metric="euclidean")
    plan = build_plan(t, *multi_hot(labels), lp=LossParams(ms_eps=0.01))
    # positives hug each other, negatives sit on the far side of the sphere
    assert not plan.neg[0].any()
    assert not plan.pos[0].any()


def test_multi_similarity_large_eps_keeps_everything():
    S, U, labels = random_labeled(9, n=8)
    t = loss_tables("multi_similarity", S, U, metric="euclidean")
    plan = build_plan(t, *multi_hot(labels), lp=LossParams(ms_eps=10.0))
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if labels[i] & labels[j]:
                assert plan.pos[i, j]
            else:
                assert plan.neg[i, j]


# ---------------------------------------------------------------------------
# Proxy losses
# ---------------------------------------------------------------------------


def test_proxy_anchor_at_margin_pays_log2():
    lp = default_loss_params("proxy_anchor")
    prox = ProxySet(semantic=np.array([[1.0, 0.0]]), uncertainty=np.zeros((1, 2)), classes=(0,))
    d = lp.pa_delta
    S = np.array([[d, np.sqrt(1 - d * d)]])  # cosine with the proxy = delta
    r = compute_loss("proxy_anchor", S, np.zeros((1, 2)), *multi_hot([0]), metric="euclidean", proxies=prox)
    assert r.value == pytest.approx(LOG2, rel=1e-12)


def test_proxy_anchor_saturates_when_aligned():
    prox = ProxySet(semantic=np.array([[1.0, 0.0]]), uncertainty=np.zeros((1, 2)), classes=(0,))
    S = np.array([[1.0, 0.0]])
    r = compute_loss("proxy_anchor", S, np.zeros((1, 2)), *multi_hot([0]), metric="euclidean", proxies=prox)
    assert r.value == pytest.approx(0.0, abs=1e-10)


def test_softmax_proxy_worked_values():
    U = np.zeros((1, 2))
    labels = (frozenset({0}),)
    S = np.array([[1.0, 0.0]])
    # pos at +1, neg at -1: minus the similarity gap
    prox = ProxySet(semantic=np.array([[1.0, 0.0], [-1.0, 0.0]]), uncertainty=np.zeros((2, 2)), classes=(0, 1))
    assert compute_loss("softmax_proxy", S, U, *multi_hot(labels), metric="euclidean", proxies=prox).value == pytest.approx(-2.0, rel=1e-12)
    # pos and neg tied: zero
    prox_tied = ProxySet(semantic=np.array([[1.0, 0.0], [1.0, 0.0]]), uncertainty=np.zeros((2, 2)), classes=(0, 1))
    assert compute_loss("softmax_proxy", S, U, *multi_hot(labels), metric="euclidean", proxies=prox_tied).value == pytest.approx(0.0, abs=1e-12)
    # two tied negatives: the extra option costs log 2
    prox_two = ProxySet(semantic=np.array([[1.0, 0.0]] * 3), uncertainty=np.zeros((3, 2)), classes=(0, 1, 2))
    assert compute_loss("softmax_proxy", S, U, *multi_hot(labels), metric="euclidean", proxies=prox_two).value == pytest.approx(LOG2, rel=1e-12)


def test_proxy_nca_worked_values():
    U = np.zeros((1, 2))
    labels = (frozenset({0}),)
    # pos proxy on top of the sample, neg one unit away
    prox = ProxySet(semantic=np.array([[0.0, 0.0], [1.0, 0.0]]), uncertainty=np.zeros((2, 2)), classes=(0, 1))
    S = np.array([[0.0, 0.0]])
    assert compute_loss("proxy_nca", S, U, *multi_hot(labels), metric="euclidean", proxies=prox).value == pytest.approx(-1.0, rel=1e-12)
    # pos and both negs equidistant: log of the option count
    prox_eq = ProxySet(
        semantic=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        uncertainty=np.zeros((3, 2)),
        classes=(0, 1, 2),
    )
    assert compute_loss("proxy_nca", S, U, *multi_hot(labels), metric="euclidean", proxies=prox_eq).value == pytest.approx(LOG2, rel=1e-12)


def test_proxy_losses_require_proxies():
    S, U, labels = random_labeled(1)
    for loss in PROXY_LOSSES:
        with pytest.raises(ParameterError):
            compute_loss(loss, S, U, *multi_hot(labels), metric="euclidean")


@pytest.mark.parametrize("loss", sorted(PROXY_LOSSES))
def test_proxy_masks_need_a_proxy_only_for_classes_the_batch_holds(loss):
    # label rows over more classes than the proxies cover, as a dataset's
    # rows are (its test classes have no proxy)
    prox = ProxySet(semantic=np.eye(3)[:, :2], uncertainty=np.zeros((3, 2)), classes=(0, 1, 2))
    S = np.array([[1.0, 0.0], [0.0, 1.0]])
    U = np.zeros((2, 2))
    Y = np.array([[True, False, False, False], [False, True, False, False]])
    t = loss_tables(loss, S, U, metric="euclidean", proxies=prox)
    plan = build_plan(t, Y, (0, 1, 2, 5))
    assert plan.pos.tolist() == [[True, False, False], [False, True, False]]
    assert plan.neg.tolist() == [[False, True, True], [True, False, True]]
    Y[1, 3] = True  # now a row holds class 5, which has no proxy
    with pytest.raises(ParameterError, match=r"lacks classes \[5\]"):
        build_plan(t, Y, (0, 1, 2, 5))
    with pytest.raises(ParameterError, match="class id of each label column"):
        build_plan(t, Y)


def test_mixed_label_sample_is_positive_for_both_parents():
    r = np.random.default_rng(3)
    prox = make_proxies(r, 3, 4)
    S = r.normal(size=(1, 4))
    U = np.zeros((1, 4))
    plan = build_plan(loss_tables("proxy_anchor", S, U, metric="euclidean", proxies=prox), *multi_hot([{0, 2}]))
    assert plan.pos[0, 0] and plan.pos[0, 2]
    assert not plan.pos[0, 1]
    assert plan.neg[0, 1]


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
        a = compute_loss(loss, S, U, *multi_hot(labels), metric="ism", mp=MetricParams(gamma=0.0), rng=Rng(seed), **kw)
        b = compute_loss(loss, S, U, *multi_hot(labels), metric="euclidean", mp=MetricParams(gamma=0.0), rng=Rng(seed), **kw)
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(a.d_semantic, b.d_semantic, rtol=1e-12, atol=1e-12)
        assert np.all(a.d_uncertainty == 0.0)


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_loss_finite_and_hinges_nonnegative(loss):
    hinge_losses = {"contrastive", "margin_dw", "triplet_sh", "multi_similarity", "proxy_anchor"}
    for seed in range(8):
        S, U, labels = random_labeled(seed, n=12, u_scale=0.3)
        kw = loss_kwargs(loss, seed=seed, u_scale=0.3)
        r = compute_loss(loss, S, U, *multi_hot(labels), metric="ism", rng=Rng(seed), **kw)
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
    r = compute_loss(loss, S, U, *multi_hot(labels), metric=metric, rng=Rng(2), **kw)
    assert np.isfinite(r.value)
    assert r.d_semantic.shape == S.shape
    assert r.d_uncertainty.shape == U.shape


def test_plan_freeze_makes_evaluation_deterministic():
    # the same frozen plan must give bit-identical values on re-evaluation
    S, U, labels = random_labeled(7, u_scale=0.2)
    plan = build_plan(loss_tables("margin_dw", S, U, metric="ism"), *multi_hot(labels), rng=Rng(3))
    a = evaluate_loss(loss_tables("margin_dw", S, U, metric="ism"), plan)
    b = evaluate_loss(loss_tables("margin_dw", S, U, metric="ism"), plan)
    assert a.value == b.value
    assert np.array_equal(a.d_semantic, b.d_semantic)


def test_compute_loss_deterministic_under_seed():
    S, U, labels = random_labeled(8, u_scale=0.2)
    a = compute_loss("margin_dw", S, U, *multi_hot(labels), metric="ism", rng=Rng(5))
    b = compute_loss("margin_dw", S, U, *multi_hot(labels), metric="ism", rng=Rng(5))
    assert a.value == b.value
    assert a.plan.dw_negatives.tolist() == b.plan.dw_negatives.tolist()


def assert_same_result(a, b):
    """Two LossResults agree bit for bit: value, terms, every gradient, kink margin."""
    assert a.value.hex() == b.value.hex()
    assert float(a.kink_margin).hex() == float(b.kink_margin).hex()
    for name in ("pair_terms", "d_semantic", "d_uncertainty", "d_proxy_semantic", "d_proxy_uncertainty"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        assert x is None or np.array_equal(x, y), name


@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("metric", ["euclidean", "ism", "ism_dis", "uncert_sumnorm"])
def test_compute_loss_matches_separate_plan_and_evaluation(loss, metric):
    # compute_loss builds the tables once for both steps; a plan and an
    # evaluation on tables built separately must give the same bits
    S, U, labels = random_labeled(4, n=12, u_scale=0.3)
    Y, classes = multi_hot(labels)
    kw = loss_kwargs(loss, seed=4, u_scale=0.3)
    shared = compute_loss(loss, S, U, Y, classes, metric=metric, rng=Rng(6), **kw)
    plan = build_plan(loss_tables(loss, S, U, metric=metric, **kw), Y, classes, rng=Rng(6))
    separate = evaluate_loss(loss_tables(loss, S, U, metric=metric, **kw), plan)
    assert_same_result(shared, separate)
    for name, x in vars(plan).items():
        assert np.array_equal(getattr(shared.plan, name), x), name


@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("metric", ["euclidean", "ism", "ism_dis", "uncert_sumnorm"])
def test_loss_and_grad_matches_separate_plan_and_evaluation(loss, metric):
    X, _, labels = random_labeled(5, n=12)
    batch = Batch(X, *multi_hot(labels))
    proxy_classes = batch.classes if loss in PROXY_LOSSES else ()
    model = init_model(4, hidden=(5,), semantic_dim=4, uncertainty_dim=3, rng=Rng(1), proxy_classes=proxy_classes)
    res, grad = loss_and_grad(model, batch, loss, metric=metric, rng=Rng(6))
    S, U = forward(model, X)
    t = loss_tables(loss, S, U, metric=metric, proxies=model.proxies)
    plan = build_plan(t, batch.Y, batch.classes, rng=Rng(6))
    assert_same_result(res, evaluate_loss(t, plan))
    _, grad_frozen = loss_and_grad(model, batch, loss, metric=metric, plan=plan)
    assert np.array_equal(grad, grad_frozen)


def test_loss_entry_points_keep_their_errors():
    # loss_tables checks the loss, the metric, the batch and the proxy set;
    # build_plan the labels and the plan's own needs; compute_loss runs both
    S, U, labels = random_labeled(0)
    Y, classes = multi_hot(labels)
    no_proxies = ProxySet(np.zeros((0, 4)), np.zeros((0, 4)), ())
    one_proxy = ProxySet(np.ones((1, 4)), np.zeros((1, 4)), (0,))
    table_cases = [
        ("npair", S, {}, "unknown loss 'npair'"),
        ("triplet_sh", S, dict(metric="wat"), "unknown metric 'wat'"),
        ("triplet_sh", S[:0], {}, "loss_tables needs a nonempty batch"),
        ("proxy_anchor", S, {}, "proxy_anchor needs a nonempty proxy set"),
        ("proxy_nca", S, dict(proxies=no_proxies), "proxy_nca needs a nonempty proxy set"),
    ]
    for loss, S_, kw, message in table_cases:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            loss_tables(loss, S_, U[: len(S_)], **kw)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            compute_loss(loss, S_, U[: len(S_)], Y[: len(S_)], classes, rng=Rng(0), **kw)
    plan_cases = [
        ("margin_dw", S, Y, classes, {}, {}, "margin_dw planning needs an rng for its negative sampling"),
        (
            "margin_dw", S[:3], np.eye(3, dtype=bool), classes[:3], {}, dict(rng=Rng(0)),
            "margin_dw needs at least one positive pair",
        ),
        (
            "softmax_proxy", S[:2], np.ones((2, 1), dtype=bool), (0,), dict(proxies=one_proxy), {},
            "softmax_proxy needs at least one negative proxy per sample",
        ),
    ]
    for loss, S_, Y_, classes_, table_kw, kw, message in plan_cases:
        t = loss_tables(loss, S_, U[: len(S_)], **table_kw)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build_plan(t, Y_, classes_, **kw)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            compute_loss(loss, S_, U[: len(S_)], Y_, classes_, **table_kw, **kw)


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_evaluate_loss_rejects_a_plan_for_another_loss(loss):
    S, U, labels = random_labeled(0)
    Y, classes = multi_hot(labels)
    other = "triplet_sh" if loss == "contrastive" else "contrastive"
    plan = build_plan(loss_tables(loss, S, U, **loss_kwargs(loss)), Y, classes, rng=Rng(0))
    with pytest.raises(ParameterError, match="^evaluate_loss needs a plan built for the same loss$"):
        evaluate_loss(loss_tables(other, S, U), plan)


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_each_step_builds_one_table_set(loss, monkeypatch):
    # counted at the metric tables, the one call of the table step that
    # every loss makes exactly once
    builds = []
    for name in ("distance_table", "similarity_table"):
        fn = getattr(idml.losses, name)
        monkeypatch.setattr(idml.losses, name, lambda *a, fn=fn, **k: builds.append(1) or fn(*a, **k))
    X, _, labels = random_labeled(5, n=12)
    batch = Batch(X, *multi_hot(labels))
    proxy_classes = batch.classes if loss in PROXY_LOSSES else ()
    model = init_model(4, hidden=(5,), semantic_dim=4, uncertainty_dim=3, rng=Rng(1), proxy_classes=proxy_classes)
    res, _ = loss_and_grad(model, batch, loss, rng=Rng(6))
    assert len(builds) == 1
    loss_and_grad(model, batch, loss, plan=res.plan)
    assert len(builds) == 2
    S, U = forward(model, X)
    compute_loss(loss, S, U, batch.Y, batch.classes, proxies=model.proxies, rng=Rng(6))
    assert len(builds) == 3


def test_unknown_loss_rejected():
    S, U, labels = random_labeled(0)
    with pytest.raises(ParameterError):
        compute_loss("npair", S, U, *multi_hot(labels))


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_invalid_labels_rejected_by_build_plan(loss):
    S, U, labels = random_labeled(0)
    Y, classes = multi_hot(labels)
    # a row with no label, and rows that do not cover the batch
    Y[-1] = False
    t = loss_tables(loss, S, U, **loss_kwargs(loss))
    with pytest.raises(ParameterError, match="at least one label"):
        build_plan(t, Y, classes, rng=Rng(0))
    with pytest.raises(ShapeError):
        build_plan(t, Y[:-1], classes, rng=Rng(0))
    # an empty or negative label set never becomes a row
    for bad in (frozenset(), frozenset({-1})):
        with pytest.raises(ParameterError):
            multi_hot(labels[:-1] + (bad,))


def test_kink_margin_reports_distance_to_nearest_kink():
    # distinct points, euclidean route: margin is the smallest pair distance
    S = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    U = np.zeros((3, 2))
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    r = compute_loss("contrastive", S, U, *multi_hot(labels), metric="euclidean")
    assert r.kink_margin == pytest.approx(1.0, rel=1e-12)
    # the uncertainty route adds the beta = 0 kink, which u = 0 sits on
    r2 = compute_loss("contrastive", S, U, *multi_hot(labels), metric="ism")
    assert r2.kink_margin == 0.0


# (rows, semantic dim, uncertainty dim, proxies): the wide benchmark's step
# and the desk step
PULL_BACK_SHAPES = {"wide": (180, 512, 512, 20), "desk": (48, 32, 32, 10)}


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("proxy", [False, True], ids=["self", "proxy"])
@pytest.mark.parametrize("sumnorm", [False, True], ids=["ism", "sumnorm"])
@pytest.mark.parametrize("cosine", [False, True], ids=["distance", "cosine"])
@pytest.mark.parametrize("shape", PULL_BACK_SHAPES.values(), ids=PULL_BACK_SHAPES)
def test_pull_back_gives_the_expression_bits(shape, cosine, sumnorm, proxy):
    n, s_dim, u_dim, k = shape
    r = np.random.default_rng(n + 2 * cosine + sumnorm)
    S, U = r.normal(size=(n, s_dim)), 0.1 * r.normal(size=(n, u_dim))
    S[2] = 0.0  # a zero semantic row: norm 0 when normalized
    U[1], U[3] = -U[0], 0.0  # beta = 0 at (0, 1); ||u_3|| = 0
    loss = {(False, False): "contrastive", (True, False): "multi_similarity",
            (False, True): "proxy_nca", (True, True): "softmax_proxy"}[cosine, proxy]
    proxies = make_proxies(r, k, s_dim, u_dim, u_scale=0.1) if proxy else None
    t = loss_tables(loss, S, U, metric="uncert_sumnorm" if sumnorm else "ism", proxies=proxies)
    Wa, Wb = r.normal(size=t.A.shape), r.normal(size=t.A.shape)
    Wa[r.random(size=Wa.shape) < 0.3] = 0.0
    Y, V = (t.X, t.U) if t.Y is None else (t.Y, t.V)
    sides = [(Wa, Wb, t.A, t.B, t.X, Y, t.U, V)]
    if proxy:  # the column side, as `_pull_back` takes it
        sides.append((Wa.T, Wb.T, t.A.T, t.B.T, t.Y, t.X, t.V, t.U))
    rows = []
    for args in sides:
        dX, dU = idml.losses._row_side(*args, cosine, sumnorm)
        dX_ref, dU_ref = oracles.row_side_ref(*args, cosine, sumnorm)
        assert same_bits(dX, dX_ref) and same_bits(dU, dU_ref)
        rows.append(dX)
    if t.norms is not None:
        assert t.norms[2] == 0.0
        for dX, X, norms in zip(rows, (t.X, t.Y), (t.norms, t.pnorms)):
            got = idml.losses._denormalize_grad(dX, X, norms)
            assert same_bits(got, oracles.denormalize_grad_ref(dX, X, norms))
