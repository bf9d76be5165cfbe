"""Uncertainty-aware similarity: scalar formulas, tables, and their partials.

Scalar values are pinned against an extended-precision reference route
(tests/oracles.py); structural properties run as randomized invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from idml.core import EmbeddingPair, MetricParams, ParameterError
from idml.metric import (
    METRIC_NAMES,
    cosine_similarity,
    distance_table,
    euclidean_distance,
    gradient_weight,
    ism_dissim,
    ism_distance,
    ism_similarity,
    ism_strict,
    kl_gaussian,
    pair_geometry,
    pair_uncertainty_sumnorm,
    pairwise_pair_uncertainty,
    pairwise_semantic_distance,
    similarity_table,
)

MP0 = MetricParams()


def pair(s, u):
    return EmbeddingPair(semantic=np.asarray(s, float), uncertainty=np.asarray(u, float))


finite = st.floats(-10, 10, allow_nan=False)
pos = st.floats(0.05, 10, allow_nan=False)


# ---------------------------------------------------------------------------
# Pair geometry
# ---------------------------------------------------------------------------


def test_pair_geometry_worked_example():
    p1 = pair((1, 0, 0), (0.3, 0.4, 0))
    p2 = pair((0, 1, 0), (0.3, 0.4, 0))
    g = pair_geometry(p1, p2, MP0)
    assert g.alpha == pytest.approx(1.4142135623730951, rel=1e-12)
    assert g.beta == pytest.approx(1.0, rel=1e-12)
    assert g.beta_rel == pytest.approx(0.7071067811865476, rel=1e-12)
    g2 = pair_geometry(p1, p2, MetricParams(gamma=2.0))
    assert g2.beta_rel == pytest.approx(2.1213203435596424, rel=1e-12)


def test_pair_geometry_cancellation_vs_sumnorm():
    # opposite uncertainty directions cancel in the pairwise form but not in
    # the per-sample-norm ablation
    p1 = pair((0, 0), (1.0, 0.0))
    p2 = pair((1, 0), (-1.0, 0.0))
    assert pair_geometry(p1, p2, MP0).beta == 0.0
    assert pair_uncertainty_sumnorm(p1, p2) == 2.0


def test_pair_geometry_alpha_floor():
    # coincident semantics: the alpha floor keeps beta_rel finite
    p = pair((1, 1), (0.5, 0))
    g = pair_geometry(p, p, MetricParams(alpha_min=1e-6))
    assert g.alpha == 0.0
    assert g.beta_rel == pytest.approx(1.0 / 1e-6, rel=1e-12)


@given(
    s1=st.tuples(finite, finite, finite),
    s2=st.tuples(finite, finite, finite),
    u1=st.tuples(finite, finite, finite),
    u2=st.tuples(finite, finite, finite),
    gamma=st.floats(0, 5),
)
def test_pair_geometry_matches_reference(s1, s2, u1, u2, gamma):
    mp_ = MetricParams(gamma=gamma)
    g = pair_geometry(pair(s1, u1), pair(s2, u2), mp_)
    a, b, br = oracles.pair_geometry_ref(s1, s2, u1, u2, gamma=gamma)
    assert g.alpha == pytest.approx(a, rel=1e-12, abs=1e-12)
    assert g.beta == pytest.approx(b, rel=1e-12, abs=1e-12)
    assert g.beta_rel == pytest.approx(br, rel=1e-9, abs=1e-9)


def test_pair_geometry_symmetry_is_exact():
    r = np.random.default_rng(0)
    for _ in range(50):
        p1 = pair(r.normal(size=4), r.normal(size=3))
        p2 = pair(r.normal(size=4), r.normal(size=3))
        g12 = pair_geometry(p1, p2, MP0)
        g21 = pair_geometry(p2, p1, MP0)
        assert (g12.alpha, g12.beta, g12.beta_rel) == (g21.alpha, g21.beta, g21.beta_rel)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_euclidean_distance_hand_values():
    assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0
    assert euclidean_distance(np.ones(3), np.ones(3)) == 0.0


def test_ism_distance_worked_example():
    # alpha = sqrt(2), beta_rel = 1/sqrt(2), tau = 5
    p1 = pair((1, 0, 0), (0.3, 0.4, 0))
    p2 = pair((0, 1, 0), (0.3, 0.4, 0))
    d = ism_distance(p1, p2, MetricParams(tau=5.0))
    assert d == pytest.approx(1.227711950291081, rel=1e-12)


def test_ism_distance_certain_pair_is_euclidean():
    p1 = pair((1, 2, 3), (0, 0, 0))
    p2 = pair((4, 6, 3), (0, 0, 0))
    assert ism_distance(p1, p2, MP0) == euclidean_distance(p1.semantic, p2.semantic)


@given(
    s1=st.tuples(finite, finite),
    s2=st.tuples(finite, finite),
    u1=st.tuples(finite, finite),
    u2=st.tuples(finite, finite),
    gamma=st.floats(0, 4),
    tau=st.floats(0.5, 20),
)
def test_ism_distance_matches_reference(s1, s2, u1, u2, gamma, tau):
    mp_ = MetricParams(gamma=gamma, tau=tau)
    g = oracles.pair_geometry_ref(s1, s2, u1, u2, gamma=gamma)
    want = oracles.ism_distance_ref(g[0], g[1], gamma, tau)
    got = ism_distance(pair(s1, u1), pair(s2, u2), mp_)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(
    s1=st.tuples(finite, finite),
    s2=st.tuples(finite, finite),
    u1=st.tuples(finite, finite),
    u2=st.tuples(finite, finite),
)
def test_soften_never_exceeds_alpha(s1, s2, u1, u2):
    p1, p2 = pair(s1, u1), pair(s2, u2)
    g = pair_geometry(p1, p2, MP0)
    d = ism_distance(p1, p2, MP0)
    assert d <= g.alpha + 1e-15
    if g.beta_rel > 1e-9 and g.alpha > 1e-9:
        assert d < g.alpha


def test_ism_distance_monotone_decreasing_in_beta():
    p1 = pair((0, 0), (0, 0))
    ds = [
        ism_distance(p1, pair((2, 0), (b, 0)), MP0)
        for b in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_ism_distance_violates_triangle_inequality():
    """A maximally uncertain midpoint makes both legs cheap while the direct
    path stays at full length — the softened distance is not a metric."""
    mp_ = MetricParams(tau=5.0)
    a = pair((0.0,), (0.0,))
    mid = pair((1.0,), (50.0,))
    b = pair((2.0,), (0.0,))
    legs = ism_distance(a, mid, mp_) + ism_distance(mid, b, mp_)
    direct = ism_distance(a, b, mp_)
    assert direct > legs


def test_ism_strict_indicator():
    mp_ = MetricParams()
    certain = pair((0, 0), (0, 0))
    far = pair((3, 0), (0.1, 0))
    assert ism_strict(certain, far, mp_) == pair_geometry(certain, far, mp_).alpha
    # uncertainty dominating the separation kills the distance
    noisy = pair((3, 0), (5.0, 0))
    assert ism_strict(certain, noisy, mp_) == 0.0
    # gamma can push a surviving pair over the edge
    assert ism_strict(certain, far, MetricParams(gamma=4.0)) == 0.0


@given(
    s2=st.tuples(pos, pos),
    u2=st.tuples(finite, finite),
    gamma=st.floats(0, 3),
)
def test_ism_strict_sign_set(s2, u2, gamma):
    mp_ = MetricParams(gamma=gamma)
    p1 = pair((0, 0), (0, 0))
    p2 = pair(s2, u2)
    g = pair_geometry(p1, p2, mp_)
    got = ism_strict(p1, p2, mp_)
    if g.alpha - g.beta - gamma > 0:
        assert got == g.alpha
    else:
        assert got == 0.0


# ---------------------------------------------------------------------------
# Similarity forms
# ---------------------------------------------------------------------------


def test_ism_similarity_worked_values():
    assert ism_similarity(0.5, 5.0, 5.0) == pytest.approx(0.8160602794142788, rel=1e-12)
    assert ism_similarity(0.7, 0.0, 5.0) == pytest.approx(0.7, rel=1e-15)
    assert ism_similarity(1.0, 3.0, 5.0) == 1.0


def test_ism_dissim_worked_values():
    assert ism_dissim(0.5, 5.0, 5.0) == pytest.approx(0.18393972058572117, rel=1e-12)
    assert ism_dissim(0.5, 0.0, 5.0) == pytest.approx(0.5, rel=1e-15)
    assert ism_dissim(0.0, 2.0, 5.0) == 0.0


@given(c=st.floats(-1, 1), beta_rel=st.floats(0, 50), tau=st.floats(0.5, 20))
def test_similarity_bounds(c, beta_rel, tau):
    s = ism_similarity(c, beta_rel, tau)
    assert s >= c - 1e-15
    assert s <= 1.0 + 1e-15
    assert s == pytest.approx(oracles.ism_similarity_ref(c, beta_rel, tau), rel=1e-12, abs=1e-12)


@given(c=st.floats(0, 1), beta_rel=st.floats(0, 50), tau=st.floats(0.5, 20))
def test_dissim_bounds(c, beta_rel, tau):
    d = ism_dissim(c, beta_rel, tau)
    assert 0.0 - 1e-15 <= d <= c + 1e-15
    assert d == pytest.approx(oracles.ism_dissim_ref(c, beta_rel, tau), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Gradient weight
# ---------------------------------------------------------------------------


def test_gradient_weight_worked_values():
    tau = 5.0
    # beta_rel = tau  ->  2/e
    assert gradient_weight(1.0, tau * 1.0, MetricParams(tau=tau)) == pytest.approx(
        0.7357588823428847, rel=1e-12
    )
    # beta_rel = 2*tau  ->  3/e^2
    assert gradient_weight(1.0, 2 * tau, MetricParams(tau=tau)) == pytest.approx(
        0.40600584970983805, rel=1e-12
    )
    assert gradient_weight(1.0, 0.0, MP0) == 1.0


def test_gradient_weight_peak_only_at_zero_uncertainty():
    assert gradient_weight(2.0, 0.0, MP0) == 1.0
    for b in (1e-6, 0.01, 0.5, 3.0):
        assert gradient_weight(2.0, b, MP0) < 1.0
    # gamma alone also pulls the weight below one
    assert gradient_weight(2.0, 0.0, MetricParams(gamma=0.5)) < 1.0


def test_gradient_weight_requires_alpha_above_floor():
    with pytest.raises(ParameterError):
        gradient_weight(0.0, 1.0, MP0)


@given(alpha=pos, beta=st.floats(0, 20), gamma=st.floats(0, 3), tau=st.floats(0.5, 20))
@settings(max_examples=60)
def test_gradient_weight_is_distance_slope(alpha, beta, gamma, tau):
    """H equals the numerical derivative of the softened distance in alpha."""
    mp_ = MetricParams(gamma=gamma, tau=tau)
    h = 1e-5 * alpha

    def d_of(a):
        return oracles.ism_distance_ref(a, beta, gamma, tau)

    fd = (d_of(alpha + h) - d_of(alpha - h)) / (2 * h)
    got = gradient_weight(alpha, beta, mp_)
    assert got == pytest.approx(fd, rel=1e-6)
    assert got == pytest.approx(
        oracles.gradient_weight_ref(alpha, beta, gamma, tau), rel=1e-12
    )


# ---------------------------------------------------------------------------
# KL divergence and cosine
# ---------------------------------------------------------------------------


def test_kl_gaussian_worked_values():
    z = np.zeros(1)
    o = np.ones(1)
    assert kl_gaussian(z, o, z, o) == 0.0
    # unit variances, means one apart
    assert kl_gaussian(z, o, o, o) == pytest.approx(0.5, rel=1e-15)
    # sigma ratio e, equal means
    e = float(np.e)
    assert kl_gaussian(z, e * o, z, o) == pytest.approx(
        oracles.kl_gaussian_ref([0], [e], [0], [1]), rel=1e-12
    )


@given(
    mu1=st.tuples(finite, finite),
    mu2=st.tuples(finite, finite),
    s1=st.tuples(pos, pos),
    s2=st.tuples(pos, pos),
)
def test_kl_gaussian_nonnegative_and_matches_reference(mu1, mu2, s1, s2):
    got = kl_gaussian(np.array(mu1), np.array(s1), np.array(mu2), np.array(s2))
    assert got >= -1e-12
    assert got == pytest.approx(oracles.kl_gaussian_ref(mu1, s1, mu2, s2), rel=1e-9, abs=1e-9)


def test_kl_gaussian_asymmetric():
    mu, o = np.zeros(1), np.ones(1)
    a = kl_gaussian(mu, 2 * o, mu, o)
    b = kl_gaussian(mu, o, mu, 2 * o)
    assert a != pytest.approx(b)


def test_cosine_similarity_hand_values():
    a = np.array([1.0, 0.0])
    assert cosine_similarity(a, np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert cosine_similarity(a, np.array([0.0, 3.0])) == pytest.approx(0.0, abs=1e-15)
    assert cosine_similarity(a, np.array([-1.0, 0.0])) == pytest.approx(-1.0)


def test_cosine_similarity_zero_vector_rejected():
    from idml.core import DegenerateInputError

    with pytest.raises(DegenerateInputError):
        cosine_similarity(np.zeros(3), np.ones(3))


@given(a=st.tuples(finite, finite, finite), b=st.tuples(finite, finite, finite))
def test_cosine_similarity_clamped(a, b):
    va, vb = np.array(a), np.array(b)
    if np.linalg.norm(va) < 1e-6 or np.linalg.norm(vb) < 1e-6:
        return
    c = cosine_similarity(va, vb)
    assert -1.0 <= c <= 1.0


# ---------------------------------------------------------------------------
# Vectorized tables vs scalar route
# ---------------------------------------------------------------------------


def test_pairwise_tables_match_scalar_loops():
    r = np.random.default_rng(5)
    S = r.normal(size=(7, 4))
    U = 0.4 * r.normal(size=(7, 3))
    A = pairwise_semantic_distance(S)
    B = pairwise_pair_uncertainty(U)
    Bs = pairwise_pair_uncertainty(U, sumnorm=True)
    for i in range(7):
        for j in range(7):
            assert A[i, j] == pytest.approx(float(np.linalg.norm(S[i] - S[j])), rel=1e-12, abs=1e-12)
            assert B[i, j] == pytest.approx(float(np.linalg.norm(U[i] + U[j])), rel=1e-12, abs=1e-12)
            assert Bs[i, j] == pytest.approx(
                float(np.linalg.norm(U[i]) + np.linalg.norm(U[j])), rel=1e-12, abs=1e-12
            )


def test_pairwise_semantic_distance_two_sets():
    r = np.random.default_rng(6)
    S, T = r.normal(size=(4, 3)), r.normal(size=(5, 3))
    A = pairwise_semantic_distance(S, T)
    assert A.shape == (4, 5)
    assert A[2, 3] == pytest.approx(float(np.linalg.norm(S[2] - T[3])), rel=1e-12)


def _table_cases():
    """Row sets (X, Y) on which the Gram form alone would cancel."""
    r = np.random.default_rng(8)
    base = r.normal(size=(6, 5))
    near = np.vstack([base, base + 1e-9 * r.normal(size=base.shape)])
    return [
        pytest.param(1e3 + base, None, id="offset_1e3"),
        pytest.param(1e6 + base, None, id="offset_1e6"),
        pytest.param(np.vstack([base, base[::-1], base[:2]]), None, id="duplicates"),
        pytest.param(near, None, id="near_duplicates_1e-9"),
        pytest.param(np.vstack([np.zeros((3, 5)), base]), None, id="zero_rows"),
        pytest.param(1e6 + near, 1e6 + np.vstack([base[:4], r.normal(size=(3, 5))]), id="two_sets"),
    ]


@pytest.mark.parametrize("X,Y", _table_cases())
def test_pairwise_semantic_distance_matches_explicit_differences(X, Y):
    T = X if Y is None else Y
    A = pairwise_semantic_distance(X, Y)
    want = np.array([[np.linalg.norm(x - t) for t in T] for x in X])
    assert A.shape == (X.shape[0], T.shape[0])
    assert A == pytest.approx(want, rel=1e-12, abs=1e-12)
    same = np.all(X[:, None, :] == T[None, :, :], axis=2)
    assert np.all(A[same] == 0.0)  # coincident rows give exactly 0
    if Y is None:
        assert np.array_equal(A, A.T)


@pytest.mark.parametrize("X,Y", _table_cases())
def test_pairwise_pair_uncertainty_matches_explicit_sums(X, Y):
    # V holds negated X rows, so beta cancels exactly at those pairs; the
    # `B > 0` masks in the loss gradients rely on that exact 0.
    V = np.vstack([-X[:4], X if Y is None else Y])
    B = pairwise_pair_uncertainty(X, V)
    want = np.array([[np.linalg.norm(x + v) for v in V] for x in X])
    assert B == pytest.approx(want, rel=1e-12, abs=1e-12)
    opposed = np.all(X[:, None, :] == -V[None, :, :], axis=2)
    assert opposed.sum() >= 4
    assert np.all(B[opposed] == 0.0)


@pytest.mark.parametrize("metric", [m for m in METRIC_NAMES])
def test_distance_table_matches_scalar_formula(metric):
    r = np.random.default_rng(7)
    mp_ = MetricParams(gamma=0.3, tau=4.0)
    A = np.abs(r.normal(size=(5, 5))) + 0.2
    B = np.abs(r.normal(size=(5, 5)))
    D, dDdA, dDdB = distance_table(metric, A, B, mp_)
    for i in range(5):
        for j in range(5):
            a, b = float(A[i, j]), float(B[i, j])
            if metric == "euclidean":
                want = a
            elif metric == "ism_strict":
                want = a if a - b - mp_.gamma > 0 else 0.0
            elif metric == "ism_dis":
                want = oracles.ism_dis_distance_ref(a, b, mp_.gamma, mp_.tau)
            else:  # ism and the sum-norm ablation share the softened form
                want = oracles.ism_distance_ref(a, b, mp_.gamma, mp_.tau)
            assert D[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("metric", [m for m in METRIC_NAMES])
def test_distance_table_partials_match_finite_differences(metric):
    r = np.random.default_rng(8)
    mp_ = MetricParams(gamma=0.2, tau=5.0)
    A = np.abs(r.normal(size=(4, 4))) + 0.5
    B = np.abs(r.normal(size=(4, 4))) + 0.1
    if metric == "ism_strict":
        # stay away from the indicator boundary; partials hold it constant
        B = np.where(np.abs(A - B - mp_.gamma) < 0.2, A - mp_.gamma - 0.5, B)
        B = np.maximum(B, 0.0)
    _, dDdA, dDdB = distance_table(metric, A, B, mp_)
    h = 1e-6
    for i, j in [(0, 1), (2, 3), (1, 1)]:
        dA = np.array(A)
        dA[i, j] += h
        up = distance_table(metric, dA, B, mp_)[0][i, j]
        dA[i, j] -= 2 * h
        dn = distance_table(metric, dA, B, mp_)[0][i, j]
        assert dDdA[i, j] == pytest.approx((up - dn) / (2 * h), rel=2e-5, abs=1e-8)
        dB = np.array(B)
        dB[i, j] += h
        up = distance_table(metric, A, dB, mp_)[0][i, j]
        dB[i, j] -= 2 * h
        dn = distance_table(metric, A, dB, mp_)[0][i, j]
        assert dDdB[i, j] == pytest.approx((up - dn) / (2 * h), rel=2e-5, abs=1e-8)


@pytest.mark.parametrize("metric", ["euclidean", "ism", "ism_dis", "uncert_sumnorm"])
def test_similarity_table_matches_scalar_formula(metric):
    r = np.random.default_rng(9)
    mp_ = MetricParams(gamma=0.1, tau=5.0)
    C = np.clip(r.uniform(-0.9, 0.9, size=(5, 5)), -0.9, 0.9)
    B = np.abs(r.normal(size=(5, 5)))
    Cp, _, _ = similarity_table(metric, C, B, mp_)
    for i in range(5):
        for j in range(5):
            c, b = float(C[i, j]), float(B[i, j])
            if metric == "euclidean":
                want = c
            else:
                chord = np.sqrt(max(2 - 2 * c, 0.0))
                beta_rel = (b + mp_.gamma) / max(chord, mp_.alpha_min)
                if metric == "ism_dis":
                    want = oracles.ism_dissim_ref(c, beta_rel, mp_.tau)
                else:
                    want = oracles.ism_similarity_ref(c, beta_rel, mp_.tau)
            assert Cp[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_similarity_table_partials_match_finite_differences():
    r = np.random.default_rng(10)
    mp_ = MetricParams(gamma=0.1, tau=5.0)
    C = r.uniform(-0.8, 0.8, size=(4, 4))
    B = np.abs(r.normal(size=(4, 4))) + 0.05
    _, dCdC, dCdB = similarity_table("ism", C, B, mp_)
    h = 1e-6
    for i, j in [(0, 2), (3, 1)]:
        dC = np.array(C)
        dC[i, j] += h
        up = similarity_table("ism", dC, B, mp_)[0][i, j]
        dC[i, j] -= 2 * h
        dn = similarity_table("ism", dC, B, mp_)[0][i, j]
        assert dCdC[i, j] == pytest.approx((up - dn) / (2 * h), rel=2e-5, abs=1e-8)
        dB = np.array(B)
        dB[i, j] += h
        up = similarity_table("ism", C, dB, mp_)[0][i, j]
        dB[i, j] -= 2 * h
        dn = similarity_table("ism", C, dB, mp_)[0][i, j]
        assert dCdB[i, j] == pytest.approx((up - dn) / (2 * h), rel=2e-5, abs=1e-8)


def test_distance_table_rejects_unknown_metric():
    with pytest.raises(ParameterError):
        distance_table("mahalanobis", np.ones((2, 2)), np.ones((2, 2)), MP0)
