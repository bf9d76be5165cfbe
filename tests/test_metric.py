"""Uncertainty-aware similarity: the pairwise tables and their partials.

Every formula has one implementation, over tables; a single pair is a
2-row table. Values are pinned against an extended-precision reference
route (tests/oracles.py); structural properties run as randomized
invariants.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from idml import core, metric
from idml.core import TABLE_BLOCK, DegenerateInputError, MetricParams, ParameterError, block_rows
from idml.evaluation import relative_embeddings
from idml.metric import (
    METRIC_NAMES,
    PANEL_ROWS,
    _beta_rel_parts,
    _gram_distances,
    distance_panels,
    distance_table,
    gram_panels,
    gradient_weight,
    pairwise_pair_uncertainty,
    pairwise_semantic_distance,
    similarity_table,
)

MP0 = MetricParams()


def pair_tables(*points):
    """alpha and beta tables over (s, u) points, one row per point."""
    S = np.array([p[0] for p in points], dtype=float)
    U = np.array([p[1] for p in points], dtype=float)
    return pairwise_semantic_distance(S), pairwise_pair_uncertainty(U)


def pair_distance(metric, p1, p2, mp_):
    A, B = pair_tables(p1, p2)
    return distance_table(metric, A, B, mp_)[0][0, 1]


def chords(C):
    """The chord distances sqrt(2 - 2C) of unit rows with cosines C, as `similarity_table` takes them."""
    return np.sqrt(np.maximum(2.0 - 2.0 * C, 0.0))


def similarity(metric, c, beta, tau=5.0):
    """The similarity form at one cosine c and pair uncertainty beta (gamma = 0)."""
    C = np.array([[c]])
    return similarity_table(metric, C, chords(C), np.array([[beta]]), MetricParams(tau=tau))[0][0, 0]


finite = st.floats(-10, 10, allow_nan=False)
pos = st.floats(0.05, 10, allow_nan=False)


# ---------------------------------------------------------------------------
# Pair geometry
# ---------------------------------------------------------------------------


def test_pair_geometry_worked_example():
    A, B = pair_tables(((1, 0, 0), (0.3, 0.4, 0)), ((0, 1, 0), (0.3, 0.4, 0)))
    assert A[0, 1] == pytest.approx(1.4142135623730951, rel=1e-12)
    assert B[0, 1] == pytest.approx(1.0, rel=1e-12)
    assert _beta_rel_parts(A, B, MP0)[1][0, 1] == pytest.approx(0.7071067811865476, rel=1e-12)
    bt2 = _beta_rel_parts(A, B, MetricParams(gamma=2.0))[1]
    assert bt2[0, 1] == pytest.approx(2.1213203435596424, rel=1e-12)


def test_pair_geometry_cancellation_vs_sumnorm():
    # opposite uncertainty directions cancel in the pairwise form but not in
    # the per-sample-norm ablation
    U = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert pairwise_pair_uncertainty(U)[0, 1] == 0.0
    assert pairwise_pair_uncertainty(U, sumnorm=True)[0, 1] == 2.0


def test_pair_geometry_alpha_floor():
    """At zero semantic distance the alpha_min clamp keeps beta_rel, every
    metric and every partial finite; the distance form gives D = 0 there."""
    p = ((1, 1), (0.5, 0))
    A, B = pair_tables(p, p)
    assert A[0, 1] == 0.0
    assert _beta_rel_parts(A, B, MetricParams(alpha_min=1e-6))[1][0, 1] == pytest.approx(
        1.0 / 1e-6, rel=1e-12
    )
    zero, one = np.zeros((1, 1)), np.ones((1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric in METRIC_NAMES:
            for beta in (0.0, 0.5):
                for alpha_min in (1e-12, 1e-6):
                    mp_ = MetricParams(alpha_min=alpha_min)
                    Bt = np.full((1, 1), beta)
                    D, dDdA, dDdB = distance_table(metric, zero, Bt, mp_)
                    sim = similarity_table(metric, one, zero, Bt, mp_)
                    assert all(np.isfinite(t).all() for t in (D, dDdA, dDdB) + sim)
                    assert D[0, 0] == 0.0
                    assert dDdB[0, 0] == 0.0


@given(
    s1=st.tuples(finite, finite, finite),
    s2=st.tuples(finite, finite, finite),
    u1=st.tuples(finite, finite, finite),
    u2=st.tuples(finite, finite, finite),
    gamma=st.floats(0, 5),
)
def test_pair_geometry_matches_reference(s1, s2, u1, u2, gamma):
    A, B = pair_tables((s1, u1), (s2, u2))
    a, b, br = oracles.pair_geometry_ref(s1, s2, u1, u2, gamma=gamma)
    assert A[0, 1] == pytest.approx(a, rel=1e-12, abs=1e-12)
    assert B[0, 1] == pytest.approx(b, rel=1e-12, abs=1e-12)
    assert _beta_rel_parts(A, B, MetricParams(gamma=gamma))[1][0, 1] == pytest.approx(
        br, rel=1e-9, abs=1e-9
    )


def test_self_tables_symmetry():
    """A self alpha table equals its transpose exactly. The self beta table
    (U against -U) only to rounding: its centering and Gram products round
    differently in the two triangles."""
    r = np.random.default_rng(0)
    for _ in range(20):
        n, d = int(r.integers(2, 61)), int(r.integers(1, 601))
        A = pairwise_semantic_distance(r.normal(size=(n, d)))
        assert np.array_equal(A, A.T)
        B = pairwise_pair_uncertainty(r.normal(size=(n, d)))
        np.testing.assert_allclose(B, B.T, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_euclidean_distance_hand_values():
    A = pairwise_semantic_distance(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert A[0, 1] == 5.0
    assert distance_table("euclidean", A, np.zeros_like(A), MP0)[0][0, 1] == 5.0
    assert pairwise_semantic_distance(np.ones((2, 3)))[0, 1] == 0.0


def test_ism_distance_worked_example():
    # alpha = sqrt(2), beta_rel = 1/sqrt(2), tau = 5
    p1 = ((1, 0, 0), (0.3, 0.4, 0))
    p2 = ((0, 1, 0), (0.3, 0.4, 0))
    d = pair_distance("ism", p1, p2, MetricParams(tau=5.0))
    assert d == pytest.approx(1.227711950291081, rel=1e-12)


def test_ism_distance_certain_pair_is_euclidean():
    A, B = pair_tables(((1, 2, 3), (0, 0, 0)), ((4, 6, 3), (0, 0, 0)))
    assert distance_table("ism", A, B, MP0)[0][0, 1] == A[0, 1]


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
    got = pair_distance("ism", (s1, u1), (s2, u2), mp_)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(
    s1=st.tuples(finite, finite),
    s2=st.tuples(finite, finite),
    u1=st.tuples(finite, finite),
    u2=st.tuples(finite, finite),
)
def test_soften_never_exceeds_alpha(s1, s2, u1, u2):
    A, B = pair_tables((s1, u1), (s2, u2))
    alpha, beta_rel = A[0, 1], _beta_rel_parts(A, B, MP0)[1][0, 1]
    d = distance_table("ism", A, B, MP0)[0][0, 1]
    assert d <= alpha + 1e-15
    if beta_rel > 1e-9 and alpha > 1e-9:
        assert d < alpha


def test_ism_distance_monotone_decreasing_in_beta():
    betas = (0.0, 0.5, 1.0, 2.0, 4.0)
    A, B = pair_tables(((0, 0), (0, 0)), *[((2, 0), (b, 0)) for b in betas])
    ds = distance_table("ism", A, B, MP0)[0][0, 1:]
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_ism_distance_violates_triangle_inequality():
    """A maximally uncertain midpoint makes both legs cheap while the direct
    path stays at full length — the softened distance is not a metric."""
    A, B = pair_tables(((0.0,), (0.0,)), ((1.0,), (50.0,)), ((2.0,), (0.0,)))
    D = distance_table("ism", A, B, MetricParams(tau=5.0))[0]
    assert D[0, 2] > D[0, 1] + D[1, 2]


def test_ism_strict_indicator():
    certain, far = ((0, 0), (0, 0)), ((3, 0), (0.1, 0))
    # uncertainty dominating the separation kills the distance
    noisy = ((3, 0), (5.0, 0))
    A, B = pair_tables(certain, far, noisy)
    D = distance_table("ism_strict", A, B, MP0)[0]
    assert D[0, 1] == A[0, 1]
    assert D[0, 2] == 0.0
    # gamma can push a surviving pair over the edge
    assert distance_table("ism_strict", A, B, MetricParams(gamma=4.0))[0][0, 1] == 0.0


@given(
    s2=st.tuples(pos, pos),
    u2=st.tuples(finite, finite),
    gamma=st.floats(0, 3),
)
def test_ism_strict_sign_set(s2, u2, gamma):
    A, B = pair_tables(((0, 0), (0, 0)), (s2, u2))
    got = distance_table("ism_strict", A, B, MetricParams(gamma=gamma))[0][0, 1]
    if A[0, 1] - B[0, 1] - gamma > 0:
        assert got == A[0, 1]
    else:
        assert got == 0.0


# ---------------------------------------------------------------------------
# Similarity forms
# ---------------------------------------------------------------------------


def test_ism_similarity_worked_values():
    # at c = 0.5 the chord sqrt(2 - 2c) is 1, so beta_rel = beta
    assert similarity("ism", 0.5, 5.0) == pytest.approx(0.8160602794142788, rel=1e-12)
    assert similarity("ism", 0.7, 0.0) == pytest.approx(0.7, rel=1e-15)
    assert similarity("ism", 1.0, 3.0) == 1.0


def test_ism_dissim_worked_values():
    assert similarity("ism_dis", 0.5, 5.0) == pytest.approx(0.18393972058572117, rel=1e-12)
    assert similarity("ism_dis", 0.5, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert similarity("ism_dis", 0.0, 2.0) == 0.0


def _chord_beta_rel(c, beta):
    return beta / max(np.sqrt(max(2 - 2 * c, 0.0)), MP0.alpha_min)


@given(c=st.floats(-1, 1), beta=st.floats(0, 50), tau=st.floats(0.5, 20))
def test_similarity_bounds(c, beta, tau):
    s = similarity("ism", c, beta, tau)
    assert s >= c - 1e-15
    assert s <= 1.0 + 1e-15
    want = oracles.ism_similarity_ref(c, _chord_beta_rel(c, beta), tau)
    assert s == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(c=st.floats(0, 1), beta=st.floats(0, 50), tau=st.floats(0.5, 20))
def test_dissim_bounds(c, beta, tau):
    d = similarity("ism_dis", c, beta, tau)
    assert 0.0 - 1e-15 <= d <= c + 1e-15
    want = oracles.ism_dissim_ref(c, _chord_beta_rel(c, beta), tau)
    assert d == pytest.approx(want, rel=1e-12, abs=1e-12)


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
# Cosine (its batch form is evaluation.relative_embeddings)
# ---------------------------------------------------------------------------


def test_cosine_similarity_hand_values():
    R = relative_embeddings(np.array([[2.0, 0.0], [0.0, 3.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert R[0, 0] == pytest.approx(1.0)
    assert R[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert R[2, 0] == pytest.approx(-1.0)


def test_cosine_similarity_zero_vector_rejected():
    with pytest.raises(DegenerateInputError):
        relative_embeddings(np.ones((1, 3)), np.zeros((1, 3)))


@given(a=st.tuples(finite, finite, finite), b=st.tuples(finite, finite, finite))
def test_cosine_similarity_clamped(a, b):
    va, vb = np.array([a]), np.array([b])
    if np.linalg.norm(va) < 1e-6 or np.linalg.norm(vb) < 1e-6:
        return
    c = relative_embeddings(va, vb)[0, 0]
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


def gram_args(X, Y=None):
    """The Gram core's arguments for rows X and Y (Y = None: the self case,
    whose product runs as one symmetric product)."""
    same = Y is None
    Y = X if same else Y
    center = (X if same else np.concatenate([X, Y])).mean(axis=0)
    Xc = X - center
    Yc = Xc if same else Y - center
    nx = np.einsum("ij,ij->i", Xc, Xc)
    ny = nx if same else np.einsum("ij,ij->i", Yc, Yc)
    return X, Y, Xc, nx, Yc, ny


def assert_gram_core_matches_whole_table(args, recompute_slice=metric._RECOMPUTE_SLICE):
    got = _gram_distances(*args)
    # the same objects: the self case passes Xc as Yc, as the library does
    want = oracles.gram_distances_ref(*args, ratio=metric._RECOMPUTE_RATIO, recompute_slice=recompute_slice)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return got


def late_duplicates(r, n, d, offset):
    """n rows at a large common offset whose last 60 rows repeat, or nearly
    repeat, rows 0-59: their recomputed entries sit in the last blocks."""
    X = offset + r.normal(size=(n, d))
    X[n - 40 :] = X[:40]
    X[n - 60 : n - 40] = X[40:60] + 1e-9 * r.normal(size=(20, d))
    return X


def test_gram_core_matches_whole_table_self_case():
    r = np.random.default_rng(41)
    X = late_duplicates(r, 700, 7, 1e3)
    assert 700 % block_rows(700) != 0  # the last block is partial
    D2 = assert_gram_core_matches_whole_table(gram_args(X))
    assert np.all(D2[np.arange(660, 700), np.arange(40)] == 0.0)
    assert np.array_equal(D2, D2.T)


def self_table_rows(case):
    """700 Gaussian rows at an offset, two of them zero, plus the case's
    non-finite rows."""
    r = np.random.default_rng(48)
    X = 1e3 + r.normal(size=(700, 9))
    X[[5, 650]] = 0.0
    if case == "inf_nan":  # every centered row then has a non-finite norm
        X[17, 3], X[444, 0] = np.inf, np.nan
    elif case == "overflow":  # row 300's squared norm alone overflows to inf
        X = r.normal(size=(700, 9))
        X[300, 2] = 2e154
    return X


@pytest.mark.parametrize("case", ["finite", "inf_nan", "overflow"])
def test_gram_core_writes_the_self_diagonal_with_the_whole_table_bits(case):
    # the self case writes 0 on the diagonal of its finite-norm rows; the
    # whole-table core recomputes it from x - x. Whole table and 256-row
    # panels, each several blocks, must give the same bits, NaNs included
    X = self_table_rows(case)
    assert block_rows(len(X)) < PANEL_ROWS
    with np.errstate(invalid="ignore", over="ignore"):
        args = gram_args(X)
        _, Y, Xc, nx, Yc, ny = args
        D2 = _gram_distances(*args)
        want = oracles.gram_distances_ref(*args, ratio=metric._RECOMPUTE_RATIO)
        assert np.array_equal(D2.view(np.uint64), want.view(np.uint64))
        for lo in range(0, len(X), PANEL_ROWS):
            hi = lo + PANEL_ROWS
            panel = _gram_distances(*args, lo=lo, hi=hi)
            want = oracles.gram_distances_ref(X[lo:hi], Y, Xc[lo:hi], nx[lo:hi], Yc, ny, ratio=metric._RECOMPUTE_RATIO)
            assert np.array_equal(panel.view(np.uint64), want.view(np.uint64))
    finite = np.isfinite(nx)
    assert finite.sum() == {"finite": 700, "inf_nan": 0, "overflow": 699}[case]
    assert np.all(np.diagonal(D2)[finite] == 0.0)
    if case == "finite":
        assert D2[5, 650] == 0.0


def test_gram_core_matches_whole_table_two_sets():
    r = np.random.default_rng(42)
    X = late_duplicates(r, 500, 5, 1e6)
    Y = np.vstack([1e6 + r.normal(size=(200, 5)), X[::-3]])
    assert_gram_core_matches_whole_table(gram_args(X, Y))


def test_gram_core_matches_whole_table_one_row_per_block():
    # M wider than one block: every block is a single row, and the rows that
    # coincide with Y's last rows are recomputed in the last blocks
    r = np.random.default_rng(43)
    X = 1e3 + r.normal(size=(6, 3))
    Y = np.vstack([1e3 + r.normal(size=(TABLE_BLOCK + 37, 3)), X[3:], X[3:] + 1e-9])
    assert block_rows(Y.shape[0]) == 1
    D2 = assert_gram_core_matches_whole_table(gram_args(X, Y))
    assert np.all(np.diagonal(D2[3:, -6:-3]) == 0.0)


@pytest.mark.parametrize("same", [True, False], ids=["self", "two_sets"])
def test_gram_core_matches_whole_table_across_small_blocks(monkeypatch, same):
    # integer-grid rows repeat everywhere: recompute entries fill many small
    # blocks and their slices straddle block boundaries
    monkeypatch.setattr(core, "TABLE_BLOCK", 500)
    monkeypatch.setattr(metric, "_RECOMPUTE_SLICE", 7)
    r = np.random.default_rng(44)
    X = 1e4 + r.integers(0, 3, size=(97, 3)).astype(np.float64)
    Y = None if same else 1e4 + r.integers(0, 3, size=(61, 3)).astype(np.float64)
    args = gram_args(X, Y)
    D2 = assert_gram_core_matches_whole_table(args, recompute_slice=7)
    rows = block_rows(D2.shape[1])
    zeros = [np.count_nonzero(D2[lo : lo + rows] == 0.0) for lo in range(0, len(D2), rows)]
    assert len(zeros) > 1 and max(zeros) > 7  # many blocks, some with several slices


@pytest.mark.parametrize("same", [True, False], ids=["self", "two_sets"])
def test_gram_panels_match_the_whole_table_core_panel_by_panel(same):
    # three panels, the last one short; the late duplicates are recomputed in
    # the last panel, at its row offset. Each panel's product is the GEMM of
    # its own rows, so the reference is the whole-table core over those rows
    r = np.random.default_rng(45)
    X = late_duplicates(r, 700, 7, 1e3)
    Y = None if same else np.vstack([X[::-2], 1e3 + r.normal(size=(50, 7))])
    X_, Y_, Xc, nx, Yc, ny = gram_args(X, Y)
    starts = []
    for lo, panel in gram_panels(X, Y):
        hi = lo + len(panel)
        want = oracles.gram_distances_ref(X[lo:hi], Y_, Xc[lo:hi], nx[lo:hi], Yc, ny, ratio=metric._RECOMPUTE_RATIO)
        assert np.array_equal(panel.view(np.uint64), np.sqrt(want).view(np.uint64))
        starts.append(lo)
    assert starts == list(range(0, 700, PANEL_ROWS)) and len(starts) == 3
    if same:
        assert np.all(panel[np.arange(660, 700) - starts[-1], np.arange(40)] == 0.0)


def test_a_table_of_one_panel_is_the_whole_table():
    X = np.random.default_rng(46).normal(size=(PANEL_ROWS, 9))
    (lo, panel), *rest = gram_panels(X)
    assert lo == 0 and not rest
    assert np.array_equal(panel.view(np.uint64), pairwise_semantic_distance(X).view(np.uint64))


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_distance_panels_match_the_whole_tables(metric):
    # rows in +/- pairs on a 0.5 grid: both means are exactly 0 and every
    # Gram product is exact, so the panels must give the whole tables' bits
    r = np.random.default_rng(47)
    S, U = (np.round(r.uniform(-2, 2, size=(350, d)) / 0.5) * 0.5 for d in (5, 3))
    S, U = np.vstack([S, -S]), np.vstack([U, -U[::-1]])
    mp_ = MetricParams(gamma=0.2, tau=3.0)
    want = distance_table(
        metric, pairwise_semantic_distance(S), pairwise_pair_uncertainty(U, sumnorm=metric == "uncert_sumnorm"), mp_
    )[0]
    got = np.vstack([panel for _, panel in distance_panels(metric, S, U, mp_)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
    Cp, _, _ = similarity_table(metric, C, chords(C), B, mp_)
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
    _, dCdC, dCdB = similarity_table("ism", C, chords(C), B, mp_)
    h = 1e-6
    for i, j in [(0, 2), (3, 1)]:
        dC = np.array(C)
        dC[i, j] += h
        up = similarity_table("ism", dC, chords(dC), B, mp_)[0][i, j]
        dC[i, j] -= 2 * h
        dn = similarity_table("ism", dC, chords(dC), B, mp_)[0][i, j]
        assert dCdC[i, j] == pytest.approx((up - dn) / (2 * h), rel=2e-5, abs=1e-8)
        dB = np.array(B)
        dB[i, j] += h
        up = similarity_table("ism", C, chords(C), dB, mp_)[0][i, j]
        dB[i, j] -= 2 * h
        dn = similarity_table("ism", C, chords(C), dB, mp_)[0][i, j]
        assert dCdB[i, j] == pytest.approx((up - dn) / (2 * h), rel=2e-5, abs=1e-8)


def test_distance_table_rejects_unknown_metric():
    with pytest.raises(ParameterError):
        distance_table("mahalanobis", np.ones((2, 2)), np.ones((2, 2)), MP0)
