"""Retrieval, clustering, and the semantic/uncertainty agreement diagnostics."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import idml
import oracles
from idml.core import (
    DegenerateInputError,
    NumericalFailure,
    ParameterError,
    Rng,
    ShapeError,
    match_matrix,
    multi_hot,
)
from idml.evaluation import (
    EvalReport,
    _kmeanspp_init,
    correlation_stats,
    evaluate,
    kmeans,
    neighbor_order,
    nmi,
    pick_anchor_indices,
    r_precision_and_map_at_r,
    recall_at_k,
    relative_embeddings,
    uncertainty_levels,
)
from idml.metric import _squared_distances, pairwise_semantic_distance


def singleton_labels(ids):
    return tuple(frozenset({int(i)}) for i in ids)


def relevance(X, labels):
    """The relevance table `evaluate` gathers, over Euclidean distances ranked
    in full, and each query's R (its count of same-label others)."""
    match = match_matrix(multi_hot(labels)[0])
    rel = np.take_along_axis(match, neighbor_order(pairwise_semantic_distance(X)), axis=1)
    return rel, match.sum(axis=1) - 1


def recall(X, labels, k):
    return recall_at_k(relevance(X, labels)[0], k)


def rp_map(X, labels):
    return r_precision_and_map_at_r(*relevance(X, labels))


def random_instance(seed, max_n=50):
    r = np.random.default_rng(seed)
    n = int(r.integers(8, max_n + 1))
    dim = int(r.integers(2, 6))
    n_classes = int(r.integers(2, min(5, n // 2 + 1)))
    X = r.normal(size=(n, dim))
    # ensure every class has at least 2 members so nothing gets skipped
    base = np.repeat(np.arange(n_classes), 2)
    rest = r.integers(0, n_classes, size=n - len(base))
    labels = singleton_labels(np.concatenate([base, rest])[:n])
    return X, labels


# ---------------------------------------------------------------------------
# Recall@k
# ---------------------------------------------------------------------------


def test_recall_single_class_is_one():
    X = np.random.default_rng(0).normal(size=(6, 3))
    assert recall(X, singleton_labels([1] * 6), 1) == 1.0


def test_recall_two_tight_clusters():
    X = np.array([[0.0], [0.1], [5.0], [5.1]])
    labels = singleton_labels([0, 0, 1, 1])
    assert recall(X, labels, 1) == 1.0


def test_recall_interleaved_points():
    # nearest neighbor of every point belongs to the other class; at k=2 the
    # end points recover but the middle ones see two wrong-class ties
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = singleton_labels([0, 1, 0, 1])
    assert recall(X, labels, 1) == 0.0
    assert recall(X, labels, 2) == 0.5
    assert recall(X, labels, 3) == 1.0


def test_recall_monotone_in_k():
    for seed in range(5):
        X, labels = random_instance(seed, max_n=20)
        vals = [recall(X, labels, k) for k in (1, 2, 4, 8)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_recall_requires_k_below_n():
    X = np.ones((3, 2)) * np.arange(3)[:, None]
    with pytest.raises(ParameterError):
        recall(X, singleton_labels([0, 0, 1]), 3)


def test_recall_matches_brute_force():
    for seed in range(30):
        X, labels = random_instance(seed, max_n=25)
        for k in (1, 2, 4):
            assert recall(X, labels, k) == oracles.recall_at_k_ref(X, labels, k)


def test_recall_permutation_invariant():
    X, labels = random_instance(3, max_n=20)
    perm = np.random.default_rng(1).permutation(len(X))
    a = recall(X, labels, 2)
    b = recall(X[perm], tuple(labels[i] for i in perm), 2)
    assert a == b


def test_neighbor_order_breaks_ties_by_index():
    X = np.array([[0.0], [1.0], [1.0], [2.0]])
    d = np.abs(X - X.T)
    order = neighbor_order(d)
    # query 0 sees samples 1 and 2 at the same distance: index order decides
    assert list(order[0][:2]) == [1, 2]


def exact_table(X):
    """Distances by math.dist, the same floats the ranking oracle sorts."""
    return np.array([[math.dist(a, b) for b in X] for a in X])


def count_argsort(monkeypatch):
    """Count np.argsort calls: neighbor_order sorts a whole row only on a tie."""
    calls = [0]
    real = np.argsort

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return calls


def test_neighbor_order_top_k_matches_brute_force_on_ties(monkeypatch):
    # integer grid points in 2-d with duplicate rows: ties everywhere,
    # including across the k-th place
    fallbacks = count_argsort(monkeypatch)
    r = np.random.default_rng(17)
    for _ in range(300):
        n = int(r.integers(3, 61))
        X = r.integers(0, int(r.integers(2, 9)), size=(n, 2)).astype(np.float64)
        d = exact_table(X)
        want = [oracles._neighbor_order(X, i) for i in range(n)]
        for k in range(1, n):
            assert neighbor_order(d, k).tolist() == [w[:k] for w in want]
        assert neighbor_order(d).tolist() == want
    assert fallbacks[0] > 0


def test_neighbor_order_partition_path_matches_brute_force(monkeypatch):
    X = np.random.default_rng(18).normal(size=(200, 3))
    d = exact_table(X)
    fallbacks = count_argsort(monkeypatch)
    got = {k: neighbor_order(d, k) for k in (1, 7, 50, 199)}
    assert fallbacks[0] == 0  # no tie: every row went through the partition
    for i in range(len(X)):
        want = oracles._neighbor_order(X, i)
        for k, order in got.items():
            assert order[i].tolist() == want[:k]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_neighbor_order_rejects_non_finite_off_diagonal(bad):
    # sorting with self at +inf and dropping the last column ranked query 0
    # as its own neighbor here: [2, 0]
    d = np.array([[0.0, bad, 1.0], [bad, 0.0, 2.0], [1.0, 2.0, 0.0]])
    for k in (None, 1, 2):
        with pytest.raises(NumericalFailure):
            neighbor_order(d, k)


def test_neighbor_order_excludes_self_by_index():
    # the diagonal is never read, whatever it holds
    d = np.array([[np.nan, 1.0, 1.0], [1.0, np.inf, 2.0], [1.0, 2.0, -1.0]])
    assert neighbor_order(d).tolist() == [[1, 2], [0, 2], [0, 1]]
    assert neighbor_order(d, 1).tolist() == [[1], [0], [0]]


def test_neighbor_order_k_bounds():
    d = np.abs(np.arange(4.0)[:, None] - np.arange(4.0)[None, :])
    assert neighbor_order(d, 0).shape == (4, 0)
    with pytest.raises(ParameterError):
        neighbor_order(d, 4)
    with pytest.raises(ParameterError):
        neighbor_order(d, -1)


def test_evaluate_rejects_overflowing_embeddings():
    # finite rows whose distances overflow: NaN on the diagonal, +inf off it
    S = np.array([[1e200, 0.0], [-1e200, 0.0], [1e200, 1e200], [-1e200, 1e200], [0.0, 1e200], [0.0, -1e200]])
    U = 0.1 * np.random.default_rng(0).normal(size=(6, 2))
    labels = singleton_labels([0, 0, 1, 1, 2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalFailure):
            evaluate(S, U, labels, Rng(0), ks=(1, 2), knn_k=2, n_anchors=3)


def test_ranking_metrics_reject_a_shallow_order():
    X, labels = random_instance(6, max_n=15)
    rel, counts = relevance(X, labels)
    with pytest.raises(ShapeError):
        recall_at_k(rel[:, :3], 4)
    with pytest.raises(ShapeError):
        r_precision_and_map_at_r(rel[:, :1], counts)


# ---------------------------------------------------------------------------
# NMI + k-means
# ---------------------------------------------------------------------------


def test_nmi_perfect_and_uninformative():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(labels, labels) == pytest.approx(1.0, rel=1e-12)
    assert nmi(labels, np.zeros(6, dtype=int)) == pytest.approx(0.0, abs=1e-12)


def test_nmi_worked_value():
    got = nmi(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 1]))
    assert got == pytest.approx(0.3437110184854508, rel=1e-12)


def test_nmi_symmetric_in_arguments():
    r = np.random.default_rng(0)
    a = r.integers(0, 3, size=30)
    b = r.integers(0, 4, size=30)
    assert nmi(a, b) == pytest.approx(nmi(b, a), rel=1e-12)


def test_nmi_invariant_to_cluster_renaming():
    a = np.array([0, 0, 1, 1, 2, 2])
    b = np.array([0, 1, 1, 2, 2, 0])
    relabeled = np.array([5, 9, 9, 7, 7, 5])  # same partition as b
    assert nmi(a, b) == pytest.approx(nmi(a, relabeled), rel=1e-12)


def test_nmi_single_cluster_single_label_convention():
    assert nmi(np.zeros(4, dtype=int), np.zeros(4, dtype=int)) == 1.0


def test_nmi_matches_reference():
    r = np.random.default_rng(7)
    for _ in range(20):
        n = int(r.integers(4, 40))
        a = r.integers(0, 4, size=n)
        b = r.integers(0, 3, size=n)
        assert nmi(a, b) == pytest.approx(oracles.nmi_ref(a, b), rel=1e-10, abs=1e-12)


def test_kmeans_recovers_separated_blobs():
    r = np.random.default_rng(1)
    X = np.concatenate([r.normal(loc=c, scale=0.05, size=(10, 2)) for c in ((0, 0), (5, 0), (0, 5))])
    truth = np.repeat(np.arange(3), 10)
    got = kmeans(X, 3, Rng(0))
    assert nmi(truth, got) == pytest.approx(1.0, rel=1e-12)


def test_kmeans_deterministic_under_seed():
    X = np.random.default_rng(2).normal(size=(40, 3))
    a = kmeans(X, 4, Rng(5))
    b = kmeans(X, 4, Rng(5))
    np.testing.assert_array_equal(a, b)


def test_kmeans_matches_reference_loop():
    # duplicate rows and k near n: identical rows share one nearest center,
    # so with k above the distinct-row count some cluster is empty on every
    # iteration and is re-seeded again and again
    r = np.random.default_rng(21)
    for case in range(120):
        n = int(r.integers(2, 40))
        distinct = int(r.integers(1, n + 1))
        X = r.normal(size=(distinct, int(r.integers(1, 4))))[r.integers(0, distinct, size=n)]
        k = int(r.integers(max(1, n - 4), n + 1)) if case % 2 else int(r.integers(1, n + 1))
        max_iter = int(r.choice([1, 2, 5, 100]))
        a, b = Rng(case), Rng(case)
        got = kmeans(X, k, a, n_restarts=3, max_iter=max_iter)
        want = oracles.kmeans_ref(X, k, b, _kmeanspp_init, _squared_distances, n_restarts=3, max_iter=max_iter)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert a.random() == b.random()


# ---------------------------------------------------------------------------
# R-precision / MAP@R
# ---------------------------------------------------------------------------


def test_rp_map_perfect_retrieval():
    X = np.array([[0.0], [0.1], [5.0], [5.1]])
    labels = singleton_labels([0, 0, 1, 1])
    rp, mapr = rp_map(X, labels)
    assert rp == 1.0 and mapr == 1.0


def test_rp_map_hand_cases():
    # R = 2 per query; rankings (pos, neg, ...) and (neg, pos, ...) pin the
    # precision-weighted average
    X = np.array([[0.0], [1.0], [1.5], [10.0], [11.0], [20.0]])
    labels = singleton_labels([0, 0, 1, 0, 1, 1])
    rp, mapr = rp_map(X, labels)
    want_rp, want_map = oracles.rp_map_ref(X, labels)
    assert rp == pytest.approx(want_rp, rel=1e-12)
    assert mapr == pytest.approx(want_map, rel=1e-12)


def test_rp_map_hand_enumerated_instance():
    """Six points on a line, every query's top-R enumerable by hand.

    Query 0 ranks (pos, neg): RP 1/2, AP 1/2. Queries 1 and 3 rank
    (neg, pos): RP 1/2, AP 1/4. Query 2 sees only wrong-class points in its
    top two: 0. Queries 4 and 5 rank (pos, neg): 1/2 and 1/2.
    """
    X = np.array([[0.0], [1.0], [1.5], [3.0], [10.0], [10.5]])
    labels = singleton_labels([0, 0, 1, 0, 1, 1])
    rp, mapr = rp_map(X, labels)
    assert rp == pytest.approx((0.5 + 0.5 + 0.0 + 0.5 + 0.5 + 0.5) / 6, rel=1e-12)
    assert mapr == pytest.approx((0.5 + 0.25 + 0.0 + 0.25 + 0.5 + 0.5) / 6, rel=1e-12)
    assert (rp, mapr) == pytest.approx(oracles.rp_map_ref(X, labels), rel=1e-12)


def test_rp_map_skips_singleton_classes_with_warning():
    X = np.array([[0.0], [0.1], [9.0]])
    labels = singleton_labels([0, 0, 7])
    with pytest.warns(UserWarning):
        rp, mapr = rp_map(X, labels)
    assert rp == 1.0 and mapr == 1.0


def test_rp_map_all_singletons_rejected():
    X = np.arange(3.0)[:, None]
    with pytest.raises(ParameterError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rp_map(X, singleton_labels([0, 1, 2]))


def test_rp_map_matches_brute_force():
    for seed in range(30):
        X, labels = random_instance(100 + seed, max_n=30)
        got = rp_map(X, labels)
        want = oracles.rp_map_ref(X, labels)
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Uncertainty levels and relative embeddings
# ---------------------------------------------------------------------------


def test_uncertainty_level_is_norm():
    assert uncertainty_levels(np.array([[3.0, 4.0]]))[0] == 5.0
    assert uncertainty_levels(np.zeros((1, 3)))[0] == 0.0
    np.testing.assert_allclose(
        uncertainty_levels(np.array([[3.0, 4.0], [0.0, 0.0]])), [5.0, 0.0]
    )


def test_relative_embedding_trig_values():
    anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(relative_embeddings(np.array([[1.0, 0.0]]), anchors), [[1.0, 0.0]], atol=1e-15)
    # scale of the input doesn't matter, only direction
    np.testing.assert_allclose(relative_embeddings(np.array([[7.0, 0.0]]), anchors), [[1.0, 0.0]], atol=1e-15)
    v = np.array([[1.0, 1.0]])
    np.testing.assert_allclose(relative_embeddings(v, anchors), [[np.sqrt(0.5)] * 2], rtol=1e-12)


def test_relative_embedding_zero_row_maps_to_zero():
    anchors = np.array([[1.0, 0.0]])
    np.testing.assert_array_equal(relative_embeddings(np.zeros((1, 2)), anchors), [[0.0]])


def test_relative_embedding_zero_anchor_rejected():
    with pytest.raises(DegenerateInputError):
        relative_embeddings(np.ones((1, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_relative_embeddings_match_single_rows():
    r = np.random.default_rng(3)
    E = r.normal(size=(6, 4))
    anchors = r.normal(size=(3, 4))
    R = relative_embeddings(E, anchors)
    assert R.shape == (6, 3)
    for i in range(6):
        np.testing.assert_allclose(R[i], relative_embeddings(E[i : i + 1], anchors)[0], rtol=1e-12)


def test_pick_anchor_indices_subset_and_deterministic():
    a = pick_anchor_indices(50, Rng(2), k=10)
    b = pick_anchor_indices(50, Rng(2), k=10)
    np.testing.assert_array_equal(a, b)
    assert len(a) == 10 and len(set(a.tolist())) == 10
    assert a.min() >= 0 and a.max() < 50
    # k above n falls back to all rows
    assert len(pick_anchor_indices(5, Rng(0), k=100)) == 5


# ---------------------------------------------------------------------------
# Correlation diagnostics
# ---------------------------------------------------------------------------


def test_correlation_identical_spaces():
    r = np.random.default_rng(4)
    R = r.normal(size=(30, 6))
    stats = correlation_stats(R, R.copy(), knn_k=5)
    assert stats["jaccard"] == pytest.approx(1.0)
    assert stats["mrr"] == pytest.approx(1.0)
    assert stats["cosine"] == pytest.approx(1.0)


def test_correlation_independent_spaces_near_zero():
    # cosine of independent isotropic rows concentrates around 0 at CLT rate
    r = np.random.default_rng(5)
    n, k = 400, 64
    a = r.normal(size=(n, k))
    b = r.normal(size=(n, k))
    stats = correlation_stats(a, b, knn_k=10)
    assert abs(stats["cosine"]) < 3.0 / np.sqrt(k * n) * np.sqrt(n) * 1.5  # 3/sqrt(k) per row, averaged
    assert stats["jaccard"] < 0.2


def test_correlation_three_point_enumeration():
    # knn_k = 1 on three rows: neighbor sets are single indices, so jaccard
    # and mrr are fully enumerable by hand
    rel_s = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    rel_u = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    stats = correlation_stats(rel_s, rel_u, knn_k=1)
    assert stats["jaccard"] == 1.0
    assert stats["mrr"] == 1.0
    # swap one row's role in the uncertainty space
    rel_u2 = np.array([[0.0, 1.0], [0.9, 0.1], [1.0, 0.0]])
    stats2 = correlation_stats(rel_s, rel_u2, knn_k=1)
    assert 0.0 <= stats2["jaccard"] <= 1.0
    assert stats2["cosine"] < stats["cosine"]


def test_correlation_matches_brute_force_on_ties():
    # rows on a 0.25 or 0.5 grid and n a power of two keep the library's
    # Gram-form distances exact, so tied rows and tied distances are real
    # ties and both rankings must match the rational-arithmetic reference
    r = np.random.default_rng(19)
    for _ in range(30):
        n = int(r.choice([8, 16, 32, 64]))
        step = float(r.choice([0.25, 0.5]))
        n_anchors = int(r.integers(2, 5))
        rel_s = np.round(r.uniform(-1, 1, size=(n, n_anchors)) / step) * step
        rel_u = np.round(r.uniform(-1, 1, size=(n, n_anchors)) / step) * step
        rel_u[int(r.integers(n))] = 0.0
        knn_k = int(r.integers(1, min(n, 13)))
        got = correlation_stats(rel_s, rel_u, knn_k=knn_k)
        want = oracles.correlation_ref(rel_s, rel_u, knn_k)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key


def test_correlation_knn_k_bound():
    R = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(ParameterError):
        correlation_stats(R, R, knn_k=5)


def test_correlation_zero_uncertainty_rows_are_guarded():
    r = np.random.default_rng(6)
    rel_s = r.normal(size=(20, 4))
    rel_u = np.zeros((20, 4))
    stats = correlation_stats(rel_s, rel_u, knn_k=3)
    assert np.isfinite(stats["cosine"])
    assert stats["cosine"] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Full evaluation report
# ---------------------------------------------------------------------------


def eval_inputs(seed=0, n=40, s_dim=4, u_dim=3, n_classes=4):
    r = np.random.default_rng(seed)
    S = r.normal(size=(n, s_dim))
    U = 0.3 * r.normal(size=(n, u_dim))
    labels = singleton_labels(r.integers(0, n_classes, size=n))
    return S, U, labels


def test_evaluate_report_is_complete():
    S, U, labels = eval_inputs()
    rep = evaluate(S, U, labels, Rng(0), ks=(1, 2, 4), knn_k=5, n_anchors=10)
    assert set(rep.recall_at_k.keys()) == {1, 2, 4}
    assert all(0.0 <= v <= 1.0 for v in rep.recall_at_k.values())
    assert 0.0 <= rep.nmi <= 1.0
    assert 0.0 <= rep.r_precision <= 1.0
    assert 0.0 <= rep.map_at_r <= rep.r_precision + 1e-12
    assert rep.mean_uncert_clean >= 0.0
    assert rep.mean_uncert_mixed == 0.0  # no mixed batch supplied
    assert set(rep.corr.keys()) == {"jaccard", "mrr", "cosine"}


def test_evaluate_deterministic():
    S, U, labels = eval_inputs(1)
    a = evaluate(S, U, labels, Rng(3), ks=(1, 2), knn_k=5, n_anchors=10)
    b = evaluate(S, U, labels, Rng(3), ks=(1, 2), knn_k=5, n_anchors=10)
    assert a == b


def test_evaluate_reports_mixed_uncertainty_gap():
    S, U, labels = eval_inputs(2)
    mixed_U = 2.0 * np.abs(np.random.default_rng(9).normal(size=(15, 3))) + 1.0
    rep = evaluate(S, U, labels, Rng(0), ks=(1,), knn_k=5, n_anchors=10, mixed_uncertainty=mixed_U)
    assert rep.mean_uncert_mixed > rep.mean_uncert_clean


def test_evaluate_test_metric_changes_ranking_only():
    S, U, labels = eval_inputs(3)
    plain = evaluate(S, U, labels, Rng(1), ks=(1, 2), knn_k=5, n_anchors=10)
    soft = evaluate(S, U, labels, Rng(1), ks=(1, 2), knn_k=5, n_anchors=10, test_metric="ism")
    # clustering runs on the semantic embedding either way
    assert soft.nmi == plain.nmi
    # uncertainty statistics don't depend on the retrieval metric
    assert soft.mean_uncert_clean == plain.mean_uncert_clean


def test_evaluate_nmi_reads_a_multi_label_row_as_its_smallest_class():
    # four tight blobs, one class each; row 0 sits in class 0's blob
    r = np.random.default_rng(11)
    ids = np.repeat(np.arange(4), 10)
    S = 10.0 * np.eye(4)[ids] + 0.01 * r.normal(size=(40, 4))
    U = 0.3 * r.normal(size=(40, 3))

    def nmi_with_row_0(first):
        labels = (frozenset(first),) + singleton_labels(ids[1:])
        return evaluate(S, U, labels, Rng(0), ks=(1,), knn_k=5, n_anchors=10).nmi

    two = nmi_with_row_0({3, 0})
    assert two == nmi_with_row_0({0}) == pytest.approx(1.0)
    # as class 3, row 0 leaves the partition that k-means recovers
    assert two != nmi_with_row_0({3})


# Caps the child's own address space, then evaluates a 1500 x 512 split: one
# N x N x D broadcast table would need about 9 GiB.
_BOUNDED_EVAL = """
import resource
_soft, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
import numpy as np
from idml.core import Rng
from idml.evaluation import evaluate
r = np.random.default_rng(0)
ids = np.arange(1500) % 30
S = r.normal(size=(30, 512))[ids] + 0.5 * r.normal(size=(1500, 512))
U = 0.1 * r.normal(size=(1500, 512))
rep = evaluate(S, U, [{int(i)} for i in ids], Rng(0), test_metric="ism")
print(rep.recall_at_k[1])
"""


def test_evaluate_runs_in_bounded_memory():
    src = os.path.dirname(os.path.dirname(idml.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _BOUNDED_EVAL], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert 0.0 <= float(proc.stdout.strip()) <= 1.0


def test_evaluate_rejects_unknown_metric():
    S, U, labels = eval_inputs(4)
    with pytest.raises(ParameterError):
        evaluate(S, U, labels, Rng(0), test_metric="cityblock")


def test_eval_report_round_trips_through_json():
    S, U, labels = eval_inputs(5)
    rep = evaluate(S, U, labels, Rng(0), ks=(1, 2), knn_k=5, n_anchors=10)
    d = rep.to_json_dict()
    back = EvalReport.from_json_dict(d)
    assert back == rep
