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
from idml import core
from idml.core import (
    DegenerateInputError,
    MetricParams,
    NumericalFailure,
    ParameterError,
    Rng,
    ShapeError,
    block_rows,
    match_matrix,
    multi_hot,
)
from idml.evaluation import (
    N_ANCHORS,
    RECALL_KS,
    EvalReport,
    _distances_to,
    check_scorable,
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
from idml.metric import METRIC_NAMES, PANEL_ROWS, pairwise_semantic_distance


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


def test_neighbor_order_leaves_its_input_unchanged():
    d = pairwise_semantic_distance(np.random.default_rng(31).integers(0, 4, size=(300, 2)).astype(float))
    assert block_rows(len(d)) < len(d)  # more than one block
    before = d.copy()
    for k in (None, 0, 10):
        neighbor_order(d, k)
    assert np.array_equal(d.view(np.uint64), before.view(np.uint64))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_neighbor_order_rejects_non_finite_in_the_last_block_only(bad):
    n = 300
    assert block_rows(n) < n - 1  # row n - 1 is ranked after the first block
    d = np.abs(np.arange(n, dtype=float)[:, None] - np.arange(n, dtype=float)[None, :])
    d[n - 1, n - 1] = bad  # the diagonal is never read
    assert neighbor_order(d, 3)[n - 1].tolist() == [n - 2, n - 3, n - 4]
    d[n - 1, 5] = bad
    for k in (None, 0, 1, 10):
        with pytest.raises(NumericalFailure):
            neighbor_order(d, k)


def test_neighbor_order_matches_brute_force_across_blocks(monkeypatch):
    # a few rows per block, the last block partial: ties cross blocks and the
    # k-th place alike
    monkeypatch.setattr(core, "TABLE_BLOCK", 100)
    r = np.random.default_rng(21)
    for n in (23, 29, 41):
        assert n % block_rows(n) != 0
        X = r.integers(0, 4, size=(n, 2)).astype(np.float64)
        d = exact_table(X)
        want = [oracles._neighbor_order(X, i) for i in range(n)]
        for k in (1, 5, n // 2, n - 1):
            assert neighbor_order(d, k).tolist() == [w[:k] for w in want]


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
    # finite rows whose distances overflow: NaN on the diagonal, +inf off it;
    # ten rows, so that the split is deep enough for recall@max(RECALL_KS)
    S = 1e200 * np.array([[1, 0], [-1, 0], [1, 1], [-1, 1], [0, 1], [0, -1], [1, -1], [-1, -1], [1, 2], [-1, 2]])
    U = 0.1 * np.random.default_rng(0).normal(size=(10, 2))
    labels = singleton_labels([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
    assert len(labels) > max(RECALL_KS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalFailure):
            evaluate(S, U, multi_hot(labels)[0], Rng(0))


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


def _assert_kmeans_matches_reference(X, k, seed, n_restarts, max_iter):
    a, b = Rng(seed), Rng(seed)
    got = kmeans(X, k, a, n_restarts=n_restarts, max_iter=max_iter)
    dist_to = _distances_to(X)
    want = oracles.kmeans_ref(
        X, k, b, lambda X, centers: dist_to(centers), n_restarts=n_restarts, max_iter=max_iter
    )
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert a.random() == b.random()


def _kmeans_reference_cases():
    # duplicate rows and k near n: identical rows share one nearest center,
    # so with k above the distinct-row count some cluster is empty on every
    # iteration and is re-seeded again and again
    r = np.random.default_rng(21)
    for case in range(120):
        n = int(r.integers(2, 40))
        distinct = int(r.integers(1, n + 1))
        X = r.normal(size=(distinct, int(r.integers(1, 4))))[r.integers(0, distinct, size=n)]
        k = int(r.integers(max(1, n - 4), n + 1)) if case % 2 else int(r.integers(1, n + 1))
        yield X, k, case, int(r.choice([1, 2, 5, 100]))


def test_kmeans_matches_reference_loop():
    for n_restarts in (3, 10):
        for X, k, case, max_iter in _kmeans_reference_cases():
            _assert_kmeans_matches_reference(X, k, case, n_restarts, max_iter)


def test_kmeans_inertia_tie_goes_to_the_first_restart():
    # case 12 of the reference loop (38 rows of 6 distinct, k = 28, 5
    # iterations): all three restarts end at the same inertia, about 3e-31,
    # with three different assignments, so the first restart must win
    X, k, case, max_iter = list(_kmeans_reference_cases())[12]
    assert (len(X), len(np.unique(X, axis=0)), k, max_iter) == (38, 6, 28, 5)
    dist_to = _distances_to(X)
    restarts = []
    oracles.kmeans_ref(
        X, k, Rng(case), lambda X, centers: dist_to(centers), n_restarts=3, max_iter=max_iter, restarts=restarts
    )
    inertias = [inertia for inertia, _ in restarts]
    assert inertias[0] == inertias[1] == inertias[2] == pytest.approx(3.14e-31, rel=1e-2)
    assert len({assign.tobytes() for _, assign in restarts}) == 3
    got = kmeans(X, k, Rng(case), n_restarts=3, max_iter=max_iter)
    assert np.array_equal(got, restarts[0][1])


@pytest.mark.parametrize("n, d, k", [(240, 512, 10), (1000, 32, 20), (250, 32, 5)])
def test_kmeans_matches_reference_loop_at_benchmark_shapes(n, d, k):
    # the evaluation shapes of perfbench's wide, eval and mining workloads
    r = np.random.default_rng(n + d + k)
    X = 0.7 * r.normal(size=(k, d))[r.integers(0, k, size=n)] + r.normal(size=(n, d))
    _assert_kmeans_matches_reference(X, k, 7, 10, 100)


@pytest.mark.parametrize("distinct, k", [(12, 20), (3, 7), (1, 4), (40, 40)])
def test_kmeans_matches_reference_loop_with_fewer_distinct_rows_than_k(distinct, k):
    # 300 rows of a few distinct ones: once every distinct row is a center,
    # each restart's remaining seeds are uniform integer draws
    r = np.random.default_rng(distinct + k)
    X = r.normal(size=(distinct, 6))[r.integers(0, distinct, size=300)]
    _assert_kmeans_matches_reference(X, k, 9, 10, 100)
    assert np.array_equal(kmeans(np.asfortranarray(X), k, Rng(9)), kmeans(X, k, Rng(9)))


def test_kmeans_counts_negative_zero_as_zero():
    # rows equal but for the sign of a zero are the same point, 0 apart in
    # the Gram distance: two distinct rows, so k = 4 ends in integer draws
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [2.0, 0.0], [-0.0, 1.0], [2.0, 0.0]])
    _assert_kmeans_matches_reference(X, 4, 3, 10, 100)
    _assert_kmeans_matches_reference(X[:, ::-1], 4, 3, 10, 100)
    got = kmeans(X, 2, Rng(0))
    assert got[0] == got[1] == got[4] != got[2] == got[3] == got[5]


@pytest.mark.parametrize("shape", [(5,), (5, 0), (5, 2, 1)])
def test_kmeans_rejects_points_that_are_not_rows_of_columns(shape):
    with pytest.raises(ShapeError):
        kmeans(np.zeros(shape), 2, Rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    X = np.random.default_rng(3).normal(size=(12, 3))
    X[5, 1] = bad
    with pytest.raises(NumericalFailure):
        kmeans(X, 3, Rng(0))


def test_kmeans_rejects_points_whose_distances_overflow():
    # finite points whose squared distances are not: the Gram form overflows
    X = 1e160 * np.random.default_rng(3).normal(size=(12, 3))
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
        kmeans(X, 3, Rng(0))


def test_kmeans_rejects_points_whose_distances_underflow():
    # distinct rows whose squared distances round to 0: ++ seeding would see
    # a zero total before every distinct row is a center
    X = 1e-170 * np.random.default_rng(3).normal(size=(12, 3))
    assert np.all(_distances_to(X)(X) == 0.0)
    with pytest.raises(NumericalFailure, match="underflowed"):
        kmeans(X, 3, Rng(0))


@pytest.mark.parametrize("n_restarts, max_iter", [(0, 100), (-1, 100), (10, 0), (10, -1)])
def test_kmeans_rejects_no_restarts_or_no_iterations(n_restarts, max_iter):
    X = np.random.default_rng(3).normal(size=(12, 3))
    with pytest.raises(ParameterError):
        kmeans(X, 3, Rng(0), n_restarts=n_restarts, max_iter=max_iter)


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_kmeans_distances_match_explicit_differences(offset):
    # centers on data rows, between them, and far out; with the offset the
    # Gram form alone would cancel, and coincident rows must give exactly 0
    r = np.random.default_rng(22)
    base = r.normal(size=(12, 5))
    X = offset + np.vstack([base, base[:3], base[:2] + 1e-9 * r.normal(size=(2, 5))])
    C = np.vstack([X[[0, 4, 13]], offset + r.normal(size=(2, 5)), offset + 50.0 + base[:1]])
    got = _distances_to(X)(C)
    want = np.array([[float(np.sum((x - c) ** 2)) for c in C] for x in X])
    assert got.shape == (len(X), len(C))
    assert np.sqrt(got) == pytest.approx(np.sqrt(want), rel=1e-12, abs=1e-12)
    same = np.all(X[:, None, :] == C[None, :, :], axis=2)
    assert same.sum() >= 5
    assert np.all(got[same] == 0.0)
    assert np.all(got[~same] > 0.0)


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


def test_rp_map_mixed_r_matches_brute_force():
    # one block of queries per distinct R: R = 139 (past numpy's 128-entry
    # pairwise-sum block), R = 59 and small R side by side, two-label rows
    # whose R spans two classes, and one single-sample class (R = 0)
    r = np.random.default_rng(31)
    ids = np.concatenate([np.zeros(140, int), np.ones(60, int), np.repeat(np.arange(2, 12), 3), [12]])
    X = 0.5 * ids[:, None] + r.normal(size=(len(ids), 3))
    labels = [frozenset({int(a), int(a) + 1}) if i % 25 == 7 else frozenset({int(a)}) for i, a in enumerate(ids)]
    rel, counts = relevance(X, labels)
    assert counts.max() > 128 and (counts == 0).sum() == 1 and len(set(counts.tolist())) > 5
    with pytest.warns(UserWarning, match="skipped 1 queries"):
        got = r_precision_and_map_at_r(rel, counts)
    assert got == pytest.approx(oracles.rp_map_ref(X, labels), rel=1e-12)


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
    n = 5 * N_ANCHORS
    a = pick_anchor_indices(n, Rng(2))
    b = pick_anchor_indices(n, Rng(2))
    np.testing.assert_array_equal(a, b)
    assert len(a) == N_ANCHORS and len(set(a.tolist())) == N_ANCHORS
    assert a.min() >= 0 and a.max() < n
    # fewer rows than N_ANCHORS: every row anchors
    assert pick_anchor_indices(5, Rng(0)).tolist() == [0, 1, 2, 3, 4]


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


def test_correlation_mrr_matches_brute_force_across_blocks(monkeypatch):
    # 3 or 6 rows per block, the last one partial: the MRR count and both
    # rankings run over many blocks on tie-heavy rows, exact as in the test
    # above (grid rows, n a power of two)
    monkeypatch.setattr(core, "TABLE_BLOCK", 200)
    r = np.random.default_rng(27)
    for n in (64, 32):
        assert n % block_rows(n) != 0
        rel_s = np.round(r.uniform(-1, 1, size=(n, 3)) / 0.5) * 0.5
        rel_u = np.round(r.uniform(-1, 1, size=(n, 3)) / 0.5) * 0.5
        got = correlation_stats(rel_s, rel_u, knn_k=4)
        want = oracles.correlation_ref(rel_s, rel_u, 4)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key


def test_correlation_matches_brute_force_across_panels():
    # three row panels, the last one short: both rankings and the MRR count
    # run panel by panel. Each space's rows come in +/- pairs on a 0.5 grid,
    # so its mean is exactly 0 and its Gram-form distances are exact: tied
    # rows and tied distances are real ties, as in the test above
    n = 700
    assert n > 2 * PANEL_ROWS and n % PANEL_ROWS != 0
    r = np.random.default_rng(29)
    half = [np.round(r.uniform(-1, 1, size=(n // 2, 3)) / 0.5) * 0.5 for _ in range(2)]
    rel_s, rel_u = (np.vstack([h, -h]) for h in half)
    got = correlation_stats(rel_s, rel_u, knn_k=10)
    want = oracles.correlation_ref(rel_s, rel_u, 10)
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


def cosine_per_row(rel_s, rel_u):
    """The mean cosine as a loop over rows, one np.linalg.norm per row and
    space and one @: correlation_stats must equal it bit for bit."""
    cos = []
    for i in range(rel_s.shape[0]):
        ns = np.linalg.norm(rel_s[i])
        nu = np.linalg.norm(rel_u[i])
        cos.append(float(rel_s[i] @ rel_u[i] / (ns * nu)) if ns > 0 and nu > 0 else 0.0)
    return float(np.mean(cos))


@pytest.mark.parametrize("width", [1, 7, 100])
def test_correlation_cosine_is_bit_identical_to_a_per_row_loop(width):
    r = np.random.default_rng(width)
    for n in (3, 11, 64, 257):
        rel_s = r.normal(size=(n, width)) * r.choice([1e-3, 1.0, 1e3], size=(n, 1))
        rel_u = r.uniform(-1, 1, size=(n, width))
        rel_s[n // 2] = 0.0  # zero in the semantic space only
        rel_u[0] = 0.0  # zero in the uncertainty space only
        rel_s[-1] = rel_u[-1] = 0.0  # zero in both
        got = correlation_stats(rel_s, rel_u, knn_k=1)["cosine"]
        assert got.hex() == cosine_per_row(rel_s, rel_u).hex()


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
    rep = evaluate(S, U, multi_hot(labels)[0], Rng(0))
    assert tuple(rep.recall_at_k.keys()) == RECALL_KS
    assert all(0.0 <= v <= 1.0 for v in rep.recall_at_k.values())
    assert 0.0 <= rep.nmi <= 1.0
    assert 0.0 <= rep.r_precision <= 1.0
    assert 0.0 <= rep.map_at_r <= rep.r_precision + 1e-12
    assert rep.mean_uncert_clean >= 0.0
    assert rep.mean_uncert_mixed == 0.0  # no mixed batch supplied
    assert set(rep.corr.keys()) == {"jaccard", "mrr", "cosine"}


def test_evaluate_deterministic():
    S, U, labels = eval_inputs(1)
    a = evaluate(S, U, multi_hot(labels)[0], Rng(3))
    b = evaluate(S, U, multi_hot(labels)[0], Rng(3))
    assert a == b


def test_evaluate_reports_mixed_uncertainty_gap():
    S, U, labels = eval_inputs(2)
    mixed_U = 2.0 * np.abs(np.random.default_rng(9).normal(size=(15, 3))) + 1.0
    rep = evaluate(S, U, multi_hot(labels)[0], Rng(0), mixed_uncertainty=mixed_U)
    assert rep.mean_uncert_mixed > rep.mean_uncert_clean


def test_evaluate_test_metric_changes_ranking_only():
    S, U, labels = eval_inputs(3)
    plain = evaluate(S, U, multi_hot(labels)[0], Rng(1))
    soft = evaluate(S, U, multi_hot(labels)[0], Rng(1), test_metric="ism")
    # clustering runs on the semantic embedding either way
    assert soft.nmi == plain.nmi
    # uncertainty statistics don't depend on the retrieval metric
    assert soft.mean_uncert_clean == plain.mean_uncert_clean


def panel_split(seed=0, n=700):
    """A split of three row panels, the last one short, on 25 classes with
    every seventh row carrying a second class."""
    assert n > 2 * PANEL_ROWS and n % PANEL_ROWS != 0
    r = np.random.default_rng(seed)
    ids = r.integers(0, 25, size=n)
    S = r.normal(size=(25, 8))[ids] + r.normal(size=(n, 8))
    U = 0.3 * r.normal(size=(n, 3))
    other = (ids + r.integers(1, 25, size=n)) % 25
    labels = [{int(a), int(b)} if i % 7 == 0 else {int(a)} for i, (a, b) in enumerate(zip(ids, other))]
    return S, U, labels


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_evaluate_ranking_matches_brute_force_across_panels(metric):
    S, U, labels = panel_split()
    mp_ = MetricParams(gamma=0.1, tau=2.0)
    rep = evaluate(S, U, multi_hot(labels)[0], Rng(0), test_metric=metric, mp=mp_)
    D = oracles.metric_distances_ref(metric, S, U, gamma=0.1, tau=2.0)
    recalls, rp, map_r = oracles.retrieval_ref(D, labels, RECALL_KS)
    assert rep.recall_at_k == recalls
    assert rep.r_precision == pytest.approx(rp, rel=1e-12, abs=1e-15)
    assert rep.map_at_r == pytest.approx(map_r, rel=1e-12, abs=1e-15)


def test_evaluate_calls_each_long_part_once_through_the_module(monkeypatch):
    # perfbench runs a long ruler tick before each call through these names
    # of idml.evaluation, so per-panel work must not go through them
    calls = {}
    for name in ("pairwise_semantic_distance", "neighbor_order", "r_precision_and_map_at_r", "kmeans", "correlation_stats"):
        real = getattr(idml.evaluation, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(idml.evaluation, name, counted)
    S, U, labels = panel_split(2)
    for metric in ("euclidean", "ism"):
        calls.clear()
        evaluate(S, U, multi_hot(labels)[0], Rng(0), test_metric=metric)
        assert calls == {"r_precision_and_map_at_r": 1, "kmeans": 1, "correlation_stats": 1}


@pytest.mark.parametrize("metric", METRIC_NAMES)
@pytest.mark.parametrize("space", ["semantic", "uncertainty"])
def test_evaluate_rejects_a_nan_row_in_the_last_panel(metric, space):
    S, U, labels = panel_split(1)
    (S if space == "semantic" else U)[-1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalFailure):
            evaluate(S, U, multi_hot(labels)[0], Rng(0), test_metric=metric)


def test_evaluate_nmi_reads_a_multi_label_row_as_its_smallest_class():
    # four tight blobs, one class each; row 0 sits in class 0's blob
    r = np.random.default_rng(11)
    ids = np.repeat(np.arange(4), 10)
    S = 10.0 * np.eye(4)[ids] + 0.01 * r.normal(size=(40, 4))
    U = 0.3 * r.normal(size=(40, 3))

    def nmi_with_row_0(first):
        labels = (frozenset(first),) + singleton_labels(ids[1:])
        return evaluate(S, U, multi_hot(labels)[0], Rng(0)).nmi

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
from idml.core import Rng, multi_hot
from idml.evaluation import evaluate
r = np.random.default_rng(0)
ids = np.arange(1500) % 30
S = r.normal(size=(30, 512))[ids] + 0.5 * r.normal(size=(1500, 512))
U = 0.1 * r.normal(size=(1500, 512))
rep = evaluate(S, U, multi_hot(ids)[0], Rng(0), test_metric="ism")
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


# Traces evaluate's peak at 3,000 x 512 (50 classes) under a test metric. One
# N x N float table is 8·N² bytes (72 MB here). Distances are built and
# ranked a 256-row panel at a time, so no N x N table is live: k-means' N x
# 500 tables hold the peak, about 0.69 · 8·N² (whole tables held 1.18 · 8·N²,
# whole-table passes 3.2). Under "ism" beta's N x 512 operands (-U, the
# centered copies and the stacked rows their mean is taken over) hold it
# while the panels are built, about 1.3 · 8·N², where whole tables held 8.1.
_TRACED_EVAL = """
import sys
import tracemalloc
import numpy as np
from idml.core import Rng, multi_hot
from idml.evaluation import evaluate
n = 3000
r = np.random.default_rng(0)
ids = np.arange(n) % 50
S = r.normal(size=(50, 512))[ids] + 0.7 * r.normal(size=(n, 512))
U = 0.1 * r.normal(size=(n, 512))
Y = multi_hot(ids)[0]
tracemalloc.start()
evaluate(S, U, Y, Rng(0), test_metric=sys.argv[1])
print(tracemalloc.get_traced_memory()[1])
"""


def traced_eval_peak(metric: str) -> int:
    src = os.path.dirname(os.path.dirname(idml.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_EVAL, metric], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return int(proc.stdout)


def test_evaluate_peak_stays_near_one_table():
    n = 3000
    assert traced_eval_peak("euclidean") < 0.75 * 8 * n * n


def test_evaluate_peak_under_the_ism_test_metric():
    n = 3000
    assert traced_eval_peak("ism") < 1.5 * 8 * n * n


# numpy imports numpy.ma (about 13 ms) on the first plain np.unique of a
# process, which would land inside the first evaluation's time.
_NO_MASKED_ARRAYS = """
import sys
import numpy as np
from idml.core import Rng, multi_hot
from idml.evaluation import evaluate
r = np.random.default_rng(0)
ids = np.arange(60) % 6
evaluate(r.normal(size=(60, 4)), r.normal(size=(60, 3)), multi_hot(ids)[0], Rng(0))
print("numpy.ma" in sys.modules)
"""


def test_evaluate_does_not_import_masked_arrays():
    src = os.path.dirname(os.path.dirname(idml.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_evaluate_rejects_unknown_metric():
    S, U, labels = eval_inputs(4)
    with pytest.raises(ParameterError):
        evaluate(S, U, multi_hot(labels)[0], Rng(0), test_metric="cityblock")


def test_check_scorable_states_what_evaluate_needs():
    k = max(RECALL_KS)
    Y = multi_hot([{0}, {0}] + [{c} for c in range(1, k)])[0]
    check_scorable(Y)  # k + 1 rows
    with pytest.raises(ParameterError, match=f"recall@{k} needs more than {k}"):
        check_scorable(Y[:k])
    singles = multi_hot([{c} for c in range(k + 1)])[0]
    with pytest.raises(ParameterError, match="no query has a same-label counterpart"):
        check_scorable(singles)
    S, U, _ = eval_inputs(n=k + 1)
    with pytest.raises(ParameterError, match="no query has a same-label counterpart"):
        evaluate(S, U, singles, Rng(0))


def test_eval_report_names_its_outputs_from_its_fields():
    rep = EvalReport(
        recall_at_k={1: 0.5, 4: 0.75},
        nmi=0.1,
        r_precision=0.2,
        map_at_r=0.3,
        mean_uncert_clean=1.0,
        mean_uncert_mixed=2.0,
        corr={"jaccard": 0.4, "mrr": 0.5, "cosine": 0.6},
    )
    assert rep.to_json_dict() == {
        "recall_at_k": {"1": 0.5, "4": 0.75},
        "nmi": 0.1,
        "r_precision": 0.2,
        "map_at_r": 0.3,
        "mean_uncert_clean": 1.0,
        "mean_uncert_mixed": 2.0,
        "corr": {"jaccard": 0.4, "mrr": 0.5, "cosine": 0.6},
    }
    assert rep.columns() == [
        ("recall@1", 0.5),
        ("recall@4", 0.75),
        ("nmi", 0.1),
        ("r_precision", 0.2),
        ("map_at_r", 0.3),
        ("uncert_clean", 1.0),
        ("uncert_mixed", 2.0),
        ("corr_jaccard", 0.4),
        ("corr_mrr", 0.5),
        ("corr_cosine", 0.6),
    ]
