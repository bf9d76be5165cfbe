"""Negative mining: semi-hard selection and distance-weighted sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from idml.core import MiningExhausted, Rng
from idml.sampling import (
    dw_log_weight,
    dw_log_weights,
    mine_triplets,
    sample_negatives_dw,
    sample_negatives_for_pairs,
    semi_hard_negative,
)


def dist_matrix(points):
    pts = np.asarray(points, float).reshape(len(points), -1)
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


def mixed_labels(r, n):
    """One or two of three classes per sample, as after mixing."""
    return tuple(
        frozenset(int(c) for c in r.integers(0, 3, size=int(r.integers(1, 3))))
        for _ in range(n)
    )


# ---------------------------------------------------------------------------
# Semi-hard selection
# ---------------------------------------------------------------------------


def test_semi_hard_picks_closest_qualifying_negative():
    # negatives at 0.4, 0.7, 1.2 with the positive at 0.5: only 0.7 and 1.2
    # qualify, and 0.7 wins
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}), frozenset({1}))
    d = np.zeros((5, 5))
    d[0, 1] = d[1, 0] = 0.5
    d[0, 2] = d[2, 0] = 0.4
    d[0, 3] = d[3, 0] = 0.7
    d[0, 4] = d[4, 0] = 1.2
    assert semi_hard_negative(0, 1, d, labels) == 3


def test_semi_hard_none_when_all_negatives_too_close():
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 1.0
    d[0, 2] = d[2, 0] = 0.9
    assert semi_hard_negative(0, 1, d, labels) is None


def test_semi_hard_none_without_negatives():
    labels = (frozenset({0}), frozenset({0}))
    assert semi_hard_negative(0, 1, np.zeros((2, 2)), labels) is None


def test_semi_hard_shared_label_not_a_negative():
    # the multi-label sample overlaps the anchor's class, so it can't be mined
    labels = (frozenset({0}), frozenset({0}), frozenset({0, 1}), frozenset({1}))
    d = dist_matrix([(0.0,), (0.5,), (0.8,), (2.0,)])
    assert semi_hard_negative(0, 1, d, labels) == 3


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_semi_hard_matches_brute_force(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(4, 20))
    labels = mixed_labels(r, n)
    # one decimal makes distance ties common; the lowest index must win them
    d = np.round(dist_matrix(r.normal(size=(n, 3))), 1)
    want_rows, want_skipped = [], 0
    for a in range(n):
        for p in range(n):
            if a == p or not (labels[a] & labels[p]):
                continue
            want = oracles.semi_hard_ref(
                d[a, p], [(j, d[a, j]) for j in range(n) if not (labels[a] & labels[j])]
            )
            assert semi_hard_negative(a, p, d, labels) == want
            if want is None:
                want_skipped += 1
            else:
                want_rows.append([a, p, want])
    triplets, skipped = mine_triplets(d, labels)
    assert triplets.tolist() == want_rows
    assert skipped == want_skipped


def test_mine_triplets_structure_and_skip_count():
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}))
    d = dist_matrix([(0.0,), (0.5,), (0.7,), (10.0,)])
    triplets, skipped = mine_triplets(d, labels)
    assert triplets.shape[1] == 3
    for a, p, n in triplets:
        assert a != p
        assert labels[a] & labels[p]
        assert not (labels[a] & labels[n])
        assert d[a, n] > d[a, p]
    # anchor 2's positive sits 9.3 away with both negatives closer -> that
    # pair is skipped; anchor 3's closest qualifying negative is sample 1
    assert skipped == 1
    assert [list(t) for t in triplets] == [[0, 1, 2], [1, 0, 3], [3, 2, 1]]


# ---------------------------------------------------------------------------
# Distance-weighted log weights
# ---------------------------------------------------------------------------


def test_dw_log_weight_worked_value():
    # n=4, d=1: min(log 10, log(1.154701...))
    assert dw_log_weight(1.0, 4, 10.0) == pytest.approx(0.14384103622589045, rel=1e-12)


def test_dw_log_weight_caps_at_log_phi():
    # d near the antipode: the raw density blows up and the cap binds
    assert dw_log_weight(1.9999, 4, 10.0) == pytest.approx(np.log(10.0), rel=1e-12)
    assert dw_log_weight(2.5, 4, 10.0) == pytest.approx(np.log(10.0), rel=1e-12)


def test_dw_log_weight_clamps_domain():
    # inputs outside (0, 2) are pulled to the edge of the valid chord range
    assert dw_log_weight(0.0, 8, 10.0) == pytest.approx(
        dw_log_weight(1e-4, 8, 10.0), rel=1e-12
    )
    assert dw_log_weight(-1.0, 8, 10.0) == dw_log_weight(0.0, 8, 10.0)


def test_dw_log_weight_three_dims():
    # n=3 kills the second term; weight is -log d up to the cap
    assert dw_log_weight(0.5, 3, 10.0) == pytest.approx(np.log(2.0), rel=1e-12)
    assert dw_log_weight(0.05, 3, 10.0) == pytest.approx(np.log(10.0), rel=1e-12)


@pytest.mark.parametrize("n_dim", [3, 4, 16, 64])
def test_dw_log_weight_matches_reference_on_grid(n_dim):
    for d in np.linspace(0.01, 1.99, 100):
        assert dw_log_weight(float(d), n_dim, 10.0) == pytest.approx(
            oracles.dw_log_weight_ref(d, n_dim, 10.0), rel=1e-12, abs=1e-12
        )


def test_dw_log_weights_vector_matches_scalar():
    ds = np.array([0.3, 0.9, 1.4, 1.99, 2.7])
    vec = dw_log_weights(ds, 16, 10.0)
    for i, d in enumerate(ds):
        assert vec[i] == dw_log_weight(float(d), 16, 10.0)


# ---------------------------------------------------------------------------
# Distance-weighted sampling
# ---------------------------------------------------------------------------


def test_sample_negatives_dw_single_candidate():
    labels = (frozenset({0}), frozenset({1}))
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = Rng(seed=0)
    assert all(sample_negatives_dw(0, d, labels, 16, 10.0, r) == 1 for _ in range(20))


def test_sample_negatives_dw_raises_without_negatives():
    labels = (frozenset({0}), frozenset({0}))
    with pytest.raises(MiningExhausted):
        sample_negatives_dw(0, np.zeros((2, 2)), labels, 16, 10.0, Rng(seed=0))


def test_sample_negatives_dw_equal_distances_near_uniform():
    labels = (frozenset({0}), frozenset({1}), frozenset({1}))
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.5], [1.0, 0.5, 0.0]])
    r = Rng(seed=7)
    picks = np.array([sample_negatives_dw(0, d, labels, 16, 10.0, r) for _ in range(10_000)])
    frac = float((picks == 1).mean())
    assert frac == pytest.approx(0.5, abs=0.02)


def test_sample_negatives_dw_both_capped_split_evenly():
    """In high dimension both a near (0.2) and a mid (1.0) chord saturate the
    density cap, so the draw is a coin flip despite the distance gap."""
    n_dim = 128
    assert dw_log_weight(0.2, n_dim, 10.0) == pytest.approx(np.log(10.0))
    assert dw_log_weight(1.0, n_dim, 10.0) == pytest.approx(np.log(10.0))
    labels = (frozenset({0}), frozenset({1}), frozenset({1}))
    d = np.array([[0.0, 0.2, 1.0], [0.2, 0.0, 0.5], [1.0, 0.5, 0.0]])
    r = Rng(seed=11)
    picks = np.array([sample_negatives_dw(0, d, labels, n_dim, 10.0, r) for _ in range(10_000)])
    frac = float((picks == 1).mean())
    assert frac == pytest.approx(0.5, abs=0.02)


def test_sample_negatives_dw_frequencies_match_weights():
    """Empirical pick counts against the closed-form normalized weights,
    chi-square at the 1% level."""
    labels = (frozenset({0}),) + tuple(frozenset({1 + i}) for i in range(6))
    dists = [0.3, 0.6, 0.9, 1.2, 1.5, 1.8]
    n = len(labels)
    d = np.zeros((n, n))
    for j, dist in enumerate(dists, start=1):
        d[0, j] = d[j, 0] = dist
    want = oracles.dw_weights_ref(dists, 16, 10.0)
    r = Rng(seed=3)
    draws = 10_000
    picks = np.array([sample_negatives_dw(0, d, labels, 16, 10.0, r) for _ in range(draws)])
    observed = np.array([(picks == j).sum() for j in range(1, n)])
    expected = draws * np.array(want)
    _, p = stats.chisquare(observed, expected)
    assert p > 0.01


def test_sample_negatives_dw_deterministic_given_stream():
    labels = (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({1}))
    d = dist_matrix([(0.0,), (0.4,), (0.9,), (1.6,)])
    a = [sample_negatives_dw(0, d, labels, 16, 10.0, Rng(seed=5)) for _ in range(5)]
    b = [sample_negatives_dw(0, d, labels, 16, 10.0, Rng(seed=5)) for _ in range(5)]
    assert a == b


def test_sample_negatives_for_pairs_rows_are_valid():
    r = np.random.default_rng(2)
    n = 10
    labels = tuple(frozenset({int(c)}) for c in r.integers(0, 3, size=n))
    d = dist_matrix(r.normal(size=(n, 4)))
    pos_pairs = [
        (a, p)
        for a in range(n)
        for p in range(n)
        if a != p and labels[a] & labels[p]
    ]
    rows = sample_negatives_for_pairs(pos_pairs, d, labels, 16, 10.0, Rng(seed=0))
    assert rows.shape[1] == 2
    assert len(rows) == len(pos_pairs)  # every anchor here has a negative
    for a, neg in rows:
        assert not (labels[a] & labels[neg])


def test_sample_negatives_for_pairs_matches_single_draws():
    r = np.random.default_rng(8)
    # the last sample carries every class, so it has no negative to draw
    labels = mixed_labels(r, 12) + (frozenset({0, 1, 2}),)
    n = len(labels)
    pts = r.normal(size=(n, 4))
    d = dist_matrix(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    pos_pairs = [(a, p) for a in range(n) for p in range(n) if a != p and labels[a] & labels[p]]
    rng = Rng(seed=9)
    want = []
    for a, _ in pos_pairs:
        try:
            want.append([a, sample_negatives_dw(a, d, labels, 16, 10.0, rng)])
        except MiningExhausted:
            continue
    rows = sample_negatives_for_pairs(pos_pairs, d, labels, 16, 10.0, Rng(seed=9))
    assert rows.tolist() == want
    assert n - 1 not in rows[:, 0]
