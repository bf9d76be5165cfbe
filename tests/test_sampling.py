"""Negative mining: semi-hard selection and distance-weighted sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from idml.core import Rng, ShapeError, match_matrix, multi_hot
from idml.sampling import dw_log_weights, mine_triplets, sample_negatives_for_pairs


def dist_matrix(points):
    pts = np.asarray(points, float).reshape(len(points), -1)
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


def semi_hard(anchor, positive, d, labels):
    """The negative `mine_triplets` picks for one (anchor, positive) row, or None."""
    triplets, _ = mine_triplets(d, match_matrix(multi_hot(labels)[0]))
    hit = triplets[(triplets[:, 0] == anchor) & (triplets[:, 1] == positive)]
    return int(hit[0, 2]) if len(hit) else None


def draw_negatives(anchor, d, labels, n_dim, rng, draws=1):
    """Distance-weighted negatives for `draws` pairs anchored at `anchor`, in one call."""
    match = match_matrix(multi_hot(labels)[0])
    rows = sample_negatives_for_pairs([(anchor, anchor)] * draws, d, match, n_dim, 10.0, rng)
    return rows[:, 1]


def mixed_labels(r, n, classes=3):
    """One or two of `classes` classes per sample, as after mixing."""
    return tuple(
        frozenset(int(c) for c in r.integers(0, classes, size=int(r.integers(1, 3))))
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
    assert semi_hard(0, 1, d, labels) == 3


def test_semi_hard_none_when_all_negatives_too_close():
    labels = (frozenset({0}), frozenset({0}), frozenset({1}))
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 1.0
    d[0, 2] = d[2, 0] = 0.9
    assert semi_hard(0, 1, d, labels) is None


def test_semi_hard_none_without_negatives():
    labels = (frozenset({0}), frozenset({0}))
    triplets, skipped = mine_triplets(np.zeros((2, 2)), match_matrix(multi_hot(labels)[0]))
    assert triplets.shape == (0, 3)
    assert skipped == 2


def test_semi_hard_shared_label_not_a_negative():
    # the multi-label sample overlaps the anchor's class, so it can't be mined
    labels = (frozenset({0}), frozenset({0}), frozenset({0, 1}), frozenset({1}))
    d = dist_matrix([(0.0,), (0.5,), (0.8,), (2.0,)])
    assert semi_hard(0, 1, d, labels) == 3


def test_semi_hard_never_picks_a_non_finite_negative():
    # +inf and NaN sit "beyond" any positive, yet neither ever qualifies
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}), frozenset({1}))
    d = np.zeros((5, 5))
    d[0, 1] = 0.5
    d[0, 2] = np.inf
    d[0, 3] = np.nan
    d[0, 4] = 0.9
    assert semi_hard(0, 1, d, labels) == 4
    d[0, 4] = 0.3  # the one finite negative is now too close
    assert semi_hard(0, 1, d, labels) is None
    d[0, 4] = np.inf
    assert semi_hard(0, 1, d, labels) is None


@pytest.mark.parametrize("d_pos", [np.inf, np.nan], ids=["inf", "nan"])
def test_semi_hard_skips_a_pair_at_non_finite_positive_distance(d_pos):
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}))
    d = np.ones((4, 4)) - np.eye(4)
    d[1, 0] = d[2, 3] = d[3, 2] = 0.5
    d[0, 1] = d_pos
    d[0, 3] = np.inf
    triplets, skipped = mine_triplets(d, match_matrix(multi_hot(labels)[0]))
    assert triplets.tolist() == [[1, 0, 2], [2, 3, 0], [3, 2, 0]]
    assert skipped == 1


def test_mine_triplets_rejects_a_table_of_another_size():
    with pytest.raises(ShapeError):
        mine_triplets(np.zeros((3, 3)), match_matrix(multi_hot((frozenset({0}), frozenset({0})))[0]))


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
            if want is None:
                want_skipped += 1
            else:
                want_rows.append([a, p, want])
    triplets, skipped = mine_triplets(d, match_matrix(multi_hot(labels)[0]))
    assert triplets.tolist() == want_rows
    assert skipped == want_skipped


def test_mine_triplets_structure_and_skip_count():
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}))
    d = dist_matrix([(0.0,), (0.5,), (0.7,), (10.0,)])
    triplets, skipped = mine_triplets(d, match_matrix(multi_hot(labels)[0]))
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
    assert dw_log_weights(1.0, 4, 10.0) == pytest.approx(0.14384103622589045, rel=1e-12)


def test_dw_log_weight_caps_at_log_phi():
    # d near the antipode: the raw density blows up and the cap binds
    lw = dw_log_weights(np.array([1.9999, 2.5]), 4, 10.0)
    assert lw == pytest.approx([np.log(10.0)] * 2, rel=1e-12)


def test_dw_log_weight_clamps_domain():
    # inputs outside (0, 2) are pulled to the edge of the valid chord range
    lw = dw_log_weights(np.array([0.0, 1e-4, -1.0]), 8, 10.0)
    assert lw[0] == pytest.approx(lw[1], rel=1e-12)
    assert lw[2] == lw[0]


def test_dw_log_weight_three_dims():
    # n=3 kills the second term; weight is -log d up to the cap
    lw = dw_log_weights(np.array([0.5, 0.05]), 3, 10.0)
    assert lw[0] == pytest.approx(np.log(2.0), rel=1e-12)
    assert lw[1] == pytest.approx(np.log(10.0), rel=1e-12)


@pytest.mark.parametrize("n_dim", [3, 4, 16, 64])
def test_dw_log_weight_matches_reference_on_grid(n_dim):
    ds = np.linspace(0.01, 1.99, 100)
    for d, lw in zip(ds, dw_log_weights(ds, n_dim, 10.0)):
        assert lw == pytest.approx(oracles.dw_log_weight_ref(d, n_dim, 10.0), rel=1e-12, abs=1e-12)


def test_dw_log_weights_vector_matches_scalar():
    ds = np.array([0.3, 0.9, 1.4, 1.99, 2.7])
    vec = dw_log_weights(ds, 16, 10.0)
    for i, d in enumerate(ds):
        assert vec[i] == dw_log_weights(float(d), 16, 10.0)


# ---------------------------------------------------------------------------
# Distance-weighted sampling
# ---------------------------------------------------------------------------


def test_sample_negatives_dw_single_candidate():
    labels = (frozenset({0}), frozenset({1}))
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert (draw_negatives(0, d, labels, 16, Rng(seed=0), draws=20) == 1).all()


def test_sample_negatives_dw_equal_distances_near_uniform():
    labels = (frozenset({0}), frozenset({1}), frozenset({1}))
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.5], [1.0, 0.5, 0.0]])
    picks = draw_negatives(0, d, labels, 16, Rng(seed=7), draws=10_000)
    frac = float((picks == 1).mean())
    assert frac == pytest.approx(0.5, abs=0.02)


def test_sample_negatives_dw_both_capped_split_evenly():
    """In high dimension both a near (0.2) and a mid (1.0) chord saturate the
    density cap, so the draw is a coin flip despite the distance gap."""
    n_dim = 128
    assert dw_log_weights(np.array([0.2, 1.0]), n_dim, 10.0) == pytest.approx([np.log(10.0)] * 2)
    labels = (frozenset({0}), frozenset({1}), frozenset({1}))
    d = np.array([[0.0, 0.2, 1.0], [0.2, 0.0, 0.5], [1.0, 0.5, 0.0]])
    picks = draw_negatives(0, d, labels, n_dim, Rng(seed=11), draws=10_000)
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
    draws = 10_000
    picks = draw_negatives(0, d, labels, 16, Rng(seed=3), draws=draws)
    observed = np.array([(picks == j).sum() for j in range(1, n)])
    expected = draws * np.array(want)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # the chi-square survival function with len(observed) - 1 degrees of freedom
    p = mp.gammainc((len(observed) - 1) / 2, chi2 / 2, mp.inf, regularized=True)
    assert p > 0.01


def test_sample_negatives_dw_deterministic_given_stream():
    labels = (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({1}))
    d = dist_matrix([(0.0,), (0.4,), (0.9,), (1.6,)])
    a = draw_negatives(0, d, labels, 16, Rng(seed=5), draws=5)
    b = draw_negatives(0, d, labels, 16, Rng(seed=5), draws=5)
    assert a.tolist() == b.tolist()


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
    rows = sample_negatives_for_pairs(pos_pairs, d, match_matrix(multi_hot(labels)[0]), 16, 10.0, Rng(seed=0))
    assert rows.shape[1] == 2
    assert len(rows) == len(pos_pairs)  # every anchor here has a negative
    for a, neg in rows:
        assert not (labels[a] & labels[neg])


def per_pair_generator(seed, stream):
    """A fresh numpy Generator equal to the one `Rng(seed, stream)` draws from."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def assert_matches_per_pair_choice(pos_pairs, d, labels, n_dim, phi, seed=9):
    """Rows equal the per-pair `Generator.choice` oracle's, and both leave
    their streams at the same next draw."""
    rng, gen = Rng(seed=seed, stream=5), per_pair_generator(seed, 5)
    rows = sample_negatives_for_pairs(pos_pairs, d, match_matrix(multi_hot(labels)[0]), n_dim, phi, rng)
    want = oracles.dw_negatives_ref(pos_pairs, d, labels, n_dim, phi, gen)
    assert rows.dtype == np.intp
    assert rows.shape == want.shape
    assert rows.tolist() == want.tolist()
    assert rng.random() == gen.random()
    return rows


def all_positive_pairs(labels):
    n = len(labels)
    return [(a, p) for a in range(n) for p in range(n) if a != p and labels[a] & labels[p]]


# (n_dim, phi, two labels per sample?, rounding decimals or None,
#  rows drawn from [lo, hi), classes, point dimension)
PER_PAIR_CASES = [
    (2, 10.0, False, None, (6, 40), 3, 4),
    (16, 10.0, True, None, (6, 40), 3, 4),
    (16, 10.0, True, 1, (6, 40), 3, 4),  # one decimal: many tied distances
    (512, 10.0, True, None, (6, 40), 3, 4),
    (512, 0.5, False, 1, (6, 40), 3, 4),  # the phi cap binds on every candidate
    # paper shape: rows with more negatives than numpy's 128-wide pairwise-sum
    # block, and many distinct negative counts
    (512, 10.0, True, None, (160, 200), 16, 512),
]


def test_sample_negatives_for_pairs_matches_single_draws():
    for case, seed in itertools.product(PER_PAIR_CASES, range(3)):
        n_dim, phi, two_labels, decimals, (lo, hi), classes, point_dim = case
        r = np.random.default_rng(seed)
        n = int(r.integers(lo, hi))
        if two_labels:
            labels = mixed_labels(r, n, classes)
        else:
            labels = tuple(frozenset({int(c)}) for c in r.integers(0, classes, size=n))
        # the last sample carries every class, so it has no negative to draw
        labels += (frozenset(range(classes)),)
        pts = r.normal(size=(n + 1, point_dim))
        d = dist_matrix(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        if decimals is not None:
            d = np.round(d, decimals)
        if phi < 1.0:
            neg_d = [d[a, j] for a in range(n + 1) for j in range(n + 1) if not labels[a] & labels[j]]
            assert (dw_log_weights(neg_d, n_dim, phi) == np.log(phi)).all()
        pairs = all_positive_pairs(labels)
        # repeated anchors out of anchor order, as well as the grouped pairs
        shuffled = [pairs[i] for i in r.integers(0, len(pairs), size=2 * len(pairs))]
        for pos_pairs in (pairs, shuffled):
            rows = assert_matches_per_pair_choice(pos_pairs, d, labels, n_dim, phi, seed=seed)
            assert n not in rows[:, 0]
            assert len(rows) == sum(a != n for a, _ in pos_pairs)


class PresetUniforms:
    """Stands in for `Rng`: random(M) returns the given M uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u


def test_sample_negatives_for_pairs_cdf_steps_are_choices_bits():
    """Uniforms exactly on, and one ulp below, every step of the CDF that
    `Generator.choice` builds (p.cumsum() over its last value, searched on
    the right) pick what its search picks, so every step's bits must match.
    On the paper-shape case, a ten-anchor table at a time."""
    n_dim, phi, _, _, (lo, hi), classes, point_dim = PER_PAIR_CASES[-1]
    r = np.random.default_rng(0)
    n = int(r.integers(lo, hi))
    labels = mixed_labels(r, n, classes)
    pts = r.normal(size=(n, point_dim))
    d = dist_matrix(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    match = match_matrix(multi_hot(labels)[0])
    counts = (~match).sum(axis=1)
    assert counts.max() > 128 and len(set(counts.tolist())) >= 20
    for first in range(0, n, 10):
        pairs, u, want = [], [], []
        for a in range(first, min(first + 10, n)):
            neg, p = oracles.dw_probabilities_ref(a, d, labels, n_dim, phi)
            cdf = p.cumsum()
            cdf /= cdf[-1]
            steps = cdf[cdf < 1.0]
            for x in np.concatenate([steps, np.nextafter(steps, 0.0)]):
                pairs.append((a, a))
                u.append(x)
                want.append([a, int(neg[np.searchsorted(cdf, x, side="right")])])
        rows = sample_negatives_for_pairs(pairs, d, match, n_dim, phi, PresetUniforms(u))
        assert rows.tolist() == want


def test_sample_negatives_for_pairs_empty_draws_nothing():
    labels = (frozenset({0}), frozenset({1}))
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    rows = assert_matches_per_pair_choice([], d, labels, 16, 10.0)
    assert rows.shape == (0, 2)
    # only anchors without a negative: nothing drawn either
    same = (frozenset({0}), frozenset({0}))
    assert assert_matches_per_pair_choice([(0, 1), (1, 0)], d, same, 16, 10.0).shape == (0, 2)


def test_sample_negatives_for_pairs_nan_distance_raises_like_choice():
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}))
    d = dist_matrix([(0.0,), (0.3,), (0.8,), (1.4,)])
    d[1, 3] = d[3, 1] = np.nan
    pairs = all_positive_pairs(labels)
    match = match_matrix(multi_hot(labels)[0])
    with pytest.raises(ValueError):
        oracles.dw_negatives_ref(pairs, d, labels, 16, 10.0, per_pair_generator(0, 5))
    with pytest.raises(ValueError):
        sample_negatives_for_pairs(pairs, d, match, 16, 10.0, Rng(seed=0, stream=5))


def test_sample_negatives_for_pairs_nan_distance_to_a_positive_is_not_read():
    # only distances to negatives enter a CDF, however the table packs them
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}), frozenset({0, 2}))
    d = dist_matrix([(0.0,), (0.3,), (0.8,), (1.4,), (0.5,)])
    d[0, 1] = d[1, 0] = d[0, 4] = d[4, 0] = d[2, 3] = np.nan
    pairs = all_positive_pairs(labels) * 20
    rows = assert_matches_per_pair_choice(pairs, d, labels, 16, 10.0)
    assert len(rows) == len(pairs)


def test_sample_negatives_for_pairs_inf_distance_is_clamped_and_drawn():
    labels = (frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}))
    d = dist_matrix([(0.0,), (0.3,), (0.8,), (1.4,)])
    d[0, 3] = d[3, 0] = np.inf
    pairs = all_positive_pairs(labels) * 50
    rows = assert_matches_per_pair_choice(pairs, d, labels, 16, 10.0)
    assert [0, 3] in rows.tolist()
