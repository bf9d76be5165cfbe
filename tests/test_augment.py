"""Feature-space mixing and blur, through augment_batch."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from idml.augment import AugmentConfig, augment_batch
from idml.core import STREAM_AUGMENT, Batch, ParameterError, Rng, label_ids, multi_hot

finite = st.floats(-100, 100, allow_nan=False)


def batch_of(features, labels, is_mixed=None):
    return Batch(features, *multi_hot(labels), is_mixed=is_mixed)


def label_sets(batch):
    return tuple(frozenset(ids) for ids in label_ids(batch.Y, batch.classes))


def mixed_row(x1, l1, x2, l2, seed=0, **cfg):
    """The one mixed row (features, labels) of a two-row batch."""
    b = batch_of([x1, x2], [l1, l2])
    out = augment_batch(b, AugmentConfig(mix_fraction=0.5, **cfg), Rng(seed))
    assert out.is_mixed.tolist() == [False, False, True]
    return out.features[2], label_sets(out)[2]


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------


def test_mix_midpoint_and_union_label():
    # Beta(1e6, 1e6) puts lam within 0.01 of 1/2 (about 28 standard deviations)
    x, ls = mixed_row([0.0, 2.0], {1}, [2.0, 0.0], {2}, mix_lambda_dist=1e6)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=0.01)
    assert ls == frozenset({1, 2})


def test_mix_endpoint_keeps_union():
    # a mixed row that reproduces its sources' features still carries both labels
    x, ls = mixed_row([3.0], {0}, [3.0], {4})
    assert x[0] == pytest.approx(3.0, rel=1e-15)
    assert ls == frozenset({0, 4})


def test_mix_weights():
    # replay the pair and lam draws on a twin stream: x = lam*x_i + (1-lam)*x_j
    X = np.array([[0.0, 1.0], [2.0, -3.0]])
    for seed in range(20):
        x, _ = mixed_row(X[0], {0}, X[1], {1}, seed=seed, mix_lambda_dist=2.0)
        twin = Rng(seed)
        i = int(twin.integers(0, 2))
        j = int(twin.integers(0, 2))
        for _ in range(8):
            if j != i:
                break
            j = int(twin.integers(0, 2))
        if j == i:
            j = 1 - i
        lam = twin.beta(2.0, 2.0)
        np.testing.assert_array_equal(x, lam * X[i] + (1.0 - lam) * X[j])


def test_mix_same_class_label_stays_singleton():
    b = batch_of([np.ones(2), np.zeros(2)], [{3}, {3}])
    out = augment_batch(b, AugmentConfig(mix_fraction=1.0), Rng(0))
    assert label_sets(out)[2:] == (frozenset({3}),) * 2


@given(
    a=st.tuples(finite, finite),
    b=st.tuples(finite, finite),
    shape=st.floats(0.1, 10),
    seed=st.integers(0, 2**32),
)
def test_mix_is_convex(a, b, shape, seed):
    batch = batch_of([a, b], [0, 1])
    out = augment_batch(batch, AugmentConfig(mix_fraction=1.0, mix_lambda_dist=shape), Rng(seed))
    lo = np.minimum(a, b) - 1e-9
    hi = np.maximum(a, b) + 1e-9
    x = out.features[out.is_mixed]
    assert np.all(x >= lo) and np.all(x <= hi)


# ---------------------------------------------------------------------------
# Blur
# ---------------------------------------------------------------------------


def test_blur_zero_sigma_identity():
    # the blur coin is still tossed, but no noise is drawn
    x = np.array([1.0, -2.0, 3.5])
    rng = Rng(0)
    cfg = AugmentConfig(mix_fraction=0.0, blur_prob=1.0, noise_sigma=0.0)
    out = augment_batch(batch_of([x], [0]), cfg, rng)
    np.testing.assert_array_equal(out.features[0], x)
    twin = Rng(0)
    twin.random()
    assert rng.random() == twin.random()


def test_blur_noise_is_centered():
    # mean displacement over many rows stays inside the CLT envelope
    sigma = 0.5
    n = 10_000
    b = batch_of(np.zeros((n, 8)), [0] * n)
    cfg = AugmentConfig(mix_fraction=0.0, blur_prob=1.0, noise_sigma=sigma)
    out = augment_batch(b, cfg, Rng(3)).features
    bound = 3 * sigma / np.sqrt(n)
    assert np.all(np.abs(out.mean(axis=0)) < bound)


# ---------------------------------------------------------------------------
# Batch-level pipeline
# ---------------------------------------------------------------------------


def batch4():
    return batch_of(np.arange(12.0).reshape(4, 3), (0, 0, 1, 1))


def test_augment_batch_appends_mixed_samples():
    out = augment_batch(batch4(), AugmentConfig(mix_fraction=0.5, mix_lambda_dist=2.0), Rng(0))
    assert out.features.shape == (6, 3)  # round(4 * 0.5) appended
    assert out.is_mixed.tolist() == [False] * 4 + [True] * 2
    # originals pass through untouched
    np.testing.assert_array_equal(out.features[:4], batch4().features)
    assert label_sets(out)[:4] == label_sets(batch4())


def test_augment_batch_mixed_labels_are_unions():
    out = augment_batch(batch4(), AugmentConfig(mix_fraction=1.0, mix_lambda_dist=2.0), Rng(2))
    for ls, mixed in zip(label_sets(out), out.is_mixed):
        if mixed:
            assert len(ls) == 2  # cross-class pairs preferred
            assert ls <= frozenset({0, 1})


def test_augment_batch_zero_fraction_is_identity():
    b = batch4()
    out = augment_batch(b, AugmentConfig(mix_fraction=0.0), Rng(0))
    np.testing.assert_array_equal(out.features, b.features)
    assert label_sets(out) == label_sets(b)
    assert not out.is_mixed.any()


def test_augment_batch_mixed_features_are_in_batch_convex_hull():
    b = batch4()
    out = augment_batch(b, AugmentConfig(mix_fraction=1.0, mix_lambda_dist=2.0), Rng(5))
    lo = b.features.min(axis=0) - 1e-12
    hi = b.features.max(axis=0) + 1e-12
    mixed = out.features[out.is_mixed]
    assert np.all(mixed >= lo) and np.all(mixed <= hi)


def test_augment_batch_deterministic():
    cfg = AugmentConfig(mix_fraction=0.5, mix_lambda_dist=2.0, blur_prob=0.5, noise_sigma=0.2)
    a = augment_batch(batch4(), cfg, Rng(7))
    b = augment_batch(batch4(), cfg, Rng(7))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.Y, b.Y)


def test_augment_config_validation():
    with pytest.raises(ParameterError):
        AugmentConfig(mix_fraction=-0.1)
    with pytest.raises(ParameterError):
        AugmentConfig(blur_prob=1.5)


# ---------------------------------------------------------------------------
# The batch route against the per-row reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
@pytest.mark.parametrize("mix_lambda_dist", [0.5, 1.0, 2.0])
def test_augment_batch_matches_per_row_reference(mix_lambda_dist, d):
    """Features, labels, is_mixed and the next draw equal oracles.augment_batch_ref
    bit for bit, over every mixing fraction and blur setting, for feature
    width D = d (one column up to sixteen)."""
    grid = itertools.product(
        (0.0, 0.3, 1.0),  # mix_fraction
        (0.0, 0.5, 1.0),  # blur_prob
        (0.0, 0.3),  # noise_sigma
    )
    for case, (mix_fraction, blur_prob, noise_sigma) in enumerate(grid):
        r = np.random.default_rng(case)
        n = int(r.integers(2, 9))
        labels = [frozenset(r.choice(4, size=int(r.integers(1, 3))).tolist()) for _ in range(n)]
        batch = batch_of(r.normal(size=(n, d)), labels, is_mixed=r.random(n) < 0.2)
        cfg = AugmentConfig(
            mix_lambda_dist=mix_lambda_dist,
            mix_fraction=mix_fraction,
            blur_prob=blur_prob,
            noise_sigma=noise_sigma,
        )
        rng = Rng(case, STREAM_AUGMENT)
        gen = np.random.Generator(np.random.Philox(key=np.array([case, STREAM_AUGMENT], dtype=np.uint64)))
        out = augment_batch(batch, cfg, rng)
        X, L, M = oracles.augment_batch_ref(
            batch.features, labels, batch.is_mixed, gen, **dataclasses.asdict(cfg)
        )
        assert out.features.tobytes() == X.tobytes(), cfg
        assert label_sets(out) == tuple(L) and out.is_mixed.tolist() == M.tolist(), cfg
        assert rng.random() == gen.random(), cfg
