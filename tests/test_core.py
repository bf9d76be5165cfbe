"""Shared primitives: vectors, label sets, parameter bundles, seeded streams."""

import subprocess
import sys

import numpy as np
import pytest

from idml.core import (
    Batch,
    MetricParams,
    NumericalFailure,
    ParameterError,
    Rng,
    ShapeError,
    label_set,
    labels_match,
    match_matrix,
    multi_hot,
)


def test_batch_accepts_lists_and_casts():
    b = Batch(features=[[1, 2, 3]], labels=[0])
    assert b.features.dtype == np.float64
    assert b.features.shape == (1, 3)
    assert b.labels == (frozenset({0}),)


def test_batch_rejects_non_matrix_features():
    with pytest.raises(ShapeError):
        Batch(features=np.ones(3), labels=(0, 0, 0))
    with pytest.raises(ShapeError):
        Batch(features=np.ones((0, 2)), labels=())


def test_batch_rejects_non_finite_features():
    with pytest.raises(NumericalFailure):
        Batch(features=[[1.0, np.nan]], labels=[0])
    with pytest.raises(NumericalFailure):
        Batch(features=[[np.inf, 0.0]], labels=[0])


def test_label_set_normalizes_scalars_and_iterables():
    assert label_set(5) == frozenset({5})
    assert label_set([2, 1, 2]) == frozenset({1, 2})
    assert label_set(frozenset({0})) == frozenset({0})


def test_labels_match_is_set_intersection():
    assert labels_match({1, 2}, {2, 3})
    assert not labels_match({1}, {3})
    # a mixed sample shares a class with both of its parents
    assert labels_match({1, 2}, {1})


def test_match_matrix_equals_pairwise_labels_match():
    # sparse ids index columns through the sorted distinct ids, not by value
    labels = ({0}, {10**6}, {0, 10**6}, {7}, {7, 0}, 3, [10**6, 10**6])
    Y, classes = multi_hot(labels)
    assert classes == [0, 3, 7, 10**6]
    assert Y.shape == (7, 4)
    assert match_matrix(Y).tolist() == [[labels_match(a, b) for b in labels] for a in labels]
    for bad in (({0}, set()), ({0}, {-1})):
        with pytest.raises(ParameterError):
            match_matrix(multi_hot(bad)[0])


def test_metric_params_defaults_and_validation():
    mp = MetricParams()
    assert (mp.gamma, mp.tau, mp.alpha_min) == (0.0, 5.0, 1e-12)
    with pytest.raises(ParameterError):
        MetricParams(gamma=-0.5)
    with pytest.raises(ParameterError):
        MetricParams(tau=0.0)
    with pytest.raises(ParameterError):
        MetricParams(alpha_min=0.0)


def test_batch_default_mixed_flags_are_false():
    b = Batch(features=np.ones((3, 2)), labels=(frozenset({0}),) * 3)
    assert b.is_mixed.dtype == bool
    assert not b.is_mixed.any()


def test_batch_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        Batch(features=np.ones((3, 2)), labels=(frozenset({0}),) * 2)


# ---------------------------------------------------------------------------
# Seeded streams
# ---------------------------------------------------------------------------


def test_rng_same_seed_same_draws():
    a = Rng(seed=7, stream=1).normal(size=100)
    b = Rng(seed=7, stream=1).normal(size=100)
    assert np.array_equal(a, b)


def test_rng_streams_are_distinct():
    draws = [Rng(seed=7, stream=s).normal(size=50) for s in range(5)]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_rng_substream_reproducible_and_distinct():
    a = Rng(3, 9).normal(size=20)
    b = Rng(3, 9).normal(size=20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(3, 10).normal(size=20))


def test_rng_draw_order_does_not_cross_streams():
    # consuming stream 0 must not shift stream 1
    r0 = Rng(seed=11, stream=0)
    r0.normal(size=1000)
    fresh = Rng(seed=11, stream=1).normal(size=10)
    assert np.array_equal(fresh, Rng(seed=11, stream=1).normal(size=10))


def test_rng_bit_identical_across_processes():
    """The stream contract is cross-process: same seed, same bytes."""
    code = (
        "from idml.core import Rng; import numpy as np; "
        "print(Rng(seed=42, stream=3).normal(size=8).tobytes().hex())"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.strip()
        for _ in range(2)
    ]
    assert outs[0] == outs[1]
    local = Rng(seed=42, stream=3).normal(size=8).tobytes().hex()
    assert outs[0] == local


def test_rng_random_batch_equals_successive_draws():
    # sampling.sample_negatives_for_pairs relies on this to draw a batch's
    # uniforms in one call
    for n in (0, 1, 7, 1000):
        one = Rng(seed=13, stream=5)
        batch = one.random(n)
        fresh = Rng(seed=13, stream=5)
        assert np.array_equal(batch, [fresh.random() for _ in range(n)])
        assert one.random() == fresh.random()


def test_rng_random_is_the_unit_uniform():
    # Generator.uniform(0, 1) returns 0 + 1 * random(), one draw each, so
    # random() replaces a unit uniform without moving the stream
    r = Rng(seed=13, stream=4)
    gen = np.random.Generator(np.random.Philox(key=np.array([13, 4], dtype=np.uint64)))
    for _ in range(1000):
        assert r.random() == gen.uniform(0.0, 1.0)
    assert r.normal() == gen.standard_normal()


def test_rng_integers_and_choice_bounds():
    r = Rng(seed=1)
    vals = r.integers(0, 5, size=200)
    assert vals.min() >= 0 and vals.max() < 5
    picks = r.choice(np.arange(4), size=100, p=np.array([0.0, 0.0, 1.0, 0.0]))
    assert (picks == 2).all()
