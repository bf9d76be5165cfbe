"""Shared primitives: vectors, label sets, parameter bundles, seeded streams."""

import dataclasses
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from idml.augment import AugmentConfig
from idml.core import (
    Batch,
    MetricParams,
    NumericalFailure,
    ParameterError,
    Rng,
    ShapeError,
    label_ids,
    label_set,
    labels_match,
    match_matrix,
    multi_hot,
)
from idml.data import SynthConfig
from idml.harness import RunConfig
from idml.losses import LOSS_NAMES, LossParams
from idml.metric import METRIC_NAMES


def test_batch_accepts_lists_and_casts():
    b = Batch(features=[[1, 2, 3]], Y=[[1]], classes=[0])
    assert b.features.dtype == np.float64
    assert b.features.shape == (1, 3)
    assert b.Y.dtype == bool and b.Y.tolist() == [[True]]
    assert b.classes == (0,)


def test_batch_rejects_non_matrix_features():
    with pytest.raises(ShapeError):
        Batch(features=np.ones(3), Y=np.ones((3, 1), dtype=bool))
    with pytest.raises(ShapeError):
        Batch(features=np.ones((0, 2)), Y=np.ones((0, 1), dtype=bool))


def test_batch_rejects_non_finite_features():
    with pytest.raises(NumericalFailure):
        Batch(features=[[1.0, np.nan]], Y=[[True]])
    with pytest.raises(NumericalFailure):
        Batch(features=[[np.inf, 0.0]], Y=[[True]])


def test_batch_rejects_label_rows_that_are_not_multi_hot():
    # label sets in place of rows, a row with no label, a class id per column
    # that does not match the column count
    with pytest.raises(ShapeError):
        Batch(features=np.ones((2, 2)), Y=(frozenset({0}), frozenset({1})))
    with pytest.raises(ParameterError):
        Batch(features=np.ones((2, 2)), Y=[[True, False], [False, False]])
    with pytest.raises(ShapeError):
        Batch(features=np.ones((2, 2)), Y=np.eye(2, dtype=bool), classes=(0, 1, 2))


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
    assert label_ids(Y, classes) == [sorted(label_set(ls)) for ls in labels]
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


@pytest.mark.parametrize(
    "cls", [RunConfig, SynthConfig, AugmentConfig, MetricParams, LossParams], ids=lambda c: c.__name__
)
def test_config_fields_of_the_wrong_type_are_rejected_by_name(cls):
    # A string for an int field, a bool for any other, and None where the
    # default is not None. A class whose __post_init__ skips check_fields
    # lets some of these through, or fails on them with a TypeError.
    for f in dataclasses.fields(cls):
        bads = ["1" if type(f.default) is int else True] + ([None] if f.default is not None else [])
        for bad in bads:
            with pytest.raises(ParameterError, match=rf"^{f.name} must be .*, got {re.escape(repr(bad))}$"):
                cls(**{f.name: bad})


TINY = math.nextafter(0.0, 1.0)  # the smallest positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)

# Every bound on a config field: (class, field, accepted edge values, the
# first values past them). Floats step by one ulp, ints by one.
BOUNDS = [
    (MetricParams, "gamma", [0.0], [-TINY]),
    (MetricParams, "tau", [TINY], [0.0]),
    (MetricParams, "alpha_min", [TINY], [0.0]),
    *[(LossParams, name, [TINY], [0.0]) for name in ("phi", "ms_alpha", "ms_beta", "pa_alpha")],
    *[
        (LossParams, name, [0.0], [-TINY])
        for name in ("margin_delta", "margin_xi", "margin_omega", "ms_eps", "pa_delta")
    ],
    *[
        (AugmentConfig, name, [0.0, 1.0], [-TINY, ABOVE_ONE])
        for name in ("mix_fraction", "blur_prob", "occl_prob", "occl_fraction")
    ],
    (AugmentConfig, "mix_lambda_dist", [TINY], [0.0]),
    (AugmentConfig, "lowres_factor", [1], [0]),
    (AugmentConfig, "noise_sigma", [0.0], [-TINY]),
    (SynthConfig, "n_classes", [4], [3]),
    (SynthConfig, "per_class", [1], [0]),
    (SynthConfig, "input_dim", [1], [0]),
    (SynthConfig, "class_sep", [TINY], [0.0]),
    (SynthConfig, "within_sigma", [TINY], [0.0]),
    (SynthConfig, "ambiguous_frac", [0.0, 1.0], [-TINY, ABOVE_ONE]),
    (SynthConfig, "mislabel_frac", [0.0, 1.0], [-TINY, ABOVE_ONE]),
    (SynthConfig, "seed", [0], [-1]),
    (RunConfig, "loss", list(LOSS_NAMES), ["wat", ""]),
    (RunConfig, "metric", list(METRIC_NAMES), ["wat"]),
    (RunConfig, "test_metric", list(METRIC_NAMES), ["wat"]),
    (RunConfig, "optimizer", ["adamw", "sgd"], ["adam"]),
    (RunConfig, "uncertainty_mode", ["train", "frozen_zero"], ["frozen"]),
    (RunConfig, "hidden", [[1], (1, 1)], [[0], [], (4, -1)]),
    (RunConfig, "semantic_dim", [1], [0]),
    (RunConfig, "uncertainty_dim", [1], [0]),
    (RunConfig, "lr", [TINY], [0.0]),
    (RunConfig, "weight_decay", [0.0], [-TINY]),
    (RunConfig, "proxy_lr_scale", [TINY], [0.0]),
    (RunConfig, "uncert_lr_scale", [TINY], [0.0]),
    (RunConfig, "batch_size", [4], [3]),
    (RunConfig, "epochs", [1], [0]),
    (RunConfig, "seed", [0], [-1]),
]


@pytest.mark.parametrize(
    "cls, name, edges, pasts", BOUNDS, ids=[f"{c.__name__}.{n}" for c, n, _, _ in BOUNDS]
)
def test_every_config_bound_accepts_its_edge_and_names_the_field_past_it(cls, name, edges, pasts):
    for v in edges:
        cls(**{name: v})
    for v in pasts:
        # the one form, led by "unknown <field>: " for a name off its list
        lead = f"unknown {name}: " if isinstance(v, str) else ""
        with pytest.raises(ParameterError, match=rf"^{lead}{name} must be .+, got {re.escape(repr(v))}$"):
            cls(**{name: v})


def test_batch_default_mixed_flags_are_false():
    b = Batch(features=np.ones((3, 2)), Y=np.ones((3, 1), dtype=bool))
    assert b.is_mixed.dtype == bool
    assert not b.is_mixed.any()


def test_batch_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        Batch(features=np.ones((3, 2)), Y=np.ones((2, 1), dtype=bool))


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


def test_rng_seed_is_a_u64():
    # Philox takes its key as u64 words: a seed past 2**64 - 1 is a parameter
    # error, not an OverflowError from numpy.
    assert Rng(2**64 - 1, 3).normal(size=4).shape == (4,)
    for bad in (-1, 2**64, 2**70):
        with pytest.raises(ParameterError, match=r"seed must be in \[0, 2\*\*64\)"):
            Rng(bad)


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


def test_rng_integers_batch_equals_successive_draws():
    # k-means++ seeding draws a restart's uniform-integer seeds in one call;
    # ranges below 2**32 take 32-bit halves of Philox's words, so odd counts
    # leave a half buffered for the next draw, which must match too
    for hi in (1, 2, 7, 3000, 2**40):
        for m in (0, 1, 7, 1000):
            one = Rng(seed=17, stream=2)
            batch = one.integers(3, 3 + hi, size=m)
            fresh = Rng(seed=17, stream=2)
            assert np.array_equal(batch, [fresh.integers(3, 3 + hi) for _ in range(m)])
            assert one.integers(0, hi + 1) == fresh.integers(0, hi + 1)
            assert one.random() == fresh.random()


def test_rng_integers_and_random_batches_interleave_as_single_draws():
    # k-means++ seeding draws each restart as integers, random(m), then
    # integers(size=t): a 64-bit double never consumes the buffered 32-bit
    # half an integer draw left, in batches exactly as in single draws
    for m, t in ((0, 0), (1, 0), (4, 3), (5, 1), (0, 2)):
        one, fresh = Rng(seed=23, stream=6), Rng(seed=23, stream=6)
        for _ in range(5):
            assert one.integers(0, 250) == fresh.integers(0, 250)
            assert np.array_equal(one.random(m), [fresh.random() for _ in range(m)])
            assert np.array_equal(one.integers(0, 250, size=t), [fresh.integers(0, 250) for _ in range(t)])
        assert one.integers(0, 250) == fresh.integers(0, 250)
        assert one.random() == fresh.random()


def test_choice_pick_is_the_count_of_cdf_entries_at_or_below_the_uniform():
    # the replica of Generator.choice(n, p=p) that k-means++ seeding and
    # distance-weighted sampling use: one uniform, and the CDF built as
    # choice builds it, with zero weights never picked
    r = np.random.default_rng(4)
    one, fresh = Rng(seed=29, stream=1), Rng(seed=29, stream=1)
    for trial in range(300):
        n = int(r.integers(1, 60))
        w = r.exponential(size=n)
        if trial % 2:
            w[r.random(n) < 0.4] = 0.0
        w[r.integers(0, n)] += 1e-3
        p = w / w.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        pick = int((cdf <= one.random()).sum())
        assert pick == fresh.choice(n, p=p)
        assert p[pick] > 0.0
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
