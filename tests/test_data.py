"""Synthetic generator, the class-disjoint split rule, and dataset file I/O."""

import struct

import numpy as np
import pytest

from idml.core import Batch, FormatError, NumericalFailure, ParameterError, ShapeError, label_ids
from idml.data import (
    Dataset,
    SynthConfig,
    generate,
    load_binary,
    load_csv,
    save_binary,
    save_csv,
    train_class_ids,
)


def label_sets(ds):
    """A dataset's labels as a tuple of class-id sets, one per row."""
    return tuple(frozenset(ids) for ids in label_ids(ds.Y, ds.classes))


def tiny_cfg(**kw):
    base = dict(n_classes=6, per_class=8, input_dim=5, seed=3)
    base.update(kw)
    return SynthConfig(**base)


# ---------------------------------------------------------------------------
# Config validation and the split rule
# ---------------------------------------------------------------------------


def test_config_rejects_too_few_classes():
    with pytest.raises(ParameterError):
        SynthConfig(n_classes=3)


def test_config_rejects_empty_classes():
    with pytest.raises(ParameterError):
        SynthConfig(per_class=0)


def test_config_rejects_bad_fractions():
    with pytest.raises(ParameterError):
        SynthConfig(ambiguous_frac=1.5)
    with pytest.raises(ParameterError):
        SynthConfig(mislabel_frac=-0.1)


def test_config_seed_is_a_u64():
    assert generate(SynthConfig(n_classes=4, per_class=2, seed=2**64 - 1)).features.shape == (8, 16)
    with pytest.raises(ParameterError, match=r"seed must be in \[0, 2\*\*64\)"):
        SynthConfig(seed=2**64)


def test_train_class_ids_takes_first_half_rounded_up():
    assert train_class_ids([0, 1, 2, 3]) == frozenset({0, 1})
    assert train_class_ids([4, 0, 2, 8, 6]) == frozenset({0, 2, 4})
    assert train_class_ids([10, 11, 12, 13, 14, 15]) == frozenset({10, 11, 12})


def test_split_is_class_disjoint():
    ds = generate(tiny_cfg())
    train_classes = {min(ls) for ls, t in zip(label_sets(ds), ds.is_train) if t}
    test_classes = {min(ls) for ls, t in zip(label_sets(ds), ds.is_train) if not t}
    assert not (train_classes & test_classes)
    assert train_classes | test_classes == set(range(6))


def test_split_reconstructed_without_stored_mask():
    # the rule is canonical, so a Dataset rebuilt from raw rows recovers it
    ds = generate(tiny_cfg())
    rebuilt = Dataset(features=ds.features.copy(), labels=label_sets(ds))
    np.testing.assert_array_equal(ds.is_train, rebuilt.is_train)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_generate_counts_and_shapes():
    ds = generate(tiny_cfg())
    assert ds.features.shape == (48, 5)
    assert len(label_sets(ds)) == 48
    for c in range(6):
        assert sum(1 for ls in label_sets(ds) if min(ls) == c) == 8


def test_generate_deterministic_in_seed():
    a = generate(tiny_cfg())
    b = generate(tiny_cfg())
    np.testing.assert_array_equal(a.features, b.features)
    assert label_sets(a) == label_sets(b)
    c = generate(tiny_cfg(seed=4))
    assert not np.array_equal(a.features, c.features)


def test_class_means_sit_on_an_orthogonal_frame():
    # with a tiny within-class spread the per-class means expose the frame:
    # every mean has norm class_sep and distinct means are sqrt(2)*sep apart
    cfg = tiny_cfg(n_classes=6, input_dim=8, within_sigma=1e-3, class_sep=4.0, per_class=20)
    ds = generate(cfg)
    means = np.stack(
        [ds.features[[min(ls) == c for ls in label_sets(ds)]].mean(axis=0) for c in range(6)]
    )
    np.testing.assert_allclose(np.linalg.norm(means, axis=1), 4.0, atol=1e-2)
    for i in range(6):
        for j in range(i + 1, 6):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(4.0 * np.sqrt(2), abs=0.01)


def test_generate_more_classes_than_dims_still_separates():
    cfg = tiny_cfg(n_classes=10, input_dim=3, within_sigma=1e-3, per_class=10)
    ds = generate(cfg)
    means = np.stack(
        [ds.features[[min(ls) == c for ls in label_sets(ds)]].mean(axis=0) for c in range(10)]
    )
    np.testing.assert_allclose(np.linalg.norm(means, axis=1), 4.0, atol=1e-2)
    # no two classes share a direction
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.linalg.norm(means[i] - means[j]) > 0.1


def test_ambiguous_samples_sit_at_pair_midpoints():
    cfg = tiny_cfg(
        n_classes=6, input_dim=8, within_sigma=1e-3, per_class=30, ambiguous_frac=0.3
    )
    ds = generate(cfg)
    norms = np.linalg.norm(ds.features, axis=1)
    sep = cfg.class_sep
    clean = np.abs(norms - sep) < 0.1
    mid = np.abs(norms - sep / np.sqrt(2)) < 0.1
    # every sample is either on a class mean or on a midpoint
    assert np.all(clean | mid)
    # ambiguity is intrinsic to the data, so both split sides carry it:
    # round(0.3 * 30) = 9 midpoint samples per class
    assert mid.sum() == 6 * 9
    assert mid[ds.is_train].any() and mid[~ds.is_train].any()
    # a midpoint sample carries one label from its generating pair, and the
    # partner class lives on the same side of the split
    frame = np.stack(
        [ds.features[clean & np.array([min(ls) == c for ls in label_sets(ds)])].mean(axis=0) for c in range(6)]
    )
    frame /= np.linalg.norm(frame, axis=1, keepdims=True)
    train_ids = train_class_ids(range(6))
    for x, ls, t in zip(
        ds.features[mid], np.array(label_sets(ds), dtype=object)[mid], ds.is_train[mid]
    ):
        proj = frame @ x / (sep / 2)
        close = set(np.flatnonzero(np.abs(proj - 1.0) < 0.1).tolist())
        assert len(close) == 2
        assert min(ls) in close
        assert all((c in train_ids) == t for c in close)


def test_mislabels_are_train_only():
    cfg = tiny_cfg(n_classes=6, input_dim=8, within_sigma=1e-3, per_class=20, mislabel_frac=0.2)
    ds = generate(cfg)
    # nearest-frame class of each row vs its recorded label
    frame = {}
    for c in range(6):
        rows = ds.features[[min(ls) == c for ls in label_sets(ds)]]
        frame[c] = np.median(rows, axis=0)  # robust to the mislabeled minority
    wrong = []
    for i, (x, ls) in enumerate(zip(ds.features, label_sets(ds))):
        best = min(frame, key=lambda c: np.linalg.norm(x - frame[c]))
        wrong.append(best != min(ls))
    wrong = np.array(wrong)
    assert not wrong[~ds.is_train].any()
    n_train = int(ds.is_train.sum())
    assert wrong[ds.is_train].sum() == pytest.approx(0.2 * n_train, abs=2.0)


def test_mislabel_keeps_per_class_multiplicity_valid():
    ds = generate(tiny_cfg(mislabel_frac=0.3))
    assert all(len(ls) == 1 for ls in label_sets(ds))
    assert {min(ls) for ls in label_sets(ds)} <= set(range(6))


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    ds = generate(tiny_cfg())
    p = tmp_path / "d.csv"
    save_csv(ds, p)
    back = load_csv(p)
    np.testing.assert_array_equal(ds.features, back.features)
    assert label_sets(ds) == label_sets(back)
    np.testing.assert_array_equal(ds.is_train, back.is_train)


def test_csv_header_and_multilabel_format(tmp_path):
    ds = Dataset(
        features=np.array([[0.5, -1.25], [3.0, 4.0]]),
        labels=(frozenset({2, 0}), frozenset({1})),
    )
    p = tmp_path / "d.csv"
    save_csv(ds, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "id,label,f0,f1"
    assert lines[1].startswith("0,0|2,")
    back = load_csv(p)
    assert label_sets(back) == (frozenset({0, 2}), frozenset({1}))


def test_csv_empty_file_rejected(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        load_csv(p)


def test_csv_bad_header_rejected(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("idx,label,f0\n0,1,0.5\n")
    with pytest.raises(FormatError):
        load_csv(p)
    p.write_text("id,label,f0,g1\n0,1,0.5,0.5\n")
    with pytest.raises(FormatError):
        load_csv(p)


def test_csv_error_reports_line_number(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("id,label,f0,f1\n0,1,0.5,0.5\n1,2,0.25\n")
    with pytest.raises(FormatError, match="line 3"):
        load_csv(p)
    p.write_text("id,label,f0,f1\n0,1,0.5,abc\n")
    with pytest.raises(FormatError, match="line 2"):
        load_csv(p)
    p.write_text("id,label,f0,f1\n0,x|1,0.5,0.5\n")
    with pytest.raises(FormatError, match="line 2"):
        load_csv(p)
    # a class id past u32 is named with its line, like any other bad cell
    p.write_text(f"id,label,f0\n0,{2**32 - 1},0.5\n1,1|{2**32},0.5\n")
    with pytest.raises(FormatError, match=r"line 3: .*below 2\*\*32"):
        load_csv(p)


def test_csv_blank_lines_ignored(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("id,label,f0\n0,1,0.5\n\n1,2,0.75\n")
    back = load_csv(p)
    assert back.features.shape == (2, 1)


# ---------------------------------------------------------------------------
# Binary I/O
# ---------------------------------------------------------------------------


def test_binary_round_trip_is_exact(tmp_path):
    ds = generate(tiny_cfg(ambiguous_frac=0.2))
    p = tmp_path / "d.bin"
    save_binary(ds, p)
    back = load_binary(p)
    np.testing.assert_array_equal(ds.features, back.features)
    assert label_sets(ds) == label_sets(back)
    np.testing.assert_array_equal(ds.is_train, back.is_train)


def test_binary_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_binary(p)


def test_binary_truncation_rejected(tmp_path):
    ds = generate(tiny_cfg())
    p = tmp_path / "t.bin"
    save_binary(ds, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        load_binary(p)


def test_binary_truncated_header_rejected(tmp_path):
    p = tmp_path / "short.bin"
    p.write_bytes(b"IDMD\x01\x00")
    with pytest.raises(FormatError, match="truncated"):
        load_binary(p)


def test_binary_truncated_label_block_rejected(tmp_path):
    ds = generate(tiny_cfg(n_classes=4, per_class=2))
    p = tmp_path / "t.bin"
    save_binary(ds, p)
    # header (16 bytes), the first row's count and id, then half a count
    p.write_bytes(p.read_bytes()[: 16 + 8 + 2])
    with pytest.raises(FormatError, match="truncated"):
        load_binary(p)


def write_binary_rows(path, label_ids, features):
    """A binary dataset written field by field, so a row may hold no label id."""
    n, d = features.shape
    with open(path, "wb") as f:
        f.write(b"IDMD" + struct.pack("<III", 1, n, d))
        for ids in label_ids:
            f.write(struct.pack(f"<I{len(ids)}I", len(ids), *ids))
        f.write(features.astype("<f8").tobytes())


def test_binary_zero_count_label_set_rejected(tmp_path):
    p = tmp_path / "empty_label.bin"
    write_binary_rows(p, [(0,), (), (1,), (2,)], np.zeros((4, 2)))
    with pytest.raises(FormatError, match=r"empty_label\.bin: row 1: label set must be nonempty"):
        load_binary(p)


def test_binary_zero_width_features_rejected(tmp_path):
    # like a CSV header without a feature column
    p = tmp_path / "no_features.bin"
    write_binary_rows(p, [(0,), (1,), (2,), (3,)], np.zeros((4, 0)))
    with pytest.raises(FormatError, match=r"no_features\.bin: no feature columns"):
        load_binary(p)


def test_dataset_validates_label_sets():
    with pytest.raises(ParameterError, match="nonempty"):
        Dataset(features=np.zeros((1, 2)), labels=(frozenset(),))
    with pytest.raises(ParameterError, match="nonnegative"):
        Dataset(features=np.zeros((1, 2)), labels=(frozenset({-1}),))
    # the dataset files and the checkpoint store class ids as u32
    with pytest.raises(ParameterError, match="below 2\\*\\*32"):
        Dataset(features=np.zeros((1, 2)), labels=(frozenset({2**32}),))
    assert Dataset(features=np.zeros((1, 2)), labels=(2**32 - 1,)).classes == (2**32 - 1,)
    ds = Dataset(features=np.zeros((2, 2)), labels=(3, [1, 1]))
    assert ds.classes == (1, 3)
    assert ds.Y.tolist() == [[False, True], [True, False]]
    assert label_sets(ds) == (frozenset({3}), frozenset({1}))


def test_dataset_rejects_zero_rows(tmp_path):
    with pytest.raises(ParameterError, match="at least one row"):
        Dataset(np.zeros((0, 4)), [])
    p = tmp_path / "empty.bin"
    write_binary_rows(p, [], np.zeros((0, 4)))
    with pytest.raises(FormatError, match="no data rows"):
        load_binary(p)


def test_dataset_rejects_a_label_count_unlike_the_row_count():
    # named in the caller's terms, before any label row is built
    with pytest.raises(ShapeError, match="^3 feature rows vs 2 label sets$"):
        Dataset(np.zeros((3, 2)), [0, 1])
    with pytest.raises(ShapeError, match="^2 feature rows vs 3 label sets$"):
        Dataset(np.zeros((2, 2)), [0, 1, 2])


@pytest.mark.parametrize("save", [save_csv, save_binary], ids=["csv", "binary"])
def test_non_finite_features_rejected_at_load(tmp_path, save):
    from idml.harness import load_dataset

    ds = generate(tiny_cfg())
    ds.features[np.flatnonzero(~ds.is_train)[0], 1] = np.nan  # a test-split row
    p = tmp_path / "bad.data"
    save(ds, p)
    with pytest.raises(NumericalFailure, match="non-finite"):
        load_dataset(p)
    with pytest.raises(NumericalFailure):
        Dataset(np.array([[0.0, np.inf]]), [0])
    # a side is checked again when it is taken
    ds.features[np.flatnonzero(ds.is_train)[0], 0] = np.nan
    with pytest.raises(NumericalFailure, match="non-finite"):
        ds.train_split()


def test_dataset_split_views_are_consistent():
    ds = generate(tiny_cfg(ambiguous_frac=0.1))
    assert isinstance(ds, Batch) and not ds.is_mixed.any()
    train, test = ds.train_split(), ds.test_split()
    for side, mask in ((train, ds.is_train), (test, ~ds.is_train)):
        assert isinstance(side, Batch)
        np.testing.assert_array_equal(side.features, ds.features[mask])
        np.testing.assert_array_equal(side.Y, ds.Y[mask])
        assert side.classes == ds.classes
        assert side.is_mixed.shape == (mask.sum(),) and not side.is_mixed.any()
    assert len(train) + len(test) == len(ds)
    # the two sides hold disjoint classes, over the dataset's columns
    assert not (train.Y.any(axis=0) & test.Y.any(axis=0)).any()
