"""Encoder, optimizers, checkpoints, and the gradient checker itself."""

import struct

import numpy as np
import pytest

from idml.core import Batch, FormatError, NumericalFailure, Rng, ShapeError
from idml.losses import LOSS_NAMES, PROXY_LOSSES
from idml.metric import METRIC_NAMES
from idml.model import (
    AdamW,
    SgdMomentum,
    finite_difference_check,
    forward,
    h_factor_check,
    init_model,
    init_proxies,
    load_checkpoint,
    loss_and_grad,
    make_optimizer,
    save_checkpoint,
)


def small_model(seed=0, input_dim=3, hidden=(6,), s=2, u=2):
    return init_model(input_dim, hidden=hidden, semantic_dim=s, uncertainty_dim=u, rng=Rng(seed))


def small_batch(seed=0, n=8, dim=3, n_classes=2):
    r = np.random.default_rng(seed)
    return Batch(
        features=r.normal(size=(n, dim)),
        labels=tuple(frozenset({int(c)}) for c in r.integers(0, n_classes, size=n)),
    )


def batch_fn(n=8, dim=3, n_classes=2):
    def make(rng):
        feats = rng.normal(size=(n, dim))
        labels = tuple(frozenset({int(c)}) for c in rng.integers(0, n_classes, size=n))
        return Batch(features=feats, labels=labels)

    return make


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def test_forward_shapes():
    m = small_model()
    S, U = forward(m, np.ones((5, 3)))
    assert S.shape == (5, 2)
    assert U.shape == (5, 2)


def test_forward_single_sample_pair():
    m = small_model()
    S1, U1 = forward(m, np.ones((1, 3)))
    assert S1.shape == (1, 2) and U1.shape == (1, 2)
    S, U = forward(m, np.vstack([np.ones(3), np.zeros(3)]))
    # a one-row batch and a wider one may take different BLAS kernels
    np.testing.assert_allclose(S1[0], S[0], rtol=1e-12)
    np.testing.assert_allclose(U1[0], U[0], rtol=1e-12)


def test_forward_rejects_wrong_input_dim():
    with pytest.raises(ShapeError):
        forward(small_model(), np.ones((2, 7)))


def test_forward_without_trunk_is_affine():
    m = init_model(4, hidden=(), semantic_dim=2, uncertainty_dim=3, rng=Rng(1))
    x = np.array([[1.0, 2.0, -1.0, 0.5], [0.0, 0.0, 0.0, 0.0]])
    S, U = forward(m, x)
    np.testing.assert_array_equal(S, x @ m.head_s_w + m.head_s_b)
    np.testing.assert_array_equal(U, x @ m.head_u_w + m.head_u_b)


def test_forward_single_tanh_layer_matches_hand_chain():
    m = init_model(3, hidden=(5,), semantic_dim=2, uncertainty_dim=2, rng=Rng(2))
    x = np.random.default_rng(0).normal(size=(4, 3))
    h = np.tanh(x @ m.trunk_w[0] + m.trunk_b[0])
    S, U = forward(m, x)
    np.testing.assert_array_equal(S, h @ m.head_s_w + m.head_s_b)
    np.testing.assert_array_equal(U, h @ m.head_u_w + m.head_u_b)


def test_forward_deterministic():
    m = small_model(3)
    x = np.random.default_rng(1).normal(size=(6, 3))
    np.testing.assert_array_equal(forward(m, x)[0], forward(m, x)[0])


def test_init_model_deterministic_and_bias_free():
    a = small_model(7)
    b = small_model(7)
    for k, v in a.parameters().items():
        np.testing.assert_array_equal(v, b.parameters()[k])
    assert np.all(a.head_s_b == 0.0)
    assert np.all(a.head_u_b == 0.0)
    assert all(np.all(tb == 0.0) for tb in a.trunk_b)


def test_init_model_uncertainty_head_is_damped():
    # the uncertainty head starts an order of magnitude smaller than the
    # semantic head so early training is dominated by geometry
    m = init_model(16, hidden=(32,), semantic_dim=8, uncertainty_dim=8, rng=Rng(0))
    ratio = np.std(m.head_u_w) / np.std(m.head_s_w)
    assert 0.05 < ratio < 0.2


def test_init_proxies_shapes_and_scale():
    p = init_proxies((0, 1, 2), 4, 3, Rng(5))
    assert p.semantic.shape == (3, 4)
    assert p.uncertainty.shape == (3, 3)
    assert p.classes == (0, 1, 2)
    assert np.std(p.uncertainty) < np.std(p.semantic)


# ---------------------------------------------------------------------------
# Loss-and-gradient plumbing
# ---------------------------------------------------------------------------


def test_loss_and_grad_covers_every_parameter():
    m = small_model()
    batch = small_batch()
    res, grads = loss_and_grad(m, batch, "contrastive", metric="ism")
    assert set(grads.keys()) == set(m.parameters().keys())
    assert np.array_equal(res.uncertainty, forward(m, batch.features)[1])
    for k, g in grads.items():
        assert g.shape == m.parameters()[k].shape
        assert np.all(np.isfinite(g))
    assert np.isfinite(res.value)


def test_loss_and_grad_includes_proxy_gradients():
    m = small_model()
    prox = init_proxies((0, 1), 2, 2, Rng(3))
    _, grads = loss_and_grad(m, small_batch(), "proxy_anchor", metric="ism", proxies=prox)
    assert "proxy.semantic" in grads and "proxy.uncertainty" in grads
    assert grads["proxy.semantic"].shape == prox.semantic.shape


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loss_and_grad_flags_overflow():
    m = init_model(3, hidden=(), semantic_dim=2, uncertainty_dim=2, rng=Rng(1))
    feats = 1e200 * np.arange(1.0, 13.0).reshape(4, 3)
    b = Batch(features=feats, labels=tuple(frozenset({i % 2}) for i in range(4)))
    with pytest.raises(NumericalFailure):
        loss_and_grad(m, b, "contrastive", metric="euclidean")


def test_batch_rejects_nan_features():
    with pytest.raises(NumericalFailure):
        Batch(features=np.array([[np.nan, 0.0]]), labels=(frozenset({0}),))


def test_training_steps_decrease_loss():
    m = small_model(11, hidden=(8,))
    b = small_batch(11, n=12)
    opt = AdamW(lr=0.01)
    first, _ = loss_and_grad(m, b, "contrastive", metric="ism")
    for _ in range(30):
        _, grads = loss_and_grad(m, b, "contrastive", metric="ism")
        opt.step(m.parameters(), grads)
    last, _ = loss_and_grad(m, b, "contrastive", metric="ism")
    assert last.value < first.value


def test_two_runs_share_a_bitwise_trajectory():
    def run():
        m = small_model(4, hidden=(6,))
        opt = AdamW(lr=0.005)
        vals = []
        for step in range(20):
            b = small_batch(seed=step)
            res, grads = loss_and_grad(m, b, "contrastive", metric="ism")
            opt.step(m.parameters(), grads)
            vals.append(res.value)
        return vals

    assert run() == run()


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def test_adamw_single_step_matches_hand_trace():
    p = {"w": np.array([1.0])}
    g = {"w": np.array([0.5])}
    opt = AdamW(lr=0.1, weight_decay=0.1)
    opt.step(p, g)
    # decay first, then the bias-corrected moment update
    expect = 1.0 * (1 - 0.1 * 0.1)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    step_size = 0.1 * np.sqrt(1 - 0.999) / (1 - 0.9)
    expect -= step_size * m / (np.sqrt(v) + 1e-8)
    assert p["w"][0] == pytest.approx(expect, rel=1e-15)


def test_adamw_multi_step_matches_reference_loop():
    p = {"w": np.array([0.3, -0.7])}
    opt = AdamW(lr=0.05, weight_decay=0.01)
    ref = np.array([0.3, -0.7])
    m = np.zeros(2)
    v = np.zeros(2)
    r = np.random.default_rng(0)
    for t in range(1, 11):
        g = r.normal(size=2)
        opt.step(p, {"w": g.copy()})
        ref *= 1 - 0.05 * 0.01
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        step_size = 0.05 * np.sqrt(1 - 0.999**t) / (1 - 0.9**t)
        ref -= step_size * m / (np.sqrt(v) + 1e-8)
    np.testing.assert_allclose(p["w"], ref, rtol=1e-14)


def test_sgd_momentum_matches_reference_loop():
    p = {"w": np.array([1.0])}
    opt = SgdMomentum(lr=0.1, momentum=0.9)
    ref, vel = 1.0, 0.0
    for g in (1.0, 1.0, -0.5):
        opt.step(p, {"w": np.array([g])})
        vel = 0.9 * vel - 0.1 * g
        ref += vel
    assert p["w"][0] == pytest.approx(ref, rel=1e-15)


def test_zero_gradient_moves_nothing_without_decay():
    p = {"w": np.array([2.0])}
    AdamW(lr=0.1).step(p, {"w": np.array([0.0])})
    assert p["w"][0] == 2.0
    SgdMomentum(lr=0.1).step(p, {"w": np.array([0.0])})
    assert p["w"][0] == 2.0


def test_weight_decay_shrinks_even_at_zero_gradient():
    p = {"w": np.array([2.0])}
    AdamW(lr=0.1, weight_decay=0.5).step(p, {"w": np.array([0.0])})
    assert p["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-15)


def test_lr_scale_applies_per_parameter():
    p = {"a": np.array([1.0]), "b": np.array([1.0])}
    g = {"a": np.array([1.0]), "b": np.array([1.0])}
    SgdMomentum(lr=0.1, momentum=0.0).step(p, g, lr_scale={"b": 10.0})
    assert p["a"][0] == pytest.approx(0.9)
    assert p["b"][0] == pytest.approx(0.0, abs=1e-15)


def test_make_optimizer_names():
    assert isinstance(make_optimizer("adamw", 0.01), AdamW)
    assert isinstance(make_optimizer("sgd", 0.01), SgdMomentum)
    from idml.core import ParameterError

    with pytest.raises(ParameterError):
        make_optimizer("lbfgs", 0.01)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    m = small_model(9, hidden=(5, 4))
    path = tmp_path / "model.bin"
    save_checkpoint(path, m)
    m2, prox2 = load_checkpoint(path)
    assert prox2 is None
    for k, v in m.parameters().items():
        np.testing.assert_array_equal(v, m2.parameters()[k])
    x = np.random.default_rng(0).normal(size=(3, 3))
    np.testing.assert_array_equal(forward(m, x)[0], forward(m2, x)[0])


def test_checkpoint_round_trip_with_proxies(tmp_path):
    m = small_model(2)
    prox = init_proxies((0, 1, 5), 2, 2, Rng(1))
    path = tmp_path / "model.bin"
    save_checkpoint(path, m, proxies=prox)
    _, prox2 = load_checkpoint(path)
    assert prox2.classes == (0, 1, 5)
    np.testing.assert_array_equal(prox.semantic, prox2.semantic)
    np.testing.assert_array_equal(prox.uncertainty, prox2.uncertainty)


def test_checkpoint_loaded_arrays_are_writable(tmp_path):
    m = small_model(1)
    save_checkpoint(tmp_path / "m.bin", m)
    m2, _ = load_checkpoint(tmp_path / "m.bin")
    m2.head_s_w += 1.0  # must not raise


def test_checkpoint_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_checkpoint_truncation_rejected(tmp_path):
    m = small_model(2)
    p = tmp_path / "m.bin"
    save_checkpoint(p, m)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_checkpoint_truncated_header_rejected(tmp_path):
    p = tmp_path / "short.bin"
    p.write_bytes(b"IDML\x01\x00")
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)


@pytest.mark.parametrize("keep", [14, 34], ids=["layer-dims", "proxy-classes"])
def test_checkpoint_truncated_dims_or_classes_rejected(tmp_path, keep):
    # magic 4 + version and trunk count 8 + four layer dims 16 + proxy count 4:
    # byte 14 cuts the dims, byte 34 the proxy class ids
    m = small_model(2)
    p = tmp_path / "m.bin"
    save_checkpoint(p, m, proxies=init_proxies((0, 1, 5), 2, 2, Rng(1)))
    p.write_bytes(p.read_bytes()[:keep])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)


@pytest.mark.parametrize(
    "first_dims, n_params, message",
    [((0xFFFFFFFF, 0xFFFFFFFF), 52, "parameter bytes"), ((0, 6), 34, "zero layer dim")],
    ids=["huge-dims", "zero-dim"],
)
def test_checkpoint_bad_layer_dims_rejected(tmp_path, first_dims, n_params, message):
    # The dims start at byte 12 and the parameters at byte 32. small_model has
    # 52 parameters, and 34 once its input dim is 0, so the zero-dim file
    # holds exactly the bytes its dims ask for.
    p = tmp_path / "m.bin"
    save_checkpoint(p, small_model(2))
    raw = bytearray(p.read_bytes()[: 32 + 8 * n_params])
    raw[12:20] = struct.pack("<II", *first_dims)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=message):
        load_checkpoint(p)


def test_checkpoint_trailing_garbage_rejected(tmp_path):
    m = small_model(2)
    p = tmp_path / "m.bin"
    save_checkpoint(p, m)
    p.write_bytes(p.read_bytes() + b"\x01\x02\x03")
    with pytest.raises(FormatError):
        load_checkpoint(p)


# ---------------------------------------------------------------------------
# Gradient checker
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric", METRIC_NAMES)
@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_finite_difference_check_passes(loss, metric):
    # acceptance 3's batch, model and seeds, over every metric
    labels = tuple(frozenset({c}) for c in (0, 0, 1, 1, 2, 2, 3, 3))
    m = init_model(6, hidden=(8,), semantic_dim=5, uncertainty_dim=4, rng=Rng(21))
    proxies = init_proxies((0, 1, 2, 3), 5, 4, Rng(22)) if loss in PROXY_LOSSES else None
    rep = finite_difference_check(
        m,
        lambda r: Batch(features=r.normal(size=(8, 6)), labels=labels),
        loss,
        metric=metric,
        proxies=proxies,
        rng=Rng(23),
    )
    assert rep.passed, f"max_rel_err={rep.max_rel_err} at {rep.worst_param}"
    assert rep.max_rel_err < 1e-4


def test_finite_difference_check_covers_proxies():
    m = small_model(6, hidden=(5,))
    prox = init_proxies((0, 1), 2, 2, Rng(2))
    rep = finite_difference_check(m, batch_fn(), "proxy_anchor", metric="ism", proxies=prox, rng=Rng(1))
    assert rep.passed
    n_scalars = sum(v.size for v in m.parameters().values()) + prox.semantic.size + prox.uncertainty.size
    assert rep.n_params == n_scalars


def test_finite_difference_check_detects_corruption():
    """Sanity check of the checker itself: a poisoned gradient must fail."""
    m = small_model(7, hidden=(5,))
    _, grads = loss_and_grad(
        m, batch_fn()(Rng(3)), "contrastive", metric="ism", rng=Rng(3)
    )
    bad = {k: g.copy() for k, g in grads.items()}
    bad["head_s.W"] = bad["head_s.W"] + 0.05
    rep = finite_difference_check(
        m, batch_fn(), "contrastive", metric="ism", rng=Rng(3), grads_override=bad
    )
    assert not rep.passed


def test_h_factor_identity_holds():
    rep = h_factor_check(Rng(0), n_pairs=400)
    assert rep.passed
    assert rep.h_at_zero == 1.0
    assert rep.max_h <= 1.0
    assert rep.max_rel_err < 1e-6
