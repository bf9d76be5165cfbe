"""Encoder, optimizers, checkpoints, and the gradient checker itself."""

import struct

import numpy as np
import pytest

from idml.core import Batch, FormatError, NumericalFailure, Rng, ShapeError
from idml.losses import LOSS_NAMES, PROXY_LOSSES
from idml.metric import METRIC_NAMES
from idml.model import (
    AdamW,
    EncoderModel,
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


def small_model(seed=0, input_dim=3, hidden=(6,), s=2, u=2, proxy_classes=()):
    return init_model(
        input_dim, hidden=hidden, semantic_dim=s, uncertainty_dim=u, rng=Rng(seed),
        proxy_classes=proxy_classes,
    )


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
    np.testing.assert_array_equal(a.theta, b.theta)
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


def test_init_model_draws_proxies_after_the_model():
    m = small_model(5, proxy_classes=(0, 1, 2))
    rng = Rng(5)
    plain = init_model(3, hidden=(6,), semantic_dim=2, uncertainty_dim=2, rng=rng)
    drawn = init_proxies((0, 1, 2), 2, 2, rng)
    np.testing.assert_array_equal(m.theta[: plain.theta.size], plain.theta)
    np.testing.assert_array_equal(m.proxies.semantic, drawn.semantic)
    np.testing.assert_array_equal(m.proxies.uncertainty, drawn.uncertainty)
    assert m.proxies.classes == (0, 1, 2)


def test_parameters_are_views_into_theta():
    m = small_model(1, hidden=(5, 4), proxy_classes=(3, 7))
    assert list(m.slices) == [
        "trunk.0.W", "trunk.0.b", "trunk.1.W", "trunk.1.b",
        "head_s.W", "head_s.b", "head_u.W", "head_u.b",
        "proxy.semantic", "proxy.uncertainty",
    ]
    assert m.slices["proxy.uncertainty"].stop == m.theta.size
    arrays = m.trunk_w + m.trunk_b + [m.head_s_w, m.head_s_b, m.head_u_w, m.head_u_b]
    for a in arrays + [m.proxies.semantic, m.proxies.uncertainty]:
        assert np.shares_memory(a, m.theta)
    m.theta[m.slices["head_u.b"]] = 2.5
    assert np.all(m.head_u_b == 2.5)
    with pytest.raises(ShapeError):
        EncoderModel(m.dims, m.theta[:-1], (3, 7))


# ---------------------------------------------------------------------------
# Loss-and-gradient plumbing
# ---------------------------------------------------------------------------


def test_loss_and_grad_covers_every_parameter():
    m = small_model()
    batch = small_batch()
    res, grad = loss_and_grad(m, batch, "contrastive", metric="ism")
    assert grad.shape == m.theta.shape
    assert np.array_equal(res.uncertainty, forward(m, batch.features)[1])
    assert np.all(np.isfinite(grad))
    for name, sl in m.slices.items():
        assert np.any(grad[sl]), name
    assert np.isfinite(res.value)


def test_loss_and_grad_includes_proxy_gradients():
    m = small_model(proxy_classes=(0, 1))
    res, grad = loss_and_grad(m, small_batch(), "proxy_anchor", metric="ism")
    np.testing.assert_array_equal(grad[m.slices["proxy.semantic"]], res.d_proxy_semantic.ravel())
    np.testing.assert_array_equal(
        grad[m.slices["proxy.uncertainty"]], res.d_proxy_uncertainty.ravel()
    )


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
        _, grad = loss_and_grad(m, b, "contrastive", metric="ism")
        opt.step(m.theta, grad, [(slice(None), 1.0)])
    last, _ = loss_and_grad(m, b, "contrastive", metric="ism")
    assert last.value < first.value


def test_two_runs_share_a_bitwise_trajectory():
    def run():
        m = small_model(4, hidden=(6,))
        opt = AdamW(lr=0.005)
        vals = []
        for step in range(20):
            b = small_batch(seed=step)
            res, grad = loss_and_grad(m, b, "contrastive", metric="ism")
            opt.step(m.theta, grad, [(slice(None), 1.0)])
            vals.append(res.value)
        return vals

    assert run() == run()


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


ALL = [(slice(None), 1.0)]


def test_adamw_single_step_matches_hand_trace():
    p = np.array([1.0])
    opt = AdamW(lr=0.1, weight_decay=0.1)
    opt.step(p, np.array([0.5]), ALL)
    # decay first, then the bias-corrected moment update
    expect = 1.0 * (1 - 0.1 * 0.1)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    step_size = 0.1 * np.sqrt(1 - 0.999) / (1 - 0.9)
    expect -= step_size * m / (np.sqrt(v) + 1e-8)
    assert p[0] == pytest.approx(expect, rel=1e-15)


# Three spans of one 6-vector: base rate, a 10x group and a frozen group.
SPANS = [(slice(0, 2), 1.0), (slice(2, 4), 10.0), (slice(4, 6), 0.0)]
START = np.array([0.3, -0.7, 1.5, 0.2, -0.4, 0.9])


def test_adamw_multi_step_matches_reference_loop():
    p = START.copy()
    opt = AdamW(lr=0.05, weight_decay=0.01)
    ref = START.copy()
    m = np.zeros(6)
    v = np.zeros(6)
    r = np.random.default_rng(0)
    for t in range(1, 11):
        g = r.normal(size=6)
        opt.step(p, g.copy(), SPANS)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        for sl, scale in SPANS:
            lr = 0.05 * scale
            ref[sl] *= 1 - lr * 0.01
            step_size = lr * np.sqrt(1 - 0.999**t) / (1 - 0.9**t)
            ref[sl] -= step_size * m[sl] / (np.sqrt(v[sl]) + 1e-8)
    np.testing.assert_allclose(p, ref, rtol=1e-14)
    assert p[4:].tobytes() == START[4:].tobytes()  # scale 0: bit for bit unchanged


def test_sgd_momentum_matches_reference_loop():
    p = START.copy()
    opt = SgdMomentum(lr=0.1, momentum=0.9, weight_decay=0.01)
    ref, vel = START.copy(), np.zeros(6)
    for g in (1.0, 1.0, -0.5):
        opt.step(p, np.full(6, g), SPANS)
        for sl, scale in SPANS:
            lr = 0.1 * scale
            vel[sl] = 0.9 * vel[sl] - lr * g
            ref[sl] *= 1 - lr * 0.01
            ref[sl] += vel[sl]
    np.testing.assert_allclose(p, ref, rtol=1e-15)
    assert p[4:].tobytes() == START[4:].tobytes()


def test_zero_gradient_moves_nothing_without_decay():
    p = np.array([2.0])
    AdamW(lr=0.1).step(p, np.array([0.0]), ALL)
    assert p[0] == 2.0
    SgdMomentum(lr=0.1).step(p, np.array([0.0]), ALL)
    assert p[0] == 2.0


def test_weight_decay_shrinks_even_at_zero_gradient():
    p = np.array([2.0])
    AdamW(lr=0.1, weight_decay=0.5).step(p, np.array([0.0]), ALL)
    assert p[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-15)


def test_lr_scale_applies_per_parameter():
    p = np.array([1.0, 1.0])
    SgdMomentum(lr=0.1, momentum=0.0).step(p, np.ones(2), [(slice(0, 1), 1.0), (slice(1, 2), 10.0)])
    assert p[0] == pytest.approx(0.9)
    assert p[1] == pytest.approx(0.0, abs=1e-15)


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
    m2 = load_checkpoint(path)
    assert m2.proxies is None
    assert m2.dims == m.dims
    np.testing.assert_array_equal(m.theta, m2.theta)
    x = np.random.default_rng(0).normal(size=(3, 3))
    np.testing.assert_array_equal(forward(m, x)[0], forward(m2, x)[0])


def test_checkpoint_round_trip_with_proxies(tmp_path):
    m = small_model(2, proxy_classes=(0, 1, 5))
    path = tmp_path / "model.bin"
    save_checkpoint(path, m)
    m2 = load_checkpoint(path)
    assert m2.proxies.classes == (0, 1, 5)
    np.testing.assert_array_equal(m.theta, m2.theta)
    np.testing.assert_array_equal(m.proxies.semantic, m2.proxies.semantic)
    np.testing.assert_array_equal(m.proxies.uncertainty, m2.proxies.uncertainty)


def test_checkpoint_loaded_arrays_are_writable(tmp_path):
    m = small_model(1)
    save_checkpoint(tmp_path / "m.bin", m)
    m2 = load_checkpoint(tmp_path / "m.bin")
    m2.head_s_w += 1.0  # must not raise
    assert np.shares_memory(m2.head_s_w, m2.theta)


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
    m = small_model(2, proxy_classes=(0, 1, 5))
    p = tmp_path / "m.bin"
    save_checkpoint(p, m)
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
    classes = (0, 1, 2, 3) if loss in PROXY_LOSSES else ()
    m = init_model(6, hidden=(8,), semantic_dim=5, uncertainty_dim=4, rng=Rng(21), proxy_classes=classes)
    if classes:
        drawn = init_proxies(classes, 5, 4, Rng(22))
        m.proxies.semantic[:] = drawn.semantic
        m.proxies.uncertainty[:] = drawn.uncertainty
    rep = finite_difference_check(
        m,
        lambda r: Batch(features=r.normal(size=(8, 6)), labels=labels),
        loss,
        metric=metric,
        rng=Rng(23),
    )
    assert rep.passed, f"max_rel_err={rep.max_rel_err} at {rep.worst_param}"
    assert rep.max_rel_err < 1e-4


def test_finite_difference_check_covers_proxies():
    m = small_model(6, hidden=(5,), proxy_classes=(0, 1))
    rep = finite_difference_check(m, batch_fn(), "proxy_anchor", metric="ism", rng=Rng(1))
    assert rep.passed
    # 3x5 + 5 trunk, 5x2 + 2 per head, 2x2 per proxy block
    assert rep.n_params == m.theta.size == 20 + 2 * 12 + 2 * 4


def test_finite_difference_check_detects_corruption():
    """Sanity check of the checker itself: a poisoned gradient must fail."""
    m = small_model(7, hidden=(5,))
    _, grad = loss_and_grad(
        m, batch_fn()(Rng(3)), "contrastive", metric="ism", rng=Rng(3)
    )
    bad = grad.copy()
    bad[m.slices["head_s.W"]] += 0.05
    rep = finite_difference_check(
        m, batch_fn(), "contrastive", metric="ism", rng=Rng(3), grads_override=bad
    )
    assert not rep.passed
    assert rep.worst_param.startswith("head_s.W[")


def test_h_factor_identity_holds():
    rep = h_factor_check(Rng(0), n_pairs=400)
    assert rep.passed
    assert rep.h_at_zero == 1.0
    assert rep.max_h <= 1.0
    assert rep.max_rel_err < 1e-6
