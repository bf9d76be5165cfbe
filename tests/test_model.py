"""Encoder, optimizer, checkpoints, and the gradient checker itself."""

import os
import re
import struct
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

import idml
import idml.model as model_mod
import oracles
from idml.core import Batch, FormatError, NumericalFailure, ParameterError, Rng, ShapeError, multi_hot
from idml.losses import LOSS_NAMES, PROXY_LOSSES, evaluate_loss, loss_tables
from idml.metric import METRIC_NAMES
from idml.model import (
    ADAMW_BETA1,
    ADAMW_BETA2,
    ADAMW_BLOCK,
    ADAMW_EPS,
    AdamW,
    EncoderModel,
    THREAD_MIN_ENTRIES,
    finite_difference_check,
    forward,
    h_factor_check,
    init_model,
    init_proxies,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
)
from idml.model import _backward, _forward_cached


def small_model(seed=0, input_dim=3, hidden=(6,), s=2, u=2, proxy_classes=()):
    return init_model(
        input_dim, hidden=hidden, semantic_dim=s, uncertainty_dim=u, rng=Rng(seed),
        proxy_classes=proxy_classes,
    )


def small_batch(seed=0, n=8, dim=3, n_classes=2):
    r = np.random.default_rng(seed)
    return Batch(r.normal(size=(n, dim)), *multi_hot(r.integers(0, n_classes, size=n)))


def batch_fn(n=8, dim=3, n_classes=2):
    def make(rng):
        feats = rng.normal(size=(n, dim))
        return Batch(feats, *multi_hot(rng.integers(0, n_classes, size=n)))

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


# (rows, input dim, hidden, semantic dim, uncertainty dim): the wide
# benchmark's step, a one-layer trunk with unequal heads, the desk step, and
# no trunk at all
STEP_SHAPES = {
    "wide": (180, 64, (512, 512), 512, 512),
    "one_layer": (120, 64, (256,), 128, 64),
    "desk": (48, 16, (64, 64), 32, 32),
    "no_trunk": (48, 16, (), 32, 8),
}


def ref_layers(m):
    return list(zip(m.trunk_w, m.trunk_b)), (m.head_s_w, m.head_s_b), (m.head_u_w, m.head_u_b)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def threaded_pairs(monkeypatch):
    """Let `_run_pair` use its helper thread even where this process may use
    one CPU (a thread budget of 2); returns the list of (entries, thread names
    of its pieces) of each pair run, so a test can see which pairs crossed
    THREAD_MIN_ENTRIES."""
    monkeypatch.setenv("IDML_THREADS", "2")
    pairs, real = [], model_mod._run_pair

    def spy(first, second, entries):
        names = []

        def named(piece):
            def run():
                names.append(threading.current_thread().name)
                piece()

            return run

        real(named(first), named(second), entries)
        pairs.append((entries, sorted(names)))

    monkeypatch.setattr(model_mod, "_run_pair", spy)
    return pairs


ON_TWO_THREADS = ["MainThread", "idml-step"]
INLINE = ["MainThread", "MainThread"]


@pytest.mark.parametrize("shape", STEP_SHAPES.values(), ids=STEP_SHAPES)
def test_in_place_forward_and_backward_give_the_expression_bits(shape, threaded_pairs):
    n, d, hidden, s, u = shape
    r = np.random.default_rng(sum(hidden) + n)
    m = init_model(d, hidden=hidden, semantic_dim=s, uncertainty_dim=u, rng=Rng(5))
    X = r.normal(size=(n, d))
    S, U, hs = _forward_cached(m, X)
    S_ref, U_ref, hs_ref = oracles.encoder_forward_ref(*ref_layers(m), X)
    assert same_bits(S, S_ref) and same_bits(U, U_ref)
    assert len(hs) == len(hs_ref) and all(same_bits(a, b) for a, b in zip(hs, hs_ref))

    dS, dU = r.normal(size=S.shape), 0.1 * r.normal(size=U.shape)
    grad = np.zeros_like(m.theta)
    g = m.views(grad)
    _backward(m, hs, dS, dU, g)
    want = oracles.encoder_backward_ref(*ref_layers(m), hs_ref, dS, dU)
    assert sorted(want) == sorted(g)
    assert all(same_bits(g[name], want[name]) for name in want)
    # one pair for the heads forward, one for the heads backward, and one per
    # hidden layer above the first
    assert len(threaded_pairs) == 2 + max(len(hidden) - 1, 0)
    if shape == STEP_SHAPES["wide"]:
        # so a retune of THREAD_MIN_ENTRIES cannot route the wide step inline
        assert all(e >= THREAD_MIN_ENTRIES and names == ON_TWO_THREADS for e, names in threaded_pairs)
    if shape == STEP_SHAPES["desk"]:
        assert all(e < THREAD_MIN_ENTRIES and names == INLINE for e, names in threaded_pairs)


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


@pytest.mark.parametrize("loss", ["contrastive", "multi_similarity"])
def test_loss_and_grad_zeroes_the_proxy_span_of_a_loss_without_proxies(loss):
    # the gradient starts uninitialized; fill the heap with NaN first so that
    # an unwritten span would likely show
    m = small_model(proxy_classes=(0, 1))
    junk = np.full((8, m.theta.size), np.nan)
    del junk
    res, grad = loss_and_grad(m, small_batch(), loss, metric="ism")
    assert res.d_proxy_semantic is None
    for name in ("proxy.semantic", "proxy.uncertainty"):
        assert not grad[m.slices[name]].view(np.uint64).any()  # +0.0 in every entry
    _, plain = loss_and_grad(small_model(), small_batch(), loss, metric="ism")
    assert grad[: plain.size].tobytes() == plain.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loss_and_grad_flags_overflow():
    m = init_model(3, hidden=(), semantic_dim=2, uncertainty_dim=2, rng=Rng(1))
    feats = 1e200 * np.arange(1.0, 13.0).reshape(4, 3)
    b = Batch(feats, *multi_hot([i % 2 for i in range(4)]))
    with pytest.raises(NumericalFailure):
        loss_and_grad(m, b, "contrastive", metric="euclidean")


def test_batch_rejects_nan_features():
    with pytest.raises(NumericalFailure):
        Batch(features=np.array([[np.nan, 0.0]]), Y=[[True]])


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


@pytest.mark.parametrize("loss", ["margin_dw", "triplet_sh", "multi_similarity"])
def test_frozen_plan_is_evaluated_on_perturbed_embeddings(loss):
    # finite_difference_check's path: a plan built on S, then re-evaluated
    # after the parameters (so S) move, must give the moved loss
    m = small_model(2, hidden=(5,))
    batch = small_batch(seed=3, n=10, n_classes=3)
    res, _ = loss_and_grad(m, batch, loss, metric="ism", rng=Rng(4))
    m.theta[m.slices["head_s.W"]] += 0.05
    moved, _ = loss_and_grad(m, batch, loss, metric="ism", plan=res.plan)
    S, U = forward(m, batch.features)
    direct = evaluate_loss(loss_tables(loss, S, U, metric="ism"), res.plan)
    assert moved.plan is res.plan
    assert moved.value.hex() == direct.value.hex()
    assert moved.value != res.value


def test_loss_and_grad_keeps_the_planning_errors():
    m = small_model()
    batch = small_batch(n=4)  # two classes over four rows: some pair matches
    distinct = Batch(batch.features, *multi_hot(range(4)))
    cases = [
        (batch, "npair", dict(rng=Rng(0)), "unknown loss 'npair'"),
        (batch, "triplet_sh", dict(metric="wat"), "unknown metric 'wat'"),
        (batch, "margin_dw", {}, "margin_dw planning needs an rng for its negative sampling"),
        (distinct, "margin_dw", dict(rng=Rng(0)), "margin_dw needs at least one positive pair"),
    ]
    for b, loss, kw, message in cases:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            loss_and_grad(m, b, loss, **kw)
    # an empty batch never reaches the loss: Batch rejects it
    with pytest.raises(ShapeError, match="nonempty"):
        Batch(np.zeros((0, 3)), np.zeros((0, 1), dtype=bool))


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


def adamw_step_per_span(state, theta, grad, spans, lr, weight_decay):
    """AdamW as one numpy expression per span: the blocked step must equal it
    bit for bit."""
    if state["m"] is None:
        state["m"], state["v"] = np.zeros_like(theta), np.zeros_like(theta)
    state["t"] += 1
    for sl, scale in spans:
        g, m, v = grad[sl], state["m"][sl], state["v"][sl]
        lr_s = lr * scale
        if weight_decay:
            theta[sl] *= 1.0 - lr_s * weight_decay
        m *= ADAMW_BETA1
        m += (1.0 - ADAMW_BETA1) * g
        v *= ADAMW_BETA2
        v += (1.0 - ADAMW_BETA2) * g * g
        step_size = lr_s * np.sqrt(1.0 - ADAMW_BETA2 ** state["t"]) / (1.0 - ADAMW_BETA1 ** state["t"])
        theta[sl] -= step_size * m / (np.sqrt(v) + ADAMW_EPS)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adamw_blocked_step_is_bit_identical_to_one_expression_per_span(weight_decay):
    B = ADAMW_BLOCK
    # spans shorter than a block, exactly one block, several blocks and a
    # remainder, a frozen (scale 0) span, spans starting mid-block, and
    # neighbours with equal scales, which the step runs as one range
    sizes = [5, B, 3 * B + 7, 11, 40, B, 2 * B - 3, 9]
    scales = [1.0, 0.3, 1.0, 1.0, 0.0, 10.0, 10.0, 1.0]
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    spans = [(slice(a, b), s) for a, b, s in zip(bounds, bounds[1:], scales)]
    r = np.random.default_rng(5)
    start = r.normal(size=bounds[-1])
    theta, ref = start.copy(), start.copy()
    opt = AdamW(lr=1e-3, weight_decay=weight_decay)
    state = {"m": None, "v": None, "t": 0}
    for _ in range(30):
        g = r.normal(size=theta.size) * r.choice([1e-6, 1.0, 1e3], size=theta.size)
        opt.step(theta, g, spans)
        adamw_step_per_span(state, ref, g, spans, 1e-3, weight_decay)
    assert theta.tobytes() == ref.tobytes()
    assert opt.m.tobytes() == state["m"].tobytes()
    assert opt.v.tobytes() == state["v"].tobytes()
    frozen = slice(bounds[4], bounds[5])
    assert theta[frozen].tobytes() == start[frozen].tobytes()


def test_adamw_scratch_is_sized_to_theta():
    # a desk theta (at most 9,408 entries) is one block: its two buffer pairs
    # hold no more entries than theta
    theta = np.random.default_rng(2).normal(size=9408)
    opt = AdamW(lr=1e-3)
    opt.step(theta, np.ones_like(theta), [(slice(None), 1.0)])
    assert opt._buf.nbytes <= 4 * theta.nbytes


def test_adamw_halves_on_two_threads_match_the_single_thread_loop(threaded_pairs, monkeypatch):
    # theta well above 2 x THREAD_MIN_ENTRIES, so the helper takes the first
    # half of the block list; spans at lr scales 1, 0.3 and 0, one of them
    # straddling the halves' boundary
    B = ADAMW_BLOCK
    sizes = [3 * B + 5, 2 * B - 7, 4 * B + 11, B // 2, 3]
    scales = [1.0, 0.3, 1.0, 0.0, 0.3]
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    assert bounds[-1] >= 2 * THREAD_MIN_ENTRIES
    spans = [(slice(a, b), s) for a, b, s in zip(bounds, bounds[1:], scales)]
    r = np.random.default_rng(8)
    start = r.normal(size=bounds[-1])
    grads = [r.normal(size=start.size) * r.choice([1e-6, 1.0, 1e3], size=start.size) for _ in range(6)]
    runs = {}
    for mode in ("inline", "threaded"):
        monkeypatch.setenv("IDML_THREADS", "2" if mode == "threaded" else "1")
        theta, opt = start.copy(), AdamW(lr=1e-3, weight_decay=1e-2)
        for g in grads:
            opt.step(theta, g, spans)
        runs[mode] = (theta.tobytes(), opt.m.tobytes(), opt.v.tobytes())
    assert runs["inline"] == runs["threaded"]
    assert [names for _, names in threaded_pairs] == [INLINE] * 6 + [ON_TWO_THREADS] * 6
    frozen = slice(bounds[3], bounds[4])
    assert np.frombuffer(runs["threaded"][0])[frozen].tobytes() == start[frozen].tobytes()
    # and both equal one numpy expression per span
    ref, state = start.copy(), {"m": None, "v": None, "t": 0}
    for g in grads:
        adamw_step_per_span(state, ref, g, spans, 1e-3, 1e-2)
    assert runs["threaded"] == (ref.tobytes(), state["m"].tobytes(), state["v"].tobytes())


def test_run_pair_raises_the_helpers_error_under_the_callers_error_state(threaded_pairs):
    big = np.full(THREAD_MIN_ENTRIES, 1e300)
    out = np.empty_like(big)
    ran = []
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        model_mod._run_pair(lambda: np.multiply(big, big, out=out), lambda: ran.append(1), big.size)
    assert ran == [1]  # the caller's piece ran to its end first
    model_mod._run_pair(lambda: np.multiply(big, 0.5, out=out), lambda: None, big.size)
    assert np.all(out == 5e299) and threaded_pairs == [(big.size, ON_TWO_THREADS)]


def test_run_pair_raises_firsts_error_when_both_pieces_raise(threaded_pairs):
    # as inline, where `second` never runs; on two threads `second` runs to
    # its end first
    out = np.zeros(THREAD_MIN_ENTRIES)
    names = []

    def first():
        names.append(threading.current_thread().name)
        raise ValueError("first")

    def second():
        out.fill(1.0)
        names.append(threading.current_thread().name)
        raise KeyError("second")

    with pytest.raises(ValueError, match="first"):
        model_mod._run_pair(first, second, out.size)
    assert sorted(names) == ON_TWO_THREADS and np.all(out == 1.0)


def test_run_pair_serves_concurrent_callers_each_its_own_piece(threaded_pairs):
    # callers on several threads share the one helper; each must return only
    # after its own helper piece is done
    n_callers, rounds = 4, 40
    outs = np.zeros((n_callers, 2, THREAD_MIN_ENTRIES))
    wrong = []

    def caller(k):
        for r in range(rounds):
            v = float(1000 * k + r)
            model_mod._run_pair(partial(outs[k, 0].fill, v), partial(outs[k, 1].fill, -v), outs[k, 0].size)
            if not (np.all(outs[k, 0] == v) and np.all(outs[k, 1] == -v)):
                wrong.append((k, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(n_callers)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == [] and len(threaded_pairs) == n_callers * rounds
    assert all("idml-step" in names for _, names in threaded_pairs)


def wide_step(m=None):
    """One paper-width contrastive step (180 rows, 64 -> 512 -> 512, 512-d
    heads): loss_and_grad then AdamW; returns the model."""
    n, d, hidden, s, u = STEP_SHAPES["wide"]
    m = m or init_model(d, hidden=hidden, semantic_dim=s, uncertainty_dim=u, rng=Rng(5))
    r = np.random.default_rng(6)
    batch = Batch(r.normal(size=(n, d)), *multi_hot(r.integers(0, 20, size=n)))
    _, grad = loss_and_grad(m, batch, "contrastive", metric="ism")
    AdamW(lr=1e-3).step(m.theta, grad, [(slice(None), 1.0)])
    return m


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_a_wide_step_without_the_parents_helper(threaded_pairs):
    m = wide_step()  # starts this process's helper thread
    assert threaded_pairs and all(names == ON_TWO_THREADS for _, names in threaded_pairs)
    pid = os.fork()
    if pid == 0:  # the child: its own helper, or it would wait forever
        code = 1
        try:
            wide_step(m)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its step within 60 s")
    assert os.waitstatus_to_exitcode(status) == 0


_THREAD_COUNT = """
import os, sys, threading
import numpy as np
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {0})
from idml.core import Batch, Rng, multi_hot
from idml.harness import worker_count
from idml.model import AdamW, init_model, loss_and_grad
m = init_model(64, hidden=(512, 512), semantic_dim=512, uncertainty_dim=512, rng=Rng(5))
r = np.random.default_rng(6)
batch = Batch(r.normal(size=(180, 64)), *multi_hot(r.integers(0, 20, size=180)))
_, grad = loss_and_grad(m, batch, "contrastive", metric="ism")
AdamW(lr=1e-3).step(m.theta, grad, [(slice(None), 1.0)])
print(threading.active_count(), worker_count())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("case", ["pinned", "IDML_THREADS=1", "IDML_THREADS=01", "unpinned"])
def test_a_wide_step_starts_the_helper_only_with_two_cpus(case):
    # the thread budget (`core.worker_count`) is IDML_THREADS, read as an
    # integer, or else the CPUs this process may use; the helper needs 2
    cpus = len(os.sched_getaffinity(0))
    if case == "unpinned" and cpus < 2:
        pytest.skip("this process may use one CPU")
    env = {k: v for k, v in os.environ.items() if k != "IDML_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(idml.__file__))
    if case.startswith("IDML_THREADS="):
        env["IDML_THREADS"] = case.split("=")[1]
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_COUNT, case], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == (["2", str(cpus)] if case == "unpinned" else ["1", "1"])


# Imports idml before numpy, so the one-thread BLAS cap applies; prints the
# digests of a paper-width gradient and of a 180 x 512 self alpha table.
_WIDE_DIGESTS = """
import idml
import hashlib
import numpy as np
from idml.core import Batch, Rng, multi_hot
from idml.metric import pairwise_semantic_distance
from idml.model import init_model, loss_and_grad
m = init_model(64, hidden=(512, 512), semantic_dim=512, uncertainty_dim=512, rng=Rng(5))
r = np.random.default_rng(6)
batch = Batch(r.normal(size=(180, 64)), *multi_hot(r.integers(0, 20, size=180)))
_, grad = loss_and_grad(m, batch, "contrastive", metric="ism", rng=Rng(7))
alpha = pairwise_semantic_distance(r.normal(size=(180, 512)))
print(hashlib.sha256(grad.tobytes()).hexdigest(), hashlib.sha256(alpha.tobytes()).hexdigest())
"""


def test_idml_threads_leaves_paper_width_bits_unchanged():
    # IDML_THREADS is the thread budget, not a BLAS thread count: a wide
    # gradient and alpha table have the same bits under 1 and 2
    env = {k: v for k, v in os.environ.items() if "NUM_THREADS" not in k}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(idml.__file__))
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _WIDE_DIGESTS], capture_output=True, text=True,
            env=dict(env, IDML_THREADS=threads), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_zero_gradient_moves_nothing_without_decay():
    p = np.array([2.0])
    AdamW(lr=0.1).step(p, np.array([0.0]), ALL)
    assert p[0] == 2.0


def test_weight_decay_shrinks_even_at_zero_gradient():
    p = np.array([2.0])
    AdamW(lr=0.1, weight_decay=0.5).step(p, np.array([0.0]), ALL)
    assert p[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-15)


def test_lr_scale_applies_per_parameter():
    # AdamW's first step moves each entry by about its own lr: m_hat / sqrt(v_hat) = 1
    p = np.array([1.0, 1.0])
    AdamW(lr=0.1).step(p, np.ones(2), [(slice(0, 1), 1.0), (slice(1, 2), 10.0)])
    assert p[0] == pytest.approx(0.9, rel=1e-6)
    assert p[1] == pytest.approx(0.0, abs=1e-6)


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


def test_checkpoint_ends_with_theta_as_little_endian_float64(tmp_path):
    m = small_model(9, hidden=(5, 4), proxy_classes=(0, 3))
    strided = np.zeros(2 * m.theta.size)
    strided[::2] = m.theta
    for theta in (m.theta, strided[::2]):  # a contiguous and a strided vector
        path = tmp_path / "model.bin"
        save_checkpoint(path, EncoderModel(m.dims, theta, m.proxies.classes))
        raw = path.read_bytes()
        assert raw[-8 * m.theta.size :] == m.theta.astype("<f8").tobytes()
        assert len(raw) == 4 + 4 * (2 + len(m.dims) + 1 + 2) + 8 * m.theta.size


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
    Y, batch_classes = multi_hot((0, 0, 1, 1, 2, 2, 3, 3))
    classes = (0, 1, 2, 3) if loss in PROXY_LOSSES else ()
    m = init_model(6, hidden=(8,), semantic_dim=5, uncertainty_dim=4, rng=Rng(21), proxy_classes=classes)
    if classes:
        drawn = init_proxies(classes, 5, 4, Rng(22))
        m.proxies.semantic[:] = drawn.semantic
        m.proxies.uncertainty[:] = drawn.uncertainty
    rep = finite_difference_check(
        m,
        lambda r: Batch(r.normal(size=(8, 6)), Y, batch_classes),
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
