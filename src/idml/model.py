"""Two-headed encoder with hand-written reverse-mode gradients.

The network is a small tanh MLP trunk shared by two linear heads: one for
the semantic embedding s, one for the uncertainty embedding u (initialized
at 0.1x scale so training starts near-certain; u is a free vector, no
nonlinearity). tanh keeps every activation smooth, so central finite
differences agree with the analytic gradients to high precision — which the
gradient checker here exploits.

Every trainable scalar of a run, the proxies included, lives in one float64
vector `theta`; the named tensors ("trunk.0.W", "head_s.b",
"proxy.semantic", ...) are views into it, in the order `_layout` gives:
trunk layers, the two heads, proxies last. The optimizers, the checkpoint
and the gradient checker each handle `theta` whole.

Checkpoint layout (little-endian): magic "IDML", u32 version (1), u32 trunk
layer count, u32 dims [input, hidden..., semantic, uncertainty], u32 proxy
count (0 if none) followed by u32 class ids, then `theta` as one float64
block.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from idml.core import (
    Batch,
    FormatError,
    MetricParams,
    NumericalFailure,
    ParameterError,
    Rng,
    ShapeError,
    worker_count,
)
from idml.losses import (
    LossParams,
    LossResult,
    ProxySet,
    build_plan,
    compute_loss,
    evaluate_loss,
    loss_tables,
)
from idml.metric import gradient_weight

__all__ = [
    "EncoderModel",
    "init_model",
    "init_proxies",
    "forward",
    "loss_and_grad",
    "AdamW",
    "SgdMomentum",
    "make_optimizer",
    "save_checkpoint",
    "load_checkpoint",
    "GradCheckReport",
    "finite_difference_check",
]

CHECKPOINT_MAGIC = b"IDML"
CHECKPOINT_VERSION = 1

# Init scale of the uncertainty head and the proxies' uncertainty rows.
U_INIT_SCALE = 0.1
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8
# Entries AdamW updates per pass of its elementwise chain: two float64
# buffers of this length stay in cache, where a span-sized temporary did not.
ADAMW_BLOCK = 16384
# Float64 entries the helper thread's piece of `_run_pair` must write before
# the pair is split across two threads. A dispatch costs about 20 us (2-vCPU
# Xeon VM, one BLAS thread); a piece this size takes about 100 us or more in
# a step (AdamW: about 8 ns per entry; a product of inner dimension 64: about
# 3 ns per entry written, 512: about 20 ns). Traffic measured on each side:
# a desk-width step (hidden 64 or 64 x 64, 32-d heads) writes at most 7,328
# entries per pair (AdamW's first half; 9,408 with proxies), and the
# 1,000-row test-split forward of perfbench's `eval` workload writes 32,000,
# 768 under. Every pair of a `wide` (paper-width) step writes at least
# 92,160, the least being its 180-row head forward.
THREAD_MIN_ENTRIES = 32768


def _layout(dims, n_proxies: int) -> list:
    """(name, shape) of every trainable tensor, in `theta` and checkpoint order.

    `dims` is [input, hidden..., semantic, uncertainty]; the two proxy
    blocks follow the heads when there are proxies.
    """
    *layers, sdim, udim = dims
    out = []
    for i, (a, b) in enumerate(zip(layers, layers[1:])):
        out += [(f"trunk.{i}.W", (a, b)), (f"trunk.{i}.b", (b,))]
    out += [
        ("head_s.W", (layers[-1], sdim)),
        ("head_s.b", (sdim,)),
        ("head_u.W", (layers[-1], udim)),
        ("head_u.b", (udim,)),
    ]
    if n_proxies:
        out += [("proxy.semantic", (n_proxies, sdim)), ("proxy.uncertainty", (n_proxies, udim))]
    return out


class EncoderModel:
    """Trunk affine layers with tanh, plus linear semantic/uncertainty heads.

    `dims` is [input, hidden..., semantic, uncertainty]. Every trainable
    scalar, proxies included, lives in the float64 vector `theta`; the named
    tensors are views into it, and `slices` maps each name to its span of
    `theta`. `proxies` is None without proxy classes.
    """

    def __init__(self, dims, theta: np.ndarray, proxy_classes=()):
        self.dims = tuple(int(d) for d in dims)
        self._shapes = dict(_layout(self.dims, len(proxy_classes)))
        self.slices = {}
        off = 0
        for name, shape in self._shapes.items():
            self.slices[name] = slice(off, off + math.prod(shape))
            off += math.prod(shape)
        if theta.dtype != np.float64 or theta.shape != (off,):
            raise ShapeError(f"dims {self.dims} need a float64 theta of {off} values")
        self.theta = theta
        p = self.views(theta)
        n_trunk = len(self.dims) - 3
        self.trunk_w = [p[f"trunk.{i}.W"] for i in range(n_trunk)]
        self.trunk_b = [p[f"trunk.{i}.b"] for i in range(n_trunk)]
        self.head_s_w, self.head_s_b = p["head_s.W"], p["head_s.b"]
        self.head_u_w, self.head_u_b = p["head_u.W"], p["head_u.b"]
        self.proxies = None
        if len(proxy_classes):
            self.proxies = ProxySet(p["proxy.semantic"], p["proxy.uncertainty"], proxy_classes)

    def views(self, vec: np.ndarray) -> dict:
        """Name -> shaped view of `vec`, a vector laid out like `theta`."""
        return {name: vec[sl].reshape(self._shapes[name]) for name, sl in self.slices.items()}

    @property
    def input_dim(self) -> int:
        return self.dims[0]


def init_model(
    input_dim: int,
    hidden: tuple = (64, 64),
    semantic_dim: int = 32,
    uncertainty_dim: int = 32,
    rng: Rng = None,
    proxy_classes=(),
) -> EncoderModel:
    """Variance-scaled random init; the uncertainty head is scaled by U_INIT_SCALE.

    With proxy classes, `init_proxies` then draws one proxy per class from
    the same rng.
    """
    if rng is None:
        raise ParameterError("init_model needs an rng")
    dims = [int(input_dim)] + [int(h) for h in hidden] + [int(semantic_dim), int(uncertainty_dim)]
    if any(d < 1 for d in dims):
        raise ParameterError("all layer dims must be positive")
    n_params = sum(math.prod(shape) for _, shape in _layout(dims, len(proxy_classes)))
    model = EncoderModel(dims, np.zeros(n_params), proxy_classes)

    def glorot(w, scale=1.0):
        fan_in, fan_out = w.shape
        std = np.sqrt(2.0 / (fan_in + fan_out))
        w[...] = scale * std * rng.normal(size=w.shape)

    for w in model.trunk_w:
        glorot(w)
    glorot(model.head_s_w)
    glorot(model.head_u_w, scale=U_INIT_SCALE)
    if model.proxies is not None:
        drawn = init_proxies(proxy_classes, semantic_dim, uncertainty_dim, rng)
        model.proxies.semantic[...] = drawn.semantic
        model.proxies.uncertainty[...] = drawn.uncertainty
    return model


def init_proxies(
    classes,
    semantic_dim: int,
    uncertainty_dim: int,
    rng: Rng,
) -> ProxySet:
    """One random proxy per class; uncertainty rows small like the u head."""
    classes = tuple(int(c) for c in classes)
    k = len(classes)
    if k == 0:
        raise ParameterError("need at least one proxy class")
    return ProxySet(
        semantic=rng.normal(size=(k, semantic_dim)) / np.sqrt(semantic_dim),
        uncertainty=U_INIT_SCALE * rng.normal(size=(k, uncertainty_dim)) / np.sqrt(uncertainty_dim),
        classes=classes,
    )


# ---------------------------------------------------------------------------
# Two independent pieces of a step on two threads
# ---------------------------------------------------------------------------

# The helper thread's jobs and a semaphore that counts them, once started in
# this process, and the lock around its start; a forked child starts its
# own, because the parent's thread does not survive the fork.
_helper = None
_helper_start = threading.Lock()


def _forget_helper():
    global _helper, _helper_start
    _helper, _helper_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _serve(jobs, waiting):
    while True:
        waiting.acquire()
        piece, errstate, done, error = jobs.popleft()
        try:
            with np.errstate(**errstate):  # numpy's error state is per thread
                piece()
        except BaseException as exc:  # handed to the waiting caller
            error.append(exc)
        del piece, error  # they hold the step's arrays until the next job otherwise
        done.release()


def _run_pair(first, second, entries: int):
    """Run `first()` and `second()`, two pieces of numpy work that write only
    into disjoint arrays the caller allocated and read nothing the other
    writes. With `entries` (what `first` writes) of at least
    THREAD_MIN_ENTRIES and a thread budget (`core.worker_count`, read only
    then) of at least 2, `first` runs on one lazily started helper thread
    while `second` runs here; otherwise both run here.
    Either way each float operation is the same numpy call on the same
    operands, under the caller's numpy error state, so the results are
    bit-identical and the same errors are raised. A piece must not call
    `_run_pair` itself.
    """
    global _helper
    if entries < THREAD_MIN_ENTRIES or worker_count() < 2:
        first()
        second()
        return
    with _helper_start:
        if _helper is None:
            _helper = (deque(), threading.Semaphore(0))
            threading.Thread(target=_serve, args=_helper, name="idml-step", daemon=True).start()
        jobs, waiting = _helper
    done, error = threading.Lock(), []
    done.acquire()
    jobs.append((first, np.geterr(), done, error))
    waiting.release()
    try:
        second()
    finally:
        done.acquire()  # the helper has finished `first`
    if error:
        raise error[0]


def _affine(x, w, b, out):
    np.matmul(x, w, out=out)
    out += b


def _forward_cached(model: EncoderModel, X: np.ndarray):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(f"expected (N, {model.input_dim}) inputs, got {X.shape}")
    # Each result is one array, the GEMM's output, finished in place; the
    # two heads run as one `_run_pair`.
    hs = [X]
    h = X
    for w, b in zip(model.trunk_w, model.trunk_b):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        hs.append(h)
    S = np.empty((len(h), model.head_s_w.shape[1]))
    U = np.empty((len(h), model.head_u_w.shape[1]))
    _run_pair(
        partial(_affine, h, model.head_s_w, model.head_s_b, S),
        partial(_affine, h, model.head_u_w, model.head_u_b, U),
        S.size,
    )
    return S, U, hs


def forward(model: EncoderModel, X):
    """Encode a feature batch (N, D) into semantic and uncertainty rows."""
    S, U, _ = _forward_cached(model, X)
    return S, U


def _layer_grads(x, d, g_w, g_b, w=None, dx=None):
    """Weight and bias gradients of the affine layer x @ w + b, given its
    output gradient d, written into g_w and g_b; with w, also d @ w^T into dx."""
    np.matmul(x.T, d, out=g_w)
    d.sum(axis=0, out=g_b)
    if w is not None:
        np.matmul(d, w.T, out=dx)


def _backward(model: EncoderModel, hs, dS, dU, g: dict):
    """Write parameter gradients into the views `g` given embedding gradients;
    hs are cached activations. dh and dz are each one array, written in
    place, with the float operations of dS Ws^T + dU Wu^T and
    dh * (1 - h^2). The two head sides run as one `_run_pair`, and so do
    each hidden layer's weight gradient and its dh."""
    h_last = hs[-1]
    dh, dh_u = np.empty(h_last.shape), np.empty(h_last.shape)
    _run_pair(
        partial(_layer_grads, h_last, dS, g["head_s.W"], g["head_s.b"], model.head_s_w, dh),
        partial(_layer_grads, h_last, dU, g["head_u.W"], g["head_u.b"], model.head_u_w, dh_u),
        g["head_s.W"].size + dh.size,
    )
    dh += dh_u
    del dh_u
    for i in range(len(model.trunk_w) - 1, -1, -1):
        dz = np.square(hs[i + 1])  # tanh'
        np.subtract(1.0, dz, out=dz)
        dz *= dh
        weight = partial(_layer_grads, hs[i], dz, g[f"trunk.{i}.W"], g[f"trunk.{i}.b"])
        if not i:  # nothing reads the input layer's dh
            weight()
            break
        dh = np.empty(hs[i].shape)
        w = model.trunk_w[i]
        _run_pair(weight, partial(np.matmul, dz, w.T, out=dh), w.size)


def loss_and_grad(
    model: EncoderModel,
    batch: Batch,
    loss: str,
    metric: str = "ism",
    mp: MetricParams = None,
    lp: LossParams = None,
    rng: Rng = None,
    plan=None,
):
    """Loss value plus exact gradients for every parameter in `model.theta`.

    Returns (LossResult, grad), with grad laid out like `model.theta`; the
    proxies are `model.proxies`. The loss tables are built once per call,
    from this call's embeddings, and read by both the plan and the loss. A
    fresh plan is built unless one is passed in (the gradient checker
    passes the same plan repeatedly); a passed plan is evaluated on this
    call's tables.
    """
    S, U, hs = _forward_cached(model, batch.features)
    t = loss_tables(loss, S, U, metric=metric, mp=mp, proxies=model.proxies)
    if plan is None:
        plan = build_plan(t, batch.Y, batch.classes, lp=lp, rng=rng)
    res = evaluate_loss(t, plan, lp)
    res.uncertainty = U
    if not np.isfinite(res.value):
        worst = int(np.argmax(~np.isfinite(np.atleast_1d(res.pair_terms))))
        raise NumericalFailure(f"non-finite loss value {res.value} (term {worst})")
    # _backward writes every model entry and the proxy block is copied, or
    # zeroed for a loss that reads no proxies, so nothing is left unwritten.
    grad = np.empty_like(model.theta)
    g = model.views(grad)
    _backward(model, hs, res.d_semantic, res.d_uncertainty, g)
    if res.d_proxy_semantic is not None:
        g["proxy.semantic"][...] = res.d_proxy_semantic
        g["proxy.uncertainty"][...] = res.d_proxy_uncertainty
    elif model.proxies is not None:
        g["proxy.semantic"][...] = 0.0
        g["proxy.uncertainty"][...] = 0.0
    return res, grad


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class AdamW:
    """Adaptive moments with decoupled weight decay, on one parameter vector.

    Each step first shrinks the parameters by lr * weight_decay, then applies
    the bias-corrected moment update. `spans` is a list of (slice, lr scale)
    pairs that covers the vector: a group (proxies) runs at a multiple of
    the base rate, and a scale of 0 leaves its entries unchanged.
    """

    lr: float = 1e-3
    weight_decay: float = 0.0
    m: np.ndarray = None
    v: np.ndarray = None
    t: int = 0
    _buf: np.ndarray = field(default=None, repr=False)

    def step(self, theta: np.ndarray, grad: np.ndarray, spans):
        if self.m is None:
            self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
            self._buf = np.empty((2, 2, ADAMW_BLOCK))
        self.t += 1
        # Adjacent spans with one lr scale share every scalar below, so they
        # run as one range, cut into blocks of ADAMW_BLOCK entries. The block
        # list's two halves run as one `_run_pair`, each with its own buffer
        # pair.
        blocks = []
        for start, stop, scale in _scale_runs(spans, theta.size):
            lr = self.lr * scale
            decay = 1.0 - lr * self.weight_decay
            step_size = lr * np.sqrt(1.0 - ADAMW_BETA2**self.t) / (1.0 - ADAMW_BETA1**self.t)
            blocks += [
                (lo, min(lo + ADAMW_BLOCK, stop), decay, step_size)
                for lo in range(start, stop, ADAMW_BLOCK)
            ]
        half = len(blocks) // 2
        _run_pair(
            partial(self._update, theta, grad, blocks[:half], self._buf[0]),
            partial(self._update, theta, grad, blocks[half:], self._buf[1]),
            sum(hi - lo for lo, hi, _, _ in blocks[:half]),
        )

    def _update(self, theta, grad, blocks, buf):
        """Every operation of each block is written into the two rows of
        `buf`: the same float operations, in the same order, as one numpy
        expression per span."""
        for lo, hi, decay, step_size in blocks:
            p, g, m, v = theta[lo:hi], grad[lo:hi], self.m[lo:hi], self.v[lo:hi]
            a, b = buf[0, : hi - lo], buf[1, : hi - lo]
            if self.weight_decay:
                p *= decay
            m *= ADAMW_BETA1
            np.multiply(1.0 - ADAMW_BETA1, g, out=a)
            m += a
            v *= ADAMW_BETA2
            np.multiply(1.0 - ADAMW_BETA2, g, out=a)
            a *= g
            v += a
            np.sqrt(v, out=a)
            a += ADAMW_EPS
            np.multiply(step_size, m, out=b)
            b /= a
            p -= b


def _scale_runs(spans, n: int) -> list:
    """[start, stop, scale] of each run of adjacent spans with one lr scale."""
    runs = []
    for sl, scale in spans:
        start, stop, _ = sl.indices(n)
        if runs and runs[-1][1] == start and runs[-1][2] == scale:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, scale])
    return runs


@dataclass
class SgdMomentum:
    """Classic momentum SGD with (decoupled) weight decay; `step` takes the
    same (theta, grad, spans) as AdamW's."""

    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: np.ndarray = None

    def step(self, theta: np.ndarray, grad: np.ndarray, spans):
        if self.velocity is None:
            self.velocity = np.zeros_like(theta)
        vel = self.velocity
        for sl, scale in spans:
            lr = self.lr * scale
            vel[sl] = self.momentum * vel[sl] - lr * grad[sl]
            if self.weight_decay:
                theta[sl] *= 1.0 - lr * self.weight_decay
            theta[sl] += vel[sl]


def make_optimizer(name: str, lr: float, weight_decay: float = 0.0, momentum: float = 0.9):
    if name == "adamw":
        return AdamW(lr=lr, weight_decay=weight_decay)
    if name == "sgd":
        return SgdMomentum(lr=lr, momentum=momentum, weight_decay=weight_decay)
    raise ParameterError(f"unknown optimizer {name!r}")


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: EncoderModel):
    """Write the versioned little-endian binary checkpoint."""
    classes = model.proxies.classes if model.proxies is not None else ()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(model.trunk_w)))
        f.write(struct.pack(f"<{len(model.dims)}I", *model.dims))
        f.write(struct.pack("<I", len(classes)))
        if classes:
            f.write(struct.pack(f"<{len(classes)}I", *classes))
        f.write(np.ascontiguousarray(model.theta, dtype="<f8").data)  # no bytes copy


def load_checkpoint(path) -> EncoderModel:
    """Read a checkpoint back into a model; its proxies (or None) are `model.proxies`."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    off = 4
    try:
        version, n_trunk = struct.unpack_from("<II", raw, off)
        off += 8
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        dims = struct.unpack_from(f"<{n_trunk + 3}I", raw, off)
        off += 4 * (n_trunk + 3)
        (n_proxies,) = struct.unpack_from("<I", raw, off)
        off += 4
        classes = struct.unpack_from(f"<{n_proxies}I", raw, off) if n_proxies else ()
        off += 4 * n_proxies
    except struct.error:
        raise FormatError(f"{path}: truncated header or proxy class block") from None

    if 0 in dims:
        raise FormatError(f"{path}: zero layer dim in {dims}")
    n_params = sum(math.prod(shape) for _, shape in _layout(dims, n_proxies))
    if 8 * n_params != len(raw) - off:
        raise FormatError(f"{path}: dims need {8 * n_params} parameter bytes, got {len(raw) - off}")
    theta = np.frombuffer(raw, dtype="<f8", offset=off).astype(np.float64)
    return EncoderModel(dims, theta, classes)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    worst_param: str
    n_params: int
    n_resampled: int
    kink_margin: float

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (
            f"{state}: max rel err {self.max_rel_err:.3e} at {self.worst_param} "
            f"({self.n_params} params, {self.n_resampled} kink batches resampled)"
        )


# A batch whose nearest hinge/norm kink is closer than this gets resampled
# before finite differencing.
KINK_MARGIN = 1e-3
FD_MAX_RESAMPLE = 25
FD_STEP = 1e-6
FD_TOL = 1e-4
# Relative-error floor: differences are measured against
# max(|analytic|, |numeric|, FD_FLOOR), which keeps O(1e-10) central-difference
# rounding noise on near-zero gradients from masquerading as real error.
FD_FLOOR = 1e-3


def finite_difference_check(
    model: EncoderModel,
    batch_fn,
    loss: str,
    metric: str = "ism",
    mp: MetricParams = None,
    lp: LossParams = None,
    rng: Rng = None,
    grads_override: np.ndarray = None,
) -> GradCheckReport:
    """Compare analytic gradients against central differences on one batch,
    over every entry of `model.theta`.

    `batch_fn(rng) -> Batch` supplies candidate batches; ones sitting within
    KINK_MARGIN of a hinge/norm kink are discarded and redrawn, up to
    FD_MAX_RESAMPLE draws (their count is reported). The discrete sampling
    plan is frozen once, so the differentiated function is smooth.
    `grads_override` substitutes a corrupted gradient vector (detector
    self-test).
    """
    if rng is None:
        raise ParameterError("finite_difference_check needs an rng")
    batch = None
    res = grad = None
    n_resampled = 0
    for _ in range(FD_MAX_RESAMPLE):
        cand = batch_fn(rng)
        res, grad = loss_and_grad(model, cand, loss, metric=metric, mp=mp, lp=lp, rng=rng)
        if res.kink_margin >= KINK_MARGIN:
            batch = cand
            break
        n_resampled += 1
    if batch is None:
        raise NumericalFailure(
            f"no kink-free batch found for {loss}/{metric} in {FD_MAX_RESAMPLE} draws"
        )
    if grads_override is not None:
        grad = grads_override

    theta = model.theta
    plan = res.plan

    def value():
        r, _ = loss_and_grad(model, batch, loss, metric=metric, mp=mp, lp=lp, plan=plan)
        return r.value

    max_err, worst = 0.0, ""
    for name, sl in model.slices.items():
        for k in range(sl.start, sl.stop):
            orig = theta[k]
            theta[k] = orig + FD_STEP
            f_plus = value()
            theta[k] = orig - FD_STEP
            f_minus = value()
            theta[k] = orig
            fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            err = abs(grad[k] - fd) / max(abs(grad[k]), abs(fd), FD_FLOOR)
            if err > max_err:
                max_err, worst = err, f"{name}[{k - sl.start}]"
    return GradCheckReport(
        passed=max_err < FD_TOL,
        max_rel_err=max_err,
        worst_param=worst,
        n_params=theta.size,
        n_resampled=n_resampled,
        kink_margin=res.kink_margin,
    )


@dataclass
class HFactorReport:
    passed: bool
    max_rel_err: float
    max_h: float
    h_at_zero: float
    n_pairs: int

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (
            f"{state}: ratio-vs-H max rel err {self.max_rel_err:.3e}, "
            f"max H {self.max_h:.12f}, H at zero uncertainty {self.h_at_zero!r} "
            f"({self.n_pairs} pairs)"
        )


# h_factor_check's pair dimension and its tolerance on |ratio - H|.
H_CHECK_DIM = 8
H_CHECK_TOL = 1e-6


def h_factor_check(rng: Rng, n_pairs: int = 1000, mp: MetricParams = None) -> HFactorReport:
    """Verify the attenuation identity on single-positive-pair batches.

    For a positive pair, the introspective contrastive gradient must be the
    plain Euclidean contrastive gradient scaled by H = exp(-bt/tau)(1+bt/tau).
    The measured ratio comes from the full loss pipeline under both metrics;
    H comes from the closed form. Also asserts H <= 1 everywhere, with
    equality exactly at zero scaled uncertainty.
    """
    if rng is None:
        raise ParameterError("h_factor_check needs an rng")
    mp = mp if mp is not None else MetricParams()
    Y = np.ones((2, 1), dtype=bool)  # one positive pair
    shape = (2, H_CHECK_DIM)

    max_err, max_h = 0.0, -np.inf
    for i in range(n_pairs):
        S = rng.normal(size=shape)
        # every tenth pair runs at exactly zero uncertainty (the H=1 point)
        U = np.zeros(shape) if i % 10 == 0 else 0.5 * rng.normal(size=shape)
        alpha = float(np.linalg.norm(S[0] - S[1]))
        if alpha < 1e-6:
            continue
        base = compute_loss("contrastive", S, U, Y, metric="euclidean", mp=mp)
        intro = compute_loss("contrastive", S, U, Y, metric="ism", mp=mp)
        gb = np.linalg.norm(base.d_semantic[0])
        gi = np.linalg.norm(intro.d_semantic[0])
        beta = float(np.linalg.norm(U[0] + U[1]))
        h = gradient_weight(alpha, beta, mp)
        err = abs(gi / gb - h)
        max_err = max(max_err, err)
        max_h = max(max_h, h)
        if (beta + mp.gamma) > 0 and h >= 1.0:
            return HFactorReport(False, max_err, h, np.nan, i + 1)
    h_zero = gradient_weight(1.0, 0.0, MetricParams(gamma=0.0, tau=mp.tau))
    passed = max_err < H_CHECK_TOL and max_h <= 1.0 and h_zero == 1.0
    return HFactorReport(passed, max_err, max_h, h_zero, n_pairs)
