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
import struct
from dataclasses import dataclass

import numpy as np

from idml.core import (
    Batch,
    FormatError,
    MetricParams,
    NumericalFailure,
    ParameterError,
    Rng,
    ShapeError,
)
from idml.losses import (
    LossParams,
    LossResult,
    ProxySet,
    build_plan,
    compute_loss,
    evaluate_loss,
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


def _forward_cached(model: EncoderModel, X: np.ndarray):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(f"expected (N, {model.input_dim}) inputs, got {X.shape}")
    hs = [X]
    h = X
    for w, b in zip(model.trunk_w, model.trunk_b):
        h = np.tanh(h @ w + b)
        hs.append(h)
    S = h @ model.head_s_w + model.head_s_b
    U = h @ model.head_u_w + model.head_u_b
    return S, U, hs


def forward(model: EncoderModel, X):
    """Encode a feature batch (N, D) into semantic and uncertainty rows."""
    S, U, _ = _forward_cached(model, X)
    return S, U


def _backward(model: EncoderModel, hs, dS, dU, g: dict):
    """Write parameter gradients into the views `g` given embedding gradients;
    hs are cached activations."""
    h_last = hs[-1]
    np.matmul(h_last.T, dS, out=g["head_s.W"])
    dS.sum(axis=0, out=g["head_s.b"])
    np.matmul(h_last.T, dU, out=g["head_u.W"])
    dU.sum(axis=0, out=g["head_u.b"])
    dh = dS @ model.head_s_w.T + dU @ model.head_u_w.T
    for i in range(len(model.trunk_w) - 1, -1, -1):
        dz = dh * (1.0 - hs[i + 1] ** 2)  # tanh'
        np.matmul(hs[i].T, dz, out=g[f"trunk.{i}.W"])
        dz.sum(axis=0, out=g[f"trunk.{i}.b"])
        dh = dz @ model.trunk_w[i].T


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
    proxies are `model.proxies`. A fresh plan is built unless one is passed
    in (the gradient checker passes the same plan repeatedly).
    """
    S, U, hs = _forward_cached(model, batch.features)
    proxies = model.proxies
    if plan is None:
        plan = build_plan(
            loss, S, U, batch.labels, metric=metric, mp=mp, lp=lp, proxies=proxies, rng=rng
        )
    res = evaluate_loss(loss, S, U, plan, metric=metric, mp=mp, lp=lp, proxies=proxies)
    res.uncertainty = U
    if not np.isfinite(res.value):
        worst = int(np.argmax(~np.isfinite(np.atleast_1d(res.pair_terms))))
        raise NumericalFailure(f"non-finite loss value {res.value} (term {worst})")
    grad = np.zeros_like(model.theta)
    g = model.views(grad)
    _backward(model, hs, res.d_semantic, res.d_uncertainty, g)
    if res.d_proxy_semantic is not None:
        g["proxy.semantic"][...] = res.d_proxy_semantic
        g["proxy.uncertainty"][...] = res.d_proxy_uncertainty
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

    def step(self, theta: np.ndarray, grad: np.ndarray, spans):
        if self.m is None:
            self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        self.t += 1
        # span by span, so that temporaries stay the size of one span
        for sl, scale in spans:
            g, m, v = grad[sl], self.m[sl], self.v[sl]
            lr = self.lr * scale
            if self.weight_decay:
                theta[sl] *= 1.0 - lr * self.weight_decay
            m *= ADAMW_BETA1
            m += (1.0 - ADAMW_BETA1) * g
            v *= ADAMW_BETA2
            v += (1.0 - ADAMW_BETA2) * g * g
            step_size = lr * np.sqrt(1.0 - ADAMW_BETA2**self.t) / (1.0 - ADAMW_BETA1**self.t)
            theta[sl] -= step_size * m / (np.sqrt(v) + ADAMW_EPS)


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
        f.write(model.theta.astype("<f8", copy=False).tobytes())


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
    labels = (frozenset({0}), frozenset({0}))
    shape = (2, H_CHECK_DIM)

    max_err, max_h = 0.0, -np.inf
    for i in range(n_pairs):
        S = rng.normal(size=shape)
        # every tenth pair runs at exactly zero uncertainty (the H=1 point)
        U = np.zeros(shape) if i % 10 == 0 else 0.5 * rng.normal(size=shape)
        alpha = float(np.linalg.norm(S[0] - S[1]))
        if alpha < 1e-6:
            continue
        base = compute_loss("contrastive", S, U, labels, metric="euclidean", mp=mp)
        intro = compute_loss("contrastive", S, U, labels, metric="ism", mp=mp)
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
