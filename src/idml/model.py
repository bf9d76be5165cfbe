"""Two-headed encoder with hand-written reverse-mode gradients.

The network is a small tanh MLP trunk shared by two linear heads: one for
the semantic embedding s, one for the uncertainty embedding u (initialized
at 0.1x scale so training starts near-certain; u is a free vector, no
nonlinearity). tanh keeps every activation smooth, so central finite
differences agree with the analytic gradients to high precision — which the
gradient checker here exploits.

Parameters are addressed by name ("trunk.0.W", "head_s.b", "proxy.semantic",
...) so the optimizers and the checkpoint format stay order-stable.

Checkpoint layout (little-endian): magic "IDML", u32 version (1), u32 trunk
layer count, u32 dims [input, hidden..., semantic, uncertainty], u32 proxy
count (0 if none) followed by u32 class ids, then float64 parameter blocks
in `all_parameters` order: trunk layers, the two heads, proxies last.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
    PROXY_LOSSES,
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


@dataclass
class EncoderModel:
    """Trunk affine layers with tanh, plus linear semantic/uncertainty heads."""

    trunk_w: list
    trunk_b: list
    head_s_w: np.ndarray
    head_s_b: np.ndarray
    head_u_w: np.ndarray
    head_u_b: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.trunk_w[0].shape[0] if self.trunk_w else self.head_s_w.shape[0]

    @property
    def semantic_dim(self) -> int:
        return self.head_s_w.shape[1]

    @property
    def uncertainty_dim(self) -> int:
        return self.head_u_w.shape[1]

    @property
    def hidden_dims(self) -> tuple:
        return tuple(w.shape[1] for w in self.trunk_w)

    def parameters(self) -> dict:
        """Name -> array view of every trainable tensor."""
        p = {}
        for i, (w, b) in enumerate(zip(self.trunk_w, self.trunk_b)):
            p[f"trunk.{i}.W"] = w
            p[f"trunk.{i}.b"] = b
        p["head_s.W"] = self.head_s_w
        p["head_s.b"] = self.head_s_b
        p["head_u.W"] = self.head_u_w
        p["head_u.b"] = self.head_u_b
        return p


def all_parameters(model: EncoderModel, proxies: ProxySet = None) -> dict:
    p = model.parameters()
    if proxies is not None:
        p.update({"proxy.semantic": proxies.semantic, "proxy.uncertainty": proxies.uncertainty})
    return p


def init_model(
    input_dim: int,
    hidden: tuple = (64, 64),
    semantic_dim: int = 32,
    uncertainty_dim: int = 32,
    rng: Rng = None,
) -> EncoderModel:
    """Variance-scaled random init; the uncertainty head is scaled by U_INIT_SCALE."""
    if rng is None:
        raise ParameterError("init_model needs an rng")
    dims = [int(input_dim)] + [int(h) for h in hidden]
    if any(d < 1 for d in dims + [semantic_dim, uncertainty_dim]):
        raise ParameterError("all layer dims must be positive")

    def glorot(fan_in, fan_out, scale=1.0):
        std = np.sqrt(2.0 / (fan_in + fan_out))
        return scale * std * rng.normal(size=(fan_in, fan_out))

    trunk_w = [glorot(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    trunk_b = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    last = dims[-1]
    return EncoderModel(
        trunk_w=trunk_w,
        trunk_b=trunk_b,
        head_s_w=glorot(last, semantic_dim),
        head_s_b=np.zeros(semantic_dim),
        head_u_w=glorot(last, uncertainty_dim, scale=U_INIT_SCALE),
        head_u_b=np.zeros(uncertainty_dim),
    )


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


def _backward(model: EncoderModel, hs, dS, dU) -> dict:
    """Parameter gradients given embedding gradients; hs are cached activations."""
    h_last = hs[-1]
    grads = {
        "head_s.W": h_last.T @ dS,
        "head_s.b": dS.sum(axis=0),
        "head_u.W": h_last.T @ dU,
        "head_u.b": dU.sum(axis=0),
    }
    dh = dS @ model.head_s_w.T + dU @ model.head_u_w.T
    for i in range(len(model.trunk_w) - 1, -1, -1):
        dz = dh * (1.0 - hs[i + 1] ** 2)  # tanh'
        grads[f"trunk.{i}.W"] = hs[i].T @ dz
        grads[f"trunk.{i}.b"] = dz.sum(axis=0)
        dh = dz @ model.trunk_w[i].T
    return grads


def loss_and_grad(
    model: EncoderModel,
    batch: Batch,
    loss: str,
    metric: str = "ism",
    mp: MetricParams = None,
    lp: LossParams = None,
    proxies: ProxySet = None,
    rng: Rng = None,
    plan=None,
):
    """Loss value plus exact gradients for every model (and proxy) parameter.

    Returns (LossResult, grads dict). A fresh plan is built unless one is
    passed in (the gradient checker passes the same plan repeatedly).
    """
    S, U, hs = _forward_cached(model, batch.features)
    if plan is None:
        plan = build_plan(
            loss, S, U, batch.labels, metric=metric, mp=mp, lp=lp, proxies=proxies, rng=rng
        )
    res = evaluate_loss(loss, S, U, plan, metric=metric, mp=mp, lp=lp, proxies=proxies)
    res.uncertainty = U
    if not np.isfinite(res.value):
        worst = int(np.argmax(~np.isfinite(np.atleast_1d(res.pair_terms))))
        raise NumericalFailure(f"non-finite loss value {res.value} (term {worst})")
    grads = _backward(model, hs, res.d_semantic, res.d_uncertainty)
    if res.d_proxy_semantic is not None:
        grads["proxy.semantic"] = res.d_proxy_semantic
        grads["proxy.uncertainty"] = res.d_proxy_uncertainty
    return res, grads


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class AdamW:
    """Adaptive moments with decoupled weight decay.

    Each step first shrinks the parameter by lr * weight_decay, then applies
    the bias-corrected moment update. `lr_scale` lets a parameter group
    (proxies) run at a multiple of the base rate.
    """

    lr: float = 1e-3
    weight_decay: float = 0.0
    state: dict = field(default_factory=dict)

    def step(self, params: dict, grads: dict, lr_scale: dict = None):
        for name, p in params.items():
            if name not in grads:
                continue
            g = grads[name]
            lr = self.lr * (lr_scale or {}).get(name, 1.0)
            m, v, t = self.state.get(name, (np.zeros_like(p), np.zeros_like(p), 0))
            if self.weight_decay:
                p *= 1.0 - lr * self.weight_decay
            m = ADAMW_BETA1 * m + (1.0 - ADAMW_BETA1) * g
            v = ADAMW_BETA2 * v + (1.0 - ADAMW_BETA2) * g * g
            t += 1
            step_size = lr * np.sqrt(1.0 - ADAMW_BETA2**t) / (1.0 - ADAMW_BETA1**t)
            p -= step_size * m / (np.sqrt(v) + ADAMW_EPS)
            self.state[name] = (m, v, t)


@dataclass
class SgdMomentum:
    """Classic momentum SGD with (decoupled) weight decay."""

    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 0.0
    state: dict = field(default_factory=dict)

    def step(self, params: dict, grads: dict, lr_scale: dict = None):
        for name, p in params.items():
            if name not in grads:
                continue
            lr = self.lr * (lr_scale or {}).get(name, 1.0)
            vel = self.state.get(name, np.zeros_like(p))
            vel = self.momentum * vel - lr * grads[name]
            if self.weight_decay:
                p *= 1.0 - lr * self.weight_decay
            p += vel
            self.state[name] = vel


def make_optimizer(name: str, lr: float, weight_decay: float = 0.0, momentum: float = 0.9):
    if name == "adamw":
        return AdamW(lr=lr, weight_decay=weight_decay)
    if name == "sgd":
        return SgdMomentum(lr=lr, momentum=momentum, weight_decay=weight_decay)
    raise ParameterError(f"unknown optimizer {name!r}")


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: EncoderModel, proxies: ProxySet = None):
    """Write the versioned little-endian binary checkpoint."""
    dims = [model.input_dim, *model.hidden_dims, model.semantic_dim, model.uncertainty_dim]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(model.trunk_w)))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        classes = proxies.classes if proxies is not None else ()
        f.write(struct.pack("<I", len(classes)))
        if classes:
            f.write(struct.pack(f"<{len(classes)}I", *classes))
        for p in all_parameters(model, proxies).values():
            f.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into (model, proxies-or-None)."""
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

    layer_dims = dims[: n_trunk + 1]
    sdim, udim = dims[-2], dims[-1]
    if 0 in dims:
        raise FormatError(f"{path}: zero layer dim in {dims}")
    n_params = sum((a + 1) * b for a, b in zip(layer_dims, layer_dims[1:]))
    n_params += (layer_dims[-1] + 1 + n_proxies) * (sdim + udim)
    if 8 * n_params != len(raw) - off:
        raise FormatError(f"{path}: dims need {8 * n_params} parameter bytes, got {len(raw) - off}")
    model = EncoderModel(
        trunk_w=[np.empty((a, b)) for a, b in zip(layer_dims, layer_dims[1:])],
        trunk_b=[np.empty(b) for b in layer_dims[1:]],
        head_s_w=np.empty((layer_dims[-1], sdim)),
        head_s_b=np.empty(sdim),
        head_u_w=np.empty((layer_dims[-1], udim)),
        head_u_b=np.empty(udim),
    )
    proxies = None
    if n_proxies:
        proxies = ProxySet(np.empty((n_proxies, sdim)), np.empty((n_proxies, udim)), classes)
    for p in all_parameters(model, proxies).values():
        p[...] = np.frombuffer(raw, dtype="<f8", count=p.size, offset=off).reshape(p.shape)
        off += 8 * p.size
    return model, proxies


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
    proxies: ProxySet = None,
    rng: Rng = None,
    grads_override: dict = None,
) -> GradCheckReport:
    """Compare analytic gradients against central differences on one batch.

    `batch_fn(rng) -> Batch` supplies candidate batches; ones sitting within
    KINK_MARGIN of a hinge/norm kink are discarded and redrawn, up to
    FD_MAX_RESAMPLE draws (their count is reported). The discrete sampling
    plan is frozen once, so the differentiated function is smooth.
    `grads_override` substitutes a corrupted gradient set (detector
    self-test).
    """
    if rng is None:
        raise ParameterError("finite_difference_check needs an rng")
    batch = None
    res = grads = None
    n_resampled = 0
    for _ in range(FD_MAX_RESAMPLE):
        cand = batch_fn(rng)
        res, grads = loss_and_grad(
            model, cand, loss, metric=metric, mp=mp, lp=lp, proxies=proxies, rng=rng
        )
        if res.kink_margin >= KINK_MARGIN:
            batch = cand
            break
        n_resampled += 1
    if batch is None:
        raise NumericalFailure(
            f"no kink-free batch found for {loss}/{metric} in {FD_MAX_RESAMPLE} draws"
        )
    if grads_override is not None:
        grads = grads_override

    params = all_parameters(model, proxies if loss in PROXY_LOSSES else None)
    plan = res.plan

    def value():
        r, _ = loss_and_grad(
            model, batch, loss, metric=metric, mp=mp, lp=lp, proxies=proxies, plan=plan
        )
        return r.value

    max_err, worst, total = 0.0, "", 0
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + FD_STEP
            f_plus = value()
            flat[k] = orig - FD_STEP
            f_minus = value()
            flat[k] = orig
            fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            err = abs(gflat[k] - fd) / max(abs(gflat[k]), abs(fd), FD_FLOOR)
            total += 1
            if err > max_err:
                max_err, worst = err, f"{name}[{k}]"
    return GradCheckReport(
        passed=max_err < FD_TOL,
        max_rel_err=max_err,
        worst_param=worst,
        n_params=total,
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
