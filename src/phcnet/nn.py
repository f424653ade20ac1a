"""Real-valued network primitives surrounding PHC layers.

Residual blocks follow y = ReLU(F(x) + skip(x)) with
F = BN(PHC(ReLU(BN(PHC(x))))); the refiner variant uses the 1x1 -> 3x3 ->
1x1 bottleneck design with mid channels = out/4.  Losses are computed in
numerically stable softplus/log-sum-exp form.  Adam applies decoupled
weight decay (theta *= 1 - lr*lambda before the moment update).
"""

from __future__ import annotations

import functools

import numpy as np

from . import autograd as ag
from . import tensor as T
from .errors import ConfigError, DataError, NumericError, ShapeError
from .module import Module, Parameter
from .phc import PHCConv2d


def _seeds(seed, k: int):
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(k)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of an (N, C, H, W) array, accumulated in float64."""
    return np.einsum("nchw->c", a, dtype=np.float64)


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum of a·b over (N, H, W), as float64.

    einsum multiplies and adds in the arrays' own dtype, so it sums only
    runs of at most 256 values (an image row, or a whole plane when that is
    small) and the partial sums are added in float64.  A float32 dot then
    rounds no worse than numpy's pairwise summation of the product, without
    a float64 copy of the arrays or a product array.
    """
    _, _, h, w = a.shape
    rows = h * w > 256
    partial = np.einsum("nchw,nchw->nch" if rows else "nchw,nchw->nc", a, b)
    return partial.sum(axis=(0, 2) if rows else 0, dtype=np.float64)


class Linear(Module):
    """Plain real dense layer used for classification heads."""

    def __init__(self, in_features, out_features, seed=0, dtype=np.float32):
        super().__init__()
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(out_features, in_features)).astype(dtype)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, x):
        return ag.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes with the biased batch statistics over the
    m = N*H*W values of each channel, x̂ = (x - μ)/σ with σ = √(var + eps),
    returns γ·x̂ + β and folds μ and var into the running estimates.  Its
    input gradient is the Ioffe–Szegedy rule rearranged into three terms
    with per-channel factors,

        dx = g·k₁ - x̂·k₂ - k₃,  k₁ = γ/σ,  k₂ = k₁·dγ/m,  k₃ = k₁·dβ/m,

    where dγ = Σ g·x̂ and dβ = Σ g.  Forward centres x once and scales it
    to x̂ in place; x̂ is the one full-size array kept for backward.

    Eval mode treats the running estimates as constants and folds the layer
    into one per-channel affine map x·a + b, with a = γ/√(running_var + eps)
    and b = β - running_mean·a, so dx = g·a; x̂ is rebuilt from x only
    when γ needs a gradient.

    Channel sums and per-channel factors are formed in float64; every
    full-size array stays in the input's dtype.
    """

    def __init__(self, channels, momentum=0.1, eps=1e-5, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x: ag.Node) -> ag.Node:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"batchnorm expects (N,{self.channels},H,W), got {x.shape}"
            )
        gamma, beta = self.gamma, self.beta
        dtype = x.dtype
        exp = lambda v: v.astype(dtype, copy=False)[None, :, None, None]
        g64 = gamma.value.astype(np.float64)
        if not self.training:
            mu = self.running_mean.astype(np.float64)
            inv_std = 1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)
            a = g64 * inv_std
            out = x.value * exp(a)
            out += exp(beta.value - mu * a)

            def eval_rule(g):
                dx = g * exp(a) if x.requires_grad else None
                dgamma = dbeta = None
                if gamma.requires_grad:
                    xhat = (x.value - exp(mu)) * exp(inv_std)
                    dgamma = _channel_sum(g * xhat).astype(dtype)
                if beta.requires_grad:
                    dbeta = _channel_sum(g).astype(dtype)
                return dx, dgamma, dbeta

            return ag.Node(out, (x, gamma, beta), eval_rule)

        m = x.shape[0] * x.shape[2] * x.shape[3]
        mu = _channel_sum(x.value) / m
        xhat = x.value - exp(mu)
        var = _channel_dot(xhat, xhat) / m
        self.running_mean[...] = (
            (1 - self.momentum) * self.running_mean + self.momentum * mu
        )
        self.running_var[...] = (
            (1 - self.momentum) * self.running_var + self.momentum * var
        )
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= exp(inv_std)
        out = xhat * exp(gamma.value)
        out += exp(beta.value)

        def rule(g):
            dgamma, dbeta = _channel_dot(g, xhat), _channel_sum(g)
            dx = None
            if x.requires_grad:
                k1 = g64 * inv_std
                # the two small terms first, so g·k1 meets one rounding less
                dx = xhat * exp(k1 * dgamma / m)
                dx += exp(k1 * dbeta / m)
                np.subtract(g * exp(k1), dx, out=dx)
                dx = np.ascontiguousarray(dx)
            return (dx, dgamma.astype(dtype) if gamma.requires_grad else None,
                    dbeta.astype(dtype) if beta.requires_grad else None)

        return ag.Node(out, (x, gamma, beta), rule)


class ResidualBlock(Module):
    """Residual block over PHC convolutions (basic or bottleneck refiner).

    A 1x1 PHC projection (with batch norm) is placed on the skip path iff
    the stride or the channel count changes.
    """

    def __init__(self, n, in_channels, out_channels, stride=1,
                 variant="basic", scheme="fixed-algebra", seed=0):
        super().__init__()
        if variant not in ("basic", "refiner"):
            raise ConfigError(f"unknown residual variant {variant!r}")
        self.variant = variant
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        seeds = _seeds(seed, 4)
        conv = functools.partial(PHCConv2d, n, bias=False, scheme=scheme)
        if variant == "basic":
            self.phc1 = conv(in_channels, out_channels, 3, stride=stride, padding=1,
                             seed=seeds[0])
            self.bn1 = BatchNorm2d(out_channels)
            self.phc2 = conv(out_channels, out_channels, 3, padding=1, seed=seeds[1])
            self.bn2 = BatchNorm2d(out_channels)
        else:
            mid = out_channels // 4
            if mid == 0 or mid % n:
                raise ConfigError(
                    f"refiner mid channels {mid} not divisible by n={n}"
                )
            self.phc1 = conv(in_channels, mid, 1, stride=stride, seed=seeds[0])
            self.bn1 = BatchNorm2d(mid)
            self.phc2 = conv(mid, mid, 3, padding=1, seed=seeds[1])
            self.bn2 = BatchNorm2d(mid)
            self.phc3 = conv(mid, out_channels, 1, seed=seeds[2])
            self.bn3 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.proj = conv(in_channels, out_channels, 1, stride=stride, seed=seeds[3])
            self.proj_bn = BatchNorm2d(out_channels)
        else:
            self.proj = None

    def forward(self, x: ag.Node) -> ag.Node:
        skip = x if self.proj is None else self.proj_bn(self.proj(x))
        h = ag.relu(self.bn1(self.phc1(x)))
        if self.variant == "basic":
            h = self.bn2(self.phc2(h))
        else:
            h = ag.relu(self.bn2(self.phc2(h)))
            h = self.bn3(self.phc3(h))
        return ag.relu(ag.add(h, skip))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_with_logits(logits: ag.Node, targets, pos_weight: float = 1.0) -> ag.Node:
    """Weighted binary cross entropy, mean over all entries.

    Computed as w*y*softplus(-z) + (1-y)*softplus(z) per entry, which never
    overflows for finite logits.
    """
    z = logits.value
    if not np.all(np.isfinite(z)):
        raise NumericError("bce_with_logits: non-finite logits")
    y = T.as_tensor(targets, dtype=z.dtype)
    if y.shape != z.shape:
        raise ShapeError(f"bce targets shape {y.shape} != logits shape {z.shape}")
    w = z.dtype.type(pos_weight)
    losses = w * y * _softplus(-z) + (1.0 - y) * _softplus(z)
    value = losses.mean(dtype=z.dtype)
    inv = 1.0 / z.size

    def rule(g):
        dz = (-w * y * ag.stable_sigmoid(-z) + (1.0 - y) * ag.stable_sigmoid(z)) * (g * inv)
        return (dz.astype(z.dtype, copy=False),)

    return ag.Node(np.asarray(value, dtype=z.dtype), (logits,), rule)


def cross_entropy(logits: ag.Node, labels) -> ag.Node:
    """Mean negative log softmax probability of the true class."""
    z = logits.value
    labels = np.asarray(labels, dtype=np.int64)
    n, k = z.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels must lie in [0, {k}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    nll = logsumexp - z[np.arange(n), labels]
    value = nll.mean(dtype=z.dtype)

    def rule(g):
        softmax = np.exp(z - zmax)
        softmax /= softmax.sum(axis=1, keepdims=True)
        softmax[np.arange(n), labels] -= 1.0
        return ((g / n) * softmax.astype(z.dtype, copy=False),)

    return ag.Node(np.asarray(value, dtype=z.dtype), (logits,), rule)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction and decoupled weight decay."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if self.weight_decay:
                p.value *= 1.0 - self.lr * self.weight_decay
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class EarlyStopper:
    """Stops once the metric (higher is better) fails to improve for > patience epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.since_improvement = 0

    def update(self, metric: float) -> bool:
        """Record one epoch's metric; returns True when training should stop."""
        if not np.isfinite(metric):
            raise NumericError(f"early stopping metric is not finite: {metric}")
        if metric > self.best:
            self.best = metric
            self.since_improvement = 0
        else:
            self.since_improvement += 1
        return self.since_improvement > self.patience
