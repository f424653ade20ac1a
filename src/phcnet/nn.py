"""Real-valued network primitives surrounding PHC layers.

Residual blocks follow y = ReLU(F(x) + skip(x)) with
F = BN(PHC(ReLU(BN(PHC(x))))); the refiner variant uses the 1x1 -> 3x3 ->
1x1 bottleneck design with mid channels = out/4.  Losses are computed in
numerically stable softplus/log-sum-exp form.  Adam applies decoupled
weight decay (theta *= 1 - lr*lambda before the moment update).
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import tensor as T
from .errors import ConfigError, DataError, NumericError, ShapeError
from .module import Module, Parameter
from .phc import PHCConv2d


def _seeds(seed, k: int):
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(k)


def np_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid on a plain array."""
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ev = np.exp(x[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


class Linear(Module):
    """Plain real dense layer used for classification heads."""

    def __init__(self, in_features, out_features, bias=True, seed=0, dtype=np.float32):
        super().__init__()
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(out_features, in_features)).astype(dtype)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype)) if bias else None

    def forward(self, x):
        return ag.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes with biased batch statistics (and folds them into
    the running estimates); eval mode uses the running estimates as
    constants, so no gradient flows through the statistics.
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
        exp = lambda v: v[None, :, None, None]
        if self.training:
            mu = x.value.mean(axis=(0, 2, 3))
            var = x.value.var(axis=(0, 2, 3))
            self.running_mean[...] = (
                (1 - self.momentum) * self.running_mean + self.momentum * mu
            )
            self.running_var[...] = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mu = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x.value - exp(mu)) * exp(inv_std)
        out = exp(gamma.value) * xhat + exp(beta.value)
        m = x.shape[0] * x.shape[2] * x.shape[3]
        training = self.training

        def rule(g):
            dgamma = (g * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
            dbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
            if not x.requires_grad:
                return None, dgamma, dbeta
            dxhat = g * exp(gamma.value)
            if training:
                dx = (
                    exp(inv_std)
                    / m
                    * (
                        m * dxhat
                        - exp(dxhat.sum(axis=(0, 2, 3)))
                        - xhat * exp((dxhat * xhat).sum(axis=(0, 2, 3)))
                    )
                )
            else:
                dx = dxhat * exp(inv_std)
            return np.ascontiguousarray(dx), dgamma, dbeta

        return ag.Node(out, (x, gamma, beta), rule)


class ResidualBlock(Module):
    """Residual block over PHC convolutions (basic or bottleneck refiner).

    A 1x1 PHC projection (with batch norm) is placed on the skip path iff
    the stride or the channel count changes.
    """

    def __init__(self, n, in_channels, out_channels, stride=1,
                 variant="basic", seed=0):
        super().__init__()
        if variant not in ("basic", "refiner"):
            raise ConfigError(f"unknown residual variant {variant!r}")
        self.variant = variant
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        seeds = _seeds(seed, 4)
        if variant == "basic":
            self.phc1 = PHCConv2d(n, in_channels, out_channels, 3,
                                  stride=stride, padding=1, bias=False, seed=seeds[0])
            self.bn1 = BatchNorm2d(out_channels)
            self.phc2 = PHCConv2d(n, out_channels, out_channels, 3,
                                  padding=1, bias=False, seed=seeds[1])
            self.bn2 = BatchNorm2d(out_channels)
        else:
            mid = out_channels // 4
            if mid == 0 or mid % n:
                raise ConfigError(
                    f"refiner mid channels {mid} not divisible by n={n}"
                )
            self.phc1 = PHCConv2d(n, in_channels, mid, 1,
                                  stride=stride, bias=False, seed=seeds[0])
            self.bn1 = BatchNorm2d(mid)
            self.phc2 = PHCConv2d(n, mid, mid, 3, padding=1, bias=False, seed=seeds[1])
            self.bn2 = BatchNorm2d(mid)
            self.phc3 = PHCConv2d(n, mid, out_channels, 1, bias=False, seed=seeds[2])
            self.bn3 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.proj = PHCConv2d(n, in_channels, out_channels, 1,
                                  stride=stride, bias=False, seed=seeds[3])
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
        return ag.relu(h + skip)


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
        dz = (-w * y * np_sigmoid(-z) + (1.0 - y) * np_sigmoid(z)) * (g * inv)
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

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class EarlyStopper:
    """Stops once the monitored metric fails to improve for > patience epochs."""

    def __init__(self, patience: int, mode: str = "max"):
        if mode not in ("max", "min"):
            raise ConfigError(f"mode must be 'max' or 'min', got {mode!r}")
        self.patience = patience
        self.mode = mode
        self.best = -np.inf if mode == "max" else np.inf
        self.since_improvement = 0

    def update(self, metric: float) -> bool:
        """Record one epoch's metric; returns True when training should stop."""
        if not np.isfinite(metric):
            raise NumericError(f"early stopping metric is not finite: {metric}")
        improved = metric > self.best if self.mode == "max" else metric < self.best
        if improved:
            self.best = metric
            self.since_improvement = 0
        else:
            self.since_improvement += 1
        return self.since_improvement > self.patience
