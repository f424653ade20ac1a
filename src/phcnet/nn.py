"""Real-valued network primitives surrounding PHC layers.

Residual blocks follow y = ReLU(F(x) + skip(x)) with
F = BN(PHC(ReLU(BN(PHC(x))))); the refiner variant uses the 1x1 -> 3x3 ->
1x1 bottleneck design with mid channels = out/4.  Every BN(PHC(x)) pair
runs through :func:`conv_bn`: in train mode a conv node and one batch-norm
node that also carries the residual add and the ReLU, in blocks of channels
shared with the conv worker.  Backward recomputes x̂ from the conv's output
and the conv's im2col layout from its input, so a pair holds exactly two
full-size arrays, its outputs, and the conv none.  The backward frees them
as it passes the pair, unless the caller holds them: the batch norm's output
once the batch norm's rule has run, and the conv's once the conv's has.  In
eval mode the conv folds the batch norm in.  Every layer with parameters,
here and in :mod:`.phc`, passes its parameters' values, not the Parameter
nodes, to autograd in eval mode, so an eval forward keeps a graph exactly
when its input requires grad.  Losses are computed in numerically stable
softplus/log-sum-exp form.  Adam applies decoupled weight decay
(theta *= 1 - lr*lambda before the moment update).
"""

from __future__ import annotations

import functools

import numpy as np

from . import autograd as ag
from . import tensor as T
from .errors import ConfigError, ContractError, DataError, ShapeError
from .module import Module, Parameter
from .phc import PHCConv2d

BN_MOMENTUM = 0.1  # weight of the batch statistics in the running estimates
BN_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8
# bytes of one full-size array per batch-norm block: faster than 128 KiB to 1 MiB
_BN_BLOCK_BYTES = 1 << 19


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
    a float64 copy of the arrays or a product array.  Rows are summed, then
    images in order, so a block of channels, even of one, gives the same bits.
    """
    _, _, h, w = a.shape
    rows = h * w > 256
    partial = np.einsum("nchw,nchw->nch" if rows else "nchw,nchw->nc", a, b)
    if rows:
        partial = partial.sum(axis=2, dtype=np.float64)
    return np.add.accumulate(partial, axis=0, dtype=np.float64)[-1]


class _Channels:
    """A :func:`tensor._run` loop over blocks of whole channels, at least one,
    of about ``_BN_BLOCK_BYTES`` of an array of ``shape``: chunk k runs
    ``block(its channels, the side's buffer)``, of one block if ``buffered``."""

    def __init__(self, shape, dtype, block, buffered=False):
        plane = shape[0] * shape[2] * shape[3]
        self.width = max(_BN_BLOCK_BYTES // (plane * np.dtype(dtype).itemsize), 1)
        self.count, self.dtype, self.block = -(-shape[1] // self.width), dtype, block
        self.size = plane * min(self.width, shape[1]) if buffered else 0

    def chunk(self, k, buf):
        self.block(slice(k * self.width, (k + 1) * self.width), buf)


class Linear(Module):
    """Plain real dense layer used for classification heads.  In eval mode
    its weight and bias enter autograd as constants."""

    def __init__(self, in_features, out_features, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(out_features, in_features)).astype(np.float32)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32))

    def forward(self, x):
        if self.training:
            return ag.linear(x, self.weight, self.bias)
        return ag.linear(x, self.weight.value, self.bias.value)


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes with the biased batch statistics over the
    m = N*H*W values of each channel, x̂ = (x - μ)/σ with σ = √(var + BN_EPS),
    returns γ·x̂ + β, plus ``skip`` if given, then ReLU if ``relu``, and then
    folds μ and var into the running estimates with weight BN_MOMENTUM, so a
    forward that fails leaves them.  Its input gradient is the Ioffe–Szegedy
    rule rearranged into three terms with per-channel factors,

        dx = g·k₁ - x̂·k₂ - k₃,  k₁ = γ/σ,  k₂ = k₁·dγ/m,  k₃ = k₁·dβ/m,

    where dγ = Σ g·x̂ and dβ = Σ g for g masked by the ReLU; ``skip`` gets
    the masked g.  Forward centres x into a new array and runs every later
    step in place on it, so the node keeps no full-size array but its
    output.  Backward recomputes x̂ from x by the forward's own ops, so the
    results equal those of separate add and ReLU nodes bit for bit, and x
    must not be written between forward and backward.  Each is one loop over
    blocks of channels (:class:`_Channels`) shared with the conv worker, with
    the same ops in the same order.

    Eval mode has no op of its own: the layer is the per-channel affine map
    x·a + b of :meth:`affine`, with a = γ/√(running_var + BN_EPS) and
    b = β - running_mean·a, and :func:`conv_bn` folds it into the preceding
    conv.  Calling the layer in eval mode raises ContractError.

    Channel sums and per-channel factors are formed in float64; every
    full-size array stays in the input's dtype.
    """

    def __init__(self, channels, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval mode's per-channel map x·a + b, as float64 (a, b)."""
        a = self.gamma.value.astype(np.float64) * (
            1.0 / np.sqrt(self.running_var.astype(np.float64) + BN_EPS))
        return a, self.beta.value - self.running_mean.astype(np.float64) * a

    def forward(self, x: ag.Node, skip: ag.Node | None = None,
                relu: bool = False) -> ag.Node:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects (N,{self.channels},H,W), got {x.shape}")
        if skip is not None and skip.shape != x.shape:
            raise ShapeError(f"batchnorm: skip shape {skip.shape} != input shape {x.shape}")
        if not self.training:
            raise ContractError("batchnorm has no eval-mode op: conv_bn folds it "
                                "into the preceding conv")
        gamma, beta, dtype = self.gamma, self.beta, x.dtype
        exp = lambda v: v.astype(dtype, copy=False)[None, :, None, None]
        m = x.shape[0] * x.shape[2] * x.shape[3]
        mu, var, inv_std = (np.empty(self.channels) for _ in range(3))
        out = np.empty(x.shape, dtype=dtype)

        def forward(c, _):
            mu[c] = _channel_sum(x.value[:, c]) / m
            o = np.subtract(x.value[:, c], exp(mu[c]), out=out[:, c])
            var[c] = _channel_dot(o, o) / m
            inv_std[c] = 1.0 / np.sqrt(var[c] + BN_EPS)
            o *= exp(inv_std[c])
            o *= exp(gamma.value[c])
            o += exp(beta.value[c])
            if skip is not None:
                o += skip.value[:, c]
            if relu:
                np.maximum(o, 0, out=o)

        T._run([_Channels(x.shape, dtype, forward)])
        self.running_mean[...] = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mu
        self.running_var[...] = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var

        def rule(g):
            gm = np.empty(g.shape, dtype=g.dtype) if relu else g  # g masked as ag.relu does
            dx = np.empty(x.shape, dtype=dtype)  # x̂, then dx in place
            dgamma, dbeta = np.empty(self.channels), np.empty(self.channels)

            def backward(c, buf):
                gc, xhat = gm[:, c], dx[:, c]
                if relu:
                    np.multiply(np.greater(out[:, c], 0, out=gc), g[:, c], out=gc)
                np.subtract(x.value[:, c], exp(mu[c]), out=xhat)
                xhat *= exp(inv_std[c])
                dgamma[c], dbeta[c] = _channel_dot(gc, xhat), _channel_sum(gc)
                if x.requires_grad:
                    k1 = gamma.value[c].astype(np.float64) * inv_std[c]
                    # the two small terms first, so g·k1 meets one rounding less
                    xhat *= exp(k1 * dgamma[c] / m)
                    xhat += exp(k1 * dbeta[c] / m)
                    gk1 = np.multiply(gc, exp(k1), out=buf[: xhat.size].reshape(xhat.shape))
                    np.subtract(gk1, xhat, out=xhat)

            T._run([_Channels(x.shape, dtype, backward, buffered=True)])
            return (dx if x.requires_grad else None,
                    dgamma.astype(dtype) if gamma.requires_grad else None,
                    dbeta.astype(dtype) if beta.requires_grad else None, gm)

        parents = (x, gamma, beta) if skip is None else (x, gamma, beta, skip)
        return ag.Node(out, parents, rule)


def conv_bn(layers, xs, skips=None, relu=True) -> list[ag.Node]:
    """bn(conv(x)) for each side's (conv, bn) in ``layers`` and input in
    ``xs``, plus its entry of ``skips`` if given, then ReLU if ``relu``: one
    node per side.  The sides' layers are built alike and share one mode.

    Train mode is, per side, a conv node and one :class:`BatchNorm2d` node
    that carries the add and the ReLU.  Backward recomputes x̂ from the
    conv's output and the conv's layout from ``x``, so nothing may write
    either in between.

    Eval mode folds the batch norm into the conv.  A forward that keeps a
    graph (an ``x`` requires grad) is, per side, ``conv(x, bn)`` and add and
    ReLU nodes, and carries gradients to ``x`` and the skip only (the skip
    is ``x`` or comes from it).  One that keeps none is one
    :func:`tensor.conv2d_sides` over every side, the skip add and the ReLU
    its last steps: one side shares its chunks with the conv worker, and two
    sides run side by side, one whole conv per thread.
    """
    skips = [None] * len(xs) if skips is None else skips
    if layers[0][1].training or any(x.requires_grad for x in xs):
        return [_conv_bn_graph(conv, bn, x, skip, relu)
                for (conv, bn), x, skip in zip(layers, xs, skips)]
    outs = T.conv2d_sides([(x.value, *conv.constants(bn), conv.stride,
                            None if skip is None else skip.value, relu)
                           for (conv, bn), x, skip in zip(layers, xs, skips)])
    return [ag.constant(out) for out in outs]


def _conv_bn_graph(conv: PHCConv2d, bn: BatchNorm2d, x, skip, relu) -> ag.Node:
    if bn.training:
        return bn(conv(x), skip, relu)
    h = conv(x, bn)
    h = h if skip is None else ag.add(h, skip)
    return ag.relu(h) if relu else h


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
        seeds = _seeds(seed, 4)
        conv = functools.partial(PHCConv2d, n, bias=False, scheme=scheme)
        if variant == "basic":
            self.phc1 = conv(in_channels, out_channels, 3, stride=stride, seed=seeds[0])
            self.bn1 = BatchNorm2d(out_channels)
            self.phc2 = conv(out_channels, out_channels, 3, seed=seeds[1])
            self.bn2 = BatchNorm2d(out_channels)
        else:
            mid = out_channels // 4
            if mid == 0 or mid % n:
                raise ConfigError(
                    f"refiner mid channels {mid} not divisible by n={n}"
                )
            self.phc1 = conv(in_channels, mid, 1, stride=stride, seed=seeds[0])
            self.bn1 = BatchNorm2d(mid)
            self.phc2 = conv(mid, mid, 3, seed=seeds[1])
            self.bn2 = BatchNorm2d(mid)
            self.phc3 = conv(mid, out_channels, 1, seed=seeds[2])
            self.bn3 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.proj = conv(in_channels, out_channels, 1, stride=stride, seed=seeds[3])
            self.proj_bn = BatchNorm2d(out_channels)
        else:
            self.proj = None

    def forward(self, x: ag.Node) -> ag.Node:
        return self.sides([self], [x])[0]

    @staticmethod
    def sides(blocks, xs) -> list[ag.Node]:
        """Each of ``blocks``, built alike, on its side's input in ``xs``,
        one :func:`conv_bn` over every side at a time."""
        def layers(conv, bn):
            return [(getattr(block, conv), getattr(block, bn)) for block in blocks]

        first = blocks[0]
        skips = xs if first.proj is None else conv_bn(layers("proj", "proj_bn"), xs, relu=False)
        h = conv_bn(layers("phc1", "bn1"), xs)
        if first.variant == "basic":
            return conv_bn(layers("phc2", "bn2"), h, skips)
        h = conv_bn(layers("phc2", "bn2"), h)
        return conv_bn(layers("phc3", "bn3"), h, skips)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_with_logits(logits: ag.Node, targets, pos_weight: float = 1.0) -> ag.Node:
    """Weighted binary cross entropy, mean over all entries.

    Computed as w*y*softplus(-z) + (1-y)*softplus(z) per entry, which never
    overflows for finite logits.  A logit that is not finite makes the loss
    not finite or an operation on it invalid; the train step's guard
    (:func:`errors.finite`) stops either.
    """
    z = logits.value
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
    """Adam with bias correction, ADAM_BETA1/2, ADAM_EPS and decoupled weight decay."""

    def __init__(self, params, lr=1e-3, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        """Update every parameter or none: every new value and moment is computed
        before any is written, so a NumericError on the way changes nothing."""
        t = self.step_count + 1
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        new = []
        for p, m, v in zip(self.params, self._m, self._v):
            value, g = p.value * (1.0 - self.lr * self.weight_decay), p.grad
            if g is not None:
                m = m * ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v = v * ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * (g * g)
                value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            new.append((value, m, v))
        for p, (value, _, _) in zip(self.params, new):
            p.value[...] = value
        self._m, self._v = [m for _, m, _ in new], [v for _, _, v in new]
        self.step_count = t
