"""Parameterized hypercomplex layers.

The weight of a PHC convolution (or PHM dense layer) of order ``n`` is a
learnable sum of Kronecker products

    W = sum_i  A[i] (x) F[i],      i = 0..n-1

where the n algebra matrices A (n x n each) encode how the n filter banks
F are arranged across input/output channel blocks.  With the fixed
quaternion algebra and n=4 this reproduces the Hamilton-product sign block
structure exactly; with n=1 and A=[[1]] it degenerates to an ordinary
real-valued layer.  Both A and F are trained.

``hamilton_conv`` builds the explicit 4x4 sign-block weight and serves as
the independent oracle the n=4 path is verified against.
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from . import tensor as T
from .errors import ConfigError, ShapeError
from .module import Module, Parameter


def real_algebra() -> np.ndarray:
    return np.ones((1, 1, 1), dtype=np.float32)


def complex_algebra() -> np.ndarray:
    """2x2 matrix representation of multiplication by 1 and by i."""
    a = np.zeros((2, 2, 2), dtype=np.float32)
    a[0] = np.eye(2)
    a[1] = [[0.0, -1.0], [1.0, 0.0]]
    return a


def quaternion_algebra() -> np.ndarray:
    """Left-multiplication matrices of 1, i, j, k.

    Substituted as A with n=4, these reproduce the quaternion convolution
    sign block pattern
        [[W0, -W1, -W2, -W3],
         [W1,  W0, -W3,  W2],
         [W2,  W3,  W0, -W1],
         [W3, -W2,  W1,  W0]].
    """
    a = np.zeros((4, 4, 4), dtype=np.float32)
    a[0] = np.eye(4)
    a[1] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    a[2] = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    a[3] = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    return a


_FIXED_ALGEBRAS = {1: real_algebra, 2: complex_algebra, 4: quaternion_algebra}


def fixed_algebra(n: int) -> np.ndarray:
    try:
        return _FIXED_ALGEBRAS[n]()
    except KeyError:
        raise ConfigError(
            f"no fixed algebra for n={n}; supported: {sorted(_FIXED_ALGEBRAS)}"
        ) from None


class PHCConv2d(Module):
    """Hypercomplex 2D convolution with weight W = sum_i A[i] (x) F[i].

    Parameters: A of shape (n, n, n) and F of shape
    (n, out/n, in/n, kh, kw), so the layer holds n^3 + out*in*kh*kw/n
    weights against out*in*kh*kw for its real-valued counterpart.
    """

    def __init__(self, n, in_channels, out_channels, kernel_size,
                 stride=1, padding=0, bias=True, scheme="fixed-algebra",
                 seed=0, dtype=np.float32):
        super().__init__()
        if n < 1:
            raise ConfigError(f"order n must be >= 1, got {n}")
        if in_channels % n or out_channels % n:
            raise ConfigError(
                f"channels ({in_channels} -> {out_channels}) must be divisible by n={n}"
            )
        self.n = n
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = T._pair(kernel_size)
        self.stride = T._pair(stride)
        self.padding = T._pair(padding)
        kh, kw = self.kernel_size
        self.A = Parameter(np.zeros((n, n, n), dtype=dtype))
        self.F = Parameter(
            np.zeros((n, out_channels // n, in_channels // n, kh, kw), dtype=dtype)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype)) if bias else None
        init_layer(self, seed, scheme)

    def build_weight(self) -> ag.Node:
        """Materialize the full (out, in, kh, kw) weight; differentiable in A and F."""
        return ag.kron_sum(self.A, self.F)

    def forward(self, x: ag.Node) -> ag.Node:
        return ag.conv2d(x, self.build_weight(), self.bias,
                         stride=self.stride, padding=self.padding)


class PHMLinear(Module):
    """Hypercomplex dense layer, the fully connected analogue of PHCConv2d."""

    def __init__(self, n, in_features, out_features, bias=True,
                 scheme="fixed-algebra", seed=0, dtype=np.float32):
        super().__init__()
        if n < 1:
            raise ConfigError(f"order n must be >= 1, got {n}")
        if in_features % n or out_features % n:
            raise ConfigError(
                f"features ({in_features} -> {out_features}) must be divisible by n={n}"
            )
        self.n = n
        self.in_features = in_features
        self.out_features = out_features
        self.A = Parameter(np.zeros((n, n, n), dtype=dtype))
        self.F = Parameter(
            np.zeros((n, out_features // n, in_features // n), dtype=dtype)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype)) if bias else None
        init_layer(self, seed, scheme)

    def build_weight(self) -> ag.Node:
        return ag.kron_sum(self.A, self.F)

    def forward(self, x: ag.Node) -> ag.Node:
        w = self.build_weight()
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"expected {self.in_features} input features, got {x.shape[1]}"
            )
        return ag.linear(x, w, self.bias)


def init_layer(layer, seed: int = 0, scheme: str = "fixed-algebra"):
    """(Re)initialize a PHC/PHM layer in place and return it.

    F is Kaiming-uniform over the materialized fan-in (in_channels*kh*kw);
    the fixed-algebra scheme sets A to the canonical real/complex/quaternion
    sign matrices (n in {1, 2, 4}), random-algebra draws A uniformly from
    [-1/n, 1/n].  A stays trainable under both schemes.
    """
    rng = np.random.default_rng(seed)
    n = layer.n
    dtype = layer.F.value.dtype
    if isinstance(layer, PHCConv2d):
        kh, kw = layer.kernel_size
        fan_in = layer.in_channels * kh * kw
    else:
        fan_in = layer.in_features
    bound = math.sqrt(6.0 / fan_in)
    layer.F.value[...] = rng.uniform(-bound, bound, size=layer.F.shape).astype(dtype)
    if scheme == "fixed-algebra":
        layer.A.value[...] = fixed_algebra(n).astype(dtype)
    elif scheme == "random-algebra":
        layer.A.value[...] = rng.uniform(-1.0 / n, 1.0 / n, size=(n, n, n)).astype(dtype)
    else:
        raise ConfigError(f"unknown init scheme {scheme!r}")
    if layer.bias is not None:
        layer.bias.value[...] = 0.0
    return layer


def param_count(layer) -> int:
    """Actual trainable scalar count of one PHC/PHM layer."""
    return sum(p.value.size for p in layer.parameters())


def real_equivalent_count(layer) -> int:
    """Parameter count of the real-valued layer with the same geometry."""
    if isinstance(layer, PHCConv2d):
        kh, kw = layer.kernel_size
        count = layer.out_channels * layer.in_channels * kh * kw
        if layer.bias is not None:
            count += layer.out_channels
        return count
    count = layer.out_features * layer.in_features
    if layer.bias is not None:
        count += layer.out_features
    return count


def param_ratio(layer) -> float:
    """param_count over the real-valued equivalent; approaches 1/n."""
    return param_count(layer) / real_equivalent_count(layer)


# ---------------------------------------------------------------------------
# quaternion oracle (plain numpy; independent of the kron_sum path)
# ---------------------------------------------------------------------------

def hamilton_weight(w0, w1, w2, w3) -> np.ndarray:
    """Explicit quaternion sign-block weight from four (d,c,kh,kw) banks."""
    w0, w1, w2, w3 = (T.as_tensor(w) for w in (w0, w1, w2, w3))
    if not (w0.shape == w1.shape == w2.shape == w3.shape):
        raise ShapeError("hamilton_weight: the four banks must share one shape")
    rows = [
        np.concatenate([w0, -w1, -w2, -w3], axis=1),
        np.concatenate([w1, w0, -w3, w2], axis=1),
        np.concatenate([w2, w3, w0, -w1], axis=1),
        np.concatenate([w3, -w2, w1, w0], axis=1),
    ]
    return np.concatenate(rows, axis=0)


def hamilton_conv(x, w0, w1, w2, w3, bias=None, stride=1, padding=0) -> np.ndarray:
    """Quaternion convolution via the explicit block weight (test oracle)."""
    x = T.as_tensor(x)
    if x.shape[1] % 4:
        raise ShapeError(f"hamilton_conv needs 4c input channels, got {x.shape[1]}")
    weight = hamilton_weight(w0, w1, w2, w3)
    if weight.shape[1] != x.shape[1]:
        raise ShapeError(
            f"hamilton_conv channel mismatch: weight {weight.shape[1]}, input {x.shape[1]}"
        )
    return T.conv2d(x, weight, bias, stride=stride, padding=padding)
