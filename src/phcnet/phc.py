"""Parameterized hypercomplex layers.

The weight of a PHC convolution of order ``n`` is a learnable sum of
Kronecker products

    W = sum_i  A[i] (x) F[i],      i = 0..n-1

where the n algebra matrices A (n x n each) encode how the n filter banks
F are arranged across input/output channel blocks.  With the fixed
quaternion algebra and n=4 this reproduces the Hamilton-product sign block
structure exactly; with n=1 and A=[[1]] it degenerates to an ordinary
real-valued convolution.  Both A and F are trained, A from the units of
``_FIXED_ALGEBRAS`` or at random.  A PHC conv is a "same" conv: an odd
kernel, padded by k // 2 (``tensor._layout`` checks it).  An eval-mode conv
runs on constant arrays, :meth:`PHCConv2d.constants`, with an eval-mode
batch norm folded in if one is given; :func:`eval_pass` builds them once.

``hamilton_weight`` builds the explicit 4x4 sign-block weight and serves as
the independent oracle the n=4 path is verified against; a quaternion conv
by it is ``tensor.conv2d(x, hamilton_weight(...), bias, stride)``.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import autograd as ag
from . import tensor as T
from .errors import ConfigError, ShapeError, in_range
from .module import Module, Parameter

_pass_constants = None  # {(conv, bn): (w, b)} inside eval_pass, else None


# The left-multiplication matrices of the units 1; 1, i; and 1, i, j, k of
# the real numbers, the complex numbers and the quaternions.  Substituted as
# A with n=4, the quaternion units reproduce the quaternion convolution sign
# block pattern
#     [[W0, -W1, -W2, -W3],
#      [W1,  W0, -W3,  W2],
#      [W2,  W3,  W0, -W1],
#      [W3, -W2,  W1,  W0]].
_FIXED_ALGEBRAS = {
    1: [[[1]]],
    2: [[[1, 0], [0, 1]],
        [[0, -1], [1, 0]]],
    4: [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]],
}


def fixed_algebra(n: int) -> np.ndarray:
    """The (n, n, n) float32 units of the fixed algebra of order n in {1, 2, 4}."""
    try:
        return np.array(_FIXED_ALGEBRAS[n], dtype=np.float32)
    except KeyError:
        raise ConfigError(
            f"no fixed algebra for n={n}; supported: {sorted(_FIXED_ALGEBRAS)}"
        ) from None


class PHCConv2d(Module):
    """Hypercomplex 2D convolution with weight W = sum_i A[i] (x) F[i].

    Parameters: A of shape (n, n, n) and F of shape
    (n, out/n, in/n, k, k), so the layer holds n^3 + out*in*k*k/n
    weights against out*in*k*k for its real-valued counterpart.

    The k x k kernel must be odd: it is padded by k // 2 ("same" padding),
    as ``tensor.conv2d`` pads every conv, and an even one raises ShapeError
    in the forward.  F is Kaiming-uniform over the
    materialized fan-in (in_channels*k*k); the fixed-algebra scheme sets A
    to the canonical real/complex/quaternion sign matrices (n in {1, 2, 4}),
    random-algebra draws A uniformly from [-1/n, 1/n].  A stays trainable
    under both schemes.  In eval mode the conv runs on the arrays of
    :meth:`constants`.
    """

    def __init__(self, n, in_channels, out_channels, kernel_size, stride=1, bias=True,
                 scheme="fixed-algebra", seed=0, dtype=np.float32):
        super().__init__()
        for name, count in (("n", n), ("in_channels", in_channels),
                            ("out_channels", out_channels)):
            in_range(ConfigError, name, count, 1)
        if in_channels % n or out_channels % n:
            raise ConfigError(
                f"channels ({in_channels} -> {out_channels}) must be divisible by n={n}"
            )
        self.n = n
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = k = in_range(ConfigError, "kernel_size", kernel_size, 1)
        self.stride = stride
        rng = np.random.default_rng(seed)
        bound = math.sqrt(6.0 / (in_channels * k * k))
        f = rng.uniform(-bound, bound, size=(n, out_channels // n, in_channels // n, k, k))
        if scheme == "fixed-algebra":
            a = fixed_algebra(n)
        elif scheme == "random-algebra":
            a = rng.uniform(-1.0 / n, 1.0 / n, size=(n, n, n))
        else:
            raise ConfigError(f"unknown init scheme {scheme!r}")
        self.A = Parameter(a.astype(dtype))
        self.F = Parameter(f.astype(dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype)) if bias else None

    def build_weight(self) -> ag.Node:
        """Materialize the full (out, in, k, k) weight; differentiable in A and F."""
        return ag.kron_sum(self.A, self.F)

    def constants(self, bn=None) -> tuple[np.ndarray, np.ndarray | None]:
        """The built weight and the bias, as arrays; with an eval-mode batch
        norm ``bn`` whose map is x·a + b (``bn.affine()``), a·W and b, formed in
        float64 and cast once.  Built once per (conv, bn) in :func:`eval_pass`."""
        cache = {} if _pass_constants is None else _pass_constants
        if (self, bn) not in cache:
            w = self.build_weight().value
            if bn is None:
                cache[self, bn] = w, None if self.bias is None else self.bias.value
            else:
                a, b = bn.affine()
                cache[self, bn] = (w * a[:, None, None, None]).astype(w.dtype), b.astype(w.dtype)
        return cache[self, bn]

    def forward(self, x: ag.Node, bn=None) -> ag.Node:
        """conv(x); in eval mode with the eval-mode batch norm ``bn`` folded in.
        Train mode takes no ``bn``: it runs as ``bn(conv(x))``."""
        w, b = (self.build_weight(), self.bias) if self.training else self.constants(bn)
        return ag.conv2d(x, w, b, stride=self.stride)


@contextlib.contextmanager
def eval_pass():
    """One pass over eval batches, in which no parameter or buffer changes:
    constants are built once and dropped on exit.  Nested passes start empty."""
    global _pass_constants
    previous, _pass_constants = _pass_constants, {}
    try:
        yield
    finally:
        _pass_constants = previous


def real_equivalent_count(layer: PHCConv2d) -> int:
    """Parameter count of the real-valued convolution with the same geometry."""
    count = layer.out_channels * layer.in_channels * layer.kernel_size**2
    return count + (layer.out_channels if layer.bias is not None else 0)


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
