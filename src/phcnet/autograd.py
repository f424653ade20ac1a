"""Reverse-mode automatic differentiation over numpy tensors.

A :class:`Node` wraps an array value together with its parents and a
backward rule.  Graphs are DAGs built eagerly by the op functions below;
:func:`backward` traverses them once in reverse topological order,
accumulating gradients by summation across fan-out, then frees the graph.

:func:`grad_check` compares analytic gradients against central finite
differences and is the universal correctness oracle for every layer type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError, ShapeError
from . import tensor as T


class Node:
    """One value in the computation graph.

    ``backward_rule(grad)`` returns one gradient array (or None) per parent,
    in parent order.  Leaves created with ``requires_grad=True`` collect
    their gradient in ``.grad``.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward_rule")

    def __init__(self, value, parents=(), backward_rule=None, requires_grad=None):
        self.value = T.as_tensor(value)
        self._parents = tuple(parents)
        self._backward_rule = backward_rule
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in self._parents)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Node(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; the real work happens in the module-level functions
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Node) else scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def constant(value, dtype=None) -> Node:
    return Node(T.as_tensor(value, dtype=dtype), requires_grad=False)


def _as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node) -> dict[int, np.ndarray]:
    """Backpropagate from a scalar loss; returns {id(leaf): gradient}.

    Gradients land on ``node.grad`` for every requires-grad leaf (existing
    values are accumulated into, matching optimizer zero_grad conventions).
    Interior graph state is freed afterwards.
    """
    if loss.value.ndim != 0:
        raise ContractError(f"backward requires a rank-0 loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    leaf_grads: dict[int, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_rule is None:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.value)
                node.grad += g
                leaf_grads[id(node)] = node.grad
            continue
        parent_grads = node._backward_rule(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            if pg.shape != parent.value.shape:
                raise ShapeError(
                    f"backward rule produced gradient of shape {pg.shape} "
                    f"for value of shape {parent.value.shape}"
                )
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    for node in order:
        if node._backward_rule is not None:
            node._parents = ()
            node._backward_rule = None
    return leaf_grads


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return Node(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    return Node(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    return Node(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def div(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} differ")
    inv = 1.0 / b.value
    return Node(
        a.value * inv,
        (a, b),
        lambda g: (g * inv, -g * a.value * inv * inv),
    )


def scale(a, s) -> Node:
    a = _as_node(a)
    s = a.dtype.type(s)
    return Node(a.value * s, (a,), lambda g: (g * s,))


def add_scalar(a, s) -> Node:
    a = _as_node(a)
    return Node(a.value + a.dtype.type(s), (a,), lambda g: (g,))


def relu(a) -> Node:
    a = _as_node(a)
    out = np.maximum(a.value, 0)
    return Node(out, (a,), lambda g: (g * (out > 0),))  # subgradient at 0 is 0


def sigmoid(a) -> Node:
    a = _as_node(a)
    # stable two-sided form
    v = a.value
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return Node(out, (a,), lambda g: (g * out * (1.0 - out),))


def power(a, p: float) -> Node:
    a = _as_node(a)
    out = a.value ** p
    return Node(out, (a,), lambda g: (g * p * a.value ** (p - 1),))


def nsum(a) -> Node:
    a = _as_node(a)
    return Node(
        a.value.sum(), (a,), lambda g: (np.full_like(a.value, g),)
    )


def nmean(a) -> Node:
    a = _as_node(a)
    inv = 1.0 / a.value.size
    return Node(
        a.value.mean(),
        (a,),
        lambda g: (np.full_like(a.value, g * inv),),
    )


def reshape(a, shape) -> Node:
    a = _as_node(a)
    orig = a.shape
    return Node(
        a.value.reshape(shape),
        (a,),
        lambda g: (np.ascontiguousarray(g.reshape(orig)),),
    )


def concat(nodes, axis: int = 1) -> Node:
    nodes = [_as_node(n) for n in nodes]
    sizes = [n.shape[axis] for n in nodes]
    splits = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(
            np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis)
        )

    return Node(np.concatenate([n.value for n in nodes], axis=axis), nodes, rule)


def narrow(a, start: int, stop: int, axis: int = 1) -> Node:
    """Contiguous slice along one axis."""
    a = _as_node(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def rule(g):
        full = np.zeros_like(a.value)
        full[index] = g
        return (full,)

    return Node(np.ascontiguousarray(a.value[index]), (a,), rule)


def matmul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    out = T.matmul(a.value, b.value)
    return Node(out, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def linear(x, w, b=None) -> Node:
    """Dense layer y = x @ w.T (+ b) for x (N,Din), w (Dout,Din), b (Dout)."""
    x, w = _as_node(x), _as_node(w)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    if b is None:
        return Node(
            x.value @ w.value.T,
            (x, w),
            lambda g: (g @ w.value, g.T @ x.value),
        )
    b = _as_node(b)
    return Node(
        x.value @ w.value.T + b.value,
        (x, w, b),
        lambda g: (g @ w.value, g.T @ x.value, g.sum(axis=0)),
    )


def conv2d(x, w, b=None, stride=1, padding=0) -> Node:
    """Differentiable conv2d; shares tensor.conv2d's forward bit for bit."""
    x, w = _as_node(x), _as_node(w)
    b = None if b is None else _as_node(b)
    out, cols = T.conv2d_forward(x.value, w.value, None if b is None else b.value,
                                 stride, padding)

    def rule(g):
        gx, gw = T.conv2d_backward(g, cols, w.value, x.shape, stride, padding,
                                   x.requires_grad, w.requires_grad)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return Node(out, (x, w) if b is None else (x, w, b), rule)


def kron(a, b) -> Node:
    """Differentiable Kronecker product (rank-2 a, rank>=2 b)."""
    a, b = _as_node(a), _as_node(b)
    out = T.kron(a.value, b.value)
    p, q = a.shape
    r, s = b.shape[:2]
    b_flat = b.value.reshape(r, s, -1)

    def rule(g):
        g5 = g.reshape(p, r, q, s, -1)
        ga = np.einsum("iujvk,uvk->ij", g5, b_flat) if a.requires_grad else None
        gb = (
            np.einsum("iujvk,ij->uvk", g5, a.value).reshape(b.shape)
            if b.requires_grad
            else None
        )
        return ga, gb

    return Node(out, (a, b), rule)


def kron_sum(a, f) -> Node:
    """Batched sum of Kronecker products: sum_i kron(a[i], f[i]).

    ``a`` has shape (n, p, q) and ``f`` has shape (n, r, s, *spatial); the
    result has shape (p*r, q*s, *spatial).  This is the single contraction
    behind hypercomplex weight construction.
    """
    a, f = _as_node(a), _as_node(f)
    if a.ndim != 3 or f.ndim < 3:
        raise ShapeError(f"kron_sum: got shapes {a.shape} and {f.shape}")
    if a.shape[0] != f.shape[0]:
        raise ShapeError(f"kron_sum: leading extents differ: {a.shape} vs {f.shape}")
    n, p, q = a.shape
    r, s = f.shape[1:3]
    spatial = f.shape[3:]
    f_flat = f.value.reshape(n, r, s, -1)
    out = np.einsum("nij,nuvk->iujvk", a.value, f_flat)
    out = np.ascontiguousarray(out.reshape(p * r, q * s, *spatial))

    def rule(g):
        g5 = g.reshape(p, r, q, s, -1)
        ga = (
            np.ascontiguousarray(np.einsum("iujvk,nuvk->nij", g5, f_flat))
            if a.requires_grad
            else None
        )
        gf = (
            np.ascontiguousarray(
                np.einsum("iujvk,nij->nuvk", g5, a.value).reshape(f.shape)
            )
            if f.requires_grad
            else None
        )
        return ga, gf

    return Node(out, (a, f), rule)


def global_avg_pool(x) -> Node:
    x = _as_node(x)
    n, c, h, w = x.shape
    inv = 1.0 / (h * w)
    return Node(
        x.value.mean(axis=(2, 3)),
        (x,),
        lambda g: (np.broadcast_to(g[:, :, None, None] * inv, x.shape).copy(),),
    )


def max_pool2d(x, size: int = 2) -> Node:
    x = _as_node(x)
    pooled, idx = T.max_pool2d(x.value, size)
    n, c, ho, wo = pooled.shape

    def rule(g):
        flat = np.zeros((n, c, ho, wo, size * size), dtype=g.dtype)
        np.put_along_axis(flat, idx[..., None], g[..., None], axis=-1)
        windows = flat.reshape(n, c, ho, wo, size, size).transpose(0, 1, 2, 4, 3, 5)
        return (np.ascontiguousarray(windows.reshape(x.shape)),)

    return Node(pooled, (x,), rule)


def upsample_nearest(x, factor: int = 2) -> Node:
    x = _as_node(x)
    n, c, h, w = x.shape

    def rule(g):
        blocks = g.reshape(n, c, h, factor, w, factor)
        return (np.ascontiguousarray(blocks.sum(axis=(3, 5))),)

    return Node(T.upsample_nearest(x.value, factor), (x,), rule)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradReport:
    """Outcome of one finite-difference gradient check."""

    max_rel_error: float
    tolerance: float
    per_param: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def grad_check(f, params, h: float = 1e-6, tol: float = 1e-5,
               min_coords: int = 64, seed: int = 0) -> GradReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` is a zero-argument callable returning a scalar Node, closing over
    ``params`` (a mapping name -> leaf Node with requires_grad).  For each
    parameter, every coordinate is tested when the tensor is small, else
    ``min_coords`` coordinates are sampled.  The relative error uses a 1e-2
    denominator floor so finite-difference noise on near-zero coordinates
    does not dominate the report.
    """
    if isinstance(params, (list, tuple)):
        params = {f"param{i}": p for i, p in enumerate(params)}
    for p in params.values():
        p.grad = None
    loss = f()
    if not np.isfinite(loss.value):
        raise NumericError("grad_check: non-finite loss at the base point")
    backward(loss)
    analytic = {
        name: (p.grad if p.grad is not None else np.zeros_like(p.value))
        for name, p in params.items()
    }

    rng = np.random.default_rng(seed)
    per_param = {}
    for name, p in params.items():
        flat = p.value.reshape(-1)
        size = flat.size
        if size <= min_coords:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=min_coords, replace=False)
        worst = 0.0
        a_flat = analytic[name].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            f_plus = float(f().value)
            flat[c] = orig - h
            f_minus = float(f().value)
            flat[c] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"grad_check: non-finite loss perturbing {name}")
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(a_flat[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-2)
            worst = max(worst, err)
        per_param[name] = worst
    max_err = max(per_param.values()) if per_param else 0.0
    return GradReport(max_rel_error=max_err, tolerance=tol, per_param=per_param)
