"""Reverse-mode automatic differentiation over numpy tensors.

A :class:`Node` wraps an array value together with its parents and a
backward rule.  Graphs are DAGs built eagerly by the op functions below;
:func:`backward` traverses them once in reverse topological order,
accumulating gradients by summation across fan-out, then frees the graph.
An op output requires grad iff an input does; an eval-mode module passes its
parameters' values, so its forward keeps a graph iff its input requires grad.

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
    their gradient in ``.grad``.  Unless ``requires_grad`` is given, a node
    requires grad iff one of its parents does.  A node that does not keeps
    no parents and no rule, so its inputs are freed with it.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward_rule")

    def __init__(self, value, parents=(), backward_rule=None, requires_grad=None):
        self.value = T.as_tensor(value)
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad
        self._parents = tuple(parents) if requires_grad else ()
        self._backward_rule = backward_rule if requires_grad else None
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


def constant(value) -> Node:
    return Node(T.as_tensor(value), requires_grad=False)


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


def backward(loss: Node) -> None:
    """Backpropagate from a scalar loss.

    Gradients land on ``node.grad`` for every requires-grad leaf (existing
    values are accumulated into, matching optimizer zero_grad conventions).
    Interior graph state is freed afterwards.
    """
    if loss.value.ndim != 0:
        raise ContractError(f"backward requires a rank-0 loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_rule is None:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.value)
                node.grad += g
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


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return Node(a.value + b.value, (a, b), lambda g: (g, g))


def mul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    return Node(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def relu(a) -> Node:
    a = _as_node(a)
    out = np.maximum(a.value, 0)
    return Node(out, (a,), lambda g: (g * (out > 0),))  # subgradient at 0 is 0


def stable_sigmoid(v: np.ndarray) -> np.ndarray:
    """Sigmoid of a plain array in the two-sided form that never overflows."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


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
        lambda g: (np.ascontiguousarray(g).reshape(orig),),
    )


def concat(nodes) -> Node:
    """Join nodes along the channel axis."""
    nodes = [_as_node(n) for n in nodes]
    splits = np.cumsum([n.shape[1] for n in nodes])[:-1]

    def rule(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=1))

    return Node(np.concatenate([n.value for n in nodes], axis=1), nodes, rule)


def narrow(a, start: int, stop: int) -> Node:
    """Channels ``start`` to ``stop`` of ``a``."""
    a = _as_node(a)

    def rule(g):
        full = np.zeros_like(a.value)
        full[:, start:stop] = g
        return (full,)

    return Node(np.ascontiguousarray(a.value[:, start:stop]), (a,), rule)


def linear(x, w, b) -> Node:
    """Dense layer y = x @ w.T + b for x (N,Din), w (Dout,Din), b (Dout)."""
    x, w, b = _as_node(x), _as_node(w), _as_node(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    return Node(
        x.value @ w.value.T + b.value,
        (x, w, b),
        lambda g: (g @ w.value, g.T @ x.value, g.sum(axis=0)),
    )


def conv2d(x, w, b=None, stride=1, padding=0) -> Node:
    """Differentiable tensor.conv2d.  The node keeps no im2col layout: only a
    weight gradient needs one, and the rule rebuilds it from ``x.value``, so
    nothing may write x between forward and backward.  Only a conv that keeps
    a graph may share its forward with the conv worker (``tensor.conv2d``)."""
    x, w = _as_node(x), _as_node(w)
    b = None if b is None else _as_node(b)
    parents = (x, w) if b is None else (x, w, b)
    out = T.conv2d(x.value, w.value, None if b is None else b.value, stride, padding,
                   keeps_graph=any(p.requires_grad for p in parents))

    def rule(g):
        gx, gw = T.conv2d_backward(g, x.value, w.value, stride, padding,
                                   x.requires_grad, w.requires_grad)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return Node(out, parents, rule)


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


def _rank4(name, x) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} expects rank-4 input, got rank {x.ndim}")


def global_avg_pool(x) -> Node:
    x = _as_node(x)
    _rank4("global_avg_pool", x)
    n, c, h, w = x.shape
    inv = 1.0 / (h * w)
    return Node(
        x.value.mean(axis=(2, 3)),
        (x,),
        lambda g: (np.broadcast_to(g[:, :, None, None] * inv, x.shape).copy(),),
    )


# index of each of the four strided views x[..., dy::2, dx::2] of a 2x2 window, row-major
_PHASES = [(..., slice(dy, None, 2), slice(dx, None, 2)) for dy in (0, 1) for dx in (0, 1)]


def max_pool2d(x) -> Node:
    """Non-overlapping max pooling over 2x2 windows.

    On a tie the whole gradient goes to the window's first maximum in
    row-major order, as argmax picks it; the rest of the window gets zero.
    """
    x = _as_node(x)
    _rank4("max_pool2d", x)
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2d: extents {h}x{w} not divisible by 2")
    views = [x.value[index] for index in _PHASES]
    pooled = views[0].copy()
    for view in views[1:]:
        # np.maximum returns its second argument on a tie of -0.0 and +0.0, so
        # the earlier view's zero is kept, as argmax's first maximum is
        np.maximum(view, pooled, out=pooled)

    def rule(g):
        # g's bits times the 0/1 mask: g where hit, +0.0 elsewhere, as a float
        # product would give -0.0 for a negative g
        bits = np.dtype(f"u{g.itemsize}")
        grad = np.empty(x.shape, dtype=g.dtype)
        taken = np.zeros(pooled.shape, dtype=bool)  # windows whose maximum has its gradient
        for index, view in zip(_PHASES, views):
            hit = np.equal(view, pooled)
            np.greater(hit, taken, out=hit)
            np.multiply(g.view(bits), hit, out=grad[index].view(bits))
            taken |= hit
        return (grad,)

    return Node(pooled, (x,), rule)


def upsample_nearest(x) -> Node:
    """Nearest-neighbour 2x upsampling of an (N, C, H, W) node."""
    x = _as_node(x)
    _rank4("upsample_nearest", x)
    n, c, h, w = x.shape
    first, *rest = _PHASES
    out = np.empty((n, c, 2 * h, 2 * w), dtype=x.dtype)
    for index in _PHASES:
        out[index] = x.value

    def rule(g):
        grad = g[first].copy()
        for index in rest:
            grad += g[index]
        return (grad,)

    return Node(out, (x,), rule)


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
