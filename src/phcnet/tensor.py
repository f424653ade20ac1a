"""Dense tensor kernel.

Tensors are contiguous row-major ``numpy.ndarray`` values of dtype float32
(training default) or float64 (used to tighten gradient checks).  All
functions here are pure: they never mutate their inputs, and every shape
violation raises a recoverable :class:`ShapeError`.

``conv2d`` follows cross-correlation semantics (no kernel flip).  ``im2col``
pads the input and splits it into its stride phases, channel-major with the
batch folded into one flat axis, (Sh, Sw, C, N*Hq*Wq).  Every kernel tap is
then a contiguous shifted slice of one phase, so the forward, the input
gradient and the weight gradient are each one GEMM per tap, computed on the
padded grid and cropped; ``col2im``, the exact adjoint of ``im2col``, folds
an input gradient back.  ``conv2d_naive`` is the sliding-window reference
kept as a test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

DEFAULT_DTYPE = np.float32
SUPPORTED_DTYPES = (np.float32, np.float64)


def as_tensor(x, dtype=None) -> np.ndarray:
    """Coerce ``x`` to a contiguous float32/float64 array (rank 0 preserved)."""
    arr = np.asarray(x)
    if dtype is None:
        dtype = arr.dtype if arr.dtype in SUPPORTED_DTYPES else DEFAULT_DTYPE
    arr = np.asarray(arr, dtype=dtype)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


def _pair(v) -> tuple[int, int]:
    if np.isscalar(v):
        return int(v), int(v)
    a, b = v
    return int(a), int(b)


# ---------------------------------------------------------------------------
# Kronecker product (test oracle for kron_sum)
# ---------------------------------------------------------------------------

def kron(a, b) -> np.ndarray:
    """Kronecker product of a rank-2 ``a`` with the two leading axes of ``b``.

    ``a`` has shape (p, q); ``b`` has shape (r, s, *spatial) with the two
    leading axes treated as output/input channel axes.  The result has shape
    (p*r, q*s, *spatial):

        out[i*r+u, j*s+v, ...] = a[i, j] * b[u, v, ...]
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2:
        raise ShapeError(f"kron: first operand must be rank-2, got rank {a.ndim}")
    if b.ndim < 2:
        raise ShapeError(f"kron: second operand must have rank >= 2, got rank {b.ndim}")
    p, q = a.shape
    r, s = b.shape[:2]
    spatial = b.shape[2:]
    out = np.einsum("ij,uv...->iujv...", a, b)
    return np.ascontiguousarray(out.reshape(p * r, q * s, *spatial))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_output_shape(hw, khw, stride, padding) -> tuple[int, int]:
    h, w = hw
    kh, kw = khw
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv2d produces empty output: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {(sh, sw)}, padding {(ph, pw)}"
        )
    return ho, wo


def _layout(x_shape, khw, stride, padding):
    """Geometry of the im2col layout and of the per-tap GEMMs over it.

    Padded pixel (r, s) lands in phase (r % Sh, s % Sw) at grid position
    (r // Sh, s // Sw) of an Hq x Wq grid per image; ``phases`` holds, per
    phase (a, b), the strided input slice it stores and its place in the
    grid.  Tap (i, j) of output pixel (y, z) reads phase (i % Sh, j % Sw) at
    (y + i // Sh, z + j // Sw), a fixed flat offset.  Outputs sit at their own
    flat grid index, all below ``span``, so each of ``taps`` (i, j, a, b,
    offset) is one shifted slice of the layout and one GEMM.
    """
    ho, wo = conv_output_shape(x_shape[2:], khw, stride, padding)
    sh, sw = _pair(stride)
    axes = []
    for size, s, p in zip(x_shape[2:], (sh, sw), _pair(padding)):
        firsts = [(a - p) % s for a in range(s)]
        axes.append((-(-(size + 2 * p) // s), [
            (slice(y, None, s), slice((y + p) // s, (y + p) // s + len(range(y, size, s))))
            for y in firsts]))
    (hq, rows), (wq, cols) = axes
    phases = [(a, b, (..., yi, zi), (..., yq, zq))
              for a, (yi, yq) in enumerate(rows) for b, (zi, zq) in enumerate(cols)]
    taps = [(i, j, i % sh, j % sw, (i // sh) * wq + j // sw)
            for i in range(khw[0]) for j in range(khw[1])]
    span = (x_shape[0] - 1) * hq * wq + (ho - 1) * wq + wo
    return (ho, wo), (hq, wq), phases, span, taps


def im2col(x: np.ndarray, khw, stride, padding) -> np.ndarray:
    """Pad (N,C,H,W) and split it into stride phases, (Sh, Sw, C, N*Hq*Wq).

    Each input pixel is stored once, so the layout is about the size of the
    padded input whatever the kernel; the rest of each grid is zero.
    """
    _, (hq, wq), phases, _, _ = _layout(x.shape, khw, stride, padding)
    out = np.zeros((*_pair(stride), x.shape[1], x.shape[0], hq, wq), dtype=x.dtype)
    for a, b, src, dst in phases:
        out[a, b][dst] = x[src].transpose(1, 0, 2, 3)
    return out.reshape(*out.shape[:3], -1)


def col2im(cols: np.ndarray, x_shape, khw, stride, padding) -> np.ndarray:
    """Adjoint of im2col: fold the phases back into (N,C,H,W), dropping the padding."""
    _, (hq, wq), phases, _, _ = _layout(x_shape, khw, stride, padding)
    grid = cols.reshape(*cols.shape[:3], x_shape[0], hq, wq)
    img = np.empty(x_shape, dtype=cols.dtype)
    for a, b, src, dst in phases:
        img[src] = grid[a, b][dst].transpose(1, 0, 2, 3)
    return img


def conv2d_forward(x, weight, bias=None, stride=1, padding=0):
    """conv2d, also returning the im2col layout that conv2d_backward reuses."""
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(
            f"conv2d expects rank-4 input and weight, got {x.ndim} and {weight.ndim}"
        )
    cout, cin, kh, kw = weight.shape
    if x.shape[1] != cin:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[1]}, weight {cin}")
    if bias is not None and np.shape(bias) != (cout,):
        raise ShapeError(f"conv2d bias shape {np.shape(bias)} != ({cout},)")
    (ho, wo), (hq, wq), _, span, taps = _layout(x.shape, (kh, kw), stride, padding)
    cols = im2col(x, (kh, kw), stride, padding)
    w_taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))
    dtype = np.result_type(cols, w_taps)
    grid = np.empty((cout, x.shape[0], hq, wq), dtype=dtype)
    acc, tmp = grid.reshape(cout, -1)[:, :span], np.empty((cout, span), dtype=dtype)
    for t, (i, j, a, b, off) in enumerate(taps):
        np.matmul(w_taps[i, j], cols[a, b, :, off : off + span], out=tmp if t else acc)
        if t:
            acc += tmp
    out = np.empty((x.shape[0], cout, ho, wo), dtype=dtype)
    crop = grid[:, :, :ho, :wo].transpose(1, 0, 2, 3)
    np.add(crop, 0 if bias is None else as_tensor(bias)[None, :, None, None], out=out)
    return out, cols


def conv2d_backward(g, cols, weight, x_shape, stride=1, padding=0,
                    need_x=True, need_w=True):
    """Input and weight gradients of conv2d_forward, given the output gradient."""
    cout, cin, kh, kw = weight.shape
    (ho, wo), (hq, wq), _, span, taps = _layout(x_shape, (kh, kw), stride, padding)
    grid = np.zeros((cout, x_shape[0], hq, wq), dtype=g.dtype)
    grid[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
    g_flat = grid.reshape(cout, -1)[:, :span]
    gx = gw = None
    if need_w:
        gw = np.empty((kh, kw, cout, cin), dtype=np.result_type(g, cols))
        for i, j, a, b, off in taps:
            np.matmul(g_flat, cols[a, b, :, off : off + span].T, out=gw[i, j])
        gw = np.ascontiguousarray(gw.transpose(2, 3, 0, 1))
    if need_x:
        w_taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))
        g_cols = np.zeros(cols.shape, dtype=np.result_type(g, weight))
        tmp = np.empty((cin, span), dtype=g_cols.dtype)
        for i, j, a, b, off in taps:
            g_cols[a, b, :, off : off + span] += np.matmul(w_taps[i, j].T, g_flat, out=tmp)
        gx = col2im(g_cols, x_shape, (kh, kw), stride, padding)
    return gx, gw


def conv2d(x, weight, bias=None, stride=1, padding=0) -> np.ndarray:
    """2D cross-correlation of (N,Cin,H,W) with (Cout,Cin,Kh,Kw) filters.

    One (Cout, Cin) x (Cin, span) GEMM per kernel tap over the im2col layout,
    summed on the flat phase grid and cropped to (N, Cout, Ho, Wo).
    """
    return conv2d_forward(x, weight, bias, stride, padding)[0]


def conv2d_naive(x, weight, bias=None, stride=1, padding=0) -> np.ndarray:
    """Direct sliding-window convolution, kept as an independent test oracle."""
    x, weight = as_tensor(x), as_tensor(weight)
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    ho, wo = conv_output_shape((h, w), (kh, kw), stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[b, o, i, j] = np.sum(patch * weight[o])
    if bias is not None:
        out += as_tensor(bias)[None, :, None, None]
    return out
