"""Dense tensor kernel.

Tensors are contiguous row-major ``numpy.ndarray`` values of dtype float32
(training default) or float64 (used to tighten gradient checks).  All
functions here are pure: they never mutate their inputs, and every shape
violation raises a recoverable :class:`ShapeError`.

``conv2d`` follows cross-correlation semantics (no kernel flip).  ``im2col``
pads the input and splits it into its stride phases, channel-major with the
batch folded into one flat axis, (Sh, Sw, C, N*Hq*Wq).  Every kernel tap is
then a contiguous shifted slice of one phase.  ``_stacked_chunks`` stacks
those slices, one cache-sized chunk of columns at a time, so each chunk is
one GEMM over every tap, written straight into the output.  The backward
stacks the output gradient once per chunk of each phase: the input gradient
writes its GEMM with the weight into that phase, and the weight gradient adds
the stack's product with the same chunk of the layout, which it rebuilds from
the input.  All are computed on the padded grid and cropped; ``col2im``, the
exact adjoint of ``im2col``, folds an input gradient back.
``conv2d_naive`` is the sliding-window reference kept as a test oracle.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=256)
def _layout(x_shape, khw, stride, padding):
    """Geometry of the im2col layout and of the kernel taps' slices of it.

    Padded pixel (r, s) lands in phase (r % Sh, s % Sw) at grid position
    (r // Sh, s // Sw) of an Hq x Wq grid per image.  Tap (i, j) of output
    pixel (y, z) reads phase (i % Sh, j % Sw) at (y + i // Sh, z + j // Sw), a
    fixed flat offset.  Outputs sit at their own flat grid index, all below
    ``span``, so each of ``taps`` (i, j, a, b, offset) is one shifted slice of
    the layout.  ``phases`` holds, per phase (a, b) that some tap reads, the
    strided input slice it stores and its place in the grid; no tap reads the
    others (a strided 1x1 kernel reads one phase), so they stay zero.  The
    geometry depends on the shapes alone, so it is cached, as tuples that no
    caller can change.
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
    taps = tuple((i, j, i % sh, j % sw, (i // sh) * wq + j // sw)
                 for i in range(khw[0]) for j in range(khw[1]))
    read = {(a, b) for _, _, a, b, _ in taps}
    phases = tuple((a, b, (..., yi, zi), (..., yq, zq))
                   for a, (yi, yq) in enumerate(rows) for b, (zi, zq) in enumerate(cols)
                   if (a, b) in read)
    span = (x_shape[0] - 1) * hq * wq + (ho - 1) * wq + wo
    return (ho, wo), (hq, wq), phases, span, taps


# bytes of one stacked chunk; a sweep of 256 KiB to 2 MiB put 1 MiB fastest
_CHUNK_BYTES = 1 << 20
_CHUNK_MIN_COLS = 128


def _stacked_chunks(sources, cols, dtype):
    """Yield ``(c0, c1, stack)`` over cache-sized chunks of ``cols`` columns.

    ``stack`` is ``stack(src[:, off + c0 : off + c1] for src, off in sources)``
    as one (taps*rows, c1 - c0) matrix: every source's shifted slice is copied
    into one buffer of about ``_CHUNK_BYTES`` (at least ``_CHUNK_MIN_COLS``
    columns), so each chunk is one GEMM with K or M = taps*rows and no per-tap
    partial sum is written or read back.  One source is not copied: its slice
    is yielded in place as the only chunk.  The buffer is reused, so a caller
    consumes each chunk before asking for the next.
    """
    if len(sources) == 1:
        (src, off), = sources
        yield 0, cols, src[:, off : off + cols]
        return
    rows = sources[0][0].shape[0]
    itemsize = np.dtype(dtype).itemsize
    width = max(_CHUNK_BYTES // (len(sources) * rows * itemsize), _CHUNK_MIN_COLS)
    buf = np.empty((len(sources), rows, min(width, cols)), dtype=dtype)
    for c0 in range(0, cols, width):
        n = min(width, cols - c0)
        for t, (src, off) in enumerate(sources):
            buf[t, :, :n] = src[:, off + c0 : off + c0 + n]
        yield c0, c0 + n, buf[:, :, :n].reshape(-1, n)


def _stacked_gemm(w, sources, out) -> None:
    """``out = w @ stack(src[:, off : off + cols] for src, off in sources)``."""
    for c0, c1, stack in _stacked_chunks(sources, out.shape[1], out.dtype):
        np.matmul(w, stack, out=out[:, c0:c1])


def im2col(x: np.ndarray, khw, stride, padding) -> np.ndarray:
    """Pad (N,C,H,W) and split it into stride phases, (Sh, Sw, C, N*Hq*Wq).

    Each input pixel that some tap reads is stored once, so the layout is
    about the size of the padded input whatever the kernel; the rest is zero.
    """
    _, (hq, wq), phases, _, _ = _layout(x.shape, khw, stride, padding)
    out = np.zeros((*_pair(stride), x.shape[1], x.shape[0], hq, wq), dtype=x.dtype)
    for a, b, src, dst in phases:
        out[a, b][dst] = x[src].transpose(1, 0, 2, 3)
    return out.reshape(*out.shape[:3], -1)


def col2im(cols: np.ndarray, x_shape, khw, stride, padding) -> np.ndarray:
    """Adjoint of im2col: fold the phases back into (N,C,H,W), dropping the padding.

    Only the phases that some tap reads are read; the pixels of the others are 0.
    """
    _, (hq, wq), phases, _, _ = _layout(x_shape, khw, stride, padding)
    grid = cols.reshape(*cols.shape[:3], x_shape[0], hq, wq)
    img = (np.empty if len(phases) == cols.shape[0] * cols.shape[1] else np.zeros)(
        x_shape, dtype=cols.dtype)
    for a, b, src, dst in phases:
        img[src] = grid[a, b][dst].transpose(1, 0, 2, 3)
    return img


def conv2d(x, weight, bias=None, stride=1, padding=0) -> np.ndarray:
    """2D cross-correlation of (N,Cin,H,W) with (Cout,Cin,Kh,Kw) filters.

    Every kernel tap's shifted slice of the im2col layout is stacked along K,
    so each cache-sized chunk of the flat phase grid is one (Cout, Kh*Kw*Cin)
    GEMM written into the output, then cropped to (N, Cout, Ho, Wo).
    """
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
    dtype = np.result_type(cols, weight)
    w_stack = weight.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin).astype(dtype, copy=False)
    grid = np.empty((cout, x.shape[0], hq, wq), dtype=dtype)
    _stacked_gemm(w_stack, [(cols[a, b], off) for _, _, a, b, off in taps],
                  grid.reshape(cout, -1)[:, :span])
    out = np.empty((x.shape[0], cout, ho, wo), dtype=dtype)
    crop = grid[:, :, :ho, :wo].transpose(1, 0, 2, 3)
    np.add(crop, 0 if bias is None else as_tensor(bias)[None, :, None, None], out=out)
    return out


def conv2d_backward(g, x, weight, stride=1, padding=0, need_x=True, need_w=True):
    """Input and weight gradients of conv2d at input x, given the output gradient.

    One loop serves both: each chunk of each phase (a, b) that a tap reads
    stacks g shifted back by those taps' offsets.  The input gradient writes
    the stacked weights times the stack into the phase (the gather form), and
    the weight gradient adds the stack times the chunk's layout, transposed,
    to those taps' rows: gw[o, c, i, j] = sum_p g[o, p - offset] * cols[a, b][c, p].
    Only the weight gradient reads the layout ``cols``; it rebuilds it from x.
    """
    cout, cin, kh, kw = weight.shape
    (ho, wo), (hq, wq), phases, _, taps = _layout(x.shape, (kh, kw), stride, padding)
    # g on the flat grid, behind a zero margin as long as the largest tap offset
    margin = max(off for *_, off in taps)
    width = x.shape[0] * hq * wq
    padded = np.zeros((cout, margin + width), dtype=g.dtype)
    padded[:, margin:].reshape(cout, -1, hq, wq)[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
    dtype = np.result_type(g, x, weight)
    cols = im2col(x, (kh, kw), stride, padding) if need_w else None
    # col2im skips unread phases
    g_cols = np.empty((*_pair(stride), cin, width), dtype=dtype) if need_x else None
    gw = np.empty(weight.shape, dtype=dtype) if need_w else None
    for a, b, *_ in phases:
        read = [(i, j, off) for i, j, ta, tb, off in taps if (ta, tb) == (a, b)]
        w_stack = np.concatenate([weight[:, :, i, j].T for i, j, _ in read], axis=1,
                                 dtype=dtype)
        gw_read = np.zeros((len(read) * cout, cin), dtype=dtype)
        for c0, c1, stack in _stacked_chunks([(padded, margin - off) for *_, off in read],
                                             width, dtype):
            if need_x:
                np.matmul(w_stack, stack, out=g_cols[a, b][:, c0:c1])
            if need_w:
                gw_read += stack @ cols[a, b][:, c0:c1].T
        del stack  # frees the chunk buffer before the next phase or col2im allocates
        if need_w:
            for (i, j, _), rows in zip(read, gw_read.reshape(len(read), cout, cin)):
                gw[:, :, i, j] = rows
    gx = col2im(g_cols, x.shape, (kh, kw), stride, padding) if need_x else None
    return gx, gw


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
