"""Dense tensor kernel.

Tensors are contiguous row-major ``numpy.ndarray`` values of dtype float32
(training default) or float64 (used to tighten gradient checks).  All
functions here are pure: they never mutate their inputs, and every shape
violation raises a recoverable :class:`ShapeError`.

``conv2d`` follows cross-correlation semantics (no kernel flip).  ``im2col``
pads the input and splits it into the stride phases that some kernel tap
reads, channel-major with the batch folded into one flat axis,
(P, C, N*Hq*Wq).  Every kernel tap is then a contiguous shifted slice of one
phase.  ``_stacked_chunks`` stacks those slices, one cache-sized chunk of
columns at a time, so each chunk is one GEMM over every tap, written straight
into the output.  The backward stacks the output gradient per chunk of each
phase: the input gradient writes its GEMM with the weight into that phase,
and the weight gradient adds the stack's product with the same chunk of the
layout, which it rebuilds from the input.  All are computed on the padded
grid and cropped; ``col2im``, the exact adjoint of ``im2col``, folds an
input gradient back.  ``conv2d_naive`` is the sliding-window reference kept
as a test oracle.

A process that may run on two or more CPUs starts one conv worker thread on
its first backward that needs both gradients.  While the caller stacks the
weight gradient, whose chunks add in order, the worker takes input-gradient
chunks; the caller then takes those left, and takes back any that the worker
has not delivered, so a late or slow worker never holds it up
(:class:`_Share`).  A forward, and an input or weight gradient alone, run on
the caller: an eval pass is a short burst of forwards, and with a second
thread its time depended on whether the second CPU happened to be free.
Both threads use the same chunk boundaries and each sum keeps its order, so
every result is the same to the bit with or without the worker, and so on
any number of CPUs.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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
    ``span``, so each of ``taps`` (i, j, p, offset) is one shifted slice of
    layout phase p.  ``phases`` holds, per phase that some tap reads, the
    strided input slice it stores and its place in the grid; the layout
    keeps no others (a strided 1x1 kernel reads one phase).  The geometry
    depends on the shapes alone, so it is cached, as tuples that no caller
    can change.
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
    read = sorted({(i % sh, j % sw) for i in range(khw[0]) for j in range(khw[1])})
    phases = tuple(((..., yi, zi), (..., yq, zq))
                   for a, (yi, yq) in enumerate(rows) for b, (zi, zq) in enumerate(cols)
                   if (a, b) in read)
    taps = tuple((i, j, read.index((i % sh, j % sw)), (i // sh) * wq + j // sw)
                 for i in range(khw[0]) for j in range(khw[1]))
    span = (x_shape[0] - 1) * hq * wq + (ho - 1) * wq + wo
    return (ho, wo), (hq, wq), phases, span, taps


# bytes of one stacked chunk; a sweep of 256 KiB to 2 MiB put 1 MiB fastest
_CHUNK_BYTES = 1 << 20
_CHUNK_MIN_COLS = 128


def _chunk_width(sources, cols, dtype) -> int:
    """Columns per chunk of :func:`_stacked_chunks`: about ``_CHUNK_BYTES`` of
    stacked sources, at least ``_CHUNK_MIN_COLS``; all ``cols`` for one source."""
    if len(sources) == 1:
        return cols
    rows = sources[0][0].shape[0]
    return max(_CHUNK_BYTES // (len(sources) * rows * np.dtype(dtype).itemsize),
               _CHUNK_MIN_COLS)


def _stacked_chunks(sources, cols, dtype, consume, chunks=None) -> None:
    """Call ``consume(c0, c1, stack)`` on each chunk k of ``chunks``, by
    default every chunk of ``cols`` columns in order.  Chunk k is columns
    k*width to (k + 1)*width, cut at ``cols``, with :func:`_chunk_width`'s
    width.

    ``stack`` is ``stack(src[:, off + c0 : off + c1] for src, off in sources)``
    as one (taps*rows, c1 - c0) matrix, so each chunk is one GEMM with K or M =
    taps*rows and no per-tap partial sum is written or read back.  Sources on
    a grid (:func:`_tap_grid`) are copied into the buffer in one call, others
    one by one.  One source is not copied: its slice is passed in place as
    the only chunk.  Each call makes its own buffer when it takes its first
    chunk and reuses it, so ``consume`` is done with a chunk when it returns.

    The chunk boundaries do not depend on which chunks a call runs, so
    neither does any chunk's result, to the bit.
    """
    width = _chunk_width(sources, cols, dtype)
    buf = grid = None
    for k in range(-(-cols // width)) if chunks is None else chunks:
        c0 = k * width
        n = min(width, cols - c0)
        if len(sources) == 1:
            (src, off), = sources
            consume(c0, c0 + n, src[:, off + c0 : off + c0 + n])
            continue
        if buf is None:
            buf = np.empty((len(sources), sources[0][0].shape[0], min(width, cols)),
                           dtype=dtype)
            grid = _tap_grid(sources, cols)
        if grid is None:
            for t, (src, off) in enumerate(sources):
                buf[t, :, :n] = src[:, off + c0 : off + c0 + n]
        else:
            np.copyto(buf[:, :, :n].reshape(*grid.shape[:2], -1, n), grid[..., c0 : c0 + n])
        consume(c0, c0 + n, buf[:, :, :n].reshape(-1, n))


def _tap_grid(sources, cols):
    """The sources as one read-only (A, B, rows, cols) view when they are
    slices of one array (the same object) at offsets first + a*da + b*db, in
    (a, b) order; else None.

    The taps that read one stride phase form such a grid, with a and b
    running over the kernel rows and columns that read it, so each phase of
    a backward stacks g with one copy per chunk.  A copy per tap would hand
    the GIL to the other conv thread and back at each tap.
    """
    src, first = sources[0]
    offs = [off for s, off in sources if s is src]
    if len(offs) < len(sources) or min(offs) < 0 or max(offs) + cols > src.shape[1]:
        return None
    db = offs[1] - offs[0]
    b = next((k for k in range(1, len(offs)) if offs[k] - offs[k - 1] != db), len(offs))
    a, da = len(offs) // b, offs[b % len(offs)] - first
    if offs != [first + i * da + j * db for i in range(a) for j in range(b)]:
        return None
    step = src.strides[1]
    return np.lib.stride_tricks.as_strided(src[:, first:], (a, b, src.shape[0], cols),
                                           (da * step, db * step, src.strides[0], step),
                                           writeable=False)


_worker = (None, None)  # (pid, the conv worker or None)


def _conv_worker():
    """The one conv worker thread of this process, or None on a single CPU.

    Made on first use, and again in a child after a fork, which inherits the
    parent's pool but not its thread.
    """
    global _worker
    if _worker[0] != os.getpid():
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        _worker = os.getpid(), ThreadPoolExecutor(1, "phcnet-conv") if cpus > 1 else None
    return _worker[1]


def _side_by_side(mine, theirs) -> None:
    """Run ``mine()`` on the caller and ``theirs()`` on the conv worker.

    ``theirs`` only takes work that ``mine`` would otherwise do (see
    :class:`_Share`), so the caller does not wait for it: a worker that has
    not started ``theirs`` by the time ``mine`` returns drops it, and one
    still busy finishes a chunk that nothing reads.  An error that the
    worker raised before the caller is done reaches the caller; when
    ``mine`` fails, the caller waits for the worker to stop first.  The
    worker runs in a copy of the caller's context, which holds numpy's
    ``errstate``.  Without a worker the caller runs ``mine`` alone.
    """
    pool = _conv_worker()
    if pool is None:
        mine()
        return
    done = pool.submit(contextvars.copy_context().run, theirs)
    try:
        mine()
    except BaseException:
        done.cancel()
        wait([done])
        raise
    if not done.cancel() and done.done():
        done.result()


class _Share:
    """``out = w @ stack(src[:, off : off + cols] for src, off in sources)``,
    chunk by chunk, as the caller and the conv worker share it.

    Each side takes the next chunk when it is done with its last.  The
    worker computes a chunk into a buffer of its own and copies it to
    ``out`` unless the caller has taken it back: once no chunk is left to
    take, the caller takes back every chunk that the worker has not
    delivered and computes it itself.  So a worker that is slow, or whose
    CPU is taken away mid-chunk, never holds the caller up, and nothing
    reaches ``out`` after the caller is done.  The lock is held for a
    take and for a delivery's copy.
    """

    def __init__(self, w, sources, out):
        self.w, self.sources, self.out = w, sources, out
        self.width = _chunk_width(sources, out.shape[1], out.dtype)
        self.count = -(-out.shape[1] // self.width)
        self.next, self.lock, self.pending = 0, threading.Lock(), set()

    def _taken(self, worker):
        """The chunks that one side computes, in the order it takes them."""
        while True:
            with self.lock:
                k, self.next = self.next, self.next + 1
                if k >= self.count:
                    back = () if worker else sorted(self.pending)
                    self.pending.difference_update(back)
                    break
                if worker:
                    self.pending.add(k)
            yield k
        yield from back

    def side(self, worker):
        """Compute one side's chunks: the caller's straight into ``out``."""
        w, out = self.w, self.out
        if worker:
            own = np.empty((out.shape[0], min(self.width, out.shape[1])), dtype=out.dtype)

            def consume(c0, c1, stack):
                np.matmul(w, stack, out=own[:, : c1 - c0])
                with self.lock:
                    if c0 // self.width in self.pending:
                        self.pending.remove(c0 // self.width)
                        out[:, c0:c1] = own[:, : c1 - c0]
        else:
            def consume(c0, c1, stack):
                np.matmul(w, stack, out=out[:, c0:c1])

        _stacked_chunks(self.sources, out.shape[1], out.dtype, consume, self._taken(worker))


def _stacked_gemms(gemms, first=None) -> None:
    """``out = w @ stack(src[:, off : off + cols] for src, off in sources)``
    for each (w, sources, out) of ``gemms``.  With ``first``, the caller runs
    ``first()`` while the conv worker starts on the GEMMs' chunks, which the
    two then share (:class:`_Share`); otherwise, and when every GEMM is one
    chunk, the caller runs everything."""
    shares = [_Share(*gemm) for gemm in gemms]

    def mine():
        if first is not None:
            first()
        for share in shares:
            share.side(False)

    if first is not None and any(share.count > 1 for share in shares):
        _side_by_side(mine, lambda: [share.side(True) for share in shares])
    else:
        mine()


def im2col(x: np.ndarray, khw, stride, padding) -> np.ndarray:
    """Pad (N,C,H,W) and split it into the P stride phases that some tap
    reads, (P, C, N*Hq*Wq).

    Each input pixel that some tap reads is stored once, so the layout is at
    most the size of the padded input whatever the kernel.
    """
    _, (hq, wq), phases, _, _ = _layout(x.shape, khw, stride, padding)
    out = np.zeros((len(phases), x.shape[1], x.shape[0], hq, wq), dtype=x.dtype)
    for grid, (src, dst) in zip(out, phases):
        grid[dst] = x[src].transpose(1, 0, 2, 3)
    return out.reshape(*out.shape[:2], -1)


def col2im(cols: np.ndarray, x_shape, khw, stride, padding) -> np.ndarray:
    """Adjoint of im2col: fold the phases back into (N,C,H,W), dropping the padding.

    The pixels of a phase that no tap reads are 0.
    """
    _, (hq, wq), phases, _, _ = _layout(x_shape, khw, stride, padding)
    grids = cols.reshape(*cols.shape[:2], x_shape[0], hq, wq)
    img = (np.empty if len(phases) == np.prod(_pair(stride)) else np.zeros)(
        x_shape, dtype=cols.dtype)
    for grid, (src, dst) in zip(grids, phases):
        img[src] = grid[dst].transpose(1, 0, 2, 3)
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
    _stacked_gemms([(w_stack, [(cols[p], off) for _, _, p, off in taps],
                     grid.reshape(cout, -1)[:, :span])])
    out = np.empty((x.shape[0], cout, ho, wo), dtype=dtype)
    crop = grid[:, :, :ho, :wo].transpose(1, 0, 2, 3)
    np.add(crop, 0 if bias is None else as_tensor(bias)[None, :, None, None], out=out)
    return out


def conv2d_backward(g, x, weight, stride=1, padding=0, need_x=True, need_w=True):
    """Input and weight gradients of conv2d at input x, given the output gradient.

    Each chunk of each layout phase p stacks g shifted back by the offsets of
    the taps that read p.  The input gradient writes the stacked weights
    times the stack into the phase (the gather form), and the weight
    gradient adds the stack times the chunk's layout, transposed, to those
    taps' rows: gw[o, c, i, j] = sum_q g[o, q - offset] * cols[p][c, q].
    Only the weight gradient reads the layout ``cols``; it rebuilds it from x.

    When both are needed and some phase stacks more than one tap, the caller
    stacks g for the weight gradient, adding its chunks in order, while the
    conv worker takes input-gradient chunks; the caller then takes those
    left (:class:`_Share`).  Without a worker the caller stacks g twice.  An
    input or weight gradient alone, and a 1x1 kernel's, run on the caller.
    """
    cout, cin, kh, kw = weight.shape
    (ho, wo), (hq, wq), phases, _, taps = _layout(x.shape, (kh, kw), stride, padding)
    # g on the flat grid, behind a zero margin as long as the largest tap offset
    margin = max(off for *_, off in taps)
    width = x.shape[0] * hq * wq
    padded = np.zeros((cout, margin + width), dtype=g.dtype)
    padded[:, margin:].reshape(cout, -1, hq, wq)[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
    dtype = np.result_type(g, x, weight)
    reads = [[(i, j, off) for i, j, tp, off in taps if tp == p] for p in range(len(phases))]
    sources = [[(padded, margin - off) for *_, off in read] for read in reads]
    cols = im2col(x, (kh, kw), stride, padding) if need_w else None
    g_cols = np.empty((len(phases), cin, width), dtype=dtype) if need_x else None
    gw = np.empty(weight.shape, dtype=dtype) if need_w else None

    def weight_grad():
        for p, read in enumerate(reads):
            acc = np.zeros((len(read) * cout, cin), dtype=dtype)
            _stacked_chunks(sources[p], width, dtype,
                            lambda c0, c1, stack: np.add(acc, stack @ cols[p][:, c0:c1].T,
                                                         out=acc))
            for (i, j, _), rows in zip(read, acc.reshape(len(read), cout, cin)):
                gw[:, :, i, j] = rows

    if need_x:
        _stacked_gemms([(np.concatenate([weight[:, :, i, j].T for i, j, _ in read], axis=1,
                                        dtype=dtype), sources[p], g_cols[p])
                        for p, read in enumerate(reads)], weight_grad if need_w else None)
    elif need_w:
        weight_grad()
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
