"""Dense tensor kernel.

Tensors are contiguous row-major ``numpy.ndarray`` values of dtype float32
(training default) or float64 (used to tighten gradient checks).  All
functions here are pure: they never mutate their inputs, and every shape
violation raises a recoverable :class:`ShapeError`.

``conv2d`` follows cross-correlation semantics (no kernel flip) with one
geometry, that of the PHC layers: a square, odd k x k kernel, one integer
stride for both axes and padding k // 2, derived and checked in ``_layout``
alone, so an H x W input gives ceil(H / stride) x ceil(W / stride).
``im2col`` pads the input and splits it into the stride phases that some
kernel tap reads, channel-major with the batch folded into one flat axis,
(P, C, N*Hq*Wq).  Every kernel tap is then a contiguous shifted slice of
one phase; the taps that read a phase are one kernel sub-grid, whose slices
form one strided view of it.  A chunk loop (:class:`_Loop`) stacks them,
one copy per phase and cache-sized chunk of columns, so each chunk is one
GEMM over every tap, written straight into the output.  The backward stacks
the output gradient per chunk of each phase: the input gradient writes its
GEMM with the sub-grid's weights into that phase, and the weight gradient
adds the stack's product with the same chunk of the layout, rebuilt from
the input, to the sub-grid's rows.  All are computed on the padded grid and
cropped; ``col2im``, the exact adjoint of ``im2col``, folds an input
gradient back.  ``conv2d_naive`` is the sliding-window reference kept as a
test oracle.

A process that may run on two or more CPUs starts one conv worker thread,
which joins every conv loop of more than one chunk, forward (in a train
step, an eval pass or a saliency map) and backward, and train-mode batch
norm's loops over blocks of channels (``nn._Channels``).  The caller and the
worker take chunks from one counter and write each straight into its own
slice of the results; once no chunk is left, the caller waits for the one
chunk that the worker holds, if any (:func:`_run`).  Every thread, the
caller alone on one CPU too, computes a chunk with the one
:meth:`_Loop.chunk`.  Chunk boundaries are fixed by the shapes, a forward
chunk writes only its own slice of the output, and a backward chunk's
weight-gradient partial is folded into its phase's sum in chunk order, held
in a ring of two until its turn, so every result is the same to the bit with
or without the worker, and so on any number of CPUs.

A conv is one side (:class:`_Side`): its input, weights, bias, and the skip
add and the ReLU that end a residual branch.  :func:`conv2d` runs one side,
its chunks shared as above.  :func:`conv2d_sides` runs several independent
sides, as the two sides of a four-view exam in an eval forward that keeps no
graph (``nn.conv_bn``), each side whole on one thread: the caller and the
worker each take a side from the same counter, im2col, every chunk in order,
the crop with the bias, the skip add and the ReLU.  The caller makes every
array of every side first, so the worker allocates nothing, and with no
worker the caller runs the sides in turn, through the same task.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ContractError, ShapeError, in_range

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


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256, typed=True)
def _layout(x_shape, k, stride):
    """Geometry of the im2col layout and of the kernel taps' slices of it,
    for a k x k kernel at stride S, padded by p = k // 2, and its one check:
    an odd k (so the output is ceil(H / S) x ceil(W / S)), an integer S >= 1
    and a non-empty output, or ShapeError.

    Padded pixel (r, s) lands in phase (r % S, s % S) at grid position
    (r // S, s // S) of an Hq x Wq grid per image.  Tap (i, j) of output
    pixel (y, z) reads phase (i % S, j % S) at (y + i // S, z + j // S),
    flat offset (i // S) * Wq + j // S; outputs sit at their own flat grid
    index, all below ``span``.  So phase (a, b) is read by the kernel
    sub-grid ``[a::S, b::S]``, whose slices form one :func:`_grid`.  Per
    phase that some tap reads (a strided 1x1 kernel reads one), ``phases``
    holds the input slice it stores and its place in the grid, and
    ``subgrids`` its kernel sub-grid, as slices.  The geometry depends on
    the shapes alone, so it is cached (typed: a stride of True or 1.0 is
    not 1), as tuples that no caller can change.
    """
    conv = f"a {k}x{k} conv on input {x_shape}"
    in_range(ShapeError, f"the stride of {conv}", stride, 1)
    if k < 1 or k % 2 != 1:
        raise ShapeError(f"{conv} needs an odd kernel, to keep the map's size")
    ho, wo = (-(-size // stride) for size in x_shape[2:])
    if 0 in (x_shape[0], ho, wo):
        raise ShapeError(f"{conv} at stride {stride} produces an empty output")
    p, read = k // 2, range(min(stride, k))  # the phases that some tap reads
    axes = []
    for size in x_shape[2:]:
        firsts = [(a - p) % stride for a in read]
        axes.append((-(-(size + 2 * p) // stride), [
            (slice(y, None, stride),
             slice((y + p) // stride, (y + p) // stride + len(range(y, size, stride))))
            for y in firsts]))
    (hq, rows), (wq, cols) = axes
    phases = tuple(((..., yi, zi), (..., yq, zq)) for yi, yq in rows for zi, zq in cols)
    subgrids = tuple((slice(a, None, stride), slice(b, None, stride)) for a in read for b in read)
    span = (x_shape[0] - 1) * hq * wq + (ho - 1) * wq + wo
    return (ho, wo), (hq, wq), phases, span, subgrids


# bytes of one stacked chunk; a sweep of 256 KiB to 2 MiB put 1 MiB fastest
_CHUNK_BYTES = 1 << 20
_CHUNK_MIN_COLS = 128
# weight-gradient partials a backward loop holds; of 2, 3, 4 and 6 on a
# PHResNet step, 2 waited near the least for the fewest bytes
_FOLD_SLOTS = 2


def _grid(src, first, steps, shape, cols):
    """The (A, B, rows, cols) view of a contiguous (rows, L) ``src`` whose
    slice (u, v) is ``src[:, first + u*steps[0] + v*steps[1]]`` on, ``cols``
    wide: the slices of one kernel sub-grid's taps, of shape (A, B), which
    a chunk stacks with one copy.  ``np.ndarray`` checks the view against
    ``src``'s buffer, which ``as_strided`` would read past without a word;
    a slice that would leave ``src`` raises ShapeError.
    """
    item = src.itemsize
    try:
        return np.ndarray((*shape, src.shape[0], cols), src.dtype, src, first * item,
                          (steps[0] * item, steps[1] * item, src.strides[0], item))
    except ValueError as e:
        raise ShapeError(f"tap grid {shape} by {steps} from {first} leaves its source") from e


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


class _Loop:
    """One chunk loop of a conv over a (KH, KW, rows, cols) stack of tap
    slices, ``taps`` = (KH, KW), so that each chunk is one GEMM with K or M =
    KH*KW*rows.  Each of ``grids`` is a kernel sub-grid of the stack and the
    :func:`_grid` of its taps' slices.  Chunk k is columns k*width to
    (k + 1)*width, cut at ``cols``: about ``_CHUNK_BYTES`` of stack, at
    least ``_CHUNK_MIN_COLS`` wide; one tap is one chunk, not copied.  Each
    chunk is stacked once for both products: ``out[:, chunk k] = w @ stack``
    when ``w`` is given, and when ``layout`` is, the partial sum ``stack @
    layout[:, chunk k].T`` into slot k % S of ``parts``, a ring of S =
    ``_FOLD_SLOTS`` partials.  Under the loop's lock, the chunk whose partial
    is the next to fold adds it to ``acc``, and every partial ready after
    it, in chunk order: one left-to-right sum.  Chunk k waits for its slot
    until chunk k - S is folded.  The boundaries depend on the shapes alone,
    so no result depends on which thread runs which chunk, to the bit."""

    def __init__(self, taps, grids, cols, dtype, w=None, out=None, layout=None):
        self.grids, self.cols, self.dtype = grids, cols, dtype
        self.w, self.out, self.layout = w, out, layout
        rows, n_taps = grids[0][1].shape[2], taps[0] * taps[1]
        self.width = cols if n_taps == 1 else max(
            _CHUNK_BYTES // (n_taps * rows * np.dtype(dtype).itemsize), _CHUNK_MIN_COLS)
        self.count = -(-cols // self.width)
        self.stack = *taps, rows, min(self.width, cols)
        self.size = 0 if n_taps == 1 else n_taps * rows * self.stack[3]
        self.parts = None if layout is None else np.empty(
            (min(self.count, _FOLD_SLOTS), n_taps * rows, layout.shape[0]), dtype=dtype)
        self.acc = None if layout is None else np.zeros(self.parts.shape[1:], dtype=dtype)
        self.turn, self.folded, self.ready = threading.Condition(), 0, set()

    def chunk(self, k, buf):
        """Stack chunk k in the flat buffer ``buf``, of at least ``size``
        elements, one copy per grid, and compute its products straight into
        ``out[:, chunk k]``, which no other chunk writes, and its slot of
        ``parts``, which it folds into ``acc`` in turn."""
        c0 = k * self.width
        n = min(self.width, self.cols - c0)
        if self.size:
            stack = buf[: self.size].reshape(self.stack)[..., :n]
            for sub, grid in self.grids:
                np.copyto(stack[sub], grid[..., c0 : c0 + n])
            stack = stack.reshape(-1, n)
        else:
            stack = self.grids[0][1][0, 0, :, c0 : c0 + n]
        if self.w is not None:
            np.matmul(self.w, stack, out=self.out[:, c0 : c0 + n])
        if self.layout is not None:
            slots = len(self.parts)
            with self.turn:
                self.turn.wait_for(lambda: self.folded > k - slots)
            np.matmul(stack, self.layout[:, c0 : c0 + n].T, out=self.parts[k % slots])
            with self.turn:
                self.ready.add(k)
                while self.folded in self.ready:
                    np.add(self.acc, self.parts[self.folded % slots], out=self.acc)
                    self.ready.remove(self.folded)
                    self.folded += 1
                self.turn.notify_all()


def _run(loops) -> None:
    """Run every chunk of ``loops`` (:class:`_Loop`, ``nn._Channels`` or
    :class:`_Side`, one chunk).
    With a conv worker and more than one chunk, the caller and the worker
    share them: each side takes the next chunk from one counter, over every
    chunk of every loop in loop order, when it is done with its last.
    Otherwise the caller runs them all, in order.

    Once no chunk is left, the caller drops the worker's side if it has not
    started, or else waits for the one chunk that the worker holds, so
    nothing is written after ``_run`` returns.  An error that the worker
    raised reaches the caller; when the caller fails, it waits for the
    worker to stop first.  A side that fails abandons every conv loop's
    fold, so that no chunk of the other side waits for the failed one.  The worker runs in a copy of the caller's context, which
    holds numpy's ``errstate``.

    The caller makes both sides' buffers, each as large as the largest
    loop needs, and every loop's partials and sum, so the worker allocates
    nothing: what a thread allocates comes from its own malloc arena, which
    keeps it resident.
    """
    chunks, lock = iter([(loop, k) for loop in loops for k in range(loop.count)]), threading.Lock()

    def take():
        with lock:
            return next(chunks, None)

    def run(buf):
        try:
            for loop, k in iter(take, None):
                loop.chunk(k, buf)
        except BaseException:
            for loop in loops:  # no fold is read now: release every chunk waiting to fold
                if isinstance(loop, _Loop):
                    with loop.turn:
                        loop.folded = float("inf")
                        loop.turn.notify_all()
            raise

    pool = _conv_worker() if sum(loop.count for loop in loops) > 1 else None
    size, dtype = max(loop.size for loop in loops), loops[0].dtype
    if pool is None:
        run(np.empty(size, dtype=dtype))
        return
    theirs = pool.submit(contextvars.copy_context().run, run, np.empty(size, dtype=dtype))
    try:
        run(np.empty(size, dtype=dtype))
    except BaseException:
        if not theirs.cancel():
            wait([theirs])
        raise
    if not theirs.cancel():
        theirs.result()


def im2col(x: np.ndarray, k, stride, out=None) -> np.ndarray:
    """Pad (N,C,H,W) by k // 2 and split it into the P stride phases that
    some tap of a k x k kernel reads, (P, C, N*Hq*Wq), into ``out`` if given
    (zeros of that shape).

    Each input pixel that some tap reads is stored once, so the layout is at
    most the size of the padded input whatever the kernel.
    """
    _, (hq, wq), phases, _, _ = _layout(x.shape, k, stride)
    if out is None:
        out = np.zeros((len(phases), x.shape[1], x.shape[0] * hq * wq), dtype=x.dtype)
    for grid, (src, dst) in zip(out.reshape(*out.shape[:2], x.shape[0], hq, wq), phases):
        grid[dst] = x[src].transpose(1, 0, 2, 3)
    return out


def col2im(cols: np.ndarray, x_shape, k, stride) -> np.ndarray:
    """Adjoint of im2col: fold the phases back into (N,C,H,W), dropping the padding.

    The pixels of a phase that no tap reads are 0.
    """
    _, (hq, wq), phases, _, _ = _layout(x_shape, k, stride)
    grids = cols.reshape(*cols.shape[:2], x_shape[0], hq, wq)
    img = (np.empty if len(phases) == stride * stride else np.zeros)(x_shape, dtype=cols.dtype)
    for grid, (src, dst) in zip(grids, phases):
        img[src] = grid[dst].transpose(1, 0, 2, 3)
    return img


def _operands(x, weight):
    """(Cout, Cin, K) of a conv of (N,Cin,H,W) by (Cout,Cin,K,K), both directions'
    operand check: ranks, a square kernel and matching, non-empty channels, or ShapeError."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError("conv2d expects rank-4 input and weight, "
                         f"got {x.ndim} and {weight.ndim}")
    cout, cin, k, kw = weight.shape
    if kw != k:
        raise ShapeError(f"conv2d needs a square kernel, got {k}x{kw}")
    if x.shape[1] != cin:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[1]}, weight {cin}")
    if 0 in (cout, cin):
        raise ShapeError(f"conv2d needs input and output channels, got weight {weight.shape}")
    return cout, cin, k


class _Side:
    """One side's conv of (N,Cin,H,W) with square (Cout,Cin,K,K) filters at
    ``stride``, padded by K // 2, plus ``bias``, then ``skip``, then ReLU if
    ``relu``.  Made, it has checked its operands (:func:`_operands`), the
    geometry (:func:`_layout`), the bias and the skip, and made no array;
    :meth:`make` makes them all.  As a :func:`_run` loop it is one chunk,
    the whole side: im2col, its chunk loop in order, the crop and the rest."""

    count = 1

    def __init__(self, x, weight, bias=None, stride=1, skip=None, relu=False):
        self.x, self.weight = as_tensor(x), as_tensor(weight)
        cout, _, self.k = _operands(self.x, self.weight)
        if bias is not None and np.shape(bias) != (cout,):
            raise ShapeError(f"conv2d bias shape {np.shape(bias)} != ({cout},)")
        (ho, wo), *_ = _layout(self.x.shape, self.k, stride)
        self.shape = (self.x.shape[0], cout, ho, wo)
        if skip is not None and np.shape(skip) != self.shape:
            raise ShapeError(f"conv2d skip shape {np.shape(skip)} != output shape {self.shape}")
        self.bias, self.stride, self.skip, self.relu = bias, stride, skip, relu
        self.dtype = np.result_type(self.x, self.weight)

    def make(self):
        """Make every array of the side on the calling thread: the layout, the
        stacked weights, the padded output grid, the output, and the loop."""
        x, weight, k = self.x, self.weight, self.k
        (n, cout, ho, wo), cin = self.shape, weight.shape[1]
        _, (hq, wq), phases, span, subgrids = _layout(x.shape, k, self.stride)
        self.cols = np.zeros((len(phases), cin, n * hq * wq), dtype=x.dtype)
        w_stack = weight.transpose(0, 2, 3, 1).reshape(cout, k * k * cin)
        grid = np.empty((cout, n, hq, wq), dtype=self.dtype)
        grids = [(sub, _grid(phase, 0, (wq, 1), weight[0, 0][sub].shape, span))
                 for sub, phase in zip(subgrids, self.cols)]
        self.loop = _Loop((k, k), grids, span, self.dtype, w_stack.astype(self.dtype, copy=False),
                          grid.reshape(cout, -1)[:, :span])
        self.size, self.crop = self.loop.size, grid[:, :, :ho, :wo].transpose(1, 0, 2, 3)
        self.out = np.empty(self.shape, dtype=self.dtype)
        self.offset = 0 if self.bias is None else as_tensor(self.bias)[None, :, None, None]

    def layout(self):
        im2col(self.x, self.k, self.stride, self.cols)

    def finish(self):
        """Crop the grid into the output with the bias, add the skip, then ReLU."""
        np.add(self.crop, self.offset, out=self.out)
        if self.skip is not None:
            np.add(self.out, self.skip, out=self.out)
        if self.relu:
            np.maximum(self.out, 0, out=self.out)

    def chunk(self, _, buf):
        self.layout()
        for k in range(self.loop.count):
            self.loop.chunk(k, buf)
        self.finish()


def conv2d(x, weight, bias=None, stride=1, skip=None, relu=False) -> np.ndarray:
    """2D cross-correlation of (N,Cin,H,W) with square (Cout,Cin,K,K)
    filters at ``stride``, padded by K // 2, plus ``bias``, then ``skip``,
    then ReLU if ``relu``: one side (:class:`_Side`), every array made
    before the conv runs.

    Every kernel tap's shifted slice of the im2col layout is stacked along K,
    in kernel order, so each cache-sized chunk of the flat phase grid is one
    (Cout, K*K*Cin) GEMM written into the output, then cropped to (N,
    Cout, Ho, Wo).  The taps of a stride phase, one kernel sub-grid, go into
    their sub-grid of the stack with one copy per chunk.  The chunks are
    shared with the conv worker, and the conv returns once the worker's
    chunk in flight, if any, is written (:func:`_run`).
    """
    side = _Side(x, weight, bias, stride, skip, relu)
    side.make()
    side.layout()
    _run([side.loop])
    side.finish()
    return side.out


def conv2d_sides(sides) -> list:
    """The output of each side, given as :func:`conv2d`'s arguments.  One
    side is :func:`conv2d`.  Of several, each side's arguments are checked
    before any array is made, the caller makes every array, and one
    :func:`_run` gives each side whole to one thread: the caller and the
    conv worker take sides from one counter, so each side is computed by
    the same steps as :func:`conv2d` alone on one thread, to the bit, and
    with no worker the caller runs them in turn.  Sides share one dtype
    (else ContractError): the threads' chunk buffers have it.
    """
    if len(sides) == 1:
        return [conv2d(*sides[0])]
    sides = [_Side(*side) for side in sides]
    if len({side.dtype for side in sides}) > 1:
        raise ContractError(f"conv sides of dtypes {[side.dtype for side in sides]} "
                            "cannot share chunk buffers")
    for side in sides:
        side.make()
    _run(sides)
    return [side.out for side in sides]


def conv2d_backward(g, x, weight, stride=1, need_x=True, need_w=True):
    """Input and weight gradients of conv2d at input x, given the output gradient.

    Each chunk of each layout phase p stacks g shifted back by the offsets of
    the taps that read p, the phase's kernel sub-grid, with one copy.  The
    input gradient writes the sub-grid's weights times the stack into the
    phase (the gather form), and the weight gradient adds the stack times
    the chunk's layout, transposed, to the sub-grid's rows of gw:
    gw[o, c, i, j] = sum_q g[o, q - offset] * cols[p][c, q].  Only the weight
    gradient reads the layout ``cols``; it rebuilds it from x.

    Each phase is one :class:`_Loop`, whose chunks stack g once for both
    gradients, and the caller shares every loop with the conv worker,
    waiting at the end for the worker's chunk in flight (:func:`_run`).
    Each chunk's weight-gradient partial is folded into the phase's sum in
    chunk order, so no result depends on which thread computed a chunk, or
    on whether there is a worker at all, and a phase holds two partials at
    most, not one per chunk.  Every array made here but gx and gw, the
    rebuilt layout included, is freed on return.  A ``g`` not of the conv's
    output shape raises ShapeError before any array is made.
    """
    cout, cin, k = _operands(x, weight)
    (ho, wo), (hq, wq), _, _, subgrids = _layout(x.shape, k, stride)
    if g.shape != (x.shape[0], cout, ho, wo):
        raise ShapeError(f"conv2d_backward: output gradient of shape {g.shape}, "
                         f"not the conv's output shape {(x.shape[0], cout, ho, wo)}")
    ws = [weight[:, :, a, b] for a, b in subgrids]
    # g on the flat grid, behind a zero margin as long as the largest tap
    # offset, that of phase (0, 0)'s last tap
    margin = (ws[0].shape[2] - 1) * wq + ws[0].shape[3] - 1
    width = x.shape[0] * hq * wq
    padded = np.zeros((cout, margin + width), dtype=g.dtype)
    padded[:, margin:].reshape(cout, -1, hq, wq)[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
    dtype = np.result_type(g, x, weight)
    cols = im2col(x, k, stride) if need_w else [None] * len(ws)
    g_cols = np.empty((len(ws), cin, width), dtype=dtype) if need_x else None
    # each phase's weights as (Cin, A*B*Cout) in F order, on which the GEMM's bits depend
    loops = [_Loop(w.shape[2:], [(..., _grid(padded, margin, (-wq, -1), w.shape[2:], width))],
                   width, dtype,
                   w.transpose(2, 3, 0, 1).reshape(-1, cin).astype(dtype).T if need_x else None,
                   g_cols[p] if need_x else None, cols[p])
             for p, w in enumerate(ws)]
    _run(loops)
    gx = col2im(g_cols, x.shape, k, stride) if need_x else None
    if not need_w:
        return gx, None
    gw = np.empty(weight.shape, dtype=dtype)
    for loop, (a, b) in zip(loops, subgrids):
        gw[:, :, a, b] = loop.acc.reshape(*loop.stack[:2], cout, cin).transpose(2, 3, 0, 1)
    return gx, gw


def conv2d_naive(x, weight, bias=None, stride=1, padding=0) -> np.ndarray:
    """Direct sliding-window convolution at any int ``stride`` and
    ``padding``, kept as an independent test oracle: it shares no geometry
    with :func:`conv2d`, its output extents included."""
    x, weight = as_tensor(x), as_tensor(weight)
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    ho, wo = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    y, z = i * stride, j * stride
                    patch = xp[b, :, y : y + kh, z : z + kw]
                    out[b, o, i, j] = np.sum(patch * weight[o])
    if bias is not None:
        out += as_tensor(bias)[None, :, None, None]
    return out
