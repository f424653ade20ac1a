"""Tensor kernel: spec examples plus algebraic invariants.

conv2d is checked against the naive sliding-window oracle, at padding
k // 2, and central differences, in one chunk and across several, and in
float32 against float64 at workload shapes; col2im against the adjoint
identity.
"""

import multiprocessing
import re
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from phcnet import autograd as ag
from phcnet import tensor as T
from phcnet.errors import ContractError, ShapeError

# (x shape, w shape, stride); every conv is padded by k // 2.  The ids name
# the stride and that padding where they do not name the kernel
CONV_CASES = [
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), 1, id="1-1"),
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), 2, id="2-1"),
    pytest.param((2, 3, 10, 10), (4, 3, 3, 3), 2, id="s2-odd-remainder"),
    pytest.param((2, 2, 9, 9), (3, 2, 5, 5), 1, id="k5"),
    pytest.param((2, 2, 9, 10), (3, 2, 5, 5), 2, id="k5-s2"),
    pytest.param((2, 4, 5, 6), (3, 4, 1, 1), 1, id="k1-s1"),
    # narrower than the stride: phases (0, 1), (1, 0) and (1, 1) are unread
    pytest.param((2, 4, 7, 7), (3, 4, 1, 1), 2, id="k1-s2"),
    pytest.param((1, 3, 6, 6), (2, 3, 3, 3), 2, id="batch1"),
    # each of the nine phases holds one tap
    pytest.param((2, 3, 8, 10), (4, 3, 3, 3), 3, id="k3-s3"),
    # phases of 2 x 2, 2 x 1, 1 x 2 and 1 x 1 taps
    pytest.param((2, 2, 11, 9), (3, 2, 5, 5), 3, id="k5-s3"),
    # a stride beyond the kernel: 7 of the 16 phases are unread
    pytest.param((2, 3, 9, 10), (4, 3, 3, 3), 4, id="k3-s4"),
    pytest.param((2, 2, 6, 7), (3, 2, 7, 7), 2, id="k7-s2"),
    # a kernel wider than the plane: most taps read only padding
    pytest.param((2, 2, 3, 4), (3, 2, 5, 5), 1, id="k5-plane-3x4"),
    pytest.param((3, 4, 1, 1), (2, 4, 3, 3), 1, id="plane-1x1"),
]

# (x shape, w shape, stride) of convs that no geometry fits: an even kernel
# (a 2x2 one made 4x4 into 5x5), a stride that is not an integer of at least
# 1, and an empty batch
BAD_GEOMETRY = [
    pytest.param((1, 1, 4, 4), (1, 1, 2, 2), 1, id="k2"),
    pytest.param((1, 1, 6, 6), (1, 1, 4, 4), 1, id="k4"),
    pytest.param((1, 1, 4, 4), (1, 1, 0, 0), 1, id="k0"),
    pytest.param((1, 1, 4, 4), (1, 1, 3, 3), 0, id="s0"),
    pytest.param((1, 1, 4, 4), (1, 1, 3, 3), -1, id="s-1"),
    pytest.param((1, 1, 4, 4), (1, 1, 3, 3), 1.5, id="s1.5"),
    pytest.param((0, 1, 4, 4), (1, 1, 3, 3), 1, id="batch0"),
]


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the stacked-GEMM chunk so that the forward's span and every
    phase of the backward span at least three chunks, the last one partial;
    returns a function that sets it for one case and returns the convs run,
    as (calling function, loops, ran, shared): ``ran`` lists each chunk
    computed, as (thread, loop, k), and ``shared`` says whether
    ``_run``'s rule (more than one chunk, with a worker) shares the conv's
    chunks with the worker.

    Every loop over more than one tap is checked for this as it starts.
    Each of the two threads that share a conv waits in its first chunk of it
    until the other has started one, so that both threads run chunks.  At
    teardown, a conv run alone must have run on one thread each loop once,
    every chunk in order; the two threads sharing a conv must both have run
    chunks, and every chunk of each loop exactly once between them."""
    convs, conv_of = [], {}
    run, chunk = T._run, T._Loop.chunk

    def recorded_run(loops):
        assert all(loop.size == 0 or (loop.count >= 3 and loop.cols % loop.width)
                   for loop in loops)
        shared = T._conv_worker() is not None and sum(loop.count for loop in loops) > 1
        conv = (sys._getframe(1).f_code.co_name, loops, [], shared)
        convs.append(conv)
        conv_of.update(dict.fromkeys(loops, conv))
        run(loops)

    def recorded_chunk(loop, k, buf):
        _, _, ran, shared = conv_of[loop]
        me = threading.get_ident()
        ran.append((me, loop, k))
        first, deadline = sum(t == me for t, *_ in ran) == 1, time.monotonic() + 30
        while shared and first and all(t == me for t, *_ in ran):
            assert time.monotonic() < deadline, "the other thread ran no chunk"
            time.sleep(1e-4)
        chunk(loop, k, buf)

    def set_for(x_shape, w_shape, stride):
        _, (hq, wq), _, span, _ = T._layout(x_shape, w_shape[2], stride)
        phase = x_shape[0] * hq * wq
        width = max(w for w in range(2, min(span, phase) // 3 + 1) if span % w and phase % w)
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", width)
        monkeypatch.setattr(T, "_run", recorded_run)
        monkeypatch.setattr(T._Loop, "chunk", recorded_chunk)
        return convs

    yield set_for
    for _, loops, ran, shared in convs:
        every = [(loop, k) for loop in loops for k in range(loop.count)]
        chunks = [(loop, k) for _, loop, k in ran]
        threads = {t for t, *_ in ran}
        if not shared:
            assert chunks == every and len(threads) == 1
            continue
        assert len(threads) == 2 and len(chunks) == len(every) and set(chunks) == set(every)


def rms_relative(a, ref) -> float:
    return float(np.sqrt(np.mean((a - ref) ** 2) / np.mean(ref**2)))


class TestConv2d:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_cached_layout_equals_uncached(self, k, stride):
        args = ((2, 3, 9, 8), k, stride)
        first, again = T._layout(*args), T._layout(*args)
        assert again is first
        assert first == T._layout.__wrapped__(*args)
        phases, subgrids = first[2], first[4]
        assert isinstance(phases, tuple) and isinstance(subgrids, tuple)
        self.test_layout_geometry(args[0], (4, 3, k, k), stride)

    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_layout_geometry(self, x_shape, w_shape, stride):
        # each kernel tap (i, j) lies in exactly one phase's sub-grid, the
        # phase (i % S, j % S), and its slice of that phase's grid starts
        # at flat offset (i // S) * Wq + j // S
        k, s, p = w_shape[2], stride, w_shape[2] // 2
        _, (hq, wq), phases, _, subgrids = T._layout(x_shape, k, s)
        assert len(subgrids) == len(phases)
        flat = np.arange(x_shape[0] * hq * wq)[None]
        found = {}
        for ((_, rows, cols), _), (a, b) in zip(phases, subgrids):
            taps = [(i, j) for i in range(k)[a] for j in range(k)[b]]
            starts = T._grid(flat, 0, (wq, 1), np.empty((k, k))[a, b].shape, 1).ravel()
            for tap, start in zip(taps, starts, strict=True):
                assert tap not in found
                found[tap] = ((rows.start + p) % s, (cols.start + p) % s), start
        assert found == {(i, j): ((i % s, j % s), i // s * wq + j // s)
                         for i in range(k) for j in range(k)}

    def test_a_grid_that_leaves_its_source_raises(self):
        # slices of 6 columns at offsets 4 - 3u - v, for u, v in {0, 1},
        # reach columns 0 to 9 of 10
        src = np.arange(20.0).reshape(2, 10)
        grid = T._grid(src, 4, (-3, -1), (2, 2), 6)
        for (u, v), first in zip(np.ndindex(2, 2), (4, 3, 1, 0), strict=True):
            npt.assert_array_equal(grid[u, v], src[:, first : first + 6])
        for first, steps, cols in ((3, (-3, -1), 6), (4, (-3, -1), 7), (0, (3, 1), 7),
                                   (-1, (0, 1), 2)):
            with pytest.raises(ShapeError):
                T._grid(src, first, steps, (2, 2), cols)

    def test_pointwise_scaling(self):
        x = np.ones((1, 1, 3, 3))
        w = np.array([[[[2.0]]]])
        npt.assert_allclose(T.conv2d(x, w), np.full((1, 1, 3, 3), 2.0))

    def test_sliding_window_sum(self):
        # a 3x3 window of ones over the zero-padded plane counts its pixels
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        npt.assert_allclose(T.conv2d(x, w)[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 7)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        npt.assert_allclose(T.conv2d(x, w), x, atol=1e-7)

    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_matches_naive_oracle(self, x_shape, w_shape, stride):
        rng = np.random.default_rng(11)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = rng.normal(size=w_shape[0]).astype(np.float32)
        fast = T.conv2d(x, w, b, stride=stride)
        slow = T.conv2d_naive(x, w, b, stride=stride, padding=w_shape[2] // 2)
        npt.assert_allclose(fast, slow, rtol=1e-5, atol=1e-5)

    @given(st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.integers(1, 12),
           st.integers(1, 12), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_padding_keeps_the_extent_over_the_stride(self, k, stride, h, w, seed):
        # an odd kernel padded by k // 2 keeps ceil(H / S) x ceil(W / S),
        # from a 1-pixel plane, narrower than the kernel, up
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, h, w))
        weight = rng.normal(size=(3, 2, k, k))
        fast = T.conv2d(x, weight, stride=stride)
        assert fast.shape == (2, 3, -(-h // stride), -(-w // stride))
        npt.assert_allclose(fast, T.conv2d_naive(x, weight, stride=stride, padding=k // 2),
                            rtol=1e-12, atol=1e-12)

    def test_a_non_square_kernel_raises(self):
        x = np.ones((1, 2, 6, 6))
        for w in (np.ones((3, 2, 3, 1)), np.ones((3, 2, 1, 3))):
            with pytest.raises(ShapeError, match="square"):
                T.conv2d(x, w)
            with pytest.raises(ShapeError, match="square"):
                ag.conv2d(ag.constant(x), ag.Node(w, requires_grad=True))

    @pytest.mark.parametrize("x_shape,w_shape,stride", BAD_GEOMETRY)
    @pytest.mark.parametrize("conv", ["tensor", "backward", "autograd"])
    def test_a_bad_geometry_raises(self, conv, x_shape, w_shape, stride):
        x, w = np.ones(x_shape), np.ones(w_shape)
        with pytest.raises(ShapeError, match=re.escape(str(x_shape))):
            if conv == "tensor":
                T.conv2d(x, w, stride=stride)
            elif conv == "backward":
                T.conv2d_backward(np.ones((1, 1, 4, 4)), x, w, stride)
            else:
                ag.conv2d(ag.Node(x, requires_grad=True), ag.Node(w, requires_grad=True),
                          stride=stride)

    def test_a_cached_geometry_admits_no_other_stride_type(self):
        x, w = np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3))
        T.conv2d(x, w, stride=1)
        for stride in (True, 1.0):
            with pytest.raises(ShapeError, match="stride"):
                T.conv2d(x, w, stride=stride)

    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_grad_check_float64(self, x_shape, w_shape, stride):
        rng = np.random.default_rng(12)
        x = ag.Node(rng.normal(size=x_shape), requires_grad=True)
        w = ag.Node(rng.normal(size=w_shape), requires_grad=True)
        b = ag.Node(rng.normal(size=w_shape[0]), requires_grad=True)
        out_shape = T.conv2d(x.value, w.value, stride=stride).shape
        cotangent = ag.constant(rng.normal(size=out_shape))

        def f():
            out = ag.conv2d(x, w, b, stride=stride)
            return ag.nsum(ag.mul(out, cotangent))

        report = ag.grad_check(f, {"x": x, "w": w, "b": b}, h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_matches_naive_oracle_in_chunks(self, small_chunks, x_shape, w_shape, stride):
        small_chunks(x_shape, w_shape, stride)
        self.test_matches_naive_oracle(x_shape, w_shape, stride)

    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_grad_check_float64_in_chunks(self, small_chunks, x_shape, w_shape, stride):
        convs = small_chunks(x_shape, w_shape, stride)
        self.test_grad_check_float64(x_shape, w_shape, stride)
        # a forward is one loop and a backward one loop per phase that some
        # tap reads, each chunk stacked once for both gradients; both are
        # shared whenever there is a worker and more than one chunk, that
        # is, more than one tap, the shape probe's forward, with no graph, too
        phases = len(T._layout(x_shape, w_shape[2], stride)[2])
        shared = T._conv_worker() is not None and w_shape[2] * w_shape[3] > 1
        assert {name for name, *_ in convs} == {"conv2d", "conv2d_backward"}
        for name, loops, ran, _ in convs:
            assert len(loops) == (1 if name == "conv2d" else phases)
            assert bool({t for t, *_ in ran} - {threading.get_ident()}) == shared

    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_one_gradient_equals_both_bitwise(self, x_shape, w_shape, stride):
        # the stem needs no input gradient, and maps() no weight gradient
        rng = np.random.default_rng(17)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        out = T.conv2d(x, w, None, stride)
        args = (rng.normal(size=out.shape).astype(np.float32), x, w, stride)
        gx, gw = T.conv2d_backward(*args)
        no_x, only_w = T.conv2d_backward(*args, need_x=False)
        only_x, no_w = T.conv2d_backward(*args, need_w=False)
        assert no_x is None and no_w is None
        for one, both in ((only_w, gw), (only_x, gx)):
            assert one.shape == both.shape and one.tobytes() == both.tobytes()

    @pytest.mark.parametrize("x_shape,w_shape,stride", [
        ((8, 16, 64, 64), (16, 16, 3, 3), 1),
        ((8, 128, 8, 8), (128, 128, 3, 3), 1),
        ((8, 16, 64, 64), (32, 16, 3, 3), 2),
        ((8, 8, 64, 64), (8, 8, 3, 3), 1),
        ((8, 16, 64, 64), (32, 16, 1, 1), 2),
    ], ids=["64x64-16ch", "8x8-128ch", "64x64-16to32ch-s2", "64x64-8ch",
            "64x64-16to32ch-1x1-s2"])
    def test_float32_close_to_float64(self, x_shape, w_shape, stride):
        # the PHResNet and PHUNet layer shapes of the benchmark; float32 sums
        # of up to 9*128 products, and of 32768 for the weight gradient
        rng = np.random.default_rng(15)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        results = []
        for dtype in (np.float32, np.float64):
            out = T.conv2d(x.astype(dtype), w.astype(dtype), None, stride)
            g = np.random.default_rng(16).normal(size=out.shape).astype(np.float32)
            results.append((out, *T.conv2d_backward(g.astype(dtype), x.astype(dtype),
                                                   w.astype(dtype), stride)))
        for name, low, high in zip(("forward", "gx", "gw"), *results):
            assert low.dtype == np.float32 and high.dtype == np.float64
            assert rms_relative(low, high) < 5e-7, name

    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_col2im_is_adjoint_of_im2col(self, x_shape, w_shape, stride):
        rng = np.random.default_rng(13)
        x = rng.normal(size=x_shape)
        cols = T.im2col(x, w_shape[2], stride)
        y = rng.normal(size=cols.shape)
        lhs = float(np.vdot(cols, y))
        rhs = float(np.vdot(x, T.col2im(y, x_shape, w_shape[2], stride)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_autograd_forward_is_tensor_forward_bitwise(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 4, 9, 10)).astype(np.float32)
        w = rng.normal(size=(5, 4, 3, 3)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        fast = T.conv2d(x, w, b, stride=2)
        node = ag.conv2d(ag.constant(x), ag.Node(w, requires_grad=True), ag.constant(b),
                         stride=2)
        assert node.value.tobytes() == fast.tobytes()

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        y = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        alpha, beta = 1.7, -0.4
        lhs = T.conv2d(alpha * x + beta * y, w)
        rhs = alpha * T.conv2d(x, w) + beta * T.conv2d(y, w)
        npt.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)))

    @pytest.mark.parametrize("x_shape,w_shape", [
        pytest.param((1, 0, 4, 4), (1, 0, 3, 3), id="no-input-channels"),
        pytest.param((1, 1, 4, 4), (0, 1, 3, 3), id="no-output-channels"),
    ])
    @pytest.mark.parametrize("conv", ["tensor", "backward"])
    def test_a_conv_without_channels_raises(self, conv, x_shape, w_shape):
        x, w = np.ones(x_shape), np.ones(w_shape)
        with pytest.raises(ShapeError, match=re.escape(f"channels, got weight {w_shape}")):
            if conv == "tensor":
                T.conv2d(x, w)
            else:
                T.conv2d_backward(np.ones((1, w_shape[0], 4, 4)), x, w)

    @pytest.mark.parametrize("g_shape", [(1, 4, 4), (1, 2, 4, 4), (1, 1, 3, 3)],
                             ids=["rank-3", "channels", "extent"])
    def test_a_mis_shaped_output_gradient_raises(self, g_shape):
        with pytest.raises(ShapeError, match=re.escape(
                f"output gradient of shape {g_shape}, not the conv's output shape (1, 1, 4, 4)")):
            T.conv2d_backward(np.ones(g_shape), np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3)))

    def test_empty_output_extent(self):
        with pytest.raises(ShapeError):
            T.conv2d(np.ones((1, 1, 0, 4)), np.ones((1, 1, 3, 3)))

    def test_bias_broadcast(self):
        x = np.zeros((2, 1, 4, 4))
        w = np.zeros((3, 1, 1, 1))
        out = T.conv2d(x, w, bias=np.array([1.0, -2.0, 0.5]))
        npt.assert_allclose(out[0, :, 0, 0], [1.0, -2.0, 0.5])


class _Started:
    """A conv worker whose task is running by the time ``submit`` returns, so
    that the worker cannot drop it."""

    def __init__(self, pool):
        self.pool, self.tasks = pool, []

    def submit(self, fn, *args):
        started = threading.Event()

        def run():
            started.set()
            return fn(*args)

        self.tasks.append(self.pool.submit(run))
        started.wait()
        return self.tasks[-1]


def _three_tap_loop(seed, fold=True):
    """A loop over a 1x3 grid of taps of one source, with both products, or
    the forward's alone when not ``fold``."""
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(3, 102)).astype(np.float32)
    w = rng.normal(size=(4, 9)).astype(np.float32)
    layout = rng.normal(size=(5, 100)).astype(np.float32) if fold else None
    return T._Loop((1, 3), [(..., T._grid(src, 0, (0, 1), (1, 3), 100))], 100, np.float32, w,
                   np.empty((4, 100), dtype=np.float32), layout)


def _conv_in_child(g, x, w, expected):
    got = T.conv2d_backward(g, x, w, 1)
    sys.exit(0 if all(np.array_equal(a, b) for a, b in zip(got, expected)) else 1)


class TestConvWorker:
    """The conv worker joins every conv loop of more than one chunk: each
    forward, with a graph or in an eval pass, and each backward.  It changes
    no bit of any result, keeps the caller's numpy error state, hands its
    errors to the caller, holds up no caller when it starts late, and
    survives a fork.  Once no chunk is left, the caller waits for the one
    chunk that the worker holds.  Without the worker, a backward stacks each
    chunk once for both gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_worker_on_and_off_bitwise(self, small_chunks, monkeypatch, x_shape, w_shape,
                                       stride, dtype):
        small_chunks(x_shape, w_shape, stride)
        rng = np.random.default_rng(18)
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        g = rng.normal(size=T.conv2d(x, w, None, stride).shape).astype(dtype)
        results = []
        with ThreadPoolExecutor(1) as pool:
            for worker in (None, pool):
                monkeypatch.setattr(T, "_conv_worker", lambda: worker)
                results.append([T.conv2d(x, w, None, stride)] + [
                    grad for need in ((True, True), (True, False), (False, True))
                    for grad in T.conv2d_backward(g, x, w, stride, *need)])
        for off, on in zip(*results):
            assert (off is None and on is None) or np.array_equal(off, on)

    def test_an_eval_forward_shares_its_chunks(self, small_chunks, monkeypatch):
        # a forward on a constant input and weight keeps no graph, as in an
        # eval pass, and is shared like the forward that keeps one
        convs = small_chunks((2, 3, 8, 9), (4, 3, 3, 3), 1)
        rng = np.random.default_rng(25)
        x = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        with ThreadPoolExecutor(1) as pool:
            worker = _Started(pool)
            monkeypatch.setattr(T, "_conv_worker", lambda: worker)
            evaluated = ag.conv2d(ag.constant(x), ag.constant(w))
            kept = ag.conv2d(ag.Node(x, requires_grad=True), w)
        assert not evaluated.requires_grad and kept.requires_grad
        assert evaluated.value.tobytes() == kept.value.tobytes()
        main = threading.get_ident()
        assert len(worker.tasks) == 2  # each forward submits the worker's side
        assert len(convs) == 2
        for _, _, ran, shared in convs:
            assert shared and {t for t, *_ in ran} > {main}

    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_cpu_stacks_each_chunk_once_for_both_gradients(self, monkeypatch, stride):
        monkeypatch.setattr(T, "_conv_worker", lambda: None)
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 20)
        ran, chunk = [], T._Loop.chunk

        def recorded(loop, k, buf):
            ran.append((loop, k))
            chunk(loop, k, buf)

        rng = np.random.default_rng(26)
        x = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        g = rng.normal(size=T.conv2d(x, w, None, stride).shape).astype(np.float32)
        monkeypatch.setattr(T._Loop, "chunk", recorded)
        T.conv2d_backward(g, x, w, stride)
        # one loop per phase that some tap reads, each computing both
        # gradients' products of its chunks once, in order
        loops = list(dict.fromkeys(loop for loop, _ in ran))
        assert len(loops) == len(T._layout(x.shape, 3, stride)[2])
        assert all(loop.w is not None and loop.layout is not None for loop in loops)
        assert ran == [(loop, k) for loop in loops for k in range(loop.count)]

    def test_concurrent_callers_share_the_worker(self, small_chunks):
        # four threads on at most two CPUs queue their forwards and their
        # backwards on the one worker; with a short switch interval, a write
        # that crossed into another call's arrays would show as a wrong bit
        args = ((2, 3, 8, 9), (4, 3, 3, 3), 1)
        small_chunks(*args)
        rng = np.random.default_rng(20)
        cases = [(rng.normal(size=args[0]).astype(np.float32),
                  rng.normal(size=args[1]).astype(np.float32)) for _ in range(4)]
        g = rng.normal(size=T.conv2d(*cases[0], None, 1).shape).astype(np.float32)

        def run(x, w):
            return [T.conv2d(x, w, None, 1), *T.conv2d_backward(g, x, w, 1)]

        expected = [run(*case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(cases)) as callers:
                results = [callers.submit(run, *case) for case in cases for _ in range(5)]
                got = [r.result(timeout=60) for r in results]
        finally:
            sys.setswitchinterval(interval)
        for i, arrays in enumerate(got):
            assert all(np.array_equal(a, b) for a, b in zip(arrays, expected[i // 5]))

    def test_overflow_on_the_worker_raises_in_the_caller(self, monkeypatch):
        # chunks of 20 columns of the 10x10 padded grid, in every one of
        # which the input gradient overflows; the worker is running before
        # the caller starts the weight gradient, so it takes a chunk first
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 20)
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        g = np.full((1, 1, 8, 8), 3e38, dtype=np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 10.0
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(T, "_conv_worker", lambda: _Started(pool))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                    T.conv2d_backward(g, x, w, 1)
                assert caught == []
                assert np.isinf(T.conv2d_backward(g, x, w, 1)[0]).all()
        assert {str(c.message) for c in caught} == {"overflow encountered in matmul"}

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 20)
        chunk = T._Loop.chunk

        def fails_off_the_caller(*chunk_args):
            if threading.get_ident() != threading.main_thread().ident:
                raise ValueError("raised on the worker")
            wait(worker.tasks, timeout=60)  # the error is raised before the caller is done
            return chunk(*chunk_args)

        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        g = rng.normal(size=(2, 4, 8, 9)).astype(np.float32)
        with ThreadPoolExecutor(1) as pool:
            worker = _Started(pool)
            monkeypatch.setattr(T, "_conv_worker", lambda: worker)
            monkeypatch.setattr(T._Loop, "chunk", fails_off_the_caller)
            with pytest.raises(ValueError, match="raised on the worker"):
                T.conv2d_backward(g, x, w, 1)
            monkeypatch.setattr(T._Loop, "chunk", chunk)
            gx, gw = T.conv2d_backward(g, x, w, 1)
        monkeypatch.setattr(T, "_conv_worker", lambda: None)
        assert all(np.array_equal(a, b) for a, b in zip((gx, gw), T.conv2d_backward(g, x, w, 1)))

    def test_a_worker_stalled_in_a_chunk_holds_the_caller_until_it_is_written(
            self, monkeypatch):
        # the worker stalls in the first chunk it takes, j; the caller folds
        # every chunk before j and computes the chunks after it into the
        # free slots, unfolded, then waits for chunk j's slot, so the
        # partials are added in chunk order, as on one thread
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 10)
        monkeypatch.setattr(T, "_conv_worker", lambda: None)
        alone = _three_tap_loop(22)
        T._run([alone])
        chunk, stalled, release = T._Loop.chunk, threading.Event(), threading.Event()
        on_the_caller, on_the_worker = [], []

        def stalls_on_the_worker(loop, k, buf):
            if threading.current_thread().name.startswith("caller"):
                assert stalled.wait(60)
                on_the_caller.append(k)
            elif not on_the_worker:
                on_the_worker.append(k)
                stalled.set()
                assert release.wait(60)
            chunk(loop, k, buf)

        shared = _three_tap_loop(22)
        slots = len(shared.parts)
        with ThreadPoolExecutor(1) as pool, ThreadPoolExecutor(1, "caller") as caller:
            worker = _Started(pool)
            monkeypatch.setattr(T, "_conv_worker", lambda: worker)
            monkeypatch.setattr(T._Loop, "chunk", stalls_on_the_worker)
            try:
                done = caller.submit(T._run, [shared])
                assert stalled.wait(60)
                j = on_the_worker[0]
                expected = [k for k in range(j + slots + 1) if k != j]
                deadline = time.monotonic() + 60
                while on_the_caller != expected:
                    assert time.monotonic() < deadline and not done.done()
                    time.sleep(1e-3)
                assert not wait([done], timeout=0.2).done
                assert on_the_caller == expected and shared.folded == j
                assert shared.ready == set(range(j + 1, j + slots))
            finally:
                release.set()
            done.result(timeout=60)
            assert worker.tasks[0].done()
        assert shared.folded == shared.count == 10 and not shared.ready
        assert shared.out.tobytes() == alone.out.tobytes()
        assert shared.acc.tobytes() == alone.acc.tobytes()

    def test_a_caller_error_releases_the_worker_waiting_to_fold(self, monkeypatch):
        # the caller raises in its first chunk once the worker waits for
        # that chunk's slot; the worker's chunks go on unfolded, and the
        # caller's error reaches _run's caller once the worker has stopped
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 10)
        shared = _three_tap_loop(29)
        chunk, on_the_caller, on_the_worker = T._Loop.chunk, [], []

        def fails_on_the_caller(loop, k, buf):
            deadline = time.monotonic() + 60
            if not threading.current_thread().name.startswith("caller"):
                on_the_worker.append(k)
                while not on_the_caller:
                    assert time.monotonic() < deadline, "the caller took no chunk"
                    time.sleep(1e-3)
                return chunk(loop, k, buf)
            on_the_caller.append(k)
            while k + len(loop.parts) not in on_the_worker:
                assert time.monotonic() < deadline, "the worker waits for no slot"
                time.sleep(1e-3)
            time.sleep(0.1)
            raise ValueError("raised on the caller")

        with ThreadPoolExecutor(1) as pool, ThreadPoolExecutor(1, "caller") as caller:
            worker = _Started(pool)
            monkeypatch.setattr(T, "_conv_worker", lambda: worker)
            monkeypatch.setattr(T._Loop, "chunk", fails_on_the_caller)
            done = caller.submit(T._run, [shared])
            try:
                with pytest.raises(ValueError, match="raised on the caller"):
                    done.result(timeout=60)
            finally:  # a worker still waiting would hold the pool's shutdown up
                with shared.turn:
                    shared.folded = float("inf")
                    shared.turn.notify_all()
            assert worker.tasks[0].done() and worker.tasks[0].exception() is None
        assert len(on_the_caller) == 1
        assert sorted(on_the_caller + on_the_worker) == list(range(shared.count))

    def test_a_backward_holds_a_ring_of_partials_not_one_per_chunk(self, monkeypatch):
        # a stride-1 3x3 weight gradient in chunks of 16 columns of the
        # 34x34 padded grid: 73 chunks, whose partials, each the size of gw,
        # would outweigh every other array of the backward
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 16)
        rng = np.random.default_rng(28)
        x = rng.normal(size=(1, 16, 32, 32)).astype(np.float32)
        w = rng.normal(size=(16, 16, 3, 3)).astype(np.float32)
        g = rng.normal(size=(1, 16, 32, 32)).astype(np.float32)
        count = -(-34 * 34 // 16)
        expected = T.conv2d_backward(g, x, w, 1, need_x=False)[1]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, gw = T.conv2d_backward(g, x, w, 1, need_x=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert gw.tobytes() == expected.tobytes()
        assert peak < count * gw.nbytes

    def test_a_worker_error_after_the_caller_ran_out_reaches_it(self, monkeypatch):
        # the worker holds a chunk until the caller has run every other one,
        # and raises in it only after the caller has run out of chunks
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 20)
        shared = _three_tap_loop(27, fold=False)
        chunk, taken, last = T._Loop.chunk, threading.Event(), threading.Event()
        on_the_caller = []

        def fails_late_on_the_worker(loop, k, buf):
            if threading.get_ident() != threading.main_thread().ident:
                taken.set()
                assert last.wait(60)
                time.sleep(0.1)
                raise ValueError("raised on the worker")
            assert taken.wait(60)
            chunk(loop, k, buf)
            on_the_caller.append(k)
            if len(on_the_caller) == shared.count - 1:
                last.set()

        with ThreadPoolExecutor(1) as pool:
            worker = _Started(pool)
            monkeypatch.setattr(T, "_conv_worker", lambda: worker)
            monkeypatch.setattr(T._Loop, "chunk", fails_late_on_the_worker)
            with pytest.raises(ValueError, match="raised on the worker"):
                T._run([shared])
            assert worker.tasks[0].done()
        assert len(on_the_caller) == shared.count - 1

    def test_a_late_worker_holds_no_caller_up(self, monkeypatch):
        # the worker is busy with another task for the whole conv, so it
        # drops each side it is given and the caller runs every chunk itself
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 20)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        g = rng.normal(size=(2, 4, 8, 9)).astype(np.float32)

        def run():
            return [T.conv2d(x, w, None, 1), *T.conv2d_backward(g, x, w, 1),
                    T.conv2d_backward(g, x, w, 1, need_w=False)[0]]

        monkeypatch.setattr(T, "_conv_worker", lambda: None)
        alone = run()
        with ThreadPoolExecutor(1) as pool:
            release = threading.Event()
            busy = pool.submit(release.wait, 60)
            monkeypatch.setattr(T, "_conv_worker", lambda: pool)
            try:
                late = run()
                assert not busy.done()
            finally:
                release.set()
        assert all(np.array_equal(a, b) for a, b in zip(alone, late))

    def test_forked_child_runs_a_split_conv(self, small_chunks):
        small_chunks((2, 3, 8, 9), (4, 3, 3, 3), 1)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        g = rng.normal(size=(2, 4, 8, 9)).astype(np.float32)
        expected = T.conv2d_backward(g, x, w, 1)  # the parent's worker, if any, now runs
        child = multiprocessing.get_context("fork").Process(target=_conv_in_child,
                                                            args=(g, x, w, expected))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            pytest.fail("a conv in a forked child did not finish in 60 s")
        assert child.exitcode == 0


class TestConvSides:
    """Several conv sides run in one ``_run``, one whole side per thread;
    each side's output is that of ``conv2d`` on it alone, to the bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w_shape,stride", CONV_CASES)
    def test_two_sides_equal_each_alone_bitwise(self, monkeypatch, x_shape, w_shape, stride,
                                                dtype):
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 7)
        rng = np.random.default_rng(41)
        out_shape = T.conv2d(np.empty(x_shape), np.empty(w_shape), None, stride).shape
        sides = [(rng.normal(size=x_shape).astype(dtype), rng.normal(size=w_shape).astype(dtype),
                  rng.normal(size=w_shape[0]).astype(dtype), stride,
                  rng.normal(size=out_shape).astype(dtype), relu)
                 for relu in (True, False)]
        alone = [T.conv2d(*side).tobytes() for side in sides]
        with ThreadPoolExecutor(1) as pool:
            for worker in (None, pool):
                monkeypatch.setattr(T, "_conv_worker", lambda: worker)
                assert [out.tobytes() for out in T.conv2d_sides(sides)] == alone
                assert [T.conv2d(*side[:4]).tobytes() for side in sides] == [
                    out.tobytes() for out in T.conv2d_sides([side[:4] for side in sides])]

    @pytest.mark.parametrize("bad,error", [
        ({"skip": np.zeros((2, 4, 8, 8))}, ShapeError),
        ({"bias": np.zeros(3)}, ShapeError),
        ({"x": np.zeros((2, 2, 8, 9))}, ShapeError),
        ({"weight": np.zeros((4, 3, 2, 2))}, ShapeError),
        ({"stride": 0}, ShapeError),
        ({"x": np.zeros((2, 3, 8, 9), dtype=np.float32),
          "weight": np.zeros((4, 3, 3, 3), dtype=np.float32)}, ContractError),
    ], ids=["skip", "bias", "channels", "even-kernel", "stride-0", "dtype"])
    def test_a_mis_shaped_side_raises_before_any_array_is_made(self, monkeypatch, bad, error):
        made = []

        class Recorded:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                made.append(args)
                return np.empty(*args, **kwargs)

            def zeros(self, *args, **kwargs):
                made.append(args)
                return np.zeros(*args, **kwargs)

        good = dict(x=np.ones((2, 3, 8, 9)), weight=np.ones((4, 3, 3, 3)), bias=np.ones(4),
                    stride=1, skip=np.ones((2, 4, 8, 9)), relu=True)
        monkeypatch.setattr(T, "np", Recorded())
        with pytest.raises(error):
            T.conv2d_sides([tuple(good.values()), tuple({**good, **bad}.values())])
        assert made == []


class TestPooling:
    def test_constant_plane(self):
        x = np.full((2, 3, 4, 5), 7.25)
        npt.assert_array_equal(ag.global_avg_pool(x).value, np.full((2, 3), 7.25))

    def test_mean_by_hand(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        npt.assert_allclose(ag.global_avg_pool(x).value, [[2.5]])

    def test_one_by_one_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 1, 1))
        npt.assert_array_equal(ag.global_avg_pool(x).value, x[:, :, 0, 0])

    def test_max_pool_and_upsample_shapes(self):
        x = np.random.default_rng(1).normal(size=(1, 2, 4, 4)).astype(np.float32)
        pooled = ag.max_pool2d(x).value
        assert pooled.shape == (1, 2, 2, 2)
        npt.assert_allclose(pooled[0, 0, 0, 0], x[0, 0, :2, :2].max())
        up = ag.upsample_nearest(pooled).value
        assert up.shape == x.shape
        npt.assert_allclose(up[0, 0, 0, 0], pooled[0, 0, 0, 0])

    @pytest.mark.parametrize("op", [ag.max_pool2d, ag.global_avg_pool, ag.upsample_nearest])
    def test_rank_other_than_4_rejected(self, op):
        with pytest.raises(ShapeError, match="rank-4"):
            op(np.ones((2, 4, 4), dtype=np.float32))

    def test_max_pool_tie_gradient_goes_to_first_maximum(self):
        # window 0 is all equal; window 1 has its maximum at offsets 1 and 3
        x = ag.Node(np.array([[[[1, 1, 0, 5], [1, 1, 2, 5]]]], dtype=np.float32),
                    requires_grad=True)
        pooled = ag.max_pool2d(x)
        npt.assert_array_equal(pooled.value, [[[[1, 5]]]])
        ag.backward(ag.nsum(ag.mul(pooled, ag.constant(np.float32([[[[3, 7]]]])))))
        npt.assert_array_equal(x.grad, [[[[3, 0, 0, 7], [0, 0, 0, 0]]]])

    @pytest.mark.parametrize("size", [2])  # the pool's window, for the oracle
    def test_max_pool_bitwise_against_argmax(self, size):
        # values near 0 rounded to one decimal: many tied windows, some whose
        # maximum is -0.0 and 0.0 at once
        rng = np.random.default_rng(17)
        x = np.round(rng.normal(-0.1, 0.1, size=(2, 3, 12, 12)), 1).astype(np.float32)
        n, c, h, w = x.shape
        windows = x.reshape(n, c, h // size, size, w // size, size).transpose(0, 1, 2, 4, 3, 5)
        flat = windows.reshape(n, c, h // size, w // size, size * size)
        idx = flat.argmax(axis=-1)[..., None]
        g = np.round(rng.normal(size=idx.shape[:-1]), 1).astype(np.float32)
        grad = np.zeros(flat.shape, dtype=np.float32)
        np.put_along_axis(grad, idx, g[..., None], axis=-1)
        grad = grad.reshape(windows.shape).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)

        # the rule itself: accumulating into a leaf's .grad would turn -0.0 into 0.0
        pooled = ag.max_pool2d(ag.Node(x, requires_grad=True))
        assert pooled.value.tobytes() == np.take_along_axis(flat, idx, axis=-1)[..., 0].tobytes()
        assert pooled._backward_rule(g)[0].tobytes() == grad.tobytes()

    @pytest.mark.parametrize("factor", [2])  # the upsampling factor, for the oracle
    def test_upsample_against_repeat(self, factor):
        rng = np.random.default_rng(18)
        x = ag.Node(rng.normal(size=(2, 3, 4, 5)).astype(np.float32), requires_grad=True)
        up = ag.upsample_nearest(x)
        assert up.value.tobytes() == x.value.repeat(factor, 2).repeat(factor, 3).tobytes()
        g = rng.normal(size=up.shape).astype(np.float32)
        ag.backward(ag.nsum(ag.mul(up, ag.constant(g))))
        blocks = g.reshape(2, 3, 4, factor, 5, factor)
        npt.assert_allclose(x.grad, blocks.sum(axis=(3, 5)), rtol=1e-6, atol=1e-6)
