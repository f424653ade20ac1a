"""Tensor kernel: spec examples plus algebraic invariants.

conv2d is checked against the naive sliding-window oracle and central
differences, in one chunk and across several, and in float32 against
float64 at workload shapes; col2im against the adjoint identity; kron
against hand-applied definitions.
"""

import multiprocessing
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from phcnet import autograd as ag
from phcnet import tensor as T
from phcnet.errors import ShapeError

# (x shape, w shape, stride, padding); the first five keep their original ids
CONV_CASES = [
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), 1, 0, id="1-0"),
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), 1, 1, id="1-1"),
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), 2, 0, id="2-0"),
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), 2, 1, id="2-1"),
    pytest.param((2, 3, 8, 9), (4, 3, 3, 3), (1, 2), (2, 0), id="stride4-padding4"),
    pytest.param((2, 3, 10, 10), (4, 3, 3, 3), 2, 1, id="s2-odd-remainder"),
    pytest.param((2, 3, 7, 8), (4, 3, 3, 3), 1, (1, 0), id="pad-1-0"),
    pytest.param((2, 3, 7, 8), (4, 3, 3, 2), 1, 1, id="k3x2"),
    pytest.param((2, 2, 9, 9), (3, 2, 5, 5), 1, 2, id="k5"),
    pytest.param((2, 2, 9, 10), (3, 2, 5, 5), 2, 2, id="k5-s2"),
    pytest.param((2, 4, 5, 6), (3, 4, 1, 1), 1, 0, id="k1-s1"),
    pytest.param((2, 4, 7, 7), (3, 4, 1, 1), 2, 0, id="k1-s2"),
    pytest.param((1, 3, 6, 6), (2, 3, 3, 3), 2, 1, id="batch1"),
]


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the stacked-GEMM chunk so that the forward's span and every
    phase of the backward span at least three chunks, the last one partial;
    returns a function that sets it for one case and returns the convs run,
    as (calling function, loops, ran, shared): ``ran`` lists each chunk
    computed, as (thread, loop, k), and ``shared`` says whether
    ``_run``'s rule (a split conv of more than one chunk, with a worker)
    shares the conv's chunks with the worker.

    Every loop over more than one source is checked for this as it starts.
    Each of the two threads that share a conv waits in its first chunk of it
    until the other has started one, so that both threads run chunks.  At
    teardown, a conv run alone must have run on one thread each loop once,
    every chunk in order; the two threads sharing a conv must both have run
    chunks, and every chunk of each loop exactly once between them."""
    convs, conv_of = [], {}
    run, chunk = T._run, T._Loop.chunk

    def recorded_run(loops, split):
        assert all(len(loop.sources) == 1 or (loop.count >= 3 and loop.cols % loop.width)
                   for loop in loops)
        shared = (split and T._conv_worker() is not None
                  and sum(loop.count for loop in loops) > 1)
        conv = (sys._getframe(1).f_code.co_name, loops, [], shared)
        convs.append(conv)
        conv_of.update(dict.fromkeys(loops, conv))
        run(loops, split)

    def recorded_chunk(loop, k, buf):
        _, _, ran, shared = conv_of[loop]
        me = threading.get_ident()
        ran.append((me, loop, k))
        first, deadline = sum(t == me for t, *_ in ran) == 1, time.monotonic() + 30
        while shared and first and all(t == me for t, *_ in ran):
            assert time.monotonic() < deadline, "the other thread ran no chunk"
            time.sleep(1e-4)
        chunk(loop, k, buf)

    def set_for(x_shape, w_shape, stride, padding):
        _, (hq, wq), _, span, _ = T._layout(x_shape, w_shape[2:], stride, padding)
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


class TestKron:
    def test_identity_block_diagonal(self):
        a = np.eye(2)
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = [[5, 6, 0, 0], [7, 8, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]]
        npt.assert_array_equal(T.kron(a, b), expected)

    def test_swap_matrix(self):
        # hand-applied Kronecker definition, entry by entry
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = [[0, 0, 1, 2], [0, 0, 3, 4], [1, 2, 0, 0], [3, 4, 0, 0]]
        npt.assert_array_equal(T.kron(a, b), expected)

    def test_scalar_scaling(self):
        npt.assert_array_equal(
            T.kron([[2.0]], np.ones((2, 2))), np.full((2, 2), 2.0)
        )

    def test_trailing_spatial_dims_carried(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.arange(24.0).reshape(2, 3, 2, 2)
        out = T.kron(a, b)
        assert out.shape == (4, 6, 2, 2)
        npt.assert_array_equal(out[:2, :3], b)
        npt.assert_array_equal(out[2:, 3:], b)
        npt.assert_array_equal(out[:2, 3:], 0)

    def test_rank1_rejected(self):
        with pytest.raises(ShapeError):
            T.kron(np.eye(2), np.ones(3))

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_associativity_integer_exact(self, p, q, r, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-3, 4, size=(p, p)).astype(np.float64)
        b = rng.integers(-3, 4, size=(q, q)).astype(np.float64)
        c = rng.integers(-3, 4, size=(r, r)).astype(np.float64)
        npt.assert_array_equal(T.kron(a, T.kron(b, c)), T.kron(T.kron(a, b), c))

    def test_block_diagonal_copies(self):
        f = np.random.default_rng(0).normal(size=(3, 3))
        out = T.kron(np.eye(4), f)
        for i in range(4):
            npt.assert_array_equal(out[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], f)


class TestConv2d:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_cached_layout_equals_uncached(self, k, stride):
        args = ((2, 3, 9, 8), (k, k), stride, k // 2)
        first, again = T._layout(*args), T._layout(*args)
        assert again is first
        assert first == T._layout.__wrapped__(*args)
        phases, taps = first[2], first[4]
        assert isinstance(phases, tuple) and isinstance(taps, tuple)

    def test_pointwise_scaling(self):
        x = np.ones((1, 1, 3, 3))
        w = np.array([[[[2.0]]]])
        npt.assert_allclose(T.conv2d(x, w), np.full((1, 1, 3, 3), 2.0))

    def test_sliding_window_sum(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 2, 2))
        npt.assert_allclose(T.conv2d(x, w), np.full((1, 1, 2, 2), 4.0))

    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 7)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        npt.assert_allclose(T.conv2d(x, w, padding=1), x, atol=1e-7)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_matches_naive_oracle(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(11)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = rng.normal(size=w_shape[0]).astype(np.float32)
        fast = T.conv2d(x, w, b, stride=stride, padding=padding)
        slow = T.conv2d_naive(x, w, b, stride=stride, padding=padding)
        npt.assert_allclose(fast, slow, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_grad_check_float64(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(12)
        x = ag.Node(rng.normal(size=x_shape), requires_grad=True)
        w = ag.Node(rng.normal(size=w_shape), requires_grad=True)
        b = ag.Node(rng.normal(size=w_shape[0]), requires_grad=True)
        out_shape = T.conv2d(x.value, w.value, stride=stride, padding=padding).shape
        cotangent = ag.constant(rng.normal(size=out_shape))

        def f():
            out = ag.conv2d(x, w, b, stride=stride, padding=padding)
            return ag.nsum(ag.mul(out, cotangent))

        report = ag.grad_check(f, {"x": x, "w": w, "b": b}, h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_matches_naive_oracle_in_chunks(self, small_chunks, x_shape, w_shape, stride,
                                            padding):
        small_chunks(x_shape, w_shape, stride, padding)
        self.test_matches_naive_oracle(x_shape, w_shape, stride, padding)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_grad_check_float64_in_chunks(self, small_chunks, x_shape, w_shape, stride,
                                          padding):
        convs = small_chunks(x_shape, w_shape, stride, padding)
        self.test_grad_check_float64(x_shape, w_shape, stride, padding)
        # every conv here keeps a graph.  Its forward is one loop and its
        # backward one loop per phase that some tap reads, each chunk stacked
        # once for both gradients; both are shared whenever there is a
        # worker and more than one chunk, that is, more than one tap
        phases = len(T._layout(x_shape, w_shape[2:], stride, padding)[2])
        shared = T._conv_worker() is not None and w_shape[2] * w_shape[3] > 1
        assert {name for name, *_ in convs} == {"conv2d", "conv2d_backward"}
        for name, loops, ran, _ in convs[1:]:  # the first is the shape probe, with no graph
            assert len(loops) == (1 if name == "conv2d" else phases)
            assert bool({t for t, *_ in ran} - {threading.get_ident()}) == shared

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_one_gradient_equals_both_bitwise(self, x_shape, w_shape, stride, padding):
        # the stem needs no input gradient, and maps() no weight gradient
        rng = np.random.default_rng(17)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        out = T.conv2d(x, w, None, stride, padding)
        args = (rng.normal(size=out.shape).astype(np.float32), x, w, stride, padding)
        gx, gw = T.conv2d_backward(*args)
        no_x, only_w = T.conv2d_backward(*args, need_x=False)
        only_x, no_w = T.conv2d_backward(*args, need_w=False)
        assert no_x is None and no_w is None
        for one, both in ((only_w, gw), (only_x, gx)):
            assert one.shape == both.shape and one.tobytes() == both.tobytes()

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        ((8, 16, 64, 64), (16, 16, 3, 3), 1, 1),
        ((8, 128, 8, 8), (128, 128, 3, 3), 1, 1),
        ((8, 16, 64, 64), (32, 16, 3, 3), 2, 1),
        ((8, 8, 64, 64), (8, 8, 3, 3), 1, 1),
        ((8, 16, 64, 64), (32, 16, 1, 1), 2, 0),
    ], ids=["64x64-16ch", "8x8-128ch", "64x64-16to32ch-s2", "64x64-8ch",
            "64x64-16to32ch-1x1-s2"])
    def test_float32_close_to_float64(self, x_shape, w_shape, stride, padding):
        # the PHResNet and PHUNet layer shapes of the benchmark; float32 sums
        # of up to 9*128 products, and of 32768 for the weight gradient
        rng = np.random.default_rng(15)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        results = []
        for dtype in (np.float32, np.float64):
            out = T.conv2d(x.astype(dtype), w.astype(dtype), None, stride, padding)
            g = np.random.default_rng(16).normal(size=out.shape).astype(np.float32)
            results.append((out, *T.conv2d_backward(g.astype(dtype), x.astype(dtype),
                                                   w.astype(dtype), stride, padding)))
        for name, low, high in zip(("forward", "gx", "gw"), *results):
            assert low.dtype == np.float32 and high.dtype == np.float64
            assert rms_relative(low, high) < 5e-7, name

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_col2im_is_adjoint_of_im2col(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(13)
        x = rng.normal(size=x_shape)
        cols = T.im2col(x, w_shape[2:], stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float(np.vdot(cols, y))
        rhs = float(np.vdot(x, T.col2im(y, x_shape, w_shape[2:], stride, padding)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_autograd_forward_is_tensor_forward_bitwise(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 4, 9, 10)).astype(np.float32)
        w = rng.normal(size=(5, 4, 3, 3)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        fast = T.conv2d(x, w, b, stride=2, padding=1)
        node = ag.conv2d(ag.constant(x), ag.Node(w, requires_grad=True), ag.constant(b),
                         stride=2, padding=1)
        assert node.value.tobytes() == fast.tobytes()

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        y = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        alpha, beta = 1.7, -0.4
        lhs = T.conv2d(alpha * x + beta * y, w, padding=1)
        rhs = alpha * T.conv2d(x, w, padding=1) + beta * T.conv2d(y, w, padding=1)
        npt.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)))

    def test_empty_output_extent(self):
        with pytest.raises(ShapeError):
            T.conv2d(np.ones((1, 1, 2, 2)), np.ones((1, 1, 5, 5)))

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


def _three_tap_loop(seed):
    """A loop over three taps of one source, with both products."""
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(3, 102)).astype(np.float32)
    w = rng.normal(size=(4, 9)).astype(np.float32)
    layout = rng.normal(size=(5, 100)).astype(np.float32)
    return T._Loop([(src, 0), (src, 1), (src, 2)], 100, np.float32, w,
                   np.empty((4, 100), dtype=np.float32), layout)


def _conv_in_child(g, x, w, expected):
    got = T.conv2d_backward(g, x, w, 1, 1)
    sys.exit(0 if all(np.array_equal(a, b) for a, b in zip(got, expected)) else 1)


class TestConvWorker:
    """The conv worker joins only the forwards that keep a graph, and every
    backward.  It changes no bit of any result, keeps the caller's numpy
    error state, hands its errors to the caller, holds up no caller when it
    starts late, and survives a fork.  Once no chunk is left, the caller
    waits for the one chunk that the worker holds.  Without the worker, a
    backward stacks each chunk once for both gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_worker_on_and_off_bitwise(self, small_chunks, monkeypatch, x_shape, w_shape,
                                       stride, padding, dtype):
        small_chunks(x_shape, w_shape, stride, padding)
        rng = np.random.default_rng(18)
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        g = rng.normal(size=T.conv2d(x, w, None, stride, padding).shape).astype(dtype)
        results = []
        with ThreadPoolExecutor(1) as pool:
            for worker in (None, pool):
                monkeypatch.setattr(T, "_conv_worker", lambda: worker)
                results.append([T.conv2d(x, w, None, stride, padding, keeps_graph=keeps)
                                for keeps in (False, True)] + [
                    grad for need in ((True, True), (True, False), (False, True))
                    for grad in T.conv2d_backward(g, x, w, stride, padding, *need)])
        for off, on in zip(*results):
            assert (off is None and on is None) or np.array_equal(off, on)

    def test_only_a_forward_that_keeps_a_graph_shares_its_chunks(self, small_chunks,
                                                                 monkeypatch):
        convs = small_chunks((2, 3, 8, 9), (4, 3, 3, 3), 1, 1)
        rng = np.random.default_rng(25)
        x = ag.Node(rng.normal(size=(2, 3, 8, 9)).astype(np.float32), requires_grad=True)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        with ThreadPoolExecutor(1) as pool:
            worker = _Started(pool)
            monkeypatch.setattr(T, "_conv_worker", lambda: worker)
            kept = ag.conv2d(x, w, padding=1)
            evaluated = ag.conv2d(ag.constant(x.value), w, padding=1)
        assert kept.requires_grad and not evaluated.requires_grad
        assert kept.value.tobytes() == evaluated.value.tobytes()
        (_, _, kept_ran, _), (_, _, eval_ran, _) = convs
        main = threading.get_ident()
        assert len(worker.tasks) == 1  # the eval forward submits nothing
        assert {t for t, *_ in kept_ran} > {main} and {t for t, *_ in eval_ran} == {main}

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
        g = rng.normal(size=T.conv2d(x, w, None, stride, 1).shape).astype(np.float32)
        monkeypatch.setattr(T._Loop, "chunk", recorded)
        T.conv2d_backward(g, x, w, stride, 1)
        # one loop per phase that some tap reads, each computing both
        # gradients' products of its chunks once, in order
        loops = list(dict.fromkeys(loop for loop, _ in ran))
        assert len(loops) == len(T._layout(x.shape, (3, 3), stride, 1)[2])
        assert all(loop.w is not None and loop.layout is not None for loop in loops)
        assert ran == [(loop, k) for loop in loops for k in range(loop.count)]

    def test_concurrent_callers_share_the_worker(self, small_chunks):
        # four threads on at most two CPUs queue their graph-keeping forwards
        # and their backwards on the one worker; with a short switch interval, a write that crossed into
        # another call's arrays would show as a wrong bit
        args = ((2, 3, 8, 9), (4, 3, 3, 3), 1, 1)
        small_chunks(*args)
        rng = np.random.default_rng(20)
        cases = [(rng.normal(size=args[0]).astype(np.float32),
                  rng.normal(size=args[1]).astype(np.float32)) for _ in range(4)]
        g = rng.normal(size=T.conv2d(*cases[0], None, 1, 1).shape).astype(np.float32)

        def run(x, w):
            return [T.conv2d(x, w, None, 1, 1, keeps_graph=True),
                    *T.conv2d_backward(g, x, w, 1, 1)]

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
                    T.conv2d_backward(g, x, w, 1, 1)
                assert caught == []
                assert np.isinf(T.conv2d_backward(g, x, w, 1, 1)[0]).all()
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
                T.conv2d_backward(g, x, w, 1, 1)
            monkeypatch.setattr(T._Loop, "chunk", chunk)
            gx, gw = T.conv2d_backward(g, x, w, 1, 1)
        monkeypatch.setattr(T, "_conv_worker", lambda: None)
        assert all(np.array_equal(a, b) for a, b in zip((gx, gw), T.conv2d_backward(g, x, w, 1, 1)))

    def test_a_worker_stalled_in_a_chunk_holds_the_caller_until_it_is_written(
            self, monkeypatch):
        # the worker takes a chunk and stalls in it; the caller runs every
        # other chunk and then waits in _run until the worker has written it
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 20)
        monkeypatch.setattr(T, "_conv_worker", lambda: None)
        alone = _three_tap_loop(22)
        T._run([alone], True)
        chunk, stalled, release = T._Loop.chunk, threading.Event(), threading.Event()
        on_the_caller = []

        def stalls_on_the_worker(loop, k, buf):
            if threading.current_thread().name.startswith("caller"):
                assert stalled.wait(60)
                on_the_caller.append(k)
            else:
                stalled.set()
                assert release.wait(60)
            chunk(loop, k, buf)

        shared = _three_tap_loop(22)
        with ThreadPoolExecutor(1) as pool, ThreadPoolExecutor(1, "caller") as caller:
            worker = _Started(pool)
            monkeypatch.setattr(T, "_conv_worker", lambda: worker)
            monkeypatch.setattr(T._Loop, "chunk", stalls_on_the_worker)
            try:
                done = caller.submit(T._run, [shared], True)
                deadline = time.monotonic() + 60
                while len(on_the_caller) < shared.count - 1:
                    assert time.monotonic() < deadline and not done.done()
                    time.sleep(1e-3)
                assert not wait([done], timeout=0.2).done
            finally:
                release.set()
            done.result(timeout=60)
            assert worker.tasks[0].done()
        assert len(on_the_caller) == shared.count - 1
        assert shared.out.tobytes() == alone.out.tobytes()
        assert shared.parts.tobytes() == alone.parts.tobytes()

    def test_a_worker_error_after_the_caller_ran_out_reaches_it(self, monkeypatch):
        # the worker holds a chunk until the caller has run every other one,
        # and raises in it only after the caller has run out of chunks
        monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
        monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 20)
        shared = _three_tap_loop(27)
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
                T._run([shared], True)
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
            return [T.conv2d(x, w, None, 1, 1, keeps_graph=True),
                    *T.conv2d_backward(g, x, w, 1, 1),
                    T.conv2d_backward(g, x, w, 1, 1, need_w=False)[0]]

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
        small_chunks((2, 3, 8, 9), (4, 3, 3, 3), 1, 1)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        g = rng.normal(size=(2, 4, 8, 9)).astype(np.float32)
        expected = T.conv2d_backward(g, x, w, 1, 1)  # the parent's worker, if any, now runs
        child = multiprocessing.get_context("fork").Process(target=_conv_in_child,
                                                            args=(g, x, w, expected))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            pytest.fail("a conv in a forked child did not finish in 60 s")
        assert child.exitcode == 0


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
