"""nn primitives: batch norm statistics and gradients, the train-mode node
that carries the residual add and ReLU against the separate ops, residual block
contracts, stable losses with frozen hand-computed values, Adam update
mechanics."""

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from phcnet import autograd as ag
from phcnet import nn
from phcnet import tensor as T
from phcnet.errors import ContractError, DataError, NumericError, ShapeError, finite
from phcnet.module import Parameter


def bn_oracle(x, gamma, beta, mean, var, g, training, eps=1e-5):
    """Batch norm by its textbook formula, in the inputs' dtype: the output
    and the gradients of x, gamma and beta for the upstream gradient g.
    Train mode takes the statistics of x; eval mode takes mean and var."""
    e = lambda v: v[None, :, None, None]
    m = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - e(mean)) * e(inv_std)
    out = e(gamma) * xhat + e(beta)
    dxhat = g * e(gamma)
    if training:
        dx = e(inv_std) / m * (m * dxhat - e(dxhat.sum(axis=(0, 2, 3)))
                               - xhat * e((dxhat * xhat).sum(axis=(0, 2, 3))))
    else:
        dx = dxhat * e(inv_std)
    return out, dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def random_bn(channels, training, seed, dtype):
    """A batch norm with random gamma, beta and running statistics."""
    rng = np.random.default_rng(seed)
    bn = nn.BatchNorm2d(channels, dtype=dtype)
    bn.gamma.value[...] = rng.uniform(0.5, 1.5, channels)
    bn.beta.value[...] = rng.normal(size=channels)
    bn.running_mean[...] = rng.normal(0.0, 2.0, channels)
    bn.running_var[...] = rng.uniform(0.5, 3.0, channels) ** 2
    bn.train(training)
    return bn


def bn_case(shape, training, seed, dtype):
    """(bn, x, g): channels with their own offset and scale, as after a conv."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    x = (rng.normal(size=shape) * rng.uniform(0.5, 3.0, c)[None, :, None, None]
         + rng.normal(0.0, 2.0, c)[None, :, None, None]).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    return random_bn(c, training, seed + 1, dtype), x, g


def bn_results(bn, x, g):
    """The layer's output and its gradients of x, gamma and beta for g."""
    node = ag.Node(x, requires_grad=True)
    out = bn(node)
    ag.backward(ag.nsum(ag.mul(out, ag.constant(g))))
    return out.value, node.grad, bn.gamma.grad, bn.beta.grad


def rel_err(got, want) -> float:
    """Norm-wise relative error, so one rounding of one element cannot decide it."""
    return float(np.linalg.norm((got - want).ravel()) / np.linalg.norm(want.ravel()))


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(0)
        bn = nn.BatchNorm2d(3)
        x = ag.constant(rng.normal(2.0, 3.0, size=(8, 3, 5, 5)).astype(np.float32))
        out = bn(x).value
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-4

    def test_eval_mode_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        bn.running_mean[...] = [1.0, -1.0]
        bn.running_var[...] = [4.0, 0.25]
        a, b = bn.affine()  # the map of an input of ones
        expected0 = (1.0 - 1.0) / math.sqrt(4.0 + 1e-5)
        expected1 = (1.0 + 1.0) / math.sqrt(0.25 + 1e-5)
        npt.assert_allclose(a + b, [expected0, expected1], rtol=1e-5)

    def test_eval_mode_call_raises(self):
        bn = random_bn(3, False, seed=3, dtype=np.float32)
        with pytest.raises(ContractError, match="conv_bn"):
            bn(ag.constant(np.zeros((2, 3, 4, 4), dtype=np.float32)))

    def test_running_stats_update(self):
        bn = nn.BatchNorm2d(1)
        x = ag.constant(np.full((4, 1, 2, 2), 10.0, dtype=np.float32))
        bn(x)
        npt.assert_allclose(bn.running_mean, [1.0])  # 0.9*0 + 0.1*10
        npt.assert_allclose(bn.running_var, [0.9])   # 0.9*1 + 0.1*0

    def test_grad_check_train_mode(self):
        rng = np.random.default_rng(1)
        bn = nn.BatchNorm2d(3, dtype=np.float64)
        x = ag.Node(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)

        def f():
            out = bn(x)
            return ag.nsum(ag.mul(out, out))

        params = {"x": x, "gamma": bn.gamma, "beta": bn.beta}
        report = ag.grad_check(f, params, h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    def test_grad_check_random_affine_and_statistics(self):
        bn, x, _ = bn_case((3, 3, 4, 4), True, seed=11, dtype=np.float64)
        x = ag.Node(x, requires_grad=True)
        w = ag.constant(np.random.default_rng(12).normal(size=x.shape))

        def f():
            out = bn(x)
            return ag.nsum(ag.mul(ag.mul(out, out), w))

        report = ag.grad_check(f, {"x": x, "gamma": bn.gamma, "beta": bn.beta},
                               h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_matches_oracle_float64(self, training):
        bn, x, g = bn_case((4, 5, 6, 7), training, seed=13, dtype=np.float64)
        mean, var = bn.running_mean.copy(), bn.running_var.copy()
        want = bn_oracle(x, bn.gamma.value, bn.beta.value, mean, var, g, training)
        if not training:  # eval mode is the map x·a + b that conv_bn folds into the conv
            scale, shift = (v[None, :, None, None] for v in bn.affine())
            assert rel_err(x * scale + shift, want[0]) <= 1e-10
            return
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), bn_results(bn, x, g), want):
            assert rel_err(a, b) <= 1e-10, name
        npt.assert_allclose(bn.running_mean, 0.9 * mean + 0.1 * x.mean(axis=(0, 2, 3)),
                            rtol=1e-12)
        npt.assert_allclose(bn.running_var, 0.9 * var + 0.1 * x.var(axis=(0, 2, 3)),
                            rtol=1e-12)

    def test_float32_error_no_larger_than_oracle(self):
        # the oracle in float32 is the textbook arithmetic in the layer's dtype
        bn, x, g = bn_case((8, 16, 64, 64), True, seed=0, dtype=np.float32)
        stats = bn.gamma.value, bn.beta.value, bn.running_mean.copy(), bn.running_var.copy()
        exact = bn_oracle(*(v.astype(np.float64) for v in (x, *stats, g)), True)
        old = bn_oracle(x, *stats, g, True)
        got = bn_results(bn, x, g)
        for name, a, b, ref in zip(("out", "dx", "dgamma", "dbeta"), got, old, exact):
            assert a.dtype == np.float32, name
            assert rel_err(a, ref) <= rel_err(b, ref), name

    @pytest.mark.parametrize("skip,relu", [(True, True), (True, False), (False, True)])
    def test_skip_and_relu_equal_the_separate_ops_bitwise(self, skip, relu):
        # the one train-mode node against bn, ag.add and ag.relu as separate nodes
        bn, x, g = bn_case((4, 5, 6, 7), True, seed=21, dtype=np.float32)
        twin, _, _ = bn_case((4, 5, 6, 7), True, seed=21, dtype=np.float32)
        s = np.random.default_rng(22).normal(size=x.shape).astype(np.float32)
        results = []
        for fused in (True, False):
            layer = bn if fused else twin
            xn, sn = ag.Node(x, requires_grad=True), ag.Node(s, requires_grad=True)
            if fused:
                out = layer(xn, sn if skip else None, relu=relu)
            else:
                out = layer(xn)
                out = ag.add(out, sn) if skip else out
                out = ag.relu(out) if relu else out
            ag.backward(ag.nsum(ag.mul(out, ag.constant(g))))
            results.append((out.value, xn.grad, sn.grad, layer.gamma.grad, layer.beta.grad,
                            layer.running_mean, layer.running_var))
        for name, a, b in zip(("out", "dx", "dskip", "dgamma", "dbeta", "mean", "var"),
                              *results):
            assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes()), name

    def test_skip_of_another_shape_raises(self):
        bn = nn.BatchNorm2d(3)
        with pytest.raises(ShapeError, match="skip"):
            bn(ag.constant(np.zeros((2, 3, 4, 4), np.float32)),
               ag.constant(np.zeros((2, 3, 2, 2), np.float32)))


def bits(a):
    """``a``'s bits, so that -0.0 and +0.0 differ."""
    return None if a is None else a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


CHANNELS_CHUNK = nn._Channels.chunk


def bn_in_blocks(monkeypatch, case, width, worker):
    """One train-mode forward and backward of ``case`` = (shape, dtype, skip,
    relu, requires_grad) in blocks of ``width`` channels (None: the default),
    with ``worker`` as the conv worker: the bits of the output, dx, dskip,
    dgamma, dbeta and the running statistics, and the threads that ran each
    loop's blocks.  With a worker, each side's first block of a loop of
    several waits until the other side has run one, so that both run blocks."""
    shape, dtype, skip, relu, requires_grad = case
    if width is not None:
        plane = shape[0] * shape[2] * shape[3] * np.dtype(dtype).itemsize
        monkeypatch.setattr(nn, "_BN_BLOCK_BYTES", width * plane)
    monkeypatch.setattr(T, "_conv_worker", lambda: worker)
    threads, chunk = {}, CHANNELS_CHUNK

    def recorded(loop, k, buf):
        ran, me = threads.setdefault(loop, []), threading.get_ident()
        ran.append(me)
        deadline = time.monotonic() + 30
        while worker is not None and loop.count > 1 and set(ran) == {me}:
            assert time.monotonic() < deadline, "the other side ran no block"
            time.sleep(1e-4)
        chunk(loop, k, buf)

    monkeypatch.setattr(nn._Channels, "chunk", recorded)
    bn, x, g = bn_case(shape, True, seed=31, dtype=dtype)
    s = np.random.default_rng(32).normal(size=shape).astype(dtype)
    xn, sn = ag.Node(x, requires_grad=requires_grad), ag.Node(s, requires_grad=True)
    out = bn(xn, sn if skip else None, relu=relu)
    ag.backward(ag.nsum(ag.mul(out, ag.constant(g))))
    results = [bits(a) for a in (out.value, xn.grad, sn.grad if skip else None, bn.gamma.grad,
                                 bn.beta.grad, bn.running_mean, bn.running_var)]
    return results, [set(ran) for ran in threads.values()]


class TestBatchNormBlocks:
    """Train-mode batch norm runs its forward and its backward each as one
    loop over blocks of whole channels, shared with the conv worker; no bit
    of any result depends on the blocks or on which side ran them."""

    @pytest.mark.parametrize("requires_grad", [True, False])
    @pytest.mark.parametrize("skip,relu", [(False, False), (True, False), (False, True),
                                           (True, True)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,width", [
        pytest.param((2, 7, 20, 20), 3, id="rows-3-3-1"),
        pytest.param((3, 5, 7, 9), 2, id="planes-2-2-1"),
        pytest.param((8, 9, 16, 16), 1, id="planes-of-256-1"),
        pytest.param((8, 16, 64, 64), None, id="8x16x64x64"),
        pytest.param((8, 8, 64, 64), None, id="8x8x64x64"),
    ])
    def test_worker_off_and_one_block_bitwise(self, monkeypatch, shape, width, dtype, skip,
                                              relu, requires_grad):
        case = shape, dtype, skip, relu, requires_grad
        with ThreadPoolExecutor(1) as pool:
            shared, threads = bn_in_blocks(monkeypatch, case, width, pool)
        assert len(threads) == 2 and all(len(ran) == 2 for ran in threads)
        alone, threads = bn_in_blocks(monkeypatch, case, width, None)
        assert threads == [{threading.get_ident()}] * 2
        one, _ = bn_in_blocks(monkeypatch, case, shape[1], None)
        for name, *arrays in zip(("out", "dx", "dskip", "dgamma", "dbeta", "mean", "var"),
                                 shared, alone, one):
            assert all((a is None) == (arrays[0] is None) for a in arrays), name
            assert arrays[0] is None or all(np.array_equal(a, arrays[0]) for a in arrays), name
        assert (shared[1] is None) == (not requires_grad)

    def test_a_failed_forward_writes_no_running_statistics(self, monkeypatch):
        # gamma 1e38 overflows x̂·γ in the blocks of channels 8-15, of four
        # blocks of four channels; the statistics are written after every block
        bn, x, _ = bn_case((8, 16, 64, 64), True, seed=33, dtype=np.float32)
        bn.gamma.value[8:] = 1e38
        before = bn.running_mean.copy(), bn.running_var.copy()
        with ThreadPoolExecutor(1) as pool:
            tasks, submit = [], pool.submit
            monkeypatch.setattr(pool, "submit", lambda *a: tasks.append(submit(*a)) or tasks[-1])
            monkeypatch.setattr(T, "_conv_worker", lambda: pool)
            with pytest.raises(NumericError), finite("the step"):
                bn(ag.Node(x, requires_grad=True))
            assert len(tasks) == 1 and tasks[0].done()
        assert bn.running_mean.tobytes() == before[0].tobytes()
        assert bn.running_var.tobytes() == before[1].tobytes()


class TestResidualBlock:
    def test_zero_residual_path_degrades_to_relu(self):
        block = nn.ResidualBlock(2, 4, 4, seed=0)
        for name, p in block.named_parameters():
            if "phc" in name:
                p.value[...] = 0.0
        block.eval()  # identity running stats, beta = 0
        x = np.random.default_rng(3).normal(size=(2, 4, 5, 5)).astype(np.float32)
        out = block(ag.constant(x)).value
        npt.assert_allclose(out, np.maximum(x, 0.0), atol=1e-6)

    def test_stride2_halves_and_projects(self):
        block = nn.ResidualBlock(2, 4, 8, stride=2, seed=1)
        assert block.proj is not None
        out = block(ag.constant(np.random.default_rng(4)
                                .normal(size=(2, 4, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_no_projection_when_shape_kept(self):
        assert nn.ResidualBlock(2, 4, 4, seed=2).proj is None

    def test_grad_check_full_block(self):
        rng = np.random.default_rng(5)
        block = nn.ResidualBlock(2, 2, 4, stride=2, seed=3)
        for p in block.parameters():  # tighten to binary64
            p.value = p.value.astype(np.float64)
        x = ag.constant(rng.normal(size=(3, 2, 4, 4)))

        def f():
            out = block(ag.constant(x.value))
            return ag.nsum(ag.mul(out, out))

        report = ag.grad_check(f, dict(block.named_parameters()), h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    def test_refiner_bottleneck_shape(self):
        block = nn.ResidualBlock(2, 8, 8, variant="refiner", seed=4)
        assert block.phc1.out_channels == 2  # mid = out/4
        out = block(ag.constant(np.random.default_rng(6)
                                .normal(size=(2, 8, 1, 1)).astype(np.float32)))
        assert out.shape == (2, 8, 1, 1)

    def test_refiner_grad_check(self):
        rng = np.random.default_rng(7)
        block = nn.ResidualBlock(2, 8, 8, variant="refiner", seed=5)
        for p in block.parameters():
            p.value = p.value.astype(np.float64)
        x = ag.constant(rng.normal(size=(4, 8, 1, 1)))

        def f():
            return ag.nsum(ag.mul(block(x), block(x)))

        report = ag.grad_check(f, dict(block.named_parameters()), h=1e-6, tol=1e-5)
        assert report.passed, report.per_param


class TestBCE:
    def test_ln2_at_zero_logit(self):
        loss = nn.bce_with_logits(
            ag.constant(np.zeros((1, 1))), np.ones((1, 1)), pos_weight=1.0
        )
        assert float(loss.value) == pytest.approx(math.log(2.0), rel=1e-6)

    def test_pos_weight_scales_positive_term(self):
        loss = nn.bce_with_logits(
            ag.constant(np.zeros((1, 1))), np.ones((1, 1)), pos_weight=3.0
        )
        assert float(loss.value) == pytest.approx(3.0 * math.log(2.0), rel=1e-6)

    def test_hand_evaluated_batch(self):
        z = ag.constant(np.array([[2.0], [-1.0]]))
        y = np.array([[1.0], [0.0]])
        loss = nn.bce_with_logits(z, y)
        expected = (math.log(1 + math.exp(-2)) + math.log(1 + math.exp(-1))) / 2
        assert float(loss.value) == pytest.approx(0.220095, abs=1e-6)
        assert float(loss.value) == pytest.approx(expected, rel=1e-9)

    @given(st.floats(-50, 50), st.integers(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_sigma_symmetry(self, z, y):
        a = nn.bce_with_logits(ag.constant(np.array([[z]])), np.array([[float(y)]]))
        b = nn.bce_with_logits(ag.constant(np.array([[-z]])),
                               np.array([[float(1 - y)]]))
        assert float(a.value) == pytest.approx(float(b.value), abs=1e-9)

    def test_stable_for_large_logits_float32(self):
        z = ag.constant(np.array([[80.0], [-80.0]], dtype=np.float32))
        y = np.array([[0.0], [1.0]], dtype=np.float32)
        loss = nn.bce_with_logits(z, y)
        assert np.isfinite(loss.value)
        ag.Node.__init__  # no-op; ensure gradient is also finite
        x = ag.Node(z.value.copy(), requires_grad=True)
        ag.backward(nn.bce_with_logits(x, y))
        assert np.isfinite(x.grad).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        z = ag.Node(rng.normal(size=(4, 2)), requires_grad=True)
        y = (rng.random((4, 2)) < 0.5).astype(np.float64)
        report = ag.grad_check(
            lambda: nn.bce_with_logits(z, y, pos_weight=2.5), {"z": z},
            h=1e-6, tol=1e-7,
        )
        assert report.passed


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = nn.cross_entropy(ag.constant(np.zeros((3, 5))), [0, 2, 4])
        assert float(loss.value) == pytest.approx(math.log(5.0), rel=1e-6)

    def test_saturated_true_class(self):
        z = np.zeros((1, 5))
        z[0, 2] = 30.0
        loss = nn.cross_entropy(ag.constant(z), [2])
        assert float(loss.value) < 1e-9

    def test_softmax_by_hand(self):
        z = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        loss = nn.cross_entropy(ag.constant(z), [0])
        expected = -math.log(math.e / (math.e + 4.0))
        assert float(loss.value) == pytest.approx(expected, rel=1e-9)
        assert float(loss.value) == pytest.approx(0.904832, abs=1e-6)

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            nn.cross_entropy(ag.constant(np.zeros((2, 5))), [0, 5])

    def test_gradient(self):
        rng = np.random.default_rng(9)
        z = ag.Node(rng.normal(size=(6, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=6)
        report = ag.grad_check(
            lambda: nn.cross_entropy(z, labels), {"z": z}, h=1e-6, tol=1e-7
        )
        assert report.passed


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = Parameter(np.zeros(4, dtype=np.float64))
        opt = nn.Adam([p], lr=0.01)
        p.grad = np.array([5.0, -0.001, 123.0, -7.0])
        opt.step()
        # bias-corrected first step: lr * g/(|g| + eps) ~= lr * sign(g)
        npt.assert_allclose(np.abs(p.value), 0.01, rtol=1e-4)
        assert np.sign(p.value[1]) == 1.0  # moves against the gradient

    def test_zero_gradient_no_decay_is_identity(self):
        p = Parameter(np.array([1.0, -2.0]))
        opt = nn.Adam([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        npt.assert_array_equal(p.value, [1.0, -2.0])

    def test_decoupled_decay_pure_shrink(self):
        p = Parameter(np.array([1.0, -2.0], dtype=np.float64))
        opt = nn.Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(2)
        opt.step()
        npt.assert_allclose(p.value, np.array([1.0, -2.0]) * (1 - 0.1 * 0.5))

    def test_lr_zero_is_identity(self):
        rng = np.random.default_rng(10)
        p = Parameter(rng.normal(size=(3, 3)))
        before = p.value.copy()
        opt = nn.Adam([p], lr=0.0, weight_decay=5e-4)
        p.grad = rng.normal(size=(3, 3))
        opt.step()
        npt.assert_array_equal(p.value, before)

    def test_a_step_that_overflows_writes_nothing(self):
        # lr 1e39 overflows float32 after the first parameter's decay: the
        # NumericError leaves every value, every moment and the step count
        rng = np.random.default_rng(11)
        params = [Parameter(rng.normal(size=shape).astype(np.float32))
                  for shape in ((3, 2), (4,))]
        opt = nn.Adam(params, lr=1e39, weight_decay=5e-4)
        for p in params:
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        before = [[a.copy() for a in arrays]
                  for arrays in zip([p.value for p in params], opt._m, opt._v)]
        with pytest.raises(NumericError), finite("the step"):
            opt.step()
        for want, got in zip(before, zip([p.value for p in params], opt._m, opt._v)):
            for w, g in zip(want, got):
                npt.assert_array_equal(g, w)
        assert opt.step_count == 0
