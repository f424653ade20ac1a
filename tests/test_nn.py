"""nn primitives: batch norm statistics and gradients, residual block
contracts, stable losses with frozen hand-computed values, Adam update
mechanics, early stopping traces."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from phcnet import autograd as ag
from phcnet import nn
from phcnet.errors import DataError
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
        bn.eval()
        x = ag.constant(np.ones((2, 2, 2, 2), dtype=np.float32))
        out = bn(x).value
        expected0 = (1.0 - 1.0) / math.sqrt(4.0 + 1e-5)
        expected1 = (1.0 + 1.0) / math.sqrt(0.25 + 1e-5)
        npt.assert_allclose(out[:, 0], expected0, rtol=1e-5)
        npt.assert_allclose(out[:, 1], expected1, rtol=1e-5)

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

    def test_grad_check_eval_mode(self):
        rng = np.random.default_rng(2)
        bn = nn.BatchNorm2d(2, dtype=np.float64)
        bn.running_mean[...] = rng.normal(size=2)
        bn.running_var[...] = rng.random(2) + 0.5
        bn.eval()
        x = ag.Node(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)

        def f():
            return ag.nsum(ag.mul(bn(x), bn(x)))

        report = ag.grad_check(f, {"x": x, "gamma": bn.gamma, "beta": bn.beta},
                               h=1e-6, tol=1e-5)
        assert report.passed


    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_grad_check_random_affine_and_statistics(self, training):
        bn, x, _ = bn_case((3, 3, 4, 4), training, seed=11, dtype=np.float64)
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
        got = bn_results(bn, x, g)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, want):
            assert rel_err(a, b) <= 1e-10, name
        if training:
            npt.assert_allclose(bn.running_mean, 0.9 * mean + 0.1 * x.mean(axis=(0, 2, 3)),
                                rtol=1e-12)
            npt.assert_allclose(bn.running_var, 0.9 * var + 0.1 * x.var(axis=(0, 2, 3)),
                                rtol=1e-12)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_float32_error_no_larger_than_oracle(self, training):
        # the oracle in float32 is the layer's arithmetic before the fold
        bn, x, g = bn_case((8, 16, 64, 64), training, seed=0, dtype=np.float32)
        stats = bn.gamma.value, bn.beta.value, bn.running_mean.copy(), bn.running_var.copy()
        exact = bn_oracle(*(v.astype(np.float64) for v in (x, *stats, g)), training)
        old = bn_oracle(x, *stats, g, training)
        got = bn_results(bn, x, g)
        for name, a, b, ref in zip(("out", "dx", "dgamma", "dbeta"), got, old, exact):
            assert a.dtype == np.float32, name
            assert rel_err(a, ref) <= rel_err(b, ref), name


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


class TestEarlyStopper:
    def test_trace_patience_two(self):
        stopper = nn.EarlyStopper(patience=2)
        decisions = [stopper.update(m) for m in [0.7, 0.71, 0.70, 0.70, 0.70]]
        assert decisions == [False, False, False, False, True]

    def test_monotone_improvement_never_stops(self):
        stopper = nn.EarlyStopper(patience=0)
        assert not any(stopper.update(m) for m in np.linspace(0.1, 0.9, 20))

    def test_patience_zero_stops_on_first_plateau(self):
        stopper = nn.EarlyStopper(patience=0)
        assert not stopper.update(0.5)
        assert stopper.update(0.5)  # not a strict improvement
