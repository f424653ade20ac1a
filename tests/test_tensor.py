"""Tensor kernel: spec examples plus algebraic invariants.

conv2d is checked against the naive sliding-window oracle and central
differences, and col2im against the adjoint identity; kron against
hand-applied definitions.
"""

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


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(T.matmul(np.eye(2), b), b)

    def test_dot_product_by_hand(self):
        npt.assert_array_equal(T.matmul([[1.0, 2.0]], [[3.0], [4.0]]), [[11.0]])

    def test_zeros(self):
        out = T.matmul(np.zeros((2, 3)), np.random.default_rng(0).normal(size=(3, 4)))
        npt.assert_array_equal(out, np.zeros((2, 4)))

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(np.ones((2, 3)), np.ones((4, 2)))


class TestPooling:
    def test_constant_plane(self):
        x = np.full((2, 3, 4, 5), 7.25)
        npt.assert_array_equal(T.global_avg_pool(x), np.full((2, 3), 7.25))

    def test_mean_by_hand(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        npt.assert_allclose(T.global_avg_pool(x), [[2.5]])

    def test_one_by_one_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 1, 1))
        npt.assert_array_equal(T.global_avg_pool(x), x[:, :, 0, 0])

    def test_max_pool_and_upsample_shapes(self):
        x = np.random.default_rng(1).normal(size=(1, 2, 4, 4)).astype(np.float32)
        pooled, idx = T.max_pool2d(x, 2)
        assert pooled.shape == (1, 2, 2, 2)
        npt.assert_allclose(pooled[0, 0, 0, 0], x[0, 0, :2, :2].max())
        up = T.upsample_nearest(pooled, 2)
        assert up.shape == x.shape
        npt.assert_allclose(up[0, 0, 0, 0], pooled[0, 0, 0, 0])


class TestElementwise:
    def test_add_zeros(self):
        x = np.random.default_rng(0).normal(size=(3, 2))
        npt.assert_array_equal(T.elementwise("add", x, np.zeros_like(x)), x)

    def test_scale_one(self):
        x = np.random.default_rng(1).normal(size=(4,))
        npt.assert_array_equal(T.elementwise("scale", x, 1.0), x)

    def test_hand_sum(self):
        npt.assert_array_equal(T.elementwise("add", [1.0, 2.0], [3.0, 4.0]), [4.0, 6.0])

    def test_sub_mul(self):
        npt.assert_array_equal(T.elementwise("sub", [5.0], [2.0]), [3.0])
        npt.assert_array_equal(T.elementwise("mul", [5.0], [2.0]), [10.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.elementwise("add", np.ones(3), np.ones(4))

    def test_no_implicit_broadcast(self):
        with pytest.raises(ShapeError):
            T.elementwise("mul", np.ones((2, 2)), np.ones(2))
