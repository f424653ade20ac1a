"""PHC layers: weight construction against hand Kronecker sums, numpy's
np.kron and the Hamilton-product oracle, the parameter law, degeneration to
real layers, initialization schemes, differentiability in A and F."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from phcnet import autograd as ag
from phcnet import phc
from phcnet import tensor as T
from phcnet.errors import ConfigError, ShapeError


class TestBuildWeight:
    def test_n1_degenerates_to_single_filter(self):
        layer = phc.PHCConv2d(1, 3, 2, 3, seed=0)
        layer.A.value[...] = 1.0
        npt.assert_array_equal(layer.build_weight().value, layer.F.value[0])

    def test_n2_hand_kronecker_sum(self):
        # A0=I, A1=[[0,-1],[1,0]], scalar filters a=2, b=3 -> [[2,-3],[3,2]]
        layer = phc.PHCConv2d(2, 2, 2, 1, seed=0)
        layer.A.value[...] = phc.fixed_algebra(2)
        layer.F.value[0] = 2.0
        layer.F.value[1] = 3.0
        w = layer.build_weight().value[:, :, 0, 0]
        npt.assert_array_equal(w, [[2.0, -3.0], [3.0, 2.0]])

    def test_n4_equals_hamilton_block_matrix(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            f = rng.normal(size=(4, 2, 3, 3, 3))
            layer = phc.PHCConv2d(4, 12, 8, 3, seed=trial, dtype=np.float64)
            layer.A.value[...] = phc.fixed_algebra(4)
            layer.F.value[...] = f
            built = layer.build_weight().value
            oracle = phc.hamilton_weight(f[0], f[1], f[2], f[3])
            npt.assert_array_equal(built, oracle)  # exact, binary64

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_kron_sum_matches_numpy_kron(self, n, k):
        # numpy's Kronecker product shares no index layout with kron_sum's einsum
        rng = np.random.default_rng(10 * n + k)
        a, f = rng.normal(size=(n, n, n)), rng.normal(size=(n, 2, 3, k, k))
        expected = sum(np.kron(a[i][:, :, None, None], f[i]) for i in range(n))
        npt.assert_array_equal(ag.kron_sum(a, f).value, expected)

    def test_linear_in_each_filter_bank(self):
        rng = np.random.default_rng(1)
        layer = phc.PHCConv2d(2, 4, 4, 3, seed=5)
        f0 = rng.normal(size=layer.F.shape).astype(np.float32)
        f1 = rng.normal(size=layer.F.shape).astype(np.float32)
        alpha, beta = 0.7, -1.9

        def weight_for(f):
            layer.F.value[...] = f
            return layer.build_weight().value

        combined = weight_for(alpha * f0 + beta * f1)
        separate = alpha * weight_for(f0) + beta * weight_for(f1)
        npt.assert_allclose(combined, separate, rtol=1e-6, atol=1e-6)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            phc.PHCConv2d(2, 3, 4, 3)
        with pytest.raises(ConfigError):
            phc.PHCConv2d(4, 8, 6, 3)


def kron(a, b):
    """One Kronecker product, as a one-term ``kron_sum``."""
    return ag.kron_sum(np.asarray(a)[None], np.asarray(b)[None]).value


class TestKronSum:
    """A one-term ``kron_sum`` against the Kronecker product written out by
    hand, which shares nothing with its einsum."""

    def test_identity_block_diagonal(self):
        a = np.eye(2)
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = [[5, 6, 0, 0], [7, 8, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]]
        npt.assert_array_equal(kron(a, b), expected)

    def test_swap_matrix(self):
        # hand-applied Kronecker definition, entry by entry
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = [[0, 0, 1, 2], [0, 0, 3, 4], [1, 2, 0, 0], [3, 4, 0, 0]]
        npt.assert_array_equal(kron(a, b), expected)

    def test_scalar_scaling(self):
        npt.assert_array_equal(kron([[2.0]], np.ones((2, 2))), np.full((2, 2), 2.0))

    def test_trailing_spatial_dims_carried(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.arange(24.0).reshape(2, 3, 2, 2)
        out = kron(a, b)
        assert out.shape == (4, 6, 2, 2)
        npt.assert_array_equal(out[:2, :3], b)
        npt.assert_array_equal(out[2:, 3:], b)
        npt.assert_array_equal(out[:2, 3:], 0)

    def test_rank1_rejected(self):
        with pytest.raises(ShapeError):
            kron(np.eye(2), np.ones(3))

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_associativity_integer_exact(self, p, q, r, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-3, 4, size=(p, p)).astype(np.float64)
        b = rng.integers(-3, 4, size=(q, q)).astype(np.float64)
        c = rng.integers(-3, 4, size=(r, r)).astype(np.float64)
        npt.assert_array_equal(kron(a, kron(b, c)), kron(kron(a, b), c))

    def test_block_diagonal_copies(self):
        f = np.random.default_rng(0).normal(size=(3, 3))
        out = kron(np.eye(4), f)
        for i in range(4):
            npt.assert_array_equal(out[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], f)


class TestForward:
    def test_n1_matches_standard_conv(self):
        rng = np.random.default_rng(2)
        layer = phc.PHCConv2d(1, 3, 5, 3, stride=2, seed=3)
        layer.A.value[...] = 1.0
        x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        out = layer(ag.constant(x)).value
        ref = T.conv2d(x, layer.F.value[0], layer.bias.value, stride=2)
        assert np.abs(out - ref).max() < 1e-6

    def test_n4_matches_the_hamilton_weight(self):
        rng = np.random.default_rng(3)
        layer = phc.PHCConv2d(4, 8, 4, 3, bias=False, seed=4)
        layer.A.value[...] = phc.fixed_algebra(4)
        x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        out = layer(ag.constant(x)).value
        f = layer.F.value
        ref = T.conv2d(x, phc.hamilton_weight(f[0], f[1], f[2], f[3]))
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(out - ref).max() / scale < 1e-6

    def test_zero_input_gives_bias(self):
        layer = phc.PHCConv2d(2, 2, 4, 3, seed=6)
        layer.bias.value[...] = np.arange(4.0)
        out = layer(ag.constant(np.zeros((1, 2, 5, 5), dtype=np.float32))).value
        npt.assert_allclose(out[0, :, 2, 2], np.arange(4.0), atol=1e-7)

    # an even kernel would grow the map (a 2x2 one made 6x6 into 7x7), and
    # no stride but an integer of at least 1 fits the phase layout
    @pytest.mark.parametrize("k,stride", [(2, 1), (4, 1), (4, 2), (3, 0), (3, -1), (3, 1.5)])
    @pytest.mark.parametrize("training", [True, False])
    def test_bad_geometry_raises_in_the_forward(self, k, stride, training):
        layer = phc.PHCConv2d(2, 2, 2, k, stride=stride, seed=0).train(training)
        with pytest.raises(ShapeError, match=r"\(1, 2, 6, 6\)"):
            layer(ag.constant(np.ones((1, 2, 6, 6), dtype=np.float32)))

    def test_a_kernel_without_taps_is_a_config_error(self):
        with pytest.raises(ConfigError, match="kernel_size"):
            phc.PHCConv2d(2, 2, 2, 0)

    @pytest.mark.parametrize("args, name", [
        ((2, 0, 2, 3), "in_channels"), ((2, 2, 0, 3), "out_channels"),
        ((2, -2, 2, 3), "in_channels"), ((0, 2, 2, 3), "n"),
    ], ids=["no-input-channels", "no-output-channels", "negative-channels", "n0"])
    def test_a_layer_without_channels_is_a_config_error(self, args, name):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer from 1"):
            phc.PHCConv2d(*args)


class TestHamiltonConv:
    def test_zero_imaginary_banks_block_diagonal(self):
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=(2, 1, 3, 3))
        zero = np.zeros_like(w0)
        x = rng.normal(size=(1, 4, 5, 5))
        out = T.conv2d(x, phc.hamilton_weight(w0, zero, zero, zero))
        for comp in range(4):
            ref = T.conv2d(x[:, comp : comp + 1], w0)
            npt.assert_allclose(out[:, 2 * comp : 2 * comp + 2], ref, atol=1e-6)

    def test_quaternion_identity_kernel(self):
        x = np.random.default_rng(6).normal(size=(2, 4, 4, 4))
        one = np.ones((1, 1, 1, 1))
        zero = np.zeros((1, 1, 1, 1))
        out = T.conv2d(x, phc.hamilton_weight(one, zero, zero, zero))
        npt.assert_allclose(out, x, atol=1e-7)

    def test_dual_construction_agreement(self):
        rng = np.random.default_rng(7)
        banks = rng.normal(size=(4, 3, 2, 3, 3))
        # sum_i A_i (x) F_i by numpy's Kronecker product, against the sign blocks
        weight = sum(np.kron(a[:, :, None, None], f)
                     for a, f in zip(phc.fixed_algebra(4), banks))
        x = rng.normal(size=(2, 8, 6, 6))
        via_weight = T.conv2d(x, weight)
        via_oracle = T.conv2d(x, phc.hamilton_weight(*banks))
        npt.assert_allclose(via_weight, via_oracle, rtol=1e-6, atol=1e-6)

    def test_channel_constraint(self):
        # four banks of c input channels read 4c: 6 channels fit no bank width
        with pytest.raises(ShapeError):
            T.conv2d(np.ones((1, 6, 4, 4)), phc.hamilton_weight(*np.ones((4, 1, 1, 3, 3))))


class TestParamCounting:
    def test_counting_oracle_n2(self):
        layer = phc.PHCConv2d(2, 64, 64, 3, bias=False)
        assert layer.param_count() == 8 + 2 * (32 * 32 * 9) == 18440
        assert phc.real_equivalent_count(layer) == 36864
        assert abs(layer.param_count() / phc.real_equivalent_count(layer)
                   - 0.50022) < 1e-4

    def test_counting_oracle_n4(self):
        layer = phc.PHCConv2d(4, 64, 64, 3, bias=False)
        assert layer.param_count() == 64 + 4 * (16 * 16 * 9) == 9280
        assert abs(layer.param_count() / phc.real_equivalent_count(layer)
                   - 0.2517) < 1e-3

    def test_n1_ratio_overhead_is_one_scalar(self):
        layer = phc.PHCConv2d(1, 8, 8, 3, bias=False)
        expected = 1.0 + 1.0 / (8 * 8 * 9)
        ratio = layer.param_count() / phc.real_equivalent_count(layer)
        assert ratio == pytest.approx(expected)

    @pytest.mark.parametrize("n,cin,cout,k", [(1, 4, 8, 1), (2, 4, 8, 3),
                                              (4, 8, 16, 5), (8, 8, 16, 3)])
    def test_closed_form_all_orders(self, n, cin, cout, k):
        layer = phc.PHCConv2d(n, cin, cout, k, bias=True,
                              scheme="random-algebra")
        expected = n**3 + cout * cin * k * k // n + cout
        assert layer.param_count() == expected


class TestInit:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_fixed_algebra_starts_at_the_real_unit(self, n):
        layer = phc.PHCConv2d(n, n, n, 3, scheme="fixed-algebra", seed=0)
        assert phc.fixed_algebra(n).dtype == np.float32
        npt.assert_array_equal(layer.A.value, phc.fixed_algebra(n))
        npt.assert_array_equal(layer.A.value[0], np.eye(n))

    def test_fixed_algebra_n2_is_complex(self):
        one, i = phc.fixed_algebra(2)
        npt.assert_array_equal(i @ i, -one)

    def test_fixed_algebra_n4_is_quaternion(self):
        # Hamilton's rules on the units' left-multiplication matrices:
        # i^2 = j^2 = k^2 = ijk = -1, ij = k, jk = i, ki = j
        one, i, j, k = phc.fixed_algebra(4)
        for square in (i @ i, j @ j, k @ k, i @ j @ k):
            npt.assert_array_equal(square, -one)
        npt.assert_array_equal(i @ j, k)
        npt.assert_array_equal(j @ k, i)
        npt.assert_array_equal(k @ i, j)

    def test_fixed_algebra_n1(self):
        layer = phc.PHCConv2d(1, 1, 1, 3, scheme="fixed-algebra", seed=0)
        npt.assert_array_equal(layer.A.value, [[[1.0]]])

    def test_fixed_algebra_unsupported_n(self):
        with pytest.raises(ConfigError):
            phc.PHCConv2d(3, 3, 3, 3, scheme="fixed-algebra")

    def test_same_seed_bitwise_identical(self):
        a = phc.PHCConv2d(2, 4, 4, 3, scheme="random-algebra", seed=123)
        b = phc.PHCConv2d(2, 4, 4, 3, scheme="random-algebra", seed=123)
        npt.assert_array_equal(a.A.value, b.A.value)
        npt.assert_array_equal(a.F.value, b.F.value)

    def test_random_algebra_range(self):
        layer = phc.PHCConv2d(4, 4, 4, 3, scheme="random-algebra", seed=9)
        assert np.all(np.abs(layer.A.value) <= 0.25)

    def test_kaiming_bound(self):
        layer = phc.PHCConv2d(2, 8, 8, 3, seed=11)
        bound = np.sqrt(6.0 / (8 * 3 * 3))
        assert np.all(np.abs(layer.F.value) <= bound)
        assert np.abs(layer.F.value).max() > 0.5 * bound  # actually spread out

    def test_algebra_stays_trainable(self):
        layer = phc.PHCConv2d(2, 2, 2, 1, seed=0)
        assert layer.A.requires_grad


class TestDifferentiability:
    def test_grad_wrt_A_and_F(self):
        rng = np.random.default_rng(8)
        layer = phc.PHCConv2d(2, 4, 4, 3, seed=13, dtype=np.float64)
        x = ag.constant(rng.normal(size=(2, 4, 5, 5)))

        def f():
            out = layer(x)
            return ag.nsum(ag.mul(out, out))

        report = ag.grad_check(f, dict(layer.named_parameters()), h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    def test_degeneration_linear_identity(self):
        # n=1 forward equals conv2d with W = A000 * F0 for any A000
        rng = np.random.default_rng(10)
        layer = phc.PHCConv2d(1, 2, 3, 3, bias=False, seed=19)
        layer.A.value[...] = -1.7
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        out = layer(ag.constant(x)).value
        ref = T.conv2d(x, -1.7 * layer.F.value[0])
        npt.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)
