"""Autograd engine: backward semantics, finite-difference agreement,
fan-out accumulation, determinism, graph lifecycle."""

import weakref

import numpy as np
import numpy.testing as npt
import pytest

from phcnet import autograd as ag
from phcnet import tensor as T
from phcnet.errors import ContractError


def leaf(arr):
    return ag.Node(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = leaf(np.random.default_rng(0).normal(size=(3, 4)))
        ag.backward(ag.nsum(x))
        npt.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares_gradient(self):
        x = leaf(np.random.default_rng(1).normal(size=(5,)))
        ag.backward(ag.nsum(ag.mul(x, x)))
        npt.assert_allclose(x.grad, 2 * x.value, rtol=1e-12)

    def test_reshape_of_a_scalar(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        ag.backward(ag.reshape(ag.reshape(ag.nsum(x), (1, 1)), ()))
        npt.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_non_scalar_loss_rejected(self):
        x = leaf(np.ones(3))
        with pytest.raises(ContractError):
            ag.backward(ag.relu(x))

    def test_fanout_accumulates_by_summation(self):
        x = leaf(np.array([2.0]))
        y = ag.add(ag.mul(x, x), ag.mul(x, ag.constant([3.0])))  # x^2 + 3x
        ag.backward(ag.nsum(y))
        npt.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_constant_leaves_untouched(self):
        x = ag.constant(np.ones(3))
        y = leaf(np.ones(3))
        ag.backward(ag.nsum(ag.mul(x, y)))
        assert x.grad is None
        npt.assert_array_equal(y.grad, np.ones(3))

    def test_graph_freed_after_backward(self):
        x = leaf(np.ones(2))
        out = ag.nsum(ag.mul(x, x))
        ag.backward(out)
        assert out._parents == () and out._backward_rule is None

    def test_passed_values_are_freed_during_backward(self):
        # a chain leaf -> first -> relu -> mul -> nsum; by the time the rule
        # of the op nearest the leaf runs, the output of the op nearest the
        # loss is gone, as is relu's, which its own rule closes over
        x = leaf(np.arange(-3.0, 3.0))
        alive = []

        def rule(g):
            alive.append([ref() is not None for ref in refs])
            return (2 * g,)

        first = ag.Node(2 * x.value, (x,), rule)
        h = ag.relu(first)
        near = ag.mul(h, h)
        refs = [weakref.ref(near.value), weakref.ref(h.value)]
        loss = ag.nsum(near)
        del first, h, near
        ag.backward(loss)
        assert alive == [[False, False]]
        npt.assert_allclose(x.grad, 8 * np.maximum(x.value, 0))

    def test_nodes_the_caller_holds_keep_their_values(self):
        x = leaf(np.arange(-2.0, 2.0))
        out = ag.relu(ag.mul(x, x))
        loss = ag.nmean(out)
        kept = out.value.copy(), loss.value.copy()
        ag.backward(loss)
        assert out.value.tobytes() == kept[0].tobytes()
        assert loss.value.tobytes() == kept[1].tobytes()
        assert out._parents == () and out._backward_rule is None

    def test_a_rule_that_raises_leaves_no_node_holding_a_rule(self):
        x = leaf(np.ones(3))
        a = ag.mul(x, x)

        def fails(g):
            raise ValueError("a failing rule")

        mid = ag.Node(a.value + 1, (a,), fails)
        nodes = [x, a, mid, ag.relu(mid)]
        nodes.append(ag.nsum(ag.add(nodes[-1], a)))
        nodes.append(nodes[-1]._parents[0])
        with pytest.raises(ValueError, match="a failing rule"):
            ag.backward(nodes[-2])
        assert all(n._parents == () and n._backward_rule is None for n in nodes)
        assert x.grad is None

    def test_conv_weight_grad_matches_central_differences(self):
        rng = np.random.default_rng(7)
        x = ag.constant(rng.normal(size=(2, 2, 6, 6)))
        w = leaf(rng.normal(size=(3, 2, 3, 3)))

        def f():
            return ag.nsum(ag.conv2d(x, w, stride=1))

        report = ag.grad_check(f, {"w": w}, h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    def test_determinism_bitwise(self):
        rng_a = np.random.default_rng(42)
        grads = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            x = leaf(rng.normal(size=(2, 2, 5, 5)))
            w = leaf(rng.normal(size=(2, 2, 3, 3)))
            out = ag.relu(ag.conv2d(x, w))
            ag.backward(ag.nsum(ag.mul(out, out)))
            grads.append((x.grad.copy(), w.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])

    def test_linearity_of_gradient(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 4))
        alpha, beta = 1.3, -0.7

        def grad_of(fn):
            x = leaf(base.copy())
            ag.backward(fn(x))
            return x.grad

        gf = grad_of(lambda x: ag.nsum(ag.mul(x, x)))
        gg = grad_of(lambda x: ag.nmean(ag.relu(x)))
        combined = grad_of(
            lambda x: ag.add(
                ag.mul(ag.nsum(ag.mul(x, x)), ag.constant(alpha)),
                ag.mul(ag.nmean(ag.relu(x)), ag.constant(beta)),
            )
        )
        npt.assert_allclose(combined, alpha * gf + beta * gg, rtol=1e-6, atol=1e-9)


class TestOpGradients:
    """Central differences across every primitive used by the layers."""

    @pytest.mark.parametrize(
        "name",
        ["add", "mul", "relu", "linear", "kron_sum",
         "concat", "narrow", "gap", "maxpool", "upsample",
         "reshape", "mean", "conv_strided"],
    )
    def test_primitive(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        a = leaf(rng.normal(size=(2, 4, 4, 4)) + 0.1)
        b = leaf(rng.normal(size=(2, 4, 4, 4)) + 2.0)
        funcs = {
            "add": lambda: ag.nsum(ag.mul(ag.add(a, b), ag.add(a, b))),
            "mul": lambda: ag.nsum(ag.mul(a, b)),
            "relu": lambda: ag.nsum(ag.mul(ag.relu(a), a)),
            "linear": lambda: ag.nsum(
                ag.linear(ag.reshape(a, (8, 16)), leaf_cache["w"], leaf_cache["bias"])
            ),
            "kron_sum": lambda: ag.nsum(
                ag.kron_sum(leaf_cache["ksa"], leaf_cache["ksf"])
            ),
            "concat": lambda: ag.nsum(ag.mul(ag.concat([a, b]), ag.concat([b, a]))),
            "narrow": lambda: ag.nsum(ag.mul(ag.narrow(a, 1, 3), ag.narrow(b, 0, 2))),
            "gap": lambda: ag.nsum(ag.mul(ag.global_avg_pool(a),
                                          ag.global_avg_pool(b))),
            "maxpool": lambda: ag.nsum(ag.mul(ag.max_pool2d(a), ag.max_pool2d(b))),
            "upsample": lambda: ag.nsum(ag.mul(ag.upsample_nearest(a),
                                               ag.upsample_nearest(b))),
            "reshape": lambda: ag.nsum(ag.mul(ag.reshape(a, (4, 32)),
                                              ag.reshape(b, (4, 32)))),
            "mean": lambda: ag.nmean(ag.mul(a, b)),
            "conv_strided": lambda: ag.nsum(
                ag.conv2d(a, leaf_cache["cw"], leaf_cache["cb"], stride=2)
            ),
        }
        leaf_cache = {
            "w": leaf(rng.normal(size=(3, 16))),
            "bias": leaf(rng.normal(size=(3,))),
            "ksa": leaf(rng.normal(size=(2, 2, 2))),
            "ksf": leaf(rng.normal(size=(2, 3, 2, 3, 3))),
            "cw": leaf(rng.normal(size=(3, 4, 3, 3))),
            "cb": leaf(rng.normal(size=(3,))),
        }
        params = {"a": a, "b": b, **leaf_cache}
        report = ag.grad_check(funcs[name], params, h=1e-6, tol=1e-5)
        assert report.passed, (name, report.per_param)


class TestGradCheck:
    def test_sum_of_squares_tight_tolerance(self):
        theta = leaf(np.random.default_rng(0).normal(size=(10,)))
        report = ag.grad_check(
            lambda: ag.nsum(ag.mul(theta, theta)), {"theta": theta},
            h=1e-6, tol=1e-7,
        )
        assert report.passed, report.max_rel_error

    def test_dead_relu_region_zero_gradient(self):
        theta = leaf(-np.abs(np.random.default_rng(1).normal(size=(6,))) - 1.0)
        report = ag.grad_check(
            lambda: ag.nsum(ag.relu(theta)), {"theta": theta}, h=1e-6, tol=1e-7
        )
        ag.backward(ag.nsum(ag.relu(theta)))
        npt.assert_array_equal(theta.grad, np.zeros(6))
        assert report.passed

    def test_samples_at_least_64_coordinates(self):
        big = leaf(np.random.default_rng(2).normal(size=(40, 40)))
        calls = []
        original = ag.backward

        def f():
            calls.append(1)
            return ag.nsum(ag.mul(big, big))

        report = ag.grad_check(f, {"big": big}, h=1e-6, tol=1e-5)
        # 1 analytic eval + 2 per sampled coordinate
        assert len(calls) == 1 + 2 * 64
        assert report.passed
        assert original is ag.backward

    def test_two_layer_phc_net_bce(self):
        from phcnet import nn, phc

        rng = np.random.default_rng(9)
        l1 = phc.PHCConv2d(2, 2, 4, 3, seed=1, dtype=np.float64)
        l2 = phc.PHCConv2d(2, 4, 2, 3, seed=2, dtype=np.float64)
        x = ag.constant(rng.normal(size=(2, 2, 5, 5)))
        y = (rng.random((2, 2)) < 0.5).astype(np.float64)

        def f():
            h = ag.relu(l1(x))
            pooled = ag.global_avg_pool(l2(h))
            return nn.bce_with_logits(pooled, y, pos_weight=1.7)

        params = dict(l1.named_parameters())
        params.update({f"l2.{k}": v for k, v in l2.named_parameters()})
        report = ag.grad_check(f, params, h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    def test_nonfinite_raises_numeric_error(self):
        from phcnet.errors import NumericError

        theta = leaf(np.array([1.0]))

        def f():
            return ag.nsum(ag.mul(theta, ag.constant([np.inf])))

        with pytest.raises(NumericError):
            ag.grad_check(f, {"theta": theta})
