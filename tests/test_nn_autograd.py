"""Tests for the autograd engine: first-order grads against finite
differences, broadcasting, and double backprop (the WGAN-GP enabler)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Dense,
    Tensor,
    concatenate,
    grad,
    maximum,
    no_grad,
    softmax,
    stack,
    tensor,
    where,
)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(fn_tensor, x: np.ndarray, atol=1e-5):
    t = tensor(x.copy(), requires_grad=True)
    out = fn_tensor(t)
    (g,) = grad(out, [t])
    expected = numeric_grad(lambda arr: float(fn_tensor(tensor(arr)).data), x.copy())
    np.testing.assert_allclose(g.data, expected, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(7)


class TestElementwiseGrads:
    def test_add_mul(self):
        check_grad(lambda t: (t * 3.0 + 1.5).sum(), RNG.normal(size=(4, 3)))

    def test_sub_div(self):
        check_grad(lambda t: ((t - 2.0) / 3.0).square().sum(), RNG.normal(size=(5,)))

    def test_pow(self):
        check_grad(lambda t: (t**3).sum(), RNG.normal(size=(4,)))

    def test_exp_log(self):
        x = np.abs(RNG.normal(size=(4,))) + 0.5
        check_grad(lambda t: (t.exp() + t.log()).sum(), x)

    def test_tanh(self):
        check_grad(lambda t: t.tanh().sum(), RNG.normal(size=(3, 3)))

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid().sum(), RNG.normal(size=(6,)))

    def test_relu(self):
        x = RNG.normal(size=(10,))
        x[np.abs(x) < 1e-3] = 0.5  # avoid kink
        check_grad(lambda t: t.relu().sum(), x)

    def test_leaky_relu(self):
        x = RNG.normal(size=(10,))
        x[np.abs(x) < 1e-3] = 0.5
        check_grad(lambda t: t.leaky_relu(0.2).sum(), x)

    def test_abs(self):
        x = RNG.normal(size=(8,))
        x[np.abs(x) < 1e-3] = 0.4
        check_grad(lambda t: t.abs().sum(), x)

    def test_sqrt(self):
        x = np.abs(RNG.normal(size=(5,))) + 0.3
        check_grad(lambda t: t.sqrt().sum(), x)


class TestMatmulAndShape:
    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        tb = tensor(b)
        check_grad(lambda t: (t @ tb).square().sum(), a)

    def test_matmul_rhs(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        ta = tensor(a)
        check_grad(lambda t: (ta @ t).square().sum(), b)

    def test_reshape(self):
        check_grad(lambda t: t.reshape(6).square().sum(), RNG.normal(size=(2, 3)))

    def test_transpose(self):
        b = tensor(RNG.normal(size=(3, 2)))
        check_grad(lambda t: (t.T @ b).sum(), RNG.normal(size=(3, 4)))

    def test_getitem_slice(self):
        check_grad(lambda t: t[1:3].square().sum(), RNG.normal(size=(5, 2)))

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_grad(lambda t: t[idx].square().sum(), RNG.normal(size=(4, 3)))

    def test_concatenate(self):
        b = tensor(RNG.normal(size=(2, 3)))
        check_grad(
            lambda t: concatenate([t, b], axis=0).square().sum(),
            RNG.normal(size=(3, 3)),
        )

    def test_stack(self):
        b = tensor(RNG.normal(size=(2, 3)))
        check_grad(
            lambda t: stack([t, b], axis=1).square().sum(), RNG.normal(size=(2, 3))
        )


class TestBroadcasting:
    def test_bias_broadcast(self):
        x = tensor(RNG.normal(size=(5, 3)))
        check_grad(lambda t: (x + t).square().sum(), RNG.normal(size=(3,)))

    def test_scalar_broadcast(self):
        x = tensor(RNG.normal(size=(4, 2)))
        check_grad(lambda t: (x * t).sum(), np.array(1.7))

    def test_keepdims_mean(self):
        check_grad(
            lambda t: (t - t.mean(axis=1, keepdims=True)).square().sum(),
            RNG.normal(size=(3, 4)),
        )


class TestReductions:
    def test_sum_axis(self):
        check_grad(lambda t: t.sum(axis=0).square().sum(), RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_grad(lambda t: t.mean().square(), RNG.normal(size=(6,)))

    def test_max(self):
        x = RNG.normal(size=(4, 3))
        check_grad(lambda t: t.max(axis=1).sum(), x)


class TestControlFlowOps:
    def test_where(self):
        cond = RNG.normal(size=(5,)) > 0
        b = tensor(RNG.normal(size=(5,)))
        check_grad(lambda t: where(cond, t, b).square().sum(), RNG.normal(size=(5,)))

    def test_maximum(self):
        a = RNG.normal(size=(6,))
        b = tensor(a + np.where(RNG.normal(size=(6,)) > 0, 1.0, -1.0))
        check_grad(lambda t: maximum(t, b).sum(), a)

    def test_clip_values(self):
        x = RNG.normal(size=(8,)) * 2
        x[np.abs(np.abs(x) - 1.0) < 1e-2] = 0.0
        check_grad(lambda t: t.clip_values(-1.0, 1.0).square().sum(), x)


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        logits = tensor(RNG.normal(size=(4, 5)))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_grad(self):
        check_grad(
            lambda t: (softmax(t) * softmax(t)).sum(), RNG.normal(size=(3, 4))
        )


class TestGradMechanics:
    def test_grad_requires_scalar(self):
        t = tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            grad(t * 2, [t])

    def test_unused_input_gets_zeros(self):
        a = tensor(np.ones(3), requires_grad=True)
        b = tensor(np.ones(3), requires_grad=True)
        (ga, gb) = grad(a.sum(), [a, b])
        np.testing.assert_allclose(gb.data, 0.0)
        np.testing.assert_allclose(ga.data, 1.0)

    def test_no_grad_blocks_graph(self):
        a = tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (a * 2).sum()
        assert not out.requires_grad

    def test_detach(self):
        a = tensor(np.ones(3), requires_grad=True)
        out = (a.detach() * 2).sum()
        assert not out.requires_grad

    def test_diamond_graph_accumulates(self):
        # f(x) = x*x + x*x should give 4x, exercising cotangent accumulation
        x = tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x * x
        (g,) = grad(y.sum(), [x])
        np.testing.assert_allclose(g.data, [12.0])

    def test_grad_of_intermediate_node(self):
        x = tensor(np.array([2.0]), requires_grad=True)
        mid = x * 3.0
        out = (mid * mid).sum()
        g_mid, g_x = grad(out, [mid, x])
        np.testing.assert_allclose(g_mid.data, [12.0])  # 2*mid
        np.testing.assert_allclose(g_x.data, [36.0])

    def test_param_grads_do_not_alias_each_other(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        loss = layer(tensor(np.ones((2, 4)))).sum()
        gw, gb = grad(loss, layer.parameters())
        assert gw.data is not gb.data
        # Mutating one grad must not corrupt the other.
        gw.data.fill(-1.0)
        np.testing.assert_array_equal(gb.data, np.full(3, 2.0))


class TestDoubleBackprop:
    def test_second_derivative_of_cube(self):
        # f = x^3, f' = 3x^2, f'' = 6x
        x = tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = (x**3).sum()
        (g1,) = grad(y, [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x])
        np.testing.assert_allclose(g2.data, [12.0, -6.0])

    def test_second_derivative_tanh(self):
        x = tensor(np.array([0.3]), requires_grad=True)
        y = x.tanh().sum()
        (g1,) = grad(y, [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x])
        t = np.tanh(0.3)
        np.testing.assert_allclose(g2.data, [-2 * t * (1 - t * t)], atol=1e-10)

    def test_gradient_penalty_param_grad(self):
        """The WGAN-GP pattern: grad of (||dD/dx|| - 1)^2 wrt weights."""
        rng = np.random.default_rng(0)
        w_data = rng.normal(size=(3, 1))
        x_data = rng.normal(size=(4, 3))

        def penalty_value(w_arr):
            w = tensor(w_arr, requires_grad=True)
            x = tensor(x_data, requires_grad=True)
            d = (x @ w).tanh().sum()
            (gx,) = grad(d, [x], create_graph=True)
            norms = (gx.square().sum(axis=1) + 1e-12).sqrt()
            return ((norms - 1.0).square()).mean(), w

        gp, w = penalty_value(w_data)
        (gw,) = grad(gp, [w])
        expected = numeric_grad(
            lambda arr: float(penalty_value(arr)[0].data), w_data.copy(), eps=1e-5
        )
        np.testing.assert_allclose(gw.data, expected, atol=1e-4, rtol=1e-3)


class TestHypothesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    )
    def test_add_commutes(self, a, b):
        n = min(len(a), len(b))
        ta, tb = tensor(np.array(a[:n])), tensor(np.array(b[:n]))
        np.testing.assert_allclose((ta + tb).data, (tb + ta).data)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=10))
    def test_softmax_invariant_to_shift(self, vals):
        x = np.array(vals)
        p1 = softmax(tensor(x[None, :])).data
        p2 = softmax(tensor(x[None, :] + 10.0)).data
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5))
    def test_matmul_shape(self, n, m):
        a = tensor(np.ones((n, m)))
        b = tensor(np.ones((m, 2)))
        assert (a @ b).shape == (n, 2)


class TestMiscOps:
    def test_broadcast_to_grad(self):
        t = tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = t.broadcast_to((3, 2)).sum()
        (g,) = grad(out, [t])
        np.testing.assert_allclose(g.data, [3.0, 3.0])

    def test_l2_norm(self):
        from repro.nn import l2_norm

        t = tensor(np.array([[3.0, 4.0], [0.0, 0.0]]))
        norms = l2_norm(t, axis=1)
        np.testing.assert_allclose(norms.data, [5.0, 0.0], atol=1e-5)

    def test_log_softmax_rows_normalise(self):
        from repro.nn import log_softmax

        logits = tensor(RNG.normal(size=(3, 4)))
        lp = log_softmax(logits)
        np.testing.assert_allclose(np.exp(lp.data).sum(axis=1), 1.0)

    def test_minimum(self):
        from repro.nn import minimum

        a = tensor(np.array([1.0, 5.0]))
        b = tensor(np.array([3.0, 2.0]))
        np.testing.assert_allclose(minimum(a, b).data, [1.0, 2.0])

    def test_tensor_repr_and_len(self):
        t = tensor(np.zeros(3), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert len(t) == 3

    def test_clip_values_range(self):
        t = tensor(np.array([-2.0, 0.5, 2.0]))
        np.testing.assert_allclose(
            t.clip_values(-1.0, 1.0).data, [-1.0, 0.5, 1.0])

    def test_max_global(self):
        t = tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        out = t.max()
        assert out.data == t.data.max()
