"""Tests for layers, optimizers, and training loops on toy problems."""

import numpy as np
import pytest

from repro.nn import (
    GRU,
    Adam,
    Dense,
    Embedding,
    GRUCell,
    LayerNorm,
    Module,
    Parameter,
    SGD,
    Sequential,
    Tensor,
    binary_cross_entropy_with_logits,
    clip_global_norm,
    cross_entropy,
    grad,
    gumbel_softmax,
    mse_loss,
    tensor,
)


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 7)
        out = layer(tensor(np.zeros((3, 4))))
        assert out.shape == (3, 7)

    def test_activation_applied(self):
        layer = Dense(2, 3, activation="relu")
        layer.weight.data = -np.ones((2, 3))
        layer.bias.data = np.zeros(3)
        out = layer(tensor(np.ones((1, 2))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            Dense(2, 2, activation="swishy")

    def test_parameters_registered(self):
        layer = Dense(3, 5)
        assert len(layer.parameters()) == 2
        assert layer.num_parameters() == 3 * 5 + 5


class TestModuleStateDict:
    def test_roundtrip(self):
        net = Sequential(Dense(3, 4, activation="tanh"), Dense(4, 2))
        state = net.state_dict()
        net2 = Sequential(Dense(3, 4, activation="tanh"), Dense(4, 2))
        net2.load_state_dict(state)
        x = tensor(np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(net(x).data, net2(x).data)

    def test_missing_key_raises(self):
        net = Sequential(Dense(3, 4))
        with pytest.raises(KeyError):
            net.load_state_dict({})

    def test_shape_mismatch_raises(self):
        net = Sequential(Dense(3, 4))
        state = {k: np.zeros((1, 1)) for k, _ in net.named_parameters()}
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_state_dict_is_copy(self):
        net = Dense(2, 2)
        state = net.state_dict()
        state["weight"][...] = 99.0
        assert not np.allclose(net.weight.data, 99.0)


class TestGRU:
    def test_cell_shapes(self):
        cell = GRUCell(3, 8)
        h = cell.initial_state(4)
        out = cell(tensor(np.zeros((4, 3))), h)
        assert out.shape == (4, 8)

    def test_sequence_shapes(self):
        rnn = GRU(3, 6)
        outputs, final = rnn(tensor(np.zeros((2, 5, 3))))
        assert outputs.shape == (2, 5, 6)
        assert final.shape == (2, 6)

    def test_zero_state_fixed_point(self):
        """With zero input and zero state, GRU output stays bounded in (-1,1)."""
        rnn = GRU(2, 4)
        outputs, _ = rnn(tensor(np.zeros((1, 10, 2))))
        assert np.all(np.abs(outputs.data) < 1.0)

    def test_gru_learns_to_sum(self):
        """GRU can learn to accumulate a short binary sequence."""
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=(64, 4, 1)).astype(float)
        y = x.sum(axis=1)  # (64, 1)

        rnn = GRU(1, 8, rng=rng)
        head = Dense(8, 1, rng=rng)
        params = rnn.parameters() + head.parameters()
        opt = Adam(params, lr=0.02, beta1=0.9)
        first_loss = None
        for _ in range(150):
            _, h = rnn(tensor(x))
            pred = head(h)
            loss = mse_loss(pred, y)
            if first_loss is None:
                first_loss = loss.item()
            opt.step(grad(loss, params))
        assert loss.item() < first_loss * 0.1


class TestLayerNorm:
    def test_normalises(self):
        ln = LayerNorm(6)
        x = tensor(np.random.default_rng(0).normal(3.0, 2.0, size=(4, 6)))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4)
        out = emb(np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_gradient_accumulates_for_repeated_ids(self):
        emb = Embedding(5, 2)
        out = emb(np.array([2, 2])).sum()
        (g,) = grad(out, [emb.weight])
        np.testing.assert_allclose(g.data[2], [2.0, 2.0])
        np.testing.assert_allclose(g.data[0], [0.0, 0.0])


class TestOptimizers:
    def _quadratic_params(self):
        p = Parameter(np.array([5.0, -3.0]))
        return p

    def test_sgd_converges_on_quadratic(self):
        p = self._quadratic_params()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            loss = (Tensor(p.data, requires_grad=False),)
            loss = (p * p).sum()
            opt.step(grad(loss, [p]))
        np.testing.assert_allclose(p.data, 0.0, atol=1e-6)

    def test_sgd_momentum_faster_than_plain(self):
        losses = {}
        for momentum in (0.0, 0.9):
            p = self._quadratic_params()
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(50):
                loss = (p * p).sum()
                opt.step(grad(loss, [p]))
            losses[momentum] = float((p.data**2).sum())
        assert losses[0.9] < losses[0.0]

    def test_adam_converges_on_quadratic(self):
        p = self._quadratic_params()
        opt = Adam([p], lr=0.2)
        for _ in range(300):
            loss = (p * p).sum()
            opt.step(grad(loss, [p]))
        np.testing.assert_allclose(p.data, 0.0, atol=1e-4)

    def test_adam_reset_state(self):
        p = self._quadratic_params()
        opt = Adam([p], lr=0.1)
        opt.step(grad((p * p).sum(), [p]))
        assert opt.t == 1
        opt.reset_state()
        assert opt.t == 0
        assert all(np.all(m == 0) for m in opt.m)

    def test_mismatched_grads_raise(self):
        p = self._quadratic_params()
        opt = SGD([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.step([])

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([self._quadratic_params()], lr=0.0)

    def test_clip_global_norm(self):
        grads = [np.array([3.0, 4.0])]  # norm 5
        clipped = clip_global_norm(grads, 1.0)
        np.testing.assert_allclose(np.linalg.norm(clipped[0]), 1.0)

    def test_clip_global_norm_noop_below_threshold(self):
        grads = [np.array([0.3, 0.4])]
        clipped = clip_global_norm(grads, 1.0)
        np.testing.assert_allclose(clipped[0], grads[0])


def _reference_sgd(p, grads, lr, momentum):
    """Allocating textbook SGD: the in-place update's oracle."""
    v, trail = np.zeros_like(p), []
    for g in grads:
        v = v * momentum + g
        p = p - lr * v
        trail.append(p)
    return trail


def _reference_adam(p, grads, lr, beta1, beta2, eps):
    """Allocating textbook Adam: the in-place update's oracle."""
    m, v, trail = np.zeros_like(p), np.zeros_like(p), []
    for t, g in enumerate(grads, start=1):
        m = m * beta1 + (1.0 - beta1) * g
        v = v * beta2 + (1.0 - beta2) * g * g
        bias1, bias2 = 1.0 - beta1**t, 1.0 - beta2**t
        p = p - lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
        trail.append(p)
    return trail


OPTIMIZER_ORACLES = {
    "sgd": (lambda ps: SGD(ps, lr=0.05),
            lambda p, gs: _reference_sgd(p, gs, 0.05, 0.0)),
    "sgd_momentum": (lambda ps: SGD(ps, lr=0.05, momentum=0.9),
                     lambda p, gs: _reference_sgd(p, gs, 0.05, 0.9)),
    "adam": (lambda ps: Adam(ps, lr=0.01, beta1=0.5),
             lambda p, gs: _reference_adam(p, gs, 0.01, 0.5, 0.999, 1e-8)),
}


class TestInPlaceUpdateOracle:
    """The optimizers update parameters in place, the only update a tape
    can record.  Every step, eager or replayed, must equal the
    allocating textbook formula bit for bit."""

    @pytest.mark.parametrize("taped", [False, True], ids=["eager", "taped"])
    @pytest.mark.parametrize("name", sorted(OPTIMIZER_ORACLES))
    def test_matches_allocating_formula(self, name, taped):
        from repro.nn.tape import compiled_step, configure, taped_draw

        make_opt, reference = OPTIMIZER_ORACLES[name]
        rng = np.random.default_rng(4)
        start = rng.normal(size=(5, 3))
        grads = [rng.normal(size=(5, 3)) for _ in range(6)]
        p = Parameter(start.copy())
        opt = make_opt([p])
        feed = iter(grads)

        def core():
            opt.step([taped_draw(lambda: next(feed).copy())])
            return Tensor(p.data).sum()

        step = compiled_step(core, "test.optim")
        configure(taped)
        try:
            trail = []
            for _ in grads:
                step.run(("k",))
                trail.append(p.data.copy())
        finally:
            configure(None)
        for got, want in zip(trail, reference(start, grads)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(OPTIMIZER_ORACLES))
    def test_eager_step_keeps_tapes_valid(self, name):
        """Parameters keep their storage across a step, so an eager
        update (a classifier fit, say) never orphans recorded tapes."""
        from repro.nn import tape

        p = Parameter(np.ones((2, 2)))
        storage = p.data
        generation = tape._GENERATION
        OPTIMIZER_ORACLES[name][0]([p]).step([np.full((2, 2), 0.5)])
        assert p.data is storage
        assert tape._GENERATION == generation


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_bce_matches_reference(self):
        logits = tensor(np.array([0.5, -1.0, 2.0]))
        targets = np.array([1.0, 0.0, 1.0])
        loss = binary_cross_entropy_with_logits(logits, targets)
        x, t = logits.data, targets
        ref = np.mean(np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x))))
        np.testing.assert_allclose(loss.item(), ref, atol=1e-10)

    def test_gumbel_softmax_hard_is_one_hot(self):
        logits = tensor(np.zeros((6, 4)))
        sample = gumbel_softmax(logits, rng=np.random.default_rng(0), hard=True)
        np.testing.assert_allclose(sample.data.sum(axis=-1), 1.0, atol=1e-9)
        rounded = np.round(sample.data)
        np.testing.assert_allclose(sample.data, rounded, atol=1e-9)
        assert set(np.unique(rounded)) <= {0.0, 1.0}

    def test_gumbel_softmax_follows_logits(self):
        """Strongly peaked logits should dominate the sampled classes."""
        logits_arr = np.zeros((200, 3))
        logits_arr[:, 1] = 8.0
        sample = gumbel_softmax(
            tensor(logits_arr), temperature=0.3, rng=np.random.default_rng(1), hard=True
        )
        assert sample.data[:, 1].mean() > 0.9


class TestEndToEndTraining:
    def test_mlp_learns_xor(self):
        rng = np.random.default_rng(0)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        net = Sequential(
            Dense(2, 16, activation="tanh", rng=rng), Dense(16, 2, rng=rng)
        )
        opt = Adam(net.parameters(), lr=0.05, beta1=0.9)
        for _ in range(300):
            loss = cross_entropy(net(tensor(x)), y)
            opt.step(grad(loss, net.parameters()))
        preds = net(tensor(x)).data.argmax(axis=1)
        np.testing.assert_array_equal(preds, y)


class TestLSTM:
    def test_cell_shapes(self):
        from repro.nn import LSTMCell, tensor
        import numpy as np

        cell = LSTMCell(3, 8)
        h, c = cell.initial_state(4)
        h2, c2 = cell(tensor(np.zeros((4, 3))), (h, c))
        assert h2.shape == (4, 8)
        assert c2.shape == (4, 8)

    def test_sequence_shapes(self):
        from repro.nn import LSTM, tensor
        import numpy as np

        rnn = LSTM(3, 6)
        outputs, final = rnn(tensor(np.zeros((2, 5, 3))))
        assert outputs.shape == (2, 5, 6)
        assert final.shape == (2, 6)

    def test_lstm_learns_to_sum(self):
        from repro.nn import LSTM, Adam, Dense, grad, mse_loss, tensor
        import numpy as np

        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=(64, 4, 1)).astype(float)
        y = x.sum(axis=1)
        rnn = LSTM(1, 8, rng=rng)
        head = Dense(8, 1, rng=rng)
        params = rnn.parameters() + head.parameters()
        opt = Adam(params, lr=0.02, beta1=0.9)
        first = None
        for _ in range(150):
            _, h = rnn(tensor(x))
            loss = mse_loss(head(h), y)
            if first is None:
                first = loss.item()
            opt.step(grad(loss, params))
        assert loss.item() < first * 0.2

    def test_forget_gate_bias_initialised_to_one(self):
        from repro.nn import LSTMCell
        import numpy as np

        cell = LSTMCell(2, 4)
        np.testing.assert_allclose(cell.b_f.data, 1.0)
        # Only the forget slice of the fused bias is 1.
        np.testing.assert_allclose(cell.b_gates.data[4:8], 1.0)
        np.testing.assert_allclose(cell.b_gates.data[:4], 0.0)
        np.testing.assert_allclose(cell.b_gates.data[8:], 0.0)

    def test_fused_gates_match_unfused_reference_bitwise(self):
        """The (I+H, 4H) fused step must reproduce four separate
        per-gate matmuls bit for bit: unlike GRU there is no
        correction term — every gate sees the same [x, h] concat — so
        any divergence at all would mean the fusion changed the math."""
        from repro.nn import LSTMCell, tensor
        import numpy as np

        def unfused_step(cell, x, h, c):
            hs = cell.hidden_size
            xh = np.concatenate([x, h], axis=-1)
            w = cell.w_gates.data
            b = cell.b_gates.data
            gates = [xh @ w[:, k * hs:(k + 1) * hs] + b[k * hs:(k + 1) * hs]
                     for k in range(4)]

            def sigmoid(z):  # mirrors Tensor.sigmoid, clip included
                return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

            i, f, o = (sigmoid(g) for g in gates[:3])
            candidate = np.tanh(gates[3])
            c_new = f * c + i * candidate
            return o * np.tanh(c_new), c_new

        rng = np.random.default_rng(42)
        cell = LSTMCell(3, 8, rng=np.random.default_rng(7))
        x_seq = rng.normal(size=(4, 5, 3))
        h, c = cell.initial_state(4)
        h_ref, c_ref = h.data.copy(), c.data.copy()
        for t in range(5):
            h, c = cell(tensor(x_seq[:, t, :]), (h, c))
            h_ref, c_ref = unfused_step(cell, x_seq[:, t, :], h_ref, c_ref)
            np.testing.assert_array_equal(h.data, h_ref)
            np.testing.assert_array_equal(c.data, c_ref)
