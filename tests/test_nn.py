"""Dense network forward/backward/Adam tests with finite-difference oracles."""

import json

import numpy as np
import pytest

from hawkeslob.nn import DenseNet
from hawkeslob.rng import RandomStream


def fd_gradient(net, x, loss_fn, h=1e-6):
    """Central finite differences of loss_fn(net, x) in parameter space."""
    flat0 = net.get_flat()
    grad = np.empty_like(flat0)
    for i in range(flat0.size):
        p = flat0.copy()
        p[i] += h
        net.set_flat(p)
        up = loss_fn(net, x)
        p[i] -= 2 * h
        net.set_flat(p)
        dn = loss_fn(net, x)
        grad[i] = (up - dn) / (2 * h)
    net.set_flat(flat0)
    return grad


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = DenseNet([4, 3, 1], rng=RandomStream(1))
        for w in net.weights:
            w[:] = 0.0
        assert net.forward(np.array([1.0, -2.0, 3.0, 0.5]))[0] == 0.0

    def test_identity_like_1x1(self):
        net = DenseNet([1, 1], rng=RandomStream(1))
        net.weights[0][:] = 2.0
        net.biases[0][:] = 1.0
        assert net.forward(np.array([3.0]))[0] == pytest.approx(7.0)

    def test_matches_matrix_arithmetic_oracle(self):
        net = DenseNet([3, 5, 4, 1], activation="tanh", rng=RandomStream(2))
        x = np.array([0.3, -1.2, 0.8])
        h = x
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            h = np.tanh(h @ w + b)
        oracle = h @ net.weights[-1] + net.biases[-1]
        np.testing.assert_allclose(net.forward(x), oracle, atol=1e-12)

    def test_batched_equals_rowwise(self):
        net = DenseNet([3, 8, 4], head="4-way-logits", rng=RandomStream(3))
        xs = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 0.0], [2.0, 0.5, -0.5]])
        batched = net.forward(xs)
        rows = np.stack([net.forward(x) for x in xs])
        np.testing.assert_allclose(batched, rows, atol=1e-14)

    def test_shape_mismatch(self):
        net = DenseNet([3, 2, 1], rng=RandomStream(4))
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))

    def test_head_width_validation(self):
        with pytest.raises(ValueError):
            DenseNet([3, 2], head="4-way-logits")


class TestBackward:
    def test_linear_1x1(self):
        net = DenseNet([1, 1], rng=RandomStream(5))
        grads = net.backward(np.array([3.0]), np.array([1.0]))
        assert grads[0][0][0, 0] == pytest.approx(3.0)
        assert grads[0][1][0] == pytest.approx(1.0)

    def test_relu_blocks_gradient(self):
        net = DenseNet([1, 1, 1], activation="relu", rng=RandomStream(6))
        net.weights[0][:] = 1.0
        net.biases[0][:] = -5.0  # pre-activation negative at x=3
        net.weights[1][:] = 1.0
        grads = net.backward(np.array([3.0]), np.array([1.0]))
        assert grads[0][0][0, 0] == 0.0
        assert grads[0][1][0] == 0.0

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("head,out", [("scalar", 1),
                                          ("binary-logit", 1),
                                          ("4-way-logits", 4)])
    def test_fd_gradcheck(self, activation, head, out):
        net = DenseNet([3, 6, out], activation=activation, head=head,
                       rng=RandomStream(7))
        assert net.n_params <= 100
        x = np.array([[0.4, -0.3, 0.9], [0.2, 0.8, -1.1]])
        coef = np.arange(1, out + 1, dtype=np.float64)

        def loss_fn(n, xs):
            return float((n.forward(xs) * coef).sum())

        analytic = DenseNet.flatten_grads(
            net.backward(x, np.tile(coef, (2, 1))))
        numeric = fd_gradient(net, x, loss_fn)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
        assert rel.max() < 1e-4


class TestAdam:
    def test_zero_gradient_no_change(self):
        net = DenseNet([2, 3, 1], rng=RandomStream(8))
        before = net.get_flat()
        net.adam_step(net.zero_grads())
        np.testing.assert_array_equal(net.get_flat(), before)

    def test_first_step_is_signed_lr(self):
        net = DenseNet([1, 1], learning_rate=0.01, rng=RandomStream(9))
        w0 = net.weights[0][0, 0]
        b0 = net.biases[0][0]
        grads = [(np.array([[2.5]]), np.array([-0.3]))]
        net.adam_step(grads)
        # bias-corrected first Adam step is ~ -lr * sign(g)
        assert net.weights[0][0, 0] == pytest.approx(w0 - 0.01, rel=1e-6)
        assert net.biases[0][0] == pytest.approx(b0 + 0.01, rel=1e-6)

    def test_quadratic_bowl_convergence(self):
        net = DenseNet([1, 1], learning_rate=0.05, rng=RandomStream(10))
        target_w, target_b = 1.7, -0.4
        for _ in range(2000):
            w = net.weights[0][0, 0]
            b = net.biases[0][0]
            grads = [(np.array([[2 * (w - target_w)]]),
                      np.array([2 * (b - target_b)]))]
            net.adam_step(grads)
        assert abs(net.weights[0][0, 0] - target_w) < 1e-3
        assert abs(net.biases[0][0] - target_b) < 1e-3

    def test_rejects_nonfinite(self):
        net = DenseNet([1, 1], rng=RandomStream(11))
        with pytest.raises(ValueError):
            net.adam_step([(np.array([[np.nan]]), np.array([0.0]))])


class TestDeterminismAndCheckpoint:
    def test_same_seed_same_params(self):
        n1 = DenseNet([4, 8, 1], rng=RandomStream(12))
        n2 = DenseNet([4, 8, 1], rng=RandomStream(12))
        np.testing.assert_array_equal(n1.get_flat(), n2.get_flat())

    def test_training_determinism(self):
        outs = []
        for _ in range(2):
            net = DenseNet([2, 4, 1], rng=RandomStream(13))
            x = np.array([[0.5, -0.5], [1.0, 2.0]])
            for _ in range(10):
                g = net.backward(x, np.ones((2, 1)))
                net.adam_step(g)
            outs.append(net.get_flat())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_json_dict_roundtrip(self):
        net = DenseNet([3, 5, 4], head="4-way-logits", activation="tanh",
                       learning_rate=0.002, rng=RandomStream(14))
        x = np.array([[0.1, 0.2, 0.3]])
        net.adam_step(net.backward(x, np.ones((1, 4))))
        restored = DenseNet.from_dict(json.loads(json.dumps(net.to_dict())))
        np.testing.assert_array_equal(net.get_flat(), restored.get_flat())
        assert restored.adam_t == net.adam_t
        np.testing.assert_array_equal(net.forward(x), restored.forward(x))
        # optimizer state survives: next steps coincide
        g = net.backward(x, np.ones((1, 4)))
        net.adam_step(g)
        restored.adam_step(restored.backward(x, np.ones((1, 4))))
        np.testing.assert_array_equal(net.get_flat(), restored.get_flat())
