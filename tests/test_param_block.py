"""``DenseNet``'s parameter block: the layers are views into one float64
block (and the Adam moments into two more), the whole-block Adam step
gives the bits of a per-layer step, gradient lists of the wrong shape are
refused, and the block never aliases a caller's array. Also the one-pass
log-sigmoid pair of the PPO losses and the in-place relu derivative of
``backward``, each against the arithmetic it replaced, bit for bit."""

import numpy as np
import pytest

from hawkeslob.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, DenseNet
from hawkeslob.ppo import _log_sigmoids
from hawkeslob.rng import RandomStream

NETS = [([3, 4, 1], "relu", "scalar"),
        ([5, 7, 6, 4], "tanh", "4-way-logits"),
        ([31, 64, 64, 4], "relu", "4-way-logits"),
        ([2, 1], "relu", "binary-logit")]
NET_IDS = ["3-4-1", "tanh-5-7-6-4", "shipped-action", "linear"]


def _net(sizes, activation, head, seed=3):
    return DenseNet(sizes, activation=activation, head=head,
                    learning_rate=1e-2, rng=RandomStream(seed))


def _random_grads(net, gen, scale=1.0):
    return [(gen.normal(size=w.shape) * scale, gen.normal(size=b.shape))
            for w, b in zip(net.weights, net.biases)]


def _reference_adam(params, m, v, t, grads, lr):
    """The per-layer Adam step, one (weight, bias) pair at a time."""
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for layer, (dw, db) in enumerate(grads):
        for p, mp, vp, g in ((params[layer][0], m[layer][0], v[layer][0], dw),
                             (params[layer][1], m[layer][1], v[layer][1],
                              db)):
            mp *= ADAM_BETA1
            mp += (1.0 - ADAM_BETA1) * g
            vp *= ADAM_BETA2
            vp += (1.0 - ADAM_BETA2) * g * g
            p -= lr * (mp / c1) / (np.sqrt(vp / c2) + ADAM_EPS)


def _assert_views(net):
    layers = [*zip(net.weights, net.biases)]
    for block, pairs in ((net.param_block, layers),
                         (net.adam_m_block, net.adam_m),
                         (net.adam_v_block, net.adam_v)):
        assert block.dtype == np.float64 and block.size == net.n_params
        for w, b in pairs:
            for arr in (w, b):
                assert arr.base is block
                assert arr.flags.c_contiguous
    assert np.array_equal(net.get_flat(), np.concatenate(
        [a.ravel() for pair in layers for a in pair]))


@pytest.mark.parametrize("spec", NETS, ids=NET_IDS)
def test_block_adam_gives_the_per_layer_bits(spec):
    net = _net(*spec)
    params = [(w.copy(), b.copy()) for w, b in zip(net.weights, net.biases)]
    m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    gen = np.random.default_rng(11)
    for t in range(1, 9):
        # Some steps with tiny or zero gradients, where the moments are
        # near their floor.
        scale = (1.0, 1e-9, 0.0, 3.0)[t % 4]
        grads = _random_grads(net, gen, scale)
        net.adam_step(grads)
        _reference_adam(params, m, v, t, grads, net.learning_rate)
        assert net.adam_t == t
        for got, want in ((zip(net.weights, net.biases), params),
                          (net.adam_m, m), (net.adam_v, v)):
            for (gw, gb), (ww, wb) in zip(got, want):
                assert np.array_equal(gw, ww) and np.array_equal(gb, wb)


@pytest.mark.parametrize("spec", NETS, ids=NET_IDS)
def test_layers_stay_views_into_the_blocks(spec):
    net = _net(*spec)
    _assert_views(net)
    gen = np.random.default_rng(5)
    net.adam_step(_random_grads(net, gen))
    _assert_views(net)
    net.set_flat(gen.normal(size=net.n_params))
    _assert_views(net)
    loaded = DenseNet.from_dict(net.to_dict())
    _assert_views(loaded)
    assert loaded.to_dict() == net.to_dict()
    loaded.adam_step(_random_grads(loaded, gen))
    _assert_views(loaded)


def test_in_place_layer_edit_reaches_forward_and_get_flat():
    net = _net([3, 4, 1], "relu", "scalar")
    x = np.array([0.2, -0.4, 1.1])
    before = net.forward(x)[0]
    net.biases[-1][:] = 30.0
    assert net.forward(x)[0] == before + 30.0
    assert net.get_flat()[-1] == 30.0
    net.weights[0][:] = 0.0
    assert net.forward(x)[0] == 30.0
    assert not net.get_flat()[:12].any()


def test_get_flat_is_a_copy():
    net = _net([3, 4, 1], "relu", "scalar")
    flat = net.get_flat()
    flat[:] = 9.0
    assert not np.shares_memory(flat, net.param_block)
    assert not (net.get_flat() == 9.0).any()


def test_set_flat_does_not_alias_the_callers_array():
    net = _net([3, 4, 1], "relu", "scalar")
    p = np.arange(net.n_params, dtype=np.float64)
    net.set_flat(p)
    for arr in [*net.weights, *net.biases]:
        assert not np.shares_memory(arr, p)
    p[:] = -1.0
    assert np.array_equal(net.get_flat(), np.arange(net.n_params))


def test_set_flat_refuses_the_wrong_size():
    net = _net([3, 4, 1], "relu", "scalar")
    before = net.get_flat()
    with pytest.raises(ValueError, match="size"):
        net.set_flat(np.zeros(net.n_params + 1))
    assert np.array_equal(net.get_flat(), before)


@pytest.mark.parametrize("bad, message", [
    # A (4,) weight gradient and a (1,) bias gradient would broadcast into
    # the (3, 4) and (4,) parameters of layer 0.
    (lambda g: [(np.ones(4), np.ones(1)), g[1]], "layer 0"),
    (lambda g: [g[0], (g[1][0], np.ones((1, 1)))], "layer 1"),
    (lambda g: [g[0], (g[1][0].T, g[1][1])], "layer 1"),
    (lambda g: g[:1], "1 gradient pairs for a net of 2 layers"),
    (lambda g: g + g[:1], "3 gradient pairs for a net of 2 layers"),
    (lambda g: [], "0 gradient pairs"),
], ids=["broadcast-into-layer-0", "bias-2d", "weight-transposed",
        "one-pair-short", "one-pair-long", "empty"])
def test_adam_step_refuses_misshapen_gradients(bad, message):
    net = _net([3, 4, 1], "relu", "scalar")
    grads = _random_grads(net, np.random.default_rng(2))
    before = net.to_dict()
    with pytest.raises(ValueError, match=message):
        net.adam_step(bad(grads))
    assert net.to_dict() == before
    assert net.adam_t == 0


def test_adam_step_refuses_non_finite_and_leaves_the_net():
    net = _net([3, 4, 1], "relu", "scalar")
    grads = _random_grads(net, np.random.default_rng(2))
    grads[1][1][0] = np.inf
    before = net.to_dict()
    with pytest.raises(ValueError, match="non-finite"):
        net.adam_step(grads)
    assert net.to_dict() == before


@pytest.mark.parametrize("rows", [1, 40])
def test_relu_backward_gives_the_bits_of_a_float_mask(rows):
    net = _net([6, 9, 7, 4], "relu", "4-way-logits")
    gen = np.random.default_rng(rows)
    x = gen.normal(size=(rows, 6))
    g_out = gen.normal(size=(rows, 4))
    acts = []
    net.forward(x, acts)
    g = g_out
    want = [None] * len(net.weights)
    want[-1] = (acts[-1].T @ g, g.sum(axis=0))
    for layer in range(len(net.weights) - 2, -1, -1):
        g = g @ net.weights[layer + 1].T
        g = g * (acts[layer + 1] > 0.0).astype(np.float64)
        want[layer] = (acts[layer].T @ g, g.sum(axis=0))
    got = net.backward(x, g_out, acts)
    for (gw, gb), (ww, wb) in zip(got, want):
        assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


def _log_sigmoid(z):
    """log sigmoid(z), element-wise, by a mask over the two branches."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = -np.log1p(np.exp(-z[pos]))
    out[~pos] = z[~pos] - np.log1p(np.exp(z[~pos]))
    return out


def test_log_sigmoid_pair_gives_the_two_branch_bits():
    gen = np.random.default_rng(4)
    z = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0,
         709.0, -709.0, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf],
        gen.normal(size=500), gen.normal(size=500) * 40.0])
    logsig, logsig_neg = _log_sigmoids(z)
    assert logsig.tobytes() == _log_sigmoid(z).tobytes()
    assert logsig_neg.tobytes() == _log_sigmoid(-z).tobytes()
