"""What a single-row forward pass shares with the batch path.

A 1-d float64 row runs over prebuilt (weight, bias) pairs. It gives the
bits of the same row as a (1, F) batch, also after the parameters are
written in place by ``set_flat``, ``adam_step`` or a slice assignment.
A multi-row batch is not bit-identical to its rows, since the matrix
product sums in another order; it matches them within 1e-12 relative,
with a floor of 1e-12 of the batch's largest output for outputs that
cancel to near zero. Rollouts value a whole episode in one batch pass,
and rely on that bound.
"""

import numpy as np
import pytest

from hawkeslob.nn import DenseNet
from hawkeslob.rng import RandomStream

N_ROWS = 300
NETS = [(activation, head, width)
        for activation in ("relu", "tanh")
        for head, width in (("scalar", 1), ("4-way-logits", 4))]


def _net(seed, activation, head, width):
    return DenseNet([29, 64, 64, width], activation=activation, head=head,
                    rng=RandomStream(seed))


def _rows(seed, n=N_ROWS):
    rng = RandomStream(seed)
    return np.array([[3.0 * rng.normal() for _ in range(29)]
                     for _ in range(n)])


def _assert_rows_equal_single_batches(net, rows):
    got = np.array([net.forward(x) for x in rows])
    want = np.array([net.forward(x.reshape(1, -1))[0] for x in rows])
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("activation, head, width", NETS)
def test_row_is_its_one_row_batch_and_near_the_full_batch(
        seed, activation, head, width):
    net = _net(seed, activation, head, width)
    rows = _rows(100 + seed)
    single = _assert_rows_equal_single_batches(net, rows)
    batch = net.forward(rows)
    np.testing.assert_allclose(batch, single, rtol=1e-12,
                               atol=1e-12 * np.abs(single).max())


@pytest.mark.parametrize("activation, head, width", NETS)
def test_row_pass_follows_in_place_parameter_writes(activation, head, width):
    net = _net(4, activation, head, width)
    rows = _rows(200, n=20)
    net.set_flat(0.05 * np.sin(np.arange(net.n_params)))
    _assert_rows_equal_single_batches(net, rows)
    net.adam_step(net.backward(rows, np.ones((len(rows), width))))
    _assert_rows_equal_single_batches(net, rows)
    net.biases[0][:] += 0.25
    net.weights[-1][:] *= -1.0
    _assert_rows_equal_single_batches(net, rows)
    copy = DenseNet.from_dict(net.to_dict())
    assert (np.array([copy.forward(x) for x in rows]).tobytes()
            == np.array([net.forward(x) for x in rows]).tobytes())
