"""``DenseNet.from_dict`` refuses Adam state that the first ``adam_step``
could not use: a negative or non-integer step count, or moments whose
shapes do not match the weights."""

import numpy as np
import pytest

from hawkeslob.nn import DenseNet
from hawkeslob.rng import RandomStream


def _doc():
    net = DenseNet([3, 4, 1], rng=RandomStream(2))
    x = np.ones((2, 3))
    net.adam_step(net.backward(x, np.ones((2, 1))))
    return net.to_dict()


@pytest.mark.parametrize("value", [-1, 1.5, "2", True, None])
def test_bad_adam_t_refused_by_name(value):
    doc = _doc()
    doc["adam_t"] = value
    with pytest.raises(ValueError, match="adam_t"):
        DenseNet.from_dict(doc)


@pytest.mark.parametrize("name", ["adam_m", "adam_v"])
@pytest.mark.parametrize("bad", [
    lambda layers: [[[[0.0]], [0.0]]] + layers[1:],
    lambda layers: layers[:1],
    lambda layers: [[w, b + [0.0]] for w, b in layers],
], ids=["one-by-one", "layer-missing", "bias-too-long"])
def test_misshapen_moments_refused_by_name(name, bad):
    doc = _doc()
    doc[name] = bad(doc[name])
    with pytest.raises(ValueError, match=name):
        DenseNet.from_dict(doc)


def test_round_trip_keeps_the_adam_state():
    doc = _doc()
    net = DenseNet.from_dict(doc)
    assert net.adam_t == 1
    assert net.to_dict() == doc
