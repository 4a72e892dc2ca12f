"""A checkpoint whose numbers cannot give a finite policy is refused at load,
with the field named: a non-finite weight, bias or Adam moment, a negative
second moment, a non-finite feature center, and a feature scale entry that
is zero or not finite. A valid checkpoint still loads to the same policy."""

import json
import math

import numpy as np
import pytest

from hawkeslob.env import OBS_DIM
from hawkeslob.nn import DenseNet
from hawkeslob.ppo import PolicyNets
from hawkeslob.rng import RandomStream


def _net_doc():
    net = DenseNet([3, 4, 1], rng=RandomStream(4))
    grads = [(np.full_like(w, 0.5), np.full_like(b, -0.25))
             for w, b in zip(net.weights, net.biases)]
    net.adam_step(grads)
    return json.loads(json.dumps(net.to_dict()))


def _set(doc, field, value):
    """Put ``value`` in the first entry of layer 0 of ``field``."""
    if field == "weights":
        doc["weights"][0][0][0] = value
    elif field == "biases":
        doc["biases"][0][0] = value
    else:
        doc[field][0][1][0] = value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["weights", "biases", "adam_m", "adam_v"])
def test_net_with_a_non_finite_entry_is_refused(field, value):
    doc = _net_doc()
    _set(doc, field, value)
    with pytest.raises(ValueError, match=field):
        DenseNet.from_dict(doc)


def test_net_with_a_negative_second_moment_is_refused():
    doc = _net_doc()
    _set(doc, "adam_v", -1.0)
    with pytest.raises(ValueError, match="adam_v"):
        DenseNet.from_dict(doc)


def test_negative_weights_and_first_moments_still_load():
    doc = _net_doc()
    _set(doc, "weights", -1.0)
    _set(doc, "adam_m", -1.0)
    net = DenseNet.from_dict(doc)
    assert net.weights[0][0, 0] == -1.0 and net.adam_m[0][1][0] == -1.0


def _nets_doc():
    nets = PolicyNets(np.zeros(OBS_DIM), np.ones(OBS_DIM), hidden_sizes=(4,))
    return json.loads(json.dumps(nets.to_dict()))


@pytest.mark.parametrize("field, value", [
    ("center", math.nan), ("center", math.inf),
    ("scale", 0.0), ("scale", math.nan), ("scale", -math.inf),
])
def test_policy_with_a_bad_feature_map_is_refused(field, value):
    doc = _nets_doc()
    doc[field][3] = value
    with pytest.raises(ValueError, match=field):
        PolicyNets.from_dict(doc)


def test_policy_net_with_a_non_finite_weight_is_refused():
    doc = _nets_doc()
    doc["value"]["weights"][1][0][0] = math.nan
    with pytest.raises(ValueError, match="weights"):
        PolicyNets.from_dict(doc)


def test_valid_checkpoint_still_loads(tmp_path):
    nets = PolicyNets(np.linspace(-1.0, 1.0, OBS_DIM),
                      np.linspace(0.5, 3.0, OBS_DIM), hidden_sizes=(4,))
    path = tmp_path / "policy.json"
    nets.save(path)
    loaded = PolicyNets.load(path)
    x = np.linspace(-1.0, 1.0, OBS_DIM)
    for name in ("decision", "action", "value"):
        assert np.array_equal(getattr(loaded, name).forward(x),
                              getattr(nets, name).forward(x))
    assert np.array_equal(loaded.center, nets.center)
    assert np.array_equal(loaded.scale, nets.scale)
