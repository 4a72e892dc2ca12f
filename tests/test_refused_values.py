"""Values that cannot give a result are refused by name where they enter:
a network learning rate that is not finite and > 0 (from the constructor
and from a checkpoint)."""

import math

import pytest

from hawkeslob.nn import DenseNet
from hawkeslob.rng import RandomStream

NOT_FINITE = [-math.inf, math.inf, math.nan]


BAD_RATES = [0.0, -1.0, *NOT_FINITE]


@pytest.mark.parametrize("value", BAD_RATES)
def test_net_refuses_a_bad_learning_rate(value):
    with pytest.raises(ValueError, match="learning_rate"):
        DenseNet([2, 1], learning_rate=value)


@pytest.mark.parametrize("value", BAD_RATES)
def test_checkpoint_net_with_a_bad_learning_rate_is_refused(value):
    doc = DenseNet([2, 1], rng=RandomStream(4)).to_dict()
    doc["learning_rate"] = value
    with pytest.raises(ValueError, match="learning_rate"):
        DenseNet.from_dict(doc)
