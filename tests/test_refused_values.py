"""Values that cannot give a result are refused by name where they enter:
a non-finite clock start time, and a network learning rate that is not
finite and > 0 (from the constructor and from a checkpoint)."""

import math

import numpy as np
import pytest

from hawkeslob.hawkes import HawkesClock
from hawkeslob.nn import DenseNet
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream

NOT_FINITE = [-math.inf, math.inf, math.nan]


@pytest.mark.parametrize("t0", NOT_FINITE)
@pytest.mark.parametrize("profile", ["exponential", "powerlaw"])
def test_clock_refuses_a_non_finite_t0(profile, t0):
    with pytest.raises(ValueError, match="t0"):
        HawkesClock(default_kernel_params(profile), t0=t0)


def test_clock_accepts_a_finite_t0():
    clock = HawkesClock(default_kernel_params(), t0=np.float64(-3.5))
    assert clock.now == -3.5
    times, _ = clock.simulate(0.0, RandomStream(1))
    assert len(times) > 0 and times[0] > -3.5


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
