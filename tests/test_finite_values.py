"""Non-finite values are refused by name where they are built: a power-law
horizon of nan, non-finite episode settings, and a non-finite history
window."""

import dataclasses
import math

import pytest

from hawkeslob.env import EpisodeConfig
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import default_kernel_params


def test_powerlaw_horizon_nan_is_refused():
    params = default_kernel_params("powerlaw")
    with pytest.raises(ValueError, match="pl_horizon"):
        dataclasses.replace(params, pl_horizon=math.nan)


@pytest.mark.parametrize("name", ["eta", "kappa", "fee_bps", "initial_cash",
                                  "history_window"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_episode_config_refuses_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        EpisodeConfig(**{name: value})


@pytest.mark.parametrize("window", [math.nan, math.inf])
def test_history_features_refuse_a_non_finite_window(window):
    clock = HawkesClock(default_kernel_params())
    with pytest.raises(ValueError, match="window"):
        clock.history_features(window)
    clock.apply_event(3, 0.5)
    with pytest.raises(ValueError, match="window"):
        clock.history(window)
