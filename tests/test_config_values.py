"""Config values of the right type but outside their range are refused by
name when the section is built, not at the first ``env.reset``."""

import json
import math

import pytest

from hawkeslob.book import BookInitConfig, sample_initial_state
from hawkeslob.cli import load_app_config
from hawkeslob.env import EpisodeConfig
from hawkeslob.ppo import TrainerConfig
from hawkeslob.rng import RandomStream


@pytest.mark.parametrize("kwargs, named", [
    ({"p_mid_var": -4.0}, "p_mid_var"),
    ({"tick": 0.0}, "tick"),
    ({"tick": -0.01}, "tick"),
    ({"inventory_std": -1.0}, "inventory_std"),
    ({"p_mid_mean": math.inf}, "p_mid_mean"),
    ({"p_mid_mean": math.nan}, "p_mid_mean"),
    ({"p_mid_var": math.inf}, "p_mid_var"),
    ({"tick": math.inf}, "tick"),
    ({"inventory_std": math.inf}, "inventory_std"),
])
def test_book_init_refuses_out_of_range(kwargs, named):
    with pytest.raises(ValueError, match=named):
        BookInitConfig(**kwargs)


def test_zero_variances_fix_the_mid_and_inventory():
    config = BookInitConfig(p_mid_var=0.0, inventory_std=0.0)
    for seed in range(3):
        book, agent = sample_initial_state(config, RandomStream(seed),
                                           sample_inventory=True)
        center = round(config.p_mid_mean / config.tick)
        assert book.p_bid_ticks <= center <= book.p_ask_ticks
        assert agent.inventory == 0


@pytest.mark.parametrize("horizon, decision_dt", [
    (1e-12, 0.1), (0.04, 0.1), (300.0, 1e12)])
def test_episode_without_a_decision_is_refused(horizon, decision_dt):
    with pytest.raises(ValueError, match="horizon.*decision_dt"):
        EpisodeConfig(horizon=horizon, decision_dt=decision_dt)


def test_one_decision_episode_loads():
    assert EpisodeConfig(horizon=0.1).n_steps == 1


@pytest.mark.parametrize("doc, named", [
    ({"init": {"p_mid_var": -4}}, "p_mid_var"),
    ({"init": {"tick": 0}}, "tick"),
    ({"episode": {"horizon": 1e-12}}, "horizon"),
])
def test_config_file_names_the_value(tmp_path, doc, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=named):
        load_app_config(str(path))


@pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf")])
def test_trainer_refuses_a_learning_rate_outside_0_inf(value):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainerConfig(learning_rate=value)


@pytest.mark.parametrize("value", [0, -1])
def test_config_file_names_the_learning_rate(tmp_path, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trainer": {"learning_rate": value}}))
    with pytest.raises(ValueError, match="learning_rate"):
        load_app_config(str(path))
