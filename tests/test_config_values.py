"""Config values of the right type but outside their range are refused by
name when the section is built, not at the first ``env.reset``."""

import json
import math

import pytest

from hawkeslob.book import BookInitConfig
from hawkeslob.cli import load_app_config
from hawkeslob.env import EpisodeConfig
from hawkeslob.ppo import TrainerConfig
from hawkeslob.qvi import sample_reduced_state
from hawkeslob.rng import RandomStream


@pytest.mark.parametrize("kwargs, named", [
    ({"p_mid_var": -4.0}, "p_mid_var"),
    ({"tick": 0.0}, "tick"),
    ({"tick": -0.01}, "tick"),
    ({"spread_geom_p": 1.0}, "spread_geom_p"),
    ({"p_mid_mean": math.inf}, "p_mid_mean"),
    ({"p_mid_mean": math.nan}, "p_mid_mean"),
    ({"p_mid_var": math.inf}, "p_mid_var"),
    ({"tick": math.inf}, "tick"),
    ({"redraw_geom_p": 0.0}, "redraw_geom_p"),
])
def test_book_init_refuses_out_of_range(kwargs, named):
    with pytest.raises(ValueError, match=named):
        BookInitConfig(**kwargs)


def test_zero_mid_variance_fixes_the_mid():
    config = BookInitConfig(p_mid_var=0.0)
    for seed in range(3):
        book, _ = sample_reduced_state(config, RandomStream(seed))
        center = round(config.p_mid_mean / config.tick)
        assert book.p_bid_ticks <= center <= book.p_ask_ticks


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
