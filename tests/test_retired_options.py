"""Every settable value has a caller. The run seed is ``--seed`` alone (the
config key ``episode.seed`` is refused by name), the queue-redraw law is
``BookInitConfig.redraw_geom_p`` alone and reaches every book transition
the environment makes, and the values no program path set to anything but
their default are gone from the signatures and the config document. Each
policy acts through one ``act``: the trained one through
``ppo.CheckpointAgent``, in rollouts and in evaluation alike."""

import inspect
import json

import pytest

from book_steps import env_state
from config_doc import default_config_document
import hawkeslob
from hawkeslob import _kernels as _k
from hawkeslob import agents, book, intervention, ppo, qvi
from hawkeslob.agents import RandomAgent
from hawkeslob.book import BookInitConfig
from hawkeslob.cli import load_app_config
from hawkeslob.env import ACTION_SET_FULL, EpisodeConfig, MarketMakingEnv
from hawkeslob.hawkes import HawkesClock
from hawkeslob.metrics import detect_pump_and_dump, run_episode
from hawkeslob.params import default_kernel_params, poisson_flow_params
from hawkeslob.ppo import TrainerConfig
from hawkeslob.rng import RandomStream


def _params(fn):
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize("seed", [0, 3])
def test_episode_seed_key_is_refused_by_name(tmp_path, seed):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"episode": {"seed": seed}}))
    with pytest.raises(ValueError, match=r"episode\.seed"):
        load_app_config(str(path))


@pytest.mark.parametrize("key, value", [("normalize_advantages", False),
                                        ("freeze_decision_updates", 2),
                                        ("sil_positive_part", True)])
def test_retired_trainer_key_is_refused_by_name(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trainer": {key: value}}))
    with pytest.raises(ValueError,
                       match=rf"unknown config key trainer\.{key}"):
        load_app_config(str(path))
    assert key not in TrainerConfig().to_dict()
    assert key not in default_config_document()["trainer"]


def test_retired_init_key_is_refused_by_name(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"init": {"inventory_std": 2.0}}))
    with pytest.raises(ValueError,
                       match=r"unknown config key init\.inventory_std"):
        load_app_config(str(path))
    assert "inventory_std" not in BookInitConfig().to_dict()
    assert "inventory_std" not in default_config_document()["init"]


def test_one_act_per_policy():
    assert agents.CheckpointAgent is ppo.CheckpointAgent
    for name in ("prob_agent_act", "random_agent_act"):
        assert not hasattr(agents, name)
    for name in ("sample_action", "_RecordingPolicy"):
        assert not hasattr(ppo, name)


def test_episode_config_has_no_seed():
    assert "seed" not in EpisodeConfig().to_dict()
    assert "seed" not in default_config_document()["episode"]


def test_reset_defaults_to_seed_zero():
    env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
    states = []
    for seed in (None, 0, 987):
        obs = env.reset() if seed is None else env.reset(seed=seed)
        states.append((obs.vector.tolist(), env_state(env)))
    assert states[0] == states[1] != states[2]


def test_one_redraw_law():
    assert not hasattr(book, "QueueRedrawPolicy")
    # No object-level copy of the transitions, with its own redraw law.
    assert not hasattr(book, "apply_event")
    assert not hasattr(book, "mark_to_market")
    assert not hasattr(intervention, "apply_impulse")
    for name in ("apply_event", "apply_impulse", "mark_to_market"):
        assert name not in hawkeslob.__all__
        assert not hasattr(hawkeslob, name)
    for fn in (qvi.exogenous_branches, qvi.impulse_branches, qvi.generator):
        default = inspect.signature(fn).parameters["redraw_p"].default
        assert default == BookInitConfig().redraw_geom_p == 0.4


def test_env_transitions_take_the_run_redraw_law(monkeypatch):
    seen = {}
    for name in ("advance_interval", "apply_exogenous", "apply_impulse"):
        original = getattr(_k, name)
        signature = inspect.signature(original)

        def spy(*args, _original=original, _signature=signature, _name=name):
            seen.setdefault(_name, set()).add(
                _signature.bind(*args).arguments["redraw_p"])
            return _original(*args)

        monkeypatch.setattr(_k, name, spy)
    env = MarketMakingEnv(
        config=EpisodeConfig(horizon=5.0, action_set=ACTION_SET_FULL),
        init_config=BookInitConfig(redraw_geom_p=0.25))
    run_episode(env, RandomAgent(RandomStream(1)), seed=2)
    assert seen == {"advance_interval": {0.25}, "apply_exogenous": {0.25},
                    "apply_impulse": {0.25}}


def test_retired_parameters_are_gone():
    assert "h_rel" not in _params(qvi.generator)
    assert _params(detect_pump_and_dump) == ["inventory"]
    assert _params(poisson_flow_params) == ["mo_rate"]
    assert _params(HawkesClock) == ["params", "log_capacity"]
    assert _params(book.sample_initial_state) == ["config", "rng",
                                                  "initial_cash"]


@pytest.mark.parametrize("profile", ["exponential", "powerlaw"])
def test_clock_starts_at_zero(profile):
    assert HawkesClock(default_kernel_params(profile)).now == 0.0
