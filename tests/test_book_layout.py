"""The book kernels' state is plain Python scalars: a list of 9 ints for
the book, a one-element list holding a float for the cash, float fill
prices and tuples of ints for the dispatch tables. These hold after whole
episodes, including one that reaches the market-order impulses."""

import pytest

from book_steps import env_state
from hawkeslob import events
from hawkeslob.agents import ProbabilisticAgent, RandomAgent
from hawkeslob.book import pack_state
from hawkeslob.env import ACTION_SET_FULL, EpisodeConfig, MarketMakingEnv
from hawkeslob.metrics import run_episode
from hawkeslob.rng import RandomStream


def _assert_scalar_layout(env):
    assert type(env._book_arr) is list and len(env._book_arr) == 9
    assert all(type(v) is int for v in env._book_arr)
    assert type(env._cash_arr) is list and len(env._cash_arr) == 1
    assert type(env._cash_arr[0]) is float
    assert all(type(p) is float for p in env._fill_px)
    assert env.fills
    assert all(type(f.price) is float for f in env.fills)
    arr, cash = pack_state(*env_state(env))
    assert type(arr) is list and all(type(v) is int for v in arr)
    assert type(cash) is list and type(cash[0]) is float
    assert arr == env._book_arr and cash == env._cash_arr


def test_prob_episode_keeps_python_scalars():
    env = MarketMakingEnv(config=EpisodeConfig(horizon=30.0))
    stats, _ = run_episode(env, ProbabilisticAgent(), seed=3)
    assert stats.n_interventions > 0
    _assert_scalar_layout(env)


def test_full_action_set_episode_keeps_python_scalars():
    env = MarketMakingEnv(config=EpisodeConfig(horizon=30.0,
                                               action_set=ACTION_SET_FULL))
    stats, _ = run_episode(env, RandomAgent(RandomStream(5)), seed=5)
    assert stats.action_counts.get("MO_ASK", 0) > 0
    assert stats.action_counts.get("MO_BID", 0) > 0
    _assert_scalar_layout(env)


@pytest.mark.parametrize("name", ["EVENT_KIND", "EVENT_SIDE", "IMPULSE_KIND",
                                  "IMPULSE_SIDE", "MIRROR_EVENT"])
def test_dispatch_tables_hold_python_ints(name):
    table = getattr(events, name)
    assert type(table) is tuple
    assert all(type(v) is int for v in table)
