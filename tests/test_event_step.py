"""The env's advance reports every agent fill however long the interval,
a wrapped power-law event log is refused, and ``simulate`` writes the
``eval --traces`` outputs."""

import numpy as np
import pytest

from book_steps import env_state
from hawkeslob import _kernels as _k
from hawkeslob.agents import RandomAgent
from hawkeslob.cli import main
from hawkeslob.env import ACTION_SET_FULL, EpisodeConfig, MarketMakingEnv
from hawkeslob.events import Impulse
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream


def _cash_inventory(env):
    _, agent = env_state(env)
    return agent.cash, agent.inventory


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fills_explain_every_hold_step(seed):
    env = MarketMakingEnv(config=EpisodeConfig(horizon=30.0,
                                               action_set=ACTION_SET_FULL))
    agent = RandomAgent(RandomStream(100 + seed))
    obs = env.reset(seed=seed)
    hold_fills = 0
    done = False
    while not done:
        decision, impulse = agent.act(obs, env.admissible_mask())
        cash0, inv0 = _cash_inventory(env)
        n0 = len(env.fills)
        obs, _, done = env.step(decision, impulse)
        if decision == 1:
            continue
        cash1, inv1 = _cash_inventory(env)
        new = env.fills[n0:]
        assert sum(not f.side_ask for f in new) <= 1
        assert sum(f.side_ask for f in new) <= 1
        assert inv1 - inv0 == sum(-1 if f.side_ask else 1 for f in new)
        assert cash1 - cash0 == pytest.approx(
            sum(f.price if f.side_ask else -f.price for f in new), abs=1e-9)
        hold_fills += len(new)
    assert hold_fills > 0


def _one_ask_quote_run(decision_dt, horizon, seed):
    """Rest one top-of-book ask at t = 0, then hold to the horizon."""
    env = MarketMakingEnv(config=EpisodeConfig(
        horizon=horizon, decision_dt=decision_dt, eta=0.0, kappa=0.0,
        fee_bps=0.0))
    env.reset(seed=seed)
    _, _, done = env.step(1, Impulse.LO_T_ASK)
    while not done:
        _, _, done = env.step(0)
    return env


def test_long_interval_matches_fine_grid():
    horizon, seed = 300.0, 5
    coarse = _one_ask_quote_run(horizon, horizon, seed)
    fine = _one_ask_quote_run(0.1, horizon, seed)
    # One decision interval holding more events than any fixed buffer the
    # advance might use.
    assert coarse._clock.n_events > 4096
    assert coarse._clock.n_events == fine._clock.n_events
    assert coarse.fills == fine.fills and len(coarse.fills) == 1
    assert env_state(coarse) == env_state(fine)
    assert coarse.total_reward == pytest.approx(fine.total_reward, abs=1e-9)
    assert coarse.total_reward != 0.0


def test_powerlaw_log_wrap_within_horizon_raises():
    params = default_kernel_params("powerlaw")
    wrapped = HawkesClock(params, log_capacity=8)
    full = HawkesClock(params, log_capacity=64)
    for k in range(9):
        wrapped.apply_event(k % 12, 0.1 * k)
        full.apply_event(k % 12, 0.1 * k)
    with pytest.raises(ValueError, match="log_capacity"):
        wrapped.intensities(1.0)
    with pytest.raises(ValueError, match="log_capacity"):
        wrapped.simulate(2.0, RandomStream(1))
    # Once the oldest kept entry is older than the horizon, nothing the
    # sum needs was overwritten.
    t_late = 0.1 + params.pl_horizon + 0.5
    assert np.array_equal(wrapped.intensities(t_late),
                          full.intensities(t_late))


def test_powerlaw_log_exactly_full_is_not_a_wrap():
    params = default_kernel_params("powerlaw")
    full = HawkesClock(params, log_capacity=8)
    roomy = HawkesClock(params, log_capacity=64)
    for k in range(8):
        full.apply_event(k % 12, 0.1 * k)
        roomy.apply_event(k % 12, 0.1 * k)
    assert full.clock_i[_k.CK_LOG_SIZE] == 8  # every slot used, none lost
    assert np.array_equal(full.intensities(1.0), roomy.intensities(1.0))


@pytest.mark.parametrize("agent", ["hold", "random", "prob"])
def test_simulate_writes_the_eval_outputs(tmp_path, agent):
    config = tmp_path / "config.json"
    config.write_text('{"episode": {"horizon": 10.0}}')
    common = ["--config", str(config), "--seed", "4", "--episodes", "2",
              "--agent", agent]
    sim, ev = tmp_path / "sim", tmp_path / "eval"
    assert main(["simulate", *common, "--out-dir", str(sim)]) == 0
    assert main(["eval", *common, "--traces", "--out-dir", str(ev)]) == 0
    names = ["summary.json", "episodes.csv", "trace_0.csv", "trace_1.csv"]
    assert sorted(p.name for p in sim.iterdir()) == sorted(names)
    for name in names:
        assert (sim / name).read_bytes() == (ev / name).read_bytes(), name
