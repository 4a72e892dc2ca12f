"""One episode loop for training and evaluation, traces written from it,
and the admissibility check on the book array."""

import csv
import json

import pytest
from hypothesis import given, settings, strategies as st

from book_steps import check_invariants, env_state
from hawkeslob.agents import CheckpointAgent
from hawkeslob.cli import main
from hawkeslob.env import ACTION_SET_FULL, EpisodeConfig, MarketMakingEnv
from hawkeslob.events import Impulse, N_IMPULSES
from hawkeslob.intervention import InadmissibleImpulseError
from hawkeslob.metrics import run_episode
from hawkeslob.params import default_kernel_params
from hawkeslob.ppo import PolicyNets, build_normalizer, rollout_episode
from hawkeslob.rng import RandomStream


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_eval_traces_are_the_scored_episodes(tmp_path, monkeypatch):
    resets = []
    original_reset = MarketMakingEnv.reset

    def counting_reset(self, seed=None):
        resets.append(seed)
        return original_reset(self, seed)

    monkeypatch.setattr(MarketMakingEnv, "reset", counting_reset)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"episode": {"horizon": 20.0}}))
    out = tmp_path / "out"
    assert main(["eval", "--agent", "random", "--episodes", "2", "--traces",
                 "--seed", "3", "--config", str(config),
                 "--out-dir", str(out)]) == 0
    assert len(resets) == 2

    episode_cfg = EpisodeConfig(horizon=20.0)
    episodes = _read_csv(out / "episodes.csv")
    assert len(episodes) == 2
    for e, row in enumerate(episodes):
        trace = _read_csv(out / f"trace_{e}.csv")
        assert len(trace) == episode_cfg.n_steps
        assert sum(1 for step in trace if step["action"]) \
            == int(row["n_interventions"])
        last = trace[-1]
        inventory = int(last["inventory"])
        p_mid = (float(last["p_ask"]) + float(last["p_bid"])) / 2.0
        pnl = (float(last["cash"]) + inventory * p_mid
               - episode_cfg.initial_cash
               - episode_cfg.fee_bps * 1e-4 * abs(inventory) * p_mid)
        assert float(row["pnl"]) == pytest.approx(pnl, abs=1e-9)


def test_training_and_evaluation_share_one_loop():
    params = default_kernel_params()
    cfg = EpisodeConfig(horizon=10.0)
    nets = PolicyNets(*build_normalizer(params, cfg), hidden_sizes=(8,),
                      rng=RandomStream(3))
    env = MarketMakingEnv(params, cfg)
    trained = rollout_episode(env, nets, RandomStream(11), env_seed=21)
    evaluated, rewards = run_episode(
        env, CheckpointAgent(nets, RandomStream(11)), seed=21)
    assert trained.n_interventions > 0
    assert trained.pnl == evaluated.pnl
    assert trained.n_fills == evaluated.n_fills
    assert trained.mean_abs_inventory == evaluated.mean_abs_inventory
    assert trained.action_counts == evaluated.action_counts
    assert [tr.reward for tr in trained.transitions] == rewards


N_STEPS = 30


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       draws=st.lists(st.integers(-1, N_IMPULSES - 1),
                      min_size=N_STEPS, max_size=N_STEPS))
def test_step_accepts_exactly_the_admissible_impulses(seed, draws):
    """A random policy over the whole alphabet (-1 = hold), admissible or
    not: ``step`` takes exactly what the mask admits and leaves the state
    alone when it refuses."""
    cfg = EpisodeConfig(horizon=N_STEPS * 0.1, action_set=ACTION_SET_FULL,
                        eta=0.0, kappa=0.0, fee_bps=0.0)
    env = MarketMakingEnv(config=cfg)
    env.reset(seed=seed)
    total = 0.0
    for k, draw in enumerate(draws):
        mask = env.admissible_mask()
        if draw >= 0 and not mask[draw]:
            before = env_state(env)
            with pytest.raises(InadmissibleImpulseError):
                env.step(1, Impulse(draw))
            assert env_state(env) == before
            draw = -1
        if draw >= 0:
            _, reward, done = env.step(1, Impulse(draw))
        else:
            _, reward, done = env.step(0)
        check_invariants(env._book_arr)
        assert done == (k == N_STEPS - 1)
        total += (reward.inventory_penalty + reward.cash_delta
                  + reward.inventory_value_delta
                  + reward.terminal_adjustment)
    assert total == pytest.approx(env.mark_to_market() - cfg.initial_cash,
                                  abs=1e-9)
