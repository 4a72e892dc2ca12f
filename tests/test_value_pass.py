"""Rollouts act without the value net and value the episode in one pass.

``rollout_episode`` acts through ``PolicyNets.policy_only()``, whose
``value`` is None, so ``act`` returns nan for the value; after the episode
one batch forward of the value net sets every ``Transition.value``. Those
values match per-row forwards within 1e-12 relative (floored at 1e-12 of
the largest, as in ``test_row_forward.py``). The checkpoint agent acts
through the same view and makes the same actions, rewards and draws as
sampling through the full nets.
"""

import math

import numpy as np
import pytest

from hawkeslob import ppo
from hawkeslob.agents import CheckpointAgent
from hawkeslob.env import EpisodeConfig, MarketMakingEnv
from hawkeslob.events import RESTRICTED_IMPULSES
from hawkeslob.metrics import run_episode
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream

EPISODE = EpisodeConfig(horizon=20.0)


def _nets(seed):
    kernel = default_kernel_params()
    nets = ppo.PolicyNets(*ppo.build_normalizer(kernel, EPISODE),
                          hidden_sizes=(32, 32), rng=RandomStream(seed))
    # Intervene often, so both uniforms are drawn on many steps.
    nets.decision.biases[-1][:] = 1.0
    nets.value.biases[-1][:] = 0.5
    return kernel, nets


def test_policy_view_shares_the_policy_and_drops_the_value_net():
    _, nets = _nets(1)
    view = nets.policy_only()
    assert view.value is None and nets.value is not None
    assert view.decision is nets.decision and view.action is nets.action
    assert view.center is nets.center and view.scale is nets.scale
    features = np.linspace(-1.0, 1.0, nets.center.size)
    mask = np.array([True, False, True, True])
    full = ppo.act(nets, features, mask, RandomStream(5))
    viewed = ppo.act(view, features, mask, RandomStream(5))
    assert viewed[:3] == full[:3]
    assert math.isnan(viewed[3])
    assert full[3] == float(nets.value.forward(features)[0])


@pytest.mark.parametrize("seed", [1, 2])
def test_rollout_values_come_from_one_batch_pass(seed, monkeypatch):
    kernel, nets = _nets(seed)
    calls = []
    forward = nets.value.forward

    def counted(x, keep=None):
        calls.append(np.shape(x))
        return forward(x, keep)

    monkeypatch.setattr(nets.value, "forward", counted)
    stats = ppo.rollout_episode(MarketMakingEnv(kernel, EPISODE), nets,
                                RandomStream(10 + seed), env_seed=20 + seed)
    transitions = stats.transitions
    assert calls == [(EPISODE.n_steps, nets.center.size)]
    values = np.array([tr.value for tr in transitions])
    rows = np.array([forward(tr.features)[0] for tr in transitions])
    np.testing.assert_allclose(values, rows, rtol=1e-12,
                               atol=1e-12 * np.abs(rows).max())
    adv, ret = ppo.compute_gae([tr.reward for tr in transitions], values,
                               0.999, 0.95)
    assert [tr.adv for tr in transitions] == adv.tolist()
    assert [tr.ret for tr in transitions] == ret.tolist()


class _FullNetsAgent:
    """The checkpoint agent as it acted before: through the full nets."""

    name = "full"

    def __init__(self, nets, rng):
        self.nets = nets
        self.rng = rng
        self.actions = []

    def act(self, obs, mask):
        decision, a_idx, _, _ = ppo.act(self.nets, self.nets.features(obs),
                                        mask[ppo.SUB_MASK_IDX], self.rng)
        action = decision, RESTRICTED_IMPULSES[a_idx] if decision else None
        self.actions.append(action)
        return action


class _Recording(CheckpointAgent):
    def __init__(self, nets, rng):
        super().__init__(nets, rng)
        self.actions = []

    def act(self, obs, mask):
        action = super().act(obs, mask)
        self.actions.append(action)
        return action


@pytest.mark.parametrize("stream_seed", [3, 4])
def test_checkpoint_agent_through_the_view_acts_as_the_full_nets(
        stream_seed):
    kernel, nets = _nets(7)
    env = MarketMakingEnv(kernel, EPISODE)
    agent = _Recording(nets, RandomStream(stream_seed))
    assert agent.nets.value is None
    stats, rewards = run_episode(env, agent, 31)
    full = _FullNetsAgent(nets, RandomStream(stream_seed))
    full_stats, full_rewards = run_episode(env, full, 31)
    assert agent.actions == full.actions
    assert sum(d for d, _ in agent.actions) > 0
    assert np.array(rewards).tobytes() == np.array(full_rewards).tobytes()
    assert stats.pnl == full_stats.pnl
    assert agent.rng.state == full.rng.state
