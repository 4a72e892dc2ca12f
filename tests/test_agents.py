"""Baseline agent decision-procedure tests."""

import numpy as np
import pytest

from hawkeslob.agents import (CheckpointAgent, HoldAgent, ProbAgentConfig,
                              ProbabilisticAgent, RandomAgent, make_agent)
from hawkeslob.env import EpisodeConfig, MarketMakingEnv, Observation
from hawkeslob.events import EventType, Impulse, N_EVENT_TYPES
from hawkeslob.rng import RandomStream


def make_obs(intensities=None, inventory=0, rel_ask=-1.0, rel_bid=-1.0):
    lam = np.ones(N_EVENT_TYPES) if intensities is None \
        else np.asarray(intensities, dtype=np.float64)
    return Observation(np.array(
        [2000.0, inventory, 0.02, rel_ask, rel_bid, *lam,
         *np.zeros(N_EVENT_TYPES + 1), 100.0]))


def full_mask():
    return np.ones(10, dtype=bool)


def lam_with_top(event, value=5.0):
    lam = np.ones(N_EVENT_TYPES)
    lam[int(event)] = value
    return lam


class TestProbabilisticAgent:
    def test_mo_bid_pressure_quotes_bid(self):
        obs = make_obs(lam_with_top(EventType.MO_BID))
        d, psi = ProbabilisticAgent(ProbAgentConfig()).act(obs, full_mask())
        assert (d, psi) == (1, Impulse.LO_T_BID)

    def test_mo_bid_pressure_cancels_ask_when_resting(self):
        obs = make_obs(lam_with_top(EventType.MO_BID), rel_ask=0.5,
                       rel_bid=0.3)
        d, psi = ProbabilisticAgent(ProbAgentConfig()).act(obs, full_mask())
        assert (d, psi) == (1, Impulse.CO_T_ASK)

    def test_mo_ask_pressure_mirrors(self):
        obs = make_obs(lam_with_top(EventType.MO_ASK))
        d, psi = ProbabilisticAgent(ProbAgentConfig()).act(obs, full_mask())
        assert (d, psi) == (1, Impulse.LO_T_ASK)
        obs = make_obs(lam_with_top(EventType.MO_ASK), rel_bid=0.4,
                       rel_ask=0.2)
        d, psi = ProbabilisticAgent(ProbAgentConfig()).act(obs, full_mask())
        assert (d, psi) == (1, Impulse.CO_T_BID)

    def test_inventory_rule_sells_when_long(self):
        obs = make_obs(inventory=6)
        agent = ProbabilisticAgent(ProbAgentConfig(y_max=5))
        d, psi = agent.act(obs, full_mask())
        assert (d, psi) == (1, Impulse.MO_BID)

    def test_inventory_rule_buys_when_short(self):
        obs = make_obs(inventory=-6)
        agent = ProbabilisticAgent(ProbAgentConfig(y_max=5))
        d, psi = agent.act(obs, full_mask())
        assert (d, psi) == (1, Impulse.MO_ASK)

    def test_inventory_rule_dominates_direction_signal(self):
        obs = make_obs(lam_with_top(EventType.MO_BID), inventory=7)
        agent = ProbabilisticAgent(ProbAgentConfig(y_max=5))
        d, psi = agent.act(obs, full_mask())
        assert (d, psi) == (1, Impulse.MO_BID)

    def test_inventory_rule_respects_mask(self):
        obs = make_obs(lam_with_top(EventType.MO_BID), inventory=7)
        mask = full_mask()
        mask[int(Impulse.MO_BID)] = False
        agent = ProbabilisticAgent(ProbAgentConfig(y_max=5))
        d, psi = agent.act(obs, mask)
        # falls through to the directional rule
        assert (d, psi) == (1, Impulse.LO_T_BID)

    def test_no_signal_holds(self):
        obs = make_obs()  # all intensities equal, flat, nothing resting
        d, psi = ProbabilisticAgent(ProbAgentConfig()).act(obs, full_mask())
        assert (d, psi) == (0, None)

    def test_skew_guard_blocks_overquoting(self):
        # already resting on the bid and not on the ask: skew at threshold
        obs = make_obs(lam_with_top(EventType.MO_BID), rel_bid=0.5)
        d, psi = ProbabilisticAgent(ProbAgentConfig()).act(obs, full_mask())
        assert (d, psi) == (0, None)

    def test_pure_function_determinism(self):
        obs = make_obs(lam_with_top(EventType.MO_BID), inventory=2)
        outs = {ProbabilisticAgent(ProbAgentConfig()).act(obs, full_mask())
                for _ in range(25)}
        assert len(outs) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProbAgentConfig(y_max=0)


class TestRandomAndHold:
    def test_hold_agent(self):
        agent = HoldAgent()
        for _ in range(5):
            assert agent.act(make_obs(), full_mask()) == (0, None)

    def test_random_agent_empty_mask(self):
        d, psi = RandomAgent(RandomStream(1)).act(
            make_obs(), np.zeros(10, dtype=bool))
        assert (d, psi) == (0, None)

    def test_random_agent_frequencies(self):
        mask = np.zeros(10, dtype=bool)
        mask[int(Impulse.LO_T_ASK)] = True
        mask[int(Impulse.LO_T_BID)] = True
        agent = RandomAgent(RandomStream(2))
        counts = {Impulse.LO_T_ASK: 0, Impulse.LO_T_BID: 0, None: 0}
        n = 10_000
        for _ in range(n):
            d, psi = agent.act(make_obs(), mask)
            counts[psi] += 1
        # intervene w.p. 1/2, uniform over the two admissible: 25% each
        assert counts[Impulse.LO_T_ASK] / n == pytest.approx(0.25,
                                                             abs=0.02)
        assert counts[Impulse.LO_T_BID] / n == pytest.approx(0.25,
                                                             abs=0.02)


class TestFactoryAndCheckpoint:
    def test_make_agent_specs(self):
        rng = RandomStream(3)
        assert isinstance(make_agent("hold", rng), HoldAgent)
        assert isinstance(make_agent("random", rng), RandomAgent)
        assert isinstance(make_agent("prob", rng), ProbabilisticAgent)
        with pytest.raises(ValueError):
            make_agent("alpha-wolf", rng)

    def test_checkpoint_agent_roundtrip(self, tmp_path):
        from hawkeslob.ppo import PolicyNets, build_normalizer
        from hawkeslob.params import default_kernel_params
        params = default_kernel_params()
        nets = PolicyNets(*build_normalizer(params, EpisodeConfig()),
                          hidden_sizes=(8,), rng=RandomStream(4))
        path = tmp_path / "ckpt.json"
        nets.save(path)
        agent = make_agent(f"checkpoint:{path}", RandomStream(5))
        assert isinstance(agent, CheckpointAgent)
        env = MarketMakingEnv(params, EpisodeConfig(horizon=2.0))
        obs = env.reset(seed=1)
        d, psi = agent.act(obs, env.admissible_mask())
        assert d in (0, 1)

    def test_prob_agent_runs_full_action_env(self):
        env = MarketMakingEnv(
            config=EpisodeConfig(horizon=10.0, action_set="full"))
        agent = ProbabilisticAgent(ProbAgentConfig(y_max=2))
        obs = env.reset(seed=6)
        done = False
        while not done:
            d, psi = agent.act(obs, env.admissible_mask())
            obs, _, done = env.step(d, psi)
        assert True  # no inadmissible impulse was ever emitted
