"""Metric formula and detector tests."""

import math

import numpy as np
import pytest

from hawkeslob.agents import HoldAgent, RandomAgent
from hawkeslob.env import EpisodeConfig, MarketMakingEnv
from hawkeslob.metrics import (annualized_sharpe, detect_pump_and_dump,
                               evaluate_agent)
from hawkeslob.rng import RandomStream


class TestSharpe:
    def test_formula_example(self):
        # returns 0.01, 0.02, 0.03: mean 0.02, sample std 0.01
        sharpe = annualized_sharpe([20.0, 40.0, 60.0], 2000.0, 300.0)
        expected = 2.0 * math.sqrt(252 * 6.5 * 3600.0 / 300.0)
        assert sharpe == pytest.approx(expected, rel=1e-12)
        assert sharpe == pytest.approx(280.39971469, abs=1e-6)

    def test_constant_pnl_undefined(self):
        assert annualized_sharpe([5.0, 5.0, 5.0], 2000.0, 300.0) is None

    def test_needs_two_episodes(self):
        with pytest.raises(ValueError):
            annualized_sharpe([1.0], 2000.0, 300.0)

    def test_hold_agent_stream_is_undefined(self):
        # a hold agent never trades: PnL is exactly zero every episode
        env = MarketMakingEnv(config=EpisodeConfig(horizon=5.0))
        summary, episodes = evaluate_agent(env, HoldAgent(), 10, seed=1)
        assert all(s.pnl == 0.0 for s in episodes)
        assert summary.sharpe is None

    def test_null_strategy_indistinguishable_from_zero(self):
        # noisy zero-mean stream at 1000 episodes: |t| below 3
        rng = RandomStream(2)
        pnls = [rng.normal(0.0, 5.0) for _ in range(1000)]
        sharpe = annualized_sharpe(pnls, 2000.0, 300.0)
        per_episode = sharpe / math.sqrt(252 * 6.5 * 3600.0 / 300.0)
        assert abs(per_episode) * math.sqrt(1000) < 3.0


class TestPumpAndDump:
    def test_flat_trace_not_flagged(self):
        flagged, score = detect_pump_and_dump(np.zeros(100))
        assert not flagged
        assert score == 0.0

    def test_ramp_then_unwind_flagged(self):
        # positive control: fast pump to 30, then a long unwinding tail,
        # so the early peak dwarfs the typical (median) inventory
        t = np.arange(100, dtype=np.float64)
        up = np.linspace(0.0, 30.0, 5)
        tail = 30.0 * np.exp(-(t[5:] - 4.0) / 5.0)
        inv = np.concatenate([up, tail])
        flagged, score = detect_pump_and_dump(inv)
        assert flagged
        assert score > 5.0

    def test_symmetric_small_path_not_flagged(self):
        rng = RandomStream(3)
        inv = np.array([rng.integer(3) - 1 for _ in range(100)])
        flagged, _ = detect_pump_and_dump(inv)
        assert not flagged

    def test_persistent_position_not_flagged(self):
        # builds inventory but never unwinds: no reversal
        inv = np.concatenate([np.linspace(0, 20, 50), np.full(50, 20.0)])
        flagged, _ = detect_pump_and_dump(inv)
        assert not flagged


class TestEvaluation:
    def test_reproducible_summary(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=5.0))
        runs = []
        for _ in range(2):
            agent = RandomAgent(RandomStream(9))
            summary, episodes = evaluate_agent(env, agent, 3, seed=4)
            runs.append((summary.to_dict(),
                         [(s.pnl, s.n_fills) for s in episodes]))
        assert runs[0] == runs[1]

    def test_summary_fields(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=5.0))
        agent = RandomAgent(RandomStream(10))
        summary, episodes = evaluate_agent(env, agent, 4, seed=5,
                                           config_docs=({"a": 1},))
        assert summary.n_episodes == 4
        assert len(episodes) == 4
        assert len(summary.config_hash) == 16
        assert summary.mean_abs_inventory >= 0.0
        assert isinstance(summary.action_histogram, dict)


def test_traces_need_a_recording_env(tmp_path):
    env = MarketMakingEnv(config=EpisodeConfig(horizon=5.0))
    with pytest.raises(ValueError, match="record_trace"):
        evaluate_agent(env, HoldAgent(), 2, seed=1, trace_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []
    recording = MarketMakingEnv(config=EpisodeConfig(horizon=5.0),
                                record_trace=True)
    evaluate_agent(recording, HoldAgent(), 2, seed=1,
                   trace_dir=str(tmp_path))
    for e in range(2):
        lines = (tmp_path / f"trace_{e}.csv").read_text().splitlines()
        assert len(lines) > 1
