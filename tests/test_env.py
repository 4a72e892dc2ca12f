"""Market-making environment tests: rewards, settlement, determinism."""

import numpy as np
import pytest

from book_steps import env_state
from hawkeslob import _kernels as _k
from hawkeslob.env import (ACTION_SET_FULL, EpisodeConfig, MarketMakingEnv,
                           OBS_BLOCKS, OBS_DIM)
from hawkeslob.events import Impulse
from hawkeslob.intervention import InadmissibleImpulseError
from hawkeslob.params import KernelParams
from hawkeslob.rng import RandomStream


def quiet_params() -> KernelParams:
    """No exogenous events ever (all baselines zero)."""
    d = 12
    return KernelParams(kind="exponential", mu=np.zeros(d),
                        alpha=np.zeros((d, d)), gamma=np.ones((d, d)))


def _block(obs, name):
    lo, hi = OBS_BLOCKS[name]
    return obs.vector[lo:hi]


class TestReset:
    def test_fresh_state(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
        obs = env.reset(seed=1)
        assert obs.inventory == 0
        assert list(_block(obs, "relative-position")) == [-1.0, -1.0]
        np.testing.assert_allclose(_block(obs, "intensity"),
                                   env.kernel_params.mu)
        assert list(_block(obs, "t_remaining")) == [1.0]
        assert list(_block(obs, "cash")) == [2000.0]

    def test_seed_determinism(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
        v1 = env.reset(seed=3).to_vector()
        v2 = env.reset(seed=3).to_vector()
        assert np.array_equal(v1, v2)

    def test_p_mid_sampling_mean(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
        mids = []
        for k in range(1000):
            env.reset(seed=k)
            mids.append(env_state(env)[0].p_mid)
        se = 10.0 / np.sqrt(len(mids))
        assert abs(np.mean(mids) - 200.0) < 3 * se


class TestRewards:
    def test_inventory_penalty_formula(self):
        env = MarketMakingEnv(quiet_params(),
                              EpisodeConfig(horizon=1.0, eta=10.0))
        env.reset(seed=1)
        env._book_arr[_k.YINV] = 2
        _, reward, _ = env.step(0)
        assert reward.inventory_penalty == pytest.approx(-4.0 * 0.1 * 10)
        # -eta * Y^2 * dt = -10 * 4 * 0.1 = -4.0
        assert reward.inventory_penalty == -4.0
        assert reward.total == pytest.approx(-4.0)

    def test_terminal_adjustment_formula(self):
        env = MarketMakingEnv(quiet_params(),
                              EpisodeConfig(horizon=0.1, kappa=0.1,
                                            fee_bps=1.0, eta=0.0))
        env.reset(seed=1)
        env._book_arr[_k.YINV] = 3
        env._book_arr[_k.PA] = 20001
        env._book_arr[_k.PB] = 19999
        _, reward, done = env.step(0)
        assert done
        # -0.1 * 9 - 1e-4 * 3 * 200 = -0.9 - 0.06
        assert reward.terminal_adjustment == pytest.approx(-0.96)

    def test_accounting_identity_full_episode(self):
        cfg = EpisodeConfig(horizon=60.0, eta=0.0, kappa=0.0, fee_bps=0.0)
        env = MarketMakingEnv(config=cfg)
        rng = RandomStream(4)
        for trial in range(5):
            env.reset(seed=trial)
            total = 0.0
            done = False
            while not done:
                mask = env.admissible_mask()
                if rng.uniform() < 0.2:
                    adm = np.flatnonzero(mask)
                    psi = Impulse(int(adm[rng.integer(adm.size)]))
                    _, r, done = env.step(1, psi)
                else:
                    _, r, done = env.step(0)
                total += r.total
            assert abs(total - (env.mark_to_market() - 2000.0)) < 1e-9

    def test_telescoping_deltas(self):
        cfg = EpisodeConfig(horizon=30.0)
        env = MarketMakingEnv(config=cfg)
        env.reset(seed=9)
        acc = 0.0
        done = False
        while not done:
            _, r, done = env.step(0)
            acc += r.cash_delta + r.inventory_value_delta
        book, agent = env_state(env)
        expected = agent.cash + agent.inventory * book.p_mid - 2000.0
        assert acc == pytest.approx(expected, abs=1e-9)

    def test_grid_refinement_invariance(self):
        """Same seed, eta=0, no impulses: total reward is invariant to the
        decision grid because pending proposals survive boundaries."""
        totals = []
        for dt in (0.1, 0.05, 0.025):
            cfg = EpisodeConfig(horizon=20.0, decision_dt=dt, eta=0.0,
                                kappa=0.0, fee_bps=0.0)
            env = MarketMakingEnv(config=cfg)
            env.reset(seed=77)
            done = False
            total = 0.0
            while not done:
                _, r, done = env.step(0)
                total += r.total
            totals.append(total)
        assert totals[0] == pytest.approx(totals[1], abs=1e-9)
        assert totals[0] == pytest.approx(totals[2], abs=1e-9)


class TestActionHandling:
    def test_restricted_set_rejects_mo_and_is(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
        env.reset(seed=1)
        for psi in (Impulse.MO_ASK, Impulse.MO_BID, Impulse.LO_IS_ASK,
                    Impulse.LO_D_BID):
            with pytest.raises(InadmissibleImpulseError):
                env.step(1, psi)

    def test_full_set_accepts_mo(self):
        env = MarketMakingEnv(
            config=EpisodeConfig(horizon=1.0, action_set=ACTION_SET_FULL))
        env.reset(seed=1)
        obs, r, _ = env.step(1, Impulse.MO_ASK)
        assert obs.inventory == 1

    def test_impulse_decision_consistency(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step(0, Impulse.LO_T_ASK)
        with pytest.raises(ValueError):
            env.step(1, None)

    def test_step_after_done(self):
        env = MarketMakingEnv(quiet_params(), EpisodeConfig(horizon=0.1))
        env.reset(seed=1)
        env.step(0)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_inadmissible_impulse_rejected(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
        env.reset(seed=1)
        with pytest.raises(InadmissibleImpulseError):
            env.step(1, Impulse.CO_T_ASK)


class TestDeterminism:
    def _run(self, seed, actions):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=5.0))
        obs = env.reset(seed=seed)
        path = [obs.to_vector()]
        rewards = []
        for k in range(env.config.n_steps):
            psi = None
            decision = 0
            if actions and k % 7 == 3:
                mask = env.admissible_mask()
                adm = np.flatnonzero(mask)
                psi = Impulse(int(adm[0]))
                decision = 1
            obs, r, done = env.step(decision, psi)
            path.append(obs.to_vector())
            rewards.append(r.total)
        return np.stack(path), np.array(rewards)

    def test_bit_identical_trajectories(self):
        p1, r1 = self._run(42, actions=True)
        p2, r2 = self._run(42, actions=True)
        assert np.array_equal(p1, p2)
        assert np.array_equal(r1, r2)

    def test_different_seeds_differ(self):
        p1, _ = self._run(1, actions=False)
        p2, _ = self._run(2, actions=False)
        assert not np.array_equal(p1, p2)


class TestObservation:
    def test_vector_layout(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
        obs = env.reset(seed=5)
        vec = obs.to_vector()
        assert vec.shape == (OBS_DIM,)
        assert np.array_equal(vec, obs.vector)
        assert not np.shares_memory(vec, obs.vector)
        assert list(_block(obs, "t_remaining")) == [1.0]
        assert obs.inventory == vec[OBS_BLOCKS["inventory"][0]] == 0

    def test_intensities_at_least_baseline(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=2.0))
        obs = env.reset(seed=6)
        done = False
        while not done:
            obs, _, done = env.step(0)
            assert np.all(_block(obs, "intensity")
                          >= env.kernel_params.mu - 1e-12)

    def test_rel_pos_range(self):
        env = MarketMakingEnv(
            config=EpisodeConfig(horizon=2.0, action_set=ACTION_SET_FULL))
        obs = env.reset(seed=7)
        env.step(1, Impulse.LO_D_ASK)
        done = False
        while not done:
            obs, _, done = env.step(0)
            for rel in _block(obs, "relative-position"):
                assert rel == -1.0 or 0.0 <= rel <= 1.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            EpisodeConfig(horizon=1.0, decision_dt=0.3)
        with pytest.raises(ValueError):
            EpisodeConfig(eta=-1.0)
        with pytest.raises(ValueError):
            EpisodeConfig(action_set="everything")
