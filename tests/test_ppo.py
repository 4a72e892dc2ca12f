"""PPO/SIL loss arithmetic, GAE, masking and training-loop tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkeslob.env import EpisodeConfig, OBS_DIM
from hawkeslob.nn import DenseNet
from hawkeslob.params import default_kernel_params
from hawkeslob.ppo import (N_ACTIONS, PolicyNets, SILBuffer, Transition,
                           TrainerConfig, act, build_normalizer,
                           combined_loss, compute_gae, masked_log_softmax,
                           ppo_loss, sil_loss, train)
from hawkeslob.rng import RandomStream


def small_nets(hidden=(4,), seed=1, ablation="none"):
    center = np.zeros(OBS_DIM)
    scale = np.ones(OBS_DIM)
    return PolicyNets(center, scale, hidden_sizes=hidden,
                      learning_rate=1e-3, ablation=ablation,
                      rng=RandomStream(seed))


def random_batch(nets, n, seed=2, adv_values=None):
    """Batch whose stored log-probs match the current policy (ratio 1)."""
    rng = RandomStream(seed)
    feats = np.stack([np.array([rng.normal() * 0.3 for _ in range(OBS_DIM)])
                      for _ in range(n)])
    masks = np.zeros((n, N_ACTIONS), dtype=bool)
    decisions = np.empty(n, dtype=np.int64)
    actions = np.empty(n, dtype=np.int64)
    logps = np.empty(n)
    for i in range(n):
        masks[i, rng.integer(N_ACTIONS)] = True
        masks[i, rng.integer(N_ACTIONS)] = True
        d, a, logp, _ = act(nets, feats[i], masks[i], rng)
        decisions[i] = d
        actions[i] = a
        logps[i] = logp
    adv = (np.array(adv_values) if adv_values is not None
           else np.array([rng.normal() for _ in range(n)]))
    ret = np.array([rng.normal() for _ in range(n)])
    return {
        "features": feats, "decisions": decisions, "actions": actions,
        "logp_old": logps, "adv": adv, "ret": ret, "masks": masks,
    }


class TestMaskedSoftmax:
    def test_equal_logits_two_admissible(self):
        logits = np.zeros((1, 4))
        mask = np.array([[True, False, True, False]])
        logp = masked_log_softmax(logits, mask)
        probs = np.where(np.isfinite(logp), np.exp(logp), 0.0)
        # oracle: explicit normalization over the admissible pair
        np.testing.assert_allclose(probs[0], [0.5, 0.0, 0.5, 0.0],
                                   atol=1e-15)

    def test_matches_exhaustive_normalization(self):
        rng = RandomStream(3)
        for _ in range(50):
            logits = np.array([[rng.normal() for _ in range(4)]])
            mask = np.array([[rng.uniform() < 0.6 for _ in range(4)]])
            if not mask.any():
                mask[0, 0] = True
            logp = masked_log_softmax(logits, mask)
            probs = np.where(np.isfinite(logp), np.exp(logp), 0.0)
            raw = np.where(mask[0], np.exp(logits[0]), 0.0)
            np.testing.assert_allclose(probs[0], raw / raw.sum(),
                                       atol=1e-12)
            assert probs[0][~mask[0]].sum() == 0.0

    def test_empty_row(self):
        logp = masked_log_softmax(np.zeros((1, 4)),
                                  np.zeros((1, 4), dtype=bool))
        assert np.all(np.isinf(logp))

    @settings(max_examples=80, deadline=None)
    @given(logits=st.lists(st.floats(min_value=-30, max_value=30),
                           min_size=4, max_size=4),
           mask_bits=st.integers(min_value=1, max_value=15))
    def test_probabilities_normalize_over_admissible(self, logits,
                                                     mask_bits):
        logits = np.array([logits])
        mask = np.array([[(mask_bits >> k) & 1 == 1 for k in range(4)]])
        logp = masked_log_softmax(logits, mask)
        probs = np.where(np.isfinite(logp), np.exp(logp), 0.0)
        assert probs[0].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs[0][~mask[0]] == 0.0)
        assert np.all(probs[0] >= 0.0)


class TestAct:
    def test_all_masked_forces_hold(self):
        nets = small_nets()
        feats = np.zeros(OBS_DIM)
        mask = np.zeros(N_ACTIONS, dtype=bool)
        d, a, logp, _ = act(nets, feats, mask, RandomStream(4))
        assert (d, a) == (0, -1)
        z = float(nets.decision.forward(feats)[0])
        assert logp == pytest.approx(math.log(1.0 / (1.0 + math.exp(z))))

    def test_large_negative_logit_never_intervenes(self):
        nets = small_nets()
        nets.decision.weights[-1][:] = 0.0
        nets.decision.biases[-1][:] = -30.0
        rng = RandomStream(5)
        mask = np.ones(N_ACTIONS, dtype=bool)
        decisions = [act(nets, np.zeros(OBS_DIM), mask, rng)[0]
                     for _ in range(500)]
        assert sum(decisions) == 0

    def test_equal_logits_sample_half_half(self):
        nets = small_nets()
        nets.action.weights[-1][:] = 0.0
        nets.action.biases[-1][:] = 0.0
        nets.decision.weights[-1][:] = 0.0
        nets.decision.biases[-1][:] = 30.0  # always intervene
        mask = np.array([True, False, True, False])
        rng = RandomStream(6)
        counts = np.zeros(4)
        for _ in range(4000):
            d, a, _, _ = act(nets, np.zeros(OBS_DIM), mask, rng)
            counts[a] += 1
        assert counts[1] == counts[3] == 0
        assert counts[0] / 4000 == pytest.approx(0.5, abs=0.03)


class TestGAE:
    def test_single_step(self):
        adv, ret = compute_gae(np.array([5.0]), np.array([0.0]), 0.999,
                               0.95)
        assert adv[0] == 5.0 and ret[0] == 5.0

    def test_lambda_zero_is_td(self):
        rng = RandomStream(7)
        r = np.array([rng.normal() for _ in range(10)])
        v = np.array([rng.normal() for _ in range(10)])
        adv, _ = compute_gae(r, v, 0.9, 0.0)
        for t in range(10):
            v_next = v[t + 1] if t + 1 < 10 else 0.0
            assert adv[t] == pytest.approx(r[t] + 0.9 * v_next - v[t],
                                           abs=1e-12)

    def test_matches_quadratic_bruteforce(self):
        rng = RandomStream(8)
        n = 20
        r = np.array([rng.normal() for _ in range(n)])
        v = np.array([rng.normal() for _ in range(n)])
        gamma, lam = 0.97, 0.9
        adv, ret = compute_gae(r, v, gamma, lam)
        # O(T^2) oracle: adv_t = sum_k (gamma*lam)^k * delta_{t+k}
        delta = np.array([r[t] + gamma * (v[t + 1] if t + 1 < n else 0.0)
                          - v[t] for t in range(n)])
        for t in range(n):
            oracle = sum((gamma * lam) ** k * delta[t + k]
                         for k in range(n - t))
            assert adv[t] == pytest.approx(oracle, abs=1e-10)
            assert ret[t] == pytest.approx(oracle + v[t], abs=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_gae(np.array([]), np.array([]), 0.99, 0.95)


class TestPPOLoss:
    def test_clip_arithmetic_upper(self):
        nets = small_nets()
        cfg = TrainerConfig(beta_entropy=0.0)
        batch = random_batch(nets, 1, seed=9, adv_values=[1.0])
        batch["logp_old"] = batch["logp_old"] - math.log(1.5)
        _, _, stats = ppo_loss(nets, batch, cfg)
        # ratio 1.5, adv 1, eps 0.2: min(1.5, 1.2) = 1.2
        assert stats["policy_loss"] == pytest.approx(-1.2, abs=1e-12)

    def test_clip_arithmetic_lower(self):
        nets = small_nets()
        cfg = TrainerConfig(beta_entropy=0.0)
        batch = random_batch(nets, 1, seed=10, adv_values=[-1.0])
        batch["logp_old"] = batch["logp_old"] + math.log(2.0)
        _, _, stats = ppo_loss(nets, batch, cfg)
        # ratio 0.5, adv -1, eps 0.2: min(-0.5, -0.8) = -0.8
        assert stats["policy_loss"] == pytest.approx(0.8, abs=1e-12)

    def test_clipping_bound_property(self):
        nets = small_nets(seed=11)
        cfg = TrainerConfig()
        for seed in range(12, 17):
            batch = random_batch(nets, 16, seed=seed)
            shift = np.array([RandomStream(seed + 100).normal() * 0.5
                              for _ in range(16)])
            batch["logp_old"] = batch["logp_old"] + shift
            ratio = np.exp(-shift)
            s1 = ratio * batch["adv"]
            s2 = np.clip(ratio, 0.8, 1.2) * batch["adv"]
            surr = np.minimum(s1, s2)
            bound = np.maximum(1.2 * np.abs(batch["adv"]),
                               0.8 * np.abs(batch["adv"]))
            assert np.all(surr <= bound + 1e-12)

    def test_gradient_is_vanilla_pg_at_ratio_one(self):
        """With stored log-probs equal to the current policy's, the PPO
        policy gradient equals the vanilla estimator grad -mean(logpi*A),
        checked by finite differences (huge clip and default clip agree)."""
        nets = small_nets(hidden=(3,), seed=18)
        batch = random_batch(nets, 12, seed=19)
        for eps in (0.2, 1e9):
            cfg = TrainerConfig(clip_eps=eps, beta_entropy=0.0)
            _, grads, _ = ppo_loss(nets, batch, cfg)
            for name, net in (("decision", nets.decision),
                              ("action", nets.action)):
                analytic = DenseNet.flatten_grads(grads[name])
                numeric = _fd_policy_gradient(nets, net, batch)
                np.testing.assert_allclose(analytic, numeric, rtol=2e-5,
                                           atol=1e-7)

    def test_masked_actions_zero_prob_zero_grad(self):
        nets = small_nets(seed=20)
        cfg = TrainerConfig()
        batch = random_batch(nets, 10, seed=21)
        blocked = 2
        batch["masks"][:, blocked] = False
        # re-sample actions consistently with the new mask
        rng = RandomStream(22)
        for i in range(10):
            if not batch["masks"][i].any():
                batch["masks"][i, 0] = True
            d, a, logp, _ = act(nets, batch["features"][i],
                                batch["masks"][i], rng)
            batch["decisions"][i] = d
            batch["actions"][i] = a
            batch["logp_old"][i] = logp
        _, grads, _ = ppo_loss(nets, batch, cfg)
        dw_last, db_last = grads["action"][-1]
        assert np.all(dw_last[:, blocked] == 0.0)
        assert db_last[blocked] == 0.0

    def test_nonfinite_ratio_rejected(self):
        nets = small_nets(seed=23)
        batch = random_batch(nets, 4, seed=24)
        batch["logp_old"] = batch["logp_old"] - 2000.0
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError):
                ppo_loss(nets, batch, TrainerConfig())


class TestSILLoss:
    def _entry(self, nets, ret, seed=25):
        rng = RandomStream(seed)
        feats = np.array([rng.normal() * 0.2 for _ in range(OBS_DIM)])
        mask = np.ones(N_ACTIONS, dtype=bool)
        d, a, logp, v = act(nets, feats, mask, rng)
        return Transition(features=feats, decision=d, action=a, logp=logp,
                          reward=0.0, value=v, mask=mask, ret=ret, adv=0.0)

    def test_indicator_off_when_return_below_value(self):
        nets = small_nets(seed=26)
        entry = self._entry(nets, ret=-1e6)
        loss, grads = sil_loss(nets, [entry], TrainerConfig())
        assert loss == 0.0
        for name in ("decision", "action", "value"):
            assert all(np.all(dw == 0) and np.all(db == 0)
                       for dw, db in grads[name])

    def test_contribution_is_neg_logp_when_above(self):
        nets = small_nets(seed=27)
        entry = self._entry(nets, ret=1e6)
        loss, _ = sil_loss(nets, [entry], TrainerConfig())
        # recompute the policy log-prob of the stored action
        feats = entry.features
        z = float(nets.decision.forward(feats)[0])
        logp = -math.log1p(math.exp(-z)) if entry.decision == 1 \
            else -math.log1p(math.exp(z))
        if entry.decision == 1:
            logits = nets.action.forward(feats).reshape(1, -1)
            lp = masked_log_softmax(logits, entry.mask.reshape(1, -1))
            logp += float(lp[0, entry.action])
        assert loss == pytest.approx(-logp, abs=1e-12)

    def test_mixed_buffer_matches_bruteforce_filter(self):
        nets = small_nets(seed=28)
        entries = [self._entry(nets, ret=r, seed=30 + k)
                   for k, r in enumerate([-5.0, 5.0, 0.0, 7.0, -2.0])]
        loss, _ = sil_loss(nets, entries, TrainerConfig())
        # oracle: filtered mean over entries with R > V
        total = 0.0
        for e in entries:
            v = float(nets.value.forward(e.features)[0])
            if e.ret > v:
                z = float(nets.decision.forward(e.features)[0])
                lp = -math.log1p(math.exp(-z)) if e.decision == 1 \
                    else -math.log1p(math.exp(z))
                if e.decision == 1:
                    logits = nets.action.forward(e.features).reshape(1, -1)
                    lsm = masked_log_softmax(logits,
                                             e.mask.reshape(1, -1))
                    lp += float(lsm[0, e.action])
                total += -lp
        assert loss == pytest.approx(total / len(entries), abs=1e-12)

    def test_empty_buffer(self):
        nets = small_nets(seed=31)
        loss, grads = sil_loss(nets, [], TrainerConfig())
        assert loss == 0.0


class TestCombinedGradcheck:
    def test_ppo_sil_combined_fd(self):
        """Criterion-6 style: every parameter of all three heads on
        <=100-param tanh nets matches central differences."""
        center = np.zeros(OBS_DIM)
        scale = np.ones(OBS_DIM)
        nets = PolicyNets(center, scale, hidden_sizes=(2,),
                          learning_rate=1e-3, rng=RandomStream(32))
        for net in (nets.decision, nets.action, nets.value):
            net.activation = "tanh"
        batch = random_batch(nets, 8, seed=33)
        sil_entries = []
        rng = RandomStream(34)
        for k in range(4):
            feats = np.array([rng.normal() * 0.2 for _ in range(OBS_DIM)])
            mask = np.ones(N_ACTIONS, dtype=bool)
            d, a, logp, v = act(nets, feats, mask, rng)
            sil_entries.append(Transition(
                features=feats, decision=d, action=a, logp=logp, reward=0.0,
                value=v, mask=mask, ret=v + (1.5 if k % 2 else -1.5),
                adv=0.0))
        cfg = TrainerConfig(beta_sil=0.3, beta_entropy=0.02)

        _, grads, _ = combined_loss(nets, batch, sil_entries, cfg)
        h = 1e-6
        for name, net in (("decision", nets.decision),
                          ("action", nets.action), ("value", nets.value)):
            analytic = DenseNet.flatten_grads(grads[name])
            flat0 = net.get_flat()
            numeric = np.empty_like(flat0)
            for i in range(flat0.size):
                p = flat0.copy()
                p[i] += h
                net.set_flat(p)
                up = combined_loss(nets, batch, sil_entries, cfg)[0]
                p[i] -= 2 * h
                net.set_flat(p)
                dn = combined_loss(nets, batch, sil_entries, cfg)[0]
                numeric[i] = (up - dn) / (2 * h)
            net.set_flat(flat0)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric),
                                                          1e-6)
            assert rel.max() < 1e-4, f"{name} gradient mismatch"


class TestSILBuffer:
    def _tr(self, ret, value):
        return Transition(features=np.zeros(OBS_DIM), decision=0, action=-1,
                          logp=0.0, reward=0.0, value=value,
                          mask=np.ones(N_ACTIONS, dtype=bool), ret=ret,
                          adv=0.0)

    def test_eviction_lowest_priority_first(self):
        buf = SILBuffer(capacity=3)
        for ret in (1.0, 5.0, 3.0, 4.0, 2.0):
            buf.add(self._tr(ret, value=0.0))
        assert len(buf) == 3
        kept = sorted(t.ret for _, _, t in buf._heap)
        assert kept == [3.0, 4.0, 5.0]

    def test_sample_deterministic(self):
        buf = SILBuffer(capacity=8)
        for ret in range(8):
            buf.add(self._tr(float(ret), value=0.0))
        s1 = [t.ret for t in buf.sample(RandomStream(40), 5)]
        s2 = [t.ret for t in buf.sample(RandomStream(40), 5)]
        assert s1 == s2


class _RewardHackEnv:
    """Reward 1 when holding, 0 when intervening; fixed observation."""

    class Obs:
        inventory = 0
        vector = np.zeros(OBS_DIM)

    def __init__(self, n_steps=40):
        self.config = EpisodeConfig(horizon=n_steps * 0.1, fee_bps=0.0,
                                    initial_cash=2000.0)
        self.n_steps = n_steps
        self.fills = []
        self.total_reward = 0.0

    def reset(self, seed=None):
        self._k = 0
        self.total_reward = 0.0
        return self.Obs()

    def admissible_mask(self):
        mask = np.zeros(10, dtype=bool)
        mask[0] = mask[1] = True  # LO_T_ASK / LO_T_BID slots
        return mask

    def step(self, decision, impulse=None):
        class R:
            def __init__(self, total):
                self.total = total

        self._k += 1
        r = 1.0 if decision == 0 else 0.0
        self.total_reward += r
        return self.Obs(), R(r), self._k >= self.n_steps

    def mark_to_market(self):
        return self.config.initial_cash


class TestTraining:
    def test_noop_training_leaves_params(self):
        cfg = TrainerConfig(total_episodes=2, episodes_per_update=2,
                            epochs_per_update=0, beta_sil=0.0,
                            hidden_sizes=(4,))
        env = _RewardHackEnv(n_steps=10)
        result = train(default_kernel_params("poisson"), env.config, cfg,
                       seed=50, env=env)
        fresh = PolicyNets(
            *build_normalizer(default_kernel_params("poisson"), env.config),
            hidden_sizes=(4,), learning_rate=cfg.learning_rate,
            rng=RandomStream(0))
        # params must equal the freshly initialized nets from the same seed
        result2 = train(default_kernel_params("poisson"), env.config, cfg,
                        seed=50, env=_RewardHackEnv(n_steps=10))
        np.testing.assert_array_equal(result.nets.decision.get_flat(),
                                      result2.nets.decision.get_flat())
        assert result.nets.decision.adam_t == 0

    def test_reward_hack_env_learns_to_hold(self):
        # short-horizon credit so the per-action signal dominates GAE
        cfg = TrainerConfig(total_episodes=40, episodes_per_update=2,
                            epochs_per_update=4, minibatch_size=128,
                            hidden_sizes=(8,), learning_rate=1e-2,
                            discount=0.5, gae_lambda=0.2,
                            beta_sil=0.1, beta_entropy=0.0005)
        env = _RewardHackEnv(n_steps=40)
        result = train(default_kernel_params("poisson"), env.config, cfg,
                       seed=52, env=env)  # 20 updates
        feats = result.nets.features(env.reset())
        z = float(result.nets.decision.forward(feats)[0])
        p_intervene = 1.0 / (1.0 + math.exp(-z))
        assert p_intervene < 0.05
        assert result.log_rows[-1]["total_reward"] == 40.0

    def test_checkpoint_every_writes_the_updates_before_the_last(
            self, tmp_path):
        cfg = TrainerConfig(total_episodes=6, episodes_per_update=1,
                            epochs_per_update=1, hidden_sizes=(4,),
                            checkpoint_every=2)
        result = train(default_kernel_params("poisson"),
                       EpisodeConfig(horizon=2.0), cfg, seed=53,
                       out_dir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.json", "checkpoint_up2.json", "checkpoint_up4.json",
            "training_log.csv"]
        flats = [PolicyNets.load(tmp_path / name).decision.get_flat()
                 for name in ("checkpoint_up2.json", "checkpoint_up4.json",
                              "checkpoint.json")]
        assert not np.array_equal(flats[0], flats[1])
        assert not np.array_equal(flats[1], flats[2])
        np.testing.assert_array_equal(flats[2],
                                      result.nets.decision.get_flat())

    def test_training_determinism(self):
        cfg = TrainerConfig(total_episodes=4, episodes_per_update=2,
                            epochs_per_update=1, hidden_sizes=(4,))
        ec = EpisodeConfig(horizon=5.0)
        outs = []
        for _ in range(2):
            res = train(default_kernel_params("poisson"), ec, cfg, seed=52)
            outs.append(np.concatenate([res.nets.decision.get_flat(),
                                        res.nets.action.get_flat(),
                                        res.nets.value.get_flat()]))
        np.testing.assert_array_equal(outs[0], outs[1])


def _fd_policy_gradient(nets, net, batch, h=1e-6):
    """FD oracle of the vanilla PG objective -mean(logpi * adv) wrt net."""
    def objective():
        z = nets.decision.forward(batch["features"]).ravel()
        logits = nets.action.forward(batch["features"])
        logsig = -np.log1p(np.exp(-z))
        logsig_neg = -np.log1p(np.exp(z))
        lsm = masked_log_softmax(logits, batch["masks"])
        lp = np.where(
            batch["decisions"] == 1,
            logsig + lsm[np.arange(len(z)),
                         np.maximum(batch["actions"], 0)],
            logsig_neg)
        return float(-(lp * batch["adv"]).mean())

    flat0 = net.get_flat()
    grad = np.empty_like(flat0)
    for i in range(flat0.size):
        p = flat0.copy()
        p[i] += h
        net.set_flat(p)
        up = objective()
        p[i] -= 2 * h
        net.set_flat(p)
        dn = objective()
        grad[i] = (up - dn) / (2 * h)
    net.set_flat(flat0)
    return grad
