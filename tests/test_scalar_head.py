"""``ppo.act`` (the per-step policy head on Python floats) against the batch
head ``_policy_forward`` and against the array version it replaced.

On sampled feature vectors and masks, with random nets: the log-prob that
``act`` records for the (decision, action) it returns equals the batch
head's within 1e-12, and for a fixed seed ``act`` returns the same
(decision, action) sequence, and leaves the stream in the same state, as
the array version kept below.
"""

import math

import numpy as np
import pytest

from hawkeslob.env import OBS_DIM
from hawkeslob.ppo import (N_ACTIONS, PolicyNets, _policy_forward, act,
                           masked_log_softmax)
from hawkeslob.rng import RandomStream

N_STATES = 1200


def _log_sigmoid(z):
    """log sigmoid(z), element-wise, by a mask over the two branches."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = -np.log1p(np.exp(-z[pos]))
    out[~pos] = z[~pos] - np.log1p(np.exp(z[~pos]))
    return out


def _act_array(nets, features, mask, rng):
    """``act`` as it was on 1- and 4-element numpy arrays."""
    z_d = float(nets.decision.forward(features)[0])
    value = float(nets.value.forward(features)[0])
    logsig = float(_log_sigmoid(np.array([z_d]))[0])
    logsig_neg = float(_log_sigmoid(np.array([-z_d]))[0])
    if not mask.any():
        return 0, -1, logsig_neg, value
    p1 = math.exp(logsig)
    decision = 1 if rng.uniform() < p1 else 0
    if decision == 0:
        return 0, -1, logsig_neg, value
    logits = nets.action.forward(features).reshape(1, -1)
    logp_a = masked_log_softmax(logits, mask.reshape(1, -1))[0]
    probs = np.where(np.isfinite(logp_a), np.exp(logp_a), 0.0)
    u = rng.uniform()
    acc = 0.0
    a_idx = int(np.flatnonzero(mask)[-1])
    for k in range(N_ACTIONS):
        acc += probs[k]
        if u <= acc:
            a_idx = k
            break
    return 1, a_idx, logsig + float(logp_a[a_idx]), value


def _nets(seed, decision_bias):
    nets = PolicyNets(np.zeros(OBS_DIM), np.ones(OBS_DIM),
                      hidden_sizes=(16, 16), learning_rate=1e-3,
                      rng=RandomStream(seed))
    nets.decision.biases[-1][:] = decision_bias
    return nets


def _states(seed):
    """Feature vectors and masks; every 16th mask is all-inadmissible and
    every 16th (offset 1) has a single admissible action."""
    rng = RandomStream(seed)
    feats = np.array([[3.0 * rng.normal() for _ in range(OBS_DIM)]
                      for _ in range(N_STATES)])
    masks = np.zeros((N_STATES, N_ACTIONS), dtype=bool)
    for i in range(N_STATES):
        if i % 16 == 0:
            continue
        if i % 16 == 1:
            masks[i, rng.integer(N_ACTIONS)] = True
            continue
        bits = rng.integer(16)
        masks[i] = [(bits >> k) & 1 for k in range(N_ACTIONS)]
    return feats, masks


# Biases move the decision logit through both branches of the log-sigmoid
# and into its tails.
@pytest.mark.parametrize("seed, decision_bias", [(1, 0.0), (2, 4.0),
                                                 (3, -4.0), (4, 25.0)])
def test_scalar_head_matches_batch_and_array_heads(seed, decision_bias):
    nets = _nets(seed, decision_bias)
    feats, masks = _states(100 + seed)
    rng, rng_ref = RandomStream(seed), RandomStream(seed)
    got = [act(nets, f, m, rng) for f, m in zip(feats, masks)]
    ref = [_act_array(nets, f, m, rng_ref) for f, m in zip(feats, masks)]

    assert [g[:2] for g in got] == [r[:2] for r in ref]
    assert [int(w) for w in rng.state] == [int(w) for w in rng_ref.state]
    assert [g[3] for g in got] == [r[3] for r in ref]

    decisions = np.array([g[0] for g in got])
    actions = np.array([g[1] for g in got])
    logp_batch = _policy_forward(nets, feats, decisions, actions, masks)[-1]
    logp = np.array([g[2] for g in got])
    np.testing.assert_allclose(logp, logp_batch, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logp, [r[2] for r in ref], rtol=0,
                               atol=1e-12)
    # Both decisions occur, and actions only where admissible.
    assert 0 < decisions.sum() < N_STATES or decision_bias == 25.0
    took = decisions == 1
    assert masks[took, actions[took]].all()
    assert not took[~masks.any(axis=1)].any()
