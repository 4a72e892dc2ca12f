"""``sil_loss`` runs the policy nets only over the rows its gradient weighs.

A sampled row of weight 0 adds nothing to the self-imitation loss or its
gradient, so the decision net runs over the rows with a positive weight
and the action net over those of them that intervened. Against the
all-rows formula (kept here as the reference), the loss and every
parameter's gradient agree within 1e-12: the batch products sum over
fewer rows, so the last bits may differ. With no positive weight the loss
is 0.0 and every gradient is exactly zero.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkeslob.env import OBS_DIM
from hawkeslob.ppo import (N_ACTIONS, PolicyNets, TrainerConfig, Transition,
                           _policy_forward, _policy_logp_grads, sil_loss)
from hawkeslob.rng import RandomStream

TOL = 1e-12


def _reference(nets, entries):
    """The SIL loss and gradients over every sampled row."""
    feats = np.array([tr.features for tr in entries])
    decisions = np.array([tr.decision for tr in entries])
    actions = np.array([tr.action for tr in entries])
    rets = np.array([tr.ret for tr in entries])
    masks = np.array([tr.mask for tr in entries])
    n = len(entries)
    acts_d, acts_a, p1, _, _, p_a, _, logp = _policy_forward(
        nets, feats, decisions, actions, masks)
    v = nets.value.forward(feats).ravel()
    weight = (rets > v).astype(np.float64)
    g_zd, g_logits = _policy_logp_grads(decisions, actions, p1, p_a,
                                        -weight / n)
    grads = {
        "decision": nets.decision.backward(feats, g_zd.reshape(-1, 1),
                                           acts_d),
        "action": nets.action.backward(feats, g_logits, acts_a),
        "value": nets.value.zero_grads(),
    }
    return float(-(weight * logp).mean()), grads


def _nets(seed):
    return PolicyNets(np.zeros(OBS_DIM), np.ones(OBS_DIM),
                      hidden_sizes=(8, 8), rng=RandomStream(seed))


def _entries(nets, n, seed, above):
    """``n`` entries with mixed decisions, at least one admissible action
    each, and returns above V with probability ``above``."""
    gen = np.random.default_rng(seed)
    feats = gen.normal(size=(n, OBS_DIM))
    values = nets.value.forward(feats).ravel()
    entries = []
    for f, v in zip(feats, values.tolist()):
        mask = gen.random(N_ACTIONS) < 0.6
        mask[gen.integers(N_ACTIONS)] = True
        decision = int(gen.random() < 0.5)
        action = int(gen.choice(np.flatnonzero(mask))) if decision else -1
        side = 1.0 if gen.random() < above else -1.0
        ret = v + side * (0.01 + gen.exponential())
        entries.append(Transition(features=f, decision=decision,
                                  action=action, logp=0.0, reward=0.0,
                                  value=v, mask=mask, ret=ret))
    return entries


def _close(got, ref):
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    np.testing.assert_allclose(got, ref, rtol=TOL, atol=TOL * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
       above=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
def test_kept_rows_match_all_rows(n, seed, above):
    nets = _nets(seed % 1000)
    entries = _entries(nets, n, seed, above)
    loss, grads = sil_loss(nets, entries, TrainerConfig())
    ref_loss, ref_grads = _reference(nets, entries)
    _close(loss, ref_loss)
    for name in ("decision", "action", "value"):
        for (dw, db), (rw, rb) in zip(grads[name], ref_grads[name]):
            _close(dw, rw)
            _close(db, rb)
    assert all(not dw.any() and not db.any() for dw, db in grads["value"])


@given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_no_positive_weight_gives_zero(n, seed):
    nets = _nets(seed % 1000)
    entries = _entries(nets, n, seed, above=0.0)
    loss, grads = sil_loss(nets, entries, TrainerConfig())
    assert loss == 0.0 and math.copysign(1.0, loss) == 1.0
    for name in ("decision", "action", "value"):
        assert all(not dw.any() and not db.any() for dw, db in grads[name])


def _recorded(net, seen):
    forward, backward = net.forward, net.backward

    def recording_forward(x, keep=None):
        seen.append(("forward", np.array(x)))
        return forward(x, keep)

    def recording_backward(x, grad_out, acts=None):
        seen.append(("backward", np.array(x)))
        return backward(x, grad_out, acts)

    net.forward, net.backward = recording_forward, recording_backward


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
       above=st.sampled_from([0.3, 0.7, 1.0]))
def test_each_net_sees_only_its_rows(n, seed, above):
    nets = _nets(seed % 1000)
    entries = _entries(nets, n, seed, above)
    feats = np.array([tr.features for tr in entries])
    values = nets.value.forward(feats).ravel()
    positive = [tr.ret > v for tr, v in zip(entries, values.tolist())]
    weighed = feats[positive]
    took = feats[[p and tr.decision == 1
                  for p, tr in zip(positive, entries)]]
    seen = {"decision": [], "action": []}
    for name, log in seen.items():
        _recorded(getattr(nets, name), log)
    sil_loss(nets, entries, TrainerConfig())
    for name, rows in (("decision", weighed), ("action", took)):
        expected = [] if not len(rows) else ["forward", "backward"]
        assert [call for call, _ in seen[name]] == expected
        for _, x in seen[name]:
            assert np.array_equal(x, rows)
