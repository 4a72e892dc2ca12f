"""One forward pass per net per loss.

``DenseNet.backward`` from the layer inputs that ``forward`` kept gives the
same bits as ``backward(x, g)``, which runs the forward pass again; and the
PPO and SIL losses run each net's batch forward once, with no forward
inside ``backward``.
"""

import numpy as np
import pytest

from hawkeslob import nn
from hawkeslob.env import OBS_DIM
from hawkeslob.ppo import (N_ACTIONS, PolicyNets, TrainerConfig, Transition,
                           _policy_forward, ppo_loss, sil_loss)
from hawkeslob.rng import RandomStream


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("sizes, head", [([5, 7, 6, 4], "4-way-logits"),
                                         ([5, 8, 1], "scalar"),
                                         ([5, 1], "binary-logit")])
@pytest.mark.parametrize("rows", [None, 1, 33])
def test_backward_from_kept_acts_is_bit_identical(activation, sizes, head,
                                                  rows):
    net = nn.DenseNet(sizes, activation=activation, head=head,
                      rng=RandomStream(sum(sizes)))
    gen = np.random.default_rng(len(sizes))
    shape = (sizes[0],) if rows is None else (rows, sizes[0])
    x = gen.normal(size=shape) * 3.0
    g = gen.normal(size=(1 if rows is None else rows, sizes[-1]))

    kept = []
    out = net.forward(x, kept)
    assert np.array_equal(out, net.forward(x))
    assert len(kept) == len(sizes) - 1
    got = net.backward(x, g, kept)
    ref = net.backward(x, g)
    for (dw, db), (rw, rb) in zip(got, ref):
        assert np.array_equal(dw, rw) and np.array_equal(db, rb)


def _batch(n, seed):
    gen = np.random.default_rng(seed)
    masks = gen.random((n, N_ACTIONS)) < 0.7
    decisions = (gen.random(n) < 0.5).astype(np.int64)
    decisions[~masks.any(axis=1)] = 0
    actions = np.array([gen.choice(np.flatnonzero(m)) if d else -1
                        for d, m in zip(decisions, masks)])
    return {"features": gen.normal(size=(n, OBS_DIM)),
            "decisions": decisions, "actions": actions,
            "adv": gen.normal(size=n), "ret": gen.normal(size=n) + 1.0,
            "masks": masks}


def _counted(monkeypatch, nets):
    calls = {}
    forward, backward = nn.DenseNet.forward, nn.DenseNet.backward
    names = {id(getattr(nets, name)): name
             for name in ("decision", "action", "value")}

    def counting_forward(self, *args, **kwargs):
        key = names[id(self)]
        calls[key] = calls.get(key, 0) + 1
        return forward(self, *args, **kwargs)

    def checked_backward(self, x, grad_out, acts=None):
        assert acts is not None, "backward ran the forward pass again"
        return backward(self, x, grad_out, acts)

    monkeypatch.setattr(nn.DenseNet, "forward", counting_forward)
    monkeypatch.setattr(nn.DenseNet, "backward", checked_backward)
    return calls


def test_each_loss_runs_each_net_forward_once(monkeypatch):
    center, scale = np.zeros(OBS_DIM), np.ones(OBS_DIM)
    nets = PolicyNets(center, scale, hidden_sizes=(8, 8),
                      rng=RandomStream(9))
    batch = _batch(40, 1)
    batch["logp_old"] = _policy_forward(
        nets, batch["features"], batch["decisions"], batch["actions"],
        batch["masks"])[-1]
    entries = [Transition(features=f, decision=int(d), action=int(a),
                          logp=0.0, reward=0.0, value=0.0, mask=m,
                          ret=float(r))
               for f, d, a, m, r in zip(batch["features"], batch["decisions"],
                                        batch["actions"], batch["masks"],
                                        batch["ret"])]
    calls = _counted(monkeypatch, nets)
    ppo_loss(nets, batch, TrainerConfig())
    assert calls == {"decision": 1, "action": 1, "value": 1}
    calls.clear()
    _, grads = sil_loss(nets, entries, TrainerConfig())
    assert np.any(grads["decision"][0][0])
    assert calls == {"decision": 1, "action": 1, "value": 1}
