"""Two-network policy (decision timing + impulse selection) trained with
PPO's clipped surrogate, GAE advantages, an entropy bonus, and
self-imitation learning from a replay of above-value returns.

The joint policy factorizes as Bernoulli (intervene or not) times a
masked categorical over the four restricted impulses:

    log pi(a|s) = log p(d|s) + d * log p(psi | d=1, s)

and both heads share one clipped-surrogate/SIL objective. The value head
is a separate network. Inadmissible actions are masked out of the
categorical: they receive exactly zero probability and exactly zero
gradient. When no action is admissible the decision is forced to 0 and
the recorded log-probability is log p(d=0).
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .env import (EpisodeConfig, MarketMakingEnv, OBS_BLOCKS, OBS_DIM,
                  Observation)
from .events import Impulse, RESTRICTED_IMPULSES
from .book import BookInitConfig
from .intervention import RESTRICTED_IDX
from .metrics import EpisodeStats, read_json, run_episode, write_csv
from .nn import HEAD_SIZES, DenseNet, Gradients
from .params import KernelParams
from .rng import BlockStream, RandomStream, derive_seed, draw_count

N_ACTIONS = len(RESTRICTED_IMPULSES)
SUB_MASK_IDX = np.array(RESTRICTED_IDX)

ABLATION_CHOICES = ("none", "history", "intensity", "spread",
                    "relative-position")

# Network name -> head; the order fixes each net's init stream.
_HEADS = {"decision": "binary-logit", "action": "4-way-logits",
          "value": "scalar"}


@dataclass(frozen=True)
class TrainerConfig:
    clip_eps: float = 0.2
    discount: float = 0.999
    gae_lambda: float = 0.95
    beta_sil: float = 0.1
    beta_entropy: float = 0.01
    epochs_per_update: int = 4
    minibatch_size: int = 256
    episodes_per_update: int = 5
    total_episodes: int = 60
    learning_rate: float = 3e-4
    hidden_sizes: Tuple[int, ...] = (64, 64)
    sil_capacity: int = 4096
    sil_batch: int = 256
    ablation: str = "none"
    checkpoint_every: int = 5

    def __post_init__(self):
        if not 0.0 < self.clip_eps:
            raise ValueError("clip_eps must be positive")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        if not 0.0 < self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in (0, 1]")
        for name in ("beta_sil", "beta_entropy"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if self.ablation not in ABLATION_CHOICES:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        for name in ("minibatch_size", "episodes_per_update", "sil_batch",
                     "sil_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # Zero epochs collects rollouts without updating; zero episodes
        # trains nothing; zero checkpoint_every writes only the final
        # checkpoint.
        for name in ("epochs_per_update", "total_episodes",
                     "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes entries must be >= 1")

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_sizes": list(self.hidden_sizes)}


# ---------------------------------------------------------------------------
# Observation normalization / ablation
# ---------------------------------------------------------------------------

def build_normalizer(kernel_params: KernelParams, config: EpisodeConfig,
                     tick: float = 0.01) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed affine scales derived from the configuration.

    Intensities and history counts are centred/scaled by the stationary
    rates, so features sit near zero at equilibrium regardless of the
    kernel profile.
    """
    stat = kernel_params.stationary_rates
    center = np.zeros(OBS_DIM)
    scale = np.ones(OBS_DIM)
    center[0] = config.initial_cash
    scale[0] = 200.0
    scale[1] = 5.0
    scale[2] = 5.0 * tick
    lo, hi = OBS_BLOCKS["intensity"]
    center[lo:hi] = stat
    scale[lo:hi] = np.maximum(stat, 1e-3)
    lo, hi = OBS_BLOCKS["history"]
    center[lo:hi - 1] = stat * config.history_window
    scale[lo:hi - 1] = np.maximum(stat * config.history_window, 1.0)
    scale[hi - 1] = config.history_window
    lo, hi = OBS_BLOCKS["t_remaining"]
    center[lo] = config.horizon / 2.0
    scale[lo] = config.horizon / 2.0
    return center, scale


# Version of the ``PolicyNets.to_dict`` layout, written to every checkpoint.
CHECKPOINT_FORMAT = 1


class PolicyNets:
    """Decision, action and value networks plus the feature map."""

    def __init__(self, center: np.ndarray, scale: np.ndarray,
                 hidden_sizes: Sequence[int] = (64, 64),
                 learning_rate: float = 3e-4, ablation: str = "none",
                 rng: Optional[RandomStream] = None):
        rng = rng or RandomStream(0)
        sizes = [OBS_DIM, *hidden_sizes]
        for key, (name, head) in enumerate(_HEADS.items(), start=1):
            setattr(self, name, DenseNet(
                [*sizes, HEAD_SIZES[head]], head=head,
                learning_rate=learning_rate, rng=rng.spawn(key)))
        self._set_features(center, scale, ablation)

    def _set_features(self, center, scale, ablation: str) -> None:
        """The feature map; ValueError when it does not fit OBS_DIM, when
        ``center`` is not finite, or when a ``scale`` entry is zero or not
        finite."""
        for name, vec in (("center", center), ("scale", scale)):
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (OBS_DIM,):
                raise ValueError(f"{name} has shape {vec.shape}, expected "
                                 f"({OBS_DIM},)")
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} holds a non-finite value")
            setattr(self, name, vec)
        if (self.scale == 0.0).any():
            raise ValueError("scale holds a zero entry")
        if ablation not in ABLATION_CHOICES:
            raise ValueError(f"unknown ablation {ablation!r}")
        self.ablation = ablation

    def policy_only(self) -> "PolicyNets":
        """A view for acting: it shares the decision and action nets and
        the feature map, and its ``value`` is None, so ``act`` runs no
        value net."""
        view = copy.copy(self)
        view.value = None
        return view

    def features(self, obs: Observation) -> np.ndarray:
        """The normalised feature vector of an ``Observation``, read from
        the vector it carries."""
        vec = (obs.vector - self.center) / self.scale
        if self.ablation != "none":
            lo, hi = OBS_BLOCKS[self.ablation]
            vec[lo:hi] = 0.0
        return vec

    def to_dict(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "decision": self.decision.to_dict(),
            "action": self.action.to_dict(),
            "value": self.value.to_dict(),
            "center": self.center.tolist(),
            "scale": self.scale.tolist(),
            "ablation": self.ablation,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PolicyNets":
        """Rebuild from ``to_dict`` output; ValueError on a format version
        other than ``CHECKPOINT_FORMAT`` (a file without one predates
        versioning and loads) or a layout that does not fit the observation
        vector or the policy heads."""
        version = doc.get("format", CHECKPOINT_FORMAT)
        if version != CHECKPOINT_FORMAT:
            raise ValueError(f"checkpoint format {version!r} is not "
                             f"supported; expected {CHECKPOINT_FORMAT}")
        nets = cls.__new__(cls)
        for name, head in _HEADS.items():
            net = DenseNet.from_dict(doc[name])
            if net.layer_sizes[0] != OBS_DIM or net.head != head:
                raise ValueError(
                    f"checkpoint {name} net maps {net.layer_sizes[0]} inputs "
                    f"to a {net.head!r} head of width {net.layer_sizes[-1]}; "
                    f"expected {OBS_DIM} inputs and a {head!r} head of width "
                    f"{HEAD_SIZES[head]}")
            setattr(nets, name, net)
        nets._set_features(doc["center"], doc["scale"], doc["ablation"])
        return nets

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "PolicyNets":
        """``from_dict`` of the file at ``path``; ValueError naming the path
        when it cannot be read."""
        return cls.from_dict(read_json(path, "checkpoint"))


# ---------------------------------------------------------------------------
# Policy arithmetic
# ---------------------------------------------------------------------------

def masked_log_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over admissible entries; -inf elsewhere.

    Rows with no admissible entry come back all -inf.
    """
    out = np.full_like(logits, -np.inf)
    any_adm = mask.any(axis=1)
    if not any_adm.any():
        return out
    masked = np.where(mask, logits, -np.inf)
    # Gather the admissible rows only when some row has none.
    rows = slice(None) if any_adm.all() else np.flatnonzero(any_adm)
    m = masked[rows]
    row_max = m.max(axis=1, keepdims=True)
    shifted = m - row_max
    ex = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
    log_z = np.log(ex.sum(axis=1, keepdims=True))
    out[rows] = np.where(mask[rows], shifted - log_z, -np.inf)
    return out


def _log_sigmoids(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(log sigmoid(z), log sigmoid(-z)) from one s = log1p(exp(-|z|)),
    by the stable branches: log sigmoid(x) is -s for x >= 0 and x - s
    below."""
    softplus = np.log1p(np.exp(-np.abs(z)))
    neg = -softplus
    return (np.where(z >= 0, neg, z - softplus),
            np.where(z <= 0, neg, -z - softplus))


def _log_sigmoid_pair(z: float) -> Tuple[float, float]:
    """(log sigmoid(z), log sigmoid(-z)) of one float, by the branches of
    ``_log_sigmoids``."""
    softplus = math.log1p(math.exp(-abs(z)))
    if z >= 0:
        return -softplus, -z - softplus
    return z - softplus, -softplus


def act(nets: PolicyNets, features: np.ndarray, mask: np.ndarray,
        rng: RandomStream) -> Tuple[int, int, float, float]:
    """Sample (decision, action index, joint log-prob, value estimate).

    ``mask`` is over the restricted action head. The decision uniform is
    drawn only when at least one action is admissible; the categorical
    uniform only when intervening. The heads are computed on Python
    floats, over the admissible actions only; ``_policy_forward`` is the
    same arithmetic on batches. The value is the value net's output for
    this row, or nan for a ``policy_only`` view, which has no value net:
    rollouts and checkpoint evaluation act through one, and a rollout
    values its whole episode in one batch pass afterwards.
    """
    z_d = float(nets.decision.forward(features)[0])
    value = (math.nan if nets.value is None
             else float(nets.value.forward(features)[0]))
    logsig, logsig_neg = _log_sigmoid_pair(z_d)
    allowed = [k for k, ok in enumerate(mask.tolist()) if ok]
    if not allowed or rng.uniform() >= math.exp(logsig):
        return 0, -1, logsig_neg, value
    logits = nets.action.forward(features).tolist()
    top = max(logits[k] for k in allowed)
    shifted = [logits[k] - top for k in allowed]
    log_z = math.log(sum(math.exp(s) for s in shifted))
    u = rng.uniform()
    acc = 0.0
    pick = len(allowed) - 1
    for i, s in enumerate(shifted):
        acc += math.exp(s - log_z)
        if u <= acc:
            pick = i
            break
    return 1, allowed[pick], logsig + (shifted[pick] - log_z), value


# ---------------------------------------------------------------------------
# Rollout storage
# ---------------------------------------------------------------------------

@dataclass
class Transition:
    features: np.ndarray
    decision: int
    action: int
    logp: float
    reward: float
    value: float
    mask: np.ndarray
    ret: float = math.nan
    adv: float = math.nan


class CheckpointAgent:
    """The stochastic policy of trained networks, as a ``run_episode`` agent.

    It acts through ``nets.policy_only()``: no step runs the value net,
    whose output nothing here reads. Given a ``transitions`` list, ``act``
    appends each step's ``Transition``, whose reward, value, return and
    advantage are not yet known; training rollouts pass one, checkpoint
    evaluation does not.
    """

    name = "checkpoint"

    def __init__(self, nets: PolicyNets, rng: RandomStream,
                 transitions: Optional[List[Transition]] = None):
        self.nets = nets.policy_only()
        self.rng = rng
        self.transitions = transitions

    @classmethod
    def load(cls, path: str, rng: RandomStream) -> "CheckpointAgent":
        return cls(PolicyNets.load(path), rng)

    def act(self, obs: Observation,
            mask: np.ndarray) -> Tuple[int, Optional[Impulse]]:
        """Sample the policy given admissibility over the full impulse
        order, by the module's ``act``, looked up at call time."""
        sub_mask = mask[SUB_MASK_IDX]
        features = self.nets.features(obs)
        decision, a_idx, logp, value = act(self.nets, features, sub_mask,
                                           self.rng)
        if self.transitions is not None:
            self.transitions.append(Transition(
                features=features, decision=decision, action=a_idx,
                logp=logp, reward=math.nan, value=value, mask=sub_mask))
        return decision, RESTRICTED_IMPULSES[a_idx] if decision else None


def compute_gae(rewards: Sequence[float], values: np.ndarray, discount: float,
                gae_lambda: float) -> Tuple[np.ndarray, np.ndarray]:
    """GAE advantages and returns-to-go with terminal bootstrap 0."""
    values = np.asarray(values, dtype=np.float64)
    n = len(rewards)
    if n == 0:
        raise ValueError("empty trajectory")
    # Python floats: the float64 arithmetic of numpy scalars, without
    # indexing them.
    rs = np.asarray(rewards, dtype=np.float64).tolist()
    vs = values.tolist()
    decay = discount * gae_lambda
    adv = [0.0] * n
    gae = 0.0
    v_next = 0.0
    for i in range(n - 1, -1, -1):
        v = vs[i]
        gae = (rs[i] + discount * v_next - v) + decay * gae
        adv[i] = gae
        v_next = v
    adv = np.array(adv)
    return adv, adv + values


class SILBuffer:
    """Capacity-bounded replay; evicts the lowest (R - V at insert) first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._heap: List[Tuple[float, int, Transition]] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, transition: Transition) -> None:
        priority = transition.ret - transition.value
        heapq.heappush(self._heap, (priority, self._counter, transition))
        self._counter += 1
        if len(self._heap) > self.capacity:
            heapq.heappop(self._heap)

    def sample(self, rng: RandomStream, k: int) -> List[Transition]:
        """``k`` entries drawn with replacement, each as ``rng.integer``
        would pick it; the k uniforms are drawn as one block. An empty
        buffer draws nothing."""
        k = draw_count(k, "k")
        heap = self._heap
        if not heap:
            return []
        n = len(heap)
        picks = np.minimum((rng.uniforms(k) * n).astype(np.int64), n - 1)
        return [heap[i][2] for i in picks.tolist()]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _policy_forward(nets: PolicyNets, feats: np.ndarray, decisions: np.ndarray,
                    actions: np.ndarray, masks: np.ndarray):
    """Shared forward pieces for the PPO and SIL losses.

    The first two are the layer inputs of the decision and action nets,
    which their ``backward`` takes; the last is the joint log-prob.
    """
    acts_d, acts_a = [], []
    z_d = nets.decision.forward(feats, acts_d).ravel()
    logits = nets.action.forward(feats, acts_a)
    logsig, logsig_neg = _log_sigmoids(z_d)
    p1 = np.exp(logsig)
    logp_a = masked_log_softmax(logits, masks)
    p_a = np.where(np.isfinite(logp_a), np.exp(logp_a), 0.0)
    logp_a_safe = np.where(np.isfinite(logp_a), logp_a, 0.0)
    took = decisions == 1
    idx = np.where(took, np.maximum(actions, 0), 0)
    logp_sel = logp_a_safe[np.arange(len(feats)), idx]
    logp = np.where(took, logsig + logp_sel, logsig_neg)
    return acts_d, acts_a, p1, logsig, logsig_neg, p_a, logp_a_safe, logp


def _policy_logp_grads(decisions: np.ndarray, actions: np.ndarray,
                       p1: np.ndarray, p_a: np.ndarray,
                       g_logp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Map d(loss)/d(logp) to decision-logit and action-logit gradients."""
    g_zd = g_logp * (decisions - p1)
    g_logits = np.zeros_like(p_a)
    took = np.flatnonzero(decisions == 1)
    if took.size:
        one_hot = np.zeros_like(p_a[took])
        one_hot[np.arange(took.size), actions[took]] = 1.0
        g_logits[took] = g_logp[took, None] * (one_hot - p_a[took])
    return g_zd, g_logits


def ppo_loss(nets: PolicyNets, batch: Dict[str, np.ndarray],
             config: TrainerConfig) -> Tuple[float, Dict[str, Gradients],
                                             Dict[str, float]]:
    """Clipped surrogate + value MSE - entropy bonus, with exact grads.

    ``batch`` keys: features (B,F), decisions (B,), actions (B,),
    logp_old (B,), adv (B,), ret (B,), masks (B,4).
    """
    feats = batch["features"]
    decisions = batch["decisions"]
    actions = batch["actions"]
    logp_old = batch["logp_old"]
    adv = batch["adv"]
    ret = batch["ret"]
    masks = batch["masks"]
    n = len(feats)
    if n == 0:
        raise ValueError("empty batch")

    acts_d, acts_a, p1, logsig, logsig_neg, p_a, logp_a_safe, logp = \
        _policy_forward(nets, feats, decisions, actions, masks)
    ratio = np.exp(logp - logp_old)
    if not np.all(np.isfinite(ratio)):
        raise FloatingPointError("non-finite probability ratio; stored "
                                 "log-probs inconsistent with policy")
    eps = config.clip_eps
    s1 = ratio * adv
    s2 = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    surrogate = np.minimum(s1, s2)
    policy_loss = -surrogate.mean()

    acts_v = []
    v = nets.value.forward(feats, acts_v).ravel()
    value_err = ret - v
    value_loss = float((value_err ** 2).mean())

    h_d = -(p1 * logsig + (1.0 - p1) * logsig_neg)
    h_a = -(p_a * logp_a_safe).sum(axis=1)
    entropy = float((h_d + p1 * h_a).mean())

    loss = float(policy_loss + value_loss - config.beta_entropy * entropy)

    # gradient of the clipped surrogate: active where min picks s1
    active = (s1 <= s2).astype(np.float64)
    g_logp = -(adv * ratio * active) / n
    g_zd, g_logits = _policy_logp_grads(decisions, actions, p1, p_a,
                                        g_logp)

    # entropy bonus gradients
    beta = config.beta_entropy
    dp1_dz = p1 * (1.0 - p1)
    dhd_dz = dp1_dz * (logsig_neg - logsig)
    g_zd += -(beta / n) * (dhd_dz + h_a * dp1_dz)
    dha_dlogits = -(p_a * (logp_a_safe + h_a[:, None]))
    g_logits += -(beta / n) * p1[:, None] * dha_dlogits

    g_v = -2.0 * value_err / n

    grads = {
        "decision": nets.decision.backward(feats, g_zd.reshape(-1, 1),
                                           acts_d),
        "action": nets.action.backward(feats, g_logits, acts_a),
        "value": nets.value.backward(feats, g_v.reshape(-1, 1), acts_v),
    }
    stats = {
        "policy_loss": float(policy_loss),
        "value_loss": value_loss,
        "entropy": entropy,
    }
    return loss, grads, stats


def sil_loss(nets: PolicyNets, entries: Sequence[Transition],
             config: TrainerConfig) -> Tuple[float, Dict[str, Gradients]]:
    """Self-imitation loss -E[w(R, V) log pi(a|s)] over buffer samples.

    The weight is the indicator 1{R > V}. V enters the weight only (no
    value-head gradient). The value net runs over every sampled entry; a
    row of weight 0 adds nothing to the loss or its gradient, so the
    decision net runs forward and backward only over the rows with R > V,
    and the action net only over those of them that intervened. The loss
    is the sum over those rows divided by the number of entries. When no
    row has R > V, the loss is 0.0 and the gradients are exactly zero.
    ``config`` is not read; the signature is that of ``ppo_loss``.
    """
    if not entries:
        return 0.0, _zero_grads(nets)
    n = len(entries)
    feats = np.array([tr.features for tr in entries])
    rets = np.array([tr.ret for tr in entries])
    v = nets.value.forward(feats).ravel()
    rows = np.flatnonzero(rets > v)
    if not rows.size:
        return 0.0, _zero_grads(nets)
    feats = feats[rows]
    kept = [entries[i] for i in rows.tolist()]
    decisions = np.array([tr.decision for tr in kept])
    took = np.flatnonzero(decisions == 1)

    acts_d = []
    z_d = nets.decision.forward(feats, acts_d).ravel()
    # logp is log p(d=0) until the rows that intervened are set.
    logsig, logp = _log_sigmoids(z_d)
    g_logp = -1.0 / n
    if took.size:
        actions = np.array([kept[i].action for i in took.tolist()])
        masks = np.array([kept[i].mask for i in took.tolist()])
        acts_a = []
        logp_a = masked_log_softmax(
            nets.action.forward(feats[took], acts_a), masks)
        p_a = np.where(np.isfinite(logp_a), np.exp(logp_a), 0.0)
        picked = np.arange(took.size), actions
        logp[took] = logsig[took] + logp_a[picked]
        g_logits = -p_a
        g_logits[picked] += 1.0
        g_logits *= g_logp
        grads_a = nets.action.backward(feats[took], g_logits, acts_a)
    else:
        grads_a = nets.action.zero_grads()
    loss = float(-logp.sum() / n)
    g_zd = g_logp * (decisions - np.exp(logsig))
    grads = {
        "decision": nets.decision.backward(feats, g_zd.reshape(-1, 1),
                                           acts_d),
        "action": grads_a,
        "value": nets.value.zero_grads(),
    }
    return loss, grads


def _zero_grads(nets: PolicyNets) -> Dict[str, Gradients]:
    return {name: getattr(nets, name).zero_grads() for name in _HEADS}


def _add_grads(a: Gradients, b: Gradients, coef: float) -> Gradients:
    """``a + coef * b`` per array, written into ``b``, which is returned."""
    for (dw1, db1), (dw2, db2) in zip(a, b):
        dw2 *= coef
        dw2 += dw1
        db2 *= coef
        db2 += db1
    return b


def combined_loss(nets: PolicyNets, batch: Dict[str, np.ndarray],
                  sil_entries: Sequence[Transition], config: TrainerConfig
                  ) -> Tuple[float, Dict[str, Gradients], Dict[str, float]]:
    """PPO loss plus beta_sil times the SIL loss, with summed gradients."""
    loss_p, grads_p, stats = ppo_loss(nets, batch, config)
    loss_s, grads_s = sil_loss(nets, sil_entries, config)
    grads = {name: _add_grads(grads_p[name], grads_s[name], config.beta_sil)
             for name in grads_p}
    stats["sil_loss"] = loss_s
    return loss_p + config.beta_sil * loss_s, grads, stats


# ---------------------------------------------------------------------------
# Rollouts and the training loop
# ---------------------------------------------------------------------------

def rollout_episode(env, nets: PolicyNets, rng: RandomStream,
                    env_seed: int, discount: float = 0.999,
                    gae_lambda: float = 0.95) -> EpisodeStats:
    """One training episode; its stats carry the GAE-labelled transitions.

    Each step acts through a recording ``CheckpointAgent``, so through
    ``nets.policy_only()`` and ``act`` looked up through this module.
    After the episode, one forward pass of the value net over the stacked
    features sets every ``Transition.value``; it agrees with per-row
    passes to the last bits, not bit for bit (see ``nn``).
    """
    transitions: List[Transition] = []
    stats, rewards = run_episode(
        env, CheckpointAgent(nets, rng, transitions), env_seed)
    values = nets.value.forward(
        np.array([tr.features for tr in transitions])).ravel()
    adv, ret = compute_gae(rewards, values, discount, gae_lambda)
    for tr, r, v, a, g in zip(transitions, rewards, values.tolist(),
                              adv.tolist(), ret.tolist()):
        tr.reward = r
        tr.value = v
        tr.adv = a
        tr.ret = g
    stats.transitions = transitions
    return stats


@dataclass
class TrainResult:
    nets: PolicyNets
    log_rows: List[dict]
    checkpoint_path: Optional[str] = None


def train(kernel_params: KernelParams, episode_config: EpisodeConfig,
          trainer_config: TrainerConfig, seed: int,
          out_dir: Optional[str] = None,
          init_config: BookInitConfig = BookInitConfig(),
          env: Optional[object] = None) -> TrainResult:
    """Full training loop; reproducible from ``seed``.

    ``env`` may supply a pre-built environment (any object with the
    MarketMakingEnv step/reset/admissible_mask surface); by default a
    fresh MarketMakingEnv over ``kernel_params`` is used.
    """
    tc = trainer_config
    stream = BlockStream(derive_seed(seed, 0x7141))
    center, scale = build_normalizer(kernel_params, episode_config,
                                     tick=init_config.tick)
    nets = PolicyNets(center, scale, hidden_sizes=tc.hidden_sizes,
                      learning_rate=tc.learning_rate, ablation=tc.ablation,
                      rng=stream.spawn(0))
    buffer = SILBuffer(tc.sil_capacity)
    if env is None:
        env = MarketMakingEnv(kernel_params, episode_config, init_config)

    log_rows: List[dict] = []
    pnls: List[float] = []
    episode = 0
    update = 0
    n_updates = math.ceil(tc.total_episodes / tc.episodes_per_update)
    checkpoint_path = None

    while episode < tc.total_episodes:
        results = []
        n_eps = min(tc.episodes_per_update, tc.total_episodes - episode)
        for _ in range(n_eps):
            res = rollout_episode(env, nets, stream,
                                  derive_seed(seed, 0xE6, episode),
                                  discount=tc.discount,
                                  gae_lambda=tc.gae_lambda)
            results.append(res)
            pnls.append(res.pnl)
            episode += 1
        transitions = [tr for res in results for tr in res.transitions]
        for tr in transitions:
            buffer.add(tr)

        batch_all = {
            "features": np.array([tr.features for tr in transitions]),
            "decisions": np.array([tr.decision for tr in transitions]),
            "actions": np.array([tr.action for tr in transitions]),
            "logp_old": np.array([tr.logp for tr in transitions]),
            "adv": np.array([tr.adv for tr in transitions]),
            "ret": np.array([tr.ret for tr in transitions]),
            "masks": np.array([tr.mask for tr in transitions]),
        }
        a = batch_all["adv"]
        std = a.std()
        batch_all["adv"] = (a - a.mean()) / (std if std > 0 else 1.0)

        stats: Dict[str, float] = {}
        n = len(transitions)
        for _ in range(tc.epochs_per_update):
            order = stream.permutation(n)
            for lo in range(0, n, tc.minibatch_size):
                sel = order[lo:lo + tc.minibatch_size]
                minibatch = {k: v[sel] for k, v in batch_all.items()}
                sil_entries = buffer.sample(stream, min(tc.sil_batch,
                                                        len(buffer)))
                loss, grads, stats = combined_loss(nets, minibatch,
                                                   sil_entries, tc)
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at update {update}, episode "
                        f"{episode}; stats={stats}")
                nets.decision.adam_step(grads["decision"])
                nets.action.adam_step(grads["action"])
                nets.value.adam_step(grads["value"])
        update += 1

        pnl_arr = np.array(pnls)
        sharpe_to_date = float("nan")
        if len(pnl_arr) >= 2 and pnl_arr.std(ddof=1) > 0:
            sharpe_to_date = float(pnl_arr.mean() / pnl_arr.std(ddof=1))
        for k, res in enumerate(results):
            log_rows.append({
                "episode": episode - len(results) + k,
                "pnl": res.pnl,
                "mean_abs_inventory": res.mean_abs_inventory,
                "n_fills": res.n_fills,
                "total_reward": res.total_reward,
                "sharpe_to_date": sharpe_to_date,
                "policy_loss": stats.get("policy_loss", float("nan")),
                "value_loss": stats.get("value_loss", float("nan")),
                "entropy": stats.get("entropy", float("nan")),
                "sil_loss": stats.get("sil_loss", float("nan")),
                "action_counts": json.dumps(
                    {"HOLD": len(res.transitions) - res.n_interventions,
                     **res.action_counts}, sort_keys=True),
            })
        if out_dir and tc.checkpoint_every and \
                update % tc.checkpoint_every == 0 and update < n_updates:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"checkpoint_up{update}.json")
            nets.save(path)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        checkpoint_path = os.path.join(out_dir, "checkpoint.json")
        nets.save(checkpoint_path)
        if log_rows:
            write_csv(os.path.join(out_dir, "training_log.csv"),
                      list(log_rows[0]), log_rows)
    return TrainResult(nets=nets, log_rows=log_rows,
                       checkpoint_path=checkpoint_path)
