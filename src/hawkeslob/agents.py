"""Non-learning benchmark policies and the agent factory.

``CheckpointAgent``, the trained policy's agent, lives in ``ppo`` beside
the rollouts that record through it, and is re-exported here.

The probabilistic agent reads the current intensity vector as a
distribution over the next event type and reacts to anticipated market
orders; a fixed priority table makes it a pure function of (observation,
config, mask):

1. normalize the intensities; find the most probable next event;
2. inventory rule (dominates): when |Y| > y_max, send the corrective
   market order (sell through the bid queue when long, buy through the
   ask queue when short), subject to the mask;
3. most probable event MO_BID: quote the bid (LO_T_BID) when not resting
   there, else cancel a resting ask (CO_T_ASK);
4. most probable event MO_ASK: mirrored;
5. otherwise hold. Directional quoting is skipped when it would push the
   resting-order skew beyond ``skew_threshold``.

Intensity ties resolve to the lowest event index, making the whole
procedure deterministic. The tie is taken after normalizing, so two
intensities that divide to the same probability tie.

Rule 2 acts only under ``action_set: full``: the shipped ``restricted``
set holds no market order, so its mask never admits ``MO_ASK`` or
``MO_BID`` (``MarketMakingEnv._impulses``) and the inventory rule falls
through to rules 3-5. Acceptance criterion 10 runs the agent on the full
set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .env import Observation
from .events import EventType, Impulse
from .ppo import CheckpointAgent
from .rng import RandomStream

Action = Tuple[int, Optional[Impulse]]


@dataclass(frozen=True)
class ProbAgentConfig:
    y_max: int = 5
    skew_threshold: int = 1

    def __post_init__(self):
        if self.y_max < 1:
            raise ValueError("y_max must be >= 1")
        if self.skew_threshold < 1:
            raise ValueError("skew_threshold must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


class HoldAgent:
    name = "hold"

    def act(self, obs: Observation, mask: np.ndarray) -> Action:
        return 0, None


class RandomAgent:
    name = "random"

    def __init__(self, rng: RandomStream):
        self.rng = rng

    def act(self, obs: Observation, mask: np.ndarray) -> Action:
        """Intervene with probability 1/2, uniformly over admissible
        impulses."""
        rng = self.rng
        admissible = np.flatnonzero(mask)
        if admissible.size == 0:
            return 0, None
        if rng.uniform() < 0.5:
            return 1, Impulse(int(admissible[rng.integer(admissible.size)]))
        return 0, None


class ProbabilisticAgent:
    name = "prob"

    def __init__(self, config: ProbAgentConfig = ProbAgentConfig()):
        self.config = config

    def act(self, obs: Observation, mask: np.ndarray) -> Action:
        """The deterministic procedure of the module docstring.

        ``mask`` is admissibility over the full canonical impulse order;
        any blocked preference falls through to the next rule, ultimately
        hold.

        The observation vector is read once, as Python floats. The total
        intensity is summed in numpy's pairwise order for 12 entries (the
        first eight in two-level pairs, then the last four in turn), so
        the total, each probability and the first-index argmax have the
        bits of ``np.sum``, ``lam / total`` and ``np.argmax``.
        """
        config = self.config
        (_, inventory, _, rel_pos_ask, rel_pos_bid, l0, l1, l2, l3, l4, l5,
         l6, l7, l8, l9, l10, l11, *_) = obs.vector.tolist()
        total = ((((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)))
                 + l8 + l9 + l10 + l11)
        top_event = 0
        if total > 0:
            probs = [l0 / total, l1 / total, l2 / total, l3 / total,
                     l4 / total, l5 / total, l6 / total, l7 / total,
                     l8 / total, l9 / total, l10 / total, l11 / total]
            top_event = probs.index(max(probs))

        if abs(inventory) > config.y_max:
            corrective = Impulse.MO_BID if inventory > 0 else Impulse.MO_ASK
            if mask[int(corrective)]:
                return 1, corrective

        resting_ask = rel_pos_ask >= 0.0
        resting_bid = rel_pos_bid >= 0.0

        if top_event == EventType.MO_BID:
            skew_to_bid = int(not resting_ask) + int(resting_bid)
            if skew_to_bid < config.skew_threshold + 1:
                if not resting_bid and mask[int(Impulse.LO_T_BID)]:
                    return 1, Impulse.LO_T_BID
                if resting_ask and mask[int(Impulse.CO_T_ASK)]:
                    return 1, Impulse.CO_T_ASK
        elif top_event == EventType.MO_ASK:
            skew_to_ask = int(not resting_bid) + int(resting_ask)
            if skew_to_ask < config.skew_threshold + 1:
                if not resting_ask and mask[int(Impulse.LO_T_ASK)]:
                    return 1, Impulse.LO_T_ASK
                if resting_bid and mask[int(Impulse.CO_T_BID)]:
                    return 1, Impulse.CO_T_BID
        return 0, None


def make_agent(spec: str, rng: RandomStream,
               prob_config: ProbAgentConfig = ProbAgentConfig()):
    """Agent factory for CLI specs: prob | random | hold | checkpoint:<path>."""
    if spec == "hold":
        return HoldAgent()
    if spec == "random":
        return RandomAgent(rng)
    if spec == "prob":
        return ProbabilisticAgent(prob_config)
    if spec.startswith("checkpoint:"):
        return CheckpointAgent.load(spec.split(":", 1)[1], rng)
    raise ValueError(f"unknown agent spec {spec!r}")
