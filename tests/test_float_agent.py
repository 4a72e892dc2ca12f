"""The per-step agents against their earlier forms, bit for bit.

``ProbabilisticAgent.act`` reads the observation as Python floats; the
numpy form it replaced is kept here as the reference, and both must
choose the same action for every observation, mask and config. A
``CheckpointAgent`` episode must leave its stream where a training
rollout, which records through the same class, leaves it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkeslob import ppo
from hawkeslob.agents import (CheckpointAgent, ProbabilisticAgent,
                              ProbAgentConfig)
from hawkeslob.env import (OBS_BLOCKS, EpisodeConfig, MarketMakingEnv,
                           Observation)
from hawkeslob.events import EventType, Impulse, N_EVENT_TYPES, N_IMPULSES
from hawkeslob.metrics import run_episode
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream


def numpy_prob_agent_act(obs, config, mask):
    """``ProbabilisticAgent.act`` as it was: numpy sum, division and
    argmax."""
    lo, hi = OBS_BLOCKS["intensity"]
    lam = obs.vector[lo:hi]
    total = lam.sum()
    probs = lam / total if total > 0 else np.full(len(lam), 1.0 / len(lam))
    top_event = EventType(int(np.argmax(probs)))

    if abs(obs.inventory) > config.y_max:
        corrective = Impulse.MO_BID if obs.inventory > 0 else Impulse.MO_ASK
        if mask[int(corrective)]:
            return 1, corrective

    lo, _ = OBS_BLOCKS["relative-position"]
    resting_ask = obs.vector[lo] >= 0.0
    resting_bid = obs.vector[lo + 1] >= 0.0

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


def make_obs(lam, inventory=0, rel_ask=-1.0, rel_bid=-1.0):
    return Observation(np.array(
        [2000.0, inventory, 0.02, rel_ask, rel_bid, *lam,
         *np.zeros(N_EVENT_TYPES + 1), 10.0], dtype=np.float64))


def assert_same(obs, config, mask):
    got = ProbabilisticAgent(config).act(obs, mask)
    want = numpy_prob_agent_act(obs, config, mask)
    assert got == want
    assert type(got[1]) is type(want[1])


def one_ulp_tie(low, high):
    """Intensities with ``high`` one ulp above ``low`` and every other entry
    below both, such that the two tie after division by the total."""
    for a in (1.0, 3.0, 7.0, 0.1, 12.5, 1e-3):
        b = math.nextafter(a, math.inf)
        for c in (a / 2, a / 3, a / 7, a * 0.9, a / 10):
            lam = [c] * N_EVENT_TYPES
            lam[low] = a
            lam[high] = b
            total = np.sum(lam)
            if a / total == b / total:
                return lam
    raise AssertionError("no one-ulp tie found")


finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False, allow_subnormal=True)
masks = st.lists(st.booleans(), min_size=N_IMPULSES, max_size=N_IMPULSES)
rel_pos = st.one_of(st.just(-1.0), st.just(0.0), st.just(1.0),
                    st.floats(min_value=0.0, max_value=1.0))
configs = st.builds(ProbAgentConfig, y_max=st.integers(1, 8),
                    skew_threshold=st.integers(1, 3))


@st.composite
def intensity_vectors(draw):
    kind = draw(st.sampled_from(["random", "ties", "ulp", "zero", "top"]))
    if kind == "random":
        return draw(st.lists(finite, min_size=N_EVENT_TYPES,
                             max_size=N_EVENT_TYPES))
    if kind == "zero":
        return [0.0] * N_EVENT_TYPES
    if kind == "ties":
        values = draw(st.lists(finite, min_size=1, max_size=3))
        return [values[draw(st.integers(0, len(values) - 1))]
                for _ in range(N_EVENT_TYPES)]
    base = draw(st.floats(min_value=1e-3, max_value=1e3))
    lam = [draw(st.floats(min_value=0.0, max_value=base))
           for _ in range(N_EVENT_TYPES)]
    if kind == "ulp":
        i, j = draw(st.lists(st.integers(0, N_EVENT_TYPES - 1), min_size=2,
                             max_size=2, unique=True))
        lam[i] = base
        lam[j] = math.nextafter(base, math.inf)
    else:
        top = draw(st.sampled_from([EventType.MO_BID, EventType.MO_ASK]))
        lam[int(top)] = base * draw(st.sampled_from([1.0, 1.5, 4.0]))
    return lam


@settings(max_examples=400, deadline=None)
@given(lam=intensity_vectors(), inventory=st.integers(-12, 12),
       rel_ask=rel_pos, rel_bid=rel_pos, mask=masks, config=configs)
def test_float_path_matches_numpy(lam, inventory, rel_ask, rel_bid, mask,
                                  config):
    obs = make_obs(lam, inventory, rel_ask, rel_bid)
    assert_same(obs, config, np.array(mask, dtype=bool))


@pytest.mark.parametrize("low, high", [(EventType.MO_ASK, EventType.MO_BID),
                                       (EventType.LO_ASK_D, EventType.MO_BID),
                                       (EventType.LO_ASK_D,
                                        EventType.MO_ASK)])
def test_one_ulp_apart_tie_after_division_takes_the_first_index(low, high):
    lam = one_ulp_tie(int(low), int(high))
    assert np.argmax(lam) == int(high)  # before division, high wins
    for rel_ask, rel_bid in ((-1.0, -1.0), (0.5, 0.5), (-1.0, 0.2)):
        obs = make_obs(lam, 0, rel_ask, rel_bid)
        assert_same(obs, ProbAgentConfig(), np.ones(N_IMPULSES, dtype=bool))
    # The tie goes to the lower index, which is not a market order here
    # unless ``low`` is MO_ASK: then the agent quotes the ask.
    got = ProbabilisticAgent().act(make_obs(lam),
                                   np.ones(N_IMPULSES, dtype=bool))
    assert got == ((1, Impulse.LO_T_ASK) if low == EventType.MO_ASK
                   else (0, None))


def test_all_zero_intensities_pick_event_zero():
    lam = [0.0] * N_EVENT_TYPES
    for inventory in (0, 6, -6):
        assert_same(make_obs(lam, inventory), ProbAgentConfig(),
                    np.ones(N_IMPULSES, dtype=bool))
    assert ProbabilisticAgent().act(
        make_obs(lam), np.ones(N_IMPULSES, dtype=bool)) == (0, None)


def order_sensitive_ties(n=20):
    """MO_ASK one ulp below MO_BID, where numpy's total and a left-to-right
    total disagree on whether the two tie after division."""
    rng = np.random.default_rng(7)
    found = []
    while len(found) < n:
        lam = rng.random(N_EVENT_TYPES).tolist()
        a = max(lam) * (1.0 + rng.random())
        lam[int(EventType.MO_ASK)] = a
        lam[int(EventType.MO_BID)] = b = math.nextafter(a, math.inf)
        pairwise, in_turn = float(np.sum(lam)), sum(lam)
        if (a / pairwise == b / pairwise) != (a / in_turn == b / in_turn):
            found.append(lam)
    return found


def test_ties_follow_numpys_summation_order():
    for lam in order_sensitive_ties():
        for rel_ask, rel_bid in ((-1.0, -1.0), (0.5, 0.5)):
            assert_same(make_obs(lam, 0, rel_ask, rel_bid), ProbAgentConfig(),
                        np.ones(N_IMPULSES, dtype=bool))


def test_total_has_the_bits_of_np_sum():
    rng = np.random.default_rng(19)
    for scale in (1e-300, 1.0, 1e3, 1e300):
        for _ in range(2000):
            lam = rng.random(N_EVENT_TYPES) * scale
            l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11 = lam.tolist()
            total = ((((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)))
                     + l8 + l9 + l10 + l11)
            assert total == lam.sum()


# --- the checkpoint agent's draws --------------------------------------------

EPISODE = EpisodeConfig(horizon=3.0)


def make_nets(seed=7):
    kernel = default_kernel_params("poisson")
    center, scale = ppo.build_normalizer(kernel, EPISODE)
    nets = ppo.PolicyNets(center, scale, hidden_sizes=(8,),
                          rng=RandomStream(seed))
    # Bias the decision head towards intervening, so episodes draw both
    # uniforms on many steps.
    nets.decision.biases[-1][:] = 1.5
    return kernel, nets


@pytest.mark.parametrize("stream_seed", [1, 2, 3])
def test_checkpoint_episode_leaves_the_rollout_stream(stream_seed):
    kernel, nets = make_nets()
    env = MarketMakingEnv(kernel, EPISODE)
    agent = CheckpointAgent(nets, RandomStream(stream_seed))
    stats, rewards = run_episode(env, agent, 11)
    assert agent.transitions is None
    rollout_rng = RandomStream(stream_seed)
    rollout = ppo.rollout_episode(env, nets, rollout_rng, env_seed=11)
    assert agent.rng.state == rollout_rng.state
    assert stats.action_counts == rollout.action_counts
    assert sum(stats.action_counts.values()) > 0
    rec_rewards = [tr.reward for tr in rollout.transitions]
    assert np.array(rewards).tobytes() == np.array(rec_rewards).tobytes()
