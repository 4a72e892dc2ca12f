"""Sliding history counts and the observation vector built in one go.

``HawkesClock.history`` slides its per-type counts from one query to the
next. ``_kernels.history_counts``, the full walk of the event log, is the
reference: over random mixes of sampled events, manual events (some at
the same time), repeated queries at the same time, window changes and a
small log that the writer laps, the sliding counts and the time since the
last event must equal the walk's bit for bit.

The environment writes its observation vector with one numpy call. Over
random full-action-set episodes it must equal the field-by-field assembly
the observation used to be built by, and a copy from ``to_vector()`` must
not write through to the observation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkeslob import _kernels as _k
from hawkeslob.agents import RandomAgent
from hawkeslob.env import (ACTION_SET_FULL, OBS_BLOCKS, OBS_DIM,
                           EpisodeConfig, MarketMakingEnv, _rel_pos)
from hawkeslob.events import N_EVENT_TYPES
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream

PARAMS = default_kernel_params()
WINDOWS = (0.05, 0.3, 1.0, 4.0)


def _walk(clock, window):
    """History features by a full walk of the log (the reference)."""
    d = clock.params.n_types
    out = np.empty(d + 1)
    _k.history_counts(*clock.state, window, out)
    n = clock.clock_i[_k.CK_N_EVENTS]
    newest = clock.log_t[(n - 1) % len(clock.log_t)]
    out[d] = clock.now - newest if n else window
    return out


def _check(clock, window):
    got = clock.history(window)
    assert all(type(c) is int for c in got[:-1])
    assert np.array(got, dtype=np.float64).tobytes() == \
        _walk(clock, window).tobytes()


OPS = st.one_of(
    st.tuples(st.just("sample"), st.floats(0.0, 1.5)),
    st.tuples(st.just("apply"), st.integers(0, N_EVENT_TYPES - 1),
              st.sampled_from([0.0, 0.01, 0.2, 2.0])),
    st.tuples(st.just("burst"), st.integers(1, 20),
              st.sampled_from([0.0, 0.001, 0.03])),
    st.tuples(st.just("query"), st.sampled_from(WINDOWS)),
    st.tuples(st.just("again")),
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.sampled_from([8, 16, 4096]),
       seed=st.integers(0, 2**31 - 1),
       ops=st.lists(OPS, min_size=1, max_size=40))
def test_sliding_counts_equal_the_full_walk(capacity, seed, ops):
    clock = HawkesClock(PARAMS, log_capacity=capacity)
    rng = RandomStream(seed)
    window = WINDOWS[seed % len(WINDOWS)]
    for op in ops:
        kind = op[0]
        if kind == "sample":
            clock.simulate(clock.now + op[1], rng)
        elif kind == "apply":
            clock.apply_event(op[1], clock.now + op[2])
        elif kind == "burst":
            for k in range(op[1]):
                clock.apply_event((seed + k) % N_EVENT_TYPES,
                                  clock.now + op[2])
        else:
            if kind == "query":
                window = op[1]
            _check(clock, window)
    _check(clock, window)
    assert np.array_equal(clock.history_features(window),
                          _walk(clock, window))


def test_a_lapped_tail_is_recounted():
    clock = HawkesClock(PARAMS, log_capacity=8)
    for k in range(5):
        clock.apply_event(k, 0.1 * (k + 1))
    _check(clock, 10.0)
    # 12 more entries overwrite the oldest counted one and more.
    for k in range(12):
        clock.apply_event(k, clock.now + 0.01)
    _check(clock, 10.0)
    assert sum(clock.history(10.0)[:-1]) == 8
    # Later events age the burst out of the window.
    for k, t in enumerate((10.5, 10.55, 10.6, 10.62, 10.7, 12.0)):
        clock.apply_event(k, t)
        _check(clock, 10.0)


# Event counts around the log's capacity: one short of it, exactly it, one
# past it and several laps past it.
WRAP_CASES = [(cap, n) for cap in (8, 16)
              for n in (cap - 1, cap, cap + 1, 3 * cap + 5)]


@pytest.mark.parametrize("capacity, n_events", WRAP_CASES)
def test_one_event_counter_at_the_wrap(capacity, n_events):
    clock = HawkesClock(PARAMS, log_capacity=capacity)
    _check(clock, 1.0)
    for k in range(n_events):
        clock.apply_event(k % N_EVENT_TYPES, 0.05 * (k + 1))
        if k % 3 == 0:
            _check(clock, 1.0)
    assert clock.n_events == n_events == sum(clock.counts)
    for window in WINDOWS:
        _check(clock, window)
    # A burst that laps the oldest counted entry without a query between.
    for k in range(n_events):
        clock.apply_event(k % N_EVENT_TYPES, clock.now + 0.001)
    _check(clock, WINDOWS[-1])
    assert clock.n_events == 2 * n_events == sum(clock.counts)


def _assembled(env):
    """The observation vector assembled field by field, from the
    intensities and history features as the clock computes them."""
    b = env._book_arr
    vec = np.empty(OBS_DIM)
    vec[0] = env._cash_arr[0]
    vec[1] = b[_k.YINV]
    vec[2] = (b[_k.PA] - b[_k.PB]) * env._tick
    vec[3] = _rel_pos(b[_k.NA], b[_k.QA])
    vec[4] = _rel_pos(b[_k.NB], b[_k.QB])
    vec[5:5 + N_EVENT_TYPES] = env._clock.intensities()
    vec[5 + N_EVENT_TYPES:6 + 2 * N_EVENT_TYPES] = _walk(
        env._clock, env.config.history_window)
    vec[6 + 2 * N_EVENT_TYPES] = env.config.horizon - env.t
    return vec


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       window=st.sampled_from([0.25, 1.0, 3.0]))
def test_observation_vector_equals_the_field_assembly(seed, window):
    env = MarketMakingEnv(config=EpisodeConfig(
        horizon=8.0, action_set=ACTION_SET_FULL, history_window=window))
    agent = RandomAgent(RandomStream(seed))
    obs = env.reset(seed=seed)
    done = False
    n_steps = 0
    while True:
        assert obs.vector.tobytes() == _assembled(env).tobytes()
        assert type(obs.inventory) is int
        assert obs.inventory == env._book_arr[_k.YINV]
        vec = obs.to_vector()
        before = vec.copy()
        vec[:] = -7.0
        assert obs.to_vector().tobytes() == before.tobytes()
        lo, hi = OBS_BLOCKS["intensity"]
        assert np.all(obs.vector[lo:hi] > 0.0)
        if done:
            break
        decision, psi = agent.act(obs, env.admissible_mask())
        obs, _, done = env.step(decision, psi)
        n_steps += 1
    assert n_steps == env.config.n_steps
