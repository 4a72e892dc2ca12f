"""The clock's state layout.

The clock state and the exponential tables are (nested) lists of Python
floats and ints, which plain Python indexes faster than numpy arrays.
Two checks pin that layout:

* no numpy scalar leaks into the lists, through the clock's own methods
  or through an environment episode (one would not change a result, only
  silently cost the speed);
* as a reference check, the kernels give the same bits on the list
  layout as on a state built entirely of arrays, the layout the clock
  used before it moved to lists: event times and types, intensities, the
  clock state and the random stream.
"""

import numpy as np
import pytest

from hawkeslob import _kernels as _k
from hawkeslob.agents import ProbabilisticAgent
from hawkeslob.env import EpisodeConfig, MarketMakingEnv
from hawkeslob.hawkes import HawkesClock
from hawkeslob.metrics import run_episode
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream
from test_grouped_state import _array_args, _mixed_params

KERNELS = {
    "exponential": default_kernel_params,
    "mixed": _mixed_params,
    "powerlaw": lambda: default_kernel_params("powerlaw"),
}


def _flat(values):
    for v in values:
        if isinstance(v, list):
            yield from _flat(v)
        else:
            yield v


def _assert_python_scalars(clock):
    kind, mu, a1, a2, _, _, exc, clock_f, clock_i, counts, _, _ = clock.state
    tables = [mu, a1, a2] if kind == _k.KIND_EXP else [mu]
    for name, value, scalar in [("exc", exc, float), ("clock_f", clock_f, float),
                                ("tables", tables, float),
                                ("clock_i", clock_i, int),
                                ("counts", counts, int)]:
        assert isinstance(value, list), name
        kinds = {type(v) for v in _flat(value)}
        assert kinds <= {scalar}, (name, kinds)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_clock_methods_keep_python_scalars(kernel):
    clock = HawkesClock(KERNELS[kernel]())
    rng = RandomStream(4)
    clock.simulate(np.float64(20.0), rng)
    # numpy scalars as arguments, as a caller may pass them.
    clock.apply_event(np.int64(2), np.float64(clock.now + 0.01))
    clock.sample_next_event(np.float64(clock.now + 1.0), rng)
    clock.intensities(np.float64(clock.now + 0.5))
    clock.history_features(1.0)
    assert clock.n_events > 10
    _assert_python_scalars(clock)


def test_env_episode_keeps_python_scalars():
    env = MarketMakingEnv(config=EpisodeConfig(horizon=10.0))
    stats, _ = run_episode(env, ProbabilisticAgent(), seed=9)
    assert env._clock.n_events > 10 and stats.n_interventions > 0
    _assert_python_scalars(env._clock)


def _array_state(params, cap):
    """A fresh clock state with every part an array: the tables of
    ``clock_args`` as arrays and array clock slots."""
    d, m = params.n_types, params.n_slots
    return (*_array_args(params), np.zeros((d, m)),
            np.array([0.0, 0.0, np.nan, np.nan]), np.zeros(1, np.int64),
            np.zeros(d, np.int64), np.zeros(cap), np.zeros(cap, np.int64))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _words(st):
    return [int(w) for w in st]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_array_layout_gives_the_same_bits(kernel):
    params = KERNELS[kernel]()
    cap = 4096
    d = params.n_types
    lists = HawkesClock(params, log_capacity=cap).state
    arrays = _array_state(params, cap)
    assert isinstance(lists[7], list) and isinstance(arrays[7], np.ndarray)
    rng_l = RandomStream(31).state
    rng_a = np.array(RandomStream(31).state, np.uint64)
    buf_l, buf_a = [0.0] * d, np.empty(d)
    gen = np.random.default_rng(0)
    t_max = 0.0
    n_events = 0
    for step in range(400):
        t_max += 0.25
        while True:
            ev_l = _k.next_event(*lists, rng_l, t_max, buf_l)
            ev_a = _k.next_event(*arrays, rng_a, t_max, buf_a)
            assert _bits(ev_l[0]) == _bits(ev_a[0]) and ev_l[1] == ev_a[1]
            assert _words(rng_l) == _words(rng_a)
            if ev_l[1] < 0:
                break
            n_events += 1
        if step % 3 == 0:
            t = lists[7][_k.CK_NOW] + gen.uniform(0.0, 0.25)
            out_l, out_a = np.empty(d), np.empty(d)
            tot_l = _k.intensities_at(*lists, t, out_l)
            tot_a = _k.intensities_at(*arrays, t, out_a)
            assert type(tot_l) is float
            assert _bits(tot_l) == _bits(tot_a)
            assert _bits(out_l) == _bits(out_a)
        if step % 50 == 49:
            # A manual event, as ``HawkesClock.apply_event`` registers it.
            t, j = t_max + 0.01, int(gen.integers(d))
            t_max = t
            for state in (lists, arrays):
                _k.register_event(*state, t, j)
                clock_f = state[7]
                clock_f[_k.CK_NOW] = t
                clock_f[_k.CK_PEND_T] = np.nan
                clock_f[_k.CK_BOUND] = np.nan
    assert n_events > 200
    assert _bits(lists[6]) == _bits(arrays[6])  # exc
    assert _bits(lists[7]) == _bits(arrays[7])  # clock_f
    for k in (8, 9, 10, 11):  # clock_i, counts, log_t, log_e
        assert np.array_equal(lists[k], arrays[k])
