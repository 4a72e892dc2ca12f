"""The clock's kernel argument block and its last-event bookkeeping."""

import numpy as np

from hawkeslob import _kernels as _k
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream


def test_state_block_is_the_clock_arrays():
    clock = HawkesClock(default_kernel_params())
    state = clock.state
    assert len(state) == 12
    assert state[7] is clock.clock_f and state[8] is clock.clock_i
    assert state[9] is clock.counts and state[10] is clock.log_t
    out = np.empty(clock.params.n_types)
    _k.intensities_at(*state, clock.now, out)
    assert np.array_equal(out, clock.intensities())


def test_time_since_last_event_across_log_wrap():
    clock = HawkesClock(default_kernel_params(), log_capacity=8)
    window = 1.0
    assert clock.history_features(window)[-1] == window
    for k in range(20):
        t = 0.05 * (k + 1)
        clock.apply_event(k % 12, t)
        assert clock.history_features(window)[-1] == 0.0
        if k == 7:  # write position has just wrapped to 0
            assert clock.clock_i[_k.CK_LOG_NEXT] == 0
    times, _ = clock.simulate(clock.now + 0.5, RandomStream(3))
    last = times[-1] if len(times) else 1.0
    assert clock.history_features(window)[-1] == clock.now - last
