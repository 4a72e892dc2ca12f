"""The thinning bound carried in ``clock_f[CK_BOUND]``: after every proposal
it is the total intensity at ``now`` up to rounding, ``apply_event`` resets
it, and a candidate above it raises."""

import math

import numpy as np
import pytest

from hawkeslob import _kernels as _k
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream
from test_grouped_state import _mixed_params

KERNELS = {
    "exponential": default_kernel_params,
    "powerlaw": lambda: default_kernel_params("powerlaw"),
    "mixed": _mixed_params,
}


def _fresh_total(clock):
    """Total intensity at ``now``, summed as the kernels sum it."""
    return _k.intensities_at(*clock.state, clock.now,
                             np.empty(clock.params.n_types))


def _assert_bound_is_intensity(clock):
    bound = clock.clock_f[_k.CK_BOUND]
    fresh = _fresh_total(clock)
    assert abs(bound - fresh) <= 1e-12 * fresh, (bound, fresh)


def _one_proposal(clock, rng):
    """Consume exactly one thinning proposal; True if it was accepted.

    Calling with ``t_max`` at the pending candidate's time consumes that
    candidate and no other: after a rejection the next candidate lies
    beyond it and stays pending.
    """
    if math.isnan(clock.clock_f[_k.CK_PEND_T]):
        assert clock.sample_next_event(clock.now, rng) is None
    t_cand = clock.clock_f[_k.CK_PEND_T]
    n_before = clock.n_events
    event = clock.sample_next_event(t_cand, rng)
    assert clock.now == t_cand
    assert clock.n_events == n_before + (event is not None)
    return event is not None


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_carried_bound_is_the_intensity_at_now(kernel):
    clock = HawkesClock(KERNELS[kernel]())
    rng = RandomStream(17)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        outcomes[_one_proposal(clock, rng)] += 1
        _assert_bound_is_intensity(clock)
    # Both branches ran many times: the bound after a rejection and after
    # an accepted event's jump.
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes


def test_stepping_by_proposal_replays_one_call():
    params = default_kernel_params("powerlaw")
    stepped = HawkesClock(params)
    rng = RandomStream(5)
    for _ in range(400):
        _one_proposal(stepped, rng)
    if math.isnan(stepped.clock_f[_k.CK_PEND_T]):
        # As ``simulate`` does after an event: draw the next candidate.
        assert stepped.sample_next_event(stepped.now, rng) is None
    t_end = stepped.now
    whole = HawkesClock(params)
    whole.simulate(t_end, RandomStream(5))
    assert whole.n_events == stepped.n_events
    assert np.array_equal(whole.log_t, stepped.log_t)
    assert np.array_equal(whole.clock_f, stepped.clock_f, equal_nan=True)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_apply_event_resets_the_bound(kernel):
    clock = HawkesClock(KERNELS[kernel]())
    assert math.isnan(clock.clock_f[_k.CK_BOUND])
    rng = RandomStream(3)
    for _ in range(50):
        _one_proposal(clock, rng)
    assert not math.isnan(clock.clock_f[_k.CK_BOUND])
    clock.apply_event(0, clock.now + 0.01)
    assert math.isnan(clock.clock_f[_k.CK_BOUND])
    assert math.isnan(clock.clock_f[_k.CK_PEND_T])
    # The next proposal evaluates the intensity afresh.
    assert clock.sample_next_event(clock.now, rng) is None
    assert clock.clock_f[_k.CK_BOUND] == _fresh_total(clock)


def test_bound_below_the_intensity_raises():
    clock = HawkesClock(default_kernel_params())
    # Before the first event the intensity is mu, constant in time.
    clock.clock_f[_k.CK_BOUND] = 0.5 * clock.intensities().sum()
    with pytest.raises(ValueError, match="thinning bound"):
        clock.simulate(10.0, RandomStream(1))
