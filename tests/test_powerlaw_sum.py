"""The power-law intensity as one array expression agrees with the
per-event loop it replaced, on the log layouts where the kept entries are
hard to find: a wrapped ring buffer, an entry exactly ``pl_horizon`` old,
an empty log and a log older than the horizon. Its bits are those of a
scalar loop in a fixed order. The wrap check reads the one event counter
and refuses a query exactly when an overwritten event is within the
horizon, at event counts around the log's capacity."""

import math

import numpy as np
import pytest

from hawkeslob import _kernels as _k
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import default_kernel_params
from test_grouped_state import _array_args
from test_sliding_history import WRAP_CASES

PARAMS = default_kernel_params("powerlaw")


def _loop_reference(clock, t):
    """The per-event loop: newest entry first, stop at the first one older
    than the horizon."""
    _, mu, a1, a2, a3, horizon = _array_args(clock.params)
    cap = clock.log_t.shape[0]
    n = clock.clock_i[_k.CK_N_EVENTS]
    out = mu.copy()
    for k in range(min(n, cap)):
        idx = (n - 1 - k) % cap
        age = t - clock.log_t[idx]
        if age > horizon:
            break
        j = clock.log_e[idx]
        for i in range(mu.shape[0]):
            a = a1[i, j]
            if a != 0.0:
                out[i] += a * (1.0 + age / a3[i, j]) ** (-a2[i, j])
    return out


def _clock_with(times, log_capacity=1 << 16, seed=0, types=None):
    clock = HawkesClock(PARAMS, log_capacity=log_capacity)
    if types is None:
        types = np.random.default_rng(seed).integers(0, 12, len(times))
    for t, j in zip(times, types):
        clock.apply_event(int(j), float(t))
    return clock


def _assert_matches_loop(clock, t):
    np.testing.assert_allclose(clock.intensities(t), _loop_reference(clock, t),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_wrapped_log_straddling_the_wrap_point(seed):
    horizon = PARAMS.pl_horizon
    gen = np.random.default_rng(seed)
    old = np.sort(gen.uniform(0.0, 5.0, 30))
    recent = 100.0 + np.sort(gen.uniform(0.0, 3.0, 10))
    wrapped = _clock_with(np.concatenate([old, recent]), log_capacity=16,
                          seed=seed)
    roomy = _clock_with(np.concatenate([old, recent]), seed=seed)
    t = recent[-1] + 0.5
    log_next = wrapped.clock_i[_k.CK_N_EVENTS] % 16
    kept = np.flatnonzero(t - wrapped.log_t <= horizon)
    # The kept entries sit on both sides of the write position.
    assert 0 < log_next < 10
    assert kept.min() == 0 and kept.max() > log_next
    assert len(kept) == 10
    _assert_matches_loop(wrapped, t)
    # Summed oldest first wherever the buffer holds them: the same bits.
    assert np.array_equal(wrapped.intensities(t), roomy.intensities(t))


@pytest.mark.parametrize("capacity, n_events", WRAP_CASES)
def test_wrap_is_refused_exactly_within_the_horizon(capacity, n_events):
    """Events come in pairs at one time, so once the log has wrapped the
    newest overwritten entry shares its time with the oldest kept one,
    and the query raises exactly when an overwritten event lies within
    the horizon."""
    horizon = PARAMS.pl_horizon
    times = np.arange(n_events) // 2 * 1.0
    clock = _clock_with(times, log_capacity=capacity, seed=n_events)
    assert clock.n_events == n_events == sum(clock.counts)
    for t in clock.now + np.arange(0.0, horizon + 2.0, 0.5):
        if n_events > capacity and \
                t - times[n_events - capacity - 1] <= horizon:
            with pytest.raises(ValueError, match="log_capacity"):
                clock.intensities(t)
        else:
            _assert_matches_loop(clock, t)


def test_entry_exactly_horizon_old_is_kept():
    horizon = PARAMS.pl_horizon
    assert horizon == 60.0
    # 60.017 - 0.017 rounds to 60.0, yet 0.017 lies below
    # 60.017 - 60.0 in floating point: a search on t - horizon alone
    # would drop the entry that the exact predicate keeps.
    t_ev, t = 0.017, 60.017
    assert t - t_ev == horizon and t_ev < t - horizon
    clock = _clock_with([t_ev, 30.0], types=[1, 1])
    _assert_matches_loop(clock, t)
    only_newer = _clock_with([30.0], types=[1])
    excited = PARAMS.alpha_pl[:, 1] != 0.0
    assert excited.any()
    assert np.all((clock.intensities(t) > only_newer.intensities(t))
                  == excited)
    # One ulp later the entry is past the horizon.
    t_late = np.nextafter(t, np.inf)
    _assert_matches_loop(clock, t_late)
    assert np.array_equal(clock.intensities(t_late),
                          only_newer.intensities(t_late))


def test_empty_log_is_mu():
    clock = HawkesClock(PARAMS)
    assert np.array_equal(clock.intensities(3.0), PARAMS.mu)
    _assert_matches_loop(clock, 3.0)


@pytest.mark.parametrize("log_capacity", [8, 1 << 16])
def test_log_older_than_horizon_is_mu(log_capacity):
    clock = _clock_with(0.1 * np.arange(20), log_capacity=log_capacity)
    t = 1.9 + PARAMS.pl_horizon + 1.0
    assert np.array_equal(clock.intensities(t), PARAMS.mu)
    _assert_matches_loop(clock, t)


@pytest.mark.parametrize("seed", range(3))
def test_random_logs_match_loop(seed):
    gen = np.random.default_rng(100 + seed)
    times = np.cumsum(gen.exponential(0.3, 600))
    clock = HawkesClock(PARAMS, log_capacity=512)
    types = gen.integers(0, 12, len(times))
    for t_ev, j in zip(times, types):
        clock.apply_event(int(j), float(t_ev))
        if gen.uniform() < 0.1:
            t = clock.now + gen.exponential(5.0)
            _assert_matches_loop(clock, t)


def _oldest_first_libm_loop(clock, t):
    """The array expression as a scalar loop: kept entries oldest first."""
    _, mu, a1, a2, a3, horizon = _array_args(PARAMS)
    cap = clock.log_t.shape[0]
    n = clock.clock_i[_k.CK_N_EVENTS]
    size = min(n, cap)
    excitation = np.zeros(mu.shape[0])
    for k in range(size):
        idx = (n - size + k) % cap
        age = t - clock.log_t[idx]
        if age > horizon:
            continue
        j = clock.log_e[idx]
        for i in range(mu.shape[0]):
            if a1[i, j] != 0.0:
                excitation[i] += float(a1[i, j]) * math.pow(
                    1.0 + float(age) / float(a3[i, j]), -float(a2[i, j]))
    return mu + excitation


def test_bits_are_an_oldest_first_libm_loop():
    """The fixed order of the sum: rows added oldest entry first, each
    power from libm's ``pow`` (``math.pow``), zero alphas skipped."""
    gen = np.random.default_rng(7)
    clock = _clock_with(np.cumsum(gen.exponential(0.3, 400)),
                        log_capacity=256, seed=7)
    assert clock.n_events > 256  # a wrapped log
    for t in clock.now + np.sort(gen.uniform(0.0, 70.0, 40)):
        assert np.array_equal(clock.intensities(t),
                              _oldest_first_libm_loop(clock, t))
    # One entry, so the power is not lost in the rounding of a long sum.
    single = _clock_with([0.0], types=[4])
    for t in np.sort(gen.uniform(0.0, 3.0, 300)):
        assert np.array_equal(single.intensities(t),
                              _oldest_first_libm_loop(single, t))
