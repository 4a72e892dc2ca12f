"""``HawkesClock.simulate`` at its edges: a call longer than any internal
buffer, a window with no event, and times that are not finite numbers.

The non-finite probes run on a clock with zero intensity, or in a child
process under a timeout, so a missing guard fails the test instead of
hanging it: with a positive intensity, thinning up to nan or inf never
ends."""

import math
import subprocess
import sys

import numpy as np
import pytest

from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import KernelParams
from hawkeslob.qvi import dynkin_check
from hawkeslob.rng import RandomStream

# About 200 events/s: 100 s holds more than 16,384 events, the event
# count at which ``simulate`` used to start a new output buffer.
FAST = KernelParams(kind="exponential", mu=[100.0], alpha=[[50.0]],
                    gamma=[[100.0]])
QUIET = KernelParams(kind="exponential", mu=[0.0], alpha=[[0.0]],
                     gamma=[[1.0]])


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def test_one_long_call_equals_many_short_ones():
    whole = HawkesClock(FAST, log_capacity=1 << 15)
    rng_whole = RandomStream(8)
    t_one, e_one = whole.simulate(100.0, rng_whole)
    assert len(t_one) > 16_384

    parts = HawkesClock(FAST, log_capacity=1 << 15)
    rng_parts = RandomStream(8)
    t_parts, e_parts = [], []
    for t_max in np.linspace(0.0, 100.0, 1001)[1:]:
        t_k, e_k = parts.simulate(t_max, rng_parts)
        t_parts.append(t_k)
        e_parts.append(e_k)
    assert _bits(np.concatenate(t_parts)) == _bits(t_one)
    assert np.array_equal(np.concatenate(e_parts), e_one)
    assert rng_parts.state == rng_whole.state
    assert _bits(parts.state[6]) == _bits(whole.state[6])  # exc
    assert parts.now == whole.now == 100.0


@pytest.mark.parametrize("params, t_max", [(QUIET, 5.0), (FAST, 0.0)],
                         ids=["zero-intensity", "zero-length"])
def test_window_without_events_gives_typed_empty_arrays(params, t_max):
    times, types = HawkesClock(params).simulate(t_max, RandomStream(1))
    assert times.shape == (0,) and times.dtype == np.float64
    assert types.shape == (0,) and types.dtype == np.int64


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_simulate_refuses_a_non_finite_end(t):
    clock = HawkesClock(QUIET)
    with pytest.raises(ValueError, match="t_max"):
        clock.simulate(t, RandomStream(1))
    assert clock.now == 0.0


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_apply_event_refuses_a_non_finite_time(t):
    clock = HawkesClock(QUIET)
    with pytest.raises(ValueError, match="event time"):
        clock.apply_event(0, t)
    assert clock.now == 0.0 and clock.n_events == 0


def test_nan_queries_are_refused():
    clock = HawkesClock(QUIET)
    with pytest.raises(ValueError, match="t_max"):
        clock.sample_next_event(math.nan, RandomStream(1))
    with pytest.raises(ValueError, match="t=nan"):
        clock.intensities(math.nan)
    with pytest.raises(ValueError, match="window"):
        clock.history_features(math.nan)
    assert clock.now == 0.0


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
def test_dynkin_check_refuses_a_bad_end(t_end):
    with pytest.raises(ValueError, match="t_end"):
        dynkin_check(QUIET, n_paths=2, t_end=t_end)


def test_dynkin_cli_with_nan_end_exits_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "hawkeslob.cli", "dynkin-check", "--one-type",
         "--paths", "2", "--t-end", "nan"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "t_end" in proc.stderr
