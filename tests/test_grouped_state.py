"""The decay-grouped exponential state ``exc[d, m]``: its shape for each
kernel, its slot tables, and its recursion against a brute-force sum."""

import numpy as np
import pytest

from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import (KernelParams, default_kernel_params,
                              poisson_flow_params)
from hawkeslob.rng import RandomStream


def _mixed_params() -> KernelParams:
    """Row 0 has one decay, row 1 a different decay per source, and row 2
    one decay among its excited sources plus a zero-alpha source whose
    decay differs (so it must not open a slot)."""
    alpha = [[0.30, 0.20, 0.10],
             [0.20, 0.30, 0.25],
             [0.40, 0.10, 0.00]]
    gamma = [[1.5, 1.5, 1.5],
             [0.8, 2.0, 3.5],
             [1.2, 1.2, 5.0]]
    return KernelParams(kind="exponential", mu=[0.5, 0.3, 0.4],
                        alpha=alpha, gamma=gamma)


def _brute_force(params, times, types, t):
    lam = params.mu.copy()
    for s, j in zip(times, types):
        lam += params.alpha[:, j] * np.exp(-params.gamma[:, j] * (t - s))
    return lam


def _exc_shape(params):
    """Shape of a new clock's excitation state, ``state[6]``."""
    return np.shape(HawkesClock(params).state[6])


def test_slot_count_per_kernel():
    d = 12
    assert _exc_shape(default_kernel_params()) == (d, 1)
    assert _exc_shape(default_kernel_params("poisson")) == (d, 0)
    assert _exc_shape(poisson_flow_params(0.5)) == (d, 0)
    # Row 1 has three distinct decays among its excited sources.
    assert _exc_shape(_mixed_params()) == (3, 3)
    # The power-law kernel keeps an event log, not slots.
    assert _exc_shape(default_kernel_params("powerlaw")) == (d, 0)


def test_slot_tables():
    params = default_kernel_params()
    _, _, a1, a2, _, _ = params.kernel_args
    assert np.array_equal(a1, params.alpha)  # m = 1: a1 is alpha
    assert np.array_equal(a2, params.gamma[:, :1])
    # Built once per parameter set, shared by every clock.
    assert HawkesClock(params).state[2] is HawkesClock(params).state[2]

    mixed = _mixed_params()
    _, _, a1, a2, _, _ = mixed.kernel_args
    m = a2.shape[1]
    for i in range(3):
        for j in range(3):
            jumps = a1[i, j * m:(j + 1) * m]
            if mixed.alpha[i, j] == 0.0:
                assert not jumps.any()
            else:
                k = int(np.flatnonzero(jumps)[0])
                assert jumps[k] == mixed.alpha[i, j]
                assert a2[i, k] == mixed.gamma[i, j]
                assert np.count_nonzero(jumps) == 1


def test_recursion_matches_brute_force_between_events():
    params = _mixed_params()
    queried = HawkesClock(params)
    quiet = HawkesClock(params)
    gen = np.random.default_rng(0)
    times = np.cumsum(gen.exponential(0.4, size=80))
    types = gen.integers(0, 3, size=80)
    for n, (t, j) in enumerate(zip(times, types)):
        # Queries between events must leave the state as it was.
        for q in np.sort(gen.uniform(queried.now, t, size=3)):
            np.testing.assert_allclose(
                queried.intensities(q),
                _brute_force(params, times[:n], types[:n], q),
                rtol=0.0, atol=1e-10)
        queried.apply_event(int(j), float(t))
        quiet.apply_event(int(j), float(t))
        np.testing.assert_allclose(
            queried.intensities(),
            _brute_force(params, times[:n + 1], types[:n + 1], t),
            rtol=0.0, atol=1e-10)
    t_end = times[-1] + 0.7
    assert np.array_equal(queried.intensities(t_end),
                          quiet.intensities(t_end))
    np.testing.assert_allclose(queried.intensities(t_end),
                               _brute_force(params, times, types, t_end),
                               rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("params", [default_kernel_params(), _mixed_params()],
                         ids=["default", "mixed"])
def test_simulate_in_chunks_gives_the_same_events(params):
    whole = HawkesClock(params)
    t_one, e_one = whole.simulate(60.0, RandomStream(21))
    chunked = HawkesClock(params)
    rng = RandomStream(21)
    t_parts, e_parts = [], []
    for t in (7.3, 7.3, 19.0, 33.1, 59.99, 60.0):  # 7.3 twice: an empty chunk
        t_k, e_k = chunked.simulate(t, rng)
        t_parts.append(t_k)
        e_parts.append(e_k)
    assert len(t_one) > 50
    assert np.array_equal(np.concatenate(t_parts), t_one)
    assert np.array_equal(np.concatenate(e_parts), e_one)
    assert chunked.state[6] == whole.state[6]  # exc
