"""The one-pass exponential thinning step and its decay-group tables.

``next_event`` evaluates a candidate of an exponential kernel in a single
pass, and an accepted event reuses that pass's decayed excitation. The
reference here is the step composed of ``intensities_at``,
``register_event`` and the column sum of ``a1`` for the accepted type, as
the thinning step was written before the one-pass route. The two must
agree bit for bit: event times and types, ``exc``, ``clock_f``,
``counts``, the event log and the random stream. Separately,
``intensities_at`` and ``register_event`` (one ``exp`` per decay group)
are checked against one ``exp`` per row and slot.
"""

import math

import numpy as np
import pytest

from hawkeslob import _kernels as _k
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import KernelParams, default_kernel_params
from hawkeslob.rng import RandomStream
from test_grouped_state import _mixed_params


def _row_decay_params() -> KernelParams:
    """The default branching matrix with a decay that varies by row
    (1.5, 2.0 or 3.0) and is constant along it: m = 1, G = 3."""
    base = default_kernel_params()
    d = base.n_types
    gamma = np.repeat(np.array([1.5, 2.0, 3.0] * (d // 3))[:, None], d, 1)
    return KernelParams(kind="exponential", mu=base.mu,
                        alpha=base.alpha / base.gamma * gamma, gamma=gamma)


# name -> (params, m, G)
KERNELS = {
    "default": (default_kernel_params, 1, 1),
    "row-decay": (_row_decay_params, 1, 3),
    "poisson": (lambda: default_kernel_params("poisson"), 0, 0),
    "mixed": (_mixed_params, 3, 5),
}


def _column_sum(a1, m, j):
    """Total intensity an event of type j adds at age 0, summed as the
    thinning step summed it before the decay-group tables."""
    s = 0.0
    for a1_i in a1:
        for c in range(j * m, (j + 1) * m):
            s += a1_i[c]
    return float(s)


def _reference_step(state, rng, t_max, lam_buf):
    """The thinning step as ``intensities_at`` + ``register_event`` + the
    column sum of ``a1``."""
    a1, exc, clock_f = state[2], state[6], state[7]
    d = len(state[1])
    m = len(exc[0])
    while True:
        if math.isnan(clock_f[_k.CK_PEND_T]):
            if math.isnan(clock_f[_k.CK_BOUND]):
                clock_f[_k.CK_BOUND] = _k.intensities_at(
                    *state, clock_f[_k.CK_NOW], lam_buf)
            lam_bar = clock_f[_k.CK_BOUND]
            if lam_bar <= 0.0:
                clock_f[_k.CK_NOW] = t_max
                return t_max, -1
            u = _k.rng_uniform(rng)
            clock_f[_k.CK_PEND_T] = clock_f[_k.CK_NOW] - math.log(u) / lam_bar
        t_cand = clock_f[_k.CK_PEND_T]
        if t_cand > t_max:
            clock_f[_k.CK_NOW] = t_max
            return t_max, -1
        lam_bar = clock_f[_k.CK_BOUND]
        lam_tot = _k.intensities_at(*state, t_cand, lam_buf)
        assert lam_tot - lam_bar <= _k.BOUND_RTOL * lam_bar
        v = _k.rng_uniform(rng) * lam_bar
        clock_f[_k.CK_NOW] = t_cand
        clock_f[_k.CK_PEND_T] = math.nan
        clock_f[_k.CK_BOUND] = lam_tot
        if v <= lam_tot:
            acc = 0.0
            j_ev = d - 1
            for i in range(d):
                acc += lam_buf[i]
                if v <= acc:
                    j_ev = i
                    break
            _k.register_event(*state, t_cand, j_ev)
            clock_f[_k.CK_BOUND] = lam_tot + _column_sum(a1, m, j_ev)
            return t_cand, j_ev


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_same_clock(a, b):
    assert _bits(a.state[6]) == _bits(b.state[6])  # exc
    assert _bits(a.clock_f) == _bits(b.clock_f)
    assert a.clock_i == b.clock_i and a.counts == b.counts
    assert np.array_equal(a.log_t, b.log_t)
    assert np.array_equal(a.log_e, b.log_e)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_has_the_slots_and_groups_it_is_named_for(kernel):
    make, m, n_groups = KERNELS[kernel]
    params = make()
    assert params.n_slots == m
    assert len(params.clock_args[4][0]) == n_groups


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_pass_step_matches_the_composed_step(kernel):
    params = KERNELS[kernel][0]()
    d = params.n_types
    fast = HawkesClock(params, log_capacity=64)
    ref = HawkesClock(params, log_capacity=64)
    rng_f, rng_r = RandomStream(13), RandomStream(13)
    buf_f, buf_r = [0.0] * d, [0.0] * d
    gen = np.random.default_rng(3)
    t_max = 0.0
    n_events = 0
    for step in range(300):
        # Chunks of varied length, some empty, so candidates stay pending
        # across calls.
        t_max += float(gen.choice([0.0, 0.05, 0.3, 1.1]))
        while True:
            ev_f = _k.next_event(*fast.state, rng_f.state, t_max, buf_f)
            ev_r = _reference_step(ref.state, rng_r.state, t_max, buf_r)
            assert _bits(ev_f[0]) == _bits(ev_r[0]) and ev_f[1] == ev_r[1]
            assert rng_f.state == rng_r.state
            if ev_f[1] < 0:
                break
            n_events += 1
        if step % 4 == 1:
            t = fast.now + float(gen.uniform(0.0, 0.5))
            assert _bits(fast.intensities(t)) == _bits(ref.intensities(t))
        if step % 25 == 24:
            t, j = fast.now + 0.01, int(gen.integers(d))
            fast.apply_event(j, t)
            ref.apply_event(j, t)
            t_max = t
        _assert_same_clock(fast, ref)
    assert n_events > 200
    assert fast.n_events > len(fast.log_t)  # the log wrapped


def _per_slot_intensities(state, t):
    """Intensities with one ``exp`` per row and slot."""
    _, mu, _, a2, _, _, exc, clock_f = state[:8]
    dt = t - clock_f[_k.CK_ANCHOR]
    out = []
    for i in range(len(mu)):
        s = mu[i]
        for k in range(len(exc[i])):
            if exc[i][k] != 0.0:
                s += exc[i][k] * math.exp(-a2[i][k] * dt)
        out.append(s)
    return out


def _per_slot_register(state, t, j):
    """``exc`` after an event of type j at t, one ``exp`` per row and slot."""
    _, _, a1, a2, _, _, exc, clock_f = state[:8]
    dt = t - clock_f[_k.CK_ANCHOR]
    m = len(exc[0])
    out = []
    for i in range(len(exc)):
        row = []
        for k in range(m):
            e = exc[i][k]
            if e != 0.0:
                e *= math.exp(-a2[i][k] * dt)
            row.append(e + a1[i][j * m + k])
        out.append(row)
    return out


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_group_exp_gives_the_per_slot_bits(kernel):
    params = KERNELS[kernel][0]()
    d = params.n_types
    clock = HawkesClock(params)
    gen = np.random.default_rng(8)
    t = 0.0
    for _ in range(150):
        t += float(gen.exponential(0.2))
        q = t + float(gen.exponential(0.2))
        lam = clock.intensities(q)
        assert _bits(lam) == _bits(_per_slot_intensities(clock.state, q))
        j = int(gen.integers(d))
        expected = _per_slot_register(clock.state, t, j)
        clock.apply_event(j, t)
        assert _bits(clock.state[6]) == _bits(expected)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_group_tables_are_python_scalars_built_once(kernel):
    params = KERNELS[kernel][0]()
    clock = HawkesClock(params)
    a3 = clock.state[4]
    assert a3 is HawkesClock(params).state[4]
    assert a3 is params.clock_args[4]
    assert params.kernel_args is params.kernel_args
    decays, group, jumps = a3
    clock.simulate(30.0, RandomStream(2))
    assert isinstance(a3, list)
    for row, scalar in ((decays, float), (group, int), (jumps, float)):
        assert isinstance(row, list)
        assert {type(v) for v in row} <= {scalar}
    _, _, a1, a2, _, _ = params.clock_args
    d, m = params.n_types, params.n_slots
    assert len(group) == d * m and len(jumps) == d
    assert len(set(decays)) == len(decays)
    for i in range(d):
        for k in range(m):
            if any(a1[i][j * m + k] != 0.0 for j in range(d)):
                assert decays[group[i * m + k]] == a2[i][k]
    for j in range(d):
        assert _bits(jumps[j]) == _bits(_column_sum(a1, m, j))
    # The array form that ``kernel_args`` returns holds the same values.
    arrays = params.kernel_args[4]
    for row, arr in zip(a3, arrays):
        assert isinstance(arr, np.ndarray)
        assert _bits(arr) == _bits(row)
