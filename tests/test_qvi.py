"""Generator / branch-enumeration / Dynkin tests.

Oracles: hand-derived closed forms for specific candidates, explicit
transition enumeration written independently of the package's branch
machinery, and an RK45 integration cross-checking the matrix-exponential
moment reference.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hawkeslob.book import AgentBookState, BookInitConfig, BookState
from hawkeslob.events import EventType
from hawkeslob.params import KernelParams, default_kernel_params
from hawkeslob.qvi import (dynkin_check, dynkin_reference, exogenous_branches,
                           generator, row_gamma, sample_intensities,
                           sample_reduced_state)
from hawkeslob.rng import RandomStream

H_TOL = 10 * 1e-4  # ten finite-difference steps


def one_type(mu=1.0, alpha=0.5, gamma=1.0):
    return KernelParams(kind="exponential", mu=[mu], alpha=[[alpha]],
                        gamma=[[gamma]])


def make_book(pa=20002, pb=20000, qa=2, qb=2, qad=3, qbd=2):
    return BookState(p_ask_ticks=pa, p_bid_ticks=pb, q_ask=qa, q_bid=qb,
                     q_ask_d=qad, q_bid_d=qbd)


def sampled_states(n, seed=1):
    rng = RandomStream(seed)
    config = BookInitConfig()
    params = default_kernel_params()
    out = []
    for _ in range(n):
        book, agent = sample_reduced_state(config, rng)
        lam = sample_intensities(params, rng)
        out.append((book, agent, lam))
    return out


class TestGenerator:
    def test_kills_constants(self):
        params = default_kernel_params()
        for book, agent, lam in sampled_states(25):
            val = generator(lambda t, l, s: 7.5, 1.0, lam, book, agent,
                            params)
            assert abs(val) < H_TOL

    def test_one_type_identity_candidate(self):
        # phi(t, lam) = lam: L phi = gamma(mu - lam) + lam * alpha
        params = one_type()
        phi = lambda t, l, s: float(l[0])
        val = generator(phi, 0.3, np.array([2.0]), None, None, params)
        assert val == pytest.approx(0.0, abs=1e-6)
        val = generator(phi, 0.3, np.array([3.0]), None, None, params)
        assert val == pytest.approx(-0.5, abs=1e-6)

    def test_inventory_value_candidate_vs_hand_enumeration(self):
        """phi = Y * p_mid on a state where only promotions and in-spread
        arrivals move the value; the oracle enumerates all 12 transitions
        long-hand."""
        params = default_kernel_params()
        book = make_book(pa=20002, pb=20000, qa=1, qb=2, qad=3, qbd=2)
        agent = AgentBookState(cash=2000.0, inventory=2)
        lam = sample_intensities(params, RandomStream(3))
        phi = lambda t, l, s: s[1] * (s[2] + s[3]) / 2.0
        # hand enumeration (z/2 = 0.005, Y = 2 -> each promotion +-0.01):
        # CO_ASK_T and MO_ASK promote (q_a = 1): +0.01 each
        # LO_ASK_IS: p_ask down one tick: -0.01; LO_BID_IS: +0.01
        expected = 0.01 * (lam[int(EventType.CO_ASK_T)]
                           + lam[int(EventType.MO_ASK)]
                           - lam[int(EventType.LO_ASK_IS)]
                           + lam[int(EventType.LO_BID_IS)])
        val = generator(phi, 0.0, lam, book, agent, params)
        assert val == pytest.approx(expected, abs=1e-6)

    def test_agent_fill_branch_in_expectation(self):
        """Agent at the front of a unit ask queue: MO_ASK fills and
        promotes; CO_ASK_T is a no-op (the order is the agent's)."""
        params = default_kernel_params()
        book = make_book(pa=20002, pb=20000, qa=1, qb=2, qad=3, qbd=2)
        agent = AgentBookState(cash=2000.0, inventory=2, n_ask=0)
        lam = sample_intensities(params, RandomStream(4))
        phi = lambda t, l, s: s[1] * (s[2] + s[3]) / 2.0
        base = 2 * 200.01
        # MO_ASK: Y 2->1, promotion p_mid +0.005 -> 1 * 200.015 - base
        d_mo = 1 * 200.015 - base
        expected = (lam[int(EventType.MO_ASK)] * d_mo
                    - 0.01 * lam[int(EventType.LO_ASK_IS)]
                    + 0.01 * lam[int(EventType.LO_BID_IS)])
        val = generator(phi, 0.0, lam, book, agent, params)
        assert val == pytest.approx(expected, abs=1e-6)

    def test_linearity(self):
        params = default_kernel_params()
        phi = lambda t, l, s: s[0] + 0.2 * s[1] ** 2 + 0.1 * float(l[3])
        psi = lambda t, l, s: math.sin(0.01 * s[2]) + t * float(l[0])
        combo = lambda t, l, s: 2.0 * phi(t, l, s) - 3.0 * psi(t, l, s)
        for book, agent, lam in sampled_states(10, seed=5):
            lhs = generator(combo, 1.0, lam, book, agent, params)
            rhs = (2.0 * generator(phi, 1.0, lam, book, agent, params)
                   - 3.0 * generator(psi, 1.0, lam, book, agent, params))
            assert lhs == pytest.approx(rhs, abs=1e-5, rel=1e-6)

    def test_rejects_powerlaw(self):
        params = default_kernel_params("powerlaw")
        with pytest.raises(ValueError, match="exponential"):
            generator(lambda t, l, s: 0.0, 0.0, params.mu, None, None,
                      params)

    def test_rejects_pairwise_decay(self):
        params = KernelParams(kind="exponential", mu=[1.0, 1.0],
                              alpha=np.zeros((2, 2)),
                              gamma=[[1.0, 2.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="row-constant"):
            row_gamma(params)

    def test_branch_weights_sum_to_one(self):
        for book, agent, _ in sampled_states(30, seed=6):
            for e in EventType:
                weights = [w for w, _, _ in exogenous_branches(book, agent,
                                                               e)]
                assert sum(weights) == pytest.approx(1.0, abs=1e-12)


class TestDynkin:
    def test_reference_matches_rk45(self):
        params = KernelParams(
            kind="exponential", mu=[1.0, 0.5],
            alpha=[[0.5, 0.2], [0.1, 0.4]],
            gamma=[[2.0, 2.0], [1.5, 1.5]])
        gamma_i = row_gamma(params)

        def ode(t, x):
            m = x[:2]
            dm = gamma_i * (params.mu - m) + params.alpha @ m
            return np.concatenate([dm, m])

        sol = solve_ivp(ode, (0.0, 2.0),
                        np.concatenate([params.mu, np.zeros(2)]),
                        rtol=1e-10, atol=1e-12)
        m_ref, c_ref = dynkin_reference(params, 2.0)
        np.testing.assert_allclose(m_ref, sol.y[:2, -1], rtol=1e-8)
        np.testing.assert_allclose(c_ref, sol.y[2:, -1], rtol=1e-8)

    def test_one_type_intensity_closed_form(self):
        m_ref, c_ref = dynkin_reference(one_type(), 2.0)
        assert m_ref[0] == pytest.approx(2.0 - math.exp(-1.0), abs=1e-9)
        assert c_ref[0] == pytest.approx(2.0 + 2.0 * math.exp(-1.0),
                                         abs=1e-9)

    def test_mc_intensity(self):
        res = dynkin_check(one_type(), "intensity", 0, t_end=2.0,
                           n_paths=4000, seed=15)
        assert res.reference == pytest.approx(1.6321205588285577, abs=1e-9)
        assert abs(res.z) < 2.0

    def test_mc_count(self):
        res = dynkin_check(one_type(), "count", 0, t_end=2.0,
                           n_paths=4000, seed=21)
        assert res.reference == pytest.approx(2.7357588823428847, abs=1e-9)
        assert abs(res.z) < 2.0

    def test_poisson_reference_exact(self):
        params = KernelParams(kind="exponential", mu=[1.3], alpha=[[0.0]],
                              gamma=[[1.0]])
        m_ref, c_ref = dynkin_reference(params, 5.0)
        assert m_ref[0] == pytest.approx(1.3, abs=1e-10)
        assert c_ref[0] == pytest.approx(6.5, abs=1e-9)
        # Poisson intensity is deterministic: every path reports mu
        res = dynkin_check(params, "intensity", 0, t_end=5.0,
                           n_paths=500, seed=13)
        assert res.estimate == pytest.approx(1.3, abs=1e-12)
        assert abs(res.estimate - res.reference) < 1e-12

    def test_two_type_mc(self):
        params = KernelParams(
            kind="exponential", mu=[0.8, 0.4],
            alpha=[[0.3, 0.2], [0.0, 0.5]],
            gamma=[[1.0, 1.0], [2.0, 2.0]])
        res = dynkin_check(params, "count", 1, t_end=2.0, n_paths=3000,
                           seed=14)
        assert abs(res.z) < 2.5
