"""Impulse admissibility and state-intervention operator tests; the
operator runs on the kernels' list state as the environment applies it."""

import numpy as np
import pytest

from book_steps import REDRAW_P, check_invariants, impulse
from hawkeslob import _kernels as _k
from hawkeslob.book import AgentBookState, BookState, unpack_state
from hawkeslob.events import Impulse, RESTRICTED_IMPULSES
from hawkeslob.intervention import admissible, admissible_mask
from hawkeslob.rng import RandomStream


def make_book(pa=20002, pb=20000, qa=2, qb=2, qad=3, qbd=3):
    return BookState(p_ask_ticks=pa, p_bid_ticks=pb, q_ask=qa, q_bid=qb,
                     q_ask_d=qad, q_bid_d=qbd)


def flat_agent(**kwargs):
    return AgentBookState(cash=2000.0, **kwargs)


class TestAdmissibility:
    def test_cancel_needs_resting_order(self):
        assert not admissible(make_book(), flat_agent(), Impulse.CO_T_ASK)
        assert admissible(make_book(), flat_agent(n_ask=1), Impulse.CO_T_ASK)

    def test_mo_disabled_at_front_of_queue(self):
        assert not admissible(make_book(), flat_agent(n_ask=0),
                              Impulse.MO_ASK)
        assert admissible(make_book(), flat_agent(n_ask=1), Impulse.MO_ASK)
        assert admissible(make_book(), flat_agent(), Impulse.MO_ASK)

    def test_is_needs_room_inside_spread(self):
        one_tick = make_book(pa=20001, pb=20000)
        assert not admissible(one_tick, flat_agent(), Impulse.LO_IS_BID)
        assert admissible(make_book(), flat_agent(), Impulse.LO_IS_BID)

    def test_lo_needs_side_free(self):
        agent = flat_agent(n_bid=2)
        assert not admissible(make_book(), agent, Impulse.LO_T_BID)
        assert not admissible(make_book(), agent, Impulse.LO_D_BID)
        assert admissible(make_book(), agent, Impulse.LO_T_ASK)

    def test_restricted_mask(self):
        mask = admissible_mask(make_book(), flat_agent(), restricted=True)
        allowed = {int(p) for p in RESTRICTED_IMPULSES}
        assert not any(mask[i] for i in range(len(mask)) if i not in allowed)
        assert mask[int(Impulse.LO_T_ASK)] and mask[int(Impulse.LO_T_BID)]

    def test_restricted_set_always_two_admissible(self):
        rng = RandomStream(40)
        for _ in range(200):
            book = make_book(qa=1 + rng.integer(3), qb=1 + rng.integer(3))
            n_ask = rng.integer(book.q_ask) if rng.uniform() < 0.5 else None
            n_bid = rng.integer(book.q_bid) if rng.uniform() < 0.5 else None
            agent = flat_agent(n_ask=n_ask, n_bid=n_bid)
            mask = admissible_mask(book, agent, restricted=True)
            assert mask.sum() == 2


class TestApplyImpulse:
    def test_lo_t_joins_back_of_top_queue(self):
        book = make_book(qa=5)
        book2, agent2, k = impulse(book, flat_agent(),
                                   Impulse.LO_T_ASK, RandomStream(1))
        assert agent2.n_ask == 5
        assert book2.q_ask == 6
        assert k == 0.0

    def test_lo_d_joins_behind_both_queues(self):
        book = make_book(qb=2, qbd=3)
        book2, agent2, k = impulse(book, flat_agent(),
                                   Impulse.LO_D_BID, RandomStream(1))
        assert agent2.n_bid == 5
        assert book2.q_bid_d == 4
        assert k == 0.0

    def test_lo_is_new_best_level(self):
        book = make_book(pa=20003, pb=20000, qa=4)
        book2, agent2, k = impulse(book, flat_agent(),
                                   Impulse.LO_IS_ASK, RandomStream(1))
        assert agent2.n_ask == 0
        assert book2.q_ask == 1
        assert book2.q_ask_d == 4
        assert book2.p_ask_ticks * book2.tick == pytest.approx(200.02)
        assert k == 0.0

    def test_co_t_promotion_example(self):
        book = make_book(pa=20002, qa=1, qad=4)
        agent = flat_agent(n_ask=0)
        book2, agent2, k = impulse(book, agent, Impulse.CO_T_ASK,
                                   RandomStream(1))
        assert book2.p_ask_ticks * book2.tick == pytest.approx(200.03)
        assert book2.p_mid == pytest.approx(book.p_mid + 0.005)
        assert book2.q_ask == 4
        assert agent2.n_ask is None
        assert k == 0.0

    def test_co_t_deep_order(self):
        book = make_book(qb=2, qbd=3)
        agent = flat_agent(n_bid=4)  # resting in the second level
        book2, agent2, _ = impulse(book, agent, Impulse.CO_T_BID,
                                   RandomStream(1))
        assert book2.q_bid_d == 2
        assert book2.q_bid == 2
        assert agent2.n_bid is None

    def test_mo_bid_cash_flow(self):
        book = make_book(pb=20000)
        book2, agent2, k = impulse(book, flat_agent(), Impulse.MO_BID,
                                   RandomStream(1))
        assert agent2.cash == pytest.approx(2000.0 + 200.00)
        assert agent2.inventory == -1
        assert k == pytest.approx(200.00)

    def test_mo_ask_cash_flow(self):
        book = make_book(pa=20002)
        book2, agent2, k = impulse(book, flat_agent(n_ask=None),
                                   Impulse.MO_ASK, RandomStream(1))
        assert agent2.cash == pytest.approx(2000.0 - 200.02)
        assert agent2.inventory == 1
        assert k == pytest.approx(-200.02)

    def test_cancel_twice_impossible(self):
        book = make_book()
        agent = flat_agent(n_ask=1)
        book, agent, _ = impulse(book, agent, Impulse.CO_T_ASK,
                                 RandomStream(1))
        assert agent.n_ask is None
        assert not admissible(book, agent, Impulse.CO_T_ASK)


class TestWealthEffects:
    """Limit/cancel impulses are wealth-neutral at mid except for the
    exact +/- z/2 * Y repricing on promotion; MO impulses pay the
    half-spread."""

    def _wealth_delta(self, book, agent, psi, rng):
        book2, agent2, _ = impulse(book, agent, psi, rng)
        return _wealth(book2, agent2) - _wealth(book, agent), book2

    def test_limit_impulses_wealth_neutral(self):
        rng = RandomStream(50)
        book = make_book(pa=20004, pb=20000)
        agent = flat_agent(inventory=3)
        for psi in (Impulse.LO_T_ASK, Impulse.LO_D_ASK, Impulse.LO_IS_ASK,
                    Impulse.LO_T_BID, Impulse.LO_D_BID):
            if admissible(book, agent, psi):
                dw, _ = self._wealth_delta(book, agent, psi, rng)
                # IS moves one best price by a tick: wealth moves z/2 * Y
                expected = 0.0
                if psi == Impulse.LO_IS_ASK:
                    expected = -0.01 / 2 * agent.inventory
                assert dw == pytest.approx(expected, abs=1e-12)

    def test_cancel_promotion_repricing(self):
        book = make_book(qa=1, qad=4)
        agent = flat_agent(inventory=2, n_ask=0)
        dw, _ = self._wealth_delta(book, agent, Impulse.CO_T_ASK,
                                   RandomStream(51))
        assert dw == pytest.approx(0.01 / 2 * 2, abs=1e-12)

    def test_mo_pays_half_spread(self):
        book = make_book(pa=20002, pb=20000)
        agent = flat_agent()
        dw, _ = self._wealth_delta(book, agent, Impulse.MO_ASK,
                                   RandomStream(52))
        # buys at ask, marked at mid: lose half the spread
        assert dw == pytest.approx(-0.01, abs=1e-12)
        dw, _ = self._wealth_delta(book, agent, Impulse.MO_BID,
                                   RandomStream(53))
        assert dw == pytest.approx(-0.01, abs=1e-12)


class TestInvariantProperty:
    def test_gamma_preserves_invariants_100k_cases(self):
        """>= 1e5 randomized (state, impulse) applications, packed-array
        level for speed, with inline invariant checks."""
        rng = RandomStream(60)
        rstate = rng.state
        applications = 0
        trials = 0
        while applications < 100_000:
            trials += 1
            qa = 1 + rng.integer(4)
            qb = 1 + rng.integer(4)
            qad = 1 + rng.integer(4)
            qbd = 1 + rng.integer(4)
            spread = 1 + rng.integer(3)
            na = rng.integer(qa + qad) if rng.uniform() < 0.6 else -1
            nb = rng.integer(qb + qbd) if rng.uniform() < 0.6 else -1
            base = np.array([20000 + spread, 20000, qa, qb, qad, qbd,
                             na, nb, rng.integer(9) - 4], dtype=np.int64)
            for psi in Impulse:
                book_arr = base.copy()
                cash = np.array([2000.0])
                if not _admissible_arr(book_arr, spread, psi):
                    continue
                _k.apply_impulse(book_arr, cash, int(psi), 0.01, REDRAW_P,
                                 rstate)
                applications += 1
                check_invariants(book_arr)
        assert applications >= 100_000


def _admissible_arr(arr, spread, psi):
    book, agent = unpack_state(arr, np.array([2000.0]), 0.01)
    return admissible(book, agent, psi)


def _wealth(book, agent):
    """Cash plus inventory valued at mid."""
    return agent.cash + agent.inventory * book.p_mid
