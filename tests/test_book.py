"""LOB state transition tests against the per-event difference equations,
run on the kernels' list state as the environment applies them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from book_steps import REDRAW_P, check_invariants, event
from hawkeslob import _kernels as _k
from hawkeslob.book import (AgentBookState, BookInitConfig, BookState,
                            pack_state, sample_book, sample_initial_state)
from hawkeslob.env import EpisodeConfig, MarketMakingEnv
from hawkeslob.events import EventType, Impulse
from hawkeslob.rng import RandomStream


def make_book(pa=20002, pb=20000, qa=2, qb=2, qad=3, qbd=3):
    return BookState(p_ask_ticks=pa, p_bid_ticks=pb, q_ask=qa, q_bid=qb,
                     q_ask_d=qad, q_bid_d=qbd)


def flat_agent(**kwargs):
    return AgentBookState(cash=2000.0, **kwargs)


def env_at(book, agent):
    """An environment whose list state is ``book`` and ``agent``."""
    env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
    env.reset(seed=0)
    env._book_arr, env._cash_arr = pack_state(book, agent)
    return env


def env_event(env, e, rng):
    """Exogenous event ``e`` on the environment's list state."""
    _k.apply_exogenous(env._book_arr, env._cash_arr, int(e), env._tick,
                       REDRAW_P, rng.state)


class TestEventExamples:
    def test_mo_ask_promotion(self):
        book = make_book(pa=20002, pb=20000, qa=1, qad=3)
        agent = flat_agent()
        book2, agent2, fill = event(book, agent, EventType.MO_ASK,
                                    RandomStream(1))
        assert book2.p_ask_ticks * book2.tick == pytest.approx(200.03)
        assert book2.q_ask == 3
        assert book2.q_ask_d >= 1
        assert book2.p_mid == pytest.approx(200.015)
        assert fill == 0
        assert (agent2.cash, agent2.inventory) == (2000.0, 0)

    def test_lo_bid_t_increments_queue_only(self):
        book = make_book()
        agent = flat_agent(n_ask=1)
        book2, agent2, fill = event(book, agent, EventType.LO_BID_T,
                                    RandomStream(1))
        assert book2.q_bid == book.q_bid + 1
        assert (book2.p_ask_ticks, book2.p_bid_ticks) == (20002, 20000)
        assert book2.q_ask == book.q_ask
        assert agent2 == agent
        assert fill == 0

    def test_agent_fill_on_mo_ask(self):
        book = make_book(pa=20002, qa=2)
        agent = flat_agent(n_ask=0)
        book2, agent2, fill = event(book, agent, EventType.MO_ASK,
                                    RandomStream(1))
        assert fill == 1
        assert agent2.inventory == -1
        assert agent2.cash == pytest.approx(2000.0 + 200.02)
        assert agent2.n_ask is None
        assert book2.q_ask == 1

    def test_lo_ask_is_creates_new_level(self):
        book = make_book(pa=20003, pb=20000, qa=4, qad=2)
        agent = flat_agent()
        book2, _, _ = event(book, agent, EventType.LO_ASK_IS,
                            RandomStream(1))
        assert book2.p_ask_ticks * book2.tick == pytest.approx(200.02)
        assert book2.q_ask == 1
        assert book2.q_ask_d == 4
        assert book2.p_mid == pytest.approx(book.p_mid - 0.005)

    def test_is_noop_at_one_tick_spread(self):
        book = make_book(pa=20001, pb=20000)
        agent = flat_agent()
        for e in (EventType.LO_ASK_IS, EventType.LO_BID_IS):
            book2, agent2, _ = event(book, agent, e, RandomStream(1))
            assert book2 == book
            assert agent2 == agent

    def test_is_bumps_resting_priority(self):
        book = make_book(pa=20003, pb=20000, qa=4)
        agent = flat_agent(n_ask=2)
        _, agent2, _ = event(book, agent, EventType.LO_ASK_IS,
                             RandomStream(1))
        assert agent2.n_ask == 3

    def test_is_clamps_deep_priority_to_window(self):
        book = make_book(pa=20003, pb=20000, qa=2, qad=3)
        agent = flat_agent(n_ask=5)  # deep in the second level
        book2, agent2, _ = event(book, agent, EventType.LO_ASK_IS,
                                 RandomStream(1))
        assert agent2.n_ask == book2.q_ask + book2.q_ask_d
        check_invariants(pack_state(book2, agent2)[0])

    def test_co_t_noop_when_sole_top_order_is_agents(self):
        book = make_book(qa=1)
        agent = flat_agent(n_ask=0)
        book2, agent2, _ = event(book, agent, EventType.CO_ASK_T,
                                 RandomStream(1))
        assert book2 == book
        assert agent2 == agent

    def test_co_d_noop_at_unit_second_level(self):
        book = make_book(qad=1)
        agent = flat_agent()
        book2, agent2, _ = event(book, agent, EventType.CO_ASK_D,
                                 RandomStream(1))
        assert book2 == book

    def test_co_t_deep_agent_deterministic_decrement(self):
        book = make_book(qa=3, qad=4)
        agent = flat_agent(n_bid=None, n_ask=5)  # deep: n >= q
        _, agent2, _ = event(book, agent, EventType.CO_ASK_T,
                             RandomStream(1))
        assert agent2.n_ask == 4

    def test_co_t_bernoulli_rate(self):
        # agent top-resting with n=1, q=2: decrement probability 1/2
        rng = RandomStream(77)
        hits = 0
        trials = 4000
        for _ in range(trials):
            book = make_book(qa=2)
            agent = flat_agent(n_ask=1)
            _, agent2, _ = event(book, agent, EventType.CO_ASK_T, rng)
            hits += agent2.n_ask == 0
        assert hits / trials == pytest.approx(0.5, abs=0.03)

    def test_mo_decrements_resting_priority(self):
        book = make_book(qb=3)
        agent = flat_agent(n_bid=2)
        book2, agent2, fill = event(book, agent, EventType.MO_BID,
                                    RandomStream(1))
        assert fill == 0
        assert agent2.n_bid == 1
        assert book2.q_bid == 2

    def test_conservation_without_agent_involvement(self):
        rng = RandomStream(5)
        book = make_book()
        agent = flat_agent()
        for e in EventType:
            book2, agent2, fill = event(book, agent, e, rng)
            assert fill == 0
            assert agent2.cash == agent.cash
            assert agent2.inventory == agent.inventory


class TestMarkToMarket:
    def test_flat(self):
        assert env_at(make_book(), flat_agent()).mark_to_market() == 2000.0

    def test_unit_inventory(self):
        book = BookState(p_ask_ticks=20001, p_bid_ticks=19999,
                         q_ask=1, q_bid=1, q_ask_d=1, q_bid_d=1)
        agent = AgentBookState(cash=1800.0, inventory=1)
        assert env_at(book, agent).mark_to_market() == pytest.approx(2000.0)

    def test_accounting_identity_over_random_paths(self):
        rng = RandomStream(6)
        for _ in range(20):
            env = env_at(make_book(), flat_agent(n_ask=2, n_bid=0))
            wealth = env.mark_to_market()
            acc = wealth
            for _ in range(300):
                env_event(env, rng.integer(12), rng)
                new_wealth = env.mark_to_market()
                acc += new_wealth - wealth
                wealth = new_wealth
            assert abs(acc - env.mark_to_market()) < 1e-9


class TestInvariantsAndReplay:
    def test_invariants_over_random_sequences(self):
        rng = RandomStream(7)
        for trial in range(50):
            env = env_at(make_book(pa=20004, pb=20000), flat_agent())
            # seed agent orders through the intervention path
            for psi in (Impulse.LO_T_ASK, Impulse.LO_D_BID):
                _k.apply_impulse(env._book_arr, env._cash_arr, int(psi),
                                 env._tick, REDRAW_P, rng.state)
            for _ in range(400):
                env_event(env, rng.integer(12), rng)
                check_invariants(env._book_arr)

    def test_replay_bit_reproducible(self):
        events = [EventType(RandomStream(8).integer(12)) for _ in range(100)]
        states = []
        for _ in range(2):
            rng = RandomStream(9)
            env = env_at(make_book(), flat_agent(n_ask=1))
            path = []
            for e in events:
                env_event(env, e, rng)
                path.append((list(env._book_arr), env._cash_arr[0]))
            states.append(path)
        assert states[0] == states[1]

    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(st.sampled_from(list(EventType)), min_size=1,
                           max_size=120),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           spread=st.integers(min_value=1, max_value=4))
    def test_invariants_hold_for_any_event_sequence(self, events, seed,
                                                    spread):
        rng = RandomStream(seed)
        env = env_at(make_book(pa=20000 + spread, pb=20000), flat_agent())
        for psi in (Impulse.LO_T_ASK, Impulse.LO_D_BID):
            _k.apply_impulse(env._book_arr, env._cash_arr, int(psi),
                             env._tick, REDRAW_P, rng.state)
        w0 = env.mark_to_market()
        accumulated = 0.0
        for e in events:
            prev = env.mark_to_market()
            env_event(env, e, rng)
            check_invariants(env._book_arr)
            accumulated += env.mark_to_market() - prev
        # per-step wealth deltas telescope back to the total change
        assert accumulated == pytest.approx(
            env.mark_to_market() - w0, abs=1e-9)


class TestInitialSampling:
    def test_p_mid_mean(self):
        rng = RandomStream(100)
        config = BookInitConfig()
        mids = [sample_book(config, rng).p_mid for _ in range(1000)]
        se = np.sqrt(config.p_mid_var) / np.sqrt(len(mids))
        assert abs(np.mean(mids) - config.p_mid_mean) < 3 * se

    def test_spread_distribution(self):
        rng = RandomStream(101)
        config = BookInitConfig()
        books = [sample_book(config, rng) for _ in range(2000)]
        spreads = [b.p_ask_ticks - b.p_bid_ticks for b in books]
        assert min(spreads) == 1
        # Geometric(0.8): P(1 tick) = 0.8
        assert np.mean(np.array(spreads) == 1) == pytest.approx(0.8,
                                                                abs=0.04)

    def test_fresh_agent_flat(self):
        book, agent = sample_initial_state(BookInitConfig(),
                                           RandomStream(102))
        assert agent.inventory == 0
        assert agent.n_ask is None and agent.n_bid is None
        assert agent.cash == 2000.0
        check_invariants(pack_state(book, agent)[0])

    def test_inventory_sampling_rounds_normal(self):
        rng = RandomStream(103)
        invs = [sample_initial_state(BookInitConfig(), rng,
                                     sample_inventory=True)[1].inventory
                for _ in range(2000)]
        assert all(isinstance(v, int) for v in invs)
        assert abs(np.mean(invs)) < 3 * 2.0 / np.sqrt(len(invs))
