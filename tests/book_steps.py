"""Test-side helpers for book transitions. Each one runs the kernels on the
list state that the environment holds (``pack_state``, then
``_k.apply_exogenous`` / ``_k.apply_impulse`` with the queue-redraw
probability given, then ``unpack_state``), ``env_state`` reads an
environment's list state the same way, and ``check_invariants`` checks
that list state."""

from hawkeslob import _kernels as _k
from hawkeslob.book import pack_state, unpack_state

REDRAW_P = 0.4


def event(book, agent, e, rng, redraw_p=REDRAW_P):
    """(book', agent', fill code) after exogenous event ``e``; the code is
    0 for no agent fill, 1 for an ask-side fill and 2 for a bid-side one."""
    arr, cash = pack_state(book, agent)
    fill = _k.apply_exogenous(arr, cash, int(e), book.tick, redraw_p,
                              rng.state)
    return (*unpack_state(arr, cash, book.tick), fill)


def impulse(book, agent, psi, rng, redraw_p=REDRAW_P):
    """(book', agent', K) after the agent impulse ``psi``, which must be
    admissible; K is the impulse's cash flow."""
    arr, cash = pack_state(book, agent)
    k_cash = _k.apply_impulse(arr, cash, int(psi), book.tick, redraw_p,
                              rng.state)
    return (*unpack_state(arr, cash, book.tick), k_cash)


def env_state(env):
    """(book, agent) that the environment's list state holds."""
    return unpack_state(env._book_arr, env._cash_arr, env._tick)


def check_invariants(arr):
    """Assert the invariants of the kernels' list of 9 ints: a positive
    spread, every queue at least one order, and each priority (-1 when
    the agent does not rest on that side) inside its side's window."""
    assert arr[_k.PA] > arr[_k.PB], "spread must be positive"
    assert min(arr[_k.QA], arr[_k.QB], arr[_k.QAD], arr[_k.QBD]) >= 1
    for top, deep, slot, _, _ in _k.SIDE:
        n, window = arr[slot], arr[top] + arr[deep]
        assert -1 <= n <= window, f"priority {n} outside [-1, {window}]"
