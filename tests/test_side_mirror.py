"""The ask/bid mirror as a property of the book kernels, on random books.

The mirror sends a book (PA, PB, QA, QB, QAD, QBD, NA, NB, Y) to
(-PB, -PA, QB, QA, QBD, QAD, NB, NA, -Y) and keeps the cash; events map
through ``MIRROR_EVENT`` and impulses swap each ASK/BID pair. Every
transition, draw rule and admissibility rule must commute with it, bit
for bit: mirroring and then applying the mirrored type gives the mirror
of applying the type. Prices may be negative tick counts; criterion 03
checks the transitions themselves on fixed canonical states.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hawkeslob import _kernels as _k
from hawkeslob.events import (EVENT_KIND, EVENT_SIDE, IMPULSE_KIND,
                              IMPULSE_SIDE, MIRROR_EVENT, Impulse,
                              N_EVENT_TYPES)
from hawkeslob.intervention import admissible_arr

REDRAW_P = 0.4
MIRROR_FILL = (0, 2, 1)


def _swap_side(name):
    return name.replace("ASK", "#").replace("BID", "ASK").replace("#", "BID")


MIRROR_IMPULSE = tuple(int(Impulse[_swap_side(psi.name)]) for psi in Impulse)


def mirror(book):
    pa, pb, qa, qb, qad, qbd, na, nb, y = (int(v) for v in book)
    return [-pb, -pa, qb, qa, qbd, qad, nb, na, -y]


@st.composite
def books(draw):
    pb = draw(st.integers(-60, 60))
    pa = pb + draw(st.integers(1, 4))
    qa, qb, qad, qbd = (draw(st.integers(1, 6)) for _ in range(4))
    na = draw(st.integers(-1, qa + qad))
    nb = draw(st.integers(-1, qb + qbd))
    y = draw(st.integers(-20, 20))
    # A zero cash would make the sum's sign of zero depend on the side.
    cash = draw(st.floats(-1e4, 1e4).filter(lambda c: c != 0.0))
    tick = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25, 1.0]))
    return [pa, pb, qa, qb, qad, qbd, na, nb, y], cash, tick


def _layout(book, cash, as_array):
    if as_array:
        return np.array(book, dtype=np.int64), np.array([cash])
    return list(book), [cash]


def _state(book, cash):
    return [int(v) for v in book], float(cash[0]).hex()


def test_mirror_tables_are_involutions():
    for e in range(N_EVENT_TYPES):
        m = MIRROR_EVENT[e]
        assert MIRROR_EVENT[m] == e
        assert EVENT_KIND[m] == EVENT_KIND[e]
        assert EVENT_SIDE[m] == 1 - EVENT_SIDE[e]
    for psi in Impulse:
        m = MIRROR_IMPULSE[psi]
        assert MIRROR_IMPULSE[m] == psi
        assert IMPULSE_KIND[m] == IMPULSE_KIND[psi]
        assert IMPULSE_SIDE[m] == 1 - IMPULSE_SIDE[psi]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "int64"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(state=books())
def test_exogenous_transitions_commute_with_the_mirror(as_array, state):
    book, cash, tick = state
    for e in range(N_EVENT_TYPES):
        m = MIRROR_EVENT[e]
        assert _k.exogenous_draws(book, EVENT_KIND[e], EVENT_SIDE[e]) == \
            _k.exogenous_draws(mirror(book), EVENT_KIND[m], EVENT_SIDE[m])
        for hit in (0, 1):
            for redraw in (1, 3):
                b1, c1 = _layout(book, cash, as_array)
                f1 = _k.apply_exogenous_resolved(
                    b1, c1, EVENT_KIND[e], EVENT_SIDE[e], tick, hit, redraw)
                b2, c2 = _layout(mirror(book), cash, as_array)
                f2 = _k.apply_exogenous_resolved(
                    b2, c2, EVENT_KIND[m], EVENT_SIDE[m], tick, hit, redraw)
                assert _state(b2, c2) == _state(mirror(b1), c1), (e, hit)
                assert f2 == MIRROR_FILL[f1]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "int64"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(state=books())
def test_impulses_commute_with_the_mirror(as_array, state):
    book, cash, tick = state
    for psi in range(len(Impulse)):
        m = MIRROR_IMPULSE[psi]
        ok = admissible_arr(book, psi)
        assert admissible_arr(mirror(book), m) == ok
        if not ok:
            continue
        assert _k.impulse_draws(book, IMPULSE_KIND[psi], IMPULSE_SIDE[psi]) \
            == _k.impulse_draws(mirror(book), IMPULSE_KIND[m], IMPULSE_SIDE[m])
        for redraw in (1, 3):
            b1, c1 = _layout(book, cash, as_array)
            k1 = _k.apply_impulse_resolved(
                b1, c1, IMPULSE_KIND[psi], IMPULSE_SIDE[psi], tick, redraw)
            b2, c2 = _layout(mirror(book), cash, as_array)
            k2 = _k.apply_impulse_resolved(
                b2, c2, IMPULSE_KIND[m], IMPULSE_SIDE[m], tick, redraw)
            assert _state(b2, c2) == _state(mirror(b1), c1), (psi, redraw)
            assert float(k2).hex() == float(k1).hex()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(state=books(), seed=st.integers(0, 2**32 - 1))
def test_sampled_transitions_commute_with_the_mirror(state, seed):
    """The sampling wrappers draw the same uniforms on mirrored books, so
    a mirrored run leaves the stream where the original leaves it."""
    book, cash, tick = state
    rng0 = [0, 0, 0, 0]
    _k.rng_seed(rng0, seed, seed ^ 0x5A5A5A5A)
    for e in range(N_EVENT_TYPES):
        b1, c1, r1 = list(book), [cash], list(rng0)
        f1 = _k.apply_exogenous(b1, c1, e, tick, REDRAW_P, r1)
        b2, c2, r2 = mirror(book), [cash], list(rng0)
        f2 = _k.apply_exogenous(b2, c2, MIRROR_EVENT[e], tick, REDRAW_P, r2)
        assert _state(b2, c2) == _state(mirror(b1), c1)
        assert f2 == MIRROR_FILL[f1] and r2 == r1
    for psi in range(len(Impulse)):
        if not admissible_arr(book, psi):
            continue
        b1, c1, r1 = list(book), [cash], list(rng0)
        k1 = _k.apply_impulse(b1, c1, psi, tick, REDRAW_P, r1)
        b2, c2, r2 = mirror(book), [cash], list(rng0)
        k2 = _k.apply_impulse(b2, c2, MIRROR_IMPULSE[psi], tick, REDRAW_P,
                              r2)
        assert _state(b2, c2) == _state(mirror(b1), c1)
        assert float(k2).hex() == float(k1).hex() and r2 == r1
