"""Agent impulse alphabet: admissibility rules on the book state.

Admissibility rules:

* ``LO_T`` / ``LO_D``: the agent must not already rest on that side
  (one resting order per side).
* ``LO_IS``: additionally the spread must exceed one tick.
* ``CO_T``: the agent must rest on that side (it cancels its own order,
  wherever that order sits in the visible window).
* ``MO``: the agent must not be at the front of that side's queue (it
  would trade with itself).

The state-intervention map is ``_kernels.apply_impulse``, which the
environment calls on its list state after checking these rules. It
returns the instantaneous cash flow K: zero for limit and cancel
impulses, the signed trade cash leg for market orders (a buy through the
ask decreases cash and increases inventory; a sell through the bid
mirrors). K is already in the post-state's cash, and rewards are
computed from state deltas, so the environment does not read it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import _kernels as _k
from .book import AgentBookState, BookState, pack_state
from .events import (KIND_CO_T, KIND_IS, KIND_MO, IMPULSE_KIND,
                     IMPULSE_SIDE, Impulse, N_IMPULSES, RESTRICTED_IMPULSES)

ALL_IDX = tuple(range(N_IMPULSES))
RESTRICTED_IDX = tuple(int(psi) for psi in RESTRICTED_IMPULSES)

# Per impulse: its action kind and the book slot of its side's priority.
_RULE = tuple((kind, _k.SIDE[side][2])
              for kind, side in zip(IMPULSE_KIND, IMPULSE_SIDE))


class InadmissibleImpulseError(ValueError):
    pass


def admissible_arr(book: Sequence[int], psi: int) -> bool:
    """The admissibility rules on the kernels' book state (the list of 9
    ints of :mod:`hawkeslob._kernels`); a priority of -1 means the agent
    does not rest on that side."""
    kind, slot = _RULE[psi]
    n = book[slot]
    if kind == KIND_CO_T:
        return n >= 0
    if kind == KIND_MO:
        return n != 0
    if kind == KIND_IS and book[_k.PA] - book[_k.PB] <= 1:
        return False
    return n < 0


def mask_arr(book: Sequence[int], impulses: Iterable[int]) -> np.ndarray:
    """Boolean mask over the canonical impulse order, zero outside
    ``impulses``."""
    mask = np.zeros(N_IMPULSES, dtype=bool)
    for psi in impulses:
        mask[psi] = admissible_arr(book, psi)
    return mask


def admissible(book: BookState, agent: AgentBookState, psi: Impulse) -> bool:
    return admissible_arr(pack_state(book, agent)[0], int(psi))


def admissible_mask(book: BookState, agent: AgentBookState,
                    restricted: bool = False) -> np.ndarray:
    """Boolean mask over the canonical impulse order.

    With ``restricted`` the mask is zeroed outside the top-of-book
    quote/cancel subset used by the learning agents.
    """
    return mask_arr(pack_state(book, agent)[0],
                    RESTRICTED_IDX if restricted else ALL_IDX)
