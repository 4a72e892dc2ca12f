"""Agent impulse alphabet: admissibility and the state-intervention map.

Admissibility rules:

* ``LO_T`` / ``LO_D``: the agent must not already rest on that side
  (one resting order per side).
* ``LO_IS``: additionally the spread must exceed one tick.
* ``CO_T``: the agent must rest on that side (it cancels its own order,
  wherever that order sits in the visible window).
* ``MO``: the agent must not be at the front of that side's queue (it
  would trade with itself).

``apply_impulse`` returns the instantaneous cash flow K: zero for limit
and cancel impulses, the signed trade cash leg for market orders (a buy
through the ask decreases cash and increases inventory; a sell through
the bid mirrors). K is reported for diagnostics; rewards are computed
from state deltas so it is never double counted.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from . import _kernels as _k
from .book import (AgentBookState, BookInitConfig, BookState, pack_state,
                   unpack_state)
from .events import (KIND_CO_T, KIND_IS, KIND_MO, IMPULSE_KIND,
                     IMPULSE_SIDE, Impulse, N_IMPULSES, RESTRICTED_IMPULSES)
from .rng import RandomStream

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


def apply_impulse(book: BookState, agent: AgentBookState, psi: Impulse,
                  rng: RandomStream,
                  ) -> Tuple[BookState, AgentBookState, float]:
    """State-intervention map; returns (book', agent', K). A promoted
    queue is redrawn with the default ``BookInitConfig.redraw_geom_p``."""
    arr, cash = pack_state(book, agent)
    if not admissible_arr(arr, int(psi)):
        raise InadmissibleImpulseError(
            f"impulse {Impulse(psi).name} inadmissible in current state")
    k_cash = _k.apply_impulse(arr, cash, int(psi), book.tick,
                              BookInitConfig.redraw_geom_p, rng.state)
    book2, agent2 = unpack_state(arr, cash, book.tick)
    return book2, agent2, k_cash
