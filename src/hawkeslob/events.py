"""Event and impulse alphabets.

The 12 exogenous order-flow event types and the 10 agent impulse types,
each with a fixed canonical index order. The event order below is the
canonical ordering for every intensity vector, excitation matrix, config
array and history-feature block in the package; changing it would break
config files and checkpoints.
"""

from enum import IntEnum

# Action kind codes shared by events and impulses (kernel-level dispatch).
KIND_LO_D = 0
KIND_LO_T = 1
KIND_CO_T = 2
KIND_CO_D = 3
KIND_MO = 4
KIND_IS = 5


class EventType(IntEnum):
    """Exogenous LOB event types, canonical index order.

    Naming: ``LO`` limit order, ``CO`` cancel order, ``MO`` market order;
    ``T`` top-of-book queue, ``D`` second-level queue, ``IS`` in-spread
    (creates a new best level). ``MO_ASK`` consumes the ask queue,
    ``MO_BID`` the bid queue.
    """

    LO_ASK_D = 0
    LO_ASK_T = 1
    CO_ASK_T = 2
    CO_ASK_D = 3
    MO_ASK = 4
    LO_ASK_IS = 5
    LO_BID_IS = 6
    LO_BID_T = 7
    CO_BID_T = 8
    CO_BID_D = 9
    MO_BID = 10
    LO_BID_D = 11


class Impulse(IntEnum):
    """Agent impulse types, canonical index order."""

    LO_T_ASK = 0
    LO_T_BID = 1
    LO_D_ASK = 2
    LO_D_BID = 3
    LO_IS_ASK = 4
    LO_IS_BID = 5
    CO_T_ASK = 6
    CO_T_BID = 7
    MO_ASK = 8
    MO_BID = 9


N_EVENT_TYPES = len(EventType)
N_IMPULSES = len(Impulse)

# Impulses an RL policy may use (top-of-book quoting and cancelling only).
RESTRICTED_IMPULSES = (
    Impulse.LO_T_ASK,
    Impulse.LO_T_BID,
    Impulse.CO_T_ASK,
    Impulse.CO_T_BID,
)

# Per-event side (1 ask / 0 bid) and action kind, kernel dispatch tables.
EVENT_SIDE = (1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
EVENT_KIND = (KIND_LO_D, KIND_LO_T, KIND_CO_T, KIND_CO_D, KIND_MO, KIND_IS,
              KIND_IS, KIND_LO_T, KIND_CO_T, KIND_CO_D, KIND_MO, KIND_LO_D)

IMPULSE_SIDE = (1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
IMPULSE_KIND = (KIND_LO_T, KIND_LO_T, KIND_LO_D, KIND_LO_D, KIND_IS, KIND_IS,
                KIND_CO_T, KIND_CO_T, KIND_MO, KIND_MO)

# Ask type <-> bid type under the ask/bid mirror symmetry.
MIRROR_EVENT = (11, 7, 8, 9, 10, 6, 5, 1, 2, 3, 4, 0)
