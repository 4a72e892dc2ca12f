"""Two-level limit order book state, its kernel layout and initial sampling.

The book tracks best prices (as integer tick counts, so price invariants
are exact), top and second-level queue sizes per side, and the agent's
book-relative state: cash, inventory and per-side queue priority. Queue
priority ``n`` is the number of resting orders ahead of the agent's order
on that side across both visible levels (``None`` when not resting); the
agent order is in the top queue iff ``n < q`` and deep otherwise.

The frozen dataclasses here are the readable form of that state.
``pack_state`` / ``unpack_state`` convert it to and from the kernels'
list of 9 ints and one-float cash list, the form the environment holds.
Every exogenous event and agent impulse changes the list state through
:mod:`hawkeslob._kernels` (``apply_exogenous``, ``apply_impulse``),
which follow the per-event difference equations of the underlying model
with ask/bid mirrored signs, so that the spread stays positive, and
redraw a promoted or replenished queue with the run's
``BookInitConfig.redraw_geom_p``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from . import _kernels as _k
from .rng import RandomStream


@dataclass(frozen=True)
class BookState:
    """Best prices (ticks) and visible queue sizes."""

    p_ask_ticks: int
    p_bid_ticks: int
    q_ask: int
    q_bid: int
    q_ask_d: int
    q_bid_d: int
    tick: float = 0.01

    def __post_init__(self):
        if self.tick <= 0:
            raise ValueError("tick must be > 0")
        if self.p_ask_ticks <= self.p_bid_ticks:
            raise ValueError("ask must be strictly above bid")
        for q in (self.q_ask, self.q_bid, self.q_ask_d, self.q_bid_d):
            if q < 1:
                raise ValueError("queue sizes must be >= 1")

    @property
    def p_mid(self) -> float:
        return (self.p_ask_ticks + self.p_bid_ticks) * self.tick / 2.0


@dataclass(frozen=True)
class AgentBookState:
    """Agent cash, inventory and per-side queue priority."""

    cash: float
    inventory: int = 0
    n_ask: Optional[int] = None
    n_bid: Optional[int] = None


@dataclass(frozen=True)
class FillReport:
    """One agent limit-order fill."""

    side_ask: bool
    price: float


def pack_state(book: BookState, agent: AgentBookState
               ) -> Tuple[List[int], List[float]]:
    """The kernels' book state (9 Python ints) and cash (``[float]``);
    layout in :mod:`hawkeslob._kernels`."""
    arr = [book.p_ask_ticks, book.p_bid_ticks, book.q_ask, book.q_bid,
           book.q_ask_d, book.q_bid_d,
           -1 if agent.n_ask is None else agent.n_ask,
           -1 if agent.n_bid is None else agent.n_bid,
           agent.inventory]
    return arr, [float(agent.cash)]


def unpack_state(arr: Sequence[int], cash: Sequence[float], tick: float
                 ) -> Tuple[BookState, AgentBookState]:
    book = BookState(
        p_ask_ticks=arr[_k.PA], p_bid_ticks=arr[_k.PB], q_ask=arr[_k.QA],
        q_bid=arr[_k.QB], q_ask_d=arr[_k.QAD], q_bid_d=arr[_k.QBD],
        tick=tick)
    agent = AgentBookState(
        cash=cash[0], inventory=arr[_k.YINV],
        n_ask=None if arr[_k.NA] < 0 else arr[_k.NA],
        n_bid=None if arr[_k.NB] < 0 else arr[_k.NB])
    return book, agent


# ---------------------------------------------------------------------------
# Initial-state sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BookInitConfig:
    """Initial-state sampling parameters.

    Mid-price ~ Normal(p_mid_mean, p_mid_var) rounded to the tick grid,
    spread ticks ~ 1 + Geometric(spread_geom_p), each queue size
    ~ 1 + Geometric(redraw_geom_p), the law that also redraws a promoted
    or replenished queue during the episode. Draw order: mid, spread,
    q_ask, q_bid, q_ask_d, q_bid_d.
    """

    p_mid_mean: float = 200.0
    p_mid_var: float = 100.0
    spread_geom_p: float = 0.8
    tick: float = 0.01
    redraw_geom_p: float = 0.4

    def __post_init__(self):
        for name in ("p_mid_mean", "p_mid_var", "tick"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("spread_geom_p", "redraw_geom_p"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if not self.tick > 0.0:
            raise ValueError(f"tick must be > 0, got {self.tick}")
        if not self.p_mid_var >= 0.0:
            raise ValueError(f"p_mid_var must be >= 0, got {self.p_mid_var}")

    def to_dict(self) -> dict:
        return asdict(self)


def sample_book(config: BookInitConfig, rng: RandomStream) -> BookState:
    mid = rng.normal(config.p_mid_mean, config.p_mid_var ** 0.5)
    center = int(round(mid / config.tick))
    spread_ticks = 1 + rng.geometric(config.spread_geom_p)
    ask = center + (spread_ticks + 1) // 2
    bid = ask - spread_ticks
    q_ask, q_bid, q_ask_d, q_bid_d = (
        1 + rng.geometric(config.redraw_geom_p) for _ in range(4))
    return BookState(p_ask_ticks=ask, p_bid_ticks=bid, q_ask=q_ask,
                     q_bid=q_bid, q_ask_d=q_ask_d, q_bid_d=q_bid_d,
                     tick=config.tick)


def sample_initial_state(config: BookInitConfig, rng: RandomStream,
                         initial_cash: float = 2000.0,
                         ) -> Tuple[BookState, AgentBookState]:
    """Fresh episode state: sampled book, flat agent."""
    return sample_book(config, rng), AgentBookState(cash=initial_cash)
