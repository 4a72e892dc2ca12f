"""Episodic impulse-control market-making environment.

The environment advances the Hawkes-driven book between decision grid
points spaced ``decision_dt`` apart. At each grid instant the agent
submits a binary decision and, when intervening, one impulse; the impulse
is applied at the instant and the market then evolves over the following
interval.

Reward over step i (left endpoint t, right endpoint t + dt):

    -eta * Y_t^2 * dt  +  (X_{t+dt} - X_t)  +  (Y*Pmid)_{t+dt} - (Y*Pmid)_t

where Y_t is the inventory held over the interval (post-impulse, matching
the cadlag convention for intervention times) and the deltas include the
impulse's own cash/inventory effect, so the cash and inventory-value
columns telescope exactly to terminal wealth minus initial cash. The final
step adds the terminal adjustment

    -kappa * Y_T^2  -  fee_bps * 1e-4 * |Y_T| * Pmid_T.

Trajectories are bit-reproducible from (seed, action sequence), and grid
refinement with the same seed replays the identical event stream (pending
thinning proposals survive interval boundaries).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from . import _kernels as _k
from .book import (BookInitConfig, FillReport, pack_state,
                   sample_initial_state)
from .events import Impulse, N_EVENT_TYPES
from .hawkes import HawkesClock
from .intervention import (ALL_IDX, RESTRICTED_IDX, InadmissibleImpulseError,
                           admissible_arr, mask_arr)
from .params import KernelParams, default_kernel_params
from .rng import RandomStream, derive_seed

ACTION_SET_RESTRICTED = "restricted"
ACTION_SET_FULL = "full"


@dataclass(frozen=True)
class EpisodeConfig:
    horizon: float = 300.0
    decision_dt: float = 0.1
    eta: float = 10.0
    kappa: float = 0.1
    fee_bps: float = 1.0
    initial_cash: float = 2000.0
    action_set: str = ACTION_SET_RESTRICTED
    history_window: float = 1.0

    def __post_init__(self):
        for name in ("eta", "kappa", "fee_bps", "initial_cash",
                     "history_window"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.horizon <= 0 or self.decision_dt <= 0:
            raise ValueError("horizon and decision_dt must be > 0")
        n = self.horizon / self.decision_dt
        if not math.isfinite(n) or abs(n - round(n)) > 1e-9:
            raise ValueError(
                "horizon must be an integer multiple of decision_dt")
        if self.n_steps < 1:
            raise ValueError(
                f"horizon {self.horizon} is shorter than decision_dt "
                f"{self.decision_dt}: an episode needs one decision")
        if min(self.eta, self.kappa, self.fee_bps) < 0:
            raise ValueError("eta, kappa and fee_bps must be >= 0")
        if self.initial_cash <= 0:
            raise ValueError(f"initial_cash must be > 0, got "
                             f"{self.initial_cash}: returns are PnL over it")
        if self.action_set not in (ACTION_SET_RESTRICTED, ACTION_SET_FULL):
            raise ValueError(f"unknown action_set {self.action_set!r}")
        if self.history_window <= 0:
            raise ValueError("history_window must be > 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.decision_dt))

    def to_dict(self) -> dict:
        return asdict(self)


# Observation vector layout; block names are the ablation vocabulary.
OBS_BLOCKS = {
    "cash": (0, 1),
    "inventory": (1, 2),
    "spread": (2, 3),
    "relative-position": (3, 5),
    "intensity": (5, 5 + N_EVENT_TYPES),
    "history": (5 + N_EVENT_TYPES, 6 + 2 * N_EVENT_TYPES),
    "t_remaining": (6 + 2 * N_EVENT_TYPES, 7 + 2 * N_EVENT_TYPES),
}
OBS_DIM = 7 + 2 * N_EVENT_TYPES


class Observation:
    """RL-facing state: agent account, book summary, flow statistics.

    An observation carries its vector (layout ``OBS_BLOCKS``) itself, not
    a copy; readers take ``OBS_BLOCKS`` slices of ``vector``.
    ``inventory`` is its one field view, and ``to_vector()`` returns a
    copy.
    """

    __slots__ = ("vector",)

    def __init__(self, vector: np.ndarray):
        self.vector = vector

    @property
    def inventory(self) -> int:
        return int(self.vector.item(1))

    def to_vector(self) -> np.ndarray:
        return self.vector.copy()


@dataclass(frozen=True)
class RewardBreakdown:
    inventory_penalty: float
    cash_delta: float
    inventory_value_delta: float
    terminal_adjustment: float = 0.0

    @property
    def total(self) -> float:
        return (self.inventory_penalty + self.cash_delta
                + self.inventory_value_delta + self.terminal_adjustment)


@dataclass
class StepRecord:
    t: float
    cash: float
    inventory: int
    p_ask: float
    p_bid: float
    action: str
    reward: RewardBreakdown


def _rel_pos(n: int, q: int) -> float:
    if n < 0:
        return -1.0
    r = n / q
    return 1.0 if r > 1.0 else r


class MarketMakingEnv:
    """One episode per reset; value-like state, single-writer."""

    def __init__(self, kernel_params: Optional[KernelParams] = None,
                 config: EpisodeConfig = EpisodeConfig(),
                 init_config: BookInitConfig = BookInitConfig(),
                 record_trace: bool = False):
        self.kernel_params = kernel_params or default_kernel_params()
        if self.kernel_params.n_types != N_EVENT_TYPES:
            raise ValueError("environment requires the 12-type event model")
        self.config = config
        self.init_config = init_config
        self.record_trace = record_trace
        self._fill_px = [math.nan, math.nan]
        self._lam = [0.0] * N_EVENT_TYPES
        self._done = True
        self._step_index = 0

    # -- lifecycle ------------------------------------------------------------

    def reset(self, seed: int = 0) -> Observation:
        self._rng = RandomStream(derive_seed(seed, 0xE9150DE))
        self._clock = HawkesClock(self.kernel_params)
        book, agent = sample_initial_state(
            self.init_config, self._rng,
            initial_cash=self.config.initial_cash)
        self._book_arr, self._cash_arr = pack_state(book, agent)
        self._tick = book.tick
        self._step_index = 0
        self._done = False
        self.fills: list[FillReport] = []
        self.trace: list[StepRecord] = []
        self.total_reward = 0.0
        return self._observation()

    # -- views ----------------------------------------------------------------

    @property
    def t(self) -> float:
        return self._step_index * self.config.decision_dt

    def mark_to_market(self) -> float:
        return self._cash_arr[0] + self._inventory() * self._p_mid()

    def admissible_mask(self) -> np.ndarray:
        return mask_arr(self._book_arr, self._impulses())

    def _impulses(self) -> tuple:
        if self.config.action_set == ACTION_SET_RESTRICTED:
            return RESTRICTED_IDX
        return ALL_IDX

    def _inventory(self) -> int:
        return self._book_arr[_k.YINV]

    def _p_mid(self) -> float:
        return (self._book_arr[_k.PA] + self._book_arr[_k.PB]) \
            * self._tick / 2.0

    def _observation(self) -> Observation:
        b = self._book_arr
        clock = self._clock
        lam = self._lam
        _k.intensities_at(*clock.state, clock.now, lam)
        return Observation(np.array(
            [self._cash_arr[0], b[_k.YINV], (b[_k.PA] - b[_k.PB]) * self._tick,
             _rel_pos(b[_k.NA], b[_k.QA]), _rel_pos(b[_k.NB], b[_k.QB]),
             *lam, *clock.history(self.config.history_window),
             self.config.horizon - self.t], dtype=np.float64))

    # -- dynamics ---------------------------------------------------------------

    def step(self, decision: int,
             impulse: Optional[Impulse] = None,
             ) -> Tuple[Observation, RewardBreakdown, bool]:
        if self._done:
            raise RuntimeError("episode is done; call reset()")
        if decision not in (0, 1):
            raise ValueError("decision must be 0 or 1")
        if (impulse is not None) != (decision == 1):
            raise ValueError("impulse must be given iff decision == 1")

        cfg = self.config
        pre_cash = self._cash_arr[0]
        pre_inv_value = self._inventory() * self._p_mid()

        action_name = ""
        if decision == 1:
            psi = Impulse(impulse)
            if psi not in self._impulses():
                raise InadmissibleImpulseError(
                    f"{psi.name} not in the restricted action set")
            if not admissible_arr(self._book_arr, psi):
                raise InadmissibleImpulseError(
                    f"{psi.name} inadmissible in current state")
            _k.apply_impulse(self._book_arr, self._cash_arr, int(psi),
                             self._tick, self.init_config.redraw_geom_p,
                             self._rng.state)
            action_name = psi.name

        y_held = self._inventory()
        t_next = (self._step_index + 1) * cfg.decision_dt
        self._advance(t_next)
        self._step_index += 1

        inventory_penalty = -cfg.eta * float(y_held) ** 2 * cfg.decision_dt
        cash_delta = self._cash_arr[0] - pre_cash
        inv_value_delta = self._inventory() * self._p_mid() - pre_inv_value
        terminal_adjustment = 0.0
        done = self._step_index >= cfg.n_steps
        if done:
            y_t = self._inventory()
            terminal_adjustment = (
                -cfg.kappa * float(y_t) ** 2
                - cfg.fee_bps * 1e-4 * abs(y_t) * self._p_mid())
            self._done = True

        reward = RewardBreakdown(
            inventory_penalty=inventory_penalty,
            cash_delta=cash_delta,
            inventory_value_delta=inv_value_delta,
            terminal_adjustment=terminal_adjustment)
        self.total_reward += reward.total
        obs = self._observation()
        if self.record_trace:
            b = self._book_arr
            self.trace.append(StepRecord(
                t=self.t, cash=self._cash_arr[0],
                inventory=self._inventory(),
                p_ask=b[_k.PA] * self._tick, p_bid=b[_k.PB] * self._tick,
                action=action_name, reward=reward))
        return obs, reward, done

    def _advance(self, t_end: float) -> None:
        clock = self._clock
        _k.advance_interval(
            *clock.state, self._book_arr, self._cash_arr, self._tick,
            self.init_config.redraw_geom_p, self._rng.state, t_end,
            clock.lam_buf, self._fill_px)
        for side_ask, price in zip((True, False), self._fill_px):
            if not math.isnan(price):
                self.fills.append(FillReport(side_ask=side_ask, price=price))


def episode_pnl(env) -> float:
    """Mark-to-market wealth change net of the terminal inventory fee."""
    fee = 0.0
    if env.config.fee_bps > 0:
        fee = env.config.fee_bps * 1e-4 * abs(env._inventory()) \
            * env._p_mid()
    return env.mark_to_market() - env.config.initial_cash - fee
