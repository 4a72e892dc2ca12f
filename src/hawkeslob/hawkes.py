"""Multivariate Hawkes process simulation and queries.

The clock owns the process state: for exponential kernels a pairwise
excitation matrix anchored at the last event (exact closed-form recursion,
one decay per event), for power-law kernels a truncated event log summed
directly. Sampling uses Ogata thinning with the anchor intensity as the
proposal bound; an unconsumed proposal crossing the horizon is kept as a
pending candidate so chunked simulation replays the identical stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernels as _k
from .events import EventType
from .params import KernelParams
from .rng import RandomStream

DEFAULT_LOG_CAPACITY = 1 << 16


class HawkesClock:
    """Simulation clock for one realization of the process."""

    def __init__(self, params: KernelParams,
                 log_capacity: int = DEFAULT_LOG_CAPACITY,
                 t0: float = 0.0):
        if log_capacity < 8:
            raise ValueError("log_capacity too small")
        self.params = params
        d = params.n_types
        self._kind, self._mu, self._a1, self._a2, self._a3, self._horizon = \
            params.kernel_args()
        self.exc = np.zeros((d, d))
        self.counts = np.zeros(d, dtype=np.int64)
        self.clock_f = np.array([t0, t0, np.nan, np.nan, 0.0])
        self.clock_i = np.zeros(2, dtype=np.int64)
        self.log_t = np.zeros(log_capacity)
        self.log_e = np.zeros(log_capacity, dtype=np.int64)
        self._lam_buf = np.empty(d)

    # -- state views --------------------------------------------------------

    @property
    def now(self) -> float:
        return float(self.clock_f[_k.CK_NOW])

    @property
    def last_event_time(self) -> Optional[float]:
        t = self.clock_f[_k.CK_LAST]
        return None if np.isnan(t) else float(t)

    @property
    def n_events(self) -> int:
        return int(self.counts.sum())

    # -- queries -------------------------------------------------------------

    def intensities(self, t: Optional[float] = None) -> np.ndarray:
        """Per-type intensities at time ``t`` (default: now)."""
        t = self.now if t is None else float(t)
        if t < self.now:
            raise ValueError(f"t={t} precedes clock.now={self.now}")
        out = np.empty(self.params.n_types)
        _k.intensities_at(self._kind, self._mu, self._a1, self._a2, self._a3,
                          self.exc, self.clock_f[_k.CK_ANCHOR],
                          self.log_t, self.log_e,
                          self.clock_i[_k.CK_LOG_NEXT],
                          self.clock_i[_k.CK_LOG_SIZE],
                          self._horizon, t, out)
        return out

    def intensity(self, i: int, t: Optional[float] = None) -> float:
        if not 0 <= i < self.params.n_types:
            raise IndexError(f"event type index {i} out of range")
        return float(self.intensities(t)[i])

    def history_features(self, window: float) -> np.ndarray:
        """Per-type counts over [now - window, now] plus time since last.

        With no events yet, the counts are zero and the trailing entry is
        the window length.
        """
        if window <= 0:
            raise ValueError("window must be > 0")
        d = self.params.n_types
        out = np.empty(d + 1)
        cnt = np.empty(d, dtype=np.int64)
        _k.history_counts(self.log_t, self.log_e,
                          self.clock_i[_k.CK_LOG_NEXT],
                          self.clock_i[_k.CK_LOG_SIZE],
                          self.now, window, cnt)
        out[:d] = cnt
        last = self.clock_f[_k.CK_LAST]
        out[d] = window if np.isnan(last) else self.now - last
        return out

    # -- evolution -----------------------------------------------------------

    def apply_event(self, i: int, t: float) -> None:
        """Record an event of type ``i`` at time ``t`` and advance to it.

        Invalidates any pending thinning proposal: mixing manual event
        insertion with sampling restarts the proposal from ``t``.
        """
        if not 0 <= i < self.params.n_types:
            raise IndexError(f"event type index {i} out of range")
        if t < self.now:
            raise ValueError(f"event time {t} precedes clock.now={self.now}")
        _k.register_event(self._kind, self._a1, self._a2, self.exc,
                          self.clock_f, self.clock_i, self.counts,
                          self.log_t, self.log_e, t, i)
        self.clock_f[_k.CK_NOW] = t
        self.clock_f[_k.CK_PEND_T] = np.nan

    def sample_next_event(self, t_max: float, rng: RandomStream):
        """Next event by thinning, applied to the clock; None past t_max."""
        if t_max < self.now:
            raise ValueError(f"t_max={t_max} precedes clock.now={self.now}")
        t_ev, j_ev = _k.next_event(
            self._kind, self._mu, self._a1, self._a2, self._a3, self.exc,
            self.clock_f, self.clock_i, self.counts, self.log_t, self.log_e,
            self._horizon, rng.state, t_max, self._lam_buf)
        if j_ev < 0:
            return None
        _k.register_event(self._kind, self._a1, self._a2, self.exc,
                          self.clock_f, self.clock_i, self.counts,
                          self.log_t, self.log_e, t_ev, j_ev)
        return float(t_ev), EventType(int(j_ev))

    def simulate(self, t_max: float, rng: RandomStream,
                 chunk: int = 1 << 14):
        """All events up to ``t_max``; returns (times, types) arrays."""
        if t_max < self.now:
            raise ValueError(f"t_max={t_max} precedes clock.now={self.now}")
        times = []
        types = []
        out_t = np.empty(chunk)
        out_e = np.empty(chunk, dtype=np.int64)
        while True:
            n, overflow = _k.hawkes_simulate(
                self._kind, self._mu, self._a1, self._a2, self._a3, self.exc,
                self.clock_f, self.clock_i, self.counts, self.log_t,
                self.log_e, self._horizon, rng.state, t_max, self._lam_buf,
                out_t, out_e)
            times.append(out_t[:n].copy())
            types.append(out_e[:n].copy())
            if not overflow:
                break
        return np.concatenate(times), np.concatenate(types)
