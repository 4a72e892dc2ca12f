"""Multivariate Hawkes process simulation and queries.

The clock owns the process state. For exponential kernels it is the
decay-grouped excitation anchored at the last event, which is exact
because the intensity is Markov in that state (closed-form recursion,
one decay per slot per event). For power-law kernels it is a truncated
event log, summed as one array expression over the entries within the
truncation horizon; a power-law query raises ``ValueError`` once such an
entry has been overwritten. Sampling uses Ogata thinning with the
intensity at ``now`` as the proposal bound. The bound is carried from
one proposal to the next (the intensity at a rejected candidate, or that
plus the jump of an accepted event), so each proposal evaluates the
intensity once; ``apply_event`` resets it. Each accepted event is
registered on the clock by the same kernel step (``_kernels.next_event``)
that samples it. An unconsumed proposal crossing the horizon is kept as
a pending candidate so chunked simulation replays the identical stream.

The state is the clock kernels' argument block, ``HawkesClock.state``,
whose layout ``_kernels`` documents.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import _kernels as _k
from .events import EventType
from .params import KernelParams
from .rng import RandomStream

DEFAULT_LOG_CAPACITY = 1 << 16


class HawkesClock:
    """Simulation clock for one realization of the process, from time 0."""

    def __init__(self, params: KernelParams,
                 log_capacity: int = DEFAULT_LOG_CAPACITY):
        if log_capacity < 8:
            raise ValueError("log_capacity too small")
        self.params = params
        d = params.n_types
        m = params.n_slots
        exc = [[0.0] * m for _ in range(d)]
        self.clock_f = [0.0, 0.0, np.nan, np.nan]
        self.clock_i = [0]
        self.counts = [0] * d
        self.lam_buf = [0.0] * d
        self.log_t = np.zeros(log_capacity)
        self.log_e = np.zeros(log_capacity, dtype=np.int64)
        # Sliding history counts (see ``history``): the d counts and the
        # time since the last event, the window they were taken over (nan:
        # none yet), the number of events logged before the oldest counted
        # entry, and the number of events logged at that query.
        self._hist = [0] * (d + 1)
        self._hist_window = math.nan
        self._hist_tail = 0
        self._hist_head = 0
        # The clock kernels' leading argument block (see ``_kernels``).
        self.state = (*params.clock_args, exc, self.clock_f, self.clock_i,
                      self.counts, self.log_t, self.log_e)

    # -- state views --------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock_f[_k.CK_NOW]

    @property
    def n_events(self) -> int:
        return self.clock_i[_k.CK_N_EVENTS]

    # -- queries -------------------------------------------------------------

    def intensities(self, t: Optional[float] = None) -> np.ndarray:
        """Per-type intensities at time ``t`` (default: now)."""
        t = self.now if t is None else float(t)
        if not t >= self.now:
            raise ValueError(f"t={t} is not at or after "
                             f"clock.now={self.now}")
        out = np.empty(self.params.n_types)
        _k.intensities_at(*self.state, t, out)
        return out

    def intensity(self, i: int, t: Optional[float] = None) -> float:
        if not 0 <= i < self.params.n_types:
            raise IndexError(f"event type index {i} out of range")
        return float(self.intensities(t)[i])

    def history_features(self, window: float) -> np.ndarray:
        """Per-type counts over [now - window, now] plus time since last.

        With no events yet, the counts are zero and the trailing entry is
        the window length. ValueError unless the window is finite and > 0.

        The counts slide from one query to the next: the clock keeps the
        window, the oldest entry inside it and the counts from its last
        query. For the same window at a later ``now`` it adds the entries
        logged since and drops the oldest ones while ``now - t > window``,
        which stays true as ``now`` grows, so the counts equal those of a
        full walk of the log. A changed window, or a writer that has
        lapped the oldest counted entry (more than ``log_capacity``
        entries logged since it), recounts with that walk
        (``_kernels.history_counts``). The counts read the event log, so
        a window that spans more than ``log_capacity`` events is
        undercounted, without an error.
        """
        return np.array(self.history(window), dtype=np.float64)

    def history(self, window: float) -> list:
        """``history_features(window)`` as the clock's own list of Python
        numbers (the d counts, then the time since the last event), which
        the next call overwrites."""
        if not 0.0 < window < math.inf:
            raise ValueError(f"window must be finite and > 0, got {window}")
        hist = self._hist
        d = len(self.counts)
        n = self.clock_i[_k.CK_N_EVENTS]
        now = self.clock_f[_k.CK_NOW]
        log_t = self.log_t
        cap = len(log_t)
        tail = self._hist_tail
        if window != self._hist_window or n - tail > cap:
            _k.history_counts(*self.state, window, hist)
            self._hist_window = window
            tail = n - sum(hist[:d])
        else:
            log_e = self.log_e
            for k in range(self._hist_head, n):
                hist[log_e.item(k % cap)] += 1
            while tail < n and now - log_t.item(tail % cap) > window:
                hist[log_e.item(tail % cap)] -= 1
                tail += 1
        self._hist_tail = tail
        self._hist_head = n
        hist[d] = now - log_t.item((n - 1) % cap) if n else window
        return hist

    # -- evolution -----------------------------------------------------------

    def apply_event(self, i: int, t: float) -> None:
        """Record an event of type ``i`` at time ``t`` and advance to it.

        Invalidates any pending thinning proposal and the carried bound:
        mixing manual event insertion with sampling restarts the proposal
        from ``t`` with a fresh intensity evaluation.
        """
        if not 0 <= i < self.params.n_types:
            raise IndexError(f"event type index {i} out of range")
        t = float(t)
        if not self.now <= t < math.inf:
            raise ValueError(f"event time {t} is not finite and at or after "
                             f"clock.now={self.now}")
        _k.register_event(*self.state, t, i)
        self.clock_f[_k.CK_NOW] = t
        self.clock_f[_k.CK_PEND_T] = np.nan
        self.clock_f[_k.CK_BOUND] = np.nan

    def sample_next_event(self, t_max: float, rng: RandomStream):
        """Next event by thinning, applied to the clock; None past t_max."""
        t_max = float(t_max)
        if not t_max >= self.now:
            raise ValueError(f"t_max={t_max} is not at or after "
                             f"clock.now={self.now}")
        t_ev, j_ev = _k.next_event(*self.state, rng.state, t_max,
                                   self.lam_buf)
        if j_ev < 0:
            return None
        return t_ev, EventType(j_ev)

    def simulate(self, t_max: float, rng: RandomStream):
        """All events up to ``t_max``; returns (times, types) arrays."""
        t_max = float(t_max)
        if not self.now <= t_max < math.inf:
            raise ValueError(f"t_max={t_max} is not finite and at or after "
                             f"clock.now={self.now}")
        times = []
        types = []
        while True:
            t_ev, j_ev = _k.next_event(*self.state, rng.state, t_max,
                                       self.lam_buf)
            if j_ev < 0:
                return (np.array(times, dtype=np.float64),
                        np.array(types, dtype=np.int64))
            times.append(t_ev)
            types.append(j_ev)
