"""Hawkes kernel parameter sets.

Two kernel families are supported for the mutually-exciting process over
the event alphabet:

* exponential: phi_ij(t) = alpha_ij * exp(-gamma_ij * t)
* power-law:   phi_ij(t) = alpha_pl_ij * (1 + t / delta_pl_ij) ** (-beta_pl_ij)

The power-law form is evaluated by direct summation over a truncated event
log (no finite-dimensional recursion exists). The neglected tail mass per
logged event older than the horizon H is bounded by the integrated kernel
tail alpha * delta / (beta - 1) * (1 + H / delta) ** (1 - beta); see
:func:`powerlaw_tail_intensity_bound` for the intensity-level bound used
by the accuracy tests.

Stability requires the spectral radius of the branching matrix (entrywise
integral of the kernel) to be below one; constructors enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._kernels import KIND_EXP, KIND_POWERLAW
from .events import EventType, MIRROR_EVENT, N_EVENT_TYPES

EXPONENTIAL = "exponential"
POWERLAW = "powerlaw"

DEFAULT_PL_HORIZON = 60.0


@dataclass(frozen=True, eq=False)
class KernelParams:
    """Baseline/excitation/decay parameters of a d-type Hawkes process."""

    kind: str
    mu: np.ndarray
    alpha: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    alpha_pl: Optional[np.ndarray] = None
    beta_pl: Optional[np.ndarray] = None
    delta_pl: Optional[np.ndarray] = None
    pl_horizon: float = DEFAULT_PL_HORIZON

    def __post_init__(self):
        mu = np.ascontiguousarray(np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.shape[0] < 1:
            raise ValueError("mu must be a nonempty vector")
        if np.any(mu < 0) or not np.all(np.isfinite(mu)):
            raise ValueError("mu entries must be finite and >= 0")
        d = mu.shape[0]
        if self.kind == EXPONENTIAL:
            # The other family's parameters are refused, not dropped:
            # ``to_dict`` (and so the config hash) would leave them out.
            foreign = [name for name in ("alpha_pl", "beta_pl", "delta_pl")
                       if getattr(self, name) is not None]
            if self.pl_horizon != DEFAULT_PL_HORIZON:
                foreign.append("pl_horizon")
            self._refuse_foreign(foreign)
            alpha = self._matrix("alpha", self.alpha, d)
            gamma = self._matrix("gamma", self.gamma, d)
            if np.any(gamma <= 0):
                raise ValueError("gamma entries must be > 0")
            object.__setattr__(self, "alpha", alpha)
            object.__setattr__(self, "gamma", gamma)
        elif self.kind == POWERLAW:
            self._refuse_foreign([name for name in ("alpha", "gamma")
                                  if getattr(self, name) is not None])
            alpha_pl = self._matrix("alpha_pl", self.alpha_pl, d)
            beta_pl = self._matrix("beta_pl", self.beta_pl, d)
            delta_pl = self._matrix("delta_pl", self.delta_pl, d)
            if np.any(beta_pl <= 1):
                raise ValueError("beta_pl entries must be > 1")
            if np.any(delta_pl <= 0):
                raise ValueError("delta_pl entries must be > 0")
            pl_horizon = float(self.pl_horizon)
            if not pl_horizon > 0:
                raise ValueError(f"pl_horizon must be > 0, got {pl_horizon}")
            object.__setattr__(self, "pl_horizon", pl_horizon)
            object.__setattr__(self, "alpha_pl", alpha_pl)
            object.__setattr__(self, "beta_pl", beta_pl)
            object.__setattr__(self, "delta_pl", delta_pl)
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        rho = self.spectral_radius
        if not rho < 1.0:
            raise ValueError(
                f"unstable parameters: branching spectral radius {rho:.6f} >= 1")

    def _refuse_foreign(self, names) -> None:
        if names:
            raise ValueError(f"kernel kind {self.kind!r} takes no "
                             f"{', '.join(names)}")

    @staticmethod
    def _matrix(name: str, value, d: int) -> np.ndarray:
        if value is None:
            raise ValueError(f"{name} is required for this kernel kind")
        m = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        if m.shape != (d, d):
            raise ValueError(f"{name} must have shape ({d}, {d}) to match mu")
        if name.startswith("alpha") and np.any(m < 0):
            raise ValueError(f"{name} entries must be >= 0")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{name} entries must be finite")
        return m

    @property
    def n_types(self) -> int:
        return int(self.mu.shape[0])

    @property
    def branching_matrix(self) -> np.ndarray:
        """Entry ij = integral of phi_ij over [0, inf)."""
        if self.kind == EXPONENTIAL:
            return self.alpha / self.gamma
        return self.alpha_pl * self.delta_pl / (self.beta_pl - 1.0)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.branching_matrix))))

    @property
    def stationary_rates(self) -> np.ndarray:
        """Stationary mean intensities (I - B)^-1 mu."""
        b = self.branching_matrix
        return np.linalg.solve(np.eye(self.n_types) - b, self.mu)

    @cached_property
    def kernel_args(self):
        """(kind_code, mu, a1, a2, a3, horizon): the parameter part of the
        clock kernels' argument block (``HawkesClock.state``).

        Exponential kernels use a decay-grouped layout. Row i's slots are
        the distinct decays gamma_ij over the sources j with alpha_ij != 0;
        m is the largest slot count of any row (1 for row-constant decay,
        at most d, 0 when alpha is zero). ``a1`` has shape (d, d*m) with
        ``a1[i, j*m + k]`` = alpha_ij when gamma_ij is row i's slot k and 0
        otherwise (``alpha`` itself when m = 1); ``a2`` has shape (d, m)
        and holds the slot decays, padded with 1.0 past a row's last slot.
        ``a3`` holds the decay-group tables, three rows of their own
        lengths:

        * ``a3[0]``: the G distinct slot decays (G = 0 when m = 0);
        * ``a3[1]``: slot -> group, ``a3[1][i*m + k]`` the index in
          ``a3[0]`` of ``a2[i, k]`` (0 for a padded slot, which never
          holds excitation);
        * ``a3[2]``: per type j, the total intensity an event of type j
          adds at age 0, the sum of ``a1[i, j*m + k]`` over i, then k,
          added one scalar at a time in that order.

        Power-law kernels pass ``alpha_pl``, ``beta_pl`` and ``delta_pl``.
        The arrays are built once per parameter set and shared by every
        clock built from it.
        """
        if self.kind == POWERLAW:
            return KIND_POWERLAW, self.mu, self.alpha_pl, self.beta_pl, \
                self.delta_pl, float(self.pl_horizon)
        d = self.n_types
        slots = [sorted(set(self.gamma[i][self.alpha[i] != 0.0].tolist()))
                 for i in range(d)]
        m = max(len(row) for row in slots)
        a1 = np.zeros((d, d * m))
        a2 = np.ones((d, m))
        for i, row in enumerate(slots):
            a2[i, :len(row)] = row
            for j in np.flatnonzero(self.alpha[i]):
                a1[i, j * m + row.index(self.gamma[i, j])] = self.alpha[i, j]
        decays = sorted(set().union(*slots))
        group = [decays.index(row[k]) if k < len(row) else 0
                 for row in slots for k in range(m)]
        # One scalar at a time, in row order: numpy sums pairwise, and the
        # builtin ``sum`` compensates from Python 3.12 on.
        a1_rows = a1.tolist()
        jumps = []
        for j in range(d):
            s = 0.0
            for a1_i in a1_rows:
                for c in range(j * m, (j + 1) * m):
                    s += a1_i[c]
            jumps.append(s)
        a3 = (np.array(decays, dtype=np.float64),
              np.array(group, dtype=np.int64), np.array(jumps))
        return KIND_EXP, self.mu, a1, a2, a3, np.inf

    @cached_property
    def clock_args(self):
        """``kernel_args`` as ``HawkesClock.state`` passes it: ``mu`` and
        the exponential ``a1``, ``a2`` and ``a3`` as (nested) lists of
        Python floats and ints, which the kernels index faster than
        arrays. The power-law tables stay arrays, which the kernel
        fancy-indexes. Built once per parameter set.
        """
        kind, mu, a1, a2, a3, horizon = self.kernel_args
        if kind == KIND_EXP:
            a1, a2 = a1.tolist(), a2.tolist()
            a3 = [row.tolist() for row in a3]
        return kind, mu.tolist(), a1, a2, a3, horizon

    @property
    def n_slots(self) -> int:
        """Columns m of the clock's exponential state ``exc[d, m]``; 0 for
        power-law kernels, which keep an event log instead."""
        if self.kind == EXPONENTIAL:
            return self.kernel_args[3].shape[1]
        return 0

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "mu": self.mu.tolist()}
        if self.kind == EXPONENTIAL:
            out["alpha"] = self.alpha.tolist()
            out["gamma"] = self.gamma.tolist()
        else:
            out["alpha_pl"] = self.alpha_pl.tolist()
            out["beta_pl"] = self.beta_pl.tolist()
            out["delta_pl"] = self.delta_pl.tolist()
            out["pl_horizon"] = self.pl_horizon
        return out


def powerlaw_tail_intensity_bound(params: KernelParams,
                                  n_old_events: int) -> float:
    """Upper bound on the intensity truncation error from old events.

    Each event older than the horizon contributes at most
    max_ij phi_ij(horizon) to any component intensity.
    """
    if params.kind != POWERLAW:
        raise ValueError("tail bound applies to power-law kernels")
    phi_h = params.alpha_pl * (
        1.0 + params.pl_horizon / params.delta_pl) ** (-params.beta_pl)
    return float(n_old_events) * float(phi_h.max())


# ---------------------------------------------------------------------------
# Default desk-scale parameter sets
# ---------------------------------------------------------------------------

# Per-side baselines, canonical ask-side order
# [LO_D, LO_T, CO_T, CO_D, MO, IS] in events per second.
_BASE_SIDE_MU = {
    "LO_D": 0.35, "LO_T": 0.50, "CO_T": 0.30,
    "CO_D": 0.25, "MO": 0.20, "IS": 0.10,
}

_DEFAULT_GAMMA = 2.0
_DEFAULT_RADIUS = 0.8
_MIRROR_COUPLING = 0.5
_PL_BETA = 2.5
_PL_DELTA = 0.2


def _default_mu() -> np.ndarray:
    mu = np.empty(N_EVENT_TYPES)
    ask = [_BASE_SIDE_MU[k] for k in ("LO_D", "LO_T", "CO_T", "CO_D",
                                      "MO", "IS")]
    for i, v in enumerate(ask):
        mu[i] = v
        mu[MIRROR_EVENT[i]] = v
    return mu


def _default_branching() -> np.ndarray:
    """Self-excitation plus mirror coupling, scaled to radius 0.8 exactly.

    eigenvalues of I + c*Mirror are 1 +/- c, so the scale below gives a
    spectral radius of exactly ``_DEFAULT_RADIUS`` without an eigensolver.
    """
    m = np.eye(N_EVENT_TYPES)
    for i in range(N_EVENT_TYPES):
        m[i, MIRROR_EVENT[i]] = _MIRROR_COUPLING
    return m * (_DEFAULT_RADIUS / (1.0 + _MIRROR_COUPLING))


def default_kernel_params(profile: str = EXPONENTIAL) -> KernelParams:
    """Shipped 12-type parameter set: ask/bid symmetric, radius 0.8.

    Profiles: ``exponential``, ``powerlaw`` (same branching matrix), and
    ``poisson`` (exponential with zero excitation; each type is an
    independent Poisson stream).
    """
    mu = _default_mu()
    branching = _default_branching()
    if profile == EXPONENTIAL:
        gamma = np.full((N_EVENT_TYPES, N_EVENT_TYPES), _DEFAULT_GAMMA)
        return KernelParams(kind=EXPONENTIAL, mu=mu,
                            alpha=branching * gamma, gamma=gamma)
    if profile == POWERLAW:
        beta = np.full((N_EVENT_TYPES, N_EVENT_TYPES), _PL_BETA)
        delta = np.full((N_EVENT_TYPES, N_EVENT_TYPES), _PL_DELTA)
        alpha_pl = branching * (beta - 1.0) / delta
        return KernelParams(kind=POWERLAW, mu=mu, alpha_pl=alpha_pl,
                            beta_pl=beta, delta_pl=delta)
    if profile == "poisson":
        d = N_EVENT_TYPES
        return KernelParams(kind=EXPONENTIAL, mu=mu, alpha=np.zeros((d, d)),
                            gamma=np.full((d, d), _DEFAULT_GAMMA))
    raise ValueError(f"unknown kernel profile {profile!r}")


def poisson_flow_params(mo_rate: float) -> KernelParams:
    """Poisson (zero-excitation) flow with a chosen market-order rate.

    Ask/bid symmetric baselines: market orders at ``mo_rate``, top-queue
    limit orders at 0.8 and cancels at 0.4 per second, deep and
    in-spread rates at their defaults. Used by the fill-rate studies and
    the training smoke tests, where market orders at decision cadence
    make queue dynamics informative within one episode.
    """
    mu = _default_mu()
    for i, rate in ((EventType.MO_ASK, mo_rate), (EventType.LO_ASK_T, 0.8),
                    (EventType.CO_ASK_T, 0.4)):
        mu[i] = mu[MIRROR_EVENT[i]] = rate
    d = N_EVENT_TYPES
    return KernelParams(kind=EXPONENTIAL, mu=mu, alpha=np.zeros((d, d)),
                        gamma=np.full((d, d), _DEFAULT_GAMMA))
