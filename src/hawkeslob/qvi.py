"""The generator of the uncontrolled dynamics on candidate value
functions, the branch enumerators behind it, domain sampling, and the
Monte-Carlo Dynkin check.

A candidate function is any callable ``phi(t, lam, s)`` returning a float,
where ``lam`` is the intensity vector and ``s`` the reduced-state vector
(see :func:`state_to_vector`). The generator applies to exponential
kernels whose decay is constant along each row (gamma_ij == gamma_i), the
case in which the intensity vector is itself Markov; the shipped defaults
satisfy this.

The generator is an expectation operator, so the probabilistic pieces of
the event transition (cancel targeting, geometric queue redraw on
promotion) enter as explicitly enumerated branches with their exact
weights. Branches and weights come from the draw rules and resolved
transitions in ``_kernels`` (``exogenous_draws`` / ``impulse_draws``),
which the simulator samples from too; ``impulse_branches`` enumerates the
market maker's impulses the same way. The geometric tail beyond
machine-negligible mass is lumped onto the last enumerated branch so
weights sum to one and constants are annihilated exactly. Time and
intensity partials are central finite differences: this module verifies
candidate functions, it does not train them, so derivative-free
candidates must be supported.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import _kernels as _k
from .book import (AgentBookState, BookInitConfig, BookState, pack_state,
                   sample_initial_state, unpack_state)
from .events import (EVENT_KIND, EVENT_SIDE, IMPULSE_KIND, IMPULSE_SIDE,
                     EventType, Impulse, N_EVENT_TYPES)
from .hawkes import HawkesClock
from .params import EXPONENTIAL, KernelParams
from .rng import RandomStream, derive_seed

CandidateFunction = Callable[[float, np.ndarray, np.ndarray], float]

_GEOM_TAIL = 1e-12

_H_REL = 1e-4  # central-difference step, relative to max(1, |x|)


def state_to_vector(book: BookState, agent: AgentBookState) -> np.ndarray:
    """Reduced state (X, Y, p_ask, p_bid, q_a, q_b, q_aD, q_bD, n_a, n_b).

    Prices in currency; queue priorities use -1 for "not resting".
    """
    return np.array([
        agent.cash, agent.inventory, book.p_ask_ticks * book.tick,
        book.p_bid_ticks * book.tick,
        book.q_ask, book.q_bid, book.q_ask_d, book.q_bid_d,
        -1.0 if agent.n_ask is None else agent.n_ask,
        -1.0 if agent.n_bid is None else agent.n_bid,
    ])


def row_gamma(params: KernelParams) -> np.ndarray:
    """Per-type decay vector; requires row-constant gamma."""
    if params.kind != EXPONENTIAL:
        raise ValueError("generator requires an exponential kernel")
    g = params.gamma
    if not np.all(g == g[:, :1]):
        raise ValueError(
            "generator requires row-constant decay (gamma_ij == gamma_i); "
            "pairwise decays make the intensity vector non-Markov")
    return g[:, 0].copy()


def _branches(book: BookState, agent: AgentBookState, draws, resolved,
              redraw_p: float):
    """Every outcome of one transition, enumerated from the kernel rules.

    ``draws(arr)`` is ``_k.exogenous_draws`` / ``_k.impulse_draws``;
    ``resolved(arr, cash, hit, redraw_val)`` applies the transition with
    its draws fixed, the redraw being 1 + Geometric(redraw_p). Returns the
    (weight, book', agent') branches.
    """
    arr, cash = pack_state(book, agent)
    p_hit, redraw = draws(arr)
    hits = [(p_hit, 1), (1.0 - p_hit, 0)] if p_hit > 0.0 else [(1.0, 0)]
    redraws = [(1.0, 1)]
    if redraw:
        redraws = []
        remaining = 1.0
        while remaining > _GEOM_TAIL:
            w = remaining * redraw_p
            redraws.append((w, 1 + len(redraws)))
            remaining -= w
        w_last, v_last = redraws[-1]
        redraws[-1] = (w_last + remaining, v_last)
    branches = []
    for w_hit, hit in hits:
        for w_redraw, redraw_val in redraws:
            arr2, cash2 = arr.copy(), cash.copy()
            resolved(arr2, cash2, hit, redraw_val)
            branches.append((w_hit * w_redraw,
                             *unpack_state(arr2, cash2, book.tick)))
    return branches


def exogenous_branches(book: BookState, agent: AgentBookState, e: EventType,
                       redraw_p: float = BookInitConfig.redraw_geom_p,
                       ) -> List[Tuple[float, BookState, AgentBookState]]:
    """All (weight, post-state) branches of the event transition T_e."""
    kind, side = EVENT_KIND[e], EVENT_SIDE[e]
    return _branches(
        book, agent, lambda arr: _k.exogenous_draws(arr, kind, side),
        lambda arr, cash, hit, rv: _k.apply_exogenous_resolved(
            arr, cash, kind, side, book.tick, hit, rv),
        redraw_p)


def impulse_branches(book: BookState, agent: AgentBookState, psi: Impulse,
                     redraw_p: float = BookInitConfig.redraw_geom_p,
                     ) -> List[Tuple[float, BookState, AgentBookState]]:
    """All (weight, post-state) branches of the intervention Gamma(., psi);
    a market order's cash flow K is part of each post-state's cash."""
    kind, side = IMPULSE_KIND[psi], IMPULSE_SIDE[psi]
    return _branches(
        book, agent, lambda arr: _k.impulse_draws(arr, kind, side),
        lambda arr, cash, hit, rv: _k.apply_impulse_resolved(
            arr, cash, kind, side, book.tick, rv),
        redraw_p)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def generator(phi: CandidateFunction, t: float, lam: np.ndarray,
              book: Optional[BookState], agent: Optional[AgentBookState],
              params: KernelParams,
              redraw_p: float = BookInitConfig.redraw_geom_p) -> float:
    """Expected instantaneous drift of phi along the uncontrolled dynamics.

    d_t phi + sum_i [ lam_i (E[phi(t, lam + alpha_col_i, T_i(s))] - phi)
                      + d_{lam_i} phi * gamma_i (mu_i - lam_i) ]

    With 12-type parameters, T_i is the book transition with its
    probabilistic pieces in expectation. Reduced settings (any other
    dimension, or ``book=None``) carry no book state: T_i is the
    identity and candidates see an empty state vector.
    """
    gamma_i = row_gamma(params)
    lam = np.asarray(lam, dtype=np.float64)
    with_book = book is not None and params.n_types == N_EVENT_TYPES
    svec = state_to_vector(book, agent) if with_book else np.empty(0)
    base = phi(t, lam, svec)

    h_t = _H_REL * max(1.0, abs(t))
    out = (phi(t + h_t, lam, svec) - phi(t - h_t, lam, svec)) / (2.0 * h_t)

    for i in range(params.n_types):
        lam_jump = lam + params.alpha[:, i]
        if with_book:
            jump = 0.0
            for w, b2, a2 in exogenous_branches(book, agent, EventType(i),
                                                redraw_p):
                jump += w * phi(t, lam_jump, state_to_vector(b2, a2))
        else:
            jump = phi(t, lam_jump, svec)
        out += lam[i] * (jump - base)

        h_l = _H_REL * max(1.0, abs(lam[i]))
        lam_p = lam.copy()
        lam_p[i] += h_l
        lam_m = lam.copy()
        lam_m[i] -= h_l
        dphi_dlam = (phi(t, lam_p, svec) - phi(t, lam_m, svec)) / (2.0 * h_l)
        out += dphi_dlam * gamma_i[i] * (params.mu[i] - lam[i])
    return float(out)


# ---------------------------------------------------------------------------
# Domain sampling
# ---------------------------------------------------------------------------

def sample_reduced_state(config: BookInitConfig, rng: RandomStream,
                         initial_cash: float = 2000.0,
                         ) -> Tuple[BookState, AgentBookState]:
    """Book from the initial-state distributions; inventory ~ rounded
    normal; each side rests an order with probability 1/2 at a uniform
    queue priority."""
    book, agent = sample_initial_state(config, rng, initial_cash,
                                       sample_inventory=True)
    n_ask = n_bid = None
    if rng.uniform() < 0.5:
        n_ask = rng.integer(book.q_ask + book.q_ask_d)
    if rng.uniform() < 0.5:
        n_bid = rng.integer(book.q_bid + book.q_bid_d)
    return book, replace(agent, n_ask=n_ask, n_bid=n_bid)


def sample_intensities(params: KernelParams, rng: RandomStream) -> np.ndarray:
    """Intensity draws mu_i + (stationary_i - mu_i) * Exp(1)."""
    stat = params.stationary_rates
    lam = np.empty(params.n_types)
    for i in range(params.n_types):
        lam[i] = params.mu[i] + (stat[i] - params.mu[i]) \
            * (-math.log(rng.uniform()))
    return lam


# ---------------------------------------------------------------------------
# Dynkin verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynkinResult:
    function: str
    type_index: int
    t_end: float
    n_paths: int
    estimate: float
    reference: float
    se: float
    z: float

    def to_dict(self) -> dict:
        return asdict(self)


def dynkin_reference(params: KernelParams, t_end: float) -> Tuple[np.ndarray,
                                                                  np.ndarray]:
    """Closed-form (E[lam(t)], E[N(t)]) via the matrix exponential of the
    affine moment system m' = diag(gamma)(mu - m) + alpha m, c' = m."""
    # Imported here: this is scipy's only use, and it keeps scipy off the
    # import path of every other command.
    from scipy.linalg import expm

    gamma_i = row_gamma(params)
    d = params.n_types
    big = np.zeros((2 * d + 1, 2 * d + 1))
    big[:d, :d] = params.alpha - np.diag(gamma_i)
    big[:d, 2 * d] = gamma_i * params.mu
    big[d:2 * d, :d] = np.eye(d)
    x0 = np.concatenate([params.mu, np.zeros(d), [1.0]])
    x_t = expm(big * t_end) @ x0
    return x_t[:d], x_t[d:2 * d]


def dynkin_check(params: KernelParams, function: str = "intensity",
                 type_index: int = 0, t_end: float = 2.0,
                 n_paths: int = 10_000, seed: int = 0) -> DynkinResult:
    """Monte-Carlo check that E[phi(t_end)] follows the generator ODE.

    Shipped test functions: ``intensity`` (phi = lam_i) and ``count``
    (phi = N_i). The reference integrates d/dt E[phi] = E[L phi] in closed
    form; the z-score compares the path average against it. Needs at
    least two paths for a standard error.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if function not in ("intensity", "count"):
        raise ValueError("function must be 'intensity' or 'count'")
    if not 0 <= type_index < params.n_types:
        raise ValueError(f"type_index must be in [0, {params.n_types - 1}], "
                         f"got {type_index}")
    m_ref, c_ref = dynkin_reference(params, t_end)
    reference = float(m_ref[type_index] if function == "intensity"
                      else c_ref[type_index])
    values = np.empty(n_paths)
    for p in range(n_paths):
        rng = RandomStream(derive_seed(seed, 0xD94, p))
        clock = HawkesClock(params, log_capacity=4096)
        clock.simulate(t_end, rng)
        if function == "intensity":
            values[p] = clock.intensity(type_index, t_end)
        else:
            values[p] = clock.counts[type_index]
    estimate = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n_paths))
    z = (estimate - reference) / se if se > 0 else 0.0
    return DynkinResult(function=function, type_index=type_index,
                        t_end=t_end, n_paths=n_paths, estimate=estimate,
                        reference=reference, se=se, z=float(z))
