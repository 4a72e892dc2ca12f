"""Hot numerical kernels, in plain Python.

The kernels run on lists of Python floats and ints, which plain Python
indexes faster than numpy scalars, and use numpy only where one array
expression replaces a loop (the power-law sum). Transcendental calls go
through ``math`` (libm).

Conventions
-----------
RNG state is a list of the four words of a KISS-style generator (two
16-bit-lane multiply-with-carry streams, a 32-bit xorshift and a 32-bit
LCG), as ``RandomStream`` builds it. All arithmetic keeps intermediate
values below 2**49, so the words give the same bits as the generator on
``uint64`` words would (``tests/test_rng_layout.py``).

Book state is a list of 9 Python ints, as ``book.pack_state`` builds it::

    0 PA  best ask price (ticks)     5 QBD  bid second-level size
    1 PB  best bid price (ticks)     6 NA   ask queue priority (-1 = none)
    2 QA  ask top size               7 NB   bid queue priority (-1 = none)
    3 QB  bid top size               8 Y    agent inventory
    4 QAD ask second-level size

The ask and the bid follow the same rules, mirrored. ``SIDE[is_ask]``
holds one side's slots, (top size, second-level size, agent priority,
best price), and its price step away from the spread, +1 on the ask and
-1 on the bid, so each book rule is written once for both sides.

Cash is a one-element list holding a Python float (currency). The event
and impulse dispatch tables (``events.EVENT_KIND`` and the rest) are
tuples of ints. The book kernels read the book only by ``x[i]``, so a
book and cash held in numpy ``int64`` / ``float64`` arrays give the same
bits (the transition tables of criterion 03 in
``tests/test_acceptance.py`` are written on that layout).

Clock state is one block of leading arguments, shared by every clock
kernel::

    kind, mu, a1, a2, a3, horizon, exc, clock_f, clock_i, counts, log_t, log_e

``HawkesClock`` builds it once as ``clock.state``, and callers pass
``*clock.state``. ``clock_f`` holds four floats (now, excitation anchor
time, pending thinning candidate time or nan, thinning bound or nan).
The thinning bound is carried from one proposal to the next: it is the
total intensity at ``now`` as the last proposal left it, which a pending
candidate was drawn with, and nan when it must be evaluated afresh (see
``next_event``). ``clock_i`` holds two ints (event-log write position,
event-log size) and ``counts`` one int per type. The event log
``log_t`` / ``log_e`` is ``float64`` / ``int64`` arrays; the newest entry
holds the last event time.

``mu``, ``exc``, ``clock_f``, ``clock_i``, ``counts`` and the
exponential tables are lists of Python floats and ints, nested for the
rank-2 ones (``KernelParams.clock_args`` builds the tables). The event
log and the power-law tables are numpy arrays, because the power-law sum
reads them as one array expression. The kernels read the block only by
``x[i]`` / ``x[i][k]``, iteration over a row and ``len``, so an
all-array block gives the same bits (``tests/test_clock_layout.py``
keeps that as a reference check).

The tables ``a1`` and ``a2`` are rank 2 for both kinds (lists of lists
for exponential kernels, arrays for power-law ones); ``a3`` is rank 2 for
power-law kernels and three rows of their own lengths for exponential
ones:

* exponential (kind 0): decay-grouped. ``exc`` is ``[d, m]``, where
  slot k of row i holds the excitation, at the anchor time, from every
  source whose decay is row i's k-th distinct decay; only sources with
  alpha_ij != 0 count. m is 1 for row-constant decay, at most d, and 0
  when alpha is zero (the intensity is then ``mu`` exactly). ``a1`` is
  ``[d, d*m]`` with ``a1[i, j*m + k]`` the jump an event of type j adds
  to slot k of row i (alpha_ij or 0) and ``a2`` is ``[d, m]`` (slot
  decays). ``a3`` holds the decay-group tables, three rows of their own
  lengths: ``a3[0]`` the G distinct slot decays, ``a3[1][i*m + k]`` the
  group of slot k of row i, and ``a3[2][j]`` the total intensity an
  event of type j adds at age 0 (the column sum of ``a1`` over j's
  slots).
* power-law (kind 1): ``a1``, ``a2``, ``a3`` are alpha_pl, beta_pl and
  delta_pl (``[d, d]``), ``horizon`` is the truncation age, and ``exc``
  is unused (m = 0); the intensity is a sum over the event log, one
  array expression over the entries within ``horizon``.

Event step: ``next_event`` samples the next event by thinning and
registers it on the clock, so every sampling loop shares one step and
differs only in what it keeps. The exponential arithmetic is written
once, as the decay pass ``_decay`` and the jump write-back ``_add_jump``,
which ``intensities_at``, ``register_event`` and ``next_event`` share;
an accepted event reuses its candidate's decayed excitation, and both
kernel families share one accept path. ``HawkesClock.simulate`` keeps
event times and types; ``advance_interval`` applies each event to the
book and keeps only the agent's fill price per side in a two-slot
``fill_px`` (nan when that side did not fill). A fill removes the
agent's order and only an impulse places one, so a side fills at most
once per decision interval.

Randomness draw discipline (transition functions); the order is part of
the replay contract. ``exogenous_draws`` and ``impulse_draws`` are its one
implementation: ``apply_exogenous`` / ``apply_impulse`` sample from them
and ``qvi`` enumerates from them. They return ``(p_hit, redraw)``:

* exogenous CO_T, top queue >= 2, agent resting in the top queue with
  0 < n < q: one uniform (hit ~ Bernoulli(n/q));
* exogenous CO_D, second level >= 2, agent deep with n > q: one uniform
  (hit ~ Bernoulli((n-q)/q_D));
* any promotion or second-level replenishment: one uniform for the
  geometric queue redraw, drawn after the targeting draw if any.
"""

import math

import numpy as np

from .events import (EVENT_KIND, EVENT_SIDE, IMPULSE_KIND, IMPULSE_SIDE,
                     KIND_CO_D, KIND_CO_T, KIND_IS, KIND_LO_D, KIND_LO_T,
                     KIND_MO)

# --- book array slots -------------------------------------------------------
PA, PB, QA, QB, QAD, QBD, NA, NB, YINV = 0, 1, 2, 3, 4, 5, 6, 7, 8
# --- per side, indexed by is_ask: (top, second level, priority, price, step)
SIDE = ((QB, QBD, NB, PB, -1), (QA, QAD, NA, PA, 1))
# --- clock float slots ------------------------------------------------------
CK_NOW, CK_ANCHOR, CK_PEND_T, CK_BOUND = 0, 1, 2, 3
# --- clock int slots --------------------------------------------------------
CK_LOG_NEXT, CK_LOG_SIZE = 0, 1

KIND_EXP = 0
KIND_POWERLAW = 1

# Relative excess of a candidate intensity over the carried thinning bound
# that is still rounding; anything larger raises in ``next_event``.
BOUND_RTOL = 1e-12

_M16 = 0xFFFF
_M32 = 0xFFFFFFFF
_A_Z = 36969
_A_W = 18000
_LCG_A = 69069
_LCG_C = 1234567
_TWO26 = 67108864.0
_INV53 = 1.0 / 9007199254740992.0
_TWO_PI = 6.283185307179586

_SEED_C1 = 0x9E3779B9
_SEED_C2 = 0x85EBCA6B
_SEED_C3 = 0xC2B2AE35
_SEED_C4 = 0x27D4EB2F


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------

def _rng_next32(st):
    z = st[0]
    w = st[1]
    jsr = st[2]
    jcong = st[3]
    z = _A_Z * (z & _M16) + (z >> 16)
    w = _A_W * (w & _M16) + (w >> 16)
    mwc = (((z & _M32) << 16) + w) & _M32
    jsr = (jsr ^ ((jsr << 17) & _M32)) & _M32
    jsr = jsr ^ (jsr >> 13)
    jsr = (jsr ^ ((jsr << 5) & _M32)) & _M32
    jcong = (_LCG_A * jcong + _LCG_C) & _M32
    st[0] = z
    st[1] = w
    st[2] = jsr
    st[3] = jcong
    return ((mwc ^ jcong) + jsr) & _M32


def _wash32(x):
    for _ in range(3):
        x = (_LCG_A * x + _LCG_C) & _M32
        x = x ^ (x >> 13)
        x = (x ^ ((x << 17) & _M32)) & _M32
    return x


def rng_seed(st, lo, hi):
    """Initialise RNG state from two 32-bit seed halves."""
    z = _wash32(lo ^ _SEED_C1)
    w = _wash32(hi ^ _SEED_C2)
    jsr = _wash32(lo ^ hi ^ _SEED_C3)
    jcong = _wash32(((lo + hi) & _M32) ^ _SEED_C4)
    if z == 0:
        z = _SEED_C1
    if w == 0:
        w = _SEED_C2
    if jsr == 0:
        jsr = _SEED_C3
    st[0] = z
    st[1] = w
    st[2] = jsr
    st[3] = jcong
    for _ in range(8):
        _rng_next32(st)


def rng_uniform(st):
    """Uniform draw in (0, 1] with 53 random bits."""
    hi = _rng_next32(st) >> 5
    lo = _rng_next32(st) >> 6
    return (float(hi) * _TWO26 + float(lo) + 1.0) * _INV53


def rng_normal(st):
    u1 = rng_uniform(st)
    u2 = rng_uniform(st)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def rng_geometric(st, p):
    """Number of failures before the first success, support {0, 1, ...}."""
    u = rng_uniform(st)
    return int(math.floor(math.log(u) / math.log1p(-p)))


# ---------------------------------------------------------------------------
# Hawkes intensities
# ---------------------------------------------------------------------------

def _first_within(log_t, lo, hi, t, horizon):
    """First index k in the time-sorted run ``log_t[lo:hi]`` with
    ``t - log_t[k] <= horizon``, or ``hi`` when there is none.

    ``searchsorted`` on ``t - horizon`` lands within rounding of it; the
    two steps then settle the exact predicate, which holds on a suffix of
    the run because ``t - x`` rounds monotonically in ``x``.
    """
    k = lo + np.searchsorted(log_t[lo:hi], t - horizon)
    while k > lo and t - log_t[k - 1] <= horizon:
        k -= 1
    while k < hi and t - log_t[k] > horizon:
        k += 1
    return k


def _decay(mu, a3, exc, dt, out, dec):
    """The exponential decay pass, ``dt`` after the anchor: per-type
    intensities into ``out`` and each slot's decayed excitation into
    ``dec`` (row by row); returns the total. One ``exp`` per decay group,
    on the float a per-slot ``exp(-a2[i, k] * dt)`` would take, so the
    bits are those of one ``exp`` per row and slot. Rows of one slot
    (m = 1, the shipped kernel) skip the inner slot loop, a measurable
    share of a decision step; the sums are the same.
    """
    decays = a3[0]
    ex = [math.exp(-decays[g] * dt) for g in range(len(decays))]
    grp = a3[1]
    total = 0.0
    if len(exc[0]) == 1:
        for i in range(len(mu)):
            e = exc[i][0]
            if e != 0.0:
                e *= ex[grp[i]]
                s = mu[i] + e
            else:
                s = mu[i]
            dec[i] = e
            out[i] = s
            total += s
    else:
        p = 0
        for i in range(len(mu)):
            s = mu[i]
            for e in exc[i]:
                if e != 0.0:
                    e *= ex[grp[p]]
                    s += e
                dec[p] = e
                p += 1
            out[i] = s
            total += s
    return total


def _add_jump(a1, exc, dec, j):
    """The exponential write-back: set ``exc`` to the decayed excitation
    ``dec`` plus the jumps ``a1[i, j*m : (j+1)*m]`` of an event of type
    ``j``."""
    m = len(exc[0])
    if m == 1:
        for i in range(len(exc)):
            exc[i][0] = dec[i] + a1[i][j]
    else:
        col = j * m
        p = 0
        for i in range(len(exc)):
            exc_i = exc[i]
            a1_i = a1[i]
            for k in range(m):
                exc_i[k] = dec[p] + a1_i[col + k]
                p += 1


def intensities_at(kind, mu, a1, a2, a3, horizon, exc, clock_f, clock_i,
                   counts, log_t, log_e, t, out):
    """Fill ``out`` with per-type intensities at time ``t``; return total.

    Exponential kernels (kind 0): the decay pass from the anchor to ``t``;
    ``exc`` is not mutated, so the value at a given time does not depend
    on how many intermediate queries were made. Power-law kernels (kind
    1): direct
    sum over the logged events at most
    ``horizon`` seconds old, one ``[n, d]`` array expression whose rows are
    added in log order, oldest first, so a given set of entries gives the
    same bits wherever the ring buffer holds them; raises ``ValueError``
    when an entry has been overwritten (more events than ``log_capacity``)
    and the oldest kept entry is within ``horizon``, since overwritten
    events would be missing.
    """
    if kind == KIND_EXP:
        return _decay(mu, a3, exc, t - clock_f[CK_ANCHOR], out,
                      [0.0] * (len(exc) * len(exc[0])))
    d = len(mu)
    total = 0.0
    cap = len(log_t)
    log_next = clock_i[CK_LOG_NEXT]
    full = clock_i[CK_LOG_SIZE] == cap
    if full:
        n_logged = 0
        for c in counts:
            n_logged += c
        if n_logged > cap and t - log_t[log_next] <= horizon:
            raise ValueError("event log wrapped within the power-law "
                             "horizon; raise log_capacity")
    # The kept entries, oldest first: a run ending at the newest entry.
    # In a full log it may start in the older slice [log_next, cap),
    # and then it takes all of the newer slice [0, log_next).
    lo = _first_within(log_t, 0, log_next, t, horizon)
    lo_old = cap
    if lo == 0 and full:
        lo_old = _first_within(log_t, log_next, cap, t, horizon)
    if lo_old < cap:
        kept_t = np.concatenate((log_t[lo_old:], log_t[:log_next]))
        kept_e = np.concatenate((log_e[lo_old:], log_e[:log_next]))
    else:
        kept_t = log_t[lo:log_next]
        kept_e = log_e[lo:log_next]
    n = len(kept_t)
    age = (t - kept_t).reshape((n, 1))
    # Row k of these [n, d] arrays is what entry k adds to each type.
    # Only pairs with alpha != 0 take the power (flattened, so the
    # mask is 1-d). ``float_power`` is libm's ``pow``, where numpy's
    # ``**`` may use SIMD code that differs in the last bit.
    terms = a1.T[kept_e].ravel()
    base = (1.0 + age / a3.T[kept_e]).ravel()
    expo = a2.T[kept_e].ravel()
    on = terms != 0.0
    terms[on] = terms[on] * np.float_power(base[on], -expo[on])
    # Reduced over axis 0, the rows are added one after another, in
    # log order.
    excitation = terms.reshape((n, d)).sum(axis=0)
    for i in range(d):
        s = mu[i] + float(excitation[i])
        out[i] = s
        total += s
    return total


def register_event(kind, mu, a1, a2, a3, horizon, exc, clock_f, clock_i,
                   counts, log_t, log_e, t_ev, j_ev):
    """Apply an event of type ``j_ev`` at time ``t_ev`` to the clock state.

    For exponential kernels ``exc`` is decayed from the anchor to ``t_ev``
    once and the event's jumps added, by the code ``next_event`` accepts
    with, so the state does not depend on the query history.
    """
    if kind == KIND_EXP:
        dec = [0.0] * (len(exc) * len(exc[0]))
        _decay(mu, a3, exc, t_ev - clock_f[CK_ANCHOR], [0.0] * len(mu), dec)
        _add_jump(a1, exc, dec, j_ev)
    _log_event(clock_f, clock_i, counts, log_t, log_e, t_ev, j_ev)


def _log_event(clock_f, clock_i, counts, log_t, log_e, t_ev, j_ev):
    """Move the anchor to ``t_ev``, count the event and write it to the
    log (the part of registering an event that is the same for every
    kernel)."""
    clock_f[CK_ANCHOR] = t_ev
    counts[j_ev] += 1
    cap = len(log_t)
    pos = clock_i[CK_LOG_NEXT]
    log_t[pos] = t_ev
    log_e[pos] = j_ev
    clock_i[CK_LOG_NEXT] = (pos + 1) % cap
    if clock_i[CK_LOG_SIZE] < cap:
        clock_i[CK_LOG_SIZE] += 1


def _jump(a1, j):
    """Total intensity an event of type ``j`` adds at age 0 on a power-law
    kernel: the column sum of ``alpha_pl`` (exponential kernels read it
    from ``a3[2]``)."""
    s = 0.0
    for i in range(len(a1)):
        s += a1[i][j]
    return float(s)


def next_event(kind, mu, a1, a2, a3, horizon, exc, clock_f, clock_i, counts,
               log_t, log_e, rng, t_max, lam_buf):
    """Ogata thinning step: sample the next event at or before ``t_max``
    and register it on the clock.

    Returns ``(t, type)`` with the event applied and the clock's ``now``
    advanced to ``t``, or ``(t_max, -1)`` when no event occurs, with
    ``now`` advanced to ``t_max``. A proposal that overshoots ``t_max`` is
    stored as a pending candidate, with the bound it was drawn with left
    in the bound slot, and consumed by the next call, so simulating in
    chunks consumes the identical random stream as one call: output is
    invariant to horizon partitioning, bit for bit.

    The proposal bound is the total intensity at ``now``, valid because
    both kernel families are non-increasing between events. It is carried
    in ``clock_f[CK_BOUND]``, so each proposal evaluates the intensity
    once, at its candidate time: a rejected candidate leaves the bound at
    the intensity just computed, an accepted event of type j at that
    intensity plus the event's jump (``a3[2][j]`` for exponential
    kernels, the column sum of ``alpha_pl`` for power-law ones: the
    kernel at age 0). Only when the slot is nan (a new clock, or after
    ``HawkesClock.apply_event``) is the intensity at ``now`` evaluated.
    A candidate intensity above the bound by more than a relative
    ``BOUND_RTOL`` would bias the sampler and raises ``ValueError``.

    An exponential candidate goes through the decay pass, and an
    accepted event writes its decayed slots plus the jumps into ``exc``,
    as ``register_event`` does, with no second ``exp`` pass; a power-law
    candidate goes through ``intensities_at``. Both share one accept path.
    """
    d = len(mu)
    dec = [0.0] * (d * len(exc[0]))
    while True:
        if math.isnan(clock_f[CK_PEND_T]):
            if math.isnan(clock_f[CK_BOUND]):
                clock_f[CK_BOUND] = intensities_at(
                    kind, mu, a1, a2, a3, horizon, exc, clock_f, clock_i,
                    counts, log_t, log_e, clock_f[CK_NOW], lam_buf)
            lam_bar = clock_f[CK_BOUND]
            if lam_bar <= 0.0:
                clock_f[CK_NOW] = t_max
                return t_max, -1
            u = rng_uniform(rng)
            clock_f[CK_PEND_T] = clock_f[CK_NOW] - math.log(u) / lam_bar
        t_cand = clock_f[CK_PEND_T]
        if t_cand > t_max:
            clock_f[CK_NOW] = t_max
            return t_max, -1
        lam_bar = clock_f[CK_BOUND]
        if kind == KIND_EXP:
            lam_tot = _decay(mu, a3, exc, t_cand - clock_f[CK_ANCHOR],
                             lam_buf, dec)
        else:
            lam_tot = intensities_at(
                kind, mu, a1, a2, a3, horizon, exc, clock_f, clock_i,
                counts, log_t, log_e, t_cand, lam_buf)
        if lam_tot - lam_bar > BOUND_RTOL * lam_bar:
            raise ValueError("intensity above the thinning bound: the "
                             "kernel increased between events")
        v = rng_uniform(rng) * lam_bar
        clock_f[CK_NOW] = t_cand
        clock_f[CK_PEND_T] = np.nan
        clock_f[CK_BOUND] = lam_tot
        if v <= lam_tot:
            acc = 0.0
            j_ev = d - 1
            for i in range(d):
                acc += lam_buf[i]
                if v <= acc:
                    j_ev = i
                    break
            if kind == KIND_EXP:
                _add_jump(a1, exc, dec, j_ev)
                jump = a3[2][j_ev]
            else:
                jump = _jump(a1, j_ev)
            _log_event(clock_f, clock_i, counts, log_t, log_e, t_cand, j_ev)
            clock_f[CK_BOUND] = lam_tot + jump
            return t_cand, j_ev


def history_counts(kind, mu, a1, a2, a3, horizon, exc, clock_f, clock_i,
                   counts, log_t, log_e, window, out):
    """Per-type event counts over [now - window, now], into ``out[:d]``.

    A full walk of the log, newest entry first, over at most
    ``log_capacity`` entries. ``HawkesClock.history`` slides its counts
    from one query to the next and calls this only to recount (a new
    window, or a writer that lapped the oldest counted entry); it is also
    the reference the sliding counts are tested against.
    """
    for i in range(len(counts)):
        out[i] = 0
    cap = len(log_t)
    now = clock_f[CK_NOW]
    log_next = clock_i[CK_LOG_NEXT]
    for k in range(clock_i[CK_LOG_SIZE]):
        idx = (log_next - 1 - k) % cap
        if now - log_t[idx] > window:
            break
        out[log_e[idx]] += 1


# ---------------------------------------------------------------------------
# Book transitions
# ---------------------------------------------------------------------------

def _promote_resolved(book, is_ask, redraw_val):
    """Second level becomes best after the top queue empties."""
    iq, iqd, _, ip, step = SIDE[is_ask]
    book[ip] += step
    book[iq] = book[iqd]
    book[iqd] = redraw_val


def apply_exogenous_resolved(book, cash, act_kind, is_ask, tick,
                             hit, redraw_val):
    """Apply one exogenous event with all randomness resolved.

    ``hit`` resolves the cancel-targeting Bernoulli draws, ``redraw_val``
    the geometric queue redraw on promotion; both are ignored by branches
    that do not need them. Returns 0 (no agent fill), 1 (ask-side fill) or
    2 (bid-side fill).

    Modelling rules beyond the raw difference equations: in-spread orders
    are no-ops at a one-tick spread; a cancel never removes the last
    visible order of a level when that order is the agent's (the agent's
    orders belong to the agent) nor the last second-level order (the
    two-level window keeps q >= 1); a deep-resting agent order survives an
    in-spread arrival with its priority clamped to the visible window.
    """
    iq, iqd, inn, ip, step = SIDE[is_ask]

    if act_kind == KIND_LO_D:
        book[iqd] += 1
        return 0

    if act_kind == KIND_LO_T:
        book[iq] += 1
        return 0

    if act_kind == KIND_IS:
        if book[PA] - book[PB] <= 1:
            return 0
        book[ip] -= step
        q_prev = book[iq]
        book[iqd] = q_prev
        book[iq] = 1
        if book[inn] >= 0:
            n_new = book[inn] + 1
            bound = 1 + q_prev
            if n_new > bound:
                n_new = bound
            book[inn] = n_new
        return 0

    if act_kind == KIND_CO_T:
        q = book[iq]
        n = book[inn]
        if q == 1:
            if n == 0:
                return 0
            if n > 0:
                book[inn] = n - 1
            _promote_resolved(book, is_ask, redraw_val)
            return 0
        if n >= 0:
            if n >= q:
                book[inn] = n - 1
            elif n > 0 and hit == 1:
                book[inn] = n - 1
        book[iq] = q - 1
        return 0

    if act_kind == KIND_CO_D:
        qd = book[iqd]
        if qd == 1:
            return 0
        n = book[inn]
        if n > book[iq] and hit == 1:
            book[inn] = n - 1
        book[iqd] = qd - 1
        return 0

    # KIND_MO
    n = book[inn]
    fill = 0
    if n == 0:
        # The step multiplies the rounded product, so the bid's cash has
        # the bits of ``cash - price * tick``, signed zeros included.
        cash[0] += book[ip] * tick * step
        book[YINV] -= step
        fill = 2 - is_ask
        book[inn] = -1
    elif n > 0:
        book[inn] = n - 1
    if book[iq] == 1:
        _promote_resolved(book, is_ask, redraw_val)
    else:
        book[iq] -= 1
    return fill


def exogenous_draws(book, act_kind, is_ask):
    """``(p_hit, redraw)`` of an exogenous event: a cancel-targeting
    uniform (drawn when ``p_hit`` > 0) hits with probability ``p_hit``,
    then a geometric queue redraw follows when ``redraw`` is 1."""
    iq, iqd, inn, _, _ = SIDE[is_ask]
    q = book[iq]
    n = book[inn]
    if act_kind == KIND_CO_T:
        if q > 1 and 0 < n < q:
            return n / q, 0
        if q == 1 and n != 0:
            return 0.0, 1
    elif act_kind == KIND_CO_D:
        if book[iqd] > 1 and n > q:
            return (n - q) / book[iqd], 0
    elif act_kind == KIND_MO:
        if q == 1:
            return 0.0, 1
    return 0.0, 0


def _sample_draws(rng, p_hit, redraw, redraw_p):
    """Resolve ``(p_hit, redraw)`` into ``(hit, redraw_val)``."""
    hit = 0
    if p_hit > 0.0 and rng_uniform(rng) < p_hit:
        hit = 1
    redraw_val = 1
    if redraw == 1:
        redraw_val = 1 + rng_geometric(rng, redraw_p)
    return hit, redraw_val


def apply_exogenous(book, cash, event, tick, redraw_p, rng):
    """Sample the event's randomness per the draw discipline, then apply."""
    act_kind = EVENT_KIND[event]
    is_ask = EVENT_SIDE[event]
    p_hit, redraw = exogenous_draws(book, act_kind, is_ask)
    hit, redraw_val = _sample_draws(rng, p_hit, redraw, redraw_p)
    return apply_exogenous_resolved(book, cash, act_kind, is_ask, tick,
                                    hit, redraw_val)


def apply_impulse_resolved(book, cash, act_kind, is_ask, tick, redraw_val):
    """Apply one agent impulse with randomness resolved; returns K (cash).

    Admissibility must hold (checked by the caller). K is the signed
    instantaneous cash flow: zero for limit and cancel impulses, the
    trade's cash leg for market-order impulses.
    """
    iq, iqd, inn, ip, step = SIDE[is_ask]

    if act_kind == KIND_LO_T:
        book[inn] = book[iq]
        book[iq] += 1
        return 0.0

    if act_kind == KIND_LO_D:
        book[inn] = book[iq] + book[iqd]
        book[iqd] += 1
        return 0.0

    if act_kind == KIND_IS:
        book[ip] -= step
        book[iqd] = book[iq]
        book[iq] = 1
        book[inn] = 0
        return 0.0

    if act_kind == KIND_CO_T:
        n = book[inn]
        q = book[iq]
        book[inn] = -1
        if n < q:
            if q == 1:
                _promote_resolved(book, is_ask, redraw_val)
            else:
                book[iq] = q - 1
        else:
            if book[iqd] == 1:
                book[iqd] = redraw_val
            else:
                book[iqd] -= 1
        return 0.0

    # KIND_MO: consume one unit at the top of this side's queue.
    k_cash = -step * book[ip] * tick
    cash[0] += k_cash
    book[YINV] += step
    n = book[inn]
    if n > 0:
        book[inn] = n - 1
    if book[iq] == 1:
        _promote_resolved(book, is_ask, redraw_val)
    else:
        book[iq] -= 1
    return k_cash


def impulse_draws(book, act_kind, is_ask):
    """``(p_hit, redraw)`` of an agent impulse; ``p_hit`` is always 0."""
    iq, iqd, inn, _, _ = SIDE[is_ask]
    q = book[iq]
    if act_kind == KIND_CO_T:
        n = book[inn]
        if (n < q and q == 1) or (n >= q and book[iqd] == 1):
            return 0.0, 1
    elif act_kind == KIND_MO:
        if q == 1:
            return 0.0, 1
    return 0.0, 0


def apply_impulse(book, cash, impulse, tick, redraw_p, rng):
    act_kind = IMPULSE_KIND[impulse]
    is_ask = IMPULSE_SIDE[impulse]
    p_hit, redraw = impulse_draws(book, act_kind, is_ask)
    _, redraw_val = _sample_draws(rng, p_hit, redraw, redraw_p)
    return apply_impulse_resolved(book, cash, act_kind, is_ask, tick,
                                  redraw_val)


# ---------------------------------------------------------------------------
# Coupled market advance (environment hot loop)
# ---------------------------------------------------------------------------

def advance_interval(kind, mu, a1, a2, a3, horizon, exc, clock_f, clock_i,
                     counts, log_t, log_e, book, cash, tick, redraw_p, rng,
                     t_end, lam_buf, fill_px):
    """Advance the coupled Hawkes/LOB system to ``t_end``.

    Samples exogenous events by thinning and applies each to the book.
    ``fill_px`` gets the agent's fill price per side (slot 0 ask, slot 1
    bid), nan for a side that did not fill. One slot per side is enough:
    a fill removes the agent's order (its priority becomes -1) and only
    an impulse places a new one, so each side fills at most once between
    two decision instants.
    """
    fill_px[0] = math.nan
    fill_px[1] = math.nan
    while True:
        _, j_ev = next_event(kind, mu, a1, a2, a3, horizon, exc, clock_f,
                             clock_i, counts, log_t, log_e, rng, t_end,
                             lam_buf)
        if j_ev < 0:
            return
        pa_pre = book[PA]
        pb_pre = book[PB]
        fill = apply_exogenous(book, cash, j_ev, tick, redraw_p, rng)
        if fill == 1:
            fill_px[0] = pa_pre * tick
        elif fill == 2:
            fill_px[1] = pb_pre * tick
