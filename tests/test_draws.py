"""The simulator's sampled transitions against the QVI's enumerated branches.

For sampled states, every event and every admissible impulse, the kernel
samplers (``_k.apply_exogenous`` / ``_k.apply_impulse``) run over 200
seeds may only land on post-states that ``qvi`` enumerates, and must hit
every branch of weight >= 0.05 at a frequency within four standard errors
of its weight.
"""

import math
from collections import Counter, defaultdict

from hawkeslob import _kernels as _k
from hawkeslob.book import BookInitConfig, pack_state
from hawkeslob.events import EventType, Impulse
from hawkeslob.intervention import admissible
from hawkeslob.qvi import (exogenous_branches, impulse_branches,
                           sample_reduced_state)
from hawkeslob.rng import RandomStream, derive_seed

N_STATES = 30
N_SEEDS = 200
MIN_WEIGHT = 0.05
REDRAW_P = 0.4


def _key(arr, cash):
    return (*list(arr), float(cash[0]))


def _states():
    rng = RandomStream(11)
    return [sample_reduced_state(BookInitConfig(), rng)
            for _ in range(N_STATES)]


def _branch_weights(branches):
    weights = defaultdict(float)
    for w, book, agent in branches:
        weights[_key(*pack_state(book, agent))] += w
    return weights


def _sampled(book, agent, apply):
    hits = Counter()
    for seed in range(N_SEEDS):
        arr, cash = pack_state(book, agent)
        apply(arr, cash, RandomStream(derive_seed(seed, 0xD2A)).state)
        hits[_key(arr, cash)] += 1
    return hits


def _assert_agree(weights, hits, label):
    outside = set(hits) - set(weights)
    assert not outside, f"{label}: sampled post-states not enumerated"
    for key, w in weights.items():
        if w < MIN_WEIGHT:
            continue
        freq = hits[key] / N_SEEDS
        se = math.sqrt(w * (1.0 - w) / N_SEEDS)
        assert abs(freq - w) <= 4.0 * se, (
            f"{label}: branch of weight {w:.4f} hit at frequency {freq:.4f}")


def test_events_sampler_matches_branches():
    n_branches = Counter()
    for s, (book, agent) in enumerate(_states()):
        for e in EventType:
            branches = exogenous_branches(book, agent, e, REDRAW_P)
            n_branches[min(len(branches), 3)] += 1
            hits = _sampled(book, agent, lambda arr, cash, st: (
                _k.apply_exogenous(arr, cash, int(e), book.tick, REDRAW_P,
                                   st)))
            _assert_agree(_branch_weights(branches), hits,
                          f"state {s}, {e.name}")
    # Both a targeting draw (two branches) and a redraw (more) occur.
    assert n_branches[2] > 0 and n_branches[3] > 0


def test_impulses_sampler_matches_branches():
    n_random = 0
    for s, (book, agent) in enumerate(_states()):
        for psi in Impulse:
            if not admissible(book, agent, psi):
                continue
            branches = impulse_branches(book, agent, psi, REDRAW_P)
            n_random += len(branches) > 1
            hits = _sampled(book, agent, lambda arr, cash, st: (
                _k.apply_impulse(arr, cash, int(psi), book.tick, REDRAW_P,
                                 st)))
            _assert_agree(_branch_weights(branches), hits,
                          f"state {s}, {psi.name}")
    assert n_random > 0
