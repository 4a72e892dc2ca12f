"""The KISS generator gives the same bits in every state layout.

The reference below is the generator on numpy ``uint64`` scalars and a
``uint64[4]`` state. ``RandomStream`` keeps its state as a list of four
Python ints; every draw it makes must equal the reference bit for bit,
and the kernels that take ``rng.state`` must accept it and advance it as
the reference does.
"""

import math

import numpy as np
import pytest

from hawkeslob import _kernels as _k
from hawkeslob.book import BookInitConfig, pack_state
from hawkeslob.events import Impulse
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import default_kernel_params
from hawkeslob.qvi import sample_reduced_state
from hawkeslob.rng import RandomStream, derive_seed

SEEDS = [0, 2**32 - 1, 2**63 + 5, 2**64 - 1]
N_DRAWS = 2000

_U = np.uint64
_M16, _M32 = _U(0xFFFF), _U(0xFFFFFFFF)


def _ref_next32(st):
    st[0] = _U(36969) * (st[0] & _M16) + (st[0] >> _U(16))
    st[1] = _U(18000) * (st[1] & _M16) + (st[1] >> _U(16))
    mwc = (((st[0] & _M32) << _U(16)) + st[1]) & _M32
    j = st[2]
    j = (j ^ ((j << _U(17)) & _M32)) & _M32
    j = j ^ (j >> _U(13))
    j = (j ^ ((j << _U(5)) & _M32)) & _M32
    st[2] = j
    st[3] = (_U(69069) * st[3] + _U(1234567)) & _M32
    return ((mwc ^ st[3]) + j) & _M32


def _ref_wash32(x):
    for _ in range(3):
        x = (_U(69069) * x + _U(1234567)) & _M32
        x = x ^ (x >> _U(13))
        x = (x ^ ((x << _U(17)) & _M32)) & _M32
    return x


def _ref_seed(seed):
    seed &= (1 << 64) - 1
    lo, hi = _U(seed & 0xFFFFFFFF), _U(seed >> 32)
    c1, c2, c3, c4 = (_U(0x9E3779B9), _U(0x85EBCA6B), _U(0xC2B2AE35),
                      _U(0x27D4EB2F))
    st = np.empty(4, np.uint64)
    st[0] = _ref_wash32(lo ^ c1) or c1
    st[1] = _ref_wash32(hi ^ c2) or c2
    st[2] = _ref_wash32(lo ^ hi ^ c3) or c3
    st[3] = _ref_wash32(((lo + hi) & _M32) ^ c4)
    for _ in range(8):
        _ref_next32(st)
    return st


def _ref_uniform(st):
    hi = _ref_next32(st) >> _U(5)
    lo = _ref_next32(st) >> _U(6)
    return (float(hi) * 67108864.0 + float(lo) + 1.0) \
        / 9007199254740992.0


def _ref_integer(st, n):
    k = int(_ref_uniform(st) * n)
    return n - 1 if k >= n else k


def _words(state):
    return [int(w) for w in state]


@pytest.mark.parametrize("seed", SEEDS)
class TestStreamMatchesUint64Reference:
    def test_seed_words(self, seed):
        assert _words(RandomStream(seed).state) == _words(_ref_seed(seed))

    def test_uniform(self, seed):
        rng, ref = RandomStream(seed), _ref_seed(seed)
        got = [rng.uniform() for _ in range(N_DRAWS)]
        assert got == [_ref_uniform(ref) for _ in range(N_DRAWS)]
        assert _words(rng.state) == _words(ref)

    def test_normal_geometric_integer(self, seed):
        rng, ref = RandomStream(seed), _ref_seed(seed)
        for k in range(300):
            mean, std = 0.5 * k, 1.0 + 0.01 * k
            u1, u2 = _ref_uniform(ref), _ref_uniform(ref)
            assert rng.normal(mean, std) == mean + std * (
                math.sqrt(-2.0 * math.log(u1))
                * math.cos(6.283185307179586 * u2))
            p = 0.05 + 0.003 * k
            assert rng.geometric(p) == int(math.floor(
                math.log(_ref_uniform(ref)) / math.log1p(-p)))
            assert rng.integer(k + 1) == _ref_integer(ref, k + 1)
        assert _words(rng.state) == _words(ref)

    def test_permutation(self, seed):
        rng, ref = RandomStream(seed), _ref_seed(seed)
        for n in (0, 1, 2, 7, 300):
            perm = rng.permutation(n)
            idx = list(range(n))
            for i in range(n - 1, 0, -1):
                j = _ref_integer(ref, i + 1)
                idx[i], idx[j] = idx[j], idx[i]
            assert perm.dtype == np.int64
            assert perm.tolist() == idx

    def test_spawn(self, seed):
        rng, ref = RandomStream(seed), _ref_seed(seed)
        rng.uniform()
        _ref_uniform(ref)
        w = _words(ref)
        base = w[0] ^ (w[1] << 16) ^ (w[2] << 32) ^ (w[3] << 48)
        child = rng.spawn(3, 9)
        ref_child = _ref_seed(derive_seed(base, 3, 9))
        assert [child.uniform() for _ in range(50)] == \
            [_ref_uniform(ref_child) for _ in range(50)]


class TestKernelsTakeTheState:
    def test_apply_impulse_draws_like_the_reference(self):
        # A market buy into a one-order ask queue promotes the second level
        # and redraws its size: one geometric draw from the stream.
        rng = RandomStream(derive_seed(5, 0xD2A))
        for seed in range(20):
            book, agent = sample_reduced_state(BookInitConfig(),
                                               RandomStream(seed))
            arr, cash = pack_state(book, agent)
            arr[_k.QA] = 1
            ref = np.array(_words(rng.state), np.uint64)
            _k.apply_impulse(arr, cash, int(Impulse.MO_ASK), 0.01, 0.4,
                             rng.state)
            assert arr[_k.QAD] == 1 + int(math.floor(
                math.log(_ref_uniform(ref)) / math.log1p(-0.4)))
            assert _words(rng.state) == _words(ref)

    def test_sample_next_event_consumes_the_stream(self):
        params = default_kernel_params()
        a, b = HawkesClock(params), HawkesClock(params)
        rng, twin = RandomStream(21), RandomStream(21)
        ref = _ref_seed(21)
        events = [a.sample_next_event(5.0, rng) for _ in range(20)]
        assert all(ev is not None for ev in events)
        times, types = b.simulate(events[-1][0], twin)
        assert [t for t, _ in events] == times.tolist()
        assert [int(e) for _, e in events] == types.tolist()
        # Two uniforms of two 32-bit outputs each per proposal: the stream
        # sits a multiple of four outputs past the reference seed.
        n = 0
        while _words(ref) != _words(rng.state):
            _ref_next32(ref)
            n += 1
            assert n < 10_000
        assert n % 4 == 0
