"""Block draws equal the scalar stream, and bulk draws use them exactly.

``RandomStream.uniforms(n)`` must return the n uniforms that n calls of
``uniform`` return, bit for bit, and leave the same state words, from any
state of four 32-bit words: seeded states, MWC lanes at or above their
modulus a*2**16 - 1, lanes on (or one step from) their fixed points, and a
zero xorshift word. Network init, minibatch shuffles and SIL sampling draw
their uniforms as blocks; each is checked against the scalar loop it
replaced, written out below.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkeslob import nn
from hawkeslob.ppo import SILBuffer, Transition
from hawkeslob.rng import RandomStream

A_Z, A_W = 36969, 18000
M_Z, M_W = A_Z * 65536 - 1, A_W * 65536 - 1
TOP = 2**32 - 1


def _lane(a, m):
    # m and 0 are fixed points; the two w-lane words b*2**16 + (2**16 - k)
    # with b = k*a - 1 step onto m; words in [m, 2**32) are above the
    # modulus, where the step is not yet a reduction mod m.
    specials = [0, m, m - 1, m + 1, TOP, 1,
                *[(k * a - 1) * 65536 + 65536 - k for k in (2, 3)
                  if k * a - 1 < 65536]]
    return st.one_of(st.sampled_from(specials), st.integers(m, TOP),
                     st.integers(0, TOP))


states = st.tuples(_lane(A_Z, M_Z), _lane(A_W, M_W),
                   st.one_of(st.just(0), st.integers(0, TOP)),
                   st.integers(0, TOP))
# 2n words fill a block of 1, 2, 4, ... words, so sizes near a power of two
# end on a full or an almost empty last doubling.
sizes = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 31, 32, 33, 255, 256,
                                   257, 1499, 4096]),
                  st.integers(0, 5000))


def _twins(seed, words):
    a, b = RandomStream(seed), RandomStream(seed)
    if words is not None:
        a.state[:] = list(words)
        b.state[:] = list(words)
    return a, b


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), words=st.none() | states, n=sizes,
       before=st.integers(0, 3), after=st.integers(0, 3))
def test_uniforms_equal_scalar_draws(seed, words, n, before, after):
    block, scalar = _twins(seed, words)
    head = [block.uniform() for _ in range(before)]
    assert head == [scalar.uniform() for _ in range(before)]

    got = block.uniforms(n)
    ref = [scalar.uniform() for _ in range(n)]
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got, np.array(ref, dtype=np.float64))
    assert block.state == scalar.state
    assert all(type(w) is int for w in block.state)
    assert ([block.uniform() for _ in range(after)]
            == [scalar.uniform() for _ in range(after)])


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 256, 1499, 1984, 4096])
def test_uniforms_on_seeded_streams(seed, n):
    block, scalar = _twins(seed, None)
    assert np.array_equal(block.uniforms(n),
                          [scalar.uniform() for _ in range(n)])
    assert block.state == scalar.state


def _xavier_loop(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = np.empty((fan_in, fan_out))
    for i in range(fan_in):
        for j in range(fan_out):
            w[i, j] = (2.0 * rng.uniform() - 1.0) * limit
    return w


@pytest.mark.parametrize("fan_in, fan_out", [(1, 1), (3, 5), (30, 64),
                                             (64, 64), (64, 4)])
def test_xavier_uniform_matches_scalar_loop(fan_in, fan_out):
    block, scalar = _twins(11, None)
    assert np.array_equal(nn._xavier_uniform(block, fan_in, fan_out),
                          _xavier_loop(scalar, fan_in, fan_out))
    assert block.state == scalar.state


def _permutation_loop(rng, n):
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.integer(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("n", [0, 1, 2, 3, 49, 50, 257, 1500])
def test_permutation_matches_scalar_loop(n):
    block, scalar = _twins(n + 3, None)
    perm = block.permutation(n)
    assert perm.dtype == np.int64
    assert perm.tolist() == _permutation_loop(scalar, n)
    assert block.state == scalar.state


def _filled_buffer(size):
    buf = SILBuffer(capacity=size)
    for r in range(size):
        buf.add(Transition(features=np.zeros(1), decision=0, action=-1,
                           logp=0.0, reward=0.0, value=0.0,
                           mask=np.ones(4, dtype=bool), ret=float(r)))
    return buf


@pytest.mark.parametrize("size, k", [(1, 5), (8, 0), (8, 5), (8, 100),
                                     (300, 256), (4096, 256)])
def test_sil_sample_matches_scalar_loop(size, k):
    buf = _filled_buffer(size)
    block, scalar = _twins(40 + k, None)
    ref = [buf._heap[scalar.integer(len(buf))][2] for _ in range(k)]
    got = buf.sample(block, k)
    assert len(got) == k and all(a is b for a, b in zip(got, ref))
    assert block.state == scalar.state


def test_sil_sample_on_empty_buffer_draws_nothing():
    rng = RandomStream(3)
    before = list(rng.state)
    assert SILBuffer(4).sample(rng, 5) == []
    assert rng.state == before


BAD_COUNTS = [-1, -3, 2.0, 2.5, "3", None, True]


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
def test_bad_draw_counts_are_refused(bad):
    rng = RandomStream(1)
    before = list(rng.state)
    with pytest.raises(ValueError, match=rf"\bn\b.*{bad!r}"):
        rng.uniforms(bad)
    with pytest.raises(ValueError, match=rf"\bn\b.*{bad!r}"):
        rng.permutation(bad)
    with pytest.raises(ValueError, match=rf"\bk\b.*{bad!r}"):
        _filled_buffer(4).sample(rng, bad)
    assert rng.state == before


def test_import_builds_no_table_and_a_block_only_what_it_needs():
    n = 4096
    code = ("import hawkeslob, hawkeslob.cli, hawkeslob.ppo, hawkeslob.sweep\n"
            "from hawkeslob import rng\n"
            "print(len(rng._LEVELS))\n"
            f"rng.RandomStream(7).uniforms({n})\n"
            "print(len(rng._LEVELS))\n")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    at_import, after_block = map(int, result.stdout.split())
    assert at_import == 0
    # 2n words: one scalar step, then each level doubles the filled block.
    assert after_block == (2 * n - 1).bit_length()


@pytest.mark.parametrize("words", [(2**32, 5, 7, 9), (5, 2**40 + 3, 7, 9),
                                   (5, 7, 2**33, 9), (5, 7, 9, 2**32 + 1)])
def test_words_past_32_bits_give_the_scalar_draws(words):
    block, scalar = _twins(0, words)
    assert np.array_equal(block.uniforms(300),
                          [scalar.uniform() for _ in range(300)])
    assert block.state == scalar.state
