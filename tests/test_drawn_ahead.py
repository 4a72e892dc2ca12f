"""``BlockStream`` hands out the values of a plain stream of the same seed.

Any interleaving of ``uniform``, ``uniforms(n)``, ``integer`` and
``permutation`` on a ``BlockStream`` returns, bit for bit, what the same
calls return on a ``RandomStream`` of the same seed, with blocks of the
shipped size and with blocks small enough that refills land inside
``uniforms`` and ``permutation`` calls. ``spawn``, ``normal`` and
``geometric`` read the state words, so they raise while drawn-ahead values
are pending, and act as on a plain stream when none are.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkeslob import rng as rng_mod
from hawkeslob.rng import BlockStream, RandomStream

calls = st.lists(
    st.one_of(st.tuples(st.just("uniform"), st.just(0)),
              st.tuples(st.just("uniforms"), st.integers(0, 40)),
              st.tuples(st.just("integer"), st.integers(1, 9)),
              st.tuples(st.just("permutation"), st.integers(0, 40))),
    max_size=60)


def _call(stream, name, n):
    if name == "uniform":
        return [stream.uniform()]
    if name == "integer":
        return [stream.integer(n)]
    return getattr(stream, name)(n).tolist()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), block=st.sampled_from([1, 2, 7, 64,
                                                              None]),
       sequence=calls)
def test_block_stream_matches_plain_stream(seed, block, sequence):
    shipped = rng_mod.BLOCK
    rng_mod.BLOCK = block or shipped
    try:
        ahead, plain = BlockStream(seed), RandomStream(seed)
        for name, n in sequence:
            got, want = _call(ahead, name, n), _call(plain, name, n)
            assert got == want, (name, n)
    finally:
        rng_mod.BLOCK = shipped
    # Taking every pending value leaves both streams on the same words.
    pending = len(ahead._ahead)
    assert ahead.uniforms(pending).tolist() == plain.uniforms(pending).tolist()
    assert ahead.state == plain.state


def test_uniforms_return_float64_arrays():
    stream = BlockStream(3)
    stream.uniform()
    for n in (0, 1, rng_mod.BLOCK - 1, rng_mod.BLOCK + 5):
        out = stream.uniforms(n)
        assert out.dtype == np.float64 and out.shape == (n,)


def test_state_readers_raise_while_values_are_pending():
    stream = BlockStream(11)
    child = stream.spawn(0).uniform()  # nothing drawn yet: a plain spawn
    assert child == RandomStream(11).spawn(0).uniform()
    stream.uniform()
    with pytest.raises(RuntimeError, match="spawn"):
        stream.spawn(0)
    with pytest.raises(RuntimeError, match="normal"):
        stream.normal()
    with pytest.raises(RuntimeError, match="geometric"):
        stream.geometric(0.5)
    stream.uniforms(len(stream._ahead))
    plain = RandomStream(11)
    plain.uniforms(rng_mod.BLOCK)
    assert stream.normal() == plain.normal()
