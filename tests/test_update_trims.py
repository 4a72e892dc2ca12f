"""The PPO update's bit-identical trims.

``BlockStream.uniforms(n)`` with fewer than n values pending draws what is
missing and fills the block in one jump ahead, handing out a plain
stream's values; ``_add_grads`` sums into its second argument in place,
with the bits of ``dw1 + coef * dw2``; ``masked_log_softmax`` gives a row
the same bits whether or not another row of its batch has no admissible
entry. ``tests/test_param_block.py`` holds ``adam_step`` to the per-layer
formula bit for bit.
"""

import numpy as np
import pytest

from hawkeslob.ppo import N_ACTIONS, _add_grads, masked_log_softmax
from hawkeslob.rng import BLOCK, BlockStream, RandomStream


@pytest.mark.parametrize("seed", [0, 23, 2**64 - 1])
def test_short_draw_fills_the_block(seed):
    stream = BlockStream(seed)
    got = stream.uniforms(256)
    assert len(stream._ahead) == BLOCK - 256
    plain = RandomStream(seed)
    assert np.array_equal(got, plain.uniforms(256))
    assert [stream.uniform() for _ in range(3)] == \
        [plain.uniform() for _ in range(3)]


def test_long_draw_leaves_nothing_pending():
    stream = BlockStream(5)
    got = stream.uniforms(BLOCK + 5)
    assert stream._ahead == []
    plain = RandomStream(5)
    assert np.array_equal(got, plain.uniforms(BLOCK + 5))
    assert stream.state == plain.state


def test_draw_past_pending_takes_them_first():
    stream = BlockStream(9)
    stream.uniforms(BLOCK - 10)
    got = stream.uniforms(30)
    assert len(stream._ahead) == BLOCK - 20
    plain = RandomStream(9)
    plain.uniforms(BLOCK - 10)
    assert np.array_equal(got, plain.uniforms(30))


def test_add_grads_in_place_is_the_formula():
    gen = np.random.default_rng(4)
    shapes = [((5, 3), (3,)), ((3, 1), (1,))]
    a = [(gen.normal(size=w), gen.normal(size=b)) for w, b in shapes]
    b = [(gen.normal(size=w) * 1e3, gen.normal(size=b) * 1e-3)
         for w, b in shapes]
    coef = 0.1
    expected = [(dw1 + coef * dw2, db1 + coef * db2)
                for (dw1, db1), (dw2, db2) in zip(a, b)]
    targets = [id(x) for pair in b for x in pair]
    out = _add_grads(a, b, coef)
    assert out is b and [id(x) for pair in out for x in pair] == targets
    for (dw, db), (ew, eb) in zip(out, expected):
        assert np.array_equal(dw, ew) and np.array_equal(db, eb)


def test_log_softmax_rows_keep_their_bits_without_the_gather():
    gen = np.random.default_rng(8)
    logits = gen.normal(size=(30, N_ACTIONS)) * 5.0
    masks = gen.random((30, N_ACTIONS)) < 0.6
    masks[np.arange(30), gen.integers(N_ACTIONS, size=30)] = True
    whole = masked_log_softmax(logits, masks)
    padded = masked_log_softmax(
        np.vstack([logits, np.zeros((1, N_ACTIONS))]),
        np.vstack([masks, np.zeros((1, N_ACTIONS), dtype=bool)]))
    assert np.array_equal(whole, padded[:-1])
    assert np.isneginf(padded[-1]).all()
