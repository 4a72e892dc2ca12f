"""Deterministic random streams.

A thin wrapper over the KISS generator in :mod:`hawkeslob._kernels`. The
same generator drives every stochastic component in the package (thinning,
queue redraws, state sampling, policy sampling, minibatch shuffles), which
makes whole runs reproducible from a single integer seed.

The stream's state is the generator's four words as a list of Python
ints. Every intermediate stays below 2**49, so the draws are those of the
generator on ``uint64`` words.

``RandomStream.uniforms`` draws a block of uniforms at once, bit for bit
the n uniforms that n calls of ``uniform`` would return, and leaves the
same state. Each part of the generator is a fixed map of its own word,
so its state 2**j steps on is one precomputed map of its state now:

- an MWC lane, z -> a*(z & 0xFFFF) + (z >> 16), is multiplication by a
  (the inverse of 2**16) modulo m = a*2**16 - 1. After one scalar step
  from any 32-bit word, every later word is that product reduced into
  [1, m - 1], unless the lane sits on a fixed point (0 or m);
- the LCG is affine modulo 2**32, and so are its powers;
- the xorshift is linear over GF(2); its 2**j-th power is a 32x32 bit
  matrix, applied one byte at a time through four 256-entry tables.

Starting from the state one scalar step on, level j maps the first 2**j
states to the next 2**j, so a block of n uniforms (2n words) takes
about log2(2n) array passes. Every product is of two words below 2**32,
so ``uint64`` arithmetic is exact. The levels are built on first use,
only as far as a call needs; importing the package builds none.

``BlockStream`` hands out its scalar uniforms from such blocks, drawn
``BLOCK`` at a time, in the order and with the values of a plain stream
of the same seed; its ``uniforms(n)`` draws ahead too, so that a run of
short blocks (PPO's SIL samples and minibatch shuffles) costs one jump
ahead per ``BLOCK`` values rather than one per call. PPO training draws
through one. Every other stream makes its scalar draws one at a time,
because its state words are read between draws: the env's stream, for
one, hands them to the kernels.
"""

from __future__ import annotations

import operator

import numpy as np

from . import _kernels as _k

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# Uniforms a ``BlockStream`` draws ahead at a time. A refill costs about
# a millisecond and lands inside one policy step; training draws one or
# two uniforms a step, so refills land on about one step in 3000. A jump
# ahead of 256 values costs about a quarter of one of 4096, which is why
# ``BlockStream.uniforms`` fills the block when it draws.
BLOCK = 4096


def derive_seed(seed: int, *keys: int) -> int:
    """Derive a child seed from (seed, keys) via a splitmix64 walk.

    Pure-Python integer arithmetic; used to give independent components
    (episodes, sweep cells, rollout streams) their own streams.
    """
    x = seed & _MASK64
    for key in keys:
        x = (x + 0x9E3779B97F4A7C15 * ((key & _MASK64) + 1)) & _MASK64
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        x = z ^ (z >> 31)
    return x


def draw_count(n, name: str = "n") -> int:
    """``n`` as an int; ValueError naming it when it is negative or not an
    integer (a bool counts as not one)."""
    try:
        count = operator.index(n)
    except TypeError:
        count = -1
    if count < 0 or isinstance(n, bool):
        raise ValueError(f"{name} must be a non-negative integer, got {n!r}")
    return count


# --- jump-ahead levels -------------------------------------------------------

_M_Z = _k._A_Z * 65536 - 1
_M_W = _k._A_W * 65536 - 1
# Words are little-endian, so byte b of a word is column b of its byte view.
_WORD = np.dtype("<u8")
_MWC_MOD = np.array([[_M_Z], [_M_W]], dtype=_WORD)
_BYTE_BASE = np.arange(0, 1024, 256)
# Level j holds the maps of 2**j steps: (MWC multipliers [[z], [w]], LCG
# multiplier, LCG increment, xorshift byte tables flattened to 4 x 256).
_LEVELS: list = []


def _xorshift_apply(tables, x):
    """The bit matrix of ``tables`` applied to each word of ``x``."""
    g = tables[x.view(np.uint8).reshape(-1, 8)[:, :4] + _BYTE_BASE]
    return g[:, 0] ^ g[:, 1] ^ g[:, 2] ^ g[:, 3]


def _byte_tables(cols):
    """Tables of the bit matrix with columns ``cols`` (32 words): entry
    256*b + v is the image of byte v placed at byte b."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    return np.bitwise_xor.reduce(
        np.where(bits == 1, cols.reshape(4, 1, 8), _WORD.type(0)),
        axis=2).ravel()


def _level(j: int):
    while len(_LEVELS) <= j:
        if _LEVELS:
            mwc, la, lc, tables = _LEVELS[-1]
            # Column i of the squared matrix is the matrix applied to
            # column i, which is table entry 256*(i // 8) + 2**(i % 8).
            cols = tables[_BYTE_BASE[:, None] + (1 << np.arange(8))].ravel()
            _LEVELS.append((mwc * mwc % _MWC_MOD, la * la & _MASK32,
                            (la * lc + lc) & _MASK32,
                            _byte_tables(_xorshift_apply(tables, cols))))
        else:
            x = _WORD.type(1) << np.arange(32, dtype=_WORD)
            x = (x ^ (x << 17)) & _MASK32
            x = x ^ (x >> 13)
            x = (x ^ (x << 5)) & _MASK32
            _LEVELS.append((np.array([[_k._A_Z], [_k._A_W]], dtype=_WORD),
                            _k._LCG_A, _k._LCG_C, _byte_tables(x)))
    return _LEVELS[j]


class RandomStream:
    """Seeded stream of uniforms, normals and geometric draws."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = [0, 0, 0, 0]
        seed = seed & _MASK64
        _k.rng_seed(self.state, seed & _MASK32, seed >> 32)

    def uniform(self) -> float:
        """Uniform in (0, 1]."""
        return _k.rng_uniform(self.state)

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms as a float64 array: the values, and the
        state left behind, of ``n`` calls of ``uniform``."""
        n = draw_count(n)
        st = self.state
        # No draw leaves a word outside 32 bits; one set there directly
        # takes the scalar loop.
        if n == 0 or not all(0 <= v <= _MASK32 for v in st):
            return np.array([_k.rng_uniform(st) for _ in range(n)],
                            dtype=np.float64)
        _k._rng_next32(st)
        size = 2 * n
        words = np.empty((4, size), dtype=_WORD)
        words[:, 0] = st
        filled = 1
        while filled < size:
            mwc, la, lc, tables = _level(filled.bit_length() - 1)
            k = min(filled, size - filled)
            src = words[:, :k]
            dst = words[:, filled:filled + k]
            np.remainder(src[:2] * mwc, _MWC_MOD, out=dst[:2])
            dst[2] = _xorshift_apply(tables, src[2])
            np.bitwise_and(src[3] * la + lc, _MASK32, out=dst[3])
            filled += k
        # A lane on its fixed point m stays there; the product reads 0.
        for lane, m in ((0, _M_Z), (1, _M_W)):
            if words[lane, 0] == m:
                words[lane] = m
        z, w, jsr, jcong = words
        out = (((((z & 0xFFFF) << 16) + w) & _MASK32 ^ jcong) + jsr) \
            & _MASK32
        st[:] = words[:, -1].tolist()
        return (((out[0::2] >> 5) << 26) + (out[1::2] >> 6) + 1
                ).astype(np.float64) * _k._INV53

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return mean + std * _k.rng_normal(self.state)

    def geometric(self, p: float) -> int:
        """Failures before first success, support {0, 1, ...}."""
        return _k.rng_geometric(self.state, p)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        u = self.uniform()
        k = int(u * n)
        return n - 1 if k >= n else k

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n).

        Position i, from n - 1 down to 1, swaps with ``integer(i + 1)``
        of the next uniform; the n - 1 uniforms are drawn as one block.
        """
        n = draw_count(n)
        top = np.arange(n - 1, 0, -1)
        picks = np.minimum((self.uniforms(top.size) * (top + 1))
                           .astype(np.int64), top)
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)

    def spawn(self, *keys: int) -> "RandomStream":
        """Independent child stream keyed by ``keys``."""
        z, w, jsr, jcong = self.state
        base = z ^ (w << 16) ^ (jsr << 32) ^ (jcong << 48)
        return RandomStream(derive_seed(base, *keys))


class BlockStream(RandomStream):
    """A ``RandomStream`` whose ``uniform`` hands out values drawn ahead
    with ``uniforms``, ``BLOCK`` at a time: the values of a plain stream
    of the same seed, in the same order.

    ``uniforms(n)`` takes the values drawn ahead first; when fewer than
    n are pending, it draws what is missing and fills the block in the
    same jump ahead, ``max(n - pending, BLOCK)`` values, and leaves the
    rest pending. ``state`` holds the words after the last value drawn
    ahead, so ``spawn``, ``normal`` and ``geometric``, which read the
    words, raise while values are pending.
    """

    __slots__ = ("_ahead",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self._ahead: list = []  # pending uniforms, the next one last

    def uniform(self) -> float:
        ahead = self._ahead
        if not ahead:
            ahead += RandomStream.uniforms(self, BLOCK)[::-1].tolist()
        return ahead.pop()

    def uniforms(self, n: int) -> np.ndarray:
        n = draw_count(n)
        ahead = self._ahead
        if len(ahead) < n:
            fresh = RandomStream.uniforms(self, max(n - len(ahead), BLOCK))
            ahead[:0] = fresh[::-1].tolist()
        cut = len(ahead) - n
        out = np.array(ahead[cut:][::-1], dtype=np.float64)
        del ahead[cut:]
        return out

    def _settled(self, what: str) -> None:
        if self._ahead:
            raise RuntimeError(f"{what} reads the state words, which are "
                               f"{len(self._ahead)} uniforms ahead")

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        self._settled("normal")
        return super().normal(mean, std)

    def geometric(self, p: float) -> int:
        self._settled("geometric")
        return super().geometric(p)

    def spawn(self, *keys: int) -> "RandomStream":
        self._settled("spawn")
        return super().spawn(*keys)
