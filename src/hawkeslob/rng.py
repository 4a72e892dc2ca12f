"""Deterministic random streams.

A thin wrapper over the KISS generator in :mod:`hawkeslob._kernels`. The
same generator drives every stochastic component in the package (thinning,
queue redraws, state sampling, policy sampling, minibatch shuffles), which
makes whole runs reproducible from a single integer seed.

The stream's state is the generator's four words as a list of Python
ints. Every intermediate stays below 2**49, so the draws are those of the
generator on ``uint64`` words.
"""

from __future__ import annotations

import numpy as np

from . import _kernels as _k

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


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
        """Fisher-Yates permutation of range(n)."""
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integer(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)

    def spawn(self, *keys: int) -> "RandomStream":
        """Independent child stream keyed by ``keys``."""
        z, w, jsr, jcong = self.state
        base = z ^ (w << 16) ^ (jsr << 32) ^ (jcong << 48)
        return RandomStream(derive_seed(base, *keys))
