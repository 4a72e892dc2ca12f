"""The exponential clock against a per-slot loop that shares no code with
it, bit for bit.

The reference builds its own slots from ``alpha`` and ``gamma`` (row i's
slots are the distinct decays over the sources j with alpha_ij != 0, in
increasing order), keeps its own excitation and anchor, and takes one
``exp`` per row and slot. It calls none of ``_kernels`` and reads nothing
of the clock's state, so a last-bit change in the decay pass or the jump
write-back shows as a mismatch in ``HawkesClock.intensities`` or in the
excitation after ``HawkesClock.apply_event``.
"""

import math

import numpy as np
import pytest

from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import KernelParams, default_kernel_params


def _row_decay_params() -> KernelParams:
    """One decay per row, different across rows (m = 1)."""
    d = 4
    alpha = np.full((d, d), 0.15)
    alpha[0, 2] = 0.0
    gamma = np.repeat([[0.7], [1.3], [2.9], [0.4]], d, axis=1)
    return KernelParams(kind="exponential", mu=[0.3, 0.5, 0.2, 0.4],
                        alpha=alpha, gamma=gamma)


def _mixed_params() -> KernelParams:
    """Several decays per row, shared decays within a row, and a
    zero-alpha source whose decay opens no slot (m = 3)."""
    alpha = [[0.30, 0.20, 0.10, 0.05],
             [0.20, 0.30, 0.25, 0.00],
             [0.40, 0.10, 0.00, 0.10],
             [0.05, 0.05, 0.05, 0.05]]
    gamma = [[1.5, 1.5, 1.5, 0.9],
             [0.8, 2.0, 3.5, 9.0],
             [1.2, 1.2, 5.0, 2.5],
             [1.1, 1.1, 1.1, 1.1]]
    return KernelParams(kind="exponential", mu=[0.5, 0.3, 0.4, 0.2],
                        alpha=alpha, gamma=gamma)


KERNELS = {"default": default_kernel_params, "row-decay": _row_decay_params,
           "mixed": _mixed_params}


class PerSlotClock:
    """Excitation per row and slot, decayed from the last event time."""

    def __init__(self, params: KernelParams):
        self.mu = params.mu.tolist()
        alpha = params.alpha.tolist()
        gamma = params.gamma.tolist()
        self.decays = [sorted({gamma[i][j] for j in range(len(alpha))
                               if alpha[i][j] != 0.0})
                       for i in range(len(alpha))]
        # jumps[j][i][k]: what an event of type j adds to row i, slot k.
        self.jumps = [[[alpha[i][j] if alpha[i][j] != 0.0
                        and gamma[i][j] == g else 0.0 for g in row]
                       for i, row in enumerate(self.decays)]
                      for j in range(len(alpha))]
        self.exc = [[0.0] * len(row) for row in self.decays]
        self.anchor = 0.0

    def _decayed(self, t):
        dt = t - self.anchor
        return [[e * math.exp(-g * dt) if e != 0.0 else e
                 for e, g in zip(row, decays)]
                for row, decays in zip(self.exc, self.decays)]

    def intensities(self, t):
        out = []
        for mu, row in zip(self.mu, self._decayed(t)):
            s = mu
            for e in row:
                if e != 0.0:
                    s += e
            out.append(s)
        return out

    def apply_event(self, j, t):
        self.exc = [[e + a for e, a in zip(row, jumps)]
                    for row, jumps in zip(self._decayed(t), self.jumps[j])]
        self.anchor = t


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_clock_gives_the_bits_of_a_per_slot_loop(kernel):
    params = KERNELS[kernel]()
    d = params.n_types
    clock = HawkesClock(params)
    ref = PerSlotClock(params)
    m = np.shape(clock.state[6])[1]  # exc
    gen = np.random.default_rng(31)
    t = 0.0
    for _ in range(300):
        for q in np.sort(t + gen.exponential(0.3, size=2)).tolist():
            assert _bits(clock.intensities(q)) == _bits(ref.intensities(q))
        t += float(gen.exponential(0.15))
        j = int(gen.integers(d))
        clock.apply_event(j, t)
        ref.apply_event(j, t)
        assert _bits(clock.intensities()) == _bits(ref.intensities(t))
        padded = [row + [0.0] * (m - len(row)) for row in ref.exc]
        assert _bits(clock.state[6]) == _bits(padded)
