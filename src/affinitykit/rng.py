"""Deterministic random numbers for demo parameters and verification runs.

The generator is Knuth's MMIX 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

with doubles drawn from the top 53 bits of each state, uniform on [0, 1).
The constants and the row-major fill order of :meth:`Lcg.matrix` are part
of the command-line interface contract: a given seed produces the same
demo projections and verification instances on every platform.

:meth:`Lcg.matrix` does not step the recurrence once per draw. k steps
from a state s land on ``a^k s + c (a^(k-1) + ... + 1) mod 2**64``, so
with those two coefficients tabulated for k = 1..4096 a whole block of
4096 states is one wrapping ``uint64`` multiply-add of the previous
block's last state. The draws are the same bits, and the generator ends
on the same state, as one ``next_u64`` per draw.
"""

from __future__ import annotations

import functools

import numpy as np

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
_MASK = (1 << 64) - 1
_BLOCK = 4096


@functools.cache
def _jump_table() -> tuple[np.ndarray, np.ndarray]:
    """``a^k`` and ``c (a^(k-1) + ... + 1)`` mod 2**64 at index k - 1, for k = 1.._BLOCK.

    Built on first use, so importing the package does not pay for it.
    """
    mul, add = np.empty(_BLOCK, dtype=np.uint64), np.empty(_BLOCK, dtype=np.uint64)
    m, c = 1, 0
    for k in range(_BLOCK):
        m = (MULTIPLIER * m) & _MASK
        c = (MULTIPLIER * c + INCREMENT) & _MASK
        mul[k], add[k] = m, c
    mul.flags.writeable = add.flags.writeable = False  # shared by every caller
    return mul, add


class Lcg:
    """Seeded MMIX linear congruential generator."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (MULTIPLIER * self.state + INCREMENT) & _MASK
        return self.state

    def randint(self, low: int, high: int) -> int:
        """Uniform integer on [low, high] inclusive."""
        if high < low:
            raise ValueError("empty integer range")
        return low + self.next_u64() % (high - low + 1)

    def matrix(self, rows: int, cols: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Matrix filled row by row with uniform draws on [low, high)."""
        mul, add = _jump_table()
        states = np.empty(rows * cols, dtype=np.uint64)
        # A one-element array, not a numpy scalar: a scalar product that wraps warns.
        last = np.array([self.state], dtype=np.uint64)
        for start in range(0, states.size, _BLOCK):
            block = states[start:start + _BLOCK]
            np.add(mul[:block.size] * last, add[:block.size], out=block)
            last = block[-1:]
        self.state = int(last[0])
        u = (states >> 11).astype(np.float64).reshape(rows, cols)
        return low + (high - low) * (u * 2.0**-53)

    def vector(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self.matrix(1, n, low, high)[0]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of 0..n-1."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint(0, i)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
