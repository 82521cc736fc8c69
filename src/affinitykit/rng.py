"""Deterministic random numbers for demo parameters and verification runs.

The generator is Knuth's MMIX 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

with doubles drawn from the top 53 bits of each state, uniform on [0, 1).
The constants and the row-major fill order of :meth:`Lcg.matrix` are part
of the command-line interface contract: a given seed produces the same
demo projections and verification instances on every platform.

:meth:`Lcg.matrix` does not step the recurrence once per draw. k steps
from a state s land on ``a^(k-1) (a s) + c (1 + a + ... + a^(k-1)) mod 2**64``:
the powers are one wrapping ``uint64`` product scan, their running sums
one wrapping cumulative sum, and the states one multiply-add over both.
The draws are the same bits, and the generator ends on the same state,
as one ``next_u64`` per draw.
"""

from __future__ import annotations

import numpy as np

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
_MASK = (1 << 64) - 1


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
        n = rows * cols
        # Every operand a uint64: numpy 1.x computes a uint64 scalar with a Python int in float64.
        powers = np.full(n, MULTIPLIER, dtype=np.uint64)
        powers[:1] = 1
        np.multiply.accumulate(powers, out=powers)  # a^(k-1) at index k - 1
        first = np.uint64(MULTIPLIER * self.state & _MASK)
        states = powers * first + np.uint64(INCREMENT) * np.cumsum(powers, dtype=np.uint64)
        if n:
            self.state = int(states[-1])
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
