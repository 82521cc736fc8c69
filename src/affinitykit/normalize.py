"""Turning raw affinity scores into usable weight matrices.

Row softmax (optionally scaled by sqrt(d_k)), neighborhood-masked
softmax, symmetric degree normalization, and the spectral-radius
machinery that bounds the path-series decay parameter alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import as_matrix
from .affinity import AffinityMatrix
from .errors import (
    ConvergenceBoundError,
    DimensionMismatch,
    EmptyNeighborhood,
    NegativeEntries,
    NonConvergence,
    ZeroDegreeRow,
)


@dataclass(frozen=True)
class NeighborhoodMask:
    """Boolean N x N table; allowed[i, j] means j is a neighbor of i."""

    allowed: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.allowed, dtype=bool)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise DimensionMismatch(f"mask must be square, got shape {table.shape}")
        if not table.any(axis=1).all():
            empty = int(np.flatnonzero(~table.any(axis=1))[0])
            raise EmptyNeighborhood(f"row {empty} allows no neighbors")
        object.__setattr__(self, "allowed", table)

    @property
    def n(self) -> int:
        return self.allowed.shape[0]

    @classmethod
    def full(cls, n: int) -> "NeighborhoodMask":
        return cls(np.ones((n, n), dtype=bool))


@dataclass(frozen=True)
class AlphaScaling:
    """Decay parameter alpha paired with the spectral radius it was sized to.

    Construction enforces alpha * rho < 1 strictly, the condition for
    the affinity power series to converge.
    """

    alpha: float
    rho: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.rho < 0 or not math.isfinite(self.rho):
            raise ValueError(f"rho must be a finite nonnegative real, got {self.rho}")
        if not self.alpha * self.rho < 1.0:
            raise ConvergenceBoundError(
                f"alpha * rho = {self.alpha * self.rho} is not strictly below 1"
            )


def softmax_rows(S, *, _checked: bool = False) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety."""
    scores = S if _checked else as_matrix(S, "scores")
    weights = scores - scores.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def scale_scores(S, d_k: int, *, _checked: bool = False) -> np.ndarray:
    """Divide every score by sqrt(d_k)."""
    scores = S if _checked else as_matrix(S, "scores")
    if int(d_k) != d_k or d_k < 1:
        raise ValueError(f"d_k must be a positive integer, got {d_k}")
    return scores / math.sqrt(d_k)


def masked_softmax_rows(S, mask: NeighborhoodMask, *, _checked: bool = False) -> np.ndarray:
    """Row softmax restricted to each row's allowed neighborhood.

    Disallowed scores are treated as -inf before exponentiation, so the
    corresponding weights are exactly zero and every row remains a true
    softmax over its neighborhood.
    """
    scores = S if _checked else as_matrix(S, "scores")
    if mask.allowed.shape != scores.shape:
        raise DimensionMismatch(
            f"mask shape {mask.allowed.shape} does not match scores {scores.shape}"
        )
    return softmax_rows(np.where(mask.allowed, scores, -np.inf), _checked=True)


def sym_degree_normalize(A: AffinityMatrix) -> np.ndarray:
    """Normalize entries by the geometric mean of weighted row degrees."""
    m = A.matrix
    if np.any(m < 0):
        raise NegativeEntries("degree normalization requires nonnegative entries")
    degrees = m.sum(axis=1)
    if np.any(degrees <= 0):
        row = int(np.flatnonzero(degrees <= 0)[0])
        raise ZeroDegreeRow(f"row {row} has zero weighted degree")
    return m / np.sqrt(np.outer(degrees, degrees))


def _perron(m: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, float, float]:
    """Power iteration on m + cI with a certified bracket lo <= rho(m) <= hi.

    c = max row sum / 10 scales with m: the mode at -rho of a bipartite
    m then decays by at least 9/11 per step at any magnitude, where a unit
    shift gives (rho - 1) / (rho + 1) when rho >> 1 and a rate of about
    1 - rho when rho << 1. For the iterate x > 0 (floored at 2^-600, so
    no ratio is 0/0) and y = m x, hi = max y/x raised by (n + 2) eps for
    rounding. lo is the best of min y/x; while the bracket is open, the
    Collatz-Wielandt bound min (m_KK x_K) / x_K, which holds for any
    block K since rho(m) >= rho(m_KK), on two blocks away from the floor:
    the near-top ratios, which close on reducible m, and every nonzero
    ratio, which drops the sinks; and, for symmetric m, the Rayleigh
    quotient. Returns x and the bracket once hi - lo <= tol * hi.
    """
    if np.any(m < 0):
        raise NegativeEntries("power iteration requires nonnegative entries")
    if not (tol > 0 and max_iter >= 1):
        raise ValueError("tol must be positive and max_iter at least 1")
    n = m.shape[0]
    shift = 0.1 * float((m @ np.ones(n)).max())
    x = np.full(n, 1.0 / math.sqrt(n))
    symmetric = False
    for step in range(max_iter):
        y = m @ x
        ratios = y / x
        hi = float(ratios.max()) * (1.0 + (n + 2) * 2.0**-52)
        lo = float(ratios.min())
        if hi - lo > tol * hi:
            live = x >= 2.0**-300  # near the floor a ratio reflects the floor, not m
            top = ratios >= (1.0 - tol / 2) * ratios.max(where=live, initial=0.0)
            for kept in (live & top, live & (top | (ratios > 0))):
                inner = y[kept] - m[np.ix_(kept, ~kept)] @ x[~kept]  # m_KK x_K
                lo = max(lo, float((inner / x[kept]).min()))
        if step == 32:  # a bracket still open repays one transposed pass over m
            symmetric = bool(np.array_equal(m, m.T))
        if symmetric:
            lo = max(lo, float(x @ y) / float(x @ x))
        if hi - lo <= tol * hi:
            return x, lo, hi
        x = shift * x + y
        x = np.maximum(x / np.linalg.norm(x), 2.0**-600)
    raise NonConvergence(f"power iteration did not converge within {max_iter} iterations: "
                         f"rho in [{lo!r}, {hi!r}]")


def spectral_radius(A: AffinityMatrix, tol: float = 1e-10, max_iter: int = 1000) -> float:
    """Certified upper bound on rho(A), at most ``tol`` relative above it.

    The ``hi`` of :func:`_perron`; a nonzero nilpotent A raises with lo = 0.
    """
    return _perron(A.matrix, tol, max_iter)[2]


def choose_alpha(
    A: AffinityMatrix,
    fraction: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> AlphaScaling:
    """Pick alpha = fraction / hi, with hi = :func:`spectral_radius`'s bound.

    Since hi >= rho(A), alpha * rho(A) <= fraction is certified, and
    short of it by at most ``tol`` relative. The zero matrix makes every
    alpha convergent, so the fraction itself is returned.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    rho = spectral_radius(A, tol=tol, max_iter=max_iter)
    alpha = fraction / rho if rho > 0 else fraction
    return AlphaScaling(alpha=alpha, rho=rho)
