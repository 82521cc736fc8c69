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
    shifted = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)


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


def spectral_radius(A: AffinityMatrix, tol: float = 1e-10, max_iter: int = 1000) -> float:
    """Estimate rho(A) for a nonnegative matrix by power iteration.

    Iterates on A + I from the all-ones start: the shift keeps the
    Perron pair but breaks the oscillation that plain iteration suffers
    on periodic (e.g. bipartite) structures, and guarantees the iterate
    never hits the null space. Convergence is declared when the Rayleigh
    quotient's relative change drops below ``tol``; the quotient on the
    shifted matrix is always >= 1, so the relative test is safe.
    """
    m = A.matrix
    if np.any(m < 0):
        raise NegativeEntries("spectral radius estimation requires nonnegative entries")
    if not (tol > 0 and max_iter >= 1):
        raise ValueError("tol must be positive and max_iter at least 1")
    n = m.shape[0]
    shifted = m + np.eye(n)
    x = np.ones(n) / math.sqrt(n)
    previous = math.inf
    for _ in range(max_iter):
        y = shifted @ x
        # true Rayleigh ratio: exact at fixed points like the zero matrix
        quotient = float(x @ y) / float(x @ x)
        if abs(quotient - previous) <= tol * abs(quotient):
            return max(quotient - 1.0, 0.0)
        previous = quotient
        x = y / np.linalg.norm(y)
    raise NonConvergence(
        f"Rayleigh quotient did not stabilize within {max_iter} iterations"
    )


def choose_alpha(
    A: AffinityMatrix,
    fraction: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> AlphaScaling:
    """Pick alpha = fraction / rho(A), placing alpha * rho at ``fraction``.

    A zero spectral radius (zero or nilpotent matrix) makes every alpha
    convergent, so the fraction itself is returned.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    rho = spectral_radius(A, tol=tol, max_iter=max_iter)
    alpha = fraction / rho if rho > 0 else fraction
    return AlphaScaling(alpha=alpha, rho=rho)
