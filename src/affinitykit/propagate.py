"""Propagation over an affinity matrix.

Single-hop weighted aggregation (the attention core), truncated and
closed-form affinity power series (the path-summation core), and the
two classic diffusion-style centralities: principal eigenvector and
PageRank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._validate import as_matrix
from .affinity import AffinityMatrix
from .errors import (
    DimensionMismatch,
    NegativeEntries,
    NonConvergence,
    SingularSystem,
    ZeroMatrix,
)
from .normalize import AlphaScaling


@dataclass(frozen=True)
class PathSum:
    """Accumulated path relevance sum over an affinity graph.

    ``length`` is either the finite truncation L or the marker
    ``"infinite"`` for the closed form, whose producing scaling already
    guaranteed alpha * rho < 1.
    """

    matrix: np.ndarray
    alpha: float
    length: int | Literal["infinite"]

    def __post_init__(self):
        m = as_matrix(self.matrix, "path sum")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"path sum must be square, got {m.shape}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.length != "infinite" and (int(self.length) != self.length or self.length < 1):
            raise ValueError(f"length must be a positive integer or 'infinite', got {self.length}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CentralityVector:
    """Per-node centrality values plus the method's companion scalar."""

    values: np.ndarray
    eigenvalue: float | None = None
    damping: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0 or not np.all(np.isfinite(vals)):
            raise ValueError("centrality values must be a finite 1-D vector")
        if self.eigenvalue is not None and abs(np.linalg.norm(vals) - 1.0) > 1e-9:
            raise ValueError("eigenvector centrality values must have unit norm")
        if self.damping is not None and abs(vals.sum() - 1.0) > 1e-12:
            raise ValueError("PageRank values must sum to 1")
        object.__setattr__(self, "values", vals)


def single_hop_aggregate(W, V, *, _checked: bool = False) -> np.ndarray:
    """One hop of weighted aggregation: Z = W V."""
    if not _checked:
        W, V = as_matrix(W, "W"), as_matrix(V, "V")
    if W.shape[1] != V.shape[0]:
        raise DimensionMismatch(
            f"W is {W.shape} but V has {V.shape[0]} rows"
        )
    return W @ V


def power_series_truncated(A: AffinityMatrix, alpha: float, L: int) -> PathSum:
    """Sum of alpha^k A^k for k = 1..L.

    Accumulated Horner-style, T <- alpha*A (I + T), which caps the work
    at L matrix products and never materializes individual powers.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if int(L) != L or L < 1:
        raise ValueError(f"L must be a positive integer, got {L}")
    m = A.matrix
    scaled = alpha * m
    eye = np.eye(m.shape[0])
    total = np.zeros_like(m)
    for _ in range(int(L)):
        total = scaled @ (eye + total)
    return PathSum(total, alpha=alpha, length=int(L))


def power_series_closed_form(A: AffinityMatrix, scaling: AlphaScaling) -> PathSum:
    """Infinite path sum (I - alpha A)^-1 - I.

    Computed by one partially pivoted linear solve of
    (I - alpha A) X = alpha A rather than an explicit inverse. A singular
    system here means the supplied scaling lied about the spectral
    radius: the convergence bound alpha * rho < 1 was violated.
    """
    m = A.matrix
    scaled = scaling.alpha * m
    lhs = np.eye(m.shape[0]) - scaled
    try:
        solution = np.linalg.solve(lhs, scaled)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"I - alpha*A is singular: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise SingularSystem("closed-form solve produced non-finite entries")
    return PathSum(solution, alpha=scaling.alpha, length="infinite")


def inffs_scores(ps: PathSum) -> np.ndarray:
    """Per-node importance: row sums of the accumulated path matrix.

    Row sums and column sums coincide for symmetric affinities; the row
    choice is the one this library commits to for asymmetric inputs.
    Ordering is the selection module's job.
    """
    return ps.matrix.sum(axis=1)


def eigenvector_centrality(
    A: AffinityMatrix, tol: float = 1e-10, max_iter: int = 1000
) -> CentralityVector:
    """Principal eigenpair of a nonnegative matrix by power iteration.

    Same identity shift as the spectral-radius estimator (periodic
    graphs oscillate otherwise), all-ones start. Converged when the
    residual ||A v - lambda v|| drops below tol * lambda, with lambda
    the Rayleigh quotient on the original matrix.
    """
    m = A.matrix
    if np.any(m < 0):
        raise NegativeEntries("eigenvector centrality requires nonnegative entries")
    if not m.any():
        raise ZeroMatrix("the zero matrix has no principal eigenvector")
    n = m.shape[0]
    shifted = m + np.eye(n)
    x = np.ones(n) / math.sqrt(n)
    for _ in range(max_iter):
        x = shifted @ x
        x /= np.linalg.norm(x)
        image = m @ x
        eigenvalue = float(x @ image) / float(x @ x)
        residual = float(np.linalg.norm(image - eigenvalue * x))
        if residual <= tol * eigenvalue:
            return CentralityVector(x, eigenvalue=eigenvalue)
    raise NonConvergence(
        f"eigenvector residual did not reach tolerance within {max_iter} iterations"
    )


def pagerank(
    A: AffinityMatrix,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> CentralityVector:
    """Stationary distribution of the damped random walk over A.

    Rows are normalized to a transition matrix; rows summing to zero
    (dangling nodes) are replaced by the uniform distribution. Iterates
    pi <- damping * pi P + (1 - damping) * u until the L1 change is at
    most ``tol``; since the update contracts by the damping factor, the
    returned vector's own stationarity gap is below tol as well.
    """
    m = A.matrix
    if np.any(m < 0):
        raise NegativeEntries("PageRank requires nonnegative entries")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    n = m.shape[0]
    row_sums = m.sum(axis=1, keepdims=True)
    safe = np.where(row_sums > 0, row_sums, 1.0)
    transition = np.where(row_sums > 0, m / safe, 1.0 / n)
    uniform = np.ones(n) / n
    pi = uniform.copy()
    for _ in range(max_iter):
        updated = damping * (pi @ transition) + (1.0 - damping) * uniform
        if np.abs(updated - pi).sum() <= tol:
            updated /= updated.sum()
            return CentralityVector(updated, damping=damping)
        pi = updated
    raise NonConvergence(
        f"PageRank did not reach stationarity within {max_iter} iterations"
    )
