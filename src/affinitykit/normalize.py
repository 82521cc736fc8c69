"""Turning raw affinity scores into usable weight matrices.

Row softmax (optionally scaled by sqrt(d_k)), neighborhood-masked
softmax, symmetric degree normalization, and the spectral-radius
machinery that bounds the path-series decay parameter alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import as_matrix, iteration_count, positive_int
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
    with np.errstate(over="ignore"):  # a difference below -1.8e308 is -inf, whose exp is the limit 0
        weights = scores - scores.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def scale_scores(S, d_k: int) -> np.ndarray:
    """Divide every score by sqrt(d_k)."""
    scores = as_matrix(S, "scores")
    return scores / math.sqrt(positive_int(d_k, f"d_k must be a positive integer, got {d_k}"))


def masked_softmax_rows(S, mask: NeighborhoodMask) -> np.ndarray:
    """Row softmax restricted to each row's allowed neighborhood.

    Disallowed scores are treated as -inf before exponentiation, so the
    corresponding weights are exactly zero and every row remains a true
    softmax over its neighborhood.
    """
    scores = as_matrix(S, "scores")
    if mask.allowed.shape != scores.shape:
        raise DimensionMismatch(
            f"mask shape {mask.allowed.shape} does not match scores {scores.shape}"
        )
    return softmax_rows(np.where(mask.allowed, scores, -np.inf), _checked=True)


def sym_degree_normalize(A: AffinityMatrix) -> np.ndarray:
    """Normalize entries by the geometric mean of weighted row degrees."""
    m = A.matrix
    if m.min() < 0:
        raise NegativeEntries("degree normalization requires nonnegative entries")
    degrees = m.sum(axis=1)
    if np.any(degrees <= 0):
        row = int(np.flatnonzero(degrees <= 0)[0])
        raise ZeroDegreeRow(f"row {row} has zero weighted degree")
    scale = np.outer(degrees, degrees)  # the result's buffer
    return np.divide(m, np.sqrt(scale, out=scale), out=scale)


def _reach(m: np.ndarray, start: int, skip: np.ndarray) -> np.ndarray:
    """Mask of the nodes that paths from ``start`` outside ``skip`` lead to, i to j
    where m[i, j] > 0. Each step reads only the frontier's block of m to new nodes."""
    found = np.zeros(len(m), dtype=bool)
    found[start] = True
    frontier = np.array([start])
    while frontier.size:
        free = np.flatnonzero(~(found | skip))
        frontier = free[(m[np.ix_(frontier, free)] > 0).any(axis=0)]
        found[frontier] = True
    return found


def _classes(m: np.ndarray) -> np.ndarray:
    """Label of each node's strongly connected class in m's positive entries: the
    unlabelled nodes that it reaches and that reach it. The next start is the last
    node reached, so on a chain each search stops at the labelled nodes."""
    labels = np.full(len(m), -1)
    starts = list(range(len(m) - 1, -1, -1))
    while starts:
        start = starts.pop()
        if labels[start] < 0:
            ahead = _reach(m, start, labels >= 0)
            labels[_reach(m.T, start, ~ahead)] = labels.max() + 1
            starts.extend(np.flatnonzero(ahead))
    return labels


def _power(m: np.ndarray, labels: np.ndarray, tol: float, max_iter: int,
           rayleigh: bool, nodes: np.ndarray | None = None) -> tuple[np.ndarray, float, float, int]:
    """Power iteration on m + cI with the edges between the blocks of ``labels``,
    unions of m's classes, dropped; c is a tenth of the block's largest row sum,
    so a bipartite block's mode at -rho decays by 9/11 per step at any scale.
    Each step divides a class's x by its largest entry and floors it at 2^-600
    of that entry, so x keeps its range whatever m's scale. For x > 0 and
    y = m x, hi = max y/x raised by (n + 2) eps, and lo = max over blocks of
    min y_K/x_K; with ``rayleigh`` and m symmetric, also of the blocks'
    Rayleigh quotients. Also returns a node of the block whose bound is lo; a
    :class:`NonConvergence` names a node whose bound is hi, and its class's
    size. With ``nodes``, m is the rows and columns ``nodes`` of the caller's
    matrix, one block of the classes that reach its top class, and the node
    is named by its number there."""
    n = m.shape[0]
    count = int(labels.max()) + 1
    if count > 1:
        m = np.where(labels[:, None] == labels, m, 0.0)
    shift = np.zeros(count)
    np.maximum.at(shift, labels, m @ np.ones(n))
    shift = 0.1 * shift[labels]
    x = np.ones(n)
    symmetric = False
    for step in range(max_iter):
        y = m @ x
        ratios = y / x
        hi = float(ratios.max()) * (1.0 + (n + 2) * 2.0**-52)
        low = np.full(count, np.inf)
        np.minimum.at(low, labels, ratios)
        if step == 32:  # a bracket still open repays one transposed pass over m, in 64 row blocks
            rows = -(-n // 64)
            symmetric = rayleigh and all(np.array_equal(m[i:i + rows], m[:, i:i + rows].T)
                                         for i in range(0, n, rows))
        if symmetric:  # a zero class's floored x squares to 0: divide by the floor
            squares = np.maximum(np.bincount(labels, x * x, count), 2.0**-600)
            np.maximum(low, np.bincount(labels, x * y, count) / squares, out=low)
        lo = float(low.max())
        if hi - lo <= tol * hi:
            return x, lo, hi, int(np.argmax(labels == low.argmax()))
        x = shift * x + y
        peak = np.zeros(count)  # each class by its largest entry; a zero class by 1
        np.maximum.at(peak, labels, x)
        x /= np.where(peak > 0, peak, 1.0)[labels]
        x = np.maximum(x, 2.0**-600)
    node = int(ratios.argmax())
    where = (f"the class of node {node}, {np.count_nonzero(labels == labels[node])} nodes"
             if nodes is None else f"node {nodes[node]}, of the {n} nodes that reach the top class")
    raise NonConvergence(f"power iteration did not converge within {max_iter} iterations: "
                         f"rho in [{lo!r}, {hi!r}]; hi is set by {where}")


def _perron(m: np.ndarray, tol: float, max_iter: int,
            vector: bool = False) -> tuple[np.ndarray, float, float]:
    """x and a certified bracket lo <= rho(m) <= hi, hi - lo <= tol * hi.

    rho(m) is the largest rho(m_KK) over the strongly connected classes K of
    m's pattern (Perron-Frobenius), so :func:`_power` runs on the classes and
    each converges at its own gap. With ``vector``, x is m's Perron vector with
    largest entry 1, |(m x)_i - hi x_i| <= tol * hi * x_i: on a reducible m, 0
    off the classes that reach the top class, where the loop runs once more as
    one block, on their rows and columns alone.
    """
    if m.min() < 0:
        raise NegativeEntries("power iteration requires nonnegative entries")
    max_iter = iteration_count(tol, max_iter)
    labels = _classes(m)
    x, lo, hi, top = _power(m, labels, tol, max_iter, not vector)
    if vector and labels.max() > 0 and hi > 0:
        keep = np.flatnonzero(_reach(m.T, top, np.zeros(len(m), dtype=bool)))
        x = np.zeros(len(m))
        x[keep], lo, hi, _ = _power(m[np.ix_(keep, keep)], np.zeros(len(keep), dtype=int),
                                    tol, max_iter, False, keep)
    return x, lo, hi


def spectral_radius(A: AffinityMatrix, tol: float = 1e-10, max_iter: int = 1000) -> float:
    """Certified upper bound on rho(A), at most ``tol`` relative above it.

    The ``hi`` of :func:`_perron`, 0 on a nilpotent A.
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
    short of it by at most ``tol`` relative. rho = 0, as on a nilpotent A,
    makes every alpha convergent, so the fraction itself is returned.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    rho = spectral_radius(A, tol=tol, max_iter=max_iter)
    alpha = fraction / rho if rho > 0 else fraction
    return AlphaScaling(alpha=alpha, rho=rho)
