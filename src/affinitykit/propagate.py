"""Propagation over an affinity matrix.

Single-hop weighted aggregation (the attention core), truncated and
closed-form affinity power series (the path-summation core) and their
score-only form, and the two classic diffusion-style centralities:
principal eigenvector and PageRank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._validate import as_matrix, iteration_count, positive_int, shaped
from .affinity import AffinityMatrix
from .errors import (
    DimensionMismatch,
    NegativeEntries,
    NonConvergence,
    NumericError,
    SingularSystem,
    ZeroMatrix,
)
from .normalize import AlphaScaling, _perron, _product_shift, _row_sums


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
        if self.length != "infinite":
            positive_int(self.length, f"length must be a positive integer or 'infinite', got {self.length}")
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


def single_hop_aggregate(W, V) -> np.ndarray:
    """One hop of weighted aggregation: Z = W V.

    W and V are checked for shape alone, and Z is scanned: every entry of W
    and of V is multiplied into some entry of Z, and a NaN or infinity stays
    one through the sum (0 * inf is NaN), so that one scan of the small
    product finds a non-finite factor as well as a product that overflows,
    and raises :class:`NonFiniteInput` for either, with no warning.
    """
    W, V = shaped(W, "W"), shaped(V, "V")
    if W.shape[1] != V.shape[0]:
        raise DimensionMismatch(
            f"W is {W.shape} but V has {V.shape[0]} rows"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # the scan of Z reports both
        Z = W @ V
    return as_matrix(Z, "product W V")


def _horner(m: np.ndarray, alpha: float, start: np.ndarray, L: int) -> np.ndarray:
    """Sum of (alpha m)^k @ start for k = 1..L, as X <- alpha (m (start + X)).

    Each step is one product with m, and neither alpha m nor a power is
    formed: with start = I that is L matrix products, with start = 1 (the
    row sums) L matrix-vector products. The step is a fixed map, so once X
    repeats bit for bit every later step does too, and the loop stops there.

    Each product reads start + X in units of 2^-s, s the
    :func:`~affinitykit.normalize._product_shift` that keeps it below 2^1022,
    and alpha's product is scaled back, so a finite alpha m (start + X) is
    formed even where m (start + X) is not a double. Powers of two scale
    exactly: at s = 0 the bits are those of alpha (m (start + X)).
    """
    e_m = math.frexp(max(m.max(), -m.min()))[1]  # |m| < 2^e_m
    total = np.zeros_like(start)
    for _ in range(L):
        x = start + total
        s = _product_shift(e_m, len(m), math.frexp(max(x.max(), -x.min()))[1])
        np.ldexp(x, -s, out=x)
        previous, total = total, m @ x
        total *= alpha
        np.ldexp(total, s, out=total)
        if np.array_equal(total, previous):
            break
    return total


def _shifted_solve(m: np.ndarray, alpha: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - alpha m) X = rhs by one partially pivoted linear solve.

    A singular system here means the supplied scaling lied about the
    spectral radius: the convergence bound alpha * rho < 1 was violated.
    """
    lhs = m * -alpha  # I - alpha m, the only N x N formed here
    lhs.flat[:: len(lhs) + 1] += 1.0
    try:
        solution = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"I - alpha*A is singular: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise SingularSystem("closed-form solve produced non-finite entries")
    return solution


def power_series_truncated(A: AffinityMatrix, alpha: float, L: int) -> PathSum:
    """Sum of alpha^k A^k for k = 1..L.

    Accumulated Horner-style, T <- alpha*A (I + T), which caps the work
    at L matrix products and never materializes individual powers.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    L = positive_int(L, f"L must be a positive integer, got {L}")
    return PathSum(_horner(A.matrix, alpha, np.eye(A.n), L), alpha=alpha, length=L)


def power_series_closed_form(A: AffinityMatrix, scaling: AlphaScaling) -> PathSum:
    """Infinite path sum (I - alpha A)^-1 - I.

    Computed by one solve of (I - alpha A) X = alpha A rather than an
    explicit inverse; a forged scaling raises :class:`SingularSystem`.
    """
    alpha = scaling.alpha
    return PathSum(_shifted_solve(A.matrix, alpha, alpha * A.matrix), alpha=alpha, length="infinite")


def path_scores(A: AffinityMatrix, scaling: AlphaScaling, length: int | None = None) -> np.ndarray:
    """Inf-FS scores s = S 1 of the path sum S, without forming S.

    ``length=None`` is the closed form, one single right-hand-side solve
    of (I - alpha A) s = alpha A 1. ``length=L`` is the series truncated
    at L, accumulated as t <- alpha A (1 + t): L matrix-vector products
    instead of L matrix products. Equal up to rounding to
    ``inffs_scores`` of :func:`power_series_closed_form` or
    :func:`power_series_truncated` at ``scaling.alpha``.
    """
    m, alpha, ones = A.matrix, scaling.alpha, np.ones(A.n)
    if length is None:
        return _shifted_solve(m, alpha, _horner(m, alpha, ones, 1))
    return _horner(m, alpha, ones, positive_int(length, f"L must be a positive integer, got {length}"))


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
    """Principal eigenpair of a nonnegative matrix, from the loop behind :func:`spectral_radius`.

    ``hi`` and the unit Perron vector v, with |(A v)_i - hi v_i| <= tol * hi * v_i; on a
    reducible A, v is 0 off the classes that reach the top class.
    """
    values, _, hi = _perron(A.matrix, tol, max_iter, vector=True)
    if hi == 0:
        raise ZeroMatrix("rho(A) = 0, so A has no principal eigenvector")
    return CentralityVector(values / np.linalg.norm(values), eigenvalue=hi)


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

    The walk does not depend on A's scale, and neither do its operations:
    row i is summed in 2^e_i, the power of two just above its largest entry,
    by :func:`~affinitykit.normalize._row_sums`, the row measure the degree
    normalizer shares, so its sum r_i lies in [1/2, N). The walk
    pi P = sum_i (pi_i / r_i) 2^-e_i m_i is formed as 2^-b ((pi / r) 2^(b - e) @ m),
    with b the largest e_i clipped to [-500, 500] and to at most every
    e_i + 1022: the product is at most 2^b, no weight overflows, and none
    falls below 2^-970 of its pi_i / r_i, which needs the e_i to lie at most
    1992 apart; rows further apart raise :class:`NumericError`. Powers of two
    scale exactly, so where no scaled value is subnormal every step has the
    bits of (pi / row sums) @ m.
    """
    m = A.matrix
    if m.min() < 0:
        raise NegativeEntries("PageRank requires nonnegative entries")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    max_iter = iteration_count(tol, max_iter)
    n = m.shape[0]
    exponents = np.frexp(m.max(axis=1))[1]
    spread = int(exponents.max() - exponents.min())
    if spread > 1992:
        raise NumericError(f"PageRank weighs rows whose largest entries lie at most 2^1992 apart; "
                           f"A's lie 2^{spread} apart")
    row_sums = _row_sums(m, exponents)
    dangling = row_sums == 0
    row_sums[dangling] = 1.0  # their rows of m are 0: pi P = (pi / row_sums) m + their mass / n
    b = min(int(np.clip(exponents.max(), -500, 500)), int(exponents.min()) + 1022)
    shifts = b - exponents
    uniform = np.ones(n) / n
    pi, change = uniform, math.inf
    for _ in range(max_iter):
        walk = np.ldexp(np.ldexp(pi / row_sums, shifts) @ m, -b) + pi[dangling].sum() / n
        updated = damping * walk + (1.0 - damping) * uniform
        change = float(np.abs(updated - pi).sum())
        if change <= tol:
            updated /= updated.sum()
            return CentralityVector(updated, damping=damping)
        pi = updated
    raise NonConvergence(f"PageRank did not converge within {max_iter} iterations: "
                         f"last L1 change {change!r}")
