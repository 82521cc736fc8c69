"""Pairwise affinity construction.

Four builders cover the affinity definitions the rest of the library
composes: a statistical mix of rank correlation and variance for feature
graphs, raw dot products of query/key embeddings, a Gaussian distance
kernel, and the concatenation scorer used by graph attention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from ._validate import _as_array, as_matrix, as_vector
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    NegativeEntries,
    NonFiniteInput,
    NonPositiveBandwidth,
)


@dataclass(frozen=True)
class FeatureDataset:
    """Samples-by-features table with one name per feature column."""

    data: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise DimensionMismatch(f"dataset must be 2-D, got shape {data.shape}")
        if data.shape[0] < 2:
            raise EmptyDataset("correlation needs at least 2 samples")
        if not np.all(np.isfinite(data)):
            raise NonFiniteInput("dataset contains NaN or infinite entries")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != data.shape[1]:
            raise DimensionMismatch(
                f"{len(names)} feature names for {data.shape[1]} columns"
            )
        if any(not n for n in names):
            raise ValueError("feature names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AffinityMatrix:
    """Square pairwise affinity matrix with optional validated guarantees.

    ``None`` flags are inferred from the entries; ``True`` flags are checked
    and raise when the data violates them; ``False`` is stored unchecked.
    A float array is held as the caller's array, not a copy, so a flag holds
    only for the entries it was checked on: each stage that needs A >= 0
    reads ``matrix.min()`` again instead of trusting ``nonnegative``. The
    sign flag is read from the minimum that the finiteness test read.
    """

    matrix: np.ndarray
    nonnegative: bool | None = None
    zero_diagonal: bool | None = None

    def __post_init__(self):
        m, low = _as_array(self.matrix, "affinity matrix", 2)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"affinity matrix must be square, got {m.shape}")
        if self.nonnegative is None:
            object.__setattr__(self, "nonnegative", bool(low >= 0))
        elif self.nonnegative and low < 0:
            raise NegativeEntries("matrix flagged nonnegative has negative entries")
        diag = np.diagonal(m)
        if self.zero_diagonal is None:
            object.__setattr__(self, "zero_diagonal", bool(np.all(diag == 0)))
        elif self.zero_diagonal and np.any(diag != 0):
            raise ValueError("matrix flagged zero-diagonal has nonzero diagonal entries")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        """The matrix, so every stage that takes an array takes an AffinityMatrix."""
        return np.array(self.matrix, dtype=dtype, copy=copy)


def _average_ranks(data: np.ndarray) -> np.ndarray:
    """Column-wise 1-based ranks; tied entries share the mean of their positions."""
    order = np.argsort(data, axis=0)  # unstable: a tie group's mean position ignores the order inside it
    ordered = np.take_along_axis(data, order, axis=0)
    starts = np.ones(data.shape, dtype=bool)  # in sorted order: entry opens a tie group
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    del ordered
    position = np.arange(float(data.shape[0]))[:, None]  # whole floats: sums below are exact
    mean = np.where(starts, position, 0.0)
    np.maximum.accumulate(mean, axis=0, out=mean)  # the first position of each tie group
    # starts[0] is True, so the last entry closes a group.
    last = np.where(np.roll(starts, -1, axis=0), position, position[-1])[::-1]
    np.minimum.accumulate(last, axis=0, out=last)
    mean += last[::-1]
    mean /= 2.0
    mean += 1.0
    ranks = last[::-1]  # the last positions are spent; the ranks take their buffer
    np.put_along_axis(ranks, order, mean, axis=0)
    return ranks


def _column_std(data: np.ndarray) -> np.ndarray:
    """``data.std(axis=0)`` on columns scaled by a power of two into (-1, 1), so it cannot overflow.

    The scaling is exact, so the result is bit-identical to the plain std
    wherever that neither overflows nor underflows.
    """
    _, exponent = np.frexp(np.maximum(data.max(axis=0), -data.min(axis=0)))
    return np.ldexp(np.ldexp(data, -exponent).std(axis=0), exponent)


def build_corr_affinity(ds: FeatureDataset, beta: float = 0.5) -> AffinityMatrix:
    """Feature-graph affinity mixing rescaled variance and rank correlation.

    Off-diagonal entries are

        A_ij = beta * max(s_i, s_j) + (1 - beta) * (1 - |rho_ij|)

    where s is each column's standard deviation divided by the largest
    one (zero when every column is constant) and rho is the Spearman
    correlation. The diagonal is zero: scores downstream measure
    connectedness to *other* features, so self-loops are excluded.

    A is formed in the Gram product g of the centered average ranks, its only
    N x N. Those ranks are multiples of 1/2, so below about 3e5 samples g is
    exact and symmetric bit for bit (above, numpy's syrk mirrors a triangle).
    The rest is elementwise, |rho_ij| = |g_ij| / sqrt(g_ii * g_jj) a row at a
    time: a pair at the Cauchy-Schwarz bound reads exactly 1.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if ds.n_features < 2:
        raise EmptyDataset("affinity needs at least 2 features")
    sigma = _column_std(ds.data)
    sigma_max = sigma.max()
    spread = beta * (sigma / sigma_max if sigma_max > 0 else np.zeros_like(sigma))
    centered = _average_ranks(ds.data)
    centered -= (ds.n_samples + 1) / 2.0
    a = centered.T @ centered
    del centered
    d = np.diagonal(a).copy()
    d[d == 0] = 1.0  # a constant column's Gram row is exactly 0, its |rho| by convention
    np.abs(a, out=a)
    for i, row in enumerate(a):
        np.divide(row, np.sqrt(d[i] * d), out=row)
    np.minimum(a, 1.0, out=a)  # a rounded quotient can exceed 1
    np.subtract(1.0, a, out=a)
    a *= 1.0 - beta
    for i, row in enumerate(a):
        row += np.maximum(spread[i], spread)  # beta * max(s_i, s_j): beta >= 0, rounding is monotone
    np.fill_diagonal(a, 0.0)
    return AffinityMatrix(a, nonnegative=True, zero_diagonal=True)


def build_dot_product_affinity(Q, K, *, _checked: bool = False) -> AffinityMatrix | np.ndarray:
    """Raw pairwise scores A_ij = q_i . k_j.

    Returns an :class:`AffinityMatrix` when the result is square; a plain
    array otherwise (cross-attention, where queries and keys differ in
    count), and always with ``_checked=True``, whose result is not scanned:
    the attention loop's softmax or product finds an overflow. No guarantees are claimed
    about sign or diagonal; a product that overflows raises NonFiniteInput.
    """
    if not _checked:
        Q, K = as_matrix(Q, "Q"), as_matrix(K, "K")
    if Q.shape[1] != K.shape[1]:
        raise DimensionMismatch(
            f"inner dimensions differ: Q is {Q.shape}, K is {K.shape}"
        )
    if _checked:
        return Q @ K.T
    with np.errstate(over="ignore", invalid="ignore"):  # the scan below finds an overflow
        raw = Q @ K.T
    if raw.shape[0] != raw.shape[1]:
        return as_matrix(raw, "Q K^T")
    return AffinityMatrix(raw, nonnegative=False, zero_diagonal=False)


# The lower triangle is mirrored from the upper in strips of this many rows,
# each its rows' block of the transpose: writing one column per row from two
# threads would share cache lines.
_MIRROR_ROWS = 64
_BELOW = np.tri(_MIRROR_ROWS, k=-1, dtype=bool)


def build_gaussian_affinity(X, h: float) -> AffinityMatrix:
    """Gaussian kernel A_ij = exp(-||x_i - x_j||^2 / h^2).

    The diagonal is exactly 1 (self-similarity); entries lie in [0, 1],
    since far pairs underflow to 0 and a distance that overflows gets its
    limit 0 at any scale: beyond 2^+-256, distances and h are measured in
    h's power of two, X divided by it before the rows are subtracted or each
    difference divided by it after, so no scale of X or h raises. Each
    unordered pair is computed once, in C-ordered row buffers that are the
    only scratch beside the N x N result, one of ceil(N / width) rows for
    each of the pool's workers, one N x d in all, and summed over d in
    numpy's pairwise order whatever the layout of X: the result is exactly
    symmetric, permuting the rows of X permutes it exactly, and the width
    changes no bit.
    """
    x = as_matrix(X, "X")
    if not 0 < h < math.inf:
        raise NonPositiveBandwidth(f"bandwidth must be positive and finite, got {h}")
    g, e = math.frexp(h)  # h = g 2^e, g in [0.5, 1)
    n = x.shape[0]
    sq = np.empty((n, n))
    width = _pool.width()
    strip = -(-n // width)  # rows in each worker's buffer
    up = 0
    with np.errstate(over="ignore", under="ignore"):
        # In 2^+-256 h*h is normal; a square's over- or underflow errs below an ulp of its weight.
        # Dividing X cannot overflow; scaling a difference up, exact like the subtraction,
        # overflows only where the weight is 0.
        if e > 256:
            x, h = np.ldexp(x, -e), g
        elif e < -256:
            up, h = -e, g
        hh = h * h

        def upper(first):
            """Row i of the upper triangle for every width-th row i from ``first``, a strip at a time."""
            diff = np.empty((strip, x.shape[1]))
            for i in range(first, n, width):
                for start in range(i, n, strip):
                    rows = diff[: min(strip, n - start)]
                    np.subtract(x[start:start + strip], x[i], out=rows)
                    if up:
                        np.ldexp(rows, up, out=rows)
                    np.square(rows, out=rows)
                    np.add.reduce(rows, axis=1, out=sq[i, start:start + strip])
        _pool.run(upper, range(width))
        for start in range(0, n, _MIRROR_ROWS):
            stop = min(start + _MIRROR_ROWS, n)
            sq[start:stop, :start] = sq[:start, start:stop].T
            block = sq[start:stop, start:stop]
            np.copyto(block, block.T, where=_BELOW[: stop - start, : stop - start])
        np.divide(sq, -hh, out=sq)
        np.exp(sq, out=sq)
    return AffinityMatrix(sq, nonnegative=True, zero_diagonal=False)


def _leaky_outer(source: np.ndarray, target: np.ndarray, slope: float) -> np.ndarray:
    """LeakyReLU(source_i + target_j) for every pair, as np.maximum(s, slope * s) in place."""
    scores = np.add.outer(source, target)
    return np.maximum(scores, slope * scores, out=scores)


def build_gat_scores(H, W, a, slope: float = 0.2) -> np.ndarray:
    """Concatenation scorer e_ij = LeakyReLU(a . [W h_i, W h_j]).

    Returns raw scores for every ordered pair; neighborhood masking is
    the normalizer's job. The scorer splits into a source and a target
    half, so the full matrix is one outer sum of two projected vectors.
    A score that overflows raises NonFiniteInput.
    """
    H, W, a = as_matrix(H, "H"), as_matrix(W, "W"), as_vector(a, "a")
    if W.shape[0] != H.shape[1]:
        raise DimensionMismatch(
            f"W rows ({W.shape[0]}) must match H columns ({H.shape[1]})"
        )
    f_out = W.shape[1]
    if a.shape[0] != 2 * f_out:
        raise DimensionMismatch(
            f"scorer vector has length {a.shape[0]}, expected {2 * f_out}"
        )
    if not 0.0 < slope < 1.0:
        raise ValueError(f"LeakyReLU slope must lie in (0, 1), got {slope}")
    with np.errstate(over="ignore", invalid="ignore"):  # the scan below finds an overflow
        projected = H @ W
        scores = _leaky_outer(projected @ a[:f_out], projected @ a[f_out:], slope)
    return as_matrix(scores, "GAT scores")
