"""Pairwise affinity construction.

Four builders cover the affinity definitions the rest of the library
composes: a statistical mix of rank correlation and variance for feature
graphs, raw dot products of query/key embeddings, a Gaussian distance
kernel, and the concatenation scorer used by graph attention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validate import as_matrix, as_vector
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
    """

    matrix: np.ndarray
    nonnegative: bool | None = None
    zero_diagonal: bool | None = None

    def __post_init__(self):
        m = as_matrix(self.matrix, "affinity matrix")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"affinity matrix must be square, got {m.shape}")
        if self.nonnegative is None:
            object.__setattr__(self, "nonnegative", bool(np.all(m >= 0)))
        elif self.nonnegative and np.any(m < 0):
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
    order = np.argsort(data, axis=0, kind="stable")
    ordered = np.take_along_axis(data, order, axis=0)
    position = np.arange(data.shape[0])[:, None]
    starts = np.ones(data.shape, dtype=bool)  # in sorted order: entry opens a tie group
    starts[1:] = ordered[1:] != ordered[:-1]
    ends = np.roll(starts, -1, axis=0)  # starts[0] is True, so the last entry closes one
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, position, position[-1])[::-1], axis=0)[::-1]
    ranks = np.empty(data.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=0)
    return ranks


def _column_std(data: np.ndarray) -> np.ndarray:
    """``data.std(axis=0)`` on columns scaled by a power of two into (-1, 1), so it cannot overflow.

    The scaling is exact, so the result is bit-identical to the plain std
    wherever that neither overflows nor underflows.
    """
    _, exponent = np.frexp(np.maximum(data.max(axis=0), -data.min(axis=0)))
    return np.ldexp(np.ldexp(data, -exponent).std(axis=0), exponent)


def _abs_spearman(data: np.ndarray) -> np.ndarray:
    """|Spearman rho| of every column pair, ties average-ranked, in the Gram buffer.

    Centered average ranks are multiples of 1/2, so below about 3e5 samples each
    Gram entry is an exact sum, symmetric bit for bit in any BLAS order (above
    that, numpy's syrk copies one triangle onto the other). Later steps are
    elementwise, so no mirror is needed. A pair at the Cauchy-Schwarz bound reads 1.
    """
    centered = _average_ranks(data) - (data.shape[0] + 1) / 2.0
    rho = centered.T @ centered
    den = np.outer(np.diagonal(rho), np.diagonal(rho))
    snap = rho * rho >= den
    snap &= den > 0
    np.abs(rho, out=rho)  # a constant column's entries are already 0, its rho by convention
    np.sqrt(den, out=den)
    np.divide(rho, den, out=rho, where=den > 0)
    rho[snap] = 1.0  # exactly 1, not one ulp short
    return rho


def build_corr_affinity(ds: FeatureDataset, beta: float = 0.5) -> AffinityMatrix:
    """Feature-graph affinity mixing rescaled variance and rank correlation.

    Off-diagonal entries are

        A_ij = beta * max(s_i, s_j) + (1 - beta) * (1 - |rho_ij|)

    where s is each column's standard deviation divided by the largest
    one (zero when every column is constant) and rho is the Spearman
    correlation. The diagonal is zero: scores downstream measure
    connectedness to *other* features, so self-loops are excluded.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if ds.n_features < 2:
        raise EmptyDataset("affinity needs at least 2 features")
    sigma = _column_std(ds.data)
    sigma_max = sigma.max()
    sigma_hat = sigma / sigma_max if sigma_max > 0 else np.zeros_like(sigma)
    a = _abs_spearman(ds.data)
    np.subtract(1.0, a, out=a)
    a *= 1.0 - beta
    a += beta * np.maximum.outer(sigma_hat, sigma_hat)
    np.fill_diagonal(a, 0.0)
    return AffinityMatrix(a, nonnegative=True, zero_diagonal=True)


def build_dot_product_affinity(Q, K, *, _checked: bool = False) -> AffinityMatrix | np.ndarray:
    """Raw pairwise scores A_ij = q_i . k_j.

    Returns an :class:`AffinityMatrix` when the result is square; a plain
    array otherwise (cross-attention, where queries and keys differ in
    count), and always with ``_checked=True``. No guarantees are claimed
    about sign or diagonal.
    """
    if not _checked:
        Q, K = as_matrix(Q, "Q"), as_matrix(K, "K")
    if Q.shape[1] != K.shape[1]:
        raise DimensionMismatch(
            f"inner dimensions differ: Q is {Q.shape}, K is {K.shape}"
        )
    raw = Q @ K.T
    if _checked or raw.shape[0] != raw.shape[1]:
        return raw
    return AffinityMatrix(raw, nonnegative=False, zero_diagonal=False)


def build_gaussian_affinity(X, h: float) -> AffinityMatrix:
    """Gaussian kernel A_ij = exp(-||x_i - x_j||^2 / h^2).

    The diagonal is exactly 1 (self-similarity); entries lie in [0, 1],
    since far pairs underflow to 0 and a distance that overflows gets its
    limit 0. Each unordered pair is computed once, in a C-ordered N x d
    row buffer that is the only scratch beside the N x N result, and
    summed over d in numpy's pairwise order whatever the layout of X:
    the result is exactly symmetric, and permuting the rows of X
    permutes it exactly.
    """
    x = as_matrix(X, "X")
    if not h > 0:
        raise NonPositiveBandwidth(f"bandwidth must be positive, got {h}")
    hh = h * h
    if hh == 0:
        raise NonPositiveBandwidth(f"bandwidth {h} is too small: h*h underflows to 0")
    n = x.shape[0]
    sq = np.empty((n, n))
    diff = np.empty(x.shape)
    with np.errstate(over="ignore", under="ignore"):
        for i in range(n):
            rows = diff[: n - i]
            np.subtract(x[i:], x[i], out=rows)
            np.square(rows, out=rows)
            np.add.reduce(rows, axis=1, out=sq[i, i:])
            sq[i + 1:, i] = sq[i, i + 1:]
        if hh == np.inf and sq.max() == np.inf:
            raise NonFiniteInput(
                f"squared distances and h*h (h = {h}) both overflow to inf; their ratio is undefined"
            )
        np.divide(sq, -hh, out=sq)
        np.exp(sq, out=sq)
    return AffinityMatrix(sq, nonnegative=True, zero_diagonal=False)


def build_gat_scores(H, W, a, slope: float = 0.2, *, _checked: bool = False) -> np.ndarray:
    """Concatenation scorer e_ij = LeakyReLU(a . [W h_i, W h_j]).

    Returns raw scores for every ordered pair; neighborhood masking is
    the normalizer's job. The scorer splits into a source and a target
    half, so the full matrix is one outer sum of two projected vectors.
    """
    if not _checked:
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
    projected = H @ W
    scores = np.add.outer(projected @ a[:f_out], projected @ a[f_out:])
    return np.maximum(scores, slope * scores, out=scores)
