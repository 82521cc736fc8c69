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

    Flags left as ``None`` are inferred from the entries; flags passed as
    ``True`` are checked and raise when the data violates them.
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


def _spearman_matrix(data: np.ndarray) -> np.ndarray:
    """Pairwise Spearman correlations with average ranks for ties.

    A zero-variance column correlates 0 with everything by convention.
    Centered average ranks are exact quarter-integers for modest sample
    counts, so perfectly monotone pairs hit the Cauchy-Schwarz bound
    exactly and are snapped to +-1 rather than left one ulp short of it.
    """
    n = data.shape[0]
    ranks = _average_ranks(data)
    centered = ranks - (n + 1) / 2.0
    gram = centered.T @ centered
    diag = np.diagonal(gram)
    den2 = np.outer(diag, diag)
    rho = np.divide(gram, np.sqrt(den2), out=np.zeros_like(gram), where=den2 > 0)
    return np.where((den2 > 0) & (gram * gram >= den2), np.sign(gram), rho)


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
    var_term = np.maximum.outer(sigma_hat, sigma_hat)
    rho = _spearman_matrix(ds.data)
    off = beta * var_term + (1.0 - beta) * (1.0 - np.abs(rho))
    # Mirror the strict upper triangle so symmetry is bitwise, not approximate.
    upper = np.triu(off, k=1)
    return AffinityMatrix(upper + upper.T, nonnegative=True, zero_diagonal=True)


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

    The diagonal is exactly 1 (self-similarity); entries lie in (0, 1].
    Each pair's distance is computed independently, so permuting the rows
    of X permutes the output exactly. Distances are reduced one row of the
    output at a time, so the scratch beside the N x N result is O(N*d).
    """
    x = as_matrix(X, "X")
    if not h > 0:
        raise NonPositiveBandwidth(f"bandwidth must be positive, got {h}")
    sq_dist = np.array([((x - row) ** 2).sum(axis=1) for row in x])
    return AffinityMatrix(np.exp(-sq_dist / (h * h)), nonnegative=True, zero_diagonal=False)


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
    src = projected @ a[:f_out]
    dst = projected @ a[f_out:]
    scores = src[:, None] + dst[None, :]
    return np.where(scores >= 0, scores, slope * scores)
