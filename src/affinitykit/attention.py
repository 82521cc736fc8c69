"""The attention family, assembled from affinity + normalize + propagate.

Scaled dot-product attention, multi-head attention, the non-local block
in its embedded-Gaussian and dot-product variants, and the graph
attention layer. All parameters are caller-supplied inputs; nothing here
is trained.

Each is one hop over an affinity, and ``_one_hop`` runs it for all of
them: a block of rows holding ``_BLOCK_BYTES`` of scores is scored
against every key, normalized and aggregated into its rows of the N x d
output. Only the block's weights differ: softmax(q k^T [/ sqrt(d)]),
theta phi^T / N, or GAT's LeakyReLU(source_i + target_j) under a softmax
masked to each row's neighborhood. Rows are independent, so no N x N
matrix is formed and each output row goes through the dense formula's
operations; only the BLAS may round a block's products a few ulps apart
from the full ones. Each entry point checks its arguments once and calls
the score stage with ``_checked=True``, so a block's rows x N scores are
not scanned. ``softmax_rows`` reads them through its row sums, which are
NaN exactly where a score is NaN or +inf; a -inf score, as GAT's mask
makes, weighs 0. The non-local dot-product variant has no softmax, and an
overflow in its scores shows in the block's rows x d product, which
``single_hop_aggregate`` scans as it forms it. An entry point also scans
the array it returns after a last product or sum of its own, and what a
caller's GAT ``activation`` returns.

The blocks, the heads of multi-head attention and the non-local block's
three projections run on ``_pool``'s two threads where exactly two cores
are usable, each the same operations on the same partition as one thread
would run, so the bits do not depend on the width. While an entry point
runs it ignores overflow and invalid results, which those scans
report, and, with the pool on, holds numpy's OpenBLAS at one
thread, process-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from . import _pool
from ._validate import as_matrix, as_vector, block_rows, positive_int
from .affinity import _leaky_outer, build_dot_product_affinity
from .errors import DimensionMismatch
from .normalize import NeighborhoodMask, softmax_rows
from .propagate import single_hop_aggregate


@dataclass(frozen=True)
class AttentionConfig:
    """Head count and per-head key width for a multi-head block."""

    d_model: int
    heads: int
    d_k: int
    scale: bool = True

    def __post_init__(self):
        for field in ("d_model", "heads", "d_k"):
            value = getattr(self, field)
            count = positive_int(value, f"{field} must be a positive integer, got {value}")
            object.__setattr__(self, field, count)
        if self.d_model != self.heads * self.d_k:
            raise DimensionMismatch(
                f"d_model ({self.d_model}) must equal heads * d_k "
                f"({self.heads} * {self.d_k})"
            )


@dataclass(frozen=True)
class ProjectionSet:
    """Per-head query/key/value projections plus the output projection."""

    wq: tuple[np.ndarray, ...]
    wk: tuple[np.ndarray, ...]
    wv: tuple[np.ndarray, ...]
    wout: np.ndarray

    def __post_init__(self):
        for field in ("wq", "wk", "wv"):
            mats = tuple(as_matrix(m, field) for m in getattr(self, field))
            if not mats:
                raise DimensionMismatch(f"{field} needs at least one head")
            object.__setattr__(self, field, mats)
        if not len(self.wq) == len(self.wk) == len(self.wv):
            raise DimensionMismatch("wq, wk and wv must have one matrix per head")
        object.__setattr__(self, "wout", as_matrix(self.wout, "wout"))

    @property
    def heads(self) -> int:
        return len(self.wq)


@dataclass(frozen=True)
class NonLocalProjections:
    """Theta/phi/g embeddings of a non-local block; wz defaults to identity."""

    wtheta: np.ndarray
    wphi: np.ndarray
    wg: np.ndarray
    wz: np.ndarray | None = None

    def __post_init__(self):
        for field in ("wtheta", "wphi", "wg"):
            object.__setattr__(self, field, as_matrix(getattr(self, field), field))
        if self.wz is not None:
            object.__setattr__(self, "wz", as_matrix(self.wz, "wz"))


@dataclass(frozen=True)
class GatParams:
    """Shared transform, value transform, scorer vector and LeakyReLU slope."""

    w: np.ndarray
    wprime: np.ndarray
    a: np.ndarray
    slope: float = 0.2

    def __post_init__(self):
        w = as_matrix(self.w, "w")
        wprime = as_matrix(self.wprime, "wprime")
        a = as_vector(self.a, "a")
        if wprime.shape[0] != w.shape[0]:
            raise DimensionMismatch("w and wprime must share their input width")
        if a.shape[0] != 2 * w.shape[1]:
            raise DimensionMismatch(
                f"scorer vector has length {a.shape[0]}, expected {2 * w.shape[1]}"
            )
        if not 0.0 < self.slope < 1.0:
            raise ValueError(f"slope must lie in (0, 1), got {self.slope}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "wprime", wprime)
        object.__setattr__(self, "a", a)


# Scores per block of query rows, in bytes: 2**17 float64 scores, which fit
# a 2 MB L2 cache beside their temporaries. On 2 Xeon cores, the summed
# median time of attention at 2048 x 64, 4-head MHA and the non-local block
# at 1024 x 256 was least at 1 MB among blocks of 256 KB to 4 MB; 256 KB was
# 18% slower and 4 MB 26%.
_BLOCK_BYTES = 2**20


def _one_hop(rows: int, weights: Callable[[slice], np.ndarray], values: np.ndarray) -> np.ndarray:
    """weights(b) @ values for each block b of rows with ``_BLOCK_BYTES`` of scores,
    into a rows x d output; :func:`single_hop_aggregate` scans each block's rows."""
    out = np.empty((rows, values.shape[1]))
    step = block_rows(values.shape[0], _BLOCK_BYTES)
    def hop(start):
        block = slice(start, start + step)
        out[block] = single_hop_aggregate(weights(block), values)
    _pool.run(hop, range(0, rows, step))
    return out


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: bool) -> np.ndarray:
    def weights(block):
        scores = build_dot_product_affinity(q[block], k, _checked=True)
        if scale:
            scores /= math.sqrt(q.shape[1])
        return softmax_rows(scores)
    return _one_hop(q.shape[0], weights, v)


@_pool.held()
def attention(Q, K, V, scale: bool = True) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V, the scaled dot-product attention.

    Q may come from a different source than K and V (cross-attention);
    only the inner width must match. Every output coordinate is a convex
    combination of the corresponding V column.
    """
    q, k, v = as_matrix(Q, "Q"), as_matrix(K, "K"), as_matrix(V, "V")
    if k.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"K has {k.shape[0]} rows but V has {v.shape[0]}")
    return _attention(q, k, v, scale)


@_pool.held()
def multi_head_attention(X, cfg: AttentionConfig, proj: ProjectionSet) -> np.ndarray:
    """Concatenated per-head attention followed by the output projection."""
    x = as_matrix(X, "X")
    if x.shape[1] != cfg.d_model:
        raise DimensionMismatch(f"X has width {x.shape[1]}, config expects d_model {cfg.d_model}")
    if proj.heads != cfg.heads:
        raise DimensionMismatch(
            f"projection set has {proj.heads} heads, config expects {cfg.heads}"
        )
    for mat in (*proj.wq, *proj.wk, *proj.wv):
        if mat.shape != (cfg.d_model, cfg.d_k):
            raise DimensionMismatch(
                f"per-head projection must be {cfg.d_model} x {cfg.d_k}, got {mat.shape}"
            )
    if proj.wout.shape != (cfg.heads * cfg.d_k, cfg.d_model):
        raise DimensionMismatch(
            f"wout must be {cfg.heads * cfg.d_k} x {cfg.d_model}, got {proj.wout.shape}"
        )
    def head(w):
        wq, wk, wv = w
        return _attention(x @ wq, x @ wk, x @ wv, cfg.scale)
    return as_matrix(np.hstack(_pool.run(head, zip(proj.wq, proj.wk, proj.wv))) @ proj.wout,
                     "attention output")


@_pool.held()
def non_local_block(
    X,
    proj: NonLocalProjections,
    variant: Literal["embedded_gaussian", "dot_product"] = "embedded_gaussian",
) -> np.ndarray:
    """Non-local aggregation with a residual connection.

    embedded_gaussian normalizes the pairwise scores with a row softmax;
    dot_product divides by the element count N instead. Minus the
    residual, the embedded-Gaussian variant is exactly scaled-free
    attention on the projected inputs.
    """
    x = as_matrix(X, "X")
    for name, mat, rows in (("wtheta", proj.wtheta, x.shape[1]), ("wphi", proj.wphi, x.shape[1]),
                            ("wg", proj.wg, x.shape[1]), ("wz", proj.wz, proj.wg.shape[1])):
        if mat is not None and mat.shape[0] != rows:
            raise DimensionMismatch(f"{name} must have {rows} rows, got {mat.shape[0]}")
    theta, phi, g = _pool.run(x.__matmul__, (proj.wtheta, proj.wphi, proj.wg))
    if variant == "embedded_gaussian":
        y = _attention(theta, phi, g, scale=False)
    elif variant == "dot_product":
        def weights(block):
            scores = build_dot_product_affinity(theta[block], phi, _checked=True)
            return np.divide(scores, x.shape[0], out=scores)
        y = _one_hop(x.shape[0], weights, g)
    else:
        raise ValueError(f"unknown non-local variant: {variant!r}")
    if proj.wz is not None:
        y = y @ proj.wz
    if y.shape != x.shape:
        raise DimensionMismatch(f"residual add needs output shape {x.shape}, got {y.shape}")
    return as_matrix(x + y, "attention output")


def _gat_layer(h: np.ndarray, params: GatParams, mask: NeighborhoodMask, activation) -> np.ndarray:
    """softmax over mask.allowed of LeakyReLU(source_i + target_j), times h wprime."""
    if params.w.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"W rows ({params.w.shape[0]}) must match H columns ({h.shape[1]})")
    if mask.n != h.shape[0]:
        raise DimensionMismatch(f"mask shape {mask.allowed.shape} does not match {h.shape[0]} nodes")
    projected, f_out = h @ params.w, params.w.shape[1]
    source, target = projected @ params.a[:f_out], projected @ params.a[f_out:]
    def weights(block):
        scores = _leaky_outer(source[block], target, params.slope)
        return softmax_rows(np.where(mask.allowed[block], scores, -np.inf))
    out = _one_hop(h.shape[0], weights, h @ params.wprime)
    return as_matrix(activation(out), "activation output") if activation is not None else out


@_pool.held()
def gat_layer(
    H,
    params: GatParams,
    mask: NeighborhoodMask,
    activation: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """One graph attention layer: scorer, masked softmax, aggregation.

    The output nonlinearity defaults to the identity so structural
    equivalences stay exact; pass ``activation`` to opt in.
    """
    return _gat_layer(as_matrix(H, "H"), params, mask, activation)


@_pool.held()
def multi_head_gat(
    H,
    params: Sequence[GatParams],
    mask: NeighborhoodMask,
    mode: Literal["concat", "average"] = "concat",
    activation: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Several GAT heads joined along features or averaged."""
    if not params:
        raise ValueError("at least one head is required")
    if mode not in ("concat", "average"):
        raise ValueError(f"unknown multi-head mode: {mode!r}")
    h = as_matrix(H, "H")
    outputs = [_gat_layer(h, p, mask, activation) for p in params]
    if mode == "concat":
        return np.hstack(outputs)
    return as_matrix(np.mean(np.stack(outputs, axis=0), axis=0), "attention output")
