"""Turning raw affinity scores into usable weight matrices.

Row softmax (optionally scaled by sqrt(d_k)), neighborhood-masked
softmax, symmetric degree normalization, and the spectral-radius
machinery that bounds the path-series decay parameter alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import as_matrix, block_rows, iteration_count, positive_int, shaped
from .affinity import AffinityMatrix
from .errors import (
    ConvergenceBoundError,
    DimensionMismatch,
    EmptyNeighborhood,
    NegativeEntries,
    NonConvergence,
    NonFiniteInput,
    NumericError,
    ZeroDegreeRow,
)

# Bytes of float64 per block of rows in the passes over an N x N matrix that
# form no N x N temporary. On 2 cores, spectral_radius on 1000 x 1000 matrices
# took 19 ms at 1 MiB and 25 ms at 128 KiB on two dense 500-node classes in
# order, 10 and 14 ms on two random ones shuffled, and 25 and 31 ms on 100
# shuffled 10-node classes, each strip a run of small classes masked by class.
_BLOCK_BYTES = 2**20

# Bytes of float64 per row block of :func:`_row_sums`. At 1000 nodes on 2 cores PageRank's
# took 1.4 ms at 128 KiB and 1.3 ms at 1 MiB, a block of 0.05 and 0.36 of a 600-node A.
_ROW_SUM_BYTES = 1 << 17


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


def softmax_rows(S) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    A -inf score weighs exactly 0, and so does a finite one whose difference
    from its row's max overflows to -inf. NaN, +inf or a row with no finite
    entry raises :class:`NonFiniteInput`. Each of those makes its row's sum of
    exponentials NaN, and any other row sums to at least 1, the exp of its max,
    so the row sums that the division needs are the only scan of the scores.
    """
    scores = shaped(S, "scores")
    with np.errstate(over="ignore", invalid="ignore"):  # the row sums report NaN
        weights = scores - scores.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        sums = weights.sum(axis=1, keepdims=True)
        if not (sums >= 1.0).all():
            raise NonFiniteInput("softmax scores contain NaN, +inf or a row with no finite entry")
    weights /= sums
    return weights


def scale_scores(S, d_k: int) -> np.ndarray:
    """Divide every score by sqrt(d_k)."""
    scores = as_matrix(S, "scores")
    return scores / math.sqrt(positive_int(d_k, f"d_k must be a positive integer, got {d_k}"))


def masked_softmax_rows(S, mask: NeighborhoodMask) -> np.ndarray:
    """Row softmax restricted to each row's allowed neighborhood.

    Disallowed scores are never read: they are taken as -inf, so their
    weights are exactly zero and every row remains a true softmax over its
    neighborhood. An allowed score weighs as in :func:`softmax_rows`: -inf
    weighs 0, and NaN, +inf or a neighborhood with no finite score raises
    :class:`NonFiniteInput`.
    """
    scores = np.asarray(S, dtype=float)
    if mask.allowed.shape != scores.shape:
        raise DimensionMismatch(
            f"mask shape {mask.allowed.shape} does not match scores {scores.shape}"
        )
    return softmax_rows(np.where(mask.allowed, scores, -np.inf))


def _product_shift(e_m: int, n: int, e_x: int) -> int:
    """The least s >= 0 with m (2^-s x) < 2^1022 for |m| < 2^e_m, n columns and |x| <= 2^e_x."""
    return max(0, e_m + e_x + n.bit_length() + 1 - 1023)


def _row_sums(m: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Each row i of m summed in units of 2^exponents[i], a block of rows at a time."""
    sums = np.empty(len(m))
    step = block_rows(len(m), _ROW_SUM_BYTES)
    with np.errstate(under="ignore"):  # an entry far below its row's largest
        for start in range(0, len(m), step):
            rows = slice(start, start + step)
            sums[rows] = np.ldexp(m[rows], -exponents[rows, None]).sum(axis=1)
    return sums


def sym_degree_normalize(A: AffinityMatrix) -> np.ndarray:
    """Normalize entries by the geometric mean of weighted row degrees.

    Row i is measured in 2^e_i, the even power of two at or just above its
    largest entry, so its degree there, r_i, lies in [1/4, N), and the result is
    formed as m_ij 2^-(e_i + e_j)/2 / sqrt(r_i r_j): no degree or product of two
    overflows or vanishes, however far apart the rows' scales lie. Powers of two
    scale exactly, so where no scaled entry is subnormal the result has the bits
    of m / sqrt(d_i d_j). The r_i come from :func:`_row_sums`, as PageRank's do, so a
    zero one raises before the result exists; its buffer is filled row block by row block.
    """
    m = A.matrix
    if m.min() < 0:
        raise NegativeEntries("degree normalization requires nonnegative entries")
    half = (np.frexp(m.max(axis=1))[1] + 1) // 2  # e_i / 2
    degrees = _row_sums(m, 2 * half)
    if degrees.min() <= 0:  # the first zero is the first minimum
        raise ZeroDegreeRow(f"row {int(degrees.argmin())} has zero weighted degree")
    out = np.empty_like(m)
    with np.errstate(under="ignore"):  # an entry far below its row's largest
        step = block_rows(len(m), _BLOCK_BYTES)
        for start in range(0, len(m), step):
            rows = slice(start, start + step)
            np.ldexp(m[rows], -half[rows, None] - half, out=out[rows])
            scale = np.outer(degrees[rows], degrees)
            np.divide(out[rows], np.sqrt(scale, out=scale), out=out[rows])
            del scale  # before the next block's exponents
    return out


def _reach(m: np.ndarray, start: int, skip: np.ndarray) -> np.ndarray:
    """Mask of the nodes that paths from ``start`` outside ``skip`` lead to, i to j
    where m[i, j] > 0. Each step reads only the frontier's block of m to new nodes,
    a few of its rows at a time."""
    found = np.zeros(len(m), dtype=bool)
    found[start] = True
    frontier = np.array([start])
    while frontier.size:
        free = np.flatnonzero(~(found | skip))
        hit = np.zeros(free.size, dtype=bool)
        step = block_rows(free.size, _BLOCK_BYTES)
        for i in range(0, frontier.size, step):
            hit |= (m[np.ix_(frontier[i:i + step], free)] > 0).any(axis=0)
        frontier = free[hit]
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


def _strips(labels: np.ndarray, step: int) -> list[tuple]:
    """(rows, cols, same) for each strip of m that :func:`_power` reads on the
    blocks of ``labels``, so that m is read only within blocks and not copied.
    In order of block, a block of more than ``step`` nodes gives strips of
    ``step`` of its rows by all its columns, and a run of smaller blocks, at
    most ``step`` nodes, gives their rows by the same columns, with ``same``
    the mask of its pairs in one block (None for a strip in one block). Nodes
    that run on in m are a slice, so a block listed in order is read in place."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    starts = [0, *(np.flatnonzero(np.diff(ordered)) + 1)]
    spans, run = [], 0  # run: the first node, in block order, of no strip yet
    for start, end in zip(starts, [*starts[1:], len(order)]):
        if run < start and end - run > step:
            spans.append((run, start, run, start))
            run = start
        if end - start > step:
            spans.extend((i, min(i + step, end), start, end) for i in range(start, end, step))
            run = end
    if run < len(order):
        spans.append((run, len(order), run, len(order)))

    def nodes(a, b):
        run = order[a:b]
        return slice(run[0], run[-1] + 1) if (np.diff(run) == 1).all() else run

    def same(a, b, c, d):
        return None if ordered[a] == ordered[b - 1] else ordered[a:b, None] == ordered[c:d]
    return [(nodes(a, b), nodes(c, d), same(a, b, c, d)) for a, b, c, d in spans]


def _strip(m: np.ndarray, rows, cols, same) -> np.ndarray:
    """m[rows, cols] for slices or arrays of nodes, 0 where ``same`` is False."""
    gather = isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray)
    block = m[np.ix_(rows, cols)] if gather else m[rows, cols]
    return block if same is None else np.where(same, block, 0.0)


def _power(m: np.ndarray, labels: np.ndarray, tol: float, max_iter: int,
           rayleigh: bool, nodes: np.ndarray | None = None) -> tuple[np.ndarray, float, float, int]:
    """Power iteration on m + cI with the edges between the blocks of ``labels``,
    unions of m's classes, dropped as each product reads m in the
    :func:`_strips` of the blocks; c is a tenth of the block's largest row sum,
    so a bipartite block's mode at -rho decays by 9/11 per step at any scale.
    Each step divides a class's x by its largest entry and floors it at 2^-600
    of that entry, so x <= 1 whatever m's scale. Each product reads x in units
    of 2^-s, s the :func:`_product_shift` that keeps y = m x below 2^1022 and so
    the step c x + y below 2^1023; y, c, lo and hi are in units of 2^s, and lo
    and hi are scaled back on return. At s = 0 the scaling is exact, a no-op. A
    rho beyond the largest double raises :class:`NumericError`. For x > 0 and
    y = m x, hi = max y/x raised by (n + 2) eps, and lo = max over blocks of
    min y_K/x_K; with ``rayleigh`` and m symmetric, also of the blocks'
    Rayleigh quotients. Also returns a node of the block whose bound is lo; a
    :class:`NonConvergence` names a node whose bound is hi, and its class's
    size. With ``nodes``, m is the rows and columns ``nodes`` of the caller's
    matrix, one block of the classes that reach its top class, and the node
    is named by its number there."""
    n = m.shape[0]
    count = int(labels.max()) + 1
    strips = _strips(labels, block_rows(n, _BLOCK_BYTES))
    s = _product_shift(int(np.frexp(m.max())[1]), n, 0)

    def product(x):  # one matrix-vector product on one block, else one per strip
        x = np.ldexp(x, -s)
        if count == 1:
            return m @ x
        y = np.empty(n)
        for rows, cols, same in strips:
            if same is None and isinstance(cols, np.ndarray):  # whole rows beat a gather of columns
                y[rows] = m[rows] @ np.where(labels == labels[cols[0]], x, 0.0)
            else:
                y[rows] = _strip(m, rows, cols, same) @ x[cols]
        return y

    shift = np.zeros(count)
    np.maximum.at(shift, labels, product(np.ones(n)))
    shift = 0.1 * shift[labels]
    x = np.ones(n)
    symmetric = False
    for step in range(max_iter):
        y = product(x)
        ratios = y / x
        hi = float(ratios.max()) * (1.0 + (n + 2) * 2.0**-52)
        low = np.full(count, np.inf)
        np.minimum.at(low, labels, ratios)
        if step == 32:  # a bracket still open repays one transposed pass over m, strip by strip
            symmetric = rayleigh and all(np.array_equal(_strip(m, *strip), _strip(m.T, *strip))
                                         for strip in strips)
        if symmetric:  # a zero class's floored x squares to 0: divide by the floor
            squares = np.maximum(np.bincount(labels, x * x, count), 2.0**-600)
            np.maximum(low, np.bincount(labels, x * y, count) / squares, out=low)
        lo = float(low.max())
        if hi - lo <= tol * hi:
            try:
                lo, hi = math.ldexp(lo, s), math.ldexp(hi, s)
            except OverflowError:
                raise NumericError(f"rho in {_bracket(lo, hi, s)} exceeds the largest double") from None
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
                         f"rho in {_bracket(lo, hi, s)}; hi is set by {where}")


def _bracket(lo: float, hi: float, s: int) -> str:
    """[lo, hi] in units of 2^s, as text."""
    return f"[{lo!r}, {hi!r}]" + (f" * 2**{s}" if s else "")


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
    makes every alpha convergent, so the fraction itself is returned. A
    subnormal rho whose alpha is beyond the largest double raises
    :class:`NumericError`.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    rho = spectral_radius(A, tol=tol, max_iter=max_iter)
    alpha = fraction / rho if rho > 0 else fraction
    if alpha == math.inf:
        raise NumericError(f"alpha = fraction / rho = {fraction} / {rho} exceeds the largest double")
    return AlphaScaling(alpha=alpha, rho=rho)
