"""Cross-module equivalence checks on seeded random instances.

Each property exercises one structural identity the library is organized
around: the closed-form path series against its truncation, the one-hop
degeneration to weighted degrees, the non-local block's reduction to
attention, the GAT layer's reduction to dense concat-scored attention,
the stacking-equals-multi-hop composition law, permutation
equivariance of the ranking scores, the score-only path series
against the row sums of the path matrix, the generator's
closed-form draws against its one-step recurrence, attention in
query-row blocks against the dense formula, and the Gaussian affinity's
once-per-pair distances against the broadcast formula.

A property is a function ``(gen, fraction) -> error`` that draws one
instance from ``gen`` and returns its largest absolute error, plus a row
in ``_PROPERTIES``; ``run_all`` does the seeding and the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affinity import AffinityMatrix, build_gat_scores, build_gaussian_affinity
from .attention import (
    _BLOCK_BYTES,
    GatParams,
    NonLocalProjections,
    attention,
    gat_layer,
    non_local_block,
)
from .normalize import NeighborhoodMask, choose_alpha, scale_scores, softmax_rows
from .propagate import (
    inffs_scores,
    path_scores,
    power_series_closed_form,
    power_series_truncated,
    single_hop_aggregate,
)
from .rng import Lcg


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one equivalence property over its random instances."""

    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def _max_abs(*diffs: np.ndarray) -> float:
    """Largest absolute entry over ``diffs``; NaN if any entry is NaN."""
    return float(np.max([np.abs(diff).max() for diff in diffs]))


def _closed_form_vs_truncated(gen: Lcg, fraction: float) -> float:
    """Closed form vs truncated series (N = 30) at alpha = fraction / rho.

    L >= 60 makes the tail bound q^(L+1) / (1 - q), q = fraction >= alpha * rho, at most 1e-12.
    """
    length = max(60, math.ceil(math.log(1e-12 * (1 - fraction)) / math.log(fraction)))
    if length > 10_000:
        raise ValueError(f"alpha fraction {fraction} needs L = {length} > 10000 series terms")
    a = AffinityMatrix(gen.matrix(30, 30))
    scaling = choose_alpha(a, fraction)
    truncated = power_series_truncated(a, scaling.alpha, length)
    return _max_abs(power_series_closed_form(a, scaling).matrix - truncated.matrix)


def _one_hop_degeneration(gen: Lcg, fraction: float) -> float:
    """L = 1 path sums score exactly alpha times the weighted degree.

    Alpha * rho is fixed at 0.5 whatever ``fraction`` is: that keeps the
    score magnitudes small enough that the 1e-14 absolute budget is
    honest rather than scale-dependent.
    """
    n = gen.randint(2, 30)
    a = AffinityMatrix(gen.matrix(n, n))
    alpha = choose_alpha(a, 0.5).alpha
    scores = inffs_scores(power_series_truncated(a, alpha, 1))
    return _max_abs(scores - alpha * a.matrix.sum(axis=1))


def _nonlocal_equals_attention(gen: Lcg, fraction: float) -> float:
    """Embedded-Gaussian block minus residual equals unscaled attention."""
    n = gen.randint(2, 16)
    d = gen.randint(1, 8)
    x = gen.matrix(n, d, -1.0, 1.0)
    proj = NonLocalProjections(
        wtheta=gen.matrix(d, d, -0.5, 0.5),
        wphi=gen.matrix(d, d, -0.5, 0.5),
        wg=gen.matrix(d, d, -0.5, 0.5),
        wz=np.eye(d),
    )
    block = non_local_block(x, proj, "embedded_gaussian") - x
    return _max_abs(block - attention(x @ proj.wtheta, x @ proj.wphi, x @ proj.wg, scale=False))


def _gat_equals_dense_attention(gen: Lcg, fraction: float) -> float:
    """Fully connected GAT with identity activation equals the manual
    scorer + softmax + aggregation composition."""
    n = gen.randint(2, 16)
    f_in = gen.randint(1, 6)
    f_out = gen.randint(1, 6)
    h = gen.matrix(n, f_in, -1.0, 1.0)
    params = GatParams(
        w=gen.matrix(f_in, f_out, -0.5, 0.5),
        wprime=gen.matrix(f_in, f_out, -0.5, 0.5),
        a=gen.vector(2 * f_out, -0.5, 0.5),
        slope=0.2,
    )
    layered = gat_layer(h, params, NeighborhoodMask.full(n))
    scores = build_gat_scores(h, params.w, params.a, params.slope)
    return _max_abs(layered - single_hop_aggregate(softmax_rows(scores), h @ params.wprime))


def _stacking_composition(gen: Lcg, fraction: float) -> float:
    """Two chained one-hop aggregations equal one aggregation with W^2."""
    n = gen.randint(2, 32)
    d = gen.randint(1, 8)
    w = softmax_rows(gen.matrix(n, n, -2.0, 2.0))
    v = gen.matrix(n, d, -5.0, 5.0)
    chained = single_hop_aggregate(w, single_hop_aggregate(w, v))
    return _max_abs(chained - single_hop_aggregate(w @ w, v))


def _permutation_equivariance(gen: Lcg, fraction: float) -> float:
    """Ranking scores of P A P^T are the permuted ranking scores of A.

    Alpha * rho is fixed at 0.5 whatever ``fraction`` is: the scores grow
    like 1 / (1 - alpha * rho), and the 1e-12 budget is absolute.
    """
    n = gen.randint(2, 20)
    a = AffinityMatrix(gen.matrix(n, n))
    perm = gen.permutation(n)
    permuted = AffinityMatrix(a.matrix[np.ix_(perm, perm)])
    # One shared scaling: the spectrum is permutation-invariant.
    scaling = choose_alpha(a, 0.5)
    base = inffs_scores(power_series_closed_form(a, scaling))
    return _max_abs(inffs_scores(power_series_closed_form(permuted, scaling)) - base[perm])


def _score_path_equals_matrix_path(gen: Lcg, fraction: float) -> float:
    """path_scores equals the row sums of the path matrix, closed form and truncated.

    Alpha * rho is fixed at 0.5 whatever ``fraction`` is, so the scores
    are O(1) and the 1e-12 budget is absolute.
    """
    a = AffinityMatrix(gen.matrix(30, 30))
    scaling = choose_alpha(a, 0.5)
    closed = inffs_scores(power_series_closed_form(a, scaling))
    truncated = inffs_scores(power_series_truncated(a, scaling.alpha, 60))
    return _max_abs(path_scores(a, scaling) - closed, path_scores(a, scaling, 60) - truncated)


def _block_draws_equal_scalar_draws(gen: Lcg, fraction: float) -> float:
    """Lcg.matrix's closed-form draws equal one next_u64 step per draw.

    The error is the largest draw difference, or 1 if the generators end
    on different states.
    """
    seed, count = gen.next_u64(), gen.randint(4097, 4160)
    block, scalar = Lcg(seed), Lcg(seed)
    drawn = block.matrix(1, count)[0]
    stepped = np.array([scalar.next_u64() >> 11 for _ in range(count)], dtype=np.float64) * 2.0**-53
    return max(_max_abs(drawn - stepped), float(block.state != scalar.state))


def _blocked_attention_equals_dense(gen: Lcg, fraction: float) -> float:
    """attention(), one block of query rows at a time, equals the dense formula.

    The keys make a block of ``_BLOCK_BYTES`` of scores 32 rows tall, and
    the queries fill two blocks and part of a third.
    """
    keys, step = _BLOCK_BYTES // (8 * 32), 32
    d = gen.randint(1, 8)
    q = gen.matrix(2 * step + gen.randint(1, step - 1), d, -2.0, 2.0)
    k = gen.matrix(keys, d, -2.0, 2.0)
    v = gen.matrix(keys, gen.randint(1, 4), -5.0, 5.0)
    dense = softmax_rows(scale_scores(q @ k.T, d)) @ v
    return _max_abs(attention(q, k, v) - dense)


def _gaussian_pairs_equal_broadcast(gen: Lcg, fraction: float) -> float:
    """build_gaussian_affinity, one unordered pair at a time, equals the
    broadcast formula exactly; about half the instances pass X in Fortran order.
    """
    n, d = gen.randint(1, 16), gen.randint(1, 40)
    x = gen.matrix(n, d, -1.0, 1.0)
    h = gen.vector(1, 0.5, 4.0)[0]
    layout = np.asfortranarray(x) if gen.randint(0, 1) else x
    dense = np.exp(-((x[:, None] - x[None]) ** 2).sum(-1) / (h * h))
    return _max_abs(build_gaussian_affinity(layout, h).matrix - dense)


# (name, one instance's error, default tolerance), in report order.
_PROPERTIES = (
    ("closed_form_vs_truncated", _closed_form_vs_truncated, 1e-8),
    ("one_hop_degeneration", _one_hop_degeneration, 1e-14),
    ("nonlocal_equals_attention", _nonlocal_equals_attention, 1e-12),
    ("gat_equals_dense_attention", _gat_equals_dense_attention, 1e-12),
    ("stacking_composition", _stacking_composition, 1e-10),
    ("permutation_equivariance", _permutation_equivariance, 1e-12),
    ("score_path_equals_matrix_path", _score_path_equals_matrix_path, 1e-12),
    ("block_draws_equal_scalar_draws", _block_draws_equal_scalar_draws, 0.0),
    ("blocked_attention_equals_dense", _blocked_attention_equals_dense, 1e-12),
    ("gaussian_pairs_equal_broadcast", _gaussian_pairs_equal_broadcast, 0.0),
)


def run_all(
    seed: int = 0, fraction: float = 0.5, tolerance: float | None = None
) -> list[PropertyCheck]:
    """Run every property; ``tolerance`` overrides each per-property default.

    Property ``i`` draws its 20 instances from ``Lcg(seed + i)``. The worst
    error is a NaN-propagating maximum, so a NaN error fails.
    """
    checks = []
    for offset, (name, error, default) in enumerate(_PROPERTIES):
        gen = Lcg(seed + offset)
        worst = float(np.max([error(gen, fraction) for _ in range(20)]))
        checks.append(PropertyCheck(name, worst, default if tolerance is None else tolerance))
    return checks
