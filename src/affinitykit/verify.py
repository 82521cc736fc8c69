"""Cross-module equivalence checks on seeded random instances.

Each check exercises one structural identity the library is organized
around: the closed-form path series against its truncation, the one-hop
degeneration to weighted degrees, the non-local block's reduction to
attention, the GAT layer's reduction to dense concat-scored attention,
the stacking-equals-multi-hop composition law, permutation
equivariance of the ranking scores, and the score-only path series
against the row sums of the path matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import AffinityMatrix, build_gat_scores
from .attention import GatParams, NonLocalProjections, attention, gat_layer, non_local_block
from .normalize import NeighborhoodMask, choose_alpha, softmax_rows
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


def _max_abs(diff: np.ndarray) -> float:
    return float(np.abs(diff).max())


def check_closed_form_vs_truncated(
    seed: int = 0,
    instances: int = 20,
    n: int = 30,
    fraction: float = 0.5,
    truncation: int = 60,
    tolerance: float = 1e-8,
) -> PropertyCheck:
    """Closed form vs truncated series at alpha = fraction / rho."""
    gen = Lcg(seed)
    worst = 0.0
    for _ in range(instances):
        a = AffinityMatrix(gen.matrix(n, n))
        scaling = choose_alpha(a, fraction)
        closed = power_series_closed_form(a, scaling)
        truncated = power_series_truncated(a, scaling.alpha, truncation)
        worst = max(worst, _max_abs(closed.matrix - truncated.matrix))
    return PropertyCheck("closed_form_vs_truncated", worst, tolerance)


def check_one_hop_degeneration(
    seed: int = 1, instances: int = 20, fraction: float = 0.5, tolerance: float = 1e-14
) -> PropertyCheck:
    """L = 1 path sums score exactly alpha times the weighted degree.

    Alpha follows the pipeline's own policy (fraction / rho), which also
    keeps score magnitudes small enough that the 1e-14 absolute budget
    is honest rather than scale-dependent.
    """
    gen = Lcg(seed)
    worst = 0.0
    for _ in range(instances):
        n = gen.randint(2, 30)
        a = AffinityMatrix(gen.matrix(n, n))
        alpha = choose_alpha(a, fraction).alpha
        scores = inffs_scores(power_series_truncated(a, alpha, 1))
        degrees = alpha * a.matrix.sum(axis=1)
        worst = max(worst, _max_abs(scores - degrees))
    return PropertyCheck("one_hop_degeneration", worst, tolerance)


def check_nonlocal_matches_attention(
    seed: int = 2, instances: int = 20, tolerance: float = 1e-12
) -> PropertyCheck:
    """Embedded-Gaussian block minus residual equals unscaled attention."""
    gen = Lcg(seed)
    worst = 0.0
    for _ in range(instances):
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
        direct = attention(x @ proj.wtheta, x @ proj.wphi, x @ proj.wg, scale=False)
        worst = max(worst, _max_abs(block - direct))
    return PropertyCheck("nonlocal_equals_attention", worst, tolerance)


def check_gat_matches_dense_attention(
    seed: int = 3, instances: int = 20, tolerance: float = 1e-12
) -> PropertyCheck:
    """Fully connected GAT with identity activation equals the manual
    scorer + softmax + aggregation composition."""
    gen = Lcg(seed)
    worst = 0.0
    for _ in range(instances):
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
        manual = single_hop_aggregate(softmax_rows(scores), h @ params.wprime)
        worst = max(worst, _max_abs(layered - manual))
    return PropertyCheck("gat_equals_dense_attention", worst, tolerance)


def check_stacking_composition(
    seed: int = 4, instances: int = 20, tolerance: float = 1e-10
) -> PropertyCheck:
    """Two chained one-hop aggregations equal one aggregation with W^2."""
    gen = Lcg(seed)
    worst = 0.0
    for _ in range(instances):
        n = gen.randint(2, 32)
        d = gen.randint(1, 8)
        w = softmax_rows(gen.matrix(n, n, -2.0, 2.0))
        v = gen.matrix(n, d, -5.0, 5.0)
        chained = single_hop_aggregate(w, single_hop_aggregate(w, v))
        squared = single_hop_aggregate(w @ w, v)
        worst = max(worst, _max_abs(chained - squared))
    return PropertyCheck("stacking_composition", worst, tolerance)


def check_permutation_equivariance(
    seed: int = 5, instances: int = 20, fraction: float = 0.5, tolerance: float = 1e-12
) -> PropertyCheck:
    """Ranking scores of P A P^T are the permuted ranking scores of A."""
    gen = Lcg(seed)
    worst = 0.0
    for _ in range(instances):
        n = gen.randint(2, 20)
        a = AffinityMatrix(gen.matrix(n, n))
        perm = gen.permutation(n)
        permuted = AffinityMatrix(a.matrix[np.ix_(perm, perm)])
        # One shared scaling: the spectrum is permutation-invariant.
        scaling = choose_alpha(a, fraction)
        base = inffs_scores(power_series_closed_form(a, scaling))
        scores_p = inffs_scores(power_series_closed_form(permuted, scaling))
        worst = max(worst, _max_abs(scores_p - base[perm]))
    return PropertyCheck("permutation_equivariance", worst, tolerance)


def check_score_path_equals_matrix_path(
    seed: int = 6,
    instances: int = 20,
    n: int = 30,
    truncation: int = 60,
    tolerance: float = 1e-12,
) -> PropertyCheck:
    """path_scores equals the row sums of the path matrix, closed form and truncated.

    Alpha * rho is fixed at 0.5, so the scores are O(1) and the 1e-12
    budget is absolute.
    """
    gen = Lcg(seed)
    worst = 0.0
    for _ in range(instances):
        a = AffinityMatrix(gen.matrix(n, n))
        scaling = choose_alpha(a, 0.5)
        closed = inffs_scores(power_series_closed_form(a, scaling))
        truncated = inffs_scores(power_series_truncated(a, scaling.alpha, truncation))
        worst = max(
            worst,
            _max_abs(path_scores(a, scaling) - closed),
            _max_abs(path_scores(a, scaling, truncation) - truncated),
        )
    return PropertyCheck("score_path_equals_matrix_path", worst, tolerance)


def run_all(
    seed: int = 0, fraction: float = 0.5, tolerance: float | None = None
) -> list[PropertyCheck]:
    """Run every property; ``tolerance`` overrides each per-property default."""
    overrides = {} if tolerance is None else {"tolerance": tolerance}
    return [
        check_closed_form_vs_truncated(seed=seed, fraction=fraction, **overrides),
        check_one_hop_degeneration(seed=seed + 1, **overrides),
        check_nonlocal_matches_attention(seed=seed + 2, **overrides),
        check_gat_matches_dense_attention(seed=seed + 3, **overrides),
        check_stacking_composition(seed=seed + 4, **overrides),
        check_permutation_equivariance(seed=seed + 5, fraction=fraction, **overrides),
        check_score_path_equals_matrix_path(seed=seed + 6, **overrides),
    ]
