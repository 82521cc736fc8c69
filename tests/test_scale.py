"""Every array-taking stage after the builders, at every scale, every warning an error.

The builders have their own sweep, ``TestEveryBuilderAtEveryScale``. Here the
inputs lie on a 2^-10 grid and are scaled by 2^k. Powers of two scale exactly,
so for |k| <= 996, where no scaled input is subnormal, a stage that does not
depend on A's scale returns the k = 0 bits, and a homogeneous one 2^k times
them or its documented error. At k = -1070 the inputs themselves are
subnormal: there, as on the two top-of-range matrices, whose row sums are not
doubles, each stage returns finite values or raises its documented error.
"""

import warnings

import numpy as np
import pytest

import affinitykit as ak


def grid(seed: int, shape, low: int = 0) -> np.ndarray:
    """Seeded entries i 2^-10 for integers i in [low 2^10, 2^11)."""
    return np.ldexp(np.random.default_rng(seed).integers(low << 10, 1 << 11, shape).astype(float), -10)


# Nonnegative, about a third of the entries zero, a positive diagonal.
A = np.where(grid(1, (6, 6)) < 0.6, 0.0, grid(2, (6, 6))) + np.eye(6)

_PAGERANK_BASE = np.array([[0.0, 3, 1, 0], [1, 0, 2, 2], [4, 1, 0, 1], [1, 1, 1, 0]])
TOP_OF_RANGE = {
    # Row 1 sums past the largest double.
    "row_sum_overflows": np.where([[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
                                  1.7e308, np.ldexp(_PAGERANK_BASE, 1021)),
    # rho = 1.618e308 is a double; no row sum is.
    "golden_1e308": np.array([[1e308, 1e308], [1e308, 0.0]]),
}

AM = ak.AffinityMatrix
# choose_alpha's errors: its loop's, and an alpha = fraction / rho past the largest double.
_ALPHA_ERRORS = (ak.NumericError, ak.ConvergenceBoundError)


def _alpha(m):
    return ak.choose_alpha(AM(m))


def _gate(x) -> ak.GateVector:
    return ak.GateVector(grid(3, len(x), low=-2))


def _mha(m):
    d = m.shape[1]
    proj = ak.ProjectionSet(*([np.eye(d)],) * 3, wout=np.eye(d))
    return ak.multi_head_attention(m, ak.AttentionConfig(d_model=d, heads=1, d_k=d), proj)


def _gat_params(m) -> ak.GatParams:
    d = m.shape[1]
    return ak.GatParams(np.eye(d), np.eye(d), grid(4, 2 * d, low=-2))


def _full(m) -> ak.NeighborhoodMask:
    return ak.NeighborhoodMask(np.ones(m.shape, dtype=bool))


def _non_local(m):
    return ak.non_local_block(m, ak.NonLocalProjections(*[np.eye(m.shape[1])] * 3))

# name: (relation at |k| <= 996, call, documented errors). "same": the k = 0 bits;
# "scaled": 2^k times them, or an error; "finite": finite values, or an error.
STAGES = {
    "sym_degree_normalize": ("same", lambda m: ak.sym_degree_normalize(AM(m)), (ak.ZeroDegreeRow,)),
    "pagerank": ("same", lambda m: ak.pagerank(AM(m)).values, (ak.NonConvergence,)),
    "eigenvector_centrality": ("same", lambda m: ak.eigenvector_centrality(AM(m)).values,
                               (ak.NumericError, ak.ZeroMatrix)),
    "path_scores": ("same", lambda m: ak.path_scores(AM(m), _alpha(m)), _ALPHA_ERRORS),
    "path_scores-truncated": ("same", lambda m: ak.path_scores(AM(m), _alpha(m), 40), _ALPHA_ERRORS),
    "power_series_closed_form": ("same", lambda m: ak.power_series_closed_form(AM(m), _alpha(m)).matrix,
                                 _ALPHA_ERRORS),
    "power_series_truncated": ("same", lambda m: ak.power_series_truncated(AM(m), _alpha(m).alpha, 40).matrix,
                               _ALPHA_ERRORS),
    "inffs_scores": ("same", lambda m: ak.inffs_scores(ak.power_series_closed_form(AM(m), _alpha(m))),
                     _ALPHA_ERRORS),
    "rank": ("same", lambda m: ak.rank(m[0] - m[-1]).order, ()),
    "spectral_radius": ("scaled", lambda m: ak.spectral_radius(AM(m)), (ak.NumericError,)),
    "single_hop_aggregate": ("scaled", lambda m: ak.single_hop_aggregate(m, grid(5, (len(m), 3), low=-2)),
                             (ak.NonFiniteInput,)),
    "scale_scores": ("scaled", lambda m: ak.scale_scores(m, 4), ()),
    "gate_forward": ("scaled", lambda m: ak.gate_forward(m[0], _gate(m[0])), ()),
    "gate_gradient": ("scaled", lambda m: ak.gate_gradient(m[0], _gate(m[0]), np.ones(len(m))), ()),
    "softmax_rows": ("finite", ak.softmax_rows, (ak.NonFiniteInput,)),
    "masked_softmax_rows": ("finite", lambda m: ak.masked_softmax_rows(m, _full(m)), (ak.NonFiniteInput,)),
    "attention": ("finite", lambda m: ak.attention(m, m, m), (ak.NonFiniteInput,)),
    "multi_head_attention": ("finite", _mha, (ak.NonFiniteInput,)),
    "non_local_block": ("finite", _non_local, (ak.NonFiniteInput,)),
    "gat_layer": ("finite", lambda m: ak.gat_layer(m, _gat_params(m), _full(m)), (ak.NonFiniteInput,)),
    "multi_head_gat": ("finite", lambda m: ak.multi_head_gat(m, [_gat_params(m)] * 2, _full(m)),
                       (ak.NonFiniteInput,)),
}

SCALES = [-1070, -996, -500, 0, 500, 996]


def _call(call, m, errors):
    """call(m) as an array with every warning an error, or None for a documented error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.asarray(call(m))
        except errors:
            return None


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("name", sorted(STAGES))
def test_every_stage_at_every_scale(name, k):
    relation, call, errors = STAGES[name]
    result = _call(call, np.ldexp(A, k), errors)
    if result is not None:
        assert np.all(np.isfinite(result))
    if abs(k) > 996 or relation == "finite":
        return
    expected = np.asarray(call(A))
    if relation == "same":
        assert result is not None and np.array_equal(bits(result), bits(expected))
    elif result is not None:
        assert np.array_equal(bits(result), bits(np.ldexp(expected, k)))


@pytest.mark.parametrize("matrix", sorted(TOP_OF_RANGE))
@pytest.mark.parametrize("name", sorted(STAGES))
def test_every_stage_at_the_top_of_the_range(name, matrix):
    _, call, errors = STAGES[name]
    result = _call(call, TOP_OF_RANGE[matrix], errors)
    assert result is None or np.all(np.isfinite(result))
