import math
import re

import numpy as np
import pytest

import affinitykit as ak

SWAP = ak.AffinityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))

# The public iterative stages, each of which takes tol and max_iter.
ITERATIVE = {stage.__name__: stage for stage in (ak.spectral_radius, ak.choose_alpha,
                                                 ak.eigenvector_centrality, ak.pagerank)}

# Each public entry point that takes a count, and the error and message it owns.
COUNTS = {
    "path_scores": (lambda v: ak.path_scores(SWAP, ak.AlphaScaling(0.5, 1.0), v),
                    ValueError, "L must be a positive integer, got {}"),
    "power_series_truncated": (lambda v: ak.power_series_truncated(SWAP, 0.5, v),
                               ValueError, "L must be a positive integer, got {}"),
    "PathSum": (lambda v: ak.PathSum(np.eye(2), 0.5, v),
                ValueError, "length must be a positive integer or 'infinite', got {}"),
    "scale_scores": (lambda v: ak.scale_scores(np.eye(2), v),
                     ValueError, "d_k must be a positive integer, got {}"),
    "AttentionConfig.d_model": (lambda v: ak.AttentionConfig(v, 2, 1),
                                ValueError, "d_model must be a positive integer, got {}"),
    "AttentionConfig.heads": (lambda v: ak.AttentionConfig(2, v, 1),
                              ValueError, "heads must be a positive integer, got {}"),
    "AttentionConfig.d_k": (lambda v: ak.AttentionConfig(2, 1, v),
                            ValueError, "d_k must be a positive integer, got {}"),
    "select_top_k": (lambda v: ak.select_top_k(ak.rank([1.0, 2.0, 3.0]), v),
                     ak.KOutOfRange, "k must lie in 1..3, got {}"),
    **{name: (lambda v, stage=stage: stage(SWAP, max_iter=v),
              ValueError, "max_iter must be a positive integer, got {}")
       for name, stage in ITERATIVE.items()},
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5, 0])
@pytest.mark.parametrize("entry", list(COUNTS))
def test_a_count_that_is_not_a_positive_integer_raises_the_functions_own_error(entry, value):
    # int(inf) raises OverflowError and int(nan) numpy's message: neither may leak.
    call, error, message = COUNTS[entry]
    with pytest.raises(error, match=f"^{re.escape(message.format(value))}$"):
        call(value)


@pytest.mark.parametrize("entry", list(COUNTS))
def test_a_whole_float_count_is_accepted(entry):
    call = COUNTS[entry][0]
    call(2.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", list(ITERATIVE))
def test_a_tolerance_that_is_not_positive_raises_before_any_step(entry, tol):
    with pytest.raises(ValueError, match=f"^{re.escape(f'tol must be positive, got {tol}')}$"):
        ITERATIVE[entry](SWAP, tol=tol)


# Non-finite cells of a 3 x 3 matrix, by flat index: each kind at the first,
# a middle and the last entry, and NaN beside +inf on either side.
NON_FINITE = {
    **{f"{kind}-{where}": {index: value}
       for kind, value in [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
       for where, index in [("first", 0), ("middle", 4), ("last", 8)]},
    "nan-then-inf": {4: math.nan, 5: math.inf},
    "inf-then-nan": {4: math.inf, 5: math.nan},
}


# 3 x 3 and, with the cells at the same fractions of the entries, 40 x 40:
# numpy reduces short and long arrays by different loops.
# Under errstate(all="raise") a floating-point flag raised by the check itself
# would surface as FloatingPointError instead of NonFiniteInput.
@pytest.mark.parametrize("n", [3, 40])
@pytest.mark.parametrize("cells", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_a_non_finite_entry_anywhere_raises(cells, n):
    m = np.ones(n * n)
    for index, value in cells.items():
        m[index * (n * n - 1) // 8] = value
    with np.errstate(all="raise"), pytest.raises(
            ak.NonFiniteInput, match="^affinity matrix contains NaN or infinite entries$"):
        ak.AffinityMatrix(m.reshape(n, n))


NEGATIVE = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, -1e-300], [2.0, 1.0, 0.0]])

# Each public stage that requires nonnegative entries, and the message it owns.
NEGATIVE_ENTRIES = {
    "AffinityMatrix": (lambda m: ak.AffinityMatrix(m, nonnegative=True),
                       "matrix flagged nonnegative has negative entries"),
    "sym_degree_normalize": (lambda m: ak.sym_degree_normalize(ak.AffinityMatrix(m)),
                             "degree normalization requires nonnegative entries"),
    "spectral_radius": (lambda m: ak.spectral_radius(ak.AffinityMatrix(m)),
                        "power iteration requires nonnegative entries"),
    "choose_alpha": (lambda m: ak.choose_alpha(ak.AffinityMatrix(m)),
                     "power iteration requires nonnegative entries"),
    "eigenvector_centrality": (lambda m: ak.eigenvector_centrality(ak.AffinityMatrix(m)),
                               "power iteration requires nonnegative entries"),
    "pagerank": (lambda m: ak.pagerank(ak.AffinityMatrix(m)), "PageRank requires nonnegative entries"),
}


@pytest.mark.parametrize("entry", list(NEGATIVE_ENTRIES))
def test_a_negative_entry_raises_the_stages_own_message(entry):
    call, message = NEGATIVE_ENTRIES[entry]
    with pytest.raises(ak.NegativeEntries, match=f"^{re.escape(message)}$"):
        call(NEGATIVE)
    call(np.abs(NEGATIVE))  # the same matrix without its negative sign passes


def test_the_inferred_sign_flag_reads_the_smallest_entry():
    assert ak.AffinityMatrix(NEGATIVE).nonnegative is False
    assert ak.AffinityMatrix(np.where(NEGATIVE < 0, -0.0, NEGATIVE)).nonnegative is True


@pytest.mark.parametrize("entry", [name for name in NEGATIVE_ENTRIES if name != "AffinityMatrix"])
def test_a_stage_scans_again_whatever_the_flag_says(entry):
    # AffinityMatrix holds the caller's array, not a copy, so nonnegative=True
    # says nothing about entries the caller changes afterwards.
    m = np.abs(NEGATIVE)
    held = ak.AffinityMatrix(m, nonnegative=True)
    assert held.matrix is m
    m[1, 2] = -1.0
    with pytest.raises(ak.NegativeEntries, match=f"^{re.escape(NEGATIVE_ENTRIES[entry][1])}$"):
        getattr(ak, entry)(held)
