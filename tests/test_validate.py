import math
import re

import numpy as np
import pytest

import affinitykit as ak

SWAP = ak.AffinityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))

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
