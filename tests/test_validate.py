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
