import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

import affinitykit as ak
from affinitykit.selection import GateVector, _logistic


def fd_gate_gradient(x, params, upstream, step=1e-6):
    """Oracle: central finite differences through gate_forward itself."""
    grads = np.empty_like(params)
    for i in range(len(params)):
        plus, minus = params.copy(), params.copy()
        plus[i] += step
        minus[i] -= step
        delta = (
            ak.gate_forward(x, GateVector(plus))[i]
            - ak.gate_forward(x, GateVector(minus))[i]
        )
        grads[i] = upstream[i] * delta / (2 * step)
    return grads


class TestRank:
    def test_all_ties_break_by_index(self):
        assert_array_equal(ak.rank([0.0, 0.0, 0.0]).order, [0, 1, 2])

    def test_descending(self):
        assert_array_equal(ak.rank([1.0, 3.0, 2.0]).order, [1, 2, 0])

    def test_chain_scores_put_hub_first(self):
        chain = ak.AffinityMatrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        )
        scaling = ak.AlphaScaling(0.25, ak.spectral_radius(chain))
        scores = ak.inffs_scores(ak.power_series_closed_form(chain, scaling))
        assert ak.rank(scores).order[0] == 1

    def test_names_carried(self):
        r = ak.rank([1.0, 2.0], names=("low", "high"))
        assert r.feature_names == ("low", "high")
        assert r.order[0] == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ak.NonFiniteScores):
            ak.rank([1.0, np.nan])

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=12),
        st.floats(0.1, 10.0),
        st.floats(-100.0, 100.0),
    )
    @settings(max_examples=100)
    def test_positive_affine_invariance(self, scores, a, b):
        base = np.asarray(scores, dtype=float)
        assert_array_equal(ak.rank(a * base + b).order, ak.rank(base).order)

    def test_result_invariants_validated(self):
        with pytest.raises(ValueError):
            ak.RankingResult(np.array([1.0, 2.0]), np.array([0, 0]))
        with pytest.raises(ValueError):
            ak.RankingResult(np.array([1.0, 2.0]), np.array([0, 1]))  # ascending scores
        with pytest.raises(ValueError):
            ak.RankingResult(np.array([1.0, 1.0]), np.array([1, 0]))  # tie out of order


class TestSelectTopK:
    def test_full_order(self):
        r = ak.rank([5.0, 1.0, 3.0])
        assert ak.select_top_k(r, 3) == [0, 2, 1]

    def test_single_best(self):
        assert ak.select_top_k(ak.rank([1.0, 3.0, 2.0]), 1) == [1]

    def test_chain_top_two(self):
        # hub first, then the lower-indexed leaf by the tie rule
        chain = ak.AffinityMatrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        )
        scaling = ak.AlphaScaling(0.25, ak.spectral_radius(chain))
        scores = ak.inffs_scores(ak.power_series_closed_form(chain, scaling))
        assert ak.select_top_k(ak.rank(scores), 2) == [1, 0]

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=10), st.data())
    @settings(max_examples=60)
    def test_smaller_k_is_a_prefix(self, scores, data):
        r = ak.rank(np.asarray(scores, dtype=float))
        k2 = data.draw(st.integers(1, len(scores)))
        k1 = data.draw(st.integers(1, k2))
        assert ak.select_top_k(r, k1) == ak.select_top_k(r, k2)[:k1]

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ak.KOutOfRange):
            ak.select_top_k(ak.rank([1.0, 2.0, 3.0]), k)


class TestLogistic:
    def test_within_four_ulp_of_scipy_without_warnings(self):
        p = np.linspace(-700.0, 700.0, 200_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = _logistic(p)
        expected = expit(p)
        assert np.all(np.abs(ours - expected) <= 4 * np.spacing(expected))

    @given(st.floats(-700.0, 700.0))
    @settings(max_examples=300)
    def test_within_four_ulp_at_any_point(self, p):
        expected = expit(np.float64(p))
        assert abs(_logistic(np.array([p]))[0] - expected) <= 4 * np.spacing(expected)

    def test_saturates_exactly_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _logistic(np.array([-1e308, 1e308]))
        assert out.tolist() == [0.0, 1.0]


class TestGateForward:
    def test_zero_params_halve_input(self):
        x = np.array([2.0, -6.0, 1.0])
        out = ak.gate_forward(x, GateVector(np.zeros(3)))
        assert_array_equal(out, 0.5 * x)

    def test_saturated_gate_is_identity(self):
        x = np.array([3.0, -0.25])
        out = ak.gate_forward(x, GateVector(np.full(2, 40.0)))
        assert np.abs(out - x).max() <= 1e-12

    def test_saturated_negative_gate_vanishes(self):
        x = np.array([3.0, -0.25])
        out = ak.gate_forward(x, GateVector(np.full(2, -40.0)))
        assert np.abs(out).max() <= 1e-12

    def test_log_three_gate(self):
        # sigmoid(ln 3) = 3/4 by the logistic identity
        out = ak.gate_forward([2.0, -4.0], GateVector(np.array([np.log(3.0), 0.0])))
        assert_allclose(out, [1.5, -2.0], rtol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.gate_forward([1.0, 2.0], GateVector(np.zeros(3)))


class TestGateGradient:
    def test_saturated_gradient_vanishes(self):
        g = GateVector(np.array([40.0, -40.0]))
        grad = ak.gate_gradient([1.0, 1.0], g, [1.0, 1.0])
        assert np.abs(grad).max() <= 1e-12

    def test_midpoint_quarter(self):
        grad = ak.gate_gradient([1.0], GateVector(np.zeros(1)), [1.0])
        assert_array_equal(grad, [0.25])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, size=8)
        params = rng.uniform(-5, 5, size=8)
        upstream = rng.uniform(-5, 5, size=8)
        analytic = ak.gate_gradient(x, GateVector(params), upstream)
        numeric = fd_gate_gradient(x, params, upstream)
        denom = np.maximum(np.abs(analytic), np.abs(numeric))
        mask = denom > 0
        assert np.all(np.abs(analytic - numeric)[mask] / denom[mask] <= 1e-5)

    def test_length_mismatch(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.gate_gradient([1.0], GateVector(np.zeros(1)), [1.0, 2.0])


class TestHardThreshold:
    def test_sign_test_at_half(self):
        mask = ak.hard_threshold(GateVector(np.array([-1.0, 0.0, 1.0])), 0.5)
        assert_array_equal(mask, [False, True, True])

    def test_tau_above_all_gates(self):
        g = GateVector(np.array([0.2, -1.0, 2.0]))
        tau = min(float(expit(2.0)) + 0.01, 0.999)
        assert not ak.hard_threshold(g, tau).any()

    def test_log_three_at_point_seven(self):
        g = GateVector(np.array([np.log(3.0), -np.log(3.0)]))
        assert_array_equal(ak.hard_threshold(g, 0.7), [True, False])

    @given(st.lists(st.floats(-30, 30, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=80)
    def test_half_threshold_equals_sign(self, params):
        g = GateVector(np.asarray(params, dtype=float))
        assert_array_equal(ak.hard_threshold(g, 0.5), g.params >= 0)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1])
    def test_tau_domain(self, tau):
        with pytest.raises(ValueError):
            ak.hard_threshold(GateVector(np.zeros(2)), tau)
