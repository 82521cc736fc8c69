import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import affinitykit as ak

finite_scores = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-50.0, 50.0),
)


class TestSoftmaxRows:
    def test_constant_row_is_uniform(self):
        out = ak.softmax_rows([[7.0, 7.0, 7.0]])
        assert_array_equal(out, [[1 / 3, 1 / 3, 1 / 3]])

    def test_single_column(self):
        out = ak.softmax_rows([[3.0], [-4.0]])
        assert_array_equal(out, [[1.0], [1.0]])

    def test_log_two_row(self):
        out = ak.softmax_rows([[0.0, math.log(2.0)]])
        assert_allclose(out, [[1 / 3, 2 / 3]], rtol=1e-15)

    @given(finite_scores)
    @settings(max_examples=100)
    def test_rows_sum_to_one(self, scores):
        out = ak.softmax_rows(scores)
        assert_allclose(out.sum(axis=1), np.ones(scores.shape[0]), atol=1e-12)
        assert np.all(out > 0) and np.all(out < 1 + 1e-12)

    @given(finite_scores, st.floats(-40.0, 40.0), st.integers(0, 5))
    @settings(max_examples=100)
    def test_shift_invariance_per_row(self, scores, shift, row_pick):
        row = row_pick % scores.shape[0]
        shifted = scores.copy()
        shifted[row] += shift
        assert_allclose(ak.softmax_rows(shifted), ak.softmax_rows(scores), atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ak.NonFiniteInput):
            ak.softmax_rows([[0.0, np.nan]])


class TestScaleScores:
    def test_unit_dimension_is_identity(self):
        s = np.array([[1.5, -2.0]])
        assert_array_equal(ak.scale_scores(s, 1), s)

    def test_four(self):
        assert_array_equal(ak.scale_scores([[4.0]], 4), [[2.0]])

    def test_sixteen(self):
        out = ak.scale_scores([[1.0, 2.0], [3.0, 4.0]], 16)
        assert_array_equal(out, [[0.25, 0.5], [0.75, 1.0]])

    @pytest.mark.parametrize("d_k", [0, -1, 2.5])
    def test_bad_dimension(self, d_k):
        with pytest.raises(ValueError):
            ak.scale_scores([[1.0]], d_k)


class TestMaskedSoftmax:
    def test_full_mask_equals_softmax(self):
        scores = np.random.default_rng(2).normal(size=(4, 4)) * 10
        full = ak.NeighborhoodMask.full(4)
        assert_array_equal(ak.masked_softmax_rows(scores, full), ak.softmax_rows(scores))

    def test_singleton_neighborhood(self):
        mask = ak.NeighborhoodMask(np.array([[False, True], [True, False]]))
        out = ak.masked_softmax_rows(np.array([[5.0, -3.0], [0.0, 9.0]]), mask)
        assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_two_term_softmax_by_hand(self):
        mask = ak.NeighborhoodMask(np.array([[True, False, True]] * 3))
        out = ak.masked_softmax_rows(np.array([[1.0, 5.0, 2.0]] * 3), mask)
        expected = [1 / (1 + math.e), 0.0, math.e / (1 + math.e)]
        assert_allclose(out, [expected] * 3, rtol=1e-12)
        assert_array_equal(out[:, 1], np.zeros(3))

    def test_disallowed_entries_exactly_zero(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(5, 5)) * 20
        allowed = rng.random((5, 5)) < 0.5
        allowed[:, 0] = True  # keep every neighborhood non-empty
        out = ak.masked_softmax_rows(scores, ak.NeighborhoodMask(allowed))
        assert_array_equal(out[~allowed], np.zeros((~allowed).sum()))
        assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(ak.EmptyNeighborhood):
            ak.NeighborhoodMask(np.array([[True, False], [False, False]]))

    def test_shape_mismatch(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.masked_softmax_rows(np.ones((3, 3)), ak.NeighborhoodMask.full(2))


class TestSymDegreeNormalize:
    def test_all_ones(self):
        out = ak.sym_degree_normalize(ak.AffinityMatrix(np.ones((2, 2))))
        assert_array_equal(out, np.full((2, 2), 0.5))

    def test_unit_degrees_unchanged(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_array_equal(ak.sym_degree_normalize(ak.AffinityMatrix(swap)), swap)

    def test_weighted_degrees(self):
        out = ak.sym_degree_normalize(ak.AffinityMatrix(np.array([[0.0, 2.0], [2.0, 0.0]])))
        assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]], rtol=1e-15)

    def test_zero_degree_row(self):
        with pytest.raises(ak.ZeroDegreeRow):
            ak.sym_degree_normalize(ak.AffinityMatrix(np.array([[0.0, 0.0], [1.0, 0.0]])))


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert ak.spectral_radius(ak.AffinityMatrix(np.zeros((3, 3)))) == 0.0

    def test_identity(self):
        assert_allclose(ak.spectral_radius(ak.AffinityMatrix(np.eye(4))), 1.0, atol=1e-12)

    def test_scaled_swap(self):
        a = ak.AffinityMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        # independent oracle: eigenvalues of the swap-scaled matrix are +-2
        assert_allclose(ak.spectral_radius(a), 2.0, atol=1e-9)

    def test_star_graph_despite_periodicity(self):
        star = np.array([[0.0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert_allclose(ak.spectral_radius(ak.AffinityMatrix(star)), math.sqrt(2), atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((12, 12))
        estimate = ak.spectral_radius(ak.AffinityMatrix(m))
        truth = np.abs(np.linalg.eigvals(m)).max()
        assert abs(estimate - truth) <= 1e-8

    def test_permutation_invariant(self):
        rng = np.random.default_rng(17)
        m = rng.random((10, 10))
        p = rng.permutation(10)
        tol = 1e-10
        r1 = ak.spectral_radius(ak.AffinityMatrix(m), tol=tol)
        r2 = ak.spectral_radius(ak.AffinityMatrix(m[np.ix_(p, p)]), tol=tol)
        assert abs(r1 - r2) <= 2 * tol

    def test_negative_entries_rejected(self):
        with pytest.raises(ak.NegativeEntries):
            ak.spectral_radius(ak.AffinityMatrix(np.array([[0.0, -1.0], [1.0, 0.0]])))

    def test_non_convergence(self):
        m = np.random.default_rng(0).random((6, 6))
        with pytest.raises(ak.NonConvergence):
            ak.spectral_radius(ak.AffinityMatrix(m), max_iter=1)


def perron_root(m: np.ndarray) -> float:
    """rho(m) as the largest eigenvalue modulus over its strongly connected blocks.

    Each block is irreducible, so its Perron root is a simple eigenvalue
    that eigvals finds to rounding; on a whole reducible matrix a defective
    root can be off by about sqrt(eps).
    """
    n = m.shape[0]
    reach = (m > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    blocks = {tuple(np.flatnonzero(reach[i] & reach[:, i])) for i in range(n)}
    return max(float(np.abs(np.linalg.eigvals(m[np.ix_(b, b)])).max()) for b in blocks)


def bracket(m: np.ndarray) -> tuple[float, float, bool]:
    """(lo, hi, converged) of the Perron kernel, read from the error if it gives up."""
    try:
        _, lo, hi = ak.normalize._perron(m, 1e-10, 1000)
        return lo, hi, True
    except ak.NonConvergence as exc:
        lo, hi = re.search(r"rho in \[(\S+), (\S+)\]", str(exc)).groups()
        return float(lo), float(hi), False


@st.composite
def nonnegative_matrices(draw):
    """Sparse nonnegative matrices, half symmetric, with disconnected blocks and zero rows."""
    n = draw(st.integers(1, 8))
    m = draw(arrays(np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(0.125, 8.0))))
    if draw(st.booleans()):
        m = np.triu(m) + np.triu(m, 1).T
    block = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    m[block[:, None] != block[None, :]] = 0.0
    zero_row = draw(st.none() | st.integers(0, n - 1))
    if zero_row is not None:
        m[zero_row] = 0.0
    return m * 2.0 ** draw(st.integers(-8, 4))


class TestPerronBracket:
    @given(nonnegative_matrices())
    @settings(max_examples=200, deadline=None)
    def test_bracket_holds_converged_or_not(self, m):
        # Rounding allowance: 4 n eps relative to the larger of rho and hi,
        # which covers the oracle's rounding as well as the kernel's.
        rho = perron_root(m)
        lo, hi, _ = bracket(m)
        slack = 4 * m.shape[0] * np.finfo(float).eps * max(rho, hi)
        assert lo <= rho + slack and rho <= hi + slack

    @pytest.mark.parametrize("m", [[[0.0, 1.0], [0.0, 0.0]],
                                   [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]])
    def test_nilpotent_gives_lo_zero_never_a_made_up_rho(self, m):
        lo, hi, converged = bracket(np.array(m))
        assert not converged and lo == 0.0 and 0.0 < hi < 0.01
        with pytest.raises(ak.NonConvergence, match=r"within 1000 iterations: rho in \[0\.0, "):
            ak.choose_alpha(ak.AffinityMatrix(np.array(m)), 0.5)

    def test_hi_stays_an_upper_bound_after_underflow(self):
        # The Jordan block never converges, and the isolated node's entry
        # would underflow to 0, making its ratio 0/0, within about 420 steps.
        lo, hi, converged = bracket(np.array([[0.0, 0, 0], [0, 5, 1], [0, 0, 5]]))
        assert not converged and lo <= 5.0 <= hi < 5.01

    @pytest.mark.parametrize("m", [
        np.diag([1.0, 2.0]),
        [[0.0, 1, 1], [1, 0, 1], [0, 0, 0]],  # a sink
        # rho = 2^-8: with a unit shift this would take thousands of steps
        [[0.0, 2.0**-8, 0], [2.0**-8, 0, 0], [0, 0, 0]],
        # roots 0.4 and 0.386 in two blocks: min y/x closes too slowly, the Rayleigh quotient not
        [[0.3, 0, 0, 0.2], [0, 0.386, 0, 0], [0, 0, 0, 0], [0.2, 0, 0, 0]],
        # rows 0, 1 and 3 sink to the floor first, where row 3's ratio settles at rho
        [[0, 1, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 4, 0, 0], [0, 6, 0, 0, 0], [0, 0, 0, 0, 4.2]],
        # roots 1 and 0.983 in two blocks: the second block's entries stay
        # above tol for 1000 steps, so lo must come from the top block alone
        [[0.4, 0.3, 0, 0], [1.0, 0.5, 0, 0], [0, 0, 0.8, 0.9], [0, 0, 0.2, 0]],
    ])
    def test_reducible_or_small_rho_converges(self, m):
        lo, hi, converged = bracket(np.array(m))
        assert converged and lo <= perron_root(np.array(m)) <= hi

    @pytest.mark.parametrize("scale", [1.0, 0.01])
    def test_weighted_bipartite_path_converges_at_any_scale(self, scale):
        # rho = 182.514 at scale 1. A shift of 1 decays the mode at -rho by
        # (rho - 1) / (rho + 1) = 0.989 per step, and 1000 steps left the
        # bracket open; a shift that scales with the matrix closes it.
        m = np.zeros((4, 4))
        m[[0, 1, 2], [1, 2, 3]] = m[[1, 2, 3], [0, 1, 2]] = np.array([50.0, 100.0, 150.0]) * scale
        rho = np.linalg.eigvalsh(m).max()
        hi = ak.spectral_radius(ak.AffinityMatrix(m))
        assert rho * (1 - 1e-14) <= hi <= rho * (1 + 1e-10)

    def test_hi_covers_the_rounding_of_the_product(self):
        # A circulant's rho is exactly its row sum, 1.58 here, and the
        # computed max y/x rounds to 1.5799999999999998, below it.
        row = [0.176, 0.863, 0.541]
        a = ak.AffinityMatrix(np.array([np.roll(row, i) for i in range(3)]))
        assert Fraction(ak.spectral_radius(a)) >= sum(map(Fraction, row))

    def test_one_loop_serves_both(self):
        a = ak.AffinityMatrix(np.random.default_rng(4).random((12, 12)))
        assert ak.spectral_radius(a) == ak.eigenvector_centrality(a).eigenvalue

    def test_sized_alpha_is_certified_on_symmetric(self):
        m = np.random.default_rng(9).random((40, 40))
        a = ak.AffinityMatrix(m + m.T)
        scaling = ak.choose_alpha(a, 0.9)
        assert scaling.rho >= np.linalg.eigvalsh(a.matrix).max()
        assert scaling.rho <= np.linalg.eigvalsh(a.matrix).max() * (1 + 1e-10)


class TestChooseAlpha:
    def test_zero_matrix_keeps_fraction(self):
        scaling = ak.choose_alpha(ak.AffinityMatrix(np.zeros((2, 2))), 0.5)
        assert scaling.alpha == 0.5 and scaling.rho == 0.0

    def test_identity(self):
        scaling = ak.choose_alpha(ak.AffinityMatrix(np.eye(3)), 0.5)
        assert_allclose(scaling.alpha, 0.5, rtol=1e-9)

    def test_scaled_swap(self):
        a = ak.AffinityMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        scaling = ak.choose_alpha(a, 0.9)
        assert_allclose(scaling.alpha, 0.45, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_product_stays_below_one(self, seed):
        m = np.random.default_rng(seed).random((8, 8))
        scaling = ak.choose_alpha(ak.AffinityMatrix(m), 0.97)
        assert scaling.alpha * scaling.rho < 1.0

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_domain(self, fraction):
        with pytest.raises(ValueError):
            ak.choose_alpha(ak.AffinityMatrix(np.eye(2)), fraction)


class TestAlphaScaling:
    def test_bound_enforced_at_construction(self):
        with pytest.raises(ak.ConvergenceBoundError):
            ak.AlphaScaling(alpha=1.0, rho=1.0)

    def test_bound_strict(self):
        with pytest.raises(ak.ConvergenceBoundError):
            ak.AlphaScaling(alpha=0.5, rho=2.0)

    def test_valid(self):
        scaling = ak.AlphaScaling(alpha=0.25, rho=2.0)
        assert scaling.alpha * scaling.rho == 0.5

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            ak.AlphaScaling(alpha=0.0, rho=0.5)
