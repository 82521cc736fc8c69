import math
import re
import tracemalloc
import warnings
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

    def test_a_difference_that_overflows_weighs_exactly_zero(self):
        # -1e308 - 1e308 overflows to -inf, whose exp is the limit 0: no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ak.softmax_rows([[1e308, -1e308], [-1.2e308, 1.2e308]])
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_a_minus_inf_score_weighs_exactly_zero(self, position):
        # The finite weights are those of the row without the -inf, bit for bit.
        row = [0.25, -1.5]
        scores = [row[:position] + [-np.inf] + row[position:], [3.0, 3.0, 3.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ak.softmax_rows(scores)
        assert out[0, position] == 0.0
        assert np.delete(out[0], position).tobytes() == ak.softmax_rows([row])[0].tobytes()
        assert out[1].tobytes() == ak.softmax_rows([[3.0, 3.0, 3.0]])[0].tobytes()

    @pytest.mark.parametrize("scores", [
        [[np.nan, 0.0], [1.0, 2.0]], [[0.0, 1.0], [2.0, np.nan]], [[np.inf, 0.0], [1.0, 2.0]],
        [[0.0, 1.0], [-np.inf, np.inf]], [[0.0, 1.0], [-np.inf, -np.inf]], [[-np.inf]],
        [[np.nan, -np.inf]],
    ], ids=["nan", "nan-last", "inf", "inf-beside-minus-inf", "only-minus-inf", "one-minus-inf",
            "nan-beside-minus-inf"])
    def test_nan_plus_inf_or_no_finite_entry_raises_without_a_warning(self, scores):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ak.NonFiniteInput):
                ak.softmax_rows(scores)

    @pytest.mark.parametrize("scores", [[], [1.0, 2.0], [[[1.0]]], np.ones((0, 3))])
    def test_not_a_non_empty_matrix(self, scores):
        with pytest.raises(ak.DimensionMismatch):
            ak.softmax_rows(scores)


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

    @pytest.mark.parametrize("hidden", [np.nan, np.inf, -np.inf])
    def test_masked_out_entries_are_not_read(self, hidden):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(6, 6)) * 10
        allowed = rng.random((6, 6)) < 0.5
        allowed[:, 2] = True
        mask = ak.NeighborhoodMask(allowed)
        clean = np.where(allowed, scores, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ak.masked_softmax_rows(np.where(allowed, scores, hidden), mask)
        assert out.tobytes() == ak.masked_softmax_rows(clean, mask).tobytes()

    @pytest.mark.parametrize("hidden", [np.nan, np.inf])
    def test_an_allowed_nan_or_plus_inf_raises(self, hidden):
        scores = np.zeros((3, 3))
        scores[1, 1] = hidden
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ak.NonFiniteInput):
                ak.masked_softmax_rows(scores, ak.NeighborhoodMask.full(3))


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

    def test_a_zero_degree_row_fails_before_the_result_exists(self):
        # The degrees are summed a block of rows at a time, so the check needs
        # no N x N: the peak stays a small fraction of the result's size.
        m = np.random.default_rng(3).random((1000, 1000))
        m[700] = 0.0
        a = ak.AffinityMatrix(m)
        tracemalloc.start()
        try:
            with pytest.raises(ak.ZeroDegreeRow, match="^row 700 has zero weighted degree$"):
                ak.sym_degree_normalize(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * m.nbytes

    def test_result_is_formed_in_one_buffer_with_the_formulas_bits(self):
        # About 1.4 times the result at N = 600: the quotient is formed in the
        # result's buffer, 1 MiB of sqrt(d_i d_j) at a time.
        m = np.random.default_rng(5).random((600, 600))
        a = ak.AffinityMatrix(m + m.T)
        tracemalloc.start()
        try:
            out = ak.sym_degree_normalize(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        degrees = a.matrix.sum(axis=1)
        assert out.tobytes() == (a.matrix / np.sqrt(np.outer(degrees, degrees))).tobytes()
        assert peak <= 1.5 * out.nbytes

    @pytest.mark.parametrize("exponent", [-1070, -500, 0, 500, 1020])
    def test_any_scale(self, exponent):
        # Entries on a 2^-10 grid in (0, 1]: scaled by 2^exponent, the degrees and
        # their products leave the doubles at the two ends. A normal scaling is
        # exact, so it gives the bits of the unscaled matrix.
        rng = np.random.default_rng(9)
        m = rng.integers(1, 1025, size=(7, 7)) / 1024.0
        m = m + m.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ak.sym_degree_normalize(ak.AffinityMatrix(np.ldexp(m, exponent)))
            unscaled = ak.sym_degree_normalize(ak.AffinityMatrix(m))
        assert np.isfinite(out).all()
        if exponent > -1022:
            assert out.tobytes() == unscaled.tobytes()

    def test_degrees_far_apart_keep_the_formulas_bits(self):
        # Degrees 1e100 and 2e-100: their products fit the doubles, though the
        # small one is far below the largest entry's scale.
        m = np.array([[1e100, 1e-100], [1e-100, 1e-100]])
        degrees = m.sum(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ak.sym_degree_normalize(ak.AffinityMatrix(m))
        assert out.tobytes() == (m / np.sqrt(np.outer(degrees, degrees))).tobytes()
        assert out[1, 1] == 0.5

    @pytest.mark.parametrize("diagonal", [[1e300, 1e-30], [1.0, 1e-170, 1e-170], [5e-324, 1e308]])
    def test_a_diagonal_of_any_spread_is_the_identity(self, diagonal):
        # A product of two of these degrees, or the small ones measured in the
        # largest entry's scale, leaves the doubles.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ak.sym_degree_normalize(ak.AffinityMatrix(np.diag(diagonal)))
        assert out.tolist() == np.eye(len(diagonal)).tolist()

    @pytest.mark.parametrize("value", [1e308, 1e-320, 5e-324])
    def test_constant_matrix_at_the_extremes(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ak.sym_degree_normalize(ak.AffinityMatrix(np.full((4, 4), value)))
        assert out.tolist() == [[0.25] * 4] * 4


class TestSpectralRadius:
    @pytest.mark.parametrize("stage", [ak.spectral_radius, ak.eigenvector_centrality],
                             ids=["spectral_radius", "eigenvector_centrality"])
    def test_peak_memory_is_vectors_not_a_copy_of_the_pattern(self, stage):
        # The class search reads the frontier's block of A itself, so a dense A
        # costs one block row and a few vectors: no N x N bool of m > 0.
        a = ak.AffinityMatrix(np.random.default_rng(21).random((1000, 1000)))
        tracemalloc.start()
        try:
            stage(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.02 * a.matrix.nbytes

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

    def test_non_convergence_names_the_class_that_sets_hi(self):
        # Classes {0, 1} (root 1.618) and {2, 3} (root 3.56): after one step
        # hi = 4 comes from node 2, whose class has two nodes.
        m = np.array([[1.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 3, 1], [0, 0, 2, 0.5]])
        with pytest.raises(ak.NonConvergence, match=r"rho in \[2\.5, 4\.0\d*\]; "
                           r"hi is set by the class of node 2, 2 nodes$"):
            ak.spectral_radius(ak.AffinityMatrix(m), max_iter=1)
        lo, hi, converged = bracket(m, max_iter=1)
        assert not converged and lo == 2.5 and hi >= 4.0

    def test_symmetry_probe_reads_row_blocks_not_an_n_by_n_bool(self):
        # Two dense blocks joined by small weights: roots near 1206 and 800, so
        # the bracket is still open at step 32, where A is compared with A^T.
        rng = np.random.default_rng(5)
        m = np.full((1000, 1000), 0.01)
        m[:600, :600] = m[600:, 600:] = 1.0
        m += 0.01 * rng.random(m.shape)
        a = ak.AffinityMatrix(m + m.T)
        with pytest.raises(ak.NonConvergence):
            ak.spectral_radius(a, max_iter=32)
        tracemalloc.start()
        try:
            rho = ak.spectral_radius(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * a.matrix.nbytes
        assert np.linalg.eigvalsh(a.matrix).max() <= rho

    @pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
    @pytest.mark.parametrize("stage, bound", [(ak.spectral_radius, 0.2), (ak.eigenvector_centrality, 0.3)],
                             ids=["spectral_radius", "eigenvector_centrality"])
    def test_a_reducible_matrix_is_not_copied(self, stage, bound, shuffled):
        # Two dense symmetric 500-node classes with no edge between them. The
        # first, two dense blocks joined by small weights, has roots near 600 and
        # 400, so the bracket is still open at step 32, where the symmetry probe
        # runs. Each product reads A in strips of one class's rows, in place or
        # gathered where the nodes are shuffled; eigenvector_centrality's second
        # run copies the 500 x 500 block of the top class, 0.25 of one N x N.
        rng = np.random.default_rng(5)
        first = np.full((500, 500), 0.01)
        first[:300, :300] = first[300:, 300:] = 1.0
        first += 0.01 * rng.random(first.shape)
        second = rng.random((500, 500))
        m = np.zeros((1000, 1000))
        m[:500, :500], m[500:, 500:] = first + first.T, second + second.T
        if shuffled:
            order = rng.permutation(1000)
            m = m[np.ix_(order, order)]
        a = ak.AffinityMatrix(m)
        with pytest.raises(ak.NonConvergence):
            ak.spectral_radius(a, max_iter=32)
        tracemalloc.start()
        try:
            result = stage(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * m.nbytes
        rho = np.linalg.eigvalsh(m).max()
        hi = result if stage is ak.spectral_radius else result.eigenvalue
        assert rho <= hi <= rho * (1 + 1e-10)

    def test_shuffled_classes_large_and_small(self):
        # A 400-node class and sixty 10-node ones, their nodes shuffled: the
        # large class is read in strips of its own rows, and runs of small ones
        # in strips masked to the pairs within one class. A small class is on
        # top, and heavy edges run from the large class to every small one, so
        # a strip that read them would put hi near 3400.
        rng = np.random.default_rng(8)
        labels = rng.permutation(np.repeat(np.arange(61), [400] + [10] * 60))
        large = labels == 0
        m = rng.random((1000, 1000))
        m = (m + m.T) * (labels[:, None] == labels) * np.where(large, 1.0, 100.0)
        m = np.minimum(m, m.T)
        roots = [np.linalg.eigvalsh(m[np.ix_(labels == c, labels == c)]).max() for c in range(61)]
        m[np.ix_(large, ~large)] = 5.0
        a = ak.AffinityMatrix(m)
        hi = ak.spectral_radius(a)
        assert max(roots) <= hi <= max(roots) * (1 + 1e-10)
        ec = ak.eigenvector_centrality(a)
        v = ec.values
        keep = large | (labels == labels[np.argmax(v)])
        assert np.all(v[~keep] == 0.0) and np.all(v[keep] > 0)
        assert np.all(np.abs(m @ v - ec.eigenvalue * v) <= 1e-10 * ec.eigenvalue * v)


def perron_root(m: np.ndarray) -> float:
    """rho(m) as the largest eigenvalue modulus over its strongly connected blocks.

    Each block is irreducible, so its Perron root is a simple eigenvalue
    that eigvals finds to rounding; on a whole reducible matrix a defective
    root can be off by about sqrt(eps). m is first scaled by the power of two
    that brings its largest entry into [0.5, 1), so a matrix drawn at 2^k times
    another gets exactly 2^k times its root.
    """
    exponent = math.frexp(float(m.max()))[1]
    m = np.ldexp(m, -exponent)
    n = m.shape[0]
    reach = (m > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    blocks = {tuple(np.flatnonzero(reach[i] & reach[:, i])) for i in range(n)}
    root = max(float(np.abs(np.linalg.eigvals(m[np.ix_(b, b)])).max()) for b in blocks)
    return math.ldexp(root, exponent)


def bracket(m: np.ndarray, max_iter: int = 1000) -> tuple[float, float, bool]:
    """(lo, hi, converged) of the Perron kernel, read from the error if it gives up."""
    try:
        _, lo, hi = ak.normalize._perron(m, 1e-10, max_iter)
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
    return m * 2.0 ** draw(st.integers(-996, 996))


@st.composite
def top_reads_from_near_root(draw):
    """A top class that reads from a second class whose root is 0.972 to 0.995 of
    its own, both reading from up to two sinks, in a random node order.

    Without the split into classes, the top class's min y/x closes only as
    fast as the second class's entries decay, (0.995 rho + c) / (rho + c) a step.
    """
    k = draw(st.integers(2, 3))
    sinks = draw(st.integers(0, 2))
    weights = st.floats(0.125, 8.0)
    n = 2 * k + sinks
    m = np.zeros((n, n))
    top, second = (draw(arrays(np.float64, (k, k), elements=weights)) for _ in range(2))
    roots = [np.abs(np.linalg.eigvals(b)).max() for b in (top, second)]
    m[:k, :k] = top
    m[k:2 * k, k:2 * k] = second * draw(st.floats(0.972, 0.995)) * roots[0] / roots[1]
    m[:k, k:2 * k] = draw(arrays(np.float64, (k, k), elements=st.just(0.0) | weights))
    m[0, k] = draw(weights)
    m[:2 * k, 2 * k:] = draw(arrays(np.float64, (2 * k, sinks), elements=st.just(0.0) | weights))
    order = np.array(draw(st.permutations(range(n))))
    return m[np.ix_(order, order)] * 2.0 ** draw(st.integers(-996, 996))


class TestPerronBracket:
    @given(top_reads_from_near_root())
    @settings(max_examples=100, deadline=None)
    def test_top_class_reading_from_a_near_root_converges(self, m):
        rho = perron_root(m)
        lo, hi, converged = bracket(m)
        slack = 4 * m.shape[0] * np.finfo(float).eps * max(rho, hi)
        assert converged and lo <= rho + slack and rho <= hi + slack

    @given(nonnegative_matrices())
    @settings(max_examples=200, deadline=None)
    def test_eigenvector_residual_is_certified(self, m):
        # Whenever a vector is returned, each entry meets the bracket's
        # tolerance, plus the rounding of a product of n terms.
        tol = 1e-10
        try:
            cv = ak.eigenvector_centrality(ak.AffinityMatrix(m), tol=tol)
        except (ak.ZeroMatrix, ak.NonConvergence):
            return
        v, lam = cv.values, cv.eigenvalue
        rounding = 4 * m.shape[0] * np.finfo(float).eps * (m @ v + lam * v)
        assert np.all(np.abs(m @ v - lam * v) <= tol * lam * v + rounding)

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
        # Every class is one node with a zero diagonal, so rho = 0 is certified.
        lo, hi, converged = bracket(np.array(m))
        assert converged and lo == 0.0 and hi == 0.0
        scaling = ak.choose_alpha(ak.AffinityMatrix(np.array(m)), 0.5)
        assert scaling.alpha == 0.5 and scaling.rho == 0.0

    def test_hi_stays_an_upper_bound_after_underflow(self):
        # The Jordan block's classes are single nodes with root 5, so the
        # bracket closes on 5, and the isolated node's zero class divides by
        # the floor, not by 0.
        lo, hi, converged = bracket(np.array([[0.0, 0, 0], [0, 5, 1], [0, 0, 5]]))
        assert converged and lo <= 5.0 <= hi <= 5.0 * (1 + 1e-10)

    @pytest.mark.parametrize("m", [
        np.diag([1.0, 2.0]),
        [[0.0, 1, 1], [1, 0, 1], [0, 0, 0]],  # a sink
        # rho = 2^-8: with a unit shift this would take thousands of steps
        [[0.0, 2.0**-8, 0], [2.0**-8, 0, 0], [0, 0, 0]],
        # roots 0.4 and 0.386 in two classes, each iterated on its own, so the
        # near root does not hold the top class's min y/x open
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

    def test_rayleigh_quotient_closes_a_bipartite_forest_with_a_near_second_root(self):
        # The 1744th of these seeded sparse symmetric draws: 11 nodes, 9 edges,
        # no cycle, so the top class is bipartite, with lambda_2 / rho = 0.980
        # and rho = 29.1257.
        # min y/x leaves the bracket open after 1000 steps; the Rayleigh
        # quotient of the symmetric matrix closes it.
        rng = np.random.default_rng(12)
        for _ in range(1744):
            n = int(rng.integers(2, 41))
            dens = rng.uniform(0.05, 0.4)
            u = np.triu((rng.random((n, n)) < dens) * rng.random((n, n)), 1)
            m = (u + u.T) * 10.0 ** rng.uniform(-6, 6)
        assert n == 11 and np.count_nonzero(u) == 9
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


class TestPerronAtExtremeScales:
    """The irreducible [[0, 1, 0], [1, 0, 2], [0, 2, 0]] * s, whose rho is exactly
    sqrt(5) s (doubling is exact, also for the subnormal 1e-310). Each step
    divides x by its largest entry, so x keeps its range whatever s is."""

    base = np.array([[0.0, 1, 0], [1, 0, 2], [0, 2, 0]])
    scales = [1e-310, 1e-300, 1e300, 1e307]
    slack = 4 * 3 * np.finfo(float).eps

    @pytest.mark.parametrize("s", scales)
    def test_spectral_radius(self, s):
        hi = ak.spectral_radius(ak.AffinityMatrix(self.base * s)) / s
        assert math.sqrt(5) * (1 - self.slack) <= hi <= math.sqrt(5) * (1 + 1e-10 + self.slack)

    @pytest.mark.parametrize("s", scales[1:])
    def test_choose_alpha(self, s):
        scaling = ak.choose_alpha(ak.AffinityMatrix(self.base * s), 0.9)
        assert scaling.alpha * s * math.sqrt(5) <= 0.9 * (1 + self.slack)

    def test_choose_alpha_past_the_largest_float_is_refused(self):
        # 0.9 / (sqrt(5) 1e-310) is above the largest float: the error names that
        # quotient and rho, not the product alpha * rho = inf it would lead to.
        a = ak.AffinityMatrix(self.base * 1e-310)
        with warnings.catch_warnings(), pytest.raises(ak.NumericError) as info:
            warnings.simplefilter("error")
            ak.choose_alpha(a, 0.9)
        assert type(info.value) is ak.NumericError
        assert str(info.value) == (f"alpha = fraction / rho = 0.9 / {ak.spectral_radius(a)} "
                                   "exceeds the largest double")

    @pytest.mark.parametrize("s", scales)
    def test_eigenvector_centrality(self, s):
        cv = ak.eigenvector_centrality(ak.AffinityMatrix(self.base * s))
        v, lam = cv.values, cv.eigenvalue / s
        assert math.sqrt(5) * (1 - self.slack) <= lam <= math.sqrt(5) * (1 + 1e-10 + self.slack)
        residual = np.abs(self.base @ v - lam * v)
        assert np.all(residual <= 1e-10 * lam * v + self.slack * (self.base @ v + lam * v))


class TestPerronUpToTheLargestDouble:
    """[[1, 1], [1, 0]] 1e308 has rho = 1.618e308, a double, though no row sum
    is; a 4 x 4 full(5e307) has rho = 2e308, which is not a double."""

    golden = np.array([[1e308, 1e308], [1e308, 0.0]])

    def test_rho_vector_and_alpha_keep_the_bits_of_the_scaled_down_matrix(self):
        small = ak.AffinityMatrix(np.ldexp(self.golden, -1000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = ak.AffinityMatrix(self.golden)
            rho, cv, scaling = ak.spectral_radius(a), ak.eigenvector_centrality(a), ak.choose_alpha(a)
        assert rho == math.ldexp(ak.spectral_radius(small), 1000)
        assert_array_equal(cv.values, ak.eigenvector_centrality(small).values)
        phi = (1 + math.sqrt(5)) / 2
        assert_allclose(rho, phi * 1e308, rtol=1e-10)
        assert_allclose(cv.values, np.array([phi, 1.0]) / math.hypot(phi, 1.0), rtol=1e-9)
        assert scaling.rho == rho and scaling.alpha == 0.5 / rho

    @pytest.mark.parametrize("stage", [ak.spectral_radius, ak.eigenvector_centrality, ak.choose_alpha])
    def test_a_rho_past_the_largest_double_raises_one_numeric_error(self, stage):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ak.NumericError, match="exceeds the largest double") as info:
                stage(ak.AffinityMatrix(np.full((4, 4), 5e307)))
        assert type(info.value) is ak.NumericError


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
