import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import affinitykit as ak


def naive_series(m: np.ndarray, alpha: float, length: int) -> np.ndarray:
    """Oracle: accumulate alpha^k A^k by plain repeated multiplication."""
    total = np.zeros_like(m)
    power = np.eye(m.shape[0])
    for k in range(1, length + 1):
        power = power @ m
        total = total + alpha**k * power
    return total


def matrix_path_scores(a: ak.AffinityMatrix, scaling: ak.AlphaScaling, length=None) -> np.ndarray:
    """Reference for ``path_scores``: row sums of the N x N path matrix."""
    if length is None:
        return ak.inffs_scores(ak.power_series_closed_form(a, scaling))
    return ak.inffs_scores(ak.power_series_truncated(a, scaling.alpha, length))


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
CHAIN = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
# A directed graph of four nodes with no dangling row.
LINKS = np.array([[0.0, 3, 1, 0], [1, 0, 2, 2], [4, 1, 0, 1], [1, 1, 1, 0]])
STAR = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


class TestSingleHopAggregate:
    def test_identity_weights(self):
        v = np.random.default_rng(0).normal(size=(3, 2))
        assert_array_equal(ak.single_hop_aggregate(np.eye(3), v), v)

    def test_uniform_weights_give_column_means(self):
        v = np.random.default_rng(1).normal(size=(4, 3))
        w = np.full((2, 4), 0.25)
        assert_allclose(ak.single_hop_aggregate(w, v), [v.mean(axis=0)] * 2, rtol=1e-14)

    def test_hand_dot_products(self):
        out = ak.single_hop_aggregate([[0.25, 0.75]], [[0.0, 4.0], [4.0, 0.0]])
        assert_array_equal(out, [[3.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.single_hop_aggregate(np.ones((2, 3)), np.ones((2, 2)))

    @pytest.mark.parametrize("w, v", [(np.ones(3), np.ones((3, 2))), (np.ones((2, 3)), np.ones(3)),
                                      (np.ones((0, 3)), np.ones((3, 2))), (np.ones((2, 0)), np.ones((0, 2))),
                                      (np.ones((2, 3)), np.ones((3, 0)))])
    def test_factor_that_is_not_a_non_empty_matrix_is_rejected(self, w, v):
        with pytest.raises(ak.DimensionMismatch, match="must be a non-empty 2-D array"):
            ak.single_hop_aggregate(w, v)

    def test_product_that_overflows_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ak.NonFiniteInput, match="^product W V contains NaN or infinite entries$"):
                ak.single_hop_aggregate(np.full((4, 4), 1e308), np.full((4, 4), 1e308))

    # Shapes that numpy sends down different paths: gemm, gemv either way, a dot product.
    @pytest.mark.parametrize("rows, inner, cols", [(3, 4, 2), (3, 4, 1), (1, 4, 3), (1, 4, 1), (1, 1, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("zeroed", [False, True])
    def test_every_non_finite_factor_entry_is_found(self, rows, inner, cols, bad, zeroed):
        # The scan reads only Z = W V, so each bad entry must reach Z, also
        # where it meets only zeros in the other factor (0 * inf is NaN).
        rng = np.random.default_rng(rows * 100 + inner * 10 + cols)
        for target in ("W", "V"):
            for index in np.ndindex((rows, inner) if target == "W" else (inner, cols)):
                w, v = rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))
                if target == "W":
                    w[index] = bad
                    if zeroed:
                        v[index[1]] = 0.0
                else:
                    v[index] = bad
                    if zeroed:
                        w[:, index[0]] = 0.0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ak.NonFiniteInput):
                        ak.single_hop_aggregate(w, v)

    @pytest.mark.parametrize("seed", range(5))
    def test_stacking_equals_squared_weights(self, seed):
        rng = np.random.default_rng(seed)
        w = ak.softmax_rows(rng.normal(size=(10, 10)))
        v = rng.normal(size=(10, 4))
        chained = ak.single_hop_aggregate(w, ak.single_hop_aggregate(w, v))
        assert_allclose(chained, ak.single_hop_aggregate(w @ w, v), atol=1e-10)


class TestPowerSeriesTruncated:
    def test_zero_matrix(self):
        ps = ak.power_series_truncated(ak.AffinityMatrix(np.zeros((3, 3))), 0.7, 5)
        assert_array_equal(ps.matrix, np.zeros((3, 3)))

    def test_single_term_is_exactly_alpha_a(self):
        rng = np.random.default_rng(4)
        m = rng.random((6, 6))
        alpha = 0.3
        ps = ak.power_series_truncated(ak.AffinityMatrix(m), alpha, 1)
        assert_array_equal(ps.matrix, alpha * m)
        assert ps.length == 1

    def test_swap_series_against_naive_oracle(self):
        # A^2 = I and A^3 = A pin the expected sum by hand.
        ps = ak.power_series_truncated(ak.AffinityMatrix(SWAP), 0.5, 3)
        assert_allclose(ps.matrix, [[0.25, 0.625], [0.625, 0.25]], rtol=1e-15)
        assert_allclose(ps.matrix, naive_series(SWAP, 0.5, 3), rtol=1e-15)

    @pytest.mark.parametrize("length", [1, 2, 5, 17])
    def test_matches_naive_oracle(self, length):
        rng = np.random.default_rng(length)
        m = rng.random((7, 7)) * 0.2
        ps = ak.power_series_truncated(ak.AffinityMatrix(m), 0.9, length)
        assert_allclose(ps.matrix, naive_series(m, 0.9, length), atol=1e-13)

    def test_monotone_in_length_for_nonnegative_input(self):
        m = np.random.default_rng(6).random((8, 8))
        a = ak.AffinityMatrix(m)
        previous = ak.power_series_truncated(a, 0.05, 1).matrix
        for length in range(2, 8):
            current = ak.power_series_truncated(a, 0.05, length).matrix
            assert np.all(current >= previous)
            previous = current

    def test_parameter_domains(self):
        a = ak.AffinityMatrix(SWAP)
        with pytest.raises(ValueError):
            ak.power_series_truncated(a, 0.0, 3)
        with pytest.raises(ValueError):
            ak.power_series_truncated(a, 0.5, 0)


class TestPowerSeriesClosedForm:
    def test_zero_matrix(self):
        scaling = ak.AlphaScaling(alpha=0.9, rho=0.0)
        ps = ak.power_series_closed_form(ak.AffinityMatrix(np.zeros((2, 2))), scaling)
        assert_array_equal(ps.matrix, np.zeros((2, 2)))
        assert ps.length == "infinite"

    def test_swap_at_alpha_04(self):
        # det(I - 0.4 A) = 0.84; hand inverse gives 4/21 and 10/21.
        ps = ak.power_series_closed_form(ak.AffinityMatrix(SWAP), ak.AlphaScaling(0.4, 1.0))
        assert_allclose(ps.matrix, [[4 / 21, 10 / 21], [10 / 21, 4 / 21]], rtol=1e-14)
        truncated = ak.power_series_truncated(ak.AffinityMatrix(SWAP), 0.4, 100)
        assert_allclose(ps.matrix, truncated.matrix, atol=1e-12)

    def test_boundary_alpha_rejected_before_solving(self):
        rho = ak.spectral_radius(ak.AffinityMatrix(SWAP))
        with pytest.raises(ak.ConvergenceBoundError):
            ak.AlphaScaling(alpha=1.0, rho=rho)

    def test_singular_system_when_scaling_lies(self):
        # A forged rho sneaks alpha*rho = 1 past the dataclass invariant;
        # the solve must then fail loudly instead of returning garbage.
        forged = ak.AlphaScaling(alpha=1.0, rho=0.0)
        with pytest.raises(ak.SingularSystem):
            ak.power_series_closed_form(ak.AffinityMatrix(SWAP), forged)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_long_truncation(self, seed):
        rng = np.random.default_rng(seed)
        a = ak.AffinityMatrix(rng.random((10, 10)))
        scaling = ak.choose_alpha(a, 0.5)
        closed = ak.power_series_closed_form(a, scaling)
        truncated = ak.power_series_truncated(a, scaling.alpha, 80)
        assert_allclose(closed.matrix, truncated.matrix, atol=1e-10)


class TestInffsScores:
    def test_zero_path_sum(self):
        ps = ak.power_series_truncated(ak.AffinityMatrix(np.zeros((3, 3))), 0.5, 2)
        assert_array_equal(ak.inffs_scores(ps), np.zeros(3))

    def test_one_hop_is_weighted_degree(self):
        rng = np.random.default_rng(9)
        m = rng.random((20, 20))
        a = ak.AffinityMatrix(m)
        alpha = ak.choose_alpha(a, 0.5).alpha
        scores = ak.inffs_scores(ak.power_series_truncated(a, alpha, 1))
        assert np.abs(scores - alpha * m.sum(axis=1)).max() <= 1e-14

    def test_chain_hub_dominates(self):
        a = ak.AffinityMatrix(CHAIN)
        scaling = ak.AlphaScaling(alpha=0.25, rho=ak.spectral_radius(a))
        scores = ak.inffs_scores(ak.power_series_closed_form(a, scaling))
        oracle = naive_series(CHAIN, 0.25, 50).sum(axis=1)
        assert_allclose(scores, oracle, atol=1e-10)
        assert scores[1] > scores[0] and scores[1] > scores[2]

    def test_row_sums_match_column_sums_for_symmetric_input(self):
        rng = np.random.default_rng(13)
        sym = rng.random((9, 9))
        sym = (sym + sym.T) / 2
        a = ak.AffinityMatrix(sym)
        ps = ak.power_series_closed_form(a, ak.choose_alpha(a, 0.5))
        assert_allclose(ps.matrix.sum(axis=1), ps.matrix.sum(axis=0), atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_equivariant(self, seed):
        rng = np.random.default_rng(seed)
        a = ak.AffinityMatrix(rng.random((8, 8)))
        perm = rng.permutation(8)
        scaling = ak.choose_alpha(a, 0.5)
        base = ak.inffs_scores(ak.power_series_closed_form(a, scaling))
        permuted = ak.AffinityMatrix(a.matrix[np.ix_(perm, perm)])
        scores = ak.inffs_scores(ak.power_series_closed_form(permuted, scaling))
        assert_allclose(scores, base[perm], atol=1e-12)


# Each case runs on both paths; length None is the closed form.
PATHS = [
    pytest.param(matrix_path_scores, id="matrix_path"),
    pytest.param(ak.path_scores, id="score_path"),
]


class TestPathScores:
    @pytest.mark.parametrize("scores", PATHS)
    @pytest.mark.parametrize("length", [None, 1, 5])
    def test_zero_matrix(self, scores, length):
        a = ak.AffinityMatrix(np.zeros((3, 3)))
        assert_array_equal(scores(a, ak.AlphaScaling(alpha=0.9, rho=0.0), length), np.zeros(3))

    @pytest.mark.parametrize("scores", PATHS)
    @pytest.mark.parametrize("length, alpha, expected", [(None, 0.4, 14 / 21), (3, 0.5, 0.875)])
    def test_swap_by_hand(self, scores, length, alpha, expected):
        # Rows of the hand inverse sum to 4/21 + 10/21; the L = 3 rows to 0.25 + 0.625.
        got = scores(ak.AffinityMatrix(SWAP), ak.AlphaScaling(alpha, 1.0), length)
        assert_allclose(got, [expected, expected], rtol=1e-14)

    @pytest.mark.parametrize("length", [0, 1.5, -3])
    def test_length_must_be_a_positive_integer(self, length):
        a = ak.AffinityMatrix(SWAP)
        message = f"L must be a positive integer, got {length}"
        with pytest.raises(ValueError, match=message):
            ak.path_scores(a, ak.AlphaScaling(0.5, 1.0), length)
        with pytest.raises(ValueError, match=message):
            ak.power_series_truncated(a, 0.5, length)

    @pytest.mark.parametrize("scores", PATHS)
    def test_singular_system_when_scaling_lies(self, scores):
        forged = ak.AlphaScaling(alpha=1.0, rho=0.0)
        with pytest.raises(ak.SingularSystem):
            scores(ak.AffinityMatrix(SWAP), forged)

    @pytest.mark.parametrize("scores", PATHS)
    @pytest.mark.parametrize("length", [None, 40])
    def test_a_product_past_the_largest_double(self, scores, length):
        # A 1 is not a double, but alpha A 1 is near 1: alpha = 3.09e-309 keeps 49 bits.
        m = np.array([[1e308, 1e308], [1e308, 0.0]])
        small = ak.AffinityMatrix(np.ldexp(m, -1000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = ak.AffinityMatrix(m)
            got = scores(a, ak.choose_alpha(a), length)
        assert_allclose(got, scores(small, ak.choose_alpha(small), length), rtol=1e-13)

    def test_series_stops_at_its_first_exact_repeat(self):
        # Each Horner step is a fixed map of t, so from the first step that
        # repeats t bit for bit on, every step does: L = 10^12 ends there, in a
        # child process so that a loop running all 10^12 steps fails by timeout.
        child = (
            "import numpy as np, affinitykit as ak\n"
            "a = ak.AffinityMatrix(np.array(%r))\n"
            "scaling = ak.choose_alpha(a, 0.9)\n"
            "print(ak.path_scores(a, scaling, 10**12).tobytes().hex())\n"
            "print(ak.power_series_truncated(a, scaling.alpha, 10**12).matrix.tobytes().hex())\n"
        ) % CHAIN.tolist()
        result = subprocess.run([sys.executable, "-c", child], capture_output=True,
                                text=True, timeout=60, check=True)
        a = ak.AffinityMatrix(CHAIN)
        scaling = ak.choose_alpha(a, 0.9)
        assert result.stdout.split() == [
            ak.path_scores(a, scaling, 10**5).tobytes().hex(),
            ak.power_series_truncated(a, scaling.alpha, 10**5).matrix.tobytes().hex(),
        ]

    @pytest.mark.parametrize("scores", PATHS)
    def test_one_hop_is_weighted_degree(self, scores):
        m = np.random.default_rng(9).random((20, 20))
        a = ak.AffinityMatrix(m)
        scaling = ak.choose_alpha(a, 0.5)
        assert np.abs(scores(a, scaling, 1) - scaling.alpha * m.sum(axis=1)).max() <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 12).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.floats(0, 1, allow_subnormal=False))
        ),
        fraction=st.floats(0.05, 0.95),
        length=st.one_of(st.none(), st.integers(1, 80)),
    )
    def test_equals_matrix_path(self, m, fraction, length):
        sym = (m + m.T) / 2
        # rho from a dense eigensolver, so the case does not rest on power iteration.
        rho = float(np.abs(np.linalg.eigvalsh(sym)).max())
        scaling = ak.AlphaScaling(fraction / rho if rho > 0 else fraction, rho)
        a = ak.AffinityMatrix(sym)
        reference = matrix_path_scores(a, scaling, length)
        error = np.abs(ak.path_scores(a, scaling, length) - reference).max()
        assert error <= 1e-12 * np.abs(reference).max()


class TestEigenvectorCentrality:
    def test_complete_graph_is_uniform(self):
        complete = np.ones((5, 5)) - np.eye(5)
        cv = ak.eigenvector_centrality(ak.AffinityMatrix(complete))
        assert_allclose(cv.values, np.full(5, 1 / np.sqrt(5)), rtol=1e-12)
        assert_allclose(cv.eigenvalue, 4.0, rtol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ak.ZeroMatrix):
            ak.eigenvector_centrality(ak.AffinityMatrix(np.zeros((3, 3))))

    def test_nilpotent_matrix_rejected_for_its_zero_radius(self):
        with pytest.raises(ak.ZeroMatrix, match=r"^rho\(A\) = 0, so A has no principal eigenvector$"):
            ak.eigenvector_centrality(ak.AffinityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_star_graph(self):
        # characteristic polynomial of the star: lambda^3 = 2 lambda
        cv = ak.eigenvector_centrality(ak.AffinityMatrix(STAR))
        assert_allclose(cv.eigenvalue, np.sqrt(2), atol=1e-9)
        assert_allclose(cv.values, [np.sqrt(2) / 2, 0.5, 0.5], atol=1e-9)
        assert cv.values[0] > cv.values[1] and cv.values[0] > cv.values[2]

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_bound_on_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        sym = rng.random((15, 15))
        sym = (sym + sym.T) / 2
        cv = ak.eigenvector_centrality(ak.AffinityMatrix(sym))
        residual = np.linalg.norm(sym @ cv.values - cv.eigenvalue * cv.values)
        assert residual <= 1e-8 * cv.eigenvalue
        assert_allclose(np.linalg.norm(cv.values), 1.0, rtol=1e-12)
        assert np.all(cv.values >= 0)

    def test_negative_entries_rejected(self):
        with pytest.raises(ak.NegativeEntries):
            ak.eigenvector_centrality(ak.AffinityMatrix(-np.eye(2)))

    def test_non_convergence_names_the_node_of_a(self):
        # Node 0 is an isolated sink. Nodes 1, 2 and 3 reach the top class
        # {2, 3}; the vector's run on their rows leaves hi at node 1's ratio 1.5.
        a = ak.AffinityMatrix(np.array([[0, 0, 0, 0], [0, 0.5, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0.0]]))
        with pytest.raises(ak.NonConvergence, match=r"rho in \[1\.0, 1\.5\d*\]; hi is set by "
                           r"node 1, of the 3 nodes that reach the top class$"):
            ak.eigenvector_centrality(a, max_iter=1)


class TestPagerank:
    def test_two_cycle_is_exactly_half_half(self):
        cv = ak.pagerank(ak.AffinityMatrix(SWAP), damping=0.85)
        assert cv.values[0] == 0.5 and cv.values[1] == 0.5

    def test_tiny_damping_approaches_uniform(self):
        a = ak.AffinityMatrix(np.array([[0.0, 3.0, 1.0], [0.5, 0.0, 0.0], [2.0, 2.0, 0.0]]))
        cv = ak.pagerank(a, damping=1e-9)
        assert np.abs(cv.values - 1 / 3).max() <= 1e-6

    def test_chain_matches_linear_solve_oracle(self):
        damping = 0.85
        transition = CHAIN / CHAIN.sum(axis=1, keepdims=True)
        oracle = np.linalg.solve(
            np.eye(3) - damping * transition.T, (1 - damping) / 3 * np.ones(3)
        )
        oracle /= oracle.sum()
        cv = ak.pagerank(ak.AffinityMatrix(CHAIN), damping=damping)
        assert np.abs(cv.values - oracle).sum() <= 1e-10

    def test_dangling_row_uses_uniform_jump(self):
        dangling = np.array([[0.0, 1.0], [0.0, 0.0]])
        cv = ak.pagerank(ak.AffinityMatrix(dangling), damping=0.85)
        assert_allclose(cv.values.sum(), 1.0, atol=1e-12)
        assert np.all(cv.values > 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_stationarity_at_return(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((12, 12))
        damping = 0.85
        cv = ak.pagerank(ak.AffinityMatrix(m), damping=damping)
        transition = m / m.sum(axis=1, keepdims=True)
        uniform = np.ones(12) / 12
        step = damping * (cv.values @ transition) + (1 - damping) * uniform
        assert np.abs(cv.values - step).sum() <= 1e-10
        assert abs(cv.values.sum() - 1.0) <= 1e-12

    def test_non_convergence_reports_its_state(self):
        with pytest.raises(ak.NonConvergence) as info:
            ak.pagerank(ak.AffinityMatrix(CHAIN), damping=0.85, max_iter=1)
        message = str(info.value)
        assert message.startswith("PageRank did not converge within 1 iterations: last L1 change ")
        assert float(message.rsplit(" ", 1)[1]) > 1e-10

    def test_a_row_sum_past_the_largest_double(self):
        # Row 1 sums past the largest double, but the walk does not depend on A's scale.
        top = np.ldexp(LINKS, 1021)
        top[1, 2:] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = ak.pagerank(ak.AffinityMatrix(top)).values
        assert_array_equal(values, ak.pagerank(ak.AffinityMatrix(np.ldexp(top, -1021))).values)
        assert_allclose(values, [0.2555, 0.2916, 0.2621, 0.1909], atol=5e-5)

    @pytest.mark.parametrize("m, expected", [
        (np.full((4, 4), 1e-320), np.full(4, 0.25)),
        (np.ldexp(LINKS, -1030), ak.pagerank(ak.AffinityMatrix(LINKS)).values),
        (np.full((4, 4), 1e308), np.full(4, 0.25)),
    ], ids=["full_1e-320", "links_2^-1030", "full_1e308"])
    def test_entries_at_either_end_of_the_range(self, m, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_array_equal(ak.pagerank(ak.AffinityMatrix(m)).values, expected)

    def test_rows_too_far_apart_to_weigh_in_one_product_raise(self):
        # The walk is (0.5, 0.5), but no one power of two keeps both rows' weights
        # finite and normal: a silent wrong distribution is refused.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ak.NumericError, match="2\\^2097 apart"):
                ak.pagerank(ak.AffinityMatrix(np.array([[0.0, 1e308], [5e-324, 0.0]])))

    def test_peak_memory_is_vectors_not_a_copy_of_the_matrix(self):
        # The sign check scans A's minimum, and each step is one matvec, so
        # nothing N x N is allocated: not a transition matrix, not a bool.
        a = ak.AffinityMatrix(np.random.default_rng(20).random((2000, 2000)))
        tracemalloc.start()
        try:
            ak.pagerank(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * 2000 * 2000 * 8

    @pytest.mark.parametrize("damping", [0.0, 1.0, -0.5])
    def test_damping_domain(self, damping):
        with pytest.raises(ValueError):
            ak.pagerank(ak.AffinityMatrix(SWAP), damping=damping)
