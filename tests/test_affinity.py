import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import rankdata

import affinitykit as ak
from affinitykit.affinity import _average_ranks, _column_std


def make_ds(*columns, names=None):
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    if names is None:
        names = tuple(f"f{i}" for i in range(data.shape[1]))
    return ak.FeatureDataset(data, names)


# Frozen via an independent average-rank / population-std script on the
# 4x3 table below: sigma_hat = [1, 1, 0], spearman(a, b) = 0.8.
CORR_FIXTURE = make_ds([1, 2, 3, 4], [1, 3, 2, 4], [2, 2, 2, 2], names=("a", "b", "c"))
CORR_EXPECTED = np.array([[0.0, 0.6, 1.0], [0.6, 0.0, 1.0], [1.0, 1.0, 0.0]])


class TestFeatureDataset:
    def test_valid(self):
        ds = make_ds([1, 2], [3, 4])
        assert ds.n_samples == 2 and ds.n_features == 2

    def test_single_sample_rejected(self):
        with pytest.raises(ak.EmptyDataset):
            ak.FeatureDataset(np.array([[1.0, 2.0]]), ("a", "b"))

    def test_nan_rejected(self):
        with pytest.raises(ak.NonFiniteInput):
            make_ds([1, np.nan], [3, 4])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            make_ds([1, 2], [3, 4], names=("a", "a"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            make_ds([1, 2], [3, 4], names=("a", ""))

    def test_name_count_mismatch(self):
        with pytest.raises(ak.DimensionMismatch):
            make_ds([1, 2], [3, 4], names=("a", "b", "c"))


class TestAffinityMatrixType:
    def test_flags_inferred(self):
        a = ak.AffinityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert a.nonnegative and a.zero_diagonal

    def test_nonnegative_claim_checked(self):
        with pytest.raises(ak.NegativeEntries):
            ak.AffinityMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]), nonnegative=True)

    def test_zero_diagonal_claim_checked(self):
        with pytest.raises(ValueError):
            ak.AffinityMatrix(np.eye(2), zero_diagonal=True)

    def test_square_required(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.AffinityMatrix(np.ones((2, 3)))

    def test_finite_required(self):
        with pytest.raises(ak.NonFiniteInput):
            ak.AffinityMatrix(np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_validation_reads_the_matrix_without_copying_it(self):
        # Finiteness and sign are read from A's minimum and maximum: no N x N bool.
        m = np.random.default_rng(8).random((1000, 1000))
        tracemalloc.start()
        try:
            a = ak.AffinityMatrix(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.matrix is m
        assert peak <= 0.01 * m.nbytes

    @pytest.mark.filterwarnings("error")  # numpy 2 warns on an __array__ without ``copy``
    @pytest.mark.parametrize("build", [lambda x: ak.build_dot_product_affinity(x, x),
                                       lambda x: ak.build_gaussian_affinity(x, 1.5)],
                             ids=["dot_product", "gaussian"])
    def test_every_array_stage_takes_a_builders_output(self, build):
        rng = np.random.default_rng(5)
        x, v = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
        mask = ak.NeighborhoodMask(np.eye(6, dtype=bool) | (rng.random((6, 6)) < 0.5))
        aff = build(x)
        assert isinstance(aff, ak.AffinityMatrix)
        m = aff.matrix
        assert_array_equal(ak.softmax_rows(aff), ak.softmax_rows(m))
        assert_array_equal(ak.scale_scores(aff, 3), ak.scale_scores(m, 3))
        assert_array_equal(ak.masked_softmax_rows(aff, mask), ak.masked_softmax_rows(m, mask))
        assert_array_equal(ak.single_hop_aggregate(aff, v), ak.single_hop_aggregate(m, v))


def _rank_columns(n):
    """One column of n entries: tied small integers, floats, or a constant."""
    small_ints = st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n)
    floats = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
    constants = st.floats(-1e6, 1e6).map(lambda value: [value] * n)
    return st.one_of(small_ints, floats, constants)


def reference_corr_affinity(data, beta):
    """The correlation affinity as first written: signed rho, the mix, a triangle mirror."""
    centered = _average_ranks(data) - (data.shape[0] + 1) / 2.0
    gram = centered.T @ centered
    diag = np.diagonal(gram)
    den2 = np.outer(diag, diag)
    rho = np.divide(gram, np.sqrt(den2), out=np.zeros_like(gram), where=den2 > 0)
    rho = np.where((den2 > 0) & (gram * gram >= den2), np.sign(gram), rho)
    sigma = _column_std(data)
    sigma_hat = sigma / sigma.max() if sigma.max() > 0 else np.zeros_like(sigma)
    off = beta * np.maximum.outer(sigma_hat, sigma_hat) + (1.0 - beta) * (1.0 - np.abs(rho))
    upper = np.triu(off, k=1)
    return upper + upper.T


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestCorrAffinity:
    def test_identical_columns_give_exact_zero(self):
        a = ak.build_corr_affinity(make_ds([1, 2, 3, 4], [1, 2, 3, 4]), beta=0.0)
        assert a.matrix[0, 1] == 0.0

    def test_anti_correlated_columns_give_exact_zero(self):
        a = ak.build_corr_affinity(make_ds([1, 2, 3, 4], [4, 3, 2, 1]), beta=0.0)
        assert a.matrix[0, 1] == 0.0

    def test_fixture_matches_independent_oracle(self):
        a = ak.build_corr_affinity(CORR_FIXTURE, beta=0.5)
        assert_allclose(a.matrix, CORR_EXPECTED, atol=1e-15)

    def test_constant_column_correlates_zero(self):
        a = ak.build_corr_affinity(make_ds([1, 2, 3, 4], [5, 5, 5, 5]), beta=0.0)
        assert a.matrix[0, 1] == 1.0

    def test_symmetric_bitwise_and_zero_diagonal(self):
        rng = np.random.default_rng(3)
        ds = ak.FeatureDataset(rng.normal(size=(9, 6)), tuple("abcdef"))
        a = ak.build_corr_affinity(ds, beta=0.3)
        assert_array_equal(a.matrix, a.matrix.T)
        assert_array_equal(np.diagonal(a.matrix), np.zeros(6))
        assert a.nonnegative and a.zero_diagonal

    def test_monotone_ties_preserved(self):
        # Ties use average ranks, so duplicating a value keeps rho intact.
        a = ak.build_corr_affinity(make_ds([1, 1, 2, 3], [5, 5, 6, 7]), beta=0.0)
        assert a.matrix[0, 1] == 0.0

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=2, max_size=4),
            min_size=3,
            max_size=8,
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=60)
    def test_spearman_monotone_transform_invariance(self, table, col_pick):
        rows = [r[: min(len(r) for r in table)] for r in table]
        data = np.asarray(rows, dtype=float)
        if data.shape[1] < 2:
            return
        ds = ak.FeatureDataset(data, tuple(f"f{i}" for i in range(data.shape[1])))
        col = col_pick % data.shape[1]
        transformed = data.copy()
        transformed[:, col] = np.exp(transformed[:, col])
        ds_t = ak.FeatureDataset(transformed, ds.feature_names)
        a = ak.build_corr_affinity(ds, beta=0.0)
        a_t = ak.build_corr_affinity(ds_t, beta=0.0)
        assert_allclose(a_t.matrix, a.matrix, atol=1e-12)

    # Besides the drawn columns: an exact copy, a negated copy and a monotone
    # transform of the first, so |rho| = 1 is reached in both signs.
    @given(
        st.integers(2, 25).flatmap(lambda n: st.lists(_rank_columns(n), min_size=1, max_size=6)),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    @example([[1.0, 2.0, 2.0, 3.0], [4.0, 4.0, 4.0, 4.0]], 0.3)
    @settings(max_examples=200)
    def test_same_bits_as_parent_formula(self, columns, beta):
        first = np.array(columns[0])
        data = np.column_stack([*columns, first, -first, np.cbrt(first) + 7.0])
        a = ak.build_corr_affinity(ak.FeatureDataset(data, tuple(map(str, range(data.shape[1])))), beta)
        assert_array_equal(bits(a.matrix), bits(reference_corr_affinity(data, beta)))
        assert_array_equal(bits(a.matrix), bits(a.matrix.T))

    def test_peak_memory_is_a_small_multiple_of_the_result(self):
        # About 1.2 times at 60 x 300, where the ranks count: the Gram buffer,
        # which becomes the result, then one row's temporaries at a time; no
        # N x N denominators or outer maximum, and no bool from the finiteness check.
        ds = ak.FeatureDataset(np.random.default_rng(17).normal(size=(60, 300)),
                               tuple(f"f{i}" for i in range(300)))
        tracemalloc.start()
        try:
            ak.build_corr_affinity(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 300 * 300 * 8

    def test_peak_memory_on_a_wide_table_is_the_result_and_a_row(self):
        # About 1.04 times: at 40 x 1000 the Gram buffer that becomes A sets the
        # peak, beside one row's temporaries and the 40 x 1000 ranks.
        ds = ak.FeatureDataset(np.random.default_rng(17).normal(size=(40, 1000)),
                               tuple(f"f{i}" for i in range(1000)))
        tracemalloc.start()
        try:
            ak.build_corr_affinity(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.08 * 1000 * 1000 * 8

    def test_peak_memory_on_a_tall_table_is_a_small_multiple_of_the_table(self):
        # About 3.3 times the table, in the average ranks: the sort order and two
        # float position buffers, the second of which becomes the ranks.
        rng = np.random.default_rng(5)
        data = rng.standard_normal((2000, 200))
        data[:, ::5] = rng.integers(0, 7, size=(2000, 40))
        ds = ak.FeatureDataset(data, tuple(f"f{i}" for i in range(200)))
        tracemalloc.start()
        try:
            ak.build_corr_affinity(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * data.nbytes

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            ak.build_corr_affinity(CORR_FIXTURE, beta=1.5)

    def test_single_feature_rejected(self):
        with pytest.raises(ak.EmptyDataset):
            ak.build_corr_affinity(make_ds([1, 2, 3]))


class TestAverageRanks:
    @given(
        st.integers(2, 25).flatmap(
            lambda n: st.lists(_rank_columns(n), min_size=1, max_size=6)
        )
    )
    @example([[1.0, 1.0]])
    @example([[2.0, 1.0], [0.5, 0.5], [-0.0, 0.0]])
    @settings(max_examples=200)
    def test_equals_scipy_average_ranks(self, columns):
        data = np.array(columns).T
        assert_array_equal(_average_ranks(data), rankdata(data, method="average", axis=0))

    def test_same_bits_as_a_stable_sort_on_a_ties_heavy_table(self, monkeypatch):
        # Values in {0, 1, 2}, half the zeros -0.0: long tie groups whose inner order
        # the default sort does not keep.
        rng = np.random.default_rng(13)
        data = rng.integers(0, 3, size=(3000, 40)).astype(float)
        data[(data == 0) & (rng.random(data.shape) < 0.5)] = -0.0
        unstable = np.argsort
        assert not np.array_equal(unstable(data, axis=0), unstable(data, axis=0, kind="stable"))
        ranks = _average_ranks(data)
        monkeypatch.setattr(np, "argsort", lambda a, axis, kind=None: unstable(a, axis=axis, kind="stable"))
        assert ranks.tobytes() == _average_ranks(data).tobytes()


def _std_columns(n):
    """One column of n entries from {0} and +-[1e-100, 1e100]."""
    magnitudes = st.floats(1e-100, 1e100)
    value = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda m: -m))
    return st.lists(value, min_size=n, max_size=n)


class TestColumnStd:
    @given(
        st.integers(2, 25).flatmap(
            lambda n: st.lists(_std_columns(n), min_size=1, max_size=6)
        )
    )
    @settings(max_examples=200)
    def test_equals_plain_std(self, columns):
        data = np.array(columns).T
        assert_array_equal(_column_std(data), data.std(axis=0))


class TestDotProductAffinity:
    def test_identity(self):
        a = ak.build_dot_product_affinity(np.eye(2), np.eye(2))
        assert isinstance(a, ak.AffinityMatrix)
        assert_array_equal(a.matrix, np.eye(2))
        # raw scores claim neither sign nor diagonal structure
        assert a.nonnegative is False and a.zero_diagonal is False

    def test_zero_query(self):
        a = ak.build_dot_product_affinity(np.zeros((2, 3)), np.ones((2, 3)))
        assert_array_equal(a.matrix, np.zeros((2, 2)))

    def test_hand_dot_products(self):
        out = ak.build_dot_product_affinity([[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]])
        assert isinstance(out, np.ndarray)  # 1x2 is cross-attention shaped
        assert_array_equal(out, [[11.0, 17.0]])

    def test_transpose_swaps_arguments(self):
        rng = np.random.default_rng(11)
        q, k = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        a = ak.build_dot_product_affinity(q, k).matrix
        b = ak.build_dot_product_affinity(k, q).matrix
        assert_allclose(a.T, b, atol=1e-12)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.build_dot_product_affinity(np.ones((2, 3)), np.ones((2, 4)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [(3, 4), (3, 3)], ids=["cross", "square"])
    def test_overflowing_product_is_a_clean_error(self, rows):
        q, k = (np.full((n, 2), 1e200) for n in rows)
        with pytest.raises(ak.NonFiniteInput):
            ak.build_dot_product_affinity(q, k)


class TestGaussianAffinity:
    def test_unit_diagonal(self):
        a = ak.build_gaussian_affinity(np.random.default_rng(0).normal(size=(5, 3)), 2.0)
        assert_array_equal(np.diagonal(a.matrix), np.ones(5))

    def test_distance_equal_to_bandwidth(self):
        h = 0.7
        a = ak.build_gaussian_affinity([[0.0], [h]], h)
        assert_allclose(a.matrix[0, 1], math.exp(-1.0), rtol=1e-15)

    def test_three_four_five_triangle(self):
        a = ak.build_gaussian_affinity([[0.0, 0.0], [3.0, 4.0]], 5.0)
        assert_allclose(a.matrix[0, 1], 0.36787944117144233, rtol=1e-15)

    def test_symmetric_and_in_unit_interval(self):
        x = np.random.default_rng(5).normal(size=(8, 4))
        a = ak.build_gaussian_affinity(x, 1.5)
        assert_array_equal(a.matrix, a.matrix.T)
        assert np.all(a.matrix > 0) and np.all(a.matrix <= 1)

    @given(st.permutations(list(range(5))))
    @settings(max_examples=30)
    def test_permutation_exact(self, perm):
        x = np.random.default_rng(9).normal(size=(5, 3))
        p = np.asarray(perm)
        a = ak.build_gaussian_affinity(x, 1.2).matrix
        a_p = ak.build_gaussian_affinity(x[p], 1.2).matrix
        assert_array_equal(a_p, a[np.ix_(p, p)])

    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_bandwidth_must_be_positive(self, h):
        with pytest.raises(ak.NonPositiveBandwidth):
            ak.build_gaussian_affinity([[0.0], [1.0]], h)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_bandwidth_must_be_finite(self, h):
        with pytest.raises(ak.NonPositiveBandwidth, match="positive and finite"):
            ak.build_gaussian_affinity([[0.0], [1.0]], h)

    # h*h underflows to 0 for each of these; measured in h's power of two the
    # distances 1, 2 and sqrt(5) are so far that every weight is 0. At 5e-324
    # the scaled differences themselves, 2**1073 and more, overflow to inf.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [1.4e-162, 1e-170, 5e-324])
    def test_bandwidth_whose_square_underflows_gives_the_kernels_weights(self, h):
        x = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]
        assert_array_equal(ak.build_gaussian_affinity(x, h).matrix, np.eye(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [[[0.0], [1e200]], [[-1e308], [1e308]]],
                             ids=["square", "difference"])
    def test_overflowing_distance_gets_weight_zero(self, x):
        assert_array_equal(ak.build_gaussian_affinity(x, 1.0).matrix, np.eye(2))

    # Each squared distance and h*h overflow to inf, or underflow so far that
    # their ratio was 0 or 1 (1.4e154 / 1e154 and 5e-163 / 1.6e-162): the true
    # weights, to 1 ulp, from 200-bit arithmetic on the same doubles.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, h, weight", [(1e200, 1e200, math.exp(-1.0)),
                                              (1e160, 1e160, math.exp(-1.0)),
                                              (1.4e154, 1e154, 0.14085842092104503),
                                              (5e-163, 1.6e-162, 0.9069606178873836)])
    def test_distance_and_bandwidth_both_past_the_square_range_give_the_kernels_weight(
            self, x, h, weight):
        a = ak.build_gaussian_affinity([[0.0], [x]], h).matrix
        assert_allclose(a, [[1.0, weight], [weight, 1.0]], rtol=2**-52, atol=0)

    # X / h = 1e400 leaves the float range, but only a difference is scaled by
    # h's power of two: a far pair overflows to weight 0, a coincident one is 1.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, expected", [([[0.0], [1e300]], np.eye(2)),
                                             ([[1e300], [1e300]], np.ones((2, 2)))],
                             ids=["far", "coincident"])
    def test_x_over_h_past_the_float_range_gives_the_kernels_weights(self, x, expected):
        assert_array_equal(ak.build_gaussian_affinity(x, 1e-100).matrix, expected)

    @pytest.mark.filterwarnings("error")
    def test_three_four_five_triangle_has_the_same_bits_at_every_scale(self):
        # k = -1070 puts 3 * 2**k among the subnormals; k = 1019 puts 5 * 2**k
        # just below the largest double.
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        expected = ak.build_gaussian_affinity(x, 5.0).matrix
        for k in range(-1070, 1020):
            assert_array_equal(ak.build_gaussian_affinity(np.ldexp(x, k), math.ldexp(5.0, k)).matrix,
                               expected, err_msg=f"k = {k}")

    # Entries 0 or 2**-20 <= |x| <= 2**20 stay normal under any 2**k, |k| <= 1000,
    # so every scaled input holds the same significands; outside 2**+-256 the
    # builder measures them in h's power of two, inside it runs unscaled.
    @pytest.mark.filterwarnings("error")
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
               st.lists(st.one_of(st.just(0.0), st.floats(2**-20, 2**20), st.floats(-2**20, -2**-20)),
                        min_size=n, max_size=n), min_size=1, max_size=40)),
           st.floats(0.5, 4.0), st.integers(-1000, 1000))
    @settings(max_examples=200)
    def test_scaling_x_and_h_by_a_power_of_two_changes_no_bit(self, rows, h, k):
        x = np.array(rows).T
        expected = ak.build_gaussian_affinity(x, h).matrix
        scaled = ak.build_gaussian_affinity(np.ldexp(x, k), math.ldexp(h, k)).matrix
        assert_array_equal(bits(scaled), bits(expected))

    def test_scratch_is_not_n_squared_times_d(self):
        # The N x N x d difference tensor alone would be 128 times the result;
        # one N x d row buffer is half of it.
        x = np.random.default_rng(3).normal(size=(256, 128))
        tracemalloc.start()
        try:
            ak.build_gaussian_affinity(x, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 256 * 256 * 8

    # Fortran order and a transposed view put d on the outer axis, where a
    # reduction over it sums sequentially rather than pairwise.
    @given(st.integers(1, 12), st.integers(1, 300), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3))
    @example(40, 200, 0, 3.0)
    @settings(max_examples=60)
    def test_layout_changes_no_bit_and_permutations_stay_exact(self, n, d, seed, h):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** (seed % 7 - 3)
        p = rng.permutation(n)
        strided = np.zeros((2 * n, 3 * d))[::2, ::3]
        strided[...] = x
        expected = ak.build_gaussian_affinity(x, h).matrix
        for layout in (np.asfortranarray(x), np.ascontiguousarray(x.T).T, strided):
            assert_array_equal(ak.build_gaussian_affinity(layout, h).matrix.view(np.int64),
                               expected.view(np.int64))
            assert_array_equal(ak.build_gaussian_affinity(layout[p], h).matrix,
                               expected[np.ix_(p, p)])

    # d up to 300 crosses numpy's 8- and 128-element pairwise-summation blocks.
    @given(st.integers(1, 12), st.integers(1, 300), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3))
    @settings(max_examples=60)
    def test_same_bits_as_broadcast_formula(self, n, d, seed, h):
        x = np.random.default_rng(seed).normal(size=(n, d)) * 10.0 ** (seed % 7 - 3)
        diff = x[:, None, :] - x[None, :, :]
        reference = np.exp(-(diff * diff).sum(axis=-1) / (h * h))
        assert_array_equal(ak.build_gaussian_affinity(x, h).matrix, reference)


class TestGatScores:
    def test_zero_scorer(self):
        e = ak.build_gat_scores(np.ones((3, 2)), np.ones((2, 2)), np.zeros(4))
        assert_array_equal(e, np.zeros((3, 3)))

    def test_zero_transform(self):
        e = ak.build_gat_scores(np.ones((3, 2)), np.zeros((2, 2)), np.ones(4))
        assert_array_equal(e, np.zeros((3, 3)))

    def test_hand_concat_scorer(self):
        e = ak.build_gat_scores([[1.0], [2.0]], [[1.0]], [1.0, -1.0], slope=0.2)
        assert_allclose(e, [[0.0, -0.2], [1.0, 0.0]], atol=1e-15)

    def test_dimension_checks(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.build_gat_scores(np.ones((3, 2)), np.ones((3, 2)), np.ones(4))
        with pytest.raises(ak.DimensionMismatch):
            ak.build_gat_scores(np.ones((3, 2)), np.ones((2, 2)), np.ones(3))

    def test_slope_domain(self):
        with pytest.raises(ValueError):
            ak.build_gat_scores(np.ones((2, 1)), np.ones((1, 1)), np.ones(2), slope=1.5)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_projection_is_a_clean_error(self):
        # W h_i overflows to inf, so a . [W h_i, W h_j] is inf - inf.
        with pytest.raises(ak.NonFiniteInput, match="^GAT scores contains NaN or infinite entries$"):
            ak.build_gat_scores(np.full((3, 2), 1e300), 1e10 * np.eye(2), [1.0, 1.0, -1.0, -1.0])

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.integers(-150, 150), st.sampled_from([None, 0.0, -0.0]),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=200)
    def test_same_bits_as_where_formula(self, n, f_in, f_out, seed, exponent, zero, slope):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, f_in)) * 10.0 ** exponent
        w, a = rng.normal(size=(f_in, f_out)), rng.normal(size=2 * f_out)
        if zero is not None:
            a[:] = zero
        projected = h @ w
        s = (projected @ a[:f_out])[:, None] + (projected @ a[f_out:])[None, :]
        reference = np.where(s >= 0, s, slope * s)
        assert_array_equal(bits(ak.build_gat_scores(h, w, a, slope)), bits(reference))

    def test_peak_memory_is_a_small_multiple_of_the_result(self):
        # About 2 times: the outer sum and its slope multiple.
        rng = np.random.default_rng(19)
        h, w, a = rng.normal(size=(512, 16)), rng.normal(size=(16, 8)), rng.normal(size=16)
        tracemalloc.start()
        try:
            ak.build_gat_scores(h, w, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 512 * 512 * 8


# Entries on a grid of 2**-10 in [-1024, 1024]: normal under any 2**k, |k| <= 996,
# and a non-constant column's std stays normal too.
def _grid_matrix(rows, cols):
    entry = st.integers(-2**20, 2**20).map(lambda i: math.ldexp(i, -10))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows).map(np.array)


def _finite_or_clean_error(build, *args):
    """Call build(*args): it returns a finite array or raises NonFiniteInput."""
    try:
        out = np.asarray(build(*args))
    except ak.NonFiniteInput:
        return
    assert np.all(np.isfinite(out))


@pytest.mark.filterwarnings("error")
class TestEveryBuilderAtEveryScale:
    """Each builder's inputs scaled by 2**k give a finite result or NonFiniteInput, with no warning.

    The Gaussian's sweep, bit for bit, is in TestGaussianAffinity.
    """

    @given(st.integers(2, 8).flatmap(lambda n: _grid_matrix(n, 3)), st.integers(-996, 996),
           st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_correlation_has_the_same_bits(self, data, k, beta):
        names = ("a", "b", "c")
        expected = ak.build_corr_affinity(ak.FeatureDataset(data, names), beta).matrix
        scaled = ak.build_corr_affinity(ak.FeatureDataset(np.ldexp(data, k), names), beta).matrix
        assert_array_equal(bits(scaled), bits(expected))

    @given(st.integers(1, 5).flatmap(lambda n: _grid_matrix(n, 2)),
           st.integers(1, 5).flatmap(lambda n: _grid_matrix(n, 2)), st.integers(-996, 996))
    @settings(max_examples=100)
    def test_dot_product_is_finite_or_a_clean_error(self, queries, keys, k):
        _finite_or_clean_error(ak.build_dot_product_affinity, np.ldexp(queries, k), np.ldexp(keys, k))

    @given(st.integers(1, 5).flatmap(lambda n: _grid_matrix(n, 2)), _grid_matrix(2, 2),
           _grid_matrix(1, 4), st.integers(-996, 996))
    @settings(max_examples=100)
    def test_gat_scores_are_finite_or_a_clean_error(self, h, w, a, k):
        _finite_or_clean_error(ak.build_gat_scores, np.ldexp(h, k), np.ldexp(w, k), np.ldexp(a[0], k))
