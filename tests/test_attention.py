import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import affinitykit as ak
from affinitykit.attention import _BLOCK_BYTES


def reference_multi_head(x, wq, wk, wv, wout, scale):
    """Straight-line oracle: per-head loops, scalar softmax, then concat."""
    n = x.shape[0]
    heads = []
    for h in range(len(wq)):
        q, k, v = x @ wq[h], x @ wk[h], x @ wv[h]
        rows = []
        for i in range(n):
            scores = [float(q[i] @ k[j]) for j in range(n)]
            if scale:
                scores = [s / math.sqrt(q.shape[1]) for s in scores]
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            z = sum(exps)
            weights = [e / z for e in exps]
            rows.append(sum(weights[j] * v[j] for j in range(n)))
        heads.append(np.vstack(rows))
    return np.hstack(heads) @ wout


# Frozen from the straight-line oracle above on the fixed inputs below.
MHA_X = np.array([[0.5, -1.0], [1.5, 2.0], [-0.5, 0.25]])
MHA_WQ = (np.array([[0.1], [0.2]]), np.array([[-0.2], [0.05]]))
MHA_WK = (np.array([[0.3], [-0.1]]), np.array([[0.15], [0.25]]))
MHA_WV = (np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
MHA_WOUT = np.array([[0.7, -0.3], [0.2, 0.9]])
MHA_EXPECTED = np.array(
    [
        [0.4045520511303765, 0.16955868594441087],
        [0.4673729343267094, 0.12057343064369283],
        [0.4439339266545623, 0.2727026699455307],
    ]
)


class TestAttention:
    def test_single_key_value_copies_v(self):
        q = np.array([[3.0, -1.0], [0.5, 2.0]])
        out = ak.attention(q, [[1.0, 1.0]], [[7.0, -2.0, 4.0]])
        assert_array_equal(out, [[7.0, -2.0, 4.0]] * 2)

    def test_identical_keys_average_values(self):
        v = np.random.default_rng(0).normal(size=(4, 3))
        out = ak.attention(np.eye(4), np.ones((4, 4)), v)
        assert_allclose(out, [v.mean(axis=0)] * 4, rtol=1e-12)

    def test_log_two_scores(self):
        out = ak.attention(
            [[1.0], [0.0]], [[math.log(2.0)], [0.0]], [[1.0, 0.0], [0.0, 1.0]], scale=True
        )
        assert_allclose(out, [[2 / 3, 1 / 3], [0.5, 0.5]], rtol=1e-14)

    def test_cross_attention_shapes(self):
        out = ak.attention(np.ones((5, 3)), np.ones((2, 3)), np.ones((2, 4)))
        assert out.shape == (5, 4)

    def test_output_in_value_hull(self):
        rng = np.random.default_rng(3)
        q, k, v = rng.normal(size=(6, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
        out = ak.attention(q, k, v)
        for col in range(v.shape[1]):
            assert np.all(out[:, col] >= v[:, col].min() - 1e-12)
            assert np.all(out[:, col] <= v[:, col].max() + 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_joint_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        q, k, v = rng.normal(size=(7, 3)), rng.normal(size=(7, 3)), rng.normal(size=(7, 2))
        perm = rng.permutation(7)
        permuted = ak.attention(q[perm], k[perm], v[perm])
        assert_allclose(permuted, ak.attention(q, k, v)[perm], atol=1e-12)

    def test_key_value_row_mismatch(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.attention(np.ones((2, 3)), np.ones((4, 3)), np.ones((5, 2)))


class TestMultiHeadAttention:
    def test_single_identity_head_reduces_to_attention(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        cfg = ak.AttentionConfig(d_model=3, heads=1, d_k=3, scale=True)
        proj = ak.ProjectionSet((np.eye(3),), (np.eye(3),), (np.eye(3),), np.eye(3))
        assert_array_equal(ak.multi_head_attention(x, cfg, proj), ak.attention(x, x, x))

    def test_single_row_input(self):
        x = np.array([[0.3, -0.7]])
        cfg = ak.AttentionConfig(d_model=2, heads=2, d_k=1, scale=True)
        proj = ak.ProjectionSet(MHA_WQ, MHA_WK, MHA_WV, MHA_WOUT)
        out = ak.multi_head_attention(x, cfg, proj)
        # softmax over one element: output is the value projections through wout
        values = np.hstack([x @ w for w in MHA_WV])
        assert_allclose(out, values @ MHA_WOUT, rtol=1e-14)

    def test_two_heads_match_frozen_reference(self):
        cfg = ak.AttentionConfig(d_model=2, heads=2, d_k=1, scale=True)
        proj = ak.ProjectionSet(MHA_WQ, MHA_WK, MHA_WV, MHA_WOUT)
        out = ak.multi_head_attention(MHA_X, cfg, proj)
        assert_allclose(out, MHA_EXPECTED, rtol=1e-13)
        reference = reference_multi_head(MHA_X, MHA_WQ, MHA_WK, MHA_WV, MHA_WOUT, True)
        assert_allclose(out, reference, atol=1e-14)

    @pytest.mark.parametrize("heads,d_k", [(1, 4), (2, 2), (4, 1)])
    def test_output_shape_is_n_by_d_model(self, heads, d_k):
        rng = np.random.default_rng(heads)
        d_model = heads * d_k
        x = rng.normal(size=(5, d_model))
        cfg = ak.AttentionConfig(d_model=d_model, heads=heads, d_k=d_k)
        proj = ak.ProjectionSet(
            tuple(rng.normal(size=(d_model, d_k)) for _ in range(heads)),
            tuple(rng.normal(size=(d_model, d_k)) for _ in range(heads)),
            tuple(rng.normal(size=(d_model, d_k)) for _ in range(heads)),
            rng.normal(size=(heads * d_k, d_model)),
        )
        out = ak.multi_head_attention(x, cfg, proj)
        assert out.shape == (5, d_model)
        assert_allclose(
            out, reference_multi_head(x, proj.wq, proj.wk, proj.wv, proj.wout, True), atol=1e-12
        )

    def test_config_divisibility(self):
        with pytest.raises(ak.DimensionMismatch):
            ak.AttentionConfig(d_model=5, heads=2, d_k=2)

    def test_config_stores_whole_float_counts_as_ints(self):
        cfg = ak.AttentionConfig(d_model=4.0, heads=np.int64(2), d_k=2.0)
        assert (cfg.d_model, cfg.heads, cfg.d_k) == (4, 2, 2)
        assert all(type(n) is int for n in (cfg.d_model, cfg.heads, cfg.d_k))

    def test_head_count_mismatch(self):
        cfg = ak.AttentionConfig(d_model=2, heads=2, d_k=1)
        proj = ak.ProjectionSet((np.ones((2, 1)),), (np.ones((2, 1)),), (np.ones((2, 1)),), np.ones((1, 2)))
        with pytest.raises(ak.DimensionMismatch):
            ak.multi_head_attention(np.ones((3, 2)), cfg, proj)


class TestNonLocalBlock:
    def test_zero_value_embedding_is_residual_identity(self):
        x = np.random.default_rng(2).normal(size=(5, 3))
        proj = ak.NonLocalProjections(np.eye(3), np.eye(3), np.zeros((3, 3)))
        assert_array_equal(ak.non_local_block(x, proj), x)

    def test_zero_embeddings_average_values(self):
        x = np.random.default_rng(4).normal(size=(6, 2))
        wg = np.array([[0.5, -1.0], [2.0, 0.25]])
        proj = ak.NonLocalProjections(np.zeros((2, 2)), np.zeros((2, 2)), wg)
        out = ak.non_local_block(x, proj, "embedded_gaussian")
        assert_allclose(out - x, [(x @ wg).mean(axis=0)] * 6, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_embedded_gaussian_is_attention(self, seed):
        rng = np.random.default_rng(seed)
        n, d = rng.integers(2, 16), rng.integers(1, 8)
        x = rng.normal(size=(n, d))
        proj = ak.NonLocalProjections(
            rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=(d, d)), np.eye(d)
        )
        block = ak.non_local_block(x, proj, "embedded_gaussian") - x
        direct = ak.attention(x @ proj.wtheta, x @ proj.wphi, x @ proj.wg, scale=False)
        assert_allclose(block, direct, atol=1e-12)

    def test_dot_product_variant_divides_by_count(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        proj = ak.NonLocalProjections(
            rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 3))
        )
        out = ak.non_local_block(x, proj, "dot_product")
        weights = (x @ proj.wtheta) @ (x @ proj.wphi).T / 4
        assert_allclose(out, x + weights @ (x @ proj.wg), rtol=1e-14)

    def test_unknown_variant(self):
        proj = ak.NonLocalProjections(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            ak.non_local_block(np.ones((2, 2)), proj, "gaussian")

    def test_residual_shape_check(self):
        proj = ak.NonLocalProjections(np.eye(2), np.eye(2), np.ones((2, 3)))
        with pytest.raises(ak.DimensionMismatch):
            ak.non_local_block(np.ones((2, 2)), proj)


class TestGatLayer:
    def test_single_neighbor_copies_projected_value(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(3, 2))
        params = ak.GatParams(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=4))
        mask = ak.NeighborhoodMask(np.array([[False, True, False]] * 3, dtype=bool))
        out = ak.gat_layer(h, params, mask)
        projected = h @ params.wprime
        assert_array_equal(out, [projected[1]] * 3)

    def test_zero_scorer_full_mask_averages(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 3))
        params = ak.GatParams(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), np.zeros(4))
        out = ak.gat_layer(h, params, ak.NeighborhoodMask.full(4))
        assert_allclose(out, [(h @ params.wprime).mean(axis=0)] * 4, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_mask_equals_dense_composition(self, seed):
        rng = np.random.default_rng(seed)
        n, f_in, f_out = rng.integers(2, 10), rng.integers(1, 5), rng.integers(1, 5)
        h = rng.normal(size=(n, f_in))
        params = ak.GatParams(
            rng.normal(size=(f_in, f_out)), rng.normal(size=(f_in, f_out)), rng.normal(size=2 * f_out)
        )
        layered = ak.gat_layer(h, params, ak.NeighborhoodMask.full(n))
        scores = ak.build_gat_scores(h, params.w, params.a, params.slope)
        manual = ak.single_hop_aggregate(ak.softmax_rows(scores), h @ params.wprime)
        assert_allclose(layered, manual, atol=1e-12)

    def test_activation_applied_elementwise(self):
        rng = np.random.default_rng(10)
        h = rng.normal(size=(3, 2))
        params = ak.GatParams(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=4))
        mask = ak.NeighborhoodMask.full(3)
        plain = ak.gat_layer(h, params, mask)
        activated = ak.gat_layer(h, params, mask, activation=np.tanh)
        assert_array_equal(activated, np.tanh(plain))


class TestMultiHeadGat:
    def _params(self, rng, f_in=3, f_out=2):
        return ak.GatParams(
            rng.normal(size=(f_in, f_out)), rng.normal(size=(f_in, f_out)), rng.normal(size=2 * f_out)
        )

    def test_one_head_concat_is_gat_layer(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(4, 3))
        params = self._params(rng)
        mask = ak.NeighborhoodMask.full(4)
        assert_array_equal(ak.multi_head_gat(h, [params], mask), ak.gat_layer(h, params, mask))

    def test_identical_heads_average_to_single(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(4, 3))
        params = self._params(rng)
        mask = ak.NeighborhoodMask.full(4)
        out = ak.multi_head_gat(h, [params, params], mask, mode="average")
        assert_array_equal(out, ak.gat_layer(h, params, mask))

    def test_two_heads_concat_doubles_width(self):
        rng = np.random.default_rng(13)
        h = rng.normal(size=(5, 3))
        first, second = self._params(rng), self._params(rng)
        mask = ak.NeighborhoodMask.full(5)
        out = ak.multi_head_gat(h, [first, second], mask, mode="concat")
        assert out.shape == (5, 4)
        assert_array_equal(
            out, np.hstack([ak.gat_layer(h, first, mask), ak.gat_layer(h, second, mask)])
        )

    def test_mode_and_emptiness_validated(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=(3, 3))
        mask = ak.NeighborhoodMask.full(3)
        with pytest.raises(ValueError):
            ak.multi_head_gat(h, [], mask)
        with pytest.raises(ValueError):
            ak.multi_head_gat(h, [self._params(rng)], mask, mode="sum")

    def test_mode_is_checked_before_any_head_runs(self):
        # The head's w expects 3 features, so running it would raise DimensionMismatch.
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="^unknown multi-head mode: 'sum'$"):
            ak.multi_head_gat(rng.normal(size=(3, 4)), [self._params(rng)],
                              ak.NeighborhoodMask.full(3), mode="sum")


def dense_attention(q, k, v, scale=True):
    """The whole score matrix at once, in plain numpy."""
    scores = q @ k.T
    if scale:
        scores = scores / math.sqrt(q.shape[1])
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True) @ v


def block_rows(n_keys):
    """Query rows per block of attention scores."""
    return max(1, _BLOCK_BYTES // (8 * n_keys))


def assert_close_to(out, ref):
    assert_allclose(out, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


class TestQueryRowBlocks:
    # (queries, keys, width): 4096 keys make 32-row blocks, 600 keys 218-row
    # blocks, and 2**17 + 3 keys 1-row blocks; each case ends on a partial block.
    @pytest.mark.parametrize("n_q, n_k, d", [(100, 4096, 16), (600, 600, 5), (3, 2**17 + 3, 2)])
    def test_attention_equals_dense_formula(self, n_q, n_k, d):
        rows = block_rows(n_k)
        assert n_q > rows and (n_q % rows or rows == 1)  # the shape still crosses blocks
        rng = np.random.default_rng(n_k)
        q, k, v = rng.normal(size=(n_q, d)) * 2, rng.normal(size=(n_k, d)) * 2, rng.normal(size=(n_k, 3))
        for scale in (True, False):
            assert_close_to(ak.attention(q, k, v, scale=scale), dense_attention(q, k, v, scale))

    def test_multi_head_attention_equals_dense_formula(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(600, 8))
        cfg = ak.AttentionConfig(d_model=8, heads=2, d_k=4)
        proj = ak.ProjectionSet(*(tuple(rng.normal(size=(8, 4)) for _ in range(2)) for _ in range(3)),
                                rng.normal(size=(8, 8)))
        heads = [dense_attention(x @ wq, x @ wk, x @ wv) for wq, wk, wv in zip(proj.wq, proj.wk, proj.wv)]
        assert_close_to(ak.multi_head_attention(x, cfg, proj), np.hstack(heads) @ proj.wout)

    def test_non_local_variants_equal_dense_formula(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(600, 6))
        proj = ak.NonLocalProjections(*(rng.normal(size=(6, 6)) * 0.5 for _ in range(3)))
        theta, phi, g = x @ proj.wtheta, x @ proj.wphi, x @ proj.wg
        assert_close_to(ak.non_local_block(x, proj) - x, dense_attention(theta, phi, g, scale=False))
        assert_close_to(ak.non_local_block(x, proj, "dot_product") - x, theta @ phi.T / 600 @ g)

    @staticmethod
    def _gat_instance(seed, heads):
        # 600 nodes make 218-row blocks, the last one partial.
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(600, 6))
        allowed = rng.random((600, 600)) < 0.05
        np.fill_diagonal(allowed, True)
        params = [ak.GatParams(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)), rng.normal(size=8))
                  for _ in range(heads)]
        return h, params, ak.NeighborhoodMask(allowed)

    @staticmethod
    def _dense_gat(h, params, mask):
        scores = ak.build_gat_scores(h, params.w, params.a, params.slope)
        return ak.masked_softmax_rows(scores, mask) @ h @ params.wprime

    def test_gat_layer_equals_dense_formula(self):
        h, (params,), mask = self._gat_instance(34, 1)
        assert_close_to(ak.gat_layer(h, params, mask), self._dense_gat(h, params, mask))

    def test_multi_head_gat_equals_dense_formula(self):
        h, params, mask = self._gat_instance(35, 2)
        heads = [self._dense_gat(h, p, mask) for p in params]
        assert_close_to(ak.multi_head_gat(h, params, mask), np.hstack(heads))
        assert_close_to(ak.multi_head_gat(h, params, mask, mode="average"), np.mean(heads, axis=0))

    @pytest.mark.parametrize("call", [
        lambda x, mask, p, nl: ak.gat_layer(x, p, mask),
        lambda x, mask, p, nl: ak.non_local_block(x, nl, "dot_product"),
    ], ids=["gat_layer", "non_local_block-dot_product"])
    def test_scratch_is_blocks_not_n_by_n(self, call):
        # One 2048 x 2048 float64 is 32 MB; the mask is allocated before tracing.
        rng = np.random.default_rng(36)
        x = rng.normal(size=(2048, 8))
        allowed = rng.random((2048, 2048)) < 0.05
        np.fill_diagonal(allowed, True)
        mask = ak.NeighborhoodMask(allowed)
        params = ak.GatParams(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)), rng.normal(size=16))
        nl = ak.NonLocalProjections(*(rng.normal(size=(8, 8)) for _ in range(3)))
        tracemalloc.start()
        try:
            call(x, mask, params, nl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 2048 * 2048 * 8

    def test_attention_scratch_is_one_block_not_n_by_n(self):
        # One 2048 x 2048 score matrix alone is 32 MB.
        rng = np.random.default_rng(33)
        q, k, v = (rng.normal(size=(2048, 64)) for _ in range(3))
        tracemalloc.start()
        try:
            ak.attention(q, k, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# Boundary checks: every attention-family entry point validates its own
# arguments, since the stages it calls no longer re-check them.
BOUNDARY_X = np.random.default_rng(21).normal(size=(5, 4))
NAN_X = np.where(np.arange(20).reshape(5, 4) == 6, np.nan, BOUNDARY_X)
HUGE_X = np.full((5, 4), 1e308)  # finite, but every score product overflows
FULL_MASK = ak.NeighborhoodMask.full(5)
MHA_CFG = ak.AttentionConfig(d_model=4, heads=2, d_k=2)
MHA_PROJ = ak.ProjectionSet(
    *(tuple(np.full((4, 2), 0.5) for _ in range(2)) for _ in range(3)), np.eye(4)
)
NL_PROJ = ak.NonLocalProjections(np.eye(4), np.eye(4), np.eye(4))
NL_PROJ_MISMATCHED = ak.NonLocalProjections(np.ones((4, 2)), np.ones((4, 3)), np.eye(4))
# One projection each whose row count does not fit what it multiplies.
NL_PROJ_BAD_ROWS = {
    "wtheta": ak.NonLocalProjections(np.ones((3, 4)), np.eye(4), np.eye(4)),
    "wphi": ak.NonLocalProjections(np.eye(4), np.ones((3, 4)), np.eye(4)),
    "wg": ak.NonLocalProjections(np.eye(4), np.eye(4), np.ones((3, 4))),
    "wz": ak.NonLocalProjections(np.eye(4), np.eye(4), np.ones((4, 3)), np.eye(4)),
}


def gat_params(f_in=4):
    return ak.GatParams(np.full((f_in, 2), 0.5), np.full((f_in, 2), 0.5), np.ones(4))


# Past the last hop, each output is finite until an entry point's own last
# product or sum: the output projection, wz, the residual add, the head average.
HEADS_OF_EYE = tuple(np.eye(4)[:, 2 * i:2 * i + 2] for i in range(2))
LAST_STEP_OVERFLOWS = {
    "multi_head_attention-wout": (
        lambda x: ak.multi_head_attention(
            x, MHA_CFG, ak.ProjectionSet(HEADS_OF_EYE, HEADS_OF_EYE, HEADS_OF_EYE, np.full((4, 4), 1e308))),
        np.ones((4, 4))),
    **{f"non_local_block-{variant}-wz": (
        lambda x, variant=variant: ak.non_local_block(
            x, ak.NonLocalProjections(np.eye(4), np.eye(4), np.eye(4), np.full((4, 4), 1e308)), variant),
        np.ones((4, 4))) for variant in ("embedded_gaussian", "dot_product")},
    "non_local_block-residual": (
        lambda x: ak.non_local_block(x, ak.NonLocalProjections(1e-300 * np.eye(4), 1e-300 * np.eye(4), np.eye(4))),
        np.full((4, 4), 1e308)),
    "multi_head_gat-average": (
        lambda x: ak.multi_head_gat(x, [ak.GatParams(np.eye(4), np.eye(4), np.zeros(8))] * 2,
                                    ak.NeighborhoodMask.full(4), mode="average"),
        np.full((4, 4), 1e308)),
}


ENTRY_POINTS = {
    "attention": lambda x: ak.attention(x, x, x),
    "multi_head_attention": lambda x: ak.multi_head_attention(x, MHA_CFG, MHA_PROJ),
    "non_local_block": lambda x: ak.non_local_block(x, NL_PROJ),
    "gat_layer": lambda x: ak.gat_layer(x, gat_params(), FULL_MASK),
    "multi_head_gat": lambda x: ak.multi_head_gat(x, [gat_params(), gat_params()], FULL_MASK),
}

BOUNDARY_CASES = [
    *((f"{name}-nan", call, NAN_X, ak.NonFiniteInput) for name, call in ENTRY_POINTS.items()),
    *((f"{name}-overflow", call, HUGE_X, ak.NonFiniteInput) for name, call in ENTRY_POINTS.items()),
    *((f"{name}-overflow", call, x, ak.NonFiniteInput) for name, (call, x) in LAST_STEP_OVERFLOWS.items()),
    ("attention-qk-width", lambda x: ak.attention(x, x[:, :3], x), BOUNDARY_X, ak.DimensionMismatch),
    ("non_local_block-theta-phi-width", lambda x: ak.non_local_block(x, NL_PROJ_MISMATCHED),
     BOUNDARY_X, ak.DimensionMismatch),
    *((f"non_local_block-{variant}-{name}-rows",
       lambda x, proj=proj, variant=variant: ak.non_local_block(x, proj, variant),
       BOUNDARY_X, ak.DimensionMismatch)
      for name, proj in NL_PROJ_BAD_ROWS.items() for variant in ("embedded_gaussian", "dot_product")),
    ("gat_layer-mask-shape", lambda x: ak.gat_layer(x, gat_params(), ak.NeighborhoodMask.full(4)),
     BOUNDARY_X, ak.DimensionMismatch),
    ("multi_head_gat-mask-shape",
     lambda x: ak.multi_head_gat(x, [gat_params()], ak.NeighborhoodMask.full(4)),
     BOUNDARY_X, ak.DimensionMismatch),
    ("gat_layer-h-width", lambda x: ak.gat_layer(x, gat_params(f_in=3), FULL_MASK),
     BOUNDARY_X, ak.DimensionMismatch),
    ("multi_head_gat-h-width", lambda x: ak.multi_head_gat(x, [gat_params(f_in=3)], FULL_MASK),
     BOUNDARY_X, ak.DimensionMismatch),
]


@pytest.mark.parametrize(
    "call, x, error", [case[1:] for case in BOUNDARY_CASES], ids=[case[0] for case in BOUNDARY_CASES]
)
def test_entry_point_rejects_bad_arguments(call, x, error):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
        call(x)


OVERFLOW_CASES = [case for case in BOUNDARY_CASES if case[0].endswith("-overflow")]


@pytest.mark.parametrize(
    "call, x", [case[1:3] for case in OVERFLOW_CASES], ids=[case[0] for case in OVERFLOW_CASES]
)
def test_overflow_raises_without_a_warning(call, x):
    # Under the caller's default error state: the hold around each entry point
    # ignores the overflow, and the scan of its output raises.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ak.NonFiniteInput):
            call(x)


# Each scores a pair +inf inside its hop, from finite arguments and finite projections.
PLUS_INF_SCORES = {
    "attention": lambda: ak.attention(np.full((3, 2), 1e200), np.full((3, 2), 1e200), np.ones((3, 2))),
    "gat_layer": lambda: ak.gat_layer(np.full((3, 2), 1e308), ak.GatParams(np.eye(2), np.eye(2), [1.0, 0, 0, 1]),
                                      ak.NeighborhoodMask.full(3)),
    **{f"non_local_block-{variant}": lambda variant=variant: ak.non_local_block(
        np.full((3, 2), 1e200), ak.NonLocalProjections(np.eye(2), np.eye(2), np.eye(2)), variant)
       for variant in ("embedded_gaussian", "dot_product")},
}


@pytest.mark.parametrize("name", sorted(PLUS_INF_SCORES))
def test_a_plus_inf_score_in_the_hop_raises_without_a_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ak.NonFiniteInput):
            PLUS_INF_SCORES[name]()


GAT_EXP = ak.GatParams(np.eye(2), np.eye(2), np.zeros(4))
ACTIVATED = {
    "gat_layer": lambda x, f: ak.gat_layer(x, GAT_EXP, ak.NeighborhoodMask.full(3), activation=f),
    **{f"multi_head_gat-{mode}": lambda x, f, mode=mode: ak.multi_head_gat(
        x, [GAT_EXP] * 2, ak.NeighborhoodMask.full(3), mode, activation=f) for mode in ("concat", "average")},
}


@pytest.mark.parametrize("name", sorted(ACTIVATED))
def test_activation_is_scanned(name):
    # Every hop's output is 800, finite; a caller's exp overflows it, and the
    # scan of what the activation returns raises, with no warning. So does a
    # return that is not a matrix.
    x = np.full((3, 2), 800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        width = 4 if name.endswith("concat") else 2
        assert_allclose(ACTIVATED[name](x, np.negative), np.full((3, width), -800.0), rtol=1e-15)
        with pytest.raises(ak.NonFiniteInput):
            ACTIVATED[name](x, np.exp)
        with pytest.raises(ak.DimensionMismatch):
            ACTIVATED[name](x, np.sum)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_scans_no_square_matrix(name, monkeypatch):
    # N = 5 rows against width 4: only an N x N score or weight matrix is 5 x 5.
    scanned = []
    for stage in ("affinity", "attention", "normalize", "propagate"):
        module = sys.modules[f"affinitykit.{stage}"]
        original = module.as_matrix

        def recording(value, label="matrix", _original=original):
            scanned.append(np.shape(value))
            return _original(value, label)

        monkeypatch.setattr(module, "as_matrix", recording)
    ENTRY_POINTS[name](BOUNDARY_X)
    assert scanned and (5, 5) not in scanned
