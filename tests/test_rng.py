"""The MMIX draws, checked against the recurrence in plain Python ints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinitykit.rng import Lcg

A = 6364136223846793005
C = 1442695040888963407


def mmix_states(seed, count):
    state, out = seed, []
    for _ in range(count):
        state = (A * state + C) % 2**64
        out.append(state)
    return out


def uniforms(seed, count, low=0.0, high=1.0):
    return [low + (high - low) * ((s >> 11) / 2**53) for s in mmix_states(seed, count)]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
def test_matrix_is_row_major_top_53_bits(seed):
    out = Lcg(seed).matrix(3, 5, -0.1, 0.1)
    assert out.shape == (3, 5)
    assert out.ravel().tolist() == uniforms(seed, 15, -0.1, 0.1)


def test_default_range_is_unit_interval():
    out = Lcg(3).matrix(4, 4)
    assert out.ravel().tolist() == uniforms(3, 16)
    assert np.all((out >= 0.0) & (out < 1.0))


def test_draws_continue_across_calls():
    gen = Lcg(11)
    first = gen.matrix(2, 3)
    second = gen.vector(4, 1.0, 3.0)
    expected = uniforms(11, 10)
    assert first.ravel().tolist() == expected[:6]
    assert second.tolist() == [1.0 + 2.0 * u for u in expected[6:]]


def test_empty_matrix_draws_nothing():
    gen = Lcg(5)
    assert gen.matrix(0, 4).shape == (0, 4)
    assert gen.state == 5


def test_randint_is_inclusive_modulus():
    gen = Lcg(2)
    assert [gen.randint(3, 9) for _ in range(20)] == [3 + s % 7 for s in mmix_states(2, 20)]


def test_permutation_is_fisher_yates():
    states = iter(mmix_states(4, 9))
    expected = list(range(10))
    for i in range(9, 0, -1):
        j = next(states) % (i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    assert Lcg(4).permutation(10).tolist() == expected


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        Lcg(-1)


_COUNTS = st.one_of(st.sampled_from([0, 1, 4095, 4096, 4097, 3 * 4096 + 5]), st.integers(0, 3 * 4096 + 5))


@given(
    st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    _COUNTS,
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_block_draws_equal_the_scalar_recurrence(seed, count, column):
    shape = (count, 1) if column else (1, count)
    gen = Lcg(seed)
    out = gen.matrix(*shape, -0.1, 0.1)
    states = mmix_states(seed, count + 10)
    assert out.shape == shape
    assert out.ravel().tolist() == [-0.1 + 0.2 * ((s >> 11) / 2**53) for s in states[:count]]
    assert gen.state == (states[count - 1] if count else seed)
    # randint and permutation continue the same stream.
    assert gen.randint(3, 9) == 3 + states[count] % 7
    expected = list(range(10))
    for i, s in zip(range(9, 0, -1), states[count + 1:]):
        j = s % (i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    assert gen.permutation(10).tolist() == expected
