"""Exact integer linear algebra helpers, including the slow fallbacks."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadframes import ValidationError
from hadframes.intlinalg import (
    as_fraction,
    as_int_matrix,
    checked_matmul,
    column_norms_sq,
    identity_multiple,
    int_kernel,
    int_rank,
    _exact_dtype,
    _is_transpose,
    _rank_fraction_free,
)
from fractions import Fraction


def test_int_rank_full_rank_fast_path():
    assert int_rank(np.eye(5, dtype=np.int64)) == 5


def test_int_rank_deficient_uses_exact_fallback():
    a = np.array([[1, 2, 3], [2, 4, 6], [1, 1, 1]], dtype=np.int64)
    assert int_rank(a) == 2
    assert _rank_fraction_free(a) == 2


def test_int_rank_zero_matrix():
    assert int_rank(np.zeros((3, 4), dtype=np.int64)) == 0


def test_int_rank_matches_numpy_on_random_small():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows, cols = rng.integers(1, 6, size=2)
        a = rng.integers(-3, 4, size=(rows, cols))
        assert int_rank(a) == np.linalg.matrix_rank(a.astype(float))


def test_rank_is_invariant_under_scaling_a_prime_multiple():
    # row of huge multiples of the elimination prime still ranks correctly
    p = 2_147_483_647
    a = np.array([[1, 0], [0, 1]], dtype=np.int64) * p
    assert int_rank(a) == 2


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination over Fractions, written out here."""
    m = [[Fraction(int(x)) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


near_2_62 = st.integers(-3, 3).flatmap(lambda d: st.sampled_from([2**62 + d, -(2**62) + d]))


@st.composite
def kernel_cases(draw):
    """Integer matrices with entries -3..3 and a few near 2**62, perhaps with
    a zero row or column and a repeated row or column."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.integers(-3, 3) | near_2_62 if draw(st.booleans()) else st.integers(-3, 3)
    a = np.array(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)), dtype=np.int64)
    for axis in (0, 1):
        if draw(st.booleans()):
            a = np.insert(a, draw(st.integers(0, a.shape[axis])), 0, axis=axis)
        if draw(st.booleans()):
            i, j = draw(st.integers(0, a.shape[axis] - 1)), draw(st.integers(0, a.shape[axis]))
            a = np.insert(a, j, np.take(a, i, axis=axis), axis=axis)
    return a


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_int_kernel_is_an_exact_null_space_basis(a):
    rank = fraction_rank(a)
    assert _rank_fraction_free(a) == int_rank(a) == rank
    z = int_kernel(a)
    assert z.shape == (a.shape[1], a.shape[1] - rank)
    assert not (a.astype(object) @ z).any()
    assert fraction_rank(z) == z.shape[1]
    assert all(math.gcd(*col) == 1 for col in z.T)


def test_int_kernel_of_a_full_column_rank_matrix_is_empty():
    assert int_kernel(np.eye(3, dtype=np.int64)).shape == (3, 0)
    assert int_kernel(np.array([[0, 0]])).tolist() == [[1, 0], [0, 1]]


def test_checked_matmul_falls_back_to_python_ints():
    big = np.array([[1 << 40]], dtype=np.int64)
    out = checked_matmul(big, big)
    assert int(out[0, 0]) == 1 << 80  # would overflow int64


def object_product(a, b):
    """Reference product on Python integers."""
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object)).tolist()


def as_ints(m):
    return [[int(x) for x in row] for row in np.asarray(m)]


def extreme_pair(peak_a: int, peak_b: int, k: int, seed: int):
    # Random signs with one row of a and one column of b at full magnitude,
    # so one entry of the product equals the bound peak_a * peak_b * k.
    rng = np.random.default_rng(seed)
    a = rng.integers(-peak_a, peak_a, size=(3, k), endpoint=True).astype(object)
    b = rng.integers(-peak_b, peak_b, size=(k, 4), endpoint=True).astype(object)
    a[0, :] = peak_a
    b[:, 0] = peak_b
    return a, b


@pytest.mark.parametrize(
    "peak_a,peak_b,k,dtype",
    [
        (127, 16513, 1, np.float32),  # bound 2**21 - 1
        ((1 << 10) - 1, (1 << 10) + 1, 2, np.float32),  # bound 2**21 - 2
        (1 << 7, (1 << 7) - 1, 128, np.float32),  # bound 2**21 - 2**14, long partial sums
        (1 << 10, 1 << 10, 2, np.float64),  # bound 2**21, the float32 threshold
        ((1 << 24) - 1, (1 << 24) + 1, 4, np.float64),  # bound 2**50 - 4
        (1 << 24, 1 << 24, 4, np.int64),  # bound 2**50, the float64 threshold
        ((1 << 31) - 1, (1 << 31) + 1, 1, np.int64),  # bound 2**62 - 1
        (1 << 30, 1 << 30, 4, object),  # bound 2**62
    ],
)
def test_checked_matmul_is_exact_at_each_path_threshold(peak_a, peak_b, k, dtype):
    a, b = extreme_pair(peak_a, peak_b, k, seed=k)
    if dtype is not object:
        a, b = a.astype(np.int64), b.astype(np.int64)
    assert _exact_dtype(a, b) is dtype
    out = checked_matmul(a, b)
    assert out.dtype == (object if dtype is object else np.int64)
    assert as_ints(out) == object_product(a, b)
    assert int(out[0, 0]) == peak_a * peak_b * k


def test_large_entries_take_the_int64_path_where_float64_rounds():
    k = 64
    a = np.full((2, k), (1 << 27) + 1, dtype=np.int64)
    a[1, ::2] = -(1 << 27) + 3
    b = a.T.copy()
    exact = object_product(a, b)
    rounded = (a.astype(np.float64) @ b.astype(np.float64)).astype(object)
    assert [[int(x) for x in row] for row in rounded] != exact  # float64 is wrong here
    assert _exact_dtype(a, b) is np.int64
    assert as_ints(checked_matmul(a, b)) == exact


def test_entries_that_float32_rounds_take_the_float64_path():
    k = 64
    a = np.full((2, k), (1 << 12) + 1, dtype=np.int64)
    a[1, ::2] = -(1 << 12) + 3
    b = a.T.copy()
    exact = object_product(a, b)
    rounded = (a.astype(np.float32) @ b.astype(np.float32)).astype(object)
    assert [[int(x) for x in row] for row in rounded] != exact  # float32 is wrong here
    assert _exact_dtype(a, b) is np.float64
    assert as_ints(checked_matmul(a, b)) == exact


@pytest.mark.parametrize("seed", range(5))
def test_float32_products_match_python_integers_just_under_the_bound(seed):
    # Every entry random at magnitudes whose bound is just under 2**21, in
    # shapes large enough for BLAS to block and reorder the partial sums.
    rng = np.random.default_rng(seed)
    k = 1 << (7 + seed % 3)
    peak = math.isqrt(((1 << 21) - 1) // k)
    a = rng.integers(-peak, peak, size=(33, k), endpoint=True)
    b = rng.integers(-peak, peak, size=(k, 17), endpoint=True)
    assert _exact_dtype(a, b) is np.float32 and _exact_dtype(a, a.T) is np.float32
    assert as_ints(checked_matmul(a, b)) == object_product(a, b)
    assert as_ints(checked_matmul(a, a.T)) == object_product(a, a.T)


def test_all_zero_factor_does_not_hide_a_huge_entry():
    huge = np.array([[1 << 70]], dtype=object)
    zero = np.zeros((1, 1), dtype=np.int64)
    assert _exact_dtype(huge, zero) is object
    assert as_ints(checked_matmul(huge, zero)) == [[0]]


_magnitudes = st.sampled_from([0, 1, 7, 20, 25, 27, 31, 40])


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 5), k=st.integers(1, 6), n=st.integers(1, 5),
    ea=_magnitudes, eb=_magnitudes, seed=st.integers(0, 2**32 - 1),
)
def test_checked_matmul_matches_python_integers(m, k, n, ea, eb, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-(1 << ea), 1 << ea, size=(m, k), endpoint=True)
    b = rng.integers(-(1 << eb), 1 << eb, size=(k, n), endpoint=True)
    assert as_ints(checked_matmul(a, b)) == object_product(a, b)
    assert as_ints(checked_matmul(a, a.T)) == object_product(a, a.T)
    # stacked operands: the bound uses each product's inner dimension k
    sa = rng.integers(-(1 << ea), 1 << ea, size=(3, m, k), endpoint=True)
    sb = rng.integers(-(1 << eb), 1 << eb, size=(3, k, n), endpoint=True)
    assert [as_ints(p) for p in checked_matmul(sa, sb)] == list(map(object_product, sa, sb))
    st_gram = checked_matmul(np.swapaxes(sa, 1, 2), sa)
    assert [as_ints(p) for p in st_gram] == [object_product(x.T, x) for x in sa]


def test_gram_product_detects_the_transposed_view():
    a = np.arange(12, dtype=np.int64).reshape(3, 4) - 5
    assert _is_transpose(a, a.T) and _is_transpose(a.T, a)
    assert not _is_transpose(a, a.T.copy())
    assert not _is_transpose(a[:, :3], a[:3, :].T)
    s = a.reshape(3, 2, 2)
    assert _is_transpose(s, np.swapaxes(s, 1, 2)) and not _is_transpose(s, s.T)
    assert as_ints(checked_matmul(a, a.T)) == object_product(a, a.T)
    assert as_ints(checked_matmul(a.T, a)) == object_product(a.T, a)


def test_gram_product_converts_its_input_once():
    # A wide a: one float copy of it dominates the peak, and a second
    # copy for a.T would double it.
    a = np.ones((4, 1 << 18), dtype=np.int64)
    tracemalloc.start()
    try:
        out = checked_matmul(a, a.T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert as_ints(out) == [[1 << 18] * 4] * 4
    assert peak < 1.5 * a.nbytes


def test_sign_matrix_gram_equals_integer_product():
    rng = np.random.default_rng(3)
    h = rng.choice([-1, 1], size=(17, 17)).astype(np.int8)
    assert np.array_equal(checked_matmul(h, h.T), h.astype(np.int64) @ h.astype(np.int64).T)


def test_identity_multiple():
    assert identity_multiple(5 * np.eye(3, dtype=np.int64)) == 5
    assert identity_multiple(np.diag([2, 3]).astype(np.int64)) is None
    off = 2 * np.eye(2, dtype=np.int64)
    off[0, 1] = 1
    assert identity_multiple(off) is None


def test_as_int_matrix_rejections():
    with pytest.raises(ValidationError, match="integer"):
        as_int_matrix(np.array([[1.5, 2.0]]))
    with pytest.raises(ValidationError, match="2-D"):
        as_int_matrix(np.array([1, 2, 3]))


def test_as_fraction_forms():
    assert as_fraction(3) == 3
    assert as_fraction("2/6") == Fraction(1, 3)
    assert as_fraction((4, 6)) == Fraction(2, 3)
    assert as_fraction(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(ValidationError):
        as_fraction(object())


def test_int64_minimum_entry_takes_the_exact_path():
    # np.abs(-2**63) wraps to -2**63; the bound must still see 2**63.
    a = np.array([[-(2**63), 1], [1, 1]], dtype=np.int64)
    rows = a.tolist()
    want = [[sum(x * y for x, y in zip(r, c)) for c in rows] for r in rows]
    assert _exact_dtype(a, a.T) is object
    assert checked_matmul(a, a.T).tolist() == want


@pytest.mark.parametrize("big", [2**31, 2**63 - 1, -(2**63)])
def test_column_norms_sq_is_exact_for_any_magnitude(big):
    a = np.array([[big, 1, 0], [1, -3, 0]], dtype=np.int64)
    assert column_norms_sq(a).tolist() == [big * big + 1, 10, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-2**40, 2**40), min_size=3, max_size=3), min_size=1, max_size=5))
def test_column_norms_sq_matches_python_integers(rows):
    want = [sum(r[j] * r[j] for r in rows) for j in range(3)]
    assert column_norms_sq(np.array(rows, dtype=np.int64)).tolist() == want
