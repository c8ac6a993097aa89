"""Sign matrices, sequency ordering, and the fast transform.

Oracles are kept independent of the construction code: the doubling
recursion is checked against the direct parity formula, sequency order
against naive per-row sign-change counting, and the butterfly transform
against a plain matrix-vector product.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadframes import (
    ResourceLimitError,
    ValidationError,
    build_sylvester,
    build_walsh,
    fwht,
    normalize_first_row,
    sign_changes,
    sign_matrix,
    validate_hadamard,
    validate_walsh_order,
)
from hadframes.hadamard import MAX_ORDER_ENV, max_order

# ---------------------------------------------------------------------------
# oracles


def direct_sylvester(k: int) -> np.ndarray:
    """Entry (j, t) = (-1)^popcount(j & t): no doubling recursion involved."""
    n = 1 << k
    return np.array(
        [[(-1) ** bin(j & t).count("1") for t in range(n)] for j in range(n)],
        dtype=np.int64,
    )


def naive_sign_changes(row) -> int:
    row = list(row)
    return sum(1 for a, b in zip(row, row[1:]) if a != b)


def sequency_oracle(k: int) -> np.ndarray:
    """Sort the direct-formula rows by naively counted sign changes.

    The counts are a permutation of 0..n-1 (asserted), so this sorted
    matrix is the unique sequency ordering.
    """
    h = direct_sylvester(k)
    counts = [naive_sign_changes(r) for r in h]
    assert sorted(counts) == list(range(1 << k))
    return h[np.argsort(counts)]


def naive_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(int(a[i][t]) * int(b[t][j]) for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


# ---------------------------------------------------------------------------
# construction


def test_sylvester_base_case():
    assert build_sylvester(0).entries.tolist() == [[1]]


def test_sylvester_one_doubling():
    assert build_sylvester(1).entries.tolist() == [[1, 1], [1, -1]]


def test_sylvester_order4_gram_by_hand():
    h = build_sylvester(2).entries
    g = naive_matmul(h, h.T)
    assert g == (4 * np.eye(4, dtype=int)).tolist()


@pytest.mark.parametrize("k", range(9))
def test_sylvester_matches_direct_formula(k):
    assert np.array_equal(build_sylvester(k).entries, direct_sylvester(k))


def test_sylvester_first_row_and_column_all_ones():
    h = build_sylvester(4).entries
    assert (h[0] == 1).all() and (h[:, 0] == 1).all()


def test_walsh_k0_is_single_one():
    assert build_walsh(0).base.entries.tolist() == [[1]]


def test_walsh_k2_rows_are_sampled_walsh_functions():
    expected = [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -1, 1, -1],
    ]
    assert build_walsh(2).base.entries.tolist() == expected


def test_walsh_k3_row5_has_five_sign_changes():
    w = build_walsh(3)
    assert naive_sign_changes(w.base.entries[5]) == 5
    assert np.array_equal(w.base.entries, sequency_oracle(3))


@pytest.mark.parametrize("k", range(8))
def test_walsh_matches_sequency_oracle(k):
    assert np.array_equal(build_walsh(k).base.entries, sequency_oracle(k))


@pytest.mark.parametrize("k", range(7))
def test_walsh_is_row_permutation_of_sylvester(k):
    rows_w = sorted(map(tuple, build_walsh(k).base.entries.tolist()))
    rows_s = sorted(map(tuple, build_sylvester(k).entries.tolist()))
    assert rows_w == rows_s


# ---------------------------------------------------------------------------
# validation


def test_validate_hadamard_accepts_walsh_base():
    cert = validate_hadamard(build_walsh(2).base)
    assert cert.ok and cert.order == 4 and cert.check == "hadamard"


def test_validate_hadamard_rejects_rank_one():
    cert = validate_hadamard(sign_matrix([[1, 1], [1, 1]]))
    assert not cert.ok
    assert "rows 0 and 1" in cert.detail


def test_validate_hadamard_rejects_order_three():
    cert = validate_hadamard(sign_matrix(np.ones((3, 3), dtype=int)))
    assert not cert.ok  # only order 2 or multiples of 4 can pass


def test_sign_matrix_rejects_non_sign_entries():
    with pytest.raises(ValidationError, match=r"\+1 or -1"):
        sign_matrix([[1, 2], [1, 1]])
    with pytest.raises(ValidationError, match="square"):
        sign_matrix([[1, 1, 1], [1, -1, 1]])


def test_validate_walsh_order_accepts_walsh():
    assert validate_walsh_order(build_walsh(2)).ok
    assert validate_walsh_order(build_walsh(0)).ok


def test_validate_walsh_order_rejects_sylvester_order():
    cert = validate_walsh_order(build_sylvester(2))
    assert not cert.ok
    assert "row 1" in cert.detail  # natural-order row 1 alternates: 3 changes


def test_sylvester_k2_sign_change_counts():
    assert sign_changes(build_sylvester(2)).tolist() == [0, 3, 1, 2]


@pytest.mark.parametrize("k", range(9))
def test_walsh_certificates_hold_exactly(k):
    w = build_walsh(k)
    assert validate_hadamard(w.base).ok
    assert validate_walsh_order(w).ok


# ---------------------------------------------------------------------------
# normalization


def test_normalize_negates_flagged_column():
    m = sign_matrix([[1, -1], [1, 1]])
    out = normalize_first_row(m)
    assert out.entries.tolist() == [[1, 1], [1, -1]]


def test_normalize_is_identity_on_normalized_input():
    w = build_walsh(3).base
    out = normalize_first_row(w)
    assert np.array_equal(out.entries, w.entries)
    again = normalize_first_row(out)
    assert np.array_equal(again.entries, out.entries)


def test_normalize_preserves_hadamard_certificate():
    rng = np.random.default_rng(7)
    flips = rng.choice([1, -1], size=8)
    scrambled = sign_matrix(build_walsh(3).base.entries * flips[np.newaxis, :])
    out = normalize_first_row(scrambled)
    assert (out.entries[0] == 1).all()
    cert = validate_hadamard(out)
    assert cert.ok and cert.order == 8


def test_normalize_rejects_non_hadamard():
    with pytest.raises(ValidationError, match="not Hadamard"):
        normalize_first_row(sign_matrix([[1, 1], [1, 1]]))


def test_normalize_handles_order12_fixture(had12):
    rng = np.random.default_rng(12)
    flips = rng.choice([1, -1], size=12)
    scrambled = sign_matrix(had12.entries * flips[np.newaxis, :])
    out = normalize_first_row(scrambled)
    assert (out.entries[0] == 1).all()
    assert validate_hadamard(out).ok


# ---------------------------------------------------------------------------
# fast transform


def test_fwht_delta_gives_all_ones_column():
    assert fwht([1, 0, 0, 0]).tolist() == [1, 1, 1, 1]


def test_fwht_constant_concentrates_on_row_zero():
    assert fwht([1, 1, 1, 1]).tolist() == [4, 0, 0, 0]


def test_fwht_rejects_bad_lengths():
    with pytest.raises(ValidationError, match="power of two"):
        fwht([1, 2, 3])
    with pytest.raises(ValidationError, match="1-D"):
        fwht([[1, 2], [3, 4]])


def test_fwht_matches_naive_multiply_k10():
    rng = np.random.default_rng(10)
    v = rng.integers(-50, 50, size=1 << 10)
    w = build_walsh(10).base.entries.astype(np.int64)
    assert np.array_equal(fwht(v), w @ v)


def test_fwht_float_input_matches_matrix():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(64)
    w = build_walsh(6).base.entries.astype(np.float64)
    assert np.allclose(fwht(v), w @ v, atol=1e-12)


def test_fwht_integer_output_stays_integer():
    out = fwht(np.array([3, -1, 4, 1], dtype=np.int64))
    assert out.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_fwht_equals_naive_multiply(k, data):
    n = 1 << k
    v = np.array(
        data.draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    w = build_walsh(k).base.entries.astype(np.int64)
    assert np.array_equal(fwht(v), w @ v)


# ---------------------------------------------------------------------------
# resource limits


def test_order_cap_raises_resource_error():
    with pytest.raises(ResourceLimitError, match="exceeds"):
        build_sylvester(4, limit=8)
    with pytest.raises(ResourceLimitError):
        build_walsh(4, limit=8)


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV, "8")
    assert max_order() == 8
    with pytest.raises(ResourceLimitError):
        build_walsh(4)
    monkeypatch.delenv(MAX_ORDER_ENV)
    assert max_order() == 1 << 16


def test_negative_k_rejected():
    with pytest.raises(ValidationError, match="non-negative"):
        build_sylvester(-1)


@pytest.mark.parametrize("value", ["abc", "0", "-1", "8.0", " "])
def test_order_cap_env_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv(MAX_ORDER_ENV, value)
    with pytest.raises(ValidationError, match=MAX_ORDER_ENV):
        max_order()


def test_sign_check_does_not_sort_the_entries():
    # The +-1 test builds boolean masks only; a sort-based membership test
    # (np.isin) would hold several int64 copies of the matrix at once.
    a = np.ones((256, 256), dtype=np.int64)
    tracemalloc.start()
    try:
        sign_matrix(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes
    with pytest.raises(ValidationError, match=r"\+1 or -1"):
        sign_matrix(np.full((2, 2), 2))
