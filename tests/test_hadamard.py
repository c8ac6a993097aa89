"""Sign matrices, sequency ordering, and the fast transform.

Oracles are kept independent of the construction code: the doubling
recursion is checked against the direct parity formula, sequency order
against naive per-row sign-change counting, and the butterfly transform
against a plain matrix-vector product.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadframes import (
    ResourceLimitError,
    SignMatrix,
    ValidationError,
    WalshMatrix,
    build_sylvester,
    build_walsh,
    etf_from_hadamard,
    fwht,
    grassmannian_certificate,
    normalize_first_row,
    sign_changes,
    sign_matrix,
    validate_hadamard,
    validate_walsh_order,
)
from hadframes import cli, hadamard
from hadframes.hadamard import MAX_ORDER_ENV, MatrixCertificate, _sylvester_class, max_order
from hadframes.intlinalg import checked_matmul

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


def test_sign_matrix_rejects_order_zero():
    with pytest.raises(ValidationError, match="order >= 1"):
        sign_matrix(np.zeros((0, 0), dtype=int))


def test_validate_walsh_order_accepts_walsh():
    assert validate_walsh_order(build_walsh(2)).ok
    assert validate_walsh_order(build_walsh(0)).ok


def test_validate_walsh_order_rejects_sylvester_order():
    cert = validate_walsh_order(build_sylvester(2))
    assert not cert.ok
    assert "row 1" in cert.detail  # natural-order row 1 alternates: 3 changes


def test_validate_walsh_order_names_a_row_that_starts_at_minus_one():
    flipped = build_walsh(2).entries * np.array([[1], [1], [-1], [1]])
    cert = validate_walsh_order(sign_matrix(flipped))
    assert not cert.ok and cert.detail == "row 2 starts at -1"


def test_a_sign_matrix_holds_only_its_matrix_and_reads_its_sizes_from_it():
    assert [f.name for f in dataclasses.fields(SignMatrix)] == ["entries"]
    assert [f.name for f in dataclasses.fields(WalshMatrix)] == ["entries"]
    w = WalshMatrix(build_sylvester(3).entries)
    assert (w.order, w.log_order) == (8, 3) and w.base is w
    assert validate_hadamard(w).ok and not validate_walsh_order(w).ok


@pytest.mark.parametrize("order", [3, 6, 12])
def test_a_walsh_matrix_whose_order_is_not_a_power_of_two_is_refused(order):
    with pytest.raises(ValidationError, match=f"walsh matrix order {order} is not a power of two"):
        WalshMatrix(np.ones((order, order), dtype=int))


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
    # normalizing proves nothing; the ETF construction refuses the result
    with pytest.raises(ValidationError, match="not Hadamard"):
        etf_from_hadamard(normalize_first_row(sign_matrix([[1, 1], [1, 1]])))


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


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV, "8")
    assert max_order() == 8
    with pytest.raises(ResourceLimitError, match="exceeds"):
        build_sylvester(4)
    with pytest.raises(ResourceLimitError):
        build_walsh(4)
    monkeypatch.delenv(MAX_ORDER_ENV)
    assert max_order() == 1 << 16


def test_order_cap_is_checked_before_the_order_is_formed(monkeypatch):
    # 2**(10**11) would take 12.5 GB; the cap refuses k by its bit length first.
    monkeypatch.delenv(MAX_ORDER_ENV, raising=False)
    for build in (build_sylvester, build_walsh):
        with pytest.raises(ResourceLimitError, match=r"^order 2\*\*100000000000 exceeds"):
            build(10**11)
    monkeypatch.setenv(MAX_ORDER_ENV, "100")
    assert build_sylvester(6).order == 64
    with pytest.raises(ResourceLimitError, match="configured cap 100"):
        build_sylvester(7)


def test_negative_k_rejected():
    with pytest.raises(ValidationError, match="non-negative"):
        build_sylvester(-1)
    with pytest.raises(ValidationError, match="non-negative integer"):
        build_walsh(True)


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


# ---------------------------------------------------------------------------
# Hadamard equivalence


@st.composite
def hadamard_and_equivalent(draw, had12):
    """A Hadamard matrix of an order the tests use (2 to 32 from the Sylvester
    and Walsh builders, or the order-12 fixture) and an equivalent one: rows
    and columns permuted, then rows and columns negated."""
    h = draw(st.sampled_from(
        [build_sylvester(k) for k in range(1, 6)] + [build_walsh(k).base for k in range(1, 6)] + [had12]
    )).entries.astype(np.int64)
    n = len(h)
    signs = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n).map(np.array)
    g = h[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))]
    return h, g * draw(signs)[:, None] * draw(signs)[None, :]


def etf_certificate(h):
    return grassmannian_certificate(etf_from_hadamard(normalize_first_row(sign_matrix(h))))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equivalent_hadamard_matrices_keep_their_certificates(had12, data):
    h, g = data.draw(hadamard_and_equivalent(had12))
    assert validate_hadamard(sign_matrix(g)) == validate_hadamard(sign_matrix(h))
    assert validate_hadamard(sign_matrix(g)).ok
    assert etf_certificate(g) == etf_certificate(h)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flipping_one_entry_breaks_the_hadamard_certificate(had12, data):
    _, g = data.draw(hadamard_and_equivalent(had12))
    n = len(g)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    g[i, j] = -g[i, j]
    cert = validate_hadamard(sign_matrix(g))
    assert not cert.ok
    # row i now meets every other row at inner product +-2: the witness names it
    rows = [int(w) for w in cert.detail.split()[1:4:2]]
    assert i in rows and cert.detail.endswith(("product 2", "product -2"))
    with pytest.raises(ValidationError):
        etf_from_hadamard(sign_matrix(g))


# ---------------------------------------------------------------------------
# the two proofs: the row group of a Sylvester-class matrix, else the Gram


def gram_certificate(h) -> MatrixCertificate:
    """The verdict and witness of a direct int64 Gram, without validate_hadamard."""
    h = np.asarray(h, dtype=np.int64)
    n = len(h)
    g = h @ h.T
    bad = np.argwhere(g != n * np.eye(n, dtype=np.int64))
    if not len(bad):
        return MatrixCertificate(ok=True, order=n, check="hadamard")
    i, j = (int(v) for v in bad[0])
    return MatrixCertificate(
        ok=False, order=n, check="hadamard", detail=f"rows {i} and {j} have inner product {int(g[i, j])}",
    )


def scrambled(draw, h) -> np.ndarray:
    """``h`` with rows and columns permuted and negated, and maybe one entry flipped."""
    n = len(h)
    signs = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n).map(np.array)
    g = h[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))]
    g = g * draw(signs)[:, None] * draw(signs)[None, :]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g[i, j] = -g[i, j]
    return g


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_group_proof_is_sound_and_certificates_match_the_gram(paley_matrices, data):
    h = data.draw(st.sampled_from(
        [build_sylvester(k).entries for k in range(7)]
        + [build_walsh(k).base.entries for k in range(7)]
        + list(paley_matrices.values())
    )).astype(np.int64)
    m = sign_matrix(scrambled(data.draw, h))
    direct = gram_certificate(m.entries)
    if _sylvester_class(m.entries):
        assert direct.ok
    assert validate_hadamard(m) == direct


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_witness_of_a_random_sign_matrix_is_the_gram_oracles(rows):
    m = sign_matrix(np.array(rows))
    want = gram_certificate(m.entries)
    assume(not want.ok)
    assert validate_hadamard(m) == want


def test_paley_orders_4_and_8_are_sylvester_class(paley_matrices):
    for n in (4, 8):
        assert _sylvester_class(sign_matrix(paley_matrices[n]).entries), n


def test_paley_orders_outside_sylvester_class_are_proved_by_the_gram(paley_matrices, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(a.shape)
        return checked_matmul(a, b)

    monkeypatch.setattr(hadamard, "checked_matmul", counted)
    for n in (12, 20, 24, 32, 44, 48):
        m = sign_matrix(paley_matrices[n])
        assert not _sylvester_class(m.entries), n
        assert validate_hadamard(m) == MatrixCertificate(ok=True, order=n, check="hadamard")
    assert calls == [(n, n) for n in (12, 20, 24, 32, 44, 48)]


@pytest.mark.parametrize("rows", [
    # normalized words 0000, 0100, 0010, 0110: a group under XOR, weights 1, 1, 2
    [[1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, -1, -1, 1]],
    # words 0000, 0101, 0101, 0101: weight 2 each, the group {0, 0101} with repeats
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, 1, -1], [1, -1, 1, -1]],
    # eight distinct words of weight 4 after the first, not closed under XOR:
    # W_3's word 01101001 replaced by 01111000
    [[1 - 2 * int(b) for b in w] for w in (
        "00000000", "00001111", "00110011", "00111100",
        "01010101", "01011010", "01100110", "01111000")],
])
def test_row_group_proof_refuses_words_that_are_not_a_hadamard_group(rows):
    h = np.array(rows, dtype=np.int8)
    assert not _sylvester_class(h)
    assert validate_hadamard(sign_matrix(h)) == gram_certificate(h)


def test_sylvester_class_inputs_never_reach_the_cubic_product(paley_matrices, monkeypatch, tmp_path):
    def refuse(a, b):
        raise AssertionError("the O(n^3) Gram product was reached")

    monkeypatch.setattr(hadamard, "checked_matmul", refuse)
    assert validate_hadamard(build_sylvester(11)).ok
    assert validate_hadamard(build_walsh(11).base).ok

    rng = np.random.default_rng(9)
    n = 1 << 9
    w = build_walsh(9).base.entries.astype(np.int64)
    g = w[rng.permutation(n)][:, rng.permutation(n)]
    g = g * rng.choice([-1, 1], n)[:, None] * rng.choice([-1, 1], n)[None, :]
    assert validate_hadamard(sign_matrix(g)).ok

    out = tmp_path / "w11.json"
    assert cli.main(["gen-walsh", "--k", "11", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"]["hadamard"]["ok"]

    # the patch is live: a matrix outside the class still reaches it
    with pytest.raises(AssertionError, match="Gram product was reached"):
        validate_hadamard(sign_matrix(paley_matrices[12]))


@pytest.mark.parametrize("argv,proofs", [
    # the certificate proves W_11 and its order once each; nothing before it
    (["gen-walsh", "--k", "11"],
     {"_sylvester_class": 1, "validate_walsh_order": 1, "validate_hadamard": 1}),
    # etf_from_hadamard proves its normalized input once
    (["gen-etf", "--order", "512"],
     {"_sylvester_class": 1, "validate_walsh_order": 0, "validate_hadamard": 1}),
    # the fusion certificate proves what the output claims; W_9 is not proved
    (["gen-gff", "--n", "9", "--m", "1"],
     {"_sylvester_class": 0, "validate_walsh_order": 0, "validate_hadamard": 0}),
])
def test_each_claim_is_proved_once(monkeypatch, tmp_path, argv, proofs):
    calls = dict.fromkeys(proofs, 0)

    def counted(name):
        inner = getattr(hadamard, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in proofs:
        monkeypatch.setattr(hadamard, name, counted(name))
    assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == 0
    assert calls == proofs
