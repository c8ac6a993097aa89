"""Frame certificates against independent exact oracles.

The Gram/tightness oracles below recompute inner products with plain
Python Fraction loops, never reusing the library's integer-matmul path.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hadframes import (
    ScaledFrame,
    ValidationError,
    analyze,
    build_walsh,
    coherence,
    etf_from_hadamard,
    float_coherence_sq,
    frame_from_integer_columns,
    fusion_frame_from_columns,
    gram,
    grassmannian_certificate,
    is_tight,
    normalize_first_row,
    reconstruct_tight,
    sign_matrix,
    welch_bound_sq,
)

# ---------------------------------------------------------------------------
# oracles


def gram_oracle(f):
    """Pairwise inner products via Fraction loops over scaled columns."""
    cols = f.raw.T.tolist()
    return [
        [sum(Fraction(a) * Fraction(b) for a, b in zip(u, v)) * f.scale_sq for v in cols]
        for u in cols
    ]


def frame_operator_oracle(f):
    rows = f.raw.tolist()
    return [
        [sum(Fraction(a) * Fraction(b) for a, b in zip(r, s)) * f.scale_sq for s in rows]
        for r in rows
    ]


def rank_oracle(rows):
    """Rank by Gauss-Jordan elimination over Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


@st.composite
def integer_columns(draw):
    """Any small integer matrix (entries -2..2, M <= 4, N <= 6, repeated and
    zero columns allowed) and a scale: one over the first column's squared
    norm, or one of a few. Half the draws keep only the columns of the first
    one's norm, so that many are accepted."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    column = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    pool = draw(st.lists(column, min_size=1, max_size=2 * n))
    if draw(st.booleans()):
        pool = [c for c in pool if sum(x * x for x in c) == sum(x * x for x in pool[0])]
    raw = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.int64).T
    first = int((raw[:, 0] ** 2).sum())
    if first and draw(st.booleans()):
        return raw, Fraction(1, first)
    return raw, draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)]))


@st.composite
def equal_norm_frames(draw):
    """Small integer frames whose columns share one squared norm: +-1
    columns drawn with repeats from a short list, or signed, permuted
    identity columns. Draws that do not span are skipped."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(max(2, m), 8))
    if draw(st.booleans()):
        pool = draw(st.lists(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m),
                             min_size=1, max_size=4))
        cols, scale = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), Fraction(1, m)
    else:
        picks = draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from([1, -1])),
                              min_size=n, max_size=n))
        cols, scale = [[s * (r == k) for r in range(m)] for k, s in picks], 1
    raw = np.array(cols, dtype=np.int64).T
    assume(np.linalg.matrix_rank(raw) == m)
    return frame_from_integer_columns(raw, scale)


@pytest.fixture(scope="module")
def etf4():
    return etf_from_hadamard(build_walsh(2).base)


@pytest.fixture(scope="module")
def etf8():
    return etf_from_hadamard(build_walsh(3).base)


@pytest.fixture()
def basis2():
    return frame_from_integer_columns(np.eye(2, dtype=int), 1)


@pytest.fixture()
def fourth_roots():
    return frame_from_integer_columns([[1, 0, -1, 0], [0, 1, 0, -1]], 1)


# ---------------------------------------------------------------------------
# construction and validation


def test_identity_columns_form_a_frame(basis2):
    assert basis2.ambient_dim == 2 and basis2.count == 2
    assert basis2.scale_sq == 1


def test_scaled_hadamard_columns_form_a_frame():
    f = frame_from_integer_columns([[1, 1], [1, -1]], Fraction(1, 2))
    assert f.scale_sq == Fraction(1, 2)


def test_single_column_cannot_span_plane():
    with pytest.raises(ValidationError, match="do not jointly span"):
        frame_from_integer_columns([[1], [0]], 1)


def test_non_unit_column_reports_index():
    # Column 1 is line 1, a subspace of dimension 1 whose one basis vector
    # has squared norm 2.
    with pytest.raises(ValidationError, match=r"^subspace 1: columns 0,0 have inner product 2 \* 1"):
        frame_from_integer_columns([[1, 1], [0, 1]], 1)


def test_a_frame_proves_its_unit_norms_when_it_is_built():
    # Unproved, 3 I with a zero column was certified grassmannian=True with bound 9.
    with pytest.raises(ValidationError, match=r"^subspace 0: columns 0,0 have inner product 9 \* 1"):
        ScaledFrame(3 * np.eye(2, 3, dtype=int), (1, 1, 1), (1, 1, 1))


def test_nonpositive_scale_rejected():
    with pytest.raises(ValidationError, match="positive"):
        frame_from_integer_columns(np.eye(2, dtype=int), 0)


# ---------------------------------------------------------------------------
# gram / coherence / welch


def test_gram_of_orthonormal_basis_is_identity(basis2):
    g = gram(basis2)
    assert g.tolist() == [[1, 0], [0, 1]]


def test_gram_of_order4_etf(etf4):
    g = gram(etf4)
    expect = gram_oracle(etf4)
    assert g.tolist() == expect
    for i in range(4):
        for j in range(4):
            assert g[i, j] == (1 if i == j else Fraction(-1, 3))


def test_gram_of_order8_etf_off_diagonals(etf8):
    g = gram(etf8)
    assert g.tolist() == gram_oracle(etf8)
    off = [g[i, j] for i in range(8) for j in range(8) if i != j]
    assert set(off) == {Fraction(-1, 7)}


def test_coherence_of_orthonormal_basis_is_zero(basis2):
    rep = coherence(basis2)
    assert rep.max_corr_sq == 0
    assert rep.achieving_pairs == ((0, 1),)


def test_coherence_of_order4_etf_all_pairs(etf4):
    rep = coherence(etf4)
    assert rep.max_corr_sq == Fraction(1, 9)
    assert len(rep.achieving_pairs) == 6


def test_coherence_of_antipodal_pair_is_one(fourth_roots):
    rep = coherence(fourth_roots)
    assert rep.max_corr_sq == 1
    assert rep.achieving_pairs == ((0, 2), (1, 3))


def test_coherence_needs_two_vectors():
    line = frame_from_integer_columns([[1]], 1)
    with pytest.raises(ValidationError, match="two"):
        coherence(line)


def test_welch_bound_values():
    assert welch_bound_sq(3, 3) == 0
    assert welch_bound_sq(3, 2) == Fraction(1, 4)
    assert welch_bound_sq(4, 3) == Fraction(1, 9)
    assert welch_bound_sq(8, 7) == Fraction(1, 49)


def test_welch_bound_domain_errors():
    with pytest.raises(ValidationError, match="below"):
        welch_bound_sq(2, 3)
    with pytest.raises(ValidationError):
        welch_bound_sq(1, 1)


# ---------------------------------------------------------------------------
# tightness / equiangularity


def test_orthonormal_basis_is_tight_with_bound_one(basis2):
    assert is_tight(basis2) == (True, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_etf_bound_matches_redundancy(k):
    n = 1 << k
    f = etf_from_hadamard(build_walsh(k).base)
    tight, bound = is_tight(f)
    assert tight and bound == Fraction(n, n - 1)
    op = frame_operator_oracle(f)
    for i in range(n - 1):
        for j in range(n - 1):
            assert op[i][j] == (Fraction(n, n - 1) if i == j else 0)


def test_repeated_vector_breaks_tightness():
    f = frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1)
    assert is_tight(f) == (False, None)


def equiangularity(f):
    c = grassmannian_certificate(f)
    return c.equiangular, c.alpha_sq


def test_equiangularity_of_etf(etf4):
    assert equiangularity(etf4) == (True, Fraction(1, 9))


def test_orthonormal_basis_is_equiangular_at_zero(basis2):
    assert equiangularity(basis2) == (True, 0)


def test_mixed_correlations_are_not_equiangular():
    f = frame_from_integer_columns([[1, 1, 1], [1, -1, 1]], Fraction(1, 2))
    assert equiangularity(f) == (False, None)


# ---------------------------------------------------------------------------
# ETF construction


def test_etf_order2_is_degenerate_antipodal_pair():
    f = etf_from_hadamard(build_walsh(1).base)
    assert f.ambient_dim == 1 and f.count == 2
    assert is_tight(f) == (True, 2)
    assert equiangularity(f) == (True, 1)
    assert coherence(f).max_corr_sq == welch_bound_sq(2, 1)


def test_etf_order4_shape_and_values(etf4):
    assert (etf4.ambient_dim, etf4.count) == (3, 4)
    assert etf4.scale_sq == Fraction(1, 3)


def test_etf_order8_meets_welch_bound(etf8):
    assert coherence(etf8).max_corr_sq == welch_bound_sq(8, 7) == Fraction(1, 49)


def test_etf_requires_normalized_first_row():
    m = build_walsh(2).base
    flipped = m.entries * np.array([1, -1, 1, 1])[np.newaxis, :]
    with pytest.raises(ValidationError, match="first row"):
        etf_from_hadamard(sign_matrix(flipped))


def test_etf_from_order12_fixture(had12):
    f = etf_from_hadamard(normalize_first_row(had12))
    assert (f.ambient_dim, f.count) == (11, 12)
    tight, bound = is_tight(f)
    assert tight and bound == Fraction(12, 11)
    equi, alpha_sq = equiangularity(f)
    assert equi and alpha_sq == Fraction(1, 121)
    assert coherence(f).max_corr_sq == welch_bound_sq(12, 11)


def test_etf_from_paley_matrices_of_orders_12_to_48(paley_matrices):
    for n in (12, 20, 24, 32, 44, 48):
        c = grassmannian_certificate(etf_from_hadamard(normalize_first_row(sign_matrix(paley_matrices[n]))))
        assert c.tight and c.equiangular and c.welch_equality, n
        assert c.bound_A == Fraction(n, n - 1) and c.alpha_sq == Fraction(1, (n - 1) ** 2), n


# ---------------------------------------------------------------------------
# certificates


def test_certificate_of_etf_is_all_true(etf4):
    c = grassmannian_certificate(etf4)
    assert c.tight and c.equiangular and c.welch_equality and c.grassmannian
    assert c.bound_A == Fraction(4, 3) and c.alpha_sq == Fraction(1, 9)


def test_certificate_of_orthonormal_basis(basis2):
    c = grassmannian_certificate(basis2)
    assert c.tight and c.bound_A == 1
    assert c.equiangular and c.alpha_sq == 0
    assert c.welch_equality and c.grassmannian


def test_certificate_of_fourth_roots(fourth_roots):
    c = grassmannian_certificate(fourth_roots)
    assert c.tight and c.bound_A == 2
    assert not c.equiangular and c.alpha_sq is None
    assert not c.welch_equality and not c.grassmannian


@pytest.mark.parametrize("column,scale", [([1], 1), ([-2], Fraction(1, 4))])
def test_certificate_of_one_vector_proves_tightness_and_claims_no_pair(column, scale):
    # One unit vector spans F^1 and is tight with A = 1, but it has no pair:
    # no common angle, and the Welch bound, which needs N >= 2, is not met.
    c = grassmannian_certificate(frame_from_integer_columns([column], scale))
    assert c.tight and c.bound_A == 1
    assert not c.equiangular and c.alpha_sq is None
    assert not c.welch_equality and not c.grassmannian


def test_the_frame_operator_is_formed_once_per_frame(monkeypatch):
    # The constructor's spanning proof forms the (M, N) @ (N, M) product and
    # the frame keeps its bound; the certificate, is_tight and the round trip
    # read it. A frame that is not tight keeps its None just the same.
    import hadframes.fusion as fusion_module

    shapes = []
    real = fusion_module.checked_matmul

    def counting(a, b):
        shapes.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(fusion_module, "checked_matmul", counting)
    tight = etf_from_hadamard(build_walsh(3).base)
    loose = frame_from_integer_columns([[1, 1, 1], [1, -1, 1]], Fraction(1, 2))
    for f in (tight, loose):
        grassmannian_certificate(f)
        is_tight(f)
    reconstruct_tight(tight, analyze(tight, np.ones(7)))
    assert shapes.count(((7, 8), (8, 7))) == 1 and shapes.count(((2, 3), (3, 2))) == 1


@settings(max_examples=150, deadline=None)
@given(equal_norm_frames())
# At N = 4, M = 3 the Welch bound is 1/9: the first pair meets it, a repeated
# column does not, so Welch equality must read the largest correlation.
@example(frame_from_integer_columns([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, 1]], Fraction(1, 3)))
def test_verdicts_match_the_fraction_oracles(f):
    op, g = frame_operator_oracle(f), gram_oracle(f)
    m, n = f.ambient_dim, f.count
    a = op[0][0]
    tight = all(op[i][j] == (a if i == j else 0) for i in range(m) for j in range(m))
    assert is_tight(f) == (tight, a if tight else None)
    corr = {(i, j): g[i][j] ** 2 for i in range(n) for j in range(i + 1, n)}
    peak = max(corr.values())
    equi = len(set(corr.values())) == 1
    c = grassmannian_certificate(f)
    assert (c.tight, c.bound_A) == (tight, a if tight else None)
    assert (c.equiangular, c.alpha_sq) == (equi, peak if equi else None)
    assert c.welch_equality == (peak == welch_bound_sq(n, m))
    assert c.grassmannian == (tight and equi)
    rep = coherence(f)
    assert rep.max_corr_sq == peak
    assert rep.achieving_pairs == tuple(p for p, v in corr.items() if v == peak)


@settings(max_examples=300, deadline=None)
@given(integer_columns())
def test_a_frame_is_the_fusion_frame_of_its_lines(case):
    # Refused exactly when some column is not a unit vector under the scale
    # or the columns do not span; accepted, it is the fusion frame of its
    # lines, with one column and the one scale per line.
    raw, scale = case
    m, n = raw.shape
    unit = all(sum(Fraction(int(x)) ** 2 for x in col) * scale == 1 for col in raw.T)
    valid = unit and rank_oracle(raw.tolist()) == m
    if not valid:
        with pytest.raises(ValidationError):
            frame_from_integer_columns(raw, scale)
        return
    f = frame_from_integer_columns(raw, scale)
    ff = fusion_frame_from_columns(raw, (1,) * n, (scale,) * n)
    assert np.array_equal(f.basis_raw, ff.basis_raw) and np.array_equal(f.raw, raw)
    assert f.dims == ff.dims == (1,) * n and f.scales == ff.scales == (scale,) * n
    assert f.bound_A == ff.bound_A
    assert (f.ambient_dim, f.count, f.scale_sq) == (m, n, scale)


def test_certificate_flags_coincide_on_constructed_frames(etf4, etf8, basis2, fourth_roots):
    for f in (etf4, etf8, basis2, fourth_roots):
        c = grassmannian_certificate(f)
        assert c.grassmannian == (c.tight and c.equiangular) == c.welch_equality


# ---------------------------------------------------------------------------
# analysis / reconstruction


def test_zero_signal_round_trip(etf4):
    coeffs = analyze(etf4, np.zeros(3))
    assert np.allclose(coeffs, 0)
    assert np.allclose(reconstruct_tight(etf4, coeffs), 0)


def test_orthonormal_basis_round_trip_exact(basis2):
    x = [Fraction(3, 7), Fraction(-2, 5)]
    u = analyze(basis2, x, exact=True)
    back = reconstruct_tight(basis2, u, exact=True)
    assert list(back) == x


def test_etf8_float_round_trip(etf8):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(7)
        back = reconstruct_tight(etf8, analyze(etf8, x))
        worst = max(worst, float(np.abs(back - x).max()))
    assert worst < 1e-12


def test_etf8_exact_round_trip(etf8):
    x = [Fraction(i - 3, i + 2) for i in range(7)]
    back = reconstruct_tight(etf8, analyze(etf8, x, exact=True), exact=True)
    assert list(back) == x


def test_reconstruct_requires_tight_frame():
    f = frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1)
    with pytest.raises(ValidationError, match="not tight"):
        reconstruct_tight(f, [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# float diagnostics and the Welch inequality


def test_random_frames_respect_welch_inequality():
    rng = np.random.default_rng(123)
    for _ in range(60):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, 2 * m + 4))
        v = rng.standard_normal((m, n))
        assert float_coherence_sq(v) >= float(welch_bound_sq(n, m)) - 1e-12


def test_exact_frames_respect_welch_inequality(etf4, etf8, basis2, fourth_roots):
    for f in (etf4, etf8, basis2, fourth_roots):
        assert coherence(f).max_corr_sq >= welch_bound_sq(f.count, f.ambient_dim)


# ---------------------------------------------------------------------------
# spanning: a tight frame operator proves it, int_rank decides the rest


@pytest.fixture()
def rank_calls(monkeypatch):
    import hadframes.fusion as fusion_module

    calls = []
    real = fusion_module.int_rank

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(fusion_module, "int_rank", counting)
    return calls


def test_tight_frames_never_reach_int_rank(rank_calls, had12):
    etf_from_hadamard(build_walsh(5).base)
    etf_from_hadamard(normalize_first_row(had12))
    frame_from_integer_columns([[1, 0, -1, 0], [0, 1, 0, -1]], 1)
    assert rank_calls == []


def test_spanning_frame_that_is_not_tight_is_accepted_by_rank(rank_calls):
    f = frame_from_integer_columns([[1, 1, 1], [1, -1, 1]], Fraction(1, 2))
    assert is_tight(f) == (False, None)
    assert rank_calls == [(2, 3)]


@pytest.mark.parametrize("columns", [[[1, -1], [0, 0]], [[1], [0]]])
def test_frame_that_does_not_span_is_rejected(rank_calls, columns):
    with pytest.raises(
        ValidationError,
        match=r"^subspaces do not jointly span the ambient space$",
    ):
        frame_from_integer_columns(columns, 1)


@pytest.mark.parametrize("big", [2**63 - 1, -(2**63)])
def test_huge_entries_do_not_wrap_into_a_unit_norm(big):
    # (2**63 - 1)**2 + 1 is 0 modulo 2**64, so int64 squares would call it 0 + 1.
    with pytest.raises(ValidationError, match="^subspace 0: columns 0,0 have inner product"):
        frame_from_integer_columns([[big, 1]], 1)
