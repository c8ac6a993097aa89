"""Subspace, chordal-distance, and fusion-frame certificates.

The chordal oracle here materializes full projection matrices as Fraction
arrays and traces their product directly, independent of the library's
Frobenius-norm shortcut.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadframes import (
    Subspace,
    ValidationError,
    build_gff,
    build_sylvester,
    build_walsh,
    chordal_dist_sq,
    equidistance_certificate,
    etf_from_hadamard,
    frame_from_integer_columns,
    fusion_analyze,
    fusion_frame_from_columns,
    fusion_reconstruct_tight,
    fusion_tight,
    gram,
    lemma_row_check,
    make_fusion_frame,
    subspace_from_columns,
)

# ---------------------------------------------------------------------------
# oracles and helpers


def projection_oracle(s):
    basis = s.basis_raw.tolist()
    m = len(basis)
    return [
        [
            sum(Fraction(basis[r][c]) * Fraction(basis[t][c]) for c in range(s.dim))
            * s.scale_sq
            for t in range(m)
        ]
        for r in range(m)
    ]


def trace_product_oracle(s1, s2):
    p1, p2 = projection_oracle(s1), projection_oracle(s2)
    m = len(p1)
    return sum(p1[r][t] * p2[t][r] for r in range(m) for t in range(m))


def line(ambient: int, axis: int):
    col = np.zeros((ambient, 1), dtype=int)
    col[axis, 0] = 1
    return subspace_from_columns(col, 1)


# ---------------------------------------------------------------------------
# subspaces


def test_coordinate_plane_in_f4():
    s = subspace_from_columns(np.eye(4, dtype=int)[:, :2], 1)
    assert (s.ambient_dim, s.dim) == (4, 2)


def test_scaled_hadamard_columns_span_plane():
    s = subspace_from_columns([[1, 1], [1, -1]], Fraction(1, 2))
    assert s.dim == 2


def test_equal_columns_are_not_orthonormal():
    with pytest.raises(ValidationError, match="columns 0,1 have inner product 2 .* not orthonormal"):
        subspace_from_columns([[1, 1], [1, 1]], Fraction(1, 2))
    # the first column is a unit vector, the second is not
    with pytest.raises(ValidationError, match="columns 1,1 have inner product 2 .* != 1"):
        subspace_from_columns([[1, 0], [0, 1], [0, 1]], 1)


def test_subspace_dim_cannot_exceed_ambient():
    with pytest.raises(ValidationError, match="exceeds ambient"):
        subspace_from_columns(np.ones((1, 2), dtype=int), 1)


def test_projection_is_idempotent_symmetric_with_trace_dim():
    # every subspace view of the stored matrix is a scaled orthonormal basis
    for s in build_gff(3, 1).subspaces:
        p = np.array(projection_oracle(s), dtype=object)
        assert np.array_equal(p @ p, p)
        assert np.array_equal(p.T, p)
        assert sum(p[i, i] for i in range(s.ambient_dim)) == s.dim


# ---------------------------------------------------------------------------
# one matrix


def test_fusion_frame_stores_one_read_only_matrix_with_views():
    ff = build_gff(4, 1)
    assert ff.basis_raw.shape == (14, 16) and not ff.basis_raw.flags.writeable
    assert ff.dims == (2,) * 8 and ff.scales == (Fraction(1, 14),) * 8
    dropped = build_walsh(4).base.entries[2:]
    for i, s in enumerate(ff.subspaces):
        assert np.shares_memory(s.basis_raw, ff.basis_raw)
        assert np.array_equal(s.basis_raw, dropped[:, [i, i + 8]])
        assert (s.ambient_dim, s.dim, s.scale_sq) == (14, 2, Fraction(1, 14))


def test_make_fusion_frame_adapts_the_matrix_constructor():
    e = np.eye(3, dtype=int)
    dims, scales = (2, 1, 1, 2), (1, 1, 1, 1)
    cols = [[0, 1], [2], [0], [1, 2]]
    ff = make_fusion_frame([subspace_from_columns(e[:, c], 1) for c in cols])
    direct = fusion_frame_from_columns(e[:, sum(cols, [])], dims, scales)
    assert np.array_equal(ff.basis_raw, direct.basis_raw)
    assert ff.dims == direct.dims == dims and ff.scales == direct.scales
    assert fusion_tight(direct) == (True, 2)


def test_constructor_names_the_first_subspace_that_is_not_orthonormal():
    # dims 1, 2, 1 take two stacked products. Subspace 1's columns meet at
    # inner product 1, and subspace 2's column has squared norm 2 under
    # scale 1; the witness is the first failing subspace.
    mat = np.array([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 0]])
    scales = (1, Fraction(1, 2), 1)
    with pytest.raises(ValidationError, match=r"^subspace 1: columns 0,1 have inner product 1 "
                                              r"\* 1/2 != 0: basis is not orthonormal"):
        fusion_frame_from_columns(mat, (1, 2, 1), scales)
    mat[1:, 2] = [-1, 0]  # subspace 1 is now orthonormal
    with pytest.raises(ValidationError, match=r"^subspace 2: columns 0,0 have inner product 2 "
                                              r"\* 1 != 1: basis is not orthonormal"):
        fusion_frame_from_columns(mat, (1, 2, 1), scales)


@pytest.mark.parametrize("dims,scales", [((2, 1), (1, 1)), ((1, 1, 1, 1), (1, 1, 1)),
                                         ((0, 2, 2), (1, 1, 1)), ((), ())])
def test_constructor_checks_dims_and_scales(dims, scales):
    with pytest.raises(ValidationError, match="add up to the column count 4"):
        fusion_frame_from_columns(np.eye(4, dtype=int), dims, scales)


# ---------------------------------------------------------------------------
# chordal distance


def test_chordal_distance_to_self_is_zero():
    s = subspace_from_columns([[1, 1], [1, -1], [1, 1], [1, -1]], Fraction(1, 4))
    assert chordal_dist_sq(s, s) == 0


def test_a_subspace_reads_its_sizes_from_its_basis():
    s = Subspace(np.eye(2, dtype=np.int64)[:, :1], Fraction(1))
    assert (s.ambient_dim, s.dim) == (2, 1)
    assert chordal_dist_sq(s, s) == 0


def test_make_fusion_frame_refuses_subspaces_of_different_ambient_spaces():
    with pytest.raises(ValidationError, match="subspace 1 lives in F\\^3, expected F\\^2"):
        make_fusion_frame([line(2, 0), line(3, 1)])


def test_orthogonal_lines_at_distance_one():
    assert chordal_dist_sq(line(2, 0), line(2, 1)) == 1


def test_gff31_pair_distance_matches_projection_oracle():
    subs = build_gff(3, 1).subspaces
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            tr = trace_product_oracle(subs[i], subs[j])
            assert tr == Fraction(2, 9)
            assert chordal_dist_sq(subs[i], subs[j]) == Fraction(2) - tr == Fraction(16, 9)


def test_chordal_distance_is_symmetric():
    subs = build_gff(3, 1).subspaces
    assert chordal_dist_sq(subs[0], subs[1]) == chordal_dist_sq(subs[1], subs[0])


def test_chordal_distance_stays_within_bounds():
    subs = build_gff(4, 1).subspaces
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            d2 = chordal_dist_sq(subs[i], subs[j])
            assert 0 < d2 <= subs[i].dim


def test_chordal_distance_requires_equal_dims():
    plane = subspace_from_columns(np.eye(2, dtype=int), 1)
    with pytest.raises(ValidationError, match="equal dimensions"):
        chordal_dist_sq(line(2, 0), plane)


# ---------------------------------------------------------------------------
# tightness, two routes


def test_axis_partition_is_tight():
    ff = make_fusion_frame([line(2, 0), line(2, 1)])
    assert fusion_tight(ff) == (True, 1)


def test_overlapping_subspaces_are_not_tight():
    whole = subspace_from_columns(np.eye(2, dtype=int), 1)
    ff = make_fusion_frame([line(2, 0), whole])
    assert fusion_tight(ff) == (False, None)


def test_gff31_is_tight_with_expected_bound():
    assert fusion_tight(build_gff(3, 1)) == (True, Fraction(4, 3))


def test_mixed_scale_tightness_uses_exact_combination():
    # two coordinate axes plus the two diagonals: projections sum to 2 I
    diag_plus = subspace_from_columns([[1], [1]], Fraction(1, 2))
    diag_minus = subspace_from_columns([[1], [-1]], Fraction(1, 2))
    ff = make_fusion_frame([line(2, 0), line(2, 1), diag_plus, diag_minus])
    assert fusion_tight(ff) == (True, 2)
    assert lemma_row_check(ff) == (True, 2)


def test_row_check_on_identity_partition():
    basis = np.eye(4, dtype=int)
    ff = make_fusion_frame(
        [
            subspace_from_columns(basis[:, :2], 1),
            subspace_from_columns(basis[:, 2:], 1),
        ]
    )
    assert lemma_row_check(ff) == (True, 1)


@pytest.mark.parametrize("n,m", [(2, 0), (3, 0), (3, 1), (4, 2), (5, 3)])
def test_row_check_on_constructed_fusion_frames(n, m):
    ff = build_gff(n, m)
    expected = Fraction(1 << n, (1 << n) - (1 << m))
    assert lemma_row_check(ff) == (True, expected)


def test_row_check_fails_on_repeated_subspace():
    ff = make_fusion_frame([line(2, 0), line(2, 0), line(2, 1)])
    ok, _ = lemma_row_check(ff)
    assert not ok


def test_row_check_implies_tightness_with_same_bound():
    frames_under_test = [
        build_gff(3, 1),
        build_gff(4, 2),
        make_fusion_frame([line(3, 0), line(3, 1), line(3, 2)]),
    ]
    for ff in frames_under_test:
        ok, a_row = lemma_row_check(ff)
        assert ok
        tight, a_sum = fusion_tight(ff)
        assert tight and a_sum == a_row


# ---------------------------------------------------------------------------
# construction


def test_gff31_shape():
    ff = build_gff(3, 1)
    assert ff.ambient_dim == 6
    assert len(ff.subspaces) == 4
    assert all(s.dim == 2 for s in ff.subspaces)
    assert all(s.scale_sq == Fraction(1, 6) for s in ff.subspaces)


def test_gff21_degenerate_whole_space_pair():
    ff = build_gff(2, 1)
    assert ff.ambient_dim == 2 and len(ff.subspaces) == 2
    assert fusion_tight(ff) == (True, 2)
    assert chordal_dist_sq(ff.subspaces[0], ff.subspaces[1]) == 0


def test_gff41_values():
    ff = build_gff(4, 1)
    assert ff.ambient_dim == 14 and len(ff.subspaces) == 8
    assert fusion_tight(ff) == (True, Fraction(8, 7))
    subs = ff.subspaces
    tr = Fraction(2) - chordal_dist_sq(subs[0], subs[1])
    assert tr == Fraction(2, 49)
    assert chordal_dist_sq(subs[0], subs[1]) == Fraction(96, 49)


def test_gff_rejects_bad_parameters():
    with pytest.raises(ValidationError, match="n > m"):
        build_gff(3, 3)
    with pytest.raises(ValidationError, match="n > m"):
        build_gff(2, -1)
    with pytest.raises(ValidationError, match="integers"):
        build_gff(3.0, 1)
    with pytest.raises(ValidationError, match="integers"):
        build_gff(True, False)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gff_with_lines_recovers_the_etf_gram(n):
    ff = build_gff(n, 0)
    stacked = np.hstack([s.basis_raw for s in ff.subspaces])
    as_frame = frame_from_integer_columns(stacked, ff.subspaces[0].scale_sq)
    etf = etf_from_hadamard(build_walsh(n).base)
    assert np.array_equal(gram(as_frame), gram(etf))


# ---------------------------------------------------------------------------
# certificate


def test_certificate_of_gff31():
    c = equidistance_certificate(build_gff(3, 1))
    assert c.tight and c.bound_A == Fraction(4, 3)
    assert c.equal_dim and c.equi_distance
    assert c.dist_sq == Fraction(16, 9)
    assert c.grassmannian


def test_certificate_of_coordinate_lines():
    ff = make_fusion_frame([line(3, 0), line(3, 1), line(3, 2)])
    c = equidistance_certificate(ff)
    assert c.tight and c.bound_A == 1
    assert c.equal_dim and c.equi_distance and c.dist_sq == 1
    # three lines in F^3 meet the simplex bound 1 * 2/3 * 3/2 = 1
    assert c.grassmannian


def test_certificate_detects_unequal_distances():
    diag = subspace_from_columns([[1], [1]], Fraction(1, 2))
    ff = make_fusion_frame([line(2, 0), line(2, 1), diag])
    c = equidistance_certificate(ff)
    assert c.equal_dim and not c.equi_distance and c.dist_sq is None
    assert not c.grassmannian
    # distances are 1 (axes) and 1/2 (axis vs diagonal)
    assert chordal_dist_sq(ff.subspaces[0], ff.subspaces[1]) == 1
    assert chordal_dist_sq(ff.subspaces[0], ff.subspaces[2]) == Fraction(1, 2)
    assert chordal_dist_sq(ff.subspaces[1], ff.subspaces[2]) == Fraction(1, 2)

    # tight and of equal dimension is not enough: the coordinate planes
    # e1e2, e3e4, e1e3, e2e4 of F^4 sum to 2 * I at squared distances 2 and 1
    e = np.eye(4, dtype=int)
    planes = make_fusion_frame(
        [subspace_from_columns(e[:, list(ij)], 1) for ij in ((0, 1), (2, 3), (0, 2), (1, 3))]
    )
    c = equidistance_certificate(planes)
    assert c.tight and c.bound_A == 2 and c.equal_dim
    assert not c.equi_distance and not c.grassmannian
    assert chordal_dist_sq(planes.subspaces[0], planes.subspaces[1]) == 2
    assert chordal_dist_sq(planes.subspaces[0], planes.subspaces[2]) == 1


def test_certificate_of_one_subspace_proves_tightness_and_claims_no_pair():
    # F^2 as one plane is tight with A = 1, but it has no pair: no common
    # distance, and the simplex bound, which needs L >= 2, is not met.
    whole = subspace_from_columns(np.eye(2, dtype=int), 1)
    c = equidistance_certificate(make_fusion_frame([whole]))
    assert c.tight and c.bound_A == 1 and c.equal_dim
    assert not c.equi_distance and c.dist_sq is None and not c.grassmannian


def test_certificate_unequal_dims():
    whole = subspace_from_columns(np.eye(2, dtype=int), 1)
    ff = make_fusion_frame([line(2, 0), whole])
    c = equidistance_certificate(ff)
    assert not c.equal_dim and not c.equi_distance and not c.tight


# ---------------------------------------------------------------------------
# analysis / reconstruction


def test_zero_signal_gives_zero_pieces():
    ff = build_gff(3, 1)
    pieces = fusion_analyze(ff, np.zeros(6))
    assert all(np.allclose(p, 0) for p in pieces)
    assert np.allclose(fusion_reconstruct_tight(ff, pieces), 0)


def test_partition_round_trip_is_exact():
    basis = np.eye(4, dtype=int)
    ff = make_fusion_frame(
        [
            subspace_from_columns(basis[:, :2], 1),
            subspace_from_columns(basis[:, 2:], 1),
        ]
    )
    x = [Fraction(1, 3), Fraction(-2, 7), Fraction(5), Fraction(0)]
    back = fusion_reconstruct_tight(ff, fusion_analyze(ff, x, exact=True), exact=True)
    assert list(back) == x


def test_gff42_float_round_trip():
    ff = build_gff(4, 2)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(12)
        back = fusion_reconstruct_tight(ff, fusion_analyze(ff, x))
        worst = max(worst, float(np.abs(back - x).max()))
    assert worst < 1e-12


def test_gff31_exact_round_trip():
    ff = build_gff(3, 1)
    x = [Fraction(i, i + 1) for i in range(6)]
    back = fusion_reconstruct_tight(ff, fusion_analyze(ff, x, exact=True), exact=True)
    assert list(back) == x


def test_reconstruct_requires_tight_fusion_frame():
    whole = subspace_from_columns(np.eye(2, dtype=int), 1)
    ff = make_fusion_frame([line(2, 0), whole])
    with pytest.raises(ValidationError, match="not tight"):
        fusion_reconstruct_tight(ff, fusion_analyze(ff, [1.0, 2.0]))


@pytest.mark.parametrize("pieces,message", [
    ([[1.0, 2.0]] * 3, "expected 4 pieces, got 3"),
    ([[1.0, 2.0]] * 3 + [[1.0]], "piece 3 must have 2 coordinates, got 1"),
])
def test_reconstruct_checks_the_piece_count_and_lengths(pieces, message):
    with pytest.raises(ValidationError, match=message):
        fusion_reconstruct_tight(build_gff(3, 1), pieces)


def test_analyze_checks_ambient_dimension():
    ff = build_gff(3, 1)
    with pytest.raises(ValidationError, match="length 6"):
        fusion_analyze(ff, np.zeros(5))


def test_fusion_frame_must_span():
    with pytest.raises(ValidationError, match="span"):
        make_fusion_frame([line(3, 0), line(3, 1)])


# ---------------------------------------------------------------------------
# spanning: a tight projection sum proves it, int_rank decides the rest


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


def test_tight_fusion_frames_never_reach_int_rank(rank_calls):
    build_gff(5, 2)
    build_gff(4, 0)
    diag_plus = subspace_from_columns([[1], [1]], Fraction(1, 2))
    diag_minus = subspace_from_columns([[1], [-1]], Fraction(1, 2))
    make_fusion_frame([line(2, 0), line(2, 1), diag_plus, diag_minus])
    assert rank_calls == []


def test_spanning_fusion_frame_that_is_not_tight_is_accepted_by_rank(rank_calls):
    ff = make_fusion_frame([line(2, 0), line(2, 0), line(2, 1)])
    assert fusion_tight(ff) == (False, None)
    assert rank_calls == [(2, 3)]


def test_fusion_frame_that_does_not_span_is_rejected(rank_calls):
    with pytest.raises(
        ValidationError, match="^subspaces do not jointly span the ambient space$"
    ):
        make_fusion_frame([line(3, 0), line(3, 1), line(3, 1)])
    assert rank_calls == [(3, 3)]


# ---------------------------------------------------------------------------
# the block-Gram certificate against the pairwise definition


def pairwise_equidistance(ff):
    """(equi_distance, dist_sq) from chordal_dist_sq on every pair."""
    subs = ff.subspaces
    if len({s.dim for s in subs}) != 1:
        return False, None
    seen = {
        chordal_dist_sq(subs[i], subs[j])
        for i in range(len(subs))
        for j in range(i + 1, len(subs))
    }
    return (True, seen.pop()) if len(seen) == 1 else (False, None)


def tightness_oracle(ff):
    """(tight, A) from the Fraction sum of every subspace's projection."""
    total = np.sum([np.array(projection_oracle(s), dtype=object) for s in ff.subspaces], axis=0)
    a = total[0, 0]
    tight = all(total[r, t] == (a if r == t else 0)
                for r in range(ff.ambient_dim) for t in range(ff.ambient_dim))
    return (True, a) if tight else (False, None)


def assert_certificate_matches_pairs(ff):
    c = equidistance_certificate(ff)
    assert c.equal_dim == (len({s.dim for s in ff.subspaces}) == 1)
    assert (c.equi_distance, c.dist_sq) == pairwise_equidistance(ff)
    assert (c.tight, c.bound_A) == tightness_oracle(ff)


def _fixed_fusion_frames():
    diag_plus = subspace_from_columns([[1], [1]], Fraction(1, 2))
    diag_minus = subspace_from_columns([[1], [-1]], Fraction(1, 2))
    whole = subspace_from_columns(np.eye(2, dtype=int), 1)
    gff31 = build_gff(3, 1)
    return {
        "gff31": gff31,
        # Squared block-Gram entries past int64: the pairwise traces take
        # Python integers and must give gff31's certificate.
        "gff31-entries-times-2^16": fusion_frame_from_columns(
            gff31.basis_raw << 16, gff31.dims, [s / (1 << 32) for s in gff31.scales]),
        "gff42": build_gff(4, 2),
        "gff21-coincident": build_gff(2, 1),
        "mixed-scales-not-equidistant": make_fusion_frame(
            [line(2, 0), line(2, 1), diag_plus, diag_minus]
        ),
        "mixed-scales-equidistant": make_fusion_frame([line(2, 0), diag_plus]),
        "mixed-scales-lines-at-45-degrees": make_fusion_frame(
            [diag_plus, line(2, 0), diag_minus]
        ),
        "repeated-subspace": make_fusion_frame([line(2, 0), line(2, 0), line(2, 1)]),
        "unequal-dims": make_fusion_frame([line(2, 0), whole]),
        "axis-vs-diagonal": make_fusion_frame([line(2, 0), line(2, 1), diag_plus]),
    }


@pytest.mark.parametrize("name", sorted(_fixed_fusion_frames()))
def test_block_gram_certificate_matches_pairwise_distances(name):
    assert_certificate_matches_pairs(_fixed_fusion_frames()[name])


def test_block_gram_weights_mixed_scales_exactly():
    diag_plus = subspace_from_columns([[1], [1]], Fraction(1, 2))
    c = equidistance_certificate(make_fusion_frame([line(2, 0), diag_plus]))
    assert c.equi_distance and c.dist_sq == Fraction(1, 2)


@st.composite
def small_fusion_frames(draw):
    """Subspaces of F^(2^k): columns of a row-permuted, sign-flipped
    Sylvester matrix (scale 2^-k) or coordinate axes (scale 1)."""
    k = draw(st.integers(1, 3))
    big_m = 1 << k
    h = build_sylvester(k).entries.astype(np.int64)
    common_dim = draw(st.integers(1, big_m - 1))
    equal_dims = draw(st.sampled_from([True, True, False]))
    subs = []
    for _ in range(draw(st.integers(2, 6))):
        dim = common_dim if equal_dims else draw(st.integers(1, big_m))
        cols = draw(st.lists(st.integers(0, big_m - 1), min_size=dim, max_size=dim, unique=True))
        if draw(st.booleans()):
            rows = draw(st.permutations(range(big_m)))
            signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=big_m, max_size=big_m))
            basis = (h * np.array(signs)[:, None])[rows][:, cols]
            subs.append(subspace_from_columns(basis, Fraction(1, big_m)))
        else:
            subs.append(subspace_from_columns(np.eye(big_m, dtype=np.int64)[:, cols], 1))
    stacked = np.hstack([s.basis_raw for s in subs]).astype(np.float64)
    assume(np.linalg.matrix_rank(stacked) == big_m)
    return make_fusion_frame(subs)


@settings(max_examples=150, deadline=None)
@given(small_fusion_frames())
def test_block_gram_certificate_matches_pairwise_distances_on_random_frames(ff):
    assert_certificate_matches_pairs(ff)
