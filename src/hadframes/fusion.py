"""Subspaces, fusion frames, chordal distances, and exact tightness checks.

A subspace is stored as integer basis columns plus a rational scale making
them exactly orthonormal. Tightness of a fusion frame (sum of projections
equal to A * I) is decided by one exact product per distinct scale: the
bases of that scale stacked side by side, times their transpose, which is
the sum of their B_i @ B_i.T. The row criterion (lemma_row_check) is the
same test read row by row. Pairwise chordal distances, of one pair or of a
whole frame, come from one block Gram of the stacked bases.

Constructors check only what the types require: ``subspace_from_columns``
that the scaled basis is orthonormal, ``make_fusion_frame`` that the
subspaces share one ambient space and span it. Tightness, equi-distance and
optimality are proved by ``equidistance_certificate``, from the subspaces
alone, whichever constructor made them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .hadamard import build_walsh
from .intlinalg import (
    as_fraction,
    as_int_matrix,
    checked_matmul,
    identity_multiple,
    int_rank,
    scaled_fraction_matrix,
)


@dataclass(frozen=True, eq=False)
class Subspace:
    """m-dimensional subspace of F^M with an exactly orthonormal scaled basis."""

    ambient_dim: int
    dim: int
    basis_raw: np.ndarray
    scale_sq: Fraction


@dataclass(frozen=True, eq=False)
class FusionFrame:
    """Ordered collection of subspaces spanning F^M.

    The object records no property beyond spanning; every claim about it,
    including the Grassmannian one, is proved by ``equidistance_certificate``.
    """

    ambient_dim: int
    subspaces: tuple[Subspace, ...]


@dataclass(frozen=True)
class FusionCertificate:
    """Exact fusion-frame verdicts; rational fields present iff their flag holds.

    ``grassmannian`` is tight and equal_dim and equi_distance, which proves
    that the L subspaces of dimension d are an optimal packing in F^M: their
    smallest squared chordal distance meets the simplex bound
    d(M - d)/M * L/(L - 1) (Conway, Hardin & Sloane, "Packing lines,
    planes, etc.", 1996). For any L such subspaces,
    ||sum_i P_i - (Ld/M) I||_F^2 >= 0 gives
    sum_{i != j} tr(P_i P_j) >= L^2 d^2 / M - L d, so the mean pairwise
    distance d - tr(P_i P_j) is at most the bound, and the smallest at
    most the mean. A tight frame has sum_i P_i = A I with A = Ld/M, so
    ||sum_i P_i||_F^2 = A^2 M fixes the sum of all pairwise traces and the
    mean equals the bound; equal distances then all equal it. So
    ``dist_sq`` equals the simplex bound exactly when ``grassmannian`` holds.
    """

    tight: bool
    bound_A: Fraction | None
    equal_dim: bool
    equi_distance: bool
    dist_sq: Fraction | None
    grassmannian: bool


def subspace_from_columns(basis_raw, scale_sq) -> Subspace:
    """Validate exact orthonormality of the scaled columns and wrap them."""
    b = as_int_matrix(basis_raw, name="basis")
    scale = as_fraction(scale_sq)
    if scale <= 0:
        raise ValidationError(f"scale_sq must be positive, got {scale}")
    big_m, m = b.shape
    if m > big_m:
        raise ValidationError(f"subspace dimension {m} exceeds ambient {big_m}")
    g = checked_matmul(b.T, b)
    for i in range(m):
        for j in range(i, m):
            want = 1 if i == j else 0
            if int(g[i, j]) * scale != want:
                raise ValidationError(
                    f"columns {i},{j} have inner product {int(g[i, j])} * {scale}"
                    f" != {want}: basis is not orthonormal under the scale"
                )
    b = b.copy()
    b.setflags(write=False)
    return Subspace(ambient_dim=big_m, dim=m, basis_raw=b, scale_sq=scale)


def projection(s: Subspace) -> np.ndarray:
    """Orthogonal projection onto the subspace as an exact Fraction matrix."""
    return scaled_fraction_matrix(
        checked_matmul(s.basis_raw, s.basis_raw.T), s.scale_sq
    )


def chordal_dist_sq(s1: Subspace, s2: Subspace) -> Fraction:
    """Exact squared chordal distance m - tr(P1 @ P2), in [0, m].

    tr(P1 P2) = scale1 * scale2 * ||B1.T @ B2||_F^2 comes from
    ``_pairwise_traces`` of the pair, avoiding the M x M projection matrices.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValidationError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    if s1.dim != s2.dim:
        raise ValidationError(
            f"chordal distance needs equal dimensions, got {s1.dim} and {s2.dim}"
        )
    traces, den = _pairwise_traces([s1, s2])
    return s1.dim - Fraction(int(traces[0, 1]), den)


def chordal_dist(s1: Subspace, s2: Subspace) -> float:
    """Float square root of chordal_dist_sq, for reporting."""
    return math.sqrt(float(chordal_dist_sq(s1, s2)))


def make_fusion_frame(subspaces: Sequence[Subspace]) -> FusionFrame:
    """Validate a nonempty spanning collection of subspaces of one space."""
    subs = tuple(subspaces)
    if not subs:
        raise ValidationError("fusion frame needs at least one subspace")
    big_m = subs[0].ambient_dim
    for i, s in enumerate(subs):
        if s.ambient_dim != big_m:
            raise ValidationError(
                f"subspace {i} lives in F^{s.ambient_dim}, expected F^{big_m}"
            )
    # A tight frame's projection sum A * I with A > 0 is invertible, which
    # proves spanning without the rank computation.
    bound = _stacked_identity_multiple(subs)
    if bound is None or bound <= 0:
        if int_rank(np.hstack([s.basis_raw for s in subs])) < big_m:
            raise ValidationError("subspaces do not jointly span the ambient space")
    return FusionFrame(ambient_dim=big_m, subspaces=subs)


def _rational_identity_multiple(parts: dict[Fraction, np.ndarray]) -> Fraction | None:
    scales = list(parts)
    if len(scales) == 1:
        c = identity_multiple(parts[scales[0]])
        return None if c is None else Fraction(c) * scales[0]
    total = sum(
        scaled_fraction_matrix(parts[sc], sc) for sc in scales
    )
    diag = np.diagonal(total)
    if not all(d == diag[0] for d in diag):
        return None
    off = np.array(total, copy=True)
    np.fill_diagonal(off, Fraction(0))
    if any(x != 0 for x in off.reshape(-1)):
        return None
    return diag[0]


def _stacked_identity_multiple(subs: Sequence[Subspace]) -> Fraction | None:
    # Per distinct scale, the bases stacked side by side times their
    # transpose is the integer sum of B_i @ B_i.T over that scale.
    by_scale: dict[Fraction, list[np.ndarray]] = {}
    for s in subs:
        by_scale.setdefault(s.scale_sq, []).append(s.basis_raw)
    row_grams = {}
    for sc, blocks in by_scale.items():
        stacked = np.hstack(blocks)
        row_grams[sc] = checked_matmul(stacked, stacked.T)
    return _rational_identity_multiple(row_grams)


def fusion_tight(ff: FusionFrame) -> tuple[bool, Fraction | None]:
    """Decide sum_i P_i == A * I exactly; return A when tight."""
    a = _stacked_identity_multiple(ff.subspaces)
    return (a is not None), a


def lemma_row_check(ff: FusionFrame) -> tuple[bool, Fraction | None]:
    """Row criterion: stack every scaled basis vector as a column and test
    whether the rows of the stacked matrix are pairwise orthogonal with one
    common squared norm, A. That is the statement stacked @ stacked.T ==
    A * I, and stacked @ stacked.T is the sum of the projections, so the
    check holds exactly when the fusion frame is tight with bound A.

    Per scale it computes the same stacked product as fusion_tight, so the
    two always agree; a failed row check proves non-tightness.
    """
    return fusion_tight(ff)


def build_gff(n: int, m: int) -> FusionFrame:
    """Equi-distance tight fusion frame from the sequency-ordered matrix W_n.

    Drops the first 2^m rows of W_n and groups the columns into 2^(n-m)
    subspaces of dimension 2^m in F^(2^n - 2^m): subspace i is spanned by
    columns i + k * 2^(n-m) for k = 0 .. 2^m - 1, each scaled by
    1/sqrt(2^n - 2^m). The result is tight with bound 2^n / (2^n - 2^m)
    and all pairwise squared chordal distances equal
    2^m - 2^m / (2^(n-m) - 1)^2, the simplex bound. Neither claim is
    recorded: ``equidistance_certificate`` proves both on the result.
    """
    if not isinstance(n, (int, np.integer)) or not isinstance(m, (int, np.integer)):
        raise ValidationError("n and m must be integers")
    n, m = int(n), int(m)
    if m < 0 or m >= n:
        raise ValidationError(f"need n > m >= 0, got n={n}, m={m}")
    w = build_walsh(n)
    dropped = w.base.entries[1 << m :, :].astype(np.int64)
    big_m = (1 << n) - (1 << m)
    n_sub = 1 << (n - m)
    scale = Fraction(1, big_m)
    subs = [
        subspace_from_columns(
            dropped[:, [i + k * n_sub for k in range(1 << m)]], scale
        )
        for i in range(n_sub)
    ]
    return make_fusion_frame(subs)


def _pairwise_traces(subs: Sequence[Subspace]) -> tuple[np.ndarray, int]:
    # Integer L x L matrix t and denominator q with tr(P_i P_j) = t[i, j] / q,
    # for subspaces of one dimension d. One block Gram of the stacked bases,
    # reshaped to (L, d, L, d), holds every B_i.T @ B_j; its squared
    # Frobenius norms are weighted by scale_i * scale_j = p_i * p_j / q
    # over a common denominator, so mixed scales take the same route.
    n_sub, d = len(subs), subs[0].dim
    stacked = np.hstack([s.basis_raw for s in subs])
    g = checked_matmul(stacked.T, stacked)
    peak = max(int(g.max()), -int(g.min()))
    if g.dtype == object or peak * peak * d * d >= 1 << 63:
        g = g.astype(object)
    g *= g
    frob = g.reshape(n_sub, d, n_sub, d).sum(axis=(1, 3))
    den = math.lcm(*(s.scale_sq.denominator for s in subs))
    p = np.array([s.scale_sq.numerator * (den // s.scale_sq.denominator) for s in subs],
                 dtype=object)
    return np.outer(p, p) * frob.astype(object), den * den


def equidistance_certificate(ff: FusionFrame) -> FusionCertificate:
    """Prove tightness, equal dimensions, equal pairwise chordal distances,
    and from them optimality, in exact arithmetic on ``ff``'s subspaces.

    The distances m - tr(P_i P_j) of every pair come from one block Gram
    (see chordal_dist_sq for the single-pair definition). ``grassmannian``
    is proved from these verdicts, not from where ``ff`` came from; see
    ``FusionCertificate`` for why they prove the simplex bound is met.
    """
    subs = ff.subspaces
    if len(subs) < 2:
        raise ValidationError("certificate needs at least two subspaces")
    tight, bound = fusion_tight(ff)
    equal_dim = len({s.dim for s in subs}) == 1
    equi = False
    dist_sq: Fraction | None = None
    if equal_dim:
        traces, den = _pairwise_traces(subs)
        upper = traces[np.triu_indices(len(subs), 1)]
        equi = bool((upper == upper[0]).all())
        if equi:
            dist_sq = subs[0].dim - Fraction(int(upper[0]), den)
    return FusionCertificate(
        tight=tight,
        bound_A=bound,
        equal_dim=equal_dim,
        equi_distance=equi,
        dist_sq=dist_sq,
        grassmannian=tight and equal_dim and equi,
    )


def _float_projection(s: Subspace) -> np.ndarray:
    b = s.basis_raw.astype(np.float64)
    return (b @ b.T) * float(s.scale_sq)


def fusion_analyze(ff: FusionFrame, x, *, exact: bool = False) -> list[np.ndarray]:
    """Project x onto every subspace; returns the list of pieces P_i @ x."""
    if exact:
        xv = np.array([as_fraction(e) for e in np.asarray(x, dtype=object).reshape(-1)], dtype=object)
        if xv.size != ff.ambient_dim:
            raise ValidationError(f"signal must have length {ff.ambient_dim}")
        return [
            (s.basis_raw.astype(object) @ (s.basis_raw.T.astype(object) @ xv))
            * s.scale_sq
            for s in ff.subspaces
        ]
    xf = np.asarray(x, dtype=np.float64).reshape(-1)
    if xf.size != ff.ambient_dim:
        raise ValidationError(f"signal must have length {ff.ambient_dim}")
    return [_float_projection(s) @ xf for s in ff.subspaces]


def fusion_reconstruct_tight(ff: FusionFrame, pieces, *, exact: bool = False) -> np.ndarray:
    """Reconstruct x = (1/A) * sum_i piece_i on a tight fusion frame."""
    tight, bound = fusion_tight(ff)
    if not tight:
        raise ValidationError("fusion frame is not tight; least-squares is required")
    ps = list(pieces)
    if len(ps) != len(ff.subspaces):
        raise ValidationError(
            f"expected {len(ff.subspaces)} pieces, got {len(ps)}"
        )
    if exact:
        total = np.array([Fraction(0)] * ff.ambient_dim, dtype=object)
        for p in ps:
            pv = np.asarray(p, dtype=object).reshape(-1)
            if pv.size != ff.ambient_dim:
                raise ValidationError("piece has wrong ambient dimension")
            total = total + np.array([as_fraction(e) for e in pv], dtype=object)
        return total * (1 / bound)
    total = np.zeros(ff.ambient_dim, dtype=np.float64)
    for p in ps:
        pf = np.asarray(p, dtype=np.float64).reshape(-1)
        if pf.size != ff.ambient_dim:
            raise ValidationError("piece has wrong ambient dimension")
        total += pf
    return total / float(bound)
