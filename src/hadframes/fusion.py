"""Subspaces, fusion frames, chordal distances, and exact tightness checks.

A fusion frame of L subspaces of F^M is stored as one read-only integer
matrix B of size M x sum_i d_i, its ``dims`` d_i and one rational scale
s_i per subspace: subspace i is spanned by the next d_i columns B_i of B,
and sqrt(s_i) B_i is an orthonormal basis of it. Every size is read from
the matrix: M is its row count. A ``Subspace`` is likewise only a basis
and a scale, its dimensions the basis's shape, and ``subspaces`` hands out
each B_i as a column view of B. Every check reads B in place:

- orthonormality, B_i^T B_i = I / s_i, is one stacked product per distinct
  dimension;
- tightness, sum_i s_i B_i B_i^T = A I, is one integer product over the
  common denominator q of the scales, s_i = p_i / q: B diag(p) B^T, which
  is B B^T when all scales agree. ``FusionFrame.bound_A`` forms it once per
  object and keeps the result, which the spanning proof, the certificate,
  the row criterion (lemma_row_check), tight reconstruction and the
  channel all read;
- the pairwise traces tr(P_i P_j) = s_i s_j ||B_i^T B_j||_F^2 come from
  the one block Gram B^T B.

Constructors check only what the types require: ``fusion_frame_from_columns``
that every scaled basis is orthonormal and that the subspaces span F^M (and
``frames.frame_from_integer_columns`` the same two, one column per line),
``subspace_from_columns`` the first for one subspace. Tightness,
equi-distance and optimality are proved by ``equidistance_certificate``,
from the matrix alone, whichever constructor made it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
)


@dataclass(frozen=True, eq=False)
class Subspace:
    """m-dimensional subspace of F^M: an integer basis and its scale, with
    sqrt(scale_sq) times the basis exactly orthonormal. The sizes are read
    from the M x m basis."""

    basis_raw: np.ndarray
    scale_sq: Fraction

    ambient_dim = property(lambda self: self.basis_raw.shape[0])
    dim = property(lambda self: self.basis_raw.shape[1])


@dataclass(frozen=True, eq=False)
class FusionFrame:
    """Subspaces spanning F^M, as one read-only integer matrix.

    ``basis_raw`` is M x sum(dims): subspace i is spanned by its next
    ``dims[i]`` columns, scaled by sqrt(``scales[i]``). A frame of unit
    vectors is the case where every dim is 1 and all subspaces share one
    scale: ``frames.ScaledFrame`` is this type, the fusion frame of its
    lines.

    The object records no property beyond spanning; every claim about it,
    including the Grassmannian one, is proved by ``equidistance_certificate``.
    The one value it keeps is ``bound_A``, which it computes from its own
    read-only matrix on first use; no caller can supply it.
    """

    basis_raw: np.ndarray
    dims: tuple[int, ...]
    scales: tuple[Fraction, ...]

    @property
    def ambient_dim(self) -> int:
        return self.basis_raw.shape[0]

    @property
    def subspaces(self) -> tuple[Subspace, ...]:
        """Every subspace, its basis a column view of ``basis_raw``."""
        ends = np.cumsum(self.dims).tolist()
        return tuple(
            Subspace(self.basis_raw[:, end - d:end], scale)
            for d, end, scale in zip(self.dims, ends, self.scales)
        )

    @cached_property
    def bound_A(self) -> Fraction | None:
        """A if sum_i P_i == A * I exactly, else None; computed once.

        q * sum_i P_i is the integer matrix B diag(p) B^T of the module
        docstring, one product of the stored matrix.
        """
        p, q = _weights(self)
        b = self.basis_raw
        weighted = b if set(p) == {1} else b * np.repeat(np.array(p, dtype=object), self.dims)
        c = identity_multiple(checked_matmul(weighted, b.T))
        return None if c is None else Fraction(c, q)


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


def _orthonormal_columns(basis_raw, dims, scales) -> tuple[np.ndarray, tuple, tuple]:
    """The read-only int64 matrix, dims and scales of subspaces whose scaled
    bases are exactly orthonormal.

    The Grams B_i^T B_i of all subspaces of one dimension d come from one
    stacked product. Each must be c_i I with c_i s_i = 1; the first entry
    off it, in subspace order, is the witness.
    """
    b = as_int_matrix(basis_raw, name="basis")
    big_m, n = b.shape
    dims = tuple(map(operator.index, dims))
    scales = tuple(as_fraction(s) for s in scales)
    if not dims or min(dims) < 1 or sum(dims) != n or len(scales) != len(dims):
        raise ValidationError(f"subspace dimensions must be positive, one scale each,"
                              f" and add up to the column count {n}")
    if min(scales) <= 0:
        raise ValidationError(f"scale_sq must be positive, got {min(scales)}")
    if max(dims) > big_m:
        raise ValidationError(f"subspace dimension {max(dims)} exceeds ambient {big_m}")
    starts = np.cumsum((0, *dims[:-1]))
    witnesses = []
    for d in set(dims):
        idx = np.flatnonzero(np.array(dims) == d)
        every = len(idx) == len(dims)  # then the blocks are a view: no column is gathered
        cols = b.reshape(big_m, -1, d) if every else b[:, starts[idx, None] + np.arange(d)]
        blocks = cols.transpose(1, 0, 2)  # (L_d, M, d)
        g = checked_matmul(blocks.transpose(0, 2, 1), blocks)
        bad = g != g[:, :1, :1] * np.eye(d, dtype=g.dtype)
        bad[:, 0, 0] = [int(c) * scales[i] != 1 for c, i in zip(g[:, 0, 0], idx)]
        if bad.any():
            t, j, k = np.argwhere(bad)[0]
            witnesses.append((idx[t], j, k, int(g[t, j, k])))
    if witnesses:
        i, j, k, inner = min(witnesses)
        raise ValidationError(
            f"subspace {i}: columns {j},{k} have inner product {inner} * {scales[i]}"
            f" != {int(j == k)}: basis is not orthonormal under the scale"
        )
    b = b.copy()
    b.setflags(write=False)
    return b, dims, scales


def subspace_from_columns(basis_raw, scale_sq) -> Subspace:
    """Validate exact orthonormality of the scaled columns and wrap them."""
    b = as_int_matrix(basis_raw, name="basis")
    b, _, (scale,) = _orthonormal_columns(b, (b.shape[1],), (scale_sq,))
    return Subspace(b, scale)


def fusion_frame_from_columns(basis_raw, dims, scales) -> FusionFrame:
    """Validate and wrap an integer matrix as subspaces spanning F^M.

    Subspace i is spanned by the next ``dims[i]`` columns, and scaled by
    sqrt(``scales[i]``) they must be orthonormal.
    """
    return _spanning(FusionFrame(*_orthonormal_columns(basis_raw, dims, scales)))


def _spanning(ff: FusionFrame) -> FusionFrame:
    """``ff``, once its subspaces are proved to span F^M.

    A tight frame's projection sum A * I with A > 0 is invertible, which
    proves spanning without the rank computation.
    """
    if ff.bound_A is None and int_rank(ff.basis_raw) < ff.ambient_dim:
        raise ValidationError("subspaces do not jointly span the ambient space")
    return ff


def make_fusion_frame(subspaces: Sequence[Subspace]) -> FusionFrame:
    """Validate a nonempty spanning collection of subspaces of one space."""
    subs = tuple(subspaces)
    if not subs:
        raise ValidationError("fusion frame needs at least one subspace")
    big_m = subs[0].ambient_dim
    for i, s in enumerate(subs):
        if s.ambient_dim != big_m:
            raise ValidationError(f"subspace {i} lives in F^{s.ambient_dim}, expected F^{big_m}")
    return fusion_frame_from_columns(
        np.hstack([s.basis_raw for s in subs]),
        [s.dim for s in subs],
        [s.scale_sq for s in subs],
    )


def chordal_dist_sq(s1: Subspace, s2: Subspace) -> Fraction:
    """Exact squared chordal distance m - tr(P1 @ P2), in [0, m].

    tr(P1 P2) = scale1 * scale2 * ||B1.T @ B2||_F^2, which avoids the
    M x M projection matrices.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValidationError(f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}")
    if s1.dim != s2.dim:
        raise ValidationError(f"chordal distance needs equal dimensions, got {s1.dim} and {s2.dim}")
    g = checked_matmul(s1.basis_raw.T, s2.basis_raw).astype(object)
    return s1.dim - s1.scale_sq * s2.scale_sq * int((g * g).sum())


def _weights(ff: FusionFrame) -> tuple[list[int], int]:
    # Integer weights p_i and the common denominator q with scale_i = p_i / q.
    q = math.lcm(*(s.denominator for s in ff.scales))
    return [s.numerator * (q // s.denominator) for s in ff.scales], q


def fusion_tight(ff: FusionFrame) -> tuple[bool, Fraction | None]:
    """Decide sum_i P_i == A * I exactly; return A when tight.

    Reads ``ff.bound_A``, so the product is formed at most once per object.
    """
    return ff.bound_A is not None, ff.bound_A


def lemma_row_check(ff: FusionFrame) -> tuple[bool, Fraction | None]:
    """Row criterion: stack every scaled basis vector as a column and test
    whether the rows of the stacked matrix are pairwise orthogonal with one
    common squared norm, A. That is the statement stacked @ stacked.T ==
    A * I, and stacked @ stacked.T is the sum of the projections, so the
    check holds exactly when the fusion frame is tight with bound A.

    It reads the same ``bound_A`` as fusion_tight, so the two always agree;
    a failed row check proves non-tightness.
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
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (n, m)):
        raise ValidationError("n and m must be integers")
    n, m = int(n), int(m)
    if m < 0 or m >= n:
        raise ValidationError(f"need n > m >= 0, got n={n}, m={m}")
    w = build_walsh(n)
    big_m = (1 << n) - (1 << m)
    n_sub = 1 << (n - m)
    # Column i + k * 2^(n-m) of the dropped rows becomes column i * 2^m + k.
    dropped = w.entries[1 << m:, :].reshape(big_m, 1 << m, n_sub)
    return fusion_frame_from_columns(
        dropped.transpose(0, 2, 1).reshape(big_m, -1),
        (1 << m,) * n_sub,
        (Fraction(1, big_m),) * n_sub,
    )


def _pairwise_traces(ff: FusionFrame) -> tuple[np.ndarray, int]:
    # Integer L x L matrix t and denominator q with tr(P_i P_j) = t[i, j] / q,
    # for subspaces of one dimension d. The block Gram B^T B, reshaped to
    # (L, d, L, d), holds every B_i.T @ B_j; its squared Frobenius norms are
    # weighted by scale_i * scale_j = p_i * p_j / q over a common
    # denominator, so mixed scales take the same route.
    n_sub, d = len(ff.dims), ff.dims[0]
    g = checked_matmul(ff.basis_raw.T, ff.basis_raw)
    peak = max(int(g.max()), -int(g.min()))
    if g.dtype == object or peak * peak * d * d >= 1 << 63:
        g = g.astype(object)
    g *= g
    frob = g.reshape(n_sub, d, n_sub, d).sum(axis=(1, 3))
    p, q = _weights(ff)
    if set(p) != {1}:
        frob = np.outer(np.array(p, dtype=object), p) * frob.astype(object)
    return frob, q * q


def equidistance_certificate(ff: FusionFrame) -> FusionCertificate:
    """Prove tightness, equal dimensions, equal pairwise chordal distances,
    and from them optimality, in exact arithmetic on ``ff``'s matrix.

    The distances m - tr(P_i P_j) of every pair come from one block Gram
    (see chordal_dist_sq for the single-pair definition). ``grassmannian``
    is proved from these verdicts, not from where ``ff`` came from; see
    ``FusionCertificate`` for why they prove the simplex bound is met. A
    single subspace has no pair: it is not equi-distance, and the simplex
    bound, which needs L >= 2, is not met.
    """
    tight, bound = fusion_tight(ff)
    equal_dim = len(set(ff.dims)) == 1
    equi = False
    dist_sq: Fraction | None = None
    if equal_dim and len(ff.dims) > 1:
        traces, den = _pairwise_traces(ff)
        upper = traces[np.triu_indices(len(ff.dims), 1)]
        equi = bool((upper == upper[0]).all())
        if equi:
            dist_sq = ff.dims[0] - Fraction(int(upper[0]), den)
    return FusionCertificate(
        tight=tight,
        bound_A=bound,
        equal_dim=equal_dim,
        equi_distance=equi,
        dist_sq=dist_sq,
        grassmannian=tight and equal_dim and equi,
    )


def _analysis_map(raw: np.ndarray, dims, scales) -> np.ndarray:
    """Float analysis map phi = T^T of the matrix form: T is ``raw`` with the
    next ``dims[i]`` columns scaled by sqrt(``scales[i]``), so row r of phi is
    the scaled basis vector r and phi @ x holds every subspace's coordinates."""
    col_scale = np.repeat([math.sqrt(float(s)) for s in scales], dims)
    return (raw.astype(np.float64) * col_scale).T


def _vector(x, length: int, what: str, exact: bool) -> np.ndarray:
    # x flattened to float64, or to Fractions in exact mode, of ``length`` entries.
    v = np.asarray(x, dtype=object if exact else np.float64).reshape(-1)
    if v.size != length:
        raise ValidationError(f"{what} must have length {length}, got {v.size}")
    return np.array([as_fraction(e) for e in v], dtype=object) if exact else v


def fusion_analyze(ff: FusionFrame, x, *, exact: bool = False) -> list[np.ndarray]:
    """Coordinates of x in every subspace, as the channel sends them.

    Piece i has ``dims[i]`` entries. Float mode returns sqrt(s_i) B_i^T x,
    the coordinates in the orthonormal basis sqrt(s_i) B_i, one piece of
    ``_analysis_map(...) @ x``. Exact mode returns Fractions in units of the
    basis scale, B_i^T x, so that the float piece is the exact one times
    sqrt(s_i); fusion_reconstruct_tight(exact=True) expects exactly these
    units and the round trip is exact.
    """
    v = _vector(x, ff.ambient_dim, "signal", exact)
    if exact:
        y = ff.basis_raw.T.astype(object) @ v
    else:
        y = _analysis_map(ff.basis_raw, ff.dims, ff.scales) @ v
    return np.split(y, np.cumsum(ff.dims)[:-1])


def fusion_reconstruct_tight(ff: FusionFrame, pieces, *, exact: bool = False) -> np.ndarray:
    """Reconstruct x on a tight fusion frame from the coordinates that
    ``fusion_analyze`` returns, in its units; piece i has ``dims[i]`` entries.

    Float pieces c_i = sqrt(s_i) B_i^T x give x = (1/A) sum_i sqrt(s_i) B_i c_i,
    which is phi^T c / A for their concatenation c. Exact pieces
    u_i = B_i^T x give x = (1/A) sum_i s_i B_i u_i, in Fractions.
    """
    tight, bound = fusion_tight(ff)
    if not tight:
        raise ValidationError("input is not tight; least-squares is required")
    ps = [np.ravel(p) for p in pieces]
    if len(ps) != len(ff.dims):
        raise ValidationError(f"expected {len(ff.dims)} pieces, got {len(ps)}")
    for i, (p, d) in enumerate(zip(ps, ff.dims)):
        if p.size != d:
            raise ValidationError(f"piece {i} must have {d} coordinates, got {p.size}")
    c = _vector(np.concatenate(ps), sum(ff.dims), "coordinates", exact)
    if exact:
        weights = np.repeat(np.array(ff.scales, dtype=object), ff.dims)
        return (ff.basis_raw.astype(object) @ (c * weights)) * (1 / bound)
    return _analysis_map(ff.basis_raw, ff.dims, ff.scales).T @ c / float(bound)
