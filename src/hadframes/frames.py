"""Unit-norm frames with exact rational certificates.

A frame is stored as an integer matrix of unscaled column vectors plus a
single rational ``scale_sq``; frame vector i is column i times
sqrt(scale_sq). Gram entries, tightness bounds, coherence, and the Welch
bound are all rational in the squared quantities, so every certificate is
decided by exact integer and Fraction arithmetic with no square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .hadamard import SignMatrix, require_hadamard
from .intlinalg import (
    as_fraction,
    as_int_matrix,
    checked_matmul,
    column_norms_sq,
    identity_multiple,
    int_rank,
    scaled_fraction_matrix,
)


@dataclass(frozen=True, eq=False)
class ScaledFrame:
    """N unit-norm vectors in F^M: integer columns sharing one rational scale."""

    ambient_dim: int
    count: int
    raw: np.ndarray
    scale_sq: Fraction


@dataclass(frozen=True)
class CoherenceReport:
    """Largest squared pairwise correlation and every pair achieving it."""

    max_corr_sq: Fraction
    achieving_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FrameCertificate:
    """Exact frame verdicts; rational fields are present iff their flag holds.

    ``grassmannian`` is tight and equiangular, proved on the frame itself.
    For unit-norm vectors it implies Welch equality: tightness fixes
    sum_{i != j} |<e_i, e_j>|^2 = N^2/M - N, and equal angles make every
    squared correlation equal to its mean over the N(N - 1) ordered pairs,
    which is the Welch bound. So the frame has the least coherence of any
    N unit vectors in F^M.
    """

    tight: bool
    bound_A: Fraction | None
    equiangular: bool
    alpha_sq: Fraction | None
    welch_equality: bool
    grassmannian: bool


def frame_from_integer_columns(raw, scale_sq) -> ScaledFrame:
    """Validate and wrap integer columns as a unit-norm spanning frame."""
    a = as_int_matrix(raw, name="frame matrix")
    scale = as_fraction(scale_sq)
    if scale <= 0:
        raise ValidationError(f"scale_sq must be positive, got {scale}")
    m, n = a.shape
    for i, nrm in enumerate(column_norms_sq(a)):
        if int(nrm) * scale != 1:
            raise ValidationError(
                f"column {i} has squared norm {int(nrm)} * {scale} != 1"
            )
    # A frame operator c * I with c > 0 is invertible, which proves spanning
    # without the rank computation.
    c = identity_multiple(checked_matmul(a, a.T))
    if (c is None or c <= 0) and (n < m or int_rank(a) < m):
        raise ValidationError(
            f"vectors do not span: rank < ambient dimension {m} (count {n})"
        )
    a = a.copy()
    a.setflags(write=False)
    return ScaledFrame(ambient_dim=m, count=n, raw=a, scale_sq=scale)


def _raw_gram(f: ScaledFrame) -> np.ndarray:
    return checked_matmul(f.raw.T, f.raw)


def gram(f: ScaledFrame) -> np.ndarray:
    """N x N matrix of exact pairwise inner products, as Fractions."""
    return scaled_fraction_matrix(_raw_gram(f), f.scale_sq)


def _off_diagonal_abs(g: np.ndarray) -> np.ndarray:
    # |g| with -1 on the diagonal, below every off-diagonal value.
    absg = np.abs(g)
    np.fill_diagonal(absg, -1)
    return absg


def _corr_sq(entry: int, f: ScaledFrame) -> Fraction:
    return Fraction(entry * entry) * f.scale_sq * f.scale_sq


def coherence(f: ScaledFrame) -> CoherenceReport:
    """Maximal squared frame correlation over all pairs, exact."""
    if f.count < 2:
        raise ValidationError("coherence needs at least two frame vectors")
    absg = _off_diagonal_abs(_raw_gram(f))
    peak = int(absg.max())
    pairs = tuple(
        (int(i), int(j)) for i, j in np.argwhere(absg == peak) if i < j
    )
    return CoherenceReport(max_corr_sq=_corr_sq(peak, f), achieving_pairs=pairs)


def welch_bound_sq(count: int, dim: int) -> Fraction:
    """(N - M) / (M (N - 1)): squared lower bound on the maximal correlation."""
    n, m = int(count), int(dim)
    if m < 1 or n < 2:
        raise ValidationError(f"need count >= 2 and dim >= 1, got N={n}, M={m}")
    if n < m:
        raise ValidationError(f"count {n} below dimension {m}")
    return Fraction(n - m, m * (n - 1))


def is_tight(f: ScaledFrame) -> tuple[bool, Fraction | None]:
    """Decide raw @ raw.T * scale_sq == A * I exactly; return A when tight."""
    s = checked_matmul(f.raw, f.raw.T)
    c = identity_multiple(s)
    if c is None:
        return False, None
    return True, Fraction(c) * f.scale_sq


def _equiangular(absg: np.ndarray, f: ScaledFrame) -> tuple[bool, Fraction | None]:
    vals = absg[absg >= 0]
    if not (vals == vals[0]).all():
        return False, None
    return True, _corr_sq(int(vals[0]), f)


def etf_from_hadamard(h: SignMatrix) -> ScaledFrame:
    """Equiangular tight frame from a normalized Hadamard matrix.

    Deleting the all-ones first row of an order-n Hadamard matrix leaves n
    columns in F^(n-1); scaled by 1/sqrt(n-1) they form a unit-norm frame
    that is tight with bound n/(n-1) and equiangular with correlation
    1/(n-1), which meets the Welch bound with equality. The input is proved
    Hadamard here, once, by ``require_hadamard``.
    """
    h = require_hadamard(h)
    n = h.order
    if n < 2:
        raise ValidationError("need order >= 2 to form a frame")
    if (h.entries[0] != 1).any():
        raise ValidationError(
            "first row is not all ones; apply normalize_first_row first"
        )
    raw = h.entries[1:, :].astype(np.int64)
    return frame_from_integer_columns(raw, Fraction(1, n - 1))


def grassmannian_certificate(f: ScaledFrame) -> FrameCertificate:
    """Prove tightness, equiangularity, and Welch equality exactly on ``f``.

    ``grassmannian`` (tight and equiangular) is the minimal-coherence claim;
    none is made when either verdict is false. The N x N Gram is formed
    once and read by both the equiangularity and Welch checks.
    """
    if f.count < 2:
        raise ValidationError("certificate needs at least two frame vectors")
    tight, bound = is_tight(f)
    absg = _off_diagonal_abs(_raw_gram(f))
    equi, alpha_sq = _equiangular(absg, f)
    welch_eq = _corr_sq(int(absg.max()), f) == welch_bound_sq(f.count, f.ambient_dim)
    return FrameCertificate(
        tight=tight,
        bound_A=bound,
        equiangular=equi,
        alpha_sq=alpha_sq,
        welch_equality=welch_eq,
        grassmannian=tight and equi,
    )


def synthesis_matrix(f: ScaledFrame) -> np.ndarray:
    """Float M x N matrix whose columns are the scaled frame vectors."""
    return f.raw.astype(np.float64) * math.sqrt(float(f.scale_sq))


def _exact_vector(x, length: int, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=object).reshape(-1)
    if v.size != length:
        raise ValidationError(f"{what} must have length {length}, got {v.size}")
    return np.array([as_fraction(e) for e in v], dtype=object)


def analyze(f: ScaledFrame, x, *, exact: bool = False) -> np.ndarray:
    """Frame coefficients of x.

    Float mode returns the inner products <x, e_i>. Exact mode returns
    Fractions in units of the vector scale: u_i = <x, column i>, so that
    <x, e_i> = u_i * sqrt(scale_sq); reconstruct_tight(exact=True) expects
    exactly these units and the round trip is exact.
    """
    if exact:
        xv = _exact_vector(x, f.ambient_dim, "signal")
        return f.raw.T.astype(object) @ xv
    xf = np.asarray(x, dtype=np.float64).reshape(-1)
    if xf.size != f.ambient_dim:
        raise ValidationError(f"signal must have length {f.ambient_dim}")
    return synthesis_matrix(f).T @ xf


def reconstruct_tight(f: ScaledFrame, coefficients, *, exact: bool = False) -> np.ndarray:
    """Reconstruct x = (1/A) * sum_i c_i e_i on a tight frame."""
    tight, bound = is_tight(f)
    if not tight:
        raise ValidationError("frame is not tight; least-squares is required")
    if exact:
        u = _exact_vector(coefficients, f.count, "coefficients")
        factor = f.scale_sq / bound
        return (f.raw.astype(object) @ u) * factor
    c = np.asarray(coefficients, dtype=np.float64).reshape(-1)
    if c.size != f.count:
        raise ValidationError(f"coefficients must have length {f.count}")
    return (synthesis_matrix(f) @ c) / float(bound)


def float_coherence_sq(vectors) -> float:
    """Largest squared pairwise correlation of unit-normalized columns."""
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] < 2:
        raise ValidationError("expected an M x N matrix with N >= 2")
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    g = np.abs(v.T @ v)
    np.fill_diagonal(g, 0.0)
    return float(g.max() ** 2)
