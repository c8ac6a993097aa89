"""Unit-norm frames: the fusion frames of their lines.

A frame of N unit vectors in F^M is stored as an integer matrix of
unscaled columns plus one rational ``scale_sq``; frame vector e_i is
column i times sqrt(scale_sq). Its lines span(e_i) are a fusion frame of N
subspaces of dimension 1 with the same matrix and every scale
``scale_sq`` (Kutyniok, Pezeshki, Calderbank & Liu, ACHA 2009), and that
is what a frame is here: ``ScaledFrame`` is a ``fusion.FusionFrame`` with
no field of its own, whose ``raw``, ``count`` and ``scale_sq`` read its
``basis_raw``, ``dims`` and ``scales``. Every numeric function here calls
its ``fusion.py`` twin on the frame itself:

- validity is the fusion constructor's two checks, one column per line:
  unit norm is orthonormality of each line's basis, and spanning is its
  spanning proof;
- tightness is ``bound_A``, formed once by that proof and read again by
  ``is_tight`` (another name of ``fusion_tight``), the certificate, tight
  reconstruction and the channel;
- the certificate is the lines' ``equidistance_certificate`` under frame
  names: equal angles are equal distances, and the squared correlation
  |<e_i, e_j>|^2 = tr(P_i P_j) is 1 minus the lines' squared chordal
  distance;
- coherence reads the lines' pairwise traces tr(P_i P_j);
- analysis and tight reconstruction are ``fusion_analyze`` and
  ``fusion_reconstruct_tight``, one coordinate per line;
- the channel sends a frame as its lines.

An equiangular tight frame is the equi-distance tight fusion frame of its
lines, and the Welch bound is the simplex bound at d = 1.

What stays here: the ``ScaledFrame`` type and its constructor (its sizes,
like every fusion frame's, are read from its matrix), the certificate and
coherence records, the signed Gram ``gram``, ``welch_bound_sq``, the ETF
of a Hadamard matrix and the float diagnostic ``float_coherence_sq``. Every verdict is decided by exact integer and
Fraction arithmetic with no square roots. A frame keeps its own kind
wherever the package dispatches on the exact type: it is written, read,
certified and simulated as a frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .fusion import (
    FusionFrame,
    _pairwise_traces,
    equidistance_certificate,
    fusion_analyze,
    fusion_reconstruct_tight,
    fusion_tight,
)
from .hadamard import SignMatrix, require_hadamard
from .intlinalg import checked_matmul


class ScaledFrame(FusionFrame):
    """N unit-norm vectors in F^M: integer columns sharing one rational
    scale, stored as the fusion frame of their lines. ``raw`` is the
    matrix, ``count`` the number N of lines and ``scale_sq`` their scale."""

    raw = property(lambda self: self.basis_raw)
    count = property(lambda self: len(self.dims))
    scale_sq = property(lambda self: self.scales[0])


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

    ``welch_equality`` says that the largest squared correlation equals the
    Welch bound, and it holds exactly when the frame is equiangular with
    ``alpha_sq`` equal to the bound. By the frame potential,
    ||sum_i e_i e_i^T - (N/M) I||_F^2 >= 0 gives
    sum_{i != j} |<e_i, e_j>|^2 >= N^2/M - N for any N unit vectors, so the
    mean squared correlation over the ordered pairs is at least the bound;
    the largest equals the bound only if it equals that mean, that is, only
    if every squared correlation equals it.

    The Welch bound is the simplex bound of ``fusion.FusionCertificate`` at
    d = 1: the lines' squared chordal distance is 1 - |<e_i, e_j>|^2, and
    (M - 1)/M * N/(N - 1) = 1 - (N - M)/(M(N - 1)).
    """

    tight: bool
    bound_A: Fraction | None
    equiangular: bool
    alpha_sq: Fraction | None
    welch_equality: bool
    grassmannian: bool


def frame_from_integer_columns(raw, scale_sq) -> ScaledFrame:
    """Validate and wrap integer columns as a unit-norm spanning frame: the
    fusion constructor's checks on one column per line."""
    shape = np.shape(raw)
    count = shape[1] if len(shape) == 2 else 0  # the constructor refuses any other shape
    return ScaledFrame(raw, (1,) * count, (scale_sq,) * count)


def gram(f: ScaledFrame) -> np.ndarray:
    """N x N matrix of exact pairwise inner products, as Fractions."""
    return checked_matmul(f.raw.T, f.raw).astype(object) * f.scale_sq


def coherence(f: ScaledFrame) -> CoherenceReport:
    """Maximal squared frame correlation over all pairs, exact: the largest
    of the lines' pairwise traces |<e_i, e_j>|^2 = tr(P_i P_j)."""
    if f.count < 2:
        raise ValidationError("coherence needs at least two frame vectors")
    traces, den = _pairwise_traces(f)
    iu = np.triu_indices(f.count, 1)
    upper = traces[iu]
    peak = upper.max()
    at = np.flatnonzero(upper == peak)
    pairs = tuple(zip(iu[0][at].tolist(), iu[1][at].tolist()))
    return CoherenceReport(max_corr_sq=Fraction(int(peak), den), achieving_pairs=pairs)


def welch_bound_sq(count: int, dim: int) -> Fraction:
    """(N - M) / (M (N - 1)): squared lower bound on the maximal correlation."""
    n, m = int(count), int(dim)
    if m < 1 or n < 2:
        raise ValidationError(f"need count >= 2 and dim >= 1, got N={n}, M={m}")
    if n < m:
        raise ValidationError(f"count {n} below dimension {m}")
    return Fraction(n - m, m * (n - 1))


# A frame is tight, sum_i e_i e_i^T == A * I, when the fusion frame of its lines is.
is_tight = fusion_tight


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
    return frame_from_integer_columns(h.entries[1:, :], Fraction(1, n - 1))


def grassmannian_certificate(f: ScaledFrame) -> FrameCertificate:
    """Prove tightness, equiangularity, and Welch equality exactly on ``f``:
    its lines' ``equidistance_certificate`` under frame names.

    The lines are equi-distant exactly when the frame is equiangular, with
    ``alpha_sq`` = 1 - ``dist_sq``, and ``grassmannian`` (tight and
    equiangular) is the lines' verdict; none is claimed when either is
    false. Welch equality is ``alpha_sq`` equal to the Welch bound, exact by
    the frame-potential argument in ``FrameCertificate``. A single vector
    has no pair: it is not equiangular, and the Welch bound, which needs
    N >= 2, is not met.
    """
    lines = equidistance_certificate(f)
    alpha_sq = None if lines.dist_sq is None else 1 - lines.dist_sq
    return FrameCertificate(
        tight=lines.tight,
        bound_A=lines.bound_A,
        equiangular=lines.equi_distance,
        alpha_sq=alpha_sq,
        welch_equality=alpha_sq is not None
        and alpha_sq == welch_bound_sq(f.count, f.ambient_dim),
        grassmannian=lines.grassmannian,
    )


def analyze(f: ScaledFrame, x, *, exact: bool = False) -> np.ndarray:
    """Frame coefficients of x: ``fusion_analyze`` of the lines, joined.

    Float mode returns the inner products <x, e_i>. Exact mode returns
    Fractions in units of the vector scale: u_i = <x, column i>, so that
    <x, e_i> = u_i * sqrt(scale_sq); reconstruct_tight(exact=True) expects
    exactly these units and the round trip is exact.
    """
    return np.concatenate(fusion_analyze(f, x, exact=exact))


def reconstruct_tight(f: ScaledFrame, coefficients, *, exact: bool = False) -> np.ndarray:
    """Reconstruct x = (1/A) * sum_i c_i e_i on a tight frame:
    ``fusion_reconstruct_tight`` of the lines, one coefficient per line."""
    return fusion_reconstruct_tight(f, np.reshape(coefficients, (-1, 1)), exact=exact)


def float_coherence_sq(vectors) -> float:
    """Largest squared pairwise correlation of unit-normalized columns."""
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] < 2:
        raise ValidationError("expected an M x N matrix with N >= 2")
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    g = np.abs(v.T @ v)
    np.fill_diagonal(g, 0.0)
    return float(g.max() ** 2)
