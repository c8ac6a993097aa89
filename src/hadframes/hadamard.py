"""Hadamard matrices, sequency (Walsh) ordering, and the fast transform.

Constructors build and certificates prove. ``SignMatrix`` holds only its
matrix and checks only what the type requires: a square matrix of order at
least 1 with entries +-1; its order is read from the matrix. A
``WalshMatrix`` is a ``SignMatrix`` whose order is a power of two, with no
field of its own: its ``log_order`` is read from the matrix too.
``build_sylvester`` and ``build_walsh`` return their matrices unproved, and
no object records that it was once proved. A Hadamard claim is proved where
it is made: in the ``hadamard`` certificate of ``validate_hadamard``, and by
``require_hadamard`` for a caller that needs a Hadamard input.

A Hadamard matrix of order n is a +-1 matrix H with H @ H.T == n * I,
proved here exactly, in one of two ways:

- a matrix equivalent to Sylvester's (rows and columns permuted and
  negated) is proved in O(n^2) bit operations by its row group: once
  normalized, its rows as bit words must be the n elements of a subgroup
  of F_2^n under XOR whose nonzero words all have weight n/2, the
  characters of Z_2^k;
- every other matrix (a Paley matrix, any order that is not a power of
  two, a power of two outside the Sylvester class, and every matrix that
  is not Hadamard) gets the exact O(n^3) Gram product, whose first entry
  off n * I names two rows that are not orthogonal.

The sequency-ordered variant W_k rearranges the rows of the order-2^k
Sylvester matrix so that row j has exactly j sign changes; its rows are
the first 2^k Walsh functions sampled at t/2^k. The row ordering is an
index permutation (bit reversal composed with the binary-to-Gray-code
map), and the ``walsh_order`` certificate checks it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .intlinalg import checked_matmul, identity_multiple

DEFAULT_MAX_ORDER = 1 << 16
MAX_ORDER_ENV = "HADFRAMES_MAX_ORDER"


def max_order() -> int:
    """Configured order cap for constructions and imports (override via HADFRAMES_MAX_ORDER)."""
    raw = os.environ.get(MAX_ORDER_ENV) or str(DEFAULT_MAX_ORDER)
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValidationError(f"{MAX_ORDER_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Square matrix of order at least 1 over {+1, -1}, exact integer entries.

    Construction checks only this shape and these entries; ``order`` is read
    from the matrix. Whether the matrix is Hadamard is proved by
    ``validate_hadamard`` each time it is asked, never recorded on the object.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("sign matrix must be square")
        if a.shape[0] == 0:
            raise ValidationError("sign matrix must have order >= 1")
        if not ((a == 1) | (a == -1)).all():
            raise ValidationError("sign matrix entries must be +1 or -1")
        a = np.ascontiguousarray(a, dtype=np.int8)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    order = property(lambda self: self.entries.shape[0])


class WalshMatrix(SignMatrix):
    """Sequency-ordered Hadamard matrix of order 2**log_order: a sign matrix
    whose order is a power of two, with no field of its own.

    ``log_order`` is read from the matrix, and ``base``, its sign matrix, is
    the matrix itself: every check reads a Walsh matrix as it reads any
    sign matrix.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.order & (self.order - 1):
            raise ValidationError(f"walsh matrix order {self.order} is not a power of two")

    log_order = property(lambda self: self.order.bit_length() - 1)
    base = property(lambda self: self)


@dataclass(frozen=True)
class MatrixCertificate:
    """Exact verdict of a matrix validation check."""

    ok: bool
    order: int
    check: str
    detail: str = ""


def sign_matrix(rows) -> SignMatrix:
    """Build a SignMatrix from any square +-1 array; its constructor checks
    the shape and the entries, and whether it is Hadamard is left to
    ``validate_hadamard``."""
    a = np.asarray(rows)
    if a.ndim != 2:
        raise ValidationError("sign matrix must be 2-D")
    return SignMatrix(a)


def _checked_order(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValidationError(f"k must be a non-negative integer, got {k!r}")
    cap = max_order()
    if k >= cap.bit_length():  # 2**k > cap, decided before 2**k is formed
        raise ResourceLimitError(f"order 2**{k} exceeds the configured cap {cap}")
    return 1 << int(k)


def build_sylvester(k: int) -> SignMatrix:
    """Order-2^k Hadamard matrix from the doubling recursion.

    Each step maps H to [[H, H], [H, -H]], starting from [[1]]; the first
    row and column of the result are all +1. The result is not proved
    here: ``validate_hadamard`` proves it where a certificate claims it.
    """
    n = _checked_order(k)
    h = np.ones((1, 1), dtype=np.int8)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return SignMatrix(h)


@lru_cache(maxsize=32)
def _sequency_permutation(k: int) -> tuple[int, ...]:
    # Sequency index -> natural (Sylvester) row index.
    def bitrev(x: int) -> int:
        r = 0
        for _ in range(k):
            r = (r << 1) | (x & 1)
            x >>= 1
        return r

    return tuple(bitrev(s ^ (s >> 1)) for s in range(1 << k))


def build_walsh(k: int) -> WalshMatrix:
    """Sequency-ordered Hadamard matrix of order 2^k.

    Row j equals the j-th Walsh function sampled at t/2^k for
    t = 0 .. 2^k - 1; in particular row j has exactly j sign changes and
    column 0 is all +1. Neither the ordering nor the Hadamard property is
    proved here: the ``walsh_order`` and ``hadamard`` certificates prove
    them on the matrix a command emits.
    """
    syl = build_sylvester(k)
    perm = np.fromiter(_sequency_permutation(int(k)), dtype=np.int64, count=syl.order)
    return WalshMatrix(syl.entries[perm])


def _sylvester_class(e: np.ndarray) -> bool:
    """True only if the +-1 matrix ``e`` is equivalent to a Sylvester matrix,
    which proves e @ e.T == n * I; False says nothing either way.

    Normalized (columns negated to make row 0 all +1, then rows negated to
    make column 0 all +1), row i becomes a bit word r_i with a 1 for every
    -1 entry, and r_i . r_j = n - 2 wt(r_i ^ r_j) over the integers. Row 0
    is now the zero word. The words must be n distinct ones, every word
    after row 0 of weight n/2, and they must equal their XOR span, grown
    by doubling: each row not yet in the span joins it as a generator.
    Then r_i ^ r_j for i != j is a nonzero word of that group, of weight
    n/2, so every off-diagonal inner product is 0. A normalized matrix
    passes exactly when it is Sylvester's up to the order of rows and
    columns (Sylvester 1867; Horadam, Hadamard Matrices and Their
    Applications, 2007).
    """
    n = e.shape[0]
    if n < 1 or n & (n - 1):
        return False
    bits = e < 0
    bits ^= bits[0].copy()  # negate columns by row 0
    bits ^= bits[:, :1].copy()  # negate rows by column 0
    # Weights on the boolean matrix: np.bitwise_count needs numpy 2.
    if (np.count_nonzero(bits[1:], axis=1) != n // 2).any():
        return False
    packed = np.packbits(bits, axis=1)
    words = [w.tobytes() for w in packed]
    rows = set(words)
    if len(rows) != n:
        return False
    span = packed[:1]  # the zero word
    seen = {words[0]}
    for word, row in zip(words, packed):
        if word not in seen:
            if len(span) == n:
                return False
            grown = span ^ row
            span = np.concatenate([span, grown])
            seen.update(w.tobytes() for w in grown)
    return seen == rows


def validate_hadamard(m: SignMatrix) -> MatrixCertificate:
    """Prove H @ H.T == n * I exactly, or name two rows that are not orthogonal.

    A matrix equivalent to Sylvester's is proved by its row group in O(n^2)
    bit operations (``_sylvester_class``). Any other matrix gets the exact
    O(n^3) Gram product from ``checked_matmul``; a failure always comes from
    the Gram, so its witness is the first entry where the Gram is not n * I.
    """
    if _sylvester_class(m.entries):
        return MatrixCertificate(ok=True, order=m.order, check="hadamard")
    g = checked_matmul(m.entries, m.entries.T)
    c = identity_multiple(g)
    if c == m.order:
        return MatrixCertificate(ok=True, order=m.order, check="hadamard")
    bad = g != 0
    np.fill_diagonal(bad, np.diagonal(g) != m.order)
    i, j = divmod(int(np.argmax(bad)), m.order)
    return MatrixCertificate(
        ok=False,
        order=m.order,
        check="hadamard",
        detail=f"rows {i} and {j} have inner product {int(g[i, j])}",
    )


def sign_changes(m: SignMatrix) -> np.ndarray:
    """Per-row count of adjacent sign changes, left to right."""
    e = m.entries
    return (e[:, 1:] != e[:, :-1]).sum(axis=1, dtype=np.int64)


def validate_walsh_order(m: SignMatrix) -> MatrixCertificate:
    """Check sequency ordering: row j has j sign changes and starts at +1.

    ``build_walsh`` orders the rows by an index permutation; this
    certificate re-verifies that order by counting sign changes on the
    matrix itself, so the ordering is checked, never assumed.
    """
    changes = sign_changes(m)
    expected = np.arange(m.order)
    if (m.entries[:, 0] != 1).any():
        j = int(np.argmax(m.entries[:, 0] != 1))
        return MatrixCertificate(
            ok=False, order=m.order, check="walsh_order",
            detail=f"row {j} starts at -1",
        )
    if (changes != expected).any():
        j = int(np.argmax(changes != expected))
        return MatrixCertificate(
            ok=False, order=m.order, check="walsh_order",
            detail=f"row {j} has {int(changes[j])} sign changes, expected {j}",
        )
    return MatrixCertificate(ok=True, order=m.order, check="walsh_order")


def require_hadamard(m: SignMatrix) -> SignMatrix:
    """Return ``m`` once ``validate_hadamard`` has proved it Hadamard.

    The proof runs on every call; a matrix that fails it raises a
    ValidationError naming two rows that are not orthogonal.
    """
    cert = validate_hadamard(m)
    if not cert.ok:
        raise ValidationError(f"matrix is not Hadamard: {cert.detail}")
    return m


def normalize_first_row(m: SignMatrix) -> SignMatrix:
    """Negate columns whose first entry is -1, making the first row all +1.

    Column negation is H -> H @ D with D diagonal +-1, so
    (H @ D)(H @ D).T == H @ H.T: the result is Hadamard exactly when ``m``
    is. Nothing is proved here; a caller that needs a Hadamard matrix
    proves the result (``etf_from_hadamard`` does, by ``require_hadamard``).
    """
    return sign_matrix(m.entries * m.entries[0])


def fwht(v) -> np.ndarray:
    """Multiply a length-2^k vector by the sequency-ordered matrix W_k.

    Runs the in-place butterfly in natural (Sylvester) order, O(2^k * k)
    additions and subtractions, then applies the sequency permutation.
    Integer input stays integer, so the result is exact.
    """
    a = np.array(v, copy=True)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError("fwht expects a nonempty 1-D vector")
    n = a.size
    if n & (n - 1):
        raise ValidationError(f"fwht length must be a power of two, got {n}")
    if a.dtype != object:
        if np.issubdtype(a.dtype, np.integer):
            a = a.astype(np.int64)
        else:
            a = a.astype(np.float64)
    h = 1
    while h < n:
        b = a.reshape(-1, 2, h)
        top = b[:, 0, :].copy()
        b[:, 0, :] = top + b[:, 1, :]
        b[:, 1, :] = top - b[:, 1, :]
        h *= 2
    k = n.bit_length() - 1
    perm = np.fromiter(_sequency_permutation(k), dtype=np.int64, count=n)
    return a[perm]
