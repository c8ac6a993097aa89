"""Hadamard matrices, sequency (Walsh) ordering, and the fast transform.

A Hadamard matrix of order n is a +-1 matrix H with H @ H.T == n * I,
checked here in exact integer arithmetic. The sequency-ordered variant
W_k rearranges the rows of the order-2^k Sylvester matrix so that row j
has exactly j sign changes; its rows are the first 2^k Walsh functions
sampled at t/2^k. Row ordering is produced by an index permutation
(bit reversal composed with the binary-to-Gray-code map) and then
re-verified by counting sign changes, so its correctness is checked,
never assumed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .intlinalg import identity_multiple, pm1_gram

DEFAULT_MAX_ORDER = 1 << 16
MAX_ORDER_ENV = "HADFRAMES_MAX_ORDER"

# Orders up to this bound are re-validated with an exact gram product at
# construction time; larger orders rely on the doubling recursion, which
# preserves the defining identity at every step.
_AUTO_VALIDATE_MAX_ORDER = 1 << 10


def max_order() -> int:
    """Configured order cap for constructions and imports (override via HADFRAMES_MAX_ORDER)."""
    raw = os.environ.get(MAX_ORDER_ENV) or str(DEFAULT_MAX_ORDER)
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValidationError(f"{MAX_ORDER_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Square matrix over {+1, -1} with exact integer entries.

    ``hadamard_validated`` is only ever set after the defining identity
    H @ H.T == order * I has been established exactly.
    """

    order: int
    entries: np.ndarray
    hadamard_validated: bool = False

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("sign matrix must be square")
        if not ((a == 1) | (a == -1)).all():
            raise ValidationError("sign matrix entries must be +1 or -1")
        if self.order != a.shape[0]:
            raise ValidationError(
                f"declared order {self.order} does not match shape {a.shape}"
            )
        a = np.ascontiguousarray(a, dtype=np.int8)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


@dataclass(frozen=True, eq=False)
class WalshMatrix:
    """Sequency-ordered Hadamard matrix of order 2**log_order."""

    log_order: int
    base: SignMatrix


@dataclass(frozen=True)
class MatrixCertificate:
    """Exact verdict of a matrix validation check."""

    ok: bool
    order: int
    check: str
    detail: str = ""


def sign_matrix(rows) -> SignMatrix:
    """Build an (unvalidated) SignMatrix from any square +-1 array."""
    a = np.asarray(rows)
    if a.ndim != 2:
        raise ValidationError("sign matrix must be 2-D")
    return SignMatrix(order=a.shape[0], entries=a)


def _checked_order(k: int, limit: int | None) -> int:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValidationError(f"k must be a non-negative integer, got {k!r}")
    cap = max_order() if limit is None else limit
    n = 1 << int(k)
    if n > cap:
        raise ResourceLimitError(f"order 2**{k} = {n} exceeds the configured cap {cap}")
    return n


def _self_check(m: SignMatrix) -> SignMatrix:
    if m.order <= _AUTO_VALIDATE_MAX_ORDER:
        cert = validate_hadamard(m)
        if not cert.ok:
            raise AssertionError(f"construction produced a non-Hadamard matrix: {cert.detail}")
    return replace(m, hadamard_validated=True)


def build_sylvester(k: int, *, limit: int | None = None) -> SignMatrix:
    """Order-2^k Hadamard matrix from the doubling recursion.

    Each step maps H to [[H, H], [H, -H]], starting from [[1]]; the first
    row and column of the result are all +1.
    """
    n = _checked_order(k, limit)
    h = np.ones((1, 1), dtype=np.int8)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return _self_check(SignMatrix(order=n, entries=h))


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


def build_walsh(k: int, *, limit: int | None = None) -> WalshMatrix:
    """Sequency-ordered Hadamard matrix of order 2^k.

    Row j equals the j-th Walsh function sampled at t/2^k for
    t = 0 .. 2^k - 1; in particular row j has exactly j sign changes and
    column 0 is all +1. The ordering is verified after construction.
    """
    n = _checked_order(k, limit)
    syl = build_sylvester(k, limit=limit)
    perm = np.fromiter(_sequency_permutation(int(k)), dtype=np.int64, count=n)
    w = WalshMatrix(
        log_order=int(k),
        base=replace(sign_matrix(syl.entries[perm]), hadamard_validated=True),
    )
    cert = validate_walsh_order(w)
    if not cert.ok:
        raise AssertionError(f"sequency ordering check failed: {cert.detail}")
    return w


def validate_hadamard(m: SignMatrix) -> MatrixCertificate:
    """Check H @ H.T == n * I in exact integer arithmetic."""
    g = pm1_gram(m.entries)
    c = identity_multiple(g)
    if c == m.order:
        return MatrixCertificate(ok=True, order=m.order, check="hadamard")
    bad = np.argwhere(g != m.order * np.eye(m.order, dtype=np.int64))
    i, j = (int(v) for v in bad[0])
    return MatrixCertificate(
        ok=False,
        order=m.order,
        check="hadamard",
        detail=f"rows {i} and {j} have inner product {int(g[i, j])}",
    )


def sign_changes(m: SignMatrix) -> np.ndarray:
    """Per-row count of adjacent sign changes, left to right."""
    e = m.entries
    if m.order == 1:
        return np.zeros(1, dtype=np.int64)
    return (e[:, 1:] != e[:, :-1]).sum(axis=1, dtype=np.int64)


def validate_walsh_order(w: WalshMatrix | SignMatrix) -> MatrixCertificate:
    """Check sequency ordering: row j has j sign changes and starts at +1."""
    m = w.base if isinstance(w, WalshMatrix) else w
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
    """Return ``m`` carrying the validated flag, validating now if needed."""
    if m.hadamard_validated:
        return m
    cert = validate_hadamard(m)
    if not cert.ok:
        raise ValidationError(f"matrix is not Hadamard: {cert.detail}")
    return replace(m, hadamard_validated=True)


def normalize_first_row(m: SignMatrix) -> SignMatrix:
    """Negate columns whose first entry is -1, making the first row all +1.

    Column negation is H -> H @ D with D diagonal +-1, so
    (H @ D)(H @ D).T == H @ H.T and the Hadamard property is preserved.
    """
    m = require_hadamard(m)
    flips = np.where(m.entries[0] == -1, np.int8(-1), np.int8(1))
    out = sign_matrix(m.entries * flips[np.newaxis, :])
    return replace(out, hadamard_validated=True)


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
