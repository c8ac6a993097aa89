"""Exact integer and rational linear algebra helpers.

Every routine here is exact: machine-integer paths stay inside proven
overflow bounds and fall back to arbitrary-precision Python integers when
they would not.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ValidationError

# Largest prime below 2**31; residues and their products fit in int64.
_RANK_PRIME = 2_147_483_647

# float64 holds integers exactly up to 2**53; keep a wide safety margin.
_PM1_GRAM_MAX_ORDER = 1 << 26

# checked_matmul takes the float64 BLAS path below this product bound: a
# factor 8 of headroom under 2**53, the limit of the exactness argument.
_FLOAT_EXACT_BOUND = 1 << 50

# Below this bound int64 cannot overflow; above it, Python integers.
_INT64_EXACT_BOUND = 1 << 62


def as_int_matrix(rows, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a contiguous 2-D int64 array, rejecting non-integer input."""
    a = np.asarray(rows)
    if a.ndim != 2 or a.size == 0:
        raise ValidationError(f"{name} must be a nonempty 2-D array")
    if a.dtype == object:
        if not all(isinstance(x, (int, np.integer)) for x in a.reshape(-1)):
            raise ValidationError(f"{name} must have integer entries")
    elif not np.issubdtype(a.dtype, np.integer):
        raise ValidationError(f"{name} must have integer entries, got dtype {a.dtype}")
    return np.ascontiguousarray(a, dtype=np.int64)


def _max_abs(a: np.ndarray) -> int:
    # From the extremes, not np.abs: np.abs wraps the int64 minimum to itself.
    return max(int(a.max(initial=1)), -int(a.min(initial=-1)))


def _exact_dtype(a: np.ndarray, b: np.ndarray):
    """The dtype checked_matmul computes a @ b in: float64, int64 or object.

    Chosen from the worst-case bound max|a| * max|b| * k on every partial
    sum of the product, where k is the inner dimension. Each maximum counts
    as at least 1, so the entries themselves also lie below the bound.
    """
    bound = _max_abs(a) * _max_abs(b) * a.shape[1]
    if bound < _FLOAT_EXACT_BOUND:
        return np.float64
    if bound < _INT64_EXACT_BOUND:
        return np.int64
    return object


def _is_transpose(a: np.ndarray, b: np.ndarray) -> bool:
    # b views the same memory as a with its axes swapped, so b equals a.T.
    return (
        a.dtype == b.dtype
        and a.shape == b.shape[::-1]
        and a.strides == b.strides[::-1]
        and a.ctypes.data == b.ctypes.data
    )


def checked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matrix product, exact for any magnitude.

    The dtype comes from _exact_dtype. On the float64 path BLAS is exact:
    every product a[i, l] * b[l, j] and every partial sum of them, in any
    order and with or without fused multiply-add, is an integer of
    magnitude at most max|a| * max|b| * k < 2**50, and float64 holds every
    integer up to 2**53, so no operation rounds. The result is returned as
    int64. Between 2**50 and 2**62 int64 cannot overflow; beyond that the
    product runs on Python integers and returns an object array.

    A Gram product checked_matmul(a, a.T) converts a only once.
    """
    dtype = _exact_dtype(a, b)
    ca = a.astype(dtype, copy=False)
    cb = ca.T if _is_transpose(a, b) else b.astype(dtype, copy=False)
    out = ca @ cb
    if dtype is np.float64:
        return out.astype(np.int64)
    return np.asarray(out)


def column_norms_sq(a: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean norm of every column of an integer matrix.

    Computed in the dtype checked_matmul would use for a.T @ a, whose
    diagonal these are, so large entries cannot wrap.
    """
    c = a.astype(_exact_dtype(a.T, a), copy=False)
    return (c * c).sum(axis=0)


def pm1_gram(h: np.ndarray) -> np.ndarray:
    """Exact H @ H.T for a +-1 matrix, as int64.

    Safe via float64 BLAS: every partial sum is an integer bounded by the
    matrix order, far below 2**53, so no rounding can occur.
    """
    n = h.shape[1]
    if n > _PM1_GRAM_MAX_ORDER:
        raise ValidationError(f"order {n} exceeds the exact gram bound")
    f = h.astype(np.float64)
    return np.rint(f @ f.T).astype(np.int64)


def identity_multiple(s: np.ndarray) -> int | None:
    """Return c such that s == c * I, or None if s is not a multiple of I."""
    d = np.diagonal(s)
    if not (d == d[0]).all():
        return None
    off = np.array(s, copy=True)
    np.fill_diagonal(off, 0)
    if off.any():
        return None
    return int(d[0])


def scaled_fraction_matrix(a: np.ndarray, scale: Fraction) -> np.ndarray:
    """Integer matrix times a rational scalar, as an object array of Fractions."""
    return np.array(
        [[int(x) * scale for x in row] for row in a], dtype=object
    )


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    a = a % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        piv = np.nonzero(a[rank:, c])[0]
        if piv.size == 0:
            continue
        i = rank + int(piv[0])
        if i != rank:
            a[[rank, i]] = a[[i, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        below = np.nonzero(a[rank + 1 :, c])[0] + rank + 1
        if below.size:
            a[below] = (a[below] - np.outer(a[below, c], a[rank])) % p
        rank += 1
    return rank


def _rank_fraction_free(a: np.ndarray) -> int:
    # Bareiss elimination over Python integers; divisions are exact.
    m = [[int(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        for r in range(rank + 1, rows):
            factor = m[r][c]
            row_r, row_p = m[r], m[rank]
            for cc in range(c, cols):
                row_r[cc] = (pivot * row_r[cc] - factor * row_p[cc]) // prev
        prev = pivot
        rank += 1
        if rank == rows:
            break
    return rank


def int_rank(a: np.ndarray) -> int:
    """Rank of an integer matrix over the rationals, computed exactly.

    Fast path: elimination modulo a large prime. A full modular rank
    certifies full rational rank (a unimodular minor survives reduction);
    anything less falls back to fraction-free elimination over Python
    integers, which is exact for every matrix.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    if min(a.shape) == 0:
        return 0
    r = _rank_mod_p(a.copy(), _RANK_PRIME)
    if r == min(a.shape):
        return r
    return _rank_fraction_free(a)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, strings like '1/3', or (num, den) pairs."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Fraction(int(value[0]), int(value[1]))
    raise ValidationError(f"cannot interpret {value!r} as an exact rational")
