"""Exact integer and rational linear algebra helpers.

Every routine here is exact: machine-integer paths stay inside proven
overflow bounds and fall back to arbitrary-precision Python integers when
they would not. checked_matmul is the one exact product kernel: the Gram
of a +-1 matrix, a frame's Gram and frame operator, and a fusion frame's
block Gram, frame operator and stacked per-subspace Grams all go through
it. The one exception is a Gram of 1 x 1 blocks, a squared column norm,
which column_norms_sq sums down each column instead.

checked_matmul computes in one of four tiers, chosen from the bound
max|a| * max|b| * k on every partial sum of the product:

- below 2**21, float32 BLAS, exact because float32 holds every integer up
  to 2**24;
- below 2**50, float64 BLAS, exact because float64 holds every integer up
  to 2**53;
- below 2**62, int64, which cannot overflow;
- above, Python integers in an object array.

Each float tier keeps a factor 8 of headroom under its limit, and both
return int64.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ValidationError

# Largest prime below 2**31; residues and their products fit in int64.
_RANK_PRIME = 2_147_483_647

# checked_matmul takes the float32 and float64 BLAS paths below these
# product bounds: a factor 8 of headroom under 2**24 and 2**53, the limits
# of the exactness argument.
_FLOAT32_EXACT_BOUND = 1 << 21
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
    """The dtype checked_matmul computes a @ b in: float32, float64, int64
    or object.

    Chosen from the worst-case bound max|a| * max|b| * k on every partial
    sum of the product, where k is the inner dimension, the last axis of
    ``a``. Each maximum counts as at least 1, so the entries themselves also
    lie below the bound.
    """
    bound = _max_abs(a) * _max_abs(b) * a.shape[-1]
    if bound < _FLOAT32_EXACT_BOUND:
        return np.float32
    if bound < _FLOAT_EXACT_BOUND:
        return np.float64
    if bound < _INT64_EXACT_BOUND:
        return np.int64
    return object


def _swapped(x: tuple) -> tuple:
    return (*x[:-2], x[-1], x[-2])


def _is_transpose(a: np.ndarray, b: np.ndarray) -> bool:
    # b views the same memory as a with its last two axes swapped, so b
    # equals a.T for matrices and a's transposed stack for stacks of them.
    return (
        a.dtype == b.dtype
        and a.ndim == b.ndim >= 2
        and a.shape == _swapped(b.shape)
        and a.strides == _swapped(b.strides)
        and a.ctypes.data == b.ctypes.data
    )


def checked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matrix product, exact for any magnitude.

    Stacked operands multiply matrix by matrix, as ``@`` does; k is then the
    inner dimension of each product. The dtype comes from _exact_dtype. On
    the float64 path BLAS is exact: every product a[i, l] * b[l, j] and
    every partial sum of them, in any order and with or without fused
    multiply-add, is an integer of magnitude at most max|a| * max|b| * k
    < 2**50, and float64 holds every integer up to 2**53, so no operation
    rounds. The float32 path is the same argument with 2**21 and 2**24.
    Either result is returned as int64. Between 2**50 and 2**62 int64
    cannot overflow; beyond that the product runs on Python integers and
    returns an object array.

    A Gram product checked_matmul(a, a.T), or its stacked form, converts a
    only once.
    """
    dtype = _exact_dtype(a, b)
    ca = a.astype(dtype, copy=False)
    cb = np.swapaxes(ca, -1, -2) if _is_transpose(a, b) else b.astype(dtype, copy=False)
    out = ca @ cb
    if dtype in (np.float32, np.float64):
        return out.astype(np.int64)
    return np.asarray(out)


def column_norms_sq(a: np.ndarray) -> np.ndarray:
    """Squared norm of every column of an integer matrix, exact for any
    magnitude.

    The sum streams down the columns in int64 when max|a|^2 times the row
    count bounds every partial sum below 2**62, and in Python integers
    otherwise; no square is ever formed in a dtype it could wrap in.
    """
    if _max_abs(a) ** 2 * a.shape[0] < _INT64_EXACT_BOUND:
        return np.einsum("ij,ij->j", a, a)
    big = a.astype(object)
    return (big * big).sum(axis=0)


def identity_multiple(s: np.ndarray) -> int | None:
    """Return c such that s == c * I, or None if s is not a multiple of I.

    The entries off the diagonal are all zero exactly when ``s`` has no more
    nonzero entries than its diagonal.
    """
    d = np.diagonal(s)
    if not (d == d[0]).all() or np.count_nonzero(s) != np.count_nonzero(d):
        return None
    return int(d[0])


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


def _rank_fraction_free(a) -> int:
    # Bareiss elimination over Python integers; divisions are exact. Takes an
    # integer array or a list of rows of ints.
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
