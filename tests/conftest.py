"""Shared fixtures: a known order-12 Hadamard matrix, the Paley matrices,
and small helpers."""

from __future__ import annotations

import numpy as np
import pytest

from hadframes import sign_matrix

# Order-12 Hadamard matrix (quadratic-residue construction, frozen as data;
# the library itself only builds power-of-two orders). Verified in-test.
HAD12_ROWS = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [-1, 1, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1],
    [-1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1, 1],
    [-1, 1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1],
    [-1, -1, 1, -1, 1, 1, -1, 1, 1, 1, -1, -1],
    [-1, -1, -1, 1, -1, 1, 1, -1, 1, 1, 1, -1],
    [-1, -1, -1, -1, 1, -1, 1, 1, -1, 1, 1, 1],
    [-1, 1, -1, -1, -1, 1, -1, 1, 1, -1, 1, 1],
    [-1, 1, 1, -1, -1, -1, 1, -1, 1, 1, -1, 1],
    [-1, 1, 1, 1, -1, -1, -1, 1, -1, 1, 1, -1],
    [-1, -1, 1, 1, 1, -1, -1, -1, 1, -1, 1, 1],
    [-1, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1, 1],
]


@pytest.fixture(scope="session")
def had12():
    m = sign_matrix(np.asarray(HAD12_ROWS))
    g = m.entries.astype(np.int64) @ m.entries.astype(np.int64).T
    assert np.array_equal(g, 12 * np.eye(12, dtype=np.int64)), "fixture must be Hadamard"
    return m


# Primes q = 3 mod 4 whose Paley I matrices have orders q + 1 = 4 ... 48.
# Orders 4 and 8 are Sylvester's up to equivalence; 32 is a power of two
# outside that class; the other orders are not powers of two.
PALEY_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47)


def paley(q: int) -> np.ndarray:
    """Paley I Hadamard matrix of order q + 1 for a prime q = 3 mod 4.

    H = I + S with S = [[0, 1], [-1, Q]] skew and Q[i, j] the quadratic
    character of j - i mod q, so H @ H.T = I - S @ S = (q + 1) I.
    """
    residues = {x * x % q for x in range(1, q)}
    chi = [0] + [1 if x in residues else -1 for x in range(1, q)]
    s = np.zeros((q + 1, q + 1), dtype=np.int64)
    s[0, 1:], s[1:, 0] = 1, -1
    s[1:, 1:] = [[chi[(j - i) % q] for j in range(q)] for i in range(q)]
    return np.eye(q + 1, dtype=np.int64) + s


@pytest.fixture(scope="session")
def paley_matrices() -> dict[int, np.ndarray]:
    """The Paley I matrices of ``PALEY_PRIMES`` by order, each checked here."""
    out = {q + 1: paley(q) for q in PALEY_PRIMES}
    for n, h in out.items():
        assert np.array_equal(h @ h.T, n * np.eye(n, dtype=np.int64)), f"Paley {n} must be Hadamard"
    return out
