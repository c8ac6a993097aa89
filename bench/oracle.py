"""Output oracle: the values each benchmark command must produce.

Everything here is computed from first principles in pure Python, with
neither hadframes nor numpy, and compared with what a command wrote. A
check returns a list of problems; an empty list means the output is right.
Only mathematical fields are read. Provenance flags
(``grassmannian_by_construction``, ``grassmannian_by_etf``), the ``kind``
that ``verify`` reports, key order and byte layout are left to the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# Relative tolerance on a Monte-Carlo mean_mse. The standard error of the
# benchmark's simulations is about 1.2% of the mean, so this is ~8 of them.
MSE_RTOL = 0.10


# ---------------------------------------------------------------------------
# reference constructions


def sylvester(k: int) -> list[list[int]]:
    """Order-2^k Sylvester Hadamard matrix, by the doubling [[H, H], [H, -H]]."""
    rows = [[1]]
    for _ in range(k):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return rows


def walsh(k: int) -> list[list[int]]:
    """Sequency-ordered W_k: row s is Sylvester row bitrev(gray(s))."""

    def bitrev(x: int) -> int:
        return int(format(x, f"0{k}b")[::-1], 2) if k else 0

    syl = sylvester(k)
    return [syl[bitrev(s ^ (s >> 1))] for s in range(1 << k)]


def permuted_hadamard(k: int, seed: int) -> list[list[int]]:
    """W_k with rows and columns permuted and signs flipped, all from ``seed``.

    Hadamard equivalence preserves the defining identity, so the result is
    still Hadamard but no longer normalized or sequency-ordered.
    """
    rng = random.Random(seed)
    n = 1 << k
    w = walsh(k)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rsign = [rng.choice((-1, 1)) for _ in range(n)]
    csign = [rng.choice((-1, 1)) for _ in range(n)]
    return [[rsign[i] * csign[j] * w[r][c] for j, c in enumerate(cols)] for i, r in enumerate(rows)]


def etf_raw(h: list[list[int]]) -> list[list[int]]:
    """Negate the columns whose first entry is -1, then drop the first row."""
    flips = h[0]
    return [[x * f for x, f in zip(row, flips)] for row in h[1:]]


def gff_subspaces(n: int, m: int) -> list[list[int]]:
    """Row-major integer bases of GFF(n, m): W_n without its first 2^m rows;
    subspace i takes columns i + k * 2^(n-m) for k < 2^m."""
    kept = walsh(n)[1 << m :]
    big_l = 1 << (n - m)
    return [[row[i + k * big_l] for row in kept for k in range(1 << m)] for i in range(big_l)]


def flat(rows: list[list[int]]) -> list[int]:
    return [x for row in rows for x in row]


def frame_mse(order: int, erased: int, noise_std: float) -> float:
    """Expected lstsq MSE of the ETF of a normalized order-``order`` Hadamard matrix.

    That ETF is a regular simplex: N = order unit vectors in F^(N-1) with
    Gram (N*I - J)/(N-1) and frame bound A = N/(N-1). Erasing e of them
    leaves a frame operator S with eigenvalue A on N-1-e dimensions, e/(N-1)
    on one, and 0 on e-1. A uniformly drawn unit signal loses (e-1)/(N-1)
    of its energy on average to the null space, and the minimum-norm
    solution adds noise_std^2 * tr(S^+).
    """
    n = order
    pinv_trace = Fraction(n - 1 - erased) * Fraction(n - 1, n) + Fraction(n - 1, erased)
    return (erased - 1) / (n - 1) + noise_std**2 * float(pinv_trace)


def fusion_mse(n: int, m: int, noise_std: float) -> float:
    """Expected lstsq MSE of GFF(n, m) with one subspace erased.

    Sum P_i is A*I with A = 2^n / (2^n - 2^m). Removing one projection
    leaves eigenvalue A - 1 on its 2^m dimensions and A on the other
    2^n - 2^(m+1), for every erased subspace, and the error covariance is
    noise_std^2 times the inverse.
    """
    big_m = (1 << n) - (1 << m)
    a = Fraction(1 << n, big_m)
    trace_inv = (big_m - (1 << m)) / a + (1 << m) / (a - 1)
    return noise_std**2 * float(trace_inv)


# ---------------------------------------------------------------------------
# readers


class Bad(Exception):
    """An output that cannot even be read as the expected shape."""


def read_json(path: Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise Bad(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise Bad(f"{path}: top level is not an object")
    return doc


def read_csv_rows(path: Path) -> list[list[int]]:
    """Integer rows of a CSV export, skipping the '#' header line."""
    try:
        lines = Path(path).read_text().splitlines()
        return [[int(x) for x in ln.split(",")] for ln in lines if ln.strip() and not ln.startswith("#")]
    except (OSError, ValueError) as exc:
        raise Bad(f"{path}: {exc}") from None


def field(doc: dict, *keys):
    for k in keys:
        if not isinstance(doc, dict) or k not in doc:
            raise Bad(f"missing field {'.'.join(keys)}")
        doc = doc[k]
    return doc


def fraction(doc: dict, *keys) -> Fraction:
    d = field(doc, *keys)
    try:
        return Fraction(int(d["num"]), int(d["den"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        raise Bad(f"{'.'.join(keys)} is not a {{num, den}} pair: {d!r}") from None


# ---------------------------------------------------------------------------
# checks


def _want(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {_short(got)}, want {_short(want)}")


def _short(v) -> str:
    text = repr(v)
    return text if len(text) <= 80 else text[:77] + "..."


def _checked(fn):
    """Turn an unreadable output into one problem instead of an exception."""

    def run(*args) -> list[str]:
        try:
            return fn(*args)
        except Bad as exc:
            return [str(exc)]

    run.__name__ = fn.__name__
    run.__doc__ = fn.__doc__
    return run


def _frame_cert(problems: list[str], cert: dict, order: int) -> None:
    for flag in ("tight", "equiangular", "welch_equality"):
        _want(problems, flag, field(cert, flag), True)
    _want(problems, "bound_A", fraction(cert, "bound_A"), Fraction(order, order - 1))
    _want(problems, "alpha_sq", fraction(cert, "alpha_sq"), Fraction(1, (order - 1) ** 2))


def _fusion_cert(problems: list[str], cert: dict, n: int, m: int) -> None:
    big_l = 1 << (n - m)
    for flag in ("tight", "equal_dim", "equi_distance"):
        _want(problems, flag, field(cert, flag), True)
    _want(problems, "bound_A", fraction(cert, "bound_A"), Fraction(1 << n, (1 << n) - (1 << m)))
    want_dist = Fraction((1 << m) * big_l * (big_l - 2), (big_l - 1) ** 2)
    _want(problems, "dist_sq", fraction(cert, "dist_sq"), want_dist)


@_checked
def etf_object(path: Path, h: list[list[int]]) -> list[str]:
    """gen-etf output: the ETF of Hadamard matrix ``h`` and its certificate."""
    doc, order, problems = read_json(path), len(h), []
    _want(problems, "ambient_dim", field(doc, "ambient_dim"), order - 1)
    _want(problems, "count", field(doc, "count"), order)
    _want(problems, "scale_sq", fraction(doc, "scale_sq"), Fraction(1, order - 1))
    _want(problems, "raw", field(doc, "raw"), flat(etf_raw(h)))
    _frame_cert(problems, field(doc, "certificate"), order)
    return problems


@_checked
def etf_verify(path: Path, order: int) -> list[str]:
    """verify --format json on an ETF of the given order."""
    doc, problems = read_json(path), []
    _want(problems, "pass", field(doc, "pass"), True)
    _frame_cert(problems, field(doc, "checks"), order)
    return problems


@_checked
def gff_object(path: Path, n: int, m: int, bases: list[list[int]]) -> list[str]:
    """gen-gff output: GFF(n, m) with the given bases and its certificate."""
    doc, problems = read_json(path), []
    big_m = (1 << n) - (1 << m)
    _want(problems, "ambient_dim", field(doc, "ambient_dim"), big_m)
    _want(problems, "scale_sq", fraction(doc, "scale_sq"), Fraction(1, big_m))
    _want(problems, "subspaces", field(doc, "subspaces"), bases)
    _fusion_cert(problems, field(doc, "certificate"), n, m)
    return problems


@_checked
def gff_verify(path: Path, n: int, m: int) -> list[str]:
    """verify --format json on GFF(n, m)."""
    doc, problems = read_json(path), []
    _want(problems, "pass", field(doc, "pass"), True)
    _fusion_cert(problems, field(doc, "checks"), n, m)
    return problems


@_checked
def walsh_object(path: Path, k: int, entries: list[int]) -> list[str]:
    """gen-walsh output: W_k with passing hadamard and walsh_order checks."""
    doc, problems = read_json(path), []
    _want(problems, "order", field(doc, "order"), 1 << k)
    _want(problems, "entries", field(doc, "entries"), entries)
    for check in ("hadamard", "walsh_order"):
        _want(problems, f"{check}.ok", field(doc, "certificate", check, "ok"), True)
    return problems


@_checked
def walsh_verify(path: Path) -> list[str]:
    """verify --format json on a Walsh matrix."""
    doc, problems = read_json(path), []
    _want(problems, "pass", field(doc, "pass"), True)
    for check in ("hadamard", "walsh_order"):
        _want(problems, f"{check}.ok", field(doc, "checks", check, "ok"), True)
    return problems


@_checked
def csv_matrix(path: Path, rows: list[list[int]]) -> list[str]:
    """export --format csv: the body holds exactly these integer rows."""
    problems: list[str] = []
    _want(problems, "csv body", read_csv_rows(path), rows)
    return problems


@_checked
def sim_report(path: Path, trials: int, non_recoverable: int, mse: float) -> list[str]:
    """simulate --format json: exact counts, mean_mse within MSE_RTOL."""
    doc, problems = read_json(path), []
    _want(problems, "trials_run", field(doc, "trials_run"), trials)
    _want(problems, "non_recoverable_count", field(doc, "non_recoverable_count"), non_recoverable)
    got = field(doc, "mean_mse")
    if not isinstance(got, (int, float)) or not abs(got - mse) <= MSE_RTOL * mse:
        problems.append(f"mean_mse: got {got!r}, want {mse:.6g} within {MSE_RTOL:.0%}")
    return problems
