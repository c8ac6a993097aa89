"""Monte-Carlo noise and erasure channel for frames and fusion frames.

A fusion frame of L subspaces is a frame of sum_i m_i scaled basis
vectors, sent in L units of m_i coefficients each; a frame of N vectors is
the case m_i = 1. One trial loop (``simulate``) sends both through one
analysis map phi = T^T, where T is the input's one integer matrix with
every column scaled by the square root of its unit's scale. Every
transmitted scalar picks up i.i.d. zero-mean Gaussian noise of standard
deviation sigma, and an erasure drops whole units (Kutyniok, Pezeshki,
Calderbank & Liu, "Robust dimension reduction, fusion frames, and
Grassmannian packings", ACHA 2009).
Reconstruction is least squares on the surviving rows by default, or the
naive tight-frame sum for comparison against the analytic noise floor.

Trials are drawn and decoded a block at a time. A run derives three
streams from its seed, ``np.random.SeedSequence(seed).spawn(3)``: one for
the signals, one for the noise and one for the erasures. Up to
``BLOCK_TRIALS`` trials fill one block, one row per trial, and each stream
fills its share of the block in trial order: the unit signals x, the noise
on every transmitted scalar, and each trial's k erased units, the k
smallest of one uniform per unit. numpy draws the same values from a
stream whether it is asked for them in one call or in many, so the draws
do not depend on ``BLOCK_TRIALS``, and the first T trials of a longer run
draw what a T-trial run draws. The signal stream depends only on the seed
and M, so every input of the same ambient dimension sees the same signals
trial by trial. Each block groups its trials by k', the number of
columns they erase, and holds one array e of erased columns per group; the
rest of the block reads the erasures from e alone. It zeroes the received
coefficients y = x phi^T + noise at e and decodes with a few matrix
products over all its rows, b = y phi first. The blocks' errors are then
merged in trial order by the pairwise update, in power-of-two units. How
the trials are blocked moves a report's floats in their last bits at most,
and its counts not at all.

Decoding. Least squares on the survivors solves N x = b, with
b = phi^T y (y zero at E) and N = T T^T - T_E T_E^T, where T_E holds only
the k' erased columns (k for a frame, the sum of the erased m_i for a
fusion frame). One decoder serves every input, in four steps.

Whitening, once per run: phi = Q R with Q^T Q = a I. Every object the
package builds is tight, T T^T = A I, and then Q = phi, R = I and a = A, so
nothing is formed. Any other input, which only an import can give, takes
phi's QR factorization and a = 1. The survivors' least squares in z = R x
has the normal matrix a I - U_E U_E^T, where U_E^T holds the erased rows
Q[E] of Q.

Downdate. Write U_E^T U_E = W diag(lam) W^T, every lam_j in [0, a]. The
minimum-norm z is

    z = Q^T y / a + U_E W diag(h) W^T U_E^T Q^T y,

with h_j = 1 / (a (a - lam_j)) (the Woodbury identity), except
h_j = -1 / a^2 where lam_j = a: those directions span the null space of
the normal matrix, and -1/a^2 gives the pseudo-inverse's 0 there. Then
x = R^-1 z, with R^-1 formed once per run. Each group reads its trials' k'
rows Q[e] and forms U_E^T U_E, U_E^T b and U_E v from them, one batched
product each, and runs one batched k' x k' eigenproblem; no N x N matrix is
formed and no survivor set's rows are factored. Which lam_j equal a is
never decided by a float cutoff: they come out within about eps * a of a,
and 1 / (a - lam_j) would then blow rounding error up by 1/eps. Their
number is the exact deficit below, the dimension of the null space of N.

Refinement. Going through the normal matrix makes the downdate's error
grow as eps * kappa^2, kappa the condition number of the survivors, where
lstsq's grows as eps * kappa. One refinement step brings it back, as in
corrected semi-normal equations (Bjorck, Linear Algebra Appl. 1987): the
residual y - x phi^T, zeroed at E, goes through the same downdate, with
the same eigendecompositions, and is added to x. A block in which nothing
is erased is not refined: its z = Q^T y / a involves no normal matrix.

Minimum norm. For a tight input R = I, so the minimum-norm z is the
minimum-norm x. For any other input the survivors' null space in x is
spanned by the columns of U = R^-1 U_E W_0, W_0 the null directions, and x
is projected off them, x -= U (U^T U)^-1 U^T x: one batched k' x k' solve
per group, with the identity on the live slots, so a trial whose survivors
span is left as it is. U^T U can be as ill-conditioned as R^T R, so its
rounding leaves part of x along U; a second pass with the same U^T U
removes it, as reorthogonalization does in Gram-Schmidt.

Recoverability. A trial is recoverable when its survivors span F^M, and
one rule decides it for every input, in both modes. Let raw be the input's
integer M x N matrix, E its k' erased columns, and C_E the k' rows at E of
an integer matrix whose columns span the null space of raw (of dimension
N - M, since every input spans). The survivors fail to span k' - rank(C_E)
dimensions, the deficit: their null vectors are the null vectors of raw
that vanish on E, a space of dimension N - M - rank(C_E), so the N - k'
survivors span M - k' + rank(C_E). An input that is not tight reads C_E
from an integer null-space basis Z of raw (``int_kernel``), computed once
per run, when the first erased set is decided. A tight input reads it from
C = q (A D^-1 - raw^T raw), where D holds the columns' scales and q is the
denominator of A (for a frame, C = q (A / scale_sq) I - q raw^T raw):
A I - T^T T is A times the projection onto the null space of T, so C is
that projection with its rows and columns scaled by positive factors, and
C's k' x k' block at E, which serves as C_E, has the rank of C's rows at
E. That block needs only the exact k' x k' Gram block raw_E^T raw_E, which
one batched checked_matmul forms for a whole group of trials; no N x N
Gram is formed. One memo maps
what fixes C_E exactly to the deficit: the Gram block for a tight input
(the scales follow from its diagonal), the erased columns for any other.
C_E is built from Python ints and eliminated by fraction-free elimination
only on a miss, so each distinct key is eliminated once.

Fusion noise model. Piece i is sent as its m_i coordinates B_i^T x in
the scaled orthonormal basis B_i of W_i, as in the paper above, so noise
stays inside the subspace and an erasure drops m_i numbers. The naive
receiver phi^T y / A, with y zero at the erased rows, is the tight-frame
sum (1/A) sum_i B_i y_i over the pieces received; with no erasures its
mean squared error is sigma^2 * sum_i m_i / A^2, which for a frame of N
unit vectors reads N sigma^2 / A^2.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .frames import ScaledFrame
from .fusion import FusionFrame, _analysis_map
from .intlinalg import _rank_fraction_free, checked_matmul, int_kernel

# ``source(rng, n, dim)``: n signals of F^dim as the rows of an (n, dim)
# array. The channel calls it once per block, in trial order, with the run's
# signal stream, so one source sees the same stream however trials are blocked.
SignalSource = Callable[["np.random.Generator", int, int], np.ndarray]

# A million trials take minutes and put the standard error of mean_mse at
# a thousandth of the per-trial standard deviation; more is refused.
MAX_TRIALS = 10**6

# A trial whose squared error is below this counts as an exact recovery.
EXACT_THRESHOLD = 1e-20

# Trials decoded together. On an order-64 input a block's arrays of 128
# float64 rows take 64 KiB each, below glibc's 128 KiB mmap threshold, so
# they come from the reused heap; blocks of 1024 ran no faster and raised
# peak RSS by about 5 MiB.
BLOCK_TRIALS = 128


def _integer(value, what: str) -> int:
    # A Python or numpy integer as an int; bools and fractions are refused.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ErasureSpec:
    """What gets erased per trial: nothing, a fixed index set, or k at random."""

    mode: str
    indices: tuple[int, ...] = ()
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k, "erasure count k"))
        object.__setattr__(self, "indices", tuple(_integer(i, "erasure index") for i in self.indices))
        if self.mode not in ("none", "fixed", "random"):
            raise ValidationError(f"unknown erasure mode {self.mode!r}")
        if self.mode != "fixed" and len(self.indices):
            raise ValidationError(f"erasure mode {self.mode!r} takes no indices")
        if self.mode != "random" and self.k != 0:
            raise ValidationError(f"erasure mode {self.mode!r} takes no count k")
        if self.mode == "fixed":
            ids = self.indices
            if not ids or len(set(ids)) != len(ids) or min(ids) < 0:
                raise ValidationError("fixed erasure indices must be nonempty, distinct and >= 0")
            object.__setattr__(self, "indices", tuple(sorted(ids)))
        if self.mode == "random" and self.k < 1:
            raise ValidationError("random erasure count k must be >= 1")

    @classmethod
    def none(cls) -> "ErasureSpec":
        return cls(mode="none")

    @classmethod
    def fixed(cls, indices: Sequence[int]) -> "ErasureSpec":
        return cls(mode="fixed", indices=tuple(indices))

    @classmethod
    def random_k(cls, k: int) -> "ErasureSpec":
        return cls(mode="random", k=k)


@dataclass(frozen=True)
class ChannelConfig:
    """Noise level, erasure pattern, trial count, seed, and decode mode."""

    noise_std: float = 0.0
    erasure: ErasureSpec = field(default_factory=ErasureSpec.none)
    trials: int = 1
    seed: int = 0
    mode: str = "lstsq"

    def __post_init__(self):
        if isinstance(self.noise_std, bool) or not isinstance(self.noise_std, numbers.Real):
            raise ValidationError(f"noise_std must be a real number, got {self.noise_std!r}")
        try:
            std = float(self.noise_std)
        except OverflowError:  # an int or Fraction beyond the float range
            std = math.inf
        if not (math.isfinite(std) and std >= 0):
            raise ValidationError(f"noise_std must be finite and nonnegative, got {self.noise_std}")
        object.__setattr__(self, "noise_std", std)
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValidationError(f"trials must be between 1 and {MAX_TRIALS}, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")
        if self.mode not in ("lstsq", "naive"):
            raise ValidationError(f"unknown reconstruction mode {self.mode!r}")


@dataclass(frozen=True)
class SimReport:
    """Aggregated per-trial squared reconstruction errors.

    ``mean_mse_stderr`` is the standard error of ``mean_mse`` (sample
    standard deviation over sqrt(trials); 0 for a single trial), and
    ``survivor_sets`` the number of distinct survivor sets the trials drew.
    """

    mean_mse: float
    max_mse: float
    trials_run: int
    exact_recovery_count: int
    non_recoverable_count: int
    config: ChannelConfig
    mean_mse_stderr: float
    survivor_sets: int


def default_signal_source(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n unit-norm directions drawn uniformly (normalized Gaussian rows).

    A row that draws all zeros is drawn again from a stream spawned off
    ``rng``, the j-th such row from the j-th spawned stream, so the redraw
    does not depend on where the block starts.
    """
    v = rng.standard_normal((n, dim))
    nrm = np.linalg.norm(v, axis=1)
    for t in np.flatnonzero(nrm == 0):
        redraw = rng.spawn(1)[0]
        while nrm[t] == 0:
            v[t] = redraw.standard_normal(dim)
            nrm[t] = np.linalg.norm(v[t])
    return v / nrm[:, None]


def _check_erasure(spec: ErasureSpec, ff: FusionFrame) -> None:
    units = len(ff.dims)
    what = "coefficients" if isinstance(ff, ScaledFrame) else "subspace pieces"
    if spec.indices and spec.indices[-1] >= units:
        raise ValidationError(
            f"fixed erasure index {spec.indices[-1]} out of range for {units} {what}"
        )
    if spec.mode == "random" and spec.k >= units:
        raise ValidationError(
            f"random erasure count {spec.k} must be below the {units} transmitted {what}"
        )


def _non_finite(cfg: ChannelConfig) -> ValidationError:
    return ValidationError(
        f"noise_std {cfg.noise_std} is too large: the squared errors overflow float64"
    )


@dataclass
class _Accumulator:
    peak: float = 0.0
    exact: int = 0
    nonrec: int = 0
    count: int = 0
    # Running mean and sum of squared deviations of the squared errors, both
    # counted in units of ``unit``: a power of two, 1 until an error exceeds
    # it, then 2^(e-1) for the peak's binary exponent e, so never above the
    # peak and finite up to the largest float. Errors in units then stay
    # below 2 and their squared deviations cannot overflow while the errors
    # are finite. Each block's two-pass mean and sum merge into the running
    # pair by the pairwise update of Chan, Golub & LeVeque (Amer. Statist.
    # 1983).
    unit: float = 1.0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, mse: np.ndarray, recoverable: np.ndarray) -> None:
        """Merge one block's squared errors and their trials' recoverability."""
        self.peak = max(self.peak, float(mse.max()))
        self.exact += int(np.count_nonzero(mse < EXACT_THRESHOLD))
        self.nonrec += len(recoverable) - int(np.count_nonzero(recoverable))
        if self.peak > self.unit:
            unit = math.ldexp(1.0, math.frexp(self.peak)[1] - 1)
            self.mean *= self.unit / unit
            self.m2 *= (self.unit / unit) ** 2
            self.unit = unit
        x = mse / self.unit
        n, mean = len(x), float(x.mean())
        x -= mean
        delta, total = mean - self.mean, self.count + n
        self.mean += delta * (n / total)
        self.m2 += float(x @ x) + delta * delta * (self.count * n / total)
        self.count = total

    def report(self, cfg: ChannelConfig, survivor_sets: int) -> SimReport:
        n = self.count
        mean = self.mean * self.unit
        stderr = math.sqrt(self.m2 / (n - 1) / n) * self.unit if n > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            raise _non_finite(cfg)
        return SimReport(
            mean_mse=mean,
            max_mse=self.peak,
            trials_run=cfg.trials,
            exact_recovery_count=self.exact,
            non_recoverable_count=self.nonrec,
            config=cfg,
            mean_mse_stderr=stderr,
            survivor_sets=survivor_sets,
        )


def _erased_columns(units: np.ndarray, rows: np.ndarray, starts: np.ndarray):
    """A block's erased columns, one group per count k'.

    Row t of ``units`` holds trial t's erased units in ascending order, and
    unit i owns the ``rows[i]`` columns from ``starts[i]``. Returns, for each
    k', the indices of its trials and a (trials, k') array of their erased
    columns in ascending order; trials that erase nothing form the group
    k' = 0.
    """
    counts = rows[units].sum(axis=1)
    groups = []
    for k in sorted(set(counts.tolist())):  # np.unique would import numpy.ma
        trials = np.flatnonzero(counts == k)
        erased = units[trials].ravel()
        lens = rows[erased]
        # each unit's columns are starts[u] + 0, 1, ...; first: where its run begins in the row
        first = np.cumsum(lens) - lens
        cols = np.repeat(starts[erased] - first, lens) + np.arange(k * len(trials))
        groups.append((trials, cols.reshape(len(trials), k)))
    return groups


def _distinct_rows(a: np.ndarray) -> int:
    """The number of distinct rows of the nonempty C-contiguous 2-D array
    ``a``: its rows, read as void scalars, are sorted in place and
    neighbours compared (np.unique would import numpy.ma)."""
    v = a.view(f"V{a.itemsize * a.shape[1]}").ravel()
    v.sort()
    return 1 + int(np.count_nonzero(v[1:] != v[:-1]))


def _decoder(phi: np.ndarray, bound: Fraction | None):
    """Least-squares decoder for the analysis map ``phi``: the module
    docstring's whitening, downdate, refinement and, for an input that is
    not tight, projection, run on a block of trials.

    ``bound`` is A for a tight input, where phi^T phi = A I, and None for
    any other. The returned ``decode(y, groups)`` takes one trial per row of
    ``y``, zero at its erased rows, and the groups of ``simulate``: each a
    triple of trial indices, their erased rows of ``phi`` as a (trials, k')
    array ``e``, and the exact dimension of the null space of each trial's
    normal matrix, which marks its null directions. Beyond the products with
    the whole map, everything a trial needs comes from its k' rows of Q.
    Row t of the result is ``np.linalg.lstsq(phi_S, y[t]_S, rcond=None)``
    for trial t's survivors S, computed without factoring phi_S.
    """
    if bound is None:
        q, r = np.linalg.qr(phi)
        r_inv, a = np.linalg.inv(r), 1.0
    else:
        q, r_inv, a = phi, None, float(bound)

    def decode(y: np.ndarray, groups) -> np.ndarray:
        ops = []
        for trials, e, deficits in groups:
            t_e = q[e]  # (trials, k', M): each trial's U_E^T
            lam, w = np.linalg.eigh(t_e @ t_e.transpose(0, 2, 1))
            # lam <= a in ascending order, so each trial's null directions come last
            live = np.arange(e.shape[1]) < e.shape[1] - deficits[:, None]
            h = np.full(lam.shape, -1.0 / a**2)
            h[live] = 1.0 / (a * (a - lam[live]))
            ops.append((trials, t_e, w, h, live))

        def downdate(v):
            b = v @ q
            z = b / a
            for trials, t_e, w, h, _ in ops:
                s = t_e @ b[trials][:, :, None]  # U_E^T b
                s = w @ (h[:, :, None] * (w.transpose(0, 2, 1) @ s))
                z[trials] += (s.transpose(0, 2, 1) @ t_e)[:, 0]  # U_E s
            return z if r_inv is None else z @ r_inv.T

        x = downdate(y)
        if any(e.size for _, e, _ in groups):  # with nothing erased, Q^T y / a needs no refinement
            res = y - x @ phi.T
            for trials, e, _ in groups:
                res[trials[:, None], e] = 0.0  # nothing is received there
            x += downdate(res)
        if r_inv is None:  # R = I: the minimum-norm z is the minimum-norm x
            return x
        for trials, t_e, w, _, live in ops:
            # the rows of U^T, R^-1 U_E w for each null direction w, and 0 on the live
            # slots, where the identity in U^T U leaves x alone
            u = (w.transpose(0, 2, 1) @ t_e) @ r_inv.T * ~live[:, :, None]
            g = u @ u.transpose(0, 2, 1) + np.eye(live.shape[1]) * live[:, :, None]
            for _ in range(2):  # the second pass removes what rounding in g left along U
                c = np.linalg.solve(g, u @ x[trials][:, :, None])
                x[trials] -= (c.transpose(0, 2, 1) @ u)[:, 0]
        return x

    return decode


def _erasure_deficit(raw: np.ndarray, bound: Fraction | None):
    """``deficit(e)``: for each row of ``e``, one trial's k' erased columns
    of the integer matrix ``raw``, the dimension its survivors fail to span,
    k' - rank(C_E) for the integer matrix C_E of the module docstring.

    ``bound`` is A for a tight input and None for any other. One memo maps
    what fixes C_E exactly to the deficit, and C_E is built from Python ints
    and eliminated only on a miss. For a tight input the key is the exact
    Gram block G = raw_E^T raw_E, one batched checked_matmul per call: row j
    of C_E is p G_jj e_j - q G_j for A = p / q, that is q (A/s_j e_j - G_j)
    with s_j column j's scale, since G fixes the scales: every scaled basis
    is orthonormal, so s_j G_jj = 1 and A/s_j = A G_jj. Scaling every row by
    the one positive q keeps the rank and clears every fraction. Distinct
    erased sets often share G (on an ETF, G only depends on the signs of the
    erased vectors' inner products), so each G is eliminated once. For any other
    input the key is the erased columns, and C_E their rows of the integer
    kernel basis Z of ``raw``, computed once, on the first miss; a run that
    erases nothing never builds it.
    """
    if bound is None:  # the erased rows of a null-space basis
        kernel = functools.cache(lambda: int_kernel(raw).tolist())
        keys = lambda e: e  # noqa: E731
        c_block = lambda key: [kernel()[i] for i in key]  # noqa: E731
    else:  # C's block at the erased rows and columns
        def keys(e):
            cols = raw.T[e]
            return checked_matmul(cols, np.swapaxes(cols, -1, -2)).reshape(len(e), -1)

        def c_block(key):
            k = math.isqrt(len(key))
            gram = [key[i * k:(i + 1) * k] for i in range(k)]
            return [[bound.numerator * row[i] * (i == j) - bound.denominator * g
                     for j, g in enumerate(row)] for i, row in enumerate(gram)]
    memo: dict[tuple, int] = {}

    def deficit(e: np.ndarray) -> np.ndarray:
        if not e.shape[1]:
            return np.zeros(len(e), dtype=int)
        found = list(map(tuple, keys(e).tolist()))
        for key in set(found).difference(memo):
            memo[key] = e.shape[1] - _rank_fraction_free(c_block(key))
        return np.array([memo[key] for key in found])

    return deficit


def simulate(ff: FusionFrame, cfg: ChannelConfig,
             signal_source: SignalSource = default_signal_source) -> SimReport:
    """Run the channel over a frame or a fusion frame: send ``phi @ x`` in
    units, add noise, erase, decode, and aggregate the squared errors.

    Unit i is subspace i of ``ff``: the m_i coordinates ``B_i^T x`` of the
    signal in subspace i's scaled orthonormal basis, that is, the next
    ``ff.dims[i]`` columns of its integer matrix scaled by the square root
    of ``ff.scales[i]``, so an erasure drops the whole subspace. A frame is
    the fusion frame of its lines, one column and so one coefficient per
    unit. The scaled columns are T, and ``phi = T^T`` is the one analysis
    map: unit i sends its columns' coefficients, so it owns as many rows of
    ``phi`` as it has columns. The noise model is in the module docstring.
    Errors name the units by the object's kind: "coefficients" for a frame,
    "subspace pieces" for any other fusion frame.

    Tightness and A are ``ff.bound_A``, which the constructor's spanning
    proof has already formed. Trials are drawn and decoded ``BLOCK_TRIALS``
    at a time from the run's signal, noise and erasure streams, as the
    module docstring says. Each block's trials are grouped by k', and each
    group's erased columns ``e`` are all that the rest of the block reads of
    the erasures: the received rows there are zeroed, the deficits come from
    ``_erasure_deficit``, and the decoder reads its blocks from the rows at
    ``e`` of the whitened map. Naive mode needs a tight input and returns
    ``y phi / A``; otherwise every input decodes through ``_decoder``, whose
    exact deficits mark the null directions.

    A survivor set that does not span F^M, by the module docstring's one
    rule for every input, counts as non-recoverable; its minimum-norm
    solution is still recorded. A run with no erasures forms no
    Gram block and decides no deficit. ``survivor_sets`` counts the distinct
    sets of erased units: each block writes its sorted rows of unit indices
    into one packed (trials, k) array of the narrowest unsigned type that
    holds a unit index, counted by one sort at the end.
    """
    if not isinstance(ff, FusionFrame):
        raise ValidationError(f"simulate needs a frame or fusion frame, got {type(ff).__name__}")
    raw, rows, bound = ff.basis_raw, np.array(ff.dims), ff.bound_A
    starts = np.cumsum(rows) - rows
    n_units = len(rows)
    spec = cfg.erasure
    _check_erasure(spec, ff)
    phi = _analysis_map(raw, rows, ff.scales)
    m = phi.shape[1]
    deficit = _erasure_deficit(raw, bound)

    if cfg.mode == "naive" and bound is None:
        raise ValidationError("naive reconstruction requires a tight frame or fusion frame")
    decode = (lambda y, _: y @ phi / float(bound)) if cfg.mode == "naive" else _decoder(phi, bound)
    fixed = np.array(spec.indices, dtype=np.intp)  # empty unless the mode is fixed
    streams = np.random.SeedSequence(int(cfg.seed)).spawn(3)
    signals, noises, erasures = map(np.random.default_rng, streams)
    acc = _Accumulator()
    # every trial's erased units; k is 0, and the array empty, unless they are random
    drawn = np.empty((cfg.trials, spec.k), dtype=np.min_scalar_type(n_units - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite errors raise below
        for start in range(0, cfg.trials, BLOCK_TRIALS):
            n = min(BLOCK_TRIALS, cfg.trials - start)
            x = np.asarray(signal_source(signals, n, m), dtype=np.float64)
            if x.shape != (n, m):
                raise ValidationError(f"signal source gave shape {x.shape}, want {(n, m)}")
            y = x @ phi.T
            if cfg.noise_std > 0:
                y += noises.normal(0.0, cfg.noise_std, (n, len(phi)))
            if spec.mode == "random":  # the k smallest of one uniform per unit
                erased = np.argpartition(erasures.random((n, n_units)), spec.k - 1, axis=1)
                units = np.sort(erased[:, :spec.k], axis=1)
                drawn[start:start + n] = units
            else:
                units = np.broadcast_to(fixed, (n, len(fixed)))
            deficits = np.zeros(n, dtype=int)
            groups = []
            for trials, e in _erased_columns(units, rows, starts):
                y[trials[:, None], e] = 0.0  # nothing is received there
                deficits[trials] = d = deficit(e)
                groups.append((trials, e, d))
            mse = ((decode(y, groups) - x) ** 2).sum(axis=1)
            if not np.isfinite(mse).all():
                raise _non_finite(cfg)
            acc.add(mse, deficits == 0)
    # a fixed erasure, or none, leaves one survivor set
    return acc.report(cfg, _distinct_rows(drawn) if spec.k else 1)


# Two more public names of ``simulate``. The benchmark's span tracer wraps these
# names, and as it patches by identity, every binding of ``simulate`` too.
simulate_frame = simulate_fusion = simulate


def compare(
    candidates: Sequence[tuple[str, FusionFrame]],
    cfg: ChannelConfig,
    signal_source: SignalSource = default_signal_source,
) -> list[tuple[str, SimReport]]:
    """Simulate every named candidate under one config; rows come back
    sorted by mean MSE.

    Each run draws from the three streams of the shared seed. The signal
    stream depends only on the seed and the ambient dimension, which all
    candidates must share, so trial t feeds every candidate the same signal.
    Candidates with as many units and rows also draw the same noise and
    erasures. Names must be nonempty and distinct, so that a reader that
    keys the rows by name keeps every candidate.
    """
    cands = list(candidates)
    if not cands:
        raise ValidationError("compare needs at least one candidate")
    for name, obj in cands:
        if not isinstance(obj, FusionFrame):
            raise ValidationError(f"candidate {name!r} is not a frame or fusion frame")
    dims = {obj.ambient_dim for _, obj in cands}
    if len(dims) != 1:
        raise ValidationError(f"candidates span different ambient dimensions: {sorted(dims)}")
    for i, (name, _) in enumerate(cands):
        if not name or any(name == other for other, _ in cands[:i]):
            raise ValidationError(f"candidate name {name!r} is {'repeated' if name else 'empty'}")
    rows = [(name, simulate(obj, cfg, signal_source)) for name, obj in cands]
    return sorted(rows, key=lambda r: (r[1].mean_mse, r[0]))
