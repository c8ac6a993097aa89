"""Monte-Carlo noise and erasure channel for frames and fusion frames.

A fusion frame of L subspaces is a frame of sum_i m_i scaled basis
vectors, sent in L units of m_i coefficients each; a frame of N vectors is
the case m_i = 1. One trial loop (``_simulate``) sends both through one
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
trial by trial. Each block decodes the received coefficients
y = x phi^T + noise under its survivor masks with a few matrix products
over all its rows, b = (y * mask) phi first. The errors are then
aggregated in trial order. How the trials are blocked moves a report's
floats in their last bits at most, and its counts not at all.

Decoding a tight input. Every object the package builds is tight: the
scaled columns T of its units (a frame's vectors, or each subspace's
orthonormal basis) satisfy T T^T = A I. Least squares on the survivors then
solves N x = b, with b = phi^T (y * mask) and N = A I - T_E T_E^T, where
T_E holds only the k' erased columns (k for a frame, the sum of the erased
m_i for a fusion frame). Write T_E^T T_E = W diag(lam) W^T, every lam_j in
[0, A]. The minimum-norm solution that np.linalg.lstsq would return is

    x = b / A + T_E W diag(h) W^T T_E^T b,

with h_j = 1 / (A (A - lam_j)) (the Woodbury identity), except
h_j = -1 / A^2 where lam_j = A: those directions span the null space of N,
and -1/A^2 gives the pseudo-inverse's 0 there. A block's trials are grouped
by k'. Each trial's T_E^T T_E is read from the float Gram phi phi^T, built
once per run, and each group runs one batched k' x k' eigenproblem; no
survivor set's rows are factored. Which lam_j equal A is never decided by
a float cutoff: they come out within about eps * A of A, and 1 / (A - lam_j)
would then blow rounding error up by 1/eps. Their number is the exact
deficit below, the dimension of the null space of N.

Decoding an input that is not tight. Such an input can only come from an
import. Each block groups its trials by survivor set, and each set's trials
are solved together by one np.linalg.lstsq call on the surviving rows, with
one right-hand side per trial.

Recoverability. A trial is recoverable when its survivors span F^M, and
one rule decides it for every input, in both modes. Let raw be the input's
integer M x N matrix, E its k' erased columns, and C_E the k' rows at E of
an integer matrix whose columns span the null space of raw (of dimension
N - M, since every input spans). The survivors fail to span k' - rank(C_E)
dimensions, the deficit: their null vectors are the null vectors of raw
that vanish on E, a space of dimension N - M - rank(C_E), so the N - k'
survivors span M - k' + rank(C_E). An input that is not tight reads C_E
from an integer null-space basis Z of raw (``int_kernel``), computed once
per run, at the first erasure. A tight input reads it from
C = diag(q) (A D^-1 - raw^T raw), where D holds the columns' scales and q
clears the denominators (for a frame, C = c I - raw^T raw with
c = A / scale_sq): A I - T^T T is A times
the projection onto the null space of T, so C is that projection with its
rows and columns scaled by positive factors, and C's k' x k' block at E,
which serves as C_E, has the rank of C's rows at E. C's entries come from
the exact integer Gram raw^T raw, which checked_matmul computes once per
run and which is held as Python ints. Each distinct C_E is eliminated
once, exactly, by fraction-free elimination, and the deficit is decided
once per survivor set.

Fusion noise model. Piece i is sent as its m_i coordinates B_i^T x in
the scaled orthonormal basis B_i of W_i, as in the paper above, so noise
stays inside the subspace and an erasure drops m_i numbers. The naive
receiver phi^T (y * mask) / A is the tight-frame sum (1/A) sum_i B_i y_i
over the pieces received; with no erasures its mean squared error is
sigma^2 * sum_i m_i / A^2, which for a frame of N unit vectors reads
N sigma^2 / A^2.
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
SignalSource = Callable[[np.random.Generator, int, int], np.ndarray]

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


def _check_erasure(spec: ErasureSpec, units: int, what: str) -> None:
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
    total: float = 0.0
    peak: float = 0.0
    exact: int = 0
    nonrec: int = 0
    count: int = 0
    # Welford running mean and sum of squared deviations, both counted in
    # units of ``unit``: a power of two, 1 until a squared error exceeds it,
    # then at least half the peak. Squared deviations then stay below 4 and
    # cannot overflow while the errors are finite. Scaling by a power of two
    # rounds nothing short of underflow, so wherever the unscaled sums stay
    # finite, the result is theirs bit for bit.
    unit: float = 1.0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, mse: float, recoverable: bool) -> None:
        self.total += mse
        self.peak = max(self.peak, mse)
        if mse < EXACT_THRESHOLD:
            self.exact += 1
        if not recoverable:
            self.nonrec += 1
        self.count += 1
        if mse > self.unit:
            unit = math.ldexp(1.0, math.frexp(mse)[1] - 1)
            self.mean *= self.unit / unit
            self.m2 *= (self.unit / unit) ** 2
            self.unit = unit
        x = mse / self.unit
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def report(self, cfg: ChannelConfig, survivor_sets: int) -> SimReport:
        n = self.count
        mean = self.total / cfg.trials
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


def _lstsq_decoder(phi: np.ndarray, rows: np.ndarray):
    """Least-squares decoder for the analysis map ``phi`` of an input that
    is not tight, which only an import can give.

    Unit i owns the next ``rows[i]`` rows of ``phi``. The returned
    ``decode(y, keeps, deficits)`` takes one trial per row, as
    ``_downdate_decoder``'s does, and ignores ``deficits``. Row t of the
    result is ``np.linalg.lstsq(phi_S, y[t]_S, rcond=None)`` for trial t's
    survivors S, or 0 where every unit is erased. Each distinct survivor set
    of the block is solved once, with its trials as the right-hand sides.
    """

    def decode(y: np.ndarray, keeps: np.ndarray, deficits: np.ndarray) -> np.ndarray:
        x = np.zeros((len(y), phi.shape[1]))
        groups: dict[bytes, list[int]] = {}
        for t, keep in enumerate(keeps):
            groups.setdefault(keep.tobytes(), []).append(t)
        for group in groups.values():
            mask = np.repeat(keeps[group[0]], rows)
            if mask.any():
                x[group] = np.linalg.lstsq(phi[mask], y[group][:, mask].T, rcond=None)[0].T
        return x

    return decode


def _downdate_decoder(phi: np.ndarray, rows: np.ndarray, bound: Fraction):
    """Least-squares decoder for a tight input: the rank-k' downdate of the
    module docstring, run on a block of trials.

    Unit i owns the next ``rows[i]`` rows of ``phi``, and ``phi^T phi`` =
    ``bound`` * I. The returned ``decode(y, keeps, deficits)`` takes one
    trial per row: its received coefficients in ``y``, its survivor mask in
    ``keeps``, and in ``deficits`` the exact dimension of the null space of
    its survivors' normal matrix. Row t of the result is
    ``np.linalg.lstsq(phi_S, y[t]_S, rcond=None)`` for trial t's survivors
    S, computed without factoring phi_S.
    """
    a = float(bound)
    gram = phi @ phi.T

    def decode(y: np.ndarray, keeps: np.ndarray, deficits: np.ndarray) -> np.ndarray:
        erased = ~np.repeat(keeps, rows, axis=1)
        b = (y * ~erased) @ phi
        x = b / a
        counts = erased.sum(axis=1)
        for k in set(counts.tolist()) - {0}:
            group = np.flatnonzero(counts == k)
            e = erased[group].nonzero()[1].reshape(-1, k)  # each trial's erased rows
            lam, w = np.linalg.eigh(gram[e[:, :, None], e[:, None, :]])
            # lam <= A in ascending order, so each trial's null directions come last
            live = np.arange(k) < k - deficits[group][:, None]
            h = np.full(lam.shape, -1.0 / a**2)
            h[live] = 1.0 / (a * (a - lam[live]))
            z = np.take_along_axis(b[group] @ phi.T, e, axis=1)  # T_E^T b
            v = (w @ (h * (z[:, None, :] @ w)[:, 0])[:, :, None])[:, :, 0]
            s = np.zeros((len(group), len(phi)))
            np.put_along_axis(s, e, v, axis=1)
            x[group] += s @ phi  # T_E v
        return x

    return decode


def _erasure_deficit(raw: np.ndarray, rows: np.ndarray, scales: Sequence[Fraction],
                     bound: Fraction | None):
    """``deficit(keep)``: the dimension the survivors fail to span,
    k' - rank(C_E) for the integer matrix C_E of the module docstring.

    ``raw`` holds the input's integer columns, unit i owns the next
    ``rows[i]`` of them, and their scale is ``scales[i]``; ``bound`` is A
    for a tight input and None for any other. For a tight input, row j of
    C_E is q_j (A/s_j e_j - G_j) over the erased columns, where
    G = raw_E^T raw_E, s_j is column j's scale and q_j the denominator of
    A/s_j, so scaling rows by q_j keeps the rank and clears every fraction;
    G is read from the exact Gram of all columns, computed once. For any
    other input, C_E is the erased rows of the integer kernel basis Z of
    ``raw``, computed once, when the first trial erases a column; a run
    that erases nothing never builds it. Distinct survivor sets often share
    C_E (on an ETF, C_E only depends on the signs of the erased vectors'
    inner products), so each C_E is eliminated once.
    """
    if bound is None:  # the erased rows of a null-space basis
        kernel = functools.cache(lambda: int_kernel(raw).tolist())
        erased_rows = lambda e: [kernel()[i] for i in e]  # noqa: E731
    else:  # C's block at the erased rows and columns
        gram = checked_matmul(raw.T, raw).tolist()
        ratios = [bound / scale for scale, r in zip(scales, rows) for _ in range(r)]
        num, den = [r.numerator for r in ratios], [r.denominator for r in ratios]
        erased_rows = lambda e: [[num[i] * (i == j) - den[i] * gram[i][j] for j in e] for i in e]  # noqa: E731
    rank = functools.cache(_rank_fraction_free)

    def deficit(keep: np.ndarray) -> int:
        c = tuple(map(tuple, erased_rows(np.flatnonzero(~np.repeat(keep, rows)).tolist())))
        return len(c) - rank(c) if c else 0

    return deficit


def _simulate(ff: FusionFrame, what: str, cfg: ChannelConfig,
              signal_source: SignalSource) -> SimReport:
    """The trial loop: send ``phi @ x`` in units, add noise, erase, decode.

    Unit i is subspace i of ``ff``, the next ``ff.dims[i]`` columns of its
    integer matrix, scaled by the square root of ``ff.scales[i]``; a frame
    is the fusion frame of its lines, one column per unit. The scaled
    columns are T, and ``phi = T^T`` is the one analysis map: unit i sends
    its columns' coefficients, so it owns as many rows of ``phi`` as it has
    columns.
    Tightness and A are ``ff.bound_A``, which the constructor's spanning
    proof has already formed. Trials are drawn and decoded ``BLOCK_TRIALS``
    at a time from the run's signal, noise and erasure streams, as the
    module docstring says. Naive mode needs a tight input and returns
    ``(y * mask) phi / A``; otherwise a tight input decodes through
    ``_downdate_decoder`` and any other through ``_lstsq_decoder``, one
    lstsq call per survivor set and block. Every input decides
    recoverability by one rule, once per survivor set: the survivors fail
    to span F^M by k' - rank(C_E), since their null vectors are the null
    vectors of the input's integer matrix that vanish on the erased
    columns (``_erasure_deficit``). ``what`` names the units in error
    messages.
    """
    raw, rows, scales, bound = ff.basis_raw, np.array(ff.dims), ff.scales, ff.bound_A
    n_units = len(rows)
    spec = cfg.erasure
    _check_erasure(spec, n_units, what)
    phi = _analysis_map(raw, rows, scales)
    m = phi.shape[1]
    tight = bound is not None
    rank_deficit = _erasure_deficit(raw, rows, scales, bound)
    deficit = functools.cache(lambda key: rank_deficit(np.frombuffer(key, dtype=bool)))

    if cfg.mode == "naive":
        if not tight:
            raise ValidationError("naive reconstruction requires a tight frame or fusion frame")
        a = float(bound)
        decode = lambda y, keeps, _: (y * np.repeat(keeps, rows, axis=1)) @ phi / a  # noqa: E731
    elif tight:
        decode = _downdate_decoder(phi, rows, bound)
    else:
        decode = _lstsq_decoder(phi, rows)
    streams = np.random.SeedSequence(int(cfg.seed)).spawn(3)
    signals, noises, erasures = map(np.random.default_rng, streams)
    acc = _Accumulator()
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite errors raise below
        for start in range(0, cfg.trials, BLOCK_TRIALS):
            n = min(BLOCK_TRIALS, cfg.trials - start)
            x = np.asarray(signal_source(signals, n, m), dtype=np.float64)
            if x.shape != (n, m):
                raise ValidationError(f"signal source gave shape {x.shape}, want {(n, m)}")
            y = x @ phi.T
            if cfg.noise_std > 0:
                y += noises.normal(0.0, cfg.noise_std, (n, len(phi)))
            keeps = np.ones((n, n_units), dtype=bool)
            keeps[:, list(spec.indices)] = False  # empty unless the mode is fixed
            if spec.mode == "random":  # the k smallest of one uniform per unit
                erased = np.argpartition(erasures.random((n, n_units)), spec.k - 1, axis=1)
                np.put_along_axis(keeps, erased[:, :spec.k], False, axis=1)
            deficits = np.array([deficit(keep.tobytes()) for keep in keeps])
            mse = ((decode(y, keeps, deficits) - x) ** 2).sum(axis=1)
            if not np.isfinite(mse).all():
                raise _non_finite(cfg)
            for err, d in zip(mse.tolist(), deficits.tolist()):
                acc.add(err, d == 0)
    return acc.report(cfg, deficit.cache_info().currsize)


def simulate_frame(
    f: ScaledFrame,
    cfg: ChannelConfig,
    signal_source: SignalSource = default_signal_source,
) -> SimReport:
    """Transmit frame coefficients of random signals; reconstruct; aggregate.

    A frame is the fusion frame of its lines, so it goes down
    ``simulate_fusion``'s path: each of the ``count`` units is one
    coefficient, a row of ``T^T``. A survivor set that does not span F^M
    counts as non-recoverable; its minimum-norm solution is still recorded.
    """
    return _simulate(f, "coefficients", cfg, signal_source)


def simulate_fusion(
    ff: FusionFrame,
    cfg: ChannelConfig,
    signal_source: SignalSource = default_signal_source,
) -> SimReport:
    """Transmit subspace coordinates of random signals; erasures drop whole
    subspaces; reconstruct; aggregate.

    Each of the L units is the m_i coordinates ``B_i^T x`` of the signal in
    subspace i's scaled orthonormal basis, so the fusion frame goes through
    the channel as the frame of all its basis vectors. The noise model is in
    the module docstring.
    """
    return _simulate(ff, "subspace pieces", cfg, signal_source)


# Entries call through the module names, so a simulator rebound on this module
# (by a monkeypatch or the benchmark's span tracer) is the one that runs.
_SIMULATORS = {
    ScaledFrame: lambda f, cfg, source: simulate_frame(f, cfg, source),
    FusionFrame: lambda ff, cfg, source: simulate_fusion(ff, cfg, source),
}


def simulate(obj, cfg: ChannelConfig,
             signal_source: SignalSource = default_signal_source) -> SimReport:
    """Run the channel over a frame or a fusion frame."""
    run = _SIMULATORS.get(type(obj))
    if run is None:
        raise ValidationError(f"simulate needs a frame or fusion frame, got {type(obj).__name__}")
    return run(obj, cfg, signal_source)


def compare(
    candidates: Sequence[tuple[str, ScaledFrame | FusionFrame]],
    cfg: ChannelConfig,
    signal_source: SignalSource = default_signal_source,
) -> list[tuple[str, SimReport]]:
    """Simulate every named candidate under one config; rows come back
    sorted by mean MSE.

    Each run draws from the three streams of the shared seed. The signal
    stream depends only on the seed and the ambient dimension, which all
    candidates must share, so trial t feeds every candidate the same signal.
    Candidates with as many units and rows also draw the same noise and
    erasures.
    """
    cands = list(candidates)
    if not cands:
        raise ValidationError("compare needs at least one candidate")
    for name, obj in cands:
        if type(obj) not in _SIMULATORS:
            raise ValidationError(f"candidate {name!r} is not a frame or fusion frame")
    dims = {obj.ambient_dim for _, obj in cands}
    if len(dims) != 1:
        raise ValidationError(f"candidates span different ambient dimensions: {sorted(dims)}")
    rows = [(name, simulate(obj, cfg, signal_source)) for name, obj in cands]
    return sorted(rows, key=lambda r: (r[1].mean_mse, r[0]))
