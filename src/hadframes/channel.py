"""Monte-Carlo noise and erasure channel for frames and fusion frames.

A fusion frame generalizes a frame, and one trial loop (``_simulate``)
sends both: a frame of N vectors as N units of one coefficient each, a
fusion frame of L subspaces as L pieces of M rows each. The analysis map,
each unit's integer columns and the naive receiver are all that differ.
Every transmitted scalar picks up i.i.d. zero-mean Gaussian noise of
standard deviation sigma, and an erasure drops whole units (Kutyniok,
Pezeshki, Calderbank & Liu, "Robust dimension reduction, fusion frames,
and Grassmannian packings", ACHA 2009). Reconstruction is least squares on
the surviving rows by default, or the naive tight-frame sum for comparison
against the analytic noise floor. Each trial draws from an independent
stream derived from (seed, trial index), so runs are reproducible and
order-independent; aggregation is in fixed trial order.

Fusion noise model. Piece i is the ambient M-vector P_i x, and noise hits
all M of its coordinates, including the M - m_i outside W_i. The naive
receiver sums the pieces it gets and divides by the tight bound A without
projecting them first, so with no erasures its error is (1/A) sum_i n_i
and its mean squared error is L*M*sigma^2/A^2. The paper above sends each
piece as its m_i coordinates in W_i, so noise stays inside the subspace; a
receiver that applied P_i to each piece before summing would see that
model, with mean squared error sigma^2 * sum_i m_i / A^2. The
least-squares receiver fits all received coordinates, so it does remove
the noise outside the subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .frames import ScaledFrame, is_tight, synthesis_matrix
from .fusion import FusionFrame, fusion_tight, _float_projection
from .intlinalg import int_rank

SignalSource = Callable[[np.random.Generator, int], np.ndarray]
Receiver = Callable[[np.ndarray, tuple[int, ...]], np.ndarray]  # (y, survivors) -> xhat


@dataclass(frozen=True)
class ErasureSpec:
    """What gets erased per trial: nothing, a fixed index set, or k at random."""

    mode: str
    indices: tuple[int, ...] = ()
    k: int = 0

    def __post_init__(self):
        if self.mode not in ("none", "fixed", "random"):
            raise ValidationError(f"unknown erasure mode {self.mode!r}")
        if self.mode != "fixed" and len(self.indices):
            raise ValidationError(f"erasure mode {self.mode!r} takes no indices")
        if self.mode != "random" and self.k != 0:
            raise ValidationError(f"erasure mode {self.mode!r} takes no count k")
        if self.mode == "fixed":
            ids = tuple(int(i) for i in self.indices)
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
        return cls(mode="random", k=int(k))


@dataclass(frozen=True)
class ChannelConfig:
    """Noise level, erasure pattern, trial count, seed, and decode mode."""

    noise_std: float = 0.0
    erasure: ErasureSpec = field(default_factory=ErasureSpec.none)
    trials: int = 1
    seed: int = 0
    mode: str = "lstsq"
    exact_threshold: float = 1e-20

    def __post_init__(self):
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValidationError(f"noise_std must be finite and nonnegative, got {self.noise_std}")
        if not math.isfinite(self.exact_threshold):
            raise ValidationError(f"exact_threshold must be finite, got {self.exact_threshold}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
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


def default_signal_source(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unit-norm direction drawn uniformly (normalized Gaussian)."""
    while True:
        v = rng.standard_normal(dim)
        nrm = np.linalg.norm(v)
        if nrm > 0:
            return v / nrm


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(trial)])


def _check_erasure(spec: ErasureSpec, units: int, what: str) -> None:
    if spec.indices and spec.indices[-1] >= units:
        raise ValidationError(
            f"fixed erasure index {spec.indices[-1]} out of range for {units} {what}"
        )
    if spec.mode == "random" and spec.k >= units:
        raise ValidationError(
            f"random erasure count {spec.k} must be below the {units} transmitted {what}"
        )


def _survivors(spec: ErasureSpec, units: int, rng: np.random.Generator) -> tuple[int, ...]:
    dropped = set(spec.indices)  # empty unless the mode is fixed
    if spec.mode == "random":
        dropped = set(int(i) for i in rng.choice(units, size=spec.k, replace=False))
    return tuple(i for i in range(units) if i not in dropped)


@dataclass
class _Accumulator:
    total: float = 0.0
    peak: float = 0.0
    exact: int = 0
    nonrec: int = 0
    count: int = 0
    mean: float = 0.0  # Welford running mean and sum of squared deviations
    m2: float = 0.0

    def add(self, mse: float, recoverable: bool, threshold: float) -> None:
        self.total += mse
        self.peak = max(self.peak, mse)
        if mse < threshold:
            self.exact += 1
        if not recoverable:
            self.nonrec += 1
        self.count += 1
        delta = mse - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (mse - self.mean)

    def report(self, cfg: ChannelConfig, survivor_sets: int) -> SimReport:
        n = self.count
        return SimReport(
            mean_mse=self.total / cfg.trials,
            max_mse=self.peak,
            trials_run=cfg.trials,
            exact_recovery_count=self.exact,
            non_recoverable_count=self.nonrec,
            config=cfg,
            mean_mse_stderr=math.sqrt(self.m2 / (n - 1) / n) if n > 1 else 0.0,
            survivor_sets=survivor_sets,
        )


def _lstsq_decoder(phi: np.ndarray, rows_per_unit: int):
    """Least-squares decoder for the stacked analysis map ``phi``.

    ``phi`` has ``rows_per_unit`` rows per transmitted unit. The returned
    ``decode(y, surv)`` gives the minimum-norm least-squares solution of
    ``phi_S x = y_S``, where S keeps the rows of the surviving units: the
    result of ``np.linalg.lstsq(phi_S, y_S, rcond=None)``. The first time a
    survivor set is seen, its M x M map ``D_S = V diag(1/s^2) V^T`` is built
    from the SVD of ``R = qr(phi_S)``, keeping the singular values above
    lstsq's own cutoff ``eps * max(phi_S.shape) * s[0]``. Each trial then
    solves the seminormal equations ``x = D_S phi^T (y * mask_S)``, where
    ``mask_S`` zeroes the erased units' rows, and takes one correction step
    ``x += D_S phi^T ((y - phi x) * mask_S)``. The correction keeps the result
    within about ``eps * cond(phi_S)`` of lstsq's; without it the error
    grows with ``cond(phi_S)**2``. At most ``phi.size // M**2`` maps are
    kept, so the cache never outgrows ``phi``; once it is full, each new
    set goes to ``np.linalg.lstsq``.
    """
    units, m = phi.shape[0] // rows_per_unit, phi.shape[1]
    cap = phi.size // (m * m)
    maps: dict[tuple[int, ...], np.ndarray] = {}

    def decode(y: np.ndarray, surv: tuple[int, ...]) -> np.ndarray:
        d = maps.get(surv)
        if d is None:
            idx = (np.array(surv)[:, None] * rows_per_unit + np.arange(rows_per_unit)).ravel()
            if len(maps) >= cap:
                return np.linalg.lstsq(phi[idx], y[idx], rcond=None)[0]
            r = np.linalg.qr(phi[idx], mode="r")
            _, s, vt = np.linalg.svd(r, full_matrices=False)
            kept = s > np.finfo(float).eps * max(len(idx), m) * s[0]
            v = vt[kept].T
            d = maps[surv] = (v / s[kept] ** 2) @ v.T
        unit_mask = np.zeros(units)
        unit_mask[list(surv)] = 1.0
        mask = np.repeat(unit_mask, rows_per_unit)
        x = d @ (phi.T @ (y * mask))
        return x + d @ (phi.T @ ((y - phi @ x) * mask))

    return decode


def _simulate(phi: np.ndarray, rows_per_unit: int, unit_columns: Sequence[np.ndarray],
              naive: Callable[[], Receiver], what: str, cfg: ChannelConfig,
              signal_source: SignalSource) -> SimReport:
    """The trial loop: send ``phi @ x`` in units, add noise, erase, decode.

    ``phi`` is the stacked analysis map, ``rows_per_unit`` rows per unit.
    A survivor set spans F^M when its units' integer columns number at
    least M and have rank M, decided exactly once per set. In naive mode,
    ``naive()`` is called after the erasure check and returns the receiver
    ``(y, survivors) -> xhat``; otherwise ``_lstsq_decoder`` decodes.
    ``what`` names the units in error messages.
    """
    units, m = len(unit_columns), phi.shape[1]
    _check_erasure(cfg.erasure, units, what)
    decode = naive() if cfg.mode == "naive" else _lstsq_decoder(phi, rows_per_unit)
    widths = [c.shape[1] for c in unit_columns]
    spans: dict[tuple[int, ...], bool] = {}
    acc = _Accumulator()
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        x = signal_source(rng, m)
        y = phi @ x
        if cfg.noise_std > 0:
            y = y + rng.normal(0.0, cfg.noise_std, size=y.shape)
        surv = _survivors(cfg.erasure, units, rng)
        xhat = decode(y, surv) if surv else np.zeros(m)
        if surv not in spans:
            spans[surv] = sum(widths[i] for i in surv) >= m and int_rank(
                np.hstack([unit_columns[i] for i in surv])) == m
        acc.add(float(((xhat - x) ** 2).sum()), spans[surv], cfg.exact_threshold)
    return acc.report(cfg, len(spans))


def simulate_frame(
    f: ScaledFrame,
    cfg: ChannelConfig,
    signal_source: SignalSource = default_signal_source,
) -> SimReport:
    """Transmit frame coefficients of random signals; reconstruct; aggregate.

    Each of the ``count`` units is one coefficient, a row of ``T^T``. A
    survivor set that does not span F^M counts as non-recoverable; its
    minimum-norm solution is still recorded. Least squares runs through
    ``_lstsq_decoder``.
    """
    t_syn = synthesis_matrix(f)

    def naive():
        tight, bound = is_tight(f)
        if not tight:
            raise ValidationError("naive reconstruction requires a tight frame")
        a = float(bound)
        return lambda y, surv: (t_syn[:, list(surv)] @ y[list(surv)]) / a

    columns = [f.raw[:, j:j + 1] for j in range(f.count)]
    return _simulate(t_syn.T, 1, columns, naive, "coefficients", cfg, signal_source)


def simulate_fusion(
    ff: FusionFrame,
    cfg: ChannelConfig,
    signal_source: SignalSource = default_signal_source,
) -> SimReport:
    """Transmit subspace projections of random signals; erasures drop whole
    subspaces; reconstruct; aggregate.

    Each of the L units is the ambient M-vector ``P_i x``. Least squares
    runs through ``_lstsq_decoder`` on the L projections stacked. The noise
    model is in the module docstring.
    """
    big_m = ff.ambient_dim

    def naive():
        tight, bound = fusion_tight(ff)
        if not tight:
            raise ValidationError("naive reconstruction requires a tight fusion frame")
        a = float(bound)
        return lambda y, surv: y.reshape(-1, big_m)[list(surv)].sum(axis=0) / a

    phi = np.vstack([_float_projection(s) for s in ff.subspaces])
    columns = [s.basis_raw for s in ff.subspaces]
    return _simulate(phi, big_m, columns, naive, "subspace pieces", cfg, signal_source)


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
    """Simulate every named candidate with a shared seed schedule.

    All candidates must share the ambient dimension so each trial feeds
    them the same signal; rows come back sorted by mean MSE.
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
