"""Monte-Carlo noise and erasure simulation for frames and fusion frames.

Channel model: every transmitted scalar coordinate picks up i.i.d.
zero-mean Gaussian noise; erasures drop whole coefficients (frame case)
or whole subspace pieces (fusion case). Reconstruction is least squares
on the surviving analysis map by default, or the naive tight-frame sum
for comparison against the analytic noise floor. Each trial draws from an
independent stream derived from (seed, trial index), so runs are
reproducible and order-independent; aggregation is in fixed trial order.
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


@dataclass(frozen=True)
class ErasureSpec:
    """What gets erased per trial: nothing, a fixed index set, or k at random."""

    mode: str
    indices: tuple[int, ...] = ()
    k: int = 0

    def __post_init__(self):
        if self.mode not in ("none", "fixed", "random"):
            raise ValidationError(f"unknown erasure mode {self.mode!r}")
        if self.mode == "fixed":
            ids = tuple(int(i) for i in self.indices)
            if len(set(ids)) != len(ids) or any(i < 0 for i in ids):
                raise ValidationError("fixed erasure indices must be distinct and >= 0")
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
    """Aggregated per-trial squared reconstruction errors."""

    mean_mse: float
    max_mse: float
    trials_run: int
    exact_recovery_count: int
    non_recoverable_count: int
    config: ChannelConfig


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
    if spec.mode == "fixed" and spec.indices and spec.indices[-1] >= units:
        raise ValidationError(
            f"fixed erasure index {spec.indices[-1]} out of range for {units} {what}"
        )
    if spec.mode == "random" and spec.k >= units:
        raise ValidationError(
            f"random erasure count {spec.k} must be below the {units} transmitted {what}"
        )


def _survivors(spec: ErasureSpec, units: int, rng: np.random.Generator) -> tuple[int, ...]:
    if spec.mode == "none":
        return tuple(range(units))
    if spec.mode == "fixed":
        dropped = set(spec.indices)
    else:
        dropped = set(int(i) for i in rng.choice(units, size=spec.k, replace=False))
    return tuple(i for i in range(units) if i not in dropped)


@dataclass
class _Accumulator:
    total: float = 0.0
    peak: float = 0.0
    exact: int = 0
    nonrec: int = 0

    def add(self, mse: float, recoverable: bool, threshold: float) -> None:
        self.total += mse
        self.peak = max(self.peak, mse)
        if mse < threshold:
            self.exact += 1
        if not recoverable:
            self.nonrec += 1

    def report(self, cfg: ChannelConfig) -> SimReport:
        return SimReport(
            mean_mse=self.total / cfg.trials,
            max_mse=self.peak,
            trials_run=cfg.trials,
            exact_recovery_count=self.exact,
            non_recoverable_count=self.nonrec,
            config=cfg,
        )


def simulate_frame(
    f: ScaledFrame,
    cfg: ChannelConfig,
    signal_source: SignalSource = default_signal_source,
) -> SimReport:
    """Transmit frame coefficients of random signals; reconstruct; aggregate.

    Per trial: draw x, compute coefficients, add noise, erase, then decode
    from the survivors. Rank of the surviving synthesis map is decided in
    exact integer arithmetic; rank-deficient trials are counted as
    non-recoverable (the minimum-norm solution is still recorded).
    """
    n = f.count
    _check_erasure(cfg.erasure, n, "coefficients")
    t_syn = synthesis_matrix(f)
    bound_f = 0.0
    if cfg.mode == "naive":
        tight, bound = is_tight(f)
        if not tight:
            raise ValidationError("naive reconstruction requires a tight frame")
        bound_f = float(bound)

    rank_cache: dict[tuple[int, ...], bool] = {}

    def spans(surv: tuple[int, ...]) -> bool:
        got = rank_cache.get(surv)
        if got is None:
            got = len(surv) >= f.ambient_dim and int_rank(f.raw[:, list(surv)]) == f.ambient_dim
            rank_cache[surv] = got
        return got

    acc = _Accumulator()
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        x = signal_source(rng, f.ambient_dim)
        coeff = t_syn.T @ x
        if cfg.noise_std > 0:
            coeff = coeff + rng.normal(0.0, cfg.noise_std, size=n)
        surv = _survivors(cfg.erasure, n, rng)
        if not surv:
            xhat = np.zeros(f.ambient_dim)
        elif cfg.mode == "naive":
            xhat = (t_syn[:, list(surv)] @ coeff[list(surv)]) / bound_f
        else:
            xhat = np.linalg.lstsq(t_syn.T[list(surv)], coeff[list(surv)], rcond=None)[0]
        mse = float(((xhat - x) ** 2).sum())
        acc.add(mse, spans(surv), cfg.exact_threshold)
    return acc.report(cfg)


def simulate_fusion(
    ff: FusionFrame,
    cfg: ChannelConfig,
    signal_source: SignalSource = default_signal_source,
) -> SimReport:
    """Transmit subspace projections of random signals; erasures drop whole
    subspaces; decode by least squares on the stacked surviving projections."""
    units = len(ff.subspaces)
    _check_erasure(cfg.erasure, units, "subspace pieces")
    big_m = ff.ambient_dim
    projections = [_float_projection(s) for s in ff.subspaces]
    bound_f = 0.0
    if cfg.mode == "naive":
        tight, bound = fusion_tight(ff)
        if not tight:
            raise ValidationError("naive reconstruction requires a tight fusion frame")
        bound_f = float(bound)

    rank_cache: dict[tuple[int, ...], bool] = {}

    def spans(surv: tuple[int, ...]) -> bool:
        got = rank_cache.get(surv)
        if got is None:
            stacked = np.hstack([ff.subspaces[i].basis_raw for i in surv]) if surv else np.zeros((big_m, 0), dtype=np.int64)
            got = surv != () and int_rank(stacked) == big_m
            rank_cache[surv] = got
        return got

    acc = _Accumulator()
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        x = signal_source(rng, big_m)
        pieces = np.stack([p @ x for p in projections])
        if cfg.noise_std > 0:
            pieces = pieces + rng.normal(0.0, cfg.noise_std, size=pieces.shape)
        surv = _survivors(cfg.erasure, units, rng)
        if not surv:
            xhat = np.zeros(big_m)
        elif cfg.mode == "naive":
            xhat = pieces[list(surv)].sum(axis=0) / bound_f
        else:
            stacked_p = np.vstack([projections[i] for i in surv])
            stacked_y = np.concatenate([pieces[i] for i in surv])
            xhat = np.linalg.lstsq(stacked_p, stacked_y, rcond=None)[0]
        mse = float(((xhat - x) ** 2).sum())
        acc.add(mse, spans(surv), cfg.exact_threshold)
    return acc.report(cfg)


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
