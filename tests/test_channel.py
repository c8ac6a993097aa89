"""Noise/erasure simulation: determinism, recovery, and the analytic noise floor."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from hadframes import (
    ChannelConfig,
    ErasureSpec,
    ValidationError,
    build_gff,
    build_walsh,
    compare,
    equidistance_certificate,
    etf_from_hadamard,
    frame_from_integer_columns,
    fusion_tight,
    make_fusion_frame,
    simulate_frame,
    simulate_fusion,
    subspace_from_columns,
)
from hadframes.channel import simulate
from hadframes.serialize import canonical_dumps, report_to_dict


@pytest.fixture(scope="module")
def etf4():
    return etf_from_hadamard(build_walsh(2).base)


@pytest.fixture(scope="module")
def basis3():
    return frame_from_integer_columns(np.eye(3, dtype=int), 1)


def line(ambient, axis):
    col = np.zeros((ambient, 1), dtype=int)
    col[axis, 0] = 1
    return subspace_from_columns(col, 1)


@pytest.fixture(scope="module")
def comparator6():
    """Tight, equal-dim, non-equi-distance fusion frame in F^6."""
    e = np.eye(6, dtype=int)
    diag_a = np.zeros((6, 2), dtype=int)
    diag_a[0, 0] = diag_a[2, 0] = 1
    diag_a[1, 1] = diag_a[3, 1] = 1
    diag_b = np.zeros((6, 2), dtype=int)
    diag_b[0, 0], diag_b[2, 0] = 1, -1
    diag_b[1, 1], diag_b[3, 1] = 1, -1
    ff = make_fusion_frame(
        [
            subspace_from_columns(e[:, :2], 1),
            subspace_from_columns(e[:, 2:4], 1),
            subspace_from_columns(e[:, 4:6], 1),
            subspace_from_columns(diag_a, Fraction(1, 2)),
            subspace_from_columns(diag_b, Fraction(1, 2)),
            subspace_from_columns(e[:, 4:6], 1),
        ]
    )
    assert fusion_tight(ff) == (True, 2)
    cert = equidistance_certificate(ff)
    assert cert.equal_dim and not cert.equi_distance
    return ff


# ---------------------------------------------------------------------------
# clean-channel behavior


def test_tight_frame_recovers_exactly_without_noise(etf4):
    rep = simulate_frame(etf4, ChannelConfig(trials=50, seed=1))
    assert rep.mean_mse < 1e-20 and rep.max_mse < 1e-20
    assert rep.exact_recovery_count == 50
    assert rep.non_recoverable_count == 0


def test_tight_fusion_frame_recovers_exactly_without_noise():
    rep = simulate_fusion(build_gff(3, 1), ChannelConfig(trials=50, seed=2))
    assert rep.max_mse < 1e-20
    assert rep.exact_recovery_count == 50


@pytest.mark.parametrize("erased", [0, 1, 2, 3])
def test_etf4_survives_any_single_coefficient_erasure(etf4, erased):
    cfg = ChannelConfig(erasure=ErasureSpec.fixed([erased]), trials=30, seed=3)
    rep = simulate_frame(etf4, cfg)
    assert rep.non_recoverable_count == 0
    assert rep.exact_recovery_count == 30


@pytest.mark.parametrize("erased", [0, 1, 2, 3])
def test_gff31_survives_any_single_subspace_erasure(erased):
    ff = build_gff(3, 1)
    cfg = ChannelConfig(erasure=ErasureSpec.fixed([erased]), trials=20, seed=4)
    rep = simulate_fusion(ff, cfg)
    assert rep.non_recoverable_count == 0
    assert rep.exact_recovery_count == 20


def test_erasing_a_basis_vector_is_not_recoverable(basis3):
    cfg = ChannelConfig(erasure=ErasureSpec.fixed([1]), trials=10, seed=5)
    rep = simulate_frame(basis3, cfg)
    assert rep.non_recoverable_count == 10
    assert rep.exact_recovery_count == 0
    assert np.isfinite(rep.max_mse)  # minimum-norm solution, never unbounded


# ---------------------------------------------------------------------------
# noise floor


def test_naive_noise_mse_matches_analytic_value(etf4):
    sigma = 0.1
    cfg = ChannelConfig(noise_std=sigma, trials=4000, seed=6, mode="naive")
    rep = simulate_frame(etf4, cfg)
    target = sigma**2 * etf4.count / float(4 / 3) ** 2
    assert abs(rep.mean_mse - target) < 0.10 * target


def test_naive_noise_mse_against_independent_monte_carlo(etf4):
    # brute-force re-simulation with raw numpy, no channel machinery
    sigma, trials = 0.2, 3000
    t_syn = etf4.raw.astype(float) / np.sqrt(3.0)
    rng = np.random.default_rng(99)
    total = 0.0
    for _ in range(trials):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        noise = rng.normal(0, sigma, 4)
        xhat = (t_syn @ (t_syn.T @ x + noise)) / (4 / 3)
        total += float(((xhat - x) ** 2).sum())
    brute = total / trials
    target = sigma**2 * 4 / (4 / 3) ** 2
    assert abs(brute - target) < 0.10 * target


def test_lstsq_matches_naive_on_tight_frame_per_trial(etf4):
    for seed in range(15):
        lstsq = simulate_frame(etf4, ChannelConfig(noise_std=0.2, trials=1, seed=seed))
        naive = simulate_frame(
            etf4, ChannelConfig(noise_std=0.2, trials=1, seed=seed, mode="naive")
        )
        assert abs(lstsq.mean_mse - naive.mean_mse) < 1e-10


def test_naive_mode_requires_tight_frame(basis3):
    lop = frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1)
    with pytest.raises(ValidationError, match="tight"):
        simulate_frame(lop, ChannelConfig(trials=1, mode="naive"))


# ---------------------------------------------------------------------------
# determinism


def test_identical_seed_gives_bit_identical_reports(etf4):
    cfg = ChannelConfig(
        noise_std=0.3, erasure=ErasureSpec.random_k(1), trials=200, seed=77
    )
    a = simulate_frame(etf4, cfg)
    b = simulate_frame(etf4, cfg)
    assert a == b
    assert canonical_dumps(report_to_dict(a)) == canonical_dumps(report_to_dict(b))


def test_fusion_determinism():
    ff = build_gff(3, 1)
    cfg = ChannelConfig(
        noise_std=0.1, erasure=ErasureSpec.random_k(1), trials=100, seed=13
    )
    assert simulate_fusion(ff, cfg) == simulate_fusion(ff, cfg)


def test_different_seeds_differ(etf4):
    cfg_a = ChannelConfig(noise_std=0.3, trials=50, seed=1)
    cfg_b = ChannelConfig(noise_std=0.3, trials=50, seed=2)
    assert simulate_frame(etf4, cfg_a).mean_mse != simulate_frame(etf4, cfg_b).mean_mse


# ---------------------------------------------------------------------------
# comparisons


def test_single_candidate_comparison_equals_its_report(etf4):
    cfg = ChannelConfig(noise_std=0.1, trials=100, seed=8)
    rows = compare([("etf", etf4)], cfg)
    assert rows == [("etf", simulate_frame(etf4, cfg))]


def test_basis_loses_dimensions_under_erasure_but_etf_does_not(etf4, basis3):
    cfg = ChannelConfig(erasure=ErasureSpec.random_k(1), trials=120, seed=9)
    rows = dict(compare([("basis", basis3), ("etf", etf4)], cfg))
    assert rows["basis"].non_recoverable_count == 120
    assert rows["etf"].non_recoverable_count == 0
    assert rows["etf"].exact_recovery_count == 120


def test_noise_only_naive_means_follow_redundancy(etf4, basis3):
    sigma = 0.1
    cfg = ChannelConfig(noise_std=sigma, trials=4000, seed=10, mode="naive")
    rows = dict(compare([("basis", basis3), ("etf", etf4)], cfg))
    assert abs(rows["basis"].mean_mse - sigma**2 * 3) < 0.10 * sigma**2 * 3
    assert abs(rows["etf"].mean_mse - sigma**2 * 2.25) < 0.10 * sigma**2 * 2.25


def test_comparison_rows_sorted_by_mean_mse(etf4, basis3):
    cfg = ChannelConfig(noise_std=0.2, trials=500, seed=11, mode="naive")
    rows = compare([("basis", basis3), ("etf", etf4)], cfg)
    means = [r.mean_mse for _, r in rows]
    assert means == sorted(means)


def test_gff_versus_non_equidistant_comparator_reports_trend(comparator6):
    # The construction's robustness claim is demonstrated, not proved: the
    # comparison must run deterministically and stay fully recoverable on
    # both sides; the MSE ordering is reported, not asserted.
    ff = build_gff(3, 1)
    cfg = ChannelConfig(
        noise_std=0.05, erasure=ErasureSpec.random_k(1), trials=300, seed=2026
    )
    rows = compare([("gff", ff), ("comparator", comparator6)], cfg)
    by_name = dict(rows)
    assert by_name["gff"].non_recoverable_count == 0
    assert by_name["comparator"].non_recoverable_count == 0
    assert compare([("gff", ff), ("comparator", comparator6)], cfg) == rows


def test_compare_rejects_mixed_ambient_dimensions(etf4):
    ff = build_gff(3, 1)  # lives in F^6, the ETF in F^3
    with pytest.raises(ValidationError, match="ambient"):
        compare([("etf", etf4), ("gff", ff)], ChannelConfig(trials=1))


# ---------------------------------------------------------------------------
# configuration validation


def test_config_invariants():
    with pytest.raises(ValidationError, match="nonnegative"):
        ChannelConfig(noise_std=-0.1)
    with pytest.raises(ValidationError, match="trials"):
        ChannelConfig(trials=0)
    with pytest.raises(ValidationError, match="64"):
        ChannelConfig(seed=1 << 64)
    with pytest.raises(ValidationError, match="mode"):
        ChannelConfig(mode="magic")
    with pytest.raises(ValidationError, match="erasure mode"):
        ErasureSpec(mode="sometimes")
    with pytest.raises(ValidationError, match="distinct"):
        ErasureSpec.fixed([1, 1])


def test_random_erasure_count_must_leave_survivors(etf4):
    cfg = ChannelConfig(erasure=ErasureSpec.random_k(4), trials=1)
    with pytest.raises(ValidationError, match="below"):
        simulate_frame(etf4, cfg)


def test_fixed_erasure_indices_must_be_in_range(etf4):
    cfg = ChannelConfig(erasure=ErasureSpec.fixed([7]), trials=1)
    with pytest.raises(ValidationError, match="out of range"):
        simulate_frame(etf4, cfg)


def test_custom_signal_source_is_used(etf4):
    def constant_source(rng, dim):
        return np.ones(dim) / np.sqrt(dim)

    rep = simulate_frame(etf4, ChannelConfig(trials=5, seed=0), constant_source)
    assert rep.exact_recovery_count == 5


def test_report_aggregates_are_internally_consistent(etf4):
    cfg = ChannelConfig(noise_std=0.4, erasure=ErasureSpec.random_k(1), trials=80, seed=17)
    rep = simulate_frame(etf4, cfg)
    assert 0 <= rep.exact_recovery_count <= rep.trials_run
    assert 0 <= rep.non_recoverable_count <= rep.trials_run
    assert rep.mean_mse <= rep.max_mse
    assert rep.config == cfg


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"noise_std": float("nan")}, "noise_std"),
        ({"noise_std": float("inf")}, "noise_std"),
        ({"exact_threshold": float("nan")}, "exact_threshold"),
        ({"exact_threshold": float("-inf")}, "exact_threshold"),
    ],
)
def test_config_rejects_non_finite_parameters(kwargs, match):
    with pytest.raises(ValidationError, match=match):
        ChannelConfig(**kwargs)


def test_simulate_dispatches_on_the_object_type(etf4):
    cfg = ChannelConfig(noise_std=0.1, trials=5, seed=2)
    assert simulate(etf4, cfg) == simulate_frame(etf4, cfg)
    ff = build_gff(2, 0)
    assert simulate(ff, cfg) == simulate_fusion(ff, cfg)
    with pytest.raises(ValidationError, match="frame or fusion frame"):
        simulate(etf4.raw, cfg)
