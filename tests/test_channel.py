"""Noise/erasure simulation: determinism, recovery, and the analytic noise floor."""

from __future__ import annotations

import collections
import gc
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadframes import (
    ChannelConfig,
    ErasureSpec,
    ValidationError,
    analyze,
    build_gff,
    build_sylvester,
    build_walsh,
    compare,
    equidistance_certificate,
    etf_from_hadamard,
    frame_from_integer_columns,
    fusion_analyze,
    fusion_frame_from_columns,
    fusion_tight,
    is_tight,
    make_fusion_frame,
    normalize_first_row,
    sign_matrix,
    simulate_frame,
    simulate_fusion,
    subspace_from_columns,
)
from hadframes import channel
from hadframes.intlinalg import _rank_fraction_free
from hadframes.channel import (
    MAX_TRIALS,
    SimReport,
    _decoder,
    _erased_columns,
    _erasure_deficit,
    default_signal_source,
    simulate,
)
from hadframes.cli import main
from hadframes.intlinalg import checked_matmul, int_kernel, int_rank
from hadframes.serialize import (
    canonical_dumps,
    config_from_dict,
    config_to_dict,
    report_to_dict,
    report_to_text,
)


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
    for mode in ("lstsq", "naive"):
        cfg = ChannelConfig(erasure=ErasureSpec.fixed([1]), trials=10, seed=5, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing divides by A - lam on the null direction
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


def test_custom_signal_source_is_used(etf4, monkeypatch):
    # Every unit erased, so xhat = 0 and each squared error is |x|^2: the
    # errors show which signals went through. The source's rows have norms
    # 1, 2, 3, ... in trial order, which no default signal has.
    calls, mses = [], []
    add = channel._Accumulator.add
    monkeypatch.setattr(channel._Accumulator, "add",
                        lambda self, mse, *rest: mses.append(mse) or add(self, mse, *rest))

    def growing_source(rng, n, dim):
        start = sum(c[0] for c in calls)
        calls.append((n, dim))
        return np.outer(np.arange(start + 1, start + n + 1), np.ones(dim) / np.sqrt(dim))

    trials = channel.BLOCK_TRIALS + 5
    cfg = ChannelConfig(erasure=ErasureSpec.fixed(range(4)), trials=trials, seed=0)
    simulate_frame(etf4, cfg, growing_source)
    assert calls == [(channel.BLOCK_TRIALS, 3), (5, 3)]
    assert mses == pytest.approx([float(t * t) for t in range(1, trials + 1)], rel=1e-12)


def test_signal_source_shape_is_checked(etf4):
    with pytest.raises(ValidationError, match="signal source gave shape"):
        simulate_frame(etf4, ChannelConfig(trials=3), lambda rng, n, dim: np.ones(dim))


class ZeroRows:
    """A generator whose standard_normal rows at the given positions of its
    stream come out all zero; spawned streams are the real ones."""

    def __init__(self, seed, zero_rows):
        self.rng, self.zero_rows, self.drawn = np.random.default_rng(seed), zero_rows, 0

    def standard_normal(self, shape):
        v = self.rng.standard_normal(shape)
        for r in self.zero_rows:
            if 0 <= r - self.drawn < len(v):
                v[r - self.drawn] = 0.0
        self.drawn += len(v)
        return v

    def spawn(self, n):
        return self.rng.spawn(n)


def test_default_signal_source_redraws_zero_rows_wherever_the_block_starts():
    whole = default_signal_source(ZeroRows(4, [1, 5]), 8, 3)
    assert np.allclose(np.linalg.norm(whole, axis=1), 1.0)
    for cut in (1, 2, 5, 6):
        rng = ZeroRows(4, [1, 5])
        parts = [default_signal_source(rng, cut, 3), default_signal_source(rng, 8 - cut, 3)]
        assert np.array_equal(np.vstack(parts), whole), cut
    # a zero row is replaced by a redraw, not left to divide by zero
    plain = default_signal_source(np.random.default_rng(4), 8, 3)
    assert np.array_equal(np.delete(whole, [1, 5], axis=0), np.delete(plain, [1, 5], axis=0))
    assert not np.array_equal(whole[[1, 5]], plain[[1, 5]])


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
        ({"trials": MAX_TRIALS + 1}, "trials"),
        ({"trials": 2.5}, "trials must be an integer"),
        ({"trials": True}, "trials must be an integer"),
        ({"seed": 2.7}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"noise_std": True}, "noise_std must be a real number"),
        ({"noise_std": 10**400}, "noise_std must be finite"),
        ({"noise_std": Fraction(-(10**400), 3)}, "noise_std must be finite"),
    ],
)
def test_config_rejects_non_finite_parameters(kwargs, match):
    with pytest.raises(ValidationError, match=match):
        ChannelConfig(**kwargs)


def test_channel_settings_refuse_non_integers_from_every_constructor_and_take_numpy_numbers():
    for build in (lambda: ErasureSpec.random_k(1.5), lambda: ErasureSpec.random_k(True),
                  lambda: ErasureSpec.fixed([1.7]), lambda: ErasureSpec.fixed([0, np.float64(2)])):
        with pytest.raises(ValidationError, match="must be an integer"):
            build()
    cfg = ChannelConfig(erasure=ErasureSpec.random_k(np.int32(2)), trials=np.int64(3), seed=np.uint64(5))
    assert (cfg.erasure.k, cfg.trials, cfg.seed) == (2, 3, 5)
    assert all(type(v) is int for v in (cfg.erasure.k, cfg.trials, cfg.seed))
    assert ErasureSpec.fixed(np.array([3, 1])).indices == (1, 3)
    # a numpy or rational noise level is stored as the float the CLI reads
    for std in (np.float32(0.5), Fraction(1, 2)):
        cfg = ChannelConfig(noise_std=std)
        assert type(cfg.noise_std) is float and config_from_dict(config_to_dict(cfg)) == cfg


def test_simulate_dispatches_on_the_object_type(etf4):
    cfg = ChannelConfig(noise_std=0.1, trials=5, seed=2)
    assert simulate(etf4, cfg) == simulate_frame(etf4, cfg)
    ff = build_gff(2, 0)
    assert simulate(ff, cfg) == simulate_fusion(ff, cfg)
    with pytest.raises(ValidationError, match="frame or fusion frame"):
        simulate(etf4.raw, cfg)


# ---------------------------------------------------------------------------
# the shared least-squares decoder


def coordinate_map(raw, rows, scales):
    """The analysis map of the integer columns ``raw``, unit i owning the
    next ``rows[i]`` of them at scale ``scales[i]``, and the row counts:
    every column scaled by the square root of its unit's scale, transposed."""
    return (raw * np.repeat([math.sqrt(float(s)) for s in scales], rows)).T, np.asarray(rows)


def test_fusion_analyze_returns_the_coordinates_the_channel_sends(comparator6):
    # u.csv of the CI: pieces of dimensions 2, 1, 1 and 2 in F^3
    unequal = fusion_frame_from_columns(np.eye(3, dtype=int)[:, [0, 1, 2, 0, 1, 2]], (2, 1, 1, 2), (1,) * 4)
    rng = np.random.default_rng(17)
    for ff in (build_gff(4, 1), comparator6, unequal):
        phi, _ = coordinate_map(ff.basis_raw, ff.dims, ff.scales)
        x = rng.standard_normal(ff.ambient_dim)
        pieces = fusion_analyze(ff, x)
        assert [len(p) for p in pieces] == list(ff.dims)
        assert np.array_equal(np.concatenate(pieces), phi @ x)
        # exact mode: B_i^T x in Fractions, from Python loops over the columns
        q = [Fraction(int(v), 7) for v in rng.integers(-20, 20, ff.ambient_dim)]
        b = ff.basis_raw.tolist()
        want = [sum(b[r][c] * q[r] for r in range(ff.ambient_dim)) for c in range(sum(ff.dims))]
        exact = fusion_analyze(ff, q, exact=True)
        assert [len(p) for p in exact] == list(ff.dims)
        assert all(type(v) is Fraction for p in exact for v in p)
        assert np.concatenate(exact).tolist() == want


def test_frame_analysis_is_the_analysis_of_its_lines(etf4, basis3):
    not_tight = frame_from_integer_columns([[1, 1, 1], [1, -1, 1]], Fraction(1, 2))
    for f in (etf4, basis3, not_tight):
        lines = fusion_frame_from_columns(f.raw, (1,) * f.count, (f.scale_sq,) * f.count)
        x = [Fraction(k, 3) for k in range(1, f.ambient_dim + 1)]
        for exact in (False, True):
            want = np.concatenate(fusion_analyze(lines, x, exact=exact))
            assert np.array_equal(analyze(f, x, exact=exact), want), exact


def survivor_mask(units, surv):
    keep = np.zeros(units, dtype=bool)
    keep[list(surv)] = True
    return keep


def erased_groups(rows, keeps):
    """The groups that ``_simulate`` forms for one block of survivor masks,
    read off the masks: for each count k' of erased columns, the trials and
    a (trials, k') array of their erased columns, ascending."""
    erased = [np.flatnonzero(~np.repeat(keep, rows)) for keep in keeps]
    trials = collections.defaultdict(list)
    for t, e in enumerate(erased):
        trials[len(e)].append(t)
    return [(np.array(ts), np.array([erased[t] for t in ts]).reshape(len(ts), k))
            for k, ts in trials.items()]


def decode_block(decode, deficit, rows, keeps, y):
    """Hand one block to ``decode`` as ``_simulate`` does: the received rows
    zeroed where erased, and each group with its deficits. Returns the
    decoded rows and each trial's deficit."""
    y, deficits, groups = y.copy(), np.zeros(len(keeps), dtype=int), []
    for trials, e in erased_groups(rows, keeps):
        y[trials[:, None], e] = 0.0
        deficits[trials] = d = deficit(e)
        groups.append((trials, e, d))
    return decode(y, groups), deficits


def assert_decodes_like_lstsq(raw, rows, scales, sets, seed):
    """Decode one block that sends every set of surviving units twice through
    the decoder as a non-tight input would; unit i owns the next ``rows[i]``
    columns of the integer matrix ``raw``, which span F^M, at scale
    ``scales[i]``. Each trial gets its exact deficit, M - int_rank of its
    surviving columns, and each row must match x = np.linalg.lstsq's
    solution for its trial within 1e-12 * (1 + |x|)."""
    phi, rows = coordinate_map(raw, rows, scales)
    m = phi.shape[1]
    keeps = np.array([survivor_mask(len(rows), surv) for surv in list(sets) * 2])
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((len(keeps), m)) @ phi.T
    y += rng.normal(0.0, 0.1, y.shape)

    def deficit(e):
        keep = np.ones((len(e), len(phi)), dtype=bool)
        keep[np.arange(len(e))[:, None], e] = False
        return np.array([m - int_rank(raw[:, k]) for k in keep], dtype=int)

    got, _ = decode_block(_decoder(phi, None), deficit, rows, keeps, y)
    for surv, keep, y_t, x in zip(list(sets) * 2, keeps, y, got):
        idx = np.repeat(keep, rows)
        want = np.linalg.lstsq(phi[idx], y_t[idx], rcond=None)[0]
        assert np.abs(x - want).max() <= 1e-12 * (1 + np.linalg.norm(want)), surv


def survivor_sets(units):
    subset = st.sets(st.integers(0, units - 1), min_size=1).map(lambda s: tuple(sorted(s)))
    return st.lists(subset, min_size=1, max_size=4, unique=True)


@st.composite
def integer_frames(draw):
    """A small integer synthesis map whose columns span F^M (they need not
    be unit-norm) and survivor sets of its columns, rank-deficient ones
    included."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 7))
    entries = draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n))
    return spanning(np.array(entries).reshape(m, n)), draw(survivor_sets(n))


WALSH4 = np.array(build_walsh(2).base.entries)


@st.composite
def mixed_fusion_maps(draw):
    """Subspaces of F^4 that jointly span it, with unequal dimensions and
    two scales: coordinate planes (scale 1) and Walsh-column spans (1/4).
    Returns their integer matrix, row counts and scales, and survivor sets."""
    subs = []
    for _ in range(draw(st.integers(2, 5))):
        cols = sorted(draw(st.sets(st.integers(0, 3), min_size=1)))
        basis, scale = draw(st.sampled_from([(np.eye(4, dtype=int), 1), (WALSH4, Fraction(1, 4))]))
        subs.append(subspace_from_columns(basis[:, cols], scale))
    raw = spanning(np.hstack([s.basis_raw for s in subs]))
    return raw, [s.dim for s in subs], [s.scale_sq for s in subs], draw(survivor_sets(len(subs)))


@settings(max_examples=80, deadline=None)
@given(integer_frames(), st.integers(0, 2**32 - 1))
def test_decoder_matches_lstsq_on_integer_frames(case, seed):
    raw, sets = case
    n = raw.shape[1]
    assert_decodes_like_lstsq(raw, [1] * n, [1] * n, sets, seed)


@settings(max_examples=60, deadline=None)
@given(mixed_fusion_maps(), st.integers(0, 2**32 - 1))
def test_decoder_matches_lstsq_on_mixed_fusion_frames(case, seed):
    assert_decodes_like_lstsq(*case, seed)


def test_decoder_matches_lstsq_on_rank_deficient_and_ill_conditioned_survivors(basis3):
    # basis3 minus a vector, a pair of columns with condition number 1600 on
    # the set (0, 1), 61 of the 64 vectors of the order-64 ETF in F^63, and
    # well-conditioned rank-deficient sets of a square map with condition
    # number 512, which R^-1 amplifies
    nearly_parallel = np.array([[21, 20, 1], [20, 19, -1]])
    square = np.array([[1, 3, -3, 0], [1, 2, 2, -2], [-2, 3, 3, 1], [1, 2, -3, 0]])
    etf64 = etf_from_hadamard(build_walsh(6).base)
    drops = [(0, 1, 2), (5, 17, 63), (10, 20, 30)]
    cases = [
        (basis3.raw, 1, [(0, 1), (0, 2), (1, 2), (0, 1, 2)], 0),
        (nearly_parallel, 1, [(0, 1), (0, 1, 2)], 2),
        (etf64.raw, etf64.scale_sq, [tuple(i for i in range(64) if i not in d) for d in drops], 1),
        (square, 1, [(2, 3), (1, 3), (1, 2), (2,)], 2026),
    ]
    for raw, scale, sets, seed in cases:
        n = raw.shape[1]
        assert_decodes_like_lstsq(raw, [1] * n, [scale] * n, sets, seed)


def exact_min_norm(rows, y):
    """The minimum-norm least-squares solution of rows @ x = y in Fractions:
    x = B^T w for a basis B of the row space, with B A^T A B^T w = B A^T y."""
    basis = []
    for r in rows:
        if _rank_fraction_free(basis + [r]) > len(basis):
            basis.append(r)
    cols = list(zip(*rows))
    aty = [sum(Fraction(a) * t for a, t in zip(col, y)) for col in cols]
    av = [[sum(a * b for a, b in zip(row, v)) for row in rows] for v in basis]  # A B^T, by column
    # Gauss-Jordan on [B A^T A B^T | B A^T y]
    aug = [[Fraction(sum(p * q for p, q in zip(u, v))) for v in av]
           + [sum(b * t for b, t in zip(bu, aty))] for u, bu in zip(av, basis)]
    k = len(basis)
    for c in range(k):
        p = next(i for i in range(c, k) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(k):
            if i != c and aug[i][c]:
                aug[i] = [v - aug[i][c] * w for v, w in zip(aug[i], aug[c])]
    return [sum(aug[j][k] * basis[j][i] for j in range(k)) for i in range(len(cols))]


@pytest.mark.parametrize("c", [10, 100, 1000])
def test_decoder_is_as_close_to_the_exact_minimum_norm_solution_as_lstsq(c):
    # columns (c+1, c), (c, c-1), (1, -1), (0, 1): the survivors {0, 1} have
    # condition number about 4c^2, and every single survivor is deficient
    raw = np.array([[c + 1, c, 1, 0], [c, c - 1, -1, 1]])
    phi = raw.T.astype(float)
    rng = np.random.default_rng(c)
    decode = _decoder(phi, None)
    for k in (1, 2, 3):
        for erased in itertools.combinations(range(4), k):
            keep = [j for j in range(4) if j not in erased]
            y = phi @ rng.standard_normal(2) + rng.normal(0.0, 0.1, 4)
            y[list(erased)] = 0.0
            deficit = np.array([2 - int_rank(raw[:, keep])])
            x = decode(y[None], [(np.array([0]), np.array([erased]), deficit)])[0]
            want = np.array(exact_min_norm(raw.T[keep].tolist(), [Fraction(v) for v in y[keep]]),
                            dtype=float)
            lstsq = np.linalg.lstsq(phi[keep], y[keep], rcond=None)[0]
            bound = 2 * np.abs(lstsq - want).max() + 1e-15 * (1 + np.linalg.norm(want))
            assert np.abs(x - want).max() <= bound, erased


def test_memory_does_not_grow_with_trials():
    # Not tight: the six roots (1, +-1, 0) of D_3 in every coordinate order,
    # plus a second (1, 1, 0) and (0, 1, 1); two erasures give up to
    # C(8, 2) = 28 survivor sets. GFF(4,1) is tight, so it checks the
    # downdate decoder the same way.
    roots = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, -1, 0], [1, 0, -1], [0, 1, -1]]
    lop = frame_from_integer_columns(np.array(roots + [[1, 1, 0], [0, 1, 1]]).T, Fraction(1, 2))
    assert not is_tight(lop)[0]

    def run(obj, trials):
        cfg = ChannelConfig(noise_std=0.1, erasure=ErasureSpec.random_k(2), trials=trials, seed=5)
        return simulate(obj, cfg)

    # The first run of each input also fills the interpreter's free lists,
    # which would otherwise count towards a traced run; a full collection
    # empties them, so the collector stays off until the traced runs are done.
    # Both traced runs fill whole blocks: a partial last block has arrays of
    # another shape, and its peak would measure that shape, not the trials.
    assert 256 % channel.BLOCK_TRIALS == 0
    gc.disable()
    try:
        for obj in (lop, build_gff(4, 1)):
            run(obj, 2560)
            peaks = []
            for trials in (256, 2560):
                tracemalloc.start()
                run(obj, trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) <= 16 * 1024, (obj, peaks)
    finally:
        gc.enable()


def test_fusion_noise_model_mse_matches_analytic_values():
    # Piece i is sent as its m_i coordinates, so noise stays inside the
    # subspaces, and with no erasures both receivers reach the floor
    # sigma^2 * sum_i m_i / A^2. The second frame has unequal dimensions
    # 2, 1, 1, 2 in F^3 and A = 2, so its floor is 1.5 sigma^2.
    e = np.eye(3, dtype=int)
    unequal = make_fusion_frame([subspace_from_columns(e[:, cols], 1)
                                 for cols in ([0, 1], [2], [0], [1, 2])])
    assert fusion_tight(unequal) == (True, 2)
    gff = build_gff(5, 2)
    tight, bound = fusion_tight(gff)
    assert tight
    sigma = 0.05
    floors = ((gff, sigma**2 * sum(s.dim for s in gff.subspaces) / float(bound) ** 2),
              (unequal, 1.5 * sigma**2))
    for ff, target in floors:
        for mode in ("naive", "lstsq"):
            cfg = ChannelConfig(noise_std=sigma, trials=2000, seed=21, mode=mode)
            rep = simulate_fusion(ff, cfg)
            assert abs(rep.mean_mse - target) <= 0.05 * target, (mode, rep.mean_mse, target)
            assert rep.survivor_sets == 1


def test_report_stderr_is_the_standard_error_of_the_per_trial_errors(etf4, monkeypatch):
    seen = []
    add = channel._Accumulator.add
    monkeypatch.setattr(channel._Accumulator, "add", lambda self, mse, *rest: seen.append(mse) or add(self, mse, *rest))
    cfg = ChannelConfig(noise_std=0.3, erasure=ErasureSpec.random_k(1), trials=300, seed=12)
    rep = simulate_frame(etf4, cfg)
    assert rep.mean_mse_stderr == pytest.approx(np.std(seen, ddof=1) / math.sqrt(len(seen)), rel=1e-9)
    assert rep.survivor_sets == 4
    assert simulate_frame(etf4, ChannelConfig(trials=1)).mean_mse_stderr == 0.0


def test_report_shows_stderr_and_survivor_sets_in_json_and_text():
    cfg = ChannelConfig(noise_std=0.1, erasure=ErasureSpec.random_k(1), trials=60, seed=4)
    rep = simulate_fusion(build_gff(3, 1), cfg)
    d = report_to_dict(rep)
    assert d["survivor_sets"] == rep.survivor_sets == 4
    assert d["mean_mse_stderr"] == rep.mean_mse_stderr > 0
    text = report_to_text(rep)
    assert f"survivor_sets     {rep.survivor_sets}\n" in text
    assert f"mean_mse_stderr   {rep.mean_mse_stderr:.6e}\n" in text


# ---------------------------------------------------------------------------
# one channel for frames and fusion frames


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "none", "k": 3},
        {"mode": "none", "indices": (1,)},
        {"mode": "random", "k": 1, "indices": (1,)},
        {"mode": "fixed", "indices": (0,), "k": 2},
        {"mode": "random", "k": 1.5},
        {"mode": "random", "k": True},
        {"mode": "fixed", "indices": (1.7,)},
        {"mode": "fixed", "indices": (0, True)},
    ],
)
def test_erasure_spec_refuses_fields_its_mode_ignores(kwargs):
    # The first four give a field the mode ignores; the rest give a field
    # that is not an integer.
    with pytest.raises(ValidationError, match="takes no|must be an integer"):
        ErasureSpec(**kwargs)


def test_erasure_spec_fixed_needs_an_index_and_defaults_round_trip():
    with pytest.raises(ValidationError, match="nonempty"):
        ErasureSpec.fixed([])
    for spec in (ErasureSpec.none(), ErasureSpec.fixed([2, 0]), ErasureSpec.random_k(2)):
        cfg = ChannelConfig(erasure=spec)
        d = config_to_dict(cfg)
        assert (d["erasure"]["indices"] == []) == (spec.mode != "fixed")
        assert (d["erasure"]["k"] == 0) == (spec.mode != "random")
        assert config_from_dict(d) == cfg


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_frame_and_the_fusion_frame_of_its_lines_share_one_channel(n, k):
    # Each line is sent as its one coordinate, the frame coefficient, so the
    # two reports agree in every field, with noise and in both modes.
    frame, lines = etf_from_hadamard(build_walsh(n).base), build_gff(n, 0)
    for j, s in enumerate(lines.subspaces):  # the same vectors in the same order
        assert np.array_equal(s.basis_raw, frame.raw[:, j:j + 1]) and s.scale_sq == frame.scale_sq
    for noise_std, mode in itertools.product((0.0, 0.1), ("lstsq", "naive")):
        cfg = ChannelConfig(noise_std=noise_std, erasure=ErasureSpec.random_k(k), trials=60,
                            seed=11, mode=mode)
        assert simulate_frame(frame, cfg) == simulate_fusion(lines, cfg), (noise_std, mode)


# ---------------------------------------------------------------------------
# the downdate decoder for tight inputs


def channel_inputs(obj):
    """What ``simulate`` hands the trial loop for ``obj``: its coordinate
    map and row table, its integer matrix, and the tight bound (None when
    ``obj`` is not tight)."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_simulate", lambda *args: captured.append(args))
        simulate(obj, ChannelConfig())
    ff = captured[0][0]
    return *coordinate_map(ff.basis_raw, ff.dims, ff.scales), ff.basis_raw, ff.bound_A


def assert_downdate_matches_lstsq(obj, erased_sets, seed):
    """Decode every erased set as one row of a single block. Each row must
    match x = np.linalg.lstsq's solution within 1e-12 * (1 + |x|), and the
    exact count k' - rank(C) must be the dimension the survivors' integer
    columns fail to span."""
    phi, rows, raw, bound = channel_inputs(obj)
    m = phi.shape[1]
    keeps = np.array([~survivor_mask(len(rows), erased) for erased in erased_sets])
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((len(keeps), m)) @ phi.T + rng.normal(0.0, 0.1, (len(keeps), len(phi)))
    got, deficits = decode_block(_decoder(phi, bound), _erasure_deficit(raw, bound),
                                 rows, keeps, y)
    for erased, keep, y_t, x, d in zip(erased_sets, keeps, y, got, deficits):
        idx = np.repeat(keep, rows)
        assert d == m - int_rank(raw[:, idx]), erased
        want = np.linalg.lstsq(phi[idx], y_t[idx], rcond=None)[0]
        assert np.abs(x - want).max() <= 1e-12 * (1 + np.linalg.norm(want)), erased


def erased_sets(units, sizes):
    """Distinct erased sets of the given sizes, each leaving a survivor
    (size 0 decodes with nothing erased)."""
    size = st.sampled_from(sizes).filter(lambda k: k < units)
    erased = size.flatmap(lambda k: st.sets(st.integers(0, units - 1), min_size=k, max_size=k))
    return st.lists(erased.map(frozenset), min_size=1, max_size=6, unique=True)


@st.composite
def equivalent_etfs(draw):
    """The ETF of a Hadamard matrix of order 4 to 64 whose rows and columns
    were permuted and sign-flipped, with erased sets of 1 to 3 vectors."""
    k = draw(st.integers(2, 6))
    n = 1 << k
    h = draw(st.sampled_from([build_sylvester(k), build_walsh(k).base])).entries.astype(np.int64)
    signs = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n).map(np.array)
    h = h[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))]
    h = h * draw(signs)[:, None] * draw(signs)[None, :]
    frame = etf_from_hadamard(normalize_first_row(sign_matrix(h)))
    return frame, draw(erased_sets(n, [1, 2, 3]))


@st.composite
def gffs(draw):
    n = draw(st.integers(1, 5))
    ff = build_gff(n, draw(st.integers(0, n - 1)))
    units = len(ff.subspaces)
    return ff, draw(erased_sets(units, list(range(units))))


@st.composite
def two_scale_fusion_frames(draw):
    """A tight fusion frame of F^4: each layer splits the coordinate axes
    (scale 1) or the Walsh columns (scale 1/4) into the spans of a set
    partition, so each layer's projections sum to I and A is the layer count."""
    subspaces = []
    for _ in range(draw(st.integers(1, 4))):
        basis, scale = draw(st.sampled_from([(np.eye(4, dtype=int), 1), (WALSH4, Fraction(1, 4))]))
        labels = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
        for label in sorted(set(labels)):
            cols = [j for j in range(4) if labels[j] == label]
            subspaces.append(subspace_from_columns(basis[:, cols], scale))
    ff = make_fusion_frame(subspaces)
    return ff, draw(erased_sets(len(subspaces), list(range(len(subspaces)))))


@settings(max_examples=60, deadline=None)
@given(equivalent_etfs(), st.integers(0, 2**32 - 1))
def test_downdate_matches_lstsq_on_equivalent_etfs(case, seed):
    assert_downdate_matches_lstsq(*case, seed)


@settings(max_examples=40, deadline=None)
@given(gffs(), st.integers(0, 2**32 - 1))
def test_downdate_matches_lstsq_on_gffs(case, seed):
    assert_downdate_matches_lstsq(*case, seed)


@settings(max_examples=60, deadline=None)
@given(two_scale_fusion_frames(), st.integers(0, 2**32 - 1))
def test_downdate_matches_lstsq_on_two_scale_fusion_frames(case, seed):
    assert_downdate_matches_lstsq(*case, seed)


def test_downdate_matches_lstsq_on_rank_deficient_etf64_sets():
    # 61 of the 64 vectors in F^63: C has rank 1, so two null directions
    etf64 = etf_from_hadamard(build_walsh(6).base)
    drops = [(0, 1, 2), (5, 17, 63), (10, 20, 30)]
    _, _, raw, bound = channel_inputs(etf64)
    assert _erasure_deficit(raw, bound)(np.array(drops)).tolist() == [2] * 3
    assert_downdate_matches_lstsq(etf64, drops, 1)


def test_erasure_deficit_eliminates_each_distinct_c_once(monkeypatch):
    # On the order-64 ETF every 3-set's C has unit diagonal and off-diagonal
    # entries +-1, so at most 2**3 distinct C's stand behind ~1000 sets.
    etf64 = etf_from_hadamard(build_walsh(6).base)
    eliminated = []
    monkeypatch.setattr(channel, "_rank_fraction_free",
                        lambda c: eliminated.append(c) or _rank_fraction_free(c))
    cfg = ChannelConfig(noise_std=0.01, erasure=ErasureSpec.random_k(3), trials=1000, seed=3)
    report = simulate_frame(etf64, cfg)
    assert report.survivor_sets > 900
    assert 1 <= len(eliminated) <= 8
    assert len({tuple(map(tuple, c)) for c in eliminated}) == len(eliminated)
    # 61 vectors never span F^63
    assert report.non_recoverable_count == cfg.trials


def test_downdate_clears_fractional_ratios_of_bound_to_scale():
    # The order-4 ETF's lines (scale 1/3, A = 4/3) plus a coordinate plane and
    # a coordinate line (scale 1): A = 7/3, so A/s is 7 on the lines and 7/3
    # on the axes, and C needs its row factor q = 3 there.
    etf4 = etf_from_hadamard(build_walsh(2).base)
    e = np.eye(3, dtype=int)
    lines = [subspace_from_columns(etf4.raw[:, j:j + 1], Fraction(1, 3)) for j in range(4)]
    axes = [subspace_from_columns(e[:, :2], 1), subspace_from_columns(e[:, 2:], 1)]
    ff = make_fusion_frame(lines + axes)
    assert fusion_tight(ff) == (True, Fraction(7, 3))
    erased = [set(c) for r in range(6) for c in itertools.combinations(range(6), r)]
    assert_downdate_matches_lstsq(ff, erased, 4)


# ---------------------------------------------------------------------------
# one recoverability rule for tight and non-tight inputs


def spanning(raw) -> np.ndarray:
    """``raw`` as an int64 matrix, if its columns span; otherwise the draw is discarded."""
    raw = np.asarray(raw, dtype=np.int64)
    assume(int_rank(raw) == len(raw))
    return raw


@st.composite
def pm1_frames(draw):
    """A +-1 frame of F^M at scale 1/M: the columns of a Sylvester matrix of
    order M (a basis, N = M), perhaps with repeated and random +-1 columns
    added, in random order."""
    k = draw(st.integers(0, 3))
    h = build_sylvester(k).entries.astype(np.int64)
    m = len(h)
    repeats = draw(st.lists(st.integers(0, m - 1), max_size=4))
    extra = draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m), max_size=2))
    raw = np.hstack([h, h[:, repeats], np.array(extra, dtype=np.int64).reshape(-1, m).T])
    return frame_from_integer_columns(raw[:, draw(st.permutations(range(raw.shape[1])))],
                                      Fraction(1, m))


@st.composite
def root_frames(draw):
    """Roots e_i +- e_j of D_n in F^n at scale 1/2: all of them (tight), or
    a spanning choice of them, repeats allowed."""
    n = draw(st.integers(2, 5))
    roots = [np.eye(n, dtype=np.int64)[i] + s * np.eye(n, dtype=np.int64)[j]
             for i, j in itertools.combinations(range(n), 2) for s in (1, -1)]
    chosen = draw(st.just(range(len(roots))) | st.lists(st.integers(0, len(roots) - 1),
                                                        min_size=n, max_size=len(roots) + 2))
    return frame_from_integer_columns(spanning([roots[c] for c in chosen]).T, Fraction(1, 2))


@st.composite
def lines_and_axes(draw):
    """Fusion frames of F^3 with unequal dimensions and mixed scales: lines of
    the order-4 ETF (scale 1/3) and coordinate planes and lines (scale 1).
    All four lines, and the lines with a plane and its complementary line,
    are tight; most other spanning choices are not."""
    lines = etf_from_hadamard(build_walsh(2).base).raw
    e = np.eye(3, dtype=int)
    pieces = ([(lines[:, j:j + 1], Fraction(1, 3)) for j in range(4)]
              + [(e[:, cols], 1) for cols in ([0, 1], [2], [0], [1, 2], [0, 2], [1])])
    chosen = draw(st.sampled_from([[0, 1, 2, 3], [0, 1, 2, 3, 4, 5]])
                  | st.lists(st.integers(0, len(pieces) - 1), min_size=1, max_size=7))
    spanning(np.hstack([pieces[c][0] for c in chosen]))
    return make_fusion_frame([subspace_from_columns(*pieces[c]) for c in chosen])


@settings(max_examples=200, deadline=None)
@given(pm1_frames() | root_frames() | lines_and_axes(), st.data())
def test_erasure_deficit_is_what_the_survivors_fail_to_span(obj, data):
    _, rows, raw, bound = channel_inputs(obj)
    m = raw.shape[0]
    deficit = _erasure_deficit(raw, bound)
    unit_masks = st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))
    for keep in data.draw(st.lists(unit_masks, min_size=1, max_size=6)):
        keep = np.array(keep, dtype=bool)
        [(_, e)] = erased_groups(rows, [keep])
        assert deficit(e).tolist() == [m - int_rank(raw[:, np.repeat(keep, rows)])], keep


@st.composite
def lines_and_axis_layers(draw):
    """Tight fusion frames of F^3 with two scales, in random unit order: the
    order-4 ETF's lines (scale 1/3, A = 4/3) once or twice, and one or two
    layers of coordinate subspaces that partition the axes (scale 1, A = 1
    each). A/s is then fractional on the axes, and units have 1 to 3 columns."""
    lines = etf_from_hadamard(build_walsh(2).base).raw
    e = np.eye(3, dtype=int)
    subspaces = [subspace_from_columns(lines[:, j:j + 1], Fraction(1, 3)) for j in range(4)]
    subspaces *= draw(st.integers(1, 2))
    for _ in range(draw(st.integers(1, 2))):
        labels = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        subspaces += [subspace_from_columns(e[:, [j for j in range(3) if labels[j] == label]], 1)
                      for label in sorted(set(labels))]
    return make_fusion_frame([subspaces[i] for i in draw(st.permutations(range(len(subspaces))))])


@st.composite
def huge_entry_frames(draw):
    """A Sylvester matrix's columns (a basis, A = 1) or its ETF's, perhaps
    twice over, with every entry multiplied by 2**31: their exact Grams pass
    int64's bound, so checked_matmul returns Python ints."""
    h = build_sylvester(draw(st.integers(2, 4))).entries.astype(np.int64)
    raw = draw(st.sampled_from([h, h[1:]])) << 31
    raw = np.hstack([raw] * draw(st.integers(1, 2)))
    assert checked_matmul(raw.T[:1], raw[:, :1]).dtype == object
    return frame_from_integer_columns(raw, Fraction(1, len(raw) << 62))


@settings(max_examples=120, deadline=None)
@given(lines_and_axis_layers() | huge_entry_frames(), st.data())
def test_each_blocks_deficits_are_what_its_survivors_fail_to_span(obj, data):
    # One block as the trial loop forms it: every trial erases k units, and
    # _erased_columns groups them by k'. The deficit memo is keyed by the
    # exact Gram block alone: two sets with equal blocks have equal scales on
    # their columns, since every scaled column has norm 1 (s_j G_jj = 1).
    _, rows, raw, bound = channel_inputs(obj)
    assert bound is not None
    m, units = raw.shape[0], len(rows)
    k = data.draw(st.integers(1, units - 1))
    erased = st.sets(st.integers(0, units - 1), min_size=k, max_size=k).map(sorted)
    sets = data.draw(st.lists(erased, min_size=1, max_size=8))
    keeps = [~survivor_mask(units, s) for s in sets]
    groups = _erased_columns(np.array(sets), rows, np.cumsum(rows) - rows)
    want = {len(e[0]): (t.tolist(), e.tolist()) for t, e in erased_groups(rows, keeps)}
    assert {e.shape[1]: (t.tolist(), e.tolist()) for t, e in groups} == want
    col_scale = np.repeat(np.array(obj.scales, dtype=object), rows)
    deficit = _erasure_deficit(raw, bound)
    for trials, e in groups:
        for t, cols, d in zip(trials.tolist(), e.tolist(), deficit(e).tolist()):
            gram = raw[:, cols].astype(object).T @ raw[:, cols].astype(object)
            assert all(col_scale[c] * gram[j, j] == 1 for j, c in enumerate(cols))
            assert d == m - int_rank(raw[:, np.repeat(keeps[t], rows)]), sets[t]


@pytest.mark.parametrize("erasure", [ErasureSpec.none(), ErasureSpec.random_k(2)],
                         ids=["none", "random2"])
def test_the_channel_forms_no_n_by_n_matrix(monkeypatch, erasure):
    # The order-1024 ETF, N = 1024 vectors in F^1023: phi takes 8 MiB, and
    # an N x N float64 Gram would take 8 MiB more, which the bound leaves no
    # room for (28.5 and 32.7 MiB when both N x N Grams were formed).
    etf = etf_from_hadamard(build_walsh(10).base)
    shapes = []
    exact = channel.checked_matmul
    monkeypatch.setattr(channel, "checked_matmul",
                        lambda a, b: shapes.append(a.shape[:-1] + b.shape[-1:]) or exact(a, b))
    cfg = ChannelConfig(noise_std=0.1, erasure=erasure, trials=256, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        simulate(etf, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one k' = 2 group per block of 128 trials, and nothing without erasures
    assert shapes == ([(128, 2, 2)] * 2 if erasure.k else [])
    assert peak < 20 * 2**20, peak


def test_memory_per_survivor_set_stays_small():
    # The order-256 ETF with two random erasures draws 2451 distinct survivor
    # sets in 2560 trials and 17733 in 25600. Each costs its erased units'
    # 16 bytes in a set; a memo on N-byte survivor masks grew the peak by
    # 5.2 MiB here. The collector and free lists as in
    # test_memory_does_not_grow_with_trials.
    etf = etf_from_hadamard(build_walsh(8).base)

    def run(trials):
        cfg = ChannelConfig(noise_std=0.1, erasure=ErasureSpec.random_k(2), trials=trials, seed=5)
        return simulate(etf, cfg).survivor_sets

    gc.disable()
    try:
        run(2560)
        sets, peaks = [], []
        for trials in (2560, 25600):
            tracemalloc.start()
            try:
                sets.append(run(trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        gc.enable()
    assert sets == [2451, 17733]
    assert peaks[1] - peaks[0] <= 2 * 2**20, peaks


def test_bench_simulate_commands_call_no_lstsq_qr_or_svd(tmp_path, capsys, monkeypatch):
    # The benchmark's two simulate commands with fewer trials: GFF(6,2) with
    # one erased piece, the order-64 ETF with three erased vectors.
    calls = []
    for name in ("lstsq", "qr", "svd"):
        real = getattr(np.linalg, name)
        counted = lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)  # noqa: E731
        monkeypatch.setattr(np.linalg, name, counted)
    for gen, erased, trials in ((["gen-gff", "--n", "6", "--m", "2"], "1", "100"),
                                (["gen-etf", "--order", "64"], "3", "200")):
        obj = tmp_path / "obj.json"
        assert main([*gen, "--output", str(obj)]) == 0
        argv = ["simulate", "--input", str(obj), "--mode", "lstsq", "--noise-std", "0.01",
                "--erase-random", erased, "--trials", trials, "--seed", "3", "--format", "json"]
        assert main(argv) == 0
    capsys.readouterr()
    assert calls == []


def test_non_tight_import_decodes_without_lstsq(monkeypatch):
    lop = frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1)  # frame operator diag(2, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the channel called np.linalg.lstsq")

    cfgs = [ChannelConfig(noise_std=s, erasure=ErasureSpec.random_k(1), trials=40, seed=6)
            for s in (0.0, 0.1)]
    want = [reference_report(lop, cfg) for cfg in cfgs]
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    got = [simulate_frame(lop, cfg) for cfg in cfgs]
    for rep, ref in zip(got, want):
        assert_reports_agree(rep, ref)
    # erasing the only vector along e_1 loses that axis; any other erasure
    # recovers, exactly when there is no noise
    rep = got[0]
    assert 0 < rep.non_recoverable_count < 40
    assert rep.exact_recovery_count == 40 - rep.non_recoverable_count
    assert rep.survivor_sets == 3


def test_non_tight_import_builds_its_kernel_only_when_a_trial_erases(monkeypatch):
    lop = frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1)
    calls = []
    monkeypatch.setattr(channel, "int_kernel", lambda a: calls.append(1) or int_kernel(a))
    rep = simulate_frame(lop, ChannelConfig(erasure=ErasureSpec.none(), trials=40, seed=6))
    assert calls == [] and rep.non_recoverable_count == 0
    rep = simulate_frame(lop, ChannelConfig(erasure=ErasureSpec.fixed([1]), trials=40, seed=6))
    assert calls == [1] and rep.non_recoverable_count == 40



# ---------------------------------------------------------------------------
# trials decoded in blocks


def unequal_f3():
    """The tight fusion frame of F^3 with dimensions 2, 1, 1, 2 (A = 2): its
    erased sets have k' from 1 to 4."""
    e = np.eye(3, dtype=int)
    return make_fusion_frame([subspace_from_columns(e[:, cols], 1)
                              for cols in ([0, 1], [2], [0], [1, 2])])


def reference_report(obj, cfg):
    """The channel written out trial by trial: one trial's draws at a time
    from the run's signal, noise and erasure streams, np.linalg.lstsq on the
    surviving rows (or the naive sum in naive mode), and int_rank of the
    surviving columns for recoverability."""
    phi, rows, raw, bound = channel_inputs(obj)
    m = phi.shape[1]
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    signals, noises, erasures = map(np.random.default_rng, streams)
    mses, non_recoverable, sets = [], 0, set()
    for _ in range(cfg.trials):
        x = default_signal_source(signals, 1, m)[0]
        y = phi @ x
        if cfg.noise_std > 0:
            y = y + noises.normal(0.0, cfg.noise_std, size=len(phi))
        keep = np.ones(len(rows), dtype=bool)
        keep[list(cfg.erasure.indices)] = False
        if cfg.erasure.mode == "random":
            k = cfg.erasure.k
            keep[np.argpartition(erasures.random(len(rows)), k - 1)[:k]] = False
        idx = np.repeat(keep, rows)
        if cfg.mode == "naive":
            xhat = phi[idx].T @ y[idx] / float(bound)
        else:
            xhat = np.linalg.lstsq(phi[idx], y[idx], rcond=None)[0]
        mses.append(float(((xhat - x) ** 2).sum()))
        non_recoverable += int_rank(raw[:, idx]) < m
        sets.add(keep.tobytes())
    mses = np.array(mses)
    return SimReport(
        mean_mse=float(mses.mean()),
        max_mse=float(mses.max()),
        trials_run=cfg.trials,
        exact_recovery_count=int((mses < channel.EXACT_THRESHOLD).sum()),
        non_recoverable_count=non_recoverable,
        config=cfg,
        mean_mse_stderr=float(mses.std(ddof=1) / math.sqrt(cfg.trials)),
        survivor_sets=len(sets),
    )


def assert_reports_agree(got, want):
    """Equal counts and config; floats within 1e-12 relative, or both below
    1e-24 where a noiseless run recovers exactly and leaves rounding alone."""
    for name in ("trials_run", "exact_recovery_count", "non_recoverable_count",
                 "survivor_sets", "config"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("mean_mse", "max_mse", "mean_mse_stderr"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-24), name


ETF8 = etf_from_hadamard(build_walsh(3).base)
ETF16 = etf_from_hadamard(build_walsh(4).base)
LOP = frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1)  # not tight: frame operator diag(2, 1)
REFERENCE_CASES = [
    (ETF8, 0.1, ErasureSpec.random_k(2), "lstsq"),  # 6 vectors in F^7: null directions
    (ETF8, 0.1, ErasureSpec.fixed([0, 5]), "lstsq"),
    (ETF16, 0.0, ErasureSpec.random_k(1), "lstsq"),  # exact recovery
    (ETF16, 0.1, ErasureSpec.fixed([3]), "lstsq"),
    (ETF16, 0.1, ErasureSpec.random_k(3), "lstsq"),
    (build_gff(4, 1), 0.1, ErasureSpec.random_k(2), "lstsq"),
    (unequal_f3(), 0.1, ErasureSpec.random_k(2), "lstsq"),
    (ETF8, 0.1, ErasureSpec.random_k(1), "naive"),
    (unequal_f3(), 0.1, ErasureSpec.random_k(2), "naive"),
    (LOP, 0.1, ErasureSpec.random_k(1), "lstsq"),  # vector 1 alone spans the second axis
    (LOP, 0.1, ErasureSpec.fixed([1]), "lstsq"),  # never recoverable
]


@pytest.mark.parametrize("obj,noise_std,erasure,mode", REFERENCE_CASES)
def test_block_decoding_matches_a_per_trial_lstsq_reference(obj, noise_std, erasure, mode):
    cfg = ChannelConfig(noise_std=noise_std, erasure=erasure, trials=300, seed=31, mode=mode)
    assert_reports_agree(simulate(obj, cfg), reference_report(obj, cfg))


def test_order_256_etf_decodes_within_2e_14_of_the_lstsq_reference():
    # One erasure leaves A - lam = 1/255, which amplifies the rounding of lam;
    # the refinement step brings the report back to lstsq's.
    etf = etf_from_hadamard(build_walsh(8).base)
    cfg = ChannelConfig(noise_std=0.01, erasure=ErasureSpec.random_k(1), trials=300, seed=3)
    got, want = simulate(etf, cfg), reference_report(etf, cfg)
    for name in ("exact_recovery_count", "non_recoverable_count", "survivor_sets"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("mean_mse", "max_mse", "mean_mse_stderr"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=2e-14, abs=0), name


@pytest.mark.parametrize("obj,mode", [
    (ETF8, "lstsq"),
    (unequal_f3(), "lstsq"),
    (ETF8, "naive"),
    (frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1), "lstsq"),  # not tight
])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, obj, mode):
    cfg = ChannelConfig(noise_std=0.1, erasure=ErasureSpec.random_k(1), trials=300, seed=8, mode=mode)
    default = simulate(obj, cfg)
    for block in (1, 7, channel.BLOCK_TRIALS):
        monkeypatch.setattr(channel, "BLOCK_TRIALS", block)
        assert_reports_agree(simulate(obj, cfg), default)


@pytest.mark.parametrize("obj,mode", [
    (ETF8, "lstsq"),
    (unequal_f3(), "naive"),
    (frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1), "lstsq"),  # not tight
])
def test_the_first_trials_of_a_longer_run_are_a_shorter_run(monkeypatch, obj, mode):
    # 137 trials end inside the second block of the 300-trial run: the
    # signals match bit for bit, and so do the noise and erasures, which the
    # errors and their recoverability would show.
    runs = []
    add = channel._Accumulator.add
    monkeypatch.setattr(channel._Accumulator, "add", lambda self, mse, ok, *rest:
                        runs[-1][1].append((mse, ok)) or add(self, mse, ok, *rest))

    def source(rng, n, dim):
        runs[-1][0].extend(default_signal_source(rng, n, dim))
        return np.array(runs[-1][0][-n:])

    for trials in (300, 137):
        runs.append(([], []))
        cfg = ChannelConfig(noise_std=0.1, erasure=ErasureSpec.random_k(2), trials=trials,
                            seed=8, mode=mode)
        simulate(obj, cfg, source)
    (long_x, long_t), (short_x, short_t) = runs
    assert np.array_equal(long_x[:137], short_x)
    assert [ok for _, ok in long_t[:137]] == [ok for _, ok in short_t]
    assert [e for e, _ in long_t[:137]] == pytest.approx([e for e, _ in short_t], rel=1e-12)


def recorded_units(monkeypatch):
    """The erased units of every trial, one array per block, as the trial
    loop hands them to ``_erased_columns``."""
    units = []

    def record(erased, *rest):
        units.append(np.array(erased))
        return _erased_columns(erased, *rest)

    monkeypatch.setattr(channel, "_erased_columns", record)
    return units


@pytest.mark.parametrize("obj", [build_gff(5, 2), ETF8], ids=["gff52", "etf8"])
def test_naive_two_erasure_mean_is_within_four_standard_errors_of_the_exact_value(obj):
    # With no noise, erasing the set E leaves the naive receiver the error
    # (1/A) T_E T_E^T x, whose mean square over uniform unit signals is
    # |T_E^T T_E|_F^2 / (A^2 M). Both inputs have A^2 M = 64/7 and, for every
    # pair, |T_E^T T_E|_F^2 = 2 + 2/49, so the mean over pairs is 25/112.
    cfg = ChannelConfig(erasure=ErasureSpec.random_k(2), trials=4000, seed=1, mode="naive")
    rep = simulate(obj, cfg)
    assert abs(rep.mean_mse - 25 / 112) <= 4 * rep.mean_mse_stderr, rep


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_trial_erases_exactly_k_distinct_units(monkeypatch, k):
    recorded = recorded_units(monkeypatch)
    for obj, units in ((ETF16, 16), (build_gff(4, 1), len(build_gff(4, 1).subspaces))):
        recorded.clear()
        simulate(obj, ChannelConfig(erasure=ErasureSpec.random_k(k), trials=300, seed=k))
        erased = np.vstack(recorded)
        assert erased.shape == (300, k)
        assert ((0 <= erased) & (erased < units)).all()
        assert (np.diff(erased, axis=1) > 0).all()  # ascending, so distinct


def test_random_erasure_pairs_are_uniform(monkeypatch):
    # 15 000 trials erase 2 of 6 units: each of the 15 pairs is expected
    # 1000 times. The bound 36.12 is the 0.999 quantile of chi-square with
    # 14 degrees of freedom.
    recorded = recorded_units(monkeypatch)
    basis6 = frame_from_integer_columns(np.eye(6, dtype=int), 1)
    trials = 15000
    simulate(basis6, ChannelConfig(erasure=ErasureSpec.random_k(2), trials=trials, seed=1))
    counts = collections.Counter(map(tuple, np.vstack(recorded).tolist()))
    assert set(counts) == set(itertools.combinations(range(6), 2))
    expected = trials / 15
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 36.12, counts


@pytest.mark.parametrize("obj,units,mode", [
    (frame_from_integer_columns(np.eye(3, dtype=int), 1), 3, "lstsq"),
    (frame_from_integer_columns(np.eye(3, dtype=int), 1), 3, "naive"),
    (unequal_f3(), 4, "lstsq"),
    (unequal_f3(), 4, "naive"),
    (frame_from_integer_columns([[1, 0, 1], [0, 1, 0]], 1), 3, "lstsq"),  # not tight
])
def test_erasing_every_unit_decodes_zero_without_runtime_warning(monkeypatch, obj, units, mode):
    signals, mses = [], []
    add = channel._Accumulator.add
    monkeypatch.setattr(channel._Accumulator, "add",
                        lambda self, mse, *rest: mses.append(mse) or add(self, mse, *rest))

    def source(rng, n, dim):
        signals.extend(default_signal_source(rng, n, dim))
        return np.array(signals[-n:])

    cfg = ChannelConfig(noise_std=0.1, erasure=ErasureSpec.fixed(range(units)), trials=200,
                        seed=5, mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = simulate(obj, cfg, source)
    assert rep.non_recoverable_count == 200 and rep.exact_recovery_count == 0
    # xhat = 0 in every trial, so each squared error is |x|^2
    assert mses == pytest.approx([float((x ** 2).sum()) for x in signals], rel=1e-15)
