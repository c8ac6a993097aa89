"""Acceptance criteria, one test per criterion.

Every assertion here is exact (Fraction/integer equality) unless the
criterion itself states a floating-point tolerance. Each test prints one
PASS line on success; run with `pytest -s tests/test_acceptance.py` to
see them.

Criteria:
  1. sequency-ordered matrices validate exactly for k = 0..8
  2. Hadamard ETFs reproduce bound, Gram, and Welch equality up to order 256
  3. fusion-frame construction reproduces bound, row check, traces, distances
     and the simplex bound for all 0 <= m < n <= 8
  4. fast transform equals naive multiplication for k = 0..12
  5. tight-frame and fusion round trips below 1e-12 in floats
  6. Welch inequality holds on 200 random unit-norm frames
  7. channel: single-erasure recovery, analytic noise floor within 5 percent
     at 1e4 trials, bit-identical reports under one seed
  8. rank-one fusion construction induces the ETF Gram matrix for n = 2..6
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from hadframes import (
    ChannelConfig,
    ErasureSpec,
    analyze,
    build_gff,
    build_walsh,
    chordal_dist_sq,
    coherence,
    equidistance_certificate,
    etf_from_hadamard,
    float_coherence_sq,
    frame_from_integer_columns,
    fusion_analyze,
    fusion_reconstruct_tight,
    fusion_tight,
    fwht,
    gram,
    is_tight,
    lemma_row_check,
    normalize_first_row,
    reconstruct_tight,
    simulate_frame,
    validate_hadamard,
    validate_walsh_order,
    welch_bound_sq,
)
from hadframes.intlinalg import int_rank
from hadframes.serialize import canonical_dumps, report_to_dict


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(criterion: int, message: str, t: timer) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message} ({t.elapsed:.2f}s)")


def test_criterion_1_walsh_hadamard_validity():
    with timer() as t:
        for k in range(9):
            w = build_walsh(k)
            assert validate_hadamard(w.base).ok, f"k={k}"
            assert validate_walsh_order(w).ok, f"k={k}"
    report(1, "validate_hadamard and validate_walsh_order exact for k=0..8", t)


def test_criterion_2_hadamard_etf_reproduction(had12):
    with timer() as t:
        mats = [build_walsh(k).base for k in range(1, 9)]  # orders 2..256
        mats.append(had12)  # order 12 from fixture data
        for mat in mats:
            h = normalize_first_row(mat)
            n = h.order
            f = etf_from_hadamard(h)
            tight, bound = is_tight(f)
            assert tight and bound == Fraction(n, n - 1), f"order {n}"
            g = gram(f)
            for i in range(n):
                assert g[i, i] == 1
            off = {g[i, j] for i in range(n) for j in range(n) if i != j}
            assert off == {Fraction(-1, n - 1)}, f"order {n}"
            assert coherence(f).max_corr_sq == welch_bound_sq(n, n - 1), f"order {n}"
    report(2, "ETF bound n/(n-1), Gram -1/(n-1), Welch equality for n in {2..256, 12}", t)


def test_criterion_3_fusion_frame_reproduction():
    with timer() as t:
        for n in range(1, 9):
            for m in range(n):
                ff = build_gff(n, m)
                expected_a = Fraction(1 << n, (1 << n) - (1 << m))
                assert fusion_tight(ff) == (True, expected_a), f"(n,m)=({n},{m})"
                assert lemma_row_check(ff) == (True, expected_a), f"(n,m)=({n},{m})"
                n_sub = 1 << (n - m)
                if n_sub > 2:
                    dim = 1 << m
                    tr_expected = Fraction(dim, (n_sub - 1) ** 2)
                    dist_expected = Fraction(dim) - tr_expected
                    subs = ff.subspaces
                    for i in range(n_sub):
                        for j in range(i + 1, n_sub):
                            d2 = chordal_dist_sq(subs[i], subs[j])
                            assert d2 == dist_expected, f"(n,m,i,j)=({n},{m},{i},{j})"
                            assert Fraction(dim) - d2 == tr_expected
                # equi-distant and tight: the simplex bound d(M-d)/M * L/(L-1)
                c = equidistance_certificate(ff)
                big_m, dim = (1 << n) - (1 << m), 1 << m
                simplex = Fraction(dim * (big_m - dim), big_m) * Fraction(n_sub, n_sub - 1)
                assert c.grassmannian and c.dist_sq == simplex, f"(n,m)=({n},{m})"
    report(3, "bound 2^n/(2^n-2^m), row check, pairwise distances at the simplex bound for n<=8", t)


def test_criterion_4_fwht_oracle_equivalence():
    rng = np.random.default_rng(4)
    with timer() as t:
        for k in range(13):
            n = 1 << k
            w = build_walsh(k).base.entries.astype(np.int64)
            batch = rng.integers(-1000, 1000, size=(n, 50), dtype=np.int64)
            naive = w @ batch
            for c in range(50):
                assert np.array_equal(fwht(batch[:, c]), naive[:, c]), f"k={k}"
    report(4, "fwht equals naive multiplication, k=0..12, 50 vectors each", t)


def test_criterion_5_round_trips():
    rng = np.random.default_rng(5)
    with timer() as t:
        etf8 = etf_from_hadamard(build_walsh(3).base)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(7)
            back = reconstruct_tight(etf8, analyze(etf8, x))
            worst = max(worst, float(np.abs(back - x).max()))
        assert worst < 1e-12
        gff42 = build_gff(4, 2)
        worst_f = 0.0
        for _ in range(100):
            x = rng.standard_normal(12)
            back = fusion_reconstruct_tight(gff42, fusion_analyze(gff42, x))
            worst_f = max(worst_f, float(np.abs(back - x).max()))
        assert worst_f < 1e-12
    report(5, f"round-trip errors {worst:.1e} (frame) and {worst_f:.1e} (fusion) < 1e-12", t)


def test_criterion_6_welch_inequality_random_frames():
    rng = np.random.default_rng(6)
    with timer() as t:
        for _ in range(200):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(m + 1, 3 * m + 2))
            vectors = rng.standard_normal((m, n))
            assert float_coherence_sq(vectors) >= float(welch_bound_sq(n, m)) - 1e-12
    report(6, "coherence^2 >= Welch bound on 200 random unit-norm frames", t)


def test_criterion_7_channel_claims():
    with timer() as t:
        etf4 = etf_from_hadamard(build_walsh(2).base)
        # (a) exact recovery under any single coefficient erasure, zero noise
        for drop in range(4):
            survivors = [i for i in range(4) if i != drop]
            assert int_rank(etf4.raw[:, survivors]) == 3, f"drop {drop}"
            rep = simulate_frame(
                etf4,
                ChannelConfig(erasure=ErasureSpec.fixed([drop]), trials=25, seed=70 + drop),
            )
            assert rep.non_recoverable_count == 0
            assert rep.exact_recovery_count == 25
        # (b) naive-mode noise floor sigma^2 N / A^2 within 5 percent
        sigma = 0.1
        cfg = ChannelConfig(noise_std=sigma, trials=10_000, seed=77, mode="naive")
        rep = simulate_frame(etf4, cfg)
        target = sigma**2 * 4 / (4 / 3) ** 2
        assert abs(rep.mean_mse - target) <= 0.05 * target, (rep.mean_mse, target)
        # (c) identical seed gives bit-identical reports
        cfg_det = ChannelConfig(
            noise_std=0.2, erasure=ErasureSpec.random_k(1), trials=500, seed=78
        )
        first = simulate_frame(etf4, cfg_det)
        second = simulate_frame(etf4, cfg_det)
        assert first == second
        assert canonical_dumps(report_to_dict(first)) == canonical_dumps(report_to_dict(second))
    report(7, "erasure recovery, noise floor within 5%, bit-identical reports", t)


def test_criterion_8_cross_module_consistency():
    with timer() as t:
        for n in range(2, 7):
            ff = build_gff(n, 0)
            stacked = np.hstack([s.basis_raw for s in ff.subspaces])
            induced = frame_from_integer_columns(stacked, ff.subspaces[0].scale_sq)
            etf = etf_from_hadamard(build_walsh(n).base)
            assert np.array_equal(gram(induced), gram(etf)), f"n={n}"
    report(8, "rank-one fusion construction matches the ETF Gram matrix, n=2..6", t)
