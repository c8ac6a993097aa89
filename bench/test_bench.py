"""Tests of the benchmark's own logic: span arithmetic, the output oracle,
and the names BENCHMARK.json declares.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hadframes import cli, hadamard  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent=-1, pad=0.0, info=None, command=0):
    return spans.Span(name, start, end, parent, command, pad, info)


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_children_and_their_padding():
    tree = [
        span("cli", 0.0, 10.0),
        span("frames.certificate", 1.0, 4.0, parent=0),
        span("intlinalg.matmul", 2.0, 3.0, parent=1),
        span("channel.lstsq", 5.0, 6.0, parent=0, pad=0.5),
    ]
    assert spans.self_times(tree) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.0]


def test_layer_metrics_sum_self_time_per_layer_and_count_at_boundaries():
    tree = [
        span("cli", 0.0, 10.0),
        span("frames.certificate", 0.0, 6.0, parent=0, info=4),
        span("intlinalg.matmul", 0.0, 1.0, parent=1, info=(3, 4, 3, False)),  # M x M: not a Gram
        span("intlinalg.matmul", 1.0, 2.0, parent=1, info=(4, 3, 4, False)),
        span("intlinalg.matmul", 2.0, 3.0, parent=1, info=(4, 3, 4, True)),
        span("intlinalg.rank", 6.0, 7.0, parent=0, info=(3, 3)),
        span("intlinalg.rank", 7.0, 8.0, parent=0, info=(3, 2)),
    ]
    got = spans.layer_metrics(tree)
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["frames.certificate_s"] == pytest.approx(3.0)
    assert got["intlinalg.matmul_s"] == pytest.approx(3.0)
    assert got["intlinalg.matmul_calls"] == 3
    assert got["intlinalg.matmul_object_calls"] == 1
    assert got["intlinalg.matmul_gflop"] == pytest.approx(2 * (36 + 48 + 48) / 1e9)
    assert got["frames.certificates"] == 1
    assert got["frames.gram_products_per_certificate"] == 2
    assert got["intlinalg.rank_calls"] == 2
    assert got["intlinalg.rank_fallback_calls"] == 1


def test_survivor_reuse_counts_repeated_matrices_within_a_command():
    keys = ["a", "b", "a", "a", "a"]
    commands = [0, 0, 0, 0, 1]
    tree = [span("channel.lstsq", i, i + 0.5, info=k, command=c)
            for i, (k, c) in enumerate(zip(keys, commands))]
    assert spans.layer_metrics(tree)["channel.survivor_reuse"] == pytest.approx(2 / 5)


def test_installed_wraps_every_binding_and_restores_them():
    from hadframes import frames, fusion, intlinalg

    original, lstsq = intlinalg.checked_matmul, np.linalg.lstsq
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert frames.checked_matmul is fusion.checked_matmul is intlinalg.checked_matmul
        assert intlinalg.checked_matmul is not original
        assert np.linalg.lstsq is not lstsq
        cli.main(["gen-gff", "--n", "3", "--m", "1", "--output", "/dev/null"])
    assert intlinalg.checked_matmul is original is frames.checked_matmul
    assert np.linalg.lstsq is lstsq
    names = {s.name for s in recorder.spans}
    assert {"cli", "fusion.construct", "fusion.distance", "intlinalg.matmul",
            "intlinalg.rank", "serialize.encode"} <= names
    assert all(s.parent < i for i, s in enumerate(recorder.spans))
    # Self times are non-negative and add up to the root span.
    selfs = spans.self_times(recorder.spans)
    assert min(selfs) >= 0
    root = recorder.spans[0]
    assert sum(selfs) <= root.end - root.start


# ---------------------------------------------------------------------------
# oracle


def test_reference_walsh_matches_the_definition():
    for k in range(6):
        w = oracle.walsh(k)
        changes = [sum(a != b for a, b in zip(row, row[1:])) for row in w]
        assert changes == list(range(1 << k))
        n = 1 << k
        assert all(sum(x * y for x, y in zip(r, s)) == (n if i == j else 0)
                   for i, r in enumerate(w) for j, s in enumerate(w))


def test_reference_walsh_and_gff_match_hadframes():
    from hadframes import fusion

    assert oracle.flat(oracle.walsh(5)) == hadamard.build_walsh(5).base.entries.reshape(-1).tolist()
    ff = fusion.build_gff(5, 2)
    assert oracle.gff_subspaces(5, 2) == [s.basis_raw.reshape(-1).tolist() for s in ff.subspaces]


def test_permuted_hadamard_is_hadamard_and_seeded():
    h = oracle.permuted_hadamard(4, seed=7)
    assert hadamard.validate_hadamard(hadamard.sign_matrix(np.array(h))).ok
    assert h == oracle.permuted_hadamard(4, seed=7) != oracle.permuted_hadamard(4, seed=8)


def test_closed_form_mse_matches_linear_algebra():
    sigma = 0.01
    h = np.array(oracle.walsh(4))
    t = h[1:].astype(float) / np.sqrt(15)  # 16 unit vectors in R^15
    for erased in ([0, 1, 2], [3, 9, 14]):
        keep = [i for i in range(16) if i not in erased]
        s = t[:, keep] @ t[:, keep].T
        lost = 15 - np.linalg.matrix_rank(s)
        want = lost / 15 + sigma**2 * np.trace(np.linalg.pinv(s))
        assert oracle.frame_mse(16, 3, sigma) == pytest.approx(want, rel=1e-9)
    w = np.array(oracle.walsh(6))[4:].astype(float)  # GFF(6, 2)
    projections = [w[:, [i + 16 * k for k in range(4)]] @ w[:, [i + 16 * k for k in range(4)]].T / 60
                   for i in range(16)]
    for gone in (0, 11):
        s = sum(p for i, p in enumerate(projections) if i != gone)
        want = sigma**2 * np.trace(np.linalg.inv(s))
        assert oracle.fusion_mse(6, 2, sigma) == pytest.approx(want, rel=1e-9)
    assert oracle.fusion_mse(6, 2, sigma) == pytest.approx(112.5 * sigma**2)


@pytest.fixture
def etf_outputs(tmp_path):
    """A real gen-etf / verify / export run on an order-16 input."""
    h = oracle.permuted_hadamard(4, seed=3)
    src, obj = tmp_path / "h.json", tmp_path / "etf.json"
    ver, csv = tmp_path / "verify.json", tmp_path / "etf.csv"
    src.write_text(json.dumps({"kind": "sign_matrix", "order": 16, "entries": oracle.flat(h)}))
    assert cli.main(["gen-etf", "--input", str(src), "--output", str(obj)]) == 0
    assert cli.main(["verify", "--input", str(obj), "--require", "grassmannian",
                     "--format", "json", "--output", str(ver)]) == 0
    assert cli.main(["export", "--input", str(obj), "--format", "csv", "--output", str(csv)]) == 0
    return h, obj, ver, csv


def test_oracle_accepts_correct_output(etf_outputs):
    h, obj, ver, csv = etf_outputs
    assert oracle.etf_object(obj, h) == []
    assert oracle.etf_verify(ver, 16) == []
    assert oracle.csv_matrix(csv, oracle.etf_raw(h)) == []


def test_oracle_flags_tampered_bound(etf_outputs):
    h, obj, ver, _ = etf_outputs
    for path, key in ((obj, "certificate"), (ver, "checks")):
        doc = json.loads(path.read_text())
        doc[key]["bound_A"] = {"num": 17, "den": 15}
        path.write_text(json.dumps(doc))
    assert any("bound_A" in p for p in oracle.etf_object(obj, h))
    assert any("bound_A" in p for p in oracle.etf_verify(ver, 16))


def test_oracle_flags_one_flipped_csv_entry(etf_outputs):
    h, _, _, csv = etf_outputs
    lines = csv.read_text().splitlines()
    row = lines[5].split(",")
    row[7] = str(-int(row[7]))
    lines[5] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    assert oracle.csv_matrix(csv, oracle.etf_raw(h)) != []


def test_oracle_flags_unreadable_and_missing_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert oracle.etf_verify(bad, 16) != []
    assert oracle.etf_verify(tmp_path / "missing.json", 16) != []


def test_oracle_flags_wrong_monte_carlo_counts_and_mse(tmp_path):
    report = tmp_path / "sim.json"
    good = {"trials_run": 10, "non_recoverable_count": 0, "mean_mse": 0.0113}
    for doc, ok in ((good, True), ({**good, "non_recoverable_count": 1}, False),
                    ({**good, "mean_mse": 0.02}, False), ({**good, "trials_run": 9}, False)):
        report.write_text(json.dumps(doc))
        assert (oracle.sim_report(report, 10, 0, 0.01125) == []) is ok


def test_tally_fails_a_wrong_exit_code_without_reading_output():
    checked = []
    cmd = workloads.Command("verify", ("verify",), lambda: checked.append(1) or [])
    tally = run.Tally()
    tally.judge(cmd, run.Sample(rc=0, wall=1.0))
    tally.judge(cmd, run.Sample(rc=1, wall=1.0))
    assert (tally.attempted, tally.failed, len(checked)) == (2, 1, 1)


def test_fraction_reader_rejects_malformed_pairs():
    assert oracle.fraction({"x": {"num": 2, "den": 4}}, "x") == Fraction(1, 2)
    for bad in ({"num": 1}, {"num": 1, "den": 0}, "1/2"):
        with pytest.raises(oracle.Bad):
            oracle.fraction({"x": bad}, "x")


# ---------------------------------------------------------------------------
# names


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_declared_workloads_and_metrics_are_the_ones_produced(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    sample = [run.Sample(rc=0, wall=1.0, cpu=1.0, rss_mib=1.0)]
    e2e = run.end_to_end_values([0.2], [sample])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(e2e)
    commands = workloads.channel(0, tmp_path).timed
    passes = [[run.Sample(rc=0, wall=1.0)] * len(commands)]
    layers = run.per_layer_values(commands, passes, passes, [spans.layer_metrics([])])
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(layers)
