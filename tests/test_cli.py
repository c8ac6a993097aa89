"""Command-line behavior: generation, verification, round trips, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hadframes import build_gff, build_walsh, etf_from_hadamard
from hadframes.cli import main
from hadframes.hadamard import MAX_ORDER_ENV

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_walsh_k0_is_trivial_matrix(capsys):
    code, out, _ = run(capsys, "gen-walsh", "--k", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 1 and payload["entries"] == [1]
    assert payload["certificate"]["hadamard"]["ok"]


def test_gen_gff_31_certificate_values(capsys):
    code, out, _ = run(capsys, "gen-gff", "--n", "3", "--m", "1", "--format", "json")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["bound_A"] == {"num": 4, "den": 3}
    assert cert["dist_sq"] == {"num": 16, "den": 9}
    assert cert["grassmannian"]
    assert "constructed_grassmannian" not in json.loads(out)


def test_gen_etf_order8(capsys):
    code, out, _ = run(capsys, "gen-etf", "--order", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["ambient_dim"] == 7 and payload["count"] == 8
    assert payload["certificate"]["welch_equality"]


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-hadamard", "--k", "2"),
        ("gen-walsh", "--k", "3"),
        ("gen-etf", "--order", "4"),
        ("gen-gff", "--n", "3", "--m", "1"),
    ],
)
def test_generated_objects_verify_with_identical_certificates(tmp_path, capsys, argv):
    path = tmp_path / "obj.json"
    code, _, _ = run(capsys, *argv, "--output", str(path))
    assert code == 0
    emitted = json.loads(path.read_text())
    code, out, _ = run(capsys, "verify", "--input", str(path), "--format", "json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["pass"]
    assert verdict["checks"] == emitted["certificate"]


def test_gen_outputs_are_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen-gff", "--n", "4", "--m", "2", "--output", str(a))
    run(capsys, "gen-gff", "--n", "4", "--m", "2", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv,matrix",
    [
        (("gen-walsh", "--k", "5"), lambda: build_walsh(5).base.entries),
        (("gen-etf", "--order", "16"), lambda: etf_from_hadamard(build_walsh(4).base).raw),
        (("gen-gff", "--n", "4", "--m", "1"),
         lambda: np.hstack([s.basis_raw for s in build_gff(4, 1).subspaces])),
    ],
)
def test_json_and_csv_output_match_the_reference_encoders(tmp_path, capsys, argv, matrix):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    path = tmp_path / "obj.json"
    path.write_text(out)
    code, csv, _ = run(capsys, "export", "--input", str(path), "--format", "csv")
    assert code == 0
    rows = "\n".join(",".join(map(str, r)) for r in matrix().tolist())
    assert csv.partition("\n")[2] == rows + "\n"


def test_verify_detects_single_flipped_sign(tmp_path, capsys):
    path = tmp_path / "etf.json"
    run(capsys, "gen-etf", "--order", "8", "--output", str(path))
    payload = json.loads(path.read_text())
    payload["raw"][5] = -payload["raw"][5]
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "--input", str(path), "--format", "json")
    assert code == 1
    verdict = json.loads(out)
    assert not verdict["pass"]
    assert not verdict["checks"]["tight"]


def test_verify_text_report(tmp_path, capsys):
    path = tmp_path / "w.json"
    run(capsys, "gen-walsh", "--k", "2", "--output", str(path))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert "verdict = PASS" in out


def test_verify_require_levels(tmp_path, capsys):
    # fourth-roots frame: tight but not equiangular
    frame = {
        "kind": "frame",
        "ambient_dim": 2,
        "count": 4,
        "scale_sq": {"num": 1, "den": 1},
        "raw": [1, 0, -1, 0, 0, 1, 0, -1],
    }
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps(frame))
    # the coordinate planes e1e2, e3e4, e1e3, e2e4 of F^4: tight with A = 2
    # and of equal dimension, but at squared distances 2 and 1
    planes = tmp_path / "planes.csv"
    planes.write_text(
        "# kind=fusion_frame scale_sq=1/1 subspace_dims=2,2,2,2\n"
        "1,0,0,0,1,0,0,0\n0,1,0,0,0,0,1,0\n0,0,1,0,0,1,0,0\n0,0,0,1,0,0,0,1\n"
    )
    for path in (roots, planes):
        assert run(capsys, "verify", "--input", str(path), "--require", "valid")[0] == 0
        assert run(capsys, "verify", "--input", str(path), "--require", "tight")[0] == 0
        assert run(capsys, "verify", "--input", str(path), "--require", "grassmannian")[0] == 1


def test_export_json_to_csv_and_back(tmp_path, capsys):
    j = tmp_path / "f.json"
    c = tmp_path / "f.csv"
    run(capsys, "gen-etf", "--order", "4", "--output", str(j))
    code, _, _ = run(capsys, "export", "--input", str(j), "--format", "csv", "--output", str(c))
    assert code == 0
    assert c.read_text().startswith("# kind=frame scale_sq=1/3")
    code, out, _ = run(capsys, "export", "--input", str(c), "--format", "json")
    assert code == 0
    back = json.loads(out)
    original = json.loads(j.read_text())
    assert back["raw"] == original["raw"]
    assert back["scale_sq"] == original["scale_sq"]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ("gen-etf", "--order", "4"),
            "# kind=frame scale_sq=1/3\n1,1,-1,-1\n1,-1,-1,1\n1,-1,1,-1\n",
        ),
        (
            ("gen-gff", "--n", "2", "--m", "0"),
            "# kind=fusion_frame scale_sq=1/3 subspace_dims=1,1,1,1\n"
            "1,1,-1,-1\n1,-1,-1,1\n1,-1,1,-1\n",
        ),
    ],
)
def test_csv_export_bytes_without_a_certificate(tmp_path, capsys, monkeypatch, argv, expected):
    import hadframes.cli as cli_module

    j, c = tmp_path / "obj.json", tmp_path / "obj.csv"
    run(capsys, *argv, "--output", str(j))

    def no_certificate(obj):
        raise AssertionError("CSV export computed a certificate")

    monkeypatch.setattr(cli_module, "_checks_for", no_certificate)
    code, _, _ = run(capsys, "export", "--input", str(j), "--format", "csv", "--output", str(c))
    assert code == 0
    assert c.read_bytes() == expected.encode()


def test_simulate_json_report(tmp_path, capsys):
    path = tmp_path / "gff.json"
    run(capsys, "gen-gff", "--n", "3", "--m", "1", "--output", str(path))
    code, out, _ = run(
        capsys,
        "simulate", "--input", str(path),
        "--trials", "50", "--seed", "7", "--noise-std", "0.0",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["trials_run"] == 50
    assert report["exact_recovery_count"] == 50
    assert report["config"]["seed"] == 7


def test_simulate_with_config_file(tmp_path, capsys):
    obj = tmp_path / "etf.json"
    cfgp = tmp_path / "cfg.json"
    run(capsys, "gen-etf", "--order", "4", "--output", str(obj))
    cfgp.write_text(json.dumps({"noise_std": 0.0, "trials": 20, "seed": 5,
                                "erasure": {"mode": "random", "k": 1}}))
    code, out, _ = run(capsys, "simulate", "--input", str(obj), "--config", str(cfgp),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["trials_run"] == 20
    assert report["config"]["erasure"]["k"] == 1
    assert report["non_recoverable_count"] == 0


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_config_with_fixed_indices_equals_the_flag(tmp_path, capsys, command):
    obj = tmp_path / "etf.json"
    cfgp = tmp_path / "cfg.json"
    run(capsys, "gen-etf", "--order", "8", "--output", str(obj))
    cfgp.write_text('{"erasure": {"mode": "fixed", "indices": [1, 2]}}')
    inputs = (("--input", str(obj)) if command == "simulate"
              else ("--inputs", str(obj), str(obj), "--names", "a,b"))
    common = (command, *inputs, "--trials", "30", "--seed", "4", "--noise-std", "0.1",
              "--format", "json")
    code, from_config, err = run(capsys, *common, "--config", str(cfgp))
    assert code == 0, err
    code, from_flag, _ = run(capsys, *common, "--erase-fixed", "1,2")
    assert code == 0
    assert from_config == from_flag


def test_compare_table(tmp_path, capsys):
    a, b = tmp_path / "etf.json", tmp_path / "basis.json"
    run(capsys, "gen-etf", "--order", "4", "--output", str(a))
    basis = {
        "kind": "frame", "ambient_dim": 3, "count": 3,
        "scale_sq": {"num": 1, "den": 1},
        "raw": [1, 0, 0, 0, 1, 0, 0, 0, 1],
    }
    b.write_text(json.dumps(basis))
    code, out, _ = run(
        capsys,
        "compare", "--inputs", str(a), str(b),
        "--names", "etf,basis",
        "--trials", "40", "--seed", "3", "--erase-random", "1",
        "--format", "json",
    )
    assert code == 0
    rows = {r["name"]: r["report"] for r in json.loads(out)["rows"]}
    assert rows["etf"]["non_recoverable_count"] == 0
    assert rows["basis"]["non_recoverable_count"] == 40


def test_compare_text_table(tmp_path, capsys):
    a, b = tmp_path / "etf.json", tmp_path / "lines.json"
    run(capsys, "gen-etf", "--order", "4", "--output", str(a))
    run(capsys, "gen-gff", "--n", "2", "--m", "0", "--output", str(b))
    flags = ("--trials", "40", "--seed", "3", "--erase-random", "1")
    code, out, _ = run(capsys, "compare", "--inputs", str(a), str(b), *flags, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    code, out, _ = run(capsys, "compare", "--inputs", str(a), str(b), *flags)
    assert code == 0
    head, *lines = out.splitlines()
    assert head.split() == ["name", "mean_mse", "max_mse", "exact", "nonrec"]
    for line, row in zip(lines, rows, strict=True):
        r = row["report"]
        assert line.split() == [row["name"], f"{r['mean_mse']:.6e}", f"{r['max_mse']:.6e}",
                                str(r["exact_recovery_count"]), str(r["non_recoverable_count"])]


@pytest.fixture
def e16_g41_g40(tmp_path, capsys):
    """The order-16 ETF (in F^15), GFF(4,1) (in F^14) and GFF(4,0) (in F^15)."""
    paths = [tmp_path / f"{stem}.json" for stem in ("e16", "g41", "g40")]
    for path, argv in zip(paths, (("gen-etf", "--order", "16"), ("gen-gff", "--n", "4", "--m", "1"),
                                  ("gen-gff", "--n", "4", "--m", "0"))):
        assert run(capsys, *argv, "--output", str(path))[0] == 0
    return [str(path) for path in paths]


def test_compare_refuses_input_as_a_prefix_of_inputs(e16_g41_g40, capsys):
    # read as --inputs, the second --input would drop e16, whose dimension differs
    e16, g41, _ = e16_g41_g40
    code, err = run_malformed(capsys, "compare", "--input", e16, "--input", g41, "--trials", "20")
    assert_diagnosed(code, err)


def test_repeated_inputs_add_candidates(e16_g41_g40, capsys):
    e16, _, g40 = e16_g41_g40
    code, out, _ = run(capsys, "compare", "--inputs", e16, "--inputs", g40, "--trials", "5",
                       "--format", "json")
    assert code == 0
    assert sorted(row["name"] for row in json.loads(out)["rows"]) == ["e16", "g40"]


@pytest.mark.parametrize("inputs,names,bad", [
    (("e", "g"), "a,a", "'a' is repeated"),
    (("e", "g"), "x,", "'' is empty"),
    (("e", "d/e"), None, "'e' is repeated"),  # names default to the file stems
])
def test_compare_refuses_a_repeated_or_empty_candidate_name(tmp_path, capsys, inputs, names, bad):
    (tmp_path / "d").mkdir()
    for stem, argv in (("e", ("gen-etf", "--order", "8")), ("d/e", ("gen-etf", "--order", "8")),
                       ("g", ("gen-gff", "--n", "3", "--m", "0"))):
        assert main([*argv, "--output", str(tmp_path / f"{stem}.json")]) == 0
    paths = [str(tmp_path / f"{stem}.json") for stem in inputs]
    flags = ("--names", names) if names else ()
    code, err = run_malformed(capsys, "compare", "--inputs", *paths, *flags, "--trials", "5")
    assert_one_error(code, err)
    assert f"candidate name {bad}" in err
    code, out, _ = run(capsys, "compare", "--inputs", paths[0], paths[0], "--names", "a,b",
                       "--trials", "5", "--format", "json")
    assert code == 0
    assert sorted(row["name"] for row in json.loads(out)["rows"]) == ["a", "b"]


def test_simulate_refuses_abbreviated_options(e16_g41_g40, capsys):
    code, err = run_malformed(capsys, "simulate", "--input", e16_g41_g40[0], "--tri", "5",
                              "--noise", "0.1", "--erase-r", "1")
    assert_diagnosed(code, err)
    assert "--tri" in err


def test_gen_text_format_lists_the_certificate(capsys):
    code, out, _ = run(capsys, "gen-gff", "--n", "3", "--m", "1", "--format", "text")
    assert code == 0
    assert out == ("kind = fusion_frame\ntight = True\nbound_A = 4/3\nequal_dim = True\n"
                   "equi_distance = True\ndist_sq = 16/9\ngrassmannian = True\n")


# ---------------------------------------------------------------------------
# failure modes -> exit 2 with diagnostics


def test_gen_etf_rejects_non_power_of_two_order(capsys):
    code, _, err = run(capsys, "gen-etf", "--order", "12")
    assert code == 2
    assert "power of two" in err


def test_gen_etf_from_supplied_order12_matrix(tmp_path, capsys, had12):
    from hadframes.serialize import canonical_dumps, sign_matrix_to_dict

    path = tmp_path / "had12.json"
    path.write_text(canonical_dumps(sign_matrix_to_dict(had12)))
    code, out, _ = run(capsys, "gen-etf", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["ambient_dim"] == 11 and payload["count"] == 12
    assert payload["certificate"]["bound_A"] == {"num": 12, "den": 11}
    assert payload["certificate"]["alpha_sq"] == {"num": 1, "den": 121}


def test_gen_etf_from_a_paley20_csv(tmp_path, capsys, paley_matrices):
    # order 20 is no power of two, so the ETF rests on the Gram's proof
    path = tmp_path / "paley20.csv"
    body = "\n".join(",".join(map(str, row)) for row in paley_matrices[20])
    path.write_text(f"# kind=sign_matrix scale_sq=1/1\n{body}\n")
    code, out, _ = run(capsys, "gen-etf", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["ambient_dim"] == 19 and payload["count"] == 20
    cert = payload["certificate"]
    assert cert["tight"] and cert["equiangular"] and cert["welch_equality"]
    assert cert["bound_A"] == {"num": 20, "den": 19}
    assert cert["alpha_sq"] == {"num": 1, "den": 361}


def test_gen_gff_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "gen-gff", "--n", "2", "--m", "2")
    assert code == 2
    assert "n > m" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--input", "no-such-file.json")
    assert code == 2
    assert "not found" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-walsh", "--k", "2", "--frobnicate"])
    assert exc.value.code == 2


def test_resource_limit_respects_environment(capsys, monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV, "8")
    code, _, err = run(capsys, "gen-walsh", "--k", "4")
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize("argv", [
    ("gen-hadamard", "--k", "100000000000"),
    ("gen-walsh", "--k", "100000000000"),
    ("gen-gff", "--n", "100000000000", "--m", "1"),
])
def test_a_huge_order_exits_2_before_it_is_formed(capsys, monkeypatch, argv):
    monkeypatch.delenv(MAX_ORDER_ENV, raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: order 2**100000000000 exceeds the configured cap 65536\n"


@pytest.mark.parametrize("name,content", [
    ("plane.csv", "# kind=fusion_frame scale_sq=1/1 subspace_dims=2\n1,0\n0,1\n"),
    ("one.csv", "# kind=frame scale_sq=1/1\n1\n"),
])
def test_a_single_piece_is_certified(tmp_path, capsys, name, content):
    # One subspace, or one vector of F^1: tight, but with no pair to be
    # equi-distant or equiangular, so it is valid and tight, not Grassmannian.
    path = tmp_path / name
    path.write_text(content)
    for require, want in (("valid", 0), ("tight", 0), ("grassmannian", 1)):
        assert run(capsys, "verify", "--input", str(path), "--require", require)[0] == want
    code, out, _ = run(capsys, "export", "--input", str(path), "--format", "json")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["tight"] and cert["bound_A"] == {"num": 1, "den": 1}
    assert not cert["grassmannian"]
    if "dist_sq" in cert:
        assert cert["equal_dim"] and not cert["equi_distance"] and cert["dist_sq"] is None
    else:
        assert not cert["equiangular"] and cert["alpha_sq"] is None and not cert["welch_equality"]


def test_each_command_forms_the_frame_operator_once(tmp_path, capsys, monkeypatch):
    # The M x M frame operator is the (M, N) @ (N, M) product of an object's
    # integer matrix. The constructor's spanning proof forms it; the
    # certificate and the channel read the object's bound_A instead.
    from hadframes import intlinalg

    shapes = []
    real = intlinalg.checked_matmul

    def counting(a, b):
        shapes.append((a.shape, b.shape))
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("hadframes") and getattr(module, "checked_matmul", None) is real:
            monkeypatch.setattr(module, "checked_matmul", counting)

    def operators(m, n, *argv):
        shapes.clear()
        assert main(list(argv)) == 0, argv
        return shapes.count(((m, n), (n, m)))

    # the order-16 ETF, 16 vectors in F^15, and GFF(4,1), 16 columns in F^14
    for m, gen in ((15, ("gen-etf", "--order", "16")), (14, ("gen-gff", "--n", "4", "--m", "1"))):
        obj, csv = tmp_path / f"{gen[0]}.json", tmp_path / f"{gen[0]}.csv"
        assert operators(m, 16, *gen, "--output", str(obj)) == 1
        assert main(["export", "--input", str(obj), "--format", "csv", "--output", str(csv)]) == 0
        for argv in (
            ("verify", "--input", str(obj)),
            ("verify", "--input", str(csv), "--require", "grassmannian"),
            ("simulate", "--input", str(obj), "--erase-random", "2", "--trials", "20"),
            ("simulate", "--input", str(csv), "--mode", "naive", "--trials", "20"),
        ):
            assert operators(m, 16, *argv) == 1, argv
    capsys.readouterr()


def test_invalid_json_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "not valid JSON" in err


# ---------------------------------------------------------------------------
# malformed input -> exit 2 with a one-line diagnostic, never a traceback


def run_malformed(capsys, *argv):
    """Exit code and stderr of one CLI run; argparse errors exit via SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def assert_diagnosed(code, err):
    assert code == 2
    assert "Traceback" not in err
    assert "error: " in err.splitlines()[-1]


_FRAME_1 = '{"kind":"frame","ambient_dim":1,"count":1,"scale_sq":{"num":1,"den":1},"raw":[1]}'


@pytest.mark.parametrize(
    "name,content",
    [
        ("missing-key.json", '{"kind":"sign_matrix"}'),
        ("not-an-object.json", "[1,2]"),
        ("zero-den.json", _FRAME_1.replace('"den":1', '"den":0')),
        ("zero-den.csv", "# kind=frame scale_sq=1/0\n1\n"),
        ("float-entry.json", '{"kind":"sign_matrix","order":2,"entries":[1.5,1,1,-1]}'),
        ("bool-entry.json", '{"kind":"sign_matrix","order":2,"entries":[true,true,true,-1]}'),
        ("bool-order.json", '{"kind":"sign_matrix","order":true,"entries":[1]}'),
        ("string-order.json", '{"kind":"sign_matrix","order":"1","entries":[1]}'),
        ("zero-ambient.json",
         '{"kind":"fusion_frame","ambient_dim":0,"scale_sq":{"num":1,"den":1},"subspaces":[[1]]}'),
        ("huge-entry.json", _FRAME_1.replace('"raw":[1]', '"raw":[100000000000000000000000]')),
        ("wrapping-norm.json", '{"kind":"frame","ambient_dim":1,"count":2,'
                               '"scale_sq":{"num":1,"den":1},"raw":[9223372036854775807,1]}'),
        ("non-unit.csv", "# kind=frame scale_sq=1/1\n1,1\n0,1\n"),
        ("non-spanning.csv", "# kind=frame scale_sq=1/1\n1,1\n0,0\n"),
        ("float-entry.csv", "# kind=sign_matrix scale_sq=1/1\n1.5,1\n1,-1\n"),
        ("exponent-entry.csv", "# kind=sign_matrix scale_sq=1/1\n1e0,1\n1,-1\n"),
        ("bad-scale.csv", "# kind=frame scale_sq=abc\n1\n"),
        ("decimal-scale.csv", "# kind=frame scale_sq=1.0\n1,-1\n"),
        ("bad-dims.csv", "# kind=fusion_frame scale_sq=1/1 subspace_dims=x\n1\n"),
        ("ragged.csv", "# kind=frame scale_sq=1/1\n1,0\n0\n"),
        ("empty-body.csv", "# kind=sign_matrix scale_sq=1/1\n"),
        ("deep.json", "[" * 100000 + "]" * 100000),
        ("walsh-log-order.json",
         '{"kind":"walsh_matrix","order":8,"log_order":5,"entries":' + str([1] * 64) + "}"),
        ("walsh-order-3.csv", "# kind=walsh_matrix\n1,1,1\n1,-1,1\n1,1,-1\n"),
        ("long-row.csv", "# kind=sign_matrix scale_sq=1/1\n1,1\n1,-1,1\n"),
    ],
)
def test_malformed_object_file_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_text(content)
    code, err = run_malformed(capsys, "verify", "--input", str(path))
    assert_diagnosed(code, err)
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(sys.platform != "linux", reason="caps the address space with RLIMIT_AS")
@pytest.mark.parametrize("argv", [("gen-gff", "--n", "13", "--m", "1"),
                                  ("gen-etf", "--order", "8192"), ("gen-hadamard", "--k", "16")])
def test_running_out_of_memory_exits_2(argv):
    """Each command is under the default order cap but needs more than
    768 MiB; only the child's address space is capped."""
    import resource

    limit = 768 << 20
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop(MAX_ORDER_ENV, None)
    done = subprocess.run(
        [sys.executable, "-m", "hadframes.cli", *argv], env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)), timeout=300)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: memory ran out") and done.stderr.count("\n") == 1


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    code, err = run_malformed(capsys, "verify", "--input", str(path))
    assert_diagnosed(code, err)
    assert "UTF-8" in err


def test_missing_key_names_the_field(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"kind":"sign_matrix"}')
    code, err = run_malformed(capsys, "verify", "--input", str(path))
    assert code == 2 and "'order'" in err


@pytest.mark.parametrize(
    "content,key",
    [
        # The last of two kinds used to win, so this verified as a sign matrix.
        ("# kind=frame kind=sign_matrix scale_sq=1/1\n1,1\n1,-1\n", "'kind'"),
        ("# kind=sign_matrix scale_sq=1/1 scale_sq=1/1\n1,1\n1,-1\n", "'scale_sq'"),
        ("# kind=sign_matrix scale_sq=5/7 foo=bar\n1,1\n1,-1\n", "'foo'"),
        ("# kind=frame scale_sq=1/1 subspace_dims=1,1\n1,0\n0,1\n", "'subspace_dims'"),
        ("# kind=sign_matrix scale_sq=5/7\n1,1\n1,-1\n", "'scale_sq'"),
        ("# kind=walsh_matrix scale_sq=1/2\n1,1\n1,-1\n", "'scale_sq'"),
    ],
)
def test_csv_header_keys_are_read_once_and_only_by_their_kind(tmp_path, capsys, content, key):
    path = tmp_path / "h.csv"
    path.write_text(content)
    code, err = run_malformed(capsys, "verify", "--input", str(path))
    assert_diagnosed(code, err)
    assert err.count("\n") == 1 and key in err


@pytest.mark.parametrize("header", ["# kind=sign_matrix", "# kind=sign_matrix scale_sq=2/2"])
def test_a_sign_matrix_csv_may_omit_its_unit_scale(tmp_path, capsys, header):
    path = tmp_path / "h.csv"
    path.write_text(header + "\n1,1\n1,-1\n")
    assert run(capsys, "verify", "--input", str(path))[0] == 0


@pytest.mark.parametrize(
    "subspaces,named",
    [("[[1,0,0,1],[1]]", "subspace 1 has 1 entries"), ("[[1]]", "subspace 0 has 1 entries"),
     ("[[1,0,0,1],[]]", "subspace 1 has 0 entries")],
)
def test_fusion_json_names_a_subspace_that_is_not_whole_columns(tmp_path, capsys, subspaces, named):
    path = tmp_path / "ff.json"
    path.write_text('{"kind":"fusion_frame","ambient_dim":2,"scale_sq":{"num":1,"den":1},'
                    f'"subspaces":{subspaces}}}')
    code, err = run_malformed(capsys, "verify", "--input", str(path))
    assert_diagnosed(code, err)
    assert named in err and "multiple of ambient_dim 2" in err


@pytest.fixture
def etf4(tmp_path, capsys):
    path = tmp_path / "etf.json"
    assert main(["gen-etf", "--order", "4", "--output", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize(
    "config", ['{"noise_std":"abc"}', "[1]", '{"trials":1.0}', '{"exact_threshold":1e400}',
               '{"erasure":{"mode":"fixed","indices":["0"]}}', "{not json",
               '{"erasure":{"mode":"none","k":3,"indices":[1]}}', '{"erasure":{"mode":"none","k":3}}',
               '{"erasure":{"mode":"random","k":1,"indices":[1]}}',
               '{"erasure":{"mode":"fixed","indices":[0],"k":2}}',
               '{"erasure":{"mode":"fixed","indices":[]}}', '{"exact_threshold":-1}',
               '{"trials":10000000000000000000000}', "[" * 100000 + "]" * 100000,
               '{"erasure":{"mode":"fixed","indices":[1,2]],"trials":3}',
               '{"noise-std":0.5,"trials":7}', '{"trails":7}',
               '{"erasure":{"mode":"random","k":1,"indeces":[0]}}'],
)
def test_malformed_config_exits_2(tmp_path, capsys, etf4, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code, err = run_malformed(capsys, "simulate", "--input", str(etf4), "--config", str(cfg))
    assert_diagnosed(code, err)


@pytest.mark.parametrize(
    "flags", [("--noise-std", "nan"), ("--noise-std", "inf"), ("--erase-fixed", "a"),
              ("--erase-fixed", "0", "--erase-random", "2"), ("--erase-fixed", ""),
              ("--trials", "10000000000000000000000"), ("--erase-random", "0")],
)
def test_bad_channel_flags_exit_2(capsys, etf4, flags):
    assert_diagnosed(*run_malformed(capsys, "simulate", "--input", str(etf4), *flags))


def assert_one_error(code, err):
    assert_diagnosed(code, err)
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("name,content", [
    ("signs.csv", "# kind=sign_matrix\n+1,01\n 1,-0001\n"),
    ("signs.json", '{"kind":"sign_matrix","order":2,"entries":[+1,01, 1,-0001]}'),
    ("scale.csv", "# kind=fusion_frame scale_sq=01/1 subspace_dims=1,1\n1,0\n0,1\n"),
    ("dims.csv", "# kind=fusion_frame scale_sq=1/1 subspace_dims=01,1\n1,0\n0,1\n"),
    ("form-feed.csv", "# kind=sign_matrix\n1,1\x0c1,-1\n"),
])
def test_csv_and_json_refuse_the_same_integer_spellings(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_text(content)
    assert_one_error(*run_malformed(capsys, "verify", "--input", str(path)))


def test_a_crlf_csv_verifies(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_bytes(b"# kind=walsh_matrix scale_sq=1/1\r\n1,1\r\n1,-1\r\n")
    assert run(capsys, "verify", "--input", str(path))[0] == 0


@pytest.mark.parametrize("indices", ["1_0", "\u0661", "+1", "01", "1,,2", "1,"])
def test_erase_fixed_reads_integers_as_every_input_does(capsys, etf4, indices):
    code, err = run_malformed(capsys, "simulate", "--input", str(etf4), "--erase-fixed", indices,
                              "--trials", "2")
    assert_one_error(code, err)
    assert "not comma-separated integers" in err


# 1e308 overflows every trial's squared error.
@pytest.mark.parametrize("noise,mode", [("1e308", "lstsq"), ("1e308", "naive")])
def test_overflowing_noise_exits_2_and_writes_no_nan(capsys, etf4, noise, mode):
    code, out, err = run(capsys, "simulate", "--input", str(etf4), "--noise-std", noise,
                         "--mode", mode, "--trials", "3", "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "noise_std" in err


def test_huge_noise_reports_the_scaled_statistics(capsys, etf4):
    """At noise 1e150 every squared error is finite (about 1e300) but their
    squared deviations are not; at 2e152 the errors of 2000 trials are
    finite but their sum is not. The decoder is linear and the draws scale
    with the noise, so each statistic is noise^2 times the noise-1 run's."""
    for noise, trials, factor in (("1e150", "3", 1e300), ("2e152", "2000", 4e304)):
        reports = []
        for std in ("1", noise):
            code, out, _ = run(capsys, "simulate", "--input", str(etf4), "--noise-std", std,
                               "--trials", trials, "--format", "json")
            assert code == 0
            reports.append(json.loads(out))
        unit, huge = reports
        for key in ("mean_mse", "max_mse", "mean_mse_stderr"):
            assert math.isfinite(huge[key]) and huge[key] > 0
            assert huge[key] == pytest.approx(factor * unit[key], rel=1e-12)


def test_simulate_rejects_a_matrix_input(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["gen-walsh", "--k", "2", "--output", str(path)]) == 0
    assert_diagnosed(*run_malformed(capsys, "simulate", "--input", str(path)))
    assert_diagnosed(*run_malformed(capsys, "compare", "--inputs", str(path), str(path)))


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_bad_max_order_environment_exits_2(capsys, monkeypatch, etf4, value):
    monkeypatch.setenv(MAX_ORDER_ENV, value)
    for argv in (("gen-walsh", "--k", "1"), ("verify", "--input", str(etf4))):
        code, err = run_malformed(capsys, *argv)
        assert_diagnosed(code, err)
        assert MAX_ORDER_ENV in err


@pytest.mark.parametrize(
    "name,content",
    [
        ("order.json", '{"kind":"sign_matrix","order":16,"entries":[]}'),
        ("count.json", '{"kind":"frame","ambient_dim":1,"count":9,"scale_sq":{"num":1,"den":1},'
                       '"raw":[1,1,1,1,1,1,1,1,1]}'),
        ("ambient.json",
         '{"kind":"fusion_frame","ambient_dim":9,"scale_sq":{"num":1,"den":1},"subspaces":[]}'),
        ("rows.csv", "# kind=frame scale_sq=1/1\n" + "1\n" * 9),
        ("cols.csv", "# kind=frame scale_sq=1/1\n" + ",".join(["1"] * 9) + "\n"),
        # 20 lines in F^1: each fits the cap, their column count does not
        ("fusion-cols.csv", "# kind=fusion_frame scale_sq=1/1 subspace_dims=" + ",".join(["1"] * 20)
                            + "\n" + ",".join(["1"] * 20) + "\n"),
        ("fusion-cols.json", '{"kind":"fusion_frame","ambient_dim":1,"scale_sq":{"num":1,"den":1},'
                             '"subspaces":[' + ",".join(["[1]"] * 20) + "]}"),
    ],
)
def test_import_over_the_order_cap_exits_2(tmp_path, capsys, monkeypatch, name, content):
    monkeypatch.setenv(MAX_ORDER_ENV, "8")
    path = tmp_path / name
    path.write_text(content)
    code, err = run_malformed(capsys, "verify", "--input", str(path))
    assert_diagnosed(code, err)
    assert "exceeds" in err


def test_import_at_the_order_cap_is_accepted(tmp_path, capsys, monkeypatch):
    path = tmp_path / "w.csv"
    assert main(["gen-walsh", "--k", "3", "--format", "csv", "--output", str(path)]) == 0
    monkeypatch.setenv(MAX_ORDER_ENV, "8")
    assert run(capsys, "verify", "--input", str(path))[0] == 0


# Records OPENBLAS_THREAD_TIMEOUT at the moment numpy is first imported, then
# imports hadframes or runs ``python -m hadframes.cli --help`` as runpy does,
# and prints the recorded values on its last line.
NUMPY_IMPORT_PROBE = """
import os, runpy, sys

class Probe:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Probe())
if sys.argv[1] == "cli":
    sys.argv = ["hadframes", "--help"]
    try:
        runpy.run_module("hadframes.cli", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
else:
    import hadframes
print(Probe.seen)
"""


@pytest.mark.parametrize("entry", ["import", "cli"])
@pytest.mark.parametrize("given,seen", [(None, "4"), ("9", "9")])
def test_numpy_loads_with_idle_blas_workers_asleep_unless_the_user_chose(entry, given, seen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if given is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = given
    done = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_PROBE, entry], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr([seen])


def last_probe_line(*lines: str) -> str:
    """Run ``lines`` as one program in a fresh interpreter on this checkout's
    package; the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_only_commands_that_draw_import_numpy_random(tmp_path):
    # numpy loads numpy.random, and with it secrets, hmac and _hashlib, on
    # first use; gen-etf and verify draw nothing, simulate does.
    obj = tmp_path / "e.json"
    assert last_probe_line(
        "import sys, hadframes, hadframes.cli",
        f"argv = ['gen-etf', '--order', '16', '--output', {str(obj)!r}]",
        "assert hadframes.cli.main(argv) == 0",
        f"assert hadframes.cli.main(['verify', '--input', {str(obj)!r}]) == 0",
        "before = 'numpy.random' in sys.modules",
        f"assert hadframes.cli.main(['simulate', '--input', {str(obj)!r}, '--trials', '2']) == 0",
        "print(before, 'numpy.random' in sys.modules)",
    ) == "False True"


def test_counting_survivor_sets_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique's 1-D form imports numpy.ma, about 1.3 MiB of RSS; simulate
    # counts its distinct survivor sets with one sort instead.
    obj = tmp_path / "e.json"
    assert last_probe_line(
        "import sys, hadframes.cli",
        f"assert hadframes.cli.main(['gen-etf', '--order', '16', '--output', {str(obj)!r}]) == 0",
        f"argv = ['simulate', '--input', {str(obj)!r}, '--erase-random', '2', '--trials', '300']",
        "assert hadframes.cli.main(argv) == 0",
        "print('numpy.ma' in sys.modules)",
    ) == "False"
