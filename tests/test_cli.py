"""Command-line behavior: generation, verification, round trips, exit codes."""

from __future__ import annotations

import json

import pytest

from hadframes.cli import main
from hadframes.hadamard import MAX_ORDER_ENV


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
    assert cert["grassmannian_by_construction"]


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
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(frame))
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


def test_invalid_json_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert "not valid JSON" in err
