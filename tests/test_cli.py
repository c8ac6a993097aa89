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
        ("float-entry.csv", "# kind=sign_matrix scale_sq=1/1\n1.5,1\n1,-1\n"),
        ("exponent-entry.csv", "# kind=sign_matrix scale_sq=1/1\n1e0,1\n1,-1\n"),
        ("bad-scale.csv", "# kind=frame scale_sq=abc\n1\n"),
        ("decimal-scale.csv", "# kind=frame scale_sq=1.0\n1,-1\n"),
        ("bad-dims.csv", "# kind=fusion_frame scale_sq=1/1 subspace_dims=x\n1\n"),
        ("ragged.csv", "# kind=frame scale_sq=1/1\n1,0\n0\n"),
        ("empty-body.csv", "# kind=sign_matrix scale_sq=1/1\n"),
        ("deep.json", "[" * 100000 + "]" * 100000),
    ],
)
def test_malformed_object_file_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_text(content)
    code, err = run_malformed(capsys, "verify", "--input", str(path))
    assert_diagnosed(code, err)
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.fixture
def etf4(tmp_path, capsys):
    path = tmp_path / "etf.json"
    assert main(["gen-etf", "--order", "4", "--output", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize(
    "config", ['{"noise_std":"abc"}', "[1]", '{"trials":1.0}', '{"exact_threshold":1e400}',
               '{"erasure":{"mode":"fixed","indices":["0"]}}', "{not json"],
)
def test_malformed_config_exits_2(tmp_path, capsys, etf4, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code, err = run_malformed(capsys, "simulate", "--input", str(etf4), "--config", str(cfg))
    assert_diagnosed(code, err)


@pytest.mark.parametrize(
    "flags", [("--noise-std", "nan"), ("--noise-std", "inf"), ("--erase-fixed", "a")],
)
def test_bad_channel_flags_exit_2(capsys, etf4, flags):
    assert_diagnosed(*run_malformed(capsys, "simulate", "--input", str(etf4), *flags))


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
