"""JSON/CSV round trips and byte stability."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hadframes import (
    ChannelConfig,
    ErasureSpec,
    FusionFrame,
    ResourceLimitError,
    ScaledFrame,
    SignMatrix,
    ValidationError,
    WalshMatrix,
    build_gff,
    build_sylvester,
    build_walsh,
    etf_from_hadamard,
    frame_from_integer_columns,
    make_fusion_frame,
    simulate_frame,
    subspace_from_columns,
)
from hadframes import frames as frames_module
from hadframes import fusion as fusion_module
from hadframes import serialize as ser
from hadframes.hadamard import MAX_ORDER_ENV


def via_json(d: dict):
    """``d`` as the decoder meets it: parsed back from its canonical JSON text."""
    return json.loads(ser.canonical_dumps(d))


def test_fraction_pairs_are_lowest_terms_positive_denominator():
    assert ser.fraction_to_pair(Fraction(2, -6)) == {"num": -1, "den": 3}
    assert ser.pair_to_fraction({"num": 4, "den": 6}) == Fraction(2, 3)
    with pytest.raises(ValidationError):
        ser.pair_to_fraction({"num": 1})


def test_sign_matrix_json_round_trip():
    m = build_sylvester(3)
    back = ser.object_from_dict(via_json(ser.sign_matrix_to_dict(m)))
    assert np.array_equal(back.entries, m.entries)


def test_walsh_matrix_json_round_trip():
    w = build_walsh(3)
    back = ser.object_from_dict(via_json(ser.walsh_matrix_to_dict(w)))
    assert back.log_order == 3
    assert np.array_equal(back.base.entries, w.base.entries)


def test_frame_json_round_trip():
    f = etf_from_hadamard(build_walsh(3).base)
    back = ser.object_from_dict(via_json(ser.frame_to_dict(f)))
    assert np.array_equal(back.raw, f.raw)
    assert back.scale_sq == f.scale_sq


def test_older_json_with_a_degenerate_key_still_loads():
    # The flags are gone: objects no longer write them, and a key an older
    # version wrote, of any value, is ignored like every unknown key.
    olds = {"degenerate": (True, False, "no"), "constructed_grassmannian": (True, False, 7, "x")}
    for obj in (etf_from_hadamard(build_walsh(1).base), build_gff(2, 1), build_gff(3, 1)):
        d = via_json(ser.kind_of(obj).to_dict(obj))
        for key, values in olds.items():
            assert key not in d
            for old in values:
                back = ser.object_from_dict({**d, key: old})
                assert via_json(ser.kind_of(back).to_dict(back)) == d


def test_json_bytes_are_stable():
    ff = build_gff(3, 1)
    blob1 = ser.canonical_dumps(ser.fusion_frame_to_dict(ff))
    blob2 = ser.canonical_dumps(ser.fusion_frame_to_dict(build_gff(3, 1)))
    assert blob1 == blob2


def test_golden_bytes_for_order2_walsh():
    blob = ser.canonical_dumps(ser.walsh_matrix_to_dict(build_walsh(1)))
    assert blob == (
        '{"entries":[1,1,1,-1],"kind":"walsh_matrix","log_order":1,"order":2}\n'
    )


def test_csv_round_trips():
    for obj in (build_sylvester(2), build_walsh(3), etf_from_hadamard(build_walsh(2).base), build_gff(3, 1)):
        back = ser.object_from_csv(ser.object_to_csv(obj))
        assert type(back).__name__ == type(obj).__name__


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda k: st.lists(
    st.sampled_from([-1, 1]), min_size=4 ** k, max_size=4 ** k)))
def test_every_walsh_matrix_exports_json_and_csv_its_reader_accepts(signs):
    n = int(np.sqrt(len(signs)))
    for w in (WalshMatrix(np.reshape(signs, (n, n))), build_walsh(n.bit_length() - 1)):
        for back in (ser.object_from_dict(via_json(ser.walsh_matrix_to_dict(w))),
                     ser.object_from_csv(ser.object_to_csv(w))):
            assert type(back) is WalshMatrix and back.log_order == w.log_order
            assert np.array_equal(back.entries, w.entries)


def _from_json(text: str):
    return ser.object_from_dict(json.loads(text))


@pytest.mark.parametrize("read,text,message", [
    (_from_json, '{"kind":"walsh_matrix","order":2,"log_order":5,"entries":[1,1,1,-1]}',
     "walsh matrix order 2 is not 2\\*\\*5"),
    (_from_json, '{"kind":"walsh_matrix","order":1,"log_order":1,"entries":[1]}',
     "walsh matrix order 1 is not 2\\*\\*1"),
    (_from_json, '{"kind":"walsh_matrix","order":3,"entries":[1,1,1,1,-1,1,1,1,-1]}',
     "walsh matrix order 3 is not a power of two"),
    (ser.object_from_csv, "# kind=walsh_matrix\n1,1,1\n1,-1,1\n1,1,-1\n",
     "walsh matrix order 3 is not a power of two"),
])
def test_walsh_imports_refuse_a_wrong_log_order_or_order(read, text, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        read(text)


@pytest.mark.parametrize("body,message", [
    ("1,1\n1,-1,1\n", "rows 1 and 2 have 2 and 3 cells"),
    ("1\n1\n1,1\n", "rows 1 and 3 have 1 and 2 cells"),
    ("1,1\n\n1\n", "rows 1 and 2 have 2 and 1 cells"),
    ("1e0,1\n1,-1\n", "row 1, column 1 holds '1e0'"),
    ("1,1\n\n1,1.5\n", "row 2, column 2 holds '1.5'"),
    ("1,1\n1,\n", "row 2, column 2 holds ''"),
    ("1,1\n99999999999999999999,1\n", "row 2, column 1 holds '99999999999999999999'"),
    ("1,1\n1,-9223372036854775809\n", "row 2, column 2 holds '-9223372036854775809'"),
    ("+1,01\n 1,-0001\n", "row 1, column 1 holds '+1'"),
    ("1,1\n1,01\n", "row 2, column 2 holds '01'"),
    ("1,1\x0c1,-1\n", "row 1, column 2 holds '1\\x0c1'"),
    ("1,1\x0b\n1,-1\n", "row 1, column 2 holds '1\\x0b'"),
])
def test_csv_body_refusals_name_the_row_and_column_from_1(body, message):
    with pytest.raises(ValidationError) as refused:
        ser.object_from_csv(f"# kind=sign_matrix scale_sq=1/1\n{body}")
    assert str(refused.value) == f"CSV body is not an integer matrix: {message}"


def test_csv_frame_preserves_scale():
    f = etf_from_hadamard(build_walsh(2).base)
    text = ser.object_to_csv(f)
    assert text.splitlines()[0] == "# kind=frame scale_sq=1/3"
    back = ser.object_from_csv(text)
    assert back.scale_sq == Fraction(1, 3)
    assert np.array_equal(back.raw, f.raw)


def test_csv_fusion_preserves_subspace_layout():
    ff = build_gff(3, 1)
    back = ser.object_from_csv(ser.object_to_csv(ff))
    assert [s.dim for s in back.subspaces] == [2, 2, 2, 2]
    for a, b in zip(back.subspaces, ff.subspaces):
        assert np.array_equal(a.basis_raw, b.basis_raw)


def test_mixed_scale_fusion_frame_cannot_use_single_scale_schema():
    e = np.eye(2, dtype=int)
    diag = np.array([[1], [1]])
    ff = make_fusion_frame(
        [
            subspace_from_columns(e[:, :1], 1),
            subspace_from_columns(e[:, 1:], 1),
            subspace_from_columns(diag, Fraction(1, 2)),
            subspace_from_columns(np.array([[1], [-1]]), Fraction(1, 2)),
        ]
    )
    with pytest.raises(ValidationError, match="single scale"):
        ser.fusion_frame_to_dict(ff)
    with pytest.raises(ValidationError, match="single"):
        ser.object_to_csv(ff)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown object kind"):
        ser.object_from_dict({"kind": "sonnet"})


def test_corrupted_csv_rejected():
    with pytest.raises(ValidationError, match="header"):
        ser.object_from_csv("1,2\n3,4\n")
    with pytest.raises(ValidationError, match="integer"):
        ser.object_from_csv("# kind=frame scale_sq=1/2\n1.5,2\n")


def test_corrupted_json_payload_rejected():
    d = via_json(ser.frame_to_dict(etf_from_hadamard(build_walsh(2).base)))
    d["raw"] = d["raw"][:-1]
    with pytest.raises(ValidationError, match="expected"):
        ser.object_from_dict(d)


def test_config_round_trip():
    cfg = ChannelConfig(
        noise_std=0.25,
        erasure=ErasureSpec.fixed([0, 2]),
        trials=42,
        seed=9,
        mode="naive",
    )
    back = ser.config_from_dict(ser.config_to_dict(cfg))
    assert back == cfg


def test_report_dict_carries_config_echo():
    f = etf_from_hadamard(build_walsh(2).base)
    cfg = ChannelConfig(noise_std=0.1, trials=10, seed=3)
    d = ser.report_to_dict(simulate_frame(f, cfg))
    assert d["trials_run"] == 10
    assert d["config"]["noise_std"] == 0.1
    assert d["config"]["erasure"]["mode"] == "none"


# ---------------------------------------------------------------------------
# strict decoding: every input gives an object, a ValidationError or a
# ResourceLimitError, never any other exception

OBJECT_TYPES = (SignMatrix, WalshMatrix, ScaledFrame, FusionFrame)
KIND_NAMES = ["sign_matrix", "walsh_matrix", "frame", "fusion_frame"]
FIELD_NAMES = [
    "kind", "order", "entries", "log_order", "ambient_dim", "count", "scale_sq", "raw",
    "subspaces", "degenerate", "constructed_grassmannian", "num", "den", "noise_std",
    "erasure", "trials", "seed", "mode", "exact_threshold", "indices", "k",
]
kinds = st.sampled_from(KIND_NAMES) | st.text(max_size=4)
keys = st.sampled_from(FIELD_NAMES) | st.text(max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.integers(0, 40) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(keys, inner, max_size=6),
    max_leaves=12,
)


def _valid_dicts() -> list[dict]:
    objs = [build_sylvester(1), build_walsh(2), etf_from_hadamard(build_walsh(2).base),
            build_gff(2, 0), build_gff(3, 1)]
    return [via_json(ser.kind_of(o).to_dict(o)) for o in objs]


@st.composite
def mutated_objects(draw) -> dict:
    """A valid object dict with one field replaced or removed."""
    d = dict(draw(st.sampled_from(_valid_dicts())))
    key = draw(st.sampled_from(sorted(d)) | keys)
    if draw(st.booleans()):
        d.pop(key, None)
    else:
        d[key] = draw(json_values | kinds)
    return d


object_inputs = (
    json_values
    | st.builds(lambda kind, rest: {**rest, "kind": kind}, kinds, st.dictionaries(keys, json_values))
    | mutated_objects()
)


def _decodes_or_rejects(decode, value, accepted: tuple[type, ...]) -> None:
    with mock.patch.dict(os.environ, {MAX_ORDER_ENV: "16"}):
        try:
            out = decode(value)
        except (ValidationError, ResourceLimitError):
            return
    assert isinstance(out, accepted)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(object_inputs)
def test_object_from_dict_never_raises_anything_else(value):
    _decodes_or_rejects(ser.object_from_dict, value, OBJECT_TYPES)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(json_values | st.dictionaries(keys, json_values))
def test_config_from_dict_never_raises_anything_else(value):
    _decodes_or_rejects(ser.config_from_dict, value, (ChannelConfig,))


tokens = st.sampled_from(["1/1", "1/3", "1/0", "-1", "abc", "2,2", "1,x", "0", ""]) | st.text(
    alphabet="0123456789/-,x ", max_size=5
)
small_matrices = st.lists(
    st.lists(st.integers(-2, 2), min_size=1, max_size=5), min_size=0, max_size=6
).map(lambda rows: "\n".join(",".join(map(str, r)) for r in rows))


@st.composite
def csv_texts(draw) -> str:
    fields = {"kind": draw(kinds), "scale_sq": draw(tokens), "subspace_dims": draw(tokens)}
    drop = draw(st.sets(st.sampled_from(sorted(fields))))
    head = "# " + " ".join(f"{k}={v}" for k, v in fields.items() if k not in drop)
    body = draw(small_matrices | st.text(max_size=40))
    return draw(st.sampled_from([f"{head}\n{body}\n", body, draw(st.text(max_size=40))]))


def _valid_csvs() -> list[str]:
    objs = [build_sylvester(1), build_walsh(2), etf_from_hadamard(build_walsh(2).base),
            build_gff(3, 1)]
    return [ser.object_to_csv(o) for o in objs]


@st.composite
def mutated_csvs(draw) -> str:
    """A valid CSV with one character replaced, inserted or deleted."""
    text = draw(st.sampled_from(_valid_csvs()))
    at = draw(st.integers(0, len(text) - 1))
    new = draw(st.sampled_from(["", "-", ",", "\n", "2", "x", "=", "/", " ", "#", ".", "e", ".5"]))
    return text[:at] + new + text[at + draw(st.integers(0, 1)):]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_texts() | mutated_csvs())
def test_object_from_csv_never_raises_anything_else(text):
    _decodes_or_rejects(ser.object_from_csv, text, OBJECT_TYPES)


def test_bool_and_float_entries_are_not_coerced():
    d = via_json(ser.sign_matrix_to_dict(build_sylvester(1)))
    for bad in ([True, True, True, -1], [1.0, 1, 1, -1], ["1", 1, 1, -1]):
        with pytest.raises(ValidationError, match="entries"):
            ser.object_from_dict({**d, "entries": bad})
    with pytest.raises(ValidationError, match="order"):
        ser.object_from_dict({**d, "order": 2.0})


def test_sign_matrix_dict_keeps_the_int8_entries():
    w = build_walsh(3)
    d = ser.walsh_matrix_to_dict(w)
    assert d["entries"].dtype == np.int8
    listed = {**d, "entries": d["entries"].tolist()}
    assert ser.canonical_dumps(d) == json.dumps(listed, sort_keys=True, separators=(",", ":")) + "\n"
    back = ser.object_from_dict(d)  # a dict built in Python decodes too
    assert np.array_equal(back.base.entries, w.base.entries)


def test_decode_errors_name_the_field():
    d = via_json(ser.frame_to_dict(etf_from_hadamard(build_walsh(2).base)))
    with pytest.raises(ValidationError, match="'scale_sq'"):
        ser.object_from_dict({**d, "scale_sq": {"num": 1, "den": 0}})
    with pytest.raises(ValidationError, match="'noise_std'"):
        ser.config_from_dict({"noise_std": "abc"})
    with pytest.raises(ValidationError, match="'k'"):
        ser.config_from_dict({"erasure": {"mode": "random", "k": "1"}})
    with pytest.raises(ValidationError, match="unknown field 'trails'"):
        ser.config_from_dict({"trials": 7, "trails": 7})
    with pytest.raises(ValidationError, match="unknown field 'indeces'"):
        ser.config_from_dict({"erasure": {"mode": "random", "k": 1, "indeces": [0]}})


@pytest.mark.parametrize("scale", ["1.0", "1e0", "1_0/10", "\u0661", "1/1.0", "0x1", "01/1", "1/+1",
                                   "1/1/1", "1,1/1"])
def test_csv_header_numbers_are_plain_integers(scale):
    with pytest.raises(ValidationError, match="'scale_sq'"):
        ser.object_from_csv(f"# kind=frame scale_sq={scale}\n1\n")
    text = ser.object_to_csv(build_gff(3, 1))
    assert "subspace_dims=2," in text
    with pytest.raises(ValidationError, match="'subspace_dims'"):
        ser.object_from_csv(text.replace("subspace_dims=2,", "subspace_dims=\u0662,"))


def test_csv_float_cells_are_refused_not_truncated():
    for cell in ("1.5", "1.9", "1e0", "1.0", "\u0661", "\U0001d7cf"):
        with pytest.raises(ValidationError, match="integer matrix"):
            ser.object_from_csv(f"# kind=sign_matrix scale_sq=1/1\n{cell},1\n1,-1\n")


@pytest.mark.parametrize(
    "module,name,decode,value",
    [
        (fusion_module, "fusion_frame_from_columns", ser.object_from_dict, "gff"),
        (frames_module, "frame_from_integer_columns", ser.object_from_csv, "etf-csv"),
        (ser, "ChannelConfig", ser.config_from_dict, "config"),
    ],
)
def test_constructor_errors_keep_their_type(monkeypatch, module, name, decode, value):
    """Only parsing steps become ValidationErrors: a fault inside a
    constructor keeps its own type and traceback."""

    def broken(*args, **kwargs):
        raise TypeError("fault inside the constructor")

    inputs = {
        "gff": via_json(ser.fusion_frame_to_dict(build_gff(3, 1))),
        "etf-csv": ser.object_to_csv(etf_from_hadamard(build_walsh(2).base)),
        "config": {"trials": 3},
    }
    monkeypatch.setattr(module, name, broken)
    with pytest.raises(TypeError, match="fault inside the constructor"):
        decode(inputs[value])


def test_config_defaults_come_from_the_dataclass():
    assert ser.config_from_dict({}) == ChannelConfig()
    assert ser.config_from_dict({"erasure": {"mode": "none"}}) == ChannelConfig()


def test_every_kind_round_trips_through_its_table_row():
    for obj in (build_sylvester(2), build_walsh(2), etf_from_hadamard(build_walsh(2).base),
                build_gff(3, 1)):
        kind = ser.kind_of(obj)
        assert type(kind.from_dict(via_json(kind.to_dict(obj)))) is kind.type
        assert type(ser.object_from_csv(ser.object_to_csv(obj))) is kind.type
        checks = kind.checks(obj)
        assert all(kind.passes(checks, level) for level in ("valid", "tight", "grassmannian"))
    with pytest.raises(ValidationError, match="not a matrix, frame or fusion frame"):
        ser.kind_of(ChannelConfig())


# ---------------------------------------------------------------------------
# the integer writer against the reference encoders

INT64_EDGES = [0, 1, -1, 9, 10, -10, 2**63 - 1, -(2**63 - 1), -(2**63)]
# mixed digit widths within one matrix: each entry draws its own magnitude
int64_entries = st.sampled_from(INT64_EDGES) | st.integers(0, 18).flatmap(
    lambda digits: st.integers(-(10**digits), 10**digits)
)


@st.composite
def int64_matrices(draw) -> np.ndarray:
    """1 x 1, one row, one column, or any small shape."""
    rows, cols = draw(st.sampled_from([(1, 1), (1, None), (None, 1), (None, None)]))
    rows = rows or draw(st.integers(1, 6))
    cols = cols or draw(st.integers(1, 6))
    values = draw(st.lists(int64_entries, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.int64).reshape(rows, cols)


def reference_csv_rows(a: np.ndarray) -> str:
    return "\n".join(",".join(map(str, r)) for r in a.tolist())


def reference_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(int64_matrices())
def test_int_writer_matches_the_reference_encoders(a):
    assert ser._int_text(a, ",", "\n") == reference_csv_rows(a) + "\n"
    assert f"[{ser._int_text(a.reshape(1, -1), ',', '')}]" == reference_json(a.reshape(-1).tolist())


def test_int_writer_edge_rows():
    extremes = np.array([INT64_EDGES], dtype=np.int64)
    assert ser._int_text(extremes, ",", "") == ",".join(map(str, INT64_EDGES))
    assert ser._int_text(extremes.T, ";", "\r\n") == "".join(f"{v}\r\n" for v in INT64_EDGES)
    assert ser._int_text(np.array([[1, -2], [30, 4]]), "", "") == "1-2304"
    assert ser._int_text(np.zeros((2, 0), dtype=np.int64), ",", "\n") == "\n\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(int64_matrices(), json_values)
def test_canonical_dumps_writes_arrays_as_json_dumps_writes_lists(a, other):
    payload = {"flat": a.reshape(-1), "rows": list(a), "empty": a[:0, 0], "other": [other]}
    plain = {"flat": a.reshape(-1).tolist(), "rows": a.tolist(), "empty": [], "other": [other]}
    assert ser.canonical_dumps(payload) == reference_json(plain) + "\n"


# ---------------------------------------------------------------------------
# the integer-array reader


def plain(value):
    """``value`` with every int64 array ``ser.loads`` made turned back into a list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def outcome(load, text: str, size: int):
    """What ``load`` then ``_int_matrix`` make of ``text``: the 1 x size
    matrix's entries, or the type and text of the error."""
    try:
        return ser._int_matrix(load(text), 1, size).tolist()[0]
    except (*ser._DECODE_ERRORS, ValidationError) as exc:  # JSONDecodeError is a ValueError
        return type(exc).__name__, str(exc)


json_space = st.text(alphabet=" \t\n\r", max_size=2)
cell_values = (
    st.integers(-12, 12) | st.integers(-(2**63), 2**63 - 1)
    | st.integers(0, 19).flatmap(lambda digits: st.integers(-(10**digits), 10**digits))
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([10**18 - 1, -(10**18) + 1, 10**18, 2**63 - 1, -(2**63), 2**63,
                       -(2**63) - 1, 10**19 - 1, -(10**19) + 1])
)
# Each mutation turns one cell into something json.loads refuses or reads as
# another type: leading zeros, a lone or misplaced '-', an empty cell,
# whitespace inside a number, bools, floats, strings, a nested array and
# non-ASCII digits.
MUTATIONS = [
    lambda c: "0" + c.lstrip("-"), lambda c: "-0" + c.lstrip("-"), lambda c: "-",
    lambda c: c + "-", lambda c: c[:1] + "-" + c[1:], lambda c: "--" + c.lstrip("-"),
    lambda c: "", lambda c: c[:1] + " " + c[1:], lambda c: "- " + c.lstrip("-"),
    lambda c: "true", lambda c: "null", lambda c: c + ".0", lambda c: c + "e1",
    lambda c: f'"{c}"', lambda c: f"[{c}]", lambda c: c + "٣", lambda c: "+" + c,
]


@st.composite
def int_array_texts(draw) -> tuple[str, int]:
    """A flat JSON array of integers with random JSON whitespace, perhaps
    with one cell mutated or a trailing comma, and its cell count."""
    cells = [str(v) for v in draw(st.lists(cell_values, min_size=1, max_size=12))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(cells) - 1))
        cells[at] = draw(st.sampled_from(MUTATIONS))(cells[at])
    if draw(st.integers(0, 9)) == 0:
        cells.append("")  # a trailing comma
    text = "[" + ",".join(draw(json_space) + c + draw(json_space) for c in cells) + "]"
    return text, len(cells)


@settings(max_examples=500, deadline=None)
@given(int_array_texts(), st.sampled_from([1, 2, 5, ser._SLICE_CHARS]))
def test_reader_matches_json_loads_then_the_list_path(case, slice_chars):
    text, size = case
    with mock.patch.object(ser, "_SLICE_CHARS", slice_chars):
        got = outcome(ser.loads, text, size)
    assert got == outcome(json.loads, text, size)
    if type(got) is list and all(len(str(abs(v))) <= 18 for v in got):
        assert type(ser.loads(text)) is np.ndarray


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(json_values | st.lists(st.integers(-3, 3)) | st.lists(cell_values), st.booleans())
def test_reader_reads_any_json_as_json_loads_does(value, indent):
    text = json.dumps(value, indent=1 if indent else None)
    assert plain(ser.loads(text)) == json.loads(text)


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000, "﻿[1]", "[1٣]", '{"order": 1٣}', "[1e٣]", "[1,2]x", "[1,2",
])
def test_reader_raises_what_json_loads_raises(text):
    with pytest.raises((ValueError, RecursionError)) as want:
        json.loads(text)
    with pytest.raises(want.type) as got:
        ser.loads(text)
    assert str(got.value) == str(want.value)


def test_reader_hands_its_array_to_the_matrix_without_a_copy():
    flat = ser.loads("[1, -1, -1, 1]")
    assert type(flat) is np.ndarray and flat.dtype == np.int64
    assert np.shares_memory(ser._int_matrix(flat, 2, 2), flat)
    nineteen = ser.loads("[1234567890123456789, -9223372036854775808]")
    assert nineteen.dtype == np.int64
    assert nineteen.tolist() == [1234567890123456789, -(2**63)]
    for text, value in [("[]", []), ("[ ]", []), ("[1.0, 1]", [1.0, 1]),
                        ("[12345678901234567890]", [12345678901234567890])]:  # 20 digits
        got = ser.loads(text)
        assert type(got) is list and got == value


# ---------------------------------------------------------------------------
# one integer grammar: CSV bodies, CSV headers and JSON arrays


CELL_PIECES = ["+", "-", *"0123456789", " ", "\t", "\r", "\x0b", "\x0c", "_", ".", "e", "\u0661"]
near_int64_limits = st.integers(-3, 3).flatmap(
    lambda d: st.sampled_from([2**63 - 1 + d, -(2**63) + d])).map(str)
cell_texts = st.lists(st.sampled_from(CELL_PIECES) | near_int64_limits, max_size=5).map("".join)


def read_cell(read, text: str):
    """The integers ``read`` makes of one cell's text, or None if it refuses it."""
    try:
        with mock.patch.object(ser.hadamard, "sign_matrix", lambda m: m):  # any integers pass
            return np.ravel(read(text)).tolist()
    except (ValueError, ArithmeticError):  # ValidationError and JSONDecodeError are ValueErrors
        return None


def json_integer(text: str):
    """``text`` as json.loads reads it, if that is one integer."""
    try:
        value = json.loads(text)
    except ValueError:
        return None
    return [value] if type(value) is int else None


@settings(max_examples=500, deadline=None)
@given(cell_texts)
def test_csv_bodies_csv_headers_and_json_arrays_read_the_same_integers(text):
    """Integer lists and arrays hold int64; a scale_sq half, in JSON or in a
    CSV header, is a JSON integer of any size."""
    csv_body = read_cell(lambda t: ser.object_from_csv(f"# kind=sign_matrix\n{t}\n"), text)
    header_list = read_cell(ser.int_list, text)
    json_array = read_cell(lambda t: ser.object_from_dict(ser.loads(
        f'{{"kind":"sign_matrix","order":1,"entries":[{t}]}}')), text)
    scale_half = read_cell(lambda t: [ser._ratio_token(f"1/{t}")], text)
    want = json_integer(text)
    assert scale_half == (None if want in (None, [0]) else [Fraction(1, want[0])])
    if want and not -(2**63) <= want[0] < 2**63:
        want = None
    assert csv_body == header_list == json_array == want


@pytest.mark.parametrize("rows", [[[2**63 - 1, -(2**63 - 1)]], [[-(2**63)]]])
def test_a_frame_at_the_int64_limits_round_trips_through_csv_and_json(rows):
    f = frame_from_integer_columns(np.array(rows, dtype=np.int64), Fraction(1, rows[0][0] ** 2))
    loaded = ser.loads(ser.canonical_dumps(ser.frame_to_dict(f)))
    assert type(loaded["raw"]) is np.ndarray  # the one reader, not the list fallback
    for back in (ser.object_from_dict(loaded), ser.object_from_csv(ser.object_to_csv(f))):
        assert type(back) is ScaledFrame and back.scale_sq == f.scale_sq
        assert back.raw.tolist() == rows


@pytest.mark.parametrize("dims", ["01,1", "+1,1", "1,,1", "1,"])
def test_csv_subspace_dims_are_json_integers(dims):
    ser.object_from_csv("# kind=fusion_frame subspace_dims=1,1\n1,0\n0,1\n")
    with pytest.raises(ValidationError, match="^field 'subspace_dims': not comma-separated integers"):
        ser.object_from_csv(f"# kind=fusion_frame subspace_dims={dims}\n1,0\n0,1\n")


def test_decoding_reader_output_gives_the_same_objects_and_errors_as_json_loads():
    valid = [ser.canonical_dumps(ser.kind_of(o).to_dict(o)) for o in
             (build_sylvester(2), build_walsh(2), etf_from_hadamard(build_walsh(2).base),
              build_gff(3, 1))]
    wrong = ['[1, 2]', '{"kind": [1]}', '{"kind": "frame", "ambient_dim": [3], "count": 4}',
             '{"kind": "sign_matrix", "order": 2, "entries": [1, 1, 1]}',
             '{"kind": "frame", "ambient_dim": 1, "count": 1, "raw": [1], "scale_sq": [1, 1]}',
             '{"kind": "fusion_frame", "ambient_dim": 2, "scale_sq": {"num": 1, "den": 1},'
             ' "subspaces": [1, 0]}']
    for text in valid + wrong:
        results = []
        for load in (ser.loads, json.loads):
            try:
                obj = ser.object_from_dict(load(text))
                results.append(ser.canonical_dumps(ser.kind_of(obj).to_dict(obj)))
            except ValidationError as exc:
                results.append(str(exc))
        assert results[0] == results[1], text
    for text in ('{"erasure": {"mode": "fixed", "indices": [1, 2]}}', '{"trials": [3]}'):
        results = []
        for load in (ser.loads, json.loads):
            try:
                results.append(ser.config_from_dict(load(text)))
            except ValidationError as exc:
                results.append(str(exc))
        assert results[0] == results[1], text
