"""JSON/CSV round trips and byte stability."""

from __future__ import annotations

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
    make_fusion_frame,
    simulate_frame,
    subspace_from_columns,
)
from hadframes import frames as frames_module
from hadframes import fusion as fusion_module
from hadframes import serialize as ser
from hadframes.hadamard import MAX_ORDER_ENV


def test_fraction_pairs_are_lowest_terms_positive_denominator():
    assert ser.fraction_to_pair(Fraction(2, -6)) == {"num": -1, "den": 3}
    assert ser.pair_to_fraction({"num": 4, "den": 6}) == Fraction(2, 3)
    with pytest.raises(ValidationError):
        ser.pair_to_fraction({"num": 1})


def test_sign_matrix_json_round_trip():
    m = build_sylvester(3)
    back = ser.object_from_dict(ser.sign_matrix_to_dict(m))
    assert np.array_equal(back.entries, m.entries)


def test_walsh_matrix_json_round_trip():
    w = build_walsh(3)
    back = ser.object_from_dict(ser.walsh_matrix_to_dict(w))
    assert back.log_order == 3
    assert np.array_equal(back.base.entries, w.base.entries)


def test_frame_json_round_trip():
    f = etf_from_hadamard(build_walsh(3).base)
    back = ser.object_from_dict(ser.frame_to_dict(f))
    assert np.array_equal(back.raw, f.raw)
    assert back.scale_sq == f.scale_sq
    assert back.degenerate == f.degenerate


def test_fusion_json_round_trip_keeps_provenance():
    ff = build_gff(3, 1)
    back = ser.object_from_dict(ser.fusion_frame_to_dict(ff))
    assert back.constructed_grassmannian
    assert len(back.subspaces) == 4
    for a, b in zip(back.subspaces, ff.subspaces):
        assert np.array_equal(a.basis_raw, b.basis_raw)
        assert a.scale_sq == b.scale_sq


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
    d = ser.frame_to_dict(etf_from_hadamard(build_walsh(2).base))
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
    return [ser.kind_of(o).to_dict(o) for o in objs]


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
    d = ser.sign_matrix_to_dict(build_sylvester(1))
    for bad in ([True, True, True, -1], [1.0, 1, 1, -1], ["1", 1, 1, -1]):
        with pytest.raises(ValidationError, match="entries"):
            ser.object_from_dict({**d, "entries": bad})
    with pytest.raises(ValidationError, match="order"):
        ser.object_from_dict({**d, "order": 2.0})


def test_decode_errors_name_the_field():
    d = ser.frame_to_dict(etf_from_hadamard(build_walsh(2).base))
    with pytest.raises(ValidationError, match="'scale_sq'"):
        ser.object_from_dict({**d, "scale_sq": {"num": 1, "den": 0}})
    with pytest.raises(ValidationError, match="'degenerate'"):
        ser.object_from_dict({**d, "degenerate": "no"})
    with pytest.raises(ValidationError, match="'noise_std'"):
        ser.config_from_dict({"noise_std": "abc"})
    with pytest.raises(ValidationError, match="'k'"):
        ser.config_from_dict({"erasure": {"mode": "random", "k": "1"}})


@pytest.mark.parametrize("scale", ["1.0", "1e0", "1_0/10", "\u0661", "1/1.0", "0x1"])
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
        (fusion_module, "make_fusion_frame", ser.object_from_dict, "gff"),
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
        "gff": ser.fusion_frame_to_dict(build_gff(3, 1)),
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
        assert type(kind.from_dict(kind.to_dict(obj))) is kind.type
        assert type(ser.object_from_csv(ser.object_to_csv(obj))) is kind.type
        checks = kind.checks(obj)
        assert all(kind.passes(checks, level) for level in ("valid", "tight", "grassmannian"))
    with pytest.raises(ValidationError, match="not a matrix, frame or fusion frame"):
        ser.kind_of(ChannelConfig())
