"""Canonical JSON and CSV interchange for matrices, frames, and reports.

JSON is emitted with sorted keys and fixed separators so identical objects
serialize to identical bytes; rationals appear as {"num", "den"} pairs in
lowest terms with positive denominator. CSV carries only the raw integer
matrix plus one header line with the scale (and subspace dimensions for
fusion frames); flags that cannot ride along in CSV are JSON-only.

``KINDS`` is the one place where a kind's format is stated: JSON name and
fields, CSV header and matrix, certificate, and the verdict per --require
level. Decoding coerces nothing: a JSON integer is not a bool, float or
string, a CSV number is ASCII digits and a sign, and a size over
``max_order()`` is refused before any array is built. A parsing step turns
a malformed input into a ValidationError that names the field (or a
ResourceLimitError); the constructors it feeds raise their own errors.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import numpy as np

from . import frames, fusion, hadamard
from .channel import ChannelConfig, ErasureSpec, SimReport
from .errors import ResourceLimitError, ValidationError

# What malformed input can make a parsing step raise; each becomes a
# ValidationError. Constructors run outside these steps and raise their own.
_DECODE_ERRORS = (LookupError, TypeError, ValueError, ArithmeticError, AttributeError)
_MISSING = object()


@contextmanager
def _blame(what: str):
    """Re-raise a parsing failure inside the block as a ValidationError naming ``what``."""
    try:
        yield
    except _DECODE_ERRORS as exc:
        raise ValidationError(f"{what}: {exc}") from None


def _json(*types: type) -> Callable[[Any], Any]:
    """Reader that accepts a value of exactly these types (a bool is no int)."""

    def read(value):
        if type(value) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise ValidationError(f"expected {names}, got {type(value).__name__}")
        return value

    return read


_INT, _BOOL, _STR, _LIST, _OBJECT = (_json(t) for t in (int, bool, str, list, dict))


def _float(value) -> float:
    return float(_json(int, float)(value))


def _field(d: dict, key: str, read: Callable, default=_MISSING):
    """``read(d[key])``, or ``default`` when the key is absent."""
    if key not in d:
        if default is _MISSING:
            raise ValidationError(f"missing field {key!r}")
        return default
    with _blame(f"field {key!r}"):
        return read(d[key])


def _fields(d, readers: dict) -> dict:
    """The fields of the JSON object ``d`` that are present, each through its reader."""
    d = _OBJECT(d)
    return {key: _field(d, key, read) for key, read in readers.items() if key in d}


def _int_token(text: str) -> int:
    """A CSV header integer: an optional minus sign and ASCII digits, nothing else."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValidationError(f"not an integer: {text!r}")
    return int(text)


def _ratio_token(text: str) -> Fraction:
    """A CSV header rational, written ``num/den`` or ``num``."""
    num, slash, den = text.partition("/")
    return Fraction(_int_token(num), _int_token(den) if slash else 1)


def _size(name: str, n: int) -> int:
    """``n`` as a dimension: at least 1 and at most ``max_order()``."""
    if n < 1:
        raise ValidationError(f"{name} must be >= 1, got {n}")
    cap = hadamard.max_order()
    if n > cap:
        raise ResourceLimitError(
            f"{name} {n} exceeds the configured cap {cap} ({hadamard.MAX_ORDER_ENV})"
        )
    return n


def _int_matrix(flat, rows: int, cols: int) -> np.ndarray:
    """A flat JSON array of exactly rows * cols integers, as an int64 matrix."""
    if len(_LIST(flat)) != rows * cols:
        raise ValidationError(f"expected {rows * cols} entries, got {len(flat)}")
    # Element types, not the array's dtype: a bool/int mix reads as int64.
    if set(map(type, flat)) - {int}:
        raise ValidationError("entries must all be JSON integers")
    return np.asarray(flat, dtype=np.int64).reshape(rows, cols)


def fraction_to_pair(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator}


def pair_to_fraction(d) -> Fraction:
    if not isinstance(d, dict) or set(d) != {"num", "den"}:
        raise ValidationError(f"expected a {{num, den}} pair, got {d!r}")
    return Fraction(_INT(d["num"]), _INT(d["den"]))


def _jsonable(value):
    """A dataclass as a dict of its JSON-ready fields, in declaration order."""
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Fraction):
        return fraction_to_pair(value)
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, np.ndarray):
        return value.reshape(-1).tolist()
    return value


def canonical_dumps(payload: dict) -> str:
    """Deterministic, byte-stable JSON encoding."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# objects -> dict


def sign_matrix_to_dict(m: hadamard.SignMatrix) -> dict:
    return {"kind": "sign_matrix", "order": m.order, "entries": m.entries.reshape(-1).tolist()}


def walsh_matrix_to_dict(w: hadamard.WalshMatrix) -> dict:
    return {**sign_matrix_to_dict(w.base), "kind": "walsh_matrix", "log_order": w.log_order}


def frame_to_dict(f: frames.ScaledFrame) -> dict:
    return {"kind": "frame", **_jsonable(f)}


def _shared_scale(ff: fusion.FusionFrame) -> Fraction:
    scales = {s.scale_sq for s in ff.subspaces}
    if len(scales) != 1:
        raise ValidationError("fusion frame schema needs a single scale_sq; subspace scales differ")
    return scales.pop()


def fusion_frame_to_dict(ff: fusion.FusionFrame) -> dict:
    return {
        "kind": "fusion_frame",
        "ambient_dim": ff.ambient_dim,
        "scale_sq": fraction_to_pair(_shared_scale(ff)),
        "subspaces": [s.basis_raw.reshape(-1).tolist() for s in ff.subspaces],
        "constructed_grassmannian": ff.constructed_grassmannian,
        "degenerate": ff.degenerate,
    }


def matrix_certificate_to_dict(c: hadamard.MatrixCertificate) -> dict:
    return _jsonable(c)


def frame_certificate_to_dict(c: frames.FrameCertificate) -> dict:
    return _jsonable(c)


def fusion_certificate_to_dict(c: fusion.FusionCertificate) -> dict:
    return _jsonable(c)


def config_to_dict(cfg: ChannelConfig) -> dict:
    return _jsonable(cfg)


def report_to_dict(r: SimReport) -> dict:
    return _jsonable(r)


def config_from_dict(d) -> ChannelConfig:
    """A ChannelConfig from the fields given; absent ones keep the dataclass defaults."""
    cfg = _fields(d, {
        "noise_std": _float, "exact_threshold": _float, "trials": _INT, "seed": _INT,
        "mode": _STR, "erasure": _OBJECT,
    })
    if "erasure" in cfg:
        er = cfg["erasure"]
        readers = {"indices": lambda ids: tuple(map(_INT, _LIST(ids))), "k": _INT}
        cfg["erasure"] = ErasureSpec(_field(er, "mode", _STR), **_fields(er, readers))
    return ChannelConfig(**cfg)


# ---------------------------------------------------------------------------
# dict / CSV -> objects, per kind


def _sign_from_dict(d: dict) -> hadamard.SignMatrix:
    order = _size("order", _field(d, "order", _INT))
    return hadamard.sign_matrix(_field(d, "entries", lambda flat: _int_matrix(flat, order, order)))


def _walsh(m: hadamard.SignMatrix, log_order: int | None) -> hadamard.WalshMatrix:
    k = m.order.bit_length() - 1
    want = k if log_order is None else log_order
    if m.order & (m.order - 1) or want != k:
        raise ValidationError(f"walsh matrix order {m.order} is not 2**{want}")
    return hadamard.WalshMatrix(log_order=k, base=m)


def _frame_from_dict(d: dict) -> frames.ScaledFrame:
    m, n = (_size(key, _field(d, key, _INT)) for key in ("ambient_dim", "count"))
    return frames.frame_from_integer_columns(
        _field(d, "raw", lambda flat: _int_matrix(flat, m, n)),
        _field(d, "scale_sq", pair_to_fraction),
        degenerate=_field(d, "degenerate", _BOOL, False),
    )


def _fusion_from_dict(d: dict) -> fusion.FusionFrame:
    m = _size("ambient_dim", _field(d, "ambient_dim", _INT))
    scale = _field(d, "scale_sq", pair_to_fraction)

    def bases(flats) -> list[np.ndarray]:
        return [_int_matrix(flat, m, len(_LIST(flat)) // m) for flat in _LIST(flats)]

    return fusion.make_fusion_frame(
        [fusion.subspace_from_columns(b, scale) for b in _field(d, "subspaces", bases)],
        constructed_grassmannian=_field(d, "constructed_grassmannian", _BOOL, False),
        degenerate=_field(d, "degenerate", _BOOL, False),
    )


def _fusion_from_csv(fields: dict, mat: np.ndarray) -> fusion.FusionFrame:
    scale = _field(fields, "scale_sq", _ratio_token, Fraction(1))
    dims = _field(fields, "subspace_dims", lambda text: [_int_token(x) for x in text.split(",")])
    if min(dims) < 1 or sum(dims) != mat.shape[1]:
        raise ValidationError("subspace_dims must be positive and add up to the column count")
    blocks = np.split(mat, np.cumsum(dims)[:-1], axis=1)
    return fusion.make_fusion_frame([fusion.subspace_from_columns(b, scale) for b in blocks])


def _scale_token(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _fusion_csv(ff: fusion.FusionFrame) -> tuple[dict, np.ndarray]:
    dims = ",".join(str(s.dim) for s in ff.subspaces)
    fields = {"scale_sq": _scale_token(_shared_scale(ff)), "subspace_dims": dims}
    return fields, np.hstack([s.basis_raw for s in ff.subspaces])


# ---------------------------------------------------------------------------
# the per-kind table


class Kind(NamedTuple):
    """How one kind of object is written, read back and certified."""

    name: str  # "kind" in JSON and in the CSV header
    type: type
    to_dict: Callable[[Any], dict]
    from_dict: Callable[[dict], Any]
    to_csv: Callable[[Any], tuple[dict, np.ndarray]]  # header fields after kind, matrix
    from_csv: Callable[[dict, np.ndarray], Any]
    csv_sizes: tuple[str, str | None]  # what a CSV's row and column counts are; None: no cap
    checks: Callable[[Any], dict]  # the JSON-ready certificate
    passes: Callable[[dict, str], bool]  # (checks, --require level) -> verdict


def _all_ok(checks: dict, require: str) -> bool:  # a matrix, at every level
    return all(c["ok"] for c in checks.values())


def _frame_passes(*grassmannian: str) -> Callable[[dict, str], bool]:
    # "valid" needs no check: construction already re-validated every invariant.
    needs = {"valid": (), "tight": ("tight",), "grassmannian": ("tight", *grassmannian)}
    return lambda checks, require: all(checks[k] for k in needs[require])

# Rows reach public functions through module names at call time, so a
# function rebound there (by a monkeypatch or the benchmark's span tracer) is
# the one every caller reaches.
KINDS = (
    Kind(
        "sign_matrix", hadamard.SignMatrix,
        to_dict=lambda m: sign_matrix_to_dict(m),
        from_dict=_sign_from_dict,
        to_csv=lambda m: ({"scale_sq": "1/1"}, m.entries),
        from_csv=lambda fields, mat: hadamard.sign_matrix(mat),
        csv_sizes=("order", "order"),
        checks=lambda m: {"hadamard": matrix_certificate_to_dict(hadamard.validate_hadamard(m))},
        passes=_all_ok,
    ),
    Kind(
        "walsh_matrix", hadamard.WalshMatrix,
        to_dict=lambda w: walsh_matrix_to_dict(w),
        from_dict=lambda d: _walsh(_sign_from_dict(d), _field(d, "log_order", _INT, None)),
        to_csv=lambda w: ({"scale_sq": "1/1"}, w.base.entries),
        from_csv=lambda fields, mat: _walsh(hadamard.sign_matrix(mat), None),
        csv_sizes=("order", "order"),
        checks=lambda w: {
            "hadamard": matrix_certificate_to_dict(hadamard.validate_hadamard(w.base)),
            "walsh_order": matrix_certificate_to_dict(hadamard.validate_walsh_order(w)),
        },
        passes=_all_ok,
    ),
    Kind(
        "frame", frames.ScaledFrame,
        to_dict=lambda f: frame_to_dict(f),
        from_dict=_frame_from_dict,
        to_csv=lambda f: ({"scale_sq": _scale_token(f.scale_sq)}, f.raw),
        from_csv=lambda fields, mat: frames.frame_from_integer_columns(
            mat, _field(fields, "scale_sq", _ratio_token, Fraction(1))
        ),
        csv_sizes=("ambient_dim", "count"),
        checks=lambda f: frame_certificate_to_dict(frames.grassmannian_certificate(f)),
        passes=_frame_passes("equiangular", "welch_equality"),
    ),
    Kind(
        "fusion_frame", fusion.FusionFrame,
        to_dict=lambda ff: fusion_frame_to_dict(ff),
        from_dict=_fusion_from_dict,
        to_csv=_fusion_csv,
        from_csv=_fusion_from_csv,
        csv_sizes=("ambient_dim", None),
        checks=lambda ff: fusion_certificate_to_dict(fusion.equidistance_certificate(ff)),
        passes=_frame_passes("equal_dim", "equi_distance"),
    ),
)
_BY_TYPE = {k.type: k for k in KINDS}
_BY_NAME = {k.name: k for k in KINDS}


def kind_of(obj) -> Kind:
    """The table row for ``obj``'s type."""
    kind = _BY_TYPE.get(type(obj))
    if kind is None:
        raise ValidationError(f"{type(obj).__name__} is not a matrix, frame or fusion frame")
    return kind


def _kind_named(name) -> Kind:
    kind = _BY_NAME.get(name)
    if kind is None:
        raise ValidationError(f"unknown object kind {name!r}")
    return kind


def object_from_dict(d):
    """Rebuild a SignMatrix, WalshMatrix, ScaledFrame, or FusionFrame.

    Constructors re-run all structural validation, so a dict that decodes
    successfully always yields an internally consistent object.
    """
    d = _OBJECT(d)
    return _kind_named(_field(d, "kind", _STR)).from_dict(d)


# ---------------------------------------------------------------------------
# CSV


def object_to_csv(obj) -> str:
    """Raw integer matrix rows under a single metadata header line."""
    kind = kind_of(obj)
    fields, mat = kind.to_csv(obj)
    header = " ".join(f"{k}={v}" for k, v in {"kind": kind.name, **fields}.items())
    rows = "\n".join(",".join(map(str, row)) for row in mat.tolist())
    return f"# {header}\n{rows}\n"


def _csv_body(lines: list[str]) -> np.ndarray:
    """The body rows as an int64 matrix; a cell that is not an integer is refused."""
    # An integer body is ASCII. numpy 2.4's loadtxt can also crash the
    # interpreter on lines holding characters beyond U+FFFF.
    if not all(map(str.isascii, lines)):
        raise ValidationError("CSV body is not an integer matrix: it holds non-ASCII text")
    with _blame("CSV body is not an integer matrix"), warnings.catch_warnings():
        # numpy releases that still read an int64 cell such as "1.5" through
        # float only warn before they truncate it; as an error, loadtxt
        # reports the cell in a ValueError.
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=np.int64, delimiter=",", ndmin=2, comments=None)


def object_from_csv(text: str):
    head, _, body = text.lstrip().partition("\n")
    tokens = [t.partition("=") for t in head[1:].split()]
    if not head.startswith("#") or not all(eq for _, eq, _ in tokens):
        raise ValidationError("CSV must start with a '# key=value ...' header line")
    fields = {key: value for key, _, value in tokens}
    kind = _kind_named(fields.get("kind"))
    lines = [ln for ln in body.splitlines() if ln.strip()]
    rows, cols = kind.csv_sizes
    _size(rows, len(lines))
    if cols is not None:
        _size(cols, lines[0].count(",") + 1)
    return kind.from_csv(fields, _csv_body(lines))


# ---------------------------------------------------------------------------
# text rendering


def report_to_text(r: SimReport) -> str:
    return (
        f"trials            {r.trials_run}\n"
        f"mean_mse          {r.mean_mse:.6e}\n"
        f"max_mse           {r.max_mse:.6e}\n"
        f"exact_recoveries  {r.exact_recovery_count}\n"
        f"non_recoverable   {r.non_recoverable_count}\n"
    )


def compare_to_text(rows: list[tuple[str, SimReport]]) -> str:
    width = max(len(name) for name, _ in rows)
    head = f"{'name'.ljust(width)}  {'mean_mse':>12}  {'max_mse':>12}  {'exact':>7}  {'nonrec':>6}\n"
    body = "".join(
        f"{name.ljust(width)}  {r.mean_mse:12.6e}  {r.max_mse:12.6e}"
        f"  {r.exact_recovery_count:7d}  {r.non_recoverable_count:6d}\n"
        for name, r in rows
    )
    return head + body


def compare_to_dict(rows: list[tuple[str, SimReport]]) -> dict:
    return {"rows": [{"name": name, "report": report_to_dict(r)} for name, r in rows]}
