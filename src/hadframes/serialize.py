"""Canonical JSON and CSV interchange for matrices, frames, and reports.

JSON is emitted with sorted keys and fixed separators so identical objects
serialize to identical bytes; rationals appear as {"num", "den"} pairs in
lowest terms with positive denominator.

CSV carries the raw integer matrix, one row per line, under one header
line ``# kind=<name> key=value ...``. Each key may appear once, and each
kind reads only its own keys (``Kind.csv_header``):

- ``sign_matrix`` and ``walsh_matrix``: ``scale_sq``, which may be omitted
  and must be 1;
- ``frame``: ``scale_sq``, 1 when omitted;
- ``fusion_frame``: ``scale_sq``, 1 when omitted, and ``subspace_dims``.

Every integer of an input is a JSON integer (RFC 8259), so a number means
the same in every format. Integer lists are read by one reader,
``_int_cells``: comma-separated JSON integers in the int64 range, with JSON
whitespace around them and nothing else (``_INT_CHARS``). It reads JSON
integer arrays, CSV bodies, a CSV header's ``subspace_dims`` and the
``--erase-fixed`` list. A single integer, a JSON field or a half of a CSV
header's ``scale_sq``, is read by ``loads`` at any size.
``loads`` is ``json.loads`` except that a JSON array of such integers comes
back as a 1-D int64 array. A CSV body's rows end at a line feed only; its
non-blank rows, joined by commas, are read as one such array's text, and a
body it refuses is refused by the first bad cell's row and column, both
counted from 1 over the non-blank body rows. The text is cut into slices at
commas and each slice's cells are parsed over the whole slice at once, so
no entry becomes a Python int or str on the way in. Every integer array
leaves the program through one writer: ``_int_text`` writes a JSON array
or a CSV body as decimal text, computed digit by digit over the whole
array, so the ``*_to_dict`` functions hand over flat numpy arrays and
``canonical_dumps`` writes them.

``KINDS`` is the one place where a kind's format is stated: JSON name and
fields, CSV header and matrix, certificate, and the verdict per --require
level. Decoding coerces nothing: a JSON integer is not a bool, float or
string, a CSV number is written as a JSON integer, and a size over
``max_order()`` is refused before any array is built. A parsing step turns
a malformed input into a ValidationError that names the field (or a
ResourceLimitError); the constructors it feeds raise their own errors.
"""

from __future__ import annotations

import dataclasses
import json
import json.decoder
import json.scanner
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import numpy as np

from . import frames, fusion, hadamard
from .channel import ChannelConfig, ErasureSpec, SimReport
from .errors import ResourceLimitError, ValidationError

# What malformed input can make a parsing step raise; each becomes a
# ValidationError. Constructors run outside these steps and raise their own.
_DECODE_ERRORS = (LookupError, TypeError, ValueError, ArithmeticError, AttributeError,
                  RecursionError)
_MISSING = object()


def _plain(value):
    """``value`` as ``json.loads`` would give it: ``loads`` hands a JSON array
    of integers over as an int64 array, which is the list of those ints."""
    return value.tolist() if type(value) is np.ndarray else value


def _json(*types: type) -> Callable[[Any], Any]:
    """Reader that accepts a value of exactly these types (a bool is no int)."""

    def read(value):
        if type(value) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise ValidationError(f"expected {names}, got {type(_plain(value)).__name__}")
        return value

    return read


_INT, _STR, _OBJECT = (_json(t) for t in (int, str, dict))


def _LIST(value) -> list:
    """A JSON array as a list."""
    return _json(list)(_plain(value))


def _float(value) -> float:
    return float(_json(int, float)(value))


def _field(d: dict, key: str, read: Callable, default=_MISSING):
    """``read(d[key])``, or ``default`` when the key is absent; a parsing
    failure becomes a ValidationError naming the field."""
    if key not in d:
        if default is _MISSING:
            raise ValidationError(f"missing field {key!r}")
        return default
    try:
        return read(d[key])
    except _DECODE_ERRORS as exc:
        raise ValidationError(f"field {key!r}: {exc}") from None


def _fields(d, readers: dict) -> dict:
    """The fields of the JSON object ``d`` that are present, each through its
    reader; a field with no reader is refused."""
    d = _OBJECT(d)
    unknown = [key for key in d if key not in readers]
    if unknown:
        raise ValidationError(f"unknown field {unknown[0]!r}")
    return {key: _field(d, key, read) for key, read in readers.items() if key in d}


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


def _int_array(flat) -> np.ndarray | list:
    """A flat JSON array of integers: the 1-D int64 array ``loads`` makes of
    it, a 1-D signed integer array from a dict built in Python (a sign
    matrix's int8 entries), or a list, from such a dict or an array
    ``loads`` left as a list because it is not all plain int64 integers."""
    if type(flat) is np.ndarray and flat.dtype.kind == "i" and flat.ndim == 1:
        return flat.astype(np.int64, copy=False)
    return _json(list)(flat)


def _int_matrix(flat, rows: int, cols: int) -> np.ndarray:
    """A flat JSON array of exactly rows * cols integers, as an int64 matrix."""
    flat = _int_array(flat)
    if len(flat) != rows * cols:
        raise ValidationError(f"expected {rows * cols} entries, got {len(flat)}")
    if type(flat) is list:
        # Element types, not the array's dtype: a bool/int mix reads as int64.
        if set(map(type, flat)) - {int}:
            raise ValidationError("entries must all be JSON integers")
        flat = np.asarray(flat, dtype=np.int64)
    return flat.reshape(rows, cols)


def fraction_to_pair(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator}


def pair_to_fraction(d) -> Fraction:
    if not isinstance(d, dict) or set(d) != {"num", "den"}:
        raise ValidationError(f"expected a {{num, den}} pair, got {_plain(d)!r}")
    return Fraction(_INT(d["num"]), _INT(d["den"]))


def _jsonable(value):
    """A dataclass as a dict of its JSON-ready fields, in declaration order."""
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Fraction):
        return fraction_to_pair(value)
    if isinstance(value, tuple):
        return list(value)
    return value


# (signed, unsigned) integer types of each width, narrowest first
_WIDTHS = ((np.int8, np.uint8), (np.int16, np.uint16), (np.int32, np.uint32), (np.int64, np.uint64))


def _int_text(a: np.ndarray, sep: str, end: str) -> str:
    """The 2-D integer array ``a`` (int64 or narrower) as decimal text:
    ``sep`` between the entries of a row and ``end`` after each row.

    Every entry gets a fixed-width field of sign, digits and separator in
    one byte buffer, with NUL bytes as padding that is stripped at the end.
    The digits come from repeated division by 10 over the whole array, in
    the narrowest signed type that holds its range; ``abs`` wraps that
    type's minimum onto itself, whose unsigned view is the exact magnitude.
    """
    rows, cols = a.shape
    if not a.size:
        return end * rows
    lo, hi = int(a.min()), int(a.max())
    signed, unsigned = next(
        (s, u) for s, u in _WIDTHS if np.iinfo(s).min <= lo <= hi <= np.iinfo(s).max)
    q = np.abs(a.astype(signed, copy=False)).view(unsigned)
    width, slot = len(str(max(-lo, hi))), max(len(sep), len(end))
    buf = np.zeros((rows, cols, 1 + width + slot), dtype=np.uint8)
    buf[..., 0] = (a < 0) * np.uint8(ord("-"))
    q, r = np.divmod(q, 10)
    buf[..., width] = r + ord("0")  # the units digit, written even for 0
    for j in range(width - 1, 0, -1):  # higher digits; padding once q runs out
        shown = q > 0
        q, r = np.divmod(q, 10)
        buf[..., j] = np.where(shown, r + ord("0"), 0)
    buf[:, :-1, 1 + width:] = np.frombuffer(sep.encode().ljust(slot, b"\0"), np.uint8)
    buf[:, -1, 1 + width:] = np.frombuffer(end.encode().ljust(slot, b"\0"), np.uint8)
    return buf.tobytes().replace(b"\0", b"").decode("ascii")


def _json_text(value) -> str:
    """``value`` as compact JSON with sorted keys, an integer array as a flat
    JSON array through ``_int_text``."""
    if isinstance(value, np.ndarray):
        return f"[{_int_text(value.reshape(1, -1), ',', '')}]"
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}:{_json_text(v)}" for k, v in sorted(value.items()))
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_json_text, value)) + "]"
    return json.dumps(value)


def canonical_dumps(payload: dict) -> str:
    """Deterministic, byte-stable JSON encoding: what ``json.dumps`` with
    sorted keys and compact separators gives for the payload with each
    array written as its list of entries."""
    return _json_text(payload) + "\n"


# ---------------------------------------------------------------------------
# JSON text -> values

# Text per slice of an integer array, cut at the next comma. A slice's index
# arrays take about 30 bytes per character: at 1 << 20 they lifted the peak
# RSS of exporting the order-2048 Walsh matrix from JSON above the list
# reader's, at 1 << 18 it sits 20 MiB below.
_SLICE_CHARS = 1 << 18
_INT_CHARS = b"-0123456789, \t\n\r"  # all that the text of integers may hold: JSON whitespace too
_INT_DIGITS = 19  # the most digits of an int64; 18 digits always fit
_COMMA, _MINUS, _ZERO = b",-0"


def _int_cells(chunk: bytes) -> np.ndarray | None:
    """The comma-separated cells of ``chunk`` as int64; None unless every
    byte is one of ``_INT_CHARS`` and every cell is a JSON integer in the
    int64 range with whitespace, if any, only around it.

    This is the one reader of integer lists in an input: JSON arrays, CSV
    bodies, a CSV header's ``subspace_dims`` and ``--erase-fixed`` all reach
    it through ``_int_array_text``.
    """
    if chunk.translate(None, _INT_CHARS):  # a byte that no integer text holds
        return None
    c = np.frombuffer(chunk, np.uint8)
    space = c <= ord(" ")  # every other byte is ',', '-' or a digit
    if space.any():
        kept = np.flatnonzero(~space)
        c = c[kept]
        inside = np.diff(kept) > 1  # whitespace between two kept bytes
        if (inside & (c[:-1] != _COMMA) & (c[1:] != _COMMA)).any():
            return None
    commas = np.flatnonzero(c == _COMMA)
    starts = np.concatenate(([0], commas + 1))
    ends = np.append(commas, len(c))
    if (ends == starts).any():  # an empty cell
        return None
    neg = c[starts] == _MINUS
    first = starts + neg
    digits = ends - first
    longest = int(digits.max())
    if (np.count_nonzero(c == _MINUS) > np.count_nonzero(neg)  # a '-' inside a cell
            or not 1 <= digits.min() <= longest <= _INT_DIGITS
            or longest > 1 and ((c[first] == _ZERO) & (digits > 1)).any()):
        return None
    # 19 digits can pass int64, so they are summed in uint64 and range-checked.
    dtype = np.uint64 if longest == _INT_DIGITS else np.int64
    value = (c[ends - 1] - _ZERO).astype(dtype)  # the units digit, which every cell has
    for place in range(1, longest):  # the digit worth 10**place, where a cell has one
        at = ends - 1 - place  # masked where before the cell, and never below -len(c)
        value += np.where(at >= first, c[at] - _ZERO, 0).astype(dtype) * dtype(10**place)
    if dtype is np.uint64 and (value > np.uint64(2**63 - 1) + neg).any():  # -2**63 may pass it
        return None
    # Negation wraps modulo 2**64, so a uint64 magnitude 2**63 views as -2**63.
    return np.negative(value, out=value, where=neg).view(np.int64)


def _int_array_text(s: str, start: int = 0, stop: int | None = None) -> np.ndarray | None:
    """``_int_cells`` of ``s[start:stop]``, parsed a slice of about
    ``_SLICE_CHARS`` at a time into one preallocated array. The array is
    sized and allocated only once the first slice has parsed, so text that
    the first slice refuses costs no more than that slice."""
    stop = len(s) if stop is None else stop
    out, done = None, 0
    while True:
        cut = s.find(",", min(start + _SLICE_CHARS, stop), stop)
        cut = stop if cut < 0 else cut
        # A character outside ASCII becomes '?', which _int_cells refuses.
        cells = _int_cells(s[start:cut].encode("ascii", "replace"))
        if cells is None:
            return None
        if out is None:  # the first slice's cells, then one per comma after it
            out = np.empty(len(cells) + s.count(",", cut, stop), np.int64)
        out[done:done + len(cells)] = cells
        done += len(cells)
        if cut == stop:
            return out
        start = cut + 1


def int_list(text: str) -> list[int]:
    """Comma-separated integers, each read as in a JSON array."""
    cells = _int_array_text(text)
    if cells is None:
        raise ValidationError(f"not comma-separated integers: {text!r}")
    return cells.tolist()


def _parse_array(s_and_end: tuple[str, int], scan_once):
    """The JSON array starting at ``s_and_end``: an int64 array if
    ``_int_cells`` reads all of the text up to the next ``]``, otherwise
    what ``json.loads`` makes of it."""
    s, start = s_and_end
    end = s.find("]", start)
    if end >= 0:
        cells = _int_array_text(s, start, end)
        if cells is not None:
            return cells, end + 1
    return json.decoder.JSONArray(s_and_end, scan_once)


def _ascii_number(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    # The pure-Python scanner's number pattern also matches non-ASCII digits,
    # which json.loads refuses.
    def read(text: str):
        if not text.isascii():
            raise ValueError(f"not a JSON number: {text!r}")
        return parse(text)

    return read


def loads(text: str):
    """``json.loads(text)``, except that each array of JSON integers in the
    int64 range is a 1-D int64 array instead of a list.

    Text the reader refuses goes to ``json.loads`` itself, so a malformed
    document raises exactly the error ``json.loads`` raises.
    """
    if not text.startswith("\ufeff"):
        decoder = json.JSONDecoder(parse_int=_ascii_number(int), parse_float=_ascii_number(float))
        decoder.parse_array = _parse_array
        decoder.scan_once = json.scanner.py_make_scanner(decoder)
        try:
            return decoder.decode(text)
        except (ValueError, RecursionError):
            pass
    return json.loads(text)


# ---------------------------------------------------------------------------
# objects -> dict


def sign_matrix_to_dict(m: hadamard.SignMatrix) -> dict:
    return {"kind": "sign_matrix", "order": m.order, "entries": m.entries.reshape(-1)}


def walsh_matrix_to_dict(w: hadamard.WalshMatrix) -> dict:
    return {**sign_matrix_to_dict(w), "kind": "walsh_matrix", "log_order": w.log_order}


def frame_to_dict(f: frames.ScaledFrame) -> dict:
    return {"kind": "frame", "ambient_dim": f.ambient_dim, "count": f.count,
            "raw": f.raw.reshape(-1), "scale_sq": fraction_to_pair(f.scale_sq)}


def _shared_scale(ff: fusion.FusionFrame) -> Fraction:
    scales = set(ff.scales)
    if len(scales) != 1:
        raise ValidationError("fusion frame schema needs a single scale_sq; subspace scales differ")
    return scales.pop()


def fusion_frame_to_dict(ff: fusion.FusionFrame) -> dict:
    return {
        "kind": "fusion_frame",
        "ambient_dim": ff.ambient_dim,
        "scale_sq": fraction_to_pair(_shared_scale(ff)),
        "subspaces": [b.reshape(-1) for b in np.split(ff.basis_raw, np.cumsum(ff.dims)[:-1], axis=1)],
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
    """A ChannelConfig from the fields given; absent ones keep the dataclass
    defaults, and a field the config or its erasure does not have is refused."""
    cfg = _fields(d, {"noise_std": _float, "trials": _INT, "seed": _INT, "mode": _STR,
                      "erasure": _OBJECT})
    if "erasure" in cfg:
        er = cfg["erasure"]
        readers = {"mode": _STR, "indices": lambda ids: tuple(map(_INT, _LIST(ids))), "k": _INT}
        cfg["erasure"] = ErasureSpec(**{"mode": _field(er, "mode", _STR), **_fields(er, readers)})
    return ChannelConfig(**cfg)


# ---------------------------------------------------------------------------
# dict / CSV -> objects, per kind


def _sign_entries(d: dict) -> np.ndarray:
    order = _size("order", _field(d, "order", _INT))
    return _field(d, "entries", lambda flat: _int_matrix(flat, order, order))


def _walsh_from_dict(d: dict) -> hadamard.WalshMatrix:
    w = hadamard.WalshMatrix(_sign_entries(d))
    log_order = _field(d, "log_order", _INT, w.log_order)
    if log_order != w.log_order:
        raise ValidationError(f"walsh matrix order {w.order} is not 2**{log_order}")
    return w


def _frame_from_dict(d: dict) -> frames.ScaledFrame:
    m, n = (_size(key, _field(d, key, _INT)) for key in ("ambient_dim", "count"))
    return frames.frame_from_integer_columns(
        _field(d, "raw", lambda flat: _int_matrix(flat, m, n)),
        _field(d, "scale_sq", pair_to_fraction),
    )


def _fusion_from_dict(d: dict) -> fusion.FusionFrame:
    m = _size("ambient_dim", _field(d, "ambient_dim", _INT))
    scale = _field(d, "scale_sq", pair_to_fraction)

    def bases(flats) -> list[np.ndarray]:
        flats = [_int_array(flat) for flat in _LIST(flats)]
        for i, flat in enumerate(flats):
            if len(flat) == 0 or len(flat) % m:
                raise ValidationError(f"subspace {i} has {len(flat)} entries,"
                                      f" not a positive multiple of ambient_dim {m}")
        dims = [len(flat) // m for flat in flats]
        _size("column count", sum(dims))
        return [_int_matrix(flat, m, dim) for flat, dim in zip(flats, dims)]

    blocks = _field(d, "subspaces", bases)
    return fusion.fusion_frame_from_columns(
        np.hstack(blocks), [b.shape[1] for b in blocks], [scale] * len(blocks)
    )


def _ratio_token(text: str) -> Fraction:
    """A CSV header rational, written ``num/den`` or ``num``: each side one
    JSON integer of any size, read by ``loads`` as a JSON ``scale_sq``
    pair's integers are."""
    return Fraction(*(_INT(loads(half)) for half in text.split("/", 1)))


def _unit_scale(text: str) -> Fraction:
    """A sign matrix's CSV ``scale_sq``: its entries are read as they stand."""
    scale = _ratio_token(text)
    if scale != 1:
        raise ValidationError(f"a sign matrix has scale_sq 1, got {scale}")
    return scale


def _fusion_from_csv(fields: dict, mat: np.ndarray) -> fusion.FusionFrame:
    dims = _field(fields, "subspace_dims", list)
    return fusion.fusion_frame_from_columns(mat, dims, [fields.get("scale_sq", 1)] * len(dims))


def _scale_token(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _fusion_csv(ff: fusion.FusionFrame) -> tuple[dict, np.ndarray]:
    dims = ",".join(map(str, ff.dims))
    return {"scale_sq": _scale_token(_shared_scale(ff)), "subspace_dims": dims}, ff.basis_raw


# ---------------------------------------------------------------------------
# the per-kind table


class Kind(NamedTuple):
    """How one kind of object is written, read back and certified."""

    name: str  # "kind" in JSON and in the CSV header
    type: type
    to_dict: Callable[[Any], dict]
    from_dict: Callable[[dict], Any]
    to_csv: Callable[[Any], tuple[dict, np.ndarray]]  # header fields after kind, matrix
    csv_header: dict[str, Callable[[str], Any]]  # header key after kind -> its reader
    from_csv: Callable[[dict, np.ndarray], Any]  # (header values read, matrix) -> object
    csv_sizes: tuple[str, str]  # what a CSV's row and column counts are
    checks: Callable[[Any], dict]  # the JSON-ready certificate
    passes: Callable[[dict, str], bool]  # (checks, --require level) -> verdict


def _all_ok(checks: dict, require: str) -> bool:  # a matrix, at every level
    return all(c["ok"] for c in checks.values())


def _frame_passes(checks: dict, require: str) -> bool:  # a frame or fusion frame
    # "valid" needs no check: construction already re-validated every invariant.
    return require == "valid" or checks[require]


# Rows reach public functions through module names at call time, so a
# function rebound there (by a monkeypatch or the benchmark's span tracer) is
# the one every caller reaches.
KINDS = (
    Kind(
        "sign_matrix", hadamard.SignMatrix,
        to_dict=lambda m: sign_matrix_to_dict(m),
        from_dict=lambda d: hadamard.sign_matrix(_sign_entries(d)),
        to_csv=lambda m: ({"scale_sq": "1/1"}, m.entries),
        csv_header={"scale_sq": _unit_scale},
        from_csv=lambda fields, mat: hadamard.sign_matrix(mat),
        csv_sizes=("order", "order"),
        checks=lambda m: {"hadamard": matrix_certificate_to_dict(hadamard.validate_hadamard(m))},
        passes=_all_ok,
    ),
    Kind(
        "walsh_matrix", hadamard.WalshMatrix,
        to_dict=lambda w: walsh_matrix_to_dict(w),
        from_dict=_walsh_from_dict,
        to_csv=lambda w: ({"scale_sq": "1/1"}, w.entries),
        csv_header={"scale_sq": _unit_scale},
        from_csv=lambda fields, mat: hadamard.WalshMatrix(mat),
        csv_sizes=("order", "order"),
        checks=lambda w: {
            "hadamard": matrix_certificate_to_dict(hadamard.validate_hadamard(w)),
            "walsh_order": matrix_certificate_to_dict(hadamard.validate_walsh_order(w)),
        },
        passes=_all_ok,
    ),
    Kind(
        "frame", frames.ScaledFrame,
        to_dict=lambda f: frame_to_dict(f),
        from_dict=_frame_from_dict,
        to_csv=lambda f: ({"scale_sq": _scale_token(f.scale_sq)}, f.raw),
        csv_header={"scale_sq": _ratio_token},
        from_csv=lambda fields, mat: frames.frame_from_integer_columns(
            mat, fields.get("scale_sq", 1)),
        csv_sizes=("ambient_dim", "count"),
        checks=lambda f: frame_certificate_to_dict(frames.grassmannian_certificate(f)),
        passes=_frame_passes,
    ),
    Kind(
        "fusion_frame", fusion.FusionFrame,
        to_dict=lambda ff: fusion_frame_to_dict(ff),
        from_dict=_fusion_from_dict,
        to_csv=_fusion_csv,
        csv_header={"scale_sq": _ratio_token,
                    "subspace_dims": int_list},
        from_csv=_fusion_from_csv,
        csv_sizes=("ambient_dim", "column count"),
        checks=lambda ff: fusion_certificate_to_dict(fusion.equidistance_certificate(ff)),
        passes=_frame_passes,
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
    return f"# {header}\n" + _int_text(mat, ",", "\n")


def _csv_body(rows: list[str]) -> np.ndarray:
    """The body rows as an int64 matrix, read as one JSON array's text. A
    row whose cell count is not the first row's, or a cell that is not an
    integer, is refused by its row and column, both counted from 1 over the
    non-blank body rows."""
    width = rows[0].count(",")
    for i, row in enumerate(rows, 1):
        if row.count(",") != width:
            raise ValidationError(f"CSV body is not an integer matrix: rows 1 and {i} have"
                                  f" {width + 1} and {row.count(',') + 1} cells")
    cells = _int_array_text(",".join(rows))
    if cells is None:  # the same reader, row by row and then cell by cell, finds the witness
        i, j, cell = next((i, j, cell) for i, row in enumerate(rows, 1) if _int_array_text(row) is None
                          for j, cell in enumerate(row.split(","), 1) if _int_array_text(cell) is None)
        raise ValidationError(f"CSV body is not an integer matrix: row {i}, column {j} holds {cell!r}")
    return cells.reshape(len(rows), width + 1)


def object_from_csv(text: str):
    """The object of a CSV text. Rows end at a line feed only, so the
    carriage return of a CRLF row is whitespace; a row of whitespace alone
    is blank and skipped."""
    head, *rows = text.lstrip().split("\n")
    tokens = [t.partition("=") for t in head[1:].split()]
    if not head.startswith("#") or not all(eq for _, eq, _ in tokens):
        raise ValidationError("CSV must start with a '# key=value ...' header line")
    fields: dict[str, str] = {}
    for key, _, value in tokens:
        if key in fields:
            raise ValidationError(f"CSV header repeats key {key!r}")
        fields[key] = value
    kind = _kind_named(fields.pop("kind", None))
    header = _fields(fields, kind.csv_header)
    rows = [row for row in rows if row.strip()]
    _size(kind.csv_sizes[0], len(rows))
    _size(kind.csv_sizes[1], rows[0].count(",") + 1)
    return kind.from_csv(header, _csv_body(rows))


# ---------------------------------------------------------------------------
# text rendering


def report_to_text(r: SimReport) -> str:
    return (
        f"trials            {r.trials_run}\n"
        f"mean_mse          {r.mean_mse:.6e}\n"
        f"mean_mse_stderr   {r.mean_mse_stderr:.6e}\n"
        f"max_mse           {r.max_mse:.6e}\n"
        f"exact_recoveries  {r.exact_recovery_count}\n"
        f"non_recoverable   {r.non_recoverable_count}\n"
        f"survivor_sets     {r.survivor_sets}\n"
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
