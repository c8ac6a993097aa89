"""Command-line interface: generate, verify, export, and simulate.

Exit codes: 0 when every requested certificate passes, 1 when a
certificate fails, 2 for anything malformed or out of bounds: a bad flag,
an input file that is missing, not UTF-8, or not a well-formed object, a
bad ``--config`` file, a bad HADFRAMES_MAX_ORDER, a size over that cap, or
a size under it that still needs more memory than the process can get.
Exit 2 comes with a one-line ``error:`` diagnostic naming what was wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import channel, frames, fusion, hadamard, serialize
from .errors import ResourceLimitError, ValidationError


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return serialize.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _load_object(path: str):
    if Path(path).suffix.lower() == ".csv":
        return serialize.object_from_csv(_read_text(path))
    return serialize.object_from_dict(_read_json(path))


def _checks_for(obj) -> dict:
    """Applicable certificates for a loaded object, as JSON-ready dicts."""
    return serialize.kind_of(obj).checks(obj)


def _checks_to_text(checks: dict) -> str:
    def flat(prefix: str, d: dict) -> list[str]:
        out = []
        for key, val in d.items():
            if isinstance(val, dict) and set(val) == {"num", "den"}:
                out.append(f"{prefix}{key} = {val['num']}/{val['den']}")
            elif isinstance(val, dict):
                out.extend(flat(f"{prefix}{key}.", val))
            else:
                out.append(f"{prefix}{key} = {val}")
        return out

    return "\n".join(flat("", checks)) + "\n"


def _emit_object(obj, checks: dict, fmt: str, output: str | None) -> None:
    if fmt == "csv":
        _emit(serialize.object_to_csv(obj), output)
        return
    payload = {**serialize.kind_of(obj).to_dict(obj), "certificate": checks}
    if fmt == "text":
        _emit(f"kind = {payload['kind']}\n" + _checks_to_text(checks), output)
    else:
        _emit(serialize.canonical_dumps(payload), output)


def _emit_certified(obj, args) -> int:
    """Emit a generated object with its certificate; exit 1 unless it is Grassmannian."""
    checks = _checks_for(obj)
    _emit_object(obj, checks, args.format, args.output)
    return 0 if serialize.kind_of(obj).passes(checks, "grassmannian") else 1


def _cmd_gen_matrix(args) -> int:
    return _emit_certified(args.build(args.k), args)


def _cmd_gen_etf(args) -> int:
    if (args.order is None) == (args.input is None):
        raise ValidationError("gen-etf needs exactly one of --order or --input")
    if args.order is not None:
        n = args.order
        if n < 2 or n & (n - 1):
            raise ValidationError(
                f"--order {n} is not a power of two >= 2; supply a Hadamard "
                "matrix of that order via --input instead"
            )
        h = hadamard.build_walsh(n.bit_length() - 1)
    else:
        h = _load_object(args.input)
        if not isinstance(h, hadamard.SignMatrix):  # a WalshMatrix is one too
            raise ValidationError("--input must contain a sign matrix")
    return _emit_certified(frames.etf_from_hadamard(hadamard.normalize_first_row(h)), args)


def _cmd_gen_gff(args) -> int:
    return _emit_certified(fusion.build_gff(args.n, args.m), args)


def _cmd_verify(args) -> int:
    obj = _load_object(args.input)
    checks = _checks_for(obj)
    ok = serialize.kind_of(obj).passes(checks, args.require)
    payload = {"kind": type(obj).__name__, "checks": checks, "pass": ok}
    if args.format == "json":
        _emit(serialize.canonical_dumps(payload), args.output)
    else:
        _emit(_checks_to_text(checks) + f"verdict = {'PASS' if ok else 'FAIL'}\n", args.output)
    return 0 if ok else 1


def _channel_config(args) -> channel.ChannelConfig:
    """The --config file's settings (or the defaults), overridden by the flags given."""
    cfg = serialize.config_from_dict(_read_json(args.config) if args.config else {})
    flags = {key: getattr(args, key) for key in ("noise_std", "trials", "seed", "mode")}
    if args.erase_fixed is not None:
        flags["erasure"] = channel.ErasureSpec.fixed(args.erase_fixed)
    if args.erase_random is not None:
        flags["erasure"] = channel.ErasureSpec.random_k(args.erase_random)
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _cmd_simulate(args) -> int:
    cfg = _channel_config(args)
    report = channel.simulate(_load_object(args.input), cfg)
    if args.format == "json":
        _emit(serialize.canonical_dumps(serialize.report_to_dict(report)), args.output)
    else:
        _emit(serialize.report_to_text(report), args.output)
    return 0


def _cmd_compare(args) -> int:
    cfg = _channel_config(args)
    names = args.names.split(",") if args.names else [Path(p).stem for p in args.inputs]
    if len(names) != len(args.inputs):
        raise ValidationError("--names must list one name per input")
    candidates = [(name, _load_object(path)) for name, path in zip(names, args.inputs)]
    rows = channel.compare(candidates, cfg)
    if args.format == "json":
        _emit(serialize.canonical_dumps(serialize.compare_to_dict(rows)), args.output)
    else:
        _emit(serialize.compare_to_text(rows), args.output)
    return 0


def _cmd_export(args) -> int:
    obj = _load_object(args.input)
    # CSV carries no certificate, so none is computed for it.
    checks = {} if args.format == "csv" else _checks_for(obj)
    _emit_object(obj, checks, args.format, args.output)
    return 0


def _add_format(p: argparse.ArgumentParser, default: str, choices=("json", "csv", "text")) -> None:
    p.add_argument("--format", choices=list(choices), default=default)
    p.add_argument("--output", help="write to this path instead of stdout")


def _index_list(text: str) -> tuple[int, ...]:
    """``--erase-fixed``: integers as every input writes them (``serialize.int_list``)."""
    try:
        return tuple(serialize.int_list(text))
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with channel settings")
    p.add_argument("--noise-std", type=float, default=None, dest="noise_std")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=["lstsq", "naive"], default=None)
    erase = p.add_mutually_exclusive_group()
    erase.add_argument(
        "--erase-fixed", type=_index_list, default=None, dest="erase_fixed",
        help="comma-separated indices to erase every trial",
    )
    erase.add_argument(
        "--erase-random", type=int, default=None, dest="erase_random",
        help="erase this many uniformly random units per trial",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadframes",
        description="Hadamard-based tight frames and fusion frames with exact certificates",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> argparse.ArgumentParser:
        # every option is spelled in full: a prefix could pass for another option
        return sub.add_parser(name, help=text, allow_abbrev=False)

    for name, build, text in (
        ("gen-hadamard", hadamard.build_sylvester,
         "order-2^k Hadamard matrix (doubling construction)"),
        ("gen-walsh", hadamard.build_walsh, "sequency-ordered Hadamard matrix of order 2^k"),
    ):
        p = command(name, text)
        p.add_argument("--k", type=int, required=True)
        _add_format(p, "json")
        p.set_defaults(handler=_cmd_gen_matrix, build=build)

    p = command("gen-etf", "equiangular tight frame from a Hadamard matrix")
    p.add_argument("--order", type=int, help="power-of-two order (built internally)")
    p.add_argument("--input", help="JSON/CSV file with a Hadamard matrix of any valid order")
    _add_format(p, "json")
    p.set_defaults(handler=_cmd_gen_etf)

    p = command("gen-gff", "equi-distance tight fusion frame from W_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_format(p, "json")
    p.set_defaults(handler=_cmd_gen_gff)

    p = command("verify", "re-run certificates on an imported object")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--require", choices=["valid", "tight", "grassmannian"], default="tight",
        help="pass criterion for frames and fusion frames (default: tight)",
    )
    _add_format(p, "text", choices=("json", "text"))
    p.set_defaults(handler=_cmd_verify)

    p = command("simulate", "noise/erasure Monte-Carlo on a frame or fusion frame")
    p.add_argument("--input", required=True)
    _add_channel_flags(p)
    _add_format(p, "text", choices=("json", "text"))
    p.set_defaults(handler=_cmd_simulate)

    p = command("compare", "simulate several candidates with a shared seed schedule")
    p.add_argument("--inputs", nargs="+", action="extend", required=True,
                   help="object files; a repeated --inputs adds to the list")
    p.add_argument("--names", help="comma-separated names, one per input")
    _add_channel_flags(p)
    _add_format(p, "text", choices=("json", "text"))
    p.set_defaults(handler=_cmd_compare)

    p = command("export", "convert an object between JSON and CSV")
    p.add_argument("--input", required=True)
    _add_format(p, "json", choices=("json", "csv"))
    p.set_defaults(handler=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's allocation failures carry their size
        print(f"error: memory ran out{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
