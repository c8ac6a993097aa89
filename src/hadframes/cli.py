"""Command-line interface: generate, verify, export, and simulate.

Exit codes: 0 when every requested certificate passes, 1 when a
certificate fails, 2 for invalid input or arguments (with a diagnostic
naming the violated precondition).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import channel, frames, fusion, hadamard, serialize
from .errors import ResourceLimitError, ValidationError


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_object(path: str):
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {path}")
    if p.suffix.lower() == ".csv":
        return serialize.object_from_csv(p.read_text())
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return serialize.object_from_dict(payload)


def _checks_for(obj) -> dict:
    """Applicable certificates for a loaded object, as JSON-ready dicts."""
    if isinstance(obj, hadamard.WalshMatrix):
        return {
            "hadamard": serialize.matrix_certificate_to_dict(
                hadamard.validate_hadamard(obj.base)
            ),
            "walsh_order": serialize.matrix_certificate_to_dict(
                hadamard.validate_walsh_order(obj)
            ),
        }
    if isinstance(obj, hadamard.SignMatrix):
        return {
            "hadamard": serialize.matrix_certificate_to_dict(
                hadamard.validate_hadamard(obj)
            )
        }
    if isinstance(obj, frames.ScaledFrame):
        return serialize.frame_certificate_to_dict(frames.grassmannian_certificate(obj))
    if isinstance(obj, fusion.FusionFrame):
        return serialize.fusion_certificate_to_dict(fusion.equidistance_certificate(obj))
    raise ValidationError(f"no certificates defined for {type(obj).__name__}")


def _verify_pass(obj, checks: dict, require: str) -> bool:
    if isinstance(obj, (hadamard.SignMatrix, hadamard.WalshMatrix)):
        return all(c["ok"] for c in checks.values())
    if require == "valid":
        return True  # construction already re-validated all invariants
    if isinstance(obj, frames.ScaledFrame):
        if require == "tight":
            return checks["tight"]
        return checks["tight"] and checks["equiangular"] and checks["welch_equality"]
    if require == "tight":
        return checks["tight"]
    return checks["tight"] and checks["equal_dim"] and checks["equi_distance"]


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
    if isinstance(obj, hadamard.WalshMatrix):
        payload = serialize.walsh_matrix_to_dict(obj)
    elif isinstance(obj, hadamard.SignMatrix):
        payload = serialize.sign_matrix_to_dict(obj)
    elif isinstance(obj, frames.ScaledFrame):
        payload = serialize.frame_to_dict(obj)
    else:
        payload = serialize.fusion_frame_to_dict(obj)
    payload["certificate"] = checks
    if fmt == "text":
        _emit(f"kind = {payload['kind']}\n" + _checks_to_text(checks), output)
    else:
        _emit(serialize.canonical_dumps(payload), output)


def _cmd_gen_hadamard(args) -> int:
    m = hadamard.build_sylvester(args.k)
    _emit_object(m, _checks_for(m), args.format, args.output)
    return 0


def _cmd_gen_walsh(args) -> int:
    w = hadamard.build_walsh(args.k)
    _emit_object(w, _checks_for(w), args.format, args.output)
    return 0


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
        base = hadamard.build_walsh(n.bit_length() - 1).base
    else:
        obj = _load_object(args.input)
        base = obj.base if isinstance(obj, hadamard.WalshMatrix) else obj
        if not isinstance(base, hadamard.SignMatrix):
            raise ValidationError("--input must contain a sign matrix")
    f = frames.etf_from_hadamard(hadamard.normalize_first_row(base))
    checks = _checks_for(f)
    _emit_object(f, checks, args.format, args.output)
    return 0 if _verify_pass(f, checks, "grassmannian") else 1


def _cmd_gen_gff(args) -> int:
    ff = fusion.build_gff(args.n, args.m)
    checks = _checks_for(ff)
    _emit_object(ff, checks, args.format, args.output)
    return 0 if _verify_pass(ff, checks, "grassmannian") else 1


def _cmd_verify(args) -> int:
    obj = _load_object(args.input)
    checks = _checks_for(obj)
    ok = _verify_pass(obj, checks, args.require)
    payload = {"kind": type(obj).__name__, "checks": checks, "pass": ok}
    if args.format == "json":
        _emit(serialize.canonical_dumps(payload), args.output)
    else:
        verdict = "PASS" if ok else "FAIL"
        _emit(_checks_to_text(checks) + f"verdict = {verdict}\n", args.output)
    return 0 if ok else 1


def _channel_config(args) -> channel.ChannelConfig:
    if args.config:
        cfg = serialize.config_from_dict(json.loads(Path(args.config).read_text()))
    else:
        cfg = channel.ChannelConfig()
    erasure = cfg.erasure
    if args.erase_fixed is not None:
        ids = [int(t) for t in args.erase_fixed.split(",") if t.strip() != ""]
        erasure = channel.ErasureSpec.fixed(ids)
    if args.erase_random is not None:
        erasure = channel.ErasureSpec.random_k(args.erase_random)
    return channel.ChannelConfig(
        noise_std=cfg.noise_std if args.noise_std is None else args.noise_std,
        erasure=erasure,
        trials=cfg.trials if args.trials is None else args.trials,
        seed=cfg.seed if args.seed is None else args.seed,
        mode=cfg.mode if args.mode is None else args.mode,
        exact_threshold=cfg.exact_threshold,
    )


def _simulate_object(obj, cfg: channel.ChannelConfig) -> channel.SimReport:
    if isinstance(obj, frames.ScaledFrame):
        return channel.simulate_frame(obj, cfg)
    if isinstance(obj, fusion.FusionFrame):
        return channel.simulate_fusion(obj, cfg)
    raise ValidationError("simulate needs a frame or fusion frame input")


def _cmd_simulate(args) -> int:
    cfg = _channel_config(args)
    report = _simulate_object(_load_object(args.input), cfg)
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


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with channel settings")
    p.add_argument("--noise-std", type=float, default=None, dest="noise_std")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=["lstsq", "naive"], default=None)
    p.add_argument(
        "--erase-fixed", default=None, dest="erase_fixed",
        help="comma-separated indices to erase every trial",
    )
    p.add_argument(
        "--erase-random", type=int, default=None, dest="erase_random",
        help="erase this many uniformly random units per trial",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadframes",
        description="Hadamard-based tight frames and fusion frames with exact certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-hadamard", help="order-2^k Hadamard matrix (doubling construction)")
    p.add_argument("--k", type=int, required=True)
    _add_format(p, "json")
    p.set_defaults(handler=_cmd_gen_hadamard)

    p = sub.add_parser("gen-walsh", help="sequency-ordered Hadamard matrix of order 2^k")
    p.add_argument("--k", type=int, required=True)
    _add_format(p, "json")
    p.set_defaults(handler=_cmd_gen_walsh)

    p = sub.add_parser("gen-etf", help="equiangular tight frame from a Hadamard matrix")
    p.add_argument("--order", type=int, help="power-of-two order (built internally)")
    p.add_argument("--input", help="JSON/CSV file with a Hadamard matrix of any valid order")
    _add_format(p, "json")
    p.set_defaults(handler=_cmd_gen_etf)

    p = sub.add_parser("gen-gff", help="equi-distance tight fusion frame from W_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_format(p, "json")
    p.set_defaults(handler=_cmd_gen_gff)

    p = sub.add_parser("verify", help="re-run certificates on an imported object")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--require", choices=["valid", "tight", "grassmannian"], default="tight",
        help="pass criterion for frames and fusion frames (default: tight)",
    )
    _add_format(p, "text", choices=("json", "text"))
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("simulate", help="noise/erasure Monte-Carlo on a frame or fusion frame")
    p.add_argument("--input", required=True)
    _add_channel_flags(p)
    _add_format(p, "text", choices=("json", "text"))
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("compare", help="simulate several candidates with a shared seed schedule")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--names", help="comma-separated names, one per input")
    _add_channel_flags(p)
    _add_format(p, "text", choices=("json", "text"))
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("export", help="convert an object between JSON and CSV")
    p.add_argument("--input", required=True)
    _add_format(p, "json", choices=("json", "csv"))
    p.set_defaults(handler=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
