"""The benchmark's workloads: which CLI commands each runs, on which inputs,
and how the oracle checks each command's output.

Why each workload exists, and which layers it loads or bypasses, is
recorded in baseline.json. Sizes follow the layer balance described there;
change one only together with that record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

ETF_K = 9  # order-512 Hadamard input: few large exact Grams
GFF_CASES = ((9, 1), (9, 3))  # many small exact products
CHANNEL_GFF = (6, 2)  # 16 subspaces: survivor sets repeat
CHANNEL_ETF_ORDER = 64  # C(64, 3) survivor sets: few repeat
FUSION_TRIALS, FUSION_ERASED = 1000, 1
FRAME_TRIALS, FRAME_ERASED = 4000, 3
NOISE_STD = 0.01
WALSH_K = 11  # 4M entries: serialization-bound


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``kind`` is gen, verify, export, sim-fusion or
    sim-frame; ``check`` returns the oracle's problems with its output."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[], list[str]]
    trials: int = 0

    def path(self, flag: str) -> Path | None:
        return Path(self.argv[self.argv.index(flag) + 1]) if flag in self.argv else None


@dataclass(frozen=True)
class Workload:
    timed: tuple[Command, ...]
    prepare: tuple[Command, ...] = ()  # run and checked once, before timing
    files: dict[Path, str] = field(default_factory=dict)  # inputs written before timing


def _gen_etf(src: list[str], obj: Path, h: list[list[int]]) -> Command:
    return Command("gen", ("gen-etf", *src, "--output", str(obj)), lambda: oracle.etf_object(obj, h))


def _gen_gff(n: int, m: int, obj: Path) -> Command:
    bases = oracle.gff_subspaces(n, m)
    argv = ("gen-gff", "--n", str(n), "--m", str(m), "--output", str(obj))
    return Command("gen", argv, lambda: oracle.gff_object(obj, n, m, bases))


def _verify(obj: Path, out: Path, check: Callable[[Path], list[str]]) -> Command:
    argv = ("verify", "--input", str(obj), "--require", "grassmannian", "--format", "json", "--output", str(out))
    return Command("verify", argv, lambda: check(out))


def _export_csv(obj: Path, out: Path, rows: list[list[int]]) -> Command:
    argv = ("export", "--input", str(obj), "--format", "csv", "--output", str(out))
    return Command("export", argv, lambda: oracle.csv_matrix(out, rows))


def _simulate(kind: str, obj: Path, out: Path, erased: int, trials: int, seed: int,
              non_recoverable: int, mse: float) -> Command:
    argv = (
        "simulate", "--input", str(obj), "--mode", "lstsq", "--noise-std", str(NOISE_STD),
        "--erase-random", str(erased), "--trials", str(trials), "--seed", str(seed),
        "--format", "json", "--output", str(out),
    )
    return Command(kind, argv, lambda: oracle.sim_report(out, trials, non_recoverable, mse), trials)


def certify(seed: int, work: Path) -> Workload:
    """The exact path: certificates and serialization, never the channel.

    Three parts with different layer balance, which the traced run tells
    apart. An order-512 ETF from a seeded equivalent Hadamard matrix has few
    large exact Grams; GFF(9,1) and GFF(9,3) run the same kernels as
    thousands of small calls; W_11 moves 4M entries through JSON and CSV.
    """
    h = oracle.permuted_hadamard(ETF_K, seed)
    src, etf = work / "hadamard.json", work / "etf.json"
    timed = [
        _gen_etf(["--input", str(src)], etf, h),
        _verify(etf, work / "etf-verify.json", lambda p: oracle.etf_verify(p, len(h))),
        _export_csv(etf, work / "etf.csv", oracle.etf_raw(h)),
    ]
    for n, m in GFF_CASES:
        obj = work / f"gff-{n}-{m}.json"
        timed.append(_gen_gff(n, m, obj))
        timed.append(_verify(obj, work / f"gff-{n}-{m}-verify.json",
                             lambda p, n=n, m=m: oracle.gff_verify(p, n, m)))
    rows = oracle.walsh(WALSH_K)
    entries = oracle.flat(rows)
    walsh, csv = work / "walsh.json", work / "walsh.csv"
    timed += [
        Command("gen", ("gen-walsh", "--k", str(WALSH_K), "--output", str(walsh)),
                lambda: oracle.walsh_object(walsh, WALSH_K, entries)),
        _export_csv(walsh, csv, rows),
        _verify(csv, work / "walsh-verify.json", oracle.walsh_verify),
    ]
    hadamard = json.dumps({"kind": "sign_matrix", "order": len(h), "entries": oracle.flat(h)})
    return Workload(timed=tuple(timed), files={src: hadamard})


def channel(seed: int, work: Path) -> Workload:
    n, m = CHANNEL_GFF
    order = CHANNEL_ETF_ORDER
    gff, etf = work / "gff.json", work / "etf.json"
    walsh = oracle.walsh(order.bit_length() - 1)
    return Workload(
        prepare=(_gen_gff(n, m, gff), _gen_etf(["--order", str(order)], etf, walsh)),
        timed=(
            _simulate("sim-fusion", gff, work / "sim-fusion.json", FUSION_ERASED, FUSION_TRIALS,
                      seed, 0, oracle.fusion_mse(n, m, NOISE_STD)),
            _simulate("sim-frame", etf, work / "sim-frame.json", FRAME_ERASED, FRAME_TRIALS,
                      seed, FRAME_TRIALS, oracle.frame_mse(order, FRAME_ERASED, NOISE_STD)),
        ),
    )


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "certify": certify,
    "channel": channel,
}
