"""Benchmark of the hadframes command-line interface.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 55 --trace 0

With ``--trace 0`` each command of the workload runs as its own subprocess,
``python -m hadframes.cli`` with PYTHONPATH set to the checkout's ``src``,
one at a time: a closed loop with a single client. Wall time, CPU time and
peak RSS come from ``os.wait4``. Passes over the workload's commands repeat
while the next one is expected to end within ``--seconds``, and every metric
is a median over passes. ``setup_s`` is the median wall time of ``--help``:
several runs after one warm-up run that compiles the bytecode, and one more
before every pass.

With ``--trace 1`` the same commands call ``hadframes.cli.main`` in this
process instead, alternating an untraced pass with a pass traced by
spans.py, and the per-layer metrics are reported.

Every command's output is checked by oracle.py; a wrong answer counts as a
failed command. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

import spans
import workloads
from workloads import Command, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Sample:
    rc: int
    wall: float
    cpu: float = 0.0
    rss_mib: float = 0.0


class Tally:
    """Commands attempted and failed, where failed means a wrong exit code or
    an output the oracle rejects."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def judge(self, cmd: Command, sample: Sample) -> None:
        self.attempted += 1
        problems = [f"exit code {sample.rc}, want 0"] if sample.rc != 0 else cmd.check()
        if problems:
            self.failed += 1
            print(f"FAILED {cmd.argv[0]}: " + "; ".join(problems[:5]), file=sys.stderr)


def pinned_env() -> dict[str, str]:
    """Environment of every command: the checkout's src on PYTHONPATH, and
    BLAS/OpenMP threads fixed at the CPU count a user gets by default, so an
    inherited variable cannot change the numbers."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("HADFRAMES_", "PYTHON")) or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(dict.fromkeys(THREAD_VARS, threads))
    return env


def spawn(argv: list[str] | tuple[str, ...], env: dict[str, str]) -> Sample:
    """Run one CLI command as a subprocess and wait for it."""
    log = WORK / "stderr.txt"
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "hadframes.cli", *argv], env,
                         file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    rc = os.waitstatus_to_exitcode(status)
    if rc != 0:
        sys.stderr.write(log.read_text()[-2000:])
    return Sample(rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def in_process(cli, argv: tuple[str, ...]) -> Sample:
    """Run one CLI command through ``cli.main`` in this process."""
    start = time.perf_counter()
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command; keep measuring the rest
        traceback.print_exc()
        rc = -1
    return Sample(rc, time.perf_counter() - start)


def run_passes(passes: list[Callable[[], list[Sample]]], seconds: float) -> list[list[Sample]]:
    """Cycle through ``passes`` while the next one is expected to end within
    ``seconds``; always complete at least one full cycle."""
    start = time.perf_counter()
    done: list[list[Sample]] = []
    while True:
        began = time.perf_counter()
        done.extend(run_pass() for run_pass in passes)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return done


def run_commands(commands, runner: Callable[[Command], Sample], tally: Tally) -> list[Sample]:
    samples = []
    for cmd in commands:
        sample = runner(cmd)
        tally.judge(cmd, sample)
        samples.append(sample)
    return samples


def end_to_end(workload: Workload, seconds: float, tally: Tally) -> dict[str, float]:
    env = pinned_env()
    warm = spawn(["--help"], env)
    if warm.rc != 0:
        raise SystemExit(f"error: hadframes.cli --help exited with {warm.rc}")
    setup = [spawn(["--help"], env).wall for _ in range(SETUP_RUNS)]
    runner = lambda cmd: spawn(cmd.argv, env)  # noqa: E731

    def one_pass() -> list[Sample]:
        # One more set-up sample per pass, so that setup_s also samples the
        # stretch of a noisy host's time that the commands ran in.
        setup.append(spawn(["--help"], env).wall)
        return run_commands(workload.timed, runner, tally)

    run_commands(workload.prepare, runner, tally)
    passes = run_passes([one_pass], seconds)
    return end_to_end_values(setup, passes)


def end_to_end_values(setup: list[float], passes: list[list[Sample]]) -> dict[str, float]:
    return {
        "setup_s": median(setup),
        "wall_s": median(map(pass_wall, passes)),
        "cpu_s": median(sum(s.cpu for s in p) for p in passes),
        "peak_rss_mb": median(max(s.rss_mib for s in p) for p in passes),
    }


def pass_wall(samples: list[Sample]) -> float:
    return sum(s.wall for s in samples)


def per_layer(workload: Workload, seconds: float, tally: Tally) -> dict[str, float]:
    env = pinned_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    from hadframes import cli

    commands = workload.timed
    runner = lambda cmd: in_process(cli, cmd.argv)  # noqa: E731
    recorders: list[spans.Recorder] = []

    def traced_pass() -> list[Sample]:
        recorder = spans.Recorder()
        recorders.append(recorder)
        samples = []
        with spans.installed(recorder):
            for number, cmd in enumerate(commands):
                recorder.command = number
                samples.append(runner(cmd))
        for cmd, sample in zip(commands, samples):
            tally.judge(cmd, sample)
        return samples

    run_commands(workload.prepare, runner, tally)
    passes = run_passes([lambda: run_commands(commands, runner, tally), traced_pass], seconds)
    spans.write(WORK / "spans.json", recorders)
    layers = [spans.layer_metrics(r.spans) for r in recorders]
    return per_layer_values(commands, passes[0::2], passes[1::2], layers)


def per_layer_values(commands, plain: list[list[Sample]], traced: list[list[Sample]],
                     layers: list[dict[str, float]]) -> dict[str, float]:
    """Medians over traced passes of the span metrics, plus per-kind command
    times and simulate throughput from the untraced passes."""
    values = {name: median(layer[name] for layer in layers) for name in layers[0]}

    def plain_median(kind: str) -> float:
        return median(sum(s.wall for c, s in zip(commands, p) if c.kind == kind) for p in plain)

    def trials_per_s(kind: str) -> float:
        trials = sum(c.trials for c in commands if c.kind == kind)
        return trials / plain_median(kind) if trials else 0

    def size(path: Path | None) -> int:
        return path.stat().st_size if path is not None and path.exists() else 0

    values.update({
        "cli.gen_s": plain_median("gen"),
        "cli.verify_s": plain_median("verify"),
        "cli.export_s": plain_median("export"),
        "channel.fusion_trials_per_s": trials_per_s("sim-fusion"),
        "channel.frame_trials_per_s": trials_per_s("sim-frame"),
        "serialize.bytes_in": sum(size(c.path("--input")) for c in commands),
        "serialize.bytes_out": sum(size(c.path("--output")) for c in commands),
        "trace.overhead": median(map(pass_wall, traced)) / median(map(pass_wall, plain)),
    })
    return values


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "hadframes" / "cli.py").is_file():
        print(f"error: no hadframes sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK)
    for path, text in workload.files.items():
        path.write_text(text)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    values = measure(workload, args.seconds, tally)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
