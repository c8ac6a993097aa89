"""Span recorder for the benchmark's traced run.

The traced run wraps hadframes functions from outside, so no file of the
program changes. Each function in TRACED is replaced under every name a
hadframes module binds it to: frames, fusion and channel import
``checked_matmul`` and ``int_rank`` by name, so patching intlinalg alone
would miss their calls. ``numpy.linalg.lstsq`` is wrapped as well.

A span records (name, start, end, parent, command id). ``pad`` is the
wrapper's own bookkeeping outside [start, end], such as hashing the matrix
handed to lstsq; it belongs to no layer. A span's self time is its duration
minus the part of that interval its child spans, padding included, cover.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

# module -> {function: span name}. A span name is "<layer>.<stage>", and the
# layer is the hadframes module the function belongs to.
TRACED: dict[str, dict[str, str]] = {
    "hadframes.cli": {"main": "cli"},
    "hadframes.hadamard": {
        "build_sylvester": "hadamard.build",
        "build_walsh": "hadamard.build",
        "normalize_first_row": "hadamard.build",
        "sign_matrix": "hadamard.validate",
        "validate_hadamard": "hadamard.validate",
        "validate_walsh_order": "hadamard.validate",
        "require_hadamard": "hadamard.validate",
    },
    "hadframes.intlinalg": {
        "checked_matmul": "intlinalg.matmul",
        "pm1_gram": "intlinalg.pm1_gram",
        "int_rank": "intlinalg.rank",
    },
    "hadframes.frames": {
        "etf_from_hadamard": "frames.construct",
        "frame_from_integer_columns": "frames.construct",
        "grassmannian_certificate": "frames.certificate",
    },
    "hadframes.fusion": {
        "build_gff": "fusion.construct",
        "make_fusion_frame": "fusion.construct",
        "subspace_from_columns": "fusion.construct",
        "fusion_tight": "fusion.tight",
        "lemma_row_check": "fusion.tight",
        "chordal_dist_sq": "fusion.distance",
        "equidistance_certificate": "fusion.certificate",
    },
    "hadframes.channel": {
        "simulate_frame": "channel.decode",
        "simulate_fusion": "channel.decode",
    },
    "hadframes.serialize": {
        **dict.fromkeys(
            ("object_from_dict", "object_from_csv", "config_from_dict", "pair_to_fraction"),
            "serialize.decode",
        ),
        **dict.fromkeys(
            (
                "canonical_dumps", "object_to_csv", "sign_matrix_to_dict", "walsh_matrix_to_dict",
                "frame_to_dict", "fusion_frame_to_dict", "matrix_certificate_to_dict",
                "frame_certificate_to_dict", "fusion_certificate_to_dict", "report_to_dict",
                "config_to_dict", "compare_to_dict", "report_to_text", "compare_to_text",
            ),
            "serialize.encode",
        ),
    },
    "numpy.linalg": {"lstsq": "channel.lstsq"},
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    command: int
    pad: float = 0.0
    info: object = None
    cpu: float = 0.0  # process CPU seconds, recorded for channel.decode only


def _matmul_info(args, out) -> tuple[int, int, int, bool]:
    a, b = args[0], args[1]
    return a.shape[0], a.shape[1], b.shape[1], out.dtype.kind == "O"


def _rank_info(args, out) -> tuple[int, int]:
    return min(args[0].shape), int(out)


def _frame_count(args) -> int:
    return args[0].count


def _matrix_key(args) -> tuple:
    a = args[0]
    return a.shape, hash(a.tobytes())


# span name -> (info before the call, info after the call, record CPU)
_HOOKS: dict[str, tuple[Callable | None, Callable | None, bool]] = {
    "intlinalg.matmul": (None, _matmul_info, False),
    "intlinalg.rank": (None, _rank_info, False),
    "frames.certificate": (_frame_count, None, False),
    "channel.lstsq": (_matrix_key, None, False),
    "channel.decode": (None, None, True),
}


class Recorder:
    """Spans of one traced pass; ``command`` is the id of the running command."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.command = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        before, after, cpu = _HOOKS.get(name, (None, None, False))
        spans, stack = self.spans, self._stack
        clock, cpu_clock = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            entered = clock()
            info = before(args) if before else None
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            cpu0 = cpu_clock() if cpu else 0.0
            start = clock()
            out = failed = None
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
            end = clock()
            cpu_used = cpu_clock() - cpu0 if cpu else 0.0
            stack.pop()
            if after and failed is None:
                info = after(args, out)
            spans[index] = Span(name, start, end, parent, self.command,
                                start - entered + clock() - end, info, cpu_used)
            if failed is not None:
                raise failed
            return out

        return traced

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.command] for s in self.spans]


@contextmanager
def installed(recorder: Recorder):
    """Wrap every traced function under all its hadframes bindings; undo on exit."""
    originals: dict[int, Callable] = {}
    wrappers: dict[int, Callable] = {}
    targets = []
    for module_name, functions in TRACED.items():
        module = importlib.import_module(module_name)
        if not module_name.startswith("hadframes"):
            targets.append(module)
        for fn_name, span_name in functions.items():
            fn = getattr(module, fn_name, None)
            if fn is None:
                print(f"trace: {module_name}.{fn_name} not found, not traced", file=sys.stderr)
                continue
            originals[id(fn)] = fn
            wrappers[id(fn)] = recorder.wrap(span_name, fn)
    targets += [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hadframes"]
    patched = []
    for module in targets:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and originals[id(value)] is value:
                setattr(module, attr, wrappers[id(value)])
                patched.append((module, attr, value))
    try:
        yield recorder
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus what its children, padding included, cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start + s.pad
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _ancestor(spans: list[Span], index: int, name: str) -> Span | None:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    selfs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        selfs[s.name] += t
        calls[s.name] += 1
    matmul_gflop = 0.0
    object_calls = gram_products = fallbacks = 0
    seen: set = set()
    reused = 0
    for i, s in enumerate(spans):
        if s.name == "intlinalg.matmul":
            m, k, n, on_objects = s.info
            matmul_gflop += 2 * m * k * n / 1e9
            object_calls += on_objects
            cert = _ancestor(spans, i, "frames.certificate")
            gram_products += cert is not None and m == n == cert.info
        elif s.name == "intlinalg.rank":
            fallbacks += s.info[1] < s.info[0]
        elif s.name == "channel.lstsq":
            key = (s.command, s.info)
            reused += key in seen
            seen.add(key)
    certificates = calls["frames.certificate"]
    return {
        "cli.self_s": selfs["cli"],
        "hadamard.build_s": selfs["hadamard.build"],
        "hadamard.validate_s": selfs["hadamard.validate"],
        "intlinalg.pm1_gram_s": selfs["intlinalg.pm1_gram"],
        "intlinalg.matmul_s": selfs["intlinalg.matmul"],
        "intlinalg.matmul_calls": calls["intlinalg.matmul"],
        "intlinalg.matmul_gflop": matmul_gflop,
        "intlinalg.matmul_object_calls": object_calls,
        "intlinalg.rank_s": selfs["intlinalg.rank"],
        "intlinalg.rank_calls": calls["intlinalg.rank"],
        "intlinalg.rank_fallback_calls": fallbacks,
        "frames.construct_s": selfs["frames.construct"],
        "frames.certificate_s": selfs["frames.certificate"],
        "frames.certificates": certificates,
        "frames.gram_products_per_certificate": gram_products / certificates if certificates else 0,
        "fusion.construct_s": selfs["fusion.construct"],
        "fusion.tight_s": selfs["fusion.tight"],
        "fusion.distance_s": selfs["fusion.distance"],
        "fusion.distance_calls": calls["fusion.distance"],
        "fusion.certificate_s": selfs["fusion.certificate"],
        "fusion.certificates": calls["fusion.certificate"],
        "channel.decode_s": selfs["channel.decode"],
        "channel.lstsq_s": selfs["channel.lstsq"],
        "channel.lstsq_calls": calls["channel.lstsq"],
        "channel.cpu_s": sum(s.cpu for s in spans if s.name == "channel.decode"),
        "channel.survivor_reuse": reused / calls["channel.lstsq"] if calls["channel.lstsq"] else 0,
        "serialize.encode_s": selfs["serialize.encode"],
        "serialize.decode_s": selfs["serialize.decode"],
        "trace.spans": len(spans),
    }


def write(path: Path, recorders: list[Recorder]) -> None:
    """Write every pass's spans as [name, start, end, parent, command] rows."""
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "command"],
                                "passes": [r.dump() for r in recorders]}))
