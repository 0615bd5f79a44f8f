"""A fixed reference kernel that tracks the speed of the host.

The benchmark runs on a shared 2-core VM whose speed drifts by 20-50% over
tens of seconds and by up to 2x within seconds, with the process holding a
full vCPU throughout: the noise comes from neighbours on the host, not from
this process, and it does not slow every kind of work alike.  A pure dict
loop does not track it (it can even move against the library's timings).  A
kernel built from the operations the library spends its time in does much
better: Fraction Gaussian elimination, walks over dicts keyed by name
tuples, JSON round trips, small frozen records grouped by key, and building
an argparse command line.  Measured alternately with CLI tasks over a few
minutes, the task-to-kernel ratio moved by 5-10% between windows while the
raw task times moved by 40-50%; no single one of these operations tracked
every task as well as the mix.

The kernel is frozen with the benchmark and never calls the library, so a
change to the library cannot move it.  ``REFERENCE_S`` is its time on a quiet
host; a task's normalised time is its measured time scaled by
``REFERENCE_S / kernel time`` around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 0.010


def _elimination(n: int = 8) -> Fraction:
    rows = [[Fraction((7 * i + 3 * j) % 11 + (i == j), 1 + (i + j) % 3) for j in range(n)]
            for i in range(n)]
    rhs = [Fraction(1)] * n
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
                rhs[r] -= factor * rhs[col]
    return sum(rhs)


def _table_walk(n: int = 30) -> int:
    names = [f"m{i}" for i in range(n)]
    table = {(a, b): names[(i + j) % n] for i, a in enumerate(names) for j, b in enumerate(names)}
    mismatches = 0
    for a in names[:15]:
        for b in names[:15]:
            for c in names[:10]:
                if table[(a, table[(b, c)])] != table[(table[(a, b)], c)]:
                    mismatches += 1
    return mismatches


def _json_round_trip(n: int = 400) -> int:
    data = {"compose": [[f"g{i}", f"f{i}", f"h{i}"] for i in range(n)]}
    return len(json.loads(json.dumps(data, indent=2, sort_keys=True))["compose"])


@dataclass(frozen=True)
class _Arrow:
    name: str
    source: str
    target: str


def _records(n: int = 1000) -> int:
    arrows = [_Arrow(f"a{i}", f"x{i % 40}", f"x{7 * i % 40}") for i in range(n)]
    by_source: dict[str, list[str]] = {}
    for a in arrows:
        by_source.setdefault(a.source, []).append(a.name)
    return len(by_source)


def _command_line() -> int:
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for i in range(18):
        cmd = sub.add_parser(f"c{i}")
        cmd.add_argument("file")
        cmd.add_argument("--json", action="store_true")
    return len(vars(parser.parse_args(["c3", "file"])))


def kernel_seconds() -> float:
    """Time one run of the reference kernel, with the collector paused so the
    library's heap does not leak into the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _elimination()
        _table_walk()
        _json_round_trip()
        _records()
        _command_line()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
