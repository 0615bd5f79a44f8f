#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 scripts/bench_pairs.py [--workload W]... [--pairs N] [--seconds S]
        [--seed N [--seed HELD_OUT]] [--size full|tiny] [--claim WORKLOAD:METRIC]
        [--change TEXT] [--out PATH]

The parent side runs ``perfbench/run.py`` in a ``git archive`` of HEAD
extracted to a temporary directory; the change side runs it in this working
tree, where the change sits uncommitted on top of HEAD.  Pair k runs the
parent first when k is even and the change first when it is odd.  Each run
is a fresh process, and its last line of output is run.py's JSON result.

The summary is one JSON object (written to ``--out``, else to stdout): per
workload, whether every run reported ``correct`` (``all_correct``), the
runs that exited non-zero (``failed_runs``) and, per end-to-end metric of
``BENCHMARK.json``, the median and quartiles of each side, the pairs the
change wins, the relative change of the medians and whether it lies within
the metric's bound.  With ``--claim``, it also says whether the change wins
at least nine in ten pairs of that metric and moves its median by more than
the parent's interquartile range.  A second ``--seed`` runs the same pairs
again at that seed, and its claim and workloads go under ``held_out_seed``.
The exit code is 0 when every run was correct.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUARTILES = "statistics.quantiles(n=4, method='inclusive') over the runs of each side"


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's runs (one run is all three)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                      else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def metric_summary(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric over the pairs: ``spec`` is its entry in BENCHMARK.json."""
    p, c = statistics.median(parent), statistics.median(change)
    rel = (c - p) / p if p else 0.0
    worse = -rel if spec["better"] == "higher" else rel
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "parent": spread(parent),
        "change": spread(change),
        "change_wins": f"{sum(map(better, change, parent, [spec['better']] * len(parent)))}"
                       f"/{len(parent)}",
        "median_change": round(rel, 4),
        "bound": spec["bound"],
        "within_bound": worse <= spec["bound"],
        "runs": {"parent": [round(v, 4) for v in parent], "change": [round(v, 4) for v in change]},
    }


def summarize(specs: list[dict], runs: list[tuple[str, int, dict]], first_side: list[str],
              seed: int, seconds: float) -> dict:
    """The summary of one workload.  ``runs`` holds (side, exit code, result)
    per run in the order run, and each side has one run per pair."""
    sides = {"parent": [r for s, _, r in runs if s == "parent"],
             "change": [r for s, _, r in runs if s == "change"]}
    metrics = {}
    for spec in specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in sides.items()}
        metrics[name] = metric_summary(spec, values["parent"], values["change"])
    return {
        "seed": seed,
        "pairs": len(first_side),
        "seconds": seconds,
        "failed_runs": sum(code != 0 for _, code, _ in runs),
        "all_correct": all(r.get("correct") is True for _, _, r in runs),
        "first_side": first_side,
        "metrics": metrics,
    }


def claim_verdict(summary: dict, workload: str, metric: str) -> dict:
    """Whether the change wins at least nine in ten pairs of ``metric`` on
    ``workload`` and moves its median the better way by more than the
    parent's interquartile range."""
    m = summary[workload]["metrics"][metric]
    wins, pairs = map(int, m["change_wins"].split("/"))
    gap = m["change"]["median"] - m["parent"]["median"]
    gap = gap if m["better"] == "higher" else -gap
    return {
        "workload": workload,
        "metric": metric,
        "rule": "the change wins at least 9 in 10 pairs and its median is better than the "
                "parent's by more than the parent's interquartile range",
        "change_wins": m["change_wins"],
        "median_gap": round(gap, 4),
        "parent_iqr": m["parent"]["iqr"],
        "met": wins >= math.ceil(0.9 * pairs) and gap > m["parent"]["iqr"],
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float, size: str) -> tuple[int, dict]:
    """One run of the benchmark in ``checkout``: its exit code and result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--size", size]
    out = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no result from {' '.join(argv)} in {checkout}:\n"
                         f"{out.stdout[-2000:]}{out.stderr[-2000:]}") from None


def extract(into: str) -> str:
    """Extract ``git archive HEAD`` of this repository into ``into``; return
    the commit's short hash."""
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run(git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True,
                            check=True).stdout.strip()
    data = subprocess.run(git + ["archive", "--format=tar", commit], capture_output=True,
                          check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return commit


def run_pairs(checkouts: dict, workloads: list[str], specs: list[dict], args,
              seed: int) -> dict:
    """The summary of each workload over ``args.pairs`` alternating pairs at
    ``seed``."""
    summary = {}
    for workload in workloads:
        runs, first_side = [], []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            first_side.append(order[0])
            for side in order:
                code, result = run_once(checkouts[side], workload, seed, args.seconds, args.size)
                runs.append((side, code, result))
                print(f"{workload} seed {seed} pair {k + 1}/{args.pairs} {side}: exit {code}, "
                      f"correct {result.get('correct')}", file=sys.stderr)
        summary[workload] = summarize(specs, runs, first_side, seed, args.seconds)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=[],
                        help="a workload of BENCHMARK.json (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, action="append",
                        help="the seed (default 0); a second one is the held-out seed")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain is claimed")
    parser.add_argument("--change", default="", help="what the change does, for the summary")
    parser.add_argument("--out", help="write the summary here instead of to stdout")
    args = parser.parse_args(argv)
    seeds = args.seed or [0]
    if len(seeds) > 2:
        parser.error("--seed may be given at most twice")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        commit = extract(parent_dir)
        checkouts = {"parent": Path(parent_dir), "change": ROOT}
        summaries = [run_pairs(checkouts, workloads, specs, args, seed) for seed in seeds]

    held_out = f" (and at --seed {seeds[1]} under held_out_seed)" if len(seeds) > 1 else ""
    report = {
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload W --seed {seeds[0]} --seconds "
                   f"{args.seconds:g} --trace 0 --size {args.size}{held_out}, run by "
                   f"scripts/bench_pairs.py in a git archive of the parent commit ({commit}) and "
                   "in the change's working tree; pairs alternate which side runs first",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}; "
                "times are normalised by perfbench/calibrate.py",
        "quartiles": QUARTILES,
        "claim": None,
        "workloads": summaries[0],
    }
    claim = args.claim.split(":") if args.claim else None
    if claim:
        report["claim"] = claim_verdict(summaries[0], *claim)
    if len(seeds) > 1:
        report["held_out_seed"] = {"seed": seeds[1],
                                   "claim": claim_verdict(summaries[1], *claim) if claim else None,
                                   **summaries[1]}
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if all(w["all_correct"] for summary in summaries for w in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
