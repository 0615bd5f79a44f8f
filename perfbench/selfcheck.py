#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload it asserts that

* the untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and the traced run every per-layer metric;
* a deliberately altered golden value is caught: the run reports a failed
  task, ``correct: false`` and a non-zero exit code;
* the traced per-layer self times sum to no more than the traced wall time;

and that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selfcheck"
WORKLOADS = ("posets", "audit", "groups")
# A CLI task each tiny run executes, whose golden digest gets altered.
TINY_KEYS = {"posets": "posets/sub3/chil", "groups": "groups/triv-Z3-cone3/hocolim-groups"}


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def check_metrics(lines: list[str], wanted: list[dict], label: str) -> dict:
    metrics = result_of(lines)["metrics"]
    names = [m["name"] for m in wanted]
    assert sorted(metrics) == sorted(names), f"{label}: metrics {sorted(set(metrics) ^ set(names))} differ"
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} in {got['unit']}, not {m['unit']}"
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), f"{label}: {m['name']} not printed with its unit"
    return metrics


def altered_golden(workload: str) -> Path:
    data = json.loads((HERE / "golden.json").read_text())
    if workload == "audit":  # the tiny run's recording: fewest instances, seed 0
        key = min((k for k in data["audit"] if k.endswith(":0")), key=lambda k: int(k.split(":")[0]))
        packed = data["audit"][key]
        data["audit"][key] = ("0" if packed[0] != "0" else "1") + packed[1:]
    else:
        key = TINY_KEYS[workload]
        code, want = data["cli"][key]
        data["cli"][key] = [code, ("0" if want[0] != "0" else "1") + want[1:]]
    path = SCRATCH / f"golden-altered-{workload}.json"
    path.write_text(json.dumps(data))
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        code, lines = bench(workload, 0)
        assert code == 0 and result_of(lines)["correct"], f"{workload}: untraced run failed"
        check_metrics(lines, spec["end_to_end"], f"{workload} untraced")

        code, lines = bench(workload, 1)
        assert code == 0 and result_of(lines)["correct"], f"{workload}: traced run failed"
        layer = check_metrics(lines, spec["per_layer"], f"{workload} traced")
        self_total = sum(v["value"] for k, v in layer.items() if k.endswith(".self_s"))
        wall = layer["trace.wall_s"]["value"]
        assert self_total <= wall, f"{workload}: self times {self_total} exceed traced wall {wall}"

        code, lines = bench(workload, 0, "--golden", str(altered_golden(workload)))
        result = result_of(lines)
        assert code != 0 and not result["correct"] and result["failed"] >= 1, \
            f"{workload}: altered golden value not caught"
        print(f"ok {workload}: metrics and units, altered golden caught, "
              f"self {self_total:.4f} s <= traced wall {wall:.4f} s")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("posets", 0, cwd=bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), \
        "benchmark ran without the library sources"
    shutil.rmtree(bare)
    print("ok: refuses to run without the library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
