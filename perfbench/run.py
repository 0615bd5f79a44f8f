#!/usr/bin/env python3
"""The eulcat benchmark: one command, three workloads, exact outputs checked.

    python3 perfbench/run.py --workload posets|audit|groups --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory, in this one process and thread.  Each pass sets the
workload up afresh (timed as ``setup_s``) and then runs every task once, in
a seeded order.  A run makes a fixed number of passes, chosen from
``--seconds`` and the workload's nominal pass time so that it lasts about
``--seconds`` at the commit that defined the benchmark; faster code finishes
sooner rather than earning extra repetitions.

A task's latency is the minimum over its passes.  The host is a shared
2-core VM whose speed swings by up to 2x within seconds; the minimum of
several repetitions spread over the run keeps those swings out of the
figures, where a mean or a single pass would not.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced (see
tracing.py) and the last line reports the per-layer metrics of the traced
passes plus the tracing overhead.  Every outcome is checked against
golden.json and the paper's identities; any mismatch makes the run fail.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from random import Random

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Seconds one pass (set-up plus every task once) took when the benchmark was
# defined, on the 2-core reference VM.
NOMINAL_PASS_S = {"posets": 5.0, "audit": 7.0, "groups": 4.3}
MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.15
SETUP_KERNELS = 3  # kernel runs on each side of a set-up, which has no kernels inside it

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_units(tracing) -> dict[str, str]:
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["fincat.FinCat.checked.triples"] = "count"
    units["fincat.FinCat.checked.triples_per_s"] = "1/s"
    for name in tracing.DISTINCT:
        units[f"{name}.distinct_frac"] = "ratio"
    units["fincat.path_counts.depth_max"] = "count"
    units["ratlin.solve_linear.cells"] = "count"
    units["ratlin.solve_linear.per_chi_L"] = "ratio"
    units["hocolim.out_morphisms"] = "count"
    units["manifest.bytes_in"] = "bytes"
    units["trace.tps_ratio"] = "ratio"
    units["trace.wall_s"] = "s"
    return units


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of the samples lie at or above it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    def __init__(self, workload: str, seed: int, size: str, golden_path: str):
        import golden
        import workloads

        self.seed = seed
        self.size = size
        self.setup_fn = workloads.WORKLOADS[workload]
        self.manifests = str(OUT / "manifests" / workload)
        instances = workloads.SIZES[size]["audit_instances"]
        self.golden = golden.lookup(golden.load(golden_path), workload, seed, instances)
        self.order_rng = Random(f"order:{seed}")
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None) -> tuple[dict[str, float], float, float]:
        """Set up, then run every task once.

        Returns each task's normalised seconds, the pass's normalised wall
        time and the pass's median normalisation factor.  The reference kernel
        runs before the set-up, after it, and then whenever CALIBRATE_EVERY_S
        has passed since its last run; the tasks between two kernel runs are
        scaled by the mean of the two.
        """
        gc.collect()
        before = statistics.median(calibrate.kernel_seconds() for _ in range(SETUP_KERNELS))
        start = time.perf_counter()
        tasks = self.setup_fn(self.seed, self.manifests, self.size)
        raw_setup = time.perf_counter() - start
        after = statistics.median(calibrate.kernel_seconds() for _ in range(SETUP_KERNELS))
        self.setup_s.append(raw_setup * 2 * calibrate.REFERENCE_S / (before + after))
        ref = after
        order = list(range(len(tasks)))
        self.order_rng.shuffle(order)
        times, outcomes, segment, factors = {}, {}, [], []
        kernel_s = 0.0

        def close_segment():
            nonlocal ref, kernel_s
            ref_next = calibrate.kernel_seconds()
            kernel_s += ref_next
            factor = 2 * calibrate.REFERENCE_S / (ref + ref_next)
            for key, dt in segment:
                times[key] = dt * factor
            factors.append(factor)
            segment.clear()
            ref = ref_next

        if tracer is not None:
            tracer.install()
        pass_start = last_kernel = time.perf_counter()
        try:
            for i in order:
                task = tasks[i]
                t0 = time.perf_counter()
                try:
                    outcomes[i] = task.run() if tracer is None else tracer.span("bench.task", task.run)
                except Exception as exc:  # a raising task is a failed task
                    outcomes[i] = exc
                t1 = time.perf_counter()
                segment.append((task.key, t1 - t0))
                if t1 - last_kernel >= CALIBRATE_EVERY_S:
                    close_segment()
                    last_kernel = time.perf_counter()
            wall = time.perf_counter() - pass_start - kernel_s
            close_segment()
        finally:
            if tracer is not None:
                tracer.uninstall()
        factor = statistics.median(factors)
        for i, task in enumerate(tasks):
            self.attempted += 1
            outcome = outcomes[i]
            if isinstance(outcome, Exception):
                reason = f"raised {type(outcome).__name__}: {outcome}"
            elif self.golden is not None and task.key not in self.golden:
                reason = "no golden value recorded"
            else:
                reason = task.check(outcome, None if self.golden is None else self.golden[task.key])
            if reason:
                self.failures.append(f"{task.key}: {reason}")
        return times, wall * factor, factor


def pooled(passes: list[dict[str, float]]) -> list[float]:
    """Every normalised task time of every pass, sorted."""
    return sorted(t for p in passes for t in p.values())


def tasks_per_s(passes: list[dict[str, float]]) -> float:
    """Tasks per second of normalised task time, each task costed at its
    median over the passes (a long task can straddle a shift in host speed
    that the kernels around it do not see; the median drops that pass)."""
    return len(passes[0]) / sum(statistics.median(p[key] for p in passes) for key in passes[0])


def end_to_end(run: Run, passes: list[dict[str, float]]) -> dict[str, float]:
    lat = pooled(passes)
    return {
        "tasks_per_s": tasks_per_s(passes),
        "task_p50_ms": percentile(lat, 0.5) * 1e3,
        "task_p90_ms": percentile(lat, 0.9) * 1e3,
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - len(run.failures) / run.attempted,
    }


def per_layer(tracing, layer_passes, counters, walls, tps_ratio) -> dict[str, float]:
    """Per-layer metrics: calls and counters per pass (they repeat exactly),
    self time as the minimum over traced passes."""
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = max(p.get(name, (0, 0.0))[0] for p in layer_passes)
        out[f"{name}.self_s"] = min(p.get(name, (0, 0.0))[1] for p in layer_passes)
    triples = counters.get("fincat.FinCat.checked.triples", 0)
    checked_s = out["fincat.FinCat.checked.self_s"]
    out["fincat.FinCat.checked.triples"] = triples
    out["fincat.FinCat.checked.triples_per_s"] = triples / checked_s if checked_s else 0.0
    for name in tracing.DISTINCT:
        calls = out[f"{name}.calls"]
        out[f"{name}.distinct_frac"] = counters.get(f"{name}.distinct", 0) / calls if calls else 0.0
    out["fincat.path_counts.depth_max"] = counters.get("fincat.path_counts.depth_max", 0)
    out["ratlin.solve_linear.cells"] = counters.get("ratlin.solve_linear.cells", 0)
    chi_l = out["ratlin.chi_L.calls"]
    out["ratlin.solve_linear.per_chi_L"] = out["ratlin.solve_linear.calls"] / chi_l if chi_l else 0.0
    out["hocolim.out_morphisms"] = counters.get("hocolim.out_morphisms", 0)
    out["manifest.bytes_in"] = counters.get("manifest.bytes_in", 0)
    out["trace.tps_ratio"] = tps_ratio
    out["trace.wall_s"] = min(walls)
    return out


def measure(args) -> tuple[dict, int]:
    import tracing

    run = Run(args.workload, args.seed, args.size, args.golden)
    n_passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    started = time.perf_counter()
    plain = []
    if not args.trace:
        for _ in range(n_passes):
            plain.append(run.one_pass()[0])
        metrics = end_to_end(run, plain)
        units = END_TO_END_UNITS
    else:
        tracer = tracing.Tracer()
        traced, layer_passes, walls, counters = [], [], [], {}
        for _ in range(max(2, math.ceil(n_passes / 2))):
            plain.append(run.one_pass()[0])
            tracer.reset_counters()
            first = len(tracer.spans)
            times, wall, factor = run.one_pass(tracer)
            traced.append(times)
            walls.append(wall)
            layer_passes.append({name: (calls, self_s * factor)
                                 for name, (calls, self_s) in tracer.self_times(first).items()})
            counters = tracer.counters
        ratio = tasks_per_s(traced) / tasks_per_s(plain)
        metrics = per_layer(tracing, layer_passes, counters, walls, ratio)
        units = per_layer_units(tracing)
        trace_path = OUT / f"trace-{args.workload}.json"
        tracer.dump(str(trace_path))
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")

    n_tasks = len(plain[0])
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}: {n_tasks} tasks, "
          f"{len(plain)} untraced passes, {time.perf_counter() - started:.1f} s")
    if run.golden is None:
        print("no golden digests recorded for this audit seed: checked against the paper's identities only")
    if args.trace:
        print(f"tracing overhead: traced/untraced tasks_per_s = {metrics['trace.tps_ratio']:.3f}")
    else:
        samples = n_tasks * len(plain)
        print(f"latency samples: {samples} ({n_tasks} tasks x {len(plain)} passes, pooled); "
              f"{samples - math.ceil(0.9 * samples)} lie above task_p90_ms")
    failed = len(run.failures)
    print(f"fail_frac = {failed / run.attempted:.6f} ({failed} of {run.attempted} attempted)")
    for line in run.failures[:10]:
        print(f"FAIL {line}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("posets", "audit", "groups"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test sizes of selfcheck.py")
    parser.add_argument("--golden", default=str(HERE / "golden.json"),
                        help="golden results file (selfcheck.py passes an altered copy)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "eulcat" / "__init__.py").is_file():
        print(f"error: no eulcat sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import eulcat

    if Path(eulcat.__file__).resolve().parent != src / "eulcat":
        print(f"error: imported eulcat from {eulcat.__file__}, not from {src}", file=sys.stderr)
        return 2

    result, code = measure(args)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
