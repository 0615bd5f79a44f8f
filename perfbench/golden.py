"""Golden exact results: record them, and look them up per task.

``golden.json`` holds, for every CLI task of the ``posets`` and ``groups``
workloads (both sizes), the expected exit code and a digest of the task's
``--json`` stdout; for ``audit`` it holds one 6-hex-digit digest of each
instance's returned report, concatenated in instance order, per recorded
``instances:seed``.  Audit seeds without a recording are still checked
against the paper's identities, only not against a digest.

Record (at a commit whose outputs are known good; refuses if any identity
fails):

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 0
HELD_OUT_SEED = 1009  # not used while building the benchmark; re-check claims on it
AUDIT_SEEDS = tuple(range(10)) + (HELD_OUT_SEED,)


def load(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def lookup(golden: dict, workload: str, seed: int, instances: int) -> Optional[dict]:
    """Map task key -> (exit code, digest) for one run, or None when no
    digest is recorded for this audit seed."""
    if workload != "audit":
        return {key: tuple(value) for key, value in golden["cli"].items()}
    packed = golden["audit"].get(f"{instances}:{seed}")
    if packed is None:
        return None
    import workloads

    keys, n = workloads.audit_keys(instances), workloads.AUDIT_DIGEST
    if len(packed) != n * len(keys):
        raise ValueError(f"audit golden {instances}:{seed} has the wrong length")
    return {key: (0, packed[n * i:n * (i + 1)]) for i, key in enumerate(keys)}


def record(out_dir: str) -> dict:
    import workloads

    golden = {"cli": {}, "audit": {}}
    for size in ("tiny", "full"):
        for name in ("posets", "groups"):
            for task in workloads.WORKLOADS[name](DEFAULT_SEED, os.path.join(out_dir, name), size):
                outcome = task.run()
                reason = task.oracle(outcome)
                if reason:
                    raise SystemExit(f"{task.key}: {reason}")
                golden["cli"][task.key] = [outcome.code, workloads.digest(outcome.out)]
        instances = workloads.SIZES[size]["audit_instances"]
        seeds = (DEFAULT_SEED,) if size == "tiny" else AUDIT_SEEDS
        for seed in seeds:
            packed = []
            for task in workloads.audit_setup(seed, out_dir, size):
                outcome = task.run()
                reason = task.oracle(outcome)
                if reason:
                    raise SystemExit(f"audit seed {seed} {task.key}: {reason}")
                packed.append(workloads.digest(outcome.out, workloads.AUDIT_DIGEST))
            golden["audit"][f"{instances}:{seed}"] = "".join(packed)
            print(f"recorded audit {instances}:{seed}", flush=True)
    return golden


def main() -> int:
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    golden = record(os.path.join(root, ".perfbench_out", "golden"))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden['cli'])} CLI goldens and {len(golden['audit'])} audit seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
