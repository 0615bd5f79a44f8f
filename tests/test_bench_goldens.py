"""The benchmark's golden digests, checked on every test run.

Each workload of ``perfbench/run.py`` runs once at its smoke-test size (about
1.5 s each).  A run exits 0 and reports ``"correct": true`` only when every
task's output matches its digest in ``perfbench/golden.json`` and the
paper's identities, among them the audit's skeletal-reduction reports.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["posets", "audit", "groups"])
def test_tiny_run_matches_goldens(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", "0", "--size", "tiny"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
