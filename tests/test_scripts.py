"""Smoke runs of the scripts under ``scripts/``, each in its own process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_run_demos():
    out = run_script("run_demos.py")
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "all 5 demos PASS"


def test_randomized_audit():
    out = run_script("randomized_audit.py", "--instances", "20", "--seed", "0")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAIL" not in out.stdout


# Runs the audit with every coweighting total off by one, so the Lemma 1.3
# cross-check (weighting and coweighting totals of each total category) has
# something to catch.
SKEWED_AUDIT = """
import runpy, sys
from eulcat import ratlin

real = ratlin.coweighting

class Skewed:
    def __init__(self, w):
        self.w = w

    def total(self):
        return self.w.total() + 1

ratlin.coweighting = lambda cat: Skewed(real(cat))
path = sys.argv[1]
sys.argv = [path, "--instances", "5", "--seed", "0"]
runpy.run_path(path, run_name="__main__")
"""


def test_randomized_audit_catches_a_skewed_coweighting():
    out = run_python("-c", SKEWED_AUDIT, str(ROOT / "scripts" / "randomized_audit.py"))
    assert out.returncode == 1, out.stdout + out.stderr
    fails = [line for line in out.stdout.splitlines() if line.startswith("LEINSTER FAIL")]
    assert len(fails) == 5, out.stdout
    assert "homotopy colimit formula: 5 instances, 5 failures" in out.stdout
