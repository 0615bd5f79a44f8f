"""Smoke runs of the scripts under ``scripts/``, each in its own process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_demos():
    out = run_script("run_demos.py")
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "all 5 demos PASS"


def test_randomized_audit():
    out = run_script("randomized_audit.py", "--instances", "20", "--seed", "0")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAIL" not in out.stdout
