"""Library invariants are raised errors, so ``python -O`` keeps them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Forces the coweighting total away from the weighting total, so chi_L sees
# a mismatch.  The category is a split idempotent (s: y -> x, r: x -> y,
# r o s = id_y, s o r = e), whose condensate stays cyclic, so chi_L solves
# and compares both sides.  Reports through the exit code and stdout, since
# -O strips any assert the script itself would make.
SCRIPT = """
import sys
from eulcat import ratlin, zoo
from eulcat.errors import InvariantViolation

solve = ratlin._weigh

def skewed(rows, support, side, name):
    nums, den, unique = solve(rows, support, side, name)
    if side == "coweighting":
        nums = [0] * (len(nums) - 1) + [99 * den]
    return nums, den, unique

ratlin._weigh = skewed
if sys.flags.optimize != 1 or __debug__:
    print("not optimized")
    sys.exit(3)
split = zoo.build_category(
    ["x", "y"],
    [("e", "x", "x"), ("s", "y", "x"), ("r", "x", "y")],
    {("r", "s"): "id_y", ("s", "r"): "e", ("e", "e"): "e", ("e", "s"): "s", ("r", "e"): "r"},
    name="split",
)
try:
    ratlin.chi_L(split)
except InvariantViolation as exc:
    print("raised", exc.witness["weighting"], exc.witness["coweighting"])
    sys.exit(0)
print("not raised")
sys.exit(1)
"""


def test_invariant_survives_optimized_mode():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.split() == ["raised", "1", "99"]
