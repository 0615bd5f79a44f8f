"""Library invariants are raised errors, so ``python -O`` keeps them, and
so are the checks of the shared test helpers: ``tests/helpers.py`` and
``tests/strategies.py`` hold no bare ``assert``, which pytest rewrites only
in test modules and ``-O`` strips."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")

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


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """``script`` run by ``python -O`` with the package and the test helpers
    importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, str(TESTS), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)


def test_invariant_survives_optimized_mode():
    out = run_optimized(SCRIPT)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.split() == ["raised", "1", "99"]


# Tables that differ in name, and in the order of their composition entries,
# and one that is the same; one line per pair on stdout.
SAME_TABLE_SCRIPT = """
import sys
from eulcat import zoo
from helpers import assert_same_table, loaded

if sys.flags.optimize != 1 or __debug__:
    print("not optimized")
    sys.exit(3)
poset = zoo.subsets_poset_opposite(2)
for got, want in ((zoo.pushout_scwol(), zoo.parallel_pair_scwol()),
                  (loaded(poset, 0), loaded(poset, 1)), (poset, poset)):
    try:
        assert_same_table(got, want)
        print("same")
    except AssertionError as exc:
        print(str(exc).replace(" ", "_"))
"""


def test_same_table_checks_survive_optimized_mode():
    out = run_optimized(SAME_TABLE_SCRIPT)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.split() == ["names_differ:_'P'_!=_'A'",
                                  "subsets_op(2):_composition_tables_differ", "same"]


def bare_asserts(source: str) -> list[int]:
    """The lines of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_assert_scan_sees_planted_asserts():
    source = ("def check(a, b):\n"
              "    if a != b:\n"
              "        raise AssertionError('differ')\n"
              "    assert a == b\n"
              "class Strategy:\n"
              "    def draw(self):\n"
              "        assert self, 'empty'\n")
    assert bare_asserts(source) == [4, 7]


@pytest.mark.parametrize("name", ["helpers.py", "strategies.py"])
def test_shared_helpers_hold_no_bare_assert(name):
    assert bare_asserts((TESTS / name).read_text(encoding="utf-8")) == []
