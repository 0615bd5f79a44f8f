"""No library function re-proves a paper identity on its own output.

Inputs are validated and what is built from them is trusted; a second route
to the same quantity lives in the tests as an oracle.  ``InvariantViolation``
("two routes to the same quantity disagree") is therefore raised only by
``ratlin.chi_L``, and only on a condensate that stays cyclic, where it
solves and compares both the weighting and the coweighting; on an acyclic
support it solves one side, and the tests compare both.  This scan fails if a raise of it appears in any other
module.  Only the standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {"ratlin.py"}


def invariant_raises(source: str) -> list[int]:
    """The lines that raise ``InvariantViolation``, by name or attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
        if name == "InvariantViolation":
            lines.append(node.lineno)
    return lines


def test_the_scan_sees_both_spellings():
    source = (
        "raise InvariantViolation('a', witness={})\n"
        "raise errors.InvariantViolation\n"
        "raise ValidationError('b')\n"
    )
    assert invariant_raises(source) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_run_time_reproof(path):
    found = invariant_raises(path.read_text(encoding="utf-8"))
    if path.name in ALLOWED:
        assert found, f"{path.name} no longer raises InvariantViolation; shrink ALLOWED"
    else:
        assert found == []
