"""The library builds no category through the checked constructor.

``FinCat(...)`` is the checked boundary for categories built by hand, and
only ``zoo``'s hand-built examples call it.  Every other category the
library makes is written as arrays (``fincat._stored``), loaded from a
manifest (``fincat.validate``) or a Grothendieck total.  This scan fails if
``FinCat`` is called in any other module of ``src/eulcat/``.  Only the
standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = "zoo.py"


def fincat_calls(source: str) -> list[int]:
    """The lines of each call of ``FinCat`` or ``<module>.FinCat`` in
    ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name) and node.func.id == "FinCat"
                       or isinstance(node.func, ast.Attribute) and node.func.attr == "FinCat"))


def test_the_scan_sees_a_planted_call():
    source = (
        "from .fincat import FinCat\n"
        "def build():\n"
        "    return FinCat(objs, mors, ident, comp)\n"
        "x = fincat.FinCat((), (), {}, {})\n"
        "y = _trusted(FinCat, name='C')\n"
        "z = isinstance(c, FinCat)\n"
    )
    assert fincat_calls(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fincat_called_only_in_zoo(path):
    calls = fincat_calls(path.read_text(encoding="utf-8"))
    if path.name == ALLOWED:
        assert calls
    else:
        assert calls == []
