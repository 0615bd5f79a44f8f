"""No library function builds a homotopy colimit only to take its chi_L.

Leinster's chi_L depends only on the hom counts, and those of a homotopy
colimit are read off its diagram (``hocolim._total_chi_L``) or its complex
of groups (``groupact._hocolim_chi_L``).  A total category is built only
where its morphisms are read.  This scan fails if any module calls
``chi_L`` directly on a freshly built total: ``hocolim_groups(...)``,
``_grothendieck(...)``, ``grothendieck_pseudo(...)`` or
``grothendieck(...).category``.  Only the standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(SRC.glob("*.py"))
BUILDERS = {"hocolim_groups", "_grothendieck", "grothendieck_pseudo"}


def called_name(node) -> str | None:
    """The name a call calls, by name or attribute; None for no call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def builds_a_total(node) -> bool:
    if called_name(node) in BUILDERS:
        return True
    return (isinstance(node, ast.Attribute) and node.attr == "category"
            and called_name(node.value) == "grothendieck")


def chi_L_of_built_totals(source: str) -> list[int]:
    """The lines that call ``chi_L`` on a total built in the same expression."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if called_name(node) == "chi_L" and node.args and builds_a_total(node.args[0])
    )


def test_the_scan_sees_every_spelling():
    source = (
        "chi_L(hocolim_groups(c))\n"
        "ratlin.chi_L(groupact.hocolim_groups(c))\n"
        "R(chi_L(_grothendieck(d)))\n"
        "chi_L(grothendieck_pseudo(p))\n"
        "chi_L(grothendieck(d).category)\n"
        "chi_L(cat)\n"
        "chi_L(grothendieck(d).diagram.index)\n"
        "chi_scwol(hocolim_groups(c))\n"
        "_total_chi_L(d)\n"
    )
    assert chi_L_of_built_totals(source) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_chi_L_of_a_built_total(path):
    assert chi_L_of_built_totals(path.read_text(encoding="utf-8")) == []
