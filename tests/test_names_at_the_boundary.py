"""Names only at the boundary.

The library answers every question off integer rows (``fincat._Rows``).
The exponential isomorphism search (``are_isomorphic`` with
``_find_morphism_bijection``) and ``equal_presentation`` are test oracles
in ``tests/helpers.py``, and ``src/eulcat/`` defines none of them.  The
name-keyed ``composition`` table is read only where a table is handed in
or built by name: the checked ``FinCat`` constructor and ``FinCat.compose``,
the strictness check of a ``StrictDiagram``, ``PseudoDiagram.from_strict``,
``constant_complex`` and ``one_arrow_complex``, and the hand-built zoo
categories ``inflate`` and ``cone``.  This scan fails if a module defines
one of those names or reads ``.composition`` anywhere else; a site that no
longer reads it must leave ``ALLOWED_READS`` too.  Only the standard
library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(SRC.glob("*.py"))
FORBIDDEN_DEFS = {"are_isomorphic", "_find_morphism_bijection", "equal_presentation"}
ALLOWED_READS = {
    ("fincat.py", "FinCat.__post_init__"),
    ("fincat.py", "FinCat.compose"),
    ("hocolim.py", "StrictDiagram.__post_init__"),
    ("hocolim.py", "PseudoDiagram.from_strict"),
    ("groupact.py", "constant_complex"),
    ("groupact.py", "one_arrow_complex"),
    ("zoo.py", "inflate"),
    ("zoo.py", "cone"),
}


def scan(source: str) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """The definitions of a forbidden name (a function, class, assignment or
    import) and the reads of an attribute ``composition`` in ``source``,
    each as the dotted name of its enclosing classes and functions (``""``
    at module level) and its line."""
    defs, reads = [], []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name in FORBIDDEN_DEFS:
                    defs.append((where, child.lineno))
                inner = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                if child.id in FORBIDDEN_DEFS:
                    defs.append((where, child.lineno))
            elif isinstance(child, ast.alias):
                if (child.asname or child.name) in FORBIDDEN_DEFS:
                    defs.append((where, node.lineno))
            elif (isinstance(child, ast.Attribute) and child.attr == "composition"
                  and isinstance(child.ctx, ast.Load)):
                reads.append((where, child.lineno))
            walk(child, inner)

    walk(ast.parse(source), "")
    return defs, reads


def test_the_scan_sees_planted_definitions_and_reads():
    source = (
        "from .fincat import are_isomorphic\n"
        "class FinCat:\n"
        "    composition = None\n"
        "    def compose(self, g, f):\n"
        "        return self.composition[(g, f)]\n"
        "def equal_presentation(a, b):\n"
        "    return a.composition == b.composition\n"
        "def outer(cat):\n"
        "    def _find_morphism_bijection(a):\n"
        "        return [pair for pair in cat.composition]\n"
        "_find_morphism_bijection = None\n"
        "cat.composition = {}\n"
    )
    defs, reads = scan(source)
    assert defs == [("", 1), ("", 6), ("outer", 9), ("", 11)]
    assert reads == [("FinCat.compose", 5), ("equal_presentation", 7),
                     ("equal_presentation", 7), ("outer._find_morphism_bijection", 10)]


def test_a_planted_read_fails_the_scan():
    """Non-vacuity: ``free_aut_witness`` composing by name again is a read
    outside the boundary."""
    path = SRC / "eulerchar.py"
    source = path.read_text(encoding="utf-8")
    planted = source.replace("    r = _rows_of(cat)\n",
                             "    r = _rows_of(cat)\n    table = cat.composition\n", 1)
    assert planted != source
    assert scan(source)[1] == []
    assert [where for where, _ in scan(planted)[1]] == ["free_aut_witness"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_isomorphism_search_or_literal_equality(path):
    assert scan(path.read_text(encoding="utf-8"))[0] == []


def test_composition_read_only_at_the_boundary():
    sites = {(path.name, where) for path in MODULES
             for where, _ in scan(path.read_text(encoding="utf-8"))[1]}
    assert sites == ALLOWED_READS
