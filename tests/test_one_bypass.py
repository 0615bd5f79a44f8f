"""The library has one way past a constructor's checks.

Values derived from validated ones are built by ``errors._trusted``, which
sets the fields on ``object.__new__(cls)`` and runs no ``__post_init__``;
the tests rebuild them through the real constructors as oracles
(``helpers.assert_revalidates``).  This scan fails if ``object.__new__``
appears in any other function of ``src/eulcat/``, so every bypass stays in
one place that the oracles can name.  Only the standard library ``ast`` is
used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = ("errors.py", "_trusted")


def object_new_sites(source: str) -> list[tuple[int, str]]:
    """``(line, enclosing function)`` of each ``object.__new__`` in ``source``;
    the function is ``""`` at module level."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                sites.append((child.lineno, where))
            visit(child, where)

    visit(ast.parse(source), "")
    return sites


def test_the_scan_sees_every_site():
    source = (
        "x = object.__new__(A)\n"
        "def f():\n"
        "    return object.__new__(B)\n"
        "class C:\n"
        "    def g(self):\n"
        "        new = object.__new__\n"
        "y = A.__new__(A)\n"
    )
    assert object_new_sites(source) == [(1, ""), (3, "f"), (6, "g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_object_new_only_in_trusted(path):
    sites = object_new_sites(path.read_text(encoding="utf-8"))
    if path.name == ALLOWED[0]:
        assert [where for _, where in sites] == [ALLOWED[1]]
    else:
        assert sites == []
