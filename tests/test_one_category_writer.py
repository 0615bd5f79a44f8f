"""No write path builds a category's payload.

A category inside a CLI report or a manifest is written straight from its
integer rows (``manifest._write_category``).  ``category_payload``, the
category as plain data with one list per composable pair, is built in
``src/`` only by ``manifest._expanded``: the expansion behind ``serialize``
and the ``json.dumps`` fallback.  This scan
fails if ``category_payload`` is called anywhere else in ``src/eulcat/``.
Only the standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = ("manifest.py", "_expanded")


def payload_calls(source: str) -> list[tuple[str, int]]:
    """The enclosing function and line of each call of ``category_payload``
    or ``<module>.category_payload`` in ``source``; ``""`` at module level."""
    calls = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Name) and func.id == "category_payload"
                    or isinstance(func, ast.Attribute) and func.attr == "category_payload"):
                calls.append((where, child.lineno))
            walk(child, where)

    walk(ast.parse(source), "")
    return calls


def test_the_scan_sees_a_planted_call():
    source = (
        "def _expanded(cat):\n"
        "    return category_payload(cat)\n"
        "def _skeleton(kind, cat, args):\n"
        "    return {'skeleton': manifest.category_payload(cat)}\n"
        "def outer():\n"
        "    def inner(c):\n"
        "        return [category_payload(c)]\n"
        "x = category_payload\n"
        "y = category_payload(c)\n"
    )
    assert payload_calls(source) == [("_expanded", 2), ("_skeleton", 4), ("inner", 7), ("", 9)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_category_payload_built_only_by_the_plain_expansion(path):
    calls = payload_calls(path.read_text(encoding="utf-8"))
    if path.name == ALLOWED[0]:
        assert [where for where, _ in calls] == [ALLOWED[1]]
    else:
        assert calls == []
