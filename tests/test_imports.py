"""Every name a library module imports is used in that module, every
import sits at module level, and every private module-level name
(``_name``) the library defines is used somewhere in the library; a use in
the tests does not count.

The package's ``__init__.py`` re-exports and ``from __future__`` imports are
exempt.  Only the standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def function_level_imports(source: str) -> list[str]:
    """``line n: function`` for each import inside a function body."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                f"line {node.lineno}: {func.name}"
                for node in ast.walk(func)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    return found


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level ``_name`` (a function, class
    or assigned name, not a dunder) that no module reads as a name or an
    attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}: {name}" for module, name in defined if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import json\nfrom os import path, sep\nsep\n") == [
        "line 1: json",
        "line 2: path",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_function_level_import():
    source = "import json\ndef f():\n    from os import path\n    return path\n"
    assert function_level_imports(source) == ["line 3: f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_import(path):
    assert function_level_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a": "_K = 1\n_T: int = 2\ndef _f():\n    return _K\nclass _C:\n    pass\n__all__ = []\n",
        "b": "from a import _f, _C\n_f()\n",
    }
    assert unused_private_names(sources) == ["a: _T", "a: _C"]


def test_no_unused_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []
