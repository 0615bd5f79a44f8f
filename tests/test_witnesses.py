"""Every ``raise`` of a category, scwol, group, functor, naturality,
homomorphism, coherence, missing-value, weighting, manifest, groupoid or
unknown-object rejection, and of a plain ``ValidationError``, in the library
passes ``witness=``, so the exception carries the offending data as well as
its message.  Only the standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(SRC.glob("*.py"))
CHECKED = {
    "NotAFunctor", "NotAFunctorAction", "NotAHomomorphism", "NotAHomomorphismAction",
    "DanglingReference", "BrokenIdentity", "IncompleteCompositionTable", "NonAssociative",
    "NotNatural", "CoherenceFailure", "MissingValue", "NoWeighting", "ValidationError",
    "NotScwol", "NotAGroup", "BadManifest", "NotGroupoid", "UnknownObject",
}


def checked_raises(source: str) -> list[tuple[int, str, bool]]:
    """``(line, class, has_witness)`` for each raise of a CHECKED class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        call = exc if isinstance(exc, ast.Call) else None
        func = call.func if call else exc
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in CHECKED:
            has_witness = call is not None and any(k.arg == "witness" for k in call.keywords)
            found.append((node.lineno, name, has_witness))
    return found


def raises_without_witness(source: str) -> list[str]:
    return [f"line {line}: {name}" for line, name, ok in checked_raises(source) if not ok]


def test_the_check_sees_a_raise_without_witness():
    source = (
        "raise NotAFunctor('a')\n"
        "raise errors.NotAHomomorphism('b', witness={})\n"
        "raise NotAFunctorAction\n"
        "raise ValueError('c')\n"
    )
    assert raises_without_witness(source) == ["line 1: NotAFunctor", "line 3: NotAFunctorAction"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_rejection_carries_a_witness(path):
    assert raises_without_witness(path.read_text(encoding="utf-8")) == []


def test_every_checked_class_is_raised():
    """The scan is not vacuous: each class has a raise site in the library."""
    raised = {name for p in MODULES for _, name, _ in checked_raises(p.read_text(encoding="utf-8"))}
    assert raised == CHECKED
