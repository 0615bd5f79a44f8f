#!/usr/bin/env python3
"""Mutation analysis of named functions of ``src/eulcat``.

    python3 scripts/mutants.py module.qualname ... -- tests/file.py ...

Lists every mutant of each named function (``fincat.opposite``, or
``hocolim.StrictDiagram.__post_init__`` for a method) and runs the given
tests (files or pytest node ids) against each mutant in turn.  Operators,
after DeMillo, Lipton and Sayward, "Hints on test data selection" (1978):

- ``compare``: one comparison operator swapped: ``<`` and ``<=``, ``>`` and
  ``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``;
- ``drop_if``: an ``if`` statement's body replaced by ``pass``, a
  comprehension's ``if`` filter dropped, or a conditional expression made to
  take its ``else`` side;
- ``backwards``: a ``range(...)`` read backwards (``reversed``), or the
  iterable of any other loop or comprehension read backwards
  (``reversed(list(...))``), but not a loop whose target the loop never
  reads (``[[] for _ in xs]``), whose order cannot show;
- ``transpose``: a nested subscript ``a[i][j]`` read as ``a[j][i]``;
- ``return_early``: a ``return`` (of None) inserted after one statement of
  the function's own body;
- ``clamp``: a two-argument ``max(a, b)`` or ``min(a, b)`` read as ``a``.

A mutant whose code is the original's (``a[i][i]`` transposed) is not
listed.  ``src/`` is copied once to a temporary directory, and each mutant is
written into the copy alone: the function's lines are replaced by
``ast.unparse`` of its mutated tree, and put back after the run.  The
unmutated run goes through the same splice (every target replaced by its
own unparsed tree) and must pass, else the script stops with exit code 2.
Each run is ``pytest -x -q -p no:cacheprovider`` in a fresh process, one at
a time, with ``PYTHONPATH`` on the copy, no bytecode written and a
temporary working directory (hypothesis keeps its database there), so
nothing is written in the repository.  A run is capped at ``TIME_FACTOR``
times the unmutated run's wall time.  A mutant is killed when its run
exits non-zero, survives when it passes, and is timed out when the cap
stops it.

Prints one JSON object: the tests, the unmutated run's seconds and the cap,
then per function the mutants killed, survived and timed out, each with
its operator, line and change (old and new code, one line each, cut at 70
characters), and the totals.  One progress line per mutant goes to stderr.
The exit code is 1 when a mutant survived or timed out, 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "eulcat"
TIME_FACTOR = 5
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
        ast.IsNot: ast.Is}


def code(node: ast.AST) -> str:
    """``node``'s source on one line, cut at 70 characters."""
    text = " ".join(line.strip() for line in ast.unparse(node).splitlines())
    return text if len(text) <= 70 else text[:67] + "..."


def call_of(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(func=ast.Name(id=name, ctx=ast.Load()), args=list(args), keywords=[])


def altered(node: ast.AST, **fields) -> ast.AST:
    """A copy of ``node`` with ``fields`` replaced (its children shared)."""
    new = copy.copy(node)
    for name, value in fields.items():
        setattr(new, name, value)
    return new


def is_call_of(node: ast.AST, *names: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)


def blind_loops(fn: ast.FunctionDef) -> set[int]:
    """The ids of the loops and comprehension clauses of ``fn`` whose target
    is read nowhere in the loop: their order cannot show."""
    scopes = []
    for node in ast.walk(fn):
        if isinstance(node, ast.For):
            scopes.append(([node], node.body + node.orelse))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            parts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            parts += [part for gen in node.generators for part in (gen.iter, *gen.ifs)]
            scopes.append((node.generators, parts))
    blind = set()
    for loops, parts in scopes:
        read = {n.id for part in parts for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        blind.update(id(loop) for loop in loops if not read & {
            n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)})
    return blind


def replacements(fn: ast.FunctionDef):
    """(operator, old node, new node) for each mutant of ``fn`` but
    ``return_early``, in ``ast.walk`` order."""
    blind = blind_loops(fn)
    blind_ranges = {id(node.iter) for node in ast.walk(fn) if id(node) in blind}
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                ops = [*node.ops[:k], SWAP[type(op)](), *node.ops[k + 1:]]
                yield "compare", node, altered(node, ops=ops)
        if isinstance(node, ast.If) and not (len(node.body) == 1
                                             and isinstance(node.body[0], ast.Pass)):
            yield "drop_if", node, altered(node, body=[ast.Pass()])
        if isinstance(node, ast.IfExp):
            yield "drop_if", node, altered(node, test=ast.Constant(False))
        if isinstance(node, ast.comprehension):
            for k in range(len(node.ifs)):
                yield "drop_if", node, altered(node, ifs=node.ifs[:k] + node.ifs[k + 1:])
        if is_call_of(node, "range") and id(node) not in blind_ranges:
            yield "backwards", node, call_of("reversed", node)
        if (isinstance(node, (ast.For, ast.comprehension)) and id(node) not in blind
                and not is_call_of(node.iter, "range")):
            yield "backwards", node, altered(node, iter=call_of("reversed",
                                                                call_of("list", node.iter)))
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
                and not isinstance(node.slice, ast.Slice)
                and not isinstance(node.value.slice, ast.Slice)):
            yield "transpose", node, altered(node, value=altered(node.value, slice=node.slice),
                                             slice=node.value.slice)
        if is_call_of(node, "max", "min") and len(node.args) == 2 and not node.keywords:
            yield "clamp", node, node.args[0]


def replace(fn: ast.FunctionDef, old: ast.AST, new: ast.AST) -> None:
    """Put ``new`` where ``old`` sits in ``fn``."""
    for parent in ast.walk(fn):
        for field, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, field, new)
                return
            if isinstance(value, list) and old in value:  # nodes compare by identity
                value[value.index(old)] = new
                return
    raise LookupError("node not found")


def mutants(fn: ast.FunctionDef):
    """(operator, line, change, edit) for each mutant of ``fn``: ``edit()``
    applies it to ``fn`` in place."""
    for operator, old, new in list(replacements(fn)):
        line = old.lineno if hasattr(old, "lineno") else old.target.lineno
        ast.fix_missing_locations(ast.copy_location(new, old))
        if ast.unparse(new) != ast.unparse(old):  # a[i][i] transposed is itself
            yield (operator, line, f"{code(old)} -> {code(new)}",
                   lambda old=old, new=new: replace(fn, old, new))
    for k, stmt in enumerate(fn.body[:-1]):
        yield ("return_early", stmt.end_lineno, f"return after {code(stmt)}",
               lambda k=k: fn.body.insert(k + 1, ast.Return(value=None)))


def find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    """The function or method ``qualname`` of a module's tree."""
    scope: ast.AST = tree
    for part in qualname.split("."):
        scope = next((node for node in scope.body if getattr(node, "name", None) == part
                      and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))),
                     None)
        if scope is None:
            raise LookupError(qualname)
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise LookupError(qualname)
    return scope


def spliced(text: str, fns: list) -> str:
    """``text`` with each parsed function of ``fns`` written over its lines
    (decorators included) by ``ast.unparse``, at its indentation."""
    lines = text.splitlines(keepends=True)
    for fn in sorted(fns, key=lambda f: f.lineno, reverse=True):
        first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)]) - 1
        body = "".join(" " * fn.col_offset + line + "\n" if line else "\n"
                       for line in ast.unparse(fn).splitlines())
        lines[first:fn.end_lineno] = [body]
    return "".join(lines)


def run(tests: list[str], env: dict, cap: float | None) -> tuple[str, float]:
    """One pytest process on ``tests`` in the environment of the copy:
    ("killed", "survived" or "timed_out", wall seconds)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as cwd:
        child = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                  "no:cacheprovider", *tests], cwd=cwd, env=env,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                 start_new_session=True)
        try:
            status = child.wait(timeout=cap)
        except subprocess.TimeoutExpired:
            status = None
        finally:  # also on an interrupt: the run is in a session of its own
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
    outcome = "timed_out" if status is None else "survived" if status == 0 else "killed"
    return outcome, time.perf_counter() - start


def usage(message: str) -> int:
    print(f"mutants.py: {message}\nusage: python3 scripts/mutants.py module.qualname ... -- "
          "tests/file.py ...", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    if "--" not in argv:
        return usage("no '--' before the tests")
    cut = argv.index("--")
    targets, tests = argv[:cut], []
    for test in argv[cut + 1:]:  # absolute, as the runs start in another directory
        path, sep, node = test.partition("::")
        tests.append(str(Path(path).resolve()) + sep + node)
    if not targets or not tests:
        return usage("name at least one function and one test")
    src = ROOT / "src" / PACKAGE
    texts, found = {}, []
    for target in targets:
        module, _, qualname = target.partition(".")
        path = src / f"{module}.py"
        if not qualname or not path.is_file():
            return usage(f"{target!r} names no function of a module in {src}")
        texts.setdefault(module, path.read_text())
        try:
            find(ast.parse(texts[module]), qualname)
        except LookupError:
            return usage(f"no function {qualname!r} in {path}")
        found.append((target, module, qualname))

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", f"import {PACKAGE}; print({PACKAGE}.__file__)"],
                               env=env, cwd=tmp, capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):  # an install would hide every mutant
            print(f"mutants.py: {PACKAGE} does not import from the copy: {where.stdout}"
                  f"{where.stderr}", file=sys.stderr)
            return 2

        def write(module: str, text: str) -> None:
            (copy / "src" / PACKAGE / f"{module}.py").write_text(text)

        for module, text in texts.items():
            tree = ast.parse(text)
            write(module, spliced(text, [find(tree, q) for t, m, q in found if m == module]))
        outcome, unmutated_s = run(tests, env, None)
        if outcome != "survived":
            print("mutants.py: the unmutated run fails", file=sys.stderr)
            return 2
        cap = TIME_FACTOR * unmutated_s
        for module, text in texts.items():
            write(module, text)

        report = {"tests": argv[cut + 1:], "unmutated_s": round(unmutated_s, 2),
                  "cap_s": round(cap, 2), "functions": {}}
        for target, module, qualname in found:
            table = report["functions"][target] = {"killed": [], "survived": [], "timed_out": []}
            count = len(list(mutants(find(ast.parse(texts[module]), qualname))))
            for k in range(count):
                fn = find(ast.parse(texts[module]), qualname)
                operator, line, change, edit = list(mutants(fn))[k]
                edit()
                ast.fix_missing_locations(fn)
                write(module, spliced(texts[module], [fn]))
                outcome, seconds = run(tests, env, cap)
                table[outcome].append({"operator": operator, "line": line, "change": change})
                print(f"{target} {k + 1}/{count} {operator} line {line}: {outcome} "
                      f"({seconds:.1f} s)", file=sys.stderr, flush=True)
            write(module, texts[module])
        report["totals"] = {kind: sum(len(t[kind]) for t in report["functions"].values())
                            for kind in ("killed", "survived", "timed_out")}
    print(json.dumps(report, indent=2))
    return 1 if report["totals"]["survived"] or report["totals"]["timed_out"] else 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the copy is removed
    sys.exit(main(sys.argv[1:]))
