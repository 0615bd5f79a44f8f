"""Names only at the boundary.

The library answers every question off integer rows (``fincat._Rows``).
The exponential isomorphism search (``are_isomorphic`` with
``_find_morphism_bijection``) and ``equal_presentation`` are test oracles
in ``tests/helpers.py``, and ``src/eulcat/`` defines none of them.  The
name-keyed ``composition`` table is read only where a table is handed in
or built by name: the checked ``FinCat`` constructor and
``one_arrow_complex``; ``FinCat.compose`` reads the rows, and the zoo's
``cone`` and ``inflate`` are written off them.  This scan fails if a
module defines one of those names or reads ``.composition`` anywhere else;
a site that no longer reads it must leave ``ALLOWED_READS`` too.

The Grothendieck builder's walks and Haefliger's sum read a diagram on
index arrays (``hocolim._IndexView``, ``_ends``): a second scan fails if
one of them calls a name accessor of a category or a diagram
(``CALLS_OFF_THE_VIEW``) or reads a functor's name maps.  The action layer
reads an action's arrays (``ScwolAction._arrays``) and those of the
functors it builds: a third scan fails if one of its functions
(``OFF_THE_ACTION_ARRAYS``) reads an action's name tables or a functor's
name maps (``ACTION_NAMES``).  Only the standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eulcat"
MODULES = sorted(SRC.glob("*.py"))
FORBIDDEN_DEFS = {"are_isomorphic", "_find_morphism_bijection", "equal_presentation"}
ALLOWED_READS = {
    ("fincat.py", "FinCat.__post_init__"),
    ("groupact.py", "one_arrow_complex"),
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


# the walks that read a diagram on index arrays, by module
OFF_THE_VIEW = {
    "hocolim.py": {"_grothendieck", "_Numbering.runs", "_lifted_inverses", "_total_counts"},
    "groupact.py": {"haefliger_chi"},
}
CALLS_OFF_THE_VIEW = {"morphisms_from", "target", "is_invertible", "inverse", "compose",
                      "unit_inv", "comp_inv"}
MAPS = {"obj_map", "mor_map"}


def name_reads(source: str, functions, calls=CALLS_OFF_THE_VIEW,
               maps=MAPS) -> list[tuple[str, int, str]]:
    """The calls of a name accessor in ``calls`` and the reads of an
    attribute in ``maps`` inside the ``functions`` of ``source`` (dotted
    names, as ``scan`` gives them), nested functions included, each as
    (function, line, name)."""
    found = []

    def walk(node, where, inside):
        for child in ast.iter_child_nodes(node):
            inner, within = where, inside
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
                within = inside or (inner if inner in functions else None)
            elif within and isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in calls:
                    found.append((within, child.lineno, called))
            elif (within and isinstance(child, ast.Attribute) and child.attr in maps
                  and isinstance(child.ctx, ast.Load)):
                found.append((within, child.lineno, child.attr))
            walk(child, inner, within)

    walk(ast.parse(source), "", None)
    return found


def test_the_call_scan_sees_planted_calls_and_reads():
    source = (
        "class _Numbering:\n"
        "    def runs(self):\n"
        "        def step(v):\n"
        "            return idx.compose(v, u), d.edge[v].obj_map\n"
        "        return target(u)\n"
        "    def names(self):\n"
        "        return idx.target(u)\n"
        "def haefliger_chi(cat):\n"
        "    return cat.inverse(m), fun.mor_map, fun.obj_map.get\n"
    )
    assert name_reads(source, {"_Numbering.runs", "haefliger_chi"}) == [
        ("_Numbering.runs", 4, "compose"), ("_Numbering.runs", 4, "obj_map"),
        ("_Numbering.runs", 5, "target"), ("haefliger_chi", 9, "inverse"),
        ("haefliger_chi", 9, "mor_map"), ("haefliger_chi", 9, "obj_map"),
    ]


@pytest.mark.parametrize("anchor, planted, where", [
    ("    for i, k, u, j, x in plan.blocks:\n", "        plan.index.target(u)\n",
     "_lifted_inverses"),
    ("    counts = {ends: ends.hom_rows() for ends in dict.fromkeys(cat._ends for cat in view.vertex)}\n",
     "    images = [d.edge[m].obj_map for m in r.names]\n", "_total_counts"),
], ids=["call", "map-read"])
def test_a_planted_name_read_fails_the_call_scan(anchor, planted, where):
    """Non-vacuity: a walk that reads the index or an edge by name again
    is seen."""
    source = (SRC / "hocolim.py").read_text(encoding="utf-8")
    body = source.replace(anchor, anchor + planted, 1)
    assert body != source
    assert name_reads(source, OFF_THE_VIEW["hocolim.py"]) == []
    assert [w for w, _, _ in name_reads(body, OFF_THE_VIEW["hocolim.py"])] == [where]


def function_names(source: str) -> set[str]:
    """The dotted name of every function and class in ``source``."""
    names = set()

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
                names.add(inner)
            walk(child, inner)

    walk(ast.parse(source), "")
    return names


@pytest.mark.parametrize("module", sorted(OFF_THE_VIEW))
def test_the_walks_read_no_names(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert OFF_THE_VIEW[module] <= function_names(source)
    assert name_reads(source, OFF_THE_VIEW[module]) == []


# the action layer, by module: each reads the arrays of an action, a
# projection, a retraction and rbar, and no name table
OFF_THE_ACTION_ARRAYS = {
    "groupact.py": {"quotient", "_fixers", "_carrier", "stabilizer",
                    "ScwolAction.is_free_on_objects", "skeletal_reduction", "_coordinated_choices",
                    "_complexes_agree_along", "equivariant_skeleton", "chi_theorems"},
    "manifest.py": {"_action_payload"},
    "randgen.py": {"induced_free_action", "cone_action", "inflate_action"},
}
ACTION_NAMES = {"on_objects", "on_morphisms", "act_obj", "act_mor", "obj_map", "mor_map"}


def action_name_reads(source: str, module: str) -> list[tuple[str, int, str]]:
    return name_reads(source, OFF_THE_ACTION_ARRAYS[module], calls=(), maps=ACTION_NAMES)


@pytest.mark.parametrize("module", sorted(OFF_THE_ACTION_ARRAYS))
def test_the_action_layer_reads_no_names(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert OFF_THE_ACTION_ARRAYS[module] <= function_names(source)
    assert action_name_reads(source, module) == []


@pytest.mark.parametrize("module, anchor, planted, where", [
    ("groupact.py", "    x = action.space._named().objects[obj]\n",
     "    table = action.on_objects[action.group.identity]\n", "_fixers"),
    ("groupact.py", "    (ro, rm), xr = rbar._arrays, _rows_of(fx.base)\n",
     "    images = rbar.obj_map\n", "_complexes_agree_along"),
    ("manifest.py", '        "object_action": action._tables(0),\n',
     '        "moved": action.act_obj(action.group.identity, action.space.objects[0]),\n',
     "_action_payload"),
], ids=["table", "map", "accessor"])
def test_a_planted_action_name_read_fails_the_scan(module, anchor, planted, where):
    """Non-vacuity: an action-layer function that reads a name table, a
    functor's name map or a name accessor of an action is seen."""
    source = (SRC / module).read_text(encoding="utf-8")
    body = source.replace(anchor, anchor + planted, 1)
    assert body != source
    assert action_name_reads(source, module) == []
    assert [w for w, _, _ in action_name_reads(body, module)] == [where]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_isomorphism_search_or_literal_equality(path):
    assert scan(path.read_text(encoding="utf-8"))[0] == []


def test_composition_read_only_at_the_boundary():
    sites = {(path.name, where) for path in MODULES
             for where, _ in scan(path.read_text(encoding="utf-8"))[1]}
    assert sites == ALLOWED_READS
