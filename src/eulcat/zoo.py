"""Canonical small categories used throughout the library and its tests.

Naming follows the geometry: the pushout scwol is {k <- j -> l}, the
parallel pair is {j => k}, the circle scwol is the barycentric square with
two edges and two vertices, and polygon scwols are face posets of subdivided
n-gons with arrows from edges into their endpoints.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .fincat import FinCat, Morphism, _stored
from .groups import FinGroup


def build_category(
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    compose: Mapping[tuple[str, str], str] | None = None,
    name: str = "C",
) -> FinCat:
    """Assemble a FinCat from non-identity arrows (id_<x> added per object).

    ``compose`` must cover every composable pair of non-identity arrows
    (FinCat raises IncompleteCompositionTable on a missing one); pairs
    involving identities are filled in automatically.
    """
    ident = {x: f"id_{x}" for x in objects}
    mors = [Morphism(ident[x], x, x) for x in objects]
    mors += [Morphism(n, s, t) for n, s, t in arrows]
    comp = dict(compose or {})
    for m in mors:
        comp[(ident[m.target], m.name)] = m.name
        comp[(m.name, ident[m.source])] = m.name
    return FinCat(tuple(objects), tuple(mors), ident, comp, name=name)


def discrete_category(objects: Iterable[str], name: str = "discrete") -> FinCat:
    return build_category(tuple(objects), (), name=name)


def terminal_category(obj: str = "*") -> FinCat:
    return discrete_category((obj,), name="1")


def pushout_scwol() -> FinCat:
    """P = {k <- j -> l}: one arrow j->k, one arrow j->l."""
    return build_category(
        ("j", "k", "l"), (("g", "j", "k"), ("h", "j", "l")), name="P"
    )


def parallel_pair_scwol() -> FinCat:
    """A = {j => k}: a single pair of parallel arrows."""
    return build_category(
        ("j", "k"), (("f0", "j", "k"), ("f1", "j", "k")), name="A"
    )


def arrow_category() -> FinCat:
    """{0 -> 1}: one non-identity arrow into a terminal object."""
    return build_category(("0", "1"), (("a", "0", "1"),), name="arrow")


def terminal_arrow_poset() -> FinCat:
    """{a -> t}: the poset with terminal object t (alias of arrow_category)."""
    return build_category(("a", "t"), (("at", "a", "t"),), name="a->t")


def circle_scwol() -> FinCat:
    """Combinatorial circle: edges x, x2 each mapping into vertices y and z."""
    return build_category(
        ("x", "x2", "y", "z"),
        (("a1", "x", "y"), ("b1", "x", "z"), ("a2", "x2", "y"), ("b2", "x2", "z")),
        name="circle",
    )


def subset_label(subset: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(subset)) + "}"


def subsets_poset_opposite(q: int) -> FinCat:
    """Opposite of the poset of non-empty subsets of {0, ..., q}.

    There is a unique arrow J -> K exactly when K is a subset of J.
    """
    universe = range(q + 1)
    subsets = []
    for r in range(1, q + 2):
        subsets.extend(itertools.combinations(universe, r))
    objects = [subset_label(s) for s in subsets]
    arrows = []
    compose = {}

    def arrow_name(j, k):
        return f"{subset_label(j)}>{subset_label(k)}"

    pairs = [
        (j, k)
        for j in subsets
        for k in subsets
        if set(k) < set(j)
    ]
    for j, k in pairs:
        arrows.append((arrow_name(j, k), subset_label(j), subset_label(k)))
    for j, k in pairs:
        for k2 in subsets:
            if set(k2) < set(k):
                compose[(arrow_name(k, k2), arrow_name(j, k))] = arrow_name(j, k2)
    return build_category(objects, arrows, compose, name=f"subsets_op({q})")


def polygon_scwol(n: int) -> FinCat:
    """Face scwol of a subdivided n-gon: arrows from each edge to its endpoints.

    Objects: vertices v0..v{n-1} and edges e0..e{n-1}; edge ei has arrows to
    vi and v{(i+1) % n}.  For n = 2 this is the circle scwol shape.
    """
    if n < 2:
        raise ValueError("polygon needs at least 2 sides")
    objects = [f"v{i}" for i in range(n)] + [f"e{i}" for i in range(n)]
    arrows = []
    for i in range(n):
        arrows.append((f"s{i}", f"e{i}", f"v{i}"))
        arrows.append((f"t{i}", f"e{i}", f"v{(i + 1) % n}"))
    return build_category(objects, arrows, name=f"polygon({n})")


def one_object_category(group: FinGroup, obj: str = "*") -> FinCat:
    """The one-object category of a group, written off its Cayley table;
    its laws are the group's and its inverses the group's inverses, not
    checked again.  The entries (g, f) run over g, then f, in label order."""
    n = len(group.labels)
    return _stored(f"B{group.name}", (obj,), group.labels, [0] * n, [0] * n, [group._identity],
                   ((g, f, gf) for g, row in enumerate(group.table) for f, gf in enumerate(row)),
                   (dict(enumerate(group._inverse)), True))


def contractible_groupoid(objects: Sequence[str]) -> FinCat:
    """Exactly one morphism between any two objects (all invertible)."""
    arrows = []
    compose = {}

    def nm(x, y):
        return f"u[{x}>{y}]"

    objs = tuple(objects)
    for x in objs:
        for y in objs:
            if x != y:
                arrows.append((nm(x, y), x, y))
    for x in objs:
        for y in objs:
            for z in objs:
                if x != y and y != z:
                    left = nm(y, z)
                    right = nm(x, y)
                    tgt = nm(x, z) if x != z else None
                    compose[(left, right)] = tgt if tgt else f"id_{x}"
    return build_category(objs, arrows, compose, name="E(" + ",".join(objs) + ")")


def inflate(cat: FinCat, copies: Mapping[str, int], name: str | None = None) -> FinCat:
    """Equivalence-inflation: object x becomes copies (x,0), ..., (x,m-1),
    with hom((x,i),(y,j)) a bijective copy of hom(x,y).

    The result is equivalent to the input; inflating a scwol yields a scwol
    whose skeleton is the input.
    """

    def ob(x, i):
        return f"{x}~{i}"

    def mo(m, i, j):
        return f"{m}~{i}~{j}"

    objs = []
    for x in cat.objects:
        for i in range(copies.get(x, 1)):
            objs.append(ob(x, i))
    mors = []
    ident = {}
    comp = {}
    for m in cat.morphisms:
        for i in range(copies.get(m.source, 1)):
            for j in range(copies.get(m.target, 1)):
                nm = mo(m.name, i, j)
                mors.append(Morphism(nm, ob(m.source, i), ob(m.target, j)))
                if cat.is_identity(m.name) and i == j:
                    ident[ob(m.source, i)] = nm
    for (g, f), gf in cat.composition.items():
        fs = cat.source(f)
        ft = cat.target(f)
        gt = cat.target(g)
        for i in range(copies.get(fs, 1)):
            for j in range(copies.get(ft, 1)):
                for k in range(copies.get(gt, 1)):
                    comp[(mo(g, j, k), mo(f, i, j))] = mo(gf, i, k)
    return FinCat(tuple(objs), tuple(mors), ident, comp, name=name or f"infl({cat.name})")


def two_object_ei_category(group: FinGroup, action: Mapping[str, Mapping[str, str]],
                           points: Sequence[str], name: str = "Gamma") -> FinCat:
    """EI-category with objects x, y, mor(x,y) a left G-set, aut(y) = G.

    ``action[g][s]`` is the image of point s under g; mor(x,x) = {id},
    mor(y,x) is empty, and composition g o s = action[g][s].
    """
    objs = ("x", "y")
    mors = [Morphism("id_x", "x", "x")]
    mors += [Morphism(g, "y", "y") for g in group.labels]
    mors += [Morphism(f"m{s}", "x", "y") for s in points]
    ident = {"x": "id_x", "y": group.identity}
    comp: dict[tuple[str, str], str] = {}
    for g in group.labels:
        for h in group.labels:
            comp[(g, h)] = group.mul(g, h)
        for s in points:
            comp[(g, f"m{s}")] = f"m{action[g][s]}"
    for s in points:
        comp[(f"m{s}", "id_x")] = f"m{s}"
    comp[("id_x", "id_x")] = "id_x"
    return FinCat(objs, tuple(mors), ident, comp, name=name)


def cone(cat: FinCat, apex: str = "t") -> FinCat:
    """Freely adjoin a terminal object ``apex`` (one new arrow from each object)."""
    if cat.has_object(apex):
        raise ValueError(f"object {apex!r} already present")
    objs = cat.objects + (apex,)
    mors = list(cat.morphisms)
    ident = dict(cat.identity)
    comp = dict(cat.composition)

    def nm(x):
        return f"c[{x}]"

    ident[apex] = f"id_{apex}"
    mors.append(Morphism(f"id_{apex}", apex, apex))
    comp[(f"id_{apex}", f"id_{apex}")] = f"id_{apex}"
    for x in cat.objects:
        mors.append(Morphism(nm(x), x, apex))
        comp[(f"id_{apex}", nm(x))] = nm(x)
        comp[(nm(x), cat.identity[x])] = nm(x)
    for m in cat.morphisms:
        if not cat.is_identity(m.name):
            comp[(nm(m.target), m.name)] = nm(m.source)
    return FinCat(tuple(objs), tuple(mors), ident, comp, name=f"cone({cat.name})")
