"""Canonical small categories used throughout the library and its tests.

Naming follows the geometry: the pushout scwol is {k <- j -> l}, the
parallel pair is {j => k}, the circle scwol is the barycentric square with
two edges and two vertices, and polygon scwols are face posets of subdivided
n-gons with arrows from edges into their endpoints.

The hand-built categories go through the checked ``FinCat`` constructor;
the one-object category of a group, the cone and the inflation are written
off their input's rows (``fincat._stored``), with the proof in the docstring.
"""

from __future__ import annotations

import itertools
from itertools import accumulate, chain
from typing import Iterable, Mapping, Sequence

from .fincat import FinCat, Morphism, _rows_of, _stored
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


def _inflated(objects: Sequence[str], r, copies: Mapping[str, int]) -> tuple[list[int], ...]:
    """The number n[x] of copies of each of the ``objects`` of the rows
    ``r`` in their inflation by ``copies``, and the first index of the
    copies (x, i) of each object and (m, i, j) of each morphism."""
    n = [max(copies.get(x, 1), 0) for x in objects]
    sizes = [n[x] * n[y] for x, y in zip(r.src, r.tgt)]
    return n, list(accumulate(n, initial=0)), list(accumulate(sizes, initial=0))


def inflate(cat: FinCat, copies: Mapping[str, int], name: str | None = None) -> FinCat:
    """Equivalence-inflation: object x becomes copies (x,0), ..., (x,m-1),
    with hom((x,i),(y,j)) a bijective copy of hom(x,y).

    The result is equivalent to the input; inflating a scwol yields a scwol
    whose skeleton is the input.  It is written off the rows of ``cat``,
    unchecked: (m, i, j) is morphism at[m] + i n[t(m)] + j (``_inflated``),
    (id_x, i, i) is the identity of (x, i), and (g, j, k) o (f, i, j) =
    (g o f, i, k) in ``cat``'s entry order, so the laws are ``cat``'s, copy
    by copy.  Its inverses are searched.
    """
    r = _rows_of(cat)
    (n, ob, at), src, tgt = _inflated(cat.objects, r, copies), r.src, r.tgt
    mors = [(m, x, y, i, j) for m, x, y in zip(r.names, src, tgt)
            for i in range(n[x]) for j in range(n[y])]
    return _stored(name or f"infl({cat.name})",
                   [f"{x}~{i}" for x, c in zip(cat.objects, n) for i in range(c)],
                   [f"{m}~{i}~{j}" for m, _, _, i, j in mors], [ob[x] + i for _, x, _, i, _ in mors],
                   [ob[y] + j for _, _, y, _, j in mors],
                   [at[e] + i * c + i for e, c in zip(r.ident, n) for i in range(c)],
                   ((at[g] + j * n[z] + k, at[f] + i * n[y] + j, at[r.rows[f][g]] + i * n[z] + k)
                    for g, f in r.pairs() for x, y, z in [(src[f], tgt[f], tgt[g])]
                    for i in range(n[x]) for j in range(n[y]) for k in range(n[z])))


def cone(cat: FinCat, apex: str = "t") -> FinCat:
    """Freely adjoin a terminal object ``apex`` (one new arrow from each
    object), written off the rows of ``cat``, unchecked.  Its morphisms are
    ``cat``'s, id_apex, then c[x] for each object x; its entries ``cat``'s,
    (id_apex, id_apex), (id_apex, c[x]) and (c[x], id_x) for each x, then
    (c[t(m)], m) = c[s(m)] for each non-identity m.  Hom(x, apex) = {c[x]}
    and Hom(apex, x) is empty for x != apex, so each composite into apex is
    the one arrow of its hom-set and no new arrow has a one-sided inverse."""
    if cat.has_object(apex):
        raise ValueError(f"object {apex!r} already present")
    r = _rows_of(cat)
    n, top, ident = len(cat), len(r.names), r.ident  # top is id_apex, top + 1 + x is c[x]
    return _stored(f"cone({cat.name})", cat.objects + (apex,),
                   [*r.names, f"id_{apex}", *(f"c[{x}]" for x in cat.objects)],
                   [*r.src, n, *range(n)], [*r.tgt, *[n] * (n + 1)], [*ident, top],
                   chain(((g, f, r.rows[f][g]) for g, f in r.pairs()), [(top, top, top)],
                         chain.from_iterable(((top, c, c), (c, e, c))
                                             for c, e in enumerate(ident, top + 1)),
                         ((top + 1 + y, m, top + 1 + x) for m, (x, y) in enumerate(zip(r.src, r.tgt))
                          if ident[x] != m)),
                   ({**r.inv, top: top}, cat._directly_finite))
