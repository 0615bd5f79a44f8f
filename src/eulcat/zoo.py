"""Canonical small categories used throughout the library and its tests.

Naming follows the geometry: the pushout scwol is {k <- j -> l}, the
parallel pair is {j => k}, the circle scwol is the barycentric square with
two edges and two vertices, and polygon scwols are face posets of subdivided
n-gons with arrows from edges into their endpoints.

The named hand-built categories go through the checked ``FinCat``
constructor.  The families hand ``fincat._stored`` their finished rows and
positions, each with its proof in its docstring: posets and free
categories on acyclic multigraphs off their indices (``_acyclic``), the
rest off their input's rows or table.
"""

from __future__ import annotations

import itertools
from itertools import accumulate, count
from typing import Iterable, Mapping, Sequence

from .fincat import FinCat, Morphism, _stored
from .groups import FinGroup, _positions


def build_category(
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    compose: Mapping[tuple[str, str], str] | None = None,
    name: str = "C",
) -> FinCat:
    """Assemble a FinCat from non-identity arrows (id_<x> added per object)
    through the checked constructor: the named hand-built categories.

    ``compose`` must cover every composable pair of non-identity arrows
    (FinCat raises IncompleteCompositionTable on a missing one); pairs
    involving identities are filled in automatically, in the layout that
    ``_acyclic`` writes.
    """
    ident = {x: f"id_{x}" for x in objects}
    mors = [Morphism(ident[x], x, x) for x in objects]
    mors += [Morphism(n, s, t) for n, s, t in arrows]
    comp = dict(compose or {})
    for m in mors:
        comp[(ident[m.target], m.name)] = m.name
        comp[(m.name, ident[m.source])] = m.name
    return FinCat(tuple(objects), tuple(mors), ident, comp, name=name)


def _acyclic(name: str, objects: Sequence[str], names: Sequence[str], src: list[int],
             tgt: list[int], composites: Iterable[Sequence[int]]) -> FinCat:
    """The category whose non-identity arrows ``names`` go from ``src`` to
    ``tgt`` (object indices), all forward in some order of the ``objects``,
    written unchecked in the layout of ``build_category`` (id_<x> is
    morphism x, arrow k is morphism len(objects) + k), with ``composites``
    the g o f of each arrow f for the arrows g out of t(f), in order.

    The laws hold by construction: in a poset (transitive, one arrow per
    hom-set) every composite is forced, and in a free category composition
    is concatenation of edge paths.  With no cycles only the identities are
    invertible, and it is directly finite.  The morphisms out of x are id_x,
    then its arrows, so row id_x is that list and row f is f, then its
    composites."""
    n, ident = len(objects), list(range(len(objects)))
    src, out, pos = ident + src, [[x] for x in ident], [0] * n
    for m, x in enumerate(src[n:], n):
        pos.append(len(out[x]))
        out[x].append(m)
    rows, pos = [*map(tuple, out), *((f, *c) for f, c in enumerate(composites, n))], tuple(pos)
    return _stored(name, objects, [*(f"id_{x}" for x in objects), *names], src, ident + tgt,
                   ident, rows, pos, ({x: x for x in ident}, True))


def _poset(name: str, objects: Sequence[str], targets: Sequence[Sequence[int]], arrow) -> FinCat:
    """The poset on ``objects`` with an arrow i -> j, named ``arrow(i, j)``,
    for each j in ``targets[i]`` (a strict order, transitively closed, each
    list in object order), written by ``_acyclic``: the arrows over i, then
    j, and the composites (j -> k) o (i -> j) = i -> k of i -> j over k."""
    at = [dict(zip(js, count(first)))  # at[i][j] is the index of i -> j
          for js, first in zip(targets, accumulate(map(len, targets), initial=len(objects)))]
    return _acyclic(name, objects, [arrow(i, j) for i, js in enumerate(targets) for j in js],
                    [i for i, js in enumerate(targets) for _ in js], [j for js in targets for j in js],
                    [[row[k] for k in targets[j]] for row in at for j in row])


def discrete_category(objects: Iterable[str], name: str = "discrete") -> FinCat:
    """The identities of ``objects`` only, in order (``_acyclic``)."""
    return _acyclic(name, tuple(objects), [], [], [], [])


def terminal_category(obj: str = "*") -> FinCat:
    return discrete_category((obj,), name="1")


def pushout_scwol() -> FinCat:
    """P = {k <- j -> l}: one arrow j->k, one arrow j->l."""
    return build_category(("j", "k", "l"), (("g", "j", "k"), ("h", "j", "l")), name="P")


def parallel_pair_scwol() -> FinCat:
    """A = {j => k}: a single pair of parallel arrows."""
    return build_category(("j", "k"), (("f0", "j", "k"), ("f1", "j", "k")), name="A")


def arrow_category() -> FinCat:
    """{0 -> 1}: one non-identity arrow into a terminal object."""
    return build_category(("0", "1"), (("a", "0", "1"),), name="arrow")


def terminal_arrow_poset() -> FinCat:
    """{a -> t}: the poset with terminal object t (alias of arrow_category)."""
    return build_category(("a", "t"), (("at", "a", "t"),), name="a->t")


def circle_scwol() -> FinCat:
    """Combinatorial circle: edges x, x2 each mapping into vertices y and z."""
    return build_category(("x", "x2", "y", "z"), (("a1", "x", "y"), ("b1", "x", "z"),
                                                  ("a2", "x2", "y"), ("b2", "x2", "z")), name="circle")


def subset_label(subset: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(subset)) + "}"


def subsets_poset_opposite(q: int) -> FinCat:
    """Opposite of the poset of non-empty subsets of {0, ..., q}.

    There is a unique arrow J -> K, named ``J>K``, exactly when K is a
    proper subset of J.  The objects are the subsets by size, then
    lexicographically; each subset's proper subsets are listed once, off
    its bitmask, and the arrows follow in ``_poset`` order.
    """
    subsets = [s for r in range(1, q + 2) for s in itertools.combinations(range(q + 1), r)]
    labels = list(map(subset_label, subsets))
    masks = [sum(1 << i for i in s) for s in subsets]
    return _poset(f"subsets_op({q})", labels,
                  [[k for k, b in enumerate(masks) if b & a == b != a] for a in masks],
                  lambda j, k: f"{labels[j]}>{labels[k]}")


def polygon_scwol(n: int) -> FinCat:
    """Face scwol of a subdivided n-gon: arrows from each edge to its endpoints.

    Objects: vertices v0..v{n-1} and edges e0..e{n-1}; edge ei has arrows
    si to vi and ti to v{(i+1) % n}, in the order s0, t0, s1, ..., and no
    composable pair of them (``_acyclic``).  For n = 2 this is the circle
    scwol shape.
    """
    if n < 2:
        raise ValueError("polygon needs at least 2 sides")
    return _acyclic(f"polygon({n})", [f"v{i}" for i in range(n)] + [f"e{i}" for i in range(n)],
                    [f"{a}{i}" for i in range(n) for a in "st"],
                    [n + i for i in range(n) for _ in "st"],
                    [y for i in range(n) for y in (i, (i + 1) % n)], [()] * (2 * n))


def one_object_category(group: FinGroup, obj: str = "*") -> FinCat:
    """The one-object category of a group, written off its Cayley table;
    its laws are the group's and its inverses the group's inverses, not
    checked again.  Row f is column f of the table."""
    n = len(group.labels)
    return _stored(f"B{group.name}", (obj,), group.labels, [0] * n, [0] * n, [group._identity],
                   list(zip(*group.table)), tuple(range(n)), (dict(enumerate(group._inverse)), True))


def contractible_groupoid(objects: Sequence[str]) -> FinCat:
    """Exactly one morphism u[x>y] between any two objects x != y (all
    invertible): u[y>z] o u[x>y] is u[x>z], or id_x when z = x."""
    objs = tuple(objects)
    return build_category(
        objs, [(f"u[{x}>{y}]", x, y) for x in objs for y in objs if x != y],
        {(f"u[{y}>{z}]", f"u[{x}>{y}]"): f"u[{x}>{z}]" if x != z else f"id_{x}"
         for x in objs for y in objs for z in objs if x != y and y != z},
        name="E(" + ",".join(objs) + ")")


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
    (g o f, i, k), so the laws are ``cat``'s, copy by copy.  Row (f, i, j)
    is the (g o f, i, k) over the g out of t(f), then k, one tuple kept by
    every j.  Inverses are searched.
    """
    r = cat._ends
    (n, ob, at), src, tgt = _inflated(cat.objects, r, copies), r.src, r.tgt
    mors = [(m, x, y, i, j) for m, x, y in zip(r.names, src, tgt)
            for i in range(n[x]) for j in range(n[y])]
    rows = [row for row_f, x, y in zip(r.rows, src, tgt) for i in range(n[x]) for row in [tuple(
        at[gf] + i * n[tgt[gf]] + k for gf in row_f for k in range(n[tgt[gf]]))] * n[y]]
    pos = tuple(_positions([ob[x] + i for _, x, _, i, _ in mors], ob[-1])[0])
    return _stored(name or f"infl({cat.name})",
                   [f"{x}~{i}" for x, c in zip(cat.objects, n) for i in range(c)],
                   [f"{m}~{i}~{j}" for m, _, _, i, j in mors], [ob[x] + i for _, x, _, i, _ in mors],
                   [ob[y] + j for _, _, y, _, j in mors],
                   [at[e] + i * c + i for e, c in zip(r.ident, n) for i in range(c)], rows, pos)


def cone(cat: FinCat, apex: str = "t") -> FinCat:
    """Freely adjoin a terminal object ``apex`` (one new arrow from each
    object), written off the rows of ``cat``, unchecked.  Its morphisms are
    ``cat``'s, id_apex, then c[x] for each object x.  Hom(x, apex) = {c[x]}
    and Hom(apex, x) is empty for x != apex, so each composite into apex is
    the one arrow of its hom-set and no new arrow has a one-sided inverse.
    Row m is ``cat``'s, then c[t(m)] o m = c[s(m)] (c[x] is the last arrow
    out of x), and the row of id_apex or c[x] is itself.  A new name that a
    morphism of ``cat`` already has is qualified by the apex, as
    ``c[x]@apex``, so the cone of a cone has the names of both."""
    if cat.has_object(apex):
        raise ValueError(f"object {apex!r} already present")
    r = cat._ends
    n, top, ident = len(cat), len(r.names), r.ident  # top is id_apex, top + 1 + x is c[x]
    taken, new = set(r.names), [f"id_{apex}", *(f"c[{x}]" for x in cat.objects)]
    rows = [*(row + (top + 1 + x,) for row, x in zip(r.rows, r.src)), *zip(range(top, top + n + 1))]
    pos = (*r.pos, 0, *(len(r.rows[e]) for e in ident))  # c[x] after the morphisms out of x
    return _stored(f"cone({cat.name})", cat.objects + (apex,),
                   [*r.names, *(f"{m}@{apex}" if m in taken else m for m in new)],
                   [*r.src, n, *range(n)], [*r.tgt, *[n] * (n + 1)], [*ident, top], rows, pos,
                   ({**r.inv, top: top}, cat._directly_finite))
