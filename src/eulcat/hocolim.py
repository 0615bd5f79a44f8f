"""Grothendieck constructions (homotopy colimits) of diagrams of finite
categories, finite cell models encoded as spectra of per-object cell counts,
and the executable cross-check of the homotopy colimit formula.

One builder serves strict and pseudo diagrams alike.  It reads a checked
diagram on index arrays (``_IndexView``): the rows of the index, the
vertices' rows, each edge's arrays and the coherence components by index,
which are identities for a strict diagram.  A pseudo diagram holds each
coherence isomorphism as its table of components, as its manifest does:
the edges already fix the functors it runs between.  The builder writes
the total's endpoints, identities and inverses as integer arrays
(``_TotalRows``, the ``_ends`` of a ``_Total``) with the plan that numbered
them; its composition rows and names are made off the plan when first
read, and kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import EulcatError, ValidationError, _trusted
from .eulerchar import _scwol_weights, chi_scwol, chi2_free_EI, groupoid_chi2
from .fincat import (
    CatFunctor,
    FinCat,
    _Ends,
    _OnFirstRead,
    _Rows,
    _check_natural,
    _composite_arrays,
    _identity_arrays,
    _inverse_search,
    _is_groupoid,
    _is_scwol,
    _iso_roots,
    _require_scwol,
    _skeleton_category,
    _skeleton_path_counts,
)
from .groups import _positions
from .ratlin import NoWeighting, Weighting, _chi_L_of_rows, chi_L
from .zoo import (
    discrete_category,
    parallel_pair_scwol,
    pushout_scwol,
    subset_label,
    subsets_poset_opposite,
)

INVARIANTS = ("chiL", "chi2", "chi_scwol")


class CoherenceFailure(ValidationError):
    """Pseudofunctor coherence (naturality, units, or cocycle) fails."""


class MissingValue(EulcatError):
    """A per-object value required by a formula is absent."""


class UnknownKind(EulcatError):
    """No built-in cell model with that name."""


class ForeignSpectrum(ValidationError):
    """A supplied spectrum's alternating sums are no weighting on the
    diagram's index category."""


def _is_composite(first: CatFunctor, second: CatFunctor, fun: CatFunctor) -> bool:
    """Whether ``fun`` has the maps of ``first`` then ``second``, composed key
    by key: an extra key of ``first`` is kept, and one that ``second`` does
    not map fails the compare."""
    return (dict(fun.obj_map), dict(fun.mor_map)) == (
        {x: second.obj_map.get(y) for x, y in first.obj_map.items()},
        {m: second.mor_map.get(n) for m, n in first.mor_map.items()})


def _check_vertices_and_edges(d: Diagram) -> None:
    """Every index object has a vertex category and every index morphism a
    functor between the vertex categories at its endpoints."""
    for i in d.index.objects:
        if i not in d.vertex:
            raise ValidationError(f"no vertex category at {i!r}", witness={"object": i})
    for m, x, y in d.index._arrows():
        fun, at = d.edge.get(m), {"morphism": m}
        if fun is None:
            raise ValidationError(f"no functor along {m!r}", witness=at)
        if fun.source is not d.vertex[x] or fun.target is not d.vertex[y]:
            raise ValidationError(f"functor along {m!r} has wrong endpoints", witness=at)


@dataclass(frozen=True, eq=False)
class StrictDiagram:
    """A strict functor from a finite index category into finite categories.

    The check reads the diagram on index arrays (``_IndexView``), with
    every edge's own arrays, and the diagram keeps that view (``_view``) for
    the builder and the hom counts, as a ``PseudoDiagram`` does."""

    index: FinCat
    vertex: Mapping[str, FinCat]
    edge: Mapping[str, CatFunctor]

    def __post_init__(self):
        _check_vertices_and_edges(self)
        # compared on the edges' arrays, and by maps where one has a stray key (no identity has)
        view = _IndexView(self)
        r, edges, arrays = view.rows, view.edges, view.arrays
        stray = [f._has_stray_key() for f in edges]
        for x, e, cat in zip(self.index.objects, r.ident, view.vertex):
            if stray[e] or arrays[e] != _identity_arrays(cat):
                raise ValidationError(f"edge at id_{x!r} is not the identity functor",
                                      witness={"object": x})
        names, ids = r.names, set(r.ident)  # a pair with an identity holds by the above
        for v, u, vu in r.entries():
            by_maps = stray[u] or stray[v] or stray[vu]
            if not (_is_composite(edges[u], edges[v], edges[vu]) if by_maps else u in ids or v in ids
                    or _composite_arrays(arrays[u], arrays[v]) == arrays[vu]):
                v, u, vu = names[v], names[u], names[vu]
                raise ValidationError(f"strictness fails: edge({vu!r}) != edge({v!r}) o edge({u!r})",
                                      witness={"pair": (v, u)})
        object.__setattr__(self, "_view", view)


@dataclass(frozen=True, eq=False)
class PseudoDiagram:
    """A pseudo functor: vertex/edge data plus coherence isomorphisms, given
    by their components, in the tables a ``pseudo_diagram`` manifest stores.

    ``comp[(v, u)][c]`` is the component at the object c of C(source(u)) of
    a natural isomorphism C(v) o C(u) => C(v o u), and ``unit[i][c]`` the
    component at c of a natural isomorphism Id => C(id_i).  The diagram fixes
    the source and target functors, so each table is checked against them
    (``fincat._check_natural``, on the edges' int arrays); together the
    tables must satisfy the pseudofunctor unit and associativity axioms,
    checked on every composable pair and triple.  Every composite is read
    off the integer rows of the index and the vertices, and names come back
    only to report a failure.  The builder reads the check's ``_IndexView``.
    """

    index: FinCat
    vertex: Mapping[str, FinCat]
    edge: Mapping[str, CatFunctor]
    comp: Mapping[tuple[str, str], Mapping[str, str]]
    unit: Mapping[str, Mapping[str, str]]

    def __post_init__(self):
        _check_vertices_and_edges(self)
        view = _IndexView(self)
        r, vrows, arrays = view.rows, view.vrows, view.arrays
        view.unit = unit = []
        for i, e, ci, ri in zip(self.index.objects, r.ident, view.vertex, vrows):
            components = self.unit.get(i)
            if components is None:
                raise CoherenceFailure(f"no unit isomorphism at {i!r}", witness={"object": i})
            unit.append(_check_natural(ci, ri, ci, ri, _identity_arrays(ci), arrays[e],
                                       components, f"unit at {i!r}"))
        # comp[u][v]: the components of the comp table at (v, u), by index
        view.comp = comp = [{} for _ in r.names]
        for (v, u), components in self.comp.items():
            vi, ui = r.index.get(v), r.index.get(u)
            if vi is None or ui is None or r.src[vi] != r.tgt[ui]:
                raise CoherenceFailure(
                    f"comp given for non-composable pair ({v!r}, {u!r})", witness={"pair": (v, u)}
                )
            vu, s, t = r.rows[ui][r.pos[vi]], r.src[ui], r.tgt[vi]
            comp[ui][vi] = _check_natural(
                view.vertex[s], vrows[s], view.vertex[t], vrows[t],
                _composite_arrays(arrays[ui], arrays[vi]), arrays[vu], components,
                f"comp at {(v, u)!r}")
        # every key of comp is a composable pair, so fewer keys misses one
        if len(self.comp) != sum(map(len, r.rows)):
            for vi, ui in r.pairs():
                v, u = r.names[vi], r.names[ui]
                if (v, u) not in self.comp:
                    raise CoherenceFailure(
                        f"no comp isomorphism at ({v!r}, {u!r})", witness={"pair": (v, u)}
                    )

        self._check_unit_axioms(view, arrays)
        self._check_associativity_axiom(view, arrays)
        object.__setattr__(self, "_view", view)

    def _check_unit_axioms(self, view: "_IndexView", arrays: list):
        """Both unit axioms at every index morphism and object of its source,
        read off the rows of the target vertex, on the view ``__post_init__``
        builds, with the checked components, and the edges' arrays."""
        r, vrows, unit, comp = view.rows, view.vrows, view.unit, view.comp
        for u, m in enumerate(r.names):
            s_i, t_i = r.src[u], r.tgt[u]
            rows, pos, ident = vrows[t_i].rows, vrows[t_i].pos, vrows[t_i].ident
            fo, fm = arrays[u]
            right, left = comp[r.ident[s_i]][u], comp[u][r.ident[t_i]]
            unit_s, unit_t = unit[s_i], unit[t_i]
            for c, x in enumerate(fo):
                # C_{u, id} o (C(u) . unit_source) = 1, then C_{id, u} o (unit_target at C(u)c) = 1
                side = ("right" if rows[fm[unit_s[c]]][pos[right[c]]] != ident[x] else
                        "left" if rows[unit_t[x]][pos[left[c]]] != ident[x] else None)
                if side is not None:
                    obj = view.vertex[s_i].objects[c]
                    raise CoherenceFailure(f"{side} unit axiom fails for {m!r} at object {obj!r}",
                                           witness={"morphism": m, "object": obj})

    def _check_associativity_axiom(self, view: "_IndexView", arrays: list):
        """The associativity axiom on every composable triple and object,
        read off the rows of the target vertex, in the order of the index's
        morphisms and of those out of each object (``_Rows.out``); the
        arguments are those of ``_check_unit_axioms``."""
        r, vrows, comp = view.rows, view.vrows, view.comp
        names, idx_rows, out = r.names, r.rows, view.out
        for u in range(len(names)):
            fo_u = arrays[u][0]
            for v, vu in zip(out[r.tgt[u]], idx_rows[u]):
                c_vu = comp[u][v]
                for w, wv in zip(out[r.tgt[v]], idx_rows[v]):
                    rows, pos, fm_w = vrows[r.tgt[w]].rows, vrows[r.tgt[w]].pos, arrays[w][1]
                    c_w_vu, c_wv_u, c_wv = comp[vu][w], comp[u][wv], comp[v][w]
                    for c, x in enumerate(fo_u):
                        if rows[fm_w[c_vu[c]]][pos[c_w_vu[c]]] != rows[c_wv[x]][pos[c_wv_u[c]]]:
                            obj = view.vertex[r.src[u]].objects[c]
                            triple = (names[w], names[v], names[u])
                            raise CoherenceFailure(
                                f"associativity coherence fails on triple "
                                f"{triple!r} at object {obj!r}",
                                witness={"triple": triple, "object": obj},
                            )

    @staticmethod
    def from_strict(d: StrictDiagram) -> "PseudoDiagram":
        """View a strict diagram as a pseudo diagram with identity coherences
        (their own inverses), lawful unchecked since the diagram is strict,
        on the strict diagram's ``_IndexView``."""
        view = _index_view(d)
        r, ids = view.rows, [[vr.names[e] for e in vr.ident] for vr in view.vrows]
        comp = {(r.names[v], r.names[u]): dict(zip(view.vertex[r.src[u]].objects, map(
            ids[r.tgt[v]].__getitem__, view.image[vu]))) for v, u, vu in r.entries()}
        unit = {i: dict(zip(cat.objects, units))
                for i, cat, units in zip(d.index.objects, view.vertex, ids)}
        return _trusted(PseudoDiagram, index=d.index, vertex=d.vertex, edge=d.edge, comp=comp,
                        unit=unit, _view=view)


class _IndexView:
    """A checked diagram on index arrays: the index's ``rows`` and ``out``
    (``_Rows.out``); by index object, the vertices and their rows; by index
    morphism u, the edge, its ``_arrays`` (``arrays``) and C(u) on objects
    (``image``); and the coherence components as morphisms of their vertex,
    ``unit[i][c]`` at the object c of C(i) and ``comp[u][v][c]`` at the
    object c of C(source(u)), None if identities.

    A diagram has one view for its whole life, kept as its ``_view``: the
    one its check built, its strict diagram's (``from_strict``), or the one
    ``_index_view`` made on first use (for a random groupoid diagram, at its
    draw), with no derived result."""

    __slots__ = ("rows", "out", "vertex", "vrows", "edges", "arrays", "image", "unit", "comp")

    def __init__(self, d: Diagram):
        self.rows = r = d.index._ends
        self.out, self.unit, self.comp = r.out(), None, None
        self.vertex = vertex = [d.vertex[i] for i in d.index.objects]
        self.vrows = [cat._ends for cat in vertex]
        self.edges = edges = [d.edge[m] for m in r.names]
        self.arrays = [f._arrays for f in edges]
        self.image = [fo for fo, _ in self.arrays]

    def inv_units(self, i: int) -> list[int]:
        """The inverse of the unit component at each object of C(i)."""
        vr = self.vrows[i]
        return vr.ident if self.unit is None else list(map(vr.inv.__getitem__, self.unit[i]))

    def inv_comp(self, v: int, u: int, c: int) -> int:
        """The inverse of the comp component C(v) o C(u) => C(v o u) at c."""
        vr = self.vrows[self.rows.tgt[v]]
        return (vr.ident[self.image[v][self.image[u][c]]] if self.comp is None
                else vr.inv[self.comp[u][v][c]])


def _index_view(d: Diagram) -> _IndexView:
    """The ``_IndexView`` of ``d``: the one its check kept (or, for
    ``from_strict``, its strict diagram's), or else, for a diagram built
    unchecked (``constant_diagram``, ``complex_to_pseudo_diagram``), one
    made now and kept, with the components read off a pseudo diagram's tables."""
    if "_view" in vars(d):
        return d._view
    view = _IndexView(d)
    if isinstance(d, PseudoDiagram):
        r, vrows = view.rows, view.vrows
        view.unit = [list(map(vr.index.__getitem__, map(d.unit[i].__getitem__, cat.objects)))
                     for i, cat, vr in zip(d.index.objects, view.vertex, vrows)]
        view.comp = [{} for _ in r.names]
        for (v, u), components in d.comp.items():
            vi, ui = r.index[v], r.index[u]
            view.comp[ui][vi] = list(map(vrows[r.tgt[vi]].index.__getitem__, map(
                components.__getitem__, view.vertex[r.src[ui]].objects)))
    object.__setattr__(d, "_view", view)
    return view


Diagram = Union[StrictDiagram, PseudoDiagram]


def _pair_obj(i: str, c: str) -> str:
    return f"({i},{c})"


def _triple_mor(u: str, f: str, c: str) -> str:
    # the source vertex object c is needed for uniqueness: distinct sources
    # can share (u, f) when C(u) is not injective on objects
    return f"({u},{f})@{c}"


@dataclass(frozen=True, eq=False)
class GrothendieckResult:
    """The homotopy colimit of a strict diagram, with the diagram."""

    category: FinCat
    diagram: StrictDiagram

    @property
    def alphas(self) -> dict[str, CatFunctor]:
        """The inclusions alpha_i: C(i) -> hocolim, f |-> (id_i, f), built on
        every access and unchecked: (id_i, g) o (id_i, f) = (id_i, g o f).
        (id_i, f)@c is ``pos[f]`` after ``starts[id_i][c]`` (``_Numbering``)."""
        plan, alphas = self.category._ends.plan, {}
        for (first, order), e, i, ci in zip(plan.place, plan.view.rows.ident,
                                            self.diagram.index.objects, plan.view.vertex):
            fm = [plan.starts[e][c] + order.pos[f] for f, c in enumerate(ci._ends.src)]
            alphas[i] = _trusted(CatFunctor, source=ci, target=self.category,
                                 _arrays=(list(range(first, first + len(ci))), fm))
        return alphas


class _Total(FinCat):
    """A Grothendieck total as ``_grothendieck`` writes it: its ``_ends``
    are a ``_TotalRows``, and its objects, like every name field of a
    FinCat, are made on their first read, off the plan the rows keep."""

    objects = _OnFirstRead()

    def _make(self, attr: str) -> None:
        """Store the name field ``attr`` on the instance: the object names
        here, the rest as every FinCat does."""
        if attr == "objects":
            self.__dict__[attr] = tuple(self._ends.objects)
        else:
            super()._make(attr)


class _TotalRows(_Rows):
    """The rows of a Grothendieck total: ``src``, ``tgt``, ``ident`` and
    ``inv`` as ``_grothendieck`` writes them, and ``plan``, the
    ``_Numbering`` that names and composes its morphisms, and no entry
    order, as a written store.  The composition rows, ``pos``, the names
    and both indexes are made off the plan on their first read and kept
    (``_OnFirstRead``), so what ``classify``, ``len`` and the hom counts
    read makes none."""

    rows = _OnFirstRead()
    pos = _OnFirstRead()
    names = _OnFirstRead()
    index = _OnFirstRead()
    objects = _OnFirstRead()

    def __init__(self, src: list[int], tgt: list[int], ident: list[int], inv: dict[int, int],
                 plan: _Numbering):
        _Ends.__init__(self, src, tgt, ident, inv)
        self.plan, self.order, self.gens = plan, None, None

    def _make(self, attr: str) -> None:
        plan, fields = self.plan, self.__dict__
        if attr == "rows":
            fields[attr] = plan.composites()
        elif attr == "pos":
            fields[attr] = tuple(_positions(self.src, len(self.ident))[0])
        elif attr == "names":
            fields[attr] = plan.morphism_names()
        else:
            fields[attr] = {x: k for k, x in enumerate(
                self.names if attr == "index" else plan.object_names())}


class _VertexOrder:
    """The morphisms of a vertex category C out of each object x, in the
    order (u, f)@c lists them when C(u)(c) = x: by target object, then in
    morphism order, which is Hom(x, e) for each e in turn; read off
    ``C._ends``, with no name.  ``out[x]`` holds the morphism indices and
    ``ends[x]`` the target indices; ``pos[f]`` is the place of f in the
    list of its source.  Each list is made in index order and sorted by
    target, a stable sort, so ties stay in index order."""

    __slots__ = ("out", "ends", "pos")

    def __init__(self, arrays: _Rows):
        self.out, self.pos, target = arrays.out(), {}, arrays.tgt.__getitem__
        for fs in self.out:
            fs.sort(key=target)
            self.pos.update(zip(fs, range(len(fs))))
        self.ends = [list(map(target, fs)) for fs in self.out]


class _Numbering:
    """How ``_grothendieck`` numbered a total, kept to name and compose its
    morphisms on request, on the diagram's ``_IndexView``.

    ``place[i]`` is the index of the first object (i, c) and the
    ``_VertexOrder`` of C(i); ``starts[u][k]`` is the index of the first
    morphism (u, f)@c, for the k-th object c of C(source(u)); ``blocks``
    holds each run of morphisms (u, f)@c with u and c fixed, as
    (i, k, u, j, x) in morphism order, where u: i -> j and x is the index
    of C(u)(c) in C(j)."""

    __slots__ = ("view", "place", "starts", "blocks")

    def __init__(self, view: _IndexView):
        self.view, self.place, self.blocks = view, [], []
        self.starts = [[] for _ in view.rows.src]

    def object_names(self) -> tuple[str, ...]:
        return tuple([_pair_obj(i, c) for i, cat in zip(self.view.rows.objects, self.view.vertex)
                      for c in cat.objects])

    def morphism_names(self) -> list[str]:
        view, place = self.view, self.place
        index, names = view.rows.names, []
        for i, k, u, j, x in self.blocks:
            c, fs = view.vertex[i].objects[k], view.vrows[j].names
            names += [_triple_mor(index[u], fs[f], c) for f in place[j][1].out[x]]
        return names

    def composites(self) -> list[tuple[int, ...]]:
        """The composition rows (``fincat._Rows``), in index order, made off
        the view.  The morphisms out of (j, e) are the (v, g)@e, v out of j
        in turn, then g by the order of C(t(v)) (``_VertexOrder``); so row m = (u, f)@c
        lists the (v, g)@e o (u, f)@c = (v o u, g o C(v)(f) o comp_inv(v, u, c))@c
        in that order, each the morphism base + pos[h[cell[g]]]: h is the row
        of C(v)(f) o comp_inv(v, u, c) in its vertex, ``cell`` the vertex's
        ``fincat._Rows.pos``, base the first morphism (v o u, -)@c and pos
        the place of each morphism of that vertex in its list."""
        view, place, starts, r, rows = self.view, self.place, self.starts, self.view.rows, []
        for i, k, u, j, x in self.blocks:
            # per v out of j: everything about (v o u, c) that does not depend on f
            steps = []
            for v, vu in zip(view.out[j], r.rows[u]):
                vr, order = view.vrows[r.tgt[v]], place[r.tgt[v]][1]
                steps.append((vr.rows, vr.rows[view.inv_comp(v, u, k)], *view.arrays[v], vr.pos,
                              starts[vu][k], order.out, order.pos))
            order_j = place[j][1]
            rows += [tuple([base + pos[h[cell[g]]]
                            for v_rows, after_inv, obj_image, mor_image, cell, base, out, pos in steps
                            for h in [v_rows[after_inv[cell[mor_image[f]]]]]
                            for g in out[obj_image[e]]])
                     for f, e in zip(order_j.out[x], order_j.ends[x])]
        return rows


def _grothendieck(d: Diagram) -> FinCat:
    """The Grothendieck construction of a strict or pseudo diagram, written
    as the integer arrays of a ``_Total``'s rows (``_TotalRows``) off the
    diagram's ``_IndexView``.

    Objects are pairs (i, c); a morphism (i,c) -> (j,e) is a pair (u, f)
    with u: i -> j and f: C(u)(c) -> e, named ``(u,f)@c``.  Composition is
    (v, g) o (u, f) = (v o u, g o C(v)(f) o comp_inv(v, u, c)) and the
    identity of (i, c) is (id_i, unit_inv(i, c)), with the coherence
    inverses read off the view (identities for a strict diagram).
    No law is checked: the diagram's checks make it a category (arXiv:1007.3868).

    The objects are numbered i-major and the morphisms (u, f)@c by i, then
    c, then u in the index's morphism order, then f by target and in the
    morphism order of C(j) (``_VertexOrder``).  The builder writes the
    endpoints, the identities and the inverses as indices, off the index's
    and the vertices' rows and the edges' arrays, reading no name, and
    keeps the plan (``_Numbering``); the composition rows, the names and
    the table are made on first read.

    When the index is directly finite (every scwol and every EI category
    is), the inverse data is read off the diagram:

    - (u, f)@c is invertible exactly when u is invertible in the index and f
      in C(j).  If (v, g) is its inverse, v is u's, and g o C(v)(f) and
      f o C(u)(g) are isomorphisms, so f has a right inverse and C(v)(f) a
      left one; C(v) is an equivalence, so f is invertible.
    - Its inverse is then (u^-1, g)@e with
      g = unit_inv(i, c) o comp_inv(u^-1, u, c)^-1 o C(u^-1)(f^-1): composed
      after (u, f) it gives (id_i, unit_inv(i, c)), since C(u^-1) is a
      functor, and a left inverse of an invertible arrow is its inverse.
    - The total is directly finite exactly when every C(i) is.  A left
      inverse (v, g) of (u, f) has v o u = id_i, so u is invertible, and
      g o C(v)(f) is an isomorphism: a one-sided inverse in C(i), which
      makes C(v)(f), and so f, invertible when C(i) is directly finite.
      Conversely, f |-> (id_i, f o unit_inv(i, c)) embeds C(i) faithfully.

    Over any other index the composition rows are made at once, kept as
    the total's rows, and searched for inverses
    (``fincat._inverse_search``), and direct finiteness comes from that
    search.
    """
    view = _index_view(d)
    plan, r = _Numbering(view), view.rows
    place, starts, blocks = plan.place, plan.starts, plan.blocks
    # keyed by the rows, which equal vertices of one manifest share
    orders = {ends: _VertexOrder(ends) for ends in dict.fromkeys(cat._ends for cat in view.vertex)}
    offset = itertools.accumulate(map(len, view.vertex), initial=0)
    place += [(n, orders[cat._ends]) for n, cat in zip(offset, view.vertex)]
    # shifted[i][x]: the target indices of the morphisms out of (i, x)
    shifted = [[[n + e for e in ends] for ends in order.ends] for n, order in place]

    src: list[int] = []
    tgt: list[int] = []
    for i, us in enumerate(view.out):
        first = place[i][0]
        steps = [(u, r.tgt[u], view.image[u], shifted[r.tgt[u]], starts[u]) for u in us]
        for k in range(len(view.vertex[i])):
            for u, j, image, ends, start in steps:
                x = image[k]
                start.append(len(src))
                blocks.append((i, k, u, j, x))
                tgt += ends[x]
                src += [first + k] * len(ends[x])

    # (id_i, unit_inv(i, c))@c
    ident = [starts[e][k] + place[i][1].pos[g]
             for i, e in enumerate(r.ident) for k, g in enumerate(view.inv_units(i))]

    ends = _TotalRows(src, tgt, ident, None, plan)
    if d.index._directly_finite:
        ends.inv = _lifted_inverses(plan)
        directly_finite = all(cat._directly_finite for cat in view.vertex)
    else:
        ends.inv, directly_finite = _inverse_search(ends.rows, ends.pos, src, tgt, ident)
    return _trusted(_Total, name=f"hocolim({d.index.name})", _ends=ends,
                    _directly_finite=directly_finite)


def _lifted_inverses(plan: _Numbering) -> dict[int, int]:
    """Each invertible morphism of the total to its inverse, by index and in
    morphism order, read off the diagram's view over a directly finite index
    (see ``_grothendieck``), on the vertices' rows."""
    view, place, starts = plan.view, plan.place, plan.starts
    inv: dict[int, int] = {}
    for i, k, u, j, x in plan.blocks:
        v = view.rows.inv.get(u)
        if v is None:
            continue
        ri, order_j, inverse = view.vrows[i], place[j][1], view.vrows[j].inv
        start, pos, rows, cell = starts[v], place[i][1].pos, ri.rows, ri.pos
        # the cell of unit_inv(i, c) o comp_inv(v, u, c)^-1: C(v)C(u)(c) -> c;
        # none is needed in a strict diagram at u = id_i, where C(v) is the identity
        plain = view.comp is None and u == view.rows.ident[i]
        back = None if plain else cell[rows[ri.inv[view.inv_comp(v, u, k)]][
            cell[view.inv_units(i)[k]]]]
        v_mor = None if plain else view.arrays[v][1]
        for q, (f, e) in enumerate(zip(order_j.out[x], order_j.ends[x]), starts[u][k]):
            g = inverse.get(f)
            if g is not None:
                inv[q] = start[e] + pos[g if back is None else rows[v_mor[g]][back]]
    return inv


def grothendieck(d: StrictDiagram) -> GrothendieckResult:
    """Homotopy colimit of a strict diagram, composed by
    (v, g) o (u, f) = (v o u, g o C(v)(f)); the inclusions
    alpha_i: C(i) -> hocolim are built on request (``.alphas``).

    The validated diagram makes the total lawful; no law is checked again.
    """
    return GrothendieckResult(_grothendieck(d), d)


def grothendieck_pseudo(d: PseudoDiagram) -> FinCat:
    """Homotopy colimit of a pseudo diagram: the strict objects and morphisms,
    with composition and identities corrected by the inverse coherence
    components.  The validated coherence makes it lawful; no law is checked again."""
    return _grothendieck(d)


def _total_counts(d: Diagram) -> tuple[list[dict[int, int]], Callable[[], list[int]]]:
    """The hom-count rows of the Grothendieck construction of a strict or
    pseudo diagram, and a function giving the least index of each of its
    isomorphism classes in increasing order, read off the diagram's
    ``_IndexView``.

    The objects (i, c) are numbered i-major, as ``_grothendieck`` lists them,
    and |Hom((i,c),(j,e))| = sum over u: i -> j of |C(j)(C(u)c, e)|: the
    coherences change composites, not the morphisms (u, f).  An isomorphism
    (u, f) needs u and f invertible, so (i,c) and (j,e) are isomorphic
    exactly when some invertible u: i -> j has C(u)c isomorphic to e in C(j).
    """
    view = _index_view(d)
    r = view.rows
    offset = list(itertools.accumulate(map(len, view.vertex), initial=0))
    n = offset.pop()
    counts = {ends: ends.hom_rows() for ends in dict.fromkeys(cat._ends for cat in view.vertex)}

    rows = []
    for i, us in enumerate(view.out):
        # per u out of i: where C(j) starts, its rows, C(u) on objects
        steps = [(offset[r.tgt[u]], counts[view.vertex[r.tgt[u]]._ends], view.image[u]) for u in us]
        for c in range(len(view.vertex[i])):
            row: dict[int, int] = {}
            for base, v_rows, image in steps:
                for e, count in v_rows[image[c]].items():
                    row[base + e] = row.get(base + e, 0) + count
            rows.append(row)

    def reps_of() -> list[int]:
        # union-find whose roots are the least members of their classes,
        # started on the classes of each vertex; C(id_i) is isomorphic to the
        # identity functor (by the unit), so only the other invertible u join
        roots = {ends: _iso_roots(cat) for ends, cat in {c._ends: c for c in view.vertex}.items()}
        root = [base + rc for base, cat in zip(offset, view.vertex) for rc in roots[cat._ends]]

        def find(k: int) -> int:
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k

        for i, us in enumerate(view.out):
            for u in us:
                if u in r.inv and u != r.ident[i]:
                    base = offset[r.tgt[u]]
                    for c, x in enumerate(view.image[u], offset[i]):
                        a, b = find(c), find(base + x)
                        root[max(a, b)] = min(a, b)
        return [k for k, rk in enumerate(root) if rk == k]

    return rows, reps_of


def _total_chi_L(d: Diagram) -> Fraction:
    """``chi_L`` of the Grothendieck construction of a strict or pseudo
    diagram from ``_total_counts``; no total category is built."""
    return _chi_L_of_rows(*_total_counts(d), f"hocolim({d.index.name})")


# -- cell spectra --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CellSpectrum:
    """Per-object, per-dimension cell counts of a finite cell model.

    The derived alternating sums q^i = sum_n (-1)^n cells[i][n] must form a
    weighting on the index category; this is verified at construction and is
    the only certificate we can check for a user-supplied model.
    """

    index: FinCat
    cells: Mapping[str, tuple[int, ...]]

    def __post_init__(self):
        for i in self.cells:
            self.index.require_object(i)
            if any(n < 0 for n in self.cells[i]):
                raise ValidationError(f"negative cell count at {i!r}", witness={"object": i})
        self.derived_weighting()  # raises NoWeighting if the equation fails

    def alternating_sum(self, i: str) -> int:
        return sum((-1) ** n * c for n, c in enumerate(self.cells.get(i, ())))

    def derived_weighting(self, index: Optional[FinCat] = None) -> Weighting:
        """The alternating sums as a weighting on ``index`` (by default the
        spectrum's own), checked in integers."""
        index = self.index if index is None else index
        values = {i: Fraction(self.alternating_sum(i)) for i in index.objects}
        return Weighting(index, values, side="weighting", unique=False)

    def objects_with_cells(self) -> tuple[str, ...]:
        return tuple(i for i in self.index.objects if any(self.cells.get(i, ())))


def bar_spectrum(cat: FinCat) -> CellSpectrum:
    """Cell counts of the bar model: one n-cell based at x per path of n
    non-identity morphisms starting at x, computed on the skeleton.  Unchecked:
    q^x = 1 - sum of q^y over the arrows x -> y, so the sums are a weighting."""
    _require_scwol(cat)
    gamma = _skeleton_category(cat)
    pc = _skeleton_path_counts(gamma, cat.name)
    return _trusted(CellSpectrum, index=gamma, cells={x: pc.starts[x] for x in gamma.objects})


def builtin_spectrum(kind: str, **kwargs) -> CellSpectrum:
    """Hand-built minimal cell models for the standard index categories.

    Kinds: "terminal" (args: cat, obj), "parallel_pair", "pushout",
    "subsets_poset" (arg: q).
    """
    if kind == "terminal":
        cat: Optional[FinCat] = kwargs.get("cat")
        obj = kwargs.get("obj")
        if cat is None or obj is None:
            raise UnknownKind("terminal spectrum needs cat=... and obj=...")
        cat.require_object(obj)
        return CellSpectrum(cat, {obj: (1,)})
    if kind == "parallel_pair":
        return CellSpectrum(parallel_pair_scwol(), {"k": (1,), "j": (0, 1)})
    if kind == "pushout":
        return CellSpectrum(pushout_scwol(), {"k": (1,), "l": (1,), "j": (0, 1)})
    if kind == "subsets_poset":
        q = kwargs.get("q")
        if q is None:
            raise UnknownKind("subsets_poset spectrum needs q=...")
        cat = subsets_poset_opposite(q)
        cells = {}
        for r in range(1, q + 2):
            for s in itertools.combinations(range(q + 1), r):
                cells[subset_label(s)] = tuple([0] * (r - 1) + [1])
        return CellSpectrum(cat, cells)
    raise UnknownKind(f"no built-in spectrum named {kind!r}")


def formula_value(spectrum: CellSpectrum, vals: Mapping[str, Fraction]) -> Fraction:
    """sum_n (-1)^n sum_{n-cells at i} vals(i)  =  sum_i q^i vals(i), q^i in integers."""
    total = 0
    for i in spectrum.objects_with_cells():
        if i not in vals:
            raise MissingValue(f"no value supplied at {i!r}", witness={"object": i})
        total += spectrum.alternating_sum(i) * vals[i]
    return Fraction(total)


# -- the homotopy colimit formula, executably ----------------------------------


def chi2_of(cat: FinCat) -> Fraction:
    """L2-Euler characteristic in the computable regimes.

    Dispatches: groupoid cardinality for groupoids, path counting for
    scwols, and the free-EI path sum otherwise.
    """
    if _is_groupoid(cat):
        return groupoid_chi2(cat)
    if _is_scwol(cat):
        return Fraction(chi_scwol(cat))
    return chi2_free_EI(cat)


def _invariant_fn(invariant: str):
    if invariant == "chiL":
        return chi_L
    if invariant == "chi2":
        return chi2_of
    if invariant == "chi_scwol":
        return lambda cat: Fraction(chi_scwol(cat))
    raise EulcatError(f"unknown invariant {invariant!r}; pick one of {INVARIANTS}")


@dataclass(frozen=True)
class FormulaReport:
    invariant: str
    lhs: Fraction
    rhs: Fraction
    vertex_values: Mapping[str, Fraction]
    equal: bool


def check_hocolim_formula(
    d: Diagram,
    invariant: str = "chiL",
    spectrum: Optional[CellSpectrum] = None,
) -> FormulaReport:
    """Compare invariant(hocolim) with the cell-model formula, exactly.

    LHS: the invariant of the Grothendieck construction, computed directly.
    For ``chiL``, strict or pseudo, that is Leinster's chi of the total
    category's hom counts, read off the diagram (``_total_chi_L``) with no
    total category built.  The other invariants take the invariant of the
    total category, built from the validated diagram with no second law
    check.
    RHS: over the bar spectrum of the index (which must then be a finite
    scwol), the sum of each skeleton object's weight times its value: the
    bar model has a 0-cell at every object of the index's skeleton, and its
    alternating cell counts are the skeleton's integer weights
    (``eulerchar._scwol_weights``), so no cell is counted.  Over an
    explicitly supplied spectrum, whose alternating sums must be a weighting
    on the diagram's index, it is ``formula_value``.  The invariant is
    computed once per distinct vertex category.
    """
    fn = _invariant_fn(invariant)
    lhs = _total_chi_L(d) if invariant == "chiL" else fn(_grothendieck(d))

    if spectrum is None:
        gamma, weights = _scwol_weights(d.index)
        objects = gamma.objects
    else:
        objects = spectrum.objects_with_cells()
    vals = {}
    invariant_of: dict[FinCat, Fraction] = {}
    for i in objects:
        if i not in d.vertex:
            raise MissingValue(
                f"spectrum object {i!r} is not an index object", witness={"object": i}
            )
        cat = d.vertex[i]
        if cat not in invariant_of:
            invariant_of[cat] = fn(cat)
        vals[i] = invariant_of[cat]
    if spectrum is None:
        rhs = Fraction(sum(w * vals[i] for w, i in zip(weights, objects)))
    else:
        if spectrum.index is not d.index:
            _check_weighting_on(spectrum, d.index)
        rhs = formula_value(spectrum, vals)
    return FormulaReport(invariant, lhs, rhs, vals, lhs == rhs)


def _check_weighting_on(spec: CellSpectrum, index: FinCat) -> None:
    """The alternating sums of ``spec`` form a weighting on ``index``, a
    category other than the one ``spec`` was verified on."""
    try:
        spec.derived_weighting(index)
    except NoWeighting as exc:
        x = exc.witness["object"]
        raise ForeignSpectrum(
            f"spectrum over {spec.index.name} is no cell model over {index.name}: "
            f"weighting equation fails at {x!r}",
            witness={"object": x},
        ) from None


def constant_diagram(index: FinCat, cat: FinCat) -> StrictDiagram:
    """``cat`` at every index object and identity edges: strict, so unchecked."""
    ident = CatFunctor.identity_functor(cat)
    return _trusted(StrictDiagram, index=index, vertex={i: cat for i in index.objects},
                    edge={m: ident for m in index.morphism_names()})


def set_diagram(index: FinCat, sets: Mapping[str, Sequence[str]],
                maps: Mapping[str, Mapping[str, str]]) -> StrictDiagram:
    """Diagram of sets encoded as a diagram of discrete categories, checked.

    ``maps[u]`` sends elements of sets[source(u)] to sets[target(u)]; maps
    for identities may be omitted.
    """
    return _set_diagram(index, sets, maps, True)


def _set_diagram(index: FinCat, sets: Mapping[str, Sequence[str]],
                 maps: Mapping[str, Mapping[str, str]], checked: bool) -> StrictDiagram:
    """``set_diagram``, checked; or else, for maps lawful by the caller's
    proof, written unchecked with its ``_index_view`` made and kept, as the
    check would keep it."""
    vertex = {i: discrete_category(sets[i], name=f"set[{i}]") for i in index.objects}
    edge = {}
    for m, i, j in index._arrows():
        if index.is_identity(m) and m not in maps:
            edge[m] = CatFunctor.identity_functor(vertex[i])
            continue
        fn, src, tgt = maps[m], vertex[i], vertex[j]
        fo = list(map(tgt._ends.objects.__getitem__, [fn[x] for x in src.objects]))
        # each morphism of a discrete category is an identity, sent to one
        arrays = fo, [tgt._ends.ident[fo[x]] for x in src._ends.src]
        edge[m] = (CatFunctor.from_arrays(src, tgt, *arrays) if checked
                   else _trusted(CatFunctor, source=src, target=tgt, _arrays=arrays))
    if checked:
        return StrictDiagram(index, vertex, edge)
    d = _trusted(StrictDiagram, index=index, vertex=vertex, edge=edge)
    _index_view(d)
    return d
