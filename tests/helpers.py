"""Constructions that only the tests use, kept out of the library."""

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from random import Random

from eulcat import eulerchar, fincat, groupact, hocolim, manifest, randgen, ratlin, zoo
from typing import Mapping, NoReturn, Sequence

from eulcat.errors import EulcatError, ValidationError, _trusted
from eulcat.fincat import (
    BrokenIdentity,
    CatFunctor,
    DanglingReference,
    FinCat,
    IncompleteCompositionTable,
    Morphism,
    NonAssociative,
    NotAFunctor,
    NotGroupoid,
    NotNatural,
    _check_natural,
    _composite_arrays,
    _identity_arrays,
    _is_EI,
    _is_groupoid,
    _is_thin,
    _not_a_functor,
    _require_scwol,
    _skeleton_category,
)
from eulcat.groupact import (
    AxiomIIViolation,
    AxiomIViolation,
    NotAFunctorAction,
    NotAHomomorphismAction,
)
from eulcat.groups import FinGroup, NotAGroup, NotAHomomorphism, _positions, _require_list
from eulcat.hocolim import CoherenceFailure, _check_vertices_and_edges
from eulcat.groups import GroupHom, cyclic_group, klein_four_group, symmetric_group, trivial_group
from eulcat.hocolim import StrictDiagram, constant_diagram
from eulcat.ratlin import RatMatrix
from eulcat.zoo import terminal_category


def keyed_rows(r) -> list[dict[int, int]]:
    """The rows of ``r`` (``fincat._Rows``) re-keyed as dicts ``{g: g o f}``,
    the dict layout of a row: cell p of row f under the p-th morphism out
    of t(f), so each dict lists its keys in morphism order."""
    out = r.out()
    return [dict(zip(out[y], row)) for y, row in zip(r.tgt, r.rows)]


def positional_rows(rows, src, tgt, n_objects: int) -> list[list[int]]:
    """Dict rows ``{g: g o f}`` laid out as ``fincat._Rows`` lays them out:
    row f lists the composites of the morphisms out of t(f), in morphism
    order; KeyError if a row misses one of them."""
    out: list[list[int]] = [[] for _ in range(n_objects)]
    for m, x in enumerate(src):
        out[x].append(m)
    return [[row[g] for g in out[y]] for y, row in zip(tgt, rows)]


def dict_fill(n: int, entries) -> tuple[list[dict[int, int]], list[int]]:
    """The dict layout of ``n`` rows filled from ``entries``, the triples
    (g, f, g o f) by index in order: ``rows[f][g] = g o f``, each row's keys
    in the order of its entries, and the f of each entry, as ``_Rows`` kept
    them when its rows were dicts."""
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    order = []
    for g, f, gf in entries:
        rows[f][g] = gf
        order.append(f)
    return rows, order


def dict_pairs(rows: list[dict[int, int]], order: list[int]) -> list[tuple[int, int]]:
    """The pairs (g, f) of the dict layout in entry order: row f holds its
    keys in the order of the entries that filled them."""
    cells = [iter(row) for row in rows]
    return [(next(cells[f]), f) for f in order]


def nonidentity_paths(cat: FinCat, length: int) -> list[tuple[str, ...]]:
    """All composable tuples of ``length`` non-identity morphisms.

    Finite per length even for non-skeletal scwols (where the total number
    over all lengths is infinite and path_counts must skeletonize first).
    """
    if length == 0:
        return [()]
    paths = [
        (m.name,) for m in cat.morphisms if not cat.is_identity(m.name)
    ]
    for _ in range(length - 1):
        paths = [
            p + (n,)
            for p in paths
            for n in cat.morphisms_from(cat.target(p[-1]))
            if not cat.is_identity(n)
        ]
    return paths


def chain(n: int) -> FinCat:
    """The chain poset 0 < 1 < ... < n-1: one arrow i -> j for each i < j,
    the deepest scwol on n objects."""
    objs = tuple(str(i) for i in range(n))
    arrows = [(f"{i}<{j}", objs[i], objs[j]) for i in range(n) for j in range(i + 1, n)]
    compose = {(f"{j}<{k}", f"{i}<{j}"): f"{i}<{k}"
               for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)}
    return zoo.build_category(objs, arrows, compose, name=f"chain{n}")


def mor_count_matrix(cat: FinCat) -> RatMatrix:
    """The matrix (|mor(x, y)|) indexed by the category's object order."""
    return RatMatrix.from_rows(
        [[len(cat.hom(x, y)) for y in cat.objects] for x in cat.objects]
    )


def nat_iso_checks(f: CatFunctor, g: CatFunctor, components) -> None:
    """The checks of the former ``NatIso`` class, on two validated functors:
    ``components`` must be a natural isomorphism f => g.  A component that
    names no morphism raises KeyError, as it did there."""
    if f.source is not g.source or f.target is not g.target:
        raise NotNatural("functors are not parallel")
    cat, tgt = f.source, f.target
    for x in cat.objects:
        c = components.get(x)
        if c is None:
            raise NotNatural(f"no component at {x!r}")
        if tgt.source(c) != f.obj_map[x] or tgt.target(c) != g.obj_map[x]:
            raise NotNatural(f"component at {x!r} has wrong endpoints")
        if not tgt.is_invertible(c):
            raise NotNatural(f"component at {x!r} is not invertible")
    for m in cat.morphisms:
        lhs = tgt.compose(components[m.target], f.mor_map[m.name])
        rhs = tgt.compose(g.mor_map[m.name], components[m.source])
        if lhs != rhs:
            raise NotNatural(f"naturality fails at morphism {m.name!r}")


def corrupt_component(components, c, cat, how, rng):
    """A copy of the component table with the entry at ``c`` replaced by a
    parallel twin, a non-invertible arrow or an arrow with other endpoints
    (left as it is when ``cat`` has none), by a name that is no morphism of
    ``cat``, or dropped."""
    table = dict(components)
    old = table[c]
    ends = cat.source(old), cat.target(old)
    if how == "twin":
        twins = [m for m in cat.hom(*ends) if m != old]
        table[c] = rng.choice(twins) if twins else old
    elif how == "non-invertible":
        arrows = [m for m in cat.morphism_names() if not cat.is_invertible(m)]
        parallel = [m for m in arrows if (cat.source(m), cat.target(m)) == ends]
        table[c] = rng.choice(parallel or arrows or [old])
    elif how == "misplaced":
        arrows = [m for m in cat.morphism_names() if (cat.source(m), cat.target(m)) != ends]
        table[c] = rng.choice(arrows or [old])
    elif how == "unknown":
        table[c] = "?nosuch"
    else:
        del table[c]
    return table


# -- literal equality and the isomorphism search, as test oracles ---------------------


def equal_presentation(a: FinCat, b: FinCat) -> bool:
    """Literal equality of the underlying tables (used for round-trip tests)."""
    return (
        a.objects == b.objects
        and a.morphisms == b.morphisms
        and dict(a.identity) == dict(b.identity)
        and dict(a.composition) == dict(b.composition)
    )


def are_isomorphic(a: FinCat, b: FinCat) -> bool:
    """Decide isomorphism of two finite categories by backtracking search.

    Exponential in the worst case; intended for the small instances in tests
    (a handful of objects, hom-sets with a few elements).
    """
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return False

    def obj_signature(cat: FinCat, x: str):
        out_prof = sorted(len(cat.hom(x, y)) for y in cat.objects)
        in_prof = sorted(len(cat.hom(y, x)) for y in cat.objects)
        return (out_prof, in_prof, len(cat.hom(x, x)))

    sig_a = {x: obj_signature(a, x) for x in a.objects}
    sig_b = {x: obj_signature(b, x) for x in b.objects}
    if sorted(map(str, sig_a.values())) != sorted(map(str, sig_b.values())):
        return False

    objs = sorted(a.objects, key=lambda x: str(sig_a[x]))

    def try_objects(i: int, omap: dict[str, str], used: set[str]) -> bool:
        if i == len(objs):
            return _find_morphism_bijection(a, b, omap)
        x = objs[i]
        for y in b.objects:
            if y in used or sig_b[y] != sig_a[x]:
                continue
            if any(
                len(a.hom(x0, x)) != len(b.hom(y0, y)) or len(a.hom(x, x0)) != len(b.hom(y, y0))
                for x0, y0 in omap.items()
            ):
                continue
            omap[x] = y
            used.add(y)
            if try_objects(i + 1, omap, used):
                return True
            del omap[x]
            used.discard(y)
        return False

    return try_objects(0, {}, set())


def _find_morphism_bijection(a: FinCat, b: FinCat, omap: Mapping[str, str]) -> bool:
    mors = [m.name for m in a.morphisms if not a.is_identity(m.name)]
    mmap: dict[str, str] = {
        a.identity[x]: b.identity[omap[x]] for x in a.objects
    }
    used = set(mmap.values())

    def ok(partial_new: str, m: str) -> bool:
        # every composable pair among mapped morphisms whose composite is
        # already mapped (or is m itself) must commute with the candidate
        for f, ff in list(mmap.items()) + [(m, partial_new)]:
            for g, gg in list(mmap.items()) + [(m, partial_new)]:
                if a.target(f) == a.source(g):
                    comp_a = a.compose(g, f)
                    if comp_a in mmap or comp_a == m:
                        want = mmap.get(comp_a, partial_new if comp_a == m else None)
                        if want is not None and b.compose(gg, ff) != want:
                            return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(mors):
            return True
        m = mors[i]
        for cand in b.hom(omap[a.source(m)], omap[a.target(m)]):
            if cand in used or b.is_identity(cand):
                continue
            if ok(cand, m):
                mmap[m] = cand
                used.add(cand)
                if backtrack(i + 1):
                    return True
                del mmap[m]
                used.discard(cand)
        return False

    return backtrack(0)


def loaded(cat, seed):
    """``cat`` written to its manifest, the entries shuffled, and loaded."""
    payload = manifest.category_payload(cat)
    Random(seed).shuffle(payload["compose"])
    return fincat.validate(payload)


def assert_lawful(cat: FinCat) -> FinCat:
    """The law oracle for categories the library builds without checking
    their laws: rebuild the same tables through the checked ``FinCat``
    constructor, which raises on the first law that fails.  Returns ``cat``."""
    FinCat(cat.objects, cat.morphisms, cat.identity, cat.composition, name=cat.name)
    return cat


class InvalidQuotient(EulcatError):
    """A consequence of the scwol-action axioms fails on something derived
    from an action: raised by the oracles below and by the reference
    builders, never by the library."""


def assert_same_table(got: FinCat, want: FinCat) -> None:
    """Same name, presentation, and identity and composition tables, the
    identity tables in the same iteration order and the composition tables
    too where both are checked (a written store has no entry order).  It
    raises AssertionError itself, which ``python -O`` keeps."""
    if got.name != want.name:
        raise AssertionError(f"names differ: {got.name!r} != {want.name!r}")
    if not equal_presentation(got, want):
        raise AssertionError(f"{got.name}: presentations differ")
    if list(got.identity.items()) != list(want.identity.items()):
        raise AssertionError(f"{got.name}: identity tables differ")
    table, other = got.composition, want.composition
    if got._ends.order is not None and want._ends.order is not None:
        table, other = list(table.items()), list(other.items())
    if table != other:
        raise AssertionError(f"{got.name}: composition tables differ")


def assert_orbit_projection(action, q) -> None:
    """The oracle for ``groupact.quotient``: ``q``, its result on
    ``action``, is a scwol; each composable pair of orbits has exactly one
    composite orbit, which ``q`` records; and the arrows out of each object
    x biject, by projection, with those out of its orbit."""
    cat, quot, mor_orbit = action.space, q.category, q.morphism_orbit_of
    if not fincat.classify(quot).is_scwol:
        raise InvalidQuotient(f"quotient of {cat.name} is not a scwol")
    qr = quot._ends  # the composites the quotient holds: a cell it misses is None
    held = {(qr.names[g], qr.names[f]): qr.names[gf] for g, f, gf in qr.entries() if gf is not None}
    lifted: dict[tuple[str, str], set[str]] = {}
    for (b, a), ba in cat.composition.items():
        lifted.setdefault((mor_orbit[b], mor_orbit[a]), set()).add(mor_orbit[ba])
    for mb in quot.morphisms:
        for ma in quot.morphisms:
            if ma.target != mb.source:
                continue
            results = lifted.get((mb.name, ma.name), set())
            if len(results) != 1:
                raise InvalidQuotient(f"composite of orbits ({mb.name!r}, {ma.name!r}) "
                                      f"is not well-defined: {sorted(results)}")
            if {held.get((mb.name, ma.name))} != results:
                raise InvalidQuotient(f"quotient composite at ({mb.name!r}, {ma.name!r}) "
                                      f"is not the orbit {results.pop()!r}")
    for x in cat.objects:
        images = [mor_orbit[m] for m in cat.morphisms_from(x)]
        if len(set(images)) != len(images):
            raise InvalidQuotient(f"projection is not injective on morphisms out of {x!r}")
        if set(images) != set(quot.morphisms_from(q.object_orbit_of[x])):
            raise InvalidQuotient(f"projection is not surjective on morphisms out of {x!r}")


def assert_equivariant_section(action) -> None:
    """The oracle for ``groupact.equivariant_skeleton``'s section: no element
    moves an object onto another object isomorphic to it, and the skeleton
    built from ``action`` has one object in each isomorphism class and is
    carried onto itself by every element."""
    cat = action.space
    class_of = {x: cls[0] for cls in fincat.iso_classes(cat).classes for x in cls}
    for x in cat.objects:
        for g in action.group.labels:
            y = action.act_obj(g, x)
            if y != x and class_of[y] == class_of[x]:
                raise InvalidQuotient("equivariant section is not well-defined; "
                                      "action axioms violated")
    chosen = groupact.equivariant_skeleton(action).action.space.objects
    if sorted(class_of[x] for x in chosen) != sorted(set(class_of.values())):
        raise InvalidQuotient("equivariant skeleton misses or repeats an isomorphism class")
    if any(action.act_obj(g, x) not in chosen for g in action.group.labels for x in chosen):
        raise InvalidQuotient("equivariant skeleton is not carried onto itself")


def discrete_action(group, elements, act):
    """The G-set ``act`` on ``elements`` as a ``ScwolAction`` on the discrete
    scwol."""
    disc = zoo.discrete_category(elements, name="S")
    return groupact.ScwolAction(
        group, disc, {g: dict(act[g]) for g in group.labels},
        {g: {disc.identity[s]: disc.identity[act[g][s]] for s in elements}
         for g in group.labels},
    )


def assert_transport_groupoid(group, elements, act, groupoid) -> None:
    """The oracle for ``groupact.transport_groupoid``: ``groupoid``, built
    from the G-set ``act``, is lawful; its chi_L equals that of the homotopy
    colimit of the complex of groups of the action; and its chi2 is the sum
    over orbits of 1/|stabilizer|, which is |S|/|G|."""
    assert_lawful(groupoid)
    cplx = groupact.complex_of_groups(discrete_action(group, elements, act)).complex
    direct, via_hocolim = ratlin.chi_L(groupoid), ratlin.chi_L(groupact.hocolim_groups(cplx))
    if direct != via_hocolim:
        raise AssertionError(f"transport chi_L {direct} != hocolim chi_L {via_hocolim}")
    orbits = {min(act[g][s] for g in group.labels) for s in elements}
    by_orbits = sum((Fraction(1, sum(act[g][s] == s for g in group.labels)) for s in orbits),
                    Fraction(0))
    chi2 = eulerchar.groupoid_chi2(groupoid)
    if not chi2 == by_orbits == Fraction(len(elements), group.order):
        raise AssertionError(f"chi2 {chi2}, orbit sum {by_orbits}, |S|/|G| "
                             f"{Fraction(len(elements), group.order)}")


def unvalidated(cls, **fields):
    """``cls`` holding ``fields`` past its constructor's checks, by the
    library's one builder for that (``errors._trusted``), for non-vacuity
    tests.  An action given by its tables also gets the arrays its check
    reads from them, on which the library works."""
    value = _trusted(cls, **fields)
    if cls is groupact.ScwolAction and "_arrays" not in fields:
        r = value.space._ends
        object.__setattr__(value, "_arrays", [
            ([r.objects[value.on_objects[g][x]] for x in value.space.objects],
             [r.index[value.on_morphisms[g][m]] for m in r.names]) for g in value.group.labels])
    return value


def assert_revalidates(*values) -> None:
    """The oracle for values the library builds with ``errors._trusted``:
    rebuild each as ``type(value)(**init fields)``, so that the real
    constructor's checks run and raise on the first law that fails.  Pass
    the parts before the whole (a complex's homomorphisms, a diagram's
    edges): a constructor trusts the validated values it is handed."""
    for value in values:
        type(value)(**{f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init})


def store(cat) -> tuple:
    """Everything a FinCat keeps and shows, as plain values, for a writer's
    recorded digest (``digest``): name, objects, identity map, morphism
    names, endpoints, identities, rows, inverses and direct finiteness.  A
    written store has no entry order: it lists its entries row by row."""
    r = cat._ends
    return (cat.name, cat.objects, list(cat.identity.items()), list(r.names), list(r.src),
            list(r.tgt), list(r.ident), [tuple(row) for row in r.rows],
            list(r.inv.items()), cat._directly_finite)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def checked_store(name, objects, names, src, tgt, ident, entries) -> FinCat:
    """The category of a builder's index arrays (object indices of the
    endpoints, morphism indices of the identities) and its ``entries``, the
    triples (g, f, g o f) by index in order, through the checked
    constructor, which fills the rows, positions and entry order from the
    entries and searches the inverses."""
    objects = tuple(objects)
    return FinCat(objects, tuple(map(Morphism, names, [objects[x] for x in src],
                                     [objects[y] for y in tgt])),
                  {x: names[e] for x, e in zip(objects, ident)},
                  {(names[g], names[f]): names[gf] for g, f, gf in entries}, name=name)


def assert_complex_revalidates(cplx) -> None:
    """``assert_revalidates`` on each structure homomorphism, then the complex."""
    assert_revalidates(*cplx.homs.values(), cplx)


def assert_retraction_data(cat, inclusion, retraction, eta) -> None:
    """The oracle for ``fincat._retract`` (behind ``skeleton`` and
    ``equivariant_skeleton``): both functors revalidate, and ``eta`` is a
    natural isomorphism i o r => id."""
    assert_revalidates(inclusion, retraction)
    rows, gamma = cat._ends, retraction.target._ends
    i_r = _composite_arrays(reference_functor_arrays(retraction, gamma),
                            reference_functor_arrays(inclusion, rows))
    _check_natural(cat, rows, cat, rows, i_r, _identity_arrays(cat), eta, "eta")


def reference_functor_arrays(fun: CatFunctor, t) -> tuple[list[int], list[int]]:
    """The arrays of ``fun``, a functor, read off its maps by name, with
    ``t`` the rows of its target: fresh lists, which a caller may change."""
    return ([t.objects[fun.obj_map[x]] for x in fun.source.objects],
            [t.index[fun.mor_map[m]] for m in fun.source.morphism_names()])


def identity_maps(cat: FinCat) -> tuple[dict[str, str], dict[str, str]]:
    """The object and morphism maps of the identity functor of ``cat``."""
    return {x: x for x in cat.objects}, {m: m for m in cat.morphism_names()}


def reference_composite_maps(first: CatFunctor, second: CatFunctor) -> tuple[dict, dict]:
    """The maps of ``first`` then ``second``, composed key by key (an extra
    key of ``first`` is kept, or raises KeyError), as ``then`` composed them
    before a functor kept its arrays."""
    obj_map = {x: second.obj_map[y] for x, y in first.obj_map.items()}
    mor_map = {m: second.mor_map[n] for m, n in first.mor_map.items()}
    return obj_map, mor_map


def trivial_diagram(index: FinCat) -> StrictDiagram:
    return constant_diagram(index, terminal_category())


# -- small categories and complexes the tests share -----------------------------
# Used only by tests, so kept here rather than in ``eulcat.zoo``.


def monoid_z2_mult() -> FinCat:
    """The two-element multiplicative monoid ({1,0}, x) as a one-object category."""
    obj = "*"
    mors = (Morphism("1", obj, obj), Morphism("0", obj, obj))
    comp = {("1", "1"): "1", ("1", "0"): "0", ("0", "1"): "0", ("0", "0"): "0"}
    return FinCat((obj,), mors, {obj: "1"}, comp, name="(Z/2,x)")


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


def gamma_one() -> FinCat:
    """Two-object EI category whose aut(y) is Z/4 = <(1234)> acting on 4 points."""
    points = ("1", "2", "3", "4")
    action = {str(k): {s: points[(i + k) % 4] for i, s in enumerate(points)} for k in range(4)}
    return two_object_ei_category(cyclic_group(4), action, points, name="Gamma1")


def gamma_two() -> FinCat:
    """Two-object EI category whose aut(y) is the Klein group <(12),(34)>."""
    swap12 = {"1": "2", "2": "1", "3": "3", "4": "4"}
    swap34 = {"1": "1", "2": "2", "3": "4", "4": "3"}
    ident = {s: s for s in ("1", "2", "3", "4")}
    both = {s: swap34[swap12[s]] for s in ident}
    action = {"e": ident, "a": swap12, "b": swap34, "ab": both}
    return two_object_ei_category(klein_four_group(), action, ("1", "2", "3", "4"),
                                  name="Gamma2")


def constant_complex(base: FinCat, group: FinGroup) -> groupact.ComplexOfGroups:
    """``group`` at every object of ``base``, identity structure maps and trivial twists."""
    ident = GroupHom.identity_hom(group)
    return groupact.ComplexOfGroups(
        base,
        {x: group for x in base.objects},
        {m: ident for m in base.morphism_names()},
        {(b, a): group.identity for (b, a) in base.composition},
    )


def start_sum(pc: fincat.PathCounts, x: str) -> int:
    """The alternating count of the paths of ``pc`` that start at x."""
    return sum((-1) ** n * c for n, c in enumerate(pc.starts[x]))


def split_idempotent():
    """s: y -> x and r: x -> y with r o s = id_y and s o r = e, an
    idempotent on x that is not an identity: not EI, and x, y are not
    isomorphic, so the support stays cyclic after condensation."""
    return zoo.build_category(
        ["x", "y"],
        [("e", "x", "x"), ("s", "y", "x"), ("r", "x", "y")],
        {("r", "s"): "id_y", ("s", "r"): "e", ("e", "e"): "e", ("e", "s"): "s",
         ("r", "e"): "r"},
        name="split",
    )


def count_calls(monkeypatch, counts: dict) -> None:
    """Count, in ``counts``, the calls of each library function named there,
    through every library module that binds it."""

    for name in counts:
        for module in (fincat, hocolim, eulerchar, ratlin, groupact):
            real = getattr(module, name, None)
            if real is None:
                continue

            def wrapper(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)


def s3_chain(conjugating: bool = False, twist: str = "021"):
    """Arguments ``(base, local, homs, twists)`` of a complex of groups over
    the chain 0 -a-> 1 -b-> 2 whose twist at (b, a) is a transposition.

    A transposition commutes with no 3-cycle, so products with the twist
    depend on the order of their factors; no randomly drawn action yields
    such a twist.  By default the local groups are 1, S3, S3 with F(b) = id,
    and every ``twist`` gives a valid complex.  With ``conjugating`` they are
    S3, S3, S3 with F(a) = F(b o a) = id and F(b) conjugation by "021"; the
    conjugation identity then holds only for the twist "021".
    """
    base = zoo.build_category(
        ("0", "1", "2"),
        (("a", "0", "1"), ("b", "1", "2"), ("ba", "0", "2")),
        {("b", "a"): "ba"},
    )
    s3 = symmetric_group(3)
    local = {"0": s3 if conjugating else trivial_group(), "1": s3, "2": s3}
    homs = {base.identity[x]: GroupHom.identity_hom(local[x]) for x in base.objects}
    if conjugating:
        by_t = GroupHom(s3, s3, {g: s3.conjugate(g, "021") for g in s3.labels})
        homs.update(a=homs["id_0"], b=by_t, ba=homs["id_0"])
    else:
        one = local["0"]
        to_s3 = GroupHom(one, s3, {one.identity: s3.identity})
        homs.update(a=to_s3, b=GroupHom.identity_hom(s3), ba=to_s3)
    twists = {pair: local[base.target(pair[0])].identity for pair in base.composition}
    twists[("b", "a")] = twist
    return base, local, homs, twists


def flag_action(group, subgroups, apexes=("p", "q", "r")):
    """``group`` acting on the poset Y -> a1 -> a2 -> ..., where Y is the
    disjoint union of the coset spaces ``group``/H for H in ``subgroups``
    (each given by its members), and the apexes form a chain of fixed
    points.  Every lift ends at a fixed point, so any h elements are valid
    for ``complex_of_groups``."""
    cosets, on_cosets = [], {g: {} for g in group.labels}
    for prefix, members in zip("yz", subgroups):
        elements, act = randgen.coset_gset(group, members, prefix=prefix)
        cosets += elements
        for g in group.labels:
            on_cosets[g].update(act[g])
    links = list(itertools.combinations(apexes, 2))
    arrows = [(f"{y}{z}", y, z) for y in cosets for z in apexes]
    arrows += [(a + b, a, b) for a, b in links]
    compose = {(b + c, a + b): a + c for a, b, c in itertools.combinations(apexes, 3)}
    for y in cosets:
        compose.update({(a + b, f"{y}{a}"): f"{y}{b}" for a, b in links})
    space = zoo.build_category(tuple(cosets) + tuple(apexes), arrows, compose, name="flag")

    def moved(g, x):
        return on_cosets[g].get(x, x)

    on_objects = {g: {x: moved(g, x) for x in space.objects} for g in group.labels}
    on_morphisms = {
        g: {m.name: next(n for n in space.hom(moved(g, m.source), moved(g, m.target)))
            for m in space.morphisms}
        for g in group.labels
    }
    return groupact.ScwolAction(group, space, on_objects, on_morphisms)


def s3_flag_action():
    """S3 acting on the poset Y -> p -> q -> r, where Y = {y0, y1, y2} is
    S3/<021> and p, q, r are fixed points, with h elements chosen so that
    the twists of the associated complex are non-central: two are 3-cycles,
    and the two factors of the cocycle identity on (qr, pq, y0p) do not
    commute.

    Returns the action and the h elements to pass to ``complex_of_groups``.
    The defaults pick h = e throughout, and randomly drawn actions only have
    abelian groups, so neither reaches a twist that fails to commute with
    the images of the structure maps.
    """
    action = flag_action(symmetric_group(3), [("012", "021")])
    h_elements = {"y0p": "012", "pq": "012", "qr": "021", "y0q": "102", "pr": "012", "y0r": "120"}
    return action, h_elements


def z2_chain_complex_data(corrupt: bool):
    """Arguments of a complex of groups over the chain 0 -> 1 -> 2 -> 3 with
    Z/2 everywhere and identity structure maps; ``corrupt`` sets the twist
    at (b, a) to 1, which breaks the cocycle on the triple (c, b, a) and
    nothing else (Z/2 is abelian, so conjugation holds)."""
    base = zoo.build_category(
        ("0", "1", "2", "3"),
        (("a", "0", "1"), ("b", "1", "2"), ("c", "2", "3"),
         ("ba", "0", "2"), ("cb", "1", "3"), ("cba", "0", "3")),
        {("b", "a"): "ba", ("c", "b"): "cb", ("c", "ba"): "cba", ("cb", "a"): "cba"},
        name="chain4",
    )
    z2 = cyclic_group(2)
    ident = GroupHom.identity_hom(z2)
    twists = {pair: "0" for pair in base.composition}
    if corrupt:
        twists[("b", "a")] = "1"
    return base, {x: z2 for x in base.objects}, {m.name: ident for m in base.morphisms}, twists


# -- reference checks -----------------------------------------------------------------
#
# The functor, action, naturality and pseudo-coherence checks as the library
# made them before they moved onto integer rows: one name lookup at a time.
# The bodies are copied unchanged; only the names of the copies (and the
# calls between them) carry a ``reference_`` prefix.


def reference_check_functor(src: FinCat, tgt: FinCat, obj_map: Mapping, mor_map: Mapping) -> None:
    """Check the laws of a functor ``src`` -> ``tgt`` in order: objects,
    morphisms (an image for each), source/target, identities, composition.
    Composition is checked only on entries with no identity factor, and not
    at all into a thin ``tgt``, where both sides share a hom-set.  Keys
    naming nothing in ``src`` are ignored.  A failure raises NotAFunctor with
    witness ``{"law": law, "at": x}``, x an object, morphism or pair."""

    def fail(message: str, law: str, at) -> NoReturn:
        raise NotAFunctor(message, witness={"law": law, "at": at})

    mor, comp = {m.name: m for m in tgt.morphisms}, tgt.composition
    src_ids = set(src.identity.values())
    for x in src.objects:
        if x not in obj_map or not tgt.has_object(obj_map[x]):
            fail(f"object map undefined or out of range at {x!r}", "objects", x)
    for m in src.morphisms:
        if m.name not in mor_map:
            fail(f"morphism map undefined at {m.name!r}", "morphisms", m.name)
        fm = mor_map[m.name]
        if fm not in mor:
            fail(f"image {fm!r} is not a morphism of {tgt.name}", "morphisms", m.name)
        if mor[fm].source != obj_map[m.source] or mor[fm].target != obj_map[m.target]:
            fail(f"image of {m.name!r} has wrong endpoints", "source/target", m.name)
    for x in src.objects:
        if mor_map[src.identity[x]] != tgt.identity[obj_map[x]]:
            fail(f"identity of {x!r} not preserved", "identities", x)
    if _is_thin(tgt):  # both sides run F(s(f)) -> F(t(g)), by source/target
        return
    for (g, f), gf in src.composition.items():
        if g in src_ids or f in src_ids:  # holds by source/target and identities
            continue
        if comp[(mor_map[g], mor_map[f])] != mor_map[gf]:
            fail(f"composition not preserved on ({g!r}, {f!r})", "composition", (g, f))


def reference_check_natural(cat, tgt, f_obj, f_mor, g_obj, g_mor, components, where) -> None:
    """Check that ``components`` (a ``PseudoDiagram`` table) is a natural isomorphism F => G.

    F and G are parallel functors ``cat`` -> ``tgt``, given by their object
    and morphism maps, which must preserve identities (validated functors or
    their composites).  ``components[x]`` must be an invertible morphism
    F(x) -> G(x) of ``tgt``, every square at a non-identity must commute, and
    no key may name anything but an object of ``cat``.  A failure raises
    NotNatural, its message prefixed by ``where``, with the entry and the
    object or morphism as witness.
    """

    def fail(message: str, **witness) -> NoReturn:
        raise NotNatural(f"{where}: {message}", witness={"entry": where, **witness})

    for x in cat.objects:
        c = components.get(x)
        if c is None:
            fail(f"no component at {x!r}", object=x)
        if c not in {m.name for m in tgt.morphisms}:
            fail(f"component at {x!r} is not a morphism of {tgt.name}", object=x)
        if tgt.source(c) != f_obj[x] or tgt.target(c) != g_obj[x]:
            fail(f"component at {x!r} has wrong endpoints", object=x)
        if not tgt.is_invertible(c):
            fail(f"component at {x!r} is not invertible", object=x)
    for m in cat.morphisms:
        if cat.is_identity(m.name):  # holds by the endpoints checked above
            continue
        lhs = tgt.compose(components[m.target], f_mor[m.name])
        rhs = tgt.compose(g_mor[m.name], components[m.source])
        if lhs != rhs:
            fail(f"naturality fails at morphism {m.name!r}", morphism=m.name)
    # every object has a component, so a longer table has a stray key
    if len(components) != len(cat.objects):
        x = next(x for x in components if not cat.has_object(x))
        fail(f"component key {x!r} is not an object of {cat.name}", object=x)


def reference_check_unit_axioms(self):
    idx = self.index
    for m in idx.morphisms:
        u = m.name
        tgt_cat = self.vertex[m.target]
        for c in self.vertex[m.source].objects:
            # C_{u, id} o (C(u) . unit_source) = 1
            left = tgt_cat.compose(
                self.comp[(u, idx.identity[m.source])][c],
                self.edge[u].mor_map[self.unit[m.source][c]],
            )
            if left != tgt_cat.identity[self.edge[u].obj_map[c]]:
                raise CoherenceFailure(
                    f"right unit axiom fails for {u!r} at object {c!r}",
                    witness={"morphism": u, "object": c},
                )
            # C_{id, u} o (unit_target at C(u)c) = 1
            left2 = tgt_cat.compose(
                self.comp[(idx.identity[m.target], u)][c],
                self.unit[m.target][self.edge[u].obj_map[c]],
            )
            if left2 != tgt_cat.identity[self.edge[u].obj_map[c]]:
                raise CoherenceFailure(
                    f"left unit axiom fails for {u!r} at object {c!r}",
                    witness={"morphism": u, "object": c},
                )


def reference_check_associativity_axiom(self):
    idx = self.index
    for u in idx.morphism_names():
        for v in idx.morphisms_from(idx.target(u)):
            vu = idx.compose(v, u)
            for w in idx.morphisms_from(idx.target(v)):
                wv = idx.compose(w, v)
                cat = self.vertex[idx.target(w)]
                for c in self.vertex[idx.source(u)].objects:
                    lhs = cat.compose(
                        self.comp[(w, vu)][c],
                        self.edge[w].mor_map[self.comp[(v, u)][c]],
                    )
                    rhs = cat.compose(
                        self.comp[(wv, u)][c],
                        self.comp[(w, v)][self.edge[u].obj_map[c]],
                    )
                    if lhs != rhs:
                        raise CoherenceFailure(
                            f"associativity coherence fails on triple "
                            f"({w!r}, {v!r}, {u!r}) at object {c!r}",
                            witness={"triple": (w, v, u), "object": c},
                        )


def reference_pseudo_diagram_checks(self):
    """The body of ``PseudoDiagram.__post_init__``; ``self`` is an
    unvalidated PseudoDiagram."""
    _check_vertices_and_edges(self)
    idx = self.index
    for i in idx.objects:
        components = self.unit.get(i)
        if components is None:
            raise CoherenceFailure(f"no unit isomorphism at {i!r}", witness={"object": i})
        ci, fun = self.vertex[i], self.edge[idx.identity[i]]
        reference_check_natural(
            ci, ci, *identity_maps(ci), fun.obj_map, fun.mor_map, components, f"unit at {i!r}"
        )
    for (v, u), components in self.comp.items():
        if (v, u) not in idx.composition:
            raise CoherenceFailure(
                f"comp given for non-composable pair ({v!r}, {u!r})", witness={"pair": (v, u)}
            )
        fun = self.edge[idx.composition[(v, u)]]
        f_obj, f_mor = reference_composite_maps(self.edge[u], self.edge[v])
        reference_check_natural(fun.source, fun.target, f_obj, f_mor, fun.obj_map, fun.mor_map,
                                components, f"comp at {(v, u)!r}")
    for (v, u) in idx.composition:
        if (v, u) not in self.comp:
            raise CoherenceFailure(
                f"no comp isomorphism at ({v!r}, {u!r})", witness={"pair": (v, u)}
            )

    reference_check_unit_axioms(self)
    reference_check_associativity_axiom(self)


def reference_check_homomorphism_law(group: FinGroup, table: Mapping, points: Sequence[str],
                                      what: str):
    """Require that the identity fixes each of ``points`` (``what``s, which
    ``table[g]`` maps among themselves) and ``table[gh] == table[g] o
    table[h]`` on them for every pair (g, h), one whole index row at a time."""
    labels, mul = group.labels, group.table
    index = {p: i for i, p in enumerate(points)}
    perms = [[index[table[g][p]] for p in points] for g in labels]
    e = group._identity
    for i, j in enumerate(perms[e]):
        if i != j:
            raise NotAHomomorphismAction(
                f"identity element moves {'an' if what == 'object' else 'a'} {what}",
                witness={"element": labels[e], what: points[i]},
            )
    for g, perm_g in enumerate(perms):
        for h, perm_h in enumerate(perms):
            gh = mul[g][h]
            if perms[gh] != [perm_g[j] for j in perm_h]:
                i = next(i for i, j in enumerate(perm_h) if perm_g[j] != perms[gh][i])
                raise NotAHomomorphismAction(
                    f"action of {labels[g]!r}{labels[h]!r} disagrees with action of "
                    f"{labels[gh]!r} on {points[i]!r}",
                    witness={"pair": (labels[g], labels[h]), what: points[i]},
                )


def reference_check_permutation(g: str, table: Mapping[str, str], points: list[str],
                                level: str) -> None:
    """Require ``table`` (element g on ``level``) to permute the sorted ``points``."""
    if sorted(table) != points or sorted(table.values()) != points:
        raise NotAFunctorAction(f"element {g!r} does not permute the {level}",
                                witness={"element": g, "level": level})


def reference_action_checks(self):
    """The body of ``ScwolAction.__post_init__``; ``self`` holds ``group``,
    ``space``, ``on_objects`` and ``on_morphisms``."""
    g_labels = self.group.labels
    cat = self.space
    _require_scwol(cat)

    # object level first: axiom (i) only needs the object action, and the
    # interesting rejections (e.g. swapping the endpoints of an arrow)
    # should be reported as axiom violations, not as functor breakage
    objects = sorted(cat.objects)
    for g in g_labels:
        if g not in self.on_objects or g not in self.on_morphisms:
            raise NotAFunctorAction(f"no action data for element {g!r}", witness={"element": g})
        reference_check_permutation(g, self.on_objects[g], objects, "objects")
    reference_check_homomorphism_law(self.group, self.on_objects, cat.objects, "object")
    arrows = [m for m in cat.morphisms if not cat.is_identity(m.name)]
    for m in arrows:
        for g in g_labels:
            if self.on_objects[g][m.source] == m.target:
                raise AxiomIViolation(m.name, g)

    # morphism level: each element acts as a strictly invertible functor
    names = sorted(m.name for m in cat.morphisms)
    for g in g_labels:
        reference_check_permutation(g, self.on_morphisms[g], names, "morphisms")
        try:
            reference_check_functor(cat, cat, self.on_objects[g], self.on_morphisms[g])
        except NotAFunctor as exc:
            law, at = exc.witness["law"], exc.witness["at"]
            raise NotAFunctorAction(
                f"element {g!r} breaks {law} at {at!r}", witness={"element": g, **exc.witness}
            ) from exc
    # on identities the law follows from the object level and functoriality;
    # on a thin space g.(h.m) and (gh).m both run gh.s(m) -> gh.t(m)
    if not _is_thin(cat):
        reference_check_homomorphism_law(
            self.group, self.on_morphisms, [m.name for m in arrows], "morphism"
        )
    for m in arrows:
        for g in g_labels:
            if self.on_objects[g][m.source] == m.source and self.on_morphisms[g][m.name] != m.name:
                raise AxiomIIViolation(m.name, g)
    # every element has both rows, so a longer table has a stray row
    for table in (self.on_objects, self.on_morphisms):
        if len(table) != len(g_labels):
            label = next(g for g in table if g not in self.group)
            raise NotAFunctorAction(
                f"action row {label!r} is not an element of {self.group.name}",
                witness={"element": label},
            )


# -- the name walks of the rejection locators, as references ------------------------
#
# The locators that find the first fault once a check on rows has failed,
# as the library walked them before they read the rows: over the morphism
# records, the lookup tables and the name-keyed ``composition`` table.
# The bodies are copied unchanged but for the ``reference_`` prefix, a
# ``self`` that is the checked value, and the library's own checks in
# front of a walk (the rejections that guard it), kept as they were.


def reference_walk_functor_maps(src: FinCat, tgt: FinCat, obj_map: Mapping,
                                mor_map: Mapping) -> None:
    """Raise NotAFunctor at the first object without an image in ``tgt``,
    else at the first morphism without one or with wrong endpoints."""
    for x in src.objects:
        if x not in obj_map or not tgt.has_object(obj_map[x]):
            _not_a_functor(f"object map undefined or out of range at {x!r}", "objects", x)
    mor = {m.name: m for m in tgt.morphisms}
    for m in src.morphisms:
        if m.name not in mor_map:
            _not_a_functor(f"morphism map undefined at {m.name!r}", "morphisms", m.name)
        fm = mor_map[m.name]
        if fm not in mor:
            _not_a_functor(f"image {fm!r} is not a morphism of {tgt.name}", "morphisms", m.name)
        if mor[fm].source != obj_map[m.source] or mor[fm].target != obj_map[m.target]:
            _not_a_functor(f"image of {m.name!r} has wrong endpoints", "source/target", m.name)


def reference_check_functor_arrays(src: FinCat, tgt: FinCat, s, t, fo: list[int],
                                   fm: list[int], thin: bool) -> None:
    """``fincat._check_functor_arrays`` with its composition walk over
    ``src.composition``."""
    image, obj_image = fm.__getitem__, fo.__getitem__
    if list(map(t.src.__getitem__, fm)) != list(map(obj_image, s.src)) or \
            list(map(t.tgt.__getitem__, fm)) != list(map(obj_image, s.tgt)):
        k = next(k for k, i in enumerate(fm)
                 if t.src[i] != fo[s.src[k]] or t.tgt[i] != fo[s.tgt[k]])
        _not_a_functor(f"image of {s.names[k]!r} has wrong endpoints", "source/target", s.names[k])
    if list(map(image, s.ident)) != list(map(t.ident.__getitem__, fo)):
        x = next(x for x, e, y in zip(src.objects, s.ident, fo) if fm[e] != t.ident[y])
        _not_a_functor(f"identity of {x!r} not preserved", "identities", x)
    if thin:  # both sides run F(s(f)) -> F(t(g)), by source/target
        return
    s_rows, t_rows = keyed_rows(s), keyed_rows(t)
    for f in s.generators():
        row = s_rows[f]
        if list(map(t_rows[fm[f]].__getitem__, map(image, row))) != list(map(image, row.values())):
            break
    else:
        return
    index, ids = s.index, set(src.identity.values())
    for (g, f), gf in src.composition.items():
        if g not in ids and f not in ids and t_rows[fm[index[f]]][fm[index[g]]] != fm[index[gf]]:
            _not_a_functor(f"composition not preserved on ({g!r}, {f!r})", "composition", (g, f))


def reference_twist_walk(self) -> None:
    """The walk of ``ComplexOfGroups.__post_init__`` that locates a missing
    twist or a non-trivial unit twist; ``self`` holds ``base``, ``local``
    and ``twists``."""
    base = self.base
    for (b, a) in base.composition:
        if (b, a) not in self.twists:
            raise ValidationError(f"no twist at composable pair ({b!r}, {a!r})",
                                  witness={"pair": (b, a)})
        g = self.twists[(b, a)]
        unit = base.is_identity(a) or base.is_identity(b)
        if unit and g != self.local[base.target(b)].identity:
            raise ValidationError(f"unit twist at ({b!r}, {a!r}) must be trivial",
                                  witness={"pair": (b, a), "element": g})


def reference_free_aut_witness(cat: FinCat):
    """A pair (u, a) with u a non-identity automorphism fixing a under
    postcomposition, or None if every left aut-action on hom-sets is free.

    Expects a skeletal category.
    """
    for y in cat.objects:
        auts = [u for u in cat.hom(y, y) if cat.is_invertible(u) and not cat.is_identity(u)]
        if not auts:
            continue
        for x in cat.objects:
            for a in cat.hom(x, y):
                for u in auts:
                    if cat.compose(u, a) == a:
                        return (u, a)
    return None


def reference_groupoid_rejection(cat: FinCat) -> None:
    """The rejection of ``eulerchar.groupoid_chi2``."""
    if not _is_groupoid(cat):
        first = next(m.name for m in cat.morphisms if not cat.is_invertible(m.name))
        raise NotGroupoid(f"{cat.name} has a non-invertible morphism", witness={"morphism": first})


def reference_free_EI_rejections(cat: FinCat) -> None:
    """The rejections of ``eulerchar.chi2_free_EI``."""
    gamma = _skeleton_category(cat)
    if not _is_EI(gamma):
        bad = next(
            m.name
            for m in gamma.morphisms
            if m.source == m.target and not gamma.is_invertible(m.name)
        )
        raise eulerchar.HypothesisNotMet(
            f"{cat.name} is not EI: endomorphism {bad!r} is not invertible",
            witness=bad,
        )
    witness = reference_free_aut_witness(gamma)
    if witness is not None:
        u, a = witness
        raise eulerchar.HypothesisNotMet(
            f"left aut-action is not free: {u!r} o {a!r} = {a!r}", witness=witness
        )


def reference_transport_rejection(action) -> None:
    """The rejection of the ``transport`` command (``cli._transport``)."""
    space = action.space
    moving = next((m.name for m in space.morphisms if not space.is_identity(m.name)), None)
    if moving is not None:
        raise manifest.BadManifest("transport expects an action on a discrete scwol",
                                   witness={"morphism": moving})


# -- the record-level endpoint arrays, as a reference ----------------------------------


def reference_ends(cat) -> tuple[list, list, list, list]:
    """What ``cat._ends`` must hold, read off the records: the object index
    of each morphism's source and target, the morphism index of each
    object's identity, and the (m, inverse of m) index pairs of
    ``_invertible`` in its order.  These are the facts the predicates read
    off the records of a FinCat that kept no arrays."""
    objects = {x: i for i, x in enumerate(cat.objects)}
    index = {m.name: i for i, m in enumerate(cat.morphisms)}
    return ([objects[m.source] for m in cat.morphisms],
            [objects[m.target] for m in cat.morphisms],
            [index[cat.identity[x]] for x in cat.objects],
            [(index[m], index[g]) for m, g in cat._invertible.items()])


def reference_hom_rows(ends, transpose: bool = False) -> list[dict[int, int]]:
    """``_Ends.hom_rows`` as it was: a ``Counter`` of the endpoint pairs,
    copied into rows, so each row lists its keys in the order of the first
    morphism of each hom-set."""
    rows: list[dict[int, int]] = [{} for _ in ends.ident]
    pairs = zip(ends.tgt, ends.src) if transpose else zip(ends.src, ends.tgt)
    for (i, j), count in Counter(pairs).items():
        rows[i][j] = count
    return rows


def stored_ends(cat) -> tuple[list, list, list, list]:
    """``cat._ends`` in the shape of ``reference_ends``."""
    ends = cat._ends
    return list(ends.src), list(ends.tgt), list(ends.ident), list(ends.inv.items())


# -- the record-level manifest reader, as a reference ---------------------------------


def reference_validate(raw, name="C"):
    """``fincat.validate`` as it was before manifests were read into integer
    arrays: a ``Morphism`` record per morphism, then the checks of the
    name-keyed ``FinCat`` in order (ids, endpoints and identity map on the
    records, the ``compose`` entries one at a time, completeness, identity
    laws, associativity unless thin), with a malformed entry and then a pair
    listed twice reported before every other fault.  Returns the eager
    ``FinCat`` of the table in entry order."""
    try:
        objects = tuple(str(x) for x in raw["objects"])
        morphisms = tuple(
            Morphism(str(m["id"]), str(m["source"]), str(m["target"])) for m in raw["morphisms"]
        )
        identity = {str(k): str(v) for k, v in raw["identity"].items()}
        triples = raw.get("compose", [])
        reference_require_lists(raw, triples)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        cause = exc
    else:
        cat_name = str(raw.get("name", name))
        try:
            try:
                mor = reference_check_records(cat_name, objects, morphisms, identity)
                table = reference_read_entries(cat_name, mor, triples)
            except ValidationError:
                reference_check_listing(cat_name, triples)
                raise
            if len(table) != len(triples):
                reference_check_listing(cat_name, triples)
            reference_check_laws(cat_name, objects, morphisms, identity, table)
            return FinCat(objects, morphisms, identity, table, name=cat_name)
        except ValueError as exc:
            cause = exc
    raise DanglingReference(
        f"{name}: malformed category description ({cause})", witness={"cause": str(cause)}
    ) from cause


def reference_require_lists(raw, triples) -> None:
    """TypeError unless the parts and entries are lists; an entry that does
    not unpack into three raises first, unless every entry is a list."""
    if (type(raw["objects"]) is list and type(raw["morphisms"]) is list
            and type(triples) is list and {*map(type, triples)} <= {list}):
        return
    for _g, _f, _gf in triples:
        pass
    for part, what in ((raw["objects"], "objects"), (raw["morphisms"], "morphisms"),
                       (triples, "compose")):
        _require_list(part, what)
    for k, entry in enumerate(triples):
        _require_list(entry, f"compose entry {k}")


def reference_check_records(name, objects, morphisms, identity) -> dict:
    """Ids, endpoints and identity map, on the records; the records by name."""
    if len(set(objects)) != len(objects):
        dup = next(x for k, x in enumerate(objects) if x in objects[:k])
        raise DanglingReference(f"{name}: duplicate object ids", witness={"object": dup})
    names = [m.name for m in morphisms]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise DanglingReference(f"{name}: duplicate morphism ids {dup}", witness={"morphism": dup[0]})
    for m in morphisms:
        if m.source not in objects or m.target not in objects:
            raise DanglingReference(
                f"{name}: morphism {m.name!r} has unknown endpoint {m.source!r} -> {m.target!r}",
                witness={"morphism": m.name},
            )
    mor = {m.name: m for m in morphisms}
    for x in objects:
        if x not in identity:
            raise BrokenIdentity(f"{name}: object {x!r} has no identity morphism",
                                 witness={"object": x})
        e = identity[x]
        if e not in mor:
            raise DanglingReference(f"{name}: identity {e!r} of {x!r} is unknown",
                                    witness={"object": x})
        if mor[e].source != x or mor[e].target != x:
            raise BrokenIdentity(f"{name}: identity {e!r} is not an endomorphism of {x!r}",
                                 witness={"morphism": e})
    for x in identity:
        if x not in objects:
            raise DanglingReference(f"{name}: identity table names unknown object {x!r}",
                                    witness={"object": x})
    return mor


def reference_read_entries(name, mor, triples) -> dict:
    """The entries one at a time, in order: known names (a JSON number read
    as its ``str``), a composable pair, the endpoints of the composite."""
    table = {}
    for g, f, gf in triples:
        try:
            known = g in mor and f in mor and gf in mor
        except TypeError:
            known = False
        if not known:
            g, f, gf = str(g), str(f), str(gf)
            if g not in mor or f not in mor or gf not in mor:
                raise DanglingReference(
                    f"{name}: composition entry ({g!r}, {f!r}) -> {gf!r} names unknown morphisms",
                    witness={"pair": (g, f)},
                )
        if mor[f].target != mor[g].source:
            raise DanglingReference(
                f"{name}: pair ({g!r}, {f!r}) is not composable "
                f"(target of {f!r} is {mor[f].target!r}, source of {g!r} is {mor[g].source!r})",
                witness={"pair": (g, f)},
            )
        if mor[gf].source != mor[f].source or mor[gf].target != mor[g].target:
            raise IncompleteCompositionTable(
                f"{name}: composite {gf!r} of ({g!r}, {f!r}) has wrong endpoints",
                witness={"pair": (g, f)},
            )
        table[(g, f)] = gf
    return table


def reference_check_listing(name, triples) -> None:
    """ValueError at an entry of other than three names, then the first pair
    listed twice."""
    pairs = [(str(g), str(f)) for g, f, _ in triples]
    for k, pair in enumerate(pairs):
        if pair in pairs[:k]:
            raise DanglingReference(
                f"{name}: pair ({pair[0]!r}, {pair[1]!r}) is listed more than once in compose",
                witness={"pair": pair},
            )


def reference_check_laws(name, objects, morphisms, identity, table) -> None:
    """Completeness, both identity laws, then associativity unless thin, one
    name lookup at a time, in morphism order."""
    mor = {m.name: m for m in morphisms}
    by_source = {x: [m.name for m in morphisms if m.source == x] for x in objects}
    for f in morphisms:
        g = next((g for g in by_source[f.target] if (g, f.name) not in table), None)
        if g is not None:
            raise IncompleteCompositionTable(f"{name}: missing composite for pair ({g!r}, {f.name!r})",
                                             witness={"pair": (g, f.name)})
    for f in morphisms:
        if table[(identity[f.target], f.name)] != f.name:
            raise BrokenIdentity(f"{name}: id o {f.name!r} != {f.name!r}", witness={"morphism": f.name})
        if table[(f.name, identity[f.source])] != f.name:
            raise BrokenIdentity(f"{name}: {f.name!r} o id != {f.name!r}", witness={"morphism": f.name})
    if len({(m.source, m.target) for m in morphisms}) == len(morphisms):
        return
    ids = set(identity.values())
    for f in morphisms:
        if f.name in ids:
            continue
        for g in by_source[f.target]:
            if g in ids:
                continue
            gf = table[(g, f.name)]
            for h in by_source[mor[g].target]:
                if table[(h, gf)] != table[(table[(h, g)], f.name)]:
                    raise NonAssociative(
                        f"{name}: h o (g o f) != (h o g) o f for "
                        f"(h, g, f) = ({h!r}, {g!r}, {f.name!r})",
                        witness={"h": h, "g": g, "f": f.name},
                    )


# -- the name-level writer, as a reference -------------------------------


def reference_category_payload(cat: FinCat) -> dict:
    """``manifest.category_payload`` as it was before it read the integer
    arrays: the records, the identity map and the sorted name triples of
    the composition table."""
    return {
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [
            {"id": m.name, "source": m.source, "target": m.target} for m in cat.morphisms
        ],
        "identity": {x: cat.identity[x] for x in cat.objects},
        "compose": sorted([g, f, gf] for (g, f), gf in cat.composition.items()),
    }


def reference_iso_classes(cat: FinCat) -> fincat.IsoClasses:
    """``fincat.iso_classes`` as it was before it read the rows: each
    representative's automorphism group from ``hom``, ``is_invertible``,
    ``compose``, ``identity`` and ``inverse``."""
    classes = fincat._iso_partition(cat)
    aut = {}
    full = {}
    for cls in classes:
        rep = cls[0]
        endos = cat.hom(rep, rep)
        invertibles = tuple([m for m in endos if cat.is_invertible(m)])
        full[rep] = len(invertibles) == len(endos)
        pos = {m: i for i, m in enumerate(invertibles)}
        table = tuple([tuple([pos[cat.compose(a, b)] for b in invertibles]) for a in invertibles])
        aut[rep] = _trusted(FinGroup, labels=invertibles, table=table, name=f"aut({rep})",
                            _index=pos, _identity=pos[cat.identity[rep]],
                            _inverse=tuple([pos[cat.inverse(a)] for a in invertibles]))
    return fincat.IsoClasses(classes, tuple(c[0] for c in classes), aut, full)


# -- the name-level builders, as references -------------------------------------------


def reference_invertibles(cat: FinCat) -> tuple[dict[str, str], bool]:
    """``_invertible`` and ``_directly_finite`` by the search of the name
    table that the unchecked constructor once ran: each m against the
    morphisms of Hom(t(m), s(m)) in order, stopping at an inverse, the only
    left inverse of m.  It reads only ``hom``, ``composition`` and
    ``identity``, not the rows of the library's search."""
    inv: dict[str, str] = {}
    directly_finite = True
    for m in cat.morphisms:
        for g in cat.hom(m.target, m.source):
            if cat.composition[(g, m.name)] == cat.identity[m.source]:
                if cat.composition[(m.name, g)] == cat.identity[m.target]:
                    inv[m.name] = g
                    break
                directly_finite = False
    return inv, directly_finite


def reference_full_subcategory(cat: FinCat, objects, name=None) -> FinCat:
    keep = set(objects)
    objs = tuple(x for x in cat.objects if x in keep)
    mors = tuple(m for m in cat.morphisms if m.source in keep and m.target in keep)
    names = {m.name for m in mors}
    comp = {
        (g, f): gf for (g, f), gf in cat.composition.items() if g in names and f in names
    }
    ident = {x: cat.identity[x] for x in objs}
    return FinCat(objs, mors, ident, comp, name=name or f"{cat.name}_full")


def reference_retract(cat: FinCat, rep_of: Mapping[str, str], name: str):
    """(Gamma, inclusion maps, retraction maps, eta) of ``fincat._retract``,
    composed by name."""
    gamma = reference_full_subcategory(cat, rep_of.values(), name=name)
    eta_comp = {x: cat.identity[x] for x in rep_of}
    for x, rep in rep_of.items():
        if x != rep:
            eta_comp[x] = min(u for u in cat.hom(rep, x) if cat.is_invertible(u))
    r_mor = {}
    for m in cat.morphisms:
        f_eta = cat.compose(m.name, eta_comp[m.source])
        r_mor[m.name] = cat.compose(cat.inverse(eta_comp[m.target]), f_eta)
    inclusion = ({x: x for x in gamma.objects}, {m.name: m.name for m in gamma.morphisms})
    return gamma, inclusion, (dict(rep_of), r_mor), eta_comp


def reference_transport_groupoid(group, elements, act) -> FinCat:
    def nm(g: str, s: str) -> str:
        return f"({g},{s})"

    elements = tuple(elements)
    mors = [Morphism(nm(g, s), s, act[g][s]) for s in elements for g in group.labels]
    ident = {s: nm(group.identity, s) for s in elements}
    comp = {}
    for s in elements:
        for g in group.labels:
            for h in group.labels:
                comp[(nm(h, act[g][s]), nm(g, s))] = nm(group.mul(h, g), s)
    return FinCat(elements, tuple(mors), ident, comp, name=f"transport({group.name})")


def load_workloads():
    """``perfbench/workloads.py``, imported once by its path."""
    if "workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        sys.modules["workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["workloads"])
    return sys.modules["workloads"]


def reference_random_groupoid_functor(rng, src: randgen.Groupoid,
                                      tgt: randgen.Groupoid) -> CatFunctor:
    """``randgen.random_groupoid_functor`` as it was before functors were
    drawn by index: the same draw, written by name and checked by name."""
    obj_map: dict[str, str] = {}
    mor_map: dict[str, str] = {}
    for comp in src.components:
        target_comp = rng.choice(tgt.components)
        hom = rng.choice(randgen.homs_between(comp.group, target_comp.group))
        assign = {
            i: rng.randrange(len(target_comp.objects)) for i in range(len(comp.objects))
        }
        for i, obj in enumerate(comp.objects):
            obj_map[obj] = target_comp.objects[assign[i]]
        for g in comp.group.labels:
            for i in range(len(comp.objects)):
                for j in range(len(comp.objects)):
                    mor_map[f"{comp.prefix}[{g};{i},{j}]"] = (
                        f"{target_comp.prefix}[{hom(g)};{assign[i]},{assign[j]}]"
                    )
    return CatFunctor(src.category, tgt.category, obj_map, mor_map)


# -- a planted fault in an action lift --------------------------------------------


def inflate_action_without_offset(action, copies: Mapping[str, int]):
    """``randgen.inflate_action`` with every copy sent to the first copy of
    its image, the copy offset dropped: a planted fault."""
    n, ob, at = zoo._inflated(action.space.objects, action.space._ends, copies)
    return _trusted(groupact.ScwolAction, group=action.group,
                    space=zoo.inflate(action.space, copies), _arrays=[
                        ([ob[y] for x, y in enumerate(fo) for _ in range(n[x])],
                         [at[gm] for m, gm in enumerate(fm) for _ in range(at[m + 1] - at[m])])
                        for fo, fm in action._arrays])


# -- the name walks of the Grothendieck builder, as references --------------------------


def reference_unit_inv(d, i: str, c: str) -> str:
    """Inverse of the unit component Id => C(id_i) at c, by name: an
    identity for a strict diagram."""
    if isinstance(d, StrictDiagram):
        return d.vertex[i].identity[c]
    return d.vertex[i].inverse(d.unit[i][c])


def reference_comp_inv(d, v: str, u: str, c: str) -> str:
    """Inverse of the comp component C(v) o C(u) => C(v o u) at c, by name:
    the identity at C(v)(C(u)(c)) for a strict diagram."""
    cat = d.vertex[d.index.target(v)]
    if isinstance(d, StrictDiagram):
        return cat.identity[d.edge[v].obj_map[d.edge[u].obj_map[c]]]
    return cat.inverse(d.comp[(v, u)][c])


def _reference_vertex_order(cat):
    """The object index of ``cat``, the morphisms out of each object by
    target, then in morphism order, their targets, and the place of each
    morphism in its list."""
    src, tgt = cat._ends.src, cat._ends.tgt
    out = [[] for _ in cat.objects]
    for f in sorted(range(len(src)), key=lambda f: (src[f], tgt[f])):
        out[src[f]].append(f)
    return ({x: k for k, x in enumerate(cat.objects)}, out,
            [[tgt[f] for f in fs] for fs in out], {f: k for fs in out for k, f in enumerate(fs)})


def reference_total_arrays(d) -> dict:
    """What ``hocolim._grothendieck`` writes, by the name walk it replaced,
    which read the index with ``morphisms_from``, ``target``, ``identity``,
    ``compose``, ``is_invertible`` and ``inverse`` and the coherence
    inverses by name: object and morphism names, ``_ends`` (``inv`` as
    pairs in order), direct finiteness and the composition rows, as dicts
    ``{q: q o m}`` (the dict layout, ``keyed_rows``)."""
    idx, orders = d.index, {}

    def order_of(cat):
        if cat not in orders:
            orders[cat] = _reference_vertex_order(cat)
        return orders[cat]

    def at(cat):
        return {m: k for k, m in enumerate(cat.morphism_names())}

    place, n = {}, 0
    for i in idx.objects:
        place[i], n = n, n + len(d.vertex[i].objects)
    starts, blocks, src, tgt = {}, [], [], []
    for i in idx.objects:
        objs, steps = d.vertex[i].objects, []
        for u in idx.morphisms_from(i):
            j = idx.target(u)
            index, _, ends, _ = order_of(d.vertex[j])
            steps.append((u, j, [index[d.edge[u].obj_map[c]] for c in objs], ends,
                          starts.setdefault(u, [])))
        for k in range(len(objs)):
            for u, j, image, ends, start in steps:
                x = image[k]
                start.append(len(src))
                blocks.append((i, k, u, j, x))
                tgt += [place[j] + e for e in ends[x]]
                src += [place[i] + k] * len(ends[x])
    names = []
    for i, k, u, j, x in blocks:
        local = d.vertex[j].morphism_names()
        names += [hocolim._triple_mor(u, local[f], d.vertex[i].objects[k])
                  for f in order_of(d.vertex[j])[1][x]]
    ident = []
    for i in idx.objects:
        ci = d.vertex[i]
        pos, at_i = order_of(ci)[3], at(ci)
        ident += [starts[idx.identity[i]][k] + pos[at_i[reference_unit_inv(d, i, c)]]
                  for k, c in enumerate(ci.objects)]

    rows = []
    for i, k, u, j, x in blocks:
        c, cj = d.vertex[i].objects[k], d.vertex[j]
        _, out_j, ends_j, _ = order_of(cj)
        for f, e in zip(out_j[x], ends_j[x]):
            row = {}
            for v in idx.morphisms_from(j):
                ct = d.vertex[idx.target(v)]
                index_t, out_t, _, pos_t = order_of(ct)
                names_t, at_t = ct.morphism_names(), at(ct)
                y = index_t[d.edge[v].obj_map[cj.objects[e]]]
                after = ct.compose(d.edge[v].mor_map[cj.morphism_names()[f]],
                                   reference_comp_inv(d, v, u, c))
                base = starts[idx.compose(v, u)][k]
                for q, g in enumerate(out_t[y], starts[v][e]):
                    row[q] = base + pos_t[at_t[ct.compose(names_t[g], after)]]
            rows.append(row)

    if idx._directly_finite:
        inv = {}
        for i, k, u, j, x in blocks:
            if not idx.is_invertible(u):
                continue
            ci, cj, v = d.vertex[i], d.vertex[j], idx.inverse(u)
            c, names_j, pos_i, at_i = ci.objects[k], cj.morphism_names(), order_of(ci)[3], at(ci)
            _, out_j, ends_j, _ = order_of(cj)
            back = ci.compose(reference_unit_inv(d, i, c),
                              ci.inverse(reference_comp_inv(d, v, u, c)))
            for q, (f, e) in enumerate(zip(out_j[x], ends_j[x]), starts[u][k]):
                if cj.is_invertible(names_j[f]):
                    g = ci.compose(back, d.edge[v].mor_map[cj.inverse(names_j[f])])
                    inv[q] = starts[v][e] + pos_i[at_i[g]]
        directly_finite = all(d.vertex[i]._directly_finite for i in idx.objects)
    else:
        inv, directly_finite = fincat._inverse_search(positional_rows(rows, src, tgt, n),
                                                      _positions(src, n)[0], src, tgt, ident)
    objects = [hocolim._pair_obj(i, c) for i in idx.objects for c in d.vertex[i].objects]
    return {"objects": objects, "morphisms": names, "src": src, "tgt": tgt, "ident": ident,
            "inv": list(inv.items()), "directly_finite": directly_finite, "rows": rows}


def reference_total_counts(d) -> tuple[list[dict[int, int]], list[int]]:
    """``hocolim._total_counts`` by the name walk it replaced: the hom-count
    rows of the total and the least index of each isomorphism class."""
    idx = d.index
    offset, position, vertex_rows, n = {}, {}, {}, 0
    for i in idx.objects:
        ci = d.vertex[i]
        offset[i], position[i] = n, {c: k for k, c in enumerate(ci.objects)}
        vertex_rows[i] = fincat._count_rows(ci)
        n += len(ci.objects)
    rows = []
    for i in idx.objects:
        steps = [(offset[idx.target(u)], vertex_rows[idx.target(u)], position[idx.target(u)],
                  d.edge[u].obj_map) for u in idx.morphisms_from(i)]
        for c in d.vertex[i].objects:
            row: dict[int, int] = {}
            for base, v_rows, pos, obj_map in steps:
                for e, count in v_rows[pos[obj_map[c]]].items():
                    row[base + e] = row.get(base + e, 0) + count
            rows.append(row)

    root = list(range(n))

    def find(k: int) -> int:
        while root[k] != k:
            k = root[k]
        return k

    def join(a: int, b: int) -> None:
        a, b = find(a), find(b)
        root[max(a, b)] = min(a, b)

    for i in idx.objects:
        for c, r in enumerate(fincat._iso_roots(d.vertex[i])):
            join(offset[i] + r, offset[i] + c)
        for u in idx.morphisms_from(i):
            if idx.is_invertible(u):
                j, obj_map = idx.target(u), d.edge[u].obj_map
                for c in d.vertex[i].objects:
                    join(offset[i] + position[i][c], offset[j] + position[j][obj_map[c]])
    return rows, [k for k in range(n) if find(k) == k]


def reference_haefliger_chi(cat: FinCat, vals: Mapping[str, Fraction]) -> Fraction:
    """``groupact.haefliger_chi`` by the name walk it replaced: each value
    key outside the skeleton finds its representative with
    ``morphisms_from``, ``is_invertible`` and ``target``."""
    gamma, nums = eulerchar._scwol_weights(cat)
    for x in vals:
        cat.require_object(x)
        if gamma.has_object(x):
            continue
        isomorphic = (cat.target(u) for u in cat.morphisms_from(x) if cat.is_invertible(u))
        rep = next(y for y in isomorphic if gamma.has_object(y))
        if rep in vals and Fraction(vals[rep]) != Fraction(vals[x]):
            raise ValidationError(
                f"isomorphic objects {rep!r} and {x!r} carry different values "
                f"{vals[rep]} and {vals[x]}",
                witness={"objects": (rep, x), "values": (vals[rep], vals[x])},
            )
    total = Fraction(0)
    for i, weight in zip(gamma.objects, nums):
        if i not in vals:
            raise hocolim.MissingValue(f"no local value supplied at {i!r}", witness={"object": i})
        total += weight * Fraction(vals[i])
    return total


def reloaded_diagram(d, seed: int):
    """``d`` again, over its index and each distinct vertex written to a
    manifest, the entries shuffled, and loaded (``loaded``), with its edges
    and coherence tables as they were; checked by its constructor."""
    stores = {}
    for cat in d.vertex.values():
        if cat not in stores:
            stores[cat] = loaded(cat, seed)
    edge = {m: CatFunctor(stores[f.source], stores[f.target], f.obj_map, f.mor_map)
            for m, f in d.edge.items()}
    parts = (loaded(d.index, seed), {i: stores[cat] for i, cat in d.vertex.items()}, edge)
    if isinstance(d, StrictDiagram):
        return StrictDiagram(*parts)
    return hocolim.PseudoDiagram(*parts, d.comp, d.unit)


def reference_generating_set(rows, ident, src, tgt) -> list[int]:
    """``groups._generating_set`` as it was: each reached morphism scans
    every generator found so far for those out of its target."""
    reached = [False] * len(rows)
    into: list[list[int]] = [[] for _ in ident]
    for x, e in enumerate(ident):
        reached[e] = True
        into[x].append(e)
    gens: list[int] = []
    for m in range(len(rows)):
        if reached[m]:
            continue
        gens.append(m)
        todo = [rows[v][m] for v in into[src[m]]]
        while todo:
            x = todo.pop()
            if not reached[x]:
                reached[x] = True
                y = tgt[x]
                into[y].append(x)
                row = rows[x]
                todo += [row[g] for g in gens if src[g] == y]
    return gens


def reference_unassociative(rows, pos, tgt, ident, out, middles):
    """``groups._unassociative`` as it was, with its ``middles``: the first
    (f, g, h) with h o (g o f) != (h o g) o f, f in index order, g in
    ``middles[tgt[f]]``, h in ``out[tgt[g]]``; identities and a g with no
    other h skipped."""
    ids = set(ident)
    steps = [[(g, pos[g], itemgetter(*map(pos.__getitem__, rows[g])))
              for g in gs if g not in ids and len(rows[g]) > 1] for gs in middles]
    for f, row_f in enumerate(rows):
        if f in ids:
            continue
        for g, p, take in steps[tgt[f]]:
            row_gf = rows[row_f[p]]
            if row_gf != take(row_f):
                return f, g, next(h for h, a, b in zip(out[tgt[g]], row_gf, take(row_f)) if a != b)
    return None


def reference_check_laws_rows(self, name: str) -> None:
    """``fincat._Rows.check_laws`` as it was before its associativity went
    through ``groups._check_associative``: completeness, both identity laws,
    then, unless thin, every morphism as a middle factor of the walk
    (``reference_unassociative``).  It finds no generators."""
    names, src, tgt, ident, rows, pos = self.names, self.src, self.tgt, self.ident, self.rows, self.pos
    out = self.out()
    for f, row in enumerate(rows):
        if None in row:
            g = out[tgt[f]][row.index(None)]
            raise IncompleteCompositionTable(
                f"{name}: missing composite for pair ({names[g]!r}, {names[f]!r})",
                witness={"pair": (names[g], names[f])},
            )
    for f, row in enumerate(rows):
        if row[pos[ident[tgt[f]]]] != f:
            raise BrokenIdentity(
                f"{name}: id o {names[f]!r} != {names[f]!r}", witness={"morphism": names[f]}
            )
        if rows[ident[src[f]]][pos[f]] != f:
            raise BrokenIdentity(
                f"{name}: {names[f]!r} o id != {names[f]!r}", witness={"morphism": names[f]}
            )
    if self.is_thin():
        return
    bad = reference_unassociative(rows, pos, tgt, ident, out, out)
    if bad is not None:
        f, g, h = map(names.__getitem__, bad)
        raise NonAssociative(f"{name}: h o (g o f) != (h o g) o f for "
                             f"(h, g, f) = ({h!r}, {g!r}, {f!r})",
                             witness={"h": h, "g": g, "f": f})


def reference_group_checks(labels, table, name) -> None:
    """``FinGroup.__post_init__`` as it was before its associativity check
    went through ``groups._check_on_generators``, with the loop that
    compared row ab against row a read through row b for every pair (a, b)
    in order, naming the first c of the first failing pair."""
    n = len(labels)
    if len(set(labels)) != n:
        dup = next(x for k, x in enumerate(labels) if x in labels[:k])
        raise NotAGroup(f"duplicate element labels in {name}", witness={"element": dup})
    shape = [len(row) for row in table]
    if shape != [n] * n:
        raise NotAGroup(f"Cayley table of {name} is not {n}x{n}", witness={"shape": shape})
    for row in table:
        for v in row:
            if not 0 <= v < n:
                raise NotAGroup(f"Cayley table entry {v} out of range", witness={"entry": v})
    rows = [list(row) for row in table]
    cols = [list(col) for col in zip(*rows)]
    every = list(range(n))
    identity = next((e for e in every if rows[e] == every and cols[e] == every), None)
    if identity is None:
        raise NotAGroup(f"{name} has no identity element", witness={"group": name})
    for a, row_a in enumerate(rows):
        if not any(x == identity == y for x, y in zip(row_a, cols[a])):
            raise NotAGroup(f"element {labels[a]!r} of {name} has no inverse",
                            witness={"element": labels[a]})
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            if rows[ab] != [row_a[x] for x in rows[b]]:
                c = next(c for c in range(n) if rows[ab][c] != row_a[rows[b][c]])
                triple = (labels[a], labels[b], labels[c])
                raise NotAGroup(
                    f"{name} is not associative on ({triple[0]!r}, {triple[1]!r}, {triple[2]!r})",
                    witness=triple,
                )


def reference_group_hom_checks(source: FinGroup, target: FinGroup, mapping: Mapping) -> None:
    """``GroupHom.__post_init__`` as it was before it went through
    ``groups._check_on_generators``: f(ab) against f(a)f(b) on every row a
    of the source, naming the first b of the first failing row."""
    for a in source.labels:
        if a not in mapping:
            raise NotAHomomorphism(f"map undefined on {a!r}", witness={"element": a})
        if mapping[a] not in target:
            raise NotAHomomorphism(f"image {mapping[a]!r} not in target group",
                                   witness={"element": a, "image": mapping[a]})
    img = [target.index(mapping[a]) for a in source.labels]
    if img[source._identity] != target._identity:
        raise NotAHomomorphism("identity is not preserved", witness={"element": source.identity})
    for a, row_a in enumerate(source.table):
        row_fa = target.table[img[a]]
        if [img[ab] for ab in row_a] != [row_fa[fb] for fb in img]:
            b = next(b for b, ab in enumerate(row_a) if img[ab] != row_fa[img[b]])
            pair = (source.labels[a], source.labels[b])
            raise NotAHomomorphism(
                f"product not preserved on ({pair[0]!r}, {pair[1]!r})", witness={"pair": pair}
            )
    if len(mapping) != len(source):
        key = next(k for k in mapping if k not in source)
        raise NotAHomomorphism(f"map key {key!r} is not an element of {source.name}",
                               witness={"key": key})


def reference_all_homs(source: FinGroup, target: FinGroup) -> list[GroupHom]:
    """``groups.all_homs`` as it was: a backtracking search over the source's
    labels in order, each tried on every target label in order."""
    src = source.labels
    out: list[GroupHom] = []
    partial: dict[str, str] = {source.identity: target.identity}

    def consistent(elt, img) -> bool:
        for a, fa in partial.items():
            for x, fx, y, fy in ((elt, img, a, fa), (a, fa, elt, img)):
                prod = source.mul(x, y)
                if prod in partial or prod == elt:
                    want = partial.get(prod, img if prod == elt else None)
                    if want is not None and target.mul(fx, fy) != want:
                        return False
        return True

    def extend(i):
        if i == len(src):
            try:
                out.append(GroupHom(source, target, dict(partial)))
            except NotAHomomorphism:
                pass
            return
        elt = src[i]
        if elt in partial:
            extend(i + 1)
            return
        for img in target.labels:
            if consistent(elt, img):
                partial[elt] = img
                extend(i + 1)
                del partial[elt]

    extend(0)
    return out


def reference_strict_diagram_checks(self) -> None:
    """The body of ``StrictDiagram.__post_init__`` as it was, comparing the
    edges' name maps as dicts on every identity and every composable pair
    in the order of the index's table (a stray key of the first edge that
    the second does not map raises KeyError); ``self`` is an unvalidated
    StrictDiagram."""
    _check_vertices_and_edges(self)
    idx = self.index
    for i in idx.objects:
        e = self.edge[idx.identity[i]]
        if (dict(e.obj_map), dict(e.mor_map)) != identity_maps(self.vertex[i]):
            raise ValidationError(f"edge at id_{i!r} is not the identity functor",
                                  witness={"object": i})
    for (v, u), vu in idx.composition.items():
        fun = self.edge[vu]
        if reference_composite_maps(self.edge[u], self.edge[v]) != (dict(fun.obj_map),
                                                                     dict(fun.mor_map)):
            raise ValidationError(f"strictness fails: edge({vu!r}) != edge({v!r}) o edge({u!r})",
                                  witness={"pair": (v, u)})


# -- manifest loads that check every copy of a repeated table ---------------------


def table_key(payload) -> str:
    """A category or group payload without its name, as JSON text: two
    payloads of str names hold one table exactly when their keys are equal."""
    return json.dumps({k: v for k, v in payload.items() if k != "name"}, sort_keys=True)


def reference_functor_from_payload(payload, src: FinCat, tgt: FinCat, edge: str) -> CatFunctor:
    """``manifest._functor_from_payload`` as it was: every edge checked."""
    fun = CatFunctor(src, tgt, manifest._str_map(payload["objects"]),
                     manifest._str_map(payload["morphisms"]))
    if len(fun.obj_map) != len(src.objects):
        x = next(x for x in fun.obj_map if not src.has_object(x))
        raise manifest.BadManifest(
            f"edge {edge!r}: object map key {x!r} is not an object of {src.name}",
            witness={"edge": edge, "object": x})
    if len(fun.mor_map) != len(src._ends.src):
        names = set(src.morphism_names())
        m = next(m for m in fun.mor_map if m not in names)
        raise manifest.BadManifest(
            f"edge {edge!r}: morphism map key {m!r} is not a morphism of {src.name}",
            witness={"edge": edge, "morphism": m})
    return fun


def reference_diagram_parts(payload) -> tuple:
    """``manifest._diagram_parts`` as it was: every vertex and every edge
    checked in full."""
    BadManifest = manifest.BadManifest
    index = manifest.category_from_payload(payload["index"], name="index")
    vertex = {
        str(i): manifest.category_from_payload(p, name=f"vertex[{i}]")
        for i, p in payload["vertices"].items()
    }
    for i in index.objects:
        if i not in vertex:
            raise BadManifest(f"no vertex category for index object {i!r}", witness={"object": i})
    if len(vertex) != len(index.objects):
        i = next(i for i in vertex if not index.has_object(i))
        raise BadManifest(f"vertex category for non-index object {i!r}", witness={"object": i})
    edges, edge = payload["edges"], {}
    for m, x, y in index._arrows():
        if m not in edges:
            raise BadManifest(f"no edge functor for morphism {m!r}", witness={"morphism": m})
        edge[m] = reference_functor_from_payload(edges[m], vertex[x], vertex[y], m)
    if len(edges) != len(edge):
        m = next(m for m in edges if m not in edge)
        raise BadManifest(f"edge functor for non-index morphism {m!r}", witness={"morphism": m})
    return index, vertex, edge


def reference_pseudo_diagram_from_payload(payload) -> hocolim.PseudoDiagram:
    """``manifest.pseudo_diagram_from_payload`` on ``reference_diagram_parts``."""
    BadManifest = manifest.BadManifest
    index, vertex, edge = reference_diagram_parts(payload)
    comp, r = {}, index._ends
    at, src, tgt = r.index, r.src, r.tgt
    for v, u, components in manifest._entries(payload.get("comp", []), "comp"):
        v, u = str(v), str(u)
        if u not in at or v not in at or tgt[at[u]] != src[at[v]]:
            raise BadManifest(f"comp entry for non-composable pair ({v!r}, {u!r})",
                              witness={"pair": (v, u)})
        comp[(v, u)] = manifest._str_map(components)
    unit = {}
    for i, components in payload.get("unit", {}).items():
        i = str(i)
        if not index.has_object(i):
            raise BadManifest(f"unit entry for non-index object {i!r}", witness={"object": i})
        unit[i] = manifest._str_map(components)
    return hocolim.PseudoDiagram(index, vertex, edge, comp, unit)


def reference_complex_from_payload(payload) -> groupact.ComplexOfGroups:
    """``manifest.complex_from_payload`` as it was: every local group and
    every structure homomorphism checked in full."""
    BadManifest = manifest.BadManifest
    base = manifest.category_from_payload(payload["base"], name="base")
    local = {str(x): manifest.group_from_payload(p) for x, p in payload["local"].items()}
    for x in base.objects:
        if x not in local:
            raise BadManifest(f"no local group for object {x!r}", witness={"object": x})
    homs, ids = {}, set(base.identity.values())
    for m, x, y in base._arrows():
        if m in ids:
            homs[m] = GroupHom.identity_hom(local[x])
        else:
            raw = payload["homs"].get(m)
            if raw is None:
                raise BadManifest(f"no structure homomorphism for {m!r}", witness={"morphism": m})
            homs[m] = GroupHom(local[x], local[y], manifest._str_map(raw))
    twists = {}
    for b, a, g in manifest._entries(payload.get("twists", []), "twists"):
        twists[(str(b), str(a))] = str(g)
    r = base._ends
    names, units = r.names, set(r.ident)
    for bi, ai in r.pairs():
        b, a = names[bi], names[ai]
        if (b, a) not in twists:
            if ai in units or bi in units:
                twists[(b, a)] = local[base.objects[r.tgt[bi]]].identity
            else:
                raise BadManifest(f"no twist for composable pair ({b!r}, {a!r})",
                                  witness={"pair": (b, a)})
    cplx = groupact.ComplexOfGroups(base, local, homs, twists)
    if len(local) != len(base.objects):
        x = next(x for x in local if not base.has_object(x))
        raise BadManifest(f"local group for non-base object {x!r}", witness={"object": x})
    for m in payload.get("homs", {}):
        if m not in homs:
            raise BadManifest(f"structure homomorphism for non-base morphism {m!r}",
                              witness={"morphism": m})
    return cplx


def reference_name_fields(objects, morphisms, identity, composition) -> dict:
    """The name fields the checked constructor once kept from its inputs:
    the records and the table as given, the lookup tables ``_hom`` and
    ``_by_source`` built eagerly from the records (as ``fincat._headers``
    does), and the inverse map by a search of the given
    table: each m against Hom(t(m), s(m)) in order, stopping at the first
    two-sided inverse."""
    hom: dict = {}
    by_source: dict = {x: [] for x in objects}
    for m in morphisms:
        hom.setdefault((m.source, m.target), []).append(m.name)
        by_source[m.source].append(m.name)
    inverse = {}
    for m in morphisms:
        for g in hom.get((m.target, m.source), ()):
            if composition[(g, m.name)] == identity[m.source] and \
                    composition[(m.name, g)] == identity[m.target]:
                inverse[m.name] = g
                break
    return {
        "morphisms": tuple(morphisms),
        "composition": dict(composition),
        "_hom": {k: tuple(v) for k, v in hom.items()},
        "_by_source": {k: tuple(v) for k, v in by_source.items()},
        "_invertible": inverse,
    }



# -- the name-level action route ----------------------------------------------------
# ``groupact``'s quotient, complex of groups, skeletal reduction, equivariant
# skeleton and chi theorems as they read an action by name, before an action
# kept its arrays: the reference of ``tests/test_action_arrays.py``.  Every
# action here, the input and each derived one, is a ``NamedAction``.


@dataclasses.dataclass(frozen=True)
class NamedAction:
    """An action as its name tables only."""

    group: FinGroup
    space: FinCat
    on_objects: Mapping[str, Mapping[str, str]]
    on_morphisms: Mapping[str, Mapping[str, str]]

    def act_obj(self, g: str, x: str) -> str:
        return self.on_objects[g][x]

    def act_mor(self, g: str, m: str) -> str:
        return self.on_morphisms[g][m]


def named_action(action) -> NamedAction:
    """The tables of ``action`` (a ``ScwolAction``), copied."""
    return NamedAction(action.group, action.space,
                       {g: dict(t) for g, t in action.on_objects.items()},
                       {g: dict(t) for g, t in action.on_morphisms.items()})


def _reference_orbits(action: NamedAction, names, act) -> tuple[tuple[str, ...], ...]:
    seen: set[str] = set()
    orbits = []
    for x in sorted(names):
        if x not in seen:
            orb = tuple(sorted({act(g, x) for g in action.group.labels}))
            seen.update(orb)
            orbits.append(orb)
    return tuple(orbits)


def reference_fixers(action: NamedAction, obj: str) -> list[str]:
    return [g for g in action.group.labels if action.act_obj(g, obj) == obj]


def reference_is_free(action: NamedAction) -> bool:
    return all(reference_fixers(action, x) == [action.group.identity] for x in action.space.objects)


def reference_carrier(action: NamedAction, x: str, y: str) -> str:
    return next(g for g in action.group.labels if action.act_obj(g, x) == y)


def reference_quotient_result(action: NamedAction):
    """(category, object_orbit_of, morphism_orbit_of) of ``groupact.quotient``."""
    cat = action.space
    obj_orbit = {x: orb[0] for orb in _reference_orbits(action, cat.objects, action.act_obj)
                 for x in orb}
    mor_orbit = {m: orb[0] for orb in _reference_orbits(action, cat.morphism_names(), action.act_mor)
                 for m in orb}
    r = cat._ends
    objs = sorted(set(obj_orbit.values()))
    names = sorted(set(mor_orbit.values()))
    obj_at, at = {x: i for i, x in enumerate(objs)}, {m: i for i, m in enumerate(names)}
    of_obj = [obj_at[obj_orbit[x]] for x in cat.objects]
    of_mor = [at[mor_orbit[m]] for m in r.names]
    lifts = [r.index[m] for m in names]
    rows = keyed_rows(r)
    cells = {(of_mor[b], f): of_mor[ba] for f, a in enumerate(lifts) for b, ba in rows[a].items()}
    q = checked_store(f"{cat.name}/{action.group.name}", objs, names,
                      [of_obj[r.src[a]] for a in lifts], [of_obj[r.tgt[a]] for a in lifts],
                      [of_mor[r.ident[r.objects[x]]] for x in objs],
                      [(b, f, ba) for (b, f), ba in sorted(cells.items())])
    return q, obj_orbit, mor_orbit


def reference_complex(action: NamedAction, q, object_reps=None, h_elements=None):
    """(complex, representatives, lifts, h elements) of
    ``groupact.complex_of_groups`` over ``q``, a ``reference_quotient_result``."""
    base, obj_orbit_of, mor_orbit_of = q
    cat, group = action.space, action.group
    object_reps, h_elements = object_reps or {}, h_elements or {}
    qr, r = base._ends, cat._ends
    reps = {s: object_reps.get(s, s) for s in base.objects}
    if any(obj_orbit_of.get(x) != s for s, x in reps.items()):
        raise ValidationError("representative does not project to its orbit")
    local = {s: group.subgroup(reference_fixers(action, reps[s]), name=f"Stab({reps[s]})")
             for s in base.objects}
    lift_at = {(x, mor_orbit_of[m]): a for a, (m, x) in enumerate(zip(r.names, r.src))}
    ids, arrows = set(qr.ident), list(base._arrows())
    lifts, h_elts = {}, {}
    for m, (name, x, y) in enumerate(arrows):
        lift = lift_at[r.objects[reps[x]], name]
        lifts[name], lift_target = r.names[lift], cat.objects[r.tgt[lift]]
        wanted = group.identity if m in ids else h_elements.get(name)
        if wanted is not None and action.act_obj(wanted, lift_target) != reps[y]:
            raise ValidationError("h element does not carry the lift target")
        h_elts[name] = wanted if wanted is not None else reference_carrier(action, lift_target, reps[y])
    homs = {name: groupact.GroupHom(local[x], local[y], {
        a: group.mul(group.mul(h_elts[name], a), group.inv(h_elts[name])) for a in local[x].labels})
        for name, x, y in arrows}
    twists = {(qr.names[b], qr.names[a]): group.mul(
        h_elts[qr.names[ba]],
        group.mul(group.inv(h_elts[qr.names[a]]), group.inv(h_elts[qr.names[b]])))
        for b, a, ba in qr.entries()}
    return groupact.ComplexOfGroups(base, local, homs, twists), reps, lifts, h_elts


def _reference_coordinated_choices(action: NamedAction, r, qx, rbar):
    cat = action.space
    qsk = fincat.skeleton(qx[0])
    rep_of, eta, normal_form = qsk.retraction.obj_map, qsk.eta, qsk.retraction.mor_map
    rows = cat._ends
    lift_at = {(x, qx[2][m]): a for a, (m, x) in enumerate(zip(rows.names, rows.src))}

    def lift_target(start: str, orbit: str) -> str:
        return cat.objects[rows.tgt[lift_at[rows.objects[start], orbit]]]

    sel = {s: lift_target(rep, eta[s]) for s, rep in rep_of.items()}
    h_on_skel: dict[str, str] = {}
    skel = qsk.category
    for name, x, y in skel._arrows():
        if skel.is_identity(name):
            h_on_skel[name] = action.group.identity
        else:
            h_on_skel[name] = reference_carrier(action, lift_target(sel[x], name), sel[y])
    h_x = {m: h_on_skel[nf] for m, nf in normal_form.items()}
    sel_g = {rbar.obj_map[s]: r.obj_map[sel[s]] for s in qsk.category.objects}
    h_g = {rbar.mor_map[nf]: h for nf, h in h_on_skel.items()}
    return (sel, h_x), (sel_g, h_g)


def _reference_complexes_agree(fx, fg, rbar) -> bool:
    for x in fx.base.objects:
        if set(fx.local[x].labels) != set(fg.local[rbar.obj_map[x]].labels):
            return False
    for m in fx.base.morphism_names():
        if dict(fx.homs[m].mapping) != dict(fg.homs[rbar.mor_map[m]].mapping):
            return False
    return all(fg.twists[(rbar.mor_map[b], rbar.mor_map[a])] == tw
               for (b, a), tw in fx.twists.items())


def reference_skeletal_reduction(action: NamedAction):
    """(reduced action, retraction, inclusion, report) of
    ``groupact.skeletal_reduction``."""
    cat, group = action.space, action.group
    sk = fincat.skeleton(cat)
    gamma, r, incl = sk.category, sk.retraction, sk.inclusion
    reduced = NamedAction(
        group, gamma,
        {g: {x: r.obj_map[action.act_obj(g, x)] for x in gamma.objects} for g in group.labels},
        {g: {m: r.mor_map[action.act_mor(g, m)] for m in gamma.morphism_names()}
         for g in group.labels})
    equivariant = all(
        r.obj_map[action.act_obj(g, x)] == reduced.act_obj(g, r.obj_map[x])
        for g in group.labels for x in cat.objects
    ) and all(
        r.mor_map[action.act_mor(g, m)] == reduced.act_mor(g, r.mor_map[m])
        for g in group.labels for m in cat.morphism_names())
    qx, qg = reference_quotient_result(action), reference_quotient_result(reduced)
    rbar_obj, rbar_mor, square = {}, {}, True
    for x in cat.objects:
        img = qg[1][r.obj_map[x]]
        square &= rbar_obj.setdefault(qx[1][x], img) == img
    for m in cat.morphism_names():
        img = qg[2][r.mor_map[m]]
        square &= rbar_mor.setdefault(qx[2][m], img) == img
    rbar, is_equivalence = None, False
    if square:
        rbar = CatFunctor(qx[0], qg[0], rbar_obj, rbar_mor)
        is_equivalence = (set(rbar_obj.values()) == set(qg[0].objects)
                          and groupact._fully_faithful(qx[0], qg[0], rbar))
    stab_ok = all(reference_fixers(action, x) == reference_fixers(reduced, x) for x in gamma.objects)
    complexes_agree = hocolims_equal = False
    if rbar is not None:
        fx_choices, fg_choices = _reference_coordinated_choices(action, r, qx, rbar)
        fx = reference_complex(action, qx, *fx_choices)[0]
        fg = reference_complex(reduced, qg, *fg_choices)[0]
        complexes_agree = _reference_complexes_agree(fx, fg, rbar)
        hocolims_equal = complex_chi_L(fx) == complex_chi_L(fg)
    freeness = (not reference_is_free(action)) or reference_is_free(reduced)
    report = groupact.ReductionReport(equivariant, square, is_equivalence, stab_ok,
                                      complexes_agree, hocolims_equal, freeness)
    return reduced, r, incl, report


def reference_equivariant_skeleton(action: NamedAction):
    """(restricted action, inclusion, retraction, eta, the two equivariance
    flags) of ``groupact.equivariant_skeleton``."""
    cat, group = action.space, action.group
    classes = fincat._iso_partition(cat)
    class_of_obj = {x: cls[0] for cls in classes for x in cls}
    section: dict[str, str] = {}
    for cls in classes:
        if cls[0] not in section:
            for g in group.labels:
                y = action.act_obj(g, cls[0])
                section[class_of_obj[y]] = y
    sk = fincat._retract(cat, {x: section[class_of_obj[x]] for x in cat.objects},
                         f"sk_G({cat.name})")
    gamma, eta = sk.category, sk.eta
    restricted = NamedAction(
        group, gamma,
        {g: {x: action.act_obj(g, x) for x in gamma.objects} for g in group.labels},
        {g: {m: action.act_mor(g, m) for m in gamma.morphism_names()} for g in group.labels})
    incl_equivariant = all(gamma.has_object(action.act_obj(g, x))
                           for g in group.labels for x in gamma.objects)
    eta_equivariant = all(action.act_mor(g, eta[x]) == eta[action.act_obj(g, x)]
                          for g in group.labels for x in cat.objects)
    return restricted, sk.inclusion, sk.retraction, eta, incl_equivariant, eta_equivariant


def complex_chi_L(cplx) -> Fraction:
    """``groupact._hocolim_chi_L`` of the complex of groups ``cplx``: its
    base and the order of each local group, in the base's object order."""
    return groupact._hocolim_chi_L(cplx.base, [cplx.local[x].order for x in cplx.base.objects])


def reference_chi_theorems(action: NamedAction) -> groupact.ChiTheoremsReport:
    q = reference_quotient_result(action)
    cplx = reference_complex(action, q)[0]
    chi_x, chi_q = eulerchar.chi_scwol(action.space), eulerchar.chi_scwol(q[0])
    order = action.group.order
    free = reference_is_free(action)
    spectrum = hocolim.bar_spectrum(q[0])
    formula_route = hocolim.formula_value(
        spectrum, {s: Fraction(1, cplx.local[s].order) for s in q[0].objects})
    direct_route = complex_chi_L(cplx)
    ones_route = hocolim.formula_value(spectrum, {s: Fraction(1) for s in q[0].objects})
    return groupact.ChiTheoremsReport(
        chi_x, chi_q, free, (Fraction(chi_x, order) == chi_q) if free else None, formula_route,
        direct_route, direct_route == Fraction(chi_x, order), int(ones_route), ones_route == chi_q)
