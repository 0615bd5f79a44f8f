"""Seeded random instances: scwols, groupoids, diagrams, and scwol actions.

Everything takes an explicit random.Random so test suites stay reproducible.
Strict diagrams are generated over free categories on acyclic multigraphs
(where any assignment on generating edges extends uniquely and strictly) and
over posets via subset-inclusion systems (where commutativity is automatic).
Every drawn instance is written unchecked, lawful by the proof in its
builder's docstring, and the tests check it again through the checked
constructors.  Random posets and free scwols are written by
``zoo._acyclic``.  A random groupoid is drawn whole (component sizes, then
vertex groups) and then written once, all its components in one store
(``groupoid_union``: one row per (i, g) shared by every (g; i, j)).  A
functor between random groupoids is written as its arrays, and a random
groupoid or inclusion diagram with its index view.  The polygon rotations
and reflections, the induced free action and the lifts along the cone and
the inflation are written as arrays (``_arrays``); only the circle's
reflection, the hand-built example of the CLI demo, goes through the
checked ``ScwolAction`` constructor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Mapping, Optional, Sequence

from .errors import _trusted
from .fincat import CatFunctor, FinCat, _Arrays, _require_scwol, _stored
from .groups import FinGroup, GroupHom, _image_of, all_homs, cyclic_group, klein_four_group, symmetric_group, trivial_group
from .groupact import ScwolAction, trivial_action
from .hocolim import StrictDiagram, _index_view, _set_diagram, constant_diagram
from .zoo import _acyclic, _inflated, _poset, circle_scwol, cone, inflate, polygon_scwol

_POOL: Optional[list[FinGroup]] = None
_HOM_CACHE: dict[tuple[int, int], list[GroupHom]] = {}


def group_pool() -> list[FinGroup]:
    """Shared instances so homomorphism enumeration can be cached by identity."""
    global _POOL
    if _POOL is None:
        _POOL = [
            trivial_group(),
            cyclic_group(2),
            cyclic_group(3),
            cyclic_group(4),
            klein_four_group(),
            cyclic_group(5),
            cyclic_group(6),
            symmetric_group(3),
        ]
    return _POOL


def random_group(rng: Random, max_order: int = 6) -> FinGroup:
    candidates = [g for g in group_pool() if g.order <= max_order]
    return rng.choice(candidates)


def homs_between(source: FinGroup, target: FinGroup) -> list[GroupHom]:
    key = (id(source), id(target))
    if key not in _HOM_CACHE:
        _HOM_CACHE[key] = all_homs(source, target)
    return _HOM_CACHE[key]


# -- scwols ---------------------------------------------------------------------


def random_skeletal_scwol(
    rng: Random,
    max_objects: int = 8,
    edge_prob: float = 0.4,
    max_parallel: int = 2,
) -> FinCat:
    """Free category on a random acyclic multigraph (objects o0 < o1 < ...).

    Being free, composable non-identity paths never collide, so arbitrary
    generator data extends strictly; being acyclic, it is a skeletal scwol.
    Its arrows are the edge paths p[e.f...] by length (over 300, a sparser
    instance is rolled), written by ``zoo._acyclic`` with the composites
    q o p = p.q of each p over the q out of its end, in path order."""
    n = rng.randint(1, max_objects)
    objects = [f"o{i}" for i in range(n)]
    out: list[list[tuple[str, int]]] = [[] for _ in objects]  # the edges out of each object
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                for k in range(rng.randint(1, max_parallel)):
                    out[i].append((f"e{i}_{j}_{k}", j))

    # every composable edge path; the free category has one morphism per path
    paths: list[tuple[tuple[str, ...], int, int]] = []
    frontier = [((e,), i, j) for i, es in enumerate(out) for e, j in es]
    while frontier:
        paths.extend(frontier)
        frontier = [(seq + (e,), i, k) for seq, i, j in frontier for e, k in out[j]]
        if len(paths) > 300:  # roll a sparser instance instead
            return random_skeletal_scwol(rng, max_objects, edge_prob * 0.6, 1)
    at = {seq: m for m, (seq, _, _) in enumerate(paths, n)}
    starting = [[seq for seq, i, _ in paths if i == x] for x in range(n)]  # the paths out of x
    return _acyclic("freecat", objects, ["p[" + ".".join(seq) + "]" for seq, _, _ in paths],
                    [i for _, i, _ in paths], [j for _, _, j in paths],
                    [[at[p + q] for q in starting[j]] for p, _, j in paths])


@dataclass(frozen=True)
class FreeDiagramIndex:
    category: FinCat
    generators: tuple[str, ...]  # morphism names of single-edge paths
    decomposition: Mapping[str, tuple[str, ...]]  # path morphism -> generator names


def random_free_index(rng: Random, max_objects: int = 4, edge_prob: float = 0.5) -> FreeDiagramIndex:
    cat = random_skeletal_scwol(rng, max_objects, edge_prob, max_parallel=2)
    decomposition = {m: () if cat.is_identity(m) else tuple(f"p[{e}]" for e in m[2:-1].split("."))
                     for m in cat.morphism_names()}  # the edges of each path p[e.f...]
    return FreeDiagramIndex(cat, tuple(m for m, edges in decomposition.items() if len(edges) == 1),
                            decomposition)


def random_poset(rng: Random, max_objects: int = 5, rel_prob: float = 0.4) -> FinCat:
    """Random finite poset (one morphism x -> y iff x <= y), as a scwol:
    i < j drawn with probability ``rel_prob`` for each i < j, then
    transitively closed, with arrows le[i,j] in ``zoo._poset`` order."""
    n = rng.randint(1, max_objects)
    drawn = [[j for j in range(i + 1, n) if rng.random() < rel_prob] for i in range(n)]
    above: list[set[int]] = [set() for _ in drawn]
    for i in reversed(range(n)):  # transitive closure, the objects above i closed already
        for j in drawn[i]:
            above[i] |= above[j] | {j}
    return _poset("poset", [f"q{i}" for i in range(n)], list(map(sorted, above)),
                  "le[{},{}]".format)


def random_scwol(rng: Random, max_objects: int = 8, allow_fattening: bool = True) -> FinCat:
    base = rng.choice(
        [
            lambda: random_skeletal_scwol(rng, max_objects),
            lambda: random_poset(rng, max_objects),
        ]
    )()
    if allow_fattening and rng.random() < 0.3:
        copies = {x: rng.choice([1, 1, 2]) for x in base.objects}
        return inflate(base, copies)
    return base


# -- groupoids -------------------------------------------------------------------


@dataclass(frozen=True)
class GroupoidComponent:
    prefix: str
    group: FinGroup
    objects: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class Groupoid:
    category: FinCat
    components: tuple[GroupoidComponent, ...]


def groupoid_union(parts: Sequence[tuple[FinGroup, int, str]]) -> Groupoid:
    """The disjoint union of connected groupoids, one per part ``(group, n,
    prefix)`` with objects ``prefix.0`` .. ``prefix.(n-1)``, written in one
    store: hom(i, j) ~ G, (h; j, k) o (g; i, j) = (hg; i, k) and
    (g; i, j)^-1 = (g^-1; j, i), each by index arithmetic.  So the row of
    (g; i, j), the (hg; i, k) for the (h; j, k) in order, does not depend
    on j: it is one tuple, made once per (i, g) and kept by every j.  With
    m the group's order, (g; i, j) is at ``pos`` j m + g among the
    morphisms out of i.  Its name is the parts' ``gpd(prefix)`` joined by
    ``+``."""
    objects, names, src, tgt, ident, rows, pos, comps = [], [], [], [], [], [], [], []
    inverses: dict[int, int] = {}
    for group, size, prefix in parts:
        n_obj, base, n, objs = len(objects), len(names), group.order, range(size)
        # at[i][j] is the index of (e; i, j), so (g; i, j) is at[i][j] + g
        at = [[base + (i * size + j) * n for j in objs] for i in objs]
        comps.append(GroupoidComponent(prefix, group, tuple(f"{prefix}.{i}" for i in objs)))
        objects += comps[-1].objects
        names += [f"{prefix}[{g};{i},{j}]" for i in objs for j in objs for g in group.labels]
        src += [n_obj + i for i in objs for _ in range(size * n)]
        tgt += [n_obj + j for _ in objs for j in objs for _ in range(n)]
        ident += [at[i][i] + group._identity for i in objs]
        inverses.update((at[i][j] + g, at[j][i] + u) for i in objs for j in objs
                        for g, u in enumerate(group._inverse))
        columns = list(zip(*group.table))  # columns[g][h] is hg
        for row_i in at:
            rows += [tuple(ik + hg for ik in row_i for hg in col) for col in columns] * size
        width = size * n
        pos += itertools.chain.from_iterable(itertools.repeat(range(width), size))
    cat = _stored("+".join(f"gpd({c.prefix})" for c in comps), objects, names, src, tgt, ident,
                  inverses=(inverses, True), rows=rows, pos=tuple(pos))
    return Groupoid(cat, tuple(comps))


def connected_groupoid(group: FinGroup, n_objects: int, prefix: str) -> tuple[FinCat, GroupoidComponent]:
    """A connected groupoid with the given vertex group: the one-part
    ``groupoid_union``."""
    gpd = groupoid_union([(group, n_objects, prefix)])
    return gpd.category, gpd.components[0]


def random_groupoid(rng: Random, max_objects: int = 4, max_group_order: int = 4,
                    tag: str = "c") -> Groupoid:
    """A random groupoid on 1 to ``max_objects`` objects: its component
    sizes, then each component's vertex group, drawn in that order and
    written in one ``groupoid_union``."""
    total = rng.randint(1, max_objects)
    sizes = []
    while total > 0:
        s = rng.randint(1, total)
        sizes.append(s)
        total -= s
    return groupoid_union([(random_group(rng, max_group_order), size, f"{tag}{idx}")
                           for idx, size in enumerate(sizes)])


def random_groupoid_functor(rng: Random, src: Groupoid, tgt: Groupoid) -> CatFunctor:
    """Random functor built per component from a group homomorphism and an
    arbitrary object assignment into a chosen target component, drawn in
    that order and written as arrays on the layout of ``groupoid_union``:
    (g; i, j) goes to (phi(g); a_i, a_j), at ``at[a_i][a_j] + img[g]``.
    It is a functor with phi a homomorphism, so it is not checked again:
    (g; i, j) : i -> j goes to a_i -> a_j, the identity (e; i, i) to
    (phi(e); a_i, a_i) = (e; a_i, a_i), and the composite (hg; i, k) of
    (h; j, k) o (g; i, j) to (phi(hg); a_i, a_k) = (phi(h) phi(g); a_i, a_k),
    the composite of their images."""
    sizes = [len(c.objects) for c in tgt.components]
    targets = list(zip(tgt.components, itertools.accumulate(sizes, initial=0), itertools.accumulate(
        [n * n * c.group.order for n, c in zip(sizes, tgt.components)], initial=0)))
    fo, fm = [], []
    for comp in src.components:
        target_comp, first, base = rng.choice(targets)
        img = _image_of(rng.choice(homs_between(comp.group, target_comp.group)))
        size, order = len(target_comp.objects), target_comp.group.order
        assign = [rng.randrange(size) for _ in comp.objects]
        fo += [first + a for a in assign]
        fm += [at + h for at in [base + (a * size + b) * order for a in assign for b in assign]
               for h in img]
    return _trusted(CatFunctor, source=src.category, target=tgt.category, _arrays=(fo, fm))


# -- diagrams --------------------------------------------------------------------


def random_groupoid_diagram(
    rng: Random,
    max_index_objects: int = 4,
    max_vertex_objects: int = 3,
    max_group_order: int = 4,
) -> StrictDiagram:
    """Random strict diagram: free scwol index, groupoid vertices, arbitrary
    functors on generating edges extended along path decomposition.  It is
    strict, so it is not checked again: the edge of an identity is the
    identity functor, and the edge of a path is the composite of its
    generators' functors along its one decomposition, so the edge of a
    composite path, the concatenation of its factors' decompositions, is
    the composite of its factors' edges.  Its ``_index_view`` is made and
    kept here, as the check would keep it, for the builder to read."""
    index = random_free_index(rng, max_index_objects)
    cat = index.category
    vertices = {
        i: random_groupoid(rng, max_vertex_objects, max_group_order, tag=f"v{i}")
        for i in cat.objects
    }
    gen_functors: dict[str, CatFunctor] = {}
    for gen in index.generators:
        gen_functors[gen] = random_groupoid_functor(
            rng, vertices[cat.source(gen)], vertices[cat.target(gen)]
        )
    edge: dict[str, CatFunctor] = {}
    for m, x, _ in cat._arrows():
        parts = index.decomposition[m]
        if not parts:
            edge[m] = CatFunctor.identity_functor(vertices[x].category)
        else:
            fun = gen_functors[parts[0]]
            for nxt in parts[1:]:
                fun = fun.then(gen_functors[nxt])
            edge[m] = fun
    d = _trusted(StrictDiagram, index=cat, vertex={i: g.category for i, g in vertices.items()},
                 edge=edge)
    _index_view(d)
    return d


def random_inclusion_diagram(rng: Random, universe_size: int = 6,
                             max_objects: int = 4) -> StrictDiagram:
    """Random diagram of subset inclusions over a random poset: each element
    of the universe lies in the up-set of an object drawn for it, in
    universe order.  It is written by ``hocolim._set_diagram``, not
    checked: membership is an up-set, so i <= j gives sets[i] within
    sets[j], and inclusions compose strictly."""
    poset = random_poset(rng, max_objects)
    arrows = list(poset._arrows())
    universe = [f"u{i}" for i in range(rng.randint(1, universe_size))]
    # a poset is transitively closed: the up-set of x is the targets of its arrows
    membership = {u: {y for _, x, y in arrows if x == start}
                  for u in universe for start in [rng.choice(poset.objects)]}
    sets = {
        i: [u for u in universe if i in membership[u]] for i in poset.objects
    }
    maps = {m: {u: u for u in sets[x]} for m, x, _ in arrows if not poset.is_identity(m)}
    return _set_diagram(poset, sets, maps, False)


def random_strict_diagram(rng: Random) -> StrictDiagram:
    roll = rng.random()
    if roll < 0.6:
        return random_groupoid_diagram(rng)
    if roll < 0.8:
        return random_inclusion_diagram(rng)
    index = random_scwol(rng, max_objects=4, allow_fattening=False)
    vertex = random_groupoid(rng, 3, 4, tag="cv").category
    return constant_diagram(index, vertex)


# -- scwol actions ----------------------------------------------------------------


def induced_free_action(group: FinGroup, base: FinCat) -> ScwolAction:
    """G x Y with g . (h, y) = (gh, y): free on objects, quotient Y.

    Copy h of the base is written off its rows, (h, x) as object h |Y| + x
    and (h, m) as morphism h |M| + m: its rows and positions are the
    base's, shifted.  Element g moves copy h onto copy gh (its Cayley row): an
    automorphism, and (gk)h = g(kh).  Only the identity fixes an object, and
    it fixes every morphism (axiom ii); a non-identity arrow of a scwol has
    two ends (axiom i).  So only the space is checked."""
    r, n_obj = base._ends, len(base)
    n_mor, copies = len(r.names), range(group.order)
    space = _stored(f"{group.name}x{base.name}",
                    [f"{g}*{x}" for g in group.labels for x in base.objects],
                    [f"{g}*{m}" for g in group.labels for m in r.names],
                    [g * n_obj + x for g in copies for x in r.src],
                    [g * n_obj + y for g in copies for y in r.tgt],
                    [g * n_mor + e for g in copies for e in r.ident],
                    [*r.rows, *(tuple(c + g * n_mor for c in row) for g in copies[1:]
                                for row in r.rows)], r.pos * group.order,
                    ({g * n_mor + m: g * n_mor + u for g in copies for m, u in r.inv.items()},
                     base._directly_finite))
    _require_scwol(space)
    return _trusted(ScwolAction, group=group, space=space, _arrays=[
        ([gh * n_obj + x for gh in row for x in range(n_obj)],
         [gh * n_mor + m for gh in row for m in range(n_mor)]) for row in group.table])


def _polygon_arrays(n: int, vs: Sequence[int], es: Sequence[int], swap: bool) -> _Arrays:
    """The arrays of the map of ``polygon_scwol(n)`` that sends v_i to
    v_vs[i], e_i to e_es[i], each identity to the identity of its object's
    image, and s_i and t_i to s and t of e_es[i], or to t and s with
    ``swap``.  On the polygon's layout, v_i is object i and e_i object
    n + i, the identities come first, and s_i is morphism 2n + 2i and t_i
    2n + 2i + 1."""
    fo = [*vs, *(n + j for j in es)]
    return fo, [*fo, *(2 * n + 2 * j + b for j in es for b in ((1, 0) if swap else (0, 1)))]


def rotation_action(sides: int, step: int = 1) -> ScwolAction:
    """Z/(sides/step) rotating the subdivided polygon, k by k ``step``
    sides: free on objects, written as arrays (``_polygon_arrays``), not
    checked.  With r = k step, k sends v_i, e_i, s_i and t_i to v, e, s and
    t of i + r (mod sides).  So s_i : e_i -> v_i and t_i : e_i -> v_(i+1)
    go to arrows between the images of their ends, and no two arrows
    compose: each k is a functor, and k then l rotates by k + l, mod
    sides/step.  An edge goes to an edge, so no arrow e -> v joins a point
    to its image (axiom i), and only 0 fixes an object (axiom ii)."""
    if step < 1:
        raise ValueError(f"step must be positive, not {step}")
    if sides % step:
        raise ValueError("step must divide the number of sides")
    space, order = polygon_scwol(sides), sides // step
    return _trusted(ScwolAction, group=cyclic_group(order), space=space, _arrays=[
        _polygon_arrays(sides, r, r, False) for k in range(order)
        for r in [[(i + k * step) % sides for i in range(sides)]]])


def reflection_action(sides: int) -> ScwolAction:
    """Z/2 reflecting an even polygon through v_0 and v_(sides/2), written
    as arrays (``_polygon_arrays``), not checked: 1 sends v_i to v_(-i),
    e_i to e_(j), j = sides - 1 - i, s_i : e_i -> v_i to t_j : e_j -> v_(-i)
    and t_i : e_i -> v_(i+1) to s_j : e_j -> v_(-i-1).  So it is a functor
    (no two arrows compose) and an involution.  An edge goes to an edge
    (axiom i), and every arrow starts at an edge, which no reflection of an
    even polygon fixes (axiom ii)."""
    if sides % 2:
        raise ValueError("reflection through vertices needs an even polygon")
    group, space, every = cyclic_group(2), polygon_scwol(sides), range(sides)
    return _trusted(ScwolAction, group=group, space=space, _arrays=[
        _polygon_arrays(sides, every, every, False),
        _polygon_arrays(sides, [-i % sides for i in every], [sides - 1 - i for i in every], True)])


def circle_action() -> ScwolAction:
    """The reflection of the combinatorial circle (the 2-gon)."""
    group, space = cyclic_group(2), circle_scwol()
    swap_o = {"x": "x2", "x2": "x", "y": "y", "z": "z"}
    swap_m = {
        "a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1",
        "id_x": "id_x2", "id_x2": "id_x", "id_y": "id_y", "id_z": "id_z",
    }
    return ScwolAction(
        group,
        space,
        {"0": {o: o for o in space.objects}, "1": swap_o},
        {"0": {m: m for m in space.morphism_names()}, "1": swap_m},
    )


def cone_action(action: ScwolAction, apex: str = "t") -> ScwolAction:
    """Extend an action over the cone with a fixed apex: g . c[x] = c[g . x]
    on the cone's layout (``zoo.cone``: the space's morphisms, id_apex,
    then each c[x]).  Each element is a functor (c[t(m)] o m = c[s(m)] goes
    to c[g.t(m)] o g.m = c[g.s(m)]), the law holds on the new arrows as on
    the objects, no c[x] ends where it starts (axiom i) and g fixing x
    fixes c[x] (axiom ii); so it is not checked again."""
    space = cone(action.space, apex)
    n, top = len(action.space), len(action.space._ends.names)
    return _trusted(ScwolAction, group=action.group, space=space, _arrays=[
        ([*fo, n], [*fm, top, *(top + 1 + y for y in fo)]) for fo, fm in action._arrays])


def inflate_action(action: ScwolAction, copies: Mapping[str, int]) -> ScwolAction:
    """Clone objects (orbit-constant copy counts) and extend the action by
    fixing the copy index: g . (x, i) = (g . x, i), and g . (m, i, j) =
    (g . m, i, j), on the inflation's layout (``zoo._inflated``).  Orbit
    constancy makes each element a bijection of the copies; it is a functor
    and a homomorphism copy by copy, as on the space, and the axioms hold
    as there: g . (x, i) = (y, j) needs g . x = y and i = j, and g fixing
    (x, i) fixes x.  So it is not checked again."""
    counts = [copies.get(x, 1) for x in action.space.objects]
    if any(counts[y] != c for fo, _ in action._arrays for c, y in zip(counts, fo)):
        raise ValueError("copy counts must be constant on orbits")
    space = inflate(action.space, copies)
    n, ob, at = _inflated(action.space.objects, action.space._ends, copies)
    return _trusted(ScwolAction, group=action.group, space=space, _arrays=[
        ([ob[y] + i for x, y in enumerate(fo) for i in range(n[x])],
         [at[gm] + o for m, gm in enumerate(fm) for o in range(at[m + 1] - at[m])])
        for fo, fm in action._arrays])


def cyclic_subgroups(group: FinGroup) -> list[tuple[str, ...]]:
    """Element sets of all cyclic subgroups (plus the whole group)."""
    out = {tuple(sorted(group.labels))}
    for g in group.labels:
        members, cur = {group.identity}, g
        while cur not in members:
            members.add(cur)
            cur = group.mul(cur, g)
        out.add(tuple(sorted(members)))
    return sorted(out)


def coset_gset(group: FinGroup, members: Sequence[str], prefix: str):
    """Left cosets of a subgroup as a transitive G-set."""
    subgroup = frozenset(members)
    cosets = sorted({frozenset(group.mul(g, h) for h in subgroup) for g in group.labels}, key=sorted)
    label = {c: f"{prefix}{i}" for i, c in enumerate(cosets)}
    return [label[c] for c in cosets], {
        g: {label[c]: label[frozenset(group.mul(g, x) for x in c)] for c in cosets}
        for g in group.labels}


def random_gset(rng: Random, group: FinGroup, max_orbits: int = 3):
    """A finite left G-set: a disjoint union of random coset orbits."""
    subgroups = cyclic_subgroups(group)
    elements: list[str] = []
    act = {g: {} for g in group.labels}
    for i in range(rng.randint(1, max_orbits)):
        orbit_elements, orbit_act = coset_gset(group, rng.choice(subgroups), prefix=f"o{i}_")
        elements.extend(orbit_elements)
        for g in group.labels:
            act[g].update(orbit_act[g])
    return elements, act


def random_free_action(rng: Random, max_group_order: int = 6,
                       max_space_objects: int = 12) -> ScwolAction:
    if rng.random() < 0.5:
        order = rng.randint(2, max_group_order)
        pool = {g.name: g for g in group_pool()}
        group = (pool.get(f"Z{order}") or cyclic_group(order) if order != 4 or rng.random() < 0.5
                 else pool["V4"])
        if group.order == 6 and rng.random() < 0.5:
            group = pool["S3"]
        base = random_scwol(rng, max_objects=max(1, max_space_objects // group.order),
                            allow_fattening=False)
        return induced_free_action(group, base)
    sides = rng.choice([2, 3, 4, 5, 6])
    divisors = [d for d in range(1, sides) if sides % d == 0]
    step = rng.choice(divisors)
    return rotation_action(sides, step)


def random_action(rng: Random) -> ScwolAction:
    roll = rng.random()
    if roll < 0.35:
        act = random_free_action(rng, max_group_order=4, max_space_objects=8)
    elif roll < 0.55:
        act = reflection_action(rng.choice([2, 4, 6]))
    elif roll < 0.75:
        act = trivial_action(random_group(rng, 4), random_scwol(rng, 5, allow_fattening=False))
    else:
        act = circle_action()
    if rng.random() < 0.35:
        act = cone_action(act)
    if rng.random() < 0.3:
        copies = {x: c for orb in act.object_orbits() for c in [rng.choice([1, 1, 2])] for x in orb}
        act = inflate_action(act, copies)
    return act
