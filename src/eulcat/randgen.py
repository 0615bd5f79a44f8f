"""Seeded random instances: scwols, groupoids, diagrams, and scwol actions.

Everything takes an explicit random.Random so test suites stay reproducible.
Strict diagrams are generated over free categories on acyclic multigraphs
(where any assignment on generating edges extends uniquely and strictly) and
over posets via subset-inclusion systems (where commutativity is automatic).
A random groupoid is drawn whole (component sizes, then vertex groups) and
then written once, all its components in one store (``groupoid_union``).
The hand-built actions go through the checked ``ScwolAction`` constructor;
the induced free action and the lifts along the cone and the inflation are
written as arrays (``_arrays``), with the proof in the docstring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Mapping, Optional, Sequence

from .errors import _trusted
from .fincat import CatFunctor, FinCat, _require_scwol, _rows_of, _stored
from .groups import FinGroup, GroupHom, _image_of, all_homs, cyclic_group, klein_four_group, symmetric_group, trivial_group
from .groupact import ScwolAction, trivial_action
from .hocolim import StrictDiagram, constant_diagram, set_diagram
from .zoo import _inflated, build_category, circle_scwol, cone, inflate, polygon_scwol

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
    """
    n = rng.randint(1, max_objects)
    objects = [f"o{i}" for i in range(n)]
    edges = []  # (name, src_index, tgt_index)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                for k in range(rng.randint(1, max_parallel)):
                    edges.append((f"e{i}_{j}_{k}", i, j))

    # enumerate all composable edge paths; the free category has one
    # morphism per path
    paths: list[tuple[tuple[str, ...], int, int]] = []
    frontier = [((e[0],), e[1], e[2]) for e in edges]
    while frontier:
        paths.extend(frontier)
        nxt = []
        for seq, src, tgt in frontier:
            for e in edges:
                if e[1] == tgt:
                    nxt.append((seq + (e[0],), src, e[2]))
        frontier = nxt
        if len(paths) > 300:  # roll a sparser instance instead
            return random_skeletal_scwol(rng, max_objects, edge_prob * 0.6, 1)

    def path_name(seq):
        return "p[" + ".".join(seq) + "]"

    arrows = [(path_name(seq), objects[s], objects[t]) for seq, s, t in paths]
    compose = {}
    for seq1, s1, t1 in paths:
        for seq2, s2, t2 in paths:
            if t1 == s2:
                compose[(path_name(seq2), path_name(seq1))] = path_name(seq1 + seq2)
    return build_category(objects, arrows, compose, name="freecat")


@dataclass(frozen=True)
class FreeDiagramIndex:
    category: FinCat
    generators: tuple[str, ...]  # morphism names of single-edge paths
    decomposition: Mapping[str, tuple[str, ...]]  # path morphism -> generator names


def random_free_index(rng: Random, max_objects: int = 4, edge_prob: float = 0.5) -> FreeDiagramIndex:
    cat = random_skeletal_scwol(rng, max_objects, edge_prob, max_parallel=2)
    generators = []
    decomposition = {}
    for m in cat.morphism_names():
        if cat.is_identity(m):
            decomposition[m] = ()
            continue
        seq = tuple(m[2:-1].split("."))
        decomposition[m] = tuple(f"p[{e}]" for e in seq)
        if len(seq) == 1:
            generators.append(m)
    return FreeDiagramIndex(cat, tuple(generators), decomposition)


def random_poset(rng: Random, max_objects: int = 5, rel_prob: float = 0.4) -> FinCat:
    """Random finite poset (one morphism x -> y iff x <= y), as a scwol."""
    n = rng.randint(1, max_objects)
    objects = [f"q{i}" for i in range(n)]
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < rel_prob:
                leq[i][j] = True
    for k in range(n):  # transitive closure
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])

    def nm(i, j):
        return f"le[{i},{j}]"

    arrows = [(nm(i, j), objects[i], objects[j]) for i in range(n) for j in range(n) if i != j and leq[i][j]]
    compose = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        if i != j and j != k and leq[i][j] and leq[j][k]:  # so i < j < k
            compose[(nm(j, k), nm(i, j))] = nm(i, k)
    return build_category(objects, arrows, compose, name="poset")


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
    (g; i, j)^-1 = (g^-1; j, i), each by index arithmetic, with the entries
    in the order part, i, j, k, g, h.  Its name is the parts' ``gpd(prefix)``
    joined by ``+``."""
    objects, names, src, tgt, ident, blocks, comps = [], [], [], [], [], [], []
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
        blocks.append((at, group.table))
    entries = ((jk + h, ij + g, ik + row_h[g]) for at, table in blocks
               for row_i in at for ij, row_j in zip(row_i, at) for jk, ik in zip(row_j, row_i)
               for g in range(len(table)) for h, row_h in enumerate(table))
    cat = _stored("+".join(f"gpd({c.prefix})" for c in comps), objects, names, src, tgt, ident,
                  entries, (inverses, True))
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
    (g; i, j) goes to (hom(g); a_i, a_j), at ``at[a_i][a_j] + img[g]``."""
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
    return CatFunctor.from_arrays(src.category, tgt.category, fo, fm)


# -- diagrams --------------------------------------------------------------------


def random_groupoid_diagram(
    rng: Random,
    max_index_objects: int = 4,
    max_vertex_objects: int = 3,
    max_group_order: int = 4,
) -> StrictDiagram:
    """Random strict diagram: free scwol index, groupoid vertices, arbitrary
    functors on generating edges extended along path decomposition."""
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
    return StrictDiagram(cat, {i: g.category for i, g in vertices.items()}, edge)


def random_inclusion_diagram(rng: Random, universe_size: int = 6,
                             max_objects: int = 4) -> StrictDiagram:
    """Random diagram of subset inclusions over a random poset."""
    poset = random_poset(rng, max_objects)
    arrows = list(poset._arrows())
    universe = [f"u{i}" for i in range(rng.randint(1, universe_size))]

    def up_set(start: str) -> set[str]:
        out = {start}
        changed = True
        while changed:
            changed = False
            for _, x, y in arrows:
                if x in out and y not in out:
                    out.add(y)
                    changed = True
        return out

    membership = {u: up_set(rng.choice(poset.objects)) for u in universe}
    sets = {
        i: [u for u in universe if i in membership[u]] for i in poset.objects
    }
    maps = {m: {u: u for u in sets[x]} for m, x, _ in arrows if not poset.is_identity(m)}
    return set_diagram(poset, sets, maps)


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
    and (h, m) as morphism h |M| + m.  Element g moves copy h onto copy gh
    (its Cayley row): an automorphism, and (gk)h = g(kh).  Only the identity
    fixes an object, and it fixes every morphism (axiom ii); a non-identity
    arrow of a scwol has two ends (axiom i).  So only the space is checked."""
    r, n_obj = _rows_of(base), len(base)
    n_mor = len(r.names)
    copies = range(group.order)
    space = _stored(f"{group.name}x{base.name}",
                    [f"{g}*{x}" for g in group.labels for x in base.objects],
                    [f"{g}*{m}" for g in group.labels for m in r.names],
                    [g * n_obj + x for g in copies for x in r.src],
                    [g * n_obj + y for g in copies for y in r.tgt],
                    [g * n_mor + e for g in copies for e in r.ident],
                    ((g * n_mor + b, g * n_mor + a, g * n_mor + r.rows[a][b])
                     for g in copies for b, a in r.pairs()),
                    ({g * n_mor + m: g * n_mor + u for g in copies for m, u in r.inv.items()},
                     base._directly_finite))
    _require_scwol(space)
    return _trusted(ScwolAction, group=group, space=space, _arrays=[
        ([gh * n_obj + x for gh in row for x in range(n_obj)],
         [gh * n_mor + m for gh in row for m in range(n_mor)]) for row in group.table])


def rotation_action(sides: int, step: int = 1) -> ScwolAction:
    """Cyclic rotation of the subdivided polygon; free on objects."""
    if sides % step:
        raise ValueError("step must divide the number of sides")
    order = sides // step
    group = cyclic_group(order)
    space = polygon_scwol(sides)

    def rot(k: int):
        shift = k * step
        omap = {}
        mmap = {}
        for i in range(sides):
            omap[f"v{i}"] = f"v{(i + shift) % sides}"
            omap[f"e{i}"] = f"e{(i + shift) % sides}"
            mmap[f"s{i}"] = f"s{(i + shift) % sides}"
            mmap[f"t{i}"] = f"t{(i + shift) % sides}"
            mmap[f"id_v{i}"] = f"id_v{(i + shift) % sides}"
            mmap[f"id_e{i}"] = f"id_e{(i + shift) % sides}"
        return omap, mmap

    on_objects = {}
    on_morphisms = {}
    for k in range(order):
        omap, mmap = rot(k)
        on_objects[str(k)] = omap
        on_morphisms[str(k)] = mmap
    return ScwolAction(group, space, on_objects, on_morphisms)


def reflection_action(sides: int) -> ScwolAction:
    """Z/2 reflection of an even polygon through two opposite vertices."""
    if sides % 2:
        raise ValueError("reflection through vertices needs an even polygon")
    group = cyclic_group(2)
    space = polygon_scwol(sides)
    omap = {}
    mmap = {}
    for i in range(sides):
        omap[f"v{i}"] = f"v{(-i) % sides}"
        omap[f"e{i}"] = f"e{(sides - 1 - i) % sides}"
        mmap[f"s{i}"] = f"t{(sides - 1 - i) % sides}"
        mmap[f"t{i}"] = f"s{(sides - 1 - i) % sides}"
        mmap[f"id_v{i}"] = f"id_v{(-i) % sides}"
        mmap[f"id_e{i}"] = f"id_e{(sides - 1 - i) % sides}"
    identity_o = {x: x for x in space.objects}
    identity_m = {m: m for m in space.morphism_names()}
    return ScwolAction(
        group,
        space,
        {"0": identity_o, "1": omap},
        {"0": identity_m, "1": mmap},
    )


def circle_action() -> ScwolAction:
    """The reflection of the combinatorial circle (the 2-gon)."""
    group = cyclic_group(2)
    space = circle_scwol()
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
    n, top = len(action.space), len(action.space._named().names)
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
    n, ob, at = _inflated(action.space.objects, _rows_of(action.space), copies)
    return _trusted(ScwolAction, group=action.group, space=space, _arrays=[
        ([ob[y] + i for x, y in enumerate(fo) for i in range(n[x])],
         [at[gm] + o for m, gm in enumerate(fm) for o in range(at[m + 1] - at[m])])
        for fo, fm in action._arrays])


def cyclic_subgroups(group: FinGroup) -> list[tuple[str, ...]]:
    """Element sets of all cyclic subgroups (plus the whole group)."""
    out = {tuple(sorted(group.labels))}
    for g in group.labels:
        members = {group.identity}
        cur = g
        while cur not in members:
            members.add(cur)
            cur = group.mul(cur, g)
        out.add(tuple(sorted(members)))
    return sorted(out)


def coset_gset(group: FinGroup, members: Sequence[str], prefix: str):
    """Left cosets of a subgroup as a transitive G-set."""
    subgroup = frozenset(members)
    cosets = sorted(
        {frozenset(group.mul(g, h) for h in subgroup) for g in group.labels},
        key=sorted,
    )
    label = {c: f"{prefix}{i}" for i, c in enumerate(cosets)}
    elements = [label[c] for c in cosets]
    act = {
        g: {label[c]: label[frozenset(group.mul(g, x) for x in c)] for c in cosets}
        for g in group.labels
    }
    return elements, act


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
        group = cyclic_group(order) if order != 4 or rng.random() < 0.5 else klein_four_group()
        if group.order == 6 and rng.random() < 0.5:
            group = symmetric_group(3)
        base = random_scwol(
            rng, max_objects=max(1, max_space_objects // group.order), allow_fattening=False
        )
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
        orbits = act.object_orbits()
        copies = {}
        for orb in orbits:
            c = rng.choice([1, 1, 2])
            for x in orb:
                copies[x] = c
        act = inflate_action(act, copies)
    return act
