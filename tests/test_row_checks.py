"""Differential tests for the functor, action, naturality and pseudo-coherence
checks, which read composites off integer rows (``fincat._Rows``) and check
composition, naturality and the homomorphism law on generators.

The name-based checks they replaced are kept in ``helpers`` as references
(``reference_check_functor``, ``reference_action_checks``,
``reference_pseudo_diagram_checks`` and the checks these call).  On drawn
functors, actions and pseudo diagrams, unchanged and with one mutation each,
the row checks and the references agree on accept or reject and on the class,
message and witness of the first failure.
"""

from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import fincat, groupact, hocolim, randgen, zoo
from eulcat.errors import EulcatError
from eulcat.fincat import CatFunctor
from eulcat.groupact import NotAHomomorphismAction, ScwolAction
from eulcat.groups import _generating_set, cyclic_group, symmetric_group
from eulcat.hocolim import PseudoDiagram

from helpers import (
    corrupt_component,
    identity_maps,
    keyed_rows,
    monoid_z2_mult,
    reference_action_checks,
    reference_check_functor,
    reference_generating_set,
    reference_pseudo_diagram_checks,
    s3_flag_action,
    unvalidated,
)
from strategies import (
    SEEDS,
    actions,
    flag_actions,
    groupoids,
    groups,
    posets,
    pseudo_diagrams,
    scwols,
    small_groupoids,
    strict_diagrams,
)


def outcome(fn, *args):
    """None on success, else the class, message and witness of the failure."""
    try:
        fn(*args)
    except EulcatError as exc:
        return type(exc), str(exc), exc.witness
    return None


# -- functors -------------------------------------------------------------------------

FUNCTOR_FAULTS = ("image", "twin", "object", "drop", "unknown")


def edges(diagram):
    return [diagram.edge[m] for m in sorted(diagram.edge)]


# the edges of strict diagrams (groupoids and thin inclusions) and of pseudo
# diagrams (group homomorphisms between one-object categories, whose
# targets are not thin)
functors = st.one_of(strict_diagrams.map(edges), pseudo_diagrams.map(edges))


def mutate_functor(fun, rng, fault):
    """The maps of ``fun`` with one object or morphism image changed to
    another, to a parallel twin or to no name, or dropped."""
    obj_map, mor_map = dict(fun.obj_map), dict(fun.mor_map)
    tgt = fun.target
    if fault == "object" or not mor_map:
        if obj_map:
            obj_map[rng.choice(sorted(obj_map))] = rng.choice(tgt.objects)
        return obj_map, mor_map
    m = rng.choice(sorted(mor_map))
    if fault == "image":
        mor_map[m] = rng.choice(tgt.morphism_names())
    elif fault == "twin":
        image = mor_map[m]
        twins = [n for n in tgt.hom(tgt.source(image), tgt.target(image)) if n != image]
        mor_map[m] = rng.choice(twins or [image])
    elif fault == "unknown":
        mor_map[m] = "?nosuch"
    else:
        del mor_map[m]
    return obj_map, mor_map


def functor_verdicts(fun, rng, fault):
    obj_map, mor_map = mutate_functor(fun, rng, fault)
    args = (fun.source, fun.target, obj_map, mor_map)
    return outcome(CatFunctor, *args), outcome(reference_check_functor, *args)


class TestFunctor:
    @settings(max_examples=120, deadline=None)
    @given(functors, SEEDS, st.sampled_from(FUNCTOR_FAULTS))
    def test_same_verdict_as_the_name_loops(self, funs, seed, fault):
        rng = Random(seed)
        for fun in funs:
            args = (fun.source, fun.target, dict(fun.obj_map), dict(fun.mor_map))
            assert outcome(CatFunctor, *args) is None is outcome(reference_check_functor, *args)
        if funs:
            got, want = functor_verdicts(rng.choice(funs), rng, fault)
            assert got == want

    def test_every_law_is_seen(self):
        """Non-vacuity: over seeded mutations of identity functors, each law
        after the object map is the first to fail for some mutation."""
        cats = [zoo.one_object_category(symmetric_group(3)),
                zoo.one_object_category(cyclic_group(4)), zoo.pushout_scwol()]
        laws = set()
        for seed in range(90):
            rng = Random(seed)
            fun = CatFunctor.identity_functor(cats[seed % len(cats)])
            got, want = functor_verdicts(fun, rng, FUNCTOR_FAULTS[seed // 3 % len(FUNCTOR_FAULTS)])
            assert got == want
            if got is not None:
                laws.add(got[2]["law"])
        assert laws == {"morphisms", "source/target", "identities", "composition"}

    def test_wrong_endpoints(self):
        space = zoo.pushout_scwol()
        obj_map, mor_map = identity_maps(space)
        arrows = [m for m in space.morphism_names() if not space.is_identity(m)]
        mor_map[arrows[0]] = space.identity[space.objects[0]]
        args = (space, space, obj_map, mor_map)
        got = outcome(CatFunctor, *args)
        assert got == outcome(reference_check_functor, *args)
        assert got[2]["law"] == "source/target"


# -- actions ----------------------------------------------------------------------------

ACTION_FAULTS = ("image", "object", "swap", "swap-objects")
all_actions = st.one_of(actions, flag_actions().map(lambda drawn: drawn[0]))


def mutate_action(action, rng, fault):
    """The tables of ``action`` with one image of one element changed, or
    two images of one element exchanged."""
    on_objects = {g: dict(row) for g, row in action.on_objects.items()}
    on_morphisms = {g: dict(row) for g, row in action.on_morphisms.items()}
    g = rng.choice(action.group.labels)
    table, names = ((on_objects[g], action.space.objects) if fault in ("object", "swap-objects")
                    else (on_morphisms[g], action.space.morphism_names()))
    keys = sorted(table)
    a = rng.choice(keys)
    if fault in ("image", "object"):
        table[a] = rng.choice(names)
    else:
        b = rng.choice(keys)
        table[a], table[b] = table[b], table[a]
    return on_objects, on_morphisms


def action_verdicts(action, on_objects, on_morphisms):
    args = (action.group, action.space, on_objects, on_morphisms)
    return (outcome(ScwolAction, *args),
            outcome(reference_action_checks, SimpleNamespace(
                group=action.group, space=action.space, on_objects=on_objects,
                on_morphisms=on_morphisms)))


class TestAction:
    @settings(max_examples=100, deadline=None)
    @given(all_actions, SEEDS, st.sampled_from(ACTION_FAULTS))
    def test_same_verdict_as_the_name_loops(self, action, seed, fault):
        got, want = action_verdicts(action, action.on_objects, action.on_morphisms)
        assert got is None is want
        got, want = action_verdicts(action, *mutate_action(action, Random(seed), fault))
        assert got == want

    @pytest.mark.parametrize("order", [3, 6])
    def test_homomorphism_law_off_the_generators(self, order):
        """The law is checked on the pairs (g, s) with s a generator ('1'
        generates Z/n).  An element other than a generator that acts wrongly
        is caught there, and reported at the first failing pair of all."""
        group = cyclic_group(order)
        pts = tuple(f"p{i}" for i in range(order))
        disc = zoo.discrete_category(pts)
        shift = {g: {pts[i]: pts[(i + k) % order] for i in range(order)}
                 for k, g in enumerate(group.labels)}
        last = group.labels[-1]
        shift[last] = dict(shift[group.labels[1]])  # the inverse of '1' acts as '1'
        on_morphisms = {g: {disc.identity[x]: disc.identity[y] for x, y in row.items()}
                        for g, row in shift.items()}
        action = SimpleNamespace(group=group, space=disc)
        got, want = action_verdicts(action, shift, on_morphisms)
        assert got == want
        assert got[0] is NotAHomomorphismAction

    @pytest.mark.parametrize("group, kept", [
        (cyclic_group(4), True), (symmetric_group(3), True),
        (cyclic_group(6).subgroup(["0", "2", "4"], "H"), False),
    ], ids=["Z4", "S3", "unchecked subgroup"])
    def test_the_kept_generating_set(self, group, kept, monkeypatch):
        """A checked group keeps the generating set of its check
        (``_gens``), so an action check finds none afresh; a group built
        unchecked has none and the check finds one.  Either way an element
        that acts as another is caught with the references' verdict."""
        one = [0] * group.order
        gens = _generating_set(group.table, [group._identity], one, one)
        assert group._gens == (gens if kept else None)
        found = []
        monkeypatch.setattr("eulcat.groups._generating_set",
                            lambda *a: found.append(a) or _generating_set(*a))
        pts = tuple(f"p{i}" for i in range(group.order))
        disc = zoo.discrete_category(pts)
        left = {g: {pts[h]: pts[group.table[k][h]] for h in range(group.order)}
                for k, g in enumerate(group.labels)}
        on_morphisms = {g: {disc.identity[x]: disc.identity[y] for x, y in row.items()}
                        for g, row in left.items()}
        ScwolAction(group, disc, left, on_morphisms)
        assert bool(found) != kept
        left[group.labels[-1]] = dict(left[group.labels[1]])
        got, want = action_verdicts(SimpleNamespace(group=group, space=disc), left,
                                    {g: {disc.identity[x]: disc.identity[y] for x, y in row.items()}
                                     for g, row in left.items()})
        assert got == want
        assert got[0] is NotAHomomorphismAction


# -- pseudo diagrams ------------------------------------------------------------------------

PSEUDO_FAULTS = ("twin", "non-invertible", "misplaced", "unknown", "dropped")


def pseudo_verdicts(p, comp, unit):
    args = (p.index, p.vertex, dict(p.edge), comp, unit)
    return (outcome(PseudoDiagram, *args),
            outcome(reference_pseudo_diagram_checks, unvalidated(
                PseudoDiagram, index=p.index, vertex=p.vertex, edge=dict(p.edge), comp=comp,
                unit=unit)))


def mutate_pseudo(p, rng, fault):
    """The comp and unit tables of ``p`` with one component corrupted: for
    a diagram from a complex of groups, a twist replaced by another
    element ("twin")."""
    comp, unit = dict(p.comp), dict(p.unit)
    entries = [(table, key) for table in (comp, unit) for key in sorted(table) if table[key]]
    if entries:
        table, key = rng.choice(entries)
        cat = p.vertex[p.index.target(key[0]) if table is comp else key]
        c = rng.choice(sorted(table[key]))
        table[key] = corrupt_component(table[key], c, cat, fault, rng)
    return comp, unit


class TestPseudoDiagram:
    @settings(max_examples=120, deadline=None)
    @given(pseudo_diagrams, SEEDS, st.sampled_from(PSEUDO_FAULTS))
    def test_same_verdict_as_the_name_loops(self, p, seed, fault):
        got, want = pseudo_verdicts(p, dict(p.comp), dict(p.unit))
        assert got is None is want
        got, want = pseudo_verdicts(p, *mutate_pseudo(p, Random(seed), fault))
        assert got == want

    def test_every_failure_is_seen(self):
        """Non-vacuity: over seeded mutations of diagrams from complexes of
        groups and of constant diagrams of a monoid and of a groupoid, each
        of naturality, invertibility, endpoints and both coherence axioms is
        the first to fail for some mutation."""
        from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram
        from eulcat.hocolim import constant_diagram
        from eulcat.randgen import random_action

        flag, h = s3_flag_action()
        diagrams = [complex_to_pseudo_diagram(complex_of_groups(flag, h_elements=h).complex),
                    complex_to_pseudo_diagram(complex_of_groups(random_action(Random(14))).complex)]
        diagrams.append(PseudoDiagram.from_strict(constant_diagram(zoo.pushout_scwol(),
                                                                   monoid_z2_mult())))
        diagrams.append(PseudoDiagram.from_strict(constant_diagram(
            zoo.pushout_scwol(), zoo.contractible_groupoid(("a", "b")))))
        messages = []
        for seed in range(240):
            p = diagrams[seed % len(diagrams)]
            fault = PSEUDO_FAULTS[seed // len(diagrams) % 3]
            got, want = pseudo_verdicts(p, *mutate_pseudo(p, Random(seed), fault))
            assert got == want
            if got is not None:
                messages.append(got[1])
        for kind in ("naturality fails", "is not invertible", "has wrong endpoints",
                     "right unit axiom fails", "associativity coherence fails"):
            assert any(kind in message for message in messages), kind


small_categories = st.one_of(scwols, posets, groupoids.map(lambda g: g.category),
                             strict_diagrams.map(lambda d: hocolim.grothendieck(d).category))


class TestGeneratingSet:
    """``_generating_set`` buckets the generators by source; the scan it
    replaced (``reference_generating_set``) gives the same list."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_categories,
                     st.tuples(small_groupoids, small_groupoids).map(
                         lambda ab: fincat.product(ab[0].category, ab[1].category))))
    def test_categories_and_products(self, cat):
        r = cat._ends
        assert _generating_set(r.rows, r.ident, r.src, r.tgt) == \
            reference_generating_set(keyed_rows(r), r.ident, r.src, r.tgt)

    @settings(max_examples=40, deadline=None)
    @given(groups)
    def test_groups(self, group):
        one = [0] * group.order
        args = (group.table, [group._identity], one, one)
        assert _generating_set(*args) == reference_generating_set(*args)

    def test_a_large_product(self):
        cat = fincat.product(zoo.one_object_category(symmetric_group(4)),
                             randgen.random_groupoid(Random(1), 3, 4).category)
        r = cat._ends
        assert _generating_set(r.rows, r.ident, r.src, r.tgt) == \
            reference_generating_set(keyed_rows(r), r.ident, r.src, r.tgt)
