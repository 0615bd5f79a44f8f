"""Differential tests for the integer-indexed validators.

``FinCat``, ``FinGroup`` and ``ScwolAction`` check their laws on integer
indices.  The name-based loops they replaced are kept here, and only here,
as references.  On valid inputs and on single-entry corruptions, the library
and the reference must agree on accept/reject, on the exception class and on
the message of the first failure.
"""

import itertools
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat.errors import EulcatError
from eulcat.fincat import (
    BrokenIdentity,
    DanglingReference,
    FinCat,
    IncompleteCompositionTable,
    NonAssociative,
    NotScwol,
    classify,
)
from eulcat.groupact import (
    AxiomIIViolation,
    AxiomIViolation,
    NotAFunctorAction,
    NotAHomomorphismAction,
    ScwolAction,
)
from eulcat.groups import FinGroup, NotAGroup
from eulcat.hocolim import grothendieck

from strategies import SEEDS, actions, groupoids, groups, posets, scwols, strict_diagrams

grothendieck_totals = strict_diagrams.map(lambda d: grothendieck(d).category)
categories = st.one_of(
    scwols, posets, groupoids.map(lambda g: g.category), grothendieck_totals,
    actions.map(lambda a: a.space),
)
# sources with parallel arrows, so that a composite has a twin to swap in
with_twins = st.one_of(groupoids.map(lambda g: g.category), grothendieck_totals)


# -- reference validators ---------------------------------------------------------


def reference_fincat_laws(objects, morphisms, identity, composition, name):
    """Composition-table checks of FinCat, one name lookup at a time."""
    mor = {m.name: m for m in morphisms}
    by_source = {x: [] for x in objects}
    for m in morphisms:
        by_source[m.source].append(m.name)
    for (g, f), gf in composition.items():
        if g not in mor or f not in mor or gf not in mor:
            raise DanglingReference(
                f"{name}: composition entry ({g!r}, {f!r}) -> {gf!r} names unknown morphisms"
            )
        if mor[f].target != mor[g].source:
            raise DanglingReference(
                f"{name}: pair ({g!r}, {f!r}) is not composable "
                f"(target of {f!r} is {mor[f].target!r}, source of {g!r} is {mor[g].source!r})"
            )
        if mor[gf].source != mor[f].source or mor[gf].target != mor[g].target:
            raise IncompleteCompositionTable(
                f"{name}: composite {gf!r} of ({g!r}, {f!r}) has wrong endpoints"
            )
    for f in morphisms:
        for g in by_source[f.target]:
            if (g, f.name) not in composition:
                raise IncompleteCompositionTable(
                    f"{name}: missing composite for pair ({g!r}, {f.name!r})"
                )
    for f in morphisms:
        if composition[(identity[f.target], f.name)] != f.name:
            raise BrokenIdentity(f"{name}: id o {f.name!r} != {f.name!r}")
        if composition[(f.name, identity[f.source])] != f.name:
            raise BrokenIdentity(f"{name}: {f.name!r} o id != {f.name!r}")
    for f in morphisms:
        for g in by_source[f.target]:
            gf = composition[(g, f.name)]
            for h in by_source[mor[g].target]:
                if composition[(h, gf)] != composition[(composition[(h, g)], f.name)]:
                    raise NonAssociative(
                        f"{name}: h o (g o f) != (h o g) o f for "
                        f"(h, g, f) = ({h!r}, {g!r}, {f.name!r})"
                    )


def reference_group_laws(labels, table, name):
    """FinGroup's axioms, one product at a time."""
    n = len(labels)
    if len(set(labels)) != n:
        raise NotAGroup(f"duplicate element labels in {name}")
    if len(table) != n or any(len(row) != n for row in table):
        raise NotAGroup(f"Cayley table of {name} is not {n}x{n}")
    for row in table:
        for v in row:
            if not 0 <= v < n:
                raise NotAGroup(f"Cayley table entry {v} out of range")
    identity = None
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup(f"{name} has no identity element")
    for a in range(n):
        if not any(table[a][b] == identity == table[b][a] for b in range(n)):
            raise NotAGroup(f"element {labels[a]!r} of {name} has no inverse")
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise NotAGroup(
                f"{name} is not associative on ({labels[a]!r}, {labels[b]!r}, {labels[c]!r})"
            )


def reference_action_laws(group, cat, on_objects, on_morphisms):
    """ScwolAction's checks, one dictionary lookup at a time."""
    g_labels = group.labels
    if not classify(cat).is_scwol:
        raise NotScwol(f"{cat.name} has a non-identity endomorphism")
    for g in g_labels:
        if g not in on_objects or g not in on_morphisms:
            raise NotAFunctorAction(f"no action data for element {g!r}")
        omap = on_objects[g]
        if sorted(omap) != sorted(cat.objects) or sorted(omap.values()) != sorted(cat.objects):
            raise NotAFunctorAction(f"element {g!r} does not permute the objects")
    e = group.identity
    for x in cat.objects:
        if on_objects[e][x] != x:
            raise NotAHomomorphismAction("identity element moves an object")
    for g in g_labels:
        for h in g_labels:
            gh = group.mul(g, h)
            for x in cat.objects:
                if on_objects[g][on_objects[h][x]] != on_objects[gh][x]:
                    raise NotAHomomorphismAction(
                        f"action of {g!r}{h!r} disagrees with action of {gh!r} on {x!r}"
                    )
    for m in cat.morphisms:
        if cat.is_identity(m.name):
            continue
        for g in g_labels:
            if on_objects[g][m.source] == m.target:
                raise AxiomIViolation(m.name, g)
    for g in g_labels:
        omap = on_objects[g]
        mmap = on_morphisms[g]
        names = sorted(m.name for m in cat.morphisms)
        if sorted(mmap) != names or sorted(mmap.values()) != names:
            raise NotAFunctorAction(f"element {g!r} does not permute the morphisms")
        for m in cat.morphisms:
            img = mmap[m.name]
            if cat.source(img) != omap[m.source] or cat.target(img) != omap[m.target]:
                raise NotAFunctorAction(f"element {g!r} breaks source/target at {m.name!r}")
        for x in cat.objects:
            if mmap[cat.identity[x]] != cat.identity[omap[x]]:
                raise NotAFunctorAction(f"element {g!r} breaks identities at {x!r}")
        for (g2, f2), c2 in cat.composition.items():
            if cat.compose(mmap[g2], mmap[f2]) != mmap[c2]:
                raise NotAFunctorAction(f"element {g!r} breaks composition at ({g2!r}, {f2!r})")
    for m in cat.morphisms:
        if on_morphisms[e][m.name] != m.name:
            raise NotAHomomorphismAction("identity element moves a morphism")
    for g in g_labels:
        for h in g_labels:
            gh = group.mul(g, h)
            for m in cat.morphisms:
                if on_morphisms[g][on_morphisms[h][m.name]] != on_morphisms[gh][m.name]:
                    raise NotAHomomorphismAction(
                        f"action of {g!r}{h!r} disagrees with action of {gh!r} on {m.name!r}"
                    )
    for m in cat.morphisms:
        if cat.is_identity(m.name):
            continue
        for g in g_labels:
            if on_objects[g][m.source] == m.source and on_morphisms[g][m.name] != m.name:
                raise AxiomIIViolation(m.name, g)


# -- comparison ---------------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """None on success, else (exception class, message); any other exception propagates."""
    try:
        fn(*args, **kwargs)
    except EulcatError as exc:
        return type(exc), str(exc)
    return None


def assert_same_fincat_verdict(cat, composition):
    parts = (cat.objects, cat.morphisms, dict(cat.identity), composition)
    got = outcome(FinCat, *parts, name=cat.name)
    want = outcome(reference_fincat_laws, *parts, cat.name)
    assert got == want
    return got


def assert_same_group_verdict(labels, table, name):
    got = outcome(FinGroup, labels, table, name=name)
    assert got == outcome(reference_group_laws, labels, table, name)
    return got


def assert_same_action_verdict(action, on_objects, on_morphisms):
    args = (action.group, action.space, on_objects, on_morphisms)
    got = outcome(ScwolAction, *args)
    assert got == outcome(reference_action_laws, *args)
    return got


# -- FinCat ------------------------------------------------------------------------


class TestFinCat:
    @settings(max_examples=40, deadline=None)
    @given(categories)
    def test_valid_inputs_accepted_by_both(self, cat):
        assert assert_same_fincat_verdict(cat, dict(cat.composition)) is None

    @settings(max_examples=40, deadline=None)
    @given(with_twins, SEEDS)
    def test_composite_swapped_for_parallel_twin(self, cat, seed):
        rng = Random(seed)
        swaps = [
            (key, twin)
            for key, gf in sorted(cat.composition.items())
            for twin in cat.hom(cat.source(gf), cat.target(gf))
            if twin != gf
        ]
        comp = dict(cat.composition)
        if swaps:  # the result may still be lawful: Z/2 with a o a := a is a monoid
            key, twin = rng.choice(swaps)
            comp[key] = twin
        assert_same_fincat_verdict(cat, comp)

    @settings(max_examples=40, deadline=None)
    @given(categories, SEEDS)
    def test_dropped_pairs(self, cat, seed):
        """One or two pairs dropped; with two, the first one reported must agree."""
        rng = Random(seed)
        comp = dict(cat.composition)
        for key in rng.sample(sorted(comp), min(len(comp), rng.choice((1, 2)))):
            del comp[key]
        got = assert_same_fincat_verdict(cat, comp)
        assert got is not None and got[0] is IncompleteCompositionTable

    @settings(max_examples=40, deadline=None)
    @given(categories, SEEDS)
    def test_unknown_name(self, cat, seed):
        rng = Random(seed)
        comp = dict(cat.composition)
        key = rng.choice(sorted(comp))
        if rng.random() < 0.5:
            comp[key] = "?unknown"
        else:
            comp[("?unknown", key[1])] = comp.pop(key)
        got = assert_same_fincat_verdict(cat, comp)
        assert got is not None and got[0] is DanglingReference


# -- FinGroup ----------------------------------------------------------------------


class TestFinGroup:
    @settings(max_examples=30, deadline=None)
    @given(groups)
    def test_valid_tables_accepted_by_both(self, group):
        assert assert_same_group_verdict(group.labels, group.table, group.name) is None

    @settings(max_examples=60, deadline=None)
    @given(groups, SEEDS)
    def test_one_broken_cayley_entry(self, group, seed):
        rng = Random(seed)
        n = group.order
        table = [list(row) for row in group.table]
        a, b = rng.randrange(n), rng.randrange(n)
        table[a][b] = (table[a][b] + rng.randrange(1, n)) % n if n > 1 else 0
        assert_same_group_verdict(group.labels, tuple(map(tuple, table)), group.name)


# -- ScwolAction -------------------------------------------------------------------


def copied_tables(action):
    return (
        {g: dict(t) for g, t in action.on_objects.items()},
        {g: dict(t) for g, t in action.on_morphisms.items()},
    )


class TestScwolAction:
    @settings(max_examples=30, deadline=None)
    @given(actions)
    def test_valid_actions_accepted_by_both(self, action):
        assert assert_same_action_verdict(action, *copied_tables(action)) is None

    @settings(max_examples=60, deadline=None)
    @given(actions, SEEDS)
    def test_one_wrong_image(self, action, seed):
        rng = Random(seed)
        on_objects, on_morphisms = copied_tables(action)
        g = rng.choice(action.group.labels)
        table, points = (
            (on_objects[g], action.space.objects)
            if rng.random() < 0.5
            else (on_morphisms[g], action.space.morphism_names())
        )
        x = rng.choice(points)
        table[x] = rng.choice([p for p in points if p != table[x]] or list(points))
        assert_same_action_verdict(action, on_objects, on_morphisms)

    @settings(max_examples=40, deadline=None)
    @given(actions, SEEDS)
    def test_two_images_exchanged(self, action, seed):
        """Swapping two images keeps every table a permutation, so the
        homomorphism and functoriality checks are reached."""
        rng = Random(seed)
        on_objects, on_morphisms = copied_tables(action)
        g = rng.choice(action.group.labels)
        table = on_morphisms[g] if rng.random() < 0.5 else on_objects[g]
        if len(table) > 1:
            x, y = rng.sample(sorted(table), 2)
            table[x], table[y] = table[y], table[x]
        assert_same_action_verdict(action, on_objects, on_morphisms)
