"""Differential tests for the integer-indexed validators.

``FinCat``, ``FinGroup``, ``GroupHom``, ``ScwolAction`` and ``ComplexOfGroups``
check their laws on integer indices, and ``subgroup``, ``conjugate`` and
``quotient`` compute on them.  The name-based loops they replaced are kept
here, and only here, as references.  On valid inputs and on single-entry
corruptions, the library and the reference must agree on accept/reject, on
the exception class and on the message of the first failure.

``transport_groupoid`` leaves its G-set to ``ScwolAction``; its former
label-level check and body are kept here too, and must agree with it on
accept/reject and on the groupoid built.
"""

import ast
import itertools
import json
import re
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat.errors import EulcatError, ValidationError
from eulcat.errors import InvariantViolation
from eulcat.fincat import (
    BrokenIdentity,
    CatFunctor,
    DanglingReference,
    FinCat,
    IncompleteCompositionTable,
    Morphism,
    NonAssociative,
    NotAFunctor,
    NotScwol,
    _is_thin,
    classify,
    product,
    validate,
)
from eulcat.groupact import (
    AxiomIIViolation,
    AxiomIViolation,
    ComplexOfGroups,
    NotAFunctorAction,
    NotAHomomorphismAction,
    NotAnAction,
    ScwolAction,
    _complex_from_quotient,
    _fixers,
    complex_of_groups,
    developability_check,
    hocolim_groups,
    one_arrow_complex,
    quotient,
    stabilizer,
    transport_groupoid,
)
from eulcat import manifest, randgen, zoo
from eulcat.groups import (
    FinGroup,
    GroupHom,
    NotAGroup,
    NotAHomomorphism,
    _generating_set,
    cyclic_group,
    symmetric_group,
)
from eulcat.hocolim import CellSpectrum, StrictDiagram, grothendieck
from eulcat.ratlin import chi_L
from eulcat.randgen import homs_between

from helpers import (
    InvalidQuotient,
    assert_orbit_projection,
    equal_presentation,
    reference_invertibles,
    s3_chain,
    s3_flag_action,
    unvalidated,
    z2_chain_complex_data,
)
from strategies import (
    SEEDS,
    TWISTED_ACTION_SEEDS,
    actions,
    groupoids,
    groups,
    noncentral_actions,
    posets,
    scwols,
    skeletal_scwols,
    small_groupoids,
    strict_diagrams,
)

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
                        f"(h, g, f) = ({h!r}, {g!r}, {f.name!r})",
                        witness={"h": h, "g": g, "f": f.name},
                    )


def reference_group_laws(labels, table, name):
    """FinGroup's axioms, one product at a time, associativity on every
    triple in order."""
    n = len(labels)
    if len(set(labels)) != n:
        dup = next(x for k, x in enumerate(labels) if x in labels[:k])
        raise NotAGroup(f"duplicate element labels in {name}", witness={"element": dup})
    if len(table) != n or any(len(row) != n for row in table):
        raise NotAGroup(f"Cayley table of {name} is not {n}x{n}",
                        witness={"shape": [len(row) for row in table]})
    for row in table:
        for v in row:
            if not 0 <= v < n:
                raise NotAGroup(f"Cayley table entry {v} out of range", witness={"entry": v})
    identity = None
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup(f"{name} has no identity element", witness={"group": name})
    for a in range(n):
        if not any(table[a][b] == identity == table[b][a] for b in range(n)):
            raise NotAGroup(f"element {labels[a]!r} of {name} has no inverse",
                            witness={"element": labels[a]})
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise NotAGroup(
                f"{name} is not associative on ({labels[a]!r}, {labels[b]!r}, {labels[c]!r})",
                witness=(labels[a], labels[b], labels[c]),
            )


def reference_identity_and_inverse(table):
    """FinGroup's identity and inverse search, one product at a time."""
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n)))
    inverse = tuple(
        next(b for b in range(n) if table[a][b] == identity == table[b][a]) for a in range(n)
    )
    return identity, inverse


def reference_hom_laws(source, target, mapping):
    """GroupHom's checks, one labelled product at a time."""
    for a in source.labels:
        if a not in mapping:
            raise NotAHomomorphism(f"map undefined on {a!r}")
        if mapping[a] not in target:
            raise NotAHomomorphism(f"image {mapping[a]!r} not in target group")
    if mapping[source.identity] != target.identity:
        raise NotAHomomorphism("identity is not preserved")
    for a in source.labels:
        for b in source.labels:
            if mapping[source.mul(a, b)] != target.mul(mapping[a], mapping[b]):
                raise NotAHomomorphism(f"product not preserved on ({a!r}, {b!r})")


def reference_subgroup(group, members, name=None):
    """FinGroup.subgroup, one labelled product at a time."""
    labels = sorted(set(members), key=group.index)
    pos = {lab: i for i, lab in enumerate(labels)}
    table = []
    for a in labels:
        row = []
        for b in labels:
            p = group.mul(a, b)
            if p not in pos:
                raise NotAGroup(f"subset not closed: {a!r}*{b!r} = {p!r} escapes")
            row.append(pos[p])
        table.append(tuple(row))
    return FinGroup(tuple(labels), tuple(table), name=name or f"{group.name}_sub")


def reference_conjugate(group, a, by):
    return group.mul(group.mul(by, a), group.inv(by))


def reference_complex_laws(base, local, homs, twists):
    """ComplexOfGroups' checks, one labelled product at a time."""
    if not classify(base).is_scwol:
        raise NotScwol(f"{base.name} has a non-identity endomorphism")
    for x in base.objects:
        if x not in local:
            raise ValidationError(f"no local group at {x!r}")
    for m in base.morphisms:
        hom = homs.get(m.name)
        if hom is None:
            raise ValidationError(f"no structure homomorphism along {m.name!r}")
        if hom.source is not local[m.source] or hom.target is not local[m.target]:
            raise ValidationError(f"homomorphism along {m.name!r} has wrong endpoints")
        if not hom.is_injective():
            raise ValidationError(f"homomorphism along {m.name!r} is not injective")
        if base.is_identity(m.name):
            if any(hom(x) != x for x in hom.source.labels):
                raise ValidationError(f"identity morphism {m.name!r} carries a non-identity map")
    for (b, a), g in twists.items():
        if (b, a) not in base.composition:
            raise ValidationError(f"twist given for non-composable pair ({b!r}, {a!r})")
        if g not in local[base.target(b)]:
            raise ValidationError(
                f"twist at ({b!r}, {a!r}) is not an element of the local group at {base.target(b)!r}"
            )
    for (b, a) in base.composition:
        if (b, a) not in twists:
            raise ValidationError(f"no twist at composable pair ({b!r}, {a!r})")
        if base.is_identity(a) or base.is_identity(b):
            if twists[(b, a)] != local[base.target(b)].identity:
                raise ValidationError(f"unit twist at ({b!r}, {a!r}) must be trivial")
    for (b, a), g in twists.items():
        ba = base.compose(b, a)
        tgt = local[base.target(b)]
        for x in local[base.source(a)].labels:
            composed = homs[b](homs[a](x))
            if reference_conjugate(tgt, composed, g) != homs[ba](x):
                raise ValidationError(
                    f"conjugation identity fails at ({b!r}, {a!r}) on element {x!r}"
                )
    for a in base.morphism_names():
        for b in base.morphisms_from(base.target(a)):
            ba = base.compose(b, a)
            for c in base.morphisms_from(base.target(b)):
                cb = base.compose(c, b)
                tgt = local[base.target(c)]
                lhs = tgt.mul(twists[(c, ba)], homs[c](twists[(b, a)]))
                rhs = tgt.mul(twists[(cb, a)], twists[(c, b)])
                if lhs != rhs:
                    raise ValidationError(f"cocycle fails on triple ({c!r}, {b!r}, {a!r})")


def reference_structure_maps(built):
    """The structure maps and twists of an associated complex, computed
    from its h elements one labelled product at a time."""
    group, h = built.to_group.group, built.to_group.h_elements
    cplx = built.complex
    homs = {
        m.name: {a: reference_conjugate(group, a, h[m.name]) for a in cplx.local[m.source].labels}
        for m in cplx.base.morphisms
    }
    twists = {
        (b, a): group.mul(h[cplx.base.compose(b, a)], group.mul(group.inv(h[a]), group.inv(h[b])))
        for (b, a) in cplx.base.composition
    }
    return homs, twists


def reference_quotient_composition(action):
    """The induced composition of quotient(action), composing the lifts of
    each pair of orbit representatives afresh."""
    cat = action.space
    obj_orbit = {x: orb[0] for orb in action.object_orbits() for x in orb}
    mor_orbit = {m: orb[0] for orb in action.morphism_orbits() for m in orb}
    mors = [
        (m, obj_orbit[cat.source(m)], obj_orbit[cat.target(m)])
        for m in sorted(set(mor_orbit.values()))
    ]
    comp = {}
    for mb, mb_source, _ in mors:
        for ma, _, ma_target in mors:
            if ma_target != mb_source:
                continue
            results = set()
            for a in action.morphism_orbit(ma):
                for b in action.morphism_orbit(mb):
                    if cat.target(a) == cat.source(b):
                        results.add(mor_orbit[cat.compose(b, a)])
            if len(results) != 1:
                raise InvalidQuotient(
                    f"composite of orbits ({mb!r}, {ma!r}) is not well-defined: {sorted(results)}"
                )
            comp[(mb, ma)] = results.pop()
    return comp


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


def reference_gset_laws(group, elements, act):
    """transport_groupoid's former G-set check, one label at a time."""
    e = group.identity
    for g in group.labels:
        if g not in act:
            raise NotAnAction(f"no action row for element {g!r}")
        if sorted(act[g]) != sorted(elements) or sorted(act[g].values()) != sorted(elements):
            raise NotAnAction(f"element {g!r} does not permute the set")
    if any(act[e][s] != s for s in elements):
        raise NotAnAction("identity element moves a point")
    labels, table = group.labels, group.table
    for g, row_g in zip(labels, table):
        for h, gh_index in zip(labels, row_g):
            gh = labels[gh_index]
            if any(act[g][act[h][s]] != act[gh][s] for s in elements):
                raise NotAnAction(f"action of {g!r}{h!r} disagrees with {gh!r}")


def reference_transport_groupoid(group, elements, act):
    """transport_groupoid's former body: its own G-set check, the groupoid,
    then the discrete ScwolAction for the chi_L cross-check."""
    elements = tuple(elements)
    reference_gset_laws(group, elements, act)
    e, labels, table = group.identity, group.labels, group.table

    def nm(g, s):
        return f"({g},{s})"

    mors = [Morphism(nm(g, s), s, act[g][s]) for s in elements for g in labels]
    ident = {s: nm(e, s) for s in elements}
    comp = {}
    for s in elements:
        for gi, g in enumerate(labels):
            mid = act[g][s]
            for h, row_h in zip(labels, table):
                comp[(nm(h, mid), nm(g, s))] = nm(labels[row_h[gi]], s)
    groupoid = FinCat(elements, tuple(mors), ident, comp, name=f"transport({group.name})")

    disc = zoo.discrete_category(elements, name="S")
    discrete_action = ScwolAction(
        group,
        disc,
        {g: dict(act[g]) for g in labels},
        {g: {disc.identity[s]: disc.identity[act[g][s]] for s in elements} for g in labels},
    )
    via_complex = hocolim_groups(complex_of_groups(discrete_action).complex)
    if chi_L(groupoid) != chi_L(via_complex):
        raise InvariantViolation("transport groupoid disagrees with the homotopy colimit route")
    return groupoid


# -- comparison ---------------------------------------------------------------------


def outcome(fn, *args, witness=False, **kwargs):
    """None on success, else (exception class, message), with the witness
    appended when ``witness``; any other exception propagates."""
    try:
        fn(*args, **kwargs)
    except EulcatError as exc:
        return (type(exc), str(exc)) + ((exc.witness,) if witness else ())
    return None


def assert_same_fincat_verdict(cat, composition):
    parts = (cat.objects, cat.morphisms, dict(cat.identity), composition)
    got = outcome(FinCat, *parts, name=cat.name)
    want = outcome(reference_fincat_laws, *parts, cat.name)
    assert got == want
    return got


def assert_same_group_verdict(labels, table, name):
    """Class, message and witness against ``reference_group_laws``."""
    got = outcome(FinGroup, labels, table, name=name, witness=True)
    assert got == outcome(reference_group_laws, labels, table, name, witness=True)
    if got is None:
        group = FinGroup(labels, table, name=name)
        assert (group._identity, group._inverse) == reference_identity_and_inverse(table)
    return got


def assert_same_hom_verdict(source, target, mapping):
    got = outcome(GroupHom, source, target, mapping)
    assert got == outcome(reference_hom_laws, source, target, mapping)
    return got


def assert_same_complex_verdict(base, local, homs, twists):
    got = outcome(ComplexOfGroups, base, local, homs, twists)
    assert got == outcome(reference_complex_laws, base, local, homs, twists)
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


def chain_poset():
    """{0 -> 1 -> 2}: a thin source whose one non-identity composite is c."""
    return zoo.build_category(
        ("0", "1", "2"), (("a", "0", "1"), ("b", "1", "2"), ("c", "0", "2")),
        {("b", "a"): "c"}, name="chain",
    )


thin_or_not = st.one_of(
    categories, skeletal_scwols, small_groupoids.map(lambda g: g.category),
    st.integers(1, 4).map(lambda n: zoo.contractible_groupoid([str(i) for i in range(n)])),
)


class TestThinCategories:
    """A category is thin when each of its hom-sets has at most one element.
    Then any two morphisms with the same endpoints are equal, so associativity,
    a functor's composition law into it and an action's arrow-level
    homomorphism law on it are not checked."""

    @settings(max_examples=60, deadline=None)
    @given(thin_or_not)
    def test_flag_counts_hom_sets(self, cat):
        sizes = [len(cat.hom(x, y)) for x in cat.objects for y in cat.objects]
        assert _is_thin(cat) == (max(sizes) <= 1)

    def test_flag_on_known_categories(self):
        assert _is_thin(zoo.subsets_poset_opposite(3)) and _is_thin(zoo.polygon_scwol(5))
        assert _is_thin(zoo.contractible_groupoid(["x", "y"]))
        assert not _is_thin(zoo.parallel_pair_scwol())
        assert not _is_thin(zoo.one_object_category(cyclic_group(2)))

    def test_broken_triple_in_a_non_thin_category(self):
        """subsets_poset_opposite(3) x {j => k}, with each composite of two
        non-identities in turn swapped for its parallel twin: every verdict,
        witness included, is the reference's, and some are a broken triple."""
        cat = product(zoo.subsets_poset_opposite(3), zoo.parallel_pair_scwol())
        assert not _is_thin(cat)
        kinds = set()
        for key, gf in cat.composition.items():
            if cat.is_identity(key[0]) or cat.is_identity(key[1]):
                continue
            for twin in cat.hom(cat.source(gf), cat.target(gf)):
                if twin == gf:
                    continue
                comp = {**cat.composition, key: twin}
                parts = (cat.objects, cat.morphisms, dict(cat.identity), comp)
                got = outcome(FinCat, *parts, name=cat.name, witness=True)
                assert got == outcome(reference_fincat_laws, *parts, cat.name, witness=True)
                kinds.add(got[0])
        assert NonAssociative in kinds

    def test_functor_into_a_non_thin_target(self):
        """A thin source, a target with two arrows x -> z: mapping c to the
        one that is not q o p breaks composition, and is seen."""
        tgt = zoo.build_category(
            ("x", "y", "z"),
            (("p", "x", "y"), ("q", "y", "z"), ("r", "x", "z"), ("r2", "x", "z")),
            {("q", "p"): "r"}, name="T",
        )
        src = chain_poset()
        assert _is_thin(src) and not _is_thin(tgt)
        obj_map = {"0": "x", "1": "y", "2": "z"}
        mor_map = {"id_0": "id_x", "id_1": "id_y", "id_2": "id_z", "a": "p", "b": "q"}
        assert outcome(CatFunctor, src, tgt, obj_map, {**mor_map, "c": "r"}) is None
        assert outcome(CatFunctor, src, tgt, obj_map, {**mor_map, "c": "r2"}, witness=True) == (
            NotAFunctor, "composition not preserved on ('b', 'a')",
            {"law": "composition", "at": ("b", "a")},
        )

    def test_action_on_a_non_thin_scwol(self):
        """Z/3 fixing both objects of {j => k}, with 1 and 2 both swapping f0
        and f1: each element is a functor, but 1 then 1 is not 2 on the
        arrows.  The homomorphism law reports it before axiom (ii) does."""
        z3 = cyclic_group(3)
        space = zoo.parallel_pair_scwol()
        assert not _is_thin(space)
        fixed = {"j": "j", "k": "k"}
        swap = {"id_j": "id_j", "id_k": "id_k", "f0": "f1", "f1": "f0"}
        on_objects = {g: dict(fixed) for g in z3.labels}
        on_morphisms = {g: dict(swap) for g in z3.labels}
        on_morphisms[z3.identity] = {m: m for m in swap}
        args = (z3, space, on_objects, on_morphisms)
        got = outcome(ScwolAction, *args, witness=True)
        assert got == (
            NotAHomomorphismAction, "action of '1''1' disagrees with action of '2' on 'f0'",
            {"pair": ("1", "1"), "morphism": "f0"},
        )
        assert got[:2] == outcome(reference_action_laws, *args)


class TestDuplicateIds:
    """Duplicates are found in one pass: 100k ids with repeats at the end
    are rejected with the first repeat (objects, labels) or the sorted
    repeats (morphisms), well inside a generous bound."""

    N = 100_000
    BOUND_S = 10.0

    def timed_verdict(self, fn, *args, **kwargs):
        start = time.perf_counter()
        got = outcome(fn, *args, witness=True, **kwargs)
        assert time.perf_counter() - start < self.BOUND_S
        return got

    def test_objects(self):
        objects = tuple(f"x{i}" for i in range(self.N)) + ("x5", "x3")
        got = self.timed_verdict(FinCat, objects, (), {}, {}, name="C")
        assert got == (DanglingReference, "C: duplicate object ids", {"object": "x5"})

    def test_morphisms(self):
        names = [f"m{i}" for i in range(self.N)] + ["m99999", "m7"]
        morphisms = tuple(Morphism(n, "x", "x") for n in names)
        got = self.timed_verdict(FinCat, ("x",), morphisms, {}, {}, name="C")
        assert got == (
            DanglingReference, "C: duplicate morphism ids ['m7', 'm99999']", {"morphism": "m7"},
        )

    def test_group_labels(self):
        labels = tuple(str(i) for i in range(self.N)) + ("5", "3")
        got = self.timed_verdict(FinGroup, labels, (), name="G")
        assert got == (NotAGroup, "duplicate element labels in G", {"element": "5"})


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

    @pytest.mark.parametrize("group", [cyclic_group(5), cyclic_group(6), symmetric_group(3)],
                             ids=lambda g: g.name)
    def test_every_table_with_one_product_changed(self, group):
        """FinGroup checks associativity with the middle factor in a
        generating set (Light's test) and locates a failure among all
        triples; the first failing triple's middle factor is often no
        generator, and it is still found."""
        n, table = group.order, group.table
        one = [0] * n
        gens = {group.labels[b] for b in _generating_set(table, [group._identity], one, one)}
        middles = set()
        for a, b, v in itertools.product(range(n), repeat=3):
            if v != table[a][b]:
                changed = [list(row) for row in table]
                changed[a][b] = v
                got = assert_same_group_verdict(group.labels, tuple(map(tuple, changed)),
                                                group.name)
                if "associative" in got[1]:
                    middles.add(got[2][1])
        assert middles - gens and len(gens) < n - 1

    @settings(max_examples=40, deadline=None)
    @given(groups, SEEDS)
    def test_one_broken_identity_entry(self, group, seed):
        """An entry a*b = e changed: row a may still hold e where column a
        does not, which the inverse search must not take for an inverse."""
        rng = Random(seed)
        n, e = group.order, group._identity
        table = [list(row) for row in group.table]
        a = rng.randrange(n)
        b = table[a].index(e)
        table[a][b] = (e + rng.randrange(1, n)) % n if n > 1 else e
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


# -- transport groupoids -------------------------------------------------------------


GSET_FAULTS = (None, "missing-row", "missing-point", "point-outside", "two-to-one",
               "identity-moves", "one-image-swapped")


def corrupt_gset(rng, group, elements, act, fault):
    """``act`` with one fault of the named kind, where the G-set allows it."""
    act = {g: dict(row) for g, row in act.items()}
    g = rng.choice(group.labels)
    s = rng.choice(elements)
    others = [t for t in elements if t != s]
    if fault == "missing-row":
        del act[g]
    elif fault == "missing-point":
        del act[g][s]
    elif fault == "point-outside":
        act[g][s] = "outside"
    elif fault == "two-to-one" and others:
        act[g][s] = act[g][rng.choice(others)]
    elif fault in ("identity-moves", "one-image-swapped") and others:
        row = act[group.identity if fault == "identity-moves" else g]
        t = rng.choice(others)
        row[s], row[t] = row[t], row[s]
    return act


def transport_or_rejection(fn, group, elements, act):
    """The groupoid, or the NotAnAction raised; any other exception propagates."""
    try:
        return fn(group, elements, act)
    except NotAnAction as exc:
        return exc


class TestTransportGroupoid:
    @pytest.mark.parametrize("fault", GSET_FAULTS, ids=lambda f: f or "valid")
    @settings(max_examples=15, deadline=None)
    @given(groups, SEEDS)
    def test_same_verdict_and_groupoid_as_own_check(self, fault, group, seed):
        rng = Random(seed)
        elements, act = randgen.random_gset(rng, group)
        act = corrupt_gset(rng, group, elements, act, fault)
        new = transport_or_rejection(transport_groupoid, group, elements, act)
        old = transport_or_rejection(reference_transport_groupoid, group, elements, act)
        assert isinstance(new, FinCat) == isinstance(old, FinCat)
        if fault is None:
            assert isinstance(new, FinCat)
        if isinstance(new, FinCat):
            assert equal_presentation(new, old)

    @pytest.mark.parametrize("act, message", [
        ({"0": {"1": "1", "2": "2"}}, "no action data for element '1'"),
        ({"0": {"1": "1", "2": "2"}, "1": {"1": "2", "2": "3"}},
         "element '1' does not permute the objects"),
        ({"0": {"1": "2", "2": "1"}, "1": {"1": "2", "2": "1"}}, "identity element moves an object"),
        ({"0": {"1": "1", "2": "2"}, "1": {"1": "1", "2": "2", "3": "3"}},
         "element '1' does not permute the objects"),
    ], ids=["missing-row", "point-outside", "identity-moves", "extra-point"])
    def test_rejected_inside_scwol_action(self, monkeypatch, act, message):
        """The G-set is rejected by ScwolAction's own check, and nowhere else."""
        raised = []
        real = ScwolAction.__post_init__

        def post_init(self):
            try:
                real(self)
            except NotAnAction as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(ScwolAction, "__post_init__", post_init)
        with pytest.raises(NotAnAction, match=message) as info:
            transport_groupoid(cyclic_group(2), ("1", "2"), act)
        assert raised == [info.value]


def test_complex_from_quotient_reads_no_orbit(monkeypatch):
    """An orbit's name is its least member, the default representative, so
    building the complex asks the action for no orbit."""
    cases = [randgen.circle_action(), s3_flag_action()[0]]
    cases += [randgen.random_action(Random(s)) for s in TWISTED_ACTION_SEEDS[:4]]
    quotients = [quotient(action) for action in cases]
    calls = []
    real = ScwolAction.object_orbit
    monkeypatch.setattr(ScwolAction, "object_orbit",
                        lambda self, x: calls.append(x) or real(self, x))
    for action, q in zip(cases, quotients):
        built = _complex_from_quotient(action, q, None, None)
        assert dict(built.to_group.representatives) == {s: s for s in q.category.objects}
    assert calls == []


# -- GroupHom, subgroup and conjugate ------------------------------------------------


class TestGroupHom:
    @settings(max_examples=40, deadline=None)
    @given(groups, groups, SEEDS)
    def test_valid_homs_accepted_by_both(self, source, target, seed):
        hom = Random(seed).choice(homs_between(source, target))
        assert assert_same_hom_verdict(source, target, dict(hom.mapping)) is None

    @settings(max_examples=60, deadline=None)
    @given(groups, groups, SEEDS)
    def test_one_wrong_image(self, source, target, seed):
        rng = Random(seed)
        mapping = dict(rng.choice(homs_between(source, target)).mapping)
        a = rng.choice(source.labels)
        others = [h for h in target.labels if h != mapping[a]]
        mapping[a] = rng.choice(others) if others else "?unknown"
        # the result may still be a homomorphism: Z2 -> Z6 sending 1 to 0
        assert_same_hom_verdict(source, target, mapping)

    @pytest.mark.parametrize("mapping, message, witness", [
        ({"0": "0"}, "map undefined on '1'", {"element": "1"}),
        ({"0": "0", "1": "2"}, "image '2' not in target group", {"element": "1", "image": "2"}),
        ({"0": "1", "1": "0"}, "identity is not preserved", {"element": "0"}),
        ({"0": "0", "1": "0", "ghost": "1"}, "map key 'ghost' is not an element of Z2",
         {"key": "ghost"}),
    ], ids=["undefined", "out-of-range", "identity", "stray-key"])
    def test_rejection_carries_a_witness(self, mapping, message, witness):
        """Z/2 -> Z/2.  A stray key used to pass, and its image counted in
        is_injective, so the map sending both elements to 0 looked injective."""
        z2 = cyclic_group(2)
        with pytest.raises(NotAHomomorphism) as info:
            GroupHom(z2, z2, mapping)
        assert (str(info.value), info.value.witness) == (message, witness)

    def test_product_failure_names_the_pair(self):
        z3 = cyclic_group(3)
        with pytest.raises(NotAHomomorphism) as info:
            GroupHom(z3, z3, {"0": "0", "1": "1", "2": "1"})
        assert (str(info.value), info.value.witness) == (
            "product not preserved on ('1', '1')", {"pair": ("1", "1")}
        )

    @settings(max_examples=30, deadline=None)
    @given(actions, SEEDS)
    def test_complex_structure_maps(self, action, seed):
        """The conjugation maps of an associated complex, and a copy of one
        with a single image changed."""
        rng = Random(seed)
        hom = rng.choice(list(complex_of_groups(action).complex.homs.values()))
        assert assert_same_hom_verdict(hom.source, hom.target, dict(hom.mapping)) is None
        mapping = dict(hom.mapping)
        a = rng.choice(hom.source.labels)
        mapping[a] = rng.choice([h for h in hom.target.labels if h != mapping[a]] or ["?"])
        assert_same_hom_verdict(hom.source, hom.target, mapping)


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except EulcatError as exc:
        return type(exc), str(exc)


GROUP_REJECTIONS = {
    "duplicate": (lambda: FinGroup(("e", "e"), ((0, 1), (1, 0))),
                  "duplicate element labels in G", {"element": "e"}),
    "shape": (lambda: FinGroup(("e", "a"), ((0, 1),)), "Cayley table of G is not 2x2",
              {"shape": [2]}),
    "range": (lambda: FinGroup(("e", "a"), ((0, 1), (1, 2))),
              "Cayley table entry 2 out of range", {"entry": 2}),
    "no identity": (lambda: FinGroup(("e", "a"), ((0, 0), (0, 0))),
                    "G has no identity element", {"group": "G"}),
    "no inverse": (lambda: FinGroup(("e", "a"), ((0, 1), (1, 1))),
                   "element 'a' of G has no inverse", {"element": "a"}),
    "not closed": (lambda: symmetric_group(3).subgroup(["102", "021", "012"]),
                   "subset not closed: '021'*'102' = '201' escapes",
                   {"pair": ("021", "102"), "product": "201"}),
    "empty subset": (lambda: cyclic_group(2).subgroup([], "H"), "H has no identity element",
                     {"group": "H"}),
}


@pytest.mark.parametrize("build, message, witness", GROUP_REJECTIONS.values(),
                         ids=GROUP_REJECTIONS.keys())
def test_group_rejection_carries_its_witness(build, message, witness):
    with pytest.raises(NotAGroup) as info:
        build()
    assert str(info.value) == message
    assert info.value.witness == witness


class TestSubgroupAndConjugate:
    @settings(max_examples=60, deadline=None)
    @given(groups, SEEDS)
    def test_subgroup(self, group, seed):
        """A random subset (rarely closed), the subgroup generated by one
        element, and that subgroup with one element removed."""
        rng = Random(seed)
        generated, g = {group.identity}, rng.choice(group.labels)
        while g not in generated:
            generated.add(g)
            g = group.mul(g, rng.choice(sorted(generated)))
        subsets = [
            [x for x in group.labels if rng.random() < 0.5],
            sorted(generated),
            sorted(generated - {rng.choice(sorted(generated))}),
        ]
        for members in subsets:
            got = result_or_error(group.subgroup, members, "H")
            want = result_or_error(reference_subgroup, group, members, "H")
            if isinstance(want, FinGroup):
                assert (got.labels, got.table, got.name) == (want.labels, want.table, want.name)
            else:
                assert got == want

    @settings(max_examples=40, deadline=None)
    @given(groups)
    def test_every_subset_matches_the_validated_group(self, group):
        """``subgroup`` checks closure only and reads identity and inverses
        off the validated parent; full validation of the same table is the
        reference, on every subset (the empty one has no identity)."""
        for r in range(len(group) + 1):
            for members in itertools.combinations(group.labels, r):
                got = result_or_error(group.subgroup, members, "H")
                want = result_or_error(reference_subgroup, group, members, "H")
                if isinstance(want, FinGroup):
                    fields = ("labels", "table", "name", "_index", "_identity", "_inverse")
                    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
                else:
                    assert got == want
        assert result_or_error(group.subgroup, [], "H") == (NotAGroup, "H has no identity element")

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_stabilizer_validates_no_group(self, action):
        built = []
        real = FinGroup.__post_init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FinGroup, "__post_init__", lambda self: built.append(self.name) or real(self))
            stabs = {x: stabilizer(action, x) for x in action.space.objects}
        assert built == []
        for x, stab in stabs.items():
            assert stab.labels == tuple(_fixers(action, x))

    def test_first_escape_is_reported(self):
        s3 = symmetric_group(3)
        with pytest.raises(NotAGroup) as err:
            s3.subgroup(["102", "021", "012"])
        assert str(err.value) == "subset not closed: '021'*'102' = '201' escapes"

    @settings(max_examples=30, deadline=None)
    @given(groups)
    def test_conjugate(self, group):
        for a in group.labels:
            for by in group.labels:
                assert group.conjugate(a, by) == reference_conjugate(group, a, by)


# -- ComplexOfGroups and quotient ------------------------------------------------------


def complex_args(action, h=None):
    cplx = complex_of_groups(action, h_elements=h).complex
    return cplx.base, dict(cplx.local), dict(cplx.homs), dict(cplx.twists)


# (action, h elements): drawn actions with the default h, whose groups are
# abelian, and S3/S4 flag actions with drawn h and a non-central twist
drawn_complexes = st.one_of(actions.map(lambda a: (a, None)), noncentral_actions)


class TestComplexOfGroups:
    @settings(max_examples=30, deadline=None)
    @given(drawn_complexes)
    def test_valid_complexes_accepted_by_both(self, drawn):
        assert assert_same_complex_verdict(*complex_args(*drawn)) is None

    @settings(max_examples=60, deadline=None)
    @given(drawn_complexes, SEEDS)
    def test_one_wrong_twist(self, drawn, seed):
        """One twist replaced by another element of its group, at a pair of
        non-identity morphisms when there is one."""
        rng = Random(seed)
        base, local, homs, twists = complex_args(*drawn)
        pairs = [
            (b, a) for (b, a) in sorted(twists)
            if not (base.is_identity(a) or base.is_identity(b))
        ] or sorted(twists)
        b, a = rng.choice(pairs)
        others = [g for g in local[base.target(b)].labels if g != twists[(b, a)]]
        if others:
            twists[(b, a)] = rng.choice(others)
        assert_same_complex_verdict(base, local, homs, twists)

    @settings(max_examples=30, deadline=None)
    @given(drawn_complexes)
    def test_structure_maps_by_labels(self, drawn):
        action, h = drawn
        built = complex_of_groups(action, h_elements=h)
        homs, twists = reference_structure_maps(built)
        assert {m: dict(hom.mapping) for m, hom in built.complex.homs.items()} == homs
        assert dict(built.complex.twists) == twists

    def test_s3_flag(self):
        """Non-central twists, from chosen h elements: the complex is built
        as the label formulas say, and each twist at a pair of non-identity
        morphisms, replaced by any other element, is judged alike."""
        action, h_elements = s3_flag_action()
        built = complex_of_groups(action, h_elements=h_elements)
        homs, twists = reference_structure_maps(built)
        assert {m: dict(hom.mapping) for m, hom in built.complex.homs.items()} == homs
        assert dict(built.complex.twists) == twists
        base, local = built.complex.base, built.complex.local
        rejected = 0
        for (b, a), tw in twists.items():
            if base.is_identity(a) or base.is_identity(b):
                continue
            for g in local[base.target(b)].labels:
                corrupted = {**twists, (b, a): g}
                got = assert_same_complex_verdict(base, local, built.complex.homs, corrupted)
                rejected += got is not None
        assert rejected == 4 * 5

    @pytest.mark.parametrize("conjugating", [False, True])
    @pytest.mark.parametrize("twist", ["021", "102", "120"])
    def test_s3_chains(self, conjugating, twist):
        """Non-central twists: every twist is valid on the plain chain, only
        "021" on the conjugating one."""
        got = assert_same_complex_verdict(*s3_chain(conjugating, twist))
        assert (got is None) == (not conjugating or twist == "021")


class TestQuotient:
    @settings(max_examples=40, deadline=None)
    @given(actions)
    def test_same_composition_as_pairwise_orbit_loop(self, action):
        got = quotient(action).category.composition
        assert dict(got) == dict(reference_quotient_composition(action))

    @pytest.mark.parametrize("objects, arrows, compose, swap, want", [
        # g1 and g2 swapped, their composites h1 and h2 with f fixed
        (("x", "y", "z"),
         (("f", "x", "y"), ("g1", "y", "z"), ("g2", "y", "z"), ("h1", "x", "z"), ("h2", "x", "z")),
         {("g1", "f"): "h1", ("g2", "f"): "h2"},
         {"g1": "g2", "g2": "g1"},
         "('g1', 'f') is not well-defined: ['h1', 'h2']"),
        # y1 and y2 swapped, f: x -> y1 and g: y2 -> z fixed
        (("x", "y1", "y2", "z"), (("f", "x", "y1"), ("g", "y2", "z")), {},
         {"y1": "y2", "y2": "y1", "id_y1": "id_y2", "id_y2": "id_y1"},
         "('g', 'f') is not well-defined: []"),
    ], ids=["two-composites", "no-composite"])
    def test_ill_defined_composite(self, objects, arrows, compose, swap, want):
        """A Z/2 "action" that is no functor: ScwolAction rejects it, and
        the quotient of the same tables built without that check fails the
        oracle, which reports the same pair of orbits and lift set as the
        reference."""
        space = zoo.build_category(objects, arrows, compose)
        names = space.morphism_names()
        fields = dict(
            group=cyclic_group(2),
            space=space,
            on_objects={"0": {x: x for x in objects}, "1": {x: swap.get(x, x) for x in objects}},
            on_morphisms={"0": {m: m for m in names}, "1": {m: swap.get(m, m) for m in names}},
        )
        with pytest.raises(NotAFunctorAction):
            ScwolAction(**fields)
        action = unvalidated(ScwolAction, **fields)
        want = (InvalidQuotient, f"composite of orbits {want}")
        got = outcome(assert_orbit_projection, action, quotient(action))
        assert got == outcome(reference_quotient_composition, action) == want


# -- witnesses of the plain ValidationError sites ----------------------------------

Z2, Z4 = cyclic_group(2), cyclic_group(4)
ARROW = zoo.arrow_category()
NEGATE_Z4 = GroupHom(Z4, Z4, {"0": "0", "1": "3", "2": "2", "3": "1"})


def arrow_complex(local=(), homs=(), twists=(), drop=()):
    """Z/2 -> Z/4 over {0 -a-> 1}, with entries replaced by ``local``,
    ``homs`` and ``twists`` and the keys in ``drop`` removed."""
    args = [
        {"0": Z2, "1": Z4, **dict(local)},
        {"id_0": GroupHom.identity_hom(Z2), "id_1": GroupHom.identity_hom(Z4),
         "a": GroupHom(Z2, Z4, {"0": "0", "1": "2"}), **dict(homs)},
        {**{pair: "0" for pair in ARROW.composition}, **dict(twists)},
    ]
    for table in args:
        for key in drop:
            table.pop(key, None)
    return ComplexOfGroups(ARROW, *args)


def swapped_arrows_action():
    """Z/2 swapping p -f-> q with p2 -f2-> q2: no lift target is fixed."""
    space = zoo.build_category(("p", "p2", "q", "q2"), (("f", "p", "q"), ("f2", "p2", "q2")))
    swap = {"p": "p2", "q": "q2", "f": "f2", "id_p": "id_p2", "id_q": "id_q2"}
    swap.update({v: k for k, v in swap.items()})
    objects, morphisms = space.objects, space.morphism_names()
    return ScwolAction(Z2, space,
                       {"0": {x: x for x in objects}, "1": {x: swap[x] for x in objects}},
                       {"0": {m: m for m in morphisms}, "1": {m: swap[m] for m in morphisms}})


def strict_on_discrete(index, edge_at):
    """The discrete category {x, y} at every index object, with the swap
    along the index morphisms in ``edge_at`` and identities elsewhere."""
    disc = zoo.discrete_category(["x", "y"])
    swap = CatFunctor(disc, disc, {"x": "y", "y": "x"}, {"id_x": "id_y", "id_y": "id_x"})
    edge = {m: swap if m in edge_at else CatFunctor.identity_functor(disc)
            for m in index.morphism_names()}
    return StrictDiagram(index, {i: disc for i in index.objects}, edge)


TERMINAL = zoo.terminal_category("i")
PLAIN_REJECTIONS = {
    "no local group": (lambda: arrow_complex(drop=["1"]),
                       "no local group at '1'", {"object": "1"}),
    "no structure map": (lambda: arrow_complex(drop=["a"]),
                         "no structure homomorphism along 'a'", {"morphism": "a"}),
    "wrong endpoints": (lambda: arrow_complex(homs={"a": GroupHom.identity_hom(Z2)}),
                        "homomorphism along 'a' has wrong endpoints", {"morphism": "a"}),
    "not injective": (lambda: arrow_complex(homs={"a": GroupHom(Z2, Z4, {"0": "0", "1": "0"})}),
                      "homomorphism along 'a' is not injective", {"morphism": "a"}),
    "identity map": (lambda: arrow_complex(local={"0": Z4},
                                           homs={"id_0": NEGATE_Z4, "a": GroupHom.identity_hom(Z4)}),
                     "identity morphism 'id_0' carries a non-identity map", {"morphism": "id_0"}),
    "stray twist": (lambda: arrow_complex(twists={("a", "a"): "0"}),
                    "twist given for non-composable pair ('a', 'a')", {"pair": ("a", "a")}),
    "foreign twist": (lambda: arrow_complex(twists={("id_1", "a"): "9"}),
                      "twist at ('id_1', 'a') is not an element of the local group at '1'",
                      {"pair": ("id_1", "a"), "element": "9"}),
    "missing twist": (lambda: arrow_complex(drop=[("id_1", "a")]),
                      "no twist at composable pair ('id_1', 'a')", {"pair": ("id_1", "a")}),
    "unit twist": (lambda: arrow_complex(twists={("id_1", "a"): "2"}),
                   "unit twist at ('id_1', 'a') must be trivial",
                   {"pair": ("id_1", "a"), "element": "2"}),
    "conjugation": (lambda: ComplexOfGroups(*s3_chain(conjugating=True, twist="102")),
                    "conjugation identity fails at ('b', 'a') on element '021'",
                    {"pair": ("b", "a"), "element": "021"}),
    "cocycle": (lambda: ComplexOfGroups(*z2_chain_complex_data(corrupt=True)),
                "cocycle fails on triple ('c', 'b', 'a')", {"triple": ("c", "b", "a")}),
    "one arrow": (lambda: one_arrow_complex(Z2, Z4, GroupHom.identity_hom(Z2)),
                  "homomorphism along 'a' has wrong endpoints", {"morphism": "a"}),
    "override representative": (
        lambda: complex_of_groups(s3_flag_action()[0], object_reps={"y0": "p"}),
        "override representative 'p' does not project to 'y0'",
        {"object": "y0", "representative": "p"}),
    "identity override": (
        lambda: complex_of_groups(s3_flag_action()[0], h_elements={"id_p": "021"}),
        "override h element '021' at identity morphism 'id_p' is not the group identity",
        {"morphism": "id_p", "element": "021"}),
    "override h element": (
        lambda: complex_of_groups(swapped_arrows_action(), h_elements={"f": "1"}),
        "override h element '1' does not carry the lift target onto 'q'",
        {"morphism": "f", "element": "1"}),
    "foreign h element": (
        lambda: complex_of_groups(s3_flag_action()[0], h_elements={"y0p": "zzz"}),
        "override h element 'zzz' at 'y0p' is not an element of S3",
        {"morphism": "y0p", "element": "zzz"}),
    "stray h override": (
        lambda: complex_of_groups(s3_flag_action()[0], h_elements={"nosuch": "012"}),
        "override h element given for 'nosuch', which is no morphism of flag/S3",
        {"morphism": "nosuch"}),
    "stray representative override": (
        lambda: complex_of_groups(s3_flag_action()[0], object_reps={"nosuch": "x"}),
        "override representative given for 'nosuch', which is no orbit of flag/S3",
        {"object": "nosuch"}),
    "group order": (lambda: developability_check(arrow_complex(), [(0, 0)]),
                    "group order must be positive", {"order": 0}),
    "no vertex": (lambda: StrictDiagram(TERMINAL, {}, {}),
                  "no vertex category at 'i'", {"object": "i"}),
    "no edge": (lambda: StrictDiagram(TERMINAL, {"i": zoo.discrete_category(["x"])}, {}),
                "no functor along 'id_i'", {"morphism": "id_i"}),
    "edge endpoints": (
        lambda: StrictDiagram(TERMINAL, {"i": zoo.discrete_category(["x"])},
                              {"id_i": CatFunctor.identity_functor(zoo.discrete_category(["x"]))}),
        "functor along 'id_i' has wrong endpoints", {"morphism": "id_i"}),
    "identity edge": (lambda: strict_on_discrete(TERMINAL, ["id_i"]),
                      "edge at id_'i' is not the identity functor", {"object": "i"}),
    "strictness": (lambda: strict_on_discrete(s3_chain()[0], ["ba"]),
                   "strictness fails: edge('ba') != edge('b') o edge('a')", {"pair": ("b", "a")}),
    "negative cells": (lambda: CellSpectrum(zoo.pushout_scwol(), {"k": (-1,)}),
                       "negative cell count at 'k'", {"object": "k"}),
}


@pytest.mark.parametrize("build, message, witness", PLAIN_REJECTIONS.values(),
                         ids=PLAIN_REJECTIONS.keys())
def test_plain_rejection_carries_its_witness(build, message, witness):
    with pytest.raises(ValidationError) as info:
        build()
    assert type(info.value) is ValidationError
    assert str(info.value) == message
    assert info.value.witness == witness


# -- validate: a category manifest read once ------------------------------------------


def reference_records(objects, morphisms, identity, name):
    """FinCat's checks of ids, endpoints and the identity map, one name at a
    time."""
    dup = next((x for i, x in enumerate(objects) if x in objects[:i]), None)
    if dup is not None:
        raise DanglingReference(f"{name}: duplicate object ids", witness={"object": dup})
    names = [m.name for m in morphisms]
    dups = sorted({n for n in names if names.count(n) > 1})
    if dups:
        raise DanglingReference(f"{name}: duplicate morphism ids {dups}",
                                witness={"morphism": dups[0]})
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


QUOTED = r"""('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")"""


def law_witness(message):
    """The witness of a ``reference_fincat_laws`` failure, read off its
    message: the pair it names, or the morphism of an identity law."""
    pair = re.search(rf"\({QUOTED}, {QUOTED}\)", message)
    if pair:
        return {"pair": (ast.literal_eval(pair[1]), ast.literal_eval(pair[2]))}
    return {"morphism": ast.literal_eval(re.findall(QUOTED, message)[-1])}


def reference_validate(raw, name="C"):
    """``fincat.validate`` as the name-keyed table it once built: parse it,
    reject a part that is no list, a pair listed twice, bad records, then
    ``reference_fincat_laws``.  Returns the parts and the table."""
    try:
        objects = tuple(str(x) for x in raw["objects"])
        morphisms = tuple(
            Morphism(str(m["id"]), str(m["source"]), str(m["target"])) for m in raw["morphisms"]
        )
        identity = {str(k): str(v) for k, v in raw["identity"].items()}
        triples = raw.get("compose", [])
        composition = {(str(g), str(f)): str(gf) for g, f, gf in triples}
        parts = [("objects", raw["objects"]), ("morphisms", raw["morphisms"]),
                 ("compose", triples)] + [(f"compose entry {k}", e) for k, e in enumerate(triples)]
        for what, part in parts:
            if type(part) is not list:
                raise TypeError(f"{what} must be a list, not {type(part).__name__}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DanglingReference(f"{name}: malformed category description ({exc})",
                                witness={"cause": str(exc)}) from exc
    name = str(raw.get("name", name))
    pairs = [(str(g), str(f)) for g, f, _ in triples]
    for k, pair in enumerate(pairs):
        if pair in pairs[:k]:
            raise DanglingReference(
                f"{name}: pair ({pair[0]!r}, {pair[1]!r}) is listed more than once in compose",
                witness={"pair": pair},
            )
    reference_records(objects, morphisms, identity, name)
    try:
        reference_fincat_laws(objects, morphisms, identity, composition, name)
    except ValidationError as exc:
        if exc.witness is None:
            exc.witness = law_witness(str(exc))
        raise
    return objects, morphisms, identity, composition, name


def with_number_ids(payload):
    """The same category with every object and morphism id a JSON number."""
    objects = {x: k for k, x in enumerate(payload["objects"])}
    ids = {m["id"]: len(objects) + k for k, m in enumerate(payload["morphisms"])}
    return {
        "objects": list(objects.values()),
        "morphisms": [{"id": ids[m["id"]], "source": objects[m["source"]],
                       "target": objects[m["target"]]} for m in payload["morphisms"]],
        "identity": {str(objects[x]): ids[e] for x, e in payload["identity"].items()},
        "compose": [[ids[g], ids[f], ids[gf]] for g, f, gf in payload["compose"]],
    }


def faulty(payload, rng, fault):
    """``payload`` with its compose entries shuffled and ``fault`` put in."""
    payload = json.loads(json.dumps(payload))
    table = payload["compose"]
    rng.shuffle(table)
    k = rng.randrange(len(table))
    if fault == "drop":
        del table[k]
    elif fault == "swap-composites":
        j = rng.randrange(len(table))
        table[k][2], table[j][2] = table[j][2], table[k][2]
    elif fault == "swap-factors":
        table[k][0], table[k][1] = table[k][1], table[k][0]
    elif fault == "dangling":
        table[k][rng.randrange(3)] = "ghost"
    elif fault == "listed-twice":
        twin = [*table[k][:2], rng.choice(table)[2]]
        table.insert(rng.randrange(len(table) + 1), twin)
    elif fault == "number-ids":
        payload = with_number_ids(payload)
    elif fault == "listed-twice-and-object-repeated":
        table.append(list(table[k]))
        payload["objects"].append(rng.choice(payload["objects"]))
    elif fault == "dangling-then-malformed":
        j = rng.randrange(k, len(table))
        table[k][0] = "ghost"
        table[j] = table[j][:2] if j != k else "ghost"
    elif fault == "entry-not-a-list":
        table[k] = "".join(table[k][0][:1] * 3)
    return payload


FAULTS = (None, "drop", "swap-composites", "swap-factors", "dangling", "listed-twice",
          "number-ids", "listed-twice-and-object-repeated", "dangling-then-malformed",
          "entry-not-a-list")


class TestValidate:
    """``fincat.validate`` reads a manifest's entries once into the rows of
    its check and builds no name table; the table it once built, checked by
    the name-based references, gives the same verdict."""

    @settings(max_examples=120, deadline=None)
    @given(categories, SEEDS, st.sampled_from(FAULTS))
    def test_same_verdict_as_the_name_table(self, cat, seed, fault):
        payload = faulty(manifest.category_payload(cat), Random(seed), fault)
        got = outcome(validate, payload, witness=True)
        assert got == outcome(reference_validate, payload, witness=True)
        if got is None:
            loaded = validate(payload)
            objects, morphisms, identity, composition, name = reference_validate(payload)
            by_names = FinCat(objects, morphisms, identity, composition, name=name)
            assert list(loaded.composition.items()) == list(composition.items())
            assert (loaded._invertible, loaded._directly_finite) == reference_invertibles(by_names)

    def test_every_fault_is_seen(self):
        """Non-vacuity: on the pushout scwol each fault but a shuffle and
        number ids is rejected, with the class that the first fault in the
        old order calls for."""
        payload = manifest.category_payload(zoo.pushout_scwol())
        want = {"drop": IncompleteCompositionTable, "dangling": DanglingReference,
                "listed-twice": DanglingReference, "number-ids": None,
                "listed-twice-and-object-repeated": DanglingReference,
                "dangling-then-malformed": DanglingReference,
                "entry-not-a-list": DanglingReference, None: None}
        for fault, cls in want.items():
            got = outcome(validate, faulty(payload, Random(1), fault))
            assert (got and got[0]) == cls, fault
        both = faulty(payload, Random(1), "listed-twice-and-object-repeated")
        assert "listed more than once" in outcome(validate, both)[1]
        malformed = faulty(payload, Random(1), "dangling-then-malformed")
        assert "malformed category description" in outcome(validate, malformed)[1]
