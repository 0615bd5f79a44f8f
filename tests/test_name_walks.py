"""Differential tests for the rejection locators, which walk integer rows.

Once a check has failed, a locator finds the first fault and names it with
``morphism_names``.  Those that walk a table walk its entries in order
(``fincat._Rows.pairs``), the others the index arrays in morphism order:
the map walk and the composition walk of the functor check, the twist
walk of ``ComplexOfGroups``, the missing-comp walk of ``PseudoDiagram``,
``eulerchar.free_aut_witness``, and the witnesses of ``groupoid_chi2``,
``chi2_free_EI`` and the ``transport`` command.  The name walks they
replaced are kept in ``helpers`` as references (``reference_walk_functor_maps``
and the rest; the missing-comp walk is the one in
``reference_pseudo_diagram_checks``).  On drawn categories, stores with
shuffled entries, strict and pseudo totals and complexes, each with one
planted fault (two, where a walk must pick the first), a locator and its
reference agree on the class, message and witness of the first failure.
"""

from random import Random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import cli, eulerchar, fincat, groupact, hocolim, randgen, zoo
from eulcat.errors import EulcatError
from eulcat.fincat import CatFunctor, _is_thin, _rows_of, _skeleton_category
from eulcat.groupact import ComplexOfGroups
from eulcat.groups import cyclic_group, symmetric_group
from eulcat.hocolim import PseudoDiagram, constant_diagram

from helpers import (
    constant_complex,
    discrete_action,
    gamma_one,
    gamma_two,
    loaded,
    monoid_z2_mult,
    reference_check_functor,
    reference_check_functor_arrays,
    reference_free_aut_witness,
    reference_free_EI_rejections,
    reference_functor_arrays,
    reference_groupoid_rejection,
    reference_pseudo_diagram_checks,
    reference_transport_rejection,
    reference_twist_walk,
    reference_walk_functor_maps,
    split_idempotent,
    unvalidated,
)
from strategies import (
    SEEDS,
    actions,
    groupoids,
    groups,
    posets,
    pseudo_diagrams,
    scwols,
    strict_diagrams,
)


def outcome(fn, *args):
    """None on success, else the class, message and witness of the failure."""
    try:
        fn(*args)
    except EulcatError as exc:
        return type(exc), str(exc), exc.witness
    return None


totals = st.one_of(strict_diagrams.map(lambda d: hocolim.grothendieck(d).category),
                   pseudo_diagrams.map(hocolim.grothendieck_pseudo))
drawn = st.one_of(scwols, posets, groupoids.map(lambda g: g.category), totals,
                  st.sampled_from([split_idempotent(), monoid_z2_mult(), gamma_one(),
                                   gamma_two()]))
# each drawn category as it was built, and loaded with its entries shuffled
categories = st.one_of(drawn, st.builds(loaded, drawn, SEEDS))


def edges(diagram):
    return [diagram.edge[m] for m in sorted(diagram.edge)]


functors = st.one_of(
    strict_diagrams.map(edges),
    pseudo_diagrams.map(edges),
    categories.map(lambda cat: [CatFunctor.identity_functor(cat)]),
    # into a strict total
    strict_diagrams.map(lambda d: list(hocolim.grothendieck(d).alphas.values())),
)


def twins(t, k: int) -> list[int]:
    """The morphisms of the rows ``t`` parallel to k, but k."""
    ends = (t.src[k], t.tgt[k])
    return [n for n, pair in enumerate(zip(t.src, t.tgt)) if pair == ends and n != k]


# -- the functor check --------------------------------------------------------------------

MAP_FAULTS = ("image", "twin", "object", "drop-object", "drop", "unknown")


def mutate_maps(fun, rng, fault):
    """The maps of ``fun`` with one object or morphism image changed to
    another, to a parallel twin or to no name, or dropped."""
    obj_map, mor_map = dict(fun.obj_map), dict(fun.mor_map)
    t = _rows_of(fun.target)
    if fault in ("object", "drop-object") or not mor_map:
        if obj_map:
            x = rng.choice(sorted(obj_map))
            if fault == "drop-object":
                del obj_map[x]
            else:
                obj_map[x] = rng.choice(fun.target.objects + ("?nosuch",))
        return obj_map, mor_map
    m = rng.choice(sorted(mor_map))
    if fault == "image":
        mor_map[m] = rng.choice(t.names)
    elif fault == "twin":
        mor_map[m] = t.names[rng.choice(twins(t, t.index[mor_map[m]]) or [t.index[mor_map[m]]])]
    elif fault == "unknown":
        mor_map[m] = "?nosuch"
    else:
        del mor_map[m]
    return obj_map, mor_map


def map_walks(fun, obj_map, mor_map):
    src, tgt = fun.source, fun.target
    s, t = _rows_of(src), _rows_of(tgt)
    return (outcome(fincat._walk_functor_maps, s, t, tgt.name, obj_map, mor_map),
            outcome(reference_walk_functor_maps, src, tgt, obj_map, mor_map))


ARRAY_FAULTS = ("twin", "two-twins", "image", "swap")


def mutate_arrays(fun, rng, fault):
    """The arrays of ``fun`` with one morphism image (two for "two-twins")
    changed to a parallel twin or to another morphism, or two images
    exchanged."""
    t = _rows_of(fun.target)
    fo, fm = reference_functor_arrays(fun, t)
    if not fm:
        return fo, fm
    if fault == "image":
        fm[rng.randrange(len(fm))] = rng.randrange(len(t.src))
    elif fault == "swap":
        a, b = rng.randrange(len(fm)), rng.randrange(len(fm))
        fm[a], fm[b] = fm[b], fm[a]
    else:
        for k in rng.sample(range(len(fm)), min(len(fm), 1 if fault == "twin" else 2)):
            fm[k] = rng.choice(twins(t, fm[k]) or [fm[k]])
    return fo, fm


def array_checks(fun, fo, fm):
    src, tgt = fun.source, fun.target
    s, t, thin = _rows_of(src), _rows_of(tgt), _is_thin(tgt)
    return (outcome(fincat._check_functor_arrays, s, t, fo, fm, thin),
            outcome(reference_check_functor_arrays, src, tgt, s, t, fo, fm, thin))


class TestFunctorWalks:
    @settings(max_examples=80, deadline=None)
    @given(functors, SEEDS, st.sampled_from(MAP_FAULTS))
    def test_map_walk_as_by_names(self, funs, seed, fault):
        rng = Random(seed)
        for fun in funs:
            got, want = map_walks(fun, fun.obj_map, fun.mor_map)
            assert got is None is want
        if funs:
            fun = rng.choice(funs)
            obj_map, mor_map = mutate_maps(fun, rng, fault)
            got, want = map_walks(fun, obj_map, mor_map)
            assert got == want
            args = (fun.source, fun.target, obj_map, mor_map)
            assert outcome(CatFunctor, *args) == outcome(reference_check_functor, *args)

    @settings(max_examples=80, deadline=None)
    @given(functors, SEEDS, st.sampled_from(ARRAY_FAULTS))
    def test_composition_walk_as_by_names(self, funs, seed, fault):
        rng = Random(seed)
        if funs:
            fun = rng.choice(funs)
            got, want = array_checks(fun, *mutate_arrays(fun, rng, fault))
            assert got == want

    def test_every_map_fault_is_seen(self):
        """Non-vacuity: over seeded mutations of identity functors of a
        group, a scwol, a store and a strict total, the map walk raises at
        each of the laws it locates."""
        cats = [zoo.one_object_category(symmetric_group(3)), zoo.pushout_scwol(),
                loaded(zoo.circle_scwol(), 5), hocolim.grothendieck(constant_diagram(
                    zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))).category]
        laws = set()
        for seed in range(120):
            rng = Random(seed)
            fun = CatFunctor.identity_functor(cats[seed % len(cats)])
            got, want = map_walks(fun, *mutate_maps(fun, rng, MAP_FAULTS[seed // 4 % 6]))
            assert got == want
            if got is not None:
                laws.add(got[2]["law"])
        assert laws == {"objects", "morphisms", "source/target"}

    def test_composition_walk_on_totals_and_stores(self):
        """Non-vacuity: twin images in the identity functor of a strict
        total (its entries by first factor) and of a store with shuffled
        entries break composition first, located as by names."""
        total = hocolim.grothendieck(constant_diagram(
            zoo.pushout_scwol(), zoo.one_object_category(symmetric_group(3)))).category
        cats = [total, loaded(zoo.one_object_category(symmetric_group(3)), 7), loaded(total, 8)]
        seen = []
        for seed in range(60):
            fun = CatFunctor.identity_functor(cats[seed % len(cats)])
            got, want = array_checks(fun, *mutate_arrays(fun, Random(seed), "two-twins"))
            assert got == want
            if got is not None and got[2]["law"] == "composition":
                seen.append(seed % len(cats))
        assert set(seen) == {0, 1, 2}


# -- complexes of groups ----------------------------------------------------------------

scwol_bases = st.one_of(
    scwols, st.builds(loaded, scwols, SEEDS),
    scwols.map(lambda idx: hocolim.grothendieck(
        constant_diagram(idx, zoo.arrow_category())).category),
)
complexes = st.one_of(
    actions.map(lambda action: groupact.complex_of_groups(action).complex),
    st.builds(constant_complex, scwol_bases,
              st.sampled_from([cyclic_group(2), symmetric_group(3)])),
)
TWIST_FAULTS = ("drop", "drop-two", "unit")


def mutate_twists(cplx, rng, fault):
    """The twists of ``cplx`` with one or two dropped, or one at a pair
    with an identity factor made a non-identity element."""
    twists, base = dict(cplx.twists), cplx.base
    keys = sorted(twists)
    if fault == "unit":
        units = [(b, a) for b, a in keys if base.is_identity(a) or base.is_identity(b)]
        b, a = rng.choice(units)
        group = cplx.local[base.target(b)]
        twists[(b, a)] = rng.choice([g for g in group.labels if g != group.identity]
                                    or [group.identity])
    else:
        for key in rng.sample(keys, 1 if fault == "drop" else min(2, len(keys))):
            del twists[key]
    return twists


def twist_walks(cplx, twists):
    return (outcome(ComplexOfGroups, cplx.base, cplx.local, cplx.homs, twists),
            outcome(reference_twist_walk,
                    SimpleNamespace(base=cplx.base, local=cplx.local, twists=twists)))


class TestTwistWalk:
    @settings(max_examples=60, deadline=None)
    @given(complexes, SEEDS, st.sampled_from(TWIST_FAULTS))
    def test_as_by_names(self, cplx, seed, fault):
        got, want = twist_walks(cplx, mutate_twists(cplx, Random(seed), fault))
        assert got == want

    def test_every_fault_is_seen(self):
        """Non-vacuity: on constant complexes over a store with shuffled
        entries and over a strict total, both faults are located."""
        bases = [loaded(zoo.circle_scwol(), 3), hocolim.grothendieck(constant_diagram(
            zoo.pushout_scwol(), zoo.arrow_category())).category]
        messages = []
        for seed in range(30):
            cplx = constant_complex(bases[seed % 2], cyclic_group(2))
            got, want = twist_walks(cplx, mutate_twists(cplx, Random(seed), TWIST_FAULTS[seed % 3]))
            assert got == want
            messages.append(got[1])
        assert any("no twist at composable pair" in m for m in messages)
        assert any("must be trivial" in m for m in messages)


# -- pseudo diagrams ----------------------------------------------------------------

pseudo_inputs = st.one_of(
    pseudo_diagrams,
    st.builds(lambda index, cat: PseudoDiagram.from_strict(constant_diagram(index, cat)),
              categories, st.sampled_from([monoid_z2_mult(),
                                           zoo.one_object_category(cyclic_group(2))])),
)


def comp_walks(p, comp):
    """The verdicts of ``PseudoDiagram`` and of its name-level checks, whose
    missing-comp walk reads ``index.composition``."""
    return (outcome(PseudoDiagram, p.index, p.vertex, dict(p.edge), comp, dict(p.unit)),
            outcome(reference_pseudo_diagram_checks, unvalidated(
                PseudoDiagram, index=p.index, vertex=p.vertex, edge=dict(p.edge), comp=comp,
                unit=dict(p.unit))))


class TestMissingCompWalk:
    @settings(max_examples=40, deadline=None)
    @given(pseudo_inputs, SEEDS, st.integers(1, 2))
    def test_as_by_names(self, p, seed, dropped):
        comp = dict(p.comp)
        for key in Random(seed).sample(sorted(comp), min(dropped, len(comp))):
            del comp[key]
        got, want = comp_walks(p, comp)
        assert got == want

    def test_on_a_total_and_a_store(self):
        """Non-vacuity: with two tables dropped over a strict total and
        over a store with shuffled entries, the walk reports the first in
        table order."""
        total = hocolim.grothendieck(constant_diagram(zoo.pushout_scwol(),
                                                      zoo.arrow_category())).category
        for index in (total, loaded(zoo.circle_scwol(), 4)):
            p = PseudoDiagram.from_strict(constant_diagram(index, monoid_z2_mult()))
            comp = dict(p.comp)
            dropped = Random(1).sample(sorted(comp), 2)
            for key in dropped:
                del comp[key]
            got, want = comp_walks(p, comp)
            assert got == want
            pairs = [pair for pair in index.composition if pair in dropped]
            assert got[2] == {"pair": pairs[0]}


# -- witnesses off the index arrays ----------------------------------------------------


class TestWitnesses:
    @settings(max_examples=60, deadline=None)
    @given(categories)
    def test_as_by_names(self, cat):
        assert eulerchar.free_aut_witness(cat) == reference_free_aut_witness(cat)
        gamma = _skeleton_category(cat)
        assert eulerchar.free_aut_witness(gamma) == reference_free_aut_witness(gamma)
        for fn, reference in ((eulerchar.groupoid_chi2, reference_groupoid_rejection),
                              (eulerchar.chi2_free_EI, reference_free_EI_rejections)):
            assert outcome(fn, cat) == outcome(reference, cat)

    def test_non_free_skeletal_EI_categories(self):
        """Non-vacuity: the Klein group fixes points of Hom(x, y) in
        ``gamma_two``, and all of Z/3 fixes the one point of a trivial
        action, so the order of the automorphisms counts, and in its
        product with an arrow the order of the objects; each built and
        loaded with its entries shuffled."""
        z3 = cyclic_group(3)
        fixed = zoo.two_object_ei_category(z3, {g: {"p": "p"} for g in z3.labels}, ("p",))
        for built in (gamma_two(), fixed, fincat.product(fixed, zoo.arrow_category())):
            for cat in (built, loaded(built, 6)):
                want = reference_free_aut_witness(cat)
                assert eulerchar.free_aut_witness(cat) == want is not None
                got = outcome(eulerchar.chi2_free_EI, cat)
                assert got == outcome(reference_free_EI_rejections, cat)
        assert eulerchar.free_aut_witness(gamma_one()) is None

    def test_every_rejection_is_seen(self):
        """Non-vacuity: a scwol is no groupoid, the Z/2 monoid is not EI,
        and an arrow of the space is no transport input; the witnesses are
        those by names."""
        cases = [(eulerchar.groupoid_chi2, reference_groupoid_rejection, zoo.pushout_scwol()),
                 (eulerchar.chi2_free_EI, reference_free_EI_rejections, monoid_z2_mult()),
                 (eulerchar.chi2_free_EI, reference_free_EI_rejections,
                  loaded(monoid_z2_mult(), 2))]
        for fn, reference, cat in cases:
            got = outcome(fn, cat)
            assert got is not None and got == outcome(reference, cat)
        action = randgen.circle_action()
        got = outcome(cli._transport, "action", action, None)
        assert got is not None and got == outcome(reference_transport_rejection, action)


transport_inputs = st.one_of(
    actions,
    st.builds(lambda group, seed: discrete_action(group, *randgen.random_gset(Random(seed), group)),
              groups, SEEDS),
)


@settings(max_examples=40, deadline=None)
@given(transport_inputs)
def test_transport_witness_as_by_names(action):
    got = outcome(cli._transport, "action", action, None)
    assert got == outcome(reference_transport_rejection, action)
