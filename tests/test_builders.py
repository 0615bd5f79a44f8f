"""Every builder writes the integer store.

The library's builders write the arrays of a ``fincat.FinCat`` through its
one unchecked constructor (``fincat._stored``), reading the rows of their
inputs (their ``_ends``), not their name tables.  Each writer's one pin is
in its own ``test_*_writer(s)`` module: digests recorded before the change
they guard, and a rebuild through the checked constructor.  Its name-level
copy is gone: ``scripts/mutants.py`` found no mutant that a comparison with
it killed and the pins did not.  The full subcategory (which
``helpers.reference_retract`` reads) and the skeleton are still compared
with theirs, built through the checked constructor, on drawn inputs, totals
and shuffled manifest categories among them (``assert_same_build``).
``iso_classes`` on rows is compared with its name-level version, a name
collision is rejected with the message and witness the name-level builder
raised, and no builder makes a name table of a store it reads.
"""

import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import cli, eulerchar, fincat, groupact, hocolim, manifest, randgen, zoo
from eulcat.errors import ValidationError
from eulcat.fincat import (
    DanglingReference,
    FinCat,
    NotAFunctor,
    NotGroupoid,
    NotScwol,
    full_subcategory,
    opposite,
    product,
    skeleton,
)
from eulcat.groups import cyclic_group, symmetric_group
from eulcat.ratlin import chi_L

from helpers import (
    assert_lawful,
    assert_revalidates,
    constant_complex,
    dict_fill,
    gamma_one,
    gamma_two,
    identity_maps,
    loaded,
    monoid_z2_mult,
    reference_full_subcategory,
    reference_haefliger_chi,
    reference_iso_classes,
    reference_retract,
    reloaded_diagram,
    split_idempotent,
    stored_ends,
)
from strategies import (
    SEEDS,
    actions,
    groupoids,
    posets,
    pseudo_diagrams,
    scwols,
    strict_diagrams,
)


def assert_same_build(got: FinCat, want: FinCat) -> None:
    """``got``, a store a builder wrote, holds what the name-level reference
    ``want`` (checked by the constructor) holds: name, objects, records,
    identity map, the table, inverses, direct finiteness and
    ``_ends``; and its own tables pass the checked constructor."""
    assert got.name == want.name
    assert got.objects == want.objects
    assert got.morphisms == want.morphisms
    assert dict(got.identity) == dict(want.identity)
    assert dict(got.composition) == dict(want.composition)
    assert list(got._invertible.items()) == list(want._invertible.items())
    assert got._directly_finite == want._directly_finite
    assert stored_ends(got) == stored_ends(want)
    assert_lawful(got)


drawn = st.one_of(scwols, posets, groupoids.map(lambda g: g.category),
                  strict_diagrams.map(lambda d: hocolim.grothendieck(d).category),
                  st.just(split_idempotent()))
# each drawn category as it was built, and loaded with its entries shuffled
inputs = st.one_of(drawn, st.builds(loaded, drawn, SEEDS))


class TestSameAsTheNameLevelBuilder:
    @settings(max_examples=40, deadline=None)
    @given(inputs, st.data())
    def test_full_subcategory(self, cat, data):
        keep = data.draw(st.sets(st.sampled_from(cat.objects))) if cat.objects else set()
        got = full_subcategory(cat, keep)
        assert_same_build(got, reference_full_subcategory(cat, keep))

    @settings(max_examples=40, deadline=None)
    @given(inputs)
    def test_skeleton(self, cat):
        sk = skeleton(cat)
        rep_of = sk.retraction.obj_map
        gamma, inclusion, retraction, eta = reference_retract(cat, rep_of, f"sk({cat.name})")
        assert_same_build(sk.category, gamma)
        assert (dict(sk.inclusion.obj_map), dict(sk.inclusion.mor_map)) == inclusion
        assert (dict(sk.retraction.obj_map), dict(sk.retraction.mor_map)) == retraction
        assert list(sk.eta.items()) == list(eta.items())
        if gamma.objects == cat.objects:  # skeletal: returned as it is
            assert fincat._skeleton_category(cat) is cat
        else:
            assert_same_build(fincat._skeleton_category(cat), gamma)


def assert_same_iso_classes(cat) -> None:
    """``iso_classes`` on rows gives what the name-level version gives."""
    assert_same_classes(fincat.iso_classes(cat), reference_iso_classes(cat))


def assert_same_classes(got, want) -> None:
    """Classes, representatives, ``all_endos_invertible`` and each
    automorphism group's name, labels, table, index, identity and
    inverses."""
    assert got.classes == want.classes
    assert got.representatives == want.representatives
    assert dict(got.all_endos_invertible) == dict(want.all_endos_invertible)
    assert list(got.aut) == list(want.aut)
    for rep, group in got.aut.items():
        other = want.aut[rep]
        assert (group.name, group.labels, group.table) == (other.name, other.labels, other.table)
        assert (group._index, group._identity, group._inverse) == (
            other._index, other._identity, other._inverse)


class TestIsoClassesOnRows:
    @settings(max_examples=60, deadline=None)
    @given(inputs)
    def test_drawn_categories(self, cat):
        assert_same_iso_classes(cat)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_homotopy_colimits_of_complexes(self, action):
        """One-object vertices make large automorphism groups."""
        cplx = groupact.complex_of_groups(action).complex
        assert_same_iso_classes(groupact.hocolim_groups(cplx))
        assert_same_iso_classes(hocolim.grothendieck_pseudo(groupact.complex_to_pseudo_diagram(cplx)))

    @pytest.mark.parametrize("cat", [
        zoo.one_object_category(symmetric_group(3)), monoid_z2_mult(), split_idempotent(),
        product(split_idempotent(), zoo.one_object_category(cyclic_group(2))),
        zoo.discrete_category([]),
    ], ids=["S3", "monoid", "split", "split x Z2", "empty"])
    def test_named_examples(self, cat):
        assert_same_iso_classes(cat)
        assert_same_iso_classes(loaded(cat, 0))

    def test_a_changed_product_is_caught(self):
        """Non-vacuity: an automorphism table with one product changed
        fails the comparison."""
        cat = zoo.one_object_category(symmetric_group(3))
        want = reference_iso_classes(cat)
        table = [list(row) for row in want.aut["*"].table]
        table[1][2] = table[1][3]
        object.__setattr__(want.aut["*"], "table", tuple(map(tuple, table)))
        with pytest.raises(AssertionError):
            assert_same_classes(fincat.iso_classes(cat), want)


class TestNamesCollide:
    def test_a_product_with_repeated_names(self):
        """Pair names that coincide are rejected, as the record check of the
        name-level builder rejected them: the class, message and witness
        it raised."""
        a = zoo.build_category(("x", "x,y"), (), name="A")
        b = zoo.build_category(("y,z", "z"), (), name="B")
        with pytest.raises(DanglingReference) as got:
            product(a, b)
        assert str(got.value) == "AxB: duplicate object ids"
        assert got.value.witness == {"object": "(x,y,z)"}

    @pytest.mark.parametrize("arrows", [(("c[x]", "x", "y"), ("c[x]@t", "x", "y")),
                                        (("id_t", "y", "x"), ("id_t@t", "y", "x"))],
                             ids=["c[x]", "id_t"])
    def test_a_cone_with_repeated_names(self, arrows):
        """A cone arrow named like a morphism of its input, qualified by the
        apex too, is rejected as the record check of the name-level builder
        rejected it: the class, message and witness it raised."""
        cat = zoo.build_category(("x", "y"), arrows, name="B")
        with pytest.raises(DanglingReference) as got:
            zoo.cone(cat)
        taken = arrows[1][0]
        assert str(got.value) == f"cone(B): duplicate morphism ids [{taken!r}]"
        assert got.value.witness == {"morphism": taken}

    @pytest.mark.parametrize("arrows", [(("c[x]", "x", "y"),), (("id_t", "y", "x"),)],
                             ids=["c[x]", "id_t"])
    def test_a_cone_qualifies_a_taken_name(self, arrows):
        """A cone arrow named like a morphism of its input is named
        ``name@apex``, as the name-level builder named it, and the other
        new arrows keep their names."""
        cat = zoo.build_category(("x", "y"), arrows, name="B")
        got, taken = zoo.cone(cat), arrows[0][0]
        assert_revalidates(got)
        assert got.morphism_names()[-3:] == tuple(
            f"{m}@t" if m == taken else m for m in ("id_t", "c[x]", "c[y]"))

    def test_the_cone_of_a_cone(self):
        """The second cone qualifies the first cone's arrows it would name
        again, and is a lawful category with a terminal object; a single
        cone's names are unchanged."""
        once = zoo.cone(zoo.polygon_scwol(3))
        twice = zoo.cone(once, "s")
        assert_revalidates(twice)
        assert chi_L(twice) == 1
        assert once.morphism_names()[-7:] == ("id_t", "c[v0]", "c[v1]", "c[v2]", "c[e0]", "c[e1]",
                                              "c[e2]")
        assert twice.morphism_names()[-8:] == ("id_s", "c[v0]@s", "c[v1]@s", "c[v2]@s",
                                               "c[e0]@s", "c[e1]@s", "c[e2]@s", "c[t]")

    def test_an_apex_already_present(self):
        with pytest.raises(ValueError, match="^object 'j' already present$"):
            zoo.cone(zoo.pushout_scwol(), "j")


class TestNonVacuity:
    def test_one_swapped_cell_is_caught(self):
        """A store whose rows have two cells of one row swapped fails the
        comparison with a checked copy of it (the full subcategory on every
        object), which it passes unswapped: the first two composites of one
        row that differ, in the order of the entries, swapped in the list."""
        def built():  # afresh, as a comparison makes the views it reads
            return product(zoo.parallel_pair_scwol(), split_idempotent())

        twin = built()
        want = reference_full_subcategory(twin, twin.objects, name=twin.name)
        assert_same_build(built(), want)
        cat = built()
        r = cat._ends
        in_entry_order = dict_fill(len(r.names), r.entries())[0]
        f, (g1, g2) = next((f, pair) for f, row in enumerate(in_entry_order)
                           for pair in itertools.combinations(row, 2)
                           if row[pair[0]] != row[pair[1]])
        row, p1, p2 = list(r.rows[f]), r.pos[g1], r.pos[g2]
        row[p1], row[p2] = row[p2], row[p1]
        r.rows[f] = tuple(row)
        with pytest.raises(AssertionError):
            assert_same_build(cat, want)


# the name fields a store makes on their first read, but its identity map
NAME_FIELDS = {"morphisms", "composition", "_hom", "_by_source", "_invertible"}


class TestInputTablesStayUnmade:
    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_builders_make_no_table_of_a_total(self, d):
        total = hocolim.grothendieck(d).category
        full_subcategory(total, total.objects[::2])
        skeleton(total)
        opposite(total)
        assert "composition" not in vars(total)

    def test_totals_over_store_vertices_make_no_vertex_names(self):
        """``hocolim._VertexOrder`` and the lifted inverses read the
        vertices' arrays: building a total over stores makes none of their
        records."""
        vertex = randgen.random_groupoid(Random(3), 3, 4).category
        pair = zoo.one_object_category(symmetric_group(3))
        for index in (zoo.pushout_scwol(), zoo.inflate(zoo.pushout_scwol(), {"j": 2})):
            for cat in (vertex, pair):
                hocolim.grothendieck(hocolim.constant_diagram(index, cat)).category
                assert not {"morphisms", "composition", "_hom"} & vars(cat).keys()

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(posets, groupoids.map(lambda g: g.category)), SEEDS)
    def test_iso_classes_make_no_names_of_a_store(self, cat, seed):
        """``iso_classes`` (behind the ``skeleton`` command) and
        ``groupoid_chi2`` read a loaded category's rows."""
        store = loaded(cat, seed)
        fincat.iso_classes(store)
        if fincat.classify(store).is_groupoid:
            eulerchar.groupoid_chi2(store)
        assert not {"morphisms", "composition", "_hom"} & set(vars(store))

    def test_a_witness_on_a_total_makes_no_records(self):
        """``morphism_names`` reads the names on a total's rows: the ``NotScwol``
        witness of a total makes none of its name fields, and is the one
        raised once its records are made."""
        total = hocolim.grothendieck(hocolim.constant_diagram(
            zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))).category
        with pytest.raises(NotScwol) as got:
            eulerchar.chi_scwol(total)
        assert not {"morphisms", "_hom", "_by_source", "identity"} & set(vars(total))
        assert total.morphism_names() == tuple(m.name for m in total.morphisms)
        with pytest.raises(NotScwol) as want:
            eulerchar.chi_scwol(total)
        assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)

    def test_chi2_free_EI_makes_no_names_of_a_store(self):
        """``chi2_free_EI`` reads a loaded skeletal category's rows, and its
        rejections (not free, not EI) find their witnesses on them."""
        free, not_free, not_EI = (loaded(cat, 0) for cat in (
            gamma_one(), gamma_two(), monoid_z2_mult()))
        eulerchar.chi2_free_EI(free)
        for store, message in ((not_free, "not free"), (not_EI, "is not EI")):
            with pytest.raises(eulerchar.HypothesisNotMet, match=message):
                eulerchar.chi2_free_EI(store)
        for store in (free, not_free, not_EI):
            assert not NAME_FIELDS & vars(store).keys()

    def test_rejections_make_no_names_of_a_store(self):
        """Each rejection locator walks the rows and names only its witness:
        ``groupoid_chi2``, the functor check's map and composition walks,
        the twist walk of a complex, the missing-comp walk of a pseudo
        diagram and the ``transport`` command, on stores.  Where a table
        must be read by name to set up the input, it is read off a twin
        store loaded from the same manifest."""
        scwol = loaded(zoo.pushout_scwol(), 1)
        with pytest.raises(NotGroupoid):
            eulerchar.groupoid_chi2(scwol)
        s3 = loaded(zoo.one_object_category(symmetric_group(3)), 2)
        obj_map, mor_map = identity_maps(s3)
        a, b = [m for m in s3.morphism_names() if m != s3.identity["*"]][:2]
        with pytest.raises(NotAFunctor, match="composition"):
            fincat.CatFunctor(s3, s3, obj_map, {**mor_map, a: b, b: a})
        del mor_map[a]
        with pytest.raises(NotAFunctor, match="undefined"):
            fincat.CatFunctor(s3, s3, obj_map, mor_map)

        cplx = constant_complex(loaded(zoo.circle_scwol(), 3), cyclic_group(2))
        base = loaded(zoo.circle_scwol(), 3)
        twists = dict(cplx.twists)
        del twists[next(iter(twists))]
        with pytest.raises(ValidationError, match="no twist"):
            groupact.ComplexOfGroups(base, cplx.local, cplx.homs, twists)

        vertex = monoid_z2_mult()
        p = hocolim.PseudoDiagram.from_strict(hocolim.constant_diagram(
            loaded(zoo.circle_scwol(), 4), vertex))
        index, twin = loaded(zoo.circle_scwol(), 4), loaded(vertex, 5)
        ident = fincat.CatFunctor.identity_functor(twin)
        comp = dict(p.comp)
        del comp[next(iter(comp))]
        with pytest.raises(hocolim.CoherenceFailure, match="no comp"):
            hocolim.PseudoDiagram(index, {i: twin for i in index.objects},
                                  {m: ident for m in index.morphism_names()}, comp, p.unit)

        action = manifest.action_from_payload(
            manifest.serialize("action", randgen.circle_action())["payload"])
        with pytest.raises(manifest.BadManifest):
            cli._transport("action", action, None)
        for cat in (scwol, s3, base, index, twin, action.space):
            assert not NAME_FIELDS & vars(cat).keys()

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(strict_diagrams, pseudo_diagrams), SEEDS)
    def test_totals_and_counts_make_no_names_of_their_stores(self, d, seed):
        """The builder and the hom counts read a diagram over loaded stores
        on its ``hocolim._IndexView``: ``grothendieck`` (or
        ``grothendieck_pseudo``), ``_total_chi_L`` and the diagram's own
        check make no name field of the index or of any vertex."""
        with pytest.MonkeyPatch.context() as mp:
            made = spied_makes(mp)
            d = reloaded_diagram(d, seed)
            stores = {id(d.index), *map(id, d.vertex.values())}
            made.clear()
            if isinstance(d, hocolim.StrictDiagram):
                hocolim.grothendieck(hocolim.StrictDiagram(d.index, d.vertex, d.edge))
            else:
                hocolim.grothendieck_pseudo(hocolim.PseudoDiagram(
                    d.index, d.vertex, d.edge, d.comp, d.unit))
            hocolim._total_chi_L(d)
        assert [attr for cat, attr in made if id(cat) in stores] == []

    @settings(max_examples=30, deadline=None)
    @given(scwols, SEEDS)
    def test_haefliger_makes_no_names_of_a_store(self, cat, seed):
        """``haefliger_chi`` finds each representative on ``_ends``: with a
        value at every object, alike on each class, it makes no name field
        of a loaded scwol."""
        store = loaded(cat, seed)
        roots = fincat._iso_roots(store)
        vals = {x: Fraction(r + 1, 2) for x, r in zip(store.objects, roots)}
        with pytest.MonkeyPatch.context() as mp:
            made = spied_makes(mp)
            groupact.haefliger_chi(store, vals)
        assert [attr for made_on, attr in made if made_on is store] == []

    def test_the_spy_sees_a_name_read(self):
        """Non-vacuity: the old name walk of ``haefliger_chi`` on a store
        with a value off its skeleton makes the store's records."""
        store = loaded(zoo.inflate(zoo.pushout_scwol(), {"k": 2}), 0)
        with pytest.MonkeyPatch.context() as mp:
            made = spied_makes(mp)
            reference_haefliger_chi(store, {x: 1 for x in store.objects})
        assert [attr for cat, attr in made if cat is store]

    def test_audit_actions_make_no_space_names(self):
        """The reduction and chi-theorem reports on an induced free action
        read the rows of its space and of the quotients."""
        action = randgen.induced_free_action(cyclic_group(3), zoo.inflate(zoo.pushout_scwol(),
                                                                          {"k": 2}))
        q = groupact.quotient(action)
        groupact.skeletal_reduction(action)
        groupact.chi_theorems(action)
        assert not {"morphisms", "composition", "_hom"} & vars(action.space).keys()
        groupact.complex_of_groups(action)
        assert "composition" not in vars(q.category)


def spied_makes(mp: pytest.MonkeyPatch) -> list:
    """Record (store, field) for each call of ``fincat.FinCat._make`` while
    ``mp`` is active."""
    made, real = [], fincat.FinCat._make

    def spy(cat, attr):
        made.append((cat, attr))
        return real(cat, attr)

    mp.setattr(fincat.FinCat, "_make", spy)
    return made


def test_a_store_keeps_a_copy_of_nothing():
    """A built store holds its arrays and its object names only."""
    cat = product(zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))
    assert set(vars(cat)) == {"name", "objects", "_ends", "_directly_finite"}
    assert cat.composition is cat.composition
    assert "composition" in vars(cat)
