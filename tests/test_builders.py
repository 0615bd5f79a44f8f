"""Every builder writes the integer store.

The library's builders write the arrays of a ``fincat.FinCat`` through its
one unchecked constructor (``fincat._stored``), reading the rows of their
inputs (``fincat._rows_of``), not their name tables.  Each is compared with
the name-level builder it replaced (``helpers.reference_*``, each built
through the checked ``FinCat`` constructor) on drawn inputs: name, objects,
records, identity map, the composition table in its order, inverses,
direct finiteness and ``_ends`` (``assert_same_build``, which also rebuilds
the store's own tables through the checked constructor).  Inputs include
Grothendieck totals and manifest categories with shuffled entries, so that
a builder keeps its input's entry order whatever its store.
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
    lower_link,
    opposite,
    product,
    skeleton,
)
from eulcat.groups import cyclic_group, symmetric_group

from helpers import (
    assert_lawful,
    constant_complex,
    gamma_one,
    gamma_two,
    identity_maps,
    load_workloads,
    loaded,
    monoid_z2_mult,
    reference_connected_groupoid,
    reference_disjoint_union,
    reference_full_subcategory,
    reference_haefliger_chi,
    reference_hocolim_groups,
    reference_induced_space,
    reference_iso_classes,
    reference_lower_link,
    reference_one_object_category,
    reference_opposite,
    reference_product,
    reference_quotient,
    reference_random_groupoid,
    reference_retract,
    reference_transport_groupoid,
    reloaded_diagram,
    split_idempotent,
    stored_connected_groupoid,
    stored_ends,
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


def assert_same_build(got: FinCat, want: FinCat) -> None:
    """``got``, a store a builder wrote, holds what the name-level reference
    ``want`` (checked by the constructor) holds: name, objects, records,
    identity map, the table in its order, inverses, direct finiteness and
    ``_ends``; and its own tables pass the checked constructor."""
    assert got.name == want.name
    assert got.objects == want.objects
    assert got.morphisms == want.morphisms
    assert dict(got.identity) == dict(want.identity)
    assert list(got.composition.items()) == list(want.composition.items())
    assert list(got._invertible.items()) == list(want._invertible.items())
    assert got._directly_finite == want._directly_finite
    assert stored_ends(got) == stored_ends(want)
    assert_lawful(got)


drawn = st.one_of(scwols, posets, groupoids.map(lambda g: g.category),
                  strict_diagrams.map(lambda d: hocolim.grothendieck(d).category),
                  st.just(split_idempotent()))
# each drawn category as it was built, and loaded with its entries shuffled
inputs = st.one_of(drawn, st.builds(loaded, drawn, SEEDS))
small = st.one_of(posets, st.sampled_from([zoo.pushout_scwol(), monoid_z2_mult(),
                                           split_idempotent(), zoo.discrete_category([])]))


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

    @settings(max_examples=40, deadline=None)
    @given(inputs)
    def test_opposite(self, cat):
        assert_same_build(opposite(cat), reference_opposite(cat))

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(small, st.builds(loaded, small, SEEDS)), small)
    def test_product(self, a, b):
        assert_same_build(product(a, b), reference_product(a, b))
        assert_same_build(product(b, a), reference_product(b, a))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(scwols, posets).flatmap(
        lambda c: st.one_of(st.just(c), st.builds(loaded, st.just(c), SEEDS))))
    def test_lower_link(self, cat):
        for x in cat.objects:
            assert_same_build(lower_link(cat, x), reference_lower_link(cat, x))

    @settings(max_examples=30, deadline=None)
    @given(actions)
    def test_quotient_and_hocolim_groups(self, action):
        q = groupact.quotient(action)
        assert_same_build(q.category, reference_quotient(action))
        cplx = groupact.complex_of_groups(action).complex
        assert_same_build(groupact.hocolim_groups(cplx), reference_hocolim_groups(cplx))

    @settings(max_examples=30, deadline=None)
    @given(groups, SEEDS)
    def test_transport_and_one_object(self, group, seed):
        elements, act = randgen.random_gset(Random(seed), group)
        assert_same_build(groupact.transport_groupoid(group, elements, act),
                          reference_transport_groupoid(group, elements, act))
        assert_same_build(zoo.one_object_category(group), reference_one_object_category(group))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(groups, st.integers(1, 3)), min_size=1, max_size=3))
    def test_groupoids_and_their_union(self, parts):
        parts = [(g, n, f"c{k}") for k, (g, n) in enumerate(parts)]
        want = [reference_connected_groupoid(*part) for part in parts]
        built = [randgen.connected_groupoid(*part) for part in parts]
        for (cat, _), ref in zip(built, want):
            assert_same_build(cat, ref)
        union = randgen.groupoid_union(parts)
        assert_same_build(union.category, reference_disjoint_union(want))
        assert union.components == tuple(comp for _, comp in built)

    @settings(max_examples=30, deadline=None)
    @given(groups, st.one_of(scwols, posets))
    def test_induced_action_space(self, group, base):
        space = randgen.induced_free_action(group, base).space
        assert_same_build(space, reference_induced_space(group, base))


def assert_same_draw(got: randgen.Groupoid, want: randgen.Groupoid) -> None:
    """``assert_same_build`` on the categories, and the same components and
    entry order (``_Rows.order``)."""
    assert_same_build(got.category, want.category)
    assert got.components == want.components
    assert got.category._ends.order == want.category._ends.order


class TestOneStorePerGroupoid:
    """``random_groupoid`` writes its components in one store, and draws
    what the route of a store per component and a copied union drew."""

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.integers(1, 5), st.integers(1, 6), st.sampled_from(["c", "cv", "v0", "t1"]))
    def test_same_draw_as_the_two_store_route(self, seed, max_objects, max_group_order, tag):
        got_rng, want_rng = Random(seed), Random(seed)
        assert_same_draw(randgen.random_groupoid(got_rng, max_objects, max_group_order, tag),
                         reference_random_groupoid(want_rng, max_objects, max_group_order, tag))
        assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 1009])
    def test_audit_vertices(self, seed, monkeypatch):
        """Every vertex of the ``audit`` set-up's diagrams, drawn both ways."""
        workloads = load_workloads()
        got = workloads.audit_instances(seed, 40)[0]
        monkeypatch.setattr(randgen, "random_groupoid", reference_random_groupoid)
        want = workloads.audit_instances(seed, 40)[0]
        assert len(got) == len(want)
        groupoid_vertices = 0
        for d, e in zip(got, want):
            assert d.index.name == e.index.name and d.index.objects == e.index.objects
            for x in d.index.objects:
                assert_same_build(d.vertex[x], e.vertex[x])
                assert d.vertex[x]._ends.order == e.vertex[x]._ends.order
                groupoid_vertices += d.vertex[x].name.startswith("gpd(")
        assert groupoid_vertices > 50

    def test_a_swapped_loop_is_caught(self):
        """Non-vacuity: the entries written with the k and g loops swapped
        (order i, j, g, k, h) fill the same table in another order, and
        fail the comparison."""
        group, n, prefix = cyclic_group(3), 2, "c0"
        cat = randgen.connected_groupoid(group, n, prefix)[0]
        r, m = cat._ends, group.order
        entries = [(jk + h, ij + g, r.rows[ij + g][jk + h])
                   for i in range(n) for j in range(n) for g in range(m) for k in range(n)
                   for ij, jk in [((i * n + j) * m, (j * n + k) * m)] for h in range(m)]
        swapped = fincat._stored(cat.name, cat.objects, r.names, r.src, r.tgt, r.ident,
                                 entries, (r.inv, True))
        want = stored_connected_groupoid(group, n, prefix)[0]
        assert dict(swapped.composition) == dict(want.composition)
        assert list(swapped.composition) != list(want.composition)
        with pytest.raises(AssertionError):
            assert_same_build(swapped, want)


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
        name-level builder rejected them: same class, message and witness."""
        a = zoo.build_category(("x", "x,y"), (), name="A")
        b = zoo.build_category(("y,z", "z"), (), name="B")
        with pytest.raises(DanglingReference) as want:
            reference_product(a, b)
        with pytest.raises(DanglingReference) as got:
            product(a, b)
        assert str(got.value) == str(want.value)
        assert got.value.witness == want.value.witness


class TestNonVacuity:
    def test_one_swapped_cell_is_caught(self):
        """A store whose rows have two cells of one row swapped fails the
        comparison with its reference."""
        cat = product(zoo.parallel_pair_scwol(), split_idempotent())
        rows = cat._ends.rows
        f, (g1, g2) = next((f, pair) for f, row in enumerate(rows)
                           for pair in itertools.combinations(row, 2)
                           if row[pair[0]] != row[pair[1]])
        rows[f][g1], rows[f][g2] = rows[f][g2], rows[f][g1]
        with pytest.raises(AssertionError):
            assert_same_build(cat, reference_product(zoo.parallel_pair_scwol(), split_idempotent()))


# the name fields a store makes on their first read, but its identity map
NAME_FIELDS = {"morphisms", "composition", "_mor", "_hom", "_by_source", "_invertible"}


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
        assert not {"morphisms", "composition", "_hom", "_mor"} & set(vars(store))

    def test_a_witness_on_a_total_makes_no_records(self):
        """``_Total.morphism_names`` reads the plan: the ``NotScwol``
        witness of a total makes none of its name fields, and is the one
        raised once its records are made."""
        total = hocolim.grothendieck(hocolim.constant_diagram(
            zoo.pushout_scwol(), zoo.one_object_category(cyclic_group(2)))).category
        with pytest.raises(NotScwol) as got:
            eulerchar.chi_scwol(total)
        assert not {"morphisms", "_mor", "_hom", "_by_source", "identity"} & set(vars(total))
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
