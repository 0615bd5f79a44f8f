"""Differential tests for the one Grothendieck builder.

``grothendieck`` and ``grothendieck_pseudo`` share one builder that looks up
the coherence inverses on the diagram.  The two separate builders it
replaced are kept here, and only here, as references.  On strict diagrams,
on their pseudo views and on pseudo diagrams of complexes of groups, the
library and the reference must give the same presentation, the same
composition table in the same insertion order and the same structure maps.

Over a directly finite index the builder reads the total's inverse data off
the diagram and builds its composition table on first read; the oracle for
that data is the same table checked and searched by the FinCat constructor.
"""

from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from eulcat import randgen
from eulcat.errors import ValidationError
from eulcat.fincat import CatFunctor, FinCat, Morphism, classify
from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram
from eulcat.groups import cyclic_group
from eulcat.hocolim import (
    CoherenceFailure,
    PseudoDiagram,
    StrictDiagram,
    _pair_obj,
    _triple_mor,
    grothendieck,
    grothendieck_pseudo,
)

from eulcat.zoo import discrete_category, one_object_category, pushout_scwol, terminal_category

from helpers import assert_same_table, split_idempotent
from strategies import TWISTED_ACTION_SEEDS, actions, strict_diagrams


def reference_grothendieck(d: StrictDiagram, verify: bool = False) -> SimpleNamespace:
    idx = d.index
    objs = []
    vertex_of: dict[str, tuple[str, str]] = {}
    for i in idx.objects:
        for c in d.vertex[i].objects:
            name = _pair_obj(i, c)
            objs.append(name)
            vertex_of[name] = (i, c)

    mors = []
    data: dict[str, tuple[str, str, str]] = {}  # name -> (u, f, c)
    ident = {}
    for i in idx.objects:
        ci = d.vertex[i]
        for c in ci.objects:
            for u in idx.morphisms_from(i):
                j = idx.target(u)
                cj = d.vertex[j]
                uc = d.edge[u].obj_map[c]
                for dd in cj.objects:
                    for f in cj.hom(uc, dd):
                        name = _triple_mor(u, f, c)
                        mors.append(Morphism(name, _pair_obj(i, c), _pair_obj(j, dd)))
                        data[name] = (u, f, c)
                        if u == idx.identity[i] and f == ci.identity[c]:
                            ident[_pair_obj(i, c)] = name

    comp = {}
    by_source: dict[str, list[str]] = {o: [] for o in objs}
    for m in mors:
        by_source[m.source].append(m.name)
    target_of = {m.name: m.target for m in mors}
    for m in mors:
        u, f, c = data[m.name]
        j = idx.target(u)
        for m2 in by_source[target_of[m.name]]:
            v, g, _ = data[m2]
            k = idx.target(v)
            vu = idx.compose(v, u)
            gf = d.vertex[k].compose(g, d.edge[v].mor_map[f])
            comp[(m2, m.name)] = _triple_mor(vu, gf, c)

    cat = FinCat(
        tuple(objs), tuple(mors), ident, comp, name=f"hocolim({idx.name})", check=verify
    )

    alphas = {}
    for i in idx.objects:
        ci = d.vertex[i]
        alphas[i] = CatFunctor(
            ci,
            cat,
            {c: _pair_obj(i, c) for c in ci.objects},
            {
                m.name: _triple_mor(idx.identity[i], m.name, m.source)
                for m in ci.morphisms
            },
        )
    return SimpleNamespace(category=cat, alphas=alphas)


def reference_grothendieck_pseudo(d: PseudoDiagram) -> FinCat:
    idx = d.index
    objs = []
    for i in idx.objects:
        for c in d.vertex[i].objects:
            objs.append(_pair_obj(i, c))

    mors = []
    data: dict[str, tuple[str, str, str]] = {}
    ident = {}
    for i in idx.objects:
        ci = d.vertex[i]
        for c in ci.objects:
            for u in idx.morphisms_from(i):
                j = idx.target(u)
                cj = d.vertex[j]
                uc = d.edge[u].obj_map[c]
                for dd in cj.objects:
                    for f in cj.hom(uc, dd):
                        name = _triple_mor(u, f, c)
                        mors.append(Morphism(name, _pair_obj(i, c), _pair_obj(j, dd)))
                        data[name] = (u, f, c)
            unit_inv = ci.inverse(d.unit[i][c])
            ident[_pair_obj(i, c)] = _triple_mor(idx.identity[i], unit_inv, c)

    comp = {}
    by_source: dict[str, list[str]] = {o: [] for o in objs}
    for m in mors:
        by_source[m.source].append(m.name)
    target_of = {m.name: m.target for m in mors}
    for m in mors:
        u, f, c = data[m.name]
        for m2 in by_source[target_of[m.name]]:
            v, g, _ = data[m2]
            k = idx.target(v)
            ck = d.vertex[k]
            vu = idx.compose(v, u)
            tw_inv = ck.inverse(d.comp_component(v, u, c))
            gf = ck.compose(g, ck.compose(d.edge[v].mor_map[f], tw_inv))
            comp[(m2, m.name)] = _triple_mor(vu, gf, c)

    try:
        return FinCat(tuple(objs), tuple(mors), ident, comp, name=f"hocolim({idx.name})")
    except ValidationError as exc:
        raise CoherenceFailure(f"pseudo homotopy colimit is not a category: {exc}") from exc


def assert_same_alphas(got, want) -> None:
    assert list(got) == list(want)
    for i in want:
        assert dict(got[i].obj_map) == dict(want[i].obj_map)
        assert dict(got[i].mor_map) == dict(want[i].mor_map)


class TestOneBuilder:
    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_strict_matches_reference(self, d):
        got, want = grothendieck(d), reference_grothendieck(d)
        assert_same_table(got.category, want.category)
        assert_same_alphas(got.alphas, want.alphas)

    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_pseudo_view_of_strict_matches_both_references(self, d):
        got = grothendieck_pseudo(PseudoDiagram.from_strict(d))
        assert_same_table(got, reference_grothendieck_pseudo(PseudoDiagram.from_strict(d)))
        # identity coherences: the pseudo route builds the strict table
        assert_same_table(got, reference_grothendieck(d).category)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_complex_of_groups_matches_reference(self, action):
        d = complex_to_pseudo_diagram(complex_of_groups(action).complex)
        assert_same_table(grothendieck_pseudo(d), reference_grothendieck_pseudo(d))

    def test_coherences_that_are_not_involutions(self):
        # B(Z/3) over the terminal category with unit 1 and comp 2: the unit
        # axioms force comp = -unit, and neither is its own inverse, so a
        # component used in place of its inverse changes the table
        index, vertex = terminal_category("i"), one_object_category(cyclic_group(3))
        ident = CatFunctor.identity_functor(vertex)
        idx_id = index.identity["i"]
        d = PseudoDiagram(
            index,
            {"i": vertex},
            {idx_id: ident},
            {(idx_id, idx_id): {"*": "2"}},
            {"i": {"*": "1"}},
        )
        got = grothendieck_pseudo(d)
        assert_same_table(got, reference_grothendieck_pseudo(d))
        assert got.identity["(i,*)"] == f"({idx_id},2)@*"


class TestAlphasOnRequest:
    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_built_and_validated_on_each_access(self, d):
        """Neither ``grothendieck`` nor a read of ``alphas`` validates a
        functor; each read builds the inclusions anew, and nothing is cached."""
        built = []
        real = CatFunctor.__post_init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CatFunctor, "__post_init__", lambda self: built.append(self) or real(self))
            res = grothendieck(d)
            assert built == []
            first = res.alphas
            assert len(built) == 0
            second = res.alphas
            assert len(built) == 0
        assert all(first[i] is not second[i] for i in d.index.objects)
        assert_same_alphas(first, reference_grothendieck(d).alphas)


def assert_inverse_data_of_table(total: FinCat) -> None:
    """The inverse data of ``total`` equals that of its own table, checked
    and searched by the FinCat constructor."""
    checked = FinCat(total.objects, total.morphisms, dict(total.identity), total.composition,
                     name=total.name, check=True)
    assert list(total._invertible.items()) == list(checked._invertible.items())
    assert total._directly_finite == checked._directly_finite


def assert_lifted_inverses(total: FinCat) -> None:
    """``total`` was built with no table, and the inverse data handed to it
    is that of its table."""
    assert "_build_composition" in vars(total)
    assert_inverse_data_of_table(total)


def twisted_over_z2(unit: str) -> PseudoDiagram:
    """B(Z/3) over B(Z/2), the generator acting by negation, with unit
    component ``unit`` and comp components forced by the unit axioms; a
    twisted pseudo diagram whose index has an invertible non-identity arrow.
    The associativity axiom holds for the comp value ``unit`` at (s, s)."""
    index = one_object_category(cyclic_group(2), obj="i")
    vertex = one_object_category(cyclic_group(3))
    neg = CatFunctor(vertex, vertex, {"*": "*"}, {"0": "0", "1": "2", "2": "1"})
    e, s = index.identity["i"], "1"
    minus = str(-int(unit) % 3)
    comp = {(e, e): {"*": minus}, (s, e): {"*": unit}, (e, s): {"*": minus}, (s, s): {"*": unit}}
    return PseudoDiagram(index, {"i": vertex}, {e: CatFunctor.identity_functor(vertex), s: neg},
                         comp, {"i": {"*": unit}})


def constant_strict(index: FinCat, vertex: FinCat) -> StrictDiagram:
    """``vertex`` at every object of ``index`` and identity edges, checked
    by the StrictDiagram constructor."""
    ident = CatFunctor.identity_functor(vertex)
    return StrictDiagram(index, {x: vertex for x in index.objects},
                         {m: ident for m in index.morphism_names()})


class TestLiftedInverses:
    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_strict(self, d):
        assert_lifted_inverses(grothendieck(d).category)

    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_pseudo_view_of_strict(self, d):
        assert_lifted_inverses(grothendieck_pseudo(PseudoDiagram.from_strict(d)))

    @settings(max_examples=30, deadline=None)
    @given(actions)
    def test_complex_of_groups(self, action):
        d = complex_to_pseudo_diagram(complex_of_groups(action).complex)
        assert_lifted_inverses(grothendieck_pseudo(d))

    @pytest.mark.parametrize("seed", TWISTED_ACTION_SEEDS)
    def test_twisted_complex_of_groups(self, seed):
        action = randgen.random_action(Random(seed))
        d = complex_to_pseudo_diagram(complex_of_groups(action).complex)
        assert_lifted_inverses(grothendieck_pseudo(d))

    @pytest.mark.parametrize("unit", ["1", "2"])
    def test_twisted_over_an_invertible_index_arrow(self, unit):
        total = grothendieck_pseudo(twisted_over_z2(unit))
        assert_lifted_inverses(total)
        # the coherence factors move the inverse of (id, 1) off (id, 2)
        assert total.inverse("(0,1)@*") != "(0,2)@*"

    @pytest.mark.parametrize("vertex", [split_idempotent(), one_object_category(cyclic_group(2))],
                             ids=["split", "Z2"])
    def test_vertex_decides_direct_finiteness(self, vertex):
        """Over a scwol index the total is directly finite exactly when every
        vertex is: the split idempotent makes it not so."""
        total = grothendieck(constant_strict(pushout_scwol(), vertex)).category
        assert_lifted_inverses(total)
        assert total._directly_finite == vertex._directly_finite

    @pytest.mark.parametrize("vertex", [
        terminal_category(),
        one_object_category(cyclic_group(3)),
        split_idempotent(),
        # a functor into an empty category has an empty source, so an empty
        # vertex at y, where r o s = id_y, makes the vertex at x empty too
        discrete_category([]),
    ], ids=["terminal", "Z3", "split", "empty"])
    def test_index_not_directly_finite_searches_the_table(self, vertex):
        """The split-idempotent index (r o s = id_y, s o r = e != id_x) is not
        directly finite: the table is built at once and searched."""
        total = grothendieck(constant_strict(split_idempotent(), vertex)).category
        assert "composition" in vars(total) and "_build_composition" not in vars(total)
        assert_inverse_data_of_table(total)
        assert total._directly_finite == (not total.objects)


class TestTableOnFirstRead:
    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_built_once_on_first_read(self, d):
        total = grothendieck(d).category
        classify(total)
        assert "composition" not in vars(total)
        builds = []
        build = vars(total)["_build_composition"]
        vars(total)["_build_composition"] = lambda: builds.append(1) or build()
        first = total.composition
        assert builds == [1]
        assert "_build_composition" not in vars(total)
        assert total.composition is first and builds == [1]
        assert_same_table(total, reference_grothendieck(d).category)

    def test_audit_instances_leave_the_table_unbuilt(self):
        rng = Random(0)
        for _ in range(40):
            total = grothendieck(randgen.random_strict_diagram(rng)).category
            classify(total)
            assert "composition" not in vars(total)
