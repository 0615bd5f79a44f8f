"""Differential tests for the one Grothendieck builder.

``grothendieck`` and ``grothendieck_pseudo`` share one builder that looks up
the coherence inverses on the diagram.  The two separate builders it
replaced are kept here, and only here, as references.  On strict diagrams,
on their pseudo views and on pseudo diagrams of complexes of groups, the
library and the reference must give the same presentation, the same
composition table in the same insertion order, the same inverses and
predicates, and the same structure maps.

The builder writes the total as integer arrays and makes its names and
its composition table on first read.  Over a directly finite index it reads
the total's inverse data off the diagram, and over any other index it
searches the composition rows, made at once; the oracle for that data is
the same table checked and searched by the FinCat constructor.
"""

from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import contextlib
import io

from eulcat import cli, fincat, hocolim, manifest, randgen
from eulcat.errors import ValidationError
from eulcat.fincat import CatFunctor, FinCat, Morphism, classify
from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram
from eulcat.groups import cyclic_group
from eulcat.ratlin import NoEulerCharacteristic, chi_L
from eulcat.hocolim import (
    CoherenceFailure,
    PseudoDiagram,
    StrictDiagram,
    _Numbering,
    _total_chi_L,
    check_hocolim_formula,
    chi2_of,
    constant_diagram,
    set_diagram,
    _pair_obj,
    _triple_mor,
    grothendieck,
    grothendieck_pseudo,
)

from eulcat import zoo
from eulcat.zoo import discrete_category, one_object_category, pushout_scwol, terminal_category

from helpers import assert_same_table, split_idempotent
from strategies import TWISTED_ACTION_SEEDS, actions, strict_diagrams


def reference_grothendieck(d: StrictDiagram) -> SimpleNamespace:
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

    cat = FinCat(tuple(objs), tuple(mors), ident, comp, name=f"hocolim({idx.name})")

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
            tw_inv = ck.inverse(d.comp[(v, u)][c])
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


def assert_same_total(got: FinCat, want: FinCat) -> None:
    """The array-built total ``got`` against ``want``, built by names: the
    presentation, identity and composition in the same order
    (``assert_same_table``), the inverse of each invertible morphism in the
    same order, direct finiteness, and every predicate."""
    report = classify(got)  # off the arrays, before any name is made
    assert_same_table(got, want)
    assert list(got._invertible.items()) == list(want._invertible.items())
    assert got._directly_finite == want._directly_finite
    assert report == classify(want)


class TestOneBuilder:
    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_strict_matches_reference(self, d):
        got, want = grothendieck(d), reference_grothendieck(d)
        assert_same_total(got.category, want.category)
        assert_same_alphas(got.alphas, want.alphas)

    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_pseudo_view_of_strict_matches_both_references(self, d):
        got = grothendieck_pseudo(PseudoDiagram.from_strict(d))
        assert_same_total(got, reference_grothendieck_pseudo(PseudoDiagram.from_strict(d)))
        # identity coherences: the pseudo route builds the strict table
        assert_same_total(got, reference_grothendieck(d).category)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_complex_of_groups_matches_reference(self, action):
        d = complex_to_pseudo_diagram(complex_of_groups(action).complex)
        assert_same_total(grothendieck_pseudo(d), reference_grothendieck_pseudo(d))

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
        assert_same_total(got, reference_grothendieck_pseudo(d))
        assert got.identity["(i,*)"] == f"({idx_id},2)@*"

    @pytest.mark.parametrize("seed", TWISTED_ACTION_SEEDS)
    def test_twisted_complex_of_groups(self, seed):
        d = complex_to_pseudo_diagram(complex_of_groups(randgen.random_action(Random(seed))).complex)
        assert_same_total(grothendieck_pseudo(d), reference_grothendieck_pseudo(d))

    @pytest.mark.parametrize("unit", ["1", "2"])
    def test_twisted_over_an_invertible_index_arrow(self, unit):
        d = twisted_over_z2(unit)
        assert_same_total(grothendieck_pseudo(d), reference_grothendieck_pseudo(d))

    def test_strict_over_an_invertible_index_arrow(self):
        """B(Z/2) acting on the groupoid with two isomorphic objects by the
        swap: the index arrow is its own inverse but not an identity, so
        the inverses are read off the edge functor."""
        vertex = zoo.inflate(terminal_category(), {"*": 2})
        swap = dict(zip(vertex.objects, reversed(vertex.objects)))
        # the vertex is thin: each arrow goes to the one arrow between the swapped ends
        image = {m.name: vertex.hom(swap[m.source], swap[m.target])[0] for m in vertex.morphisms}
        index = one_object_category(cyclic_group(2), obj="i")
        e = index.identity["i"]
        d = StrictDiagram(index, {"i": vertex}, {e: CatFunctor.identity_functor(vertex),
                                                 "1": CatFunctor(vertex, vertex, swap, image)})
        got, want = grothendieck(d), reference_grothendieck(d)
        assert_same_total(got.category, want.category)
        assert len(got.category._invertible) == len(got.category.morphisms)

    @pytest.mark.parametrize("vertex", [
        terminal_category(),
        one_object_category(cyclic_group(3)),
        split_idempotent(),
        discrete_category([]),
    ], ids=["terminal", "Z3", "split", "empty"])
    def test_index_not_directly_finite(self, vertex):
        d = constant_strict(split_idempotent(), vertex)
        got, want = grothendieck(d), reference_grothendieck(d)
        assert_same_total(got.category, want.category)
        assert_same_alphas(got.alphas, want.alphas)


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
                     name=total.name)
    assert list(total._invertible.items()) == list(checked._invertible.items())
    assert total._directly_finite == checked._directly_finite


def assert_lifted_inverses(total: FinCat) -> None:
    """``total`` was built with no composite made, and the inverse data it
    holds is that of its table."""
    assert "rows" not in vars(total._ends) and "composition" not in vars(total)
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
        directly finite: the composition rows are made at once, searched and
        kept, and the name table is still made on first read."""
        total = grothendieck(constant_strict(split_idempotent(), vertex)).category
        assert "rows" in vars(total._ends) and "composition" not in vars(total)
        assert_inverse_data_of_table(total)
        assert total._directly_finite == (not total.objects)


# the fields of a total made on first read
NAME_FIELDS = {"objects", "morphisms", "identity", "composition", "_hom", "_by_source",
               "_invertible"}


def counting_name_builds(mp: pytest.MonkeyPatch) -> dict[str, int]:
    """Count the calls that make a total's morphism names, lookup tables and
    composites."""
    counts = {"morphism_names": 0, "_headers": 0, "composites": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        mp.setattr(owner, name, wrapper)

    counted(_Numbering, "morphism_names")
    counted(_Numbering, "composites")
    counted(fincat, "_headers")
    return counts


class TestTableOnFirstRead:
    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams)
    def test_built_once_on_first_read(self, d):
        total = grothendieck(d).category
        classify(total)
        assert not NAME_FIELDS & vars(total).keys()
        with pytest.MonkeyPatch.context() as mp:
            counts = counting_name_builds(mp)
            first = total.composition
            assert counts == {"morphism_names": 1, "_headers": 0, "composites": 1}
            total.morphisms, total.identity, total._invertible
            assert NAME_FIELDS <= vars(total).keys()
            assert total.composition is first and total.morphisms is total.morphisms
            assert counts == {"morphism_names": 1, "_headers": 1, "composites": 1}
        assert_same_table(total, reference_grothendieck(d).category)

    def test_audit_instances_leave_the_table_unbuilt(self):
        rng = Random(0)
        for _ in range(40):
            total = grothendieck(randgen.random_strict_diagram(rng)).category
            classify(total)
            assert "composition" not in vars(total)

    def test_audit_instances_make_no_names(self):
        """``classify`` on the totals of 40 audit instances makes no object
        name, no morphism record, no lookup table and no composite; a first
        read of the records makes them and the lookup tables once, and the
        table once more."""
        rng = Random(0)
        with pytest.MonkeyPatch.context() as mp:
            counts = counting_name_builds(mp)
            for _ in range(40):
                total = grothendieck(randgen.random_strict_diagram(rng)).category
                classify(total)
                assert not NAME_FIELDS & vars(total).keys()
            assert counts == {"morphism_names": 0, "_headers": 0, "composites": 0}
            records = total.morphisms
            assert {"objects", "morphisms", "_hom", "_by_source"} == \
                vars(total).keys() & NAME_FIELDS
            assert total._hom and total.identity and total.morphisms is records
            assert counts == {"morphism_names": 1, "_headers": 1, "composites": 0}
            total.composition
            assert counts == {"morphism_names": 1, "_headers": 1, "composites": 1}

    def test_object_names_alone(self):
        """Reading the objects names them and nothing else."""
        total = grothendieck(randgen.random_strict_diagram(Random(3))).category
        assert len(total) == len(total.objects)
        assert vars(total).keys() & NAME_FIELDS == {"objects"}


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoEulerCharacteristic as exc:
        return type(exc), exc.witness


def captured_totals(mp: pytest.MonkeyPatch) -> list:
    """The totals ``hocolim._grothendieck`` builds while ``mp`` is active."""
    totals = []
    real = hocolim._grothendieck
    mp.setattr(hocolim, "_grothendieck", lambda d: totals.append(real(d)) or totals[-1])
    return totals


# a groupoid total, a skeletal scwol total, and one that is neither
COUNTED_DIAGRAMS = {
    "groupoid": lambda: constant_diagram(discrete_category("ab"),
                                         one_object_category(cyclic_group(3))),
    "scwol": lambda: set_diagram(pushout_scwol(), {"j": ["y", "z"], "k": ["s"], "l": ["s2"]},
                                 {"g": {"y": "s", "z": "s"}, "h": {"y": "s2", "z": "s2"}}),
    "EI": lambda: constant_diagram(pushout_scwol(), one_object_category(cyclic_group(2))),
}


class TestCountsOffTheArrays:
    """chi_L of a total, and chi2 of a groupoid or skeletal-scwol total, read
    its arrays (``_count_rows``, ``_iso_roots`` and the predicates) and make
    no name."""

    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_chi_L_and_chi2_make_no_names(self, d):
        total = grothendieck(d).category
        report = classify(total)
        lhs = outcome(chi_L, total)
        counted = report.is_groupoid or (report.is_scwol and report.is_skeletal)
        chi2 = chi2_of(total) if counted else None
        assert not NAME_FIELDS & vars(total).keys()
        assert lhs == outcome(_total_chi_L, d)
        assert lhs == outcome(chi_L, reference_grothendieck(d).category)
        if counted:
            assert chi2 == chi2_of(reference_grothendieck(d).category)

    @pytest.mark.parametrize("kind", list(COUNTED_DIAGRAMS))
    def test_check_formula_chi2(self, kind):
        """``check_hocolim_formula(d, "chi2")`` builds the total and takes
        chi2 of it: off the arrays for a groupoid or a skeletal scwol; the
        free-EI route reads the total's rows (``_ends``, made on first read),
        whose object index is made only if read, so no route makes a name
        field."""
        d = COUNTED_DIAGRAMS[kind]()
        with pytest.MonkeyPatch.context() as mp:
            totals = captured_totals(mp)
            report = check_hocolim_formula(d, "chi2")
        assert report.equal and len(totals) == 1
        made = NAME_FIELDS & vars(totals[0]).keys()
        assert made == set()

    @pytest.mark.parametrize("kind", list(COUNTED_DIAGRAMS))
    def test_cli_hocolim_names_only_for_json(self, kind, tmp_path):
        """``eulcat hocolim`` counts and takes chi_L off the total's arrays;
        only ``--json``, which prints the category, names its objects, and
        it writes the morphisms from the arrays."""
        path = tmp_path / "d.json"
        manifest.dump_file(str(path), "diagram", COUNTED_DIAGRAMS[kind]())
        for flags, named in (([], set()), (["--json"], {"objects"})):
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
                totals = captured_totals(mp)
                assert cli.main([*flags, "hocolim", str(path)]) == 0
            assert vars(totals[0]).keys() & NAME_FIELDS == named
