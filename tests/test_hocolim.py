import json
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulcat import fincat, hocolim, manifest, randgen, ratlin, zoo
from eulcat.eulerchar import chi_scwol
from eulcat.errors import EulcatError, ValidationError
from eulcat.fincat import (
    CatFunctor,
    NotNatural,
    NotScwol,
    classify,
    product,
    skeleton,
)
from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram
from eulcat.groups import cyclic_group
from eulcat.hocolim import (
    CellSpectrum,
    CoherenceFailure,
    ForeignSpectrum,
    FormulaReport,
    MissingValue,
    PseudoDiagram,
    StrictDiagram,
    UnknownKind,
    bar_spectrum,
    builtin_spectrum,
    check_hocolim_formula,
    constant_diagram,
    formula_value,
    grothendieck,
    grothendieck_pseudo,
    set_diagram,
)
from eulcat.ratlin import NoEulerCharacteristic, NoWeighting, chi_L, weighting

from helpers import (
    are_isomorphic,
    assert_lawful,
    corrupt_component,
    count_calls,
    equal_presentation,
    monoid_z2_mult,
    nat_iso_checks,
    reference_check_associativity_axiom,
    reference_check_unit_axioms,
    reference_composite_maps,
    split_idempotent,
    table_key,
    trivial_diagram,
    unvalidated,
    z2_chain_complex_data,
)
from strategies import (
    SEEDS,
    groupoids,
    pseudo_diagrams,
    scwols,
    small_rationals,
    strict_diagrams,
)


def intro_pushout_diagram():
    return set_diagram(
        zoo.pushout_scwol(),
        {"j": ["y", "z"], "k": ["s"], "l": ["s2"]},
        {"g": {"y": "s", "z": "s"}, "h": {"y": "s2", "z": "s2"}},
    )


class TestGrothendieck:
    def test_constant_diagram_is_product(self):
        index = zoo.pushout_scwol()
        value = zoo.one_object_category(cyclic_group(2))
        total = assert_lawful(grothendieck(constant_diagram(index, value)).category)
        assert are_isomorphic(total, product(index, value))

    def test_intro_pushout(self):
        total = assert_lawful(grothendieck(intro_pushout_diagram()).category)
        assert len(total.objects) == 4
        assert sum(1 for m in total.morphisms if not total.is_identity(m.name)) == 4
        assert chi_scwol(total) == 0
        # no non-identity isomorphisms: the category is its own skeleton
        assert len(skeleton(total).category.objects) == 4

    def test_trivial_diagram_recovers_index(self):
        index = zoo.subsets_poset_opposite(1)
        total = assert_lawful(grothendieck(trivial_diagram(index)).category)
        assert are_isomorphic(total, index)

    def test_alphas_are_functors_into_the_total_category(self):
        d = intro_pushout_diagram()
        res = grothendieck(d)
        assert_lawful(res.category)
        for i, alpha in res.alphas.items():
            assert alpha.source is d.vertex[i]
            assert alpha.target is res.category


class TestGrothendieckPseudo:
    def test_strict_viewed_as_pseudo_is_identical(self):
        d = intro_pushout_diagram()
        strict = assert_lawful(grothendieck(d).category)
        pseudo = grothendieck_pseudo(PseudoDiagram.from_strict(d))
        assert equal_presentation(strict, pseudo)

    def test_circle_complex_pseudo_colimit(self):
        from eulcat.groupact import complex_of_groups, complex_to_pseudo_diagram

        built = complex_of_groups(randgen.circle_action())
        total = grothendieck_pseudo(complex_to_pseudo_diagram(built.complex))
        report = classify(total)
        assert report.is_EI and report.is_skeletal
        orders = sorted(len(total.hom(x, x)) for x in total.objects)
        assert orders == [1, 2, 2]
        by_obj = {x: x for x in total.objects}
        src = next(x for x in total.objects if len(total.hom(x, x)) == 1)
        for tgt in total.objects:
            if tgt != src:
                assert len(total.hom(src, tgt)) == 2

    def test_corrupted_twist_raises_coherence_failure(self):
        from eulcat.groupact import ComplexOfGroups, complex_to_pseudo_diagram

        # a single corrupted twist breaks the cocycle on the triple
        good = ComplexOfGroups(*z2_chain_complex_data(corrupt=False))
        diagram = complex_to_pseudo_diagram(good)

        corrupted = dict(diagram.comp)
        corrupted[("b", "a")] = {"*": "1"}
        with pytest.raises(CoherenceFailure):
            PseudoDiagram(
                diagram.index, diagram.vertex, diagram.edge, corrupted, diagram.unit
            )


# -- diagram validation: the functor-level route as a reference ----------------------


def same_maps(a, b) -> bool:
    return (dict(a.obj_map), dict(a.mor_map)) == (dict(b.obj_map), dict(b.mor_map))


def composed_by_name(first, second) -> SimpleNamespace:
    """``helpers.reference_composite_maps`` as a value with two maps."""
    obj_map, mor_map = reference_composite_maps(first, second)
    return SimpleNamespace(obj_map=obj_map, mor_map=mor_map)


def reference_strict_checks(index, vertex, edge):
    """StrictDiagram's checks through validated identity functors and
    composites by name."""
    hocolim._check_vertices_and_edges(SimpleNamespace(index=index, vertex=vertex, edge=edge))
    for i in index.objects:
        if not same_maps(edge[index.identity[i]], CatFunctor.identity_functor(vertex[i])):
            raise ValidationError(f"edge at id_{i!r} is not the identity functor")
    for (v, u), vu in index.composition.items():
        if not same_maps(composed_by_name(edge[u], edge[v]), edge[vu]):
            raise ValidationError(f"strictness fails: edge({vu!r}) != edge({v!r}) o edge({u!r})")


def reference_pseudo_checks(index, vertex, edge, comp, unit):
    """PseudoDiagram's checks as they were made through ``NatIso``: each
    component table is checked against validated identity and composite
    functors (``helpers.nat_iso_checks``), then the coherence axioms run
    one name lookup at a time (the ``helpers`` reference copies)."""
    d = unvalidated(PseudoDiagram, index=index, vertex=vertex, edge=edge, comp=comp, unit=unit)
    hocolim._check_vertices_and_edges(d)
    for i in index.objects:
        components = unit.get(i)
        if components is None:
            raise CoherenceFailure(f"no unit isomorphism at {i!r}")
        nat_iso_checks(CatFunctor.identity_functor(vertex[i]), edge[index.identity[i]], components)
    for (v, u), components in comp.items():
        if (v, u) not in index.composition:
            raise CoherenceFailure(f"comp given for non-composable pair ({v!r}, {u!r})")
        nat_iso_checks(edge[u].then(edge[v]), edge[index.composition[(v, u)]], components)
    for (v, u) in index.composition:
        if (v, u) not in comp:
            raise CoherenceFailure(f"no comp isomorphism at ({v!r}, {u!r})")
    reference_check_unit_axioms(d)
    reference_check_associativity_axiom(d)


def verdict(fn):
    """What ``fn()`` returns, or the class and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def any_outcome(fn, *args):
    """None on success, else the class and message of whatever was raised."""
    outcome = verdict(lambda: fn(*args))
    return outcome if isinstance(outcome, tuple) else None


def with_extra_key(fun, rng):
    """A copy of ``fun`` with one key too many in its object or morphism map.

    CatFunctor requires the keys it needs and ignores others, so the copy is
    still a validated functor.  The extra key maps to an object or morphism
    of the target, so that it survives composition, or to no name at all, so
    that composing with it raises KeyError.
    """
    obj_map, mor_map = dict(fun.obj_map), dict(fun.mor_map)
    if rng.random() < 0.5:
        obj_map["?extra"] = rng.choice(list(fun.target.objects) + ["?nowhere"])
    else:
        mor_map["?extra"] = rng.choice(list(fun.target.morphism_names()) + ["?nowhere"])
    return CatFunctor(fun.source, fun.target, obj_map, mor_map)


class TestDiagramChecks:
    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams, SEEDS)
    def test_strict_against_composite_functors(self, d, seed):
        """The unchanged diagram, then a copy with one edge given an extra key."""
        args = (d.index, d.vertex, dict(d.edge))
        assert any_outcome(StrictDiagram, *args) is None is any_outcome(reference_strict_checks, *args)
        rng = Random(seed)
        m = rng.choice(sorted(d.edge))
        args[2][m] = with_extra_key(d.edge[m], rng)
        assert any_outcome(StrictDiagram, *args) == any_outcome(reference_strict_checks, *args)

    @settings(max_examples=120, deadline=None)
    @given(pseudo_diagrams, SEEDS,
           st.sampled_from(("edge", "twin", "non-invertible", "misplaced", "unknown", "dropped")))
    def test_pseudo_against_composite_functors(self, p, seed, how):
        """The unchanged diagram, then a copy with an extra key in one edge
        or one corrupted coherence component.  Both routes accept or both
        reject; a rejection's message ends with the old route's message,
        except for a name that is no morphism, where the old route raised
        KeyError.  An edge key that names no image raised KeyError on the
        old route too, when it composed the edges' name maps key by key; the
        checks compose the edges' arrays, which such a key is not in, so the
        diagram is accepted, as CatFunctor accepts the edge."""
        args = (p.index, p.vertex, dict(p.edge), dict(p.comp), dict(p.unit))
        assert any_outcome(PseudoDiagram, *args) is None is any_outcome(reference_pseudo_checks, *args)
        rng = Random(seed)
        # entries with a component to corrupt (a vertex may have no objects)
        entries = [(table, key) for table in args[3:] for key in sorted(table) if table[key]]
        if how == "edge" or not entries:
            how = "edge"
            m = rng.choice(sorted(p.edge))
            args[2][m] = with_extra_key(p.edge[m], rng)
        else:
            table, key = rng.choice(entries)
            cat = p.vertex[p.index.target(key[0]) if table is args[3] else key]
            c = rng.choice(sorted(table[key]))
            table[key] = corrupt_component(table[key], c, cat, how, rng)
        new = any_outcome(PseudoDiagram, *args)
        old = any_outcome(reference_pseudo_checks, *args)
        if how == "edge" and old == (KeyError, repr("?nowhere")):
            assert new is None
        elif how == "unknown":
            assert old == (KeyError, repr("?nosuch"))
            assert new[0] is NotNatural and new[1].endswith(
                f"component at {c!r} is not a morphism of {cat.name}")
        elif old is None:
            assert new is None
        else:
            assert new[0] is old[0] and new[1].endswith(old[1])

    def test_rejection_names_the_entry_and_object(self):
        """A one-object monoid over the terminal index: a unit component
        that is not invertible, and a comp table with no component."""
        index, vertex = zoo.terminal_category("i"), monoid_z2_mult()
        idx_id = index.identity["i"]
        args = (index, {"i": vertex}, {idx_id: CatFunctor.identity_functor(vertex)})
        with pytest.raises(NotNatural) as err:
            PseudoDiagram(*args, {(idx_id, idx_id): {"*": "1"}}, {"i": {"*": "0"}})
        assert str(err.value) == "unit at 'i': component at '*' is not invertible"
        assert err.value.witness == {"entry": "unit at 'i'", "object": "*"}
        with pytest.raises(NotNatural) as err:
            PseudoDiagram(*args, {(idx_id, idx_id): {}}, {"i": {"*": "1"}})
        where = f"comp at {(idx_id, idx_id)!r}"
        assert str(err.value) == f"{where}: no component at '*'"
        assert err.value.witness == {"entry": where, "object": "*"}

    @settings(max_examples=30, deadline=None)
    @given(strict_diagrams, SEEDS)
    def test_composite_check_against_then(self, d, seed):
        """hocolim._is_composite against the composite by name on every
        composable pair, with an extra key in one of the three functors: the
        same verdict, or a failed compare where composing by name raises
        KeyError on a key that names nothing; ``then`` composes the arrays,
        so it drops that key."""
        rng = Random(seed)
        for (v, u), vu in d.index.composition.items():
            funs = [d.edge[u], d.edge[v], d.edge[vu]]
            k = rng.randrange(3)
            funs[k] = with_extra_key(funs[k], rng)
            first, second, fun = funs
            want = verdict(lambda: same_maps(composed_by_name(first, second), fun))
            assert verdict(lambda: hocolim._is_composite(first, second, fun)) == (
                False if isinstance(want, tuple) and want[0] is KeyError else want)
            assert same_maps(first.then(second), composed_by_name(d.edge[u], d.edge[v]))

    @settings(max_examples=20, deadline=None)
    @given(strict_diagrams, pseudo_diagrams, st.one_of(scwols, groupoids.map(lambda g: g.category)))
    def test_constructors_build_no_functor(self, d, p, cat):
        """Strictness and the coherence tables are checked on the maps, and
        the skeleton's functors and eta are built unchecked: no CatFunctor is
        composed with ``then``, made an identity functor or validated on the
        way, except the edges a manifest load checks (``edge_checks``)."""
        payload = manifest.serialize("pseudo_diagram", p)["payload"]
        assert functor_calls(
            lambda: StrictDiagram(d.index, d.vertex, d.edge),
            lambda: PseudoDiagram(p.index, p.vertex, p.edge, p.comp, p.unit),
        ) == {"then": 0, "identity_functor": 0, "__post_init__": 0}
        assert functor_calls(lambda: manifest.pseudo_diagram_from_payload(payload)) == {
            "then": 0, "identity_functor": 0, "__post_init__": edge_checks(payload)}
        assert functor_calls(lambda: skeleton(cat)) == {
            "then": 0, "identity_functor": 0, "__post_init__": 0}

    def test_a_map_is_compared_with_the_first_one_checked(self):
        """Edges a, b, c: k -> j with maps A, B, B between one pair of
        tables: b differs from a, the first checked, and c is compared with
        a too, so all three are checked, though only two maps are distinct.
        With the identity edges, one per table, five edges are checked."""
        two, xy = zoo.discrete_category(["0", "1"], "P"), zoo.discrete_category(["x", "y"], "Q")
        index = zoo.build_category(("k", "j"), [(m, "k", "j") for m in "abc"], name="I")

        def edge(images):
            return CatFunctor(two, xy, images, {two.identity[c]: xy.identity[e]
                                               for c, e in images.items()})

        same, swapped = edge({"0": "x", "1": "y"}), edge({"0": "y", "1": "x"})
        d = StrictDiagram(index, {"k": two, "j": xy},
                          {"id_k": CatFunctor.identity_functor(two),
                           "id_j": CatFunctor.identity_functor(xy),
                           "a": same, "b": swapped, "c": swapped})
        payload = json.loads(json.dumps(manifest.serialize("diagram", d)["payload"]))
        assert edge_checks(payload) == 5
        assert functor_calls(lambda: manifest.diagram_from_payload(payload)) == {
            "then": 0, "identity_functor": 0, "__post_init__": 5}


def functor_calls(*sections) -> dict:
    """The then, identity_functor and validation calls ``sections`` make."""
    calls = dict.fromkeys(("then", "identity_functor", "__post_init__"), 0)

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(CatFunctor, name, counting(name, getattr(CatFunctor, name)))
        for section in sections:
            section()
    return calls


def edge_checks(payload) -> int:
    """The edge functors one load of a diagram ``payload`` with str names
    checks.  Its vertices share one table when a later one equals, but for
    its name, the first vertex under its key (objects, numbers of morphisms
    and entries; ``manifest._category_once``).  In the index's arrow order
    (``manifest._diagram_parts``) an edge is checked unless its maps equal
    those of the first edge checked between the same two tables
    (``manifest._functor_from_payload``)."""
    tables, first, table = payload["vertices"], {}, {}
    for i, t in tables.items():
        f = first.setdefault((tuple(t["objects"]), len(t["morphisms"]), len(t["compose"])), i)
        table[i] = f if table_key(t) == table_key(tables[f]) else i
    index = manifest.category_from_payload(payload["index"], name="index")
    checked, checks = {}, 0
    for m, x, y in index._arrows():
        maps, pair = payload["edges"][m], (table[x], table[y])
        if checked.get(pair) != maps:
            checks += 1
            checked.setdefault(pair, maps)
    return checks


class TestSpectra:
    def test_bar_spectrum_pushout(self):
        spec = bar_spectrum(zoo.pushout_scwol())
        assert spec.cells == {"j": (1, 2), "k": (1, 0), "l": (1, 0)}
        assert dict(spec.derived_weighting().values) == {"j": -1, "k": 1, "l": 1}

    def test_bar_spectrum_terminal_arrow(self):
        spec = bar_spectrum(zoo.terminal_arrow_poset())
        w = spec.derived_weighting()
        assert dict(w.values) == {"a": 0, "t": 1}

    def test_bar_spectrum_point(self):
        spec = bar_spectrum(zoo.terminal_category())
        assert spec.cells == {"*": (1,)}

    def test_bar_spectrum_rejects_groupoid(self):
        with pytest.raises(NotScwol):
            bar_spectrum(zoo.one_object_category(cyclic_group(2)))

    def test_builtin_pushout(self):
        spec = builtin_spectrum("pushout")
        assert spec.cells == {"k": (1,), "l": (1,), "j": (0, 1)}

    def test_builtin_parallel_pair(self):
        spec = builtin_spectrum("parallel_pair")
        assert spec.cells == {"k": (1,), "j": (0, 1)}

    def test_builtin_subsets_q1(self):
        spec = builtin_spectrum("subsets_poset", q=1)
        assert spec.cells == {"{0}": (1,), "{1}": (1,), "{0,1}": (0, 1)}

    def test_builtin_terminal_checks_terminality(self):
        cat = zoo.terminal_arrow_poset()
        spec = builtin_spectrum("terminal", cat=cat, obj="t")
        assert spec.cells == {"t": (1,)}
        with pytest.raises(NoWeighting):
            builtin_spectrum("terminal", cat=cat, obj="a")

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            builtin_spectrum("moebius")

    @pytest.mark.parametrize("kind, kwargs, message", [
        ("terminal", {}, "terminal spectrum needs cat=... and obj=..."),
        ("terminal", {"cat": zoo.terminal_category()}, "terminal spectrum needs cat=... and obj=..."),
        ("terminal", {"obj": "*"}, "terminal spectrum needs cat=... and obj=..."),
        ("subsets_poset", {}, "subsets_poset spectrum needs q=..."),
    ], ids=["terminal-bare", "terminal-no-obj", "terminal-no-cat", "subsets-no-q"])
    def test_builtin_without_its_arguments(self, kind, kwargs, message):
        with pytest.raises(UnknownKind) as err:
            builtin_spectrum(kind, **kwargs)
        assert (type(err.value), str(err.value), err.value.witness) == (UnknownKind, message, None)

    def test_invalid_user_spectrum_rejected(self):
        with pytest.raises(NoWeighting):
            CellSpectrum(zoo.pushout_scwol(), {"j": (1,), "k": (1,), "l": (1,)})

    @settings(max_examples=25, deadline=None)
    @given(scwols)
    def test_bar_weighting_matches_solved_weighting(self, cat):
        gamma = skeleton(cat).category
        assert dict(bar_spectrum(cat).derived_weighting().values) == dict(
            weighting(gamma).values
        )


class TestFormulaValue:
    def test_all_ones_gives_chi(self):
        spec = builtin_spectrum("pushout")
        vals = {x: Fraction(1) for x in spec.index.objects}
        assert formula_value(spec, vals) == 1

    def test_half_values(self):
        spec = builtin_spectrum("pushout")
        vals = {"j": Fraction(1), "k": Fraction(1, 2), "l": Fraction(1, 2)}
        assert formula_value(spec, vals) == 0

    def test_inclusion_exclusion_instance(self):
        sets = {"0": {1, 2}, "1": {2, 3}, "2": {3}}
        spec = builtin_spectrum("subsets_poset", q=2)
        vals = {}
        for label in spec.index.objects:
            members = label[1:-1].split(",")
            vals[label] = Fraction(len(set.intersection(*(sets[j] for j in members))))
        assert formula_value(spec, vals) == 3

    def test_missing_value(self):
        spec = builtin_spectrum("pushout")
        with pytest.raises(MissingValue):
            formula_value(spec, {"j": Fraction(1)})

    @settings(max_examples=15, deadline=None)
    @given(small_rationals, small_rationals, small_rationals)
    def test_spectrum_independence_on_pushout(self, a, b, c):
        vals = {"j": a, "k": b, "l": c}
        via_bar = formula_value(bar_spectrum(zoo.pushout_scwol()), vals)
        via_builtin = formula_value(builtin_spectrum("pushout"), vals)
        assert via_bar == via_builtin == b + c - a


class TestCheckFormula:
    def test_intro_pushout_chil(self):
        rep = check_hocolim_formula(intro_pushout_diagram(), "chiL")
        assert rep.equal and rep.lhs == 0

    def test_unknown_invariant_rejected(self):
        with pytest.raises(EulcatError) as err:
            check_hocolim_formula(intro_pushout_diagram(), "bogus")
        assert (type(err.value), str(err.value), err.value.witness) == (
            EulcatError, "unknown invariant 'bogus'; pick one of ('chiL', 'chi2', 'chi_scwol')",
            None)

    def test_group_index_rejected(self):
        index = zoo.one_object_category(cyclic_group(2))
        d = trivial_diagram(index)
        with pytest.raises(NotScwol):
            check_hocolim_formula(d, "chiL")

    def test_groupoid_vertices_over_pushout(self):
        index = zoo.pushout_scwol()
        vertices = {
            "j": zoo.one_object_category(cyclic_group(2), obj="*"),
            "k": zoo.one_object_category(cyclic_group(3), obj="*"),
            "l": zoo.terminal_category(),
        }
        from eulcat.fincat import CatFunctor
        from eulcat.hocolim import StrictDiagram

        edges = {}
        for m in index.morphisms:
            src, tgt = vertices[m.source], vertices[m.target]
            if index.is_identity(m.name):
                edges[m.name] = CatFunctor.identity_functor(src)
            else:
                edges[m.name] = CatFunctor(
                    src,
                    tgt,
                    {src.objects[0]: tgt.objects[0]},
                    {g.name: tgt.identity[tgt.objects[0]] for g in src.morphisms},
                )
        d = StrictDiagram(index, vertices, edges)
        rep = check_hocolim_formula(d, "chiL")
        assert rep.equal
        assert rep.lhs == Fraction(1, 3) + 1 - Fraction(1, 2) == Fraction(5, 6)

    def test_chi2_invariant_on_scwol_diagram(self):
        rep = check_hocolim_formula(intro_pushout_diagram(), "chi2")
        assert rep.equal and rep.lhs == 0

    def test_chi_scwol_invariant(self):
        rep = check_hocolim_formula(intro_pushout_diagram(), "chi_scwol")
        assert rep.equal and rep.lhs == 0

    def test_explicit_spectrum_route(self):
        rep = check_hocolim_formula(
            intro_pushout_diagram(), "chiL", spectrum=builtin_spectrum("pushout")
        )
        assert rep.equal

    @settings(max_examples=30, deadline=None)
    @given(strict_diagrams)
    def test_strict_total_builds_no_inclusion_functor(self, d):
        def old_route(d, invariant="chiL"):
            """check_hocolim_formula on a strict diagram as it was: the total
            category read off grothendieck(d), which also builds the alphas."""
            fn = hocolim._invariant_fn(invariant)
            lhs = Fraction(fn(grothendieck(d).category))
            spec = bar_spectrum(d.index)
            vals = {i: Fraction(fn(d.vertex[i])) for i in spec.objects_with_cells()}
            rhs = formula_value(spec, vals)
            return FormulaReport(invariant, lhs, rhs, vals, lhs == rhs)

        built = [0]
        real = fincat.CatFunctor.__post_init__

        def counted(functor):
            built[0] += 1
            real(functor)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fincat.CatFunctor, "__post_init__", counted)
            rep = check_hocolim_formula(d, "chiL")
        assert built[0] == 0
        assert rep == old_route(d)

    def test_foreign_spectrum_names_rejected(self):
        d = constant_diagram(zoo.parallel_pair_scwol(), zoo.terminal_category())
        with pytest.raises(MissingValue):
            check_hocolim_formula(d, "chiL", spectrum=builtin_spectrum("pushout"))

    def test_spectrum_over_another_index_is_rejected(self):
        """The parallel pair's cells name only objects the pushout has, but
        their alternating sums are no weighting on the pushout: the check
        used to report lhs=1, rhs=0, a false FAIL."""
        d = constant_diagram(zoo.pushout_scwol(), zoo.terminal_category())
        spec = builtin_spectrum("parallel_pair")
        with pytest.raises(ForeignSpectrum) as info:
            check_hocolim_formula(d, "chiL", spectrum=spec)
        assert isinstance(info.value, ValidationError)
        assert str(info.value) == (
            f"spectrum over {spec.index.name} is no cell model over {d.index.name}: "
            "weighting equation fails at 'j'"
        )
        assert info.value.witness == {"object": "j"}

    def test_vertex_invariant_fails_before_the_index_check(self, monkeypatch):
        """A vertex with no invariant at a cell object fails first, as it
        did before the spectrum's index was checked."""
        d = constant_diagram(zoo.pushout_scwol(), zoo.terminal_category())

        def undefined(cat):
            raise NoEulerCharacteristic(f"{cat.name} admits no weighting")

        monkeypatch.setattr(hocolim, "chi_L", undefined)
        with pytest.raises(NoEulerCharacteristic):
            check_hocolim_formula(d, "chiL", spectrum=builtin_spectrum("parallel_pair"))

    def test_spectrum_over_an_equal_index_is_accepted(self):
        d = constant_diagram(zoo.pushout_scwol(), zoo.terminal_category())
        spec = builtin_spectrum("pushout")
        assert spec.index is not d.index
        assert check_hocolim_formula(d, "chiL", spectrum=spec).equal


def full_build_formula(d, invariant="chiL", spectrum=None):
    """check_hocolim_formula with its left-hand side always taken on the
    built total category, as before the hom-count route."""
    fn = hocolim._invariant_fn(invariant)
    if isinstance(d, PseudoDiagram):
        total = grothendieck_pseudo(d)
    else:
        total = hocolim._grothendieck(d)
    lhs = Fraction(fn(total))
    spec = spectrum if spectrum is not None else bar_spectrum(d.index)
    vals = {i: Fraction(fn(d.vertex[i])) for i in spec.objects_with_cells()}
    rhs = formula_value(spec, vals)
    return FormulaReport(invariant, lhs, rhs, vals, lhs == rhs)


def swap_diagram():
    """The two-point set {x, y} at both objects of the contractible groupoid
    on a, b, with both isomorphisms swapping the points: (a,x) ~ (b,y) and
    (a,y) ~ (b,x) in the total category, whose chi is 2."""
    swap = {"x": "y", "y": "x"}
    return set_diagram(
        zoo.contractible_groupoid(("a", "b")),
        {"a": ["x", "y"], "b": ["x", "y"]},
        {"u[a>b]": swap, "u[b>a]": swap},
    )


class TestFormulaOnWeights:
    """Without a spectrum the right-hand side is read off the index
    skeleton's integer weights, which are the bar model's alternating cell
    counts, so no path is counted."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(strict_diagrams, pseudo_diagrams), st.sampled_from(hocolim.INVARIANTS))
    def test_same_report_as_the_bar_spectrum(self, d, invariant):
        got = verdict(lambda: check_hocolim_formula(d, invariant))
        spectrum = verdict(lambda: bar_spectrum(d.index))
        if isinstance(spectrum, tuple):  # not a scwol: the same NotScwol
            assert spectrum[0] is NotScwol and got == spectrum
        else:
            assert got == verdict(lambda: check_hocolim_formula(d, invariant, spectrum=spectrum))

    def test_counts_no_path(self, monkeypatch):
        counts = {"_skeleton_path_counts": 0}
        count_calls(monkeypatch, counts)
        d = trivial_diagram(zoo.subsets_poset_opposite(3))
        report = check_hocolim_formula(d)
        assert counts == {"_skeleton_path_counts": 0} and report.equal
        assert report.rhs == formula_value(bar_spectrum(d.index), report.vertex_values)
        assert counts == {"_skeleton_path_counts": 1}  # non-vacuity: the bar model counts


class TestChiLFromHomCounts:
    """The left-hand side of a strict ``chiL`` check is read off the
    diagram's hom counts and isomorphism classes; ``chi_L`` of the built
    total category is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(strict_diagrams)
    @example(swap_diagram())
    @example(intro_pushout_diagram())
    def test_rows_and_classes_match_the_full_build(self, d):
        """chi_L of a Grothendieck construction depends on its maps only
        through the formula, so the hom counts and classes are compared
        entry by entry, not only through the value."""
        total = hocolim._grothendieck(d)
        index = {x: k for k, x in enumerate(total.objects)}
        rows, reps_of = hocolim._total_counts(d)
        assert rows == fincat._count_rows(total)
        assert reps_of() == sorted(min(index[x] for x in cls) for cls in fincat._iso_partition(total))
        assert hocolim._total_chi_L(d) == chi_L(total)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(groupoids.map(lambda g: g.category), scwols))
    def test_index_isomorphisms_merge_classes(self, cat):
        """Over the contractible groupoid on a, b each (a, c) is isomorphic
        to (b, c).  Unless the classes merge along the index isomorphisms
        the condensate stays cyclic and the check builds the total."""
        index = zoo.contractible_groupoid(("a", "b"))
        d = constant_diagram(index, cat)
        spec = CellSpectrum(index, {"a": (1,)})
        want = full_build_formula(d, spectrum=spec)
        counts = {"_grothendieck": 0}
        with pytest.MonkeyPatch.context() as mp:
            count_calls(mp, counts)
            rep = check_hocolim_formula(d, "chiL", spectrum=spec)
        assert counts["_grothendieck"] == 0
        assert rep == want and rep.equal

    def test_swapping_isomorphisms_merge_across_points(self, monkeypatch):
        d = swap_diagram()
        want = full_build_formula(d)
        counts = {"_grothendieck": 0}
        count_calls(monkeypatch, counts)
        rep = check_hocolim_formula(d, "chiL")
        assert counts["_grothendieck"] == 0
        assert rep == want and rep.lhs == 2

    def test_strict_check_builds_no_total(self, monkeypatch):
        rng = Random(0)
        diagrams = [randgen.random_strict_diagram(rng) for _ in range(40)]
        counts = {"_grothendieck": 0}
        count_calls(monkeypatch, counts)
        for d in diagrams:
            assert check_hocolim_formula(d, "chiL").equal
        assert counts["_grothendieck"] == 0

    @pytest.mark.parametrize(
        "invariant, make, builds",
        [
            ("chi2", intro_pushout_diagram, 1),
            ("chi_scwol", intro_pushout_diagram, 1),
            ("chiL", lambda: PseudoDiagram.from_strict(intro_pushout_diagram()), 0),
            ("chiL", lambda: constant_diagram(zoo.pushout_scwol(), split_idempotent()), 0),
        ],
        ids=["chi2", "chi_scwol", "pseudo", "still-cyclic"],
    )
    def test_other_checks_build_the_total_once(self, monkeypatch, invariant, make, builds):
        """Only the other invariants build the total; a ``chiL`` check, strict
        or pseudo, reads the diagram's rows, and one whose condensate is
        still cyclic is eliminated on them."""
        d = make()
        want = full_build_formula(d, invariant)
        counts = {"_grothendieck": 0}
        count_calls(monkeypatch, counts)
        assert check_hocolim_formula(d, invariant) == want
        assert counts["_grothendieck"] == builds

    def test_still_cyclic_condensate_keeps_the_old_message(self, monkeypatch):
        """With elimination finding no solution, the diagram's rows raise
        what ``chi_L`` of the built total category raises."""
        d = constant_diagram(zoo.pushout_scwol(), split_idempotent())
        monkeypatch.setattr(ratlin, "solve_linear", lambda a, b: None)
        with pytest.raises(NoEulerCharacteristic) as want:
            full_build_formula(d)
        with pytest.raises(NoEulerCharacteristic) as got:
            check_hocolim_formula(d, "chiL")
        assert str(got.value) == str(want.value) == f"hocolim({d.index.name}) admits no weighting"


class TestCoequalizer:
    @staticmethod
    def build(rng):
        size_a = rng.randint(1, 3)
        size_b = rng.randint(2 * size_a, 2 * size_a + 3)
        a_elems = [f"a{i}" for i in range(size_a)]
        b_elems = [f"b{i}" for i in range(size_b)]
        slots = rng.sample(range(size_b), 2 * size_a)
        f_map = {a_elems[i]: b_elems[slots[i]] for i in range(size_a)}
        g_map = {a_elems[i]: b_elems[slots[size_a + i]] for i in range(size_a)}
        d = set_diagram(
            zoo.parallel_pair_scwol(),
            {"j": a_elems, "k": b_elems},
            {"f0": f_map, "f1": g_map},
        )
        return d, a_elems, b_elems, f_map, g_map

    @staticmethod
    def brute_force_coequalizer(b_elems, pairs):
        parent = {b: b for b in b_elems}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in pairs:
            parent[find(x)] = find(y)
        return len({find(b) for b in b_elems})

    @settings(max_examples=25, deadline=None)
    @given(SEEDS)
    def test_cardinality_of_coequalizer(self, seed):
        rng = Random(seed)
        d, a_elems, b_elems, f_map, g_map = self.build(rng)
        total = grothendieck(d).category
        expected = len(b_elems) - len(a_elems)
        assert chi_L(total) == expected
        assert (
            self.brute_force_coequalizer(
                b_elems, [(f_map[a], g_map[a]) for a in a_elems]
            )
            == expected
        )


class TestPreservation:
    @settings(max_examples=20, deadline=None)
    @given(SEEDS)
    def test_directly_finite_and_ei(self, seed):
        d = randgen.random_strict_diagram(Random(seed))
        report = classify(grothendieck(d).category)
        assert report.is_directly_finite
        assert report.is_EI
