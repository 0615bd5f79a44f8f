from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings

from eulcat import groupact, randgen, zoo
from eulcat.errors import ValidationError
from eulcat.eulerchar import chi2_free_EI, chi_scwol, groupoid_chi2
from eulcat.fincat import (
    CatFunctor,
    FinCat,
    Morphism,
    NotAFunctor,
    UnknownObject,
    _check_natural,
    _identity_arrays,
    classify,
    iso_classes,
    path_counts,
    skeleton,
)
from eulcat.groupact import (
    AxiomIViolation,
    AxiomIIViolation,
    ComplexOfGroups,
    NotAFunctorAction,
    NotAHomomorphismAction,
    NotAnAction,
    ScwolAction,
    chi_theorems,
    complex_of_groups,
    complex_to_pseudo_diagram,
    developability_check,
    equivariant_skeleton,
    haefliger_chi,
    hocolim_groups,
    one_arrow_complex,
    quotient,
    skeletal_reduction,
    stabilizer,
    transport_groupoid,
    trivial_action,
    validate_action,
)
from eulcat.groups import (
    FinGroup,
    GroupHom,
    cyclic_group,
    klein_four_group,
    perm_of_label,
    symmetric_group,
    trivial_group,
)
from eulcat.hocolim import grothendieck_pseudo
from eulcat.ratlin import chi_L

from helpers import (
    are_isomorphic,
    assert_complex_revalidates,
    constant_complex,
    count_calls,
    equal_presentation,
    identity_maps,
    nonidentity_paths,
    s3_chain,
    s3_flag_action,
)
from strategies import actions, noncentral_actions, small_rationals, scwols


def flag_complex():
    action, h_elements = s3_flag_action()
    return complex_of_groups(action, h_elements=h_elements).complex


# complexes whose twists fail to commute with the images of the structure maps
NONCENTRAL = {
    "S3-chain": lambda: ComplexOfGroups(*s3_chain()),
    "S3-chain-other-twist": lambda: ComplexOfGroups(*s3_chain(twist="102")),
    "S3-chain-conjugating": lambda: ComplexOfGroups(*s3_chain(conjugating=True)),
    "S3-flag": flag_complex,
}


def s3_point_action():
    s3 = symmetric_group(3)
    pts = ("1", "2", "3")
    act = {g: {s: str(perm_of_label(g)[int(s) - 1] + 1) for s in pts} for g in s3.labels}
    return s3, pts, act


class TestValidateAction:
    @pytest.mark.parametrize(
        "error", [NotAFunctorAction, NotAHomomorphismAction, AxiomIViolation, AxiomIIViolation]
    )
    def test_every_rejection_is_a_not_an_action(self, error):
        assert issubclass(error, NotAnAction) and issubclass(NotAnAction, ValidationError)

    def test_circle_reflection_is_valid(self):
        action = randgen.circle_action()
        assert action.object_orbits() == (("x", "x2"), ("y",), ("z",))

    def test_swap_across_an_arrow_violates_axiom_i(self):
        arrow = zoo.arrow_category()
        z2 = cyclic_group(2)
        raw = {
            "object_action": {
                "0": {"0": "0", "1": "1"},
                "1": {"0": "1", "1": "0"},
            },
            "morphism_action": {
                "0": {"id_0": "id_0", "id_1": "id_1", "a": "a"},
                "1": {"id_0": "id_1", "id_1": "id_0", "a": "a"},
            },
        }
        with pytest.raises(AxiomIViolation) as info:
            validate_action(raw, z2, arrow)
        assert info.value.witness == {"morphism": "a", "element": "1"}

    def test_fixing_source_but_moving_morphism_violates_axiom_ii(self):
        pair = zoo.parallel_pair_scwol()
        z2 = cyclic_group(2)
        raw = {
            "object_action": {
                "0": {"j": "j", "k": "k"},
                "1": {"j": "j", "k": "k"},
            },
            "morphism_action": {
                "0": {m.name: m.name for m in pair.morphisms},
                "1": {"id_j": "id_j", "id_k": "id_k", "f0": "f1", "f1": "f0"},
            },
        }
        with pytest.raises(AxiomIIViolation) as info:
            validate_action(raw, z2, pair)
        assert info.value.witness == {"morphism": "f0", "element": "1"}

    def test_trivial_action_valid_everywhere(self):
        action = trivial_action(klein_four_group(), zoo.subsets_poset_opposite(1))
        assert action.is_free_on_objects() is False

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_lemma_consequences(self, action):
        cat = action.space
        group = action.group
        iso = iso_classes(cat)
        rep_of = {}
        for cls in iso.classes:
            for x in cls:
                rep_of[x] = cls[0]
        for g in group.labels:
            for h in group.labels:
                for x in cat.objects:
                    gx, hx = action.act_obj(g, x), action.act_obj(h, x)
                    # (i) isomorphic translates are equal
                    if rep_of[gx] == rep_of[hx]:
                        assert gx == hx
                for m in cat.morphisms:
                    # (ii) equal sources force equal translates
                    if action.act_obj(g, cat.source(m.name)) == action.act_obj(
                        h, cat.source(m.name)
                    ):
                        assert action.act_mor(g, m.name) == action.act_mor(h, m.name)
            for x in cat.objects:
                # (iii) isomorphic objects have equal stabilizers
                for y in cat.objects:
                    if rep_of[x] == rep_of[y]:
                        assert set(stabilizer(action, x).labels) == set(
                            stabilizer(action, y).labels
                        )

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_fixing_a_path_iff_fixing_its_source(self, action):
        cat = action.space
        for g in action.group.labels:
            for path in nonidentity_paths(cat, 2):
                fixes_path = all(action.act_mor(g, m) == m for m in path)
                fixes_source = action.act_obj(g, cat.source(path[0])) == cat.source(path[0])
                assert fixes_path == fixes_source


def reference_action_tables(raw):
    """How ``validate_action`` read the two tables before it kept tables of
    strs as they are: a copy of every entry through ``str()``."""
    try:
        return tuple({str(g): {str(x): str(y) for x, y in table.items()}
                      for g, table in raw[key].items()}
                     for key in ("object_action", "morphism_action"))
    except (KeyError, TypeError, AttributeError) as exc:
        raise NotAFunctorAction(
            f"malformed action description ({exc})", witness={"cause": str(exc)}
        ) from exc


def action_raw(action):
    return {"object_action": {g: dict(t) for g, t in action.on_objects.items()},
            "morphism_action": {g: dict(t) for g, t in action.on_morphisms.items()}}


def arrow_raw(object_action):
    ids = {"id_0": "id_0", "id_1": "id_1", "a": "a"}
    return {"object_action": object_action, "morphism_action": {"0": ids, "1": dict(ids)}}


class TestActionTables:
    def test_tables_of_strs_are_kept(self):
        raw = action_raw(s3_flag_action()[0])
        action = validate_action(raw, s3_flag_action()[0].group, s3_flag_action()[0].space)
        assert action.on_objects is raw["object_action"]
        assert action.on_morphisms is raw["morphism_action"]

    def test_numbers_are_read_as_strs(self):
        raw = arrow_raw({0: {0: 0, 1: 1}, "1": {"0": "0", 1: "1"}})
        action = validate_action(raw, cyclic_group(2), zoo.arrow_category())
        assert action.on_objects == reference_action_tables(raw)[0]
        assert all(type(k) is str and all(type(x) is str and type(y) is str
                                          for x, y in t.items())
                   for k, t in action.on_objects.items())

    @pytest.mark.parametrize("raw", [
        [],
        {},
        {"object_action": []},
        {"object_action": ["0", "1"], "morphism_action": {}},
        {"object_action": {"0": ["0"]}, "morphism_action": {}},
        {"object_action": {"0": "01"}, "morphism_action": {}},
        {"object_action": {"0": None}, "morphism_action": {}},
        {"object_action": {"0": {"0": "0"}}},
        {"object_action": {"0": {"0": "0"}}, "morphism_action": 5},
        {"object_action": {"0": {"0": "0"}}, "morphism_action": {"0": {"a": "a"}, 1: [2]}},
    ], ids=lambda raw: repr(raw)[:40])
    def test_malformed_tables_keep_their_message(self, raw):
        with pytest.raises(NotAFunctorAction) as want:
            reference_action_tables(raw)
        with pytest.raises(NotAFunctorAction) as got:
            validate_action(raw, cyclic_group(2), zoo.arrow_category())
        assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)
        assert str(got.value).startswith("malformed action description (")

    def test_thinness_is_read_once_per_load(self, monkeypatch):
        """The space's thinness decides whether the functor checks and the
        morphism-level homomorphism law run; it is read once per load, not
        once per group element."""
        action = s3_flag_action()[0]
        raw = action_raw(action)
        counts = {"_is_thin": 0}
        count_calls(monkeypatch, counts)
        validate_action(raw, action.group, action.space)
        assert action.group.order > 1 and counts == {"_is_thin": 1}


def two_composite_scwol():
    """x -f-> y -g-> z with two arrows h1, h2: x -> z and g o f = h1."""
    return zoo.build_category(
        ("x", "y", "z"),
        (("f", "x", "y"), ("g", "y", "z"), ("h1", "x", "z"), ("h2", "x", "z")),
        {("g", "f"): "h1"},
        name="S",
    )


def changed(identity: dict, changes: dict) -> dict:
    """``identity`` with each changed key remapped, or dropped for None."""
    table = {**identity, **changes}
    return {k: v for k, v in table.items() if v is not None}


class TestFunctorLaws:
    """Each NotAFunctor message of fincat._check_functor with its witness,
    and the NotAnAction that the same maps give as the action of element
    '1' of Z/2 (element '0' acting trivially).  Missing or unknown images
    break the permutation check that comes first in ScwolAction."""

    LAWS = [
        ({"x": None}, {}, "object map undefined or out of range at 'x'",
         {"law": "objects", "at": "x"},
         "element '1' does not permute the objects", {"element": "1", "level": "objects"}),
        ({"x": "nosuch"}, {}, "object map undefined or out of range at 'x'",
         {"law": "objects", "at": "x"},
         "element '1' does not permute the objects", {"element": "1", "level": "objects"}),
        ({}, {"f": None}, "morphism map undefined at 'f'", {"law": "morphisms", "at": "f"},
         "element '1' does not permute the morphisms", {"element": "1", "level": "morphisms"}),
        ({}, {"f": "nosuch"}, "image 'nosuch' is not a morphism of S",
         {"law": "morphisms", "at": "f"},
         "element '1' does not permute the morphisms", {"element": "1", "level": "morphisms"}),
        ({}, {"f": "h1", "h1": "f"}, "image of 'f' has wrong endpoints",
         {"law": "source/target", "at": "f"},
         "element '1' breaks source/target at 'f'",
         {"element": "1", "law": "source/target", "at": "f"}),
        ({}, {"h1": "h2", "h2": "h1"}, "composition not preserved on ('g', 'f')",
         {"law": "composition", "at": ("g", "f")},
         "element '1' breaks composition at ('g', 'f')",
         {"element": "1", "law": "composition", "at": ("g", "f")}),
    ]

    @pytest.mark.parametrize(
        "obj, mor, message, witness, action_message, action_witness", LAWS,
        ids=["object-missing", "object-unknown", "morphism-missing", "image-unknown",
             "endpoints", "composition"],
    )
    def test_message_and_witness(self, obj, mor, message, witness, action_message,
                                 action_witness):
        space = two_composite_scwol()
        obj_map = changed({x: x for x in space.objects}, obj)
        mor_map = changed({m: m for m in space.morphism_names()}, mor)
        with pytest.raises(NotAFunctor) as info:
            CatFunctor(space, space, obj_map, mor_map)
        assert (str(info.value), info.value.witness) == (message, witness)
        trivial = trivial_action(cyclic_group(2), space)
        with pytest.raises(NotAFunctorAction) as info:
            ScwolAction(trivial.group, space, {**trivial.on_objects, "1": obj_map},
                        {**trivial.on_morphisms, "1": mor_map})
        assert (str(info.value), info.value.witness) == (action_message, action_witness)
        if "law" in action_witness:
            assert action_message == f"element '1' breaks {witness['law']} at {witness['at']!r}"
            assert action_witness == {"element": "1", **witness}

    def test_identities(self):
        """Only a category with a loop can break this law: in a scwol the
        one endomorphism of an object is its identity, so no action that
        keeps endpoints can move an identity."""
        with pytest.raises(NotAFunctor) as info:
            CatFunctor(zoo.terminal_category(), zoo.one_object_category(cyclic_group(2)),
                       {"*": "*"}, {"id_*": "1"})
        assert (str(info.value), info.value.witness) == (
            "identity of '*' not preserved", {"law": "identities", "at": "*"}
        )

    def test_then_of_unrelated_functors(self):
        pair, arrow = zoo.parallel_pair_scwol(), zoo.arrow_category()
        with pytest.raises(NotAFunctor) as info:
            CatFunctor.identity_functor(pair).then(CatFunctor.identity_functor(arrow))
        assert info.value.witness == {"target": "A", "source": "arrow"}

    def test_action_builds_no_functor(self, monkeypatch):
        """ScwolAction runs the functor check on each element's maps and
        builds no CatFunctor for it."""
        built = []
        real = CatFunctor.__post_init__
        monkeypatch.setattr(CatFunctor, "__post_init__", lambda self: built.append(self) or real(self))
        for action in (randgen.circle_action(), s3_flag_action()[0]):
            ScwolAction(action.group, action.space, action.on_objects, action.on_morphisms)
        assert built == []

    @pytest.mark.parametrize("level", ["on_objects", "on_morphisms"])
    def test_stray_row_is_rejected(self, level):
        """A row for a label that is no element used to be ignored."""
        action = randgen.circle_action()
        tables = {"on_objects": dict(action.on_objects), "on_morphisms": dict(action.on_morphisms)}
        tables[level]["ghost"] = tables[level]["1"]
        with pytest.raises(NotAFunctorAction) as info:
            ScwolAction(action.group, action.space, tables["on_objects"], tables["on_morphisms"])
        assert (str(info.value), info.value.witness) == (
            "action row 'ghost' is not an element of Z2", {"element": "ghost"}
        )

    def test_stray_row_is_checked_last(self):
        """Every other law is checked first, so its message is kept."""
        action = randgen.circle_action()
        with pytest.raises(NotAFunctorAction, match="element '1' breaks source/target at 'id_x'"):
            ScwolAction(action.group, action.space,
                        {**action.on_objects, "ghost": action.on_objects["0"]},
                        {**action.on_morphisms, "1": action.on_morphisms["0"]})

    @pytest.mark.parametrize("objects, arrows, on_objects, on_morphisms, message, witness", [
        (("p", "q"), (), {"0": {"p": "q", "q": "p"}}, {"0": {"id_p": "id_q", "id_q": "id_p"}},
         "identity element moves an object", {"element": "0", "object": "p"}),
        (("j", "k"), (("f0", "j", "k"), ("f1", "j", "k")), {}, {"0": {"f0": "f1", "f1": "f0"}},
         "identity element moves a morphism", {"element": "0", "morphism": "f0"}),
        (("p", "q", "r"), (), {"1": {"p": "q", "q": "r", "r": "p"}},
         {"1": {"id_p": "id_q", "id_q": "id_r", "id_r": "id_p"}},
         "action of '1''1' disagrees with action of '0' on 'p'",
         {"pair": ("1", "1"), "object": "p"}),
        (("j", "k"), (("f0", "j", "k"), ("f1", "j", "k"), ("f2", "j", "k")), {},
         {"1": {"f0": "f1", "f1": "f2", "f2": "f0"}},
         "action of '1''1' disagrees with action of '0' on 'f0'",
         {"pair": ("1", "1"), "morphism": "f0"}),
    ], ids=["identity-moves-object", "identity-moves-morphism", "law-on-objects",
            "law-on-morphisms"])
    def test_homomorphism_law_names_the_point(self, objects, arrows, on_objects,
                                              on_morphisms, message, witness):
        """Z/2 tables that are permutations and functors but no action."""
        space = zoo.build_category(objects, arrows)
        trivial = trivial_action(cyclic_group(2), space)
        with pytest.raises(NotAHomomorphismAction) as info:
            ScwolAction(
                trivial.group, space,
                {g: changed(t, on_objects.get(g, {})) for g, t in trivial.on_objects.items()},
                {g: changed(t, on_morphisms.get(g, {})) for g, t in trivial.on_morphisms.items()},
            )
        assert (str(info.value), info.value.witness) == (message, witness)


class ReadCounting(dict):
    """A composition table that counts its lookups."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def counting_reads(cat: FinCat) -> ReadCounting:
    table = ReadCounting(cat.composition)
    object.__setattr__(cat, "composition", table)
    return table


class TestIdentityEntriesAreSettled:
    """Entries and squares with an identity factor hold once endpoints and
    identities do.  The functor and naturality checks read every composite
    off integer rows, so they look up no entry of a name table and call no
    ``FinCat.compose``."""

    def test_functor_check_on_a_discrete_action(self):
        z3, pts = cyclic_group(3), ("p", "q", "r")
        disc = zoo.discrete_category(pts)
        table = counting_reads(disc)
        on_objects = {g: {pts[i]: pts[(i + k) % 3] for i in range(3)}
                      for k, g in enumerate(z3.labels)}
        on_morphisms = {g: {disc.identity[x]: disc.identity[y] for x, y in row.items()}
                        for g, row in on_objects.items()}
        ScwolAction(z3, disc, on_objects, on_morphisms)
        assert table.reads == 0

    def test_functor_check_reads_no_entry(self):
        space = two_composite_scwol()
        table = counting_reads(space)
        CatFunctor(space, space, *identity_maps(space))
        assert table.reads == 0
        with pytest.raises(NotAFunctor):  # non-vacuity: h1 and h2 swapped break (g, f)
            obj_map, mor_map = identity_maps(space)
            CatFunctor(space, space, obj_map, changed(mor_map, {"h1": "h2", "h2": "h1"}))

    @pytest.mark.parametrize("space", [zoo.discrete_category("pq"), two_composite_scwol()],
                             ids=["discrete", "two-composite"])
    def test_naturality_squares_compose_nothing(self, monkeypatch, space):
        calls = []
        real = FinCat.compose
        monkeypatch.setattr(FinCat, "compose", lambda self, g, f: calls.append((g, f)) or real(self, g, f))
        ident, rows = _identity_arrays(space), space._ends
        _check_natural(space, rows, space, rows, ident, ident, dict(space.identity), "id")
        assert calls == []


class TestQuotient:
    def test_builds_no_functor(self, monkeypatch):
        actions_ = [randgen.circle_action(), s3_flag_action()[0]]
        built = []
        real = CatFunctor.__post_init__
        monkeypatch.setattr(CatFunctor, "__post_init__", lambda self: built.append(self) or real(self))
        for action in actions_:
            quotient(action)
        assert built == []

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_orbit_maps_are_a_functor(self, action):
        """The former projection functor, built here as the reference."""
        q = quotient(action)
        CatFunctor(action.space, q.category, q.object_orbit_of, q.morphism_orbit_of)

    def test_circle_quotient_is_pushout(self):
        q = quotient(randgen.circle_action())
        assert are_isomorphic(q.category, zoo.pushout_scwol())

    def test_trivial_action_quotient_is_input(self):
        cat = zoo.subsets_poset_opposite(1)
        q = quotient(trivial_action(cyclic_group(3), cat))
        assert equal_presentation(q.category, cat) or are_isomorphic(q.category, cat)

    def test_free_swap_on_two_points(self):
        disc = zoo.discrete_category(["p", "q"])
        z2 = cyclic_group(2)
        action = ScwolAction(
            z2,
            disc,
            {"0": {"p": "p", "q": "q"}, "1": {"p": "q", "q": "p"}},
            {
                "0": {"id_p": "id_p", "id_q": "id_q"},
                "1": {"id_p": "id_q", "id_q": "id_p"},
            },
        )
        q = quotient(action)
        assert len(q.category.objects) == 1

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_quotient_of_skeletal_is_skeletal(self, action):
        if not classify(action.space).is_skeletal:
            action = skeletal_reduction(action).action
        q = quotient(action)
        assert classify(q.category).is_skeletal

    @settings(max_examples=20, deadline=None)
    @given(actions)
    def test_path_orbit_bijection(self, action):
        cat = action.space
        q = quotient(action)
        depth = len(path_counts(cat).counts) + 1
        for n in range(1, depth + 1):
            orbits = {
                frozenset(
                    tuple(action.act_mor(g, m) for m in path)
                    for g in action.group.labels
                )
                for path in nonidentity_paths(cat, n)
            }
            assert len(orbits) == len(nonidentity_paths(q.category, n))


class TestStabilizer:
    def test_circle_fixed_vertex(self):
        action = randgen.circle_action()
        assert stabilizer(action, "y").order == 2

    def test_circle_moved_edge(self):
        action = randgen.circle_action()
        assert stabilizer(action, "x").order == 1

    def test_trivial_action(self):
        action = trivial_action(symmetric_group(3), zoo.pushout_scwol())
        assert stabilizer(action, "j").order == 6


class TestComplexOfGroups:
    def test_circle_complex(self):
        built = complex_of_groups(randgen.circle_action())
        cplx = built.complex
        orders = sorted(cplx.local[x].order for x in cplx.base.objects)
        assert orders == [1, 2, 2]
        for (b, a), tw in cplx.twists.items():
            assert tw == cplx.local[cplx.base.target(b)].identity

    def test_trivial_action_gives_constant_complex(self):
        g = klein_four_group()
        built = complex_of_groups(trivial_action(g, zoo.pushout_scwol()))
        cplx = built.complex
        assert all(cplx.local[x].order == 4 for x in cplx.base.objects)
        for m in cplx.base.morphisms:
            assert all(cplx.homs[m.name](a) == a for a in g.labels)

    def test_s3_on_three_points(self):
        s3, pts, act = s3_point_action()
        disc = zoo.discrete_category(pts)
        action = ScwolAction(
            s3,
            disc,
            {g: dict(act[g]) for g in s3.labels},
            {
                g: {disc.identity[s]: disc.identity[act[g][s]] for s in pts}
                for g in s3.labels
            },
        )
        built = complex_of_groups(action)
        assert len(built.complex.base.objects) == 1
        assert built.complex.local[built.complex.base.objects[0]].order == 2

    def test_cocycle_enforced(self):
        # corrupting a twist in a chain complex trips validation
        base = zoo.build_category(
            ("0", "1", "2"),
            (("a", "0", "1"), ("b", "1", "2"), ("ba", "0", "2")),
            {("b", "a"): "ba"},
        )
        z2 = cyclic_group(2)
        ident = GroupHom.identity_hom(z2)
        homs = {m.name: ident for m in base.morphisms}
        twists = {pair: "0" for pair in base.composition}
        ComplexOfGroups(base, {x: z2 for x in base.objects}, homs, twists)
        twists[("b", "a")] = "1"
        # a single non-unit twist in an abelian chain of identity maps still
        # satisfies conjugation, and with no composable non-identity triple
        # the cocycle holds; corrupt a unit twist instead, which must be e
        bad = dict(twists)
        bad[("b", "a")] = "0"
        bad[("id_2", "ba")] = "1"
        with pytest.raises(ValidationError):
            ComplexOfGroups(base, {x: z2 for x in base.objects}, homs, bad)

    @settings(max_examples=15, deadline=None)
    @given(actions)
    def test_associated_complex_validates(self, action):
        built = complex_of_groups(action)  # built unchecked; the oracle re-checks all axioms
        assert_complex_revalidates(built.complex)
        assert set(built.complex.base.objects) == set(built.quotient.category.objects)

    def test_choice_invariance_at_chi_level(self):
        action = randgen.cone_action(randgen.circle_action())
        default = complex_of_groups(action)
        h_override = dict(default.to_group.h_elements)
        group = action.group
        cat = action.space
        changed = 0
        for m, h in list(h_override.items()):
            if default.complex.base.is_identity(m):
                continue
            lift = default.to_group.lifts[m]
            tgt_rep = default.to_group.representatives[
                default.complex.base.target(m)
            ]
            for g in group.labels:
                if g != h and action.act_obj(g, cat.target(lift)) == tgt_rep:
                    h_override[m] = g
                    changed += 1
                    break
        assert changed > 0
        alt = complex_of_groups(action, h_elements=h_override)
        assert chi_L(hocolim_groups(default.complex)) == chi_L(
            hocolim_groups(alt.complex)
        )


class TestHocolimGroups:
    def test_circle_complex_hocolim(self):
        built = complex_of_groups(randgen.circle_action())
        total = hocolim_groups(built.complex)
        assert chi_L(total) == Fraction(1, 2) + Fraction(1, 2) - 1 == 0
        src = next(x for x in total.objects if len(total.hom(x, x)) == 1)
        others = [x for x in total.objects if x != src]
        assert all(len(total.hom(src, x)) == 2 for x in others)

    def test_constant_trivial_complex_recovers_base(self):
        from eulcat.groups import trivial_group

        base = zoo.subsets_poset_opposite(1)
        total = hocolim_groups(constant_complex(base, trivial_group()))
        assert are_isomorphic(total, base)

    def test_one_arrow_complex_terminal_value(self):
        z4 = cyclic_group(4)
        z2 = cyclic_group(2)
        hom = GroupHom(z2, z4, {"0": "0", "1": "2"})
        cplx = one_arrow_complex(z2, z4, hom)
        assert chi_L(hocolim_groups(cplx)) == Fraction(1, 4)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    @example(randgen.cone_action(randgen.circle_action()))
    def test_matches_generic_pseudo_route(self, action):
        self.assert_matches_generic_pseudo_route(complex_of_groups(action).complex)

    @pytest.mark.parametrize("make", NONCENTRAL.values(), ids=NONCENTRAL.keys())
    def test_matches_generic_pseudo_route_with_noncentral_twist(self, make):
        self.assert_matches_generic_pseudo_route(make())

    @settings(max_examples=15, deadline=None)
    @given(noncentral_actions)
    def test_matches_generic_pseudo_route_with_drawn_noncentral_twists(self, drawn):
        action, h = drawn
        self.assert_matches_generic_pseudo_route(complex_of_groups(action, h_elements=h).complex)

    @staticmethod
    def assert_matches_generic_pseudo_route(cplx):
        direct = hocolim_groups(cplx)
        generic = grothendieck_pseudo(complex_to_pseudo_diagram(cplx))
        # the generic route names x as (x,*) and (a,g) as (a,g)@*
        obj = {x: f"({x},*)" for x in direct.objects}
        mor = {m.name: f"{m.name}@*" for m in direct.morphisms}
        assert tuple(obj[x] for x in direct.objects) == generic.objects
        assert {Morphism(mor[m.name], obj[m.source], obj[m.target]) for m in direct.morphisms} == set(
            generic.morphisms
        )
        assert {obj[x]: mor[e] for x, e in direct.identity.items()} == dict(generic.identity)
        assert {
            (mor[g], mor[f]): mor[gf] for (g, f), gf in direct.composition.items()
        } == dict(generic.composition)

    @staticmethod
    def assert_same_as_unhoisted_loop(cplx):
        """hocolim_groups equals its old body, which multiplied F(b)(g1) by
        the inverse twist and named (a, g1) again for every g2: the same
        category, name and composition table in the same insertion order."""
        base = cplx.base

        def nm(a, g):
            return f"({a},{g})"

        mors = [
            Morphism(nm(m.name, g), m.source, m.target)
            for m in base.morphisms
            for g in cplx.local[m.target].labels
        ]
        ident = {x: nm(base.identity[x], cplx.local[x].identity) for x in base.objects}
        comp = {}
        for ma in base.morphism_names():
            for mb in base.morphisms_from(base.target(ma)):
                ba = base.compose(mb, ma)
                tgt = cplx.local[base.target(mb)]
                tw_inv = tgt.inv(cplx.twist(mb, ma))
                for g1 in cplx.local[base.target(ma)].labels:
                    fb_g1 = cplx.homs[mb](g1)
                    for g2 in tgt.labels:
                        comp[(nm(mb, g2), nm(ma, g1))] = nm(
                            ba, tgt.mul(g2, tgt.mul(fb_g1, tw_inv))
                        )
        old = FinCat(tuple(base.objects), tuple(mors), ident, comp, name=f"hocolim({base.name})")
        new = hocolim_groups(cplx)
        assert equal_presentation(new, old) and new.name == old.name
        assert dict(new.composition) == dict(old.composition)

    @settings(max_examples=20, deadline=None)
    @given(actions)
    @example(randgen.cone_action(randgen.circle_action()))
    def test_same_table_as_unhoisted_loop(self, action):
        self.assert_same_as_unhoisted_loop(complex_of_groups(action).complex)

    def test_same_table_as_unhoisted_loop_with_noncentral_twist(self):
        # a transposition twist commutes with no 3-cycle g1, so
        # g2 . F(b)(g1) . twist^-1 depends on the order of the factors
        for make in NONCENTRAL.values():
            self.assert_same_as_unhoisted_loop(make())

    @settings(max_examples=10, deadline=None)
    @given(actions)
    def test_output_satisfies_free_ei_hypotheses(self, action):
        total = hocolim_groups(complex_of_groups(action).complex)
        # chi2_free_EI validates the free-action hypothesis
        assert chi2_free_EI(total) == chi_L(total)


class TestSkeletalReduction:
    def test_already_skeletal(self):
        action = randgen.circle_action()
        red = skeletal_reduction(action)
        assert red.report.all_hold()
        assert equal_presentation(red.action.space, action.space)

    def test_fattened_circle(self):
        fat = randgen.inflate_action(
            randgen.circle_action(), {"x": 2, "x2": 2, "y": 1, "z": 1}
        )
        red = skeletal_reduction(fat)
        assert red.report.all_hold()
        assert len(red.action.space.objects) == 4
        assert are_isomorphic(
            quotient(red.action).category, zoo.pushout_scwol()
        )

    def test_free_action_on_iso_pairs(self):
        disc = zoo.discrete_category(["p", "q"])
        fat = randgen.inflate_action(
            ScwolAction(
                cyclic_group(2),
                disc,
                {"0": {"p": "p", "q": "q"}, "1": {"p": "q", "q": "p"}},
                {
                    "0": {"id_p": "id_p", "id_q": "id_q"},
                    "1": {"id_p": "id_q", "id_q": "id_p"},
                },
            ),
            {"p": 2, "q": 2},
        )
        red = skeletal_reduction(fat)
        assert red.report.all_hold()
        assert len(red.action.space.objects) == 2
        assert red.action.is_free_on_objects()

    @settings(max_examples=12, deadline=None)
    @given(actions)
    def test_all_conclusions_hold(self, action):
        assert skeletal_reduction(action).report.all_hold()


class TestEquivariantSkeleton:
    def test_skeletal_input_is_identity(self):
        action = randgen.circle_action()
        eq = equivariant_skeleton(action)
        assert equal_presentation(eq.action.space, action.space)
        assert eq.inclusion_equivariant and eq.eta_equivariant

    def test_fattened_circle(self):
        fat = randgen.inflate_action(
            randgen.circle_action(), {"x": 2, "x2": 2, "y": 1, "z": 1}
        )
        eq = equivariant_skeleton(fat)
        assert len(eq.action.space.objects) == 4
        assert eq.inclusion_equivariant and eq.eta_equivariant

    @settings(max_examples=15, deadline=None)
    @given(actions)
    def test_always_equivariant(self, action):
        eq = equivariant_skeleton(action)
        assert eq.inclusion_equivariant and eq.eta_equivariant
        assert classify(eq.action.space).is_skeletal
        # the retraction restricts to the identity on the skeleton
        for m in eq.action.space.morphisms:
            assert eq.retraction.mor_map[m.name] == m.name


class TestTransportGroupoid:
    def test_s3_goldens(self):
        s3, pts, act = s3_point_action()
        groupoid = transport_groupoid(s3, pts, act)
        assert groupoid_chi2(groupoid) == Fraction(1, 2)
        assert len(iso_classes(groupoid).classes) == 1

    def test_trivial_group(self):
        from eulcat.groups import trivial_group

        groupoid = transport_groupoid(
            trivial_group(), ("a", "b", "c"), {"0": {"a": "a", "b": "b", "c": "c"}}
        )
        assert groupoid_chi2(groupoid) == 3
        assert len(groupoid.morphisms) == 3

    def test_z2_swap_is_contractible(self):
        z2 = cyclic_group(2)
        groupoid = transport_groupoid(
            z2,
            ("1", "2"),
            {"0": {"1": "1", "2": "2"}, "1": {"1": "2", "2": "1"}},
        )
        # one class with trivial stabilizer: |S|/|G| = 2/2
        assert groupoid_chi2(groupoid) == 1
        assert len(iso_classes(groupoid).classes) == 1
        iso = iso_classes(groupoid)
        assert iso.aut[iso.representatives[0]].order == 1

    def test_morphism_law_sees_no_point(self, monkeypatch):
        """Every morphism of the discrete scwol is an identity, where the law
        follows from the object level; the scwol is thin, so the morphism
        level is not checked at all, and only the objects are."""
        seen = []
        real = groupact._check_homomorphism_law

        def counted(group, table, points, what):
            seen.append((what, len(points)))
            return real(group, table, points, what)

        monkeypatch.setattr(groupact, "_check_homomorphism_law", counted)
        s3, pts, act = s3_point_action()
        transport_groupoid(s3, pts, act)
        assert seen == [("object", 3)]

    def test_rejects_a_row_for_no_element(self):
        """Rows reach ScwolAction unfiltered, so a G-set table is held to
        the same rule as an action manifest."""
        z2 = cyclic_group(2)
        act = {"0": {"1": "1", "2": "2"}, "1": {"1": "2", "2": "1"}, "ghost": {"1": "1"}}
        with pytest.raises(NotAFunctorAction) as info:
            transport_groupoid(z2, ("1", "2"), act)
        assert info.value.witness == {"element": "ghost"}

    def test_rejects_non_action(self):
        z2 = cyclic_group(2)
        with pytest.raises(NotAnAction):
            transport_groupoid(
                z2,
                ("1", "2"),
                {"0": {"1": "1", "2": "2"}, "1": {"1": "1", "2": "1"}},
            )


class TestChiTheorems:
    def test_circle(self):
        rep = chi_theorems(randgen.circle_action())
        assert rep.chi_space == 0 and rep.chi_quotient == 1
        assert rep.chi2_hocolim_direct_route == 0
        assert rep.chi_hocolim == 1
        assert rep.all_hold()

    def test_free_swap(self):
        disc = zoo.discrete_category(["p", "q"])
        z2 = cyclic_group(2)
        action = ScwolAction(
            z2,
            disc,
            {"0": {"p": "p", "q": "q"}, "1": {"p": "q", "q": "p"}},
            {
                "0": {"id_p": "id_p", "id_q": "id_q"},
                "1": {"id_p": "id_q", "id_q": "id_p"},
            },
        )
        rep = chi_theorems(action)
        assert rep.free_on_objects and rep.free_quotient_law
        assert rep.chi_quotient == 1 == rep.chi_space // 2

    def test_s3_discrete(self):
        s3, pts, act = s3_point_action()
        disc = zoo.discrete_category(pts)
        action = ScwolAction(
            s3,
            disc,
            {g: dict(act[g]) for g in s3.labels},
            {
                g: {disc.identity[s]: disc.identity[act[g][s]] for s in pts}
                for g in s3.labels
            },
        )
        rep = chi_theorems(action)
        assert rep.chi2_hocolim_direct_route == Fraction(1, 2)
        assert rep.chi_hocolim == 1
        assert rep.all_hold()

    @settings(max_examples=10, deadline=None)
    @given(actions)
    def test_always_hold(self, action):
        assert chi_theorems(action).all_hold()

    @settings(max_examples=10, deadline=None)
    @given(noncentral_actions)
    def test_hold_with_drawn_noncentral_twists(self, drawn):
        action, h = drawn
        assert chi_theorems(action).all_hold()
        # chi2(hocolim) = chi(X)/|G| for every choice of h elements
        total = hocolim_groups(complex_of_groups(action, h_elements=h).complex)
        assert chi_L(total) == Fraction(chi_scwol(action.space), action.group.order)

    def test_s3_flag(self):
        action, h_elements = s3_flag_action()
        rep = chi_theorems(action)
        assert rep.all_hold() and rep.chi2_hocolim_direct_route == Fraction(1, 6)
        assert skeletal_reduction(action).report.all_hold()
        # the chi_L of the homotopy colimit does not depend on the h elements
        assert chi_L(hocolim_groups(flag_complex())) == Fraction(1, 6)


class TestDevelopability:
    def test_positive_chi2_blocks_zero_chi(self):
        z2 = cyclic_group(2)
        z4 = cyclic_group(4)
        hom = GroupHom(z2, z4, {"0": "0", "1": "2"})
        rep = developability_check(
            one_arrow_complex(z2, z4, hom), [(0, 2), (0, 8), (0, 24)]
        )
        assert rep.chi2_hocolim == Fraction(1, 4)
        assert [c.verdict for c in rep.candidates] == ["FAIL", "FAIL", "FAIL"]

    def test_exact_match_passes(self):
        from eulcat.groups import trivial_group

        one = trivial_group()
        z2 = cyclic_group(2)
        hom = GroupHom(one, z2, {"0": "0"})
        rep = developability_check(one_arrow_complex(one, z2, hom), [(2, 4)])
        assert rep.candidates[0].verdict == "PASS"

    def test_integrality_fails(self):
        from eulcat.groups import trivial_group

        one = trivial_group()
        z2 = cyclic_group(2)
        hom = GroupHom(one, z2, {"0": "0"})
        rep = developability_check(one_arrow_complex(one, z2, hom), [(1, 3)])
        assert rep.candidates[0].verdict == "FAIL"

    def test_developable_instances_pass_their_own_data(self):
        action = randgen.cone_action(randgen.circle_action())
        built = complex_of_groups(action)
        rep = developability_check(
            built.complex,
            [(chi_scwol(action.space), action.group.order)],
        )
        assert rep.candidates[0].verdict == "PASS"


class TestHaefliger:
    def test_pushout_symbolic(self):
        vals = {"j": Fraction(2, 3), "k": Fraction(-1, 5), "l": Fraction(7)}
        assert haefliger_chi(zoo.pushout_scwol(), vals) == vals["k"] + vals["l"] - vals["j"]

    def test_all_ones_reduces_to_chi(self):
        cat = zoo.subsets_poset_opposite(1)
        vals = {x: Fraction(1) for x in cat.objects}
        assert haefliger_chi(cat, vals) == chi_scwol(cat) == 1

    @settings(max_examples=20, deadline=None)
    @given(scwols)
    def test_trivial_locals_give_chi(self, cat):
        gamma = skeleton(cat).category
        vals = {x: Fraction(1) for x in gamma.objects}
        assert haefliger_chi(cat, vals) == chi_scwol(cat)

    def test_unknown_key_is_rejected(self):
        vals = {"j": Fraction(1), "k": Fraction(1), "l": Fraction(1), "zz": Fraction(2)}
        with pytest.raises(UnknownObject, match="'zz'"):
            haefliger_chi(zoo.pushout_scwol(), vals)

    def test_values_in_one_class_must_agree(self):
        # j~0 and j~1 are isomorphic copies of j; j~0 represents the class
        fat = zoo.inflate(zoo.pushout_scwol(), {"j": 2})
        vals = {"j~0": Fraction(1, 2), "k~0": Fraction(1, 3), "l~0": Fraction(1, 5)}
        expected = vals["k~0"] + vals["l~0"] - vals["j~0"]
        assert haefliger_chi(fat, vals) == expected
        assert haefliger_chi(fat, {**vals, "j~1": Fraction(1, 2)}) == expected
        with pytest.raises(ValidationError, match="'j~0' and 'j~1'") as err:
            haefliger_chi(fat, {**vals, "j~1": Fraction(1, 7)})
        assert err.value.witness == {
            "objects": ("j~0", "j~1"), "values": (Fraction(1, 2), Fraction(1, 7))
        }

    @settings(max_examples=15, deadline=None)
    @given(small_rationals, small_rationals, small_rationals)
    def test_pushout_formula_over_random_rationals(self, a, b, c):
        assert haefliger_chi(zoo.pushout_scwol(), {"j": a, "k": b, "l": c}) == b + c - a


class TestWorkCounts:
    """Counted calls pin the work that the index-level group layer removed."""

    INPUTS = {
        "circle": randgen.circle_action,
        "cone": lambda: randgen.cone_action(randgen.circle_action()),
        "fat-circle": lambda: randgen.inflate_action(
            randgen.circle_action(), {"x": 2, "x2": 2, "y": 1, "z": 1}
        ),
        "seed-14": lambda: randgen.random_action(Random(14)),
        "seed-59": lambda: randgen.random_action(Random(59)),
        "S3-flag": lambda: s3_flag_action()[0],
    }

    @pytest.mark.parametrize("make", INPUTS.values(), ids=INPUTS.keys())
    def test_reduction_and_theorems_take_three_quotients(self, make, monkeypatch):
        """skeletal_reduction hands its two quotients to the complexes it
        builds, and chi_theorems takes one more, as the audit task does."""
        action = make()
        counts = {"quotient": 0}
        count_calls(monkeypatch, counts)
        assert skeletal_reduction(action).report.all_hold()
        assert chi_theorems(action).all_hold()
        assert counts == {"quotient": 3}

    @pytest.mark.parametrize("make", INPUTS.values(), ids=INPUTS.keys())
    def test_group_laws_take_no_labelled_product(self, make, monkeypatch):
        """GroupHom, ComplexOfGroups, complex_of_groups and hocolim_groups
        compute on Cayley-table indices, never through FinGroup.mul."""
        action = make()
        cplx = complex_of_groups(action).complex
        chain = s3_chain(conjugating=True)
        counts = {"mul": 0, "inv": 0, "conjugate": 0}
        for name in counts:
            real = getattr(FinGroup, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(FinGroup, name, counted)
        for hom in cplx.homs.values():
            GroupHom(hom.source, hom.target, dict(hom.mapping))
        ComplexOfGroups(cplx.base, cplx.local, cplx.homs, cplx.twists)
        ComplexOfGroups(*chain)
        hocolim_groups(cplx)
        chi_theorems(action)
        assert counts == {"mul": 0, "inv": 0, "conjugate": 0}
