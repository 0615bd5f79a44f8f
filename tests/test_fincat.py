import pytest
from hypothesis import given, settings

from eulcat import zoo
from eulcat.fincat import (
    BrokenIdentity,
    DanglingReference,
    IncompleteCompositionTable,
    NonAssociative,
    NotScwol,
    UnknownObject,
    classify,
    iso_classes,
    lower_link,
    opposite,
    path_counts,
    product,
    skeleton,
    validate,
)
from eulcat.groups import FinGroup, NotAGroup, cyclic_group, symmetric_group, perm_of_label

from helpers import are_isomorphic, equal_presentation, monoid_z2_mult, start_sum
from strategies import scwols, skeletal_scwols, groupoids


def pushout_raw():
    return {
        "objects": ["j", "k", "l"],
        "morphisms": [
            {"id": "id_j", "source": "j", "target": "j"},
            {"id": "id_k", "source": "k", "target": "k"},
            {"id": "id_l", "source": "l", "target": "l"},
            {"id": "g", "source": "j", "target": "k"},
            {"id": "h", "source": "j", "target": "l"},
        ],
        "identity": {"j": "id_j", "k": "id_k", "l": "id_l"},
        "compose": [
            ["id_j", "id_j", "id_j"],
            ["id_k", "id_k", "id_k"],
            ["id_l", "id_l", "id_l"],
            ["id_k", "g", "g"],
            ["g", "id_j", "g"],
            ["id_l", "h", "h"],
            ["h", "id_j", "h"],
        ],
    }


class TestValidate:
    def test_pushout_is_valid(self):
        cat = validate(pushout_raw())
        assert len(cat.objects) == 3
        assert len(cat.morphisms) == 5

    def test_terminal_category(self):
        raw = {
            "objects": ["*"],
            "morphisms": [{"id": "id", "source": "*", "target": "*"}],
            "identity": {"*": "id"},
            "compose": [["id", "id", "id"]],
        }
        cat = validate(raw)
        assert cat.objects == ("*",)

    def test_non_composable_entry_rejected(self):
        raw = pushout_raw()
        raw["compose"].append(["g", "g", "g"])  # target(g)=k, source(g)=j
        with pytest.raises(DanglingReference):
            validate(raw)

    def test_missing_composite_rejected(self):
        raw = pushout_raw()
        raw["compose"] = [entry for entry in raw["compose"] if entry[0] != "id_k" or entry[1] != "g"]
        with pytest.raises(IncompleteCompositionTable) as exc:
            validate(raw)
        assert exc.value.witness == {"pair": ("id_k", "g")}

    @pytest.mark.parametrize("edit, error, message, witness", [
        (lambda raw: raw["objects"].append("k"), DanglingReference,
         "C: duplicate object ids", {"object": "k"}),
        (lambda raw: raw["morphisms"].append({"id": "g", "source": "j", "target": "l"}),
         DanglingReference, "C: duplicate morphism ids ['g']", {"morphism": "g"}),
        (lambda raw: raw["morphisms"][3].update(target="zz"), DanglingReference,
         "C: morphism 'g' has unknown endpoint 'j' -> 'zz'", {"morphism": "g"}),
        (lambda raw: raw["identity"].pop("l"), BrokenIdentity,
         "C: object 'l' has no identity morphism", {"object": "l"}),
        (lambda raw: raw["identity"].update(l="nosuch"), DanglingReference,
         "C: identity 'nosuch' of 'l' is unknown", {"object": "l"}),
        (lambda raw: raw["identity"].update(zz="id_l"), DanglingReference,
         "C: identity table names unknown object 'zz'", {"object": "zz"}),
        (lambda raw: raw["compose"].append(["nosuch", "g", "g"]), DanglingReference,
         "C: composition entry ('nosuch', 'g') -> 'g' names unknown morphisms",
         {"pair": ("nosuch", "g")}),
        (lambda raw: raw["compose"].append(["g", "g", "g"]), DanglingReference,
         "C: pair ('g', 'g') is not composable (target of 'g' is 'k', source of 'g' is 'j')",
         {"pair": ("g", "g")}),
        (lambda raw: raw["compose"].__setitem__(3, ["id_k", "g", "h"]),
         IncompleteCompositionTable, "C: composite 'h' of ('id_k', 'g') has wrong endpoints",
         {"pair": ("id_k", "g")}),
        (lambda raw: raw.update(identity=[]), DanglingReference,
         "C: malformed category description ('list' object has no attribute 'items')",
         {"cause": "'list' object has no attribute 'items'"}),
    ], ids=["duplicate-object", "duplicate-morphism", "unknown-endpoint", "no-identity",
            "unknown-identity", "identity-of-no-object", "entry-names-nothing",
            "not-composable", "wrong-endpoints", "malformed"])
    def test_rejection_carries_a_witness(self, edit, error, message, witness):
        raw = pushout_raw()
        edit(raw)
        with pytest.raises(error) as exc:
            validate(raw)
        assert (str(exc.value), exc.value.witness) == (message, witness)

    def test_build_category_leaves_a_missing_composite_to_fincat(self):
        """zoo.build_category has no check of its own: FinCat names the pair."""
        with pytest.raises(IncompleteCompositionTable) as exc:
            zoo.build_category(("x", "y", "z"), (("f", "x", "y"), ("g", "y", "z")))
        assert str(exc.value) == "C: missing composite for pair ('g', 'f')"
        assert exc.value.witness == {"pair": ("g", "f")}

    def test_unknown_object_rejected(self):
        raw = pushout_raw()
        raw["morphisms"][3]["target"] = "zz"
        with pytest.raises(DanglingReference):
            validate(raw)

    def test_broken_identity_rejected(self):
        raw = pushout_raw()
        raw["identity"]["j"] = "id_k"
        with pytest.raises(BrokenIdentity) as exc:
            validate(raw)
        assert exc.value.witness == {"morphism": "id_k"}

    def test_identity_law_rejected(self):
        raw = pushout_raw()
        for entry in raw["compose"]:
            if entry[:2] == ["id_k", "g"]:
                entry[2] = "h"
        with pytest.raises((BrokenIdentity, IncompleteCompositionTable)):
            validate(raw)

    def test_identity_law_witness(self):
        raw = {
            "objects": ["*"],
            "morphisms": [
                {"id": "e", "source": "*", "target": "*"},
                {"id": "a", "source": "*", "target": "*"},
            ],
            "identity": {"*": "e"},
            "compose": [["e", "e", "e"], ["e", "a", "e"], ["a", "e", "a"], ["a", "a", "e"]],
        }
        with pytest.raises(BrokenIdentity, match=r"id o 'a' != 'a'") as exc:
            validate(raw)
        assert exc.value.witness == {"morphism": "a"}

    def test_non_associative_rejected(self):
        # monoid table on {e, a, b} with a deliberate associativity defect
        raw = {
            "objects": ["*"],
            "morphisms": [
                {"id": "e", "source": "*", "target": "*"},
                {"id": "a", "source": "*", "target": "*"},
                {"id": "b", "source": "*", "target": "*"},
            ],
            "identity": {"*": "e"},
            "compose": [
                ["e", "e", "e"], ["e", "a", "a"], ["e", "b", "b"],
                ["a", "e", "a"], ["b", "e", "b"],
                ["a", "a", "b"], ["a", "b", "a"],
                ["b", "a", "a"], ["b", "b", "a"],
            ],
        }
        with pytest.raises(NonAssociative) as exc:
            validate(raw)
        # f = g = a: b o (a o a) = b o b = a, but (b o a) o a = a o a = b
        assert exc.value.witness == {"h": "b", "g": "a", "f": "a"}
        assert str(exc.value) == "C: h o (g o f) != (h o g) o f for (h, g, f) = ('b', 'a', 'a')"

    def test_non_associative_group_table_witness(self):
        # identity e and inverses exist, but (a a) b = b while a (a b) = a
        table = ((0, 1, 2), (1, 0, 0), (2, 0, 0))
        with pytest.raises(NotAGroup) as exc:
            FinGroup(("e", "a", "b"), table, name="M")
        assert exc.value.witness == ("a", "a", "b")
        assert str(exc.value) == "M is not associative on ('a', 'a', 'b')"


class TestClassify:
    def test_pushout_flags(self):
        rep = classify(zoo.pushout_scwol())
        assert rep.is_scwol and rep.is_EI and rep.is_directly_finite
        assert not rep.is_groupoid
        assert rep.is_skeletal and rep.is_connected

    def test_z2_groupoid(self):
        rep = classify(zoo.one_object_category(cyclic_group(2)))
        assert rep.is_groupoid and rep.is_EI
        assert not rep.is_scwol

    def test_multiplicative_monoid(self):
        rep = classify(monoid_z2_mult())
        assert not rep.is_EI
        assert rep.is_directly_finite

    @settings(max_examples=20, deadline=None)
    @given(scwols)
    def test_scwol_implies_ei_and_directly_finite(self, cat):
        rep = classify(cat)
        assert rep.is_scwol
        assert rep.is_EI and rep.is_directly_finite

    @settings(max_examples=15, deadline=None)
    @given(groupoids)
    def test_groupoid_implies_ei(self, gpd):
        rep = classify(gpd.category)
        assert rep.is_groupoid and rep.is_EI


class TestIsoClasses:
    def test_discrete(self):
        iso = iso_classes(zoo.discrete_category(["a", "b"]))
        assert iso.classes == (("a",), ("b",))
        assert all(iso.aut[r].order == 1 for r in iso.representatives)

    def test_transport_groupoid_of_s3(self):
        from eulcat.groupact import transport_groupoid

        s3 = symmetric_group(3)
        pts = ("1", "2", "3")
        act = {g: {s: str(perm_of_label(g)[int(s) - 1] + 1) for s in pts} for g in s3.labels}
        groupoid = transport_groupoid(s3, pts, act)
        iso = iso_classes(groupoid)
        assert len(iso.classes) == 1
        assert iso.aut[iso.representatives[0]].order == 2

    def test_circle_scwol_classes(self):
        iso = iso_classes(zoo.circle_scwol())
        assert len(iso.classes) == 4
        assert all(len(c) == 1 for c in iso.classes)


class TestSkeleton:
    def test_skeletal_input_unchanged(self):
        cat = zoo.pushout_scwol()
        sk = skeleton(cat)
        assert sk.category.objects == cat.objects
        assert all(cat.is_identity(m) for m in sk.eta.values())

    def test_contractible_groupoid(self):
        cat = zoo.contractible_groupoid(["x", "y"])
        sk = skeleton(cat)
        assert len(sk.category.objects) == 1
        assert len(sk.category.morphisms) == 1

    def test_retraction_section(self):
        cat = zoo.inflate(zoo.pushout_scwol(), {"j": 2, "k": 1, "l": 3})
        sk = skeleton(cat)
        for x in sk.category.objects:
            assert sk.retraction.obj_map[x] == x
        for m in sk.category.morphisms:
            assert sk.retraction.mor_map[m.name] == m.name

    @settings(max_examples=20, deadline=None)
    @given(scwols)
    def test_skeleton_laws(self, cat):
        sk = skeleton(cat)  # the functors and eta are checked as they are built
        assert classify(sk.category).is_skeletal
        rep_in = classify(cat)
        rep_sk = classify(sk.category)
        assert rep_in.is_EI == rep_sk.is_EI
        assert rep_in.is_directly_finite == rep_sk.is_directly_finite
        assert rep_in.is_groupoid == rep_sk.is_groupoid

    @settings(max_examples=10, deadline=None)
    @given(groupoids)
    def test_classify_equivalence_invariance_groupoids(self, gpd):
        rep_in = classify(gpd.category)
        rep_sk = classify(skeleton(gpd.category).category)
        assert rep_in.is_groupoid == rep_sk.is_groupoid
        assert rep_in.is_EI == rep_sk.is_EI


class TestPathCounts:
    def test_pushout(self):
        pc = path_counts(zoo.pushout_scwol())
        assert pc.counts == (3, 2)
        assert pc.starts == {"j": (1, 2), "k": (1, 0), "l": (1, 0)}

    def test_parallel_pair(self):
        pc = path_counts(zoo.parallel_pair_scwol())
        assert pc.counts == (2, 2)

    def test_circle(self):
        pc = path_counts(zoo.circle_scwol())
        assert pc.counts == (4, 4)
        assert pc.euler_sum() == 0

    def test_rejects_non_scwol(self):
        with pytest.raises(NotScwol):
            path_counts(zoo.one_object_category(cyclic_group(2)))

    @settings(max_examples=20, deadline=None)
    @given(skeletal_scwols)
    def test_invariant_under_inflation(self, cat):
        copies = {x: 1 + (i % 2) for i, x in enumerate(cat.objects)}
        fat = zoo.inflate(cat, copies)
        assert path_counts(fat).counts == path_counts(cat).counts

    def test_dimension_cap(self):
        with pytest.raises(NotScwol):
            path_counts(zoo.pushout_scwol(), n_max=0)



class TestLowerLink:
    def test_pushout_at_source(self):
        link = lower_link(zoo.pushout_scwol(), "j")
        assert sorted(link.objects) == ["g", "h"]
        assert all(link.is_identity(m.name) for m in link.morphisms)

    def test_pushout_at_sink(self):
        link = lower_link(zoo.pushout_scwol(), "k")
        assert link.objects == ()

    def test_subsets_poset_q1(self):
        cat = zoo.subsets_poset_opposite(1)
        link = lower_link(cat, "{0,1}")
        assert len(link.objects) == 2
        assert all(link.is_identity(m.name) for m in link.morphisms)

    def test_unknown_object(self):
        with pytest.raises(UnknownObject) as info:
            lower_link(zoo.pushout_scwol(), "zz")
        assert info.value.witness == {"object": "zz"}

    @settings(max_examples=30, deadline=None)
    @given(scwols)
    def test_table_matches_pairwise_reference(self, cat):
        """Composites grouped by source give the table, in its order, of a
        search over every pair of link morphisms."""
        for x in cat.objects:
            link = lower_link(cat, x)
            # the link morphism (u, a), in the order lower_link lists them
            u_of = {}
            for a in link.objects:
                for u in cat.morphisms_from(cat.target(a)):
                    if cat.compose(u, a) in link.objects:
                        u_of[f"({u},{a})"] = u
            assert list(u_of) == list(link.morphism_names())
            pairwise = {
                (m2.name, m1.name): f"({cat.compose(u_of[m2.name], u_of[m1.name])},{m1.source})"
                for m1 in link.morphisms
                for m2 in link.morphisms
                if m1.target == m2.source
            }
            assert dict(link.composition) == pairwise

    @settings(max_examples=20, deadline=None)
    @given(skeletal_scwols)
    def test_link_shortens_paths(self, cat):
        depth = len(path_counts(cat).counts)
        for x in cat.objects:
            link = lower_link(cat, x)
            assert classify(link).is_scwol
            assert len(path_counts(link).counts) < depth + 1
            # every path from x corresponds to a path one shorter in the link
            assert start_sum(path_counts(cat), x) == 1 - (
                path_counts(link).euler_sum()
            )


class TestConstructions:
    def test_opposite_involution(self):
        cat = zoo.pushout_scwol()
        assert equal_presentation(opposite(opposite(cat)), cat)

    def test_product_counts(self):
        a = zoo.pushout_scwol()
        b = zoo.parallel_pair_scwol()
        prod = product(a, b)
        assert len(prod.objects) == len(a.objects) * len(b.objects)
        assert len(prod.morphisms) == len(a.morphisms) * len(b.morphisms)

    def test_are_isomorphic_positive(self):
        a = zoo.pushout_scwol()
        relabeled = validate(
            {
                "objects": ["q0", "q1", "q2"],
                "morphisms": [
                    {"id": "i0", "source": "q0", "target": "q0"},
                    {"id": "i1", "source": "q1", "target": "q1"},
                    {"id": "i2", "source": "q2", "target": "q2"},
                    {"id": "m1", "source": "q1", "target": "q0"},
                    {"id": "m2", "source": "q1", "target": "q2"},
                ],
                "identity": {"q0": "i0", "q1": "i1", "q2": "i2"},
                "compose": [
                    ["i0", "i0", "i0"], ["i1", "i1", "i1"], ["i2", "i2", "i2"],
                    ["i0", "m1", "m1"], ["m1", "i1", "m1"],
                    ["i2", "m2", "m2"], ["m2", "i1", "m2"],
                ],
            }
        )
        assert are_isomorphic(a, relabeled)

    def test_are_isomorphic_negative(self):
        assert not are_isomorphic(zoo.pushout_scwol(), zoo.parallel_pair_scwol())
        assert not are_isomorphic(
            zoo.one_object_category(cyclic_group(4)),
            zoo.one_object_category(zoo_klein()),
        )


def zoo_klein():
    from eulcat.groups import klein_four_group

    return klein_four_group()
