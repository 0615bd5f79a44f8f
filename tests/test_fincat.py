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
    are_isomorphic,
    classify,
    equal_presentation,
    iso_classes,
    lower_link,
    opposite,
    path_counts,
    product,
    skeleton,
    validate,
)
from eulcat.groups import cyclic_group, symmetric_group, perm_of_label

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
        with pytest.raises(IncompleteCompositionTable):
            validate(raw)

    def test_unknown_object_rejected(self):
        raw = pushout_raw()
        raw["morphisms"][3]["target"] = "zz"
        with pytest.raises(DanglingReference):
            validate(raw)

    def test_broken_identity_rejected(self):
        raw = pushout_raw()
        raw["identity"]["j"] = "id_k"
        with pytest.raises(BrokenIdentity):
            validate(raw)

    def test_identity_law_rejected(self):
        raw = pushout_raw()
        for entry in raw["compose"]:
            if entry[:2] == ["id_k", "g"]:
                entry[2] = "h"
        with pytest.raises((BrokenIdentity, IncompleteCompositionTable)):
            validate(raw)

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
        with pytest.raises(NonAssociative):
            validate(raw)


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
        rep = classify(zoo.monoid_z2_mult())
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
        assert all(cat.is_identity(m) for m in sk.eta.components.values())

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
        sk = skeleton(cat)  # CatFunctor/NatIso constructors verify the laws
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
        with pytest.raises(UnknownObject):
            lower_link(zoo.pushout_scwol(), "zz")

    @settings(max_examples=20, deadline=None)
    @given(skeletal_scwols)
    def test_link_shortens_paths(self, cat):
        depth = len(path_counts(cat).counts)
        for x in cat.objects:
            link = lower_link(cat, x)
            assert classify(link).is_scwol
            assert len(path_counts(link).counts) < depth + 1
            # every path from x corresponds to a path one shorter in the link
            assert path_counts(cat).start_sum(x) == 1 - (
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
