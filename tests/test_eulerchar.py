from fractions import Fraction

import pytest
from hypothesis import given, settings

from eulcat import zoo
from eulcat.eulerchar import (
    HypothesisNotMet,
    chi2_free_EI,
    chi_f_scwol,
    chi_scwol,
    groupoid_chi2,
)
from eulcat.fincat import NotGroupoid, iso_classes, opposite, skeleton
from eulcat.groups import FinGroup, cyclic_group, symmetric_group, perm_of_label
from eulcat.ratlin import Weighting, chi_L

from strategies import groupoids, scwols

from helpers import monoid_z2_mult, gamma_one, gamma_two


class TestChiScwol:
    def test_pushout(self):
        assert chi_scwol(zoo.pushout_scwol()) == 1

    def test_parallel_pair(self):
        assert chi_scwol(zoo.parallel_pair_scwol()) == 0

    def test_circle(self):
        assert chi_scwol(zoo.circle_scwol()) == 0

    @settings(max_examples=25, deadline=None)
    @given(scwols)
    def test_agrees_with_chi_l(self, cat):
        assert chi_scwol(cat) == chi_L(skeleton(cat).category)

    @settings(max_examples=25, deadline=None)
    @given(scwols)
    def test_opposite_invariance(self, cat):
        assert chi_scwol(opposite(cat)) == chi_scwol(cat)


class TestChiFScwol:
    def test_pushout_components(self):
        assert chi_f_scwol(zoo.pushout_scwol()) == {"j": -1, "k": 1, "l": 1}

    def test_single_object(self):
        assert chi_f_scwol(zoo.terminal_category()) == {"*": 1}

    def test_parallel_pair(self):
        assert chi_f_scwol(zoo.parallel_pair_scwol()) == {"j": -1, "k": 1}

    @settings(max_examples=25, deadline=None)
    @given(scwols)
    def test_components_form_a_weighting_on_the_skeleton(self, cat):
        values = chi_f_scwol(cat)
        gamma = skeleton(cat).category
        # the Weighting constructor re-verifies the defining equation
        Weighting(gamma, values, side="weighting", unique=True)
        assert sum(values.values()) == chi_scwol(cat)


class TestGroupoidChi2:
    def test_one_object_z2(self):
        assert groupoid_chi2(zoo.one_object_category(cyclic_group(2))) == Fraction(1, 2)

    def test_discrete(self):
        assert groupoid_chi2(zoo.discrete_category(list("abcd"))) == 4

    def test_transport_s3(self):
        from eulcat.groupact import transport_groupoid

        s3 = symmetric_group(3)
        pts = ("1", "2", "3")
        act = {g: {s: str(perm_of_label(g)[int(s) - 1] + 1) for s in pts} for g in s3.labels}
        assert groupoid_chi2(transport_groupoid(s3, pts, act)) == Fraction(1, 2)

    def test_rejects_non_groupoid(self):
        with pytest.raises(NotGroupoid) as info:
            groupoid_chi2(zoo.pushout_scwol())
        # the first non-invertible morphism in morphism order
        assert info.value.witness == {"morphism": "g"}

    @settings(max_examples=15, deadline=None)
    @given(groupoids)
    def test_equivalence_invariance(self, gpd):
        cat = gpd.category
        assert groupoid_chi2(cat) == groupoid_chi2(skeleton(cat).category)

    @settings(max_examples=15, deadline=None)
    @given(groupoids)
    def test_agrees_with_chi_l(self, gpd):
        assert groupoid_chi2(gpd.category) == chi_L(gpd.category)

    @settings(max_examples=15, deadline=None)
    @given(groupoids)
    def test_agrees_with_the_automorphism_group_route(self, gpd):
        """The former route: the order of the validated aut group of each
        class representative."""
        iso = iso_classes(gpd.category)
        expected = sum((Fraction(1, iso.aut[rep].order) for rep in iso.representatives), Fraction(0))
        assert groupoid_chi2(gpd.category) == expected

    def test_builds_no_group(self, monkeypatch):
        cat = zoo.inflate(zoo.one_object_category(symmetric_group(3)), {"*": 2})
        built = []
        real = FinGroup.__post_init__
        monkeypatch.setattr(FinGroup, "__post_init__", lambda self: built.append(self) or real(self))
        assert groupoid_chi2(cat) == Fraction(1, 6)
        assert built == []


class TestChi2FreeEI:
    def test_gamma_one(self):
        assert chi2_free_EI(gamma_one()) == Fraction(1, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_one_object_group(self, n):
        assert chi2_free_EI(zoo.one_object_category(cyclic_group(n))) == Fraction(1, n)

    def test_gamma_two_rejected_with_witness(self):
        with pytest.raises(HypothesisNotMet) as err:
            chi2_free_EI(gamma_two())
        u, a = err.value.witness
        cat = gamma_two()
        assert cat.compose(u, a) == a
        assert not cat.is_identity(u)

    def test_non_ei_rejected(self):
        with pytest.raises(HypothesisNotMet):
            chi2_free_EI(monoid_z2_mult())

    @settings(max_examples=20, deadline=None)
    @given(scwols)
    def test_scwols_satisfy_hypotheses(self, cat):
        # the operation checks agreement with chi_L internally
        assert chi2_free_EI(cat) == chi_scwol(cat)
