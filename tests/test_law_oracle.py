"""The law oracle for the categories the library builds without checking
their laws.

Every homotopy colimit total (``grothendieck``, ``grothendieck_pseudo``,
``hocolim_groups``), and ``one_object_category``, ``lower_link`` and
``quotient``, is built from an input whose own checks make it lawful.
Here each output is rebuilt through the checked ``FinCat`` constructor
(``helpers.assert_lawful``).  The non-vacuity tests skip the input checks
on a complex with a broken cocycle and on pseudo diagrams with a broken
unit or associativity component, and show that the oracle rejects their
totals: the input checks are what carry the weight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulcat import zoo
from eulcat.errors import ValidationError
from eulcat.fincat import BrokenIdentity, CatFunctor, NonAssociative, lower_link
from eulcat.groupact import (
    ComplexOfGroups,
    complex_of_groups,
    complex_to_pseudo_diagram,
    hocolim_groups,
    quotient,
)
from eulcat.groups import cyclic_group
from eulcat.hocolim import CoherenceFailure, PseudoDiagram, grothendieck, grothendieck_pseudo

from helpers import assert_lawful, unvalidated, z2_chain_complex_data
from strategies import actions, groups, noncentral_actions, scwols, strict_diagrams


def assert_both_totals_lawful(cplx):
    assert_lawful(grothendieck_pseudo(complex_to_pseudo_diagram(cplx)))
    assert_lawful(hocolim_groups(cplx))


class TestTotals:
    @settings(max_examples=40, deadline=None)
    @given(strict_diagrams)
    def test_strict(self, d):
        assert_lawful(grothendieck(d).category)

    @settings(max_examples=25, deadline=None)
    @given(strict_diagrams)
    def test_pseudo_view_of_strict(self, d):
        assert_lawful(grothendieck_pseudo(PseudoDiagram.from_strict(d)))

    @settings(max_examples=25, deadline=None)
    @given(actions)
    def test_complex_of_an_action_by_both_routes(self, action):
        assert_both_totals_lawful(complex_of_groups(action).complex)

    @settings(max_examples=20, deadline=None)
    @given(noncentral_actions)
    def test_noncentral_complex_by_both_routes(self, drawn):
        action, h = drawn
        assert_both_totals_lawful(complex_of_groups(action, h_elements=h).complex)


class TestSmallerBuilders:
    @settings(max_examples=30, deadline=None)
    @given(groups)
    def test_one_object_category(self, group):
        assert_lawful(zoo.one_object_category(group))

    @settings(max_examples=30, deadline=None)
    @given(scwols)
    def test_lower_link_at_every_object(self, cat):
        for x in cat.objects:
            assert_lawful(lower_link(cat, x))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(actions, noncentral_actions.map(lambda drawn: drawn[0])))
    def test_quotient(self, action):
        assert_lawful(quotient(action).category)


class TestNonVacuity:
    def test_broken_cocycle(self):
        data = z2_chain_complex_data(corrupt=True)
        with pytest.raises(ValidationError, match=r"cocycle fails on triple \('c', 'b', 'a'\)"):
            ComplexOfGroups(*data)
        broken = unvalidated(ComplexOfGroups, base=data[0], local=data[1], homs=data[2],
                             twists=data[3])
        with pytest.raises(NonAssociative):
            assert_lawful(hocolim_groups(broken))

    def test_broken_associativity_component(self):
        good = complex_to_pseudo_diagram(ComplexOfGroups(*z2_chain_complex_data(corrupt=False)))
        comp = {**good.comp, ("b", "a"): {"*": "1"}}
        fields = dict(index=good.index, vertex=good.vertex, edge=good.edge, comp=comp,
                      unit=good.unit)
        with pytest.raises(CoherenceFailure, match="associativity coherence fails"):
            PseudoDiagram(**fields)
        with pytest.raises(NonAssociative):
            assert_lawful(grothendieck_pseudo(unvalidated(PseudoDiagram, **fields)))

    def test_broken_unit_component(self):
        """B(Z/3) over the terminal category: the unit axioms force
        comp = -unit, so unit 1 with comp 1 breaks them and nothing else
        (every component is natural, and associativity holds for any comp)."""
        index, vertex = zoo.terminal_category("i"), zoo.one_object_category(cyclic_group(3))
        idx_id = index.identity["i"]
        fields = dict(index=index, vertex={"i": vertex},
                      edge={idx_id: CatFunctor.identity_functor(vertex)},
                      comp={(idx_id, idx_id): {"*": "1"}}, unit={"i": {"*": "1"}})
        with pytest.raises(CoherenceFailure, match="right unit axiom fails"):
            PseudoDiagram(**fields)
        with pytest.raises(BrokenIdentity):
            assert_lawful(grothendieck_pseudo(unvalidated(PseudoDiagram, **fields)))

    def test_valid_inputs_pass(self):
        """The same constructions on the uncorrupted complex pass the oracle."""
        cplx = ComplexOfGroups(*z2_chain_complex_data(corrupt=False))
        assert_lawful(hocolim_groups(cplx))
        assert_lawful(grothendieck_pseudo(complex_to_pseudo_diagram(cplx)))
